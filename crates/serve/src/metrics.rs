//! The live metrics endpoint and the read-only routes it shares with
//! [`crate::Server`].
//!
//! [`MetricsServer`] is what `kgfd --serve-metrics` and
//! `repro --serve-metrics` bind: an accept loop over [`http::read_head`] /
//! [`http::respond`] that answers three `GET` routes until
//! [`MetricsServer::shutdown`] (or drop). [`crate::Server`]'s acceptor
//! answers the same routes through the same function, [`observe_route`].
//!
//! * `GET /metrics` — the obs registry in Prometheus text exposition format
//!   ([`kgfd_obs::prometheus_text`]).
//! * `GET /healthz` — JSON with `status`, the `run` id, `uptime_s`, and the
//!   current pipeline `phase` (see [`kgfd_obs::set_phase`]); `Server` adds
//!   `inflight` and `models`.
//! * `GET /trace` — the top spans by self time from the live trace
//!   collector ([`kgfd_obs::top_spans_json`]).
//!
//! Anything else is a `404 {"error":"not_found"}`, the same on both
//! listeners. It exists so `curl` and a Prometheus scraper can watch a long
//! `train`/`grid` run — not to be a general web server.
//!
//! **Shutdown.** `shutdown()` flips a stop flag and then connects to the
//! listener itself to unblock the accept loop, joining the thread before
//! returning — so a run never exits with the port still held.

use crate::api::{self, ApiError};
use crate::http::{self, HeadError, RequestHead, Status};
use serde_json::{json, Value};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Answers `GET /metrics`, `/healthz` and `/trace` with a content type and
/// body; `None` for every other request. `health` supplies the `/healthz`
/// status and an object of listener-specific fields, appended after the
/// shared `run`, `uptime_s` and `phase`.
pub(crate) fn observe_route(
    head: &RequestHead,
    health: impl FnOnce() -> (&'static str, Value),
) -> Option<(&'static str, Vec<u8>)> {
    if head.method != "GET" {
        return None;
    }
    match head.path.as_str() {
        "/metrics" => Some((
            http::PROMETHEUS_TEXT,
            kgfd_obs::prometheus_text().into_bytes(),
        )),
        "/healthz" => {
            let (status, extra) = health();
            let mut doc = json!({
                "status": status,
                "run": (kgfd_obs::run_id()),
                "uptime_s": (kgfd_obs::clock_us() as f64 / 1e6),
                "phase": (kgfd_obs::current_phase()),
            });
            if let (Value::Object(fields), Value::Object(extra)) = (&mut doc, extra) {
                fields.extend(extra);
            }
            Some((http::JSON, api::render(&doc)))
        }
        "/trace" => {
            let tree = kgfd_obs::TraceTree::build(kgfd_obs::collector().snapshot());
            Some((http::JSON, kgfd_obs::top_spans_json(&tree, 20).into_bytes()))
        }
        _ => None,
    }
}

/// The `404` body both listeners send for a request they do not route.
pub(crate) fn not_found(head: &RequestHead) -> Vec<u8> {
    api::error_json(
        "not_found",
        &format!("no route for {} {}", head.method, head.path),
    )
}

/// The `400` body for a request whose `Content-Length` cannot be trusted.
pub(crate) fn bad_content_length() -> Vec<u8> {
    api::error_body(&ApiError::BadRequest(
        "Content-Length must be one unsigned decimal integer".to_string(),
    ))
}

/// A running metrics endpoint. Shut down explicitly with
/// [`MetricsServer::shutdown`]; dropping it does the same.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an ephemeral
    /// port) and starts serving on a background thread.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("kgfd-metrics".into())
            .spawn(move || accept_loop(listener, &stop_flag))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call; an error just means the listener is
        // already gone, which is equally fine.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // A slow or stuck client must not wedge the endpoint.
        let _ = stream.set_read_timeout(Some(http::IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
        let head = match http::read_head(&mut stream) {
            Ok(head) => head,
            Err(HeadError::Incomplete) => continue,
            Err(HeadError::BadContentLength) => {
                http::discard_buffered(&mut stream);
                let body = bad_content_length();
                http::respond(&mut stream, Status(400), http::JSON, &[], &body);
                continue;
            }
        };
        match observe_route(&head, || ("ok", json!({}))) {
            Some((content_type, body)) => {
                http::respond(&mut stream, Status(200), content_type, &[], &body);
            }
            None => {
                http::discard_unread(&mut stream, &head);
                http::respond(&mut stream, Status(404), http::JSON, &[], &not_found(&head));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphContext, ModelRegistry, ServeConfig, Server};
    use kgfd_obs::registry;
    use std::io::{Read, Write};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The phase is process-global; tests that set it take this lock so the
    /// harness's thread-per-test execution cannot interleave them.
    static PHASE_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock_phase() -> MutexGuard<'static, ()> {
        PHASE_TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn send(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    fn request(addr: SocketAddr, method: &str, path: &str) -> String {
        send(
            addr,
            &format!("{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n"),
        )
    }

    fn json_body(response: &str) -> serde_json::Value {
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        serde_json::from_str(body).expect("body is JSON")
    }

    /// A `kgfd serve` instance over the toy graph with no models loaded.
    fn empty_server(config: ServeConfig) -> Server {
        let data = kgfd_datasets::toy_biomedical();
        let registry = ModelRegistry::new(GraphContext::new(data.vocab, data.train));
        Server::start(config, Arc::new(registry)).expect("bind")
    }

    #[test]
    fn both_listeners_serve_the_same_routes_and_404s() {
        let _phase = lock_phase();
        registry().counter("serve.test.requests").add(3);
        registry().gauge("serve.test.loss").set(0.25);
        let h = registry().histogram("serve.test.latency_us");
        h.record(10.0);
        h.record(1000.0);
        kgfd_obs::set_phase("unit-test");

        let metrics = MetricsServer::start("127.0.0.1:0").expect("bind");
        let serve = empty_server(ServeConfig::default());
        let mut refusals = Vec::new();
        for addr in [metrics.local_addr(), serve.local_addr()] {
            let text = request(addr, "GET", "/metrics");
            assert!(text.starts_with("HTTP/1.1 200 OK"), "got {text}");
            for line in [
                http::PROMETHEUS_TEXT,
                "# TYPE serve_test_requests counter",
                "serve_test_requests 3",
                "serve_test_loss 0.25",
                "serve_test_latency_us_bucket{le=\"+Inf\"} 2",
                "serve_test_latency_us_count 2",
            ] {
                assert!(text.contains(line), "missing {line:?} in {text}");
            }
            let health = json_body(&request(addr, "GET", "/healthz"));
            assert_eq!(health["status"].as_str(), Some("ok"));
            assert_eq!(health["phase"].as_str(), Some("unit-test"));
            assert!(health["run"].as_str().is_some());
            assert!(health["uptime_s"].as_f64().is_some());
            let trace = json_body(&request(addr, "GET", "/trace"));
            assert!(trace["spans"].as_u64().is_some());
            // An unknown path and a POST to a GET route are one 404.
            for (method, path) in [("GET", "/nope"), ("POST", "/metrics")] {
                let response = request(addr, method, path);
                assert!(response.starts_with("HTTP/1.1 404"), "got {response}");
                refusals.push(json_body(&response));
            }
        }
        assert_eq!(
            refusals[..2],
            refusals[2..],
            "both listeners must refuse alike"
        );
        // `kgfd serve` appends its own fields to the shared health document.
        let health = json_body(&request(serve.local_addr(), "GET", "/healthz"));
        assert_eq!(health["inflight"].as_u64(), Some(0));
        assert!(health["models"].as_array().is_some_and(Vec::is_empty));
        metrics.shutdown();
        serve.shutdown();
    }

    #[test]
    fn phase_set_before_start_is_visible_on_the_first_request() {
        // Regression: callers must be able to declare the phase *before*
        // binding the endpoint so that the very first scrape — issued the
        // instant the bound address is announced — already reports it.
        let _phase = lock_phase();
        kgfd_obs::set_phase("pre-bind-phase");
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let health = request(server.local_addr(), "GET", "/healthz");
        assert!(
            health.contains("\"phase\":\"pre-bind-phase\""),
            "first /healthz after bind must show the pre-bind phase, got: {health}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_releases_the_port() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.shutdown();
        // The accept thread has been joined; rebinding the same port must
        // succeed immediately.
        TcpListener::bind(addr).expect("port released");
    }

    #[test]
    fn prometheus_text_is_deterministic() {
        registry().counter("serve.det.a").inc();
        registry().counter("serve.det.b").inc();
        assert_eq!(kgfd_obs::prometheus_text(), kgfd_obs::prometheus_text());
    }

    #[test]
    fn bad_content_length_is_refused_before_admission() {
        // No admission slots at all: an admitted POST could only be shed
        // with 429, so a 400 proves the refusal came first.
        let serve = empty_server(ServeConfig {
            max_inflight: 0,
            ..ServeConfig::default()
        });
        let metrics = MetricsServer::start("127.0.0.1:0").expect("bind");
        for (addr, request) in [
            (
                serve.local_addr(),
                "POST /v1/score HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
            ),
            (
                serve.local_addr(),
                "POST /v1/score HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
            ),
            (
                metrics.local_addr(),
                "GET /metrics HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
            ),
        ] {
            let response = send(addr, request);
            assert!(response.starts_with("HTTP/1.1 400"), "got {response}");
            assert_eq!(json_body(&response)["error"].as_str(), Some("bad_request"));
        }
        assert_eq!(serve.inflight(), 0);
        metrics.shutdown();
        serve.shutdown();
    }
}
