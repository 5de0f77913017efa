//! The serving engine: fixed-size acceptor + worker design with a bounded
//! request queue, load shedding, deadlines, caching, and graceful drain.
//!
//! ```text
//!            ┌──────────┐   bounded queue    ┌──────────┐
//!  TCP ──────▶ acceptor ├────────────────────▶ worker 0 ├──▶ kgfd-pool
//!            │  thread  │  (≤ max_inflight)  │    ...   │    (ranking
//!            └────┬─────┘                    │ worker N │     kernels)
//!        GETs ◀───┘ 429/413/404/503          └──────────┘
//! ```
//!
//! **Acceptor.** One thread owns the (non-blocking) listener. It reads only
//! the request *head* under a short timeout, then: answers `GET` routes
//! inline, so liveness never queues behind model work, and either enqueues
//! a `POST` or sheds it with `429 Retry-After` when `max_inflight` requests
//! are already admitted. Oversized, unroutable, and bad-`Content-Length`
//! requests are refused inline (`413` / `404` / `400`) without being
//! admitted. The `GET` routes:
//!
//! * `/metrics` — the obs registry as Prometheus text
//!   ([`kgfd_obs::prometheus_text`]);
//! * `/healthz` — `status` (`ok`, or `draining`), the `run` id,
//!   `uptime_s`, the process `phase` ([`kgfd_obs::set_phase`]), `inflight`
//!   and the loaded `models`;
//! * `/trace` — the top spans by self time from the live trace collector
//!   ([`kgfd_obs::top_spans_json`]);
//! * `/v1/models` — each loaded model's kind, dimension and generation.
//!
//! **Workers.** A fixed pool of `workers` threads pops requests, finishes
//! the body read, and dispatches to the handlers in [`crate::api`]. Model
//! work (ranking, discovery) fans out through `kgfd-pool` across
//! `rank_threads`, on the same deterministic batched kernels as the CLI.
//! Handler panics are caught per request (`500`, `serve.worker_panics`
//! counter) — a worker thread itself never dies non-gracefully.
//!
//! **Deadlines.** Every admitted request is stamped `now + deadline_ms`.
//! The deadline is checked when a worker picks the request up (queue wait
//! counts against the budget) and cooperatively inside streaming discovery
//! ([`fact_discovery::DiscoveryConfig::deadline`]). A discovery whose
//! strategy table the graph has not built yet waits for the build, which
//! runs on a detached thread, only until the deadline. Expiry is a typed
//! `408 {"error":"deadline_exceeded"}` and frees the slot like any
//! completed request.
//!
//! **Determinism.** Handlers are pure functions of `(graph, model
//! generation, body)`; the response cache keys on exactly that, so a
//! cached answer is bit-identical to a cold one, and the same query
//! returns the same bytes at any concurrency level.

use crate::api::{self, ApiError};
use crate::cache::ResponseCache;
use crate::http::{self, HeadError, RequestHead, Status};
use crate::registry::ModelRegistry;
use serde_json::json;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
/// Acceptor poll interval while the listener has nothing to accept.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Server tuning; every field has a production-shaped default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing request handlers.
    pub workers: usize,
    /// Admission bound: queued + executing `POST`s; beyond it requests are
    /// shed with `429 Retry-After`.
    pub max_inflight: usize,
    /// Per-request deadline, stamped at admission.
    pub deadline_ms: u64,
    /// Response-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Worker threads for ranking/discovery kernels inside one request.
    pub rank_threads: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Expose `POST /v1/_sleep` (deterministic slot-holding for tests).
    pub enable_test_endpoints: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_inflight: 64,
            deadline_ms: 10_000,
            cache_entries: 256,
            rank_threads: 2,
            max_body_bytes: 1 << 20,
            enable_test_endpoints: false,
        }
    }
}

/// An admitted request waiting for (or held by) a worker.
struct Pending {
    stream: TcpStream,
    head: RequestHead,
    deadline: Instant,
    admitted: Instant,
}

struct Shared {
    config: ServeConfig,
    registry: Arc<ModelRegistry>,
    cache: ResponseCache,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    /// Admitted (queued + executing) requests.
    inflight: AtomicUsize,
    /// Set on SIGTERM / `begin_drain`: refuse new work, finish admitted.
    draining: AtomicBool,
    /// Set by `shutdown` once drained: threads exit.
    stop: AtomicBool,
}

impl Shared {
    fn set_inflight_gauge(&self) {
        kgfd_obs::gauge("serve.inflight").set(self.inflight.load(Ordering::SeqCst) as f64);
    }
}

/// A running `kgfd-serve` instance.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Closing statistics for the run manifest, read off the obs registry.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests whose head parsed (every routed connection).
    pub requests: u64,
    /// Responses by class.
    pub responses_2xx: u64,
    /// 4xx responses (including shed and deadline-expired ones).
    pub responses_4xx: u64,
    /// 5xx responses (caught panics, drain refusals).
    pub responses_5xx: u64,
    /// Requests shed with `429` at admission.
    pub shed: u64,
    /// Requests whose deadline expired (in queue or mid-run).
    pub deadline_expired: u64,
    /// Response-cache hits / misses.
    pub cache_hits: u64,
    /// Response-cache misses.
    pub cache_misses: u64,
    /// Handler panics caught (the worker survived each one).
    pub worker_panics: u64,
    /// Worker threads that exited cleanly at shutdown.
    pub workers_joined: usize,
    /// Worker threads the server started with.
    pub workers_spawned: usize,
}

impl ServeStats {
    /// Snapshot of the `serve.*` counters.
    pub fn snapshot() -> ServeStats {
        ServeStats {
            requests: kgfd_obs::counter("serve.requests").get(),
            responses_2xx: kgfd_obs::counter("serve.responses.2xx").get(),
            responses_4xx: kgfd_obs::counter("serve.responses.4xx").get(),
            responses_5xx: kgfd_obs::counter("serve.responses.5xx").get(),
            shed: kgfd_obs::counter("serve.shed").get(),
            deadline_expired: kgfd_obs::counter("serve.deadline_expired").get(),
            cache_hits: kgfd_obs::counter("serve.cache.hits").get(),
            cache_misses: kgfd_obs::counter("serve.cache.misses").get(),
            worker_panics: kgfd_obs::counter("serve.worker_panics").get(),
            workers_joined: 0,
            workers_spawned: 0,
        }
    }
}

impl Server {
    /// Binds `config.addr` and starts the acceptor and worker threads.
    pub fn start(config: ServeConfig, registry: Arc<ModelRegistry>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let cache = ResponseCache::new(config.cache_entries);
        let shared = Arc::new(Shared {
            config,
            registry,
            cache,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("kgfd-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kgfd-serve-acceptor".to_string())
                .spawn(move || accept_loop(listener, &shared))?
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (use with `addr: 127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts refusing new `POST`s (`503 {"error":"draining"}`) while
    /// admitted requests keep running. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// True once draining has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Admitted requests not yet answered.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: drain, wait for every admitted request to finish,
    /// then stop and join all threads. Returns the run's statistics with
    /// the join accounting filled in.
    pub fn shutdown(mut self) -> ServeStats {
        self.begin_drain();
        while self.inflight() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        let spawned = self.workers.len();
        let mut joined = 0;
        for handle in self.workers.drain(..) {
            if handle.join().is_ok() {
                joined += 1;
            }
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let mut stats = ServeStats::snapshot();
        stats.workers_spawned = spawned;
        stats.workers_joined = joined;
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Non-graceful fallback for dropped-without-shutdown servers
        // (tests, error paths): stop immediately, abandoning the queue.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => admit(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Routes one fresh connection: inline GETs, admission control for POSTs.
fn admit(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(http::IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
    let head = match http::read_head(&mut stream) {
        Ok(head) => head,
        // Probe / malformed head: drop silently.
        Err(HeadError::Incomplete) => return,
        // The body's extent is unknown, so the size check cannot run:
        // refuse before admission.
        Err(HeadError::BadContentLength) => {
            kgfd_obs::counter("serve.requests").inc();
            http::discard_buffered(&mut stream);
            let body = api::error_body(&ApiError::BadRequest(
                "Content-Length must be one unsigned decimal integer".to_string(),
            ));
            finish(&mut stream, Status(400), &[], &body);
            return;
        }
    };
    kgfd_obs::counter("serve.requests").inc();

    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/metrics") => {
            let body = kgfd_obs::prometheus_text();
            kgfd_obs::counter("serve.responses.2xx").inc();
            http::respond(
                &mut stream,
                Status(200),
                http::PROMETHEUS_TEXT,
                &[],
                body.as_bytes(),
            );
        }
        ("GET", "/healthz") => finish(&mut stream, Status(200), &[], &health_body(shared)),
        ("GET", "/trace") => {
            let tree = kgfd_obs::TraceTree::build(kgfd_obs::collector().snapshot());
            let body = kgfd_obs::top_spans_json(&tree, 20);
            finish(&mut stream, Status(200), &[], body.as_bytes());
        }
        ("GET", "/v1/models") => finish(&mut stream, Status(200), &[], &models_body(shared)),
        ("POST", path) if is_post_route(path, &shared.config) => {
            if shared.draining.load(Ordering::SeqCst) {
                let body =
                    api::error_json("draining", "server is draining; not accepting new work");
                refuse(&mut stream, &head, Status(503), &[], &body);
                return;
            }
            if head.content_length > shared.config.max_body_bytes {
                let body = api::error_json(
                    "payload_too_large",
                    &format!(
                        "body of {} bytes exceeds the {}-byte limit",
                        head.content_length, shared.config.max_body_bytes
                    ),
                );
                refuse(&mut stream, &head, Status(413), &[], &body);
                return;
            }
            // Admission: reserve a slot unless max_inflight are taken.
            let admitted = shared
                .inflight
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < shared.config.max_inflight).then_some(n + 1)
                })
                .is_ok();
            if !admitted {
                kgfd_obs::counter("serve.shed").inc();
                let body = api::error_json("overloaded", "max_inflight requests already admitted");
                refuse(
                    &mut stream,
                    &head,
                    Status(429),
                    &[("Retry-After", "1".to_string())],
                    &body,
                );
                return;
            }
            shared.set_inflight_gauge();
            let now = Instant::now();
            let pending = Pending {
                stream,
                head,
                deadline: now + Duration::from_millis(shared.config.deadline_ms),
                admitted: now,
            };
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push_back(pending);
            kgfd_obs::gauge("serve.queue_depth").set(queue.len() as f64);
            drop(queue);
            shared.queue_cv.notify_one();
        }
        _ => {
            let body = api::error_json(
                "not_found",
                &format!("no route for {} {}", head.method, head.path),
            );
            refuse(&mut stream, &head, Status(404), &[], &body);
        }
    }
}

fn is_post_route(path: &str, config: &ServeConfig) -> bool {
    matches!(
        path,
        "/v1/score" | "/v1/rank" | "/v1/discover" | "/v1/reload"
    ) || (config.enable_test_endpoints && path == "/v1/_sleep")
}

fn worker_loop(shared: &Shared) {
    loop {
        let pending = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(p) = queue.pop_front() {
                    kgfd_obs::gauge("serve.queue_depth").set(queue.len() as f64);
                    break Some(p);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
            }
        };
        let Some(pending) = pending else { return };
        serve_one(shared, pending);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.set_inflight_gauge();
    }
}

/// Handles one admitted request end to end on a worker thread.
fn serve_one(shared: &Shared, pending: Pending) {
    let Pending {
        mut stream,
        head,
        deadline,
        admitted,
    } = pending;
    kgfd_obs::histogram("serve.queue_wait_us").record(admitted.elapsed().as_micros() as f64);
    let endpoint = endpoint_label(&head.path);

    // Queue wait counts against the budget: a request that waited its
    // whole deadline out is answered with the typed timeout immediately.
    if Instant::now() >= deadline {
        kgfd_obs::counter("serve.deadline_expired").inc();
        refuse(
            &mut stream,
            &head,
            Status(408),
            &[],
            &api::error_body(&ApiError::DeadlineExceeded),
        );
        return;
    }
    let Some(body) = http::read_body(&mut stream, &head) else {
        let body = api::error_json("bad_request", "request body could not be read");
        finish(&mut stream, Status(400), &[], &body);
        return;
    };

    // One trace-only root per request: ranking/discovery spans opened by
    // the handlers (and their pool jobs, via cross-thread handoff) nest
    // under it, so a trace of a serving run groups work by request.
    let span = kgfd_obs::Span::with_fields_traced(
        "serve.request",
        vec![kgfd_obs::Field::new("endpoint", endpoint)],
    );
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        route(shared, &head.path, &body, deadline)
    }));
    let (status, response, cache_note) = outcome.unwrap_or_else(|_| {
        kgfd_obs::counter("serve.worker_panics").inc();
        (
            Status(500),
            api::error_json("internal", "request handler panicked"),
            None,
        )
    });
    drop(span);
    kgfd_obs::histogram(&format!("serve.{endpoint}.latency_us"))
        .record(started.elapsed().as_micros() as f64);

    let mut headers: Vec<(&str, String)> = Vec::new();
    if let Some(note) = cache_note {
        headers.push(("X-Kgfd-Cache", note.to_string()));
    }
    finish(&mut stream, status, &headers, &response);
}

/// Dispatches a parsed-head request to its handler, going through the
/// response cache for the model-answering endpoints.
fn route(
    shared: &Shared,
    path: &str,
    body: &[u8],
    deadline: Instant,
) -> (Status, Vec<u8>, Option<&'static str>) {
    let request = match api::parse_request(body) {
        Ok(v) => v,
        Err(e) => return (status_of(&e), api::error_body(&e), None),
    };

    if path == "/v1/_sleep" {
        return match sleep_handler(&request, deadline) {
            Ok(bytes) => (Status(200), bytes, None),
            Err(e) => (status_of(&e), api::error_body(&e), None),
        };
    }
    if path == "/v1/reload" {
        let result = api::model_name(&request).and_then(|name| {
            shared
                .registry
                .reload(name)
                .map(|generation| api::render(&json!({"model": name, "generation": generation})))
                .map_err(|e| ApiError::UnknownModel(e.to_string()))
        });
        return match result {
            Ok(bytes) => (Status(200), bytes, None),
            Err(e) => (status_of(&e), api::error_body(&e), None),
        };
    }

    // Model-answering endpoints: resolve the model, then try the cache.
    let entry = match api::model_name(&request).and_then(|name| {
        shared
            .registry
            .get(name)
            .ok_or_else(|| ApiError::UnknownModel(format!("no model named {name:?} is loaded")))
    }) {
        Ok(entry) => entry,
        Err(e) => return (status_of(&e), api::error_body(&e), None),
    };
    let endpoint = endpoint_label(path);
    if let Some(cached) = shared.cache.get(endpoint, entry.generation, body) {
        return (Status(200), (*cached).clone(), Some("hit"));
    }

    let graph = shared.registry.graph();
    let rank_threads = shared.config.rank_threads;
    let result = match path {
        "/v1/score" => api::handle_score(graph, &entry, &request),
        "/v1/rank" => api::handle_rank(graph, &entry, &request, rank_threads),
        "/v1/discover" => api::handle_discover(graph, &entry, &request, rank_threads, deadline),
        _ => Err(ApiError::BadRequest(format!("unroutable path {path:?}"))),
    };
    match result {
        Ok(bytes) => {
            shared.cache.insert(
                endpoint,
                entry.generation,
                body.to_vec(),
                Arc::new(bytes.clone()),
            );
            (Status(200), bytes, Some("miss"))
        }
        Err(e) => {
            if matches!(e, ApiError::DeadlineExceeded) {
                kgfd_obs::counter("serve.deadline_expired").inc();
            }
            (status_of(&e), api::error_body(&e), None)
        }
    }
}

/// `POST /v1/_sleep {"ms": N}` — holds a worker slot for `N` ms while
/// honouring the request deadline; exists only for deterministic
/// shed/deadline/drain tests (`enable_test_endpoints`).
fn sleep_handler(request: &serde_json::Value, deadline: Instant) -> Result<Vec<u8>, ApiError> {
    let ms = request
        .get("ms")
        .and_then(serde_json::Value::as_u64)
        .ok_or_else(|| ApiError::BadRequest("missing integer field \"ms\"".to_string()))?;
    let until = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < until {
        if Instant::now() >= deadline {
            return Err(ApiError::DeadlineExceeded);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(api::render(&json!({"slept_ms": ms})))
}

fn status_of(err: &ApiError) -> Status {
    match err {
        ApiError::BadRequest(_) => Status(400),
        ApiError::UnknownModel(_) => Status(404),
        ApiError::DeadlineExceeded => Status(408),
        ApiError::Internal(_) => Status(500),
    }
}

fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/v1/score" => "score",
        "/v1/rank" => "rank",
        "/v1/discover" => "discover",
        "/v1/reload" => "reload",
        "/v1/_sleep" => "_sleep",
        _ => "other",
    }
}

/// Writes a JSON response and records its class counter.
fn finish(stream: &mut TcpStream, status: Status, headers: &[(&str, String)], body: &[u8]) {
    kgfd_obs::counter(&format!("serve.responses.{}", status.class())).inc();
    http::respond(stream, status, http::JSON, headers, body);
}

/// Refuses a request whose body was never read: drains the unread bytes
/// (bounded) so the close does not RST the response away, then answers.
fn refuse(
    stream: &mut TcpStream,
    head: &RequestHead,
    status: Status,
    headers: &[(&str, String)],
    body: &[u8],
) {
    http::discard_unread(stream, head);
    finish(stream, status, headers, body);
}

fn health_body(shared: &Shared) -> Vec<u8> {
    let status = if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    api::render(&json!({
        "status": status,
        "run": (kgfd_obs::run_id()),
        "uptime_s": (kgfd_obs::clock_us() as f64 / 1e6),
        "phase": (kgfd_obs::current_phase()),
        "inflight": (shared.inflight.load(Ordering::SeqCst) as u64),
        "models": (shared.registry.names()),
    }))
}

fn models_body(shared: &Shared) -> Vec<u8> {
    let models: Vec<serde_json::Value> = shared
        .registry
        .names()
        .into_iter()
        .filter_map(|name| {
            let entry = shared.registry.get(&name)?;
            Some(json!({
                "name": (entry.name),
                "kind": (entry.model.kind().to_string()),
                "dim": (entry.model.dim()),
                "generation": (entry.generation),
            }))
        })
        .collect();
    api::render(&json!({"models": (serde_json::Value::Array(models))}))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphContext;
    use kgfd_obs::registry;
    use std::io::{Read, Write};

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

    /// A server over the toy graph with no models loaded.
    fn empty_server(config: ServeConfig) -> Server {
        let data = kgfd_datasets::toy_biomedical();
        let registry = ModelRegistry::new(GraphContext::new(data.vocab, data.train));
        Server::start(config, Arc::new(registry)).expect("bind")
    }

    #[test]
    fn observability_routes_answer_and_other_requests_404() {
        registry().counter("serve.test.requests").add(3);
        registry().gauge("serve.test.loss").set(0.25);
        let h = registry().histogram("serve.test.latency_us");
        h.record(10.0);
        h.record(1000.0);
        kgfd_obs::set_phase("unit-test");

        let serve = empty_server(ServeConfig::default());
        let addr = serve.local_addr();
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
        assert_eq!(health["inflight"].as_u64(), Some(0));
        assert!(health["models"].as_array().is_some_and(Vec::is_empty));
        let trace = json_body(&request(addr, "GET", "/trace"));
        assert!(trace["spans"].as_u64().is_some());
        // An unknown path and a POST to a GET route are one 404.
        for (method, path) in [("GET", "/nope"), ("POST", "/metrics")] {
            let response = request(addr, method, path);
            assert!(response.starts_with("HTTP/1.1 404"), "got {response}");
            assert_eq!(
                json_body(&response),
                json!({"error": "not_found", "detail": (format!("no route for {method} {path}"))})
            );
        }
        serve.shutdown();
    }

    #[test]
    fn shutdown_releases_the_port() {
        let server = empty_server(ServeConfig::default());
        let addr = server.local_addr();
        server.shutdown();
        // The acceptor, which owns the listener, has been joined; rebinding
        // the same port must succeed immediately.
        TcpListener::bind(addr).expect("port released");
    }

    #[test]
    fn bad_content_length_is_refused_before_admission() {
        // No admission slots at all: an admitted POST could only be shed
        // with 429, so a 400 proves the refusal came first.
        let serve = empty_server(ServeConfig {
            max_inflight: 0,
            ..ServeConfig::default()
        });
        for request in [
            "POST /v1/score HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
            "POST /v1/score HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
            "GET /metrics HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
        ] {
            let response = send(serve.local_addr(), request);
            assert!(response.starts_with("HTTP/1.1 400"), "got {response}");
            assert_eq!(json_body(&response)["error"].as_str(), Some("bad_request"));
        }
        assert_eq!(serve.inflight(), 0);
        serve.shutdown();
    }
}
