//! End-to-end tests of the serving engine over real sockets: admission
//! control, deadlines, cache determinism, drain, and error partitioning.

use fact_discovery::{try_discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_datasets::{fb15k237_like, generate, toy_biomedical};
use kgfd_embed::{train, write_model_file, ModelKind, TrainConfig};
use kgfd_kg::NodeMeasure;
use kgfd_serve::{GraphContext, ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parsed HTTP response: status code, headers, body bytes.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    fn json(&self) -> serde_json::Value {
        serde_json::from_slice(&self.body)
            .unwrap_or_else(|e| panic!("response is not JSON ({e}): {}", self.text()))
    }
}

fn read_response(stream: &mut TcpStream) -> Response {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| {
            let (n, v) = l.split_once(':')?;
            Some((n.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    Response {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    let mut stream = start_post(addr, path, body);
    read_response(&mut stream)
}

/// Sends a POST but does not read the response: the request occupies its
/// admission slot until the returned stream is read (or dropped).
fn start_post(addr: SocketAddr, path: &str, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    stream.flush().unwrap();
    stream
}

fn get(addr: SocketAddr, path: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write request");
    stream.flush().unwrap();
    read_response(&mut stream)
}

/// Trains a small model on the toy graph and writes it to a temp file
/// unique to `tag` (tests run concurrently in one process).
fn model_file(tag: &str) -> PathBuf {
    let data = toy_biomedical();
    let config = TrainConfig {
        dim: 8,
        epochs: 5,
        seed: 3,
        ..TrainConfig::default()
    };
    let (model, _) = train(ModelKind::DistMult, &data.train, &config);
    let dir = std::env::temp_dir().join(format!("kgfd-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.kgm"));
    write_model_file(&path, model.as_ref()).unwrap();
    path
}

/// Boots a server with the toy graph and one model named "toy".
fn boot(tag: &str, config: ServeConfig) -> (Server, SocketAddr, Arc<ModelRegistry>) {
    let path = model_file(tag);
    let data = toy_biomedical();
    let registry = Arc::new(ModelRegistry::new(GraphContext::new(
        data.vocab, data.train,
    )));
    registry.load("toy", &path).unwrap();
    let server = Server::start(config, Arc::clone(&registry)).expect("bind");
    let addr = server.local_addr();
    (server, addr, registry)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        enable_test_endpoints: true,
        ..ServeConfig::default()
    }
}

/// A triple from the toy graph, as JSON labels. Uses the first stored
/// triple so the query is always valid.
fn known_triple_json() -> String {
    let data = toy_biomedical();
    let t = data.train.triples()[0];
    format!(
        "[\"{}\", \"{}\", \"{}\"]",
        data.vocab.entity_label(t.subject).unwrap(),
        data.vocab.relation_label(t.relation).unwrap(),
        data.vocab.entity_label(t.object).unwrap()
    )
}

#[test]
fn get_routes_answer_inline() {
    let (server, addr, _) = boot("inline", test_config());
    let health = get(addr, "/healthz").json();
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert_eq!(health["models"][0].as_str(), Some("toy"));
    let models = get(addr, "/v1/models").json();
    assert_eq!(models["models"][0]["name"].as_str(), Some("toy"));
    assert!(models["models"][0]["generation"].as_u64().is_some());
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.text().contains("serve_requests"));
    server.shutdown();
}

#[test]
fn score_rank_discover_answer() {
    let (server, addr, _) = boot("answers", test_config());
    let triple = known_triple_json();

    let score = post(
        addr,
        "/v1/score",
        &format!("{{\"model\": \"toy\", \"triples\": [{triple}]}}"),
    );
    assert_eq!(score.status, 200, "{}", score.text());
    assert!(score.json()["scores"][0].as_f64().is_some());

    let rank = post(
        addr,
        "/v1/rank",
        &format!("{{\"model\": \"toy\", \"triples\": [{triple}]}}"),
    );
    assert_eq!(rank.status, 200, "{}", rank.text());
    let ranks = rank.json();
    assert!(ranks["ranks"][0]["mean"].as_f64().unwrap() >= 1.0);

    let discover = post(
        addr,
        "/v1/discover",
        "{\"model\": \"toy\", \"strategy\": \"ef\", \"top_n\": 20, \"max_candidates\": 50}",
    );
    assert_eq!(discover.status, 200, "{}", discover.text());
    let report = discover.json();
    assert_eq!(report["strategy"].as_str(), Some("EF"));
    assert!(report["fact_count"].as_u64().is_some());
    server.shutdown();
}

#[test]
fn discover_matches_the_in_process_pipeline() {
    let (server, addr, _) = boot("conformance", test_config());
    let response = post(
        addr,
        "/v1/discover",
        "{\"model\": \"toy\", \"strategy\": \"ef\", \"top_n\": 10, \"max_candidates\": 30, \
         \"seed\": 7}",
    );
    assert_eq!(response.status, 200, "{}", response.text());
    let served = response.json();

    // The same query straight through the library, bypassing HTTP.
    let data = toy_biomedical();
    let path = model_file("conformance-direct");
    let model = kgfd_embed::read_model_file(&path).unwrap();
    let config = DiscoveryConfig {
        strategy: StrategyKind::EntityFrequency,
        top_n: 10,
        max_candidates: 30,
        seed: 7,
        threads: ServeConfig::default().rank_threads,
        ..DiscoveryConfig::default()
    };
    let report = try_discover_facts(model.as_ref(), &data.train, &config).unwrap();

    let served_facts = served["facts"].as_array().expect("facts array");
    assert_eq!(served_facts.len(), report.facts.len());
    for (json, fact) in served_facts.iter().zip(&report.facts) {
        assert_eq!(
            json["subject"].as_str().unwrap(),
            data.vocab.entity_label(fact.triple.subject).unwrap()
        );
        assert_eq!(
            json["relation"].as_str().unwrap(),
            data.vocab.relation_label(fact.triple.relation).unwrap()
        );
        assert_eq!(
            json["object"].as_str().unwrap(),
            data.vocab.entity_label(fact.triple.object).unwrap()
        );
    }
    server.shutdown();
}

#[test]
fn cache_hit_is_bit_identical_to_the_cold_path() {
    let (server, addr, _) = boot("cache", test_config());
    let body = format!(
        "{{\"model\": \"toy\", \"triples\": [{}]}}",
        known_triple_json()
    );
    let cold = post(addr, "/v1/rank", &body);
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("X-Kgfd-Cache"), Some("miss"));
    let warm = post(addr, "/v1/rank", &body);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("X-Kgfd-Cache"), Some("hit"));
    assert_eq!(
        cold.body, warm.body,
        "cached response must replay the cold path byte for byte"
    );
    server.shutdown();
}

#[test]
fn reload_bumps_the_generation_and_invalidates_the_cache() {
    let (server, addr, _) = boot("reload", test_config());
    let body = format!(
        "{{\"model\": \"toy\", \"triples\": [{}]}}",
        known_triple_json()
    );
    assert_eq!(
        post(addr, "/v1/score", &body).header("X-Kgfd-Cache"),
        Some("miss")
    );
    assert_eq!(
        post(addr, "/v1/score", &body).header("X-Kgfd-Cache"),
        Some("hit")
    );

    let reload = post(addr, "/v1/reload", "{\"model\": \"toy\"}");
    assert_eq!(reload.status, 200, "{}", reload.text());
    assert!(reload.json()["generation"].as_u64().unwrap() > 1);

    // Fresh generation → the old entry can no longer be hit.
    assert_eq!(
        post(addr, "/v1/score", &body).header("X-Kgfd-Cache"),
        Some("miss")
    );
    assert_eq!(
        post(addr, "/v1/score", &body).header("X-Kgfd-Cache"),
        Some("hit")
    );
    server.shutdown();
}

#[test]
fn identical_concurrent_queries_get_identical_bytes() {
    let (server, addr, _) = boot("concurrent", test_config());
    let body = Arc::new(format!(
        "{{\"model\": \"toy\", \"triples\": [{}]}}",
        known_triple_json()
    ));
    let bodies: Vec<Vec<u8>> = {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let body = Arc::clone(&body);
                std::thread::spawn(move || {
                    let r = post(addr, "/v1/rank", &body);
                    assert_eq!(r.status, 200, "{}", r.text());
                    r.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };
    for b in &bodies[1..] {
        assert_eq!(
            b, &bodies[0],
            "same query must render the same bytes under concurrency"
        );
    }
    server.shutdown();
}

#[test]
fn overload_is_shed_with_429_and_retry_after() {
    let (server, addr, _) = boot(
        "shed",
        ServeConfig {
            workers: 1,
            max_inflight: 1,
            ..test_config()
        },
    );
    // Occupy the only admission slot...
    let mut held = start_post(addr, "/v1/_sleep", "{\"ms\": 400}");
    wait_until(|| server.inflight() == 1);
    // ...so the next request must be shed.
    let shed = post(
        addr,
        "/v1/score",
        "{\"model\": \"toy\", \"triples\": [[\"a\",\"b\",\"c\"]]}",
    );
    assert_eq!(shed.status, 429, "{}", shed.text());
    assert_eq!(shed.header("Retry-After"), Some("1"));
    assert_eq!(shed.json()["error"].as_str(), Some("overloaded"));
    // The held request still completes normally.
    let first = read_response(&mut held);
    assert_eq!(first.status, 200, "{}", first.text());
    // And with the slot free again, new work is admitted.
    wait_until(|| server.inflight() == 0);
    let after = post(addr, "/v1/_sleep", "{\"ms\": 0}");
    assert_eq!(after.status, 200, "{}", after.text());
    server.shutdown();
}

#[test]
fn deadline_expiry_is_a_typed_timeout_that_frees_the_slot() {
    let (server, addr, _) = boot(
        "deadline",
        ServeConfig {
            workers: 1,
            max_inflight: 4,
            deadline_ms: 80,
            ..test_config()
        },
    );
    let expired = post(addr, "/v1/_sleep", "{\"ms\": 5000}");
    assert_eq!(expired.status, 408, "{}", expired.text());
    assert_eq!(expired.json()["error"].as_str(), Some("deadline_exceeded"));
    // The slot is freed by expiry, not leaked: quick work still runs.
    wait_until(|| server.inflight() == 0);
    let quick = post(addr, "/v1/_sleep", "{\"ms\": 0}");
    assert_eq!(quick.status, 200, "{}", quick.text());
    server.shutdown();
}

#[test]
fn cold_measure_table_answers_408_by_the_deadline_and_is_built_after() {
    // The standard-scale FB graph: building its square-clustering table
    // takes far longer than the 20 ms deadline.
    let data = generate(&fb15k237_like()).expect("builtin profiles are valid");
    let untrained = TrainConfig {
        dim: 8,
        epochs: 0,
        ..TrainConfig::default()
    };
    let (model, _) = train(ModelKind::TransE, &data.train, &untrained);
    let dir = std::env::temp_dir().join(format!("kgfd-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cold-fb.kgm");
    write_model_file(&path, model.as_ref()).unwrap();
    let registry = Arc::new(ModelRegistry::new(GraphContext::new(
        data.vocab, data.train,
    )));
    registry.load("fb", &path).unwrap();
    let config = ServeConfig {
        deadline_ms: 20,
        ..test_config()
    };
    let server = Server::start(config, Arc::clone(&registry)).expect("bind");
    let store = &registry.graph().store;
    let squares = NodeMeasure::SquareClustering;
    assert!(store.built_node_measure(squares).is_none());

    let started = Instant::now();
    let cold = post(
        server.local_addr(),
        "/v1/discover",
        "{\"model\": \"fb\", \"strategy\": \"cs\"}",
    );
    let answered = started.elapsed();
    assert_eq!(cold.status, 408, "{}", cold.text());
    assert_eq!(cold.json()["error"].as_str(), Some("deadline_exceeded"));
    assert!(
        store.built_node_measure(squares).is_none(),
        "the 408 waited for the table ({answered:?})"
    );

    // The build carries on without the request and leaves the table in
    // the graph for the next one.
    let patience = Instant::now() + Duration::from_secs(60);
    while store.built_node_measure(squares).is_none() {
        assert!(
            Instant::now() < patience,
            "the square-clustering build never finished"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn drain_finishes_inflight_work_and_refuses_new() {
    let (server, addr, _) = boot(
        "drain",
        ServeConfig {
            workers: 2,
            ..test_config()
        },
    );
    let mut held = start_post(addr, "/v1/_sleep", "{\"ms\": 300}");
    wait_until(|| server.inflight() == 1);
    server.begin_drain();
    // New work is refused while draining...
    let refused = post(addr, "/v1/_sleep", "{\"ms\": 0}");
    assert_eq!(refused.status, 503, "{}", refused.text());
    assert_eq!(refused.json()["error"].as_str(), Some("draining"));
    // ...liveness still answers, reporting the drain...
    assert_eq!(
        get(addr, "/healthz").json()["status"].as_str(),
        Some("draining")
    );
    // ...and the in-flight request completes normally.
    let first = read_response(&mut held);
    assert_eq!(first.status, 200, "{}", first.text());
    let stats = server.shutdown();
    assert_eq!(
        stats.workers_joined, stats.workers_spawned,
        "graceful shutdown must join every worker"
    );
}

#[test]
fn bad_requests_partition_into_4xx() {
    let (server, addr, _) = boot(
        "errors",
        ServeConfig {
            max_body_bytes: 48 * 1024,
            ..test_config()
        },
    );
    // Malformed JSON → 400.
    let malformed = post(addr, "/v1/score", "{not json");
    assert_eq!(malformed.status, 400);
    assert_eq!(malformed.json()["error"].as_str(), Some("bad_request"));
    // 20,000 nested arrays (40 KB) → 400, and the server lives on: the
    // parser bounds its recursion instead of overflowing a worker's stack.
    let nested = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    let deep = post(addr, "/v1/score", &nested);
    assert_eq!(deep.status, 400);
    assert_eq!(deep.json()["error"].as_str(), Some("bad_request"));
    assert_eq!(get(addr, "/healthz").status, 200);
    // Unknown label → 400.
    let unknown_label = post(
        addr,
        "/v1/score",
        "{\"model\": \"toy\", \"triples\": [[\"nope\", \"nope\", \"nope\"]]}",
    );
    assert_eq!(unknown_label.status, 400);
    // Unknown model → 404.
    let unknown_model = post(
        addr,
        "/v1/score",
        &format!(
            "{{\"model\": \"ghost\", \"triples\": [{}]}}",
            known_triple_json()
        ),
    );
    assert_eq!(unknown_model.status, 404);
    assert_eq!(
        unknown_model.json()["error"].as_str(),
        Some("unknown_model")
    );
    // Unknown route → 404.
    assert_eq!(post(addr, "/v1/nope", "{}").status, 404);
    // Oversized body → 413, refused before the body is read.
    let oversized = post(
        addr,
        "/v1/score",
        &format!("{{\"pad\": \"{}\"}}", "x".repeat(48 * 1024)),
    );
    assert_eq!(oversized.status, 413);
    assert_eq!(
        oversized.json()["error"].as_str(),
        Some("payload_too_large")
    );
    // A strategy name `StrategyKind` does not know → 400 that names it.
    let removed = post(
        addr,
        "/v1/discover",
        "{\"model\": \"toy\", \"strategy\": \"pr\"}",
    );
    assert_eq!(removed.status, 400);
    assert_eq!(removed.json()["error"].as_str(), Some("bad_request"));
    assert_eq!(
        removed.json()["detail"].as_str(),
        Some("unknown strategy \"pr\"")
    );
    // A discovery budget no relation can fill → 400, and the server lives on.
    let unreachable = post(
        addr,
        "/v1/discover",
        "{\"model\": \"toy\", \"relation\": \"targets\", \"max_candidates\": 10000000000}",
    );
    assert_eq!(unreachable.status, 400);
    assert_eq!(unreachable.json()["error"].as_str(), Some("bad_request"));
    assert_eq!(get(addr, "/healthz").status, 200);
    server.shutdown();
}

/// Polls `cond` for up to two seconds.
fn wait_until(cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !cond() {
        assert!(Instant::now() < deadline, "condition not reached in 2s");
        std::thread::sleep(Duration::from_millis(5));
    }
}
