//! Endpoint handlers: JSON in, JSON out, dense ids only in the middle.
//!
//! Every handler is a pure function of `(graph, model, request body)` —
//! no ambient state, no clocks except the request deadline — so the same
//! request always renders byte-identical response bodies. That is the
//! determinism contract the response cache relies on: a cache hit replays
//! exactly what the cold path would have produced.
//!
//! Label translation happens at the boundary: requests speak the graph's
//! entity/relation labels, handlers translate to dense ids through the
//! shared [`GraphContext`]'s vocabulary, and unknown labels are a typed
//! `400` (the model never sees an out-of-range id).

use crate::registry::{GraphContext, ModelEntry};
use fact_discovery::{cached_measures, try_discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_eval::BatchRanker;
use kgfd_kg::{KgError, Triple};
use serde_json::{json, Value};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Instant;

/// Typed request failures, each mapping to one HTTP status.
#[derive(Debug)]
pub enum ApiError {
    /// Malformed JSON, missing fields, unknown labels, an invalid
    /// discovery configuration → `400`.
    BadRequest(String),
    /// The named model is not loaded → `404`.
    UnknownModel(String),
    /// The request's deadline expired before the answer was ready → `408`.
    DeadlineExceeded,
    /// A worker-side failure (e.g. a panicked ranking job) → `500`.
    Internal(String),
}

impl ApiError {
    fn bad(msg: impl Into<String>) -> ApiError {
        ApiError::BadRequest(msg.into())
    }
}

/// Renders the JSON error body for a failed request. The `error` field is
/// a stable machine-readable tag; `detail` is for humans.
pub fn error_body(err: &ApiError) -> Vec<u8> {
    let (tag, detail) = match err {
        ApiError::BadRequest(d) => ("bad_request", d.as_str()),
        ApiError::UnknownModel(d) => ("unknown_model", d.as_str()),
        ApiError::DeadlineExceeded => (
            "deadline_exceeded",
            "the request deadline expired before the answer was ready",
        ),
        ApiError::Internal(d) => ("internal", d.as_str()),
    };
    error_json(tag, detail)
}

/// Renders `{"error": tag, "detail": detail}`, the body of every refusal.
pub(crate) fn error_json(tag: &str, detail: &str) -> Vec<u8> {
    render(&json!({"error": tag, "detail": detail}))
}

/// Renders one JSON response body: compact, newline-terminated.
pub(crate) fn render(v: &Value) -> Vec<u8> {
    let mut bytes = serde_json::to_string(v)
        .expect("response values contain no non-serializable data")
        .into_bytes();
    bytes.push(b'\n');
    bytes
}

/// Parses the request body as a JSON object.
pub fn parse_request(body: &[u8]) -> Result<Value, ApiError> {
    serde_json::from_slice::<Value>(body).map_err(|e| ApiError::bad(format!("invalid JSON: {e}")))
}

/// The `model` field of a request.
pub fn model_name(request: &Value) -> Result<&str, ApiError> {
    request
        .get("model")
        .and_then(Value::as_str)
        .ok_or_else(|| ApiError::bad("missing string field \"model\""))
}

/// Translates the request's `triples` array (`[["s","r","o"], ...]`) into
/// dense-id triples against the served graph.
fn parse_triples(graph: &GraphContext, request: &Value) -> Result<Vec<Triple>, ApiError> {
    let items = request
        .get("triples")
        .and_then(Value::as_array)
        .ok_or_else(|| ApiError::bad("missing array field \"triples\""))?;
    if items.is_empty() {
        return Err(ApiError::bad("\"triples\" must not be empty"));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let parts = item.as_array().filter(|p| p.len() == 3).ok_or_else(|| {
                ApiError::bad(format!("triples[{i}] must be [subject, relation, object]"))
            })?;
            let label = |j: usize| -> Result<&str, ApiError> {
                parts[j]
                    .as_str()
                    .ok_or_else(|| ApiError::bad(format!("triples[{i}][{j}] must be a string")))
            };
            let (s, r, o) = (label(0)?, label(1)?, label(2)?);
            Ok(Triple {
                subject: graph
                    .vocab
                    .entity(s)
                    .ok_or_else(|| ApiError::bad(format!("unknown entity {s:?}")))?,
                relation: graph
                    .vocab
                    .relation(r)
                    .ok_or_else(|| ApiError::bad(format!("unknown relation {r:?}")))?,
                object: graph
                    .vocab
                    .entity(o)
                    .ok_or_else(|| ApiError::bad(format!("unknown entity {o:?}")))?,
            })
        })
        .collect()
}

fn u64_field(request: &Value, key: &str, default: u64) -> Result<u64, ApiError> {
    match request.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| ApiError::bad(format!("field {key:?} must be a non-negative integer"))),
    }
}

/// `POST /v1/score` — raw model scores for explicit triples.
pub fn handle_score(
    graph: &GraphContext,
    entry: &ModelEntry,
    request: &Value,
) -> Result<Vec<u8>, ApiError> {
    let triples = parse_triples(graph, request)?;
    let scores: Vec<Value> = triples
        .iter()
        .map(|&t| serde_json::to_value(&(entry.model.score(t) as f64)))
        .collect();
    Ok(render(&json!({
        "model": (entry.name),
        "kind": (entry.model.kind().to_string()),
        "scores": (Value::Array(scores)),
    })))
}

/// `POST /v1/rank` — filtered two-sided ranks through the batched,
/// query-deduplicated [`BatchRanker`] (shared deterministic kernels, fanned
/// out across `rank_threads`).
pub fn handle_rank(
    graph: &GraphContext,
    entry: &ModelEntry,
    request: &Value,
    rank_threads: usize,
) -> Result<Vec<u8>, ApiError> {
    let triples = parse_triples(graph, request)?;
    let filtered = request
        .get("filtered")
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| ApiError::bad("field \"filtered\" must be a boolean"))
        })
        .transpose()?
        .unwrap_or(true);
    let known = filtered.then_some(graph.store.known());
    let ranks = BatchRanker::new(entry.model.as_ref(), rank_threads).rank_all(&triples, known);
    let rows: Vec<Value> = ranks
        .iter()
        .map(|r| json!({"subject": (r.subject), "object": (r.object), "mean": (r.mean())}))
        .collect();
    Ok(render(&json!({
        "model": (entry.name),
        "filtered": filtered,
        "ranks": (Value::Array(rows)),
    })))
}

/// `POST /v1/discover` — the paper's Algorithm 1 as an online query,
/// streamed through [`fact_discovery::CandidateStream`] under the
/// request's deadline, which also bounds the wait for a strategy table the
/// graph has not built yet.
pub fn handle_discover(
    graph: &Arc<GraphContext>,
    entry: &ModelEntry,
    request: &Value,
    rank_threads: usize,
    deadline: Instant,
) -> Result<Vec<u8>, ApiError> {
    let strategy = match request.get("strategy") {
        None => StrategyKind::EntityFrequency,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| ApiError::bad("field \"strategy\" must be a string"))?;
            StrategyKind::from_name(name).ok_or_else(|| {
                ApiError::bad(format!("unknown strategy {:?}", name.to_ascii_lowercase()))
            })?
        }
    };
    let relations = match request.get("relation") {
        None => None,
        Some(v) => {
            let label = v
                .as_str()
                .ok_or_else(|| ApiError::bad("field \"relation\" must be a string"))?;
            Some(vec![graph.vocab.relation(label).ok_or_else(|| {
                ApiError::bad(format!("unknown relation {label:?}"))
            })?])
        }
    };
    let config = DiscoveryConfig {
        strategy,
        top_n: u64_field(request, "top_n", 500)? as usize,
        max_candidates: u64_field(request, "max_candidates", 500)? as usize,
        relations,
        seed: u64_field(request, "seed", 0)?,
        threads: rank_threads,
        top_k: request
            .get("top_k")
            .map(|v| {
                v.as_u64()
                    .map(|k| k as usize)
                    .ok_or_else(|| ApiError::bad("field \"top_k\" must be a non-negative integer"))
            })
            .transpose()?,
        deadline: Some(deadline),
        ..DiscoveryConfig::default()
    };
    let api_error = |e: KgError| match e {
        KgError::DeadlineExceeded => ApiError::DeadlineExceeded,
        KgError::WorkerPanic(msg) => ApiError::Internal(msg),
        other => ApiError::bad(other.to_string()),
    };
    config.validate(&graph.store).map_err(api_error)?;
    await_measures(graph, strategy, deadline)?;
    let report =
        try_discover_facts(entry.model.as_ref(), &graph.store, &config).map_err(api_error)?;
    let facts: Vec<Value> = report
        .facts
        .iter()
        .map(|f| {
            json!({
                "subject": (graph.vocab.entity_label(f.triple.subject).unwrap_or("?")),
                "relation": (graph.vocab.relation_label(f.triple.relation).unwrap_or("?")),
                "object": (graph.vocab.entity_label(f.triple.object).unwrap_or("?")),
                "rank": (f.rank),
            })
        })
        .collect();
    Ok(render(&json!({
        "model": (entry.name),
        "strategy": (config.strategy.abbrev()),
        "top_n": (config.top_n),
        "max_candidates": (config.max_candidates),
        "candidates": (report.candidates_generated()),
        "fact_count": (facts.len()),
        "facts": (Value::Array(facts)),
    })))
}

/// Returns once the graph holds `strategy`'s measure table, or
/// [`ApiError::DeadlineExceeded`] once `deadline` passes first. A missing
/// table is built on a detached thread that holds the graph, so the build
/// outlives a request that gives up on it: the store's slot keeps it to one
/// build however many requests wait, and a later request finds the table
/// built.
fn await_measures(
    graph: &Arc<GraphContext>,
    strategy: StrategyKind,
    deadline: Instant,
) -> Result<(), ApiError> {
    let Some(measure) = strategy.node_measure() else {
        return Ok(());
    };
    if graph.store.built_node_measure(measure).is_some() {
        return Ok(());
    }
    let (built, wait) = mpsc::channel();
    let graph = Arc::clone(graph);
    std::thread::Builder::new()
        .name("kgfd-serve-measures".to_string())
        .spawn(move || {
            cached_measures(strategy, &graph.store);
            let _ = built.send(());
        })
        .map_err(|e| ApiError::Internal(format!("cannot start the measure build: {e}")))?;
    match wait.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Ok(()) => Ok(()),
        Err(RecvTimeoutError::Timeout) => Err(ApiError::DeadlineExceeded),
        Err(RecvTimeoutError::Disconnected) => {
            Err(ApiError::Internal("the measure build panicked".to_string()))
        }
    }
}
