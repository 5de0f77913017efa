//! `kgfd-serve` — a dependency-free HTTP server for online fact
//! discovery queries against trained KGE models.
//!
//! This crate turns the batch pipeline (`kgfd train` → `kgfd discover`)
//! into an online service: models are loaded from `kgfd train` model
//! files at startup, requests arrive as JSON over plain HTTP/1.1, and
//! answers are computed by the same deterministic kernels the CLI uses —
//! [`kgfd_eval::BatchRanker`] for ranking, streaming discovery for
//! Algorithm 1 — fanned out through `kgfd-pool` across `--rank-threads`.
//!
//! Endpoints:
//!
//! | Route              | Purpose                                         |
//! |--------------------|-------------------------------------------------|
//! | `POST /v1/score`   | Raw model scores for explicit triples           |
//! | `POST /v1/rank`    | Filtered two-sided ranks (batched, deduplicated)|
//! | `POST /v1/discover`| Online fact discovery under a deadline          |
//! | `POST /v1/reload`  | Hot-reload a model from its file                |
//! | `GET /healthz`     | Liveness (served inline, never queued)          |
//! | `GET /metrics`     | Prometheus text of the obs registry             |
//! | `GET /trace`       | Top spans by self time from the live collector  |
//! | `GET /v1/models`   | Loaded models with kind/dim/generation          |
//!
//! This is the workspace's one HTTP listener. The three observability
//! `GET` routes show a running server; a batch run (`kgfd train`,
//! `discover`, `eval`, `repro`) reports through the files it writes
//! instead (`--metrics-out`, `--trace-out`, `--flame-out`).
//!
//! The architecture (bounded queue, `429` load shedding, per-request
//! deadlines, response cache, graceful drain) is documented on
//! [`server`] and in DESIGN.md §15. Determinism is load-bearing: the same
//! request body against the same model generation renders bit-identical
//! response bytes whether it is answered cold, concurrently with 63 other
//! requests, or replayed from the cache.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod http;
pub mod registry;
pub mod server;
pub mod signal;

pub use cache::ResponseCache;
pub use registry::{GraphContext, ModelEntry, ModelRegistry};
pub use server::{ServeConfig, ServeStats, Server};
pub use signal::{install_termination_handler, request_termination, termination_requested};
