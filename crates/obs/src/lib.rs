//! `kgfd-obs` — structured tracing, metrics, and run manifests for the
//! fact-discovery pipeline.
//!
//! The crate has four pieces, designed to add near-zero overhead when
//! nothing is listening:
//!
//! * a **metrics registry** ([`registry`]) of lock-free [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s (p50/p95/p99 with ≈4.4%
//!   relative error);
//! * **scoped span timers** ([`Span`], [`span!`]) that feed both the
//!   histogram registry and the event stream;
//! * an **[`Observer`] pipeline** — [`NullObserver`], rate-limited
//!   [`StderrProgress`], and [`JsonlSink`] (one serde event per line,
//!   tagged with a run id and monotonic timestamps) — installed for a
//!   scope with [`scoped`];
//! * a **[`RunManifest`]** emitted at the end of every run recording the
//!   command, configuration, seed, dataset shape, and wall-clock totals.
//!
//! v2 adds **hierarchical tracing**: spans carry [`SpanId`]s and parent
//! links through a thread-local span stack (cross-thread handoff via
//! [`SpanHandle::enter`]), finished spans land
//! in the process-wide [`TraceCollector`] (opt-in via
//! [`enable_tracing`]), the tree exports as Chrome trace-event JSON and
//! collapsed-stack flamegraph text ([`export`]), and [`finish_tracing`]
//! writes them at the end of a run. A batch run reports through these
//! files and its JSONL sink; `kgfd serve` also renders [`prometheus_text`],
//! [`current_phase`], and [`top_spans_json`] on its `GET` routes (this
//! crate has no networking).
//!
//! Metric and span names follow `<crate>.<phase>.<name>`, e.g.
//! `embed.train.epoch_loss` or `discover.generation.duration_us`.
//!
//! ```
//! let _cell = kgfd_obs::scoped(std::sync::Arc::new(kgfd_obs::NullObserver));
//! let span = kgfd_obs::span!("discover.generation", relation = 3u64);
//! // ... work ...
//! let took = span.finish();
//! kgfd_obs::metric("discover.generation.candidates", 128.0, vec![]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod export;
mod manifest;
mod metrics;
mod observer;
mod span;
mod trace;

pub use event::{Event, Field, FieldValue, Level, Payload};
pub use export::{
    chrome_trace, flamegraph_collapsed, top_spans_json, TraceNode, TraceSummary, TraceTree,
};
pub use manifest::{DatasetShape, PoolPhase, PoolSummary, RunManifest};
pub use metrics::{
    counter, gauge, histogram, prometheus_text, registry, Counter, Gauge, Histogram,
    HistogramSummary, MetricsSnapshot, Registry,
};
pub use observer::{
    clock_us, current_phase, drain_recoveries, emit, info, metric, progress, record_recovery,
    run_id, scoped, set_phase, warn, Fanout, JsonlSink, NullObserver, Observer, ScopedObserver,
    StderrProgress,
};
pub use span::{emit_span_aggregate, Span};
pub use trace::{
    collector, current_span, current_span_handle, disable as disable_tracing,
    enable as enable_tracing, finish as finish_tracing, record_manual, thread_id, EnteredSpan,
    SpanHandle, SpanId, SpanRecord, TraceCollector,
};
