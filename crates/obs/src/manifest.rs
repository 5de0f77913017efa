//! The closing record of a run: what ran, on what, and how long it took.

use crate::event::{Field, Payload};

/// Shape of the dataset a run operated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct DatasetShape {
    /// Number of entities.
    pub entities: u64,
    /// Number of relations.
    pub relations: u64,
    /// Number of (training) triples.
    pub triples: u64,
}

/// Activity of the fan-out (`kgfd-pool`) over the run. Populated at
/// [`RunManifest::emit`] time from this registry's `pool.*` metrics (the
/// pool crate publishes them by name; obs never depends on the pool).
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct PoolSummary {
    /// Chunks run by fan-outs that started threads (inline chunks excluded).
    pub jobs: u64,
    /// Median time from a fan-out's dispatch to a chunk's start, in
    /// microseconds.
    pub queue_wait_us_p50: Option<f64>,
    /// 95th-percentile dispatch-to-start wait, in microseconds.
    pub queue_wait_us_p95: Option<f64>,
}

/// Reads the fan-out's activity out of the metrics registry; `None` when no
/// fan-out started a thread (e.g. a single-threaded run).
fn pool_summary() -> Option<PoolSummary> {
    let jobs = crate::counter("pool.jobs").get();
    if jobs == 0 {
        return None;
    }
    let wait = crate::histogram("pool.queue_wait_us");
    Some(PoolSummary {
        jobs,
        queue_wait_us_p50: wait.quantile(0.5),
        queue_wait_us_p95: wait.quantile(0.95),
    })
}

/// Machine-readable summary emitted at the end of every run — the last
/// line of a JSONL sink.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct RunManifest {
    /// What ran (e.g. `discover`, `train`, `sweep`).
    pub command: String,
    /// Version of the workspace that produced this run.
    pub crate_version: String,
    /// Sampling strategy name (empty when not applicable).
    pub strategy: String,
    /// Embedding model name (empty when not applicable).
    pub model: String,
    /// Seed the run was keyed on.
    pub seed: u64,
    /// Shape of the input dataset.
    pub dataset: DatasetShape,
    /// Remaining configuration as key/value pairs.
    pub config: Vec<Field>,
    /// Total wall-clock time of the run, in seconds.
    pub wall_clock_s: f64,
    /// Recovery actions observed during the run (e.g. a corrupt zoo cache
    /// entry evicted and retrained, or a damaged training checkpoint
    /// skipped). Populated at [`RunManifest::emit`] time from the
    /// process-wide recovery log ([`crate::record_recovery`]).
    pub recoveries: Vec<String>,
    /// Path of the training checkpoint the run resumed from; `None` when
    /// the run started fresh (no `--resume`, or no usable checkpoint).
    pub resumed_from: Option<String>,
    /// Shape and hot spots of the span tree when trace collection was
    /// enabled for the run; `null` otherwise. Populated at
    /// [`RunManifest::emit`] time from the process collector (without
    /// draining it — exports still see the full tree).
    pub trace: Option<crate::export::TraceSummary>,
    /// Fan-out activity (job count, queue-wait quantiles); `null` when no
    /// fan-out started a thread. Populated at [`RunManifest::emit`] time
    /// from this registry's `pool.*` metrics.
    pub pool: Option<PoolSummary>,
}

impl RunManifest {
    /// A manifest for `command` stamped with the workspace version.
    pub fn new(command: impl Into<String>) -> Self {
        RunManifest {
            command: command.into(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            ..RunManifest::default()
        }
    }

    /// Appends a config field (builder style).
    pub fn with_config(
        mut self,
        key: impl Into<String>,
        value: impl Into<crate::FieldValue>,
    ) -> Self {
        self.config.push(Field::new(key, value));
        self
    }

    /// Emits this manifest as the run's closing event, attaching any
    /// recovery actions recorded since the last emitted manifest and — when
    /// trace collection is enabled — a summary of the span tree so far.
    pub fn emit(&self) {
        let mut manifest = self.clone();
        manifest
            .recoveries
            .extend(crate::observer::drain_recoveries());
        if manifest.trace.is_none() {
            let collector = crate::trace::collector();
            if collector.is_enabled() && !collector.is_empty() {
                let tree = crate::export::TraceTree::build(collector.snapshot());
                manifest.trace = Some(tree.summary());
            }
        }
        if manifest.pool.is_none() {
            manifest.pool = pool_summary();
        }
        crate::observer::emit(Payload::Manifest(Box::new(manifest)));
    }
}
