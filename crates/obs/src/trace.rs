//! Hierarchical trace collection: span identities, the per-thread span
//! stack, and the [`TraceCollector`].
//!
//! Every [`crate::Span`] carries a process-unique [`SpanId`] and a
//! `parent` id taken from the top of a **thread-local span stack** at
//! creation time, so spans opened while another span is live nest under it
//! with no explicit plumbing. Work dispatched to other threads re-establishes
//! the link with an explicit handoff: the dispatching side captures a
//! [`SpanHandle`] (`Copy + Send`) and the worker enters it
//! ([`SpanHandle::enter`]), making it the parent of everything the worker
//! opens. `kgfd-pool`'s fan-out does this for every job it dispatches.
//!
//! Finished spans are recorded into the process-wide [`TraceCollector`] —
//! a mutex-guarded vector; recording holds the lock only for one push.
//! Collection is **off by default**: until [`enable`] is called, a finished
//! span costs one atomic load and never touches the lock.

use crate::event::Field;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Process-unique identifier of one span. Ids are never reused; `0` is
/// reserved (no valid span has it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// A `Copy + Send` reference to a live span, used to parent work that runs
/// on another thread. See [`SpanHandle::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle {
    pub(crate) id: SpanId,
}

impl SpanHandle {
    /// The referenced span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Makes this span the current parent on the calling thread until the
    /// returned guard drops. Every span the thread opens while the guard is
    /// live nests under the handle's span — the cross-thread equivalent of
    /// simple lexical nesting.
    pub fn enter(&self) -> EnteredSpan {
        push_current(self.id);
        EnteredSpan { id: self.id }
    }
}

/// Guard of [`SpanHandle::enter`]; pops the entered span from the calling
/// thread's span stack on drop.
pub struct EnteredSpan {
    id: SpanId,
}

impl Drop for EnteredSpan {
    fn drop(&mut self) {
        pop_current(self.id);
    }
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique span id.
pub(crate) fn next_span_id() -> SpanId {
    SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Per-thread span stack
// ---------------------------------------------------------------------------

thread_local! {
    static SPAN_STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// The innermost live span on this thread, if any — the parent a new span
/// will attach to.
pub fn current_span() -> Option<SpanId> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// A dispatchable [`SpanHandle`] for the innermost live span — the thing to
/// capture right before spawning workers when the dispatching code does not
/// own the span itself (e.g. library code running under a caller's span).
pub fn current_span_handle() -> Option<SpanHandle> {
    current_span().map(|id| SpanHandle { id })
}

pub(crate) fn push_current(id: SpanId) {
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
}

/// Removes `id` from this thread's stack. Spans usually finish in LIFO
/// order, but a span held as a struct field can outlive later siblings —
/// search from the top so out-of-order finishes never corrupt the stack.
pub(crate) fn pop_current(id: SpanId) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&x| x == id) {
            stack.remove(pos);
        }
    });
}

// ---------------------------------------------------------------------------
// Thread ids
// ---------------------------------------------------------------------------

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the calling thread, assigned on first use (the
/// process's first tracing thread is 1). Used as the `tid` of Chrome trace
/// events; `std::thread::ThreadId` has no stable integer form.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

// ---------------------------------------------------------------------------
// The collector
// ---------------------------------------------------------------------------

/// One finished span as recorded by the [`TraceCollector`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanRecord {
    /// The span's process-unique id.
    pub id: u64,
    /// Id of the enclosing span (`None` for roots).
    pub parent: Option<u64>,
    /// Span name (`<crate>.<phase>`).
    pub name: String,
    /// Structured context fields.
    pub fields: Vec<Field>,
    /// Start, microseconds since the observability clock started.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Dense id of the thread the span ran on (see [`thread_id`]).
    pub thread: u64,
}

/// Sink of finished spans: an enable flag plus a mutex-guarded vector.
/// Hot paths only ever push; building trees, exports, and summaries happens
/// on drained snapshots.
#[derive(Default)]
pub struct TraceCollector {
    enabled: AtomicBool,
    records: Mutex<Vec<SpanRecord>>,
}

impl TraceCollector {
    /// Whether finished spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts (or stops) recording finished spans.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn records(&self) -> MutexGuard<'_, Vec<SpanRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// `true` when no spans have been recorded (or all were drained).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes one finished span; safe from any thread. A no-op while the
    /// collector is disabled.
    pub fn record(&self, record: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        self.records().push(record);
    }

    /// Takes every record collected so far, oldest first (ids ascend with
    /// creation order, so the result is sorted by id for determinism even
    /// when threads interleaved their pushes).
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut records = std::mem::take(&mut *self.records());
        records.sort_by_key(|r| r.id);
        records
    }

    /// A copy of every record collected so far without draining, in the
    /// order they were recorded. Used by `kgfd serve`'s `/trace` route,
    /// which must not steal the records from the end-of-run export.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.records().clone()
    }
}

static COLLECTOR: std::sync::OnceLock<TraceCollector> = std::sync::OnceLock::new();

/// The process-wide trace collector (disabled until [`enable`]).
pub fn collector() -> &'static TraceCollector {
    COLLECTOR.get_or_init(TraceCollector::default)
}

/// Turns span collection on process-wide (`--trace-out` / `--flame-out`
/// do this before the run starts).
pub fn enable() {
    collector().set_enabled(true);
}

/// Turns span collection off again (primarily for tests and benches that
/// measure the disabled path).
pub fn disable() {
    collector().set_enabled(false);
}

/// Ends a run's span collection and writes the exports it asked for: drains
/// the collector, turns collection off, and writes the span tree as Chrome
/// trace-event JSON to `trace_out` and as collapsed-stack flamegraph text
/// to `flame_out`. Does nothing when neither path is given. This is what
/// `--trace-out` / `--flame-out` do after a `kgfd` run.
pub fn finish(trace_out: Option<&str>, flame_out: Option<&str>) -> Result<(), String> {
    if trace_out.is_none() && flame_out.is_none() {
        return Ok(());
    }
    let records = collector().drain();
    disable();
    let tree = crate::TraceTree::build(records);
    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    };
    if let Some(path) = trace_out {
        write(path, crate::chrome_trace(&tree))?;
    }
    if let Some(path) = flame_out {
        write(path, crate::flamegraph_collapsed(&tree))?;
    }
    Ok(())
}

/// Records a synthetic span that was measured by hand rather than scoped —
/// used for aggregates like "total negative-sampling time inside this
/// shard", where wrapping every individual draw in a [`crate::Span`] would
/// cost more than the work being measured.
pub fn record_manual(name: &'static str, parent: Option<SpanId>, start_us: u64, duration_us: u64) {
    let c = collector();
    if !c.is_enabled() {
        return;
    }
    c.record(SpanRecord {
        id: next_span_id().0,
        parent: parent.map(|p| p.0),
        name: name.to_string(),
        fields: Vec::new(),
        start_us,
        duration_us,
        thread: thread_id(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_push_and_drain_in_id_order() {
        let c = TraceCollector::default();
        c.set_enabled(true);
        for i in [3u64, 1, 2] {
            c.record(SpanRecord {
                id: i,
                parent: None,
                name: format!("span{i}"),
                fields: Vec::new(),
                start_us: 0,
                duration_us: 1,
                thread: 1,
            });
        }
        assert_eq!(c.len(), 3);
        let drained = c.drain();
        assert_eq!(drained.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(c.is_empty());
        assert!(c.drain().is_empty());
    }

    #[test]
    fn disabled_collector_drops_records() {
        let c = TraceCollector::default();
        c.record(SpanRecord {
            id: 1,
            parent: None,
            name: "x".into(),
            fields: Vec::new(),
            start_us: 0,
            duration_us: 1,
            thread: 1,
        });
        assert!(c.is_empty());
    }

    #[test]
    fn snapshot_leaves_records_in_place() {
        let c = TraceCollector::default();
        c.set_enabled(true);
        for i in 1..=4u64 {
            c.record(SpanRecord {
                id: i,
                parent: None,
                name: "s".into(),
                fields: Vec::new(),
                start_us: i,
                duration_us: 1,
                thread: 1,
            });
        }
        let snap = c.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.first().unwrap().id, 1, "oldest first");
        assert_eq!(c.len(), 4, "snapshot must not drain");
        assert_eq!(c.drain().len(), 4);
    }

    #[test]
    fn concurrent_pushes_lose_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2_000;
        let c = TraceCollector::default();
        c.set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = &c;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.record(SpanRecord {
                            id: (t * PER_THREAD + i) as u64,
                            parent: None,
                            name: "concurrent".into(),
                            fields: Vec::new(),
                            start_us: 0,
                            duration_us: 1,
                            thread: t as u64,
                        });
                    }
                });
            }
        });
        let drained = c.drain();
        assert_eq!(drained.len(), THREADS * PER_THREAD);
        // Every id exactly once.
        let mut ids: Vec<u64> = drained.iter().map(|r| r.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), THREADS * PER_THREAD);
    }

    #[test]
    fn stack_tracks_nesting_and_out_of_order_pops() {
        assert_eq!(current_span(), None);
        push_current(SpanId(10));
        push_current(SpanId(11));
        assert_eq!(current_span(), Some(SpanId(11)));
        // Out-of-order: removing the outer span keeps the inner current.
        pop_current(SpanId(10));
        assert_eq!(current_span(), Some(SpanId(11)));
        pop_current(SpanId(11));
        assert_eq!(current_span(), None);
    }

    #[test]
    fn entered_handle_parents_the_worker_thread() {
        let handle = SpanHandle { id: SpanId(77) };
        std::thread::scope(|s| {
            s.spawn(move || {
                assert_eq!(current_span(), None);
                {
                    let _g = handle.enter();
                    assert_eq!(current_span(), Some(SpanId(77)));
                }
                assert_eq!(current_span(), None);
            });
        });
    }
}
