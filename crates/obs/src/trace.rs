//! Hierarchical trace collection: span identities, the per-thread span
//! stack, and the lock-free [`TraceCollector`].
//!
//! Every [`crate::Span`] carries a process-unique [`SpanId`] and a
//! `parent` id taken from the top of a **thread-local span stack** at
//! creation time, so spans opened while another span is live nest under it
//! with no explicit plumbing. Work dispatched to other threads (pool
//! training workers, `BatchRanker` query-group workers) re-establishes the
//! link with an explicit handoff: the dispatching side captures a
//! [`SpanHandle`] (`Copy + Send`) and the worker either enters it
//! ([`SpanHandle::enter`], making it the parent of everything the worker
//! opens) or creates a direct child ([`crate::Span::child_for_thread`]).
//!
//! Finished spans are recorded into the process-wide [`TraceCollector`] —
//! a Treiber stack of heap nodes pushed with a single CAS, so recording
//! never takes a lock and never blocks another thread. Collection is **off
//! by default**: until [`enable`] is called, a finished span costs one
//! atomic load beyond what kgfd-obs v1 paid.

use crate::event::Field;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Process-unique identifier of one span. Ids are never reused; `0` is
/// reserved (no valid span has it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// A `Copy + Send` reference to a live span, used to parent work that runs
/// on another thread. See [`SpanHandle::enter`] and
/// [`crate::Span::child_for_thread`].
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

struct Node {
    record: SpanRecord,
    next: *mut Node,
}

/// Lock-free sink of finished spans: a Treiber stack pushed with one CAS
/// per record, drained wholesale by swapping the head. Hot paths only ever
/// push; building trees, exports, and summaries happens on drained
/// snapshots.
pub struct TraceCollector {
    head: AtomicPtr<Node>,
    len: AtomicUsize,
    enabled: AtomicBool,
    /// Serializes the cold readers ([`TraceCollector::drain`] frees nodes,
    /// [`TraceCollector::snapshot`] walks them) against each other. `record`
    /// never takes it.
    reader_lock: Mutex<()>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector {
            head: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicUsize::new(0),
            enabled: AtomicBool::new(false),
            reader_lock: Mutex::new(()),
        }
    }
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

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when no spans have been recorded (or all were drained).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes one finished span. Lock-free; safe from any thread.
    pub fn record(&self, record: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        let node = Box::into_raw(Box::new(Node {
            record,
            next: std::ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` came from Box::into_raw above and is not yet
            // shared; writing its `next` field is exclusive access.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => head = actual,
            }
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes every record collected so far, oldest first (ids ascend with
    /// creation order, so the result is sorted by id for determinism even
    /// when threads interleaved their pushes).
    pub fn drain(&self) -> Vec<SpanRecord> {
        let _readers = self
            .reader_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut head = self.head.swap(std::ptr::null_mut(), Ordering::Acquire);
        let mut records = Vec::new();
        while !head.is_null() {
            // SAFETY: the swap above made this list exclusively ours; each
            // node was created by Box::into_raw in `record`.
            let node = unsafe { Box::from_raw(head) };
            head = node.next;
            records.push(node.record);
        }
        self.len.fetch_sub(records.len(), Ordering::Relaxed);
        records.sort_by_key(|r| r.id);
        records
    }

    /// A copy of every record collected so far without draining, oldest
    /// first. Used by the live `/trace` endpoint, which must not steal the
    /// records from the end-of-run export.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let _readers = self
            .reader_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut records = Vec::new();
        let mut head = self.head.load(Ordering::Acquire);
        while !head.is_null() {
            // SAFETY: nodes are only freed by `drain`, which holds
            // `reader_lock` for the whole swap-and-free — so every node
            // reachable from the head loaded above stays live until this
            // walk ends. Concurrent `record` calls only push *in front* of
            // that head and are simply not visited.
            let node = unsafe { &*head };
            records.push(node.record.clone());
            head = node.next;
        }
        records.reverse();
        records
    }
}

impl Drop for TraceCollector {
    fn drop(&mut self) {
        // Reclaim whatever was never drained. `&mut self` proves no other
        // thread holds the list.
        let mut head = *self.head.get_mut();
        while !head.is_null() {
            let node = unsafe { Box::from_raw(head) };
            head = node.next;
        }
    }
}

// SAFETY: all shared state is atomics; nodes are transferred between
// threads only through Release/Acquire pairs on `head`.
unsafe impl Send for TraceCollector {}
unsafe impl Sync for TraceCollector {}

static COLLECTOR: std::sync::OnceLock<TraceCollector> = std::sync::OnceLock::new();

/// The process-wide trace collector (disabled until [`enable`]).
pub fn collector() -> &'static TraceCollector {
    COLLECTOR.get_or_init(TraceCollector::default)
}

/// Turns span collection on process-wide (`--trace-out` / `--flame-out` /
/// `--serve-metrics` do this before the run starts).
pub fn enable() {
    collector().set_enabled(true);
}

/// Turns span collection off again (primarily for tests and benches that
/// measure the disabled path).
pub fn disable() {
    collector().set_enabled(false);
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
