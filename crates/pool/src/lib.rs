//! `kgfd-pool` — the process-wide deterministic worker pool.
//!
//! Every hot path in this workspace fans work out to a fixed number of
//! workers and reduces the results in a fixed order. A scoped-thread
//! fan-out (`std::thread::scope`) pays OS-thread spawn/join costs on *every
//! call*: once per mini-batch in training, once per ranking pass, once per
//! discovery run.
//! The pool here is spawned **once** for the whole process and hands out
//! persistent workers instead.
//!
//! # Determinism contract
//!
//! The pool preserves the workspace-wide bit-identical-at-any-thread-count
//! guarantee by construction:
//!
//! 1. **Fixed job assignment, no stealing.** A [`scope`]'s `k`-th spawned
//!    job always goes to worker `k mod pool_size`, and every worker drains
//!    its own FIFO queue. Which worker runs a job can never depend on
//!    timing — and even if it could, job *results* depend only on the job's
//!    closure, never on the executing thread.
//! 2. **Ordered reduction at the call site.** Jobs return values through
//!    [`JobHandle`]s; callers join handles in spawn order (or write to
//!    disjoint output slots), exactly as the scoped-spawn code did.
//!
//! The reference is serial execution: `threads = 1` runs inline in the
//! trainer, the ranker and discovery and never touches the pool. The
//! differential suites compare it against 4 and 8 threads and assert
//! bit-identical embeddings, ranks, and discovered facts.
//!
//! # Nested use
//!
//! A job that opens a nested [`scope`] (e.g. ranking inside a discovery
//! worker) must not wait on queue slots behind itself — that could
//! deadlock. [`PoolScope::spawn`] therefore detects that it is already
//! running on a pool worker and executes the job **inline**, immediately,
//! on the current thread. Results are unchanged (a job's output does not
//! depend on where it runs); only scheduling differs.
//!
//! # Observability
//!
//! Persistent workers record `pool.jobs` (counter), `pool.queue_wait_us`
//! (histogram: enqueue → pick-up latency), `pool.jobs.inline` (nested
//! fall-backs), and per-phase busy time that is folded into
//! `pool.utilization.<phase>` gauges (busy worker-time divided by
//! `pool_size ×` the phase's wall-clock span). The end-of-run
//! [`kgfd_obs::RunManifest`] surfaces these as its `pool` summary.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Errors surfaced by the pool's fallible APIs.
#[derive(Debug)]
pub enum PoolError {
    /// A worker panicked while running a job; the payload rendered as text.
    WorkerPanic(String),
    /// A thread count of 0 was requested ([`resolve_threads`]).
    ZeroThreads,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanic(msg) => write!(f, "pool worker panicked: {msg}"),
            PoolError::ZeroThreads => f.write_str("thread count must be at least 1"),
        }
    }
}

impl std::error::Error for PoolError {}

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` when the current thread is one of the pool's persistent workers —
/// the condition under which nested [`PoolScope::spawn`]s run inline.
pub fn on_pool_worker() -> bool {
    IN_POOL_WORKER.with(|f| f.get())
}

/// Number of persistent workers: `KGFD_POOL_SIZE` when set to a positive
/// integer, otherwise the larger of the machine's available parallelism and
/// `KGFD_THREADS` (so CI legs that pin a thread count above the core count
/// still get one worker per requested thread). Fixed for the process
/// lifetime; always at least 1.
pub fn pool_size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        let parse = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|raw| raw.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
        };
        if let Some(n) = parse("KGFD_POOL_SIZE") {
            return n;
        }
        let hw = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        hw.max(parse("KGFD_THREADS").unwrap_or(1))
    })
}

/// The one thread-count policy for the whole workspace: rejects `0` with a
/// typed error and clamps requests beyond [`pool_size`] to the pool's width
/// (recording a warning event and bumping `pool.threads_clamped`). Used by
/// the CLI, the harness grid/sweep, and `repro`; results are identical at
/// any accepted value — clamping only changes scheduling.
pub fn resolve_threads(requested: usize) -> Result<usize, PoolError> {
    if requested == 0 {
        return Err(PoolError::ZeroThreads);
    }
    let size = pool_size();
    if requested > size {
        kgfd_obs::warn(format!(
            "requested {requested} threads but the pool has {size} workers; clamping to {size}"
        ));
        kgfd_obs::counter("pool.threads_clamped").inc();
        Ok(size)
    } else {
        Ok(requested)
    }
}

// ---------------------------------------------------------------------------
// Result slots
// ---------------------------------------------------------------------------

enum SlotFill<T> {
    Pending,
    Done(T),
    Panicked(Box<dyn Any + Send>),
    Taken,
}

struct Slot<T> {
    state: Mutex<SlotFill<T>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotFill::Pending),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, result: Result<T, Box<dyn Any + Send>>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = match result {
            Ok(v) => SlotFill::Done(v),
            Err(p) => SlotFill::Panicked(p),
        };
        self.cv.notify_all();
    }

    fn take(&self) -> Result<T, Box<dyn Any + Send>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *state, SlotFill::Taken) {
                SlotFill::Pending => {
                    *state = SlotFill::Pending;
                    state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                SlotFill::Done(v) => return Ok(v),
                SlotFill::Panicked(p) => return Err(p),
                SlotFill::Taken => unreachable!("job result taken twice"),
            }
        }
    }
}

/// Object-safe completion view of a [`Slot`] for the scope's pending list.
trait Completion {
    /// Blocks until the job has finished (result or panic, taken or not).
    fn wait_done(&self);
    /// Removes and returns the panic payload, if the job panicked and no
    /// [`JobHandle`] consumed it.
    fn take_panic(&self) -> Option<Box<dyn Any + Send>>;
}

impl<T> Completion for Slot<T> {
    fn wait_done(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while matches!(*state, SlotFill::Pending) {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, SlotFill::Panicked(_)) {
            match std::mem::replace(&mut *state, SlotFill::Taken) {
                SlotFill::Panicked(p) => Some(p),
                _ => unreachable!(),
            }
        } else {
            None
        }
    }
}

/// Renders a panic payload as text for [`PoolError::WorkerPanic`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

struct Job {
    run: Box<dyn FnOnce() + Send>,
    enqueued: Instant,
}

struct Pool {
    senders: Vec<Mutex<mpsc::Sender<Job>>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let size = pool_size();
        let mut senders = Vec::with_capacity(size);
        for w in 0..size {
            let (tx, rx) = mpsc::channel::<Job>();
            std::thread::Builder::new()
                .name(format!("kgfd-pool-{w}"))
                .spawn(move || worker_loop(rx))
                .expect("failed to spawn pool worker");
            senders.push(Mutex::new(tx));
        }
        Pool { senders }
    })
}

/// Marks the process start for phase-utilization bookkeeping.
fn clock_us() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_micros() as u64
}

#[derive(Default)]
struct PhaseAgg {
    busy_us: u64,
    first_us: u64,
    last_us: u64,
    seen: bool,
}

/// Folds one finished job into its phase's utilization gauge:
/// `pool.utilization.<phase>` = busy worker-µs / (pool_size × phase wall-µs).
fn record_phase_busy(start_us: u64, end_us: u64) {
    static PHASES: OnceLock<Mutex<HashMap<String, PhaseAgg>>> = OnceLock::new();
    let phase = kgfd_obs::current_phase().unwrap_or_else(|| "unphased".to_string());
    let mut phases = PHASES
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let agg = phases.entry(phase.clone()).or_default();
    if !agg.seen {
        agg.first_us = start_us;
        agg.seen = true;
    }
    agg.first_us = agg.first_us.min(start_us);
    agg.last_us = agg.last_us.max(end_us);
    agg.busy_us += end_us.saturating_sub(start_us);
    let wall = agg.last_us.saturating_sub(agg.first_us).max(1);
    let utilization = agg.busy_us as f64 / (pool_size() as f64 * wall as f64);
    kgfd_obs::gauge(&format!("pool.utilization.{phase}")).set(utilization.min(1.0));
}

fn worker_loop(rx: mpsc::Receiver<Job>) {
    IN_POOL_WORKER.with(|f| f.set(true));
    let jobs = kgfd_obs::counter("pool.jobs");
    let queue_wait = kgfd_obs::histogram("pool.queue_wait_us");
    while let Ok(job) = rx.recv() {
        queue_wait.record(job.enqueued.elapsed().as_secs_f64() * 1e6);
        jobs.inc();
        let start_us = clock_us();
        // The closure owns its catch_unwind; a panicking job can never take
        // the worker down, so the pool survives for the process lifetime.
        (job.run)();
        record_phase_busy(start_us, clock_us());
    }
}

// ---------------------------------------------------------------------------
// Scoped dispatch
// ---------------------------------------------------------------------------

/// Handle to one spawned job's eventual result.
pub struct JobHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> JobHandle<T> {
    /// Waits for the job and returns its result, resuming the job's panic
    /// on the calling thread if it panicked — the same observable behaviour
    /// as joining a scoped thread.
    pub fn join(self) -> T {
        match self.slot.take() {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Waits for the job, converting a worker panic into a typed
    /// [`PoolError::WorkerPanic`] instead of resuming it.
    pub fn try_join(self) -> Result<T, PoolError> {
        self.slot
            .take()
            .map_err(|p| PoolError::WorkerPanic(panic_message(p.as_ref())))
    }
}

/// A dispatch scope over the persistent pool. Created by [`scope`]; all
/// jobs spawned through it complete before [`scope`] returns.
pub struct PoolScope<'env> {
    pending: RefCell<Vec<Arc<dyn Completion + Send + Sync + 'env>>>,
    next: Cell<usize>,
    /// Invariant over `'env`, mirroring `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'env> {
    /// Spawns `f` as one job. The `k`-th spawn of this scope goes to worker
    /// `k mod pool_size` (fixed assignment, no stealing). When already
    /// running on a pool worker the job executes inline on the current
    /// thread (see the module docs on nesting).
    pub fn spawn<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let slot = Arc::new(Slot::new());
        if on_pool_worker() {
            kgfd_obs::counter("pool.jobs.inline").inc();
            slot.fill(catch_unwind(AssertUnwindSafe(f)));
            return JobHandle { slot };
        }

        let filler = {
            let slot = Arc::clone(&slot);
            move || slot.fill(catch_unwind(AssertUnwindSafe(f)))
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(filler);
        // SAFETY: only the lifetime is erased; the vtable and layout are
        // unchanged. The closure borrows `'env` data, and a `PoolScope<'env>`
        // exists only inside `scope`, which does not return or unwind past
        // its caller's frame until every job pushed onto `pending` below has
        // finished running:
        // - when the scope body returns, `finish` waits for every job;
        // - when the scope body unwinds, the `Guard` in `scope` is dropped
        //   and its `wait_all_quiet` waits for every job.
        // The job is pushed onto `pending` before it is sent, so no job can
        // run unseen by either wait; every `'env` borrow therefore outlives
        // the job's execution.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        self.pending
            .borrow_mut()
            .push(Arc::clone(&slot) as Arc<dyn Completion + Send + Sync + 'env>);

        let pool = pool();
        let worker = self.next.get() % pool.senders.len();
        self.next.set(self.next.get() + 1);
        let send = pool.senders[worker]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .send(Job {
                run: job,
                enqueued: Instant::now(),
            });
        // Workers live for the process lifetime; a closed channel is
        // unreachable short of worker-thread spawn failure.
        send.expect("pool worker queue closed");
        JobHandle { slot }
    }

    /// Blocks until every spawned job has finished, discarding panics
    /// (used while unwinding, where a second panic would abort).
    fn wait_all_quiet(&self) {
        for c in self.pending.borrow_mut().drain(..) {
            c.wait_done();
            drop(c.take_panic());
        }
    }

    /// Blocks until every spawned job has finished, then resumes the first
    /// unclaimed panic, if any.
    fn finish(&self) {
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        for c in self.pending.borrow_mut().drain(..) {
            c.wait_done();
            if let Some(p) = c.take_panic() {
                first_panic.get_or_insert(p);
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
    }
}

/// Runs `f` with a [`PoolScope`] through which borrowing jobs can be
/// dispatched to the persistent pool. Every spawned job completes before
/// this returns; a panic in an unjoined job is resumed here (matching
/// `std::thread::scope` semantics).
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&PoolScope<'env>) -> R,
{
    let scope = PoolScope {
        pending: RefCell::new(Vec::new()),
        next: Cell::new(0),
        _env: PhantomData,
    };
    struct Guard<'a, 'env>(&'a PoolScope<'env>);
    impl Drop for Guard<'_, '_> {
        fn drop(&mut self) {
            self.0.wait_all_quiet();
        }
    }
    let guard = Guard(&scope);
    let result = f(&scope);
    std::mem::forget(guard);
    scope.finish();
    result
}

/// Convenience fan-out: runs `f(0..jobs)` across the pool, returning the
/// results in job-index order. Each job is a fixed index — contiguous range
/// splitting is the caller's business. With `jobs <= 1` (or on a pool
/// worker) everything runs inline on the current thread.
pub fn run<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || on_pool_worker() {
        if on_pool_worker() {
            kgfd_obs::counter("pool.jobs.inline").add(jobs as u64);
        }
        return (0..jobs).map(f).collect();
    }
    let f = &f;
    scope(|s| {
        let handles: Vec<_> = (0..jobs).map(|i| s.spawn(move || f(i))).collect();
        handles.into_iter().map(JobHandle::join).collect()
    })
}

/// Pool scheduling stats for the end-of-run manifest: jobs executed so far
/// and queue-wait quantiles. (`None` quantiles = no jobs yet.)
pub fn queue_wait_summary() -> (u64, Option<f64>, Option<f64>) {
    let h = kgfd_obs::histogram("pool.queue_wait_us");
    (
        kgfd_obs::counter("pool.jobs").get(),
        h.quantile(0.5),
        h.quantile(0.95),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_job_index_order() {
        let out = run(8, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn scope_joins_borrowing_jobs() {
        let data = [1u64, 2, 3, 4, 5, 6];
        let total: u64 = scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|part| s.spawn(move || part.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(JobHandle::join).sum()
        });
        assert_eq!(total, 21);
    }

    #[test]
    fn scope_writes_into_disjoint_mut_chunks() {
        let mut out = vec![0u32; 10];
        scope(|s| {
            for (base, chunk) in out.chunks_mut(3).enumerate() {
                s.spawn(move || {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = (base * 3 + i) as u32;
                    }
                });
            }
        });
        assert_eq!(out, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn try_join_types_a_worker_panic() {
        let err = scope(|s| s.spawn(|| panic!("boom {}", 42)).try_join()).unwrap_err();
        match err {
            PoolError::WorkerPanic(msg) => assert!(msg.contains("boom 42"), "{msg}"),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn unjoined_panic_resumes_at_scope_exit() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("unjoined"));
            })
        }));
        let payload = result.unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "unjoined");
    }

    #[test]
    fn panicking_scope_body_waits_for_borrowing_jobs() {
        // The job writes through a borrow ~50 ms after the body has begun
        // to unwind; the scope must not unwind past `written` before that.
        let mut written = 0u64;
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                let (_unwinding, unwound) = mpsc::channel::<()>();
                let slot = &mut written;
                s.spawn(move || {
                    // Errs only once the body's sender is dropped, i.e.
                    // while the body unwinds.
                    let _ = unwound.recv();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    *slot = 42;
                });
                panic!("scope body");
            })
        }));
        let payload = result.unwrap_err();
        assert_eq!(written, 42, "the job did not finish before the unwind");
        assert_eq!(panic_message(payload.as_ref()), "scope body");
    }

    #[test]
    fn nested_scopes_fall_back_to_inline_execution() {
        // A job that itself fans out: the inner spawns must run inline on
        // the worker (no queueing behind the outer job) and still produce
        // ordered results.
        let out = run(4, |i| {
            let inner = run(3, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![3, 33, 63, 93]);
    }

    #[test]
    fn resolve_threads_rejects_zero_and_clamps() {
        assert!(matches!(resolve_threads(0), Err(PoolError::ZeroThreads)));
        assert_eq!(resolve_threads(1).unwrap(), 1);
        let size = pool_size();
        assert_eq!(resolve_threads(size).unwrap(), size);
        assert_eq!(resolve_threads(size + 100).unwrap(), size);
    }

    #[test]
    fn pool_records_job_metrics() {
        let before = kgfd_obs::counter("pool.jobs").get();
        drop(run(4, |i| i));
        // `run(4, …)` from this (non-worker) thread dispatches at any pool
        // size, and a worker counts each job before running it.
        assert!(kgfd_obs::counter("pool.jobs").get() >= before + 4);
    }
}
