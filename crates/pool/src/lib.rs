//! `kgfd-pool` — the process-wide deterministic worker pool.
//!
//! Every parallel hot path in this workspace (training shards, discovery's
//! relations, both sides of batched ranking) goes through one fan-out:
//! [`fan_out`], or [`fan_out_mut`] for mutable chunks. It splits a slice
//! into at most `threads` contiguous chunks, runs a closure on each, and
//! returns the results in chunk order. A scoped-thread fan-out
//! (`std::thread::scope`) would pay OS-thread spawn/join costs on *every
//! call*: once per mini-batch in training, once per ranking pass, once per
//! discovery run. The pool here is spawned **once** for the whole process
//! and hands out persistent workers instead.
//!
//! # Determinism contract
//!
//! The fan-out preserves the workspace-wide bit-identical-at-any-thread-count
//! guarantee by construction:
//!
//! 1. **One chunking rule.** A slice of `len` items is cut into
//!    `min(threads, len)` contiguous chunks whose sizes differ by at most
//!    one, earlier chunks taking the remainder. Callers keep their results
//!    independent of the cut (index-derived RNG streams, per-item output
//!    slots), so the cut only decides which thread does the work.
//! 2. **Fixed job assignment, no stealing.** Chunk `k` always goes to
//!    worker `k mod pool_size`, and every worker drains its own FIFO queue.
//!    A job's result depends only on its closure and chunk, never on the
//!    executing thread.
//! 3. **Ordered results.** Results come back in chunk order, whichever job
//!    finishes first, so callers reduce them in a fixed order.
//!
//! The reference is serial execution: at `threads = 1` the one chunk runs
//! inline on the calling thread and never touches the pool. The
//! differential suites compare it against 4 and 8 threads and assert
//! bit-identical embeddings, ranks, and discovered facts.
//!
//! # Scopes and panics
//!
//! Each fan-out call is a dispatch scope: jobs borrow the caller's data,
//! and the call joins every job it sent before it returns or unwinds. A
//! panicking job is caught on its worker while the other jobs run to
//! completion; the call then returns [`PoolError::WorkerPanic`] carrying
//! the first panic's message in chunk order. Chunks that run inline are
//! plain calls, so their panics unwind through the caller as in serial
//! code.
//!
//! # Nested use
//!
//! A job that fans out again (e.g. ranking inside a discovery worker) must
//! not wait on queue slots behind itself — that could deadlock. A fan-out
//! called on a pool worker therefore runs its chunks **inline**, in order,
//! on that worker. Results are unchanged (a chunk's output does not depend
//! on where it runs); only scheduling differs.
//!
//! # Observability
//!
//! Jobs run under the caller's current span, so the spans they open nest
//! in the caller's trace tree. Persistent workers record `pool.jobs`
//! (counter), `pool.queue_wait_us` (histogram: enqueue → pick-up latency),
//! `pool.jobs.inline` (chunks of nested fan-outs), and per-phase busy time
//! that is folded into `pool.utilization.<phase>` gauges (busy worker-time
//! divided by `pool_size ×` the phase's wall-clock span). The end-of-run
//! [`kgfd_obs::RunManifest`] surfaces these as its `pool` summary.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, OnceLock};
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
/// the condition under which a nested fan-out runs inline.
fn on_pool_worker() -> bool {
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
        positive_env("KGFD_POOL_SIZE")
            .unwrap_or_else(|| cores().max(positive_env("KGFD_THREADS").unwrap_or(1)))
    })
}

/// The default thread count wherever a caller sets none (training,
/// discovery, evaluation, and the harness grid and sweep):
/// `KGFD_THREADS` when set to a positive integer, otherwise the machine's
/// available parallelism capped at 8. Results are identical at any thread
/// count, so the default only decides scheduling.
pub fn default_threads() -> usize {
    positive_env("KGFD_THREADS").unwrap_or_else(|| cores().min(8))
}

/// The environment variable `name` when it holds a positive integer.
fn positive_env(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The machine's available parallelism (1 when it cannot be determined),
/// read once per process: on Linux each read parses cgroup files, about
/// 20 µs, and every `DiscoveryConfig::default()` asks for it.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// The one thread-count policy for the whole workspace: rejects `0` with a
/// typed error and clamps requests beyond [`pool_size`] to the pool's width
/// (recording a warning event and bumping `pool.threads_clamped`). Used by
/// the CLI (`kgfd repro` included) and the harness grid/sweep; results are
/// identical at any accepted value — clamping only changes scheduling.
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
    queues: Vec<mpsc::Sender<Job>>,
}

impl Pool {
    /// Queues `run` on worker `k mod pool_size` (fixed assignment, no
    /// stealing).
    fn dispatch(&self, k: usize, run: Box<dyn FnOnce() + Send>) {
        let job = Job {
            run,
            enqueued: Instant::now(),
        };
        // A worker's queue closes only if the worker died outside a job. The
        // job is then dropped unrun, and `Completions::join` reports it.
        let _ = self.queues[k % self.queues.len()].send(job);
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let queues = (0..pool_size())
            .map(|w| {
                let (tx, rx) = mpsc::channel::<Job>();
                std::thread::Builder::new()
                    .name(format!("kgfd-pool-{w}"))
                    .spawn(move || worker_loop(rx))
                    .expect("failed to spawn pool worker");
                tx
            })
            .collect();
        Pool { queues }
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
// The fan-out
// ---------------------------------------------------------------------------

/// The ranges of the `min(threads, len)` contiguous chunks that split `len`
/// items as evenly as possible; earlier chunks take the remainder.
/// `threads = 0` counts as 1.
fn chunk_ranges(threads: usize, len: usize) -> impl Iterator<Item = Range<usize>> {
    let jobs = threads.max(1).min(len);
    // `jobs` is 0 only for an empty slice, which yields no chunk at all.
    let (base, extra) = (len / jobs.max(1), len % jobs.max(1));
    (0..jobs).map(move |k| {
        let start = k * base + k.min(extra);
        start..start + base + usize::from(k < extra)
    })
}

/// Runs `f` over at most `threads` contiguous chunks of `items` and returns
/// the results in chunk order. `f` receives the index of the chunk's first
/// item and the chunk.
///
/// One chunk, or a call from a pool worker, runs inline on the calling
/// thread. Otherwise chunk `k` runs on worker `k mod pool_size`, under the
/// caller's current span. Every chunk finishes before this returns; if any
/// panicked, the result is [`PoolError::WorkerPanic`] with the first
/// panic's message in chunk order. See the module docs.
pub fn fan_out<T, R, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, PoolError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let chunks = chunk_ranges(threads, items.len()).map(|r| (r.start, &items[r]));
    run(chunks.collect(), |(start, chunk)| f(start, chunk))
}

/// [`fan_out`] over mutable chunks: each job gets exclusive access to its
/// part of `items`.
pub fn fan_out_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Result<Vec<R>, PoolError>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let mut rest = items;
    let chunks = chunk_ranges(threads, rest.len()).map(|r| {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
        rest = tail;
        (r.start, chunk)
    });
    run(chunks.collect(), |(start, chunk)| f(start, chunk))
}

/// A finished job's report: its chunk index and its result or panic.
type Done<R> = (usize, std::thread::Result<R>);

/// The dispatcher's end of one fan-out. Jobs report through clones of
/// `tx`. Joining or dropping this (dropping also happens while unwinding)
/// closes `tx` and drains `rx` until every clone is gone, that is until
/// every job has run or been dropped unrun.
struct Completions<R> {
    tx: Option<mpsc::Sender<Done<R>>>,
    rx: mpsc::Receiver<Done<R>>,
}

impl<R> Completions<R> {
    fn new() -> Self {
        let (tx, rx) = mpsc::channel();
        Completions { tx: Some(tx), rx }
    }

    fn sender(&self) -> mpsc::Sender<Done<R>> {
        self.tx.clone().expect("sender lives until join")
    }

    /// Waits for every job; one entry per job in chunk order, `None` for a
    /// job that was dropped unrun.
    fn join(mut self, jobs: usize) -> Vec<Option<std::thread::Result<R>>> {
        self.tx = None;
        let mut results: Vec<_> = (0..jobs).map(|_| None).collect();
        for (k, result) in self.rx.iter() {
            results[k] = Some(result);
        }
        results
    }
}

impl<R> Drop for Completions<R> {
    fn drop(&mut self) {
        self.tx = None;
        for _ in self.rx.iter() {}
    }
}

/// The one implementation behind [`fan_out`] and [`fan_out_mut`]: runs `f`
/// once per chunk and returns the results in chunk order.
fn run<C, R, F>(chunks: Vec<C>, f: F) -> Result<Vec<R>, PoolError>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    let jobs = chunks.len();
    if jobs <= 1 || on_pool_worker() {
        if jobs > 1 {
            kgfd_obs::counter("pool.jobs.inline").add(jobs as u64);
        }
        return Ok(chunks.into_iter().map(f).collect());
    }
    let pool = pool();
    let parent = kgfd_obs::current_span_handle();
    let f = &f;
    let completions = Completions::new();
    for (k, chunk) in chunks.into_iter().enumerate() {
        let done = completions.sender();
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let _attach = parent.map(|p| p.enter());
            let result = catch_unwind(AssertUnwindSafe(|| f(chunk)));
            let _ = done.send((k, result));
        });
        // SAFETY: only the lifetime is erased; the vtable and layout are
        // unchanged. The job borrows `f` and `chunk`, which outlive this
        // call. The call neither returns nor unwinds before `completions`
        // is joined or dropped, and both block until every job's `done`
        // sender is gone. A job drops its sender after its last use of a
        // borrow, and a job dropped unrun drops its sender with it. So no
        // job touches a borrow after this call ends.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        pool.dispatch(k, job);
    }
    completions
        .join(jobs)
        .into_iter()
        .map(|done| match done {
            Some(Ok(value)) => Ok(value),
            Some(Err(payload)) => Err(PoolError::WorkerPanic(panic_message(payload.as_ref()))),
            None => Err(PoolError::WorkerPanic(
                "a pool worker exited before running its job".into(),
            )),
        })
        .collect()
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
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::MutexGuard;

    /// Tests that dispatch hold this lock, so one test's jobs never show up
    /// in another test's `pool.jobs` reading.
    fn exclusive() -> MutexGuard<'static, ()> {
        static DISPATCH: Mutex<()> = Mutex::new(());
        DISPATCH.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn run_preserves_job_index_order() {
        let _serial = exclusive();
        let items: Vec<usize> = (0..6).collect();
        // threads > len, = len, an uneven split, and the serial reference.
        for threads in [10, 6, 4, 1] {
            let chunks = fan_out(threads, &items, |start, chunk| (start, chunk.to_vec())).unwrap();
            assert_eq!(chunks.len(), threads.min(items.len()));
            let mut next = 0;
            for (start, chunk) in &chunks {
                assert_eq!(*start, next, "chunks out of order at {threads} threads");
                assert_eq!(chunk[0], *start);
                next += chunk.len();
            }
            assert_eq!(next, items.len());
        }
        let sizes = fan_out(4, &items, |_, chunk| chunk.len()).unwrap();
        assert_eq!(sizes, vec![2, 2, 1, 1], "earlier chunks take the remainder");
    }

    #[test]
    fn scope_joins_borrowing_jobs() {
        let _serial = exclusive();
        let data = [1u64, 2, 3, 4, 5, 6];
        let sums = fan_out(3, &data, |_, part| part.iter().sum::<u64>()).unwrap();
        assert_eq!(sums, vec![3, 7, 11]);
    }

    #[test]
    fn scope_writes_into_disjoint_mut_chunks() {
        let _serial = exclusive();
        let mut out = vec![0u32; 10];
        fan_out_mut(4, &mut out, |start, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = (start + i) as u32;
            }
        })
        .unwrap();
        assert_eq!(out, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn single_thread_never_touches_the_pool() {
        let _serial = exclusive();
        let before = kgfd_obs::counter("pool.jobs").get();
        let mut items: Vec<u32> = (0..100).collect();
        let out = fan_out(1, &items, |start, chunk| (start, chunk.len())).unwrap();
        assert_eq!(out, vec![(0, 100)]);
        fan_out_mut(1, &mut items, |_, chunk| chunk.reverse()).unwrap();
        assert_eq!(items[0], 99);
        assert_eq!(kgfd_obs::counter("pool.jobs").get(), before);
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let out = fan_out(4, &[] as &[u8], |_, _| unreachable!("no chunk to run"));
        assert!(out.unwrap().is_empty());
        let out = fan_out_mut(4, &mut [] as &mut [u8], |_, _| {
            unreachable!("no chunk to run")
        });
        assert!(out.unwrap().is_empty());
    }

    #[test]
    fn try_join_types_a_worker_panic() {
        let _serial = exclusive();
        let items = [0u8, 1];
        let err = fan_out(2, &items, |start, _| {
            if start == 1 {
                panic!("boom {}", 42);
            }
        })
        .unwrap_err();
        match err {
            PoolError::WorkerPanic(msg) => assert!(msg.contains("boom 42"), "{msg}"),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn panicking_scope_body_waits_for_borrowing_jobs() {
        // `Completions` is what keeps a fan-out from unwinding past its
        // borrows. Here the dispatching side panics while a job that
        // borrows `written` still holds its sender; the job stores ~50 ms
        // after the body has begun to unwind, and the unwind must not get
        // past the guard before that.
        let written = AtomicU64::new(0);
        std::thread::scope(|threads| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let completions = Completions::<()>::new();
                let done = completions.sender();
                let (_unwinding, unwound) = mpsc::channel::<()>();
                let slot = &written;
                threads.spawn(move || {
                    // Errs only once the body's sender is dropped, i.e.
                    // while the body unwinds.
                    let _ = unwound.recv();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    slot.store(42, Ordering::SeqCst);
                    drop(done);
                });
                panic!("scope body");
            }));
            let payload = result.unwrap_err();
            assert_eq!(
                written.load(Ordering::SeqCst),
                42,
                "the job did not finish before the unwind"
            );
            assert_eq!(panic_message(payload.as_ref()), "scope body");
        });
    }

    #[test]
    fn panicking_chunk_is_reported_after_every_other_chunk() {
        let _serial = exclusive();
        // Chunk 0 panics while holding the sender; chunk 1 blocks until the
        // sender is dropped, i.e. until chunk 0 unwinds, and only then
        // writes through its borrow. The fan-out must not report the panic
        // before that write.
        let (unwinding, unwound) = mpsc::channel::<()>();
        let mut slots = vec![
            (Some(unwinding), None, false),
            (None, Some(unwound), false),
            (None, None, false),
        ];
        let err = fan_out_mut(3, &mut slots, |start, chunk| {
            let (sender, receiver, finished) = &mut chunk[0];
            if let Some(held) = sender.take() {
                let _held = held;
                panic!("chunk {start} failed");
            }
            if let Some(receiver) = receiver.take() {
                // Errs only once chunk 0 has dropped its sender.
                let _ = receiver.recv();
            }
            *finished = true;
        })
        .unwrap_err();
        match err {
            PoolError::WorkerPanic(msg) => assert_eq!(msg, "chunk 0 failed"),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert!(
            slots[1].2,
            "chunk 1 did not finish before the panic was reported"
        );
        assert!(
            slots[2].2,
            "chunk 2 did not finish before the panic was reported"
        );
    }

    #[test]
    fn nested_scopes_fall_back_to_inline_execution() {
        let _serial = exclusive();
        // A job that itself fans out: the inner chunks must run inline on
        // the worker (no queueing behind the outer job) and still come back
        // in order.
        let outer: Vec<usize> = (0..4).collect();
        let inner: Vec<usize> = (0..3).collect();
        let out = fan_out(4, &outer, |_, part| {
            let i = part[0];
            let nested = fan_out(3, &inner, |_, js| i * 10 + js[0]).unwrap();
            nested.iter().sum::<usize>()
        })
        .unwrap();
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
        let _serial = exclusive();
        let before = kgfd_obs::counter("pool.jobs").get();
        let items = [0u8; 4];
        drop(fan_out(4, &items, |start, _| start));
        // Four chunks from this (non-worker) thread dispatch at any pool
        // size, and a worker counts each job before running it.
        assert!(kgfd_obs::counter("pool.jobs").get() >= before + 4);
    }
}
