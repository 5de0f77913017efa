//! `kgfd-pool` — the workspace's one deterministic fan-out.
//!
//! Every parallel hot path in this workspace (training shards, discovery's
//! relations, the square-clustering build, both sides of batched ranking)
//! goes through one fan-out: [`fan_out`], or [`fan_out_mut`] for mutable
//! chunks. It splits a slice into at most `threads` contiguous chunks, runs
//! a closure on each, and returns the results in chunk order. Chunk 0 runs
//! on the calling thread and every other chunk on a thread of its own
//! (`std::thread::scope`); all of them are joined before the call returns.
//! No thread outlives the call that started it, so chunks borrow the
//! caller's data without any `unsafe`.
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
//! 2. **Fixed assignment, no stealing.** Chunk 0 runs on the caller and
//!    chunk `k` on the `k`-th thread the call starts. A chunk's result
//!    depends only on its closure and its items, never on the executing
//!    thread.
//! 3. **Ordered results.** Results come back in chunk order, whichever
//!    chunk finishes first, so callers reduce them in a fixed order.
//!
//! The reference is serial execution: at `threads = 1` the one chunk runs
//! inline on the calling thread and no thread is started. The differential
//! suites compare it against 4 and 8 threads and assert bit-identical
//! embeddings, ranks, and discovered facts.
//!
//! # Panics
//!
//! A panicking chunk, chunk 0 included, is caught while the other chunks run
//! to completion; the call then returns [`PoolError::WorkerPanic`] carrying
//! the first panic's message in chunk order. Chunks of an inline fan-out
//! are plain calls, so their panics unwind through the caller as in serial
//! code.
//!
//! # Nested use
//!
//! A fan-out called from inside a chunk (e.g. ranking inside a discovery
//! relation) runs its chunks **inline**, in order, on the current thread:
//! the outer fan-out already spends the thread budget. That holds for
//! chunk 0 on the caller too. Results are unchanged (a chunk's output does
//! not depend on where it runs); only scheduling differs.
//!
//! # Observability
//!
//! Chunks run under the caller's current span, so the spans they open nest
//! in the caller's trace tree. Each started thread takes the trace `tid` of
//! its *lane*: one per (dispatching thread, chunk index), reused by every
//! fan-out from that thread, so a trace shows one track per lane instead of
//! one per short-lived thread. A fan-out that starts threads records
//! `pool.jobs` (counter, one per chunk) and `pool.queue_wait_us`
//! (histogram: dispatch → chunk start); a nested one counts its chunks in
//! `pool.jobs.inline`. The end-of-run [`kgfd_obs::RunManifest`] surfaces
//! these as its `pool` summary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

/// Errors surfaced by the fan-out's fallible APIs.
#[derive(Debug)]
pub enum PoolError {
    /// A chunk panicked; the payload rendered as text.
    WorkerPanic(String),
    /// A thread count of 0 was requested ([`resolve_threads`]).
    ZeroThreads,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanic(msg) => write!(f, "fan-out chunk panicked: {msg}"),
            PoolError::ZeroThreads => f.write_str("thread count must be at least 1"),
        }
    }
}

impl std::error::Error for PoolError {}

thread_local! {
    /// Set while this thread runs a chunk of a fan-out that started threads.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
    /// The trace tids of this thread's lanes: chunk `k` runs as `LANES[k - 1]`.
    static LANES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
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

/// The widest accepted thread count: the larger of the machine's available
/// parallelism and `KGFD_THREADS`, so CI legs that pin a thread count above
/// the core count still run that many threads.
fn max_threads() -> usize {
    cores().max(positive_env("KGFD_THREADS").unwrap_or(1))
}

/// The one thread-count policy for the whole workspace: rejects `0` with a
/// typed error and clamps requests beyond the larger of the available
/// parallelism and `KGFD_THREADS` (recording a warning event and bumping
/// `pool.threads_clamped`). Used by the CLI (`kgfd repro` and `kgfd serve
/// --rank-threads` included) and the harness grid/sweep; results are
/// identical at any accepted value — clamping only bounds how many threads
/// a fan-out starts.
pub fn resolve_threads(requested: usize) -> Result<usize, PoolError> {
    if requested == 0 {
        return Err(PoolError::ZeroThreads);
    }
    let max = max_threads();
    if requested > max {
        kgfd_obs::warn(format!(
            "requested {requested} threads but at most {max} are used; clamping to {max}"
        ));
        kgfd_obs::counter("pool.threads_clamped").inc();
        Ok(max)
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
        "chunk panicked (non-string payload)".to_string()
    }
}

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
/// One chunk, or a call from inside a chunk, runs inline on the calling
/// thread. Otherwise chunk 0 runs on the caller and every other chunk on a
/// thread of its own, under the caller's current span. Every chunk finishes
/// before this returns; if any panicked, the result is
/// [`PoolError::WorkerPanic`] with the first panic's message in chunk
/// order. See the module docs.
pub fn fan_out<T, R, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, PoolError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let chunks = chunk_ranges(threads, items.len()).map(|r| (r.start, &items[r]));
    run(chunks.collect(), |(start, chunk)| f(start, chunk))
}

/// [`fan_out`] over mutable chunks: each chunk gets exclusive access to its
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

/// The trace tids of this thread's first `n` lanes, allocated on first use
/// and reused by every later fan-out from this thread.
fn lanes(n: usize) -> Vec<u64> {
    LANES.with(|lanes| {
        let mut lanes = lanes.borrow_mut();
        while lanes.len() < n {
            lanes.push(kgfd_obs::new_thread_id());
        }
        lanes[..n].to_vec()
    })
}

/// Runs one chunk of a fan-out that started threads: counts it, records its
/// wait since `dispatched`, and marks the thread as inside a chunk while
/// `f` runs, so a nested fan-out runs inline. A panic comes back as `Err`.
fn run_chunk<R>(dispatched: Instant, f: impl FnOnce() -> R) -> std::thread::Result<R> {
    kgfd_obs::histogram("pool.queue_wait_us").record(dispatched.elapsed().as_secs_f64() * 1e6);
    kgfd_obs::counter("pool.jobs").inc();
    IN_CHUNK.with(|c| c.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    IN_CHUNK.with(|c| c.set(false));
    result
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
    if jobs <= 1 || IN_CHUNK.with(Cell::get) {
        if jobs > 1 {
            kgfd_obs::counter("pool.jobs.inline").add(jobs as u64);
        }
        return Ok(chunks.into_iter().map(f).collect());
    }
    let parent = kgfd_obs::current_span_handle();
    let lanes = lanes(jobs - 1);
    let f = &f;
    let mut chunks = chunks.into_iter();
    let first = chunks.next().expect("two or more chunks");
    let dispatched = Instant::now();
    let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let started: Vec<_> = chunks
            .zip(lanes)
            .map(|(chunk, lane)| {
                scope.spawn(move || {
                    kgfd_obs::set_thread_id(lane);
                    let _attach = parent.map(|p| p.enter());
                    run_chunk(dispatched, || f(chunk))
                })
            })
            .collect();
        let first = run_chunk(dispatched, || f(first));
        std::iter::once(first)
            .chain(started.into_iter().map(|t| t.join().and_then(|r| r)))
            .collect()
    });
    results
        .into_iter()
        .map(|r| r.map_err(|payload| PoolError::WorkerPanic(panic_message(payload.as_ref()))))
        .collect()
}

/// Fan-out stats for the end-of-run manifest: chunks run so far by fan-outs
/// that started threads, and their dispatch-to-start wait quantiles.
/// (`None` quantiles = no such chunk yet.)
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
    use std::collections::HashSet;
    use std::sync::{mpsc, Mutex, MutexGuard};

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
    fn chunk_zero_runs_on_the_caller_and_the_rest_on_threads_of_their_own() {
        let _serial = exclusive();
        let caller = std::thread::current().id();
        let ids = fan_out(4, &[0u8; 4], |_, _| std::thread::current().id()).unwrap();
        assert_eq!(ids[0], caller, "chunk 0 left the calling thread");
        let others: HashSet<_> = ids[1..].iter().collect();
        assert_eq!(others.len(), 3, "chunks 1-3 shared a thread: {ids:?}");
        assert!(!others.contains(&caller), "a later chunk ran on the caller");
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
        let max = max_threads();
        assert_eq!(resolve_threads(max).unwrap(), max);
        assert_eq!(resolve_threads(max + 100).unwrap(), max);
    }

    #[test]
    fn pool_records_job_metrics() {
        let _serial = exclusive();
        let before = kgfd_obs::counter("pool.jobs").get();
        let items = [0u8; 4];
        drop(fan_out(4, &items, |start, _| start));
        // Four chunks from this thread (not inside a chunk) start threads,
        // and each chunk counts as a job before it runs.
        assert!(kgfd_obs::counter("pool.jobs").get() >= before + 4);
    }
}
