//! Bench for the **persistent worker pool**: spawn-per-call (the legacy
//! scoped-thread cost model — a fresh OS thread per job) vs the
//! process-wide pool, across the three parallel hot paths at threads
//! {1, 2, 4, 8}:
//!
//! * **train** — small-batch training, the dispatch-heaviest shape: every
//!   mini-batch fans its shards out to workers, so per-call spawn cost is
//!   paid hundreds of times per epoch;
//! * **rank** — the batched ranking engine over a discovery-shaped
//!   workload;
//! * **discover** — the per-relation discovery fan-out.
//!
//! Results are bit-identical in both modes (the determinism suite holds
//! them to that); this bench measures only the scheduling cost. Besides
//! the Criterion group, a real `cargo bench` run writes `BENCH_pool.json`
//! at the repo root and asserts the pool beats spawn-per-call on
//! small-batch training.

use criterion::{criterion_group, criterion_main, Criterion};
use fact_discovery::{discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_embed::{train, ModelKind, TrainConfig};
use kgfd_eval::rank_all;
use kgfd_kg::Triple;
use kgfd_pool::{with_exec_mode, ExecMode};
use std::hint::black_box;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One timed phase body, borrowing the shared fixture.
type PhaseRunner<'a> = Box<dyn FnMut() + 'a>;

/// Mesh-grid candidates (dedup ratio ~`side`), the discovery ranking shape.
fn dup_heavy_workload(num_entities: usize, side: u32) -> Vec<Triple> {
    let n = num_entities as u32;
    (0..side)
        .flat_map(|i| (0..side).map(move |j| Triple::new(i % n, 0, (side + j) % n)))
        .collect()
}

/// Best-of-3 wall time of `f`, after one warmup call.
fn best_of_3<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench(c: &mut Criterion) {
    // Size the pool before its first use: the bench compares thread counts
    // up to 8 regardless of the host's core count (on fewer cores the
    // timings measure scheduling cost, which is exactly the subject here).
    std::env::set_var("KGFD_POOL_SIZE", "8");
    kgfd_bench::banner("pool — spawn-per-call vs persistent worker pool");
    let (data, model) = kgfd_bench::fb_mini_transe();
    let known = data.known_triples();
    let workload = dup_heavy_workload(data.train.num_entities(), 24);

    // Small batches on purpose: one shard fan-out per mini-batch makes
    // training the dispatch-heaviest phase, where spawn cost dominates.
    let train_config = |threads: usize| TrainConfig {
        dim: 16,
        epochs: 1,
        batch_size: 32,
        seed: 11,
        threads,
        ..TrainConfig::default()
    };
    let discover_config = |threads: usize| DiscoveryConfig {
        strategy: StrategyKind::EntityFrequency,
        top_n: 20,
        max_candidates: 40,
        seed: 11,
        threads,
        ..DiscoveryConfig::default()
    };

    let mut rows = Vec::new();
    let mut train_speedup_at_max = 0.0f64;
    println!(
        "  {:<10} {:>7}  {:>11}  {:>11}  {:>7}",
        "phase", "threads", "spawn", "pool", "speedup"
    );
    for threads in THREAD_COUNTS {
        let phases: [(&str, PhaseRunner); 3] = [
            (
                "train",
                Box::new(|| {
                    black_box(train(
                        ModelKind::TransE,
                        &data.train,
                        &train_config(threads),
                    ));
                }),
            ),
            (
                "rank",
                Box::new(|| {
                    black_box(rank_all(model.as_ref(), &workload, Some(&known), threads));
                }),
            ),
            (
                "discover",
                Box::new(|| {
                    black_box(discover_facts(
                        model.as_ref(),
                        &data.train,
                        &discover_config(threads),
                    ));
                }),
            ),
        ];
        for (phase, mut run) in phases {
            let spawn_s = with_exec_mode(ExecMode::SpawnPerCall, || best_of_3(&mut run));
            let pool_s = with_exec_mode(ExecMode::Persistent, || best_of_3(&mut run));
            let speedup = spawn_s / pool_s;
            if phase == "train" && threads == *THREAD_COUNTS.last().unwrap() {
                train_speedup_at_max = speedup;
            }
            println!(
                "  {phase:<10} {threads:>7}  {:>9.2}ms  {:>9.2}ms  {speedup:>6.2}x",
                spawn_s * 1e3,
                pool_s * 1e3
            );
            rows.push(format!(
                concat!(
                    "    {{\"phase\": \"{}\", \"threads\": {}, \"spawn_s\": {:.6}, ",
                    "\"pool_s\": {:.6}, \"speedup\": {:.3}}}"
                ),
                phase, threads, spawn_s, pool_s, speedup
            ));
        }
    }

    // `cargo test` runs bench bodies once with `--test`; only a real bench
    // run is the measurement of record (and rewrites the checked-in file).
    if !std::env::args().any(|a| a == "--test") {
        assert!(
            train_speedup_at_max >= 1.0,
            "persistent pool lost to spawn-per-call on small-batch training \
             at {} threads ({train_speedup_at_max:.3}x)",
            THREAD_COUNTS.last().unwrap()
        );
        let json = format!(
            "{{\n  \"bench\": \"pool\",\n  \"pool_size\": 8,\n  \"model\": \"transe\",\n  \"entities\": {},\n  \"phases\": [\n{}\n  ]\n}}\n",
            data.train.num_entities(),
            rows.join(",\n")
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pool.json");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("  (could not write BENCH_pool.json: {e})");
        } else {
            println!("  wrote {path}");
        }
    }

    let mut group = c.benchmark_group("pool");
    group.sample_size(10);
    for mode in [ExecMode::SpawnPerCall, ExecMode::Persistent] {
        let label = match mode {
            ExecMode::SpawnPerCall => "spawn_per_call",
            ExecMode::Persistent => "persistent",
        };
        group.bench_function(format!("train_small_batch_{label}"), |b| {
            b.iter(|| {
                with_exec_mode(mode, || {
                    black_box(train(ModelKind::TransE, &data.train, &train_config(4)))
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
