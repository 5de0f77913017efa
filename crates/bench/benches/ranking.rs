//! Bench for the **batched, query-deduplicated ranking engine**: batched
//! (`rank_all`, i.e. `BatchRanker`) vs scalar (`rank_triple` on each triple
//! with one `RankScratch`) on two workload shapes —
//!
//! * **dup-heavy** (discovery-shaped): candidates from a mesh grid, so a
//!   handful of distinct `(s, r)` / `(r, o)` side queries cover hundreds of
//!   triples. This is where deduplication pays.
//! * **unique** (eval-shaped): every triple carries fresh side queries; the
//!   engine must not regress here.
//!
//! Besides the Criterion groups, the run writes `BENCH_ranking.json` at the
//! repo root with measured throughputs and speedups (skipped under
//! `cargo test`, which runs bench bodies once in test mode).

use criterion::{criterion_group, criterion_main, Criterion};
use kgfd_embed::KgeModel;
use kgfd_eval::{rank_all, rank_triple, BatchRanker, RankScratch, TripleRanks};
use kgfd_kg::{KnownTriples, Triple};
use std::hint::black_box;
use std::time::Instant;

/// Mesh-grid candidates: `side × side` triples over one relation, sharing
/// only `2 × side` distinct side queries (dedup ratio `side`).
fn dup_heavy_workload(num_entities: usize, side: u32) -> Vec<Triple> {
    let n = num_entities as u32;
    (0..side)
        .flat_map(|i| (0..side).map(move |j| Triple::new(i % n, 0, (side + j) % n)))
        .collect()
}

/// Eval-shaped candidates: subject/object pairs chosen so no `(s, r)` or
/// `(r, o)` query repeats.
fn unique_workload(num_entities: usize, count: usize) -> Vec<Triple> {
    let n = num_entities as u32;
    (0..count as u32)
        .map(|i| Triple::new(i % n, i / n, (i.wrapping_mul(31).wrapping_add(7)) % n))
        .collect()
}

/// The scalar baseline: two full entity sweeps per triple, no work sharing,
/// one thread.
fn rank_scalar(model: &dyn KgeModel, triples: &[Triple], known: &KnownTriples) -> Vec<TripleRanks> {
    let mut scratch = RankScratch::new(model.num_entities());
    triples
        .iter()
        .map(|&t| rank_triple(model, t, Some(known), &mut scratch))
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
    kgfd_bench::banner("ranking — batched vs scalar ranking engine");
    let (data, model) = kgfd_bench::fb_mini_transe();
    let known = data.known_triples();
    let n = data.train.num_entities();

    let dup_heavy = dup_heavy_workload(n, 24); // 576 triples, 48 distinct queries
    let unique = unique_workload(n, 256);

    let mut results = Vec::new();
    let mut unique_speedup = f64::INFINITY;
    for (name, triples) in [("dup_heavy", &dup_heavy), ("unique", &unique)] {
        let scalar_s = best_of_3(|| rank_scalar(model.as_ref(), triples, &known));
        let batched_s = best_of_3(|| rank_all(model.as_ref(), triples, Some(&known), 1));
        let (_, stats) =
            BatchRanker::new(model.as_ref(), 1).rank_all_with_stats(triples, Some(&known));
        let speedup = scalar_s / batched_s;
        if name == "unique" {
            unique_speedup = speedup;
        }
        println!(
            "  {:<10} {:>5} triples  dedup {:>5.1}x  scalar {:>8.1}/s  batched {:>8.1}/s  speedup {:>5.2}x",
            name,
            triples.len(),
            stats.dedup_ratio(),
            triples.len() as f64 / scalar_s,
            triples.len() as f64 / batched_s,
            speedup
        );
        results.push(format!(
            concat!(
                "    {{\"workload\": \"{}\", \"triples\": {}, \"dedup_ratio\": {:.3}, ",
                "\"scalar_triples_per_sec\": {:.1}, \"batched_triples_per_sec\": {:.1}, ",
                "\"speedup\": {:.3}}}"
            ),
            name,
            triples.len(),
            stats.dedup_ratio(),
            triples.len() as f64 / scalar_s,
            triples.len() as f64 / batched_s,
            speedup
        ));
    }

    // Tracing overhead on the dup-heavy workload: the same batched ranking
    // with the span collector recording kernel-tile spans vs disabled. No
    // export runs — this isolates the per-span record cost.
    kgfd_obs::disable_tracing();
    let untraced_s = best_of_3(|| rank_all(model.as_ref(), &dup_heavy, Some(&known), 1));
    kgfd_obs::enable_tracing();
    let traced_s = best_of_3(|| rank_all(model.as_ref(), &dup_heavy, Some(&known), 1));
    let spans_per_run = kgfd_obs::collector().drain().len() / 4; // warmup + 3 timed
    kgfd_obs::disable_tracing();
    let overhead_pct = (traced_s / untraced_s - 1.0) * 100.0;
    println!(
        "  tracing    dup_heavy  {spans_per_run:>3} spans/run  off {:>8.1}/s  on {:>8.1}/s  overhead {:>5.2}%",
        dup_heavy.len() as f64 / untraced_s,
        dup_heavy.len() as f64 / traced_s,
        overhead_pct
    );

    // `cargo test` runs bench bodies once with `--test`; only a real
    // `cargo bench` run should (re)write the checked-in measurement file.
    // The overhead gate lives behind the same guard: test-mode timings on
    // loaded CI boxes are noise, the bench run is the measurement of record.
    if !std::env::args().any(|a| a == "--test") {
        assert!(
            overhead_pct < 5.0,
            "tracing overhead {overhead_pct:.2}% exceeds the 5% budget \
             (off {untraced_s:.6}s vs on {traced_s:.6}s)"
        );
        // The unique (eval-shaped) workload takes the no-grouping bypass;
        // the batched engine must at least match the scalar path there.
        assert!(
            unique_speedup >= 1.0,
            "batched engine regressed on the unique workload \
             ({unique_speedup:.3}x vs scalar)"
        );
        let json = format!(
            "{{\n  \"bench\": \"ranking\",\n  \"model\": \"transe\",\n  \"entities\": {},\n  \"threads\": 1,\n  \"workloads\": [\n{}\n  ],\n  \"tracing_overhead\": {{\"workload\": \"dup_heavy\", \"spans_per_run\": {}, \"off_triples_per_sec\": {:.1}, \"on_triples_per_sec\": {:.1}, \"overhead_pct\": {:.3}}}\n}}\n",
            n,
            results.join(",\n"),
            spans_per_run,
            dup_heavy.len() as f64 / untraced_s,
            dup_heavy.len() as f64 / traced_s,
            overhead_pct
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ranking.json");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("  (could not write BENCH_ranking.json: {e})");
        } else {
            println!("  wrote {path}");
        }
    }

    let mut group = c.benchmark_group("ranking_engine");
    group.sample_size(10);
    for (name, triples) in [("dup_heavy", &dup_heavy), ("unique", &unique)] {
        group.bench_function(format!("scalar_{name}"), |b| {
            b.iter(|| black_box(rank_scalar(model.as_ref(), triples, &known)))
        });
        group.bench_function(format!("batched_{name}"), |b| {
            b.iter(|| black_box(rank_all(model.as_ref(), triples, Some(&known), 1)))
        });
    }
    group.finish();

    // Cheap sanity pass (also exercised in test mode): the two engines must
    // agree on both workloads.
    for triples in [&dup_heavy, &unique] {
        assert_eq!(
            rank_all(model.as_ref(), triples, Some(&known), 1),
            rank_scalar(model.as_ref(), triples, &known),
            "batched and scalar engines diverged"
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
