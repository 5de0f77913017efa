//! Differential conformance suite for the streaming discovery engine: the
//! chunked, bounded-memory path behind [`discover_facts`] must be
//! **bit-identical** to the materialized oracle defined here
//! ([`discover_facts_materialized`]) — same facts, same ranks, same
//! per-relation bookkeeping — across every sampling strategy, several model
//! families, thread counts, and any chunk size. CI runs this suite under
//! `KGFD_THREADS=1`, `4` and `8`.
//!
//! The `#[ignore]`d bounded-memory test asserts the engine's working-set
//! contract (peak candidate buffer ≤ `chunk_size + top_k`) against the
//! process-global `discover.stream.peak_buffer` gauge; CI runs it in its own
//! process (`cargo test ... -- --ignored`) so unrelated concurrent discovery
//! runs cannot inflate the gauge.

use fact_discovery::{
    compute_weights, discover_facts, AliasSampler, CandidateRules, DiscoveredFact, DiscoveryConfig,
    Measures, StrategyKind, MAX_ITERATIONS,
};
use kgfd_datasets::{generate, mini, toy_biomedical, wn18rr_like};
use kgfd_embed::{train, KgeModel, ModelKind, TrainConfig};
use kgfd_eval::{rank_triple, RankScratch};
use kgfd_kg::{EntityId, KnownTriples, RelationId, Side, SideIndex, Triple, TripleStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Outer-loop thread count the matrix runs at, besides 1. CI pins this via
/// KGFD_THREADS; locally it defaults to 4.
fn env_threads() -> usize {
    std::env::var("KGFD_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
}

fn trained_toy(kind: ModelKind) -> (kgfd_kg::Dataset, Box<dyn KgeModel>) {
    let data = toy_biomedical();
    let (model, _) = train(
        kind,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 30,
            seed: 5,
            ..TrainConfig::default()
        },
    );
    (data, model)
}

fn base_config(strategy: StrategyKind, threads: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        strategy,
        top_n: 8,
        max_candidates: 30,
        seed: 1,
        threads,
        ..DiscoveryConfig::default()
    }
}

/// The oracle's bookkeeping for one relation: the counting columns of
/// `RelationBreakdown`, without its timings.
#[derive(Debug, PartialEq)]
struct OracleRow {
    relation: RelationId,
    candidates: usize,
    facts: usize,
    pruned: usize,
    iterations: usize,
}

/// Algorithm 1 transcribed sequentially over the public API, the reference
/// the streaming engine is checked against. Per relation: draw
/// `⌊√max_candidates⌋ + 10` entities per side, walk the mesh grid
/// subject-major while dropping known, duplicate and rule-pruned triples,
/// and repeat (at most [`MAX_ITERATIONS`] times) until `max_candidates`
/// candidates exist; then rank every candidate and keep those within
/// `top_n`. It shares only the measure tables, the strategy weights, the
/// alias sampler and the pruning rules with the engine; it ranks with the
/// scalar `rank_triple` instead of the batched ranker, uses no pool, no
/// measure cache, no `CandidateStream` and no top-k heap, and ignores
/// `chunk_size`, `top_k`, `threads` and `deadline`.
fn discover_facts_materialized(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
) -> (Vec<DiscoveredFact>, Vec<OracleRow>) {
    let measures = Measures::compute(config.strategy, store);
    let known = KnownTriples::from_slices([store.triples()]);
    let rules = config
        .prune_with_rules
        .then(|| CandidateRules::learn(store, 5));
    let consolidated = config.consolidate_sides.then(|| {
        (
            global_side_index(store, Side::Subject),
            global_side_index(store, Side::Object),
        )
    });
    let sample_size = (config.max_candidates as f64).sqrt() as usize + 10;
    let mut scratch = RankScratch::new(model.num_entities());
    let mut facts = Vec::new();
    let mut rows = Vec::new();
    let relations = config
        .relations
        .clone()
        .unwrap_or_else(|| store.used_relations());
    for r in relations {
        let mut row = OracleRow {
            relation: r,
            candidates: 0,
            facts: 0,
            pruned: 0,
            iterations: 0,
        };
        let (subject_pool, object_pool) = match &consolidated {
            Some((s_pool, o_pool)) => (s_pool, o_pool),
            None => (store.subject_index(r), store.object_index(r)),
        };
        if subject_pool.is_empty() || object_pool.is_empty() {
            rows.push(row);
            continue;
        }
        let s_weights = compute_weights(config.strategy, &measures, subject_pool);
        let o_weights = compute_weights(config.strategy, &measures, object_pool);
        let s_sampler = AliasSampler::new(&s_weights);
        let o_sampler = AliasSampler::new(&o_weights);
        let mut rng = StdRng::seed_from_u64(
            config
                .seed
                .wrapping_add((r.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );

        // Lines 4–13: sample, mesh-grid, filter seen, append.
        let mut candidates: Vec<Triple> = Vec::new();
        let mut seen = HashSet::new();
        while candidates.len() < config.max_candidates && row.iterations < MAX_ITERATIONS {
            row.iterations += 1;
            let s_samples: Vec<EntityId> = (0..sample_size)
                .map(|_| subject_pool.entities[s_sampler.sample(&mut rng)])
                .collect();
            let o_samples: Vec<EntityId> = (0..sample_size)
                .map(|_| object_pool.entities[o_sampler.sample(&mut rng)])
                .collect();
            'grid: for &s in &s_samples {
                for &o in &o_samples {
                    let t = Triple {
                        subject: s,
                        relation: r,
                        object: o,
                    };
                    if store.contains(&t) || !seen.insert(t) {
                        continue;
                    }
                    if let Some(rules) = &rules {
                        if !rules.admits(store, &t) {
                            row.pruned += 1;
                            continue;
                        }
                    }
                    candidates.push(t);
                    if candidates.len() >= config.max_candidates {
                        break 'grid;
                    }
                }
            }
        }
        row.candidates = candidates.len();

        // Lines 14–15: rank candidates, keep those within top_n.
        for t in candidates {
            let rank = rank_triple(model, t, Some(&known), &mut scratch).mean();
            if rank > config.top_n as f64 {
                continue;
            }
            facts.push(DiscoveredFact { triple: t, rank });
            row.facts += 1;
        }
        rows.push(row);
    }
    (facts, rows)
}

/// Graph-global side pool: every entity occurring on `side` of any triple,
/// with its global occurrence count.
fn global_side_index(store: &TripleStore, side: Side) -> SideIndex {
    let counts = store.global_side_counts(side);
    let mut index = SideIndex::default();
    for (e, &c) in counts.iter().enumerate() {
        if c > 0 {
            index.entities.push(EntityId(e as u32));
            index.counts.push(c);
        }
    }
    index
}

/// Facts (triples AND ranks) and per-relation bookkeeping must agree
/// exactly between the engine and the oracle.
fn assert_conformance(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
    context: &str,
) {
    let streamed = discover_facts(model, store, config);
    let (oracle_facts, oracle_rows) = discover_facts_materialized(model, store, config);
    assert_eq!(streamed.facts, oracle_facts, "{context}: facts diverged");
    let streamed_rows: Vec<OracleRow> = streamed
        .per_relation
        .iter()
        .map(|b| OracleRow {
            relation: b.relation,
            candidates: b.candidates,
            facts: b.facts,
            pruned: b.pruned,
            iterations: b.iterations,
        })
        .collect();
    assert_eq!(
        streamed_rows, oracle_rows,
        "{context}: per-relation bookkeeping diverged"
    );
}

#[test]
fn all_strategies_and_models_stream_bit_identically_to_the_oracle() {
    for kind in [ModelKind::TransE, ModelKind::DistMult, ModelKind::ComplEx] {
        let (data, model) = trained_toy(kind);
        for strategy in StrategyKind::ALL {
            for threads in [1, env_threads()] {
                assert_conformance(
                    model.as_ref(),
                    &data.train,
                    &base_config(strategy, threads),
                    &format!("{kind}/{strategy}/threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn streaming_conforms_with_pruning_and_consolidation() {
    let (data, model) = trained_toy(ModelKind::ComplEx);
    for threads in [1, env_threads()] {
        let mut cfg = base_config(StrategyKind::GraphDegree, threads);
        cfg.prune_with_rules = true;
        assert_conformance(
            model.as_ref(),
            &data.train,
            &cfg,
            &format!("pruning/threads={threads}"),
        );

        let mut cfg = base_config(StrategyKind::EntityFrequency, threads);
        cfg.consolidate_sides = true;
        assert_conformance(
            model.as_ref(),
            &data.train,
            &cfg,
            &format!("consolidated/threads={threads}"),
        );
    }
}

#[test]
fn chunk_size_is_behaviourally_invisible() {
    let (data, model) = trained_toy(ModelKind::DistMult);
    for strategy in StrategyKind::ALL {
        let baseline = discover_facts(model.as_ref(), &data.train, &base_config(strategy, 1));
        // One-at-a-time, a prime that never divides the candidate count
        // evenly, and exactly the whole candidate budget in one chunk.
        for chunk_size in [1, 7, 30] {
            let mut cfg = base_config(strategy, 1);
            cfg.chunk_size = chunk_size;
            let report = discover_facts(model.as_ref(), &data.train, &cfg);
            assert_eq!(
                report.facts, baseline.facts,
                "{strategy}: chunk_size {chunk_size} changed the output"
            );
        }
    }
}

#[test]
#[ignore = "asserts the process-global peak-buffer gauge; CI runs it isolated via -- --ignored"]
fn peak_candidate_buffer_is_bounded_by_chunk_size_plus_top_k() {
    // A larger synthetic graph so the stream actually cycles many chunks
    // per relation.
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let (model, _) = train(
        ModelKind::DistMult,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 6,
            seed: 3,
            ..TrainConfig::default()
        },
    );

    kgfd_obs::registry().reset();
    let chunk_size = 64;
    let top_k = 25;
    let cfg = DiscoveryConfig {
        strategy: StrategyKind::EntityFrequency,
        top_n: 100,
        max_candidates: 400,
        chunk_size,
        top_k: Some(top_k),
        seed: 9,
        threads: env_threads(),
        ..DiscoveryConfig::default()
    };
    let report = discover_facts(model.as_ref(), &data.train, &cfg);

    assert!(
        report.candidates_generated() > chunk_size,
        "graph too small to exercise multi-chunk streaming ({} candidates)",
        report.candidates_generated()
    );
    for rel in &report.per_relation {
        assert!(rel.facts <= top_k, "top_k violated for r{}", rel.relation.0);
    }

    let peak = kgfd_obs::gauge("discover.stream.peak_buffer").get();
    assert!(peak > 0.0, "peak-buffer gauge never set");
    assert!(
        peak <= (chunk_size + top_k) as f64,
        "peak candidate buffer {peak} exceeds chunk_size + top_k = {}",
        chunk_size + top_k
    );
    let chunks = kgfd_obs::counter("discover.stream.chunks").get();
    assert!(
        chunks > 1,
        "expected multiple streamed chunks, got {chunks}"
    );
}
