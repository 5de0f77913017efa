//! Differential conformance suite for the streaming discovery engine: the
//! chunked, bounded-memory path behind [`discover_facts`] must be
//! **bit-identical** to the materialized oracle
//! ([`discover_facts_materialized`]) — same facts, same ranks, same
//! per-relation bookkeeping — across every sampling strategy, several model
//! families, thread counts, and any chunk size. CI runs this suite under
//! `KGFD_THREADS=1` and `KGFD_THREADS=4`.
//!
//! The `#[ignore]`d bounded-memory test asserts the engine's working-set
//! contract (peak candidate buffer ≤ `chunk_size + top_k`) against the
//! process-global `discover.stream.peak_buffer` gauge; CI runs it in its own
//! process (`cargo test ... -- --ignored`) so unrelated concurrent discovery
//! runs cannot inflate the gauge.

use fact_discovery::{discover_facts, discover_facts_materialized, DiscoveryConfig, StrategyKind};
use kgfd_datasets::{generate, mini, toy_biomedical, wn18rr_like};
use kgfd_embed::{train, KgeModel, ModelKind, TrainConfig};

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

/// Facts (triples AND ranks) and per-relation bookkeeping must agree
/// exactly between the two engines.
fn assert_conformance(
    model: &dyn KgeModel,
    store: &kgfd_kg::TripleStore,
    config: &DiscoveryConfig,
    context: &str,
) {
    let streamed = discover_facts(model, store, config);
    let oracle = discover_facts_materialized(model, store, config);
    assert_eq!(streamed.facts, oracle.facts, "{context}: facts diverged");
    assert_eq!(
        streamed.per_relation.len(),
        oracle.per_relation.len(),
        "{context}: relation row count diverged"
    );
    for (s, m) in streamed.per_relation.iter().zip(&oracle.per_relation) {
        assert_eq!(s.relation, m.relation, "{context}");
        assert_eq!(s.candidates, m.candidates, "{context}: r{}", s.relation.0);
        assert_eq!(s.facts, m.facts, "{context}: r{}", s.relation.0);
        assert_eq!(s.pruned, m.pruned, "{context}: r{}", s.relation.0);
        assert_eq!(s.iterations, m.iterations, "{context}: r{}", s.relation.0);
    }
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
fn streaming_conforms_with_pruning_consolidation_and_exploration() {
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

        let mut cfg = base_config(StrategyKind::ClusteringTriangles, threads);
        cfg.exploration_epsilon = 0.3;
        assert_conformance(
            model.as_ref(),
            &data.train,
            &cfg,
            &format!("exploration/threads={threads}"),
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
fn report_duration_schema_is_identical_between_engines() {
    // Downstream consumers (harness aggregation, JSONL sinks) parse the
    // serialized report; the streaming engine must not add, drop, or rename
    // fields relative to the oracle — including the durations.
    let (data, model) = trained_toy(ModelKind::ComplEx);
    let cfg = base_config(StrategyKind::EntityFrequency, 1);
    let streamed = discover_facts(model.as_ref(), &data.train, &cfg);
    let oracle = discover_facts_materialized(model.as_ref(), &data.train, &cfg);

    let s_json = serde_json::to_value(&streamed);
    let m_json = serde_json::to_value(&oracle);
    let keys = |v: &serde_json::Value| -> Vec<String> {
        v.as_object()
            .expect("report serializes to an object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    assert_eq!(keys(&s_json), keys(&m_json), "top-level schema diverged");
    assert_eq!(
        keys(&s_json["per_relation"][0]),
        keys(&m_json["per_relation"][0]),
        "per-relation schema diverged"
    );
    assert_eq!(
        keys(&s_json["facts"][0]),
        keys(&m_json["facts"][0]),
        "fact schema diverged"
    );

    // Sequential run: preparation and the per-relation busy times lie end
    // to end inside the wall clock.
    let busy: std::time::Duration = streamed
        .per_relation
        .iter()
        .map(|r| r.generation + r.evaluation)
        .sum();
    assert!(
        streamed.preparation + busy <= streamed.total,
        "streamed phase durations exceed the wall clock"
    );
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
