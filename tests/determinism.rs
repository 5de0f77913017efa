//! Whole-pipeline determinism: a fixed seed must yield bit-identical
//! datasets, models, evaluation metrics, and discovered facts — across
//! in-memory reruns, across model save/load, and across thread counts,
//! where `threads = 1` (serial, never touching the worker pool) is the
//! reference for 4 and 8 pooled threads.

use fact_discovery::{discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_datasets::{fb15k237_like, generate, mini, wn18rr_like};
use kgfd_embed::{load_model, save_model, train, ModelKind, TrainConfig};
use kgfd_eval::evaluate_ranking;
use kgfd_kg::NodeMeasure;

fn pipeline_facts(seed: u64) -> Vec<(u32, u32, u32, f64)> {
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let (model, _) = train(
        ModelKind::DistMult,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 10,
            seed,
            ..TrainConfig::default()
        },
    );
    let report = discover_facts(
        model.as_ref(),
        &data.train,
        &DiscoveryConfig {
            strategy: StrategyKind::GraphDegree,
            top_n: 20,
            max_candidates: 40,
            seed,
            threads: 4,
            ..DiscoveryConfig::default()
        },
    );
    report
        .facts
        .iter()
        .map(|f| {
            (
                f.triple.subject.0,
                f.triple.relation.0,
                f.triple.object.0,
                f.rank,
            )
        })
        .collect()
}

#[test]
fn identical_seeds_give_identical_discoveries() {
    assert_eq!(pipeline_facts(11), pipeline_facts(11));
}

#[test]
fn different_seeds_give_different_discoveries() {
    assert_ne!(pipeline_facts(11), pipeline_facts(12));
}

#[test]
fn persistence_preserves_evaluation_and_discovery() {
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let (model, _) = train(
        ModelKind::ComplEx,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 8,
            seed: 2,
            ..TrainConfig::default()
        },
    );
    let reloaded = load_model(&save_model(model.as_ref())).unwrap();

    let known = data.known_triples();
    let a = evaluate_ranking(model.as_ref(), &data.test, Some(&known), 2);
    let b = evaluate_ranking(reloaded.as_ref(), &data.test, Some(&known), 2);
    assert_eq!(a.mrr, b.mrr);
    assert_eq!(a.hits10, b.hits10);

    let cfg = DiscoveryConfig {
        strategy: StrategyKind::EntityFrequency,
        top_n: 20,
        max_candidates: 40,
        seed: 9,
        ..DiscoveryConfig::default()
    };
    let ra = discover_facts(model.as_ref(), &data.train, &cfg);
    let rb = discover_facts(reloaded.as_ref(), &data.train, &cfg);
    assert_eq!(ra.facts, rb.facts);
}

/// Trains one model with the given thread count, returning every parameter
/// table plus the per-epoch losses — the full observable state of training.
fn train_state(kind: ModelKind, threads: usize) -> (Vec<Vec<f32>>, Vec<f64>) {
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let (model, stats) = train(
        kind,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 8,
            batch_size: 64,
            seed: 21,
            threads,
            ..TrainConfig::default()
        },
    );
    let tables = (0..model.params().num_tables())
        .map(|t| model.params().table(t).data().to_vec())
        .collect();
    (tables, stats.epoch_losses)
}

/// The differential contract of the parallel trainer: for a fixed seed,
/// `threads = 1` and `threads = 4` must produce bit-identical embedding
/// tensors and epoch losses — not approximately equal, *equal*.
#[test]
fn transe_training_is_thread_count_invariant() {
    assert_eq!(
        train_state(ModelKind::TransE, 1),
        train_state(ModelKind::TransE, 4)
    );
}

#[test]
fn complex_training_is_thread_count_invariant() {
    assert_eq!(
        train_state(ModelKind::ComplEx, 1),
        train_state(ModelKind::ComplEx, 4)
    );
}

#[test]
fn rescal_training_is_thread_count_invariant() {
    assert_eq!(
        train_state(ModelKind::Rescal, 1),
        train_state(ModelKind::Rescal, 4)
    );
}

/// Cross-run repeatability end to end: the same seed run twice — through
/// parallel training *and* parallel discovery — yields the same
/// `DiscoveryReport` facts.
#[test]
fn parallel_pipeline_is_repeatable_across_runs() {
    let run = || {
        let data = generate(&mini(&wn18rr_like())).unwrap();
        let (model, _) = train(
            ModelKind::ComplEx,
            &data.train,
            &TrainConfig {
                dim: 16,
                epochs: 8,
                seed: 13,
                threads: 4,
                ..TrainConfig::default()
            },
        );
        discover_facts(
            model.as_ref(),
            &data.train,
            &DiscoveryConfig {
                strategy: StrategyKind::EntityFrequency,
                top_n: 20,
                max_candidates: 40,
                seed: 13,
                threads: 4,
                ..DiscoveryConfig::default()
            },
        )
        .facts
    };
    assert_eq!(run(), run());
}

#[test]
fn thread_count_does_not_change_results() {
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let (model, _) = train(
        ModelKind::TransE,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 8,
            seed: 4,
            ..TrainConfig::default()
        },
    );
    let run = |threads: usize| {
        discover_facts(
            model.as_ref(),
            &data.train,
            &DiscoveryConfig {
                strategy: StrategyKind::ClusteringTriangles,
                top_n: 20,
                max_candidates: 40,
                seed: 3,
                threads,
                ..DiscoveryConfig::default()
            },
        )
        .facts
    };
    assert_eq!(run(1), run(8));
}

/// Square clustering is the one measure table whose build spreads over the
/// discovery thread budget: its nodes are split into ranges of equal
/// estimated work, one pool job each. On standard FB the hubs sit at low
/// ids, so the ranges differ widely in length. The table's bits and the
/// facts must match the serial build at 4 and 8 threads. Each thread count
/// gets a freshly generated store: a second lookup on one store would reuse
/// the first run's table instead of building it.
#[test]
fn square_clustering_build_is_thread_count_invariant() {
    let (model, _) = train(
        ModelKind::TransE,
        &generate(&fb15k237_like()).unwrap().train,
        &TrainConfig {
            dim: 16,
            epochs: 1,
            seed: 5,
            ..TrainConfig::default()
        },
    );
    let run = |threads: usize| {
        let data = generate(&fb15k237_like()).unwrap();
        let facts = discover_facts(
            model.as_ref(),
            &data.train,
            &DiscoveryConfig {
                strategy: StrategyKind::ClusteringSquares,
                top_n: 50,
                max_candidates: 100,
                seed: 5,
                threads,
                ..DiscoveryConfig::default()
            },
        )
        .facts;
        let table: Vec<u64> = data
            .train
            .built_node_measure(NodeMeasure::SquareClustering)
            .expect("the discovery run built the table")
            .iter()
            .map(|c| c.to_bits())
            .collect();
        (table, facts)
    };
    let serial = run(1);
    assert!(!serial.1.is_empty(), "the serial run discovered no facts");
    for threads in [4usize, 8] {
        assert!(
            serial == run(threads),
            "square clustering diverges between 1 and {threads} threads"
        );
    }
}

/// The differential contract of the parallel discovery loop: with the outer
/// per-relation fan-out at `threads = 1` vs `= 4`, the *entire* report —
/// facts, per-relation candidate/fact/pruned/iteration counts, relation
/// order — must match, not just the fact list. (Durations are the only
/// fields allowed to differ.)
#[test]
fn discovery_report_is_thread_count_invariant() {
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let (model, _) = train(
        ModelKind::DistMult,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 8,
            seed: 17,
            ..TrainConfig::default()
        },
    );
    let run = |threads: usize| {
        discover_facts(
            model.as_ref(),
            &data.train,
            &DiscoveryConfig {
                strategy: StrategyKind::EntityFrequency,
                top_n: 20,
                max_candidates: 40,
                seed: 17,
                threads,
                ..DiscoveryConfig::default()
            },
        )
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.facts, four.facts);
    assert_eq!(one.per_relation.len(), four.per_relation.len());
    for (a, b) in one.per_relation.iter().zip(&four.per_relation) {
        assert_eq!(a.relation, b.relation);
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.facts, b.facts);
        assert_eq!(a.pruned, b.pruned);
        assert_eq!(a.iterations, b.iterations);
    }
}

/// Everything observable about a full pipeline run at one thread count:
/// embedding tables (as bits), evaluation ranks, and discovered facts.
fn pipeline_state(
    kind: ModelKind,
    threads: usize,
) -> (
    Vec<Vec<u32>>,
    Vec<kgfd_eval::TripleRanks>,
    Vec<fact_discovery::DiscoveredFact>,
) {
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let (model, _) = train(
        kind,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 4,
            batch_size: 64,
            seed: 33,
            threads,
            ..TrainConfig::default()
        },
    );
    let tables = (0..model.params().num_tables())
        .map(|t| {
            model
                .params()
                .table(t)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    let known = data.known_triples();
    let ranks = kgfd_eval::rank_all(model.as_ref(), &data.test, Some(&known), threads);
    let facts = discover_facts(
        model.as_ref(),
        &data.train,
        &DiscoveryConfig {
            strategy: StrategyKind::EntityFrequency,
            top_n: 20,
            max_candidates: 40,
            seed: 33,
            threads,
            ..DiscoveryConfig::default()
        },
    )
    .facts;
    (tables, ranks, facts)
}

/// The pool's differential contract: for each model kind, the serial run
/// (`threads = 1`: trainer, ranker and discovery all run inline) must be
/// reproduced bit for bit by the pooled runs at 4 and 8 threads —
/// embeddings, evaluation ranks, and discovered facts.
fn assert_pipeline_is_thread_invariant(kind: ModelKind) {
    let serial = pipeline_state(kind, 1);
    for threads in [4usize, 8] {
        assert_eq!(
            serial,
            pipeline_state(kind, threads),
            "{kind:?} diverges between 1 and {threads} threads"
        );
    }
}

#[test]
fn pipeline_is_thread_invariant_transe() {
    assert_pipeline_is_thread_invariant(ModelKind::TransE);
}

#[test]
fn pipeline_is_thread_invariant_complex() {
    assert_pipeline_is_thread_invariant(ModelKind::ComplEx);
}

#[test]
fn pipeline_is_thread_invariant_rescal() {
    assert_pipeline_is_thread_invariant(ModelKind::Rescal);
}
