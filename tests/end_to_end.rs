//! Cross-crate integration: generator → trainer → evaluation → discovery,
//! for every model kind and every strategy.

use fact_discovery::{discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_datasets::{fb15k237_like, generate, mini, toy_biomedical};
use kgfd_embed::{train, ModelKind, TrainConfig};
use kgfd_eval::evaluate_ranking;

fn quick_train(kind: ModelKind, store: &kgfd_kg::TripleStore) -> Box<dyn kgfd_embed::KgeModel> {
    let config = TrainConfig {
        dim: 12, // ConvE needs a reshapeable dim; 12 = 3×4
        epochs: 20,
        seed: 3,
        ..TrainConfig::default()
    };
    train(kind, store, &config).0
}

#[test]
fn every_model_kind_runs_the_full_pipeline() {
    let data = toy_biomedical();
    let known = data.known_triples();
    for kind in ModelKind::ALL {
        let model = quick_train(kind, &data.train);
        // Evaluation protocol works.
        let summary = evaluate_ranking(model.as_ref(), &data.test, Some(&known), 2);
        assert!(summary.mrr > 0.0 && summary.mrr <= 1.0, "{kind}: {summary}");
        // Discovery works and its facts are well-formed.
        let report = discover_facts(
            model.as_ref(),
            &data.train,
            &DiscoveryConfig {
                strategy: StrategyKind::EntityFrequency,
                top_n: 8,
                max_candidates: 30,
                seed: 1,
                ..DiscoveryConfig::default()
            },
        );
        for fact in &report.facts {
            assert!(!data.train.contains(&fact.triple), "{kind}");
            assert!(fact.rank <= 8.0, "{kind}");
        }
    }
}

#[test]
fn every_strategy_runs_on_a_generated_dataset() {
    let data = generate(&mini(&fb15k237_like())).unwrap();
    let model = quick_train(ModelKind::DistMult, &data.train);
    for strategy in StrategyKind::ALL {
        let report = discover_facts(
            model.as_ref(),
            &data.train,
            &DiscoveryConfig {
                strategy,
                top_n: 30,
                max_candidates: 50,
                seed: 2,
                ..DiscoveryConfig::default()
            },
        );
        assert!(
            !report.facts.is_empty(),
            "{strategy} discovered nothing on a dense mini graph"
        );
        assert!(report.mrr() > 0.0 && report.mrr() <= 1.0);
        assert!(report.preparation <= report.total);
        // Per-relation accounting adds up.
        let total_facts: usize = report.per_relation.iter().map(|r| r.facts).sum();
        assert_eq!(total_facts, report.facts.len());
    }
}

#[test]
fn trained_models_outrank_untrained_ones_at_discovery() {
    // Discovery quality should visibly benefit from training — wiring all
    // the crates together must preserve the learning signal.
    let data = toy_biomedical();
    let trained = quick_train(ModelKind::ComplEx, &data.train);
    let untrained = kgfd_embed::new_model(
        ModelKind::ComplEx,
        data.train.num_entities(),
        data.train.num_relations(),
        12,
        3,
    );
    let known = data.known_triples();
    let t = evaluate_ranking(trained.as_ref(), data.train.triples(), Some(&known), 2);
    let u = evaluate_ranking(untrained.as_ref(), data.train.triples(), Some(&known), 2);
    assert!(
        t.mrr > u.mrr * 1.5,
        "training must help: trained {} vs untrained {}",
        t.mrr,
        u.mrr
    );
}

#[test]
fn discovery_report_durations_are_consistent() {
    let data = toy_biomedical();
    let model = quick_train(ModelKind::TransE, &data.train);
    for threads in [1, 4] {
        let report = discover_facts(
            model.as_ref(),
            &data.train,
            &DiscoveryConfig {
                strategy: StrategyKind::ClusteringTriangles,
                top_n: 10,
                max_candidates: 30,
                seed: 4,
                threads,
                ..DiscoveryConfig::default()
            },
        );
        assert!(report.preparation <= report.total, "threads={threads}");
        // Per-relation times are busy time: at one thread they lie end to
        // end inside the wall clock; in parallel they may overlap.
        let busy: std::time::Duration = report
            .per_relation
            .iter()
            .map(|r| r.generation + r.evaluation)
            .sum();
        assert!(threads > 1 || report.preparation + busy <= report.total);
    }
}
