//! Cross-crate consistency: quantities computed independently in different
//! crates must agree (the report's MRR vs the metrics crate; discovery's
//! ranks vs the evaluation protocol; CLI strategy naming vs core).

use fact_discovery::{discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_datasets::toy_biomedical;
use kgfd_embed::{train, ModelKind, TrainConfig};
use kgfd_eval::{mrr, rank_all, RankScratch};
use kgfd_kg::KnownTriples;

fn trained() -> (kgfd_kg::Dataset, Box<dyn kgfd_embed::KgeModel>) {
    let data = toy_biomedical();
    let (model, _) = train(
        ModelKind::ComplEx,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 25,
            seed: 8,
            ..TrainConfig::default()
        },
    );
    (data, model)
}

#[test]
fn report_mrr_agrees_with_metrics_crate() {
    let (data, model) = trained();
    let report = discover_facts(
        model.as_ref(),
        &data.train,
        &DiscoveryConfig {
            strategy: StrategyKind::GraphDegree,
            top_n: 10,
            max_candidates: 40,
            seed: 2,
            ..DiscoveryConfig::default()
        },
    );
    let via_metrics = mrr(&report.ranks());
    assert!((report.mrr() - via_metrics).abs() < 1e-12);
}

#[test]
fn discovery_ranks_match_the_evaluation_protocol() {
    // The rank the discovery algorithm assigned to each fact must equal the
    // rank the evaluation protocol computes for the same triple under the
    // same filter (the training graph).
    let (data, model) = trained();
    let report = discover_facts(
        model.as_ref(),
        &data.train,
        &DiscoveryConfig {
            strategy: StrategyKind::EntityFrequency,
            top_n: 12,
            max_candidates: 40,
            seed: 3,
            ..DiscoveryConfig::default()
        },
    );
    let known = KnownTriples::from_slices([data.train.triples()]);
    let triples: Vec<_> = report.facts.iter().map(|f| f.triple).collect();
    let protocol_ranks = rank_all(model.as_ref(), &triples, Some(&known), 2);
    for (fact, ranks) in report.facts.iter().zip(&protocol_ranks) {
        assert!(
            (fact.rank - ranks.mean()).abs() < 1e-9,
            "discovery rank {} vs protocol rank {}",
            fact.rank,
            ranks.mean()
        );
    }
}

#[test]
fn scratch_reuse_does_not_leak_state() {
    // Ranking different triples through one scratch buffer must give the
    // same results as fresh buffers.
    let (data, model) = trained();
    let known = data.known_triples();
    let mut shared = RankScratch::new(data.train.num_entities());
    for &t in data.train.triples().iter().take(10) {
        let with_shared = kgfd_eval::rank_triple(model.as_ref(), t, Some(&known), &mut shared);
        let mut fresh = RankScratch::new(data.train.num_entities());
        let with_fresh = kgfd_eval::rank_triple(model.as_ref(), t, Some(&known), &mut fresh);
        assert_eq!(with_shared, with_fresh);
    }
}

#[test]
fn strategy_and_model_names_are_unique_and_stable() {
    // CLI parsing, persistence tags, and report labels all rely on these.
    let mut names = std::collections::HashSet::new();
    for s in StrategyKind::ALL {
        assert!(names.insert(s.abbrev()), "duplicate abbrev {}", s.abbrev());
        assert!(!s.name().is_empty());
    }
    let mut model_names = std::collections::HashSet::new();
    for m in ModelKind::ALL {
        assert!(model_names.insert(m.name()), "duplicate name {}", m.name());
        assert_eq!(ModelKind::from_name(m.name()), Some(m));
    }
}
