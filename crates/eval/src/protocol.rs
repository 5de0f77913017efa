//! The full link-prediction evaluation protocol: rank every test triple
//! against both corruption sides, filtered, in parallel.

use crate::{RankingSummary, TripleRanks};
use kgfd_embed::KgeModel;
use kgfd_kg::{KnownTriples, Triple};

/// Evaluates `model` on `triples` (typically a test split).
///
/// `known` should cover train+valid+test for the standard filtered setting.
/// Work is split across `threads` threads by `kgfd-pool`'s fan-out;
/// results are deterministic regardless of thread count.
pub fn evaluate_ranking(
    model: &dyn KgeModel,
    triples: &[Triple],
    known: Option<&KnownTriples>,
    threads: usize,
) -> RankingSummary {
    let ranks = rank_all(model, triples, known, threads);
    let flat: Vec<f64> = ranks.iter().flat_map(|r| [r.subject, r.object]).collect();
    RankingSummary::from_ranks(&flat)
}

/// Computes both-side ranks for every triple, in input order.
///
/// Runs the batched, query-deduplicated engine ([`crate::BatchRanker`]):
/// duplicate `(s, r)` / `(r, o)` side queries are scored once and shared.
/// Ranks are identical to calling [`crate::rank_triple`] on each triple —
/// the batched kernels are bit-exact — just cheaper whenever queries repeat.
pub fn rank_all(
    model: &dyn KgeModel,
    triples: &[Triple],
    known: Option<&KnownTriples>,
    threads: usize,
) -> Vec<TripleRanks> {
    let start = std::time::Instant::now();
    let ranks = crate::BatchRanker::new(model, threads).rank_all(triples, known);
    let secs = start.elapsed().as_secs_f64();
    kgfd_obs::counter("eval.rank.triples_ranked").add(triples.len() as u64);
    if !triples.is_empty() && secs > 0.0 {
        let rate = triples.len() as f64 / secs;
        kgfd_obs::gauge("eval.rank.triples_per_sec").set(rate);
        kgfd_obs::metric(
            "eval.rank.triples_per_sec",
            rate,
            vec![kgfd_obs::Field::new("triples", triples.len())],
        );
    }
    ranks
}

/// Link-prediction metrics broken down by relation — the per-relation view
/// behind analyses like the paper's "runtime scales with the number of
/// relations" and popularity-bias discussions.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PerRelationSummary {
    /// The relation.
    pub relation: kgfd_kg::RelationId,
    /// Metrics over this relation's triples (both corruption sides).
    pub summary: RankingSummary,
}

/// Evaluates `model` per relation. Relations are reported in ascending id
/// order; relations absent from `triples` are omitted.
pub fn evaluate_per_relation(
    model: &dyn KgeModel,
    triples: &[Triple],
    known: Option<&KnownTriples>,
    threads: usize,
) -> Vec<PerRelationSummary> {
    let ranks = rank_all(model, triples, known, threads);
    let mut by_relation: std::collections::BTreeMap<u32, Vec<f64>> =
        std::collections::BTreeMap::new();
    for (t, r) in triples.iter().zip(&ranks) {
        let bucket = by_relation.entry(t.relation.0).or_default();
        bucket.push(r.subject);
        bucket.push(r.object);
    }
    by_relation
        .into_iter()
        .map(|(rel, ranks)| PerRelationSummary {
            relation: kgfd_kg::RelationId(rel),
            summary: RankingSummary::from_ranks(&ranks),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_datasets::toy_biomedical;
    use kgfd_embed::{train, ModelKind, TrainConfig};

    fn trained() -> (kgfd_kg::Dataset, Box<dyn KgeModel>) {
        let data = toy_biomedical();
        let config = TrainConfig {
            dim: 16,
            epochs: 40,
            seed: 5,
            ..TrainConfig::default()
        };
        let (model, _) = train(ModelKind::DistMult, &data.train, &config);
        (data, model)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (data, model) = trained();
        let known = data.known_triples();
        let seq = rank_all(model.as_ref(), data.train.triples(), Some(&known), 1);
        let par = rank_all(model.as_ref(), data.train.triples(), Some(&known), 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn ranks_are_within_entity_range() {
        let (data, model) = trained();
        let n = data.train.num_entities() as f64;
        for r in rank_all(model.as_ref(), &data.test, None, 2) {
            assert!(r.subject >= 1.0 && r.subject <= n);
            assert!(r.object >= 1.0 && r.object <= n);
        }
    }

    #[test]
    fn filtered_ranks_never_worse_than_raw() {
        let (data, model) = trained();
        let known = data.known_triples();
        let raw = rank_all(model.as_ref(), data.train.triples(), None, 2);
        let filt = rank_all(model.as_ref(), data.train.triples(), Some(&known), 2);
        for (r, f) in raw.iter().zip(&filt) {
            assert!(f.subject <= r.subject + 1e-9);
            assert!(f.object <= r.object + 1e-9);
        }
    }

    #[test]
    fn per_relation_breakdown_partitions_the_ranks() {
        let (data, model) = trained();
        let known = data.known_triples();
        let per_rel = evaluate_per_relation(model.as_ref(), data.train.triples(), Some(&known), 2);
        let overall = evaluate_ranking(model.as_ref(), data.train.triples(), Some(&known), 2);
        let total: usize = per_rel.iter().map(|p| p.summary.count).sum();
        assert_eq!(total, overall.count);
        // Relations are distinct and ascending.
        for w in per_rel.windows(2) {
            assert!(w[0].relation < w[1].relation);
        }
        // Weighted MRR recomposes the overall MRR.
        let weighted: f64 = per_rel
            .iter()
            .map(|p| p.summary.mrr * p.summary.count as f64)
            .sum::<f64>()
            / overall.count as f64;
        assert!((weighted - overall.mrr).abs() < 1e-9);
    }

    #[test]
    fn trained_model_beats_random_rank_on_training_data() {
        let (data, model) = trained();
        let known = data.known_triples();
        let summary = evaluate_ranking(model.as_ref(), data.train.triples(), Some(&known), 2);
        let random_mrr = (1..=data.train.num_entities() as u64)
            .map(|r| 1.0 / r as f64)
            .sum::<f64>()
            / data.train.num_entities() as f64;
        assert!(
            summary.mrr > 2.0 * random_mrr,
            "trained MRR {} vs random {}",
            summary.mrr,
            random_mrr
        );
    }
}
