//! Ranking a triple against its corruptions (paper §2.1 "Testing" and §3.3).
//!
//! For a triple `(s, r, o)`, the object-side rank is the rank of `o`'s score
//! among the scores of every entity substituted into the object slot (and
//! symmetrically for the subject side). In the *filtered* setting
//! (Bordes et al.), corruptions that are themselves known-true triples are
//! excluded so the model is not penalized for ranking other true facts high.
//!
//! Ties are resolved to their mean rank (`1 + #greater + #ties/2`), the
//! convention that keeps constant-scoring models from looking artificially
//! good or bad.
//!
//! [`rank_with_exclusions`] runs once per (triple, side) over every entity,
//! so it counts the whole row in one branch-free, vectorized pass and then
//! corrects the integer counts for the target and the filtered entities,
//! instead of testing each entity for exclusion as it goes.

use kgfd_embed::KgeModel;
use kgfd_kg::{EntityId, KnownTriples, Triple};

/// Subject- and object-side ranks of one triple (1-based, mean-tie).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripleRanks {
    /// Rank of the true subject among all subject corruptions.
    pub subject: f64,
    /// Rank of the true object among all object corruptions.
    pub object: f64,
}

impl TripleRanks {
    /// Mean of the two side ranks — the per-triple rank used when a single
    /// number is needed (as in the discovery algorithm's `top_n` filter).
    pub fn mean(&self) -> f64 {
        0.5 * (self.subject + self.object)
    }

    /// The reciprocal-rank contribution of this triple to a two-sided MRR
    /// (the standard protocol averages both directions).
    pub fn reciprocal_mean(&self) -> f64 {
        0.5 * (1.0 / self.subject + 1.0 / self.object)
    }
}

/// Rank of `target`'s score within `scores`, with the entities in `exclude`
/// (other known-true completions) removed from the competition.
///
/// `exclude` must be sorted ascending (as produced by [`KnownTriples`]);
/// `target` itself always competes even if listed there, and entries that
/// repeat or lie past the end of `scores` are ignored.
///
/// This runs once per (triple, side) on the evaluation hot path, over every
/// entity, so the row is counted without a data-dependent branch: one pass
/// adds `score > target` and `score == target` into `u32` counters, which
/// the compiler vectorizes into fixed-width lanes. The target's own tie is
/// then removed (unless its score is NaN, which ties nothing), and each
/// distinct in-range exclusion other than the target subtracts its own two
/// comparisons. The counts are integers, so the rank is the same as if the
/// excluded entities had been skipped during the count.
pub fn rank_with_exclusions(scores: &[f32], target: EntityId, exclude: &[EntityId]) -> f64 {
    let target_score = scores[target.index()];
    // NaN never outranks or ties: both comparisons are false for NaN.
    let (mut greater, mut ties) = scores.iter().fold((0u32, 0u32), |(greater, ties), &score| {
        (
            greater + u32::from(score > target_score),
            ties + u32::from(score == target_score),
        )
    });
    ties -= u32::from(!target_score.is_nan());
    let mut previous = None;
    for &x in exclude {
        let repeat = previous.replace(x) == Some(x);
        if repeat || x == target || x.index() >= scores.len() {
            continue;
        }
        let score = scores[x.index()];
        greater -= u32::from(score > target_score);
        ties -= u32::from(score == target_score);
    }
    1.0 + f64::from(greater) + f64::from(ties) / 2.0
}

/// Scratch buffers reused across rank computations.
pub struct RankScratch {
    scores: Vec<f32>,
}

impl RankScratch {
    /// Allocates buffers for a model with `num_entities` entities.
    pub fn new(num_entities: usize) -> Self {
        RankScratch {
            scores: vec![0.0; num_entities],
        }
    }
}

/// Computes both side ranks of `t` under `model`. Pass `known` to use the
/// filtered protocol (recommended; pass `None` for raw ranks).
pub fn rank_triple(
    model: &dyn KgeModel,
    t: Triple,
    known: Option<&KnownTriples>,
    scratch: &mut RankScratch,
) -> TripleRanks {
    model.score_objects(t.subject, t.relation, &mut scratch.scores);
    let object = rank_with_exclusions(
        &scratch.scores,
        t.object,
        known.map_or(&[], |k| k.true_objects(t.subject, t.relation)),
    );
    model.score_subjects(t.relation, t.object, &mut scratch.scores);
    let subject = rank_with_exclusions(
        &scratch.scores,
        t.subject,
        known.map_or(&[], |k| k.true_subjects(t.relation, t.object)),
    );
    TripleRanks { subject, object }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_counts_strictly_greater() {
        let scores = [0.9, 0.5, 0.7, 0.1];
        assert_eq!(rank_with_exclusions(&scores, EntityId(1), &[]), 3.0);
        assert_eq!(rank_with_exclusions(&scores, EntityId(0), &[]), 1.0);
        assert_eq!(rank_with_exclusions(&scores, EntityId(3), &[]), 4.0);
    }

    #[test]
    fn ties_resolve_to_mean_rank() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        // 3 ties → rank 1 + 0 + 1.5 = 2.5 for every entity.
        for e in 0..4 {
            assert_eq!(rank_with_exclusions(&scores, EntityId(e), &[]), 2.5);
        }
    }

    #[test]
    fn exclusions_remove_competitors() {
        let scores = [0.9, 0.5, 0.7, 0.1];
        // Excluding the top scorer promotes entity 1 to rank 2.
        assert_eq!(
            rank_with_exclusions(&scores, EntityId(1), &[EntityId(0)]),
            2.0
        );
        // Excluding the target itself must not remove it.
        assert_eq!(
            rank_with_exclusions(&scores, EntityId(0), &[EntityId(0)]),
            1.0
        );
    }

    #[test]
    fn nan_scores_never_outrank() {
        let scores = [f32::NAN, 0.5, f32::NAN];
        assert_eq!(rank_with_exclusions(&scores, EntityId(1), &[]), 1.0);
    }

    #[test]
    fn triple_ranks_aggregations() {
        let r = TripleRanks {
            subject: 1.0,
            object: 4.0,
        };
        assert_eq!(r.mean(), 2.5);
        assert!((r.reciprocal_mean() - 0.625).abs() < 1e-12);
    }
}
