//! Results of one discovery run, with the runtime breakdown and quality
//! metrics the paper's evaluation reads off (§3.3: MRR, runtime, efficiency).

use crate::StrategyKind;
use kgfd_kg::{RelationId, Triple};
use std::time::Duration;

/// One discovered fact: a triple absent from the input graph that ranked
/// within `top_n` against its corruptions.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiscoveredFact {
    /// The candidate triple.
    pub triple: Triple,
    /// Its rank (mean of subject- and object-side filtered ranks; 1 = best).
    pub rank: f64,
}

/// Per-relation accounting of the discovery loop.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RelationBreakdown {
    /// The relation facts were generated for.
    pub relation: RelationId,
    /// Candidates generated (after de-duplication and seen-filtering).
    pub candidates: usize,
    /// Candidates that survived the `top_n` filter.
    pub facts: usize,
    /// Candidates rejected by structural pruning rules (0 unless
    /// `prune_with_rules` is set).
    pub pruned: usize,
    /// Generation-loop iterations used (≤ [`crate::MAX_ITERATIONS`]).
    pub iterations: usize,
    /// Busy time in the sampling/mesh-grid loop for this relation.
    pub generation: Duration,
    /// Busy time ranking this relation's candidates against corruptions.
    pub evaluation: Duration,
}

/// The output of [`crate::discover_facts`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DiscoveryReport {
    /// Strategy that produced this report.
    pub strategy: StrategyKind,
    /// The `top_n` quality threshold used.
    pub top_n: usize,
    /// The per-relation candidate budget used.
    pub max_candidates: usize,
    /// All discovered facts with their ranks.
    pub facts: Vec<DiscoveredFact>,
    /// Per-relation breakdown in processing order.
    pub per_relation: Vec<RelationBreakdown>,
    /// Time spent computing the strategy's node measures (degree/triangles/
    /// coefficients) — the superlinear part that separates the two runtime
    /// groups of Figure 2.
    pub preparation: Duration,
    /// Wall-clock for the whole run. Relations may run in parallel, so the
    /// per-relation busy times in [`Self::per_relation`] can add up to
    /// more than this.
    pub total: Duration,
}

impl DiscoveryReport {
    /// MRR of the discovered facts (paper Eq. 7) — the quality metric of
    /// Figure 4. Zero when nothing was discovered.
    pub fn mrr(&self) -> f64 {
        if self.facts.is_empty() {
            return 0.0;
        }
        self.facts.iter().map(|f| 1.0 / f.rank).sum::<f64>() / self.facts.len() as f64
    }

    /// Total candidates generated across relations.
    pub fn candidates_generated(&self) -> usize {
        self.per_relation.iter().map(|r| r.candidates).sum()
    }

    /// Discovery efficiency in facts per second (§3.3: facts divided by the
    /// total runtime, which spans generation *and* evaluation).
    pub fn facts_per_second(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.facts.len() as f64 / secs
    }

    /// Discovery efficiency in facts per hour — the unit of Figure 6.
    pub fn facts_per_hour(&self) -> f64 {
        self.facts_per_second() * 3600.0
    }

    /// The ranks of all facts (parallel to `facts`), as used by Eq. 7.
    pub fn ranks(&self) -> Vec<f64> {
        self.facts.iter().map(|f| f.rank).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_ranks(ranks: &[f64], total: Duration) -> DiscoveryReport {
        DiscoveryReport {
            strategy: StrategyKind::UniformRandom,
            top_n: 500,
            max_candidates: 500,
            facts: ranks
                .iter()
                .map(|&rank| DiscoveredFact {
                    triple: Triple::new(0u32, 0u32, 1u32),
                    rank,
                })
                .collect(),
            per_relation: vec![],
            preparation: Duration::ZERO,
            total,
        }
    }

    #[test]
    fn mrr_matches_eq7() {
        let r = report_with_ranks(&[1.0, 2.0, 4.0], Duration::from_secs(1));
        assert!((r.mrr() - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(report_with_ranks(&[], Duration::from_secs(1)).mrr(), 0.0);
    }

    #[test]
    fn efficiency_units() {
        let r = report_with_ranks(&[1.0; 10], Duration::from_secs(5));
        assert!((r.facts_per_second() - 2.0).abs() < 1e-9);
        assert!((r.facts_per_hour() - 7200.0).abs() < 1e-6);
    }

    #[test]
    fn zero_duration_does_not_divide_by_zero() {
        let r = report_with_ranks(&[1.0], Duration::ZERO);
        assert_eq!(r.facts_per_second(), 0.0);
    }
}
