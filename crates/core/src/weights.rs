//! `compute_weights()` of Algorithm 1: turning a strategy + a per-relation
//! entity pool into a normalized sampling distribution.
//!
//! The candidate pools are the entities observed on each side of the target
//! relation (AmpliGraph's default `consolidate_sides=False`). Side-aware
//! strategies weight the pool by its own occurrence counts; side-agnostic
//! ones restrict their global measure to the pool and renormalize. A pool
//! whose weights sum to zero (e.g. no member participates in any triangle)
//! falls back to uniform — sampling must remain well-defined.

use crate::{Measures, StrategyKind};
use kgfd_kg::{KgError, SideIndex};

/// Normalized sampling weights over `pool.entities` (parallel vector).
pub fn compute_weights(strategy: StrategyKind, measures: &Measures, pool: &SideIndex) -> Vec<f64> {
    let raw: Vec<f64> = match strategy {
        StrategyKind::UniformRandom => vec![1.0; pool.len()],
        // Eq. 2 normalizes counts by len(side); any positive scaling yields
        // the same distribution after normalization.
        StrategyKind::EntityFrequency => pool.counts.iter().map(|&c| c as f64).collect(),
        _ => pool.entities.iter().map(|&e| measures.value(e)).collect(),
    };
    normalize_or_uniform(raw)
}

/// Rejects weight vectors containing NaN or ±∞ with a typed
/// [`KgError::NonFiniteWeight`] naming the first offending entry.
///
/// The samplers' defensive fallback treats a non-finite *sum* as degenerate
/// and silently substitutes the uniform distribution — correct for the
/// all-zero pools the strategies legitimately produce, but for a NaN it
/// would discard the caller's weights without a trace. Validate at the
/// boundary instead and keep the fallback for the zero-sum case only.
pub fn validate_weights(weights: &[f64]) -> Result<(), KgError> {
    match weights.iter().position(|w| !w.is_finite()) {
        Some(index) => Err(KgError::NonFiniteWeight {
            index,
            value: weights[index],
        }),
        None => Ok(()),
    }
}

/// Normalizes non-negative weights to sum 1, replacing degenerate inputs
/// (zero-sum or non-finite) with the uniform distribution.
pub fn normalize_or_uniform(mut weights: Vec<f64>) -> Vec<f64> {
    if weights.is_empty() {
        return weights;
    }
    let sum: f64 = weights.iter().sum();
    if sum > 0.0 && sum.is_finite() {
        for w in &mut weights {
            *w /= sum;
        }
        weights
    } else {
        let u = 1.0 / weights.len() as f64;
        vec![u; weights.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_kg::{EntityId, Triple, TripleStore};

    fn pool() -> SideIndex {
        SideIndex {
            entities: vec![EntityId(0), EntityId(1), EntityId(2)],
            counts: vec![3, 1, 4],
        }
    }

    #[test]
    fn uniform_weights_are_equal() {
        let w = compute_weights(StrategyKind::UniformRandom, &Measures::PoolLocal, &pool());
        assert_eq!(w, vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn frequency_weights_follow_counts() {
        let w = compute_weights(StrategyKind::EntityFrequency, &Measures::PoolLocal, &pool());
        assert_eq!(w, vec![3.0 / 8.0, 1.0 / 8.0, 4.0 / 8.0]);
    }

    #[test]
    fn global_measures_restrict_to_pool() {
        let m = Measures::Global(vec![10.0, 0.0, 30.0, 999.0].into());
        let w = compute_weights(StrategyKind::GraphDegree, &m, &pool());
        assert_eq!(w, vec![0.25, 0.0, 0.75], "entity 3 is outside the pool");
    }

    #[test]
    fn zero_sum_falls_back_to_uniform() {
        let m = Measures::Global(vec![0.0; 4].into());
        let w = compute_weights(StrategyKind::ClusteringTriangles, &m, &pool());
        assert_eq!(w, vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn empty_pool_yields_empty_weights() {
        let empty = SideIndex::default();
        let w = compute_weights(StrategyKind::UniformRandom, &Measures::PoolLocal, &empty);
        assert!(w.is_empty());
    }

    #[test]
    fn validate_weights_flags_the_first_non_finite_entry() {
        assert!(validate_weights(&[0.0, 1.0, 0.5]).is_ok());
        assert!(validate_weights(&[]).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match validate_weights(&[1.0, bad, f64::NAN]) {
                Err(kgfd_kg::KgError::NonFiniteWeight { index, .. }) => assert_eq!(index, 1),
                other => panic!("expected NonFiniteWeight, got {other:?}"),
            }
        }
    }

    #[test]
    fn weights_always_sum_to_one_on_real_store() {
        let store = TripleStore::new(
            5,
            2,
            vec![
                Triple::new(0u32, 0u32, 1u32),
                Triple::new(1u32, 0u32, 2u32),
                Triple::new(2u32, 0u32, 0u32),
                Triple::new(3u32, 1u32, 4u32),
            ],
        )
        .unwrap();
        for kind in StrategyKind::ALL {
            let m = Measures::compute(kind, &store);
            for r in store.used_relations() {
                for side in kgfd_kg::Side::BOTH {
                    let w = compute_weights(kind, &m, store.side_index(r, side));
                    let sum: f64 = w.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-9, "{kind}: sum {sum}");
                    assert!(w.iter().all(|&x| x >= 0.0));
                }
            }
        }
    }
}
