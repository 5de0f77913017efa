//! Weighted sampling of pool indices.
//!
//! The discovery inner loop draws `sample_size` entities per side per
//! iteration, so draw cost matters. [`AliasSampler`] (Walker's method) pays
//! O(n) once and O(1) per draw. The textbook O(log n) CDF sampler it is
//! checked against lives in `tests/proptests.rs`.

use kgfd_kg::KgError;
use rand::rngs::StdRng;
use rand::Rng;

/// Walker alias-method sampler over `0..n` with fixed weights.
#[derive(Debug, Clone)]
pub struct AliasSampler {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasSampler {
    /// Builds the alias table from non-negative weights. Weights are
    /// normalized defensively — callers conventionally pass a distribution
    /// summing to ~1, but an unnormalized vector would otherwise build a
    /// silently skewed table. A degenerate vector (all-zero or non-finite
    /// sum) falls back to the uniform distribution, mirroring
    /// `normalize_or_uniform`. Panics on an empty weight vector.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "cannot sample from an empty pool");
        let n = weights.len();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = if total > 0.0 && total.is_finite() {
            weights.iter().map(|w| w / total * n as f64).collect()
        } else {
            vec![1.0; n]
        };

        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (numerical slack) get probability 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        AliasSampler { prob, alias }
    }

    /// [`AliasSampler::new`] with the weight vector validated first:
    /// returns a typed [`KgError::NonFiniteWeight`] instead of silently
    /// falling back to the uniform distribution when a weight is NaN or
    /// infinite, and [`KgError::Invariant`] for an empty pool.
    pub fn try_new(weights: &[f64]) -> Result<Self, KgError> {
        if weights.is_empty() {
            return Err(KgError::Invariant(
                "cannot sample from an empty pool".into(),
            ));
        }
        crate::validate_weights(weights)?;
        Ok(AliasSampler::new(weights))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` when the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index in O(1).
    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let i = rng.random_range(0..self.prob.len());
        if rng.random::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let sampler = AliasSampler::new(weights);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[sampler.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn alias_matches_target_distribution() {
        let weights = [0.5, 0.25, 0.125, 0.125];
        let freq = empirical(&weights, 100_000, 1);
        for (f, w) in freq.iter().zip(&weights) {
            assert!((f - w).abs() < 0.01, "freq {f} vs weight {w}");
        }
    }

    #[test]
    fn alias_handles_degenerate_distribution() {
        let weights = [0.0, 1.0, 0.0];
        let freq = empirical(&weights, 10_000, 2);
        assert_eq!(freq[1], 1.0);
    }

    #[test]
    fn alias_single_item() {
        let sampler = AliasSampler::new(&[1.0]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sampler.sample(&mut rng), 0);
        assert_eq!(sampler.len(), 1);
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn empty_weights_panic() {
        AliasSampler::new(&[]);
    }

    #[test]
    fn alias_zero_total_falls_back_to_uniform() {
        let sampler = AliasSampler::new(&[0.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 2];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        let f = counts[0] as f64 / 20_000.0;
        assert!((f - 0.5).abs() < 0.02, "freq {f} not ~uniform");
    }

    #[test]
    fn alias_normalizes_unnormalized_weights() {
        // Regression: weights summing to 8 used to be scaled by n instead
        // of normalized, silently skewing the table.
        let freq = empirical(&[2.0, 6.0], 50_000, 6);
        assert!((freq[0] - 0.25).abs() < 0.01, "freq {} vs 0.25", freq[0]);
        assert!((freq[1] - 0.75).abs() < 0.01, "freq {} vs 0.75", freq[1]);
    }

    #[test]
    fn try_new_rejects_non_finite_weights_with_a_typed_error() {
        // Regression: a NaN weight used to propagate into the running total
        // and trip the degenerate-sum fallback, so the sampler silently
        // replaced the caller's distribution with the uniform one.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match AliasSampler::try_new(&[0.5, bad]) {
                Err(KgError::NonFiniteWeight { index: 1, .. }) => {}
                other => panic!("expected NonFiniteWeight, got {other:?}"),
            }
        }
        assert!(matches!(
            AliasSampler::try_new(&[]),
            Err(KgError::Invariant(_))
        ));
        assert!(AliasSampler::try_new(&[1.0, 2.0]).is_ok());
        assert!(
            AliasSampler::try_new(&[0.0, 0.0]).is_ok(),
            "zero-sum is legal"
        );
    }
}
