//! RotatE (Sun et al. 2019): relations as rotations in the complex plane,
//! `f(s, r, o) = −Σᵢ |sᵢ·rᵢ − oᵢ|` with `|rᵢ| = 1`.
//!
//! Not part of the paper's grid — included because a usable KGE library is
//! expected to ship it, and it plugs into discovery/evaluation through the
//! same [`KgeModel`] trait.
//!
//! Entities are complex (`[re.. , im..]` halves, width `l`); a relation row
//! stores the `l/2` rotation *phases* θ, so the unit-modulus constraint
//! holds by construction. With `u + iv = s·e^{iθ} − o` and `m = √(u² + v²)`:
//!
//! * `∂f/∂o_re = u/m`, `∂f/∂o_im = v/m`
//! * `∂f/∂s_re = −(u cosθ + v sinθ)/m`, `∂f/∂s_im = (u sinθ − v cosθ)/m`
//! * `∂f/∂θ = −(u·∂u/∂θ + v·∂v/∂θ)/m` with `∂u/∂θ = −s_re sinθ − s_im cosθ`,
//!   `∂v/∂θ = s_re cosθ − s_im sinθ`.
//!
//! Because rotation is an isometry, both batched kernels are translations:
//! objects measure distance to `s·e^{iθ}`, subjects to `o·e^{−iθ}`.

use crate::{
    init, Gradients, KgeModel, ModelConfig, ModelKind, ParamTable, Parameters, ENTITY_TABLE,
    RELATION_TABLE,
};
use kgfd_kg::{EntityId, RelationId, Triple};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RotatE model. `dim` must be even.
pub struct RotatE {
    params: Parameters,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
}

impl RotatE {
    /// Creates a RotatE model: Xavier entities, phases uniform in (−π, π).
    pub fn new(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> Self {
        assert!(
            dim.is_multiple_of(2),
            "RotatE needs an even embedding dimension"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entities = ParamTable::zeros(num_entities, dim);
        let mut relations = ParamTable::zeros(num_relations, dim / 2);
        init::xavier_uniform(&mut entities, &mut rng);
        init::uniform(&mut relations, &mut rng, std::f32::consts::PI);
        RotatE {
            params: Parameters::new(vec![entities, relations]),
            num_entities,
            num_relations,
            dim,
        }
    }

    #[inline]
    fn entity(&self, e: EntityId) -> &[f32] {
        self.params.table(ENTITY_TABLE).row(e.index())
    }

    #[inline]
    fn phases(&self, r: RelationId) -> &[f32] {
        self.params.table(RELATION_TABLE).row(r.index())
    }

    /// Rotates complex vector `x` by `theta` (`+1.0`) or `−theta` (`−1.0`).
    fn rotate(x: &[f32], theta: &[f32], sign: f32, out: &mut [f32]) {
        let m = theta.len();
        for i in 0..m {
            let (sin, cos) = (sign * theta[i]).sin_cos();
            out[i] = x[i] * cos - x[m + i] * sin;
            out[m + i] = x[i] * sin + x[m + i] * cos;
        }
    }

    /// `−Σ |xᵢ − yᵢ|` over complex components.
    fn neg_complex_l1(x: &[f32], y: &[f32]) -> f32 {
        let m = x.len() / 2;
        let mut acc = 0.0;
        for i in 0..m {
            let u = x[i] - y[i];
            let v = x[m + i] - y[m + i];
            acc += (u * u + v * v).sqrt();
        }
        -acc
    }
}

impl KgeModel for RotatE {
    fn kind(&self) -> ModelKind {
        ModelKind::RotatE
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn num_relations(&self) -> usize {
        self.num_relations
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn config(&self) -> ModelConfig {
        ModelConfig {
            kind: self.kind(),
            num_entities: self.num_entities(),
            num_relations: self.num_relations(),
            dim: self.dim(),
            distance: None,
        }
    }

    fn params(&self) -> &Parameters {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Parameters {
        &mut self.params
    }

    fn score(&self, t: Triple) -> f32 {
        let mut rotated = vec![0.0; self.dim];
        Self::rotate(
            self.entity(t.subject),
            self.phases(t.relation),
            1.0,
            &mut rotated,
        );
        Self::neg_complex_l1(&rotated, self.entity(t.object))
    }

    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let mut query = vec![0.0; self.dim];
        Self::rotate(self.entity(s), self.phases(r), 1.0, &mut query);
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = Self::neg_complex_l1(&query, self.entity(EntityId(e as u32)));
        }
    }

    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        // |s·e^{iθ} − o| = |s − o·e^{−iθ}|.
        let mut query = vec![0.0; self.dim];
        Self::rotate(self.entity(o), self.phases(r), -1.0, &mut query);
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = Self::neg_complex_l1(&query, self.entity(EntityId(e as u32)));
        }
    }

    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients) {
        let s = self.entity(t.subject);
        let o = self.entity(t.object);
        let theta = self.phases(t.relation);
        let m = self.dim / 2;

        let mut ds = vec![0.0; self.dim];
        let mut do_ = vec![0.0; self.dim];
        let mut dth = vec![0.0; m];
        for i in 0..m {
            let (sin, cos) = theta[i].sin_cos();
            let u = s[i] * cos - s[m + i] * sin - o[i];
            let v = s[i] * sin + s[m + i] * cos - o[m + i];
            let dist = (u * u + v * v).sqrt();
            if dist < 1e-12 {
                continue;
            }
            let (un, vn) = (u / dist, v / dist);
            // f contributes −dist.
            ds[i] = -(un * cos + vn * sin);
            ds[m + i] = un * sin - vn * cos;
            do_[i] = un;
            do_[m + i] = vn;
            let du_dth = -s[i] * sin - s[m + i] * cos;
            let dv_dth = s[i] * cos - s[m + i] * sin;
            dth[i] = -(un * du_dth + vn * dv_dth);
        }
        grads.add(ENTITY_TABLE, t.subject.index(), &ds, upstream);
        grads.add(ENTITY_TABLE, t.object.index(), &do_, upstream);
        grads.add(RELATION_TABLE, t.relation.index(), &dth, upstream);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-vs-score comparisons read better indexed
mod tests {
    use super::*;
    use crate::models::gradcheck::check_gradients;

    #[test]
    fn zero_rotation_reduces_to_translationless_distance() {
        let mut m = RotatE::new(2, 1, 4, 0);
        m.params_mut()
            .table_mut(RELATION_TABLE)
            .row_mut(0)
            .copy_from_slice(&[0.0, 0.0]);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 0.0, 0.0, 0.0]);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(1)
            .copy_from_slice(&[0.0, 0.0, 0.0, 0.0]);
        // |1 − 0| + |0 − 0| = 1 → score −1.
        assert!((m.score(Triple::new(0u32, 0u32, 1u32)) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn perfect_rotation_scores_zero() {
        // e0 = (1, 0) complex 1+0i; θ = π/2 rotates it to 0+1i = e1.
        let mut m = RotatE::new(2, 1, 2, 0);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 0.0]);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(1)
            .copy_from_slice(&[0.0, 1.0]);
        m.params_mut()
            .table_mut(RELATION_TABLE)
            .row_mut(0)
            .copy_from_slice(&[std::f32::consts::FRAC_PI_2]);
        assert!(m.score(Triple::new(0u32, 0u32, 1u32)).abs() < 1e-6);
    }

    #[test]
    fn inverse_rotation_models_inverse_relations() {
        // RotatE's selling point: r and −θ model r⁻¹ exactly.
        let m = RotatE::new(4, 1, 6, 3);
        let fwd = m.score(Triple::new(0u32, 0u32, 1u32));
        // Build the inverse model by negating the phases.
        let mut inv = RotatE::new(4, 1, 6, 3);
        for p in inv.params_mut().table_mut(RELATION_TABLE).data_mut() {
            *p = -*p;
        }
        let bwd = inv.score(Triple::new(1u32, 0u32, 0u32));
        assert!((fwd - bwd).abs() < 1e-5, "{fwd} vs {bwd}");
    }

    #[test]
    fn batched_kernels_match_pointwise_scores() {
        let m = RotatE::new(5, 2, 6, 7);
        let mut out = vec![0.0; 5];
        m.score_objects(EntityId(1), RelationId(0), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(1u32, 0u32, e as u32))).abs() < 1e-5);
        }
        m.score_subjects(RelationId(1), EntityId(3), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(e as u32, 1u32, 3u32))).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut m = RotatE::new(4, 2, 8, 11);
        check_gradients(&mut m, Triple::new(0u32, 1u32, 2u32), 1e-2);
        check_gradients(&mut m, Triple::new(3u32, 0u32, 1u32), 1e-2);
    }
}
