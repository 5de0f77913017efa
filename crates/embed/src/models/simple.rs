//! SimplE (Kazemi & Poole 2018): each entity carries separate head/tail
//! vectors, each relation a forward and an inverse vector, and
//!
//! ```text
//! f(s, r, o) = ½ (⟨h_s, r, t_o⟩ + ⟨h_o, r⁻¹, t_s⟩)
//! ```
//!
//! where `⟨a, b, c⟩ = Σᵢ aᵢ bᵢ cᵢ`. The averaging ties the two directions
//! together, making SimplE fully expressive while staying bilinear.
//!
//! Not in the paper's grid; included for library completeness. Storage: an
//! entity row is `[h | t]` (width `2l`), a relation row `[r | r⁻¹]`.
//! Gradients are the obvious triple products, accumulated into both halves.

use crate::batch::dot_step;
use crate::math::dot;
use crate::{
    init, Gradients, KgeModel, ModelConfig, ModelKind, ParamTable, Parameters, ENTITY_TABLE,
    RELATION_TABLE,
};
use kgfd_kg::{EntityId, RelationId, Triple};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The SimplE model. `dim` is the width of *one* factor vector; rows store
/// two, so the parameter width is `2 × dim`... the public `dim()` reports
/// the row width `2l` for buffer-sizing consistency with the other models.
pub struct SimplE {
    params: Parameters,
    num_entities: usize,
    num_relations: usize,
    /// One factor's width `l` (row width is `2l`).
    half: usize,
}

impl SimplE {
    /// Creates a Xavier-initialized SimplE model. `dim` (the row width) must
    /// be even; each factor vector has width `dim / 2`.
    pub fn new(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> Self {
        assert!(dim.is_multiple_of(2), "SimplE needs an even row width");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entities = ParamTable::zeros(num_entities, dim);
        let mut relations = ParamTable::zeros(num_relations, dim);
        init::xavier_uniform(&mut entities, &mut rng);
        init::xavier_uniform(&mut relations, &mut rng);
        SimplE {
            params: Parameters::new(vec![entities, relations]),
            num_entities,
            num_relations,
            half: dim / 2,
        }
    }

    #[inline]
    fn entity(&self, e: EntityId) -> &[f32] {
        self.params.table(ENTITY_TABLE).row(e.index())
    }

    #[inline]
    fn relation(&self, r: RelationId) -> &[f32] {
        self.params.table(RELATION_TABLE).row(r.index())
    }
}

impl KgeModel for SimplE {
    fn kind(&self) -> ModelKind {
        ModelKind::SimplE
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn num_relations(&self) -> usize {
        self.num_relations
    }

    fn dim(&self) -> usize {
        2 * self.half
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
        let l = self.half;
        let s = self.entity(t.subject);
        let r = self.relation(t.relation);
        let o = self.entity(t.object);
        let mut acc = 0.0;
        for i in 0..l {
            // ⟨h_s, r, t_o⟩ + ⟨h_o, r⁻¹, t_s⟩
            acc += s[i] * r[i] * o[l + i] + o[i] * r[l + i] * s[l + i];
        }
        0.5 * acc
    }

    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let l = self.half;
        let sv = self.entity(s);
        let rv = self.relation(r);
        // f(o) = ½ (q1 · t_o + q2 · h_o) with q1 = h_s∘r, q2 = t_s∘r⁻¹.
        let mut query = vec![0.0; 2 * l];
        for i in 0..l {
            query[l + i] = sv[i] * rv[i]; // pairs with t_o
            query[i] = sv[l + i] * rv[l + i]; // pairs with h_o
        }
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = 0.5 * dot(&query, self.entity(EntityId(e as u32)));
        }
    }

    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let l = self.half;
        let ov = self.entity(o);
        let rv = self.relation(r);
        // f(s) = ½ (w1 · h_s + w2 · t_s) with w1 = r∘t_o, w2 = r⁻¹∘h_o.
        let mut query = vec![0.0; 2 * l];
        for i in 0..l {
            query[i] = rv[i] * ov[l + i];
            query[l + i] = rv[l + i] * ov[i];
        }
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = 0.5 * dot(&query, self.entity(EntityId(e as u32)));
        }
    }

    fn score_objects_batch(&self, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let l = self.half;
        let mut qvecs = vec![0.0; queries.len() * 2 * l];
        for (qvec, &(s, r)) in qvecs.chunks_mut(2 * l).zip(queries) {
            let sv = self.entity(s);
            let rv = self.relation(r);
            for i in 0..l {
                qvec[l + i] = sv[i] * rv[i]; // pairs with t_o
                qvec[i] = sv[l + i] * rv[l + i]; // pairs with h_o
            }
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, 2 * l, out, dot_step, |acc| 0.5 * acc);
    }

    fn score_subjects_batch(&self, queries: &[(RelationId, EntityId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let l = self.half;
        let mut qvecs = vec![0.0; queries.len() * 2 * l];
        for (qvec, &(r, o)) in qvecs.chunks_mut(2 * l).zip(queries) {
            let ov = self.entity(o);
            let rv = self.relation(r);
            for i in 0..l {
                qvec[i] = rv[i] * ov[l + i];
                qvec[l + i] = rv[l + i] * ov[i];
            }
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, 2 * l, out, dot_step, |acc| 0.5 * acc);
    }

    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients) {
        let l = self.half;
        let s = self.entity(t.subject);
        let r = self.relation(t.relation);
        let o = self.entity(t.object);
        let half_up = 0.5 * upstream;

        let mut ds = vec![0.0; 2 * l];
        let mut dr = vec![0.0; 2 * l];
        let mut do_ = vec![0.0; 2 * l];
        for i in 0..l {
            // ∂/∂h_s, ∂/∂t_s
            ds[i] = r[i] * o[l + i];
            ds[l + i] = o[i] * r[l + i];
            // ∂/∂r, ∂/∂r⁻¹
            dr[i] = s[i] * o[l + i];
            dr[l + i] = o[i] * s[l + i];
            // ∂/∂h_o, ∂/∂t_o
            do_[i] = r[l + i] * s[l + i];
            do_[l + i] = s[i] * r[i];
        }
        grads.add(ENTITY_TABLE, t.subject.index(), &ds, half_up);
        grads.add(RELATION_TABLE, t.relation.index(), &dr, half_up);
        grads.add(ENTITY_TABLE, t.object.index(), &do_, half_up);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-vs-score comparisons read better indexed
mod tests {
    use super::*;
    use crate::models::gradcheck::check_gradients;

    #[test]
    fn score_matches_hand_computation() {
        let mut m = SimplE::new(2, 1, 4, 0);
        // entity rows: [h0, h1 | t0, t1]
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(1)
            .copy_from_slice(&[5.0, 6.0, 7.0, 8.0]);
        // relation row: [r | r⁻¹]
        m.params_mut()
            .table_mut(RELATION_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        // ⟨h_s, r, t_o⟩ = 1·1·7 + 2·0·8 = 7; ⟨h_o, r⁻¹, t_s⟩ = 5·0·3 + 6·1·4 = 24.
        // f = (7 + 24) / 2 = 15.5
        assert!((m.score(Triple::new(0u32, 0u32, 1u32)) - 15.5).abs() < 1e-6);
    }

    #[test]
    fn can_model_asymmetry() {
        let m = SimplE::new(4, 2, 8, 5);
        let fwd = m.score(Triple::new(0u32, 0u32, 1u32));
        let bwd = m.score(Triple::new(1u32, 0u32, 0u32));
        assert!((fwd - bwd).abs() > 1e-6, "random SimplE is asymmetric");
    }

    #[test]
    fn batched_kernels_match_pointwise_scores() {
        let m = SimplE::new(5, 2, 6, 7);
        let mut out = vec![0.0; 5];
        m.score_objects(EntityId(2), RelationId(1), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(2u32, 1u32, e as u32))).abs() < 1e-5);
        }
        m.score_subjects(RelationId(0), EntityId(4), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(e as u32, 0u32, 4u32))).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut m = SimplE::new(4, 2, 8, 11);
        check_gradients(&mut m, Triple::new(0u32, 1u32, 2u32), 1e-2);
        check_gradients(&mut m, Triple::new(2u32, 0u32, 2u32), 1e-2);
    }
}
