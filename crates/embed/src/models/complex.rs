//! ComplEx (Trouillon et al. 2016): `f(s, r, o) = Re(sᵀ diag(r) ō)`.
//!
//! Embeddings live in `ℂ^{l/2}`, stored as `[re₀.. re_{m−1}, im₀.. im_{m−1}]`
//! with `m = l/2`. Expanding the Hermitian product:
//!
//! ```text
//! f = Σᵢ  s_re r_re o_re + s_im r_re o_im + s_re r_im o_im − s_im r_im o_re
//! ```
//!
//! Gradients (per component `i`):
//! * `∂f/∂s_re = r_re o_re + r_im o_im`,  `∂f/∂s_im = r_re o_im − r_im o_re`
//! * `∂f/∂r_re = s_re o_re + s_im o_im`,  `∂f/∂r_im = s_re o_im − s_im o_re`
//! * `∂f/∂o_re = s_re r_re − s_im r_im`,  `∂f/∂o_im = s_im r_re + s_re r_im`
//!
//! The object-side gradient is exactly the query vector of `score_objects`
//! (and symmetrically for subjects), since `f` is linear in each embedding.

use crate::batch::dot_step;
use crate::math::dot;
use crate::{
    init, Gradients, KgeModel, ModelConfig, ModelKind, ParamTable, Parameters, ENTITY_TABLE,
    RELATION_TABLE,
};
use kgfd_kg::{EntityId, RelationId, Triple};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::convert::identity;

/// The ComplEx model. `dim` must be even.
pub struct ComplEx {
    params: Parameters,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
}

impl ComplEx {
    /// Creates a Xavier-initialized ComplEx model. Panics if `dim` is odd.
    pub fn new(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> Self {
        assert!(
            dim.is_multiple_of(2),
            "ComplEx needs an even embedding dimension"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entities = ParamTable::zeros(num_entities, dim);
        let mut relations = ParamTable::zeros(num_relations, dim);
        init::xavier_uniform(&mut entities, &mut rng);
        init::xavier_uniform(&mut relations, &mut rng);
        ComplEx {
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
    fn relation(&self, r: RelationId) -> &[f32] {
        self.params.table(RELATION_TABLE).row(r.index())
    }

    /// `∂f/∂o` given `s` and `r` — also the `score_objects` query vector.
    fn object_query(s: &[f32], r: &[f32], out: &mut [f32]) {
        let m = s.len() / 2;
        for i in 0..m {
            out[i] = s[i] * r[i] - s[m + i] * r[m + i];
            out[m + i] = s[m + i] * r[i] + s[i] * r[m + i];
        }
    }

    /// `∂f/∂s` given `r` and `o` — also the `score_subjects` query vector.
    fn subject_query(r: &[f32], o: &[f32], out: &mut [f32]) {
        let m = r.len() / 2;
        for i in 0..m {
            out[i] = r[i] * o[i] + r[m + i] * o[m + i];
            out[m + i] = r[i] * o[m + i] - r[m + i] * o[i];
        }
    }

    /// `∂f/∂r` given `s` and `o`.
    fn relation_grad(s: &[f32], o: &[f32], out: &mut [f32]) {
        let m = s.len() / 2;
        for i in 0..m {
            out[i] = s[i] * o[i] + s[m + i] * o[m + i];
            out[m + i] = s[i] * o[m + i] - s[m + i] * o[i];
        }
    }

    fn dot_all_entities(&self, query: &[f32], out: &mut [f32]) {
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = dot(query, self.entity(EntityId(e as u32)));
        }
    }
}

impl KgeModel for ComplEx {
    fn kind(&self) -> ModelKind {
        ModelKind::ComplEx
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
        let s = self.entity(t.subject);
        let r = self.relation(t.relation);
        let o = self.entity(t.object);
        let m = self.dim / 2;
        let mut acc = 0.0;
        for i in 0..m {
            acc += s[i] * r[i] * o[i] + s[m + i] * r[i] * o[m + i] + s[i] * r[m + i] * o[m + i]
                - s[m + i] * r[m + i] * o[i];
        }
        acc
    }

    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let mut query = vec![0.0; self.dim];
        Self::object_query(self.entity(s), self.relation(r), &mut query);
        self.dot_all_entities(&query, out);
    }

    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let mut query = vec![0.0; self.dim];
        Self::subject_query(self.relation(r), self.entity(o), &mut query);
        self.dot_all_entities(&query, out);
    }

    fn score_objects_batch(&self, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut qvecs = vec![0.0; queries.len() * self.dim];
        for (qvec, &(s, r)) in qvecs.chunks_mut(self.dim).zip(queries) {
            Self::object_query(self.entity(s), self.relation(r), qvec);
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn score_subjects_batch(&self, queries: &[(RelationId, EntityId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut qvecs = vec![0.0; queries.len() * self.dim];
        for (qvec, &(r, o)) in qvecs.chunks_mut(self.dim).zip(queries) {
            Self::subject_query(self.relation(r), self.entity(o), qvec);
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients) {
        let s = self.entity(t.subject);
        let r = self.relation(t.relation);
        let o = self.entity(t.object);
        let mut buf = vec![0.0; self.dim];

        Self::subject_query(r, o, &mut buf);
        grads.add(ENTITY_TABLE, t.subject.index(), &buf, upstream);
        Self::relation_grad(s, o, &mut buf);
        grads.add(RELATION_TABLE, t.relation.index(), &buf, upstream);
        Self::object_query(s, r, &mut buf);
        grads.add(ENTITY_TABLE, t.object.index(), &buf, upstream);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-vs-score comparisons read better indexed
mod tests {
    use super::*;
    use crate::models::gradcheck::check_gradients;

    #[test]
    fn reduces_to_distmult_when_imaginary_parts_are_zero() {
        let mut m = ComplEx::new(2, 1, 4, 0);
        // re = (a, b), im = (0, 0)
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 2.0, 0.0, 0.0]);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(1)
            .copy_from_slice(&[3.0, 4.0, 0.0, 0.0]);
        m.params_mut()
            .table_mut(RELATION_TABLE)
            .row_mut(0)
            .copy_from_slice(&[5.0, 6.0, 0.0, 0.0]);
        // DistMult: 1·5·3 + 2·6·4 = 63
        assert!((m.score(Triple::new(0u32, 0u32, 1u32)) - 63.0).abs() < 1e-5);
    }

    #[test]
    fn can_model_antisymmetry() {
        // With a purely imaginary relation, f(s, r, o) = −f(o, r, s).
        let mut m = ComplEx::new(2, 1, 4, 1);
        m.params_mut()
            .table_mut(RELATION_TABLE)
            .row_mut(0)
            .copy_from_slice(&[0.0, 0.0, 1.0, 1.0]);
        let fwd = m.score(Triple::new(0u32, 0u32, 1u32));
        let bwd = m.score(Triple::new(1u32, 0u32, 0u32));
        assert!((fwd + bwd).abs() < 1e-5);
        assert!(fwd.abs() > 1e-6, "nonzero for random entity embeddings");
    }

    #[test]
    fn batched_kernels_match_pointwise_scores() {
        let m = ComplEx::new(5, 2, 6, 7);
        let mut out = vec![0.0; 5];
        m.score_objects(EntityId(0), RelationId(1), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(0u32, 1u32, e as u32))).abs() < 1e-5);
        }
        m.score_subjects(RelationId(0), EntityId(2), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(e as u32, 0u32, 2u32))).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut m = ComplEx::new(4, 2, 8, 11);
        check_gradients(&mut m, Triple::new(0u32, 1u32, 2u32), 1e-2);
        check_gradients(&mut m, Triple::new(2u32, 0u32, 2u32), 1e-2);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_dimension_is_rejected() {
        ComplEx::new(2, 1, 5, 0);
    }
}
