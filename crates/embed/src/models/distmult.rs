//! DistMult (Yang et al. 2014): `f(s, r, o) = sᵀ diag(r) o = Σᵢ sᵢ rᵢ oᵢ`.
//!
//! Gradients: `∂f/∂s = r ⊙ o`, `∂f/∂r = s ⊙ o`, `∂f/∂o = s ⊙ r`.
//! Both batched kernels reduce to one Hadamard product followed by `N` dots.

use crate::batch::dot_step;
use crate::math::{dot, hadamard};
use crate::{
    init, Gradients, KgeModel, ModelConfig, ModelKind, ParamTable, Parameters, ENTITY_TABLE,
    RELATION_TABLE,
};
use kgfd_kg::{EntityId, RelationId, Triple};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::convert::identity;

/// The DistMult model.
pub struct DistMult {
    params: Parameters,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
}

impl DistMult {
    /// Creates a Xavier-initialized DistMult model.
    pub fn new(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entities = ParamTable::zeros(num_entities, dim);
        let mut relations = ParamTable::zeros(num_relations, dim);
        init::xavier_uniform(&mut entities, &mut rng);
        init::xavier_uniform(&mut relations, &mut rng);
        DistMult {
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

    fn dot_all_entities(&self, query: &[f32], out: &mut [f32]) {
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = dot(query, self.entity(EntityId(e as u32)));
        }
    }
}

impl KgeModel for DistMult {
    fn kind(&self) -> ModelKind {
        ModelKind::DistMult
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
        s.iter().zip(r).zip(o).map(|((a, b), c)| a * b * c).sum()
    }

    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let mut query = vec![0.0; self.dim];
        hadamard(&mut query, self.entity(s), self.relation(r));
        self.dot_all_entities(&query, out);
    }

    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let mut query = vec![0.0; self.dim];
        hadamard(&mut query, self.relation(r), self.entity(o));
        self.dot_all_entities(&query, out);
    }

    fn score_objects_batch(&self, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut qvecs = vec![0.0; queries.len() * self.dim];
        for (qvec, &(s, r)) in qvecs.chunks_mut(self.dim).zip(queries) {
            hadamard(qvec, self.entity(s), self.relation(r));
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn score_subjects_batch(&self, queries: &[(RelationId, EntityId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut qvecs = vec![0.0; queries.len() * self.dim];
        for (qvec, &(r, o)) in qvecs.chunks_mut(self.dim).zip(queries) {
            hadamard(qvec, self.relation(r), self.entity(o));
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients) {
        let dim = self.dim;
        let mut buf = vec![0.0; dim];
        hadamard(&mut buf, self.relation(t.relation), self.entity(t.object));
        grads.add(ENTITY_TABLE, t.subject.index(), &buf, upstream);
        hadamard(&mut buf, self.entity(t.subject), self.entity(t.object));
        grads.add(RELATION_TABLE, t.relation.index(), &buf, upstream);
        hadamard(&mut buf, self.entity(t.subject), self.relation(t.relation));
        grads.add(ENTITY_TABLE, t.object.index(), &buf, upstream);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-vs-score comparisons read better indexed
mod tests {
    use super::*;
    use crate::models::gradcheck::check_gradients;

    #[test]
    fn score_matches_hand_computation() {
        let mut m = DistMult::new(2, 1, 3, 0);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 2.0, 3.0]);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(1)
            .copy_from_slice(&[4.0, 5.0, 6.0]);
        m.params_mut()
            .table_mut(RELATION_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 0.0, -1.0]);
        // 1·1·4 + 2·0·5 + 3·(−1)·6 = −14
        assert!((m.score(Triple::new(0u32, 0u32, 1u32)) + 14.0).abs() < 1e-6);
    }

    #[test]
    fn symmetry_of_scoring_function() {
        // DistMult models only symmetric relations: f(s, r, o) = f(o, r, s).
        let m = DistMult::new(6, 2, 8, 3);
        for (s, r, o) in [(0u32, 0u32, 1u32), (2, 1, 3), (4, 0, 5)] {
            let a = m.score(Triple::new(s, r, o));
            let b = m.score(Triple::new(o, r, s));
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn batched_kernels_match_pointwise_scores() {
        let m = DistMult::new(5, 2, 4, 7);
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
        let mut m = DistMult::new(4, 2, 6, 11);
        check_gradients(&mut m, Triple::new(0u32, 1u32, 2u32), 1e-2);
        check_gradients(&mut m, Triple::new(3u32, 0u32, 3u32), 1e-2);
    }
}
