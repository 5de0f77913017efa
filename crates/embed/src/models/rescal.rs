//! RESCAL (Nickel et al. 2011): `f(s, r, o) = sᵀ R o` with a full `l × l`
//! matrix `R` per relation.
//!
//! Gradients: `∂f/∂s = R o`, `∂f/∂o = Rᵀ s`, `∂f/∂R = s oᵀ` (outer product).
//! The relation table stores each matrix row-major as one `l²`-wide row.

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

/// The RESCAL model.
pub struct Rescal {
    params: Parameters,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
}

impl Rescal {
    /// Creates a Xavier-initialized RESCAL model.
    pub fn new(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entities = ParamTable::zeros(num_entities, dim);
        // One l×l matrix per relation, flattened row-major.
        let mut relations = ParamTable::zeros(num_relations, dim * dim);
        init::xavier_uniform(&mut entities, &mut rng);
        init::xavier_uniform(&mut relations, &mut rng);
        Rescal {
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
    fn matrix(&self, r: RelationId) -> &[f32] {
        self.params.table(RELATION_TABLE).row(r.index())
    }

    /// `out = R o` (matrix–vector).
    fn mat_vec(&self, r: RelationId, v: &[f32], out: &mut [f32]) {
        let l = self.dim;
        let m = self.matrix(r);
        for i in 0..l {
            out[i] = dot(&m[i * l..(i + 1) * l], v);
        }
    }

    /// `out = Rᵀ s` (transposed matrix–vector).
    fn mat_t_vec(&self, r: RelationId, v: &[f32], out: &mut [f32]) {
        let l = self.dim;
        let m = self.matrix(r);
        out.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            crate::math::add_scaled(out, &m[i * l..(i + 1) * l], vi);
        }
    }

    fn dot_all_entities(&self, query: &[f32], out: &mut [f32]) {
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = dot(query, self.entity(EntityId(e as u32)));
        }
    }
}

impl KgeModel for Rescal {
    fn kind(&self) -> ModelKind {
        ModelKind::Rescal
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
        let o = self.entity(t.object);
        let l = self.dim;
        let m = self.matrix(t.relation);
        let mut acc = 0.0;
        for (i, &si) in s.iter().enumerate() {
            acc += si * dot(&m[i * l..(i + 1) * l], o);
        }
        acc
    }

    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        // q = sᵀ R (row vector), then dot each entity.
        let mut query = vec![0.0; self.dim];
        self.mat_t_vec(r, self.entity(s), &mut query);
        self.dot_all_entities(&query, out);
    }

    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        // q = R o, then dot each entity.
        let mut query = vec![0.0; self.dim];
        self.mat_vec(r, self.entity(o), &mut query);
        self.dot_all_entities(&query, out);
    }

    fn score_objects_batch(&self, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut qvecs = vec![0.0; queries.len() * self.dim];
        for (qvec, &(s, r)) in qvecs.chunks_mut(self.dim).zip(queries) {
            self.mat_t_vec(r, self.entity(s), qvec);
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn score_subjects_batch(&self, queries: &[(RelationId, EntityId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut qvecs = vec![0.0; queries.len() * self.dim];
        for (qvec, &(r, o)) in qvecs.chunks_mut(self.dim).zip(queries) {
            self.mat_vec(r, self.entity(o), qvec);
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients) {
        let l = self.dim;
        let s = self.entity(t.subject).to_vec();
        let o = self.entity(t.object).to_vec();

        let mut buf = vec![0.0; l];
        self.mat_vec(t.relation, &o, &mut buf); // ∂f/∂s = R o
        grads.add(ENTITY_TABLE, t.subject.index(), &buf, upstream);
        self.mat_t_vec(t.relation, &s, &mut buf); // ∂f/∂o = Rᵀ s
        grads.add(ENTITY_TABLE, t.object.index(), &buf, upstream);

        // ∂f/∂R = s oᵀ, written directly into the sparse slot.
        let slot = grads.slot(RELATION_TABLE, t.relation.index(), l * l);
        for (i, &si) in s.iter().enumerate() {
            crate::math::add_scaled(&mut slot[i * l..(i + 1) * l], &o, upstream * si);
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-vs-score comparisons read better indexed
mod tests {
    use super::*;
    use crate::models::gradcheck::check_gradients;

    #[test]
    fn score_matches_hand_computation() {
        let mut m = Rescal::new(2, 1, 2, 0);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 2.0]);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(1)
            .copy_from_slice(&[3.0, 4.0]);
        // R = [[1, 0], [0, 1]] (identity) → f = s·o = 3 + 8 = 11.
        m.params_mut()
            .table_mut(RELATION_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        assert!((m.score(Triple::new(0u32, 0u32, 1u32)) - 11.0).abs() < 1e-6);
    }

    #[test]
    fn asymmetric_matrix_gives_asymmetric_scores() {
        let mut m = Rescal::new(2, 1, 2, 0);
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
            .copy_from_slice(&[0.0, 1.0, 0.0, 0.0]);
        // f(0, r, 1) = e0ᵀ R e1 = R[0][1] = 1; f(1, r, 0) = R[1][0] = 0.
        assert!((m.score(Triple::new(0u32, 0u32, 1u32)) - 1.0).abs() < 1e-6);
        assert!(m.score(Triple::new(1u32, 0u32, 0u32)).abs() < 1e-6);
    }

    #[test]
    fn batched_kernels_match_pointwise_scores() {
        let m = Rescal::new(5, 2, 4, 7);
        let mut out = vec![0.0; 5];
        m.score_objects(EntityId(1), RelationId(0), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(1u32, 0u32, e as u32))).abs() < 1e-4);
        }
        m.score_subjects(RelationId(1), EntityId(0), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(e as u32, 1u32, 0u32))).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut m = Rescal::new(4, 2, 4, 11);
        check_gradients(&mut m, Triple::new(0u32, 1u32, 2u32), 1e-2);
        check_gradients(&mut m, Triple::new(3u32, 0u32, 3u32), 1e-2);
    }
}
