//! HolE (Nickel et al. 2016): `f(s, r, o) = rᵀ (s ⋆ o)` where `⋆` is
//! circular correlation, `(s ⋆ o)_k = Σᵢ sᵢ o_{(k+i) mod l}` (paper §2.1).
//!
//! Useful identities (all O(l²) here; dims are small):
//! * `f = Σ_k r_k (s ⋆ o)_k`
//! * as a function of `o`: `f = (r ∗ s) · o` where `∗` is circular
//!   convolution, `(r ∗ s)_j = Σ_k r_k s_{(j−k) mod l}` — the
//!   `score_objects` query;
//! * as a function of `s`: `f = (r ⋆ o) · s` — the `score_subjects` query.
//!
//! Gradients follow directly: `∂f/∂r = s ⋆ o`, `∂f/∂s = r ⋆ o`,
//! `∂f/∂o = r ∗ s`.

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

/// The HolE model.
pub struct HolE {
    params: Parameters,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
}

impl HolE {
    /// Creates a Xavier-initialized HolE model.
    pub fn new(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entities = ParamTable::zeros(num_entities, dim);
        let mut relations = ParamTable::zeros(num_relations, dim);
        init::xavier_uniform(&mut entities, &mut rng);
        init::xavier_uniform(&mut relations, &mut rng);
        HolE {
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

    /// Circular correlation `(a ⋆ b)_k = Σᵢ aᵢ b_{(k+i) mod l}`.
    fn correlate(a: &[f32], b: &[f32], out: &mut [f32]) {
        let l = a.len();
        for (k, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (i, &ai) in a.iter().enumerate() {
                acc += ai * b[(k + i) % l];
            }
            *slot = acc;
        }
    }

    /// Circular convolution `(a ∗ b)_j = Σ_k a_k b_{(j−k) mod l}`.
    fn convolve(a: &[f32], b: &[f32], out: &mut [f32]) {
        let l = a.len();
        for (j, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &ak) in a.iter().enumerate() {
                acc += ak * b[(j + l - k) % l];
            }
            *slot = acc;
        }
    }

    fn dot_all_entities(&self, query: &[f32], out: &mut [f32]) {
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = dot(query, self.entity(EntityId(e as u32)));
        }
    }
}

impl KgeModel for HolE {
    fn kind(&self) -> ModelKind {
        ModelKind::HolE
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
        let mut corr = vec![0.0; self.dim];
        Self::correlate(s, o, &mut corr);
        dot(r, &corr)
    }

    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let mut query = vec![0.0; self.dim];
        Self::convolve(self.relation(r), self.entity(s), &mut query);
        self.dot_all_entities(&query, out);
    }

    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let mut query = vec![0.0; self.dim];
        Self::correlate(self.relation(r), self.entity(o), &mut query);
        self.dot_all_entities(&query, out);
    }

    fn score_objects_batch(&self, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut qvecs = vec![0.0; queries.len() * self.dim];
        for (qvec, &(s, r)) in qvecs.chunks_mut(self.dim).zip(queries) {
            Self::convolve(self.relation(r), self.entity(s), qvec);
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn score_subjects_batch(&self, queries: &[(RelationId, EntityId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut qvecs = vec![0.0; queries.len() * self.dim];
        for (qvec, &(r, o)) in qvecs.chunks_mut(self.dim).zip(queries) {
            Self::correlate(self.relation(r), self.entity(o), qvec);
        }
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients) {
        let s = self.entity(t.subject);
        let r = self.relation(t.relation);
        let o = self.entity(t.object);
        let mut buf = vec![0.0; self.dim];

        Self::correlate(r, o, &mut buf); // ∂f/∂s
        grads.add(ENTITY_TABLE, t.subject.index(), &buf, upstream);
        Self::correlate(s, o, &mut buf); // ∂f/∂r
        grads.add(RELATION_TABLE, t.relation.index(), &buf, upstream);
        Self::convolve(r, s, &mut buf); // ∂f/∂o
        grads.add(ENTITY_TABLE, t.object.index(), &buf, upstream);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-vs-score comparisons read better indexed
mod tests {
    use super::*;
    use crate::models::gradcheck::check_gradients;

    #[test]
    fn correlation_matches_paper_formula() {
        // (s ⋆ o)_k = Σ_i s_i o_{(k+i) mod l}, hand-checked for l = 3.
        let s = [1.0, 2.0, 3.0];
        let o = [4.0, 5.0, 6.0];
        let mut out = [0.0; 3];
        HolE::correlate(&s, &o, &mut out);
        // k=0: 1·4 + 2·5 + 3·6 = 32
        // k=1: 1·5 + 2·6 + 3·4 = 29
        // k=2: 1·6 + 2·4 + 3·5 = 29
        assert_eq!(out, [32.0, 29.0, 29.0]);
    }

    #[test]
    fn convolution_is_adjoint_of_correlation() {
        // f = r · (s ⋆ o) = (r ∗ s) · o must hold for arbitrary vectors.
        let r = [0.5, -1.0, 2.0, 0.25];
        let s = [1.0, 2.0, -1.0, 0.5];
        let o = [-2.0, 1.0, 0.0, 3.0];
        let mut corr = [0.0; 4];
        HolE::correlate(&s, &o, &mut corr);
        let direct = dot(&r, &corr);
        let mut conv = [0.0; 4];
        HolE::convolve(&r, &s, &mut conv);
        let via_conv = dot(&conv, &o);
        assert!((direct - via_conv).abs() < 1e-5, "{direct} vs {via_conv}");
    }

    #[test]
    fn batched_kernels_match_pointwise_scores() {
        let m = HolE::new(5, 2, 4, 7);
        let mut out = vec![0.0; 5];
        m.score_objects(EntityId(3), RelationId(1), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(3u32, 1u32, e as u32))).abs() < 1e-5);
        }
        m.score_subjects(RelationId(0), EntityId(1), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(e as u32, 0u32, 1u32))).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut m = HolE::new(4, 2, 6, 11);
        check_gradients(&mut m, Triple::new(0u32, 1u32, 2u32), 1e-2);
        check_gradients(&mut m, Triple::new(1u32, 0u32, 1u32), 1e-2);
    }
}
