//! TransE (Bordes et al. 2013): `f(s, r, o) = −d(s + r, o)`.
//!
//! Gradients (for `d = s + r − o`):
//! * L2: `∂f/∂s = ∂f/∂r = −d/‖d‖`, `∂f/∂o = +d/‖d‖` (zero at `d = 0`);
//! * L1: `∂f/∂s = ∂f/∂r = −sign(d)`, `∂f/∂o = +sign(d)`.
//!
//! Batched kernels exploit that both queries reduce to "distance from each
//! entity row to a fixed point": `score_objects` measures to `s + r`,
//! `score_subjects` to `o − r`.

use crate::batch::{l1_step, l2_step};
use crate::math::{add_scaled, l1_distance, l2_distance};
use crate::{
    init, Gradients, KgeModel, ModelConfig, ModelKind, ParamTable, Parameters, ENTITY_TABLE,
    RELATION_TABLE,
};
use kgfd_kg::{EntityId, RelationId, Triple};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Distance measure of the TransE scoring function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Distance {
    /// Manhattan distance (the common default for TransE).
    L1,
    /// Euclidean distance.
    L2,
}

/// The TransE model.
pub struct TransE {
    params: Parameters,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    distance: Distance,
}

impl TransE {
    /// Creates a Xavier-initialized TransE model.
    pub fn new(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        distance: Distance,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entities = ParamTable::zeros(num_entities, dim);
        let mut relations = ParamTable::zeros(num_relations, dim);
        init::xavier_uniform(&mut entities, &mut rng);
        init::xavier_uniform(&mut relations, &mut rng);
        TransE {
            params: Parameters::new(vec![entities, relations]),
            num_entities,
            num_relations,
            dim,
            distance,
        }
    }

    /// The configured distance measure.
    pub fn distance(&self) -> Distance {
        self.distance
    }

    #[inline]
    fn entity(&self, e: EntityId) -> &[f32] {
        self.params.table(ENTITY_TABLE).row(e.index())
    }

    #[inline]
    fn relation(&self, r: RelationId) -> &[f32] {
        self.params.table(RELATION_TABLE).row(r.index())
    }

    fn neg_distance_to(&self, point: &[f32], e: EntityId) -> f32 {
        let row = self.entity(e);
        match self.distance {
            Distance::L1 => -l1_distance(row, point),
            Distance::L2 => -l2_distance(row, point),
        }
    }
}

impl KgeModel for TransE {
    fn kind(&self) -> ModelKind {
        ModelKind::TransE
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
            distance: Some(self.distance),
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
        match self.distance {
            Distance::L1 => -s
                .iter()
                .zip(r)
                .zip(o)
                .map(|((a, b), c)| (a + b - c).abs())
                .sum::<f32>(),
            Distance::L2 => -s
                .iter()
                .zip(r)
                .zip(o)
                .map(|((a, b), c)| {
                    let d = a + b - c;
                    d * d
                })
                .sum::<f32>()
                .sqrt(),
        }
    }

    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let mut point = self.entity(s).to_vec();
        add_scaled(&mut point, self.relation(r), 1.0);
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = self.neg_distance_to(&point, EntityId(e as u32));
        }
    }

    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let mut point = self.entity(o).to_vec();
        add_scaled(&mut point, self.relation(r), -1.0);
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = self.neg_distance_to(&point, EntityId(e as u32));
        }
    }

    fn score_objects_batch(&self, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut points = vec![0.0; queries.len() * self.dim];
        for (point, &(s, r)) in points.chunks_mut(self.dim).zip(queries) {
            point.copy_from_slice(self.entity(s));
            add_scaled(point, self.relation(r), 1.0);
        }
        let entities = self.params.table(ENTITY_TABLE);
        match self.distance {
            Distance::L1 => {
                crate::batch::sweep(entities, &points, self.dim, out, l1_step, |acc| -acc)
            }
            Distance::L2 => {
                crate::batch::sweep(entities, &points, self.dim, out, l2_step, |acc| -acc.sqrt())
            }
        }
    }

    fn score_subjects_batch(&self, queries: &[(RelationId, EntityId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let mut points = vec![0.0; queries.len() * self.dim];
        for (point, &(r, o)) in points.chunks_mut(self.dim).zip(queries) {
            point.copy_from_slice(self.entity(o));
            add_scaled(point, self.relation(r), -1.0);
        }
        let entities = self.params.table(ENTITY_TABLE);
        match self.distance {
            Distance::L1 => {
                crate::batch::sweep(entities, &points, self.dim, out, l1_step, |acc| -acc)
            }
            Distance::L2 => {
                crate::batch::sweep(entities, &points, self.dim, out, l2_step, |acc| -acc.sqrt())
            }
        }
    }

    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients) {
        let s = self.entity(t.subject);
        let r = self.relation(t.relation);
        let o = self.entity(t.object);
        let mut d: Vec<f32> = s
            .iter()
            .zip(r)
            .zip(o)
            .map(|((a, b), c)| a + b - c)
            .collect();
        match self.distance {
            Distance::L1 => {
                for v in &mut d {
                    *v = v.signum();
                }
            }
            Distance::L2 => {
                let norm = crate::math::norm2_sq(&d).sqrt();
                if norm < 1e-12 {
                    return;
                }
                for v in &mut d {
                    *v /= norm;
                }
            }
        }
        // f = −‖d‖ → ∂f/∂s = −unit(d), ∂f/∂o = +unit(d).
        grads.add(ENTITY_TABLE, t.subject.index(), &d, -upstream);
        grads.add(RELATION_TABLE, t.relation.index(), &d, -upstream);
        grads.add(ENTITY_TABLE, t.object.index(), &d, upstream);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-vs-score comparisons read better indexed
mod tests {
    use super::*;
    use crate::models::gradcheck::check_gradients;

    fn set_rows(m: &mut TransE) {
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(0)
            .copy_from_slice(&[1.0, 0.0]);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(1)
            .copy_from_slice(&[1.0, 2.0]);
        m.params_mut()
            .table_mut(RELATION_TABLE)
            .row_mut(0)
            .copy_from_slice(&[0.0, 2.0]);
    }

    #[test]
    fn perfect_translation_scores_zero() {
        let mut m = TransE::new(3, 1, 2, Distance::L2, 0);
        set_rows(&mut m);
        // s + r = (1, 2) = o → distance 0 → score 0 (maximum).
        assert!((m.score(Triple::new(0u32, 0u32, 1u32)) - 0.0).abs() < 1e-6);
        assert!(m.score(Triple::new(0u32, 0u32, 2u32)) < 0.0);
    }

    #[test]
    fn l1_score_matches_hand_computation() {
        let mut m = TransE::new(3, 1, 2, Distance::L1, 0);
        set_rows(&mut m);
        m.params_mut()
            .table_mut(ENTITY_TABLE)
            .row_mut(2)
            .copy_from_slice(&[0.0, 0.0]);
        // |1+0−0| + |0+2−0| = 3 → score −3.
        assert!((m.score(Triple::new(0u32, 0u32, 2u32)) + 3.0).abs() < 1e-6);
    }

    #[test]
    fn batched_kernels_match_pointwise_scores() {
        let m = TransE::new(5, 2, 4, Distance::L2, 7);
        let mut out = vec![0.0; 5];
        m.score_objects(EntityId(1), RelationId(0), &mut out);
        for e in 0..5 {
            let direct = m.score(Triple::new(1u32, 0u32, e as u32));
            assert!((out[e] - direct).abs() < 1e-5);
        }
        m.score_subjects(RelationId(1), EntityId(3), &mut out);
        for e in 0..5 {
            let direct = m.score(Triple::new(e as u32, 1u32, 3u32));
            assert!((out[e] - direct).abs() < 1e-5);
        }
    }

    #[test]
    fn l2_gradients_pass_finite_difference_check() {
        let mut m = TransE::new(4, 2, 6, Distance::L2, 11);
        check_gradients(&mut m, Triple::new(0u32, 1u32, 2u32), 1e-2);
    }

    #[test]
    fn l1_gradients_pass_finite_difference_check() {
        // L1 is only subdifferentiable; seeded init keeps components far
        // from zero so finite differences are valid.
        let mut m = TransE::new(4, 2, 6, Distance::L1, 13);
        check_gradients(&mut m, Triple::new(1u32, 0u32, 3u32), 1e-2);
    }

    #[test]
    fn self_loop_gradient_cancels_on_entity() {
        // For t = (e, r, e) with L2: ∂f/∂e = −u + u = 0.
        let m = TransE::new(3, 1, 4, Distance::L2, 3);
        let mut g = Gradients::new();
        m.backward(Triple::new(0u32, 0u32, 0u32), 1.0, &mut g);
        let ge = g.get(ENTITY_TABLE, 0).unwrap();
        assert!(ge.iter().all(|v| v.abs() < 1e-6));
        // keep m alive for params access
        let _ = m.params();
    }
}
