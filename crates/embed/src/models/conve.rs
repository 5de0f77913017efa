//! ConvE-lite (after Dettmers et al. 2018): the convolutional scorer used by
//! the paper's experimental grid, in the simplified form documented in
//! DESIGN.md (no batch-norm or dropout; LibKGE-style reciprocal relations).
//!
//! Forward pass for `score(s, r, o)`:
//! 1. reshape `s` and `r` (each `l = h × w`) and stack them into a
//!    `2h × w` "image";
//! 2. convolve with `F` 3×3 filters (valid padding) → `F × (2h−2) × (w−2)`
//!    feature maps, ReLU;
//! 3. flatten to `z` and project with a fully-connected matrix
//!    `W ∈ ℝ^{|z| × l}` → `v`, ReLU;
//! 4. `score = relu(v) · o`.
//!
//! Subject-side queries `(?, r, o)` are scored through the reciprocal
//! relation `r + K` as `score(o, r + K, ?)` — which is also why the model is
//! trained on reciprocal-augmented triples with object corruption only
//! (`KgeModel::reciprocal`). This keeps subject ranking a single forward
//! pass plus `N` dot products instead of `N` convolutions, and lets both
//! multi-query kernels build every query first and then fold the dots
//! through the shared entity-table sweep (`crate::batch`).
//!
//! The backward pass is standard backprop through the four stages, written
//! out by hand and covered by the finite-difference check.

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

/// Index of the convolution-filter table (one row per filter, 9 columns).
pub const FILTER_TABLE: usize = 2;
/// Index of the fully-connected table (`hidden` rows × `l` columns).
pub const FC_TABLE: usize = 3;

const KERNEL: usize = 3;
const FILTERS: usize = 8;

/// The ConvE-lite model.
pub struct ConvE {
    params: Parameters,
    num_entities: usize,
    /// Logical relation count; the relation table has `2 × num_relations`
    /// rows (forward + reciprocal).
    num_relations: usize,
    dim: usize,
    /// Reshape height of one embedding (image is `2h × w`).
    h: usize,
    w: usize,
}

/// Intermediate activations cached for the backward pass.
struct Forward {
    /// Stacked input image, row-major `2h × w`.
    image: Vec<f32>,
    /// Pre-ReLU conv outputs, `F × oh × ow` flattened.
    conv: Vec<f32>,
    /// Post-ReLU conv outputs.
    z: Vec<f32>,
    /// Pre-ReLU FC outputs, length `l`.
    v: Vec<f32>,
    /// Post-ReLU FC outputs (the entity-side query vector).
    vr: Vec<f32>,
}

impl ConvE {
    /// Creates a Xavier-initialized ConvE model. `dim` must factor as
    /// `h × w` with `h ≥ 2`, `w ≥ 3` (see [`reshape`](Self::reshape_dims)).
    pub fn new(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> Self {
        let (h, w) = Self::reshape_dims(dim)
            .unwrap_or_else(|| panic!("ConvE cannot reshape dim {dim} into h×w with h≥2, w≥3"));
        let (oh, ow) = (2 * h - KERNEL + 1, w - KERNEL + 1);
        let hidden = FILTERS * oh * ow;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut entities = ParamTable::zeros(num_entities, dim);
        let mut relations = ParamTable::zeros(2 * num_relations, dim);
        let mut filters = ParamTable::zeros(FILTERS, KERNEL * KERNEL);
        let mut fc = ParamTable::zeros(hidden, dim);
        init::xavier_uniform(&mut entities, &mut rng);
        init::xavier_uniform(&mut relations, &mut rng);
        init::xavier_uniform(&mut filters, &mut rng);
        init::xavier_uniform(&mut fc, &mut rng);

        ConvE {
            params: Parameters::new(vec![entities, relations, filters, fc]),
            num_entities,
            num_relations,
            dim,
            h,
            w,
        }
    }

    /// Picks the squarest `h × w = dim` factorization with `h ≥ 2`, `w ≥ 3`.
    pub fn reshape_dims(dim: usize) -> Option<(usize, usize)> {
        let mut best = None;
        for h in 2..=dim {
            // `h * h > dim` without overflow.
            if h > dim / h {
                break;
            }
            if dim.is_multiple_of(h) && dim / h >= KERNEL {
                best = Some((h, dim / h));
            }
        }
        best
    }

    /// `(rows, cols)` of the four tables [`ConvE::new`] allocates, or `None`
    /// when `dim` cannot reshape or a table size overflows `usize`. Dims
    /// above `u32::MAX` are refused without the O(√dim) reshape search: the
    /// fully connected table alone would hold over 2³⁶ floats.
    pub(crate) fn table_shapes(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
    ) -> Option<Vec<(usize, usize)>> {
        if dim > u32::MAX as usize {
            return None;
        }
        let (h, w) = Self::reshape_dims(dim)?;
        let hidden = (2 * h - KERNEL + 1)
            .checked_mul(w - KERNEL + 1)?
            .checked_mul(FILTERS)?;
        Some(vec![
            (num_entities, dim),
            (num_relations.checked_mul(2)?, dim),
            (FILTERS, KERNEL * KERNEL),
            (hidden, dim),
        ])
    }

    #[inline]
    fn entity(&self, e: EntityId) -> &[f32] {
        self.params.table(ENTITY_TABLE).row(e.index())
    }

    #[inline]
    fn relation_row(&self, r: usize) -> &[f32] {
        self.params.table(RELATION_TABLE).row(r)
    }

    fn out_dims(&self) -> (usize, usize) {
        (2 * self.h - KERNEL + 1, self.w - KERNEL + 1)
    }

    fn forward(&self, s: &[f32], r: &[f32]) -> Forward {
        let (ih, iw) = (2 * self.h, self.w);
        let (oh, ow) = self.out_dims();
        let mut image = Vec::with_capacity(ih * iw);
        image.extend_from_slice(s);
        image.extend_from_slice(r);

        let filters = self.params.table(FILTER_TABLE);
        let mut conv = vec![0.0f32; FILTERS * oh * ow];
        for f in 0..FILTERS {
            let k = filters.row(f);
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = 0.0;
                    for dy in 0..KERNEL {
                        let row = &image[(y + dy) * iw + x..(y + dy) * iw + x + KERNEL];
                        let krow = &k[dy * KERNEL..dy * KERNEL + KERNEL];
                        acc += row[0] * krow[0] + row[1] * krow[1] + row[2] * krow[2];
                    }
                    conv[(f * oh + y) * ow + x] = acc;
                }
            }
        }
        let z: Vec<f32> = conv.iter().map(|&c| c.max(0.0)).collect();

        let fc = self.params.table(FC_TABLE);
        let mut v = vec![0.0f32; self.dim];
        for (m, &zm) in z.iter().enumerate() {
            if zm != 0.0 {
                crate::math::add_scaled(&mut v, fc.row(m), zm);
            }
        }
        let vr: Vec<f32> = v.iter().map(|&x| x.max(0.0)).collect();
        Forward {
            image,
            conv,
            z,
            v,
            vr,
        }
    }

    fn query(&self, s: EntityId, relation_row: usize) -> Vec<f32> {
        self.forward(self.entity(s), self.relation_row(relation_row))
            .vr
    }

    fn dot_all_entities(&self, query: &[f32], out: &mut [f32]) {
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = dot(query, self.entity(EntityId(e as u32)));
        }
    }
}

impl KgeModel for ConvE {
    fn kind(&self) -> ModelKind {
        ModelKind::ConvE
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
        // Training triples may carry reciprocal relation ids in K..2K.
        let q = self.query(t.subject, t.relation.index());
        dot(&q, self.entity(t.object))
    }

    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        let q = self.query(s, r.index());
        self.dot_all_entities(&q, out);
    }

    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_entities);
        // (?, r, o) through the reciprocal path: score(o, r + K, ?).
        let q = self.query(o, self.num_relations + r.index());
        self.dot_all_entities(&q, out);
    }

    fn score_objects_batch(&self, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        let qvecs: Vec<f32> = queries
            .iter()
            .flat_map(|&(s, r)| self.query(s, r.index()))
            .collect();
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn score_subjects_batch(&self, queries: &[(RelationId, EntityId)], out: &mut [f32]) {
        debug_assert_eq!(out.len(), queries.len() * self.num_entities);
        // Reciprocal queries, as in `score_subjects`.
        let qvecs: Vec<f32> = queries
            .iter()
            .flat_map(|&(r, o)| self.query(o, self.num_relations + r.index()))
            .collect();
        let entities = self.params.table(ENTITY_TABLE);
        crate::batch::sweep(entities, &qvecs, self.dim, out, dot_step, identity);
    }

    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients) {
        let (ih, iw) = (2 * self.h, self.w);
        let (oh, ow) = self.out_dims();
        let s = self.entity(t.subject);
        let r = self.relation_row(t.relation.index());
        let o = self.entity(t.object);
        let fwd = self.forward(s, r);

        // score = relu(v) · o
        grads.add(ENTITY_TABLE, t.object.index(), &fwd.vr, upstream);
        let dv: Vec<f32> = fwd
            .v
            .iter()
            .zip(o)
            .map(|(&vj, &oj)| if vj > 0.0 { oj * upstream } else { 0.0 })
            .collect();

        // v = Σ_m z_m W_m  →  dW_m = z_m dv,  dz_m = W_m · dv
        let fc = self.params.table(FC_TABLE);
        let mut dc = vec![0.0f32; fwd.z.len()];
        for (m, &zm) in fwd.z.iter().enumerate() {
            if zm != 0.0 {
                grads.add(FC_TABLE, m, &dv, zm);
            }
            if fwd.conv[m] > 0.0 {
                dc[m] = dot(fc.row(m), &dv);
            }
        }

        // Convolution backward: filters and image.
        let mut dimage = vec![0.0f32; ih * iw];
        for f in 0..FILTERS {
            let k = self.params.table(FILTER_TABLE).row(f);
            let dk = grads.slot(FILTER_TABLE, f, KERNEL * KERNEL);
            for y in 0..oh {
                for x in 0..ow {
                    let g = dc[(f * oh + y) * ow + x];
                    if g == 0.0 {
                        continue;
                    }
                    for dy in 0..KERNEL {
                        for dx in 0..KERNEL {
                            dk[dy * KERNEL + dx] += g * fwd.image[(y + dy) * iw + x + dx];
                        }
                    }
                }
            }
            // Second pass for the image gradient (dk borrow released above).
            for y in 0..oh {
                for x in 0..ow {
                    let g = dc[(f * oh + y) * ow + x];
                    if g == 0.0 {
                        continue;
                    }
                    for dy in 0..KERNEL {
                        for dx in 0..KERNEL {
                            dimage[(y + dy) * iw + x + dx] += g * k[dy * KERNEL + dx];
                        }
                    }
                }
            }
        }

        let half = self.h * self.w;
        grads.add(ENTITY_TABLE, t.subject.index(), &dimage[..half], 1.0);
        grads.add(RELATION_TABLE, t.relation.index(), &dimage[half..], 1.0);
    }

    fn reciprocal(&self) -> bool {
        true
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-vs-score comparisons read better indexed
mod tests {
    use super::*;
    use crate::models::gradcheck::check_gradients;

    #[test]
    fn reshape_prefers_squarest_factorization() {
        assert_eq!(ConvE::reshape_dims(32), Some((4, 8)));
        assert_eq!(ConvE::reshape_dims(64), Some((8, 8)));
        assert_eq!(ConvE::reshape_dims(12), Some((3, 4)));
        assert_eq!(ConvE::reshape_dims(7), None, "prime dims cannot reshape");
    }

    #[test]
    fn score_is_finite_and_model_shaped() {
        let m = ConvE::new(6, 3, 12, 0);
        assert_eq!(m.num_relations(), 3);
        assert_eq!(m.params().table(RELATION_TABLE).rows(), 6, "2K rows");
        let f = m.score(Triple::new(0u32, 1u32, 2u32));
        assert!(f.is_finite());
    }

    #[test]
    fn batched_object_kernel_matches_pointwise_scores() {
        let m = ConvE::new(5, 2, 12, 7);
        let mut out = vec![0.0; 5];
        m.score_objects(EntityId(1), RelationId(0), &mut out);
        for e in 0..5 {
            assert!((out[e] - m.score(Triple::new(1u32, 0u32, e as u32))).abs() < 1e-5);
        }
    }

    #[test]
    fn subject_kernel_uses_reciprocal_path() {
        let m = ConvE::new(5, 2, 12, 7);
        let mut out = vec![0.0; 5];
        m.score_subjects(RelationId(1), EntityId(3), &mut out);
        // Must equal scoring (3, r + K, e) on the forward path.
        for e in 0..5 {
            let recip = m.score(Triple::new(3u32, (2 + 1) as u32, e as u32));
            assert!((out[e] - recip).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        // ReLU kinks make finite differences noisy near zero activations;
        // the fixed seeds below keep activations away from kinks.
        let mut m = ConvE::new(4, 2, 12, 11);
        check_gradients(&mut m, Triple::new(0u32, 1u32, 2u32), 5e-2);
    }

    #[test]
    fn gradients_cover_reciprocal_relation_rows() {
        let m = ConvE::new(4, 2, 12, 3);
        let mut g = Gradients::new();
        // Relation id 3 = reciprocal row of logical relation 1 (K = 2).
        m.backward(Triple::new(0u32, 3u32, 1u32), 1.0, &mut g);
        assert!(g.get(RELATION_TABLE, 3).is_some());
    }
}
