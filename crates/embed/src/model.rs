//! The scoring-model abstraction: every KGE model of the paper behind one
//! object-safe trait.

use crate::{Gradients, Parameters};
use kgfd_kg::{EntityId, RelationId, Triple};
use serde::{Deserialize, Serialize};

/// The embedding models evaluated by the paper (§2.1 and §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Translation-based (Bordes et al. 2013): `f = −d(s + r, o)`.
    TransE,
    /// Diagonal bilinear (Yang et al. 2014): `f = sᵀ diag(r) o`.
    DistMult,
    /// Complex-valued bilinear (Trouillon et al. 2016): `f = Re(sᵀ diag(r) ō)`.
    ComplEx,
    /// Full bilinear (Nickel et al. 2011): `f = sᵀ R o`.
    Rescal,
    /// Holographic (Nickel et al. 2016): `f = rᵀ (s ⋆ o)` (circular correlation).
    HolE,
    /// Convolutional (Dettmers et al. 2018), the "ConvE-lite" variant of
    /// DESIGN.md: conv → ReLU → FC → ReLU → dot, trained with reciprocal
    /// relations as in LibKGE.
    ConvE,
}

impl ModelKind {
    /// All model kinds: the paper's grid, then HolE (paper §2.1).
    pub const ALL: [ModelKind; 6] = [
        ModelKind::ComplEx,
        ModelKind::ConvE,
        ModelKind::DistMult,
        ModelKind::Rescal,
        ModelKind::TransE,
        ModelKind::HolE,
    ];

    /// The five kinds used in the paper's experimental grid (§4: ComplEx,
    /// ConvE, DistMult, RESCAL, TransE; HolE is described in §2 but not run).
    pub const PAPER_GRID: [ModelKind; 5] = [
        ModelKind::ComplEx,
        ModelKind::ConvE,
        ModelKind::DistMult,
        ModelKind::Rescal,
        ModelKind::TransE,
    ];

    /// Short lowercase name (stable, used in reports and persistence).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::TransE => "transe",
            ModelKind::DistMult => "distmult",
            ModelKind::ComplEx => "complex",
            ModelKind::Rescal => "rescal",
            ModelKind::HolE => "hole",
            ModelKind::ConvE => "conve",
        }
    }

    /// Parses a name produced by [`ModelKind::name`].
    pub fn from_name(name: &str) -> Option<ModelKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Stable numeric tag for binary persistence.
    pub(crate) fn tag(self) -> u8 {
        match self {
            ModelKind::TransE => 0,
            ModelKind::DistMult => 1,
            ModelKind::ComplEx => 2,
            ModelKind::Rescal => 3,
            ModelKind::HolE => 4,
            ModelKind::ConvE => 5,
        }
    }

    /// Inverse of [`ModelKind::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<ModelKind> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// The name of the retired kind that `tag` stood for. Tags 6–8 belonged
    /// to RotatE, SimplE and TuckER, which are no longer built; they stay
    /// reserved so a file of one of them is refused by name.
    pub(crate) fn retired_name(tag: u8) -> Option<&'static str> {
        match tag {
            6 => Some("rotate"),
            7 => Some("simple"),
            8 => Some("tucker"),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The complete constructor configuration of a model: everything needed to
/// rebuild an architecturally identical (untrained) instance of the same
/// scoring function. This is the config block the v2 persistence format
/// embeds verbatim, so a reloaded model can never differ in configuration
/// from the one that was saved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Scoring function.
    pub kind: ModelKind,
    /// Entity count `N`.
    pub num_entities: usize,
    /// Logical relation count `K` (excluding reciprocal shadow relations).
    pub num_relations: usize,
    /// Entity-embedding width `l`.
    pub dim: usize,
    /// TransE's distance measure; `None` for every other kind.
    pub distance: Option<crate::models::Distance>,
}

impl ModelConfig {
    /// Constructs a freshly initialized model matching this configuration.
    pub fn build(&self, seed: u64) -> Box<dyn KgeModel> {
        match (self.kind, self.distance) {
            (ModelKind::TransE, Some(d)) => Box::new(crate::models::TransE::new(
                self.num_entities,
                self.num_relations,
                self.dim,
                d,
                seed,
            )),
            // `new_model` defaults TransE to L1; every other kind carries no
            // extra configuration.
            _ => crate::new_model(
                self.kind,
                self.num_entities,
                self.num_relations,
                self.dim,
                seed,
            ),
        }
    }

    /// The `(rows, cols)` of every table [`build`](Self::build) allocates,
    /// or why `build` would panic: a dim the kind cannot lay out, or a table
    /// size that overflows `usize`. Allocates nothing, so an untrusted
    /// config can be checked before it is built.
    pub(crate) fn table_shapes(&self) -> Result<Vec<(usize, usize)>, String> {
        let (n, k, d) = (self.num_entities, self.num_relations, self.dim);
        let kind = self.kind;
        Ok(match kind {
            ModelKind::TransE | ModelKind::DistMult | ModelKind::HolE => vec![(n, d), (k, d)],
            ModelKind::ComplEx if !d.is_multiple_of(2) => {
                return Err(format!("{kind} needs an even dim, got {d}"))
            }
            ModelKind::ComplEx => vec![(n, d), (k, d)],
            ModelKind::Rescal => {
                let square = d
                    .checked_mul(d)
                    .ok_or_else(|| format!("{kind} tables of dim {d} overflow"))?;
                vec![(n, d), (k, square)]
            }
            ModelKind::ConvE => crate::models::ConvE::table_shapes(n, k, d).ok_or_else(|| {
                format!(
                    "{kind} cannot lay out {k} relations at dim {d} \
                     (dim must factor as h×w with h≥2, w≥3)"
                )
            })?,
        })
    }
}

/// A trained (or trainable) knowledge-graph embedding model.
///
/// Scores are "higher = more plausible". The two batched kernels
/// ([`score_objects`](KgeModel::score_objects) /
/// [`score_subjects`](KgeModel::score_subjects)) fill a caller-provided
/// buffer with the score of every entity substituted into one side — the
/// primitive both the evaluation protocol and the discovery algorithm's
/// ranking step are built on.
pub trait KgeModel: Send + Sync {
    /// Which scoring function this is.
    fn kind(&self) -> ModelKind;

    /// Entity count `N`.
    fn num_entities(&self) -> usize;

    /// Logical relation count `K` (excluding reciprocal shadow relations).
    fn num_relations(&self) -> usize;

    /// Embedding width `l` of entity vectors.
    fn dim(&self) -> usize;

    /// The full constructor configuration. Persisted verbatim by the v2
    /// model format; [`ModelConfig::build`] reconstructs the architecture.
    /// Required (not defaulted) so a model with extra configuration — like
    /// TransE's distance — cannot silently persist an incomplete config.
    fn config(&self) -> ModelConfig;

    /// The underlying parameter tables.
    fn params(&self) -> &Parameters;

    /// Mutable parameter tables (used by the optimizer).
    fn params_mut(&mut self) -> &mut Parameters;

    /// Plausibility score of one triple.
    fn score(&self, t: Triple) -> f32;

    /// Fills `out[e] = score(s, r, e)` for every entity `e`.
    /// `out.len()` must be `num_entities()`.
    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]);

    /// Fills `out[e] = score(e, r, o)` for every entity `e`.
    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]);

    /// Scores a batch of object-side queries in one call:
    /// `out[q * num_entities() + e] = score(queries[q].0, queries[q].1, e)`.
    /// `out.len()` must be `queries.len() * num_entities()`.
    ///
    /// The default loops [`score_objects`](KgeModel::score_objects). The
    /// dot-product-family models and ConvE override it with a query-lane
    /// sweep (see `crate::batch`): it reads each entity row once per tile
    /// of queries, folds a block of entity rows per pass over the tile, and
    /// each query's lane folds its reduction over `dim` in the single-query
    /// order from the same starting value, so batched scores are
    /// **bit-identical** to looped ones — ranks computed from either path
    /// are equal. The sweep runs as AVX2 code on a CPU that has it and as
    /// portable code otherwise ([`crate::kernel_path`] says which); both
    /// give the same bits.
    fn score_objects_batch(&self, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        let n = self.num_entities();
        debug_assert_eq!(out.len(), queries.len() * n);
        for (&(s, r), row) in queries.iter().zip(out.chunks_mut(n)) {
            self.score_objects(s, r, row);
        }
    }

    /// Scores a batch of subject-side queries in one call:
    /// `out[q * num_entities() + e] = score(e, queries[q].0, queries[q].1)`.
    /// `out.len()` must be `queries.len() * num_entities()`. Same
    /// bit-identical contract as
    /// [`score_objects_batch`](KgeModel::score_objects_batch).
    fn score_subjects_batch(&self, queries: &[(RelationId, EntityId)], out: &mut [f32]) {
        let n = self.num_entities();
        debug_assert_eq!(out.len(), queries.len() * n);
        for (&(r, o), row) in queries.iter().zip(out.chunks_mut(n)) {
            self.score_subjects(r, o, row);
        }
    }

    /// Accumulates `upstream · ∂score(t)/∂θ` into `grads`.
    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients);

    /// `true` if the model is trained with reciprocal relations (the trainer
    /// then augments each triple `(s, r, o)` with `(o, r + K, s)` and
    /// corrupts only objects, as LibKGE does for ConvE).
    fn reciprocal(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shapes_match_the_built_tables() {
        for kind in ModelKind::ALL {
            for dim in [6, 12] {
                let model = crate::new_model(kind, 5, 3, dim, 0);
                let built: Vec<(usize, usize)> = model
                    .params()
                    .tables()
                    .iter()
                    .map(|t| (t.rows(), t.cols()))
                    .collect();
                assert_eq!(
                    model.config().table_shapes(),
                    Ok(built),
                    "{kind} at dim {dim}"
                );
            }
        }
    }

    #[test]
    fn table_shapes_reject_dims_build_would_panic_on() {
        let config = |kind, dim| ModelConfig {
            kind,
            num_entities: 5,
            num_relations: 3,
            dim,
            distance: None,
        };
        assert!(config(ModelKind::ComplEx, 7).table_shapes().is_err());
        assert!(config(ModelKind::ConvE, 7).table_shapes().is_err());
        assert!(config(ModelKind::Rescal, 1 << 33).table_shapes().is_err());
        assert!(config(ModelKind::ConvE, usize::MAX).table_shapes().is_err());
    }

    #[test]
    fn names_roundtrip() {
        for k in ModelKind::ALL {
            assert_eq!(ModelKind::from_name(k.name()), Some(k));
            assert_eq!(ModelKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(ModelKind::from_name("nope"), None);
        assert_eq!(ModelKind::from_tag(200), None);
    }

    #[test]
    fn paper_grid_is_five_models() {
        assert_eq!(ModelKind::PAPER_GRID.len(), 5);
        assert!(!ModelKind::PAPER_GRID.contains(&ModelKind::HolE));
    }
}
