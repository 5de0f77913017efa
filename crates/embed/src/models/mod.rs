//! The concrete scoring models (paper §2.1) with hand-derived gradients.
//!
//! Each module documents its scoring function and the closed-form gradient
//! it implements; every module carries a finite-difference gradient check
//! (see `gradcheck`) so a derivation error cannot survive `cargo test`.

mod complex;
mod conve;
mod distmult;
mod hole;
mod rescal;
mod transe;

pub use complex::ComplEx;
pub use conve::ConvE;
pub use distmult::DistMult;
pub use hole::HolE;
pub use rescal::Rescal;
pub use transe::{Distance, TransE};

use crate::{KgeModel, ModelKind};

/// Constructs a freshly initialized model of the given kind.
///
/// `dim` is the entity-embedding width; for [`ModelKind::ComplEx`] it must be
/// even (half real, half imaginary), for [`ModelKind::ConvE`] it must be
/// expressible as `h × w` with `h, w ≥ 3` (the reshape grid).
pub fn new_model(
    kind: ModelKind,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    seed: u64,
) -> Box<dyn KgeModel> {
    match kind {
        ModelKind::TransE => Box::new(TransE::new(
            num_entities,
            num_relations,
            dim,
            Distance::L1,
            seed,
        )),
        ModelKind::DistMult => Box::new(DistMult::new(num_entities, num_relations, dim, seed)),
        ModelKind::ComplEx => Box::new(ComplEx::new(num_entities, num_relations, dim, seed)),
        ModelKind::Rescal => Box::new(Rescal::new(num_entities, num_relations, dim, seed)),
        ModelKind::HolE => Box::new(HolE::new(num_entities, num_relations, dim, seed)),
        ModelKind::ConvE => Box::new(ConvE::new(num_entities, num_relations, dim, seed)),
    }
}

/// Finite-difference gradient checking, shared by every model's tests.
#[cfg(test)]
pub(crate) mod gradcheck {
    use crate::{Gradients, KgeModel};
    use kgfd_kg::Triple;

    /// Verifies `backward` against central finite differences on every
    /// parameter the backward pass touched.
    pub fn check_gradients(model: &mut dyn KgeModel, t: Triple, tol: f32) {
        let mut grads = Gradients::new();
        model.backward(t, 1.0, &mut grads);
        assert!(!grads.is_empty(), "backward touched no parameters");

        let eps = 1e-3f32;
        let touched: Vec<(usize, usize, Vec<f32>)> = grads
            .iter()
            .map(|(table, row, g)| (table, row, g.to_vec()))
            .collect();
        for (table, row, analytic) in touched {
            #[allow(clippy::needless_range_loop)] // col also indexes the params row
            for col in 0..analytic.len() {
                let original = model.params().table(table).row(row)[col];

                model.params_mut().table_mut(table).row_mut(row)[col] = original + eps;
                let plus = model.score(t);
                model.params_mut().table_mut(table).row_mut(row)[col] = original - eps;
                let minus = model.score(t);
                model.params_mut().table_mut(table).row_mut(row)[col] = original;

                let numeric = (plus - minus) / (2.0 * eps);
                let diff = (numeric - analytic[col]).abs();
                let scale = numeric.abs().max(analytic[col].abs()).max(1.0);
                assert!(
                    diff / scale < tol,
                    "grad mismatch at table {table} row {row} col {col}: \
                     numeric {numeric} vs analytic {}",
                    analytic[col]
                );
            }
        }
    }
}
