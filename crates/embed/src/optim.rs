//! Adam with sparse (touched-rows-only) state updates.
//!
//! The paper trains every model with Adam (§2.1 "Training"). The moment
//! tables mirror the parameter tables; only the rows present in a batch's
//! [`Gradients`] are updated, which is the standard "sparse Adam"
//! arrangement for embeddings.
//!
//! [`Adam::step`] walks the gradient slab once, in its first-touch order,
//! and renormalizes a TransE entity row right after updating it. Each row's
//! update reads and writes only that row's parameters and moments, so the
//! visiting order cannot change a result: the same rows, updated in any
//! order, hold the same bits.

use crate::{Gradients, ParamTable, Parameters, ENTITY_TABLE};
use kgfd_kg::KgError;
use serde::{Deserialize, Serialize};

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Optimizer configuration. Adam is the only optimizer; the enum keeps its
/// variant name because [`crate::config_fingerprint`] hashes the
/// configuration's JSON (`{"Adam":{"lr":…}}`), so existing checkpoints
/// still resume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Adam (Kingma & Ba 2014) — the paper's optimizer.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

/// A complete snapshot of Adam's mutable state — everything beyond the
/// [`OptimizerKind`] configuration that influences future updates. The
/// checkpoint format persists this verbatim so a resumed run applies
/// *exactly* the update a straight-through run would have applied.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState {
    /// Number of optimizer steps taken (drives bias correction).
    pub t: u64,
    /// First-moment tables, shaped like the model parameters.
    pub m: Vec<ParamTable>,
    /// Second-moment tables, shaped like the model parameters.
    pub v: Vec<ParamTable>,
}

/// Adam over a model's parameter tables; gradients are of the *loss*
/// (descent direction is `−grad`).
pub(crate) struct Adam {
    lr: f32,
    state: OptimizerState,
}

impl Adam {
    /// Zero-initialized moments shaped like `params`.
    pub(crate) fn new(kind: OptimizerKind, params: &Parameters) -> Self {
        let OptimizerKind::Adam { lr } = kind;
        Adam {
            lr,
            state: OptimizerState {
                t: 0,
                m: mirror(params),
                v: mirror(params),
            },
        }
    }

    /// Restores a checkpointed snapshot. Both moment sets must mirror
    /// `params`' table shapes: a checkpoint that passed its checksum can
    /// still be paired with the wrong model by a confused caller.
    pub(crate) fn resume(
        kind: OptimizerKind,
        params: &Parameters,
        state: OptimizerState,
    ) -> Result<Self, KgError> {
        for (tables, what) in [(&state.m, "first-moment"), (&state.v, "second-moment")] {
            if !shapes_mirror(tables, params) {
                return Err(KgError::Corrupt(format!(
                    "optimizer {what} tables do not mirror the model parameter shapes"
                )));
            }
        }
        let OptimizerKind::Adam { lr } = kind;
        Ok(Adam { lr, state })
    }

    /// Applies one update for the accumulated batch gradients. With
    /// `normalize_entities`, every updated entity row is then scaled back
    /// to unit L2 norm (the TransE constraint).
    pub(crate) fn step(
        &mut self,
        params: &mut Parameters,
        grads: &Gradients,
        normalize_entities: bool,
    ) {
        let state = &mut self.state;
        state.t += 1;
        let bc1 = 1.0 - BETA1.powi(state.t as i32);
        let bc2 = 1.0 - BETA2.powi(state.t as i32);
        for (table, row, g) in grads.iter() {
            let m = state.m[table].row_mut(row);
            let v = state.v[table].row_mut(row);
            let p = params.table_mut(table).row_mut(row);
            for (((pi, mi), vi), &gi) in p.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
                *mi = BETA1 * *mi + (1.0 - BETA1) * gi;
                *vi = BETA2 * *vi + (1.0 - BETA2) * gi * gi;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *pi -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
            if normalize_entities && table == ENTITY_TABLE {
                crate::math::normalize_l2(p);
            }
        }
    }

    /// The mutable state, for checkpointing; feed it back through
    /// [`Adam::resume`] to continue with the exact same future updates.
    pub(crate) fn state(&self) -> &OptimizerState {
        &self.state
    }
}

fn mirror(params: &Parameters) -> Vec<ParamTable> {
    params
        .tables()
        .iter()
        .map(|t| ParamTable::zeros(t.rows(), t.cols()))
        .collect()
}

fn shapes_mirror(tables: &[ParamTable], params: &Parameters) -> bool {
    tables.len() == params.num_tables()
        && tables
            .iter()
            .zip(params.tables())
            .all(|(s, p)| s.rows() == p.rows() && s.cols() == p.cols())
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIND: OptimizerKind = OptimizerKind::Adam { lr: 0.1 };

    fn quadratic_params() -> Parameters {
        // One table, one row: minimize f(x) = Σ xᵢ² from x = (4, −2).
        Parameters::new(vec![ParamTable::from_data(1, 2, vec![4.0, -2.0])])
    }

    /// ∇f = 2x at the current parameters.
    fn quadratic_grad(params: &Parameters) -> Gradients {
        let mut g = Gradients::new();
        let x = params.table(0).row(0).to_vec();
        g.add(0, 0, &[2.0 * x[0], 2.0 * x[1]], 1.0);
        g
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = quadratic_params();
        let mut opt = Adam::new(KIND, &params);
        for _ in 0..500 {
            let g = quadratic_grad(&params);
            opt.step(&mut params, &g, false);
        }
        let x = params.table(0).row(0);
        assert!(x.iter().all(|v| v.abs() < 1e-2), "{x:?}");
    }

    #[test]
    fn untouched_rows_are_untouched() {
        let mut params =
            Parameters::new(vec![ParamTable::from_data(2, 2, vec![1.0, 1.0, 5.0, 5.0])]);
        let mut opt = Adam::new(KIND, &params);
        let mut g = Gradients::new();
        g.add(0, 0, &[1.0, 1.0], 1.0);
        opt.step(&mut params, &g, false);
        assert_eq!(params.table(0).row(1), &[5.0, 5.0]);
        assert_ne!(params.table(0).row(0), &[1.0, 1.0]);
    }

    /// State export + restore must reproduce the exact future update
    /// sequence: run K steps, snapshot, run K more; versus restore-from-
    /// snapshot and run the same K more. Bitwise equal.
    #[test]
    fn state_roundtrip_resumes_bit_identically() {
        let mut params = quadratic_params();
        let mut opt = Adam::new(KIND, &params);
        for _ in 0..7 {
            let g = quadratic_grad(&params);
            opt.step(&mut params, &g, false);
        }
        let snapshot = opt.state().clone();
        let params_snapshot = params.clone();

        for _ in 0..7 {
            let g = quadratic_grad(&params);
            opt.step(&mut params, &g, false);
        }

        let mut resumed_params = params_snapshot;
        let mut resumed = Adam::resume(KIND, &resumed_params, snapshot).unwrap();
        for _ in 0..7 {
            let g = quadratic_grad(&resumed_params);
            resumed.step(&mut resumed_params, &g, false);
        }
        assert_eq!(
            params.table(0).data(),
            resumed_params.table(0).data(),
            "Adam must resume bit-identically"
        );
    }

    #[test]
    fn mismatched_state_shape_is_rejected() {
        let params = quadratic_params();
        let wrong = OptimizerState {
            t: 3,
            m: vec![ParamTable::zeros(3, 9)],
            v: vec![ParamTable::zeros(3, 9)],
        };
        let err = Adam::resume(KIND, &params, wrong)
            .err()
            .expect("shape mismatch accepted");
        assert!(matches!(err, KgError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("mirror"), "{err}");
    }
}
