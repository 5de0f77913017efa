//! # kgfd-harness — the paper's experimental workflow, reproducible
//!
//! Implements the workflow of the paper's Figure 1 — dataset selection →
//! KGE training (with a disk-cached [model zoo](trained_model)) → fact
//! discovery → metrics — and one regenerator per table/figure of the
//! evaluation section (see [`figures`] and DESIGN.md §4).
//!
//! Two entry points produce all shared measurements:
//! * [`run_grid`] — the 4 × 5 × 5 grid behind Figures 2, 4, and 6;
//! * [`run_sweep`] — the `max_candidates` × `top_n` sweeps behind
//!   Figures 7–10.
//!
//! `kgfd repro` (in `kgfd-cli`) drives everything:
//! `kgfd repro --target all --scale mini`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod experiment;
mod experiments_md;
pub mod figures;
mod grid;
mod output;
mod sweep;
mod zoo;

/// Serializes the unit tests that write or drain the process-wide recovery
/// log: the zoo's eviction tests, and every grid or sweep run, whose cell
/// manifests drain it.
#[cfg(test)]
fn recovery_log_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use experiment::{DatasetRef, Scale};
pub use experiments_md::render as render_experiments_md;
pub use grid::{run_grid, GridCell, GridOptions, GridResults};
pub use output::{results_dir, write_json, TextTable};
pub use sweep::{
    run_sweep, SweepCell, SweepOptions, SweepResults, MAX_CANDIDATES_VALUES, TOP_N_VALUES,
};
pub use zoo::{cache_dir, train_config, trained_model};
