//! Model selection: validation-driven early stopping — the "Model
//! Training" step of the paper's workflow (§3.2).

use crate::evaluate_ranking;
use kgfd_embed::{KgeModel, ModelKind, TrainConfig, TrainSession};
use kgfd_kg::{KnownTriples, Triple, TripleStore};
use serde::{Deserialize, Serialize};

/// Early-stopping policy on validation MRR.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EarlyStopping {
    /// Evaluate every this many epochs.
    pub check_every: usize,
    /// Stop after this many consecutive non-improving checks.
    pub patience: usize,
    /// Minimum MRR improvement that counts as progress.
    pub min_delta: f64,
}

impl Default for EarlyStopping {
    fn default() -> Self {
        EarlyStopping {
            check_every: 5,
            patience: 2,
            min_delta: 1e-4,
        }
    }
}

/// Outcome of a validation-monitored training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectionStats {
    /// Validation MRR at each checkpoint.
    pub checkpoints: Vec<f64>,
    /// Best validation MRR seen (the returned model's parameters).
    pub best_mrr: f64,
    /// Total epochs actually trained.
    pub epochs_trained: usize,
}

/// Trains with early stopping on validation MRR. The returned model carries
/// the parameters of the *best* checkpoint, not the last one.
///
/// The loop drives one continuous [`TrainSession`] and merely pauses it at
/// every `check_every` boundary to evaluate — so the training trajectory is
/// *exactly* the plain [`kgfd_embed::train`] trajectory truncated at the
/// stopping point, bit for bit, independent of `check_every`. Two historical
/// defects made that false: each slice used to restart as its own training
/// call, which (a) re-derived its seed as
/// `seed + epochs_trained` — so adjacent user seeds collided onto shared RNG
/// streams — and (b) rebuilt the optimizer from zeroed state at every
/// boundary, silently discarding Adam's moments and step counter and making
/// the result depend on `check_every`. The regression tests below pin both
/// fixes.
pub fn train_with_early_stopping(
    kind: ModelKind,
    store: &TripleStore,
    valid: &[Triple],
    config: &TrainConfig,
    stopping: EarlyStopping,
) -> (Box<dyn KgeModel>, SelectionStats) {
    assert!(stopping.check_every > 0, "check_every must be positive");
    let mut session =
        TrainSession::new(kind, store, config).expect("invalid TrainConfig for early stopping");
    let known = KnownTriples::from_slices([store.triples(), valid]);

    let mut best_params = session.model().params().clone();
    let mut best_mrr = f64::NEG_INFINITY;
    let mut checkpoints = Vec::new();
    let mut bad_checks = 0usize;

    while !session.is_complete() {
        let slice = stopping
            .check_every
            .min(config.epochs - session.epochs_done());
        for _ in 0..slice {
            session.run_epoch();
        }

        let mrr = evaluate_ranking(session.model(), valid, Some(&known), 2).mrr;
        checkpoints.push(mrr);
        if mrr > best_mrr + stopping.min_delta {
            best_mrr = mrr;
            best_params = session.model().params().clone();
            bad_checks = 0;
        } else {
            bad_checks += 1;
            if bad_checks >= stopping.patience {
                break;
            }
        }
    }
    let epochs_trained = session.epochs_done();
    session.set_params(best_params);
    let (model, _) = session.into_model();
    (
        model,
        SelectionStats {
            checkpoints,
            best_mrr: if best_mrr.is_finite() { best_mrr } else { 0.0 },
            epochs_trained,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_datasets::toy_biomedical;

    #[test]
    fn early_stopping_returns_best_checkpoint() {
        let data = toy_biomedical();
        let config = TrainConfig {
            dim: 16,
            epochs: 30,
            seed: 3,
            ..TrainConfig::default()
        };
        let stopping = EarlyStopping {
            check_every: 5,
            patience: 2,
            min_delta: 1e-4,
        };
        let (model, stats) = train_with_early_stopping(
            ModelKind::DistMult,
            &data.train,
            &data.valid,
            &config,
            stopping,
        );
        assert!(!stats.checkpoints.is_empty());
        assert!(stats.epochs_trained <= 30);
        assert!(stats.best_mrr >= stats.checkpoints[0] - 1e-9);
        // Returned model reproduces the best checkpoint's MRR.
        let known = KnownTriples::from_slices([data.train.triples(), &data.valid[..]]);
        let mrr = evaluate_ranking(model.as_ref(), &data.valid, Some(&known), 2).mrr;
        assert!((mrr - stats.best_mrr).abs() < 1e-9);
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        let data = toy_biomedical();
        let config = TrainConfig {
            dim: 8,
            epochs: 1000, // would take long without stopping
            seed: 1,
            ..TrainConfig::default()
        };
        let stopping = EarlyStopping {
            check_every: 2,
            patience: 1,
            min_delta: 0.5, // nothing counts as progress
        };
        let (_, stats) = train_with_early_stopping(
            ModelKind::TransE,
            &data.train,
            &data.valid,
            &config,
            stopping,
        );
        assert!(
            stats.epochs_trained <= 4,
            "plateau must stop training early, got {}",
            stats.epochs_trained
        );
    }

    /// With patience high enough that nothing stops early and
    /// `check_every = epochs`, early stopping is one uninterrupted slice —
    /// it must reproduce a plain `train` call bit for bit. This pins the
    /// fix for the per-slice optimizer reset (Adam's moments used to be
    /// zeroed at every boundary) and the per-slice seed re-derivation.
    #[test]
    fn check_every_equal_to_epochs_matches_plain_train_bitwise() {
        let data = toy_biomedical();
        let config = TrainConfig {
            dim: 12,
            epochs: 10,
            seed: 21,
            ..TrainConfig::default()
        };
        let (plain, plain_stats) = kgfd_embed::train(ModelKind::ComplEx, &data.train, &config);
        let stopping = EarlyStopping {
            check_every: config.epochs,
            patience: usize::MAX,
            min_delta: 0.0,
        };
        let (selected, stats) = train_with_early_stopping(
            ModelKind::ComplEx,
            &data.train,
            &data.valid,
            &config,
            stopping,
        );
        assert_eq!(stats.epochs_trained, config.epochs);
        let _ = plain_stats;
        for t in 0..plain.params().num_tables() {
            assert_eq!(
                plain.params().table(t).data(),
                selected.params().table(t).data(),
                "table {t} must match plain training bitwise"
            );
        }
    }

    /// The training path must not depend on `check_every` at all: pausing
    /// to evaluate every epoch and pausing every 5 epochs walk the same
    /// trajectory, so with stopping disabled they end in the same place.
    #[test]
    fn check_every_does_not_change_the_training_path() {
        let data = toy_biomedical();
        let config = TrainConfig {
            dim: 8,
            epochs: 6,
            seed: 4,
            ..TrainConfig::default()
        };
        let run = |check_every: usize| {
            let stopping = EarlyStopping {
                check_every,
                patience: usize::MAX,
                min_delta: 0.0,
            };
            train_with_early_stopping(
                ModelKind::DistMult,
                &data.train,
                &data.valid,
                &config,
                stopping,
            )
        };
        let (_, stats_fine) = run(1);
        let (_, stats_coarse) = run(6);
        assert_eq!(stats_fine.epochs_trained, stats_coarse.epochs_trained);
        assert_eq!(
            stats_fine.checkpoints.last().copied().unwrap(),
            stats_coarse.checkpoints.last().copied().unwrap(),
            "the final validation MRR must be independent of check_every"
        );
    }

    /// Adjacent user seeds used to collide: slice k of a seed-s run derived
    /// its RNG streams from `s + k·check_every`, identical to slice k−1 of a
    /// seed-(s + check_every) run. The continuous session uses the user
    /// seed exactly once, so adjacent seeds walk fully distinct paths.
    #[test]
    fn adjacent_seeds_produce_distinct_training_paths() {
        let data = toy_biomedical();
        let base = TrainConfig {
            dim: 8,
            epochs: 4,
            seed: 7,
            ..TrainConfig::default()
        };
        let stopping = EarlyStopping {
            check_every: 1,
            patience: usize::MAX,
            min_delta: 0.0,
        };
        let mut next = base.clone();
        next.seed = base.seed + 1;
        let (a, _) = train_with_early_stopping(
            ModelKind::DistMult,
            &data.train,
            &data.valid,
            &base,
            stopping,
        );
        let (b, _) = train_with_early_stopping(
            ModelKind::DistMult,
            &data.train,
            &data.valid,
            &next,
            stopping,
        );
        assert_ne!(
            a.params().table(0).data(),
            b.params().table(0).data(),
            "adjacent seeds must not share training trajectories"
        );
    }
}
