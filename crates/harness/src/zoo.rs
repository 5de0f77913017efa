//! The model zoo: trained models per (dataset, model-kind, scale), with a
//! disk cache so the figure regenerators and benches don't retrain.
//!
//! Mirrors the paper's "Model Training" step (§3.2): one tuned model per
//! dataset × embedding pair, trained once and reused by every discovery
//! experiment. Hyperparameters follow the per-pair table in
//! [`train_config`]; datasets regenerate deterministically, so cached
//! parameter files remain valid across runs.

use crate::{DatasetRef, Scale};
use kgfd_embed::{
    checkpoint_paths, read_model_file, resume_latest, train, write_model_file, CheckpointPolicy,
    KgeModel, LossKind, ModelKind, OptimizerKind, ResumeReport, TrainConfig, TrainSession,
};
use kgfd_kg::{Dataset, KgError};
use std::path::{Path, PathBuf};

/// Training hyperparameters for one dataset × model pair.
///
/// All models train with Adam (the paper's optimizer) and BCE loss except
/// TransE, which keeps its native margin loss and entity normalization.
/// Epoch counts shrink with dataset size to keep the full grid tractable on
/// CPU; ConvE gets fewer epochs (it sees each triple twice via reciprocals).
pub fn train_config(dataset: DatasetRef, model: ModelKind, scale: Scale) -> TrainConfig {
    let epochs_base = match dataset {
        DatasetRef::Fb15k237 => 25,
        DatasetRef::Wn18rr => 40,
        DatasetRef::Yago310 => 12,
        DatasetRef::CodexL => 20,
    };
    let epochs = match scale {
        Scale::Standard => epochs_base,
        Scale::Mini => epochs_base * 2, // tiny data, cheap epochs
    };
    let (epochs, negatives) = match model {
        ModelKind::ConvE => ((epochs / 2).max(3), 2),
        ModelKind::Rescal => (epochs, 3),
        _ => (epochs, 4),
    };
    let (loss, normalize_entities) = match model {
        ModelKind::TransE => (LossKind::MarginRanking { margin: 1.0 }, true),
        _ => (LossKind::BinaryCrossEntropy, false),
    };
    TrainConfig {
        dim: 32,
        epochs,
        batch_size: 256,
        negatives,
        loss,
        optimizer: OptimizerKind::Adam { lr: 0.01 },
        filter_negatives: true,
        normalize_entities,
        adversarial_temperature: None,
        seed: 0xE0_57 ^ (dataset as u64) << 8 ^ (model.name().len() as u64),
        threads: kgfd_pool::default_threads(),
    }
}

/// Directory of the on-disk model cache (under `target/`).
pub fn cache_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // Walk up from the crate dir to the workspace target.
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target")
        });
    target.join("kgfd-models")
}

fn cache_path(dataset: DatasetRef, model: ModelKind, scale: Scale) -> PathBuf {
    // `v3`: cache entries now use the checksummed v2 model format written
    // atomically; the name bump keeps v1-format entries (whose TransE
    // distance flag was untrustworthy) from masquerading as current.
    // (`v2` was the sharded-trainer bump.)
    cache_dir().join(format!(
        "{}-{}-{}-v3.kgfd",
        dataset.name(),
        model.name(),
        scale.name()
    ))
}

/// Outcome of probing one on-disk cache entry.
enum CacheProbe {
    /// Entry loaded and matches the dataset shape.
    Hit(Box<dyn KgeModel>),
    /// No cache entry exists.
    Miss,
    /// Entry was corrupt, version-skewed, unmigratable, or shape-mismatched;
    /// it has been evicted (deleted) and the caller must retrain.
    Evicted,
}

/// Deletes a bad cache entry and makes the recovery observable: a
/// `zoo.cache.corrupt` metric event (with path + reason fields), a warning
/// message, and an entry in the process recovery log that surfaces in the
/// next emitted JSONL run manifest.
fn evict(path: &Path, reason: &str) -> CacheProbe {
    kgfd_obs::metric(
        "zoo.cache.corrupt",
        1.0,
        vec![
            kgfd_obs::Field::new("path", path.display().to_string()),
            kgfd_obs::Field::new("reason", reason),
        ],
    );
    kgfd_obs::warn(format!(
        "zoo: evicting bad cache entry {} ({reason}); retraining",
        path.display()
    ));
    kgfd_obs::record_recovery(format!(
        "zoo.cache.corrupt: {}: {reason} (evicted, retrained)",
        path.display()
    ));
    let _ = std::fs::remove_file(path);
    CacheProbe::Evicted
}

/// Loads and integrity-checks one cache entry. Every failure mode —
/// checksum mismatch, truncation, version skew, unmigratable v1 content,
/// or a shape that doesn't match `data` — evicts the entry instead of
/// panicking or returning a silently-wrong model.
fn probe_cache(path: &Path, data: &Dataset) -> CacheProbe {
    match read_model_file(path) {
        Ok(loaded) => {
            if loaded.num_entities() == data.train.num_entities()
                && loaded.num_relations() == data.train.num_relations()
            {
                CacheProbe::Hit(loaded)
            } else {
                evict(
                    path,
                    &format!(
                        "shape mismatch: cached {}×{}, dataset {}×{}",
                        loaded.num_entities(),
                        loaded.num_relations(),
                        data.train.num_entities(),
                        data.train.num_relations()
                    ),
                )
            }
        }
        Err(KgError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => CacheProbe::Miss,
        Err(e) => evict(path, &e.to_string()),
    }
}

/// Returns a trained model for the pair, loading from the disk cache when
/// possible and training + caching otherwise. `data` must be the dataset
/// produced by `dataset.load(scale)`. Trains with
/// [`kgfd_pool::default_threads`] workers; the cached parameters are
/// thread-count independent.
pub fn trained_model(
    dataset: DatasetRef,
    model: ModelKind,
    scale: Scale,
    data: &Dataset,
) -> Box<dyn KgeModel> {
    trained_model_threaded(dataset, model, scale, data, kgfd_pool::default_threads())
}

/// [`trained_model`] with an explicit training worker count. The disk cache
/// is shared with every other thread count — training is deterministic
/// regardless of `threads`, so cached parameters stay valid.
///
/// Cache probe → recovery → train → atomic cache write. A cache-write
/// failure is downgraded to a warning (training already succeeded and is
/// reproducible).
pub fn trained_model_threaded(
    dataset: DatasetRef,
    model: ModelKind,
    scale: Scale,
    data: &Dataset,
    threads: usize,
) -> Box<dyn KgeModel> {
    let path = cache_path(dataset, model, scale);
    match probe_cache(&path, data) {
        CacheProbe::Hit(loaded) => return loaded,
        CacheProbe::Miss | CacheProbe::Evicted => {}
    }
    let mut config = train_config(dataset, model, scale);
    config.threads = threads.max(1);
    let trained = match train_resumable(model, data, &config, &path) {
        Ok(trained) => trained,
        Err(e) => {
            // Checkpointing is an optimization; a failure there (e.g. the
            // cache directory is read-only) must not cost the caller the
            // model. Fall back to a plain in-memory run — bit-identical.
            kgfd_obs::warn(format!(
                "zoo: checkpointed training failed ({e}); retraining without checkpoints"
            ));
            train(model, &data.train, &config).0
        }
    };
    // Atomic temp-file + rename write: concurrent trainers of the same pair
    // each produce identical parameters, so whichever rename lands last
    // leaves a valid, complete entry.
    if let Err(e) = write_model_file(&path, trained.as_ref()) {
        kgfd_obs::warn(format!(
            "zoo: could not cache {}-{}-{}: {e}",
            dataset.name(),
            model.name(),
            scale.name()
        ));
    }
    trained
}

/// Trains through a checkpointed [`TrainSession`], resuming any
/// half-finished run a killed process left beside the cache entry. Training
/// is deterministic, so a resumed run is bit-identical to a fresh one; on
/// success the spent checkpoints are removed.
fn train_resumable(
    model: ModelKind,
    data: &Dataset,
    config: &TrainConfig,
    cache_path: &Path,
) -> Result<Box<dyn KgeModel>, KgError> {
    let (mut session, _report) = match resume_latest(model, &data.train, config, cache_path) {
        Ok(resumed) => resumed,
        Err(KgError::CheckpointMismatch { .. }) => {
            // A leftover from an older zoo config (the hyperparameter table
            // changed between versions). It cannot seed this run — discard
            // it and start fresh, keeping the recovery observable.
            kgfd_obs::record_recovery(format!(
                "zoo.ckpt.mismatch: {}: stale checkpoint from a different \
                 training config (discarded, trained fresh)",
                cache_path.display()
            ));
            for (_, p) in checkpoint_paths(cache_path) {
                let _ = std::fs::remove_file(p);
            }
            (
                TrainSession::new(model, &data.train, config)?,
                ResumeReport::default(),
            )
        }
        Err(e) => return Err(e),
    };
    // Checkpoint a handful of times per run — enough that a kill loses at
    // most a quarter of the work, rare enough that writes stay negligible.
    let every = (config.epochs / 4).max(1);
    let policy = CheckpointPolicy::new(cache_path.to_path_buf(), every);
    session.run(Some(&policy), None)?;
    let (trained, _) = session.into_model();
    for (_, p) in checkpoint_paths(cache_path) {
        let _ = std::fs::remove_file(p);
    }
    Ok(trained)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_cover_every_grid_pair() {
        for dataset in DatasetRef::ALL {
            for model in ModelKind::PAPER_GRID {
                let c = train_config(dataset, model, Scale::Mini);
                assert!(c.epochs >= 3);
                assert!(c.dim >= 16);
            }
        }
    }

    #[test]
    fn transe_keeps_margin_loss_and_normalization() {
        let c = train_config(DatasetRef::Fb15k237, ModelKind::TransE, Scale::Standard);
        assert!(matches!(c.loss, LossKind::MarginRanking { .. }));
        assert!(c.normalize_entities);
        let c2 = train_config(DatasetRef::Fb15k237, ModelKind::DistMult, Scale::Standard);
        assert!(matches!(c2.loss, LossKind::BinaryCrossEntropy));
    }

    #[test]
    fn corrupt_cache_entry_is_evicted_retrained_and_rewritten() {
        let _log = crate::recovery_log_lock();
        let dataset = DatasetRef::Yago310;
        let data = dataset.load(Scale::Mini);
        let path = cache_path(dataset, ModelKind::ComplEx, Scale::Mini);
        let _ = std::fs::remove_file(&path);
        let a = trained_model(dataset, ModelKind::ComplEx, Scale::Mini, &data);
        // Flip a payload byte: the checksum must catch it on the next probe.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let b = trained_model(dataset, ModelKind::ComplEx, Scale::Mini, &data);
        let t = data.train.triples()[0];
        // Deterministic training: the retrained model matches the original.
        assert_eq!(a.score(t).to_bits(), b.score(t).to_bits());
        // The bad entry was replaced with a valid, loadable one.
        let reloaded = read_model_file(&path).expect("cache repaired");
        assert_eq!(reloaded.score(t).to_bits(), a.score(t).to_bits());
        // The recovery is visible to the next emitted run manifest.
        let recoveries = kgfd_obs::drain_recoveries();
        assert!(
            recoveries
                .iter()
                .any(|r| r.contains("zoo.cache.corrupt") && r.contains("complex")),
            "recovery log missing eviction: {recoveries:?}"
        );
    }

    #[test]
    fn shape_mismatched_cache_entry_is_evicted() {
        let _log = crate::recovery_log_lock();
        let dataset = DatasetRef::CodexL;
        let data = dataset.load(Scale::Mini);
        let path = cache_path(dataset, ModelKind::DistMult, Scale::Mini);
        // Plant a valid model file of the wrong shape.
        let wrong = kgfd_embed::new_model(ModelKind::DistMult, 3, 1, 8, 0);
        kgfd_embed::write_model_file(&path, wrong.as_ref()).unwrap();
        let m = trained_model(dataset, ModelKind::DistMult, Scale::Mini, &data);
        assert_eq!(m.num_entities(), data.train.num_entities());
        let reloaded = read_model_file(&path).expect("cache repaired");
        assert_eq!(reloaded.num_entities(), data.train.num_entities());
        let _ = kgfd_obs::drain_recoveries();
    }

    /// A trainer killed mid-run leaves a checkpoint beside the cache entry;
    /// the next `trained_model` call must pick it up, finish the remaining
    /// epochs bit-identically to an uninterrupted run, and sweep the spent
    /// checkpoints away.
    #[test]
    fn zoo_resumes_a_half_finished_training_run() {
        let _log = crate::recovery_log_lock();
        let dataset = DatasetRef::Yago310;
        let data = dataset.load(Scale::Mini);
        let kind = ModelKind::DistMult;
        let path = cache_path(dataset, kind, Scale::Mini);
        let _ = std::fs::remove_file(&path);
        for (_, p) in checkpoint_paths(&path) {
            let _ = std::fs::remove_file(p);
        }
        let mut config = train_config(dataset, kind, Scale::Mini);
        config.threads = 1;
        // Simulate the kill: run half the epochs, checkpoint, abandon.
        let mut session = TrainSession::new(kind, &data.train, &config).unwrap();
        for _ in 0..config.epochs / 2 {
            session.run_epoch();
        }
        let policy = CheckpointPolicy::new(path.clone(), 1);
        session.save_checkpoint(&policy).unwrap();
        drop(session);

        let resumed = trained_model_threaded(dataset, kind, Scale::Mini, &data, 1);
        let (plain, _) = train(kind, &data.train, &config);
        for t in 0..plain.params().num_tables() {
            assert_eq!(
                plain.params().table(t).data(),
                resumed.params().table(t).data(),
                "table {t}: resumed training must match an uninterrupted run bitwise"
            );
        }
        assert!(
            checkpoint_paths(&path).is_empty(),
            "spent checkpoints must be cleaned up after a completed run"
        );
        let _ = kgfd_obs::drain_recoveries();
    }

    #[test]
    fn zoo_roundtrips_through_disk_cache() {
        let dataset = DatasetRef::Wn18rr;
        let data = dataset.load(Scale::Mini);
        let path = cache_path(dataset, ModelKind::DistMult, Scale::Mini);
        let _ = std::fs::remove_file(&path);
        let a = trained_model(dataset, ModelKind::DistMult, Scale::Mini, &data);
        assert!(path.exists(), "first call populates the cache");
        let b = trained_model(dataset, ModelKind::DistMult, Scale::Mini, &data);
        let t = data.train.triples()[0];
        assert!((a.score(t) - b.score(t)).abs() < 1e-6, "cache hit matches");
    }
}
