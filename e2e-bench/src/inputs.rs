//! Generated inputs: the seeded dataset, written as the TSV files the
//! `kgfd` binary reads.

use crate::stats::digest;
use crate::BenchResult;
use kgfd_datasets::DatasetProfile;
use kgfd_kg::{write_triples_tsv, Dataset, Triple, Vocabulary};
use std::path::{Path, PathBuf};

/// The files of one run, all inside its work directory.
#[derive(Debug, Clone)]
pub struct Files {
    pub dir: PathBuf,
}

impl Files {
    /// Creates (or empties) `dir`.
    pub fn create(dir: PathBuf) -> BenchResult<Files> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Files { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    pub fn train(&self) -> PathBuf {
        self.path("train.tsv")
    }

    pub fn test(&self) -> PathBuf {
        self.path("test.tsv")
    }

    /// The model `kgfd train` writes in set-up; its stem is the name
    /// `kgfd serve` serves it under.
    pub fn model(&self) -> PathBuf {
        self.path("model.kgfd")
    }
}

/// Generates the dataset of `profile` (deterministic in the profile).
pub fn generate(profile: &DatasetProfile) -> BenchResult<Dataset> {
    Ok(kgfd_datasets::generate(profile)?)
}

/// Writes `train.tsv`, `valid.tsv` and `test.tsv`; returns a digest of
/// their bytes, so repeated set-ups can be checked for identical inputs.
pub fn write_tsvs(dataset: &Dataset, files: &Files) -> BenchResult<u64> {
    let mut combined = 0u64;
    for (name, triples) in [
        ("train.tsv", dataset.train.triples()),
        ("valid.tsv", &dataset.valid[..]),
        ("test.tsv", &dataset.test[..]),
    ] {
        let bytes = tsv_bytes(triples, &dataset.vocab)?;
        combined = combined.rotate_left(1) ^ digest(&bytes);
        std::fs::write(files.path(name), bytes)?;
    }
    Ok(combined)
}

fn tsv_bytes(triples: &[Triple], vocab: &Vocabulary) -> BenchResult<Vec<u8>> {
    let mut bytes = Vec::new();
    write_triples_tsv(&mut bytes, triples, vocab)?;
    Ok(bytes)
}

/// Reads a file the program wrote, naming it in the error.
pub fn read(path: &Path) -> BenchResult<Vec<u8>> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()).into())
}
