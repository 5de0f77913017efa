//! Crash-safe training checkpoints (format "KGCK" v1).
//!
//! A checkpoint captures *everything* that determines the remainder of a
//! training run — model parameters, full optimizer state (Adam's step
//! counter and both moment tables), the number of completed epochs, the
//! epoch-shuffle RNG stream position, the per-epoch losses so far, and a
//! fingerprint of the [`TrainConfig`] — so that
//! resuming is **bit-identical** to never having stopped. The differential
//! suite in `tests/checkpoint_resume.rs` enforces that contract for every
//! model family at 1 and 4 threads.
//!
//! ## Byte layout (all integers little-endian)
//!
//! ```text
//! magic "KGCK" | version u8 = 1
//! | fingerprint u64                                  ← TrainConfig + model kind
//! | epochs_done u64
//! | rng_state 4 × u64                                ← epoch-shuffle stream
//! | num_losses u64 | f64 per completed epoch
//! | model_len u64 | model bytes                      ← embedded "KGFD" v2 file
//! | optimizer tag u8 = 2 (Adam)                      ← 0 and 1 are retired
//! | t u64 | table block (m) | f32 data (v, same shapes as m)
//! | crc32 u32                                        ← integrity footer
//! ```
//!
//! A *table block* is `num_tables u8 | { rows u64, cols u64 }* | f32 data
//! per table` — the same shape-directory-then-payload arrangement as the
//! model format. The trailing CRC-32 covers every preceding byte and the
//! reader enforces the exact length its header implies, so truncation, bit
//! flips, and appended garbage all surface as [`KgError::Corrupt`].
//!
//! ## Files on disk
//!
//! Checkpoints live next to the training output as
//! `<output>.ckpt-<epochs_done, 8 digits>`, written atomically
//! (temp sibling + fsync + rename) and rotated to the newest two files.
//! [`resume_latest`] walks them newest first: a corrupt or version-skewed
//! file is evicted (recovery recorded via
//! [`kgfd_obs::record_recovery`], mirrored into [`ResumeReport`]) and the
//! previous one is tried; a checkpoint whose fingerprint disagrees with the
//! requested configuration is refused outright with
//! [`KgError::CheckpointMismatch`] — resuming it would silently train a
//! different run.

use crate::persist::write_bytes_atomic;
use crate::{
    load_model, save_model, KgeModel, ModelKind, OptimizerState, ParamTable, StopSignal,
    TrainConfig, TrainOutcome, TrainSession,
};
use kgfd_kg::{KgError, Result, TripleStore};
use std::path::{Path, PathBuf};
use std::time::Instant;

const MAGIC: &[u8; 4] = b"KGCK";
/// Current (written) checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;
const FOOTER_LEN: usize = 4;

/// The optimizer tag byte. Tags 0 and 1 (SGD and Adagrad, both retired)
/// read as corrupt.
const OPT_TAG_ADAM: u8 = 2;

fn corrupt(msg: impl Into<String>) -> KgError {
    KgError::Corrupt(format!("checkpoint file: {}", msg.into()))
}

/// Fingerprint binding a checkpoint to its training configuration: FNV-1a
/// over the model kind and the JSON rendering of the [`TrainConfig`] with
/// `threads` canonicalized to 1. Threads are excluded deliberately — the
/// trainer's determinism contract makes results independent of the thread
/// count, so resuming a 1-thread run on 4 threads (or vice versa) is safe
/// and stays bit-identical; every other field changes the training
/// trajectory and therefore changes the fingerprint.
pub fn config_fingerprint(kind: ModelKind, config: &TrainConfig) -> u64 {
    let mut canonical = config.clone();
    canonical.threads = 1;
    let json = serde_json::to_string(&canonical).expect("TrainConfig serializes");
    let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
    for b in kind
        .to_string()
        .as_bytes()
        .iter()
        .chain(&[0u8])
        .chain(json.as_bytes())
    {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3); // FNV-1a prime
    }
    h
}

/// A decoded checkpoint: the complete resumable state of a training run at
/// an epoch boundary. The model is kept as its serialized "KGFD" v2 bytes
/// (validated on [`TrainCheckpoint::load_model`]) so encode/decode are
/// exactly symmetric.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// [`config_fingerprint`] of the run that wrote this checkpoint.
    pub fingerprint: u64,
    /// Epochs completed when the checkpoint was taken.
    pub epochs_done: u64,
    /// Epoch-shuffle RNG stream position at the boundary.
    pub rng_state: [u64; 4],
    /// Mean pair loss of each completed epoch.
    pub epoch_losses: Vec<f64>,
    /// The model as a serialized v2 model file (checksummed independently).
    pub model_bytes: Vec<u8>,
    /// Full optimizer state (moments and step counter included).
    pub optimizer: OptimizerState,
}

impl TrainCheckpoint {
    /// Serializes to the "KGCK" v1 layout, CRC-32 footer included.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf =
            Vec::with_capacity(64 + self.epoch_losses.len() * 8 + self.model_bytes.len() + 64);
        buf.extend_from_slice(MAGIC);
        buf.push(CHECKPOINT_VERSION);
        let words = [self.fingerprint, self.epochs_done]
            .into_iter()
            .chain(self.rng_state)
            .chain([self.epoch_losses.len() as u64])
            .chain(self.epoch_losses.iter().map(|l| l.to_bits()))
            .chain([self.model_bytes.len() as u64]);
        for w in words {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf.extend_from_slice(&self.model_bytes);
        let OptimizerState { t, m, v } = &self.optimizer;
        buf.push(OPT_TAG_ADAM);
        buf.extend_from_slice(&t.to_le_bytes());
        put_table_block(&mut buf, m);
        v.iter().for_each(|table| put_table_data(&mut buf, table));
        let checksum = crate::crc32(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Parses and verifies a "KGCK" checkpoint. Any structural defect —
    /// short read, checksum mismatch, trailing bytes, impossible shapes —
    /// comes back as [`KgError::Corrupt`]; an unknown version byte as
    /// [`KgError::UnsupportedVersion`].
    pub fn decode(data: &[u8]) -> Result<Self> {
        if data.len() < MAGIC.len() + 1 {
            return Err(corrupt(format!(
                "{} bytes is too short to hold even magic and version",
                data.len()
            )));
        }
        if &data[..4] != MAGIC {
            return Err(corrupt("bad magic (not a KGCK checkpoint file)"));
        }
        if data[4] != CHECKPOINT_VERSION {
            return Err(KgError::UnsupportedVersion {
                found: data[4],
                max_supported: CHECKPOINT_VERSION,
            });
        }
        if data.len() < MAGIC.len() + 1 + FOOTER_LEN {
            return Err(corrupt("truncated before the checksum footer"));
        }
        let body = &data[..data.len() - FOOTER_LEN];
        let stored = u32::from_le_bytes(data[data.len() - FOOTER_LEN..].try_into().expect("4"));
        let actual = crate::crc32(body);
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch: footer {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let mut r = Reader { data: &body[5..] };
        let fingerprint = r.u64()?;
        let epochs_done = r.u64()?;
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let num_losses = r.len_checked("epoch losses", 8)?;
        let mut epoch_losses = Vec::with_capacity(num_losses);
        for _ in 0..num_losses {
            epoch_losses.push(r.f64()?);
        }
        let model_len = r.len_checked("model payload", 1)?;
        let model_bytes = r.take(model_len)?.to_vec();
        let tag = r.u8()?;
        if tag != OPT_TAG_ADAM {
            return Err(corrupt(format!(
                "optimizer tag {tag} is not Adam's ({OPT_TAG_ADAM})"
            )));
        }
        let t = r.u64()?;
        let m = r.table_block()?;
        let mut v = Vec::with_capacity(m.len());
        for table in &m {
            v.push(r.table_data(table.rows(), table.cols())?);
        }
        let optimizer = OptimizerState { t, m, v };
        if !r.data.is_empty() {
            return Err(corrupt(format!(
                "{} trailing bytes before the checksum footer",
                r.data.len()
            )));
        }
        Ok(TrainCheckpoint {
            fingerprint,
            epochs_done,
            rng_state,
            epoch_losses,
            model_bytes,
            optimizer,
        })
    }

    /// Deserializes the embedded model (its own "KGFD" v2 checks apply).
    pub fn load_model(&self) -> Result<Box<dyn KgeModel>> {
        load_model(&self.model_bytes)
    }
}

fn put_table_block(buf: &mut Vec<u8>, tables: &[ParamTable]) {
    buf.push(tables.len() as u8);
    for t in tables {
        buf.extend_from_slice(&(t.rows() as u64).to_le_bytes());
        buf.extend_from_slice(&(t.cols() as u64).to_le_bytes());
    }
    tables.iter().for_each(|t| put_table_data(buf, t));
}

fn put_table_data(buf: &mut Vec<u8>, table: &ParamTable) {
    for &x in table.data() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader; every underflow is a typed
/// [`KgError::Corrupt`] instead of a panic.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.data.len() < n {
            return Err(corrupt(format!(
                "truncated: needed {n} more bytes, {} remain",
                self.data.len()
            )));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a u64 count and sanity-checks it against the bytes actually
    /// remaining (each element needs at least `min_elem_bytes`), so a
    /// corrupted length cannot trigger an absurd allocation.
    fn len_checked(&mut self, what: &str, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u64()? as usize;
        if n.checked_mul(min_elem_bytes)
            .is_none_or(|b| b > self.data.len())
        {
            return Err(corrupt(format!(
                "{what} length {n} exceeds the bytes remaining"
            )));
        }
        Ok(n)
    }

    fn table_data(&mut self, rows: usize, cols: usize) -> Result<ParamTable> {
        let cells = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("table shape overflows"))?;
        let raw = self.take(
            cells
                .checked_mul(4)
                .ok_or_else(|| corrupt("table byte length overflows"))?,
        )?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect();
        Ok(ParamTable::from_data(rows, cols, data))
    }

    fn table_block(&mut self) -> Result<Vec<ParamTable>> {
        let n = self.u8()? as usize;
        let mut shapes = Vec::with_capacity(n);
        for _ in 0..n {
            shapes.push((self.u64()? as usize, self.u64()? as usize));
        }
        let mut tables = Vec::with_capacity(n);
        for (rows, cols) in shapes {
            tables.push(self.table_data(rows, cols)?);
        }
        Ok(tables)
    }
}

/// Atomically writes `ckpt` to `path` (temp sibling + fsync + rename — a
/// crash mid-write leaves the previous checkpoint untouched) and records
/// the write in the metrics registry (`embed.ckpt.writes`,
/// `embed.ckpt.bytes`, `embed.ckpt.write_us`).
pub fn write_checkpoint(path: impl AsRef<Path>, ckpt: &TrainCheckpoint) -> Result<()> {
    let start = Instant::now();
    let bytes = ckpt.encode();
    write_bytes_atomic(path.as_ref(), &bytes)?;
    kgfd_obs::counter("embed.ckpt.writes").add(1);
    kgfd_obs::histogram("embed.ckpt.bytes").record(bytes.len() as f64);
    kgfd_obs::histogram("embed.ckpt.write_us").record(start.elapsed().as_micros() as f64);
    Ok(())
}

/// Reads and verifies a checkpoint file; integrity failures come back with
/// the path prepended.
pub fn read_checkpoint_file(path: impl AsRef<Path>) -> Result<TrainCheckpoint> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    TrainCheckpoint::decode(&bytes).map_err(|e| match e {
        KgError::Corrupt(d) => KgError::Corrupt(format!("{}: {d}", path.display())),
        other => other,
    })
}

/// When and where a [`TrainSession`] writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Training output path; checkpoints are siblings named
    /// `<output>.ckpt-<epochs, 8 digits>`.
    pub output: PathBuf,
    /// Write a checkpoint every this many completed epochs (0 disables the
    /// periodic writes; a stop-triggered final checkpoint still happens).
    pub every: usize,
}

/// Newest checkpoints retained after each write. Two preserve the
/// corruption fallback: if the newest file is damaged, the previous
/// boundary is still on disk.
const KEEP: usize = 2;

impl CheckpointPolicy {
    /// Checkpoint every `every` epochs next to `output`, keeping 2 files.
    pub fn new(output: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy {
            output: output.into(),
            every,
        }
    }

    /// The checkpoint path for a given completed-epoch count.
    pub fn path_for(&self, epochs_done: usize) -> PathBuf {
        checkpoint_path(&self.output, epochs_done)
    }

    /// Deletes all but the newest [`KEEP`] checkpoints.
    fn rotate(&self) {
        let mut existing = checkpoint_paths(&self.output);
        if existing.len() > KEEP {
            let cutoff = existing.len() - KEEP;
            for (_, path) in existing.drain(..cutoff) {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

fn checkpoint_path(output: &Path, epochs_done: usize) -> PathBuf {
    let name = output
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "model".into());
    output.with_file_name(format!("{name}.ckpt-{epochs_done:08}"))
}

/// Checkpoints currently on disk for `output`, as `(epochs_done, path)`
/// sorted by ascending epoch. Only well-formed `<name>.ckpt-<digits>`
/// siblings are listed; contents are *not* validated here — that happens
/// (with fallback) in [`resume_latest`].
pub fn checkpoint_paths(output: &Path) -> Vec<(usize, PathBuf)> {
    let Some(stem) = output.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Vec::new();
    };
    let dir = match output.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = format!("{stem}.ckpt-");
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(suffix) = name.strip_prefix(&prefix) {
            if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(epoch) = suffix.parse::<usize>() {
                    found.push((epoch, entry.path()));
                }
            }
        }
    }
    found.sort();
    found
}

/// What [`resume_latest`] did to get a usable session.
#[derive(Debug, Clone, Default)]
pub struct ResumeReport {
    /// The checkpoint the session was restored from, if any (`None` means
    /// training starts fresh — no checkpoint existed or all were evicted).
    pub resumed_from: Option<PathBuf>,
    /// Human-readable record of every corrupt/unreadable checkpoint that
    /// was evicted along the way; also appended to the process-wide
    /// recovery log, so it surfaces in the RunManifest `recoveries` field.
    pub recoveries: Vec<String>,
}

/// Restores the newest valid checkpoint for `output` into a
/// [`TrainSession`], falling back through older checkpoints when the newest
/// is truncated, corrupt, or version-skewed (each eviction recorded), and
/// starting fresh when none survive. A checkpoint whose fingerprint
/// disagrees with `(kind, config)` is **refused** with
/// [`KgError::CheckpointMismatch`] rather than skipped: it is structurally
/// healthy, so "fall back" would silently retrain from an older state of a
/// different run.
pub fn resume_latest<'a>(
    kind: ModelKind,
    store: &'a TripleStore,
    config: &TrainConfig,
    output: &Path,
) -> Result<(TrainSession<'a>, ResumeReport)> {
    let expected = config_fingerprint(kind, config);
    let mut report = ResumeReport::default();
    let mut candidates = checkpoint_paths(output);
    while let Some((_, path)) = candidates.pop() {
        let ckpt = match read_checkpoint_file(&path) {
            Ok(c) => c,
            Err(e @ KgError::Io(_)) => return Err(e),
            Err(e) => {
                evict(&mut report, &path, &e);
                continue;
            }
        };
        if ckpt.fingerprint != expected {
            return Err(KgError::CheckpointMismatch {
                expected,
                found: ckpt.fingerprint,
            });
        }
        let restored = ckpt.load_model().and_then(|model| {
            TrainSession::resume(
                model,
                store,
                config,
                ckpt.optimizer,
                ckpt.epochs_done as usize,
                ckpt.epoch_losses,
                ckpt.rng_state,
            )
        });
        match restored {
            Ok(session) => {
                kgfd_obs::counter("embed.ckpt.restores").add(1);
                kgfd_obs::info(format!(
                    "resuming from checkpoint {} at epoch {}",
                    path.display(),
                    session.epochs_done()
                ));
                report.resumed_from = Some(path);
                return Ok((session, report));
            }
            Err(e) => evict(&mut report, &path, &e),
        }
    }
    Ok((TrainSession::new(kind, store, config)?, report))
}

fn evict(report: &mut ResumeReport, path: &Path, err: &KgError) {
    let msg = format!(
        "checkpoint {}: {err}; evicted, falling back to the previous checkpoint",
        path.display()
    );
    kgfd_obs::warn(msg.clone());
    kgfd_obs::record_recovery(msg.clone());
    report.recoveries.push(msg);
    let _ = std::fs::remove_file(path);
}

impl<'a> TrainSession<'a> {
    /// Snapshots the session's complete resumable state.
    pub fn checkpoint(&self) -> TrainCheckpoint {
        TrainCheckpoint {
            fingerprint: config_fingerprint(self.model().kind(), self.config()),
            epochs_done: self.epochs_done() as u64,
            rng_state: self.rng_state(),
            epoch_losses: self.epoch_losses().to_vec(),
            model_bytes: save_model(self.model()),
            optimizer: self.optimizer_state(),
        }
    }

    /// Writes a checkpoint for the current epoch boundary under `policy`
    /// and rotates old files. Returns the path written.
    pub fn save_checkpoint(&self, policy: &CheckpointPolicy) -> Result<PathBuf> {
        let path = policy.path_for(self.epochs_done());
        write_checkpoint(&path, &self.checkpoint())?;
        policy.rotate();
        Ok(path)
    }

    /// Drives the session to completion (or to a cooperative stop),
    /// checkpointing every [`CheckpointPolicy::every`] epochs. When `stop`
    /// trips, a final checkpoint is written at the current boundary (if a
    /// policy is present) so the interrupted run resumes bit-identically.
    pub fn run(
        &mut self,
        policy: Option<&CheckpointPolicy>,
        stop: Option<&StopSignal>,
    ) -> Result<TrainOutcome> {
        while !self.is_complete() {
            if stop.is_some_and(|s| s.should_stop()) {
                let checkpoint = match policy {
                    Some(p) => Some(self.save_checkpoint(p)?),
                    None => None,
                };
                return Ok(TrainOutcome::Interrupted {
                    epochs_done: self.epochs_done(),
                    checkpoint,
                });
            }
            self.run_epoch();
            if let Some(p) = policy {
                if p.every > 0 && self.epochs_done().is_multiple_of(p.every) && !self.is_complete()
                {
                    self.save_checkpoint(p)?;
                }
            }
        }
        Ok(TrainOutcome::Completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train, OptimizerKind};
    use kgfd_datasets::toy_biomedical;

    fn tiny_config() -> TrainConfig {
        TrainConfig {
            dim: 8,
            epochs: 6,
            batch_size: 32,
            negatives: 2,
            seed: 13,
            threads: 1,
            ..TrainConfig::default()
        }
    }

    fn adam_state(t: u64) -> OptimizerState {
        OptimizerState {
            t,
            m: vec![ParamTable::from_data(2, 3, vec![1.0; 6])],
            v: vec![ParamTable::from_data(2, 3, vec![2.0; 6])],
        }
    }

    fn sample_checkpoint(optimizer: OptimizerState) -> TrainCheckpoint {
        let model = crate::new_model(ModelKind::DistMult, 5, 2, 8, 3);
        TrainCheckpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            epochs_done: 9,
            rng_state: [1, 2, 3, 4],
            epoch_losses: vec![0.5, 0.25, 0.125],
            model_bytes: save_model(model.as_ref()),
            optimizer,
        }
    }

    #[test]
    fn encode_decode_roundtrips_every_optimizer_state() {
        let empty = OptimizerState {
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        };
        for state in [empty, adam_state(42)] {
            let ckpt = sample_checkpoint(state);
            let decoded = TrainCheckpoint::decode(&ckpt.encode()).unwrap();
            assert_eq!(decoded, ckpt);
            decoded.load_model().unwrap();
        }
    }

    #[test]
    fn retired_optimizer_tags_are_corrupt() {
        let ckpt = sample_checkpoint(adam_state(42));
        let mut bytes = ckpt.encode();
        // Magic and version, then the fingerprint, epoch count, four RNG
        // words, loss count, losses and model length (u64 each), then the
        // model bytes.
        let tag_at = 5 + 8 * (8 + ckpt.epoch_losses.len()) + ckpt.model_bytes.len();
        assert_eq!(bytes[tag_at], OPT_TAG_ADAM);
        for retired in [0u8, 1] {
            bytes[tag_at] = retired;
            let body = bytes.len() - FOOTER_LEN;
            let checksum = crate::crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&checksum.to_le_bytes());
            match TrainCheckpoint::decode(&bytes) {
                Err(KgError::Corrupt(msg)) => assert!(msg.contains("optimizer tag"), "{msg}"),
                other => panic!("tag {retired}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let ckpt = sample_checkpoint(adam_state(42));
        let bytes = ckpt.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                TrainCheckpoint::decode(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let bytes = sample_checkpoint(adam_state(42)).encode();
        for len in 0..bytes.len() {
            assert!(
                matches!(
                    TrainCheckpoint::decode(&bytes[..len]),
                    Err(KgError::Corrupt(_))
                ),
                "prefix of {len} bytes must be rejected"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(TrainCheckpoint::decode(&long).is_err());
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = sample_checkpoint(adam_state(42)).encode();
        bytes[4] = 9;
        assert!(matches!(
            TrainCheckpoint::decode(&bytes),
            Err(KgError::UnsupportedVersion {
                found: 9,
                max_supported: CHECKPOINT_VERSION
            })
        ));
    }

    #[test]
    fn fingerprint_ignores_threads_but_nothing_else() {
        let base = tiny_config();
        let mut threaded = base.clone();
        threaded.threads = 4;
        assert_eq!(
            config_fingerprint(ModelKind::TransE, &base),
            config_fingerprint(ModelKind::TransE, &threaded),
            "threads never affect results, so they must not affect the fingerprint"
        );
        let mut other_seed = base.clone();
        other_seed.seed += 1;
        assert_ne!(
            config_fingerprint(ModelKind::TransE, &base),
            config_fingerprint(ModelKind::TransE, &other_seed)
        );
        assert_ne!(
            config_fingerprint(ModelKind::TransE, &base),
            config_fingerprint(ModelKind::DistMult, &base)
        );
        let mut other_opt = base.clone();
        other_opt.optimizer = OptimizerKind::Adam { lr: 0.1 };
        assert_ne!(
            config_fingerprint(ModelKind::TransE, &base),
            config_fingerprint(ModelKind::TransE, &other_opt)
        );
    }

    #[test]
    fn session_completion_matches_plain_train_bitwise() {
        let data = toy_biomedical();
        let config = tiny_config();
        let (plain, plain_stats) = train(ModelKind::ComplEx, &data.train, &config);
        let mut session = TrainSession::new(ModelKind::ComplEx, &data.train, &config).unwrap();
        assert!(matches!(
            session.run(None, None),
            Ok(TrainOutcome::Completed)
        ));
        let (model, stats) = session.into_model();
        assert_eq!(stats.epoch_losses, plain_stats.epoch_losses);
        for t in 0..plain.params().num_tables() {
            assert_eq!(
                plain.params().table(t).data(),
                model.params().table(t).data()
            );
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_mid_run() {
        let data = toy_biomedical();
        let config = tiny_config();
        let (straight, straight_stats) = train(ModelKind::TransE, &data.train, &config);

        let mut first = TrainSession::new(ModelKind::TransE, &data.train, &config).unwrap();
        for _ in 0..3 {
            first.run_epoch();
        }
        let ckpt = first.checkpoint();
        drop(first);
        let decoded = TrainCheckpoint::decode(&ckpt.encode()).unwrap();
        let mut resumed = TrainSession::resume(
            decoded.load_model().unwrap(),
            &data.train,
            &config,
            decoded.optimizer,
            decoded.epochs_done as usize,
            decoded.epoch_losses,
            decoded.rng_state,
        )
        .unwrap();
        while !resumed.is_complete() {
            resumed.run_epoch();
        }
        let (model, stats) = resumed.into_model();
        assert_eq!(stats.epoch_losses, straight_stats.epoch_losses);
        for t in 0..straight.params().num_tables() {
            assert_eq!(
                straight.params().table(t).data(),
                model.params().table(t).data(),
                "table {t} must be bitwise identical after kill/resume"
            );
        }
    }

    #[test]
    fn resume_latest_falls_back_over_a_corrupt_newest() {
        let dir = std::env::temp_dir().join(format!("kgfd-ckpt-fallback-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let output = dir.join("model.kgfd");
        let data = toy_biomedical();
        let config = tiny_config();
        let policy = CheckpointPolicy::new(&output, 2);

        let mut session = TrainSession::new(ModelKind::DistMult, &data.train, &config).unwrap();
        for _ in 0..2 {
            session.run_epoch();
        }
        session.save_checkpoint(&policy).unwrap();
        for _ in 0..2 {
            session.run_epoch();
        }
        let newest = session.save_checkpoint(&policy).unwrap();
        drop(session);

        // Truncate the newest checkpoint: resume must fall back to epoch 2.
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let (resumed, report) =
            resume_latest(ModelKind::DistMult, &data.train, &config, &output).unwrap();
        assert_eq!(resumed.epochs_done(), 2);
        assert_eq!(report.recoveries.len(), 1);
        assert!(report.recoveries[0].contains("ckpt-00000004"), "{report:?}");
        assert!(!newest.exists(), "corrupt checkpoint must be evicted");
        assert!(report
            .resumed_from
            .as_ref()
            .unwrap()
            .to_string_lossy()
            .contains("ckpt-00000002"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_latest_refuses_a_mismatched_fingerprint() {
        let dir = std::env::temp_dir().join(format!("kgfd-ckpt-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let output = dir.join("model.kgfd");
        let data = toy_biomedical();
        let config = tiny_config();
        let policy = CheckpointPolicy::new(&output, 2);
        let mut session = TrainSession::new(ModelKind::TransE, &data.train, &config).unwrap();
        session.run_epoch();
        session.save_checkpoint(&policy).unwrap();
        drop(session);

        let mut other = config.clone();
        other.seed += 1;
        let err = resume_latest(ModelKind::TransE, &data.train, &other, &output)
            .err()
            .expect("mismatched fingerprint accepted");
        assert!(matches!(err, KgError::CheckpointMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_latest_starts_fresh_without_checkpoints() {
        let dir = std::env::temp_dir().join(format!("kgfd-ckpt-fresh-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = toy_biomedical();
        let config = tiny_config();
        let (session, report) = resume_latest(
            ModelKind::TransE,
            &data.train,
            &config,
            &dir.join("model.kgfd"),
        )
        .unwrap();
        assert_eq!(session.epochs_done(), 0);
        assert!(report.resumed_from.is_none());
        assert!(report.recoveries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_the_newest_two() {
        let dir = std::env::temp_dir().join(format!("kgfd-ckpt-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let output = dir.join("model.kgfd");
        let data = toy_biomedical();
        let config = tiny_config();
        let policy = CheckpointPolicy::new(&output, 1);
        let mut session = TrainSession::new(ModelKind::TransE, &data.train, &config).unwrap();
        for _ in 0..4 {
            session.run_epoch();
            session.save_checkpoint(&policy).unwrap();
        }
        let remaining = checkpoint_paths(&output);
        assert_eq!(
            remaining.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![3, 4],
            "only the newest two boundaries survive rotation"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_signal_interrupts_at_an_epoch_boundary_with_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("kgfd-ckpt-stop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let output = dir.join("model.kgfd");
        let data = toy_biomedical();
        let config = tiny_config();
        let policy = CheckpointPolicy::new(&output, 100);
        let stop = StopSignal::new();
        stop.request_stop();
        let mut session = TrainSession::new(ModelKind::TransE, &data.train, &config).unwrap();
        session.run_epoch();
        let outcome = session.run(Some(&policy), Some(&stop)).unwrap();
        match outcome {
            TrainOutcome::Interrupted {
                epochs_done,
                checkpoint,
            } => {
                assert_eq!(epochs_done, 1);
                let path = checkpoint.expect("a policy was set");
                assert!(path.exists());
                let ckpt = read_checkpoint_file(&path).unwrap();
                assert_eq!(ckpt.epochs_done, 1);
            }
            other => panic!("expected an interruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
