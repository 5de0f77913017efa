//! Fault-injection suite for the v2 model persistence format and the zoo's
//! cache-recovery policy.
//!
//! Every injected fault — truncation at a section boundary, random bit
//! flips, version skew, a partially-written file on disk, concurrent cache
//! writers — must surface as a typed [`KgError`] or a logged
//! eviction-and-retrain, never as a panic or a silently-wrong model. The
//! companion golden test pins the v2 byte layout itself; see
//! `tests/golden/model_format_v2.txt`.

use kgfd_embed::models::{Distance, TransE};
use kgfd_embed::{
    crc32, load_model, new_model, read_model_file, save_model, KgeModel, ModelKind, FORMAT_VERSION,
};
use kgfd_harness::{cache_dir, trained_model, trained_model_threaded, DatasetRef, Scale};
use kgfd_kg::{KgError, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

// Layout constants of the v2 format, stated independently of the
// implementation (see DESIGN.md "Persistence format v2") so a drift in
// either place fails loudly here.
const FIXED_HEADER_LEN: usize = 32;
const TABLE_ENTRY_LEN: usize = 16;
const FOOTER_LEN: usize = 4;
/// Offsets of the config block's entity count and dim (`u64` each).
const NUM_ENTITIES_AT: usize = 7;
const DIM_AT: usize = 23;

/// The recovery log and the process observer are global; tests that evict
/// cache entries or install observers must not interleave.
static ZOO_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ZOO_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fixture_model() -> Box<dyn KgeModel> {
    new_model(ModelKind::DistMult, 5, 2, 8, 42)
}

/// Section boundaries of a v2 file: start, inside magic, after magic, after
/// version, after the fixed header, after each table-directory entry, mid
/// payload, at the footer, and one byte short of complete.
fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
    let num_tables = bytes[FIXED_HEADER_LEN - 1] as usize;
    let header_len = FIXED_HEADER_LEN + num_tables * TABLE_ENTRY_LEN;
    let mut cuts = vec![0, 2, 4, 5, FIXED_HEADER_LEN];
    for t in 1..=num_tables {
        cuts.push(FIXED_HEADER_LEN + t * TABLE_ENTRY_LEN);
    }
    cuts.push(header_len + (bytes.len() - FOOTER_LEN - header_len) / 2);
    cuts.push(bytes.len() - FOOTER_LEN);
    cuts.push(bytes.len() - 1);
    cuts
}

#[test]
fn truncation_at_every_section_boundary_is_a_typed_error() {
    let bytes = save_model(fixture_model().as_ref());
    for cut in section_boundaries(&bytes) {
        match load_model(&bytes[..cut]) {
            Err(KgError::Corrupt(_)) => {}
            Err(other) => panic!("cut at {cut}: expected Corrupt, got {other}"),
            Ok(_) => panic!("cut at {cut}: truncated file loaded"),
        }
    }
}

#[test]
fn random_bit_flips_never_panic_and_never_load_silently() {
    let model = fixture_model();
    let bytes = save_model(model.as_ref());
    let reference = model.score(Triple::new(0u32, 0u32, 1u32));
    let mut rng = StdRng::seed_from_u64(0xFA_017);
    for _ in 0..500 {
        let mut corrupted = bytes.to_vec();
        // 1–4 random single-bit flips anywhere in the file.
        for _ in 0..rng.random_range(1..5) {
            let byte = rng.random_range(0..corrupted.len());
            let bit = rng.random_range(0..8u32);
            corrupted[byte] ^= 1 << bit;
        }
        match load_model(&corrupted) {
            // Typed rejection is the expected outcome.
            Err(
                KgError::Corrupt(_) | KgError::UnsupportedVersion { .. } | KgError::Migration(_),
            ) => {}
            Err(other) => panic!("bit flips produced unexpected error kind: {other}"),
            // An even number of flips can cancel out and reproduce the
            // original bytes — only then may the load succeed, and the
            // model must be the original one.
            Ok(loaded) => {
                assert_eq!(corrupted, bytes.to_vec(), "corrupted bytes loaded");
                assert_eq!(
                    loaded.score(Triple::new(0u32, 0u32, 1u32)).to_bits(),
                    reference.to_bits()
                );
            }
        }
    }
}

#[test]
fn version_skew_is_reported_with_the_found_version() {
    let bytes = save_model(fixture_model().as_ref());
    for skewed in [0u8, 3, 4, 9, 255] {
        let mut copy = bytes.to_vec();
        copy[4] = skewed;
        match load_model(&copy) {
            Err(KgError::UnsupportedVersion {
                found,
                max_supported,
            }) => {
                assert_eq!(found, skewed);
                assert_eq!(max_supported, FORMAT_VERSION);
            }
            other => panic!(
                "version {skewed}: expected UnsupportedVersion, got {other:?}",
                other = other.err().map(|e| e.to_string())
            ),
        }
    }
}

/// Saves `model`, sets the config block's `u64` field at `at` to `value`,
/// and re-signs the footer, so the CRC passes and only the check of the
/// config block against the table directory stands between the reader and
/// a config the tables do not hold.
fn assert_forged_config_is_corrupt(model: &dyn KgeModel, at: usize, value: u64) {
    let mut forged = save_model(model);
    forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let body = forged.len() - FOOTER_LEN;
    let crc = crc32(&forged[..body]);
    forged[body..].copy_from_slice(&crc.to_le_bytes());
    match load_model(&forged) {
        Err(KgError::Corrupt(_)) => {}
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("a config block that disagrees with its tables loaded"),
    }
}

#[test]
fn entity_count_beyond_the_table_directory_is_corrupt() {
    // Built unchecked, this is a 2^40 × 8 entity table: an allocation abort.
    let model = new_model(ModelKind::TransE, 5, 2, 8, 42);
    assert_forged_config_is_corrupt(model.as_ref(), NUM_ENTITIES_AT, 1 << 40);
}

#[test]
fn dim_beyond_the_table_directory_is_corrupt() {
    // Built unchecked, 5 × 2^62 floats overflow the allocation size.
    let model = new_model(ModelKind::TransE, 5, 2, 8, 42);
    assert_forged_config_is_corrupt(model.as_ref(), DIM_AT, 1 << 62);
}

#[test]
fn conve_dim_that_cannot_reshape_is_corrupt() {
    // 7 has no h×w factorization with h ≥ 2, w ≥ 3.
    let model = new_model(ModelKind::ConvE, 5, 2, 12, 42);
    assert_forged_config_is_corrupt(model.as_ref(), DIM_AT, 7);
}

#[test]
fn odd_complex_dim_is_corrupt() {
    // ComplEx splits each row into equal real and imaginary halves.
    let model = new_model(ModelKind::ComplEx, 5, 2, 8, 42);
    assert_forged_config_is_corrupt(model.as_ref(), DIM_AT, 7);
}

#[test]
fn partially_written_file_on_disk_is_a_typed_error_with_path_context() {
    let dir = std::env::temp_dir().join(format!("kgfd-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("partial.kgfd");
    let bytes = save_model(fixture_model().as_ref());
    // Simulate a writer killed mid-write: a prefix of the real bytes. The
    // atomic temp-file + rename protocol means this can only ever be
    // observed for files written by *other* (non-atomic) tooling — and the
    // reader must still reject it cleanly.
    for cut in [5usize, FIXED_HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = read_model_file(&path).err().expect("partial file loaded");
        assert!(matches!(err, KgError::Corrupt(_)), "cut {cut}: {err}");
        assert!(
            err.to_string().contains("partial.kgfd"),
            "cut {cut}: missing path context: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn zoo_cache_path(dataset: DatasetRef, model: ModelKind, scale: Scale) -> PathBuf {
    cache_dir().join(format!(
        "{}-{}-{}-v3.kgfd",
        dataset.name(),
        model.name(),
        scale.name()
    ))
}

#[test]
fn zoo_evicts_truncated_cache_entry_and_retrains_identically() {
    let _serial = serial();
    let dataset = DatasetRef::CodexL;
    let kind = ModelKind::TransE;
    let data = dataset.load(Scale::Mini);
    let path = zoo_cache_path(dataset, kind, Scale::Mini);
    let _ = std::fs::remove_file(&path);

    let a = trained_model(dataset, kind, Scale::Mini, &data);
    // Interrupted write: leave a prefix of the valid entry on disk.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

    let b = trained_model(dataset, kind, Scale::Mini, &data);
    let t = data.train.triples()[0];
    assert_eq!(
        a.score(t).to_bits(),
        b.score(t).to_bits(),
        "deterministic retrain after eviction"
    );
    let repaired = read_model_file(&path).expect("cache entry repaired");
    assert_eq!(repaired.score(t).to_bits(), a.score(t).to_bits());
    let recoveries = kgfd_obs::drain_recoveries();
    assert!(
        recoveries.iter().any(|r| r.contains("zoo.cache.corrupt")),
        "eviction missing from recovery log: {recoveries:?}"
    );
}

#[test]
fn zoo_evicts_version_skewed_cache_entry() {
    let _serial = serial();
    let dataset = DatasetRef::Wn18rr;
    let kind = ModelKind::DistMult;
    let data = dataset.load(Scale::Mini);
    let path = zoo_cache_path(dataset, kind, Scale::Mini);
    let _ = std::fs::remove_file(&path);

    let a = trained_model(dataset, kind, Scale::Mini, &data);
    // A cache entry from a hypothetical future format version.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] = FORMAT_VERSION + 1;
    std::fs::write(&path, &bytes).unwrap();

    let b = trained_model(dataset, kind, Scale::Mini, &data);
    let t = data.train.triples()[0];
    assert_eq!(a.score(t).to_bits(), b.score(t).to_bits());
    assert_eq!(
        read_model_file(&path).expect("repaired").score(t).to_bits(),
        a.score(t).to_bits()
    );
    let _ = kgfd_obs::drain_recoveries();
}

#[test]
fn concurrent_zoo_access_yields_identical_models_and_a_valid_cache() {
    let _serial = serial();
    let dataset = DatasetRef::Fb15k237;
    let kind = ModelKind::DistMult;
    let data = dataset.load(Scale::Mini);
    let path = zoo_cache_path(dataset, kind, Scale::Mini);
    let _ = std::fs::remove_file(&path);

    // Four threads race on the same cold pair: some train, some may hit the
    // cache a racer just wrote. Training is deterministic and the cache
    // write is atomic, so every outcome must be bit-identical.
    let models: Vec<Box<dyn KgeModel>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| trained_model_threaded(dataset, kind, Scale::Mini, &data, 1)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let probes: Vec<Triple> = data.train.triples().iter().take(16).copied().collect();
    for m in &models[1..] {
        for &t in &probes {
            assert_eq!(m.score(t).to_bits(), models[0].score(t).to_bits());
        }
    }
    // Whichever rename landed last left a complete, checksummed entry.
    let cached = read_model_file(&path).expect("cache valid after the race");
    for &t in &probes {
        assert_eq!(cached.score(t).to_bits(), models[0].score(t).to_bits());
    }
    let _ = kgfd_obs::drain_recoveries();
}

#[test]
fn zoo_recovery_is_visible_in_the_jsonl_run_manifest() {
    let _serial = serial();
    let dataset = DatasetRef::Yago310;
    let kind = ModelKind::TransE;
    let data = dataset.load(Scale::Mini);
    let path = zoo_cache_path(dataset, kind, Scale::Mini);
    let _ = std::fs::remove_file(&path);
    // Populate the cache, then flip one payload byte.
    let _ = trained_model(dataset, kind, Scale::Mini, &data);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let _ = kgfd_obs::drain_recoveries(); // discard unrelated history

    let dir = std::env::temp_dir().join(format!("kgfd-faults-jsonl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("run.jsonl");
    {
        let _guard = kgfd_obs::scoped(std::sync::Arc::new(
            kgfd_obs::JsonlSink::create(&jsonl).unwrap(),
        ));
        let _model = trained_model(dataset, kind, Scale::Mini, &data);
        kgfd_obs::RunManifest {
            command: "discover".to_string(),
            crate_version: "test".to_string(),
            strategy: "uniform".to_string(),
            model: kind.name().to_string(),
            seed: 0,
            dataset: kgfd_obs::DatasetShape {
                entities: data.train.num_entities() as u64,
                relations: data.train.num_relations() as u64,
                triples: data.train.len() as u64,
            },
            config: Vec::new(),
            wall_clock_s: 0.0,
            recoveries: Vec::new(),
            resumed_from: None,
            trace: None,
            pool: None,
        }
        .emit();
    }

    let text = std::fs::read_to_string(&jsonl).unwrap();
    let mut manifest_recoveries = None;
    let mut saw_corrupt_metric = false;
    for line in text.lines() {
        let value: serde_json::Value = serde_json::from_str(line).expect("line parses");
        let event: kgfd_obs::Event =
            serde::Deserialize::deserialize(&value).expect("line matches the Event schema");
        match event.payload {
            kgfd_obs::Payload::Manifest(m) => manifest_recoveries = Some(m.recoveries),
            kgfd_obs::Payload::Metric { name, .. } if name == "zoo.cache.corrupt" => {
                saw_corrupt_metric = true;
            }
            _ => {}
        }
    }
    assert!(
        saw_corrupt_metric,
        "no zoo.cache.corrupt metric in:\n{text}"
    );
    let recoveries = manifest_recoveries.expect("manifest line present");
    assert!(
        recoveries
            .iter()
            .any(|r| r.contains("zoo.cache.corrupt") && r.contains("checksum mismatch")),
        "manifest recoveries missing the eviction: {recoveries:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Fault injection for "KGCK" v1 training checkpoints.
// ---------------------------------------------------------------------------

use kgfd_datasets::toy_biomedical;
use kgfd_embed::{
    checkpoint_paths, read_checkpoint_file, resume_latest, CheckpointPolicy, TrainConfig,
    TrainSession, CHECKPOINT_VERSION,
};

fn ckpt_config() -> TrainConfig {
    TrainConfig {
        dim: 8,
        epochs: 6,
        batch_size: 32,
        negatives: 2,
        seed: 40,
        threads: 1,
        ..TrainConfig::default()
    }
}

/// A scratch dir plus the output path checkpoints sit beside; unique per
/// test so the suites can run in parallel.
fn ckpt_arena(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("kgfd-ckpt-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("model.kgfd");
    (dir, out)
}

/// Trains `epochs` and saves one checkpoint at that boundary.
fn checkpoint_after(
    store: &kgfd_kg::TripleStore,
    config: &TrainConfig,
    out: &Path,
    epochs: usize,
) -> PathBuf {
    let mut session = TrainSession::new(ModelKind::DistMult, store, config).unwrap();
    for _ in 0..epochs {
        session.run_epoch();
    }
    let policy = CheckpointPolicy::new(out.to_path_buf(), 1);
    session.save_checkpoint(&policy).unwrap()
}

/// A writer killed *between* the temp-file write and the rename leaves a
/// dot-prefixed `.tmp.` sibling behind. That debris must be invisible to
/// resume: it is not enumerated as a checkpoint, and the real checkpoint
/// next to it restores normally.
#[test]
fn stale_tmp_sibling_from_a_killed_writer_is_ignored_on_resume() {
    let data = toy_biomedical();
    let config = ckpt_config();
    let (dir, out) = ckpt_arena("tmp");
    let real = checkpoint_after(&data.train, &config, &out, 2);
    // Debris mimicking persist.rs's `.{name}.tmp.{pid}.{n}` temp sibling,
    // plus a half-written checkpoint-named file with a non-digit suffix.
    std::fs::write(dir.join(".model.kgfd.ckpt-00000003.tmp.9999.0"), b"garbage").unwrap();
    std::fs::write(dir.join("model.kgfd.ckpt-00000003x"), b"partial").unwrap();

    let found = checkpoint_paths(&out);
    assert_eq!(
        found.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
        vec![2],
        "only the completed checkpoint may be enumerated: {found:?}"
    );
    let (session, report) = resume_latest(ModelKind::DistMult, &data.train, &config, &out).unwrap();
    assert_eq!(session.epochs_done(), 2);
    assert_eq!(report.resumed_from.as_deref(), Some(real.as_path()));
    assert!(report.recoveries.is_empty(), "{:?}", report.recoveries);
    let _ = kgfd_obs::drain_recoveries();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncating the newest checkpoint (a crash mid-write without the atomic
/// protocol, or disk damage) must fall back to the previous boundary: the
/// bad file is evicted, the recovery recorded, and training resumes from
/// the older state.
#[test]
fn truncated_newest_checkpoint_falls_back_to_the_previous_one() {
    let data = toy_biomedical();
    let config = ckpt_config();
    let (dir, out) = ckpt_arena("trunc");
    let older = checkpoint_after(&data.train, &config, &out, 2);
    let newest = checkpoint_after(&data.train, &config, &out, 4);
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

    let (session, report) = resume_latest(ModelKind::DistMult, &data.train, &config, &out).unwrap();
    assert_eq!(session.epochs_done(), 2, "fell back to the epoch-2 state");
    assert_eq!(report.resumed_from.as_deref(), Some(older.as_path()));
    assert_eq!(report.recoveries.len(), 1);
    assert!(
        report.recoveries[0].contains("evicted"),
        "{}",
        report.recoveries[0]
    );
    assert!(!newest.exists(), "the truncated file must be evicted");
    let _ = kgfd_obs::drain_recoveries();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint stamped with a future format version is a typed
/// [`KgError::UnsupportedVersion`] when read directly, and resume evicts it
/// (this binary cannot parse it — its layout is unknown) and starts over.
#[test]
fn version_skewed_checkpoint_is_typed_and_evicted_on_resume() {
    let data = toy_biomedical();
    let config = ckpt_config();
    let (dir, out) = ckpt_arena("skew");
    let path = checkpoint_after(&data.train, &config, &out, 3);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] = CHECKPOINT_VERSION + 1; // version byte right after "KGCK"
    std::fs::write(&path, &bytes).unwrap();

    match read_checkpoint_file(&path) {
        Err(KgError::UnsupportedVersion {
            found,
            max_supported,
        }) => {
            assert_eq!(found, CHECKPOINT_VERSION + 1);
            assert_eq!(max_supported, CHECKPOINT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let (session, report) = resume_latest(ModelKind::DistMult, &data.train, &config, &out).unwrap();
    assert_eq!(session.epochs_done(), 0, "no usable checkpoint → fresh run");
    assert!(report.resumed_from.is_none());
    assert_eq!(report.recoveries.len(), 1);
    let _ = kgfd_obs::drain_recoveries();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A structurally healthy checkpoint whose fingerprint disagrees with the
/// requested configuration must be *refused*, not silently skipped or
/// deleted — resuming it would train a different run than the one asked
/// for, and falling back would quietly discard the user's state.
#[test]
fn mismatched_fingerprint_checkpoint_is_refused_and_left_on_disk() {
    let data = toy_biomedical();
    let config = ckpt_config();
    let (dir, out) = ckpt_arena("fp");
    let path = checkpoint_after(&data.train, &config, &out, 3);
    let mut other = config.clone();
    other.seed = config.seed + 1;

    match resume_latest(ModelKind::DistMult, &data.train, &other, &out) {
        Err(KgError::CheckpointMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!(
            "expected CheckpointMismatch, got {other:?}",
            other = other.as_ref().err().map(|e| e.to_string())
        ),
    }
    assert!(
        path.exists(),
        "a refused checkpoint must not be deleted — the user may still want it"
    );
    let _ = kgfd_obs::drain_recoveries();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Golden snapshot of the v2 byte layout.
// ---------------------------------------------------------------------------

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             (run `UPDATE_GOLDEN=1 cargo test --test persistence_faults` to create it)",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "v2 layout drifted from {} — if intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test persistence_faults` and commit the diff",
        path.display()
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders the header, table directory, and footer of a v2 file as an
/// annotated hex dump. The f32 payload is summarized by length (its values
/// are init noise), but it is still covered by the rendered CRC.
fn render_layout(bytes: &[u8]) -> String {
    let num_tables = bytes[FIXED_HEADER_LEN - 1] as usize;
    let header_len = FIXED_HEADER_LEN + num_tables * TABLE_ENTRY_LEN;
    let payload_len = bytes.len() - header_len - FOOTER_LEN;
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    let mut out = String::new();
    out.push_str("offset  field          bytes\n");
    out.push_str(&format!(
        "0       magic          {}  (\"KGFD\")\n",
        hex(&bytes[0..4])
    ));
    out.push_str(&format!("4       version        {}\n", hex(&bytes[4..5])));
    out.push_str(&format!("5       kind           {}\n", hex(&bytes[5..6])));
    out.push_str(&format!(
        "6       flags          {}  (bit0: TransE distance, 1 = L2)\n",
        hex(&bytes[6..7])
    ));
    out.push_str(&format!(
        "7       num_entities   {}  ({})\n",
        hex(&bytes[7..15]),
        u64_at(7)
    ));
    out.push_str(&format!(
        "15      num_relations  {}  ({})\n",
        hex(&bytes[15..23]),
        u64_at(15)
    ));
    out.push_str(&format!(
        "23      dim            {}  ({})\n",
        hex(&bytes[23..31]),
        u64_at(23)
    ));
    out.push_str(&format!("31      num_tables     {}\n", hex(&bytes[31..32])));
    for t in 0..num_tables {
        let off = FIXED_HEADER_LEN + t * TABLE_ENTRY_LEN;
        out.push_str(&format!(
            "{off:<7} table {t} shape  {}  ({} x {})\n",
            hex(&bytes[off..off + 16]),
            u64_at(off),
            u64_at(off + 8)
        ));
    }
    out.push_str(&format!(
        "{header_len:<7} payload        {payload_len} bytes of f32 LE table data\n"
    ));
    out.push_str(&format!(
        "{:<7} crc32 footer   {}  ({crc:#010x}, over all preceding bytes)\n",
        bytes.len() - 4,
        hex(&bytes[bytes.len() - 4..])
    ));
    out.push_str(&format!("\ntotal: {} bytes\n", bytes.len()));
    out
}

/// Renders the section structure of a "KGCK" v1 checkpoint as an annotated
/// dump. Bulk f32 payloads are summarized by length; every header integer
/// is shown verbatim, and the CRC covers the whole file.
fn render_checkpoint_layout(bytes: &[u8]) -> String {
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    let mut out = String::new();
    out.push_str("offset  field          value\n");
    out.push_str(&format!(
        "0       magic          {}  (\"KGCK\")\n",
        hex(&bytes[0..4])
    ));
    out.push_str(&format!("4       version        {}\n", hex(&bytes[4..5])));
    out.push_str(&format!("5       fingerprint    {:#018x}\n", u64_at(5)));
    out.push_str(&format!("13      epochs_done    {}\n", u64_at(13)));
    out.push_str(&format!(
        "21      rng_state      [{:#x}, {:#x}, {:#x}, {:#x}]\n",
        u64_at(21),
        u64_at(29),
        u64_at(37),
        u64_at(45)
    ));
    let num_losses = u64_at(53) as usize;
    let mut off = 61;
    out.push_str(&format!("53      num_losses     {num_losses}\n"));
    for i in 0..num_losses {
        out.push_str(&format!(
            "{off:<7} loss[{i}]        {}\n",
            f64::from_bits(u64_at(off))
        ));
        off += 8;
    }
    let model_len = u64_at(off) as usize;
    out.push_str(&format!("{off:<7} model_len      {model_len}\n"));
    off += 8;
    out.push_str(&format!(
        "{off:<7} model bytes    {model_len} bytes (embedded \"KGFD\" v2 file)\n"
    ));
    off += model_len;
    let tag = bytes[off];
    out.push_str(&format!(
        "{off:<7} optimizer tag  {tag:#04x}  (0 = SGD, 1 = Adagrad, 2 = Adam)\n"
    ));
    off += 1;
    let opt_len = bytes.len() - FOOTER_LEN - off;
    out.push_str(&format!(
        "{off:<7} optimizer data {opt_len} bytes (shape directory + f32 state)\n"
    ));
    out.push_str(&format!(
        "{:<7} crc32 footer   {}  ({crc:#010x}, over all preceding bytes)\n",
        bytes.len() - 4,
        hex(&bytes[bytes.len() - 4..])
    ));
    out.push_str(&format!("\ntotal: {} bytes\n", bytes.len()));
    out
}

#[test]
fn kgck_v1_layout_matches_golden_snapshot() {
    // A real checkpoint taken 2 epochs into a seeded DistMult run: every
    // byte — init noise, Adam moments, losses, RNG position — is
    // reproducible, so the snapshot pins the layout *and* the determinism
    // of the state feeding it.
    let data = toy_biomedical();
    let config = TrainConfig {
        dim: 8,
        epochs: 4,
        batch_size: 32,
        negatives: 2,
        seed: 99,
        threads: 1,
        ..TrainConfig::default()
    };
    let mut session = TrainSession::new(ModelKind::DistMult, &data.train, &config).unwrap();
    session.run_epoch();
    session.run_epoch();
    let bytes = session.checkpoint().encode();
    assert_eq!(
        u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap()),
        crc32(&bytes[..bytes.len() - 4])
    );
    let layout = format!(
        "KGCK v1 checkpoint layout (DistMult, dim 8, seed 99, 2 of 4 epochs done)\n\n{}",
        render_checkpoint_layout(&bytes)
    );
    assert_matches_golden("checkpoint_format_v1.txt", &layout);
}

#[test]
fn v2_header_layout_matches_golden_snapshot() {
    // A TransE/L2 model exercises the kind tag and the distance flag; the
    // seeded init makes every byte (and therefore the CRC) reproducible.
    let model = TransE::new(5, 2, 4, Distance::L2, 9);
    let bytes = save_model(&model);
    // The rendered footer must agree with an independent CRC computation.
    assert_eq!(
        u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap()),
        crc32(&bytes[..bytes.len() - 4])
    );
    let layout = format!(
        "v2 model file layout (TransE, L2, 5 entities, 2 relations, dim 4, seed 9)\n\n{}",
        render_layout(&bytes)
    );
    assert_matches_golden("model_format_v2.txt", &layout);
}
