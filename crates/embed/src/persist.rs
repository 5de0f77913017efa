//! Binary model persistence (save once, rerun discovery many times).
//!
//! ## Format v2 (current)
//!
//! ```text
//! magic "KGFD" | version u8 = 2
//! | kind u8 | flags u8 | N u64 | K u64 | dim u64          ← config block
//! | num_tables u8 | { rows u64, cols u64 }*               ← table directory
//! | f32 data per table                                    ← payload
//! | crc32 u32                                             ← integrity footer
//! ```
//!
//! All integers little-endian (`to_le_bytes` into a `Vec<u8>` on write,
//! `from_le_bytes` on bounds-checked slices on read). The config block is
//! produced by [`KgeModel::config`] — `flags` bit 0 encodes TransE's
//! distance (0 = L1, 1 = L2); all other bits must be zero. The trailing
//! CRC-32 (IEEE, the zlib polynomial) covers every preceding byte, and the
//! reader rejects any file whose length differs from what its own header
//! implies — so truncation, bit flips, and appended garbage all surface as
//! [`KgError::Corrupt`] instead of a silently-wrong model. A CRC can be
//! re-signed, so before building anything the reader also checks the
//! config block against the table directory and the kind's dim rules.
//!
//! Kind tags 6, 7 and 8 belonged to RotatE, SimplE and TuckER, which are
//! no longer built. A checksummed file carrying one returns
//! [`KgError::Migration`] naming the kind; any other unknown tag is
//! [`KgError::Corrupt`].
//!
//! ## Format v1 (retired)
//!
//! v1 was the same layout without the CRC footer, and its generic writer
//! hard-coded TransE's distance flag to L1. Nothing has written it since
//! v2, so a file with version byte 1 is not parsed: [`load_model`] returns
//! [`KgError::Migration`] for every model kind (retrain and re-save).

use crate::model::ModelConfig;
use crate::models::Distance;
use crate::{KgeModel, ModelKind};
use kgfd_kg::{KgError, Result};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 4] = b"KGFD";
/// Current (written) model format version.
pub const FORMAT_VERSION: u8 = 2;
/// Fixed-size portion of the v2 header: magic + version + config block +
/// table count, i.e. everything before the table directory.
const FIXED_HEADER_LEN: usize = 4 + 1 + 1 + 1 + 8 + 8 + 8 + 1;
/// Bytes per table-directory entry (rows + cols).
const TABLE_ENTRY_LEN: usize = 16;
/// Length of the CRC-32 footer.
const FOOTER_LEN: usize = 4;

const FLAG_TRANSE_L2: u8 = 0b0000_0001;
const KNOWN_FLAGS: u8 = FLAG_TRANSE_L2;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the zlib/PNG
/// checksum. Exposed so fault-injection tests and external tooling can
/// validate or forge footers.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn flags_of(config: &ModelConfig) -> u8 {
    match config.distance {
        Some(Distance::L2) => FLAG_TRANSE_L2,
        _ => 0,
    }
}

/// Serializes a model to v2 bytes (config block, table directory, payload,
/// CRC-32 footer). The configuration comes from [`KgeModel::config`], so
/// every kind — including TransE with either distance — round-trips through
/// the one generic path.
pub fn save_model(model: &dyn KgeModel) -> Vec<u8> {
    let config = model.config();
    let params = model.params();
    let mut buf = Vec::with_capacity(
        FIXED_HEADER_LEN + params.num_tables() * TABLE_ENTRY_LEN + params.num_parameters() * 4 + 4,
    );
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&[FORMAT_VERSION, config.kind.tag(), flags_of(&config)]);
    for n in [config.num_entities, config.num_relations, config.dim] {
        buf.extend_from_slice(&(n as u64).to_le_bytes());
    }
    buf.push(params.num_tables() as u8);
    for table in params.tables() {
        buf.extend_from_slice(&(table.rows() as u64).to_le_bytes());
        buf.extend_from_slice(&(table.cols() as u64).to_le_bytes());
    }
    for table in params.tables() {
        for &v in table.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    let checksum = crc32(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Little-endian `u64` at `at`; the caller has bounds-checked the slice.
fn u64_at(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

fn corrupt(msg: impl Into<String>) -> KgError {
    KgError::Corrupt(format!("model file: {}", msg.into()))
}

/// Deserializes a model saved by [`save_model`] (v2, checksummed). A
/// retired v1 file is rejected with [`KgError::Migration`] without being
/// parsed; any other version byte is [`KgError::UnsupportedVersion`].
pub fn load_model(data: &[u8]) -> Result<Box<dyn KgeModel>> {
    if data.len() < 5 {
        return Err(corrupt(format!(
            "{} bytes is too short to hold even magic and version",
            data.len()
        )));
    }
    if &data[..4] != MAGIC {
        return Err(corrupt("bad magic (not a KGFD model file)"));
    }
    match data[4] {
        1 => Err(KgError::Migration(
            "format v1 model file: retrain the model and save it under format v2".into(),
        )),
        2 => load_v2(data),
        found => Err(KgError::UnsupportedVersion {
            found,
            max_supported: FORMAT_VERSION,
        }),
    }
}

/// The config block + table directory of a v2 file, parsed from the start
/// of the file: the raw config fields, the table shapes, and the lengths
/// they imply.
struct Header {
    kind_tag: u8,
    flags: u8,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    shapes: Vec<(usize, usize)>,
    /// Bytes from offset 0 through the end of the table directory.
    header_len: usize,
    /// Total f32 payload length in bytes.
    payload_len: usize,
}

impl Header {
    /// Interprets the config block. Called only once the footer vouches for
    /// the bytes, so a bit flip in the kind tag reads as a checksum mismatch
    /// rather than as a retired kind.
    fn config(&self) -> Result<ModelConfig> {
        let (tag, flags) = (self.kind_tag, self.flags);
        let Some(kind) = ModelKind::from_tag(tag) else {
            return Err(match ModelKind::retired_name(tag) {
                Some(name) => KgError::Migration(format!(
                    "model kind `{name}` (tag {tag}) is no longer supported: \
                     retrain with one of {}",
                    ModelKind::ALL.map(ModelKind::name).join(", ")
                )),
                None => corrupt(format!("unknown model kind tag {tag}")),
            });
        };
        if flags & !KNOWN_FLAGS != 0 {
            return Err(corrupt(format!("unknown flag bits {flags:#010b}")));
        }
        if flags & FLAG_TRANSE_L2 != 0 && kind != ModelKind::TransE {
            return Err(corrupt(format!(
                "distance flag set on non-TransE model ({kind})"
            )));
        }
        let distance = if kind == ModelKind::TransE {
            Some(if flags & FLAG_TRANSE_L2 != 0 {
                Distance::L2
            } else {
                Distance::L1
            })
        } else {
            None
        };
        Ok(ModelConfig {
            kind,
            num_entities: self.num_entities,
            num_relations: self.num_relations,
            dim: self.dim,
            distance,
        })
    }
}

fn parse_header(full: &[u8]) -> Result<Header> {
    if full.len() < FIXED_HEADER_LEN {
        return Err(corrupt(format!(
            "truncated header: {} bytes, need at least {FIXED_HEADER_LEN}",
            full.len()
        )));
    }
    let num_tables = full[31] as usize;

    let header_len = FIXED_HEADER_LEN + num_tables * TABLE_ENTRY_LEN;
    if full.len() < header_len {
        return Err(corrupt(format!(
            "truncated table directory: {} bytes, header implies {header_len}",
            full.len()
        )));
    }
    let mut shapes = Vec::with_capacity(num_tables);
    let mut payload_len = 0usize;
    for entry in 0..num_tables {
        let at = FIXED_HEADER_LEN + entry * TABLE_ENTRY_LEN;
        let rows = u64_at(full, at) as usize;
        let cols = u64_at(full, at + 8) as usize;
        let cells = rows
            .checked_mul(cols)
            .and_then(|c| c.checked_mul(4))
            .ok_or_else(|| corrupt("table shape overflows"))?;
        payload_len = payload_len
            .checked_add(cells)
            .ok_or_else(|| corrupt("payload length overflows"))?;
        shapes.push((rows, cols));
    }
    Ok(Header {
        kind_tag: full[5],
        flags: full[6],
        num_entities: u64_at(full, 7) as usize,
        num_relations: u64_at(full, 15) as usize,
        dim: u64_at(full, 23) as usize,
        shapes,
        header_len,
        payload_len,
    })
}

/// Builds the model described by `header` and fills its tables from
/// `payload` (exactly the f32 data, already length-checked). The config
/// block is checked against the table directory first: `build` allocates
/// every table the config implies and asserts the kind's dim rules, while
/// the directory is bounded by the file's length.
fn materialize(header: &Header, payload: &[u8]) -> Result<Box<dyn KgeModel>> {
    let config = header.config()?;
    let expected = config.table_shapes().map_err(corrupt)?;
    if expected != header.shapes {
        return Err(corrupt(format!(
            "table directory {:?} does not match the config block: a {} model of {} \
             entities, {} relations and dim {} has tables {expected:?}",
            header.shapes, config.kind, config.num_entities, config.num_relations, config.dim
        )));
    }
    let mut model = config.build(0);
    let params = model.params_mut();
    let mut values = payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")));
    for i in 0..params.num_tables() {
        for (v, stored) in params.table_mut(i).data_mut().iter_mut().zip(&mut values) {
            *v = stored;
        }
    }
    Ok(model)
}

fn load_v2(data: &[u8]) -> Result<Box<dyn KgeModel>> {
    let header = parse_header(data)?;
    let expected = header.header_len + header.payload_len + FOOTER_LEN;
    if data.len() < expected {
        return Err(corrupt(format!(
            "truncated: {} bytes, header implies {expected}",
            data.len()
        )));
    }
    if data.len() > expected {
        return Err(corrupt(format!(
            "{} trailing bytes after the checksum footer",
            data.len() - expected
        )));
    }
    let body = &data[..expected - FOOTER_LEN];
    let stored = u32::from_le_bytes(data[expected - FOOTER_LEN..].try_into().expect("4 bytes"));
    let actual = crc32(body);
    if stored != actual {
        return Err(corrupt(format!(
            "checksum mismatch: footer {stored:#010x}, computed {actual:#010x}"
        )));
    }
    materialize(&header, &body[header.header_len..])
}

/// Monotonic suffix so concurrent writers in one process never share a
/// temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "model".into());
    path.with_file_name(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Atomically writes `bytes` to `path`: write a unique temp sibling, fsync,
/// then rename over the destination. Readers therefore observe either the
/// previous file or the complete new one — never a partial write — and
/// concurrent writers (threads or processes) cannot interleave. Parent
/// directories are created as needed. Shared by the model writer below and
/// the training-checkpoint writer.
pub(crate) fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_sibling(path);
    let cleanup = |e: std::io::Error| {
        let _ = std::fs::remove_file(&tmp);
        KgError::Io(e)
    };
    let mut file = std::fs::File::create(&tmp).map_err(KgError::Io)?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(cleanup)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(cleanup)
}

/// Atomically writes `model` to `path` (see [`write_bytes_atomic`] for the
/// crash-safety guarantees).
pub fn write_model_file(path: impl AsRef<Path>, model: &dyn KgeModel) -> Result<()> {
    write_bytes_atomic(path.as_ref(), &save_model(model))
}

/// Reads and verifies a model file written by [`write_model_file`] /
/// [`save_model`]. Integrity failures come back as [`KgError::Corrupt`] /
/// [`KgError::Migration`] with the path prepended.
pub fn read_model_file(path: impl AsRef<Path>) -> Result<Box<dyn KgeModel>> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    load_model(&bytes).map_err(|e| match e {
        KgError::Corrupt(d) => KgError::Corrupt(format!("{}: {d}", path.display())),
        KgError::Migration(d) => KgError::Migration(format!("{}: {d}", path.display())),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::TransE;
    use crate::new_model;
    use kgfd_kg::Triple;

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical CRC-32 check value (RFC 1952 / zlib).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_scores_for_all_kinds() {
        for kind in ModelKind::ALL {
            let model = new_model(kind, 6, 2, 12, 42);
            let bytes = save_model(model.as_ref());
            let loaded = load_model(&bytes).unwrap();
            assert_eq!(loaded.kind(), kind);
            assert_eq!(loaded.config(), model.config());
            for t in [Triple::new(0u32, 0u32, 1u32), Triple::new(3u32, 1u32, 5u32)] {
                let a = model.score(t);
                let b = loaded.score(t);
                assert_eq!(a.to_bits(), b.to_bits(), "{kind}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn transe_distance_survives_generic_roundtrip() {
        // The v1 bug: this exact path (generic `save_model` on an L2 TransE)
        // silently reloaded as L1.
        for distance in [Distance::L1, Distance::L2] {
            let model = TransE::new(4, 2, 8, distance, 1);
            let bytes = save_model(&model);
            let loaded = load_model(&bytes).unwrap();
            assert_eq!(loaded.config().distance, Some(distance));
            let t = Triple::new(0u32, 1u32, 3u32);
            assert_eq!(loaded.score(t).to_bits(), model.score(t).to_bits());
        }
    }

    #[test]
    fn garbage_and_truncation_are_rejected() {
        assert!(matches!(load_model(b"nope"), Err(KgError::Corrupt(_))));
        assert!(matches!(load_model(&[]), Err(KgError::Corrupt(_))));
        let model = new_model(ModelKind::DistMult, 3, 1, 8, 0);
        let bytes = save_model(model.as_ref());
        for len in 0..bytes.len() {
            assert!(
                matches!(load_model(&bytes[..len]), Err(KgError::Corrupt(_))),
                "prefix of {len} bytes must be rejected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let model = new_model(ModelKind::ComplEx, 3, 1, 8, 0);
        let mut bytes = save_model(model.as_ref());
        bytes.push(0);
        let err = load_model(&bytes).err().expect("trailing garbage accepted");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let model = new_model(ModelKind::DistMult, 3, 1, 8, 7);
        let bytes = save_model(model.as_ref());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                load_model(&corrupt).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn unsupported_version_is_typed() {
        let model = new_model(ModelKind::DistMult, 3, 1, 8, 0);
        let mut bytes = save_model(model.as_ref());
        bytes[4] = 9;
        assert!(matches!(
            load_model(&bytes),
            Err(KgError::UnsupportedVersion {
                found: 9,
                max_supported: FORMAT_VERSION
            })
        ));
    }

    /// A v2 file with its version byte set to 1. A v1 file is rejected
    /// without being parsed, so the rest of the bytes do not matter.
    fn as_v1(model: &dyn KgeModel) -> Vec<u8> {
        let mut bytes = save_model(model);
        bytes[4] = 1;
        bytes
    }

    #[test]
    fn v1_non_transe_files_require_migration() {
        for kind in ModelKind::ALL {
            if kind == ModelKind::TransE {
                continue;
            }
            let model = new_model(kind, 4, 2, 6, 5);
            assert!(
                matches!(
                    load_model(&as_v1(model.as_ref())),
                    Err(KgError::Migration(_))
                ),
                "v1 {kind} must be rejected"
            );
        }
    }

    #[test]
    fn v1_transe_files_require_migration() {
        for distance in [Distance::L1, Distance::L2] {
            let model = TransE::new(4, 2, 8, distance, 1);
            assert!(
                matches!(load_model(&as_v1(&model)), Err(KgError::Migration(_))),
                "v1 TransE ({distance:?}) must be rejected"
            );
        }
    }

    /// Saves a DistMult model, forges `tag` into its kind byte and re-signs
    /// the footer, so only the reader's reading of the tag can refuse it.
    fn with_kind_tag(tag: u8) -> Vec<u8> {
        let mut bytes = save_model(new_model(ModelKind::DistMult, 4, 2, 8, 1).as_ref());
        bytes[5] = tag;
        let body = bytes.len() - FOOTER_LEN;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn retired_kind_tags_require_migration_by_name() {
        for (tag, name) in [(6, "rotate"), (7, "simple"), (8, "tucker")] {
            match load_model(&with_kind_tag(tag)) {
                Err(KgError::Migration(msg)) => assert!(msg.contains(name), "tag {tag}: {msg}"),
                other => panic!(
                    "tag {tag}: expected Migration, got {:?}",
                    other.map(|m| m.kind())
                ),
            }
        }
        assert!(matches!(
            load_model(&with_kind_tag(9)),
            Err(KgError::Corrupt(_))
        ));
        // One bit turns TransE's tag 0 into TuckER's 8; without a re-signed
        // footer that is damage, not a retired kind.
        let mut flipped = save_model(new_model(ModelKind::TransE, 4, 2, 8, 1).as_ref());
        flipped[5] ^= 0x08;
        let err = load_model(&flipped).err().expect("flipped tag accepted");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let model = TransE::new(4, 2, 8, Distance::L2, 1);
        let mut bytes = save_model(&model);
        bytes[6] |= 0b1000_0000;
        // Fix up the footer so only the flag check can reject it.
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = load_model(&bytes).err().expect("unknown flags accepted");
        assert!(err.to_string().contains("flag"), "{err}");
    }

    #[test]
    fn write_model_file_is_atomic_and_verifiable() {
        let dir = std::env::temp_dir().join(format!("kgfd-persist-{}", std::process::id()));
        let path = dir.join("nested").join("model.kgfd");
        let model = new_model(ModelKind::HolE, 5, 2, 8, 3);
        write_model_file(&path, model.as_ref()).unwrap();
        let loaded = read_model_file(&path).unwrap();
        let t = Triple::new(0u32, 0u32, 4u32);
        assert_eq!(loaded.score(t).to_bits(), model.score(t).to_bits());
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_model_file_prepends_path_context() {
        let dir = std::env::temp_dir().join(format!("kgfd-persist-ctx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.kgfd");
        std::fs::write(&path, b"XXXX garbage").unwrap();
        let err = read_model_file(&path).err().expect("garbage accepted");
        assert!(err.to_string().contains("bad.kgfd"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
