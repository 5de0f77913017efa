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
//! [`KgError::Corrupt`] instead of a silently-wrong model.
//!
//! ## Format v1 (read-only compatibility)
//!
//! Same layout without the CRC footer. v1 had a defect: the generic
//! `save_model` hard-coded TransE's distance flag to L1, so a v1 TransE
//! file's flag is untrustworthy — loading one returns
//! [`KgError::Migration`] (retrain or re-save under v2). Non-TransE v1
//! files carry no extra configuration and load normally.

use crate::model::ModelConfig;
use crate::models::Distance;
use crate::{KgeModel, ModelKind, Parameters};
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
    put_header_tail(&mut buf, &config, params);
    put_payload(&mut buf, params);
    let checksum = crc32(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Appends the shape fields shared by v1 and v2: `N u64 | K u64 | dim u64
/// | num_tables u8 | { rows u64, cols u64 }*`.
fn put_header_tail(buf: &mut Vec<u8>, config: &ModelConfig, params: &Parameters) {
    for n in [config.num_entities, config.num_relations, config.dim] {
        buf.extend_from_slice(&(n as u64).to_le_bytes());
    }
    buf.push(params.num_tables() as u8);
    for table in params.tables() {
        buf.extend_from_slice(&(table.rows() as u64).to_le_bytes());
        buf.extend_from_slice(&(table.cols() as u64).to_le_bytes());
    }
}

/// Appends every table's f32 data, little-endian, in table order.
fn put_payload(buf: &mut Vec<u8>, params: &Parameters) {
    for table in params.tables() {
        for &v in table.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Little-endian `u64` at `at`; the caller has bounds-checked the slice.
fn u64_at(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

fn corrupt(msg: impl Into<String>) -> KgError {
    KgError::Corrupt(format!("model file: {}", msg.into()))
}

/// Deserializes a model saved by [`save_model`] (v2, checksummed) or by the
/// legacy v1 writer (non-TransE only; v1 TransE files are rejected with
/// [`KgError::Migration`] because their distance flag is untrustworthy).
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
        1 => load_v1(data),
        2 => load_v2(data),
        found => Err(KgError::UnsupportedVersion {
            found,
            max_supported: FORMAT_VERSION,
        }),
    }
}

/// Parses the config block + table directory shared by v1 and v2 (they
/// differ only in the presence of the CRC footer). `data` must start at the
/// config block (offset 5). Returns the config, flags byte, and table
/// shapes, plus the total header length consumed.
struct Header {
    config: ModelConfig,
    shapes: Vec<(usize, usize)>,
    /// Bytes from offset 0 through the end of the table directory.
    header_len: usize,
    /// Total f32 payload length in bytes.
    payload_len: usize,
}

fn parse_header(full: &[u8]) -> Result<Header> {
    if full.len() < FIXED_HEADER_LEN {
        return Err(corrupt(format!(
            "truncated header: {} bytes, need at least {FIXED_HEADER_LEN}",
            full.len()
        )));
    }
    let kind_tag = full[5];
    let kind = ModelKind::from_tag(kind_tag)
        .ok_or_else(|| corrupt(format!("unknown model kind tag {kind_tag}")))?;
    let flags = full[6];
    if flags & !KNOWN_FLAGS != 0 {
        return Err(corrupt(format!("unknown flag bits {flags:#010b}")));
    }
    if flags & FLAG_TRANSE_L2 != 0 && kind != ModelKind::TransE {
        return Err(corrupt(format!(
            "distance flag set on non-TransE model ({kind})"
        )));
    }
    let n = u64_at(full, 7) as usize;
    let k = u64_at(full, 15) as usize;
    let dim = u64_at(full, 23) as usize;
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
    let distance = if kind == ModelKind::TransE {
        Some(if flags & FLAG_TRANSE_L2 != 0 {
            Distance::L2
        } else {
            Distance::L1
        })
    } else {
        None
    };
    Ok(Header {
        config: ModelConfig {
            kind,
            num_entities: n,
            num_relations: k,
            dim,
            distance,
        },
        shapes,
        header_len,
        payload_len,
    })
}

/// Builds the model described by `header` and fills its tables from
/// `payload` (exactly the f32 data, already length-checked).
fn materialize(header: &Header, payload: &[u8]) -> Result<Box<dyn KgeModel>> {
    let mut model = header.config.build(0);
    let params = model.params_mut();
    if params.num_tables() != header.shapes.len() {
        return Err(corrupt(format!(
            "table count mismatch: file has {}, a {} model has {}",
            header.shapes.len(),
            header.config.kind,
            params.num_tables()
        )));
    }
    let mut values = payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")));
    for (i, &(rows, cols)) in header.shapes.iter().enumerate() {
        let table = params.table_mut(i);
        if table.rows() != rows || table.cols() != cols {
            return Err(corrupt(format!(
                "table {i} shape mismatch: file {rows}×{cols}, model {}×{}",
                table.rows(),
                table.cols()
            )));
        }
        for (v, stored) in table.data_mut().iter_mut().zip(&mut values) {
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

fn load_v1(data: &[u8]) -> Result<Box<dyn KgeModel>> {
    let header = parse_header(data)?;
    if header.config.kind == ModelKind::TransE {
        // The v1 generic writer hard-coded the distance flag to L1, so the
        // flag in a v1 TransE file cannot be trusted — a model trained with
        // L2 would silently reload as L1 and score differently.
        return Err(KgError::Migration(
            "v1 TransE model files carry an untrustworthy distance flag; \
             retrain the model and save it under format v2"
                .into(),
        ));
    }
    let expected = header.header_len + header.payload_len;
    if data.len() < expected {
        return Err(corrupt(format!(
            "truncated: {} bytes, header implies {expected}",
            data.len()
        )));
    }
    if data.len() > expected {
        return Err(corrupt(format!(
            "{} trailing bytes after the parameter payload",
            data.len() - expected
        )));
    }
    materialize(&header, &data[header.header_len..])
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

    /// Writes v1 bytes (the legacy format) for compatibility tests.
    fn save_v1(model: &dyn KgeModel, flags: u8) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&[1, model.kind().tag(), flags]);
        put_header_tail(&mut buf, &model.config(), model.params());
        put_payload(&mut buf, model.params());
        buf
    }

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

    #[test]
    fn v1_non_transe_files_still_load() {
        let model = new_model(ModelKind::Rescal, 4, 2, 6, 5);
        let bytes = save_v1(model.as_ref(), 0);
        let loaded = load_model(&bytes).unwrap();
        let t = Triple::new(1u32, 0u32, 2u32);
        assert_eq!(loaded.score(t).to_bits(), model.score(t).to_bits());
    }

    #[test]
    fn v1_transe_files_require_migration() {
        for flags in [0u8, 1u8] {
            let model = TransE::new(4, 2, 8, Distance::L2, 1);
            let bytes = save_v1(&model, flags);
            assert!(
                matches!(load_model(&bytes), Err(KgError::Migration(_))),
                "v1 TransE (flags {flags}) must be rejected"
            );
        }
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
