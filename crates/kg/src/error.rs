//! Error type shared by the knowledge-graph substrate.

/// Errors raised while constructing, indexing, or (de)serializing graphs.
#[derive(Debug)]
pub enum KgError {
    /// An entity id was outside the vocabulary's dense range.
    UnknownEntity(u32),
    /// A relation id was outside the vocabulary's dense range.
    UnknownRelation(u32),
    /// A text line could not be parsed as a `subject\trelation\tobject` triple.
    MalformedLine {
        /// 1-based line number in the input.
        line: usize,
        /// The offending content (truncated).
        content: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A structural invariant was violated (duplicate split member, empty graph, …).
    Invariant(String),
    /// A persisted artifact failed an integrity check: bad magic, checksum
    /// mismatch, truncation, trailing bytes, or a shape that contradicts its
    /// own header. The artifact must not be trusted.
    Corrupt(String),
    /// A persisted artifact declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version byte found in the artifact.
        found: u8,
        /// Highest version this build understands.
        max_supported: u8,
    },
    /// A persisted artifact is in a retired format that cannot be migrated
    /// to the current one safely (e.g. a format v1 model file, or a model
    /// of a retired kind); the artifact must be regenerated.
    Migration(String),
    /// A training checkpoint was written under a different training
    /// configuration than the one it is being resumed with. Resuming would
    /// silently train a *different* run (other hyperparameters, other RNG
    /// streams), so the mismatch is refused; delete the checkpoints or
    /// restore the original configuration.
    CheckpointMismatch {
        /// Fingerprint of the configuration the resume was requested with.
        expected: u64,
        /// Fingerprint stored in the checkpoint file.
        found: u64,
    },
    /// A model score used for threshold tuning was NaN or infinite. A
    /// non-finite score would silently scramble the threshold search (NaN
    /// is unordered), so it is rejected loudly instead.
    NonFiniteScore {
        /// Position of the first non-finite score.
        index: usize,
        /// The offending value (NaN, +∞, or −∞).
        value: f64,
    },
    /// A worker thread panicked while running a parallel job (training
    /// shard, discovery relation, ranking chunk). The panic is caught at
    /// the pool boundary and surfaced as this typed error instead of
    /// hanging the dispatcher or aborting the process; the payload is
    /// rendered into the message.
    WorkerPanic(String),
    /// A cooperative deadline expired mid-run: the operation checked its
    /// time budget at a safe boundary (a streaming chunk, a queued serve
    /// request) and stopped there instead of consuming workers past its
    /// deadline. Partial results are discarded — the caller either retries
    /// with a larger budget or reports the timeout.
    DeadlineExceeded,
    /// A sampling-weight vector contained a NaN or infinite entry. Rejected
    /// loudly: a NaN weight would otherwise poison CDF/alias-table
    /// construction silently (NaN propagates into the running total, which
    /// then falls back to the uniform distribution without any indication
    /// that the caller's weights were discarded).
    NonFiniteWeight {
        /// Position of the first non-finite entry in the weight vector.
        index: usize,
        /// The offending value (NaN, +∞, or −∞).
        value: f64,
    },
}

impl std::fmt::Display for KgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KgError::UnknownEntity(id) => write!(f, "unknown entity id {id}"),
            KgError::UnknownRelation(id) => write!(f, "unknown relation id {id}"),
            KgError::MalformedLine { line, content } => {
                write!(f, "malformed triple at line {line}: {content:?}")
            }
            KgError::Io(e) => write!(f, "i/o error: {e}"),
            KgError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
            KgError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            KgError::UnsupportedVersion {
                found,
                max_supported,
            } => write!(
                f,
                "unsupported format version {found} (this build reads up to v{max_supported})"
            ),
            KgError::Migration(msg) => write!(f, "migration required: {msg}"),
            KgError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different training configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x}); \
                 refusing to resume"
            ),
            KgError::NonFiniteScore { index, value } => write!(
                f,
                "non-finite score {value} at index {index}; scores must be finite"
            ),
            KgError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            KgError::DeadlineExceeded => {
                write!(
                    f,
                    "deadline exceeded: run stopped at a cooperative checkpoint"
                )
            }
            KgError::NonFiniteWeight { index, value } => write!(
                f,
                "non-finite sampling weight {value} at index {index}; weights must be finite"
            ),
        }
    }
}

impl std::error::Error for KgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KgError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for KgError {
    fn from(e: std::io::Error) -> Self {
        KgError::Io(e)
    }
}

/// Convenience alias used across the substrate crates.
pub type Result<T> = std::result::Result<T, KgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(KgError::UnknownEntity(9).to_string().contains('9'));
        assert!(KgError::MalformedLine {
            line: 3,
            content: "x".into()
        }
        .to_string()
        .contains("line 3"));
        assert!(KgError::Invariant("empty".into())
            .to_string()
            .contains("empty"));
    }

    #[test]
    fn persistence_variants_render_their_context() {
        assert!(KgError::Corrupt("checksum mismatch".into())
            .to_string()
            .contains("checksum mismatch"));
        let v = KgError::UnsupportedVersion {
            found: 9,
            max_supported: 2,
        }
        .to_string();
        assert!(v.contains('9') && v.contains("v2"), "{v}");
        assert!(KgError::Migration("retrain".into())
            .to_string()
            .contains("retrain"));
    }

    #[test]
    fn checkpoint_mismatch_names_both_fingerprints() {
        let msg = KgError::CheckpointMismatch {
            expected: 0xAB,
            found: 0xCD,
        }
        .to_string();
        assert!(msg.contains("0x00000000000000cd"), "{msg}");
        assert!(msg.contains("0x00000000000000ab"), "{msg}");
        assert!(msg.contains("refusing"), "{msg}");
    }

    #[test]
    fn non_finite_score_names_the_offender() {
        let msg = KgError::NonFiniteScore {
            index: 5,
            value: f64::NAN,
        }
        .to_string();
        assert!(msg.contains("index 5") && msg.contains("NaN"), "{msg}");
    }

    #[test]
    fn non_finite_weight_names_the_offender() {
        let msg = KgError::NonFiniteWeight {
            index: 3,
            value: f64::NAN,
        }
        .to_string();
        assert!(msg.contains("index 3") && msg.contains("NaN"), "{msg}");
    }

    #[test]
    fn deadline_exceeded_reads_as_a_timeout() {
        let msg = KgError::DeadlineExceeded.to_string();
        assert!(msg.contains("deadline"), "{msg}");
    }

    #[test]
    fn io_error_preserves_source() {
        let e: KgError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
