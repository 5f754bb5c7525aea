//! Error type of the storage layer.

use hilog_core::CodecError;
use hilog_engine::EngineError;
use std::fmt;
use std::io;

/// Why a storage operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A payload failed to decode (after its checksum passed — in practice a
    /// logic error or a version mismatch, not random corruption).
    Codec(CodecError),
    /// A file is structurally invalid beyond what the codec can say: bad
    /// magic, unsupported version, checksum mismatch where the protocol
    /// cannot recover by truncation.
    Corrupt(String),
    /// The engine rejected an operation while a WAL-committed batch was being
    /// applied.  The record is durable and `applied` operations of it took
    /// effect (and were published) — exactly the state a crash-and-replay
    /// would reproduce.
    Engine {
        /// Operations of the batch that were applied before the failure.
        applied: usize,
        /// The engine's verdict.
        error: EngineError,
    },
    /// The writer is in read-only degraded mode after a non-transient
    /// storage failure: mutations are refused until a checkpoint succeeds
    /// (the re-arm), but the last good snapshot keeps serving queries.
    Degraded {
        /// The storage failure that triggered degradation.
        reason: String,
        /// The epoch of the last successfully published batch.
        since_epoch: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Codec(e) => write!(f, "storage decode error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            StoreError::Engine { applied, error } => write!(
                f,
                "engine rejected a WAL-committed batch after {applied} applied operation(s): {error}"
            ),
            StoreError::Degraded {
                reason,
                since_epoch,
            } => write!(
                f,
                "store is read-only (degraded since epoch {since_epoch}): {reason}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            StoreError::Corrupt(_) => None,
            StoreError::Engine { error, .. } => Some(error),
            StoreError::Degraded { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}
