//! # hilog-store — durable storage for the HiLog serving stack
//!
//! The engine serves through a single [`DbWriter`](hilog_engine::DbWriter)
//! and lock-free reader snapshots; this crate makes the writer's state
//! survive the process.  Three pieces, composed under one data directory:
//!
//! * a **write-ahead log** ([`Wal`]) of mutation batches — length-prefixed,
//!   CRC-32-checksummed records, one per published epoch, appended *before*
//!   the batch is applied;
//! * **recovery points** in one format — one segment file per relation and
//!   a manifest naming them, all encoded through the payload-local
//!   symbol/term tables of [`hilog_core::PayloadWriter`] and stamped with the epoch
//!   they capture.  A recovery point holds only what cannot be rebuilt: the
//!   semantics, the rules and the facts.  Models, groundings and tables are
//!   derived state and rebuild lazily after recovery.  A *full* checkpoint
//!   writes every relation's segment fresh, so it is self-contained; an
//!   *incremental* one rewrites only relations dirtied since the newest
//!   manifest and reuses every clean relation's segment byte-for-byte;
//! * **recovery** ([`PersistentWriter::open`]) — load the newest manifest
//!   that validates end-to-end (torn or stale candidates skipped), replay
//!   the WAL tail through the same incremental mutation path the live server
//!   uses (torn final record truncated, checksums verified), resume serving
//!   at the recovered epoch.
//!
//! [`PersistentWriter`] hides all of it from the serving layer: in memory it
//! holds no store, durable it holds the WAL and recovery points under a
//! `--data-dir`.  The publish pipeline becomes
//!
//! ```text
//! WAL-append  →  apply incrementally  →  Arc-swap snapshot
//! ```
//!
//! so every published epoch is durable (at the chosen [`FsyncPolicy`])
//! before any reader can observe it.  A checkpoint commits segments →
//! manifest → directory fsync, and only then prunes older recovery points,
//! truncates the log and garbage-collects the global symbol pool —
//! persisted files use payload-local ids, so collection never remaps
//! anything on disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
#[cfg(test)]
mod decode_fuzz;
mod error;
mod io;
mod manifest;
pub mod ops;
mod serving;
mod wal;

pub use backend::{StorageStats, StoreConfig};
pub use error::StoreError;
pub use io::{FaultIo, FaultPlan, IoStats, OpenMode, RealIo, RetryPolicy, StoreFile, StoreIo};
pub use ops::Op;
pub use serving::{
    BatchOutcome, CheckpointOutcome, DegradedState, PersistentWriter, RecoveryReport,
};
pub use wal::{FsyncPolicy, Wal, WalRecord};
