//! # hilog-store — durable storage for the HiLog serving stack
//!
//! PR 6 split the engine into a single [`DbWriter`](hilog_engine::DbWriter)
//! and lock-free reader snapshots; this crate makes the writer's state
//! survive the process.  Three pieces, composed by [`backend::Durable`]:
//!
//! * a **write-ahead log** ([`wal`]) of mutation batches — length-prefixed,
//!   CRC-32-checksummed records, one per published epoch, appended *before*
//!   the batch is applied;
//! * **recovery points** in one format ([`manifest`]) — one segment file
//!   per relation, an optional model file, and a manifest naming them,
//!   all encoded through the payload-local symbol/term tables of
//!   [`hilog_core::codec`] and stamped with the epoch they capture.  A
//!   *full* checkpoint writes every relation's segment fresh plus (when
//!   warm) the full model, so it is self-contained; an *incremental* one
//!   rewrites only relations dirtied since the newest manifest, reuses
//!   every clean relation's segment byte-for-byte, and carries no model;
//! * **recovery** ([`serving::PersistentWriter::open`]) — load the newest
//!   manifest that validates end-to-end (torn or stale candidates
//!   skipped), replay the WAL tail through the same incremental mutation
//!   path the live server uses (torn final record truncated, checksums
//!   verified), resume serving at the recovered epoch.
//!
//! [`serving::PersistentWriter`] hides all of it from the serving layer: in
//! memory it holds no store, durable it holds a [`backend::Durable`] — WAL +
//! recovery points under a `--data-dir`.  The publish pipeline becomes
//!
//! ```text
//! WAL-append  →  apply incrementally  →  Arc-swap snapshot
//! ```
//!
//! so every published epoch is durable (at the chosen
//! [`wal::FsyncPolicy`]) before any reader can observe it.  A checkpoint
//! commits segments → manifest → directory fsync, and only then prunes older
//! recovery points, truncates the log and garbage-collects the global symbol
//! pool — persisted files use payload-local ids, so collection never remaps
//! anything on disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
#[cfg(test)]
mod decode_fuzz;
pub mod error;
pub mod io;
pub mod manifest;
pub mod ops;
pub mod serving;
pub mod wal;

pub use backend::{Durable, StorageStats, StoreConfig};
pub use error::StoreError;
pub use io::{FaultIo, FaultPlan, IoStats, OpenMode, RealIo, RetryPolicy, StoreFile, StoreIo};
pub use manifest::{rel_key, CheckpointData, Manifest, RelKey, SegmentEntry};
pub use ops::Op;
pub use serving::{
    BatchOutcome, CheckpointOutcome, DegradedState, PersistentWriter, RecoveryReport,
};
pub use wal::{FsyncPolicy, Wal, WalRecord};
