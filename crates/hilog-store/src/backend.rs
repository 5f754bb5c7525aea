//! The storage the serving layer writes through.
//!
//! [`Durable`] is deliberately narrow — append a batch, write a checkpoint,
//! flush, report stats.  It composes the [`crate::wal`] and
//! [`crate::manifest`] modules under one data directory:
//!
//! ```text
//! <data-dir>/
//!   wal.log                              the write-ahead log
//!   manifest-<epoch:020>.hman            recovery points, newest first
//!   rel-<hash:016x>-<epoch:020>.hseg     one relation's facts, named by manifests
//! ```
//!
//! A checkpoint commits in one order: segments → manifest → directory fsync
//! → prune older recovery points → truncate the WAL.  A failure before the
//! prune leaves the previous recovery point and the whole WAL in place.  The
//! prune also deletes any `model-<epoch:020>.hmod` file, which only
//! directories written before models left the recovery point hold.

use crate::error::StoreError;
use crate::io::{with_retry, RealIo, RetryPolicy, StoreIo};
use crate::manifest::{
    commit_checkpoint, load_latest_recovery, manifest_file_name, prune_incremental, CheckpointData,
    Manifest, RelKey,
};
use crate::ops::Op;
use crate::wal::{FsyncPolicy, Wal, WalRecord, WAL_FILE};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Recovery points (manifests) retained after each new one; older ones and
/// the files only they name are pruned.  The newest is always kept; 2 keeps
/// one fallback behind it.
const KEEP_CHECKPOINTS: usize = 2;

/// Configuration of the durable store [`crate::PersistentWriter::open`] opens.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the WAL and recovery points (created if absent).
    pub data_dir: PathBuf,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// The filesystem backend every durability operation goes through.
    /// [`RealIo`] in production; a [`crate::io::FaultIo`] in resilience
    /// tests.
    pub io: Arc<dyn StoreIo>,
    /// How transient I/O failures are retried before escalating.
    pub retry: RetryPolicy,
}

impl StoreConfig {
    /// Durable defaults: per-batch fsync.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::PerBatch,
            io: Arc::new(RealIo::new()),
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the WAL fsync policy.
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Replaces the filesystem backend (fault injection hooks in here).
    pub fn io(mut self, io: Arc<dyn StoreIo>) -> Self {
        self.io = io;
        self
    }

    /// Replaces the transient-failure retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A point-in-time view of the storage layer, reported by `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// `false` for an in-memory writer (every other field is then zero).
    pub durable: bool,
    /// Records currently in the WAL (since the last checkpoint/truncate).
    pub wal_records: usize,
    /// Bytes currently in the WAL.
    pub wal_bytes: u64,
    /// Epoch of the most recent checkpoint written or recovered from, if
    /// any.
    pub last_checkpoint_epoch: Option<u64>,
    /// Total size of the data directory (WAL + recovery points), in bytes.
    pub data_dir_bytes: u64,
    /// Segment files the most recent checkpoint wrote: every relation for a
    /// full one; for an incremental one only the dirtied relations (clean
    /// ones reuse their old segments and don't count).
    pub last_checkpoint_segments: usize,
    /// Bytes the most recent checkpoint added: new segments + manifest — the
    /// observable "delta size" an incremental checkpoint is supposed to
    /// shrink.
    pub last_checkpoint_bytes: u64,
    /// Segments the current manifest references, reused ones included.
    pub manifest_segments: usize,
    /// Filesystem operations the backend has performed.
    pub io_ops: u64,
    /// Transient I/O failures absorbed by retry (each retry attempt counts).
    pub io_retries: u64,
    /// Faults injected by a fault-injecting I/O backend (0 in production).
    pub injected_faults: u64,
}

/// What [`Durable::open`] found on disk, for the recovery path to replay.
#[derive(Debug)]
pub struct Recovered {
    /// The newest valid recovery point, if any.
    pub checkpoint: Option<CheckpointData>,
    /// Every valid WAL record, oldest first (the torn tail is already
    /// truncated).  May include records at or below the checkpoint epoch if
    /// the process died between writing a checkpoint and truncating the log;
    /// replay skips those.
    pub wal_records: Vec<WalRecord>,
}

/// WAL + recovery points under one data directory.
#[derive(Debug)]
pub struct Durable {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
    retry: RetryPolicy,
    retries: AtomicU64,
    wal: Wal,
    /// The newest manifest written or recovered from: the recovery point
    /// the next incremental checkpoint copies clean entries forward from.
    manifest: Option<Manifest>,
    last_checkpoint_segments: usize,
    last_checkpoint_bytes: u64,
}

impl Durable {
    /// Opens (creating if needed) the data directory, validating the WAL and
    /// locating the newest manifest that validates end-to-end.  The caller
    /// replays [`Recovered`] before serving.
    pub fn open(config: &StoreConfig) -> Result<(Durable, Recovered), StoreError> {
        let io = Arc::clone(&config.io);
        io.create_dir_all(&config.data_dir)?;
        let (checkpoint, manifest) = load_latest_recovery(&*io, &config.data_dir)?.unzip();
        // `checkpoint-<epoch>.hsnp` is the retired whole-store format.  A
        // directory whose newest state sits in one must not open as fresh
        // (or as an older manifest): that would silently serve the seed
        // program (or drop the epochs in between).
        let retired_epoch = |name: &String| -> Option<u64> {
            let digits = name.strip_prefix("checkpoint-")?.strip_suffix(".hsnp")?;
            digits.parse().ok()
        };
        let names = io.list_dir(&config.data_dir)?;
        if let Some(retired) = names.iter().filter_map(retired_epoch).max() {
            if manifest.as_ref().is_none_or(|m| m.epoch < retired) {
                return Err(StoreError::Corrupt(format!(
                    "{} holds a checkpoint-*.hsnp file at epoch {retired}, newer than any \
                     manifest: the whole-store .hsnp format is retired and no longer readable",
                    config.data_dir.display()
                )));
            }
        }
        let (wal, wal_records) = Wal::open(&*io, config.data_dir.join(WAL_FILE), config.fsync)?;
        if checkpoint.is_none() && !wal_records.is_empty() {
            // The protocol writes the epoch-0 baseline before the first
            // append, so a WAL with no recovery point means every manifest
            // was lost: the records have no base state to replay onto.
            return Err(StoreError::Corrupt(format!(
                "{} holds a write-ahead log but no valid checkpoint",
                config.data_dir.display()
            )));
        }
        Ok((
            Durable {
                dir: config.data_dir.clone(),
                io,
                retry: config.retry,
                retries: AtomicU64::new(0),
                wal,
                manifest,
                last_checkpoint_segments: 0,
                last_checkpoint_bytes: 0,
            },
            Recovered {
                checkpoint,
                wal_records,
            },
        ))
    }

    /// Makes the batch that will publish `epoch` durable *before* it is
    /// applied.  This is the commit point: a batch whose append returned is
    /// replayed after a crash; one whose append tore is truncated away.
    pub fn append_batch(&mut self, epoch: u64, ops: &[Op]) -> Result<(), StoreError> {
        // Safe to retry: a failed append rolls its partial frame back before
        // returning (and poisons the log if even the rollback fails, which
        // makes the retry fail too rather than corrupt the tail).
        let wal = &mut self.wal;
        with_retry(self.retry, &self.retries, || wal.append(epoch, ops))
    }

    /// Persists a checkpoint, prunes older recovery points and truncates
    /// the WAL (whose records the checkpoint subsumes).  `dirty: None` is a
    /// *full* checkpoint, `Some(set)` an *incremental* one that rewrites
    /// only the relations in `set` (see [`crate::manifest`]).  Returns the
    /// manifest's path; what was written shows in [`StorageStats`].
    pub fn write_checkpoint(
        &mut self,
        data: &CheckpointData,
        dirty: Option<&BTreeSet<RelKey>>,
    ) -> Result<PathBuf, StoreError> {
        // Retried as a unit: everything goes through temp files, so a failed
        // attempt leaves the previous manifest — whose files are only pruned
        // after a newer one is durable — fully loadable, plus stray
        // `.tmp`/orphan files the next prune sweeps up.  Any error, the
        // directory fsync's included, returns before the prune and the WAL
        // truncation below.
        let io = &*self.io;
        let dir = &self.dir;
        let reuse = self.manifest.as_ref().zip(dirty);
        let (manifest, segments_written, bytes_written) =
            with_retry(self.retry, &self.retries, || {
                commit_checkpoint(io, dir, data, reuse)
            })?;
        let path = dir.join(manifest_file_name(manifest.epoch));
        self.manifest = Some(manifest);
        self.last_checkpoint_segments = segments_written;
        self.last_checkpoint_bytes = bytes_written;
        prune_incremental(io, dir, KEEP_CHECKPOINTS)?;
        // Truncate last: dying before this replays records the manifest
        // already subsumes, which recovery skips by epoch.  Retried because
        // a partial truncation poisons the log against appends until a full
        // one lands (truncation is idempotent).
        let wal = &mut self.wal;
        with_retry(self.retry, &self.retries, || wal.truncate())?;
        Ok(path)
    }

    /// Forces everything buffered to stable storage (graceful shutdown).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        let wal = &mut self.wal;
        with_retry(self.retry, &self.retries, || wal.flush())
    }

    /// Current storage counters.
    pub fn stats(&self) -> StorageStats {
        let data_dir_bytes = self
            .io
            .list_dir(&self.dir)
            .map(|names| {
                names
                    .iter()
                    .filter_map(|name| self.io.file_len(&self.dir.join(name)).ok())
                    .sum()
            })
            .unwrap_or(0);
        let io_stats = self.io.io_stats();
        StorageStats {
            durable: true,
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            last_checkpoint_epoch: self.manifest.as_ref().map(|m| m.epoch),
            data_dir_bytes,
            last_checkpoint_segments: self.last_checkpoint_segments,
            last_checkpoint_bytes: self.last_checkpoint_bytes,
            manifest_segments: self.manifest.as_ref().map_or(0, |m| m.entries.len()),
            io_ops: io_stats.ops,
            io_retries: self.retries.load(Ordering::Relaxed),
            injected_faults: io_stats.injected_faults,
        }
    }
}
