//! Pluggable filesystem access — the VFS seam every durability code path
//! goes through.
//!
//! [`StoreIo`] is the narrow set of filesystem operations the WAL,
//! manifest, and recovery code perform: open a handle,
//! read a whole file, rename, remove, list a directory, fsync a directory.
//! [`RealIo`] maps each call to `std::fs`; [`FaultIo`] wraps any backend
//! and injects *deterministic* failures — fail the Nth operation, fail a
//! seeded fraction of operations, or fail every write once a byte quota is
//! exhausted (a tiny simulated disk).  Because every I/O operation flows
//! through one numbered stream, a test can sweep the fault point over an
//! entire recorded run ("fail op 0", "fail op 1", …) the way
//! `tests/recovery.rs` sweeps crash points, and demand that *each* single
//! failure leaves the store serving correct answers or recoverable on
//! reopen.
//!
//! Injected errors mirror the real failure modes: `ENOSPC`-style write
//! failures (optionally *short* — half the buffer lands, producing exactly
//! the torn frames the WAL and checkpoint formats must truncate away),
//! fsync failures, and rename failures.  [`RetryPolicy`] bounds how often
//! the [`crate::backend::Durable`] backend retries a failed operation
//! before escalating to the caller (which is when the serving layer drops
//! into read-only degraded mode).

use crate::error::StoreError;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// How [`StoreIo::open`] positions the returned handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read/write, created if absent, existing bytes kept (the WAL).
    ReadWrite,
    /// Write-only, created, truncated (checkpoint/segment temp files).
    Truncate,
}

/// An open file handle behind the VFS seam.  The methods are exactly what
/// the WAL and the atomic-write protocol need — nothing more, so a fault
/// backend can intercept every byte that would reach the disk.
pub trait StoreFile: fmt::Debug + Send {
    /// Reads from the current position to EOF into `buf`.
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize>;
    /// Writes the whole buffer at the current position.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Forces written data to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Repositions the handle.
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64>;
}

/// Cumulative counters a backend keeps, surfaced through `GET /stats` as
/// `io_ops` / `injected_faults`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Filesystem operations performed (file ops and path ops alike).
    pub ops: u64,
    /// Faults injected by a [`FaultIo`] backend (always 0 for [`RealIo`]).
    pub injected_faults: u64,
}

/// The filesystem operations the storage layer performs.
pub trait StoreIo: fmt::Debug + Send + Sync {
    /// Opens (creating if needed) the file at `path`.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StoreFile>>;
    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths, directories skipped) inside `path`.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>>;
    /// Size in bytes of the file at `path`.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Fsyncs the directory so renames inside it are durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Cumulative operation/fault counters.
    fn io_stats(&self) -> IoStats;
}

// ---------------------------------------------------------------------------
// Real backend
// ---------------------------------------------------------------------------

/// The production backend: every call maps 1:1 onto `std::fs`.
#[derive(Debug, Default)]
pub struct RealIo {
    ops: Arc<AtomicU64>,
}

impl RealIo {
    /// A fresh backend with zeroed counters.
    pub fn new() -> RealIo {
        RealIo::default()
    }

    fn count(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct RealFile {
    file: File,
    ops: Arc<AtomicU64>,
}

impl RealFile {
    fn count(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }
}

impl StoreFile for RealFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.count();
        self.file.read_to_end(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.count();
        self.file.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.count();
        self.file.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.count();
        self.file.set_len(len)
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.count();
        self.file.seek(pos)
    }
}

impl StoreIo for RealIo {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StoreFile>> {
        self.count();
        let file = match mode {
            OpenMode::ReadWrite => OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?,
            OpenMode::Truncate => OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)?,
        };
        Ok(Box::new(RealFile {
            file,
            ops: Arc::clone(&self.ops),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.count();
        fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.count();
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.count();
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.count();
        fs::create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.count();
        let mut names = Vec::new();
        for entry in fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.count();
        fs::metadata(path).map(|m| m.len())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.count();
        // Best-effort on platforms where directories cannot be opened.
        if let Ok(handle) = File::open(path) {
            handle.sync_all()?;
        }
        Ok(())
    }

    fn io_stats(&self) -> IoStats {
        IoStats {
            ops: self.ops.load(Ordering::Relaxed),
            injected_faults: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injecting backend
// ---------------------------------------------------------------------------

/// When and how a [`FaultIo`] fails operations.  Every I/O operation —
/// file and path ops alike — increments one shared counter; the plan
/// decides per index.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fail operations with index in `[fail_from, fail_from + fail_count)`
    /// (0-based).  `fail_count = u64::MAX` models a disk that never comes
    /// back.
    pub fail_from: Option<u64>,
    /// How many consecutive operations fail from `fail_from`.
    pub fail_count: u64,
    /// Seeded per-operation failure probability in `[0, 1]`, applied when
    /// the deterministic window misses.  Derived from `seed` and the op
    /// index only, so a run is reproducible.
    pub probability: f64,
    /// Seed for the probabilistic mode.
    pub seed: u64,
    /// When a *write* faults, land the first half of the buffer before
    /// failing — a short write, producing exactly the torn frames recovery
    /// must truncate.
    pub short_writes: bool,
    /// Fail writes with `ENOSPC` once this many cumulative bytes have been
    /// written — a tiny simulated disk.  Lifting the quota (back to `None`)
    /// models the operator freeing space.
    pub byte_quota: Option<u64>,
    /// Restrict injected faults to fsync operations only (for "the disk
    /// lies about durability" drills); other ops always pass through.
    pub fsync_only: bool,
}

#[derive(Debug, Default)]
struct FaultState {
    ops: AtomicU64,
    injected: AtomicU64,
    written: AtomicU64,
    plan: Mutex<FaultPlan>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Write,
    Sync,
    Rename,
    Other,
}

impl FaultState {
    /// Numbers the operation and decides whether it faults.  Returns the
    /// error to inject, plus whether a faulted write should land its first
    /// half first.
    fn decide(&self, kind: OpKind, write_len: u64) -> (Option<io::Error>, bool) {
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        let plan = self.plan.lock().unwrap_or_else(PoisonError::into_inner);
        if plan.fsync_only && kind != OpKind::Sync {
            if kind == OpKind::Write {
                self.written.fetch_add(write_len, Ordering::SeqCst);
            }
            return (None, false);
        }
        let windowed = plan
            .fail_from
            .is_some_and(|from| index >= from && index - from < plan.fail_count);
        let probabilistic = !windowed && plan.probability > 0.0 && {
            // SplitMix64 over (seed, index): deterministic per op.
            let mut x = plan.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            ((x >> 11) as f64 / (1u64 << 53) as f64) < plan.probability
        };
        let over_quota = kind == OpKind::Write
            && plan
                .byte_quota
                .is_some_and(|quota| self.written.load(Ordering::SeqCst) + write_len > quota);
        if windowed || probabilistic || over_quota {
            self.injected.fetch_add(1, Ordering::SeqCst);
            let error = match kind {
                OpKind::Write => {
                    io::Error::other("injected fault: ENOSPC (no space left on device)")
                }
                OpKind::Sync => io::Error::other("injected fault: fsync failed"),
                OpKind::Rename => io::Error::other("injected fault: rename failed"),
                OpKind::Other => io::Error::other("injected fault: I/O error"),
            };
            return (Some(error), plan.short_writes && kind == OpKind::Write);
        }
        if kind == OpKind::Write {
            self.written.fetch_add(write_len, Ordering::SeqCst);
        }
        (None, false)
    }
}

/// A [`StoreIo`] that wraps another backend and injects deterministic
/// faults per the active [`FaultPlan`].  Cloning shares the plan and the
/// counters, so a test can hold one handle while the store holds another.
#[derive(Debug, Clone)]
pub struct FaultIo {
    inner: Arc<dyn StoreIo>,
    state: Arc<FaultState>,
}

impl FaultIo {
    /// Wraps `inner` with no faults armed (ops are still counted).
    pub fn new(inner: Arc<dyn StoreIo>) -> FaultIo {
        FaultIo {
            inner,
            state: Arc::new(FaultState::default()),
        }
    }

    /// Wraps a fresh [`RealIo`].
    pub fn over_real() -> FaultIo {
        FaultIo::new(Arc::new(RealIo::new()))
    }

    /// Replaces the fault plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self
            .state
            .plan
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = plan;
    }

    /// Arms a one-shot fault at op index `nth` (transient: the retry path
    /// succeeds).
    pub fn fail_nth(&self, nth: u64) {
        self.set_plan(FaultPlan {
            fail_from: Some(nth),
            fail_count: 1,
            ..FaultPlan::default()
        });
    }

    /// Arms a persistent failure from op index `from` on (the disk died).
    pub fn fail_from(&self, from: u64) {
        self.set_plan(FaultPlan {
            fail_from: Some(from),
            fail_count: u64::MAX,
            ..FaultPlan::default()
        });
    }

    /// Disarms all faults (ops keep counting).
    pub fn heal(&self) {
        self.set_plan(FaultPlan::default());
    }

    /// Operations performed so far (failed ones included).
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn StoreFile>,
    state: Arc<FaultState>,
}

impl StoreFile for FaultFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        if let (Some(error), _) = self.state.decide(OpKind::Other, 0) {
            return Err(error);
        }
        self.inner.read_to_end(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let (fault, short) = self.state.decide(OpKind::Write, buf.len() as u64);
        if let Some(error) = fault {
            if short && !buf.is_empty() {
                let _ = self.inner.write_all(&buf[..buf.len() / 2]);
            }
            return Err(error);
        }
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        if let (Some(error), _) = self.state.decide(OpKind::Sync, 0) {
            return Err(error);
        }
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if let (Some(error), _) = self.state.decide(OpKind::Other, 0) {
            return Err(error);
        }
        self.inner.set_len(len)
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        if let (Some(error), _) = self.state.decide(OpKind::Other, 0) {
            return Err(error);
        }
        self.inner.seek(pos)
    }
}

impl StoreIo for FaultIo {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StoreFile>> {
        if let (Some(error), _) = self.state.decide(OpKind::Other, 0) {
            return Err(error);
        }
        Ok(Box::new(FaultFile {
            inner: self.inner.open(path, mode)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let (Some(error), _) = self.state.decide(OpKind::Other, 0) {
            return Err(error);
        }
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let (Some(error), _) = self.state.decide(OpKind::Rename, 0) {
            return Err(error);
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if let (Some(error), _) = self.state.decide(OpKind::Other, 0) {
            return Err(error);
        }
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if let (Some(error), _) = self.state.decide(OpKind::Other, 0) {
            return Err(error);
        }
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        if let (Some(error), _) = self.state.decide(OpKind::Other, 0) {
            return Err(error);
        }
        self.inner.list_dir(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        if let (Some(error), _) = self.state.decide(OpKind::Other, 0) {
            return Err(error);
        }
        self.inner.file_len(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if let (Some(error), _) = self.state.decide(OpKind::Sync, 0) {
            return Err(error);
        }
        self.inner.sync_dir(path)
    }

    fn io_stats(&self) -> IoStats {
        IoStats {
            ops: self.ops(),
            injected_faults: self.injected(),
        }
    }
}

// ---------------------------------------------------------------------------
// Retry
// ---------------------------------------------------------------------------

/// Bounded retry-with-backoff for transient I/O faults.  Only
/// [`StoreError::Io`] is retried — corrupt files and engine rejections are
/// not transient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 disables retries).
    pub attempts: u32,
    /// Sleep before attempt `n` is `backoff * n` (linear).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 2,
            backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure escalates immediately.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 0,
            backoff: Duration::ZERO,
        }
    }
}

/// Runs `op`, retrying transient (`Io`) failures per `policy`.  Each retry
/// increments `retries`.  `op` must be safe to re-run after a failure —
/// the WAL append rolls its partial frame back before returning an error,
/// and the checkpoint/manifest writers go through temp files, so all the
/// storage-layer call sites are.
pub fn with_retry<T>(
    policy: RetryPolicy,
    retries: &AtomicU64,
    mut op: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(StoreError::Io(error)) if attempt < policy.attempts => {
                attempt += 1;
                retries.fetch_add(1, Ordering::Relaxed);
                let _ = error;
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * attempt);
                }
            }
            Err(error) => return Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_nth_faults_exactly_one_op() {
        let io = FaultIo::over_real();
        let dir = std::env::temp_dir();
        io.fail_nth(1);
        // Op 0 passes, op 1 faults, op 2 passes again.
        assert!(io.file_len(&dir.join("does-not-exist")).is_err()); // real NotFound
        assert!(io.list_dir(&dir).is_err(), "op 1 must be injected");
        assert!(io.list_dir(&dir).is_ok());
        assert_eq!(io.injected(), 1);
        assert_eq!(io.ops(), 3);
    }

    #[test]
    fn short_write_lands_half_the_buffer() {
        let io = FaultIo::over_real();
        let path = std::env::temp_dir().join(format!("hilog-io-short-{}", std::process::id()));
        let mut file = io.open(&path, OpenMode::Truncate).unwrap(); // op 0
        io.set_plan(FaultPlan {
            fail_from: Some(1),
            fail_count: 1,
            short_writes: true,
            ..FaultPlan::default()
        });
        assert!(file.write_all(&[0xAB; 8]).is_err()); // op 1: short write
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), vec![0xAB; 4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_quota_rejects_writes_past_the_limit() {
        let io = FaultIo::over_real();
        let path = std::env::temp_dir().join(format!("hilog-io-quota-{}", std::process::id()));
        io.set_plan(FaultPlan {
            byte_quota: Some(10),
            ..FaultPlan::default()
        });
        let mut file = io.open(&path, OpenMode::Truncate).unwrap();
        file.write_all(&[1; 8]).unwrap();
        assert!(file.write_all(&[2; 8]).is_err(), "quota exceeded");
        io.heal();
        file.write_all(&[3; 8]).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_absorbs_transient_faults_and_counts() {
        let retries = AtomicU64::new(0);
        let mut failures_left = 2;
        let result = with_retry(
            RetryPolicy {
                attempts: 3,
                backoff: Duration::ZERO,
            },
            &retries,
            || {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(StoreError::Io(io::Error::other("x")))
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(result.unwrap(), 42);
        assert_eq!(retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn retry_does_not_touch_non_transient_errors() {
        let retries = AtomicU64::new(0);
        let result: Result<(), _> = with_retry(RetryPolicy::default(), &retries, || {
            Err(StoreError::Corrupt("bad magic".into()))
        });
        assert!(matches!(result, Err(StoreError::Corrupt(_))));
        assert_eq!(retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn probabilistic_plan_is_deterministic_per_seed() {
        let decide = |seed| {
            let state = FaultState {
                plan: Mutex::new(FaultPlan {
                    probability: 0.5,
                    seed,
                    ..FaultPlan::default()
                }),
                ..FaultState::default()
            };
            (0..64)
                .map(|_| state.decide(OpKind::Other, 0).0.is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(decide(7), decide(7), "same seed, same fault stream");
        assert_ne!(decide(7), decide(8), "different seeds diverge");
        let faults = decide(7).iter().filter(|&&f| f).count();
        assert!(faults > 8 && faults < 56, "roughly half fault: {faults}");
    }
}
