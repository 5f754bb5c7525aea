//! The write-ahead log.
//!
//! One file (`wal.log` inside the data dir) of framed records:
//!
//! ```text
//! [payload len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! where the payload is an [`crate::ops::encode_batch`] encoding — the epoch
//! the batch publishes plus its operations.  Records are appended *before*
//! the batch is applied, so a record's presence is the commit point: after a
//! crash, every fully framed, checksum-valid record replays; a torn final
//! record (incomplete frame or checksum mismatch — the signature of dying
//! mid-`write`) is truncated away on open, which is exactly the batch whose
//! client never got an acknowledgement at `PerBatch` fsync.

use crate::error::StoreError;
use crate::io::{OpenMode, StoreFile, StoreIo};
use crate::ops::{decode_batch, encode_batch, Op};
use hilog_core::crc32;
use std::io::SeekFrom;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Name of the log file inside a data dir.
pub const WAL_FILE: &str = "wal.log";

/// Frames larger than this are treated as torn tails rather than attempted
/// allocations — a length word of garbage must not OOM recovery.
pub(crate) const MAX_RECORD_BYTES: u32 = 1 << 30;

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended batch: an acknowledged mutation is
    /// durable, at the cost of one disk flush per write request.
    PerBatch,
    /// `fsync` at most once per interval: batches inside the window are
    /// buffered by the OS, so a crash can lose the last ≤ interval of
    /// *acknowledged* writes (never corrupting the log — the tail truncates
    /// cleanly).
    Interval(Duration),
    /// Never `fsync` explicitly; durability is whatever the OS flushes on
    /// its own.  For tests and benchmarks.
    Never,
}

/// One recovered log record: the epoch its batch published and the
/// operations, in application order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The epoch this batch published (checkpoint epochs + WAL epochs are
    /// one monotone sequence).
    pub epoch: u64,
    /// The batch, in application order.
    pub ops: Vec<Op>,
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn StoreFile>,
    path: PathBuf,
    records: usize,
    bytes: u64,
    policy: FsyncPolicy,
    last_sync: Instant,
    /// Appends since the last explicit fsync (so `flush` can skip the
    /// syscall when nothing is pending).
    unsynced: usize,
    /// Set when a failed append could not roll its partial frame back: the
    /// on-disk tail may be torn, so further appends are refused until
    /// [`Wal::truncate`] (a checkpoint) resets the log.  Recovery on reopen
    /// truncates the torn tail the same way it handles a crash.
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` through `io`, scanning
    /// existing records and truncating a torn tail.  Returns the log
    /// positioned for appending plus every valid record, oldest first.
    pub fn open(
        io: &dyn StoreIo,
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<(Wal, Vec<WalRecord>), StoreError> {
        let path = path.into();
        let mut file = io.open(&path, OpenMode::ReadWrite)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;

        let mut records = Vec::new();
        let mut offset = 0usize;
        loop {
            let rest = &data[offset..];
            if rest.is_empty() {
                break;
            }
            // Anything that fails to frame or checksum from here on is the
            // torn tail; only a *fully* valid record advances the offset.
            let Some(frame) = rest.get(..8) else { break };
            let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(frame[4..].try_into().expect("4 bytes"));
            // `encode_batch` never produces an empty payload, but a zero
            // *gap* (e.g. a write past a truncated file's end) frames as
            // len = 0, crc = 0 — and crc32 of nothing is 0, so it would
            // "verify".  Zeros are a tear, not a record.
            if len == 0 || len > MAX_RECORD_BYTES {
                break;
            }
            let Some(payload) = rest.get(8..8 + len as usize) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            // A checksummed payload that still fails to decode is not a torn
            // write — it is a format bug or targeted corruption; surface it
            // instead of silently dropping committed mutations.
            let (epoch, ops) = decode_batch(payload)?;
            records.push(WalRecord { epoch, ops });
            offset += 8 + len as usize;
        }
        if offset < data.len() {
            // Drop the torn tail so the next append starts a clean frame.
            file.set_len(offset as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        Ok((
            Wal {
                file,
                path,
                records: records.len(),
                bytes: offset as u64,
                policy,
                last_sync: Instant::now(),
                unsynced: 0,
                poisoned: false,
            },
            records,
        ))
    }

    /// Appends one batch as a single framed record and applies the fsync
    /// policy.  On return the record is in the file (durably so under
    /// [`FsyncPolicy::PerBatch`]).
    ///
    /// On failure the partial frame is rolled back (`set_len` to the
    /// pre-append length) so the log still ends on a record boundary and
    /// the append can simply be retried; if the rollback itself fails the
    /// log is poisoned — appends are refused until [`Wal::truncate`]
    /// resets it (or a reopen truncates the torn tail).  Either way the
    /// batch was *not* committed: the caller must not apply it.
    pub fn append(&mut self, epoch: u64, ops: &[Op]) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Io(std::io::Error::other(
                "write-ahead log poisoned by an earlier failed append; \
                 a checkpoint (which truncates the log) resets it",
            )));
        }
        let payload = encode_batch(epoch, ops);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        // One write_all per record: a crash (or injected fault) mid-call
        // tears at most this frame.  A same-process failure rolls back
        // below; a crash leaves the tear for `open` to truncate.
        let pre_bytes = self.bytes;
        if let Err(error) = self.file.write_all(&frame) {
            self.roll_back_to(pre_bytes);
            return Err(StoreError::Io(error));
        }
        self.records += 1;
        self.bytes += frame.len() as u64;
        self.unsynced += 1;
        // The append commits only once the policy's sync ran: rolling back
        // after a failed fsync keeps "acknowledged implies durable" under
        // PerBatch (the record may or may not have reached the platter —
        // removing it makes the answer deterministic either way).
        let sync_result = match self.policy {
            FsyncPolicy::PerBatch => self.sync(),
            FsyncPolicy::Interval(window) => {
                if self.last_sync.elapsed() >= window {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Never => Ok(()),
        };
        if let Err(error) = sync_result {
            self.records -= 1;
            self.bytes = pre_bytes;
            self.unsynced = self.unsynced.saturating_sub(1);
            self.roll_back_to(pre_bytes);
            return Err(error);
        }
        Ok(())
    }

    /// Restores a clean record boundary at `offset` after a failed append;
    /// poisons the log if even that fails (the tail may be torn).
    fn roll_back_to(&mut self, offset: u64) {
        let rolled_back = self
            .file
            .set_len(offset)
            .and_then(|()| self.file.seek(SeekFrom::Start(offset)))
            .is_ok();
        if !rolled_back {
            self.poisoned = true;
        }
    }

    /// Forces everything appended so far to stable storage (regardless of
    /// policy).  Graceful shutdown calls this.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.unsynced > 0 {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        self.last_sync = Instant::now();
        self.unsynced = 0;
        Ok(())
    }

    /// Empties the log — called after a checkpoint makes its records
    /// redundant.  Durable before return.  Also clears a poisoned flag: an
    /// empty log trivially ends on a record boundary again.
    ///
    /// A *partial* failure (say `set_len` ran but the seek did not) leaves
    /// the file's length and the handle's position disagreeing — an append
    /// would then write past the end and zero-fill the gap.  So any failure
    /// poisons the log; truncation is idempotent, callers simply retry.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        if let Err(error) = self.truncate_file() {
            self.poisoned = true;
            return Err(error);
        }
        self.records = 0;
        self.bytes = 0;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        self.poisoned = false;
        Ok(())
    }

    fn truncate_file(&mut self) -> Result<(), StoreError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        Ok(())
    }

    /// `true` when a failed append could not be rolled back and the log is
    /// refusing writes until truncated.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Records currently in the log (recovered + appended this process).
    pub fn records(&self) -> usize {
        self.records
    }

    /// Bytes currently in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultIo, FaultPlan, RealIo};
    use hilog_syntax::parse_term;
    use std::fs::OpenOptions;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn real() -> RealIo {
        RealIo::new()
    }

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hilog-wal-{tag}-{}-{n}.log", std::process::id()))
    }

    fn fact(s: &str) -> Op {
        Op::AssertFact(parse_term(s).unwrap())
    }

    #[test]
    fn append_close_reopen_replays_in_order() {
        let path = temp_path("roundtrip");
        {
            let (mut wal, recovered) = Wal::open(&real(), &path, FsyncPolicy::PerBatch).unwrap();
            assert!(recovered.is_empty());
            wal.append(1, &[fact("p(a)"), fact("p(b)")]).unwrap();
            wal.append(2, &[fact("q(c)")]).unwrap();
            assert_eq!(wal.records(), 2);
        }
        let (wal, recovered) = Wal::open(&real(), &path, FsyncPolicy::PerBatch).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].epoch, 1);
        assert_eq!(recovered[0].ops.len(), 2);
        assert_eq!(recovered[1].epoch, 2);
        assert_eq!(wal.records(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let path = temp_path("torn");
        {
            let (mut wal, _) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
            wal.append(1, &[fact("p(a)")]).unwrap();
            wal.append(2, &[fact("q(b)"), fact("q(c)")]).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Find where record 1 ends so we know which cuts lose which records.
        let rec1_len = u32::from_le_bytes(full[..4].try_into().unwrap()) as usize + 8;
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (wal, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
            let expect = if cut >= full.len() {
                2
            } else if cut >= rec1_len {
                1
            } else {
                0
            };
            assert_eq!(recovered.len(), expect, "cut at {cut}");
            // The torn bytes are gone: the file ends on a record boundary.
            let survived: u64 = if expect == 0 { 0 } else { rec1_len as u64 };
            assert_eq!(wal.bytes(), survived, "cut at {cut}");
            drop(wal);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                survived,
                "cut at {cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_cuts_the_log_there() {
        let path = temp_path("crc");
        {
            let (mut wal, _) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
            wal.append(1, &[fact("p(a)")]).unwrap();
            wal.append(2, &[fact("p(b)")]).unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        let rec1_len = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize + 8;
        // Flip one payload byte of record 2.
        data[rec1_len + 8] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let (_, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].epoch, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_torn_recovery_frames_cleanly() {
        let path = temp_path("resume");
        {
            let (mut wal, _) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
            wal.append(1, &[fact("p(a)")]).unwrap();
        }
        // Tear: append garbage half-frame.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x55; 5]).unwrap();
        }
        {
            let (mut wal, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
            assert_eq!(recovered.len(), 1);
            wal.append(2, &[fact("p(b)")]).unwrap();
        }
        let (_, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].epoch, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = temp_path("truncate");
        let (mut wal, _) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
        wal.append(1, &[fact("p(a)")]).unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.bytes(), 0);
        wal.append(2, &[fact("p(b)")]).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].epoch, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_append_rolls_back_and_the_next_append_succeeds() {
        let path = temp_path("fault-rollback");
        let io = FaultIo::over_real();
        let (mut wal, _) = Wal::open(&io, &path, FsyncPolicy::Never).unwrap();
        wal.append(1, &[fact("p(a)")]).unwrap();
        let (records, bytes) = (wal.records(), wal.bytes());
        // One-shot fault on the next op (the frame write); the rollback's
        // set_len/seek run after the window closes and succeed.
        io.fail_nth(io.ops());
        assert!(wal.append(2, &[fact("p(b)")]).is_err());
        assert_eq!(wal.records(), records, "failed append left no record");
        assert_eq!(wal.bytes(), bytes, "partial frame rolled back");
        assert!(!wal.poisoned());
        wal.append(2, &[fact("p(b)")]).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 2, "only acknowledged appends replay");
        assert_eq!(recovered[1].epoch, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn poisoned_log_refuses_appends_until_truncate() {
        let path = temp_path("fault-poison");
        let io = FaultIo::over_real();
        let (mut wal, _) = Wal::open(&io, &path, FsyncPolicy::Never).unwrap();
        wal.append(1, &[fact("p(a)")]).unwrap();
        // The disk dies: write fails AND the rollback's set_len fails.
        io.fail_from(io.ops());
        assert!(wal.append(2, &[fact("p(b)")]).is_err());
        assert!(wal.poisoned(), "failed rollback must poison the log");
        io.heal();
        assert!(
            wal.append(3, &[fact("p(c)")]).is_err(),
            "poisoned log refuses appends even after the disk recovers"
        );
        wal.truncate().unwrap();
        assert!(!wal.poisoned(), "truncate (a checkpoint) resets the log");
        wal.append(1, &[fact("p(d)")]).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partially_failed_truncate_poisons_until_a_clean_one() {
        let path = temp_path("fault-truncate");
        let io = FaultIo::over_real();
        let (mut wal, _) = Wal::open(&io, &path, FsyncPolicy::Never).unwrap();
        wal.append(1, &[fact("p(a)")]).unwrap();
        // Fault the seek *inside* truncate: set_len already emptied the
        // file, so the handle's position and the file length disagree —
        // an append now would zero-fill the gap.
        io.fail_nth(io.ops() + 1);
        assert!(wal.truncate().is_err());
        assert!(wal.poisoned(), "partial truncate must poison the log");
        assert!(wal.append(2, &[fact("p(b)")]).is_err());
        wal.truncate().unwrap();
        assert!(!wal.poisoned());
        wal.append(3, &[fact("p(c)")]).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].epoch, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_gap_scans_as_a_torn_tail_not_an_empty_record() {
        let path = temp_path("zero-gap");
        {
            let (mut wal, _) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
            wal.append(1, &[fact("p(a)")]).unwrap();
        }
        let good = std::fs::read(&path).unwrap();
        // A zero gap frames as len = 0, crc = 0 — and crc32 of an empty
        // payload is 0, so without the len == 0 guard it would "verify"
        // and then fail to decode.  It must scan as a tear instead.
        let mut data = vec![0u8; 16];
        data.extend_from_slice(&good);
        std::fs::write(&path, &data).unwrap();
        let (wal, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
        assert!(recovered.is_empty(), "zeros are a tear, not records");
        assert_eq!(wal.bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_fsync_under_per_batch_rolls_the_record_back() {
        let path = temp_path("fault-fsync");
        let io = FaultIo::over_real();
        let (mut wal, _) = Wal::open(&io, &path, FsyncPolicy::PerBatch).unwrap();
        wal.append(1, &[fact("p(a)")]).unwrap();
        let bytes = wal.bytes();
        // Fault only the fsync: the frame lands but durability is refused,
        // so the append must un-acknowledge it (acknowledged ⇒ durable).
        io.set_plan(FaultPlan {
            fail_from: Some(io.ops() + 1),
            fail_count: 1,
            ..FaultPlan::default()
        });
        assert!(wal.append(2, &[fact("p(b)")]).is_err());
        assert_eq!(wal.bytes(), bytes, "unacknowledged record rolled back");
        wal.append(2, &[fact("p(b)")]).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&real(), &path, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
