//! `CountingIo`: the device under the store, as the benchmark sees it.
//!
//! A [`StoreIo`] over [`RealIo`] that counts operations, bytes written and
//! fsyncs, and remembers for every file how many of its bytes an fsync has
//! covered.  Dropping a writer does not lose what the operating system still
//! caches, so the simulated crash cuts every file back to its last-synced
//! length itself: recovery then sees only flushed bytes.  (Renames count as
//! durable once made; the store fsyncs the directory after each.)
//!
//! Every call reaches `RealIo`, flushes included, and the time spent waiting
//! in them is kept apart ([`CountingIo::flush_wait_s`]): how long a shared
//! disk takes to flush is its other tenants' affair, so the workloads leave
//! that wait out of their bounded timings and report it per layer.

use hilog_store::{IoStats, OpenMode, RealIo, StoreFile, StoreIo};
use std::collections::HashMap;
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Default, Clone, Copy)]
struct FileLen {
    len: u64,
    synced: u64,
}

#[derive(Debug, Default)]
struct Counters {
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    flush_wait_ns: AtomicU64,
    files: Mutex<HashMap<PathBuf, Arc<Mutex<FileLen>>>>,
}

/// Device counts at one moment.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceCounts {
    pub ops: u64,
    pub bytes_written: u64,
    pub fsyncs: u64,
    /// Mean wait of one flush, ms.
    pub flush_wait_ms: f64,
}

#[derive(Debug, Default)]
pub struct CountingIo {
    inner: RealIo,
    counters: Arc<Counters>,
}

impl Counters {
    /// Runs one flush of the device, counted and timed.
    fn flush(&self, flush: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let start = Instant::now();
        let flushed = flush();
        self.flush_wait_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        flushed?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl CountingIo {
    pub fn new() -> CountingIo {
        CountingIo::default()
    }

    /// Seconds spent so far inside `sync_data` and `sync_dir`.
    pub fn flush_wait_s(&self) -> f64 {
        self.counters.flush_wait_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Runs `work` on the clock: its result, the seconds it took, and how
    /// many of those it spent waiting in flushes.
    pub fn timed<T>(&self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let waited = self.flush_wait_s();
        let start = Instant::now();
        let result = work();
        let elapsed = start.elapsed().as_secs_f64();
        (result, elapsed, (self.flush_wait_s() - waited).min(elapsed))
    }

    pub fn counts(&self) -> DeviceCounts {
        let fsyncs = self.counters.fsyncs.load(Ordering::Relaxed);
        DeviceCounts {
            ops: self.inner.io_stats().ops,
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
            fsyncs,
            flush_wait_ms: self.flush_wait_s() * 1e3 / fsyncs.max(1) as f64,
        }
    }

    fn files(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, Arc<Mutex<FileLen>>>> {
        self.counters
            .files
            .lock()
            .expect("no panic while the file table is held")
    }

    /// The crash: every file this backend wrote is cut to the length its
    /// last fsync covered.  Returns the bytes discarded.  Call after the
    /// writer is dropped (its handles closed).
    pub fn crash(&self) -> io::Result<u64> {
        let mut discarded = 0;
        for (path, state) in self.files().iter() {
            let state = *state.lock().expect("file state lock");
            if !path.exists() {
                continue;
            }
            let on_disk = std::fs::metadata(path)?.len();
            if on_disk > state.synced {
                discarded += on_disk - state.synced;
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(state.synced)?;
            }
        }
        Ok(discarded)
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn StoreFile>,
    pos: u64,
    state: Arc<Mutex<FileLen>>,
    counters: Arc<Counters>,
}

impl StoreFile for CountingFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let n = self.inner.read_to_end(buf)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)?;
        self.pos += buf.len() as u64;
        self.counters
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        let mut state = self.state.lock().expect("file state lock");
        state.len = state.len.max(self.pos);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.counters.flush(|| self.inner.sync_data())?;
        let mut state = self.state.lock().expect("file state lock");
        state.synced = state.len;
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)?;
        let mut state = self.state.lock().expect("file state lock");
        state.len = len;
        state.synced = state.synced.min(len);
        Ok(())
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.pos = self.inner.seek(pos)?;
        Ok(self.pos)
    }
}

impl StoreIo for CountingIo {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StoreFile>> {
        // Bytes already in a file that is opened to be kept were written by
        // an earlier process and count as flushed.
        let existing = match mode {
            OpenMode::ReadWrite => std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
            OpenMode::Truncate => 0,
        };
        let inner = self.inner.open(path, mode)?;
        let state = Arc::new(Mutex::new(FileLen {
            len: existing,
            synced: existing,
        }));
        self.files().insert(path.to_path_buf(), Arc::clone(&state));
        Ok(Box::new(CountingFile {
            inner,
            pos: 0,
            state,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)?;
        let mut files = self.files();
        if let Some(state) = files.remove(from) {
            files.insert(to.to_path_buf(), state);
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)?;
        self.files().remove(path);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.counters.flush(|| self.inner.sync_dir(path))
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_crash_keeps_exactly_the_flushed_bytes() {
        let dir = crate::target_dir()
            .join("benchmark-scratch")
            .join(format!("counting-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let io = CountingIo::new();
        let log = dir.join("log");
        let mut file = io.open(&log, OpenMode::ReadWrite).unwrap();
        file.write_all(b"flushed").unwrap();
        file.sync_data().unwrap();
        file.write_all(b" and lost").unwrap();
        // A temp file renamed into place keeps its sync state.
        let mut temp = io.open(&dir.join("ckpt.tmp"), OpenMode::Truncate).unwrap();
        temp.write_all(b"checkpoint").unwrap();
        temp.sync_data().unwrap();
        io.rename(&dir.join("ckpt.tmp"), &dir.join("ckpt")).unwrap();
        drop((file, temp));

        assert_eq!(io.crash().unwrap(), " and lost".len() as u64);
        assert_eq!(std::fs::read(&log).unwrap(), b"flushed");
        assert_eq!(std::fs::read(dir.join("ckpt")).unwrap(), b"checkpoint");
        let counts = io.counts();
        assert_eq!((counts.fsyncs, counts.bytes_written), (2, 26));
        // Reopened, the surviving bytes count as flushed.
        let mut file = io.open(&log, OpenMode::ReadWrite).unwrap();
        file.seek(SeekFrom::Start(7)).unwrap();
        file.write_all(b"!").unwrap();
        drop(file);
        assert_eq!(io.crash().unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
