//! Server configuration.

use hilog_store::{FsyncPolicy, RetryPolicy, StoreIo};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`Server::bind`](crate::Server::bind).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:7171"`.  Port 0 asks the OS for a
    /// free port (the bound address is reported by
    /// [`Server::local_addr`](crate::Server::local_addr)).
    pub addr: String,
    /// Most requests that execute at once.  Connections are persistent and
    /// each has a thread of its own, but a request runs its handler only
    /// while holding one of `workers` permits, so an idle connection costs
    /// none of them.  Readers scale with workers — each queries the
    /// published snapshot through its own pinned `Arc` — while mutations
    /// serialise on the single writer.
    pub workers: usize,
    /// Maximum accepted request-body size in bytes; larger requests are
    /// rejected with `413 Payload Too Large`.
    pub max_body_bytes: usize,
    /// Directory for the write-ahead log and checkpoints.  `None` (the
    /// default) serves purely from memory, exactly as before the storage
    /// layer existed; `Some` makes every mutation batch durable and enables
    /// crash recovery on the next boot.
    pub data_dir: Option<PathBuf>,
    /// When WAL appends reach stable storage (ignored without `data_dir`).
    pub fsync: FsyncPolicy,
    /// Write a final checkpoint when [`Server::serve`](crate::Server::serve)
    /// returns after a graceful shutdown (ignored without `data_dir`).  On
    /// by default: the next boot then skips WAL replay entirely.
    pub checkpoint_on_shutdown: bool,
    /// Inert: reads 1 and is ignored, since each evaluation runs on its
    /// request's thread and `workers` is what scales concurrent requests.
    /// Kept while the benchmark package reads it (ROADMAP 1(c) removes it).
    pub eval_threads: usize,
    /// Default per-query deadline in milliseconds, used when a `/query`
    /// body carries no `timeout_ms`.  `None` disables the server-side
    /// default (per-request deadlines still apply).  A query past its
    /// deadline aborts at the engine's resource-limit hooks and answers
    /// `504 Gateway Timeout`.
    pub default_timeout_ms: Option<u64>,
    /// Maximum open connections, idle ones included — and so the most
    /// connection threads the server runs.  Arrivals beyond this are shed
    /// immediately with `429 Too Many Requests` and `Retry-After: 1`
    /// instead of starting threads without bound.
    pub max_backlog: usize,
    /// Per-socket read/write timeout applied to every accepted connection.
    /// It is how long an idle kept connection stays open (it is then closed
    /// silently), and it keeps a client that dribbles its request (or never
    /// drains the response) from holding a connection thread forever: a
    /// read that stalls mid-request answers `408 Request Timeout`.  `None`
    /// disables the guard.
    pub socket_timeout: Option<Duration>,
    /// Filesystem backend handed to the durable store (ignored without
    /// `data_dir`).  `None` uses the real filesystem; resilience tests pass
    /// a [`hilog_store::FaultIo`] here to inject disk faults under a live
    /// server.
    pub store_io: Option<Arc<dyn StoreIo>>,
    /// Retry policy for transient storage faults (ignored without
    /// `data_dir`).
    pub store_retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7171".to_string(),
            workers: 4,
            max_body_bytes: 1 << 20,
            data_dir: None,
            fsync: FsyncPolicy::PerBatch,
            checkpoint_on_shutdown: true,
            eval_threads: 1,
            default_timeout_ms: Some(30_000),
            max_backlog: 256,
            socket_timeout: Some(Duration::from_secs(10)),
            store_io: None,
            store_retry: RetryPolicy::default(),
        }
    }
}

impl ServerConfig {
    /// A config bound to an OS-assigned free port — the right choice for
    /// tests and benchmarks.
    pub fn ephemeral() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        }
    }

    /// Sets the bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets how many requests may execute at once (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables durable storage under `dir`.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Sets the WAL fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets (or, with `None`, disables) the default query deadline.
    pub fn default_timeout_ms(mut self, timeout_ms: Option<u64>) -> Self {
        self.default_timeout_ms = timeout_ms;
        self
    }

    /// Sets the bound on open connections (clamped to at least 1).
    pub fn max_backlog(mut self, max_backlog: usize) -> Self {
        self.max_backlog = max_backlog.max(1);
        self
    }

    /// Sets (or, with `None`, disables) the per-socket read/write timeout.
    pub fn socket_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.socket_timeout = timeout;
        self
    }

    /// Routes the durable store's filesystem access through `io` — the hook
    /// resilience tests use to inject disk faults under a live server.
    pub fn store_io(mut self, io: Arc<dyn StoreIo>) -> Self {
        self.store_io = Some(io);
        self
    }

    /// Sets the storage retry policy for transient I/O faults.
    pub fn store_retry(mut self, retry: RetryPolicy) -> Self {
        self.store_retry = retry;
        self
    }
}
