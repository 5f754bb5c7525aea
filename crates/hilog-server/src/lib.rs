//! # hilog-server — a JSON-over-HTTP front-end for the serving layer
//!
//! This crate puts the engine's snapshot/writer split
//! ([`DbSnapshot`](hilog_engine::DbSnapshot) / [`DbWriter`](hilog_engine::DbWriter))
//! behind a deliberately small HTTP/1.1 server built on nothing but
//! `std::net` — the workspace has no crates.io access, so the HTTP layer,
//! JSON parser, and worker pool are all local.
//!
//! ## Routes
//!
//! | Route           | Body                                      | Effect |
//! |-----------------|-------------------------------------------|--------|
//! | `POST /query`   | `{"query": "?- winning(X)."}`             | Answers against the pinned snapshot; returns `{epoch, result}` |
//! | `POST /assert`  | `{"facts": [...], "rules": [...]}`        | One batch: WAL-append, apply, publish, return `{epoch, applied, missing}` |
//! | `POST /retract` | `{"facts": [...], "rules": [...]}`        | Same, removing entries; absent ones land in `missing` |
//! | `POST /checkpoint` | `{"mode": "incremental"}` (optional)   | Writes a checkpoint (per-relation segments + manifest: every relation and the warm model by default, only dirtied relations when incremental), truncates the WAL, GCs the symbol pool |
//! | `GET /stats`    | —                                         | Serving + storage counters (epoch, rules, WAL, checkpoints, symbols) |
//!
//! ## Concurrency model
//!
//! Worker threads answering `/query` pin the currently published snapshot
//! (one `Arc` clone) and evaluate against it without blocking each other or
//! the writer.  `/assert` and `/retract` serialise on a single mutex-guarded
//! [`PersistentWriter`]; each request is one
//! batch that is WAL-appended (when a data directory is configured), applied
//! through the incremental maintenance path, and published with an atomic
//! snapshot swap.  A query that races a publish simply answers at the epoch
//! it pinned — exactly the session-level guarantee, now over HTTP.
//!
//! ## Durability
//!
//! With [`ServerConfig::data_dir`] set, the server writes every mutation
//! batch to a write-ahead log *before* applying it and recovers on the next
//! boot from the newest checkpoint plus the WAL tail (see the `hilog-store`
//! crate).  Graceful shutdown flushes the log and, by default, writes a
//! final checkpoint so the next boot skips replay.
//!
//! ## Resilience
//!
//! Queries carry an optional `timeout_ms` deadline (server default in
//! [`ServerConfig::default_timeout_ms`]) and answer `504` when evaluation
//! exceeds it.  Arrivals beyond [`ServerConfig::max_backlog`] are shed with
//! `429` + `Retry-After`; sockets carry read/write timeouts (`408` for
//! stalled clients).  A non-transient storage failure flips the store into
//! read-only degraded mode: mutations answer `503` while queries keep
//! serving the last published snapshot, and a successful
//! `POST /checkpoint` re-arms the writer.  `GET /stats` reports all of it
//! (`degraded`, `io_retries`, `injected_faults`, `shed_requests`,
//! `query_timeouts`), beside the evaluator's own counters: the tables held
//! (`cached_subqueries`), the facts in the tabled evaluator's program index
//! (`indexed_facts`, 0 until a cold query builds it) and the head
//! unifications attempted so far (`head_unifications`).
//!
//! ```no_run
//! use hilog_engine::HiLogDb;
//! use hilog_server::{Server, ServerConfig};
//! use hilog_syntax::parse_program;
//!
//! let program = parse_program("edge(a, b). tc(G)(X, Y) :- G(X, Y).").unwrap();
//! let db = HiLogDb::new(program);
//! let server = Server::bind(ServerConfig::ephemeral(), db).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.serve();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api_types;
pub mod client;
pub mod config;
pub mod handlers;
pub mod http;
pub mod threadpool;

pub use config::ServerConfig;

use hilog_engine::session::HiLogDb;
use hilog_engine::SnapshotHandle;
use hilog_store::{PersistentWriter, RecoveryReport, StoreConfig};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Shared state the worker threads operate on: the read side (lock-free
/// snapshot pinning) and the write side (mutex-serialised batches).
#[derive(Debug)]
pub struct ServerState {
    /// Read path: pins the currently published snapshot.
    pub snapshots: SnapshotHandle,
    /// Write path: one writer, one batch per mutation request.  Batches go
    /// through the storage backend first (a no-op without a data directory).
    pub writer: Mutex<PersistentWriter>,
    /// Worker-thread count (reported by `/stats`).
    pub workers: usize,
    /// Maximum accepted request-body size.
    pub max_body_bytes: usize,
    /// Default query deadline applied when a request carries no
    /// `timeout_ms` (see [`ServerConfig::default_timeout_ms`]).
    pub default_timeout_ms: Option<u64>,
    /// Queries aborted at their deadline (`504` responses).
    pub query_timeouts: AtomicU64,
    /// Head unifications the tabled evaluator attempted across every
    /// answered query ([`hilog_engine::EvalStats::head_unifications`]
    /// summed): the work cold subgoals cost, warm hits adding nothing.
    pub head_unifications: AtomicU64,
    /// Connections shed with `429` because the backlog was full.
    pub shed_requests: AtomicU64,
    /// Accepted connections not yet fully served; bounded by
    /// [`ServerConfig::max_backlog`].
    backlog: AtomicUsize,
    max_backlog: usize,
    socket_timeout: Option<Duration>,
    checkpoint_on_shutdown: bool,
    shutdown: AtomicBool,
}

/// A bound, not-yet-serving server.  [`Server::serve`] blocks running the
/// accept loop; use [`Server::handle`] first to keep a shutdown switch.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    recovery: RecoveryReport,
}

/// A cloneable remote control for a serving [`Server`]: stops the accept
/// loop and can read snapshots in-process.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and wraps `db` in the snapshot/writer pair.  The
    /// server owns the only writer; keep a [`SnapshotHandle`] (via
    /// [`Server::snapshots`]) for in-process reads if needed.
    ///
    /// With [`ServerConfig::data_dir`] set this opens (or recovers) the
    /// durable store: an existing directory wins over `db`, whose program is
    /// then ignored in favour of the recovered state — check
    /// [`Server::recovery`] to see which happened.
    pub fn bind(config: ServerConfig, mut db: HiLogDb) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // The config is the single source of truth for evaluation
        // parallelism; it also flows through recovery, which rebuilds the
        // session from this seed's options.
        db.set_eval_threads(config.eval_threads);
        let (writer, snapshots, recovery) = match &config.data_dir {
            None => {
                let (writer, snapshots) = PersistentWriter::in_memory(db);
                (writer, snapshots, RecoveryReport::default())
            }
            Some(dir) => {
                let mut store = StoreConfig::new(dir.clone())
                    .fsync(config.fsync)
                    .retry(config.store_retry);
                if let Some(io) = &config.store_io {
                    store = store.io(Arc::clone(io));
                }
                PersistentWriter::open(&store, db)
                    .map_err(|e| io::Error::other(format!("cannot open {}: {e}", dir.display())))?
            }
        };
        Ok(Server {
            listener,
            local_addr,
            state: Arc::new(ServerState {
                snapshots,
                writer: Mutex::new(writer),
                workers: config.workers.max(1),
                max_body_bytes: config.max_body_bytes,
                default_timeout_ms: config.default_timeout_ms,
                query_timeouts: AtomicU64::new(0),
                head_unifications: AtomicU64::new(0),
                shed_requests: AtomicU64::new(0),
                backlog: AtomicUsize::new(0),
                max_backlog: config.max_backlog.max(1),
                socket_timeout: config.socket_timeout,
                checkpoint_on_shutdown: config.checkpoint_on_shutdown,
                shutdown: AtomicBool::new(false),
            }),
            recovery,
        })
    }

    /// How [`Server::bind`] brought the session up: fresh, or recovered from
    /// a checkpoint plus a WAL tail.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The bound address (useful with port 0 / [`ServerConfig::ephemeral`]).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A shutdown handle; clone freely, works from any thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr,
            state: Arc::clone(&self.state),
        }
    }

    /// The read side of the serving pair, for in-process queries that skip
    /// HTTP entirely (the bench's no-HTTP variant uses this).
    pub fn snapshots(&self) -> SnapshotHandle {
        self.state.snapshots.clone()
    }

    /// Runs the accept loop, dispatching connections to the worker pool.
    /// Blocks until [`ServerHandle::shutdown`] is called, then flushes the
    /// write-ahead log and (when configured) writes a final checkpoint.
    ///
    /// Two overload guards run in the loop itself: arrivals beyond
    /// `max_backlog` accepted-but-unserved connections are shed with
    /// `429 Too Many Requests` + `Retry-After: 1` (never queued), and every
    /// dispatched socket carries the configured read/write timeout so a
    /// slow client cannot pin a worker.
    pub fn serve(self) {
        let state = &self.state;
        let (sender, receiver) = mpsc::channel::<TcpStream>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                threadpool::run_pool(state.workers, receiver, |mut stream: TcpStream| {
                    let response = match http::read_request(&mut stream, state.max_body_bytes) {
                        Ok(request) => handlers::handle_request(state, &request),
                        Err(error_response) => error_response,
                    };
                    http::write_response(&mut stream, &response);
                    state.backlog.fetch_sub(1, Ordering::SeqCst);
                });
            });
            for incoming in self.listener.incoming() {
                // Checked after every accept: shutdown() wakes the loop by
                // opening (and immediately dropping) one connection.
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(mut stream) = incoming {
                    // Slowloris guard: a worker blocked on this socket gives
                    // up after the timeout (408) instead of forever.
                    if let Some(timeout) = state.socket_timeout {
                        let _ = stream.set_read_timeout(Some(timeout));
                        let _ = stream.set_write_timeout(Some(timeout));
                    }
                    // Load shedding: answer 429 inline (cheap — one write on
                    // a fresh socket) rather than queueing without bound.
                    if state.backlog.load(Ordering::SeqCst) >= state.max_backlog {
                        state.shed_requests.fetch_add(1, Ordering::Relaxed);
                        http::write_response(
                            &mut stream,
                            &http::Response::error_retry_after(
                                429,
                                "server overloaded, request shed",
                                1,
                            ),
                        );
                        // Closing with the request still unread raises RST,
                        // which can destroy the 429 before the client reads
                        // it; drain briefly (bounded — this runs on the
                        // accept loop) so the close is clean.
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                        let mut sink = [0u8; 4096];
                        for _ in 0..4 {
                            match io::Read::read(&mut stream, &mut sink) {
                                Ok(n) if n > 0 => {}
                                _ => break,
                            }
                        }
                        continue;
                    }
                    state.backlog.fetch_add(1, Ordering::SeqCst);
                    // Workers exit when the sender drops; a send can only
                    // fail after that, i.e. never while the loop runs.
                    let _ = sender.send(stream);
                }
            }
            drop(sender);
        });
        // The pool has drained: no request holds the writer any more.
        let mut writer = self
            .state
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(e) = writer.shutdown(self.state.checkpoint_on_shutdown) {
            eprintln!("hilog-server: shutdown persistence failed: {e}");
        }
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The read side of the serving pair, for in-process queries.
    pub fn snapshots(&self) -> SnapshotHandle {
        self.state.snapshots.clone()
    }

    /// Stops the accept loop: sets the shutdown flag, then opens a throwaway
    /// connection so a blocked `accept` observes it.  In-flight requests
    /// finish; [`Server::serve`] returns once the pool drains.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
    }
}
