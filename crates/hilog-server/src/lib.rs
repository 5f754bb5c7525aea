//! # hilog-server — a JSON-over-HTTP front-end for the serving layer
//!
//! This crate puts the engine's snapshot/writer split
//! ([`DbSnapshot`](hilog_engine::DbSnapshot) / [`DbWriter`](hilog_engine::DbWriter))
//! behind a deliberately small HTTP/1.1 server built on nothing but
//! `std::net` — the workspace has no crates.io access, so the HTTP layer,
//! JSON parser, and connection threads are all local.
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
//! Connections are persistent (HTTP/1.1 keep-alive): the accept loop gives
//! every accepted socket a **connection thread**, which reads a request,
//! answers it and reads the next until the client closes, asks for
//! `Connection: close`, or idles past [`ServerConfig::socket_timeout`].  A
//! thread whose connection ended parks for the next arrival instead of
//! exiting, so there are as many threads as connections were ever open at
//! once — at most [`ServerConfig::max_backlog`], which bounds open
//! connections — and one waiting for its client's next request costs a
//! blocked thread and nothing else.  What executes is bounded separately: a
//! request runs its handler only while it holds one of
//! [`ServerConfig::workers`] permits of a counting gate, so at most `workers`
//! requests evaluate at a time however many connections are open, and an
//! idle connection never holds a permit.
//!
//! Requests answering `/query` pin the currently published snapshot
//! (one `Arc` clone) and evaluate against it without blocking each other or
//! the writer.  `/assert` and `/retract` serialise on a single mutex-guarded
//! [`PersistentWriter`]; each request is one
//! batch that is WAL-appended (when a data directory is configured), applied
//! through the incremental maintenance path, and published with an atomic
//! snapshot swap.  A query that races a publish simply answers at the epoch
//! it pinned — exactly the session-level guarantee, now over HTTP; requests
//! on one connection are answered in order, so a client that asserts and
//! then queries on the same socket reads its own write.
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
//! exceeds it.  Arrivals beyond [`ServerConfig::max_backlog`] open
//! connections are shed with `429` + `Retry-After`.  Sockets carry
//! read/write timeouts: a connection that sits *idle* past the timeout is
//! closed silently (a `408` written into an idle socket would be read as the
//! answer to the client's next request), one that stalls *mid-request* is
//! answered `408`.  A request head over 16 KiB answers `431`, a body over
//! [`ServerConfig::max_body_bytes`] `413`, `Transfer-Encoding` `501`; these,
//! and every other response sent with request bytes possibly unread, close
//! the connection, while a handler's `4xx` / `5xx` over a fully read request
//! keeps it.  A non-transient storage failure flips the store into
//! read-only degraded mode: mutations answer `503` while queries keep
//! serving the last published snapshot, and a successful
//! `POST /checkpoint` re-arms the writer.  `GET /stats` reports all of it
//! (`degraded`, `io_retries`, `injected_faults`, `shed_requests`,
//! `query_timeouts`), whether connections are being reused
//! (`connections_accepted`, `connections_open`, `requests_served`), and the
//! evaluator's own counters: the tables held
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

pub use config::ServerConfig;

use hilog_engine::{HiLogDb, SnapshotHandle};
use hilog_store::{PersistentWriter, RecoveryReport, StoreConfig};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Shared state the connection threads operate on: the read side (lock-free
/// snapshot pinning) and the write side (mutex-serialised batches).
#[derive(Debug)]
pub struct ServerState {
    /// Read path: pins the currently published snapshot.
    pub snapshots: SnapshotHandle,
    /// Write path: one writer, one batch per mutation request.  Batches go
    /// through the storage backend first (a no-op without a data directory).
    pub writer: Mutex<PersistentWriter>,
    /// Requests that may execute at once (reported by `/stats`).
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
    /// Connections shed with `429` because `max_backlog` were already open.
    pub shed_requests: AtomicU64,
    /// Connections given a connection thread since boot (shed arrivals and
    /// the shutdown wake-up are not among them).
    pub connections_accepted: AtomicU64,
    /// Connections open right now, idle ones included; bounded by
    /// [`ServerConfig::max_backlog`].
    pub connections_open: AtomicUsize,
    /// Requests a connection thread answered or is answering, whatever the
    /// status; `requests_served / connections_accepted` says how far
    /// clients reuse their connections.
    pub requests_served: AtomicU64,
    max_backlog: usize,
    socket_timeout: Option<Duration>,
    checkpoint_on_shutdown: bool,
    shutdown: AtomicBool,
}

/// A counting gate: at most `permits` threads are between [`Gate::enter`]
/// and the drop of the [`Permit`] it returned.  Connection threads pass it
/// around the request handler only, so it is executing requests — not open
/// connections — that [`ServerConfig::workers`] bounds.
#[derive(Debug)]
struct Gate {
    free: Mutex<usize>,
    freed: Condvar,
}

/// One held permit of a [`Gate`]; dropping it (on unwind too) hands the
/// permit to a waiter.
#[derive(Debug)]
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            free: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a permit is free and takes it.
    fn enter(&self) -> Permit<'_> {
        // The count is valid at every step, so a poisoned lock is usable.
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        while *free == 0 {
            free = self
                .freed
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.freed.notify_one();
    }
}

/// A clone of every open connection's socket, keyed by accept order, so the
/// accept loop can wake the threads blocked reading them when it exits.
type OpenSockets = Mutex<HashMap<u64, TcpStream>>;

/// A connection's entry in the open-connection books; dropping it (when the
/// connection thread ends, on unwind too) takes the connection off them.
struct OpenConnection<'a> {
    id: u64,
    state: &'a ServerState,
    sockets: &'a OpenSockets,
}

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.sockets
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
        self.state.connections_open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The life of one connection thread: take an arrival, serve it to its end,
/// park for the next; leave when the accept loop has.
fn connection_thread<'a>(
    state: &ServerState,
    gate: &Gate,
    parked_on: &Mutex<mpsc::Receiver<(OpenConnection<'a>, TcpStream)>>,
    parked: &AtomicUsize,
) {
    loop {
        // The lock is held while waiting: one parked thread waits on the
        // channel, the others on the lock, and each arrival wakes one.
        let next = parked_on
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        let Ok((open, stream)) = next else { return };
        serve_connection(state, gate, stream);
        drop(open);
        parked.fetch_add(1, Ordering::SeqCst);
    }
}

/// The life of one connection: read a request, answer it, read the next,
/// until the client closes or asks for `Connection: close`, the connection
/// idles out, the server shuts down, or a request cannot be framed.
fn serve_connection(state: &ServerState, gate: &Gate, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    while let Some(request) = http::read_request(&mut reader, state.max_body_bytes).transpose() {
        state.requests_served.fetch_add(1, Ordering::Relaxed);
        let (response, close) = match request {
            Ok(request) => {
                let response = {
                    let _permit = gate.enter();
                    handlers::handle_request(state, &request)
                };
                // A request in flight at shutdown is answered, then told
                // not to come back.
                let close = request.close || state.shutdown.load(Ordering::SeqCst);
                (response, close)
            }
            // Request bytes may be unread: whatever follows cannot be
            // trusted to be a request.
            Err(response) => (response, true),
        };
        http::write_response(reader.get_mut(), &response, close);
        if close {
            http::drain_then_close(reader.into_inner());
            return;
        }
    }
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
    pub fn bind(config: ServerConfig, db: HiLogDb) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
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
                connections_accepted: AtomicU64::new(0),
                connections_open: AtomicUsize::new(0),
                requests_served: AtomicU64::new(0),
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
    /// HTTP entirely.
    pub fn snapshots(&self) -> SnapshotHandle {
        self.state.snapshots.clone()
    }

    /// Runs the accept loop, handing every accepted socket to a connection
    /// thread.  Blocks until [`ServerHandle::shutdown`] is called, then
    /// wakes the idle connections, lets requests in flight finish, flushes
    /// the write-ahead log and (when configured) writes a final checkpoint.
    ///
    /// Two overload guards run in the loop itself: arrivals beyond
    /// `max_backlog` open connections are shed with
    /// `429 Too Many Requests` + `Retry-After: 1` (never queued), and every
    /// accepted socket carries the configured read/write timeout so a
    /// slow client cannot hold a connection thread forever.
    pub fn serve(self) {
        let state = &*self.state;
        let gate = Gate::new(state.workers);
        let sockets = OpenSockets::default();
        // Connection threads outlive their connection: one whose client
        // left parks on this channel for the next arrival, so a caller that
        // comes back after a pause does not pay a thread start (measured:
        // half the median latency of a 31-request connection).  `parked`
        // counts the threads waiting there that no arrival has claimed yet.
        let (arrivals, parked_on) = mpsc::channel();
        let parked_on = Mutex::new(parked_on);
        let parked = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for incoming in self.listener.incoming() {
                // Checked after every accept: shutdown() wakes the loop by
                // opening (and immediately dropping) one connection.
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = incoming else { continue };
                // Slowloris guard: a thread blocked on this socket gives up
                // after the timeout (408 mid-request, a silent close when
                // idle) instead of never.
                if let Some(timeout) = state.socket_timeout {
                    let _ = stream.set_read_timeout(Some(timeout));
                    let _ = stream.set_write_timeout(Some(timeout));
                }
                // Responses are single writes; none should wait for an ACK.
                let _ = stream.set_nodelay(true);
                // Load shedding: answer 429 inline (cheap — one write on a
                // fresh socket) rather than starting threads without bound.
                if state.connections_open.load(Ordering::SeqCst) >= state.max_backlog {
                    state.shed_requests.fetch_add(1, Ordering::Relaxed);
                    http::write_response(
                        &mut stream,
                        &http::Response::error_retry_after(
                            429,
                            "server overloaded, request shed",
                            1,
                        ),
                        true,
                    );
                    http::drain_then_close(stream);
                    continue;
                }
                // A connection that cannot be woken at shutdown is not kept.
                let Ok(waker) = stream.try_clone() else {
                    continue;
                };
                let id = state.connections_accepted.fetch_add(1, Ordering::Relaxed);
                state.connections_open.fetch_add(1, Ordering::SeqCst);
                sockets
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(id, waker);
                let open = OpenConnection {
                    id,
                    state,
                    sockets: &sockets,
                };
                // Claim a parked thread for this arrival (claimed here, so
                // two arrivals never count on the same one), or start one;
                // either way exactly one thread will come to take it.
                if parked
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_err()
                {
                    let (gate, parked_on, parked) = (&gate, &parked_on, &parked);
                    scope.spawn(move || connection_thread(state, gate, parked_on, parked));
                }
                // Threads leave only once this sender drops, below.
                let _ = arrivals.send((open, stream));
            }
            drop(arrivals);
            // No request will arrive that has not begun: end the read side
            // of every open connection, so threads parked on an idle socket
            // see EOF now rather than at its timeout.  Requests in flight
            // still write their response.
            for socket in sockets
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .values()
            {
                let _ = socket.shutdown(Shutdown::Read);
            }
        });
        // Every connection thread has ended: no request holds the writer.
        let mut writer = self
            .state
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
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
    /// connection so a blocked `accept` observes it.  Idle connections are
    /// closed, in-flight requests finish and are answered with
    /// `Connection: close`; [`Server::serve`] returns once they have.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clock-free: holders of a one-permit gate never overlap, every entrant
    /// gets through, and a holder that panics hands its permit back.
    #[test]
    fn one_permit_gate_admits_one_at_a_time_and_survives_a_panicking_holder() {
        let gate = Gate::new(1);
        let inside = AtomicUsize::new(0);
        let passed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let _permit = gate.enter();
                        assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0, "two holders");
                        std::thread::yield_now();
                        inside.fetch_sub(1, Ordering::SeqCst);
                        passed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(passed.load(Ordering::SeqCst), 8 * 200);

        let holder = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _permit = gate.enter();
                    panic!("the holder dies with the permit");
                })
                .join()
        });
        assert!(holder.is_err());
        // Blocks forever if the permit died with its holder.
        drop(gate.enter());
    }
}
