//! Route dispatch: maps parsed HTTP requests onto the snapshot/writer pair.
//!
//! Reads (`POST /query`) pin the currently published
//! [`DbSnapshot`](hilog_engine::DbSnapshot) and never take the writer lock.
//! Mutations (`POST /assert`, `POST /retract`) serialise on the single
//! [`PersistentWriter`](hilog_store::PersistentWriter): each request is one
//! batch, WAL-appended before it is applied (the commit point, a no-op for
//! the in-memory backend) and published atomically, so readers only ever
//! observe whole batches and a crash never loses an acknowledged one.

use crate::api_types::{
    CheckpointResponse, DegradedStats, MutateRequest, MutateResponse, QueryRequest, QueryResponse,
    StatsResponse,
};
use crate::http::{Request, Response};
use crate::ServerState;
use hilog_engine::{with_deadline, EngineError};
use hilog_store::{Op, StoreError};
use hilog_syntax::{parse_query, parse_rule, parse_term};
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// Serialises a response body (infallible with the vendored serde stub).
fn to_string<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// Dispatches one request to its route handler.
pub fn handle_request(state: &ServerState, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => query(state, &request.body),
        ("POST", "/assert") => mutate(state, &request.body, Mutation::Assert),
        ("POST", "/retract") => mutate(state, &request.body, Mutation::Retract),
        ("POST", "/checkpoint") => checkpoint(state, &request.body),
        ("GET", "/stats") => stats(state),
        (_, "/query" | "/assert" | "/retract" | "/checkpoint") => {
            Response::error(405, "use POST for this endpoint")
        }
        (_, "/stats") => Response::error(405, "use GET /stats"),
        _ => Response::error(
            404,
            "no such route (try /query, /assert, /retract, /checkpoint, /stats)",
        ),
    }
}

fn parse_body(body: &[u8]) -> Result<serde_json::Value, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "request body is not valid UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| Response::error(400, &format!("request body is not valid JSON: {e}")))
}

fn query(state: &ServerState, body: &[u8]) -> Response {
    let value = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let request = match QueryRequest::from_json(&value) {
        Ok(r) => r,
        Err(message) => return Response::error(400, &message),
    };
    let parsed = match parse_query(&request.query) {
        Ok(q) => q,
        Err(e) => return Response::error(422, &format!("query does not parse: {e}")),
    };
    // Pin the published snapshot: the query runs against exactly this epoch
    // even if the writer publishes mid-evaluation.
    let snapshot = state.snapshots.current();
    // The request's deadline wins over the server default; either installs
    // a thread-local deadline the engine's resource-limit hooks check.
    let timeout_ms = request.timeout_ms.or(state.default_timeout_ms);
    let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    match with_deadline(deadline, || snapshot.query(&parsed)) {
        Ok(result) => {
            state
                .head_unifications
                .fetch_add(result.stats.head_unifications as u64, Ordering::Relaxed);
            let response = QueryResponse {
                epoch: snapshot.epoch(),
                result,
            };
            let mut body = String::new();
            response.write_body(&mut body, request.analyze);
            Response::ok(body)
        }
        Err(EngineError::DeadlineExceeded(m)) => {
            state.query_timeouts.fetch_add(1, Ordering::Relaxed);
            let ms = timeout_ms.unwrap_or(0);
            Response::error(504, &format!("query exceeded its {ms}ms deadline: {m}"))
        }
        Err(e) => Response::error(422, &format!("query failed: {e}")),
    }
}

#[derive(Clone, Copy)]
enum Mutation {
    Assert,
    Retract,
}

fn mutate(state: &ServerState, body: &[u8], mutation: Mutation) -> Response {
    let value = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let request = match MutateRequest::from_json(&value) {
        Ok(r) => r,
        Err(message) => return Response::error(400, &message),
    };
    // Parse and validate the whole batch before touching the writer, so a
    // bad entry rejects the batch before anything reaches the log.  `ops`
    // and `texts` stay parallel: facts first, then rules, matching the
    // order `apply_batch` applies them in.
    let mut ops: Vec<Op> = Vec::with_capacity(request.facts.len() + request.rules.len());
    let mut texts: Vec<String> = Vec::with_capacity(ops.capacity());
    for text in &request.facts {
        let term = match parse_term(text) {
            Ok(t) => t,
            Err(e) => return Response::error(422, &format!("fact `{text}` does not parse: {e}")),
        };
        if !term.is_ground() {
            return Response::error(422, &format!("fact `{text}` is not ground"));
        }
        ops.push(match mutation {
            Mutation::Assert => Op::AssertFact(term),
            Mutation::Retract => Op::RetractFact(term),
        });
        texts.push(text.clone());
    }
    for text in &request.rules {
        let rule = match parse_rule(text) {
            Ok(r) => r,
            Err(e) => return Response::error(422, &format!("rule `{text}` does not parse: {e}")),
        };
        ops.push(match mutation {
            Mutation::Assert => Op::AssertRule(rule),
            Mutation::Retract => Op::RetractRule(rule),
        });
        texts.push(text.clone());
    }

    let mut writer = state.writer.lock().unwrap_or_else(PoisonError::into_inner);
    match writer.apply_batch(&ops) {
        Ok(outcome) => Response::ok(to_string(&MutateResponse {
            epoch: outcome.epoch,
            applied: outcome.applied,
            missing: outcome
                .missing
                .into_iter()
                .map(|index| texts[index].clone())
                .collect(),
        })),
        // Groundness was pre-checked, so an engine rejection is unexpected;
        // the applied prefix is already published and the batch is on disk,
        // so replay reproduces exactly this state.
        Err(StoreError::Engine { applied, error }) => {
            let entry = texts.get(applied).map(String::as_str).unwrap_or("?");
            Response::error(500, &format!("assert `{entry}` failed: {error}"))
        }
        // The store refused the batch because it is already read-only:
        // tell the client to read (and the operator to checkpoint).
        Err(e @ StoreError::Degraded { .. }) => Response::error(503, &e.to_string()),
        // Storage failures happen before anything is applied: the batch is
        // rejected whole and the published snapshot is unchanged.  A
        // non-transient I/O failure has just degraded the writer, so this
        // request too answers 503 rather than a generic 500.
        Err(e) => {
            if writer.degraded().is_some() {
                Response::error(503, &format!("storage failed, store is now read-only: {e}"))
            } else {
                Response::error(500, &format!("storage error, batch not applied: {e}"))
            }
        }
    }
}

/// `POST /checkpoint` with an empty body (or `{"mode": "full"}`) writes a
/// full checkpoint (every relation's segment);
/// `{"mode": "incremental"}` rewrites only the relations dirtied since the
/// newest manifest.
fn checkpoint(state: &ServerState, body: &[u8]) -> Response {
    let incremental = if body.iter().all(|b| b.is_ascii_whitespace()) {
        false
    } else {
        let value = match parse_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        match value.get("mode").and_then(serde_json::Value::as_str) {
            None | Some("full") => false,
            Some("incremental") => true,
            Some(other) => {
                return Response::error(
                    400,
                    &format!("unknown checkpoint mode `{other}` (try full or incremental)"),
                )
            }
        }
    };
    let mut writer = state.writer.lock().unwrap_or_else(PoisonError::into_inner);
    let outcome = if incremental {
        writer.checkpoint_incremental()
    } else {
        writer.checkpoint()
    };
    match outcome {
        Ok(outcome) => Response::ok(to_string(&CheckpointResponse {
            epoch: outcome.epoch,
            mode: if incremental { "incremental" } else { "full" }.to_string(),
            durable: outcome.path.is_some(),
            path: outcome.path.map(|p| p.display().to_string()),
            segments_written: outcome.segments_written,
            bytes_written: outcome.bytes_written,
            symbols_dropped: outcome.symbols_dropped,
            live_symbols: outcome.live_symbols,
        })),
        Err(e) => Response::error(500, &format!("checkpoint failed: {e}")),
    }
}

fn stats(state: &ServerState) -> Response {
    let snapshot = state.snapshots.current();
    let (storage, degraded) = {
        let writer = state.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let degraded = writer.degraded().map(|d| DegradedStats {
            reason: d.reason.clone(),
            since_epoch: d.since_epoch,
        });
        (writer.storage_stats(), degraded)
    };
    let spill = snapshot.storage_stats();
    let symbols = hilog_core::symbol_pool_stats();
    Response::ok(to_string(&StatsResponse {
        epoch: snapshot.epoch(),
        rules: snapshot.program().rules.len(),
        cached_subqueries: snapshot.cached_subqueries(),
        indexed_facts: snapshot.indexed_facts(),
        head_unifications: state.head_unifications.load(Ordering::Relaxed),
        semantics: snapshot.semantics().to_string(),
        workers: state.workers,
        durable: storage.durable,
        wal_records: storage.wal_records,
        wal_bytes: storage.wal_bytes,
        last_checkpoint_epoch: storage.last_checkpoint_epoch,
        data_dir_bytes: storage.data_dir_bytes,
        last_checkpoint_segments: storage.last_checkpoint_segments,
        last_checkpoint_bytes: storage.last_checkpoint_bytes,
        manifest_segments: storage.manifest_segments,
        spill_resident_facts: spill.resident_facts,
        spill_spilled_facts: spill.spilled_facts,
        spill_segment_bytes: spill.segment_bytes,
        spill_residency_faults: spill.residency_faults,
        spill_writes: spill.spill_writes,
        spill_io_errors: spill.spill_io_errors,
        live_symbols: symbols.live,
        interned_symbols: symbols.interned,
        degraded,
        io_ops: storage.io_ops,
        io_retries: storage.io_retries,
        injected_faults: storage.injected_faults,
        shed_requests: state.shed_requests.load(Ordering::Relaxed),
        query_timeouts: state.query_timeouts.load(Ordering::Relaxed),
        connections_accepted: state.connections_accepted.load(Ordering::Relaxed),
        connections_open: state.connections_open.load(Ordering::SeqCst),
        requests_served: state.requests_served.load(Ordering::Relaxed),
    }))
}
