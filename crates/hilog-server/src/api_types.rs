//! Typed request/response shapes of the JSON API, between the HTTP layer
//! and the handlers.  Requests parse from [`serde_json::Value`]; responses
//! serialise through the workspace `serde` stub (the engine's
//! `QueryResult`/`QueryPlan`/`EvalStats` already implement it).

use hilog_engine::QueryResult;
use serde::Serialize;
use serde_json::Value;

/// `POST /query` body:
/// `{"query": "?- winning(X).", "timeout_ms": 250, "analyze": true}`
/// (`timeout_ms` optional, overrides the server's default deadline;
/// `analyze` optional, `false` by default).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The query in concrete HiLog syntax (with or without the `?-` prefix).
    pub query: String,
    /// Per-request evaluation deadline in milliseconds; `None` falls back
    /// to [`ServerConfig::default_timeout_ms`](crate::ServerConfig).
    pub timeout_ms: Option<u64>,
    /// Whether the response carries the analysis, the result's `stats` and
    /// `plan`, beside the answer (see [`QueryResponse::write_body`]).
    pub analyze: bool,
}

impl QueryRequest {
    /// Parses the request body, reporting a client-facing message on error.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let query = value
            .get("query")
            .and_then(Value::as_str)
            .ok_or("expected a JSON object with a string `query` member")?;
        let timeout_ms = match value.get("timeout_ms") {
            None => None,
            Some(raw) => Some(
                raw.as_u64()
                    .filter(|&ms| ms > 0)
                    .ok_or("`timeout_ms` must be a positive integer (milliseconds)")?,
            ),
        };
        let analyze = match value.get("analyze") {
            None => false,
            Some(raw) => raw.as_bool().ok_or("`analyze` must be a boolean")?,
        };
        Ok(QueryRequest {
            query: query.to_string(),
            timeout_ms,
            analyze,
        })
    }
}

/// `POST /assert` / `POST /retract` body:
/// `{"facts": ["move(a, b)"], "rules": ["winning(X) :- ..."]}` — both
/// members optional, both lists of strings in concrete syntax.
#[derive(Debug, Clone, Default)]
pub struct MutateRequest {
    /// Ground facts, e.g. `"move(a, b)"`.
    pub facts: Vec<String>,
    /// Rules in concrete syntax (trailing `.` optional).
    pub rules: Vec<String>,
}

impl MutateRequest {
    /// Parses the request body, reporting a client-facing message on error.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        if value.as_object().is_none() {
            return Err("expected a JSON object with `facts` and/or `rules` lists".into());
        }
        let list = |key: &str| -> Result<Vec<String>, String> {
            match value.get(key) {
                None => Ok(Vec::new()),
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("`{key}` must be a list of strings"))
                    })
                    .collect(),
                Some(_) => Err(format!("`{key}` must be a list of strings")),
            }
        };
        let request = MutateRequest {
            facts: list("facts")?,
            rules: list("rules")?,
        };
        if request.facts.is_empty() && request.rules.is_empty() {
            return Err("expected at least one entry in `facts` or `rules`".into());
        }
        Ok(request)
    }
}

/// `POST /query` response: the epoch of the snapshot that answered and the
/// engine's [`QueryResult`].  It serialises the answer alone,
/// `{"epoch":…,"result":{"answers":…,"truth":…,"fallback":…}}`;
/// [`write_body`](QueryResponse::write_body) adds the result's `stats` and
/// `plan` on request.
#[derive(Debug)]
pub struct QueryResponse {
    /// Epoch of the snapshot the query ran against.
    pub epoch: u64,
    /// The engine's result.
    pub result: QueryResult,
}

impl QueryResponse {
    /// Writes the body: the answer alone, or with `analyze` (a request's
    /// `"analyze": true`) the result serialised whole, `stats` and `plan`
    /// included.
    pub fn write_body(&self, out: &mut String, analyze: bool) {
        out.push('{');
        serde::write_field(out, "epoch", &self.epoch, true);
        out.push_str(",\"result\":");
        self.result.write_json_with(out, analyze);
        out.push('}');
    }
}

impl Serialize for QueryResponse {
    fn write_json(&self, out: &mut String) {
        self.write_body(out, false);
    }
}

/// `POST /assert` / `POST /retract` response.
#[derive(Debug)]
pub struct MutateResponse {
    /// Epoch of the snapshot published by this batch.
    pub epoch: u64,
    /// Number of facts/rules applied.
    pub applied: usize,
    /// Entries that were not present (retract only; empty for assert).
    pub missing: Vec<String>,
}

impl Serialize for MutateResponse {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        serde::write_field(out, "epoch", &self.epoch, true);
        serde::write_field(out, "applied", &self.applied, false);
        serde::write_field(out, "missing", &self.missing, false);
        out.push('}');
    }
}

/// `GET /stats` response: a cheap view of the serving *and* storage state.
#[derive(Debug)]
pub struct StatsResponse {
    /// Epoch of the currently published snapshot.
    pub epoch: u64,
    /// Rules (facts included) in the published program.
    pub rules: usize,
    /// Completed subgoal tables held by the published snapshot.
    pub cached_subqueries: usize,
    /// Distinct ground facts in the published snapshot's program index (the
    /// store the tabled evaluator probes); 0 until a cold query builds it.
    pub indexed_facts: usize,
    /// Head unifications the tabled evaluator attempted across every query
    /// this server answered — what its cold subgoals cost.
    pub head_unifications: u64,
    /// The semantics queries are answered under.
    pub semantics: String,
    /// Requests that may execute at once.
    pub workers: usize,
    /// Whether a durable store backs the server (`false`: every storage
    /// counter below is zero).
    pub durable: bool,
    /// Mutation batches in the write-ahead log since the last checkpoint.
    pub wal_records: usize,
    /// Bytes in the write-ahead log.
    pub wal_bytes: u64,
    /// Epoch of the most recent checkpoint, if one was ever written.
    pub last_checkpoint_epoch: Option<u64>,
    /// Total on-disk size of the data directory, in bytes.
    pub data_dir_bytes: u64,
    /// Segment files the most recent checkpoint wrote (every relation for a
    /// full one; for an incremental one clean relations reuse theirs).
    pub last_checkpoint_segments: usize,
    /// Bytes the most recent checkpoint added — the incremental delta.
    pub last_checkpoint_bytes: u64,
    /// Segments referenced by the current manifest.
    pub manifest_segments: usize,
    /// Facts resident in memory across the published snapshot's relation
    /// stores (the grounding's possibly-true store, the program index and
    /// the subgoal tables).
    pub spill_resident_facts: usize,
    /// Facts whose payloads live only in spill segment files (zero under
    /// the in-memory relation backend).
    pub spill_spilled_facts: usize,
    /// Bytes in the snapshot's spill segment files.
    pub spill_segment_bytes: u64,
    /// Spilled rows decoded back into memory.  This and the two fields
    /// below are lifetime totals *of the stores the answering snapshot
    /// holds* — not of the process, so two servers in one process report
    /// their own, and not of the server: a store published anew starts from
    /// its writer-side copy's totals, without what readers of the snapshot
    /// before it caused.
    pub spill_residency_faults: u64,
    /// Rows paged out to spill segments (same scope).
    pub spill_writes: u64,
    /// Eviction attempts that hit a segment I/O error and kept their rows
    /// resident (same scope).  Non-zero means a degraded spill cache —
    /// residency budget overshot — never wrong answers.
    pub spill_io_errors: u64,
    /// Interned symbols still referenced outside the global pool.
    pub live_symbols: usize,
    /// Total entries in the global symbol pool (live plus pool-only, the
    /// latter reclaimed by the checkpoint-time GC).
    pub interned_symbols: usize,
    /// Set while the store is in read-only degraded mode (a non-transient
    /// storage failure stopped mutations); `null` when healthy.  A
    /// successful `POST /checkpoint` re-arms the writer and clears this.
    pub degraded: Option<DegradedStats>,
    /// Filesystem operations issued by the durable store.
    pub io_ops: u64,
    /// Transient storage faults absorbed by retry.
    pub io_retries: u64,
    /// Faults injected by a fault-injecting I/O backend (0 in production).
    pub injected_faults: u64,
    /// Connections shed with `429` because `max_backlog` were already open.
    pub shed_requests: u64,
    /// Queries aborted at their deadline (`504` responses).
    pub query_timeouts: u64,
    /// Connections given a connection thread since boot.
    pub connections_accepted: u64,
    /// Connections open right now, idle ones included.
    pub connections_open: usize,
    /// Requests answered on those connections, this one included; divided
    /// by `connections_accepted` it says how far clients reuse connections.
    pub requests_served: u64,
}

/// The `degraded` member of [`StatsResponse`]: why and since when the store
/// has been read-only.
#[derive(Debug, Clone)]
pub struct DegradedStats {
    /// The storage failure that triggered degradation.
    pub reason: String,
    /// Epoch of the last successfully published batch.
    pub since_epoch: u64,
}

impl Serialize for DegradedStats {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        serde::write_field(out, "reason", &self.reason, true);
        serde::write_field(out, "since_epoch", &self.since_epoch, false);
        out.push('}');
    }
}

impl Serialize for StatsResponse {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        serde::write_field(out, "epoch", &self.epoch, true);
        serde::write_field(out, "rules", &self.rules, false);
        serde::write_field(out, "cached_subqueries", &self.cached_subqueries, false);
        serde::write_field(out, "indexed_facts", &self.indexed_facts, false);
        serde::write_field(out, "head_unifications", &self.head_unifications, false);
        serde::write_field(out, "semantics", &self.semantics, false);
        serde::write_field(out, "workers", &self.workers, false);
        serde::write_field(out, "durable", &self.durable, false);
        serde::write_field(out, "wal_records", &self.wal_records, false);
        serde::write_field(out, "wal_bytes", &self.wal_bytes, false);
        serde::write_field(
            out,
            "last_checkpoint_epoch",
            &self.last_checkpoint_epoch,
            false,
        );
        serde::write_field(out, "data_dir_bytes", &self.data_dir_bytes, false);
        serde::write_field(
            out,
            "last_checkpoint_segments",
            &self.last_checkpoint_segments,
            false,
        );
        serde::write_field(
            out,
            "last_checkpoint_bytes",
            &self.last_checkpoint_bytes,
            false,
        );
        serde::write_field(out, "manifest_segments", &self.manifest_segments, false);
        serde::write_field(
            out,
            "spill_resident_facts",
            &self.spill_resident_facts,
            false,
        );
        serde::write_field(out, "spill_spilled_facts", &self.spill_spilled_facts, false);
        serde::write_field(out, "spill_segment_bytes", &self.spill_segment_bytes, false);
        serde::write_field(
            out,
            "spill_residency_faults",
            &self.spill_residency_faults,
            false,
        );
        serde::write_field(out, "spill_writes", &self.spill_writes, false);
        serde::write_field(out, "spill_io_errors", &self.spill_io_errors, false);
        serde::write_field(out, "live_symbols", &self.live_symbols, false);
        serde::write_field(out, "interned_symbols", &self.interned_symbols, false);
        serde::write_field(out, "degraded", &self.degraded, false);
        serde::write_field(out, "io_ops", &self.io_ops, false);
        serde::write_field(out, "io_retries", &self.io_retries, false);
        serde::write_field(out, "injected_faults", &self.injected_faults, false);
        serde::write_field(out, "shed_requests", &self.shed_requests, false);
        serde::write_field(out, "query_timeouts", &self.query_timeouts, false);
        serde::write_field(
            out,
            "connections_accepted",
            &self.connections_accepted,
            false,
        );
        serde::write_field(out, "connections_open", &self.connections_open, false);
        serde::write_field(out, "requests_served", &self.requests_served, false);
        out.push('}');
    }
}

/// `POST /checkpoint` response.
#[derive(Debug)]
pub struct CheckpointResponse {
    /// The epoch the checkpoint captured.
    pub epoch: u64,
    /// `"full"` or `"incremental"`.
    pub mode: String,
    /// `false` when the server runs in-memory (nothing was written).
    pub durable: bool,
    /// Path of the manifest file, when one was written.
    pub path: Option<String>,
    /// Segment files written (every relation in full mode, the dirtied
    /// ones in incremental mode).
    pub segments_written: usize,
    /// Bytes this checkpoint added to the data directory.
    pub bytes_written: u64,
    /// Symbol-pool entries reclaimed by the checkpoint-time GC.
    pub symbols_dropped: usize,
    /// Symbols still live after the GC.
    pub live_symbols: usize,
}

impl Serialize for CheckpointResponse {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        serde::write_field(out, "epoch", &self.epoch, true);
        serde::write_field(out, "mode", &self.mode, false);
        serde::write_field(out, "durable", &self.durable, false);
        serde::write_field(out, "path", &self.path, false);
        serde::write_field(out, "segments_written", &self.segments_written, false);
        serde::write_field(out, "bytes_written", &self.bytes_written, false);
        serde::write_field(out, "symbols_dropped", &self.symbols_dropped, false);
        serde::write_field(out, "live_symbols", &self.live_symbols, false);
        out.push('}');
    }
}
