//! Fault-injection sweep over the durable store, plus HTTP-level
//! resilience checks (deadlines, degraded mode, load shedding, slow
//! clients).
//!
//! The sweep's contract: for *every* I/O operation index in a fixed
//! scripted run (fresh open, three mutation batches, an incremental and a
//! full checkpoint, crash, reopen), injecting a fault at exactly
//! that index must leave the store either fully serving (transient fault
//! absorbed by retry) or recoverable — a reopen through clean I/O lands on
//! a batch-boundary state that contains every *acknowledged* batch and
//! answers every query like fresh evaluation of that program.  (A batch
//! whose WAL frame landed intact just before the injected failure may
//! legitimately reappear: unacknowledged writes may be durable, the
//! guarantee is only that acknowledged ones must be.)  No fault index may
//! lose an acknowledged batch, corrupt an answer, or wedge the store.
//!
//! Exhaustive (every op index) by default; `HILOG_FAULT_SWEEP_STRIDE`
//! thins the sweep, `HILOG_FAULT_SWEEP_FROM` skips ahead to an index.

use hilog_repro::prelude::*;
use hilog_store::{FaultIo, FaultPlan, Op, PersistentWriter, RetryPolicy, StoreConfig, StoreError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn temp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hilog-fault-{tag}-{}-{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const RULES: &str = "reach(X, Y) :- move(X, Y).\n\
                     reach(X, Z) :- move(X, Y), reach(Y, Z).";

const QUERIES: [&str; 3] = ["?- reach(a, X).", "?- reach(X, Y).", "?- colour(a, X)."];

fn seed_db() -> HiLogDb {
    HiLogDb::new(parse_program(RULES).unwrap())
}

/// Rules as a sorted multiset — recovery reconstructs programs order-
/// permuted (see `tests/recovery.rs`), so equality up to permutation is the
/// right cross-recovery check.
fn program_multiset(program: &hilog_core::Program) -> Vec<String> {
    let mut rules: Vec<String> = program.rules.iter().map(|r| r.to_string()).collect();
    rules.sort();
    rules
}

fn answer_set(result: &QueryResult) -> std::collections::BTreeSet<String> {
    result.answers.iter().map(|a| a.to_string()).collect()
}

/// The scripted batches: asserts across two relations plus a retraction,
/// so both checkpoint routes and the WAL tail carry real work.
fn script_batches() -> Vec<Vec<Op>> {
    let fact = |text: &str| Op::AssertFact(parse_term(text).unwrap());
    vec![
        vec![fact("move(a, b)"), fact("colour(a, red)")],
        vec![fact("move(b, c)")],
        vec![
            fact("move(c, d)"),
            Op::RetractFact(parse_term("colour(a, red)").unwrap()),
        ],
    ]
}

/// What a scripted run left behind.  `candidates[0..=acked]` are the
/// batch-boundary programs up to the last acknowledged batch; entries past
/// `acked` are *attempted* batches whose WAL frame may or may not have
/// survived the injected failure — recovery may legitimately land on any
/// of `candidates[acked..]`, never below `acked`.
struct ScriptOutcome {
    candidates: Vec<hilog_core::Program>,
    acked: usize,
    failed_steps: usize,
}

/// Runs the fixed script against `config`, tolerating storage errors: an
/// errored batch is simply not acknowledged.  After every step — failed or
/// not — the published snapshot must still answer exactly like fresh
/// evaluation of the last acknowledged program (read-only degraded mode).
fn run_script(config: &StoreConfig) -> ScriptOutcome {
    // A fault-free in-memory shadow tracks the program each batch produces
    // when applied in order, acknowledged or not.
    let (mut shadow, _shadow_handle) = PersistentWriter::in_memory(seed_db());
    let mut candidates = vec![parse_program(RULES).unwrap()];
    let mut acked = 0;
    let mut failed_steps = 0;

    let (mut writer, handle, _report) = match PersistentWriter::open(config, seed_db()) {
        Ok(opened) => opened,
        Err(_) => {
            return ScriptOutcome {
                candidates,
                acked,
                failed_steps: 1,
            }
        }
    };

    for (k, ops) in script_batches().iter().enumerate() {
        shadow.apply_batch(ops).expect("in-memory shadow applies");
        match writer.apply_batch(ops) {
            Ok(_) => {
                candidates.push(writer.program().clone());
                acked = candidates.len() - 1;
                assert_eq!(
                    program_multiset(writer.program()),
                    program_multiset(shadow.program()),
                    "acknowledged state diverged from the in-order shadow"
                );
            }
            // Refused up front: the batch never reached the WAL, so it is
            // no recovery candidate.
            Err(StoreError::Degraded { .. }) => failed_steps += 1,
            // Failed mid-append: not acknowledged, but the frame may have
            // landed intact before the fault — an admissible extra.
            Err(_) => {
                failed_steps += 1;
                candidates.push(shadow.program().clone());
            }
        }
        let checkpointed = match k {
            0 => Some(writer.checkpoint_incremental()),
            1 => Some(writer.checkpoint()),
            _ => None,
        };
        if let Some(Err(_)) = checkpointed {
            failed_steps += 1;
        }
        // Reads never stop: the published snapshot answers exactly like
        // fresh evaluation of the last acknowledged program.
        let snapshot = handle.current();
        let mut fresh = HiLogDb::new(candidates[acked].clone());
        let query = parse_query(QUERIES[0]).unwrap();
        let served = snapshot
            .query(&query)
            .expect("store under faults still answers reads");
        let reference = fresh.query(&query).unwrap();
        assert_eq!(
            answer_set(&served),
            answer_set(&reference),
            "served answers diverged from the acknowledged state after batch {k}"
        );
    }

    // Simulated crash: writer dropped cold, then a same-config reopen (it
    // may fail under persistent faults; the clean reopen below must not).
    drop((writer, handle));
    if PersistentWriter::open(config, seed_db()).is_err() {
        failed_steps += 1;
    }

    ScriptOutcome {
        candidates,
        acked,
        failed_steps,
    }
}

/// The recovery oracle: reopening `dir` through clean I/O must land on one
/// of the admissible batch-boundary states (`candidates[acked..]`) and
/// answer every query like fresh evaluation of that state.
fn verify_clean_reopen(dir: &Path, outcome: &ScriptOutcome, context: &str) {
    let config = StoreConfig::new(dir);
    let (writer, handle, _report) = PersistentWriter::open(&config, seed_db())
        .unwrap_or_else(|e| panic!("clean reopen must succeed {context}: {e}"));
    let recovered_program = program_multiset(writer.program());
    let matched = outcome.candidates[outcome.acked..]
        .iter()
        .find(|candidate| program_multiset(candidate) == recovered_program);
    let expected = matched.unwrap_or_else(|| {
        panic!(
            "clean reopen lost acknowledged state or invented one {context}: \
             recovered {recovered_program:?}, acknowledged {:?}",
            program_multiset(&outcome.candidates[outcome.acked]),
        )
    });
    let snapshot = handle.current();
    let mut fresh = HiLogDb::new((*expected).clone());
    for query_text in QUERIES {
        let query = parse_query(query_text).unwrap();
        let recovered = snapshot.query(&query).expect("recovered store answers");
        let reference = fresh.query(&query).unwrap();
        assert_eq!(
            answer_set(&recovered),
            answer_set(&reference),
            "recovered answers diverged from fresh evaluation on {query_text} {context}"
        );
    }
}

/// Sweeps the fault point over every I/O op index of the scripted run, in
/// two modes per index: a one-shot transient fault under the default retry
/// policy (absorbed or recovered), and a persistent from-here-on failure
/// (odd indices additionally land short writes, producing torn frames).
#[test]
fn every_fault_point_keeps_acknowledged_state_recoverable() {
    // First, a clean instrumented run: counts the op universe and pins the
    // fully-applied end state.
    let dir = temp_dir("count", 0);
    let counter = FaultIo::over_real();
    let clean = run_script(
        &StoreConfig::new(&dir)
            .io(Arc::new(counter.clone()))
            .retry(RetryPolicy::none()),
    );
    assert_eq!(clean.failed_steps, 0, "the clean scripted run is green");
    assert_eq!(clean.acked, 3, "three batches acknowledge");
    let total_ops = counter.ops();
    assert!(total_ops > 20, "the script exercises a real op stream");
    let full_program = clean.candidates[clean.acked].clone();
    std::fs::remove_dir_all(&dir).ok();

    // Exhaustive by default (the scripted run is small); a larger stride
    // thins the sweep when iterating locally.
    let stride = env_usize("HILOG_FAULT_SWEEP_STRIDE", 1);
    eprintln!("fault sweep: {total_ops} ops, stride {stride}");

    let mut index = env_usize("HILOG_FAULT_SWEEP_FROM", 0) as u64;
    while index < total_ops {
        // Transient: one injected fault at exactly `index`, default retry.
        {
            let dir = temp_dir("transient", index);
            let io = FaultIo::over_real();
            io.fail_nth(index);
            let outcome = run_script(
                &StoreConfig::new(&dir)
                    .io(Arc::new(io.clone()))
                    .retry(RetryPolicy::default()),
            );
            assert!(io.injected() >= 1, "op {index}: the fault was reachable");
            if outcome.failed_steps == 0 {
                assert_eq!(
                    program_multiset(&outcome.candidates[outcome.acked]),
                    program_multiset(&full_program),
                    "op {index}: an absorbed transient fault must not drop a batch"
                );
            }
            verify_clean_reopen(&dir, &outcome, &format!("(transient fault at op {index})"));
            std::fs::remove_dir_all(&dir).ok();
        }

        // Persistent: the disk dies at `index` and never comes back.
        {
            let dir = temp_dir("persistent", index);
            let io = FaultIo::over_real();
            io.set_plan(FaultPlan {
                fail_from: Some(index),
                fail_count: u64::MAX,
                short_writes: index % 2 == 1,
                ..FaultPlan::default()
            });
            let outcome = run_script(
                &StoreConfig::new(&dir)
                    .io(Arc::new(io))
                    .retry(RetryPolicy::none()),
            );
            verify_clean_reopen(
                &dir,
                &outcome,
                &format!("(persistent faults from op {index})"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }

        index += stride as u64;
    }
}

/// A failed sync anywhere in a checkpoint — each segment's and the
/// manifest's data sync, the directory sync that makes their names durable,
/// the WAL truncation's — must fail the checkpoint and leave the WAL's
/// records in place.  The directory sync is the sharp one: the manifest is
/// already renamed in when it fails, and pruning the older recovery point
/// and truncating the log on the strength of a name that may not be durable
/// would leave no durable copy of the epochs in between.
#[test]
fn failed_sync_in_a_checkpoint_fails_it_and_keeps_the_wal() {
    // One store per probed op index: the seed, one acknowledged batch in
    // the WAL, then a single fsync-only fault armed `offset` ops into the
    // checkpoint.  Returns the checkpoint's outcome, the ops it issued and
    // whether the fault landed on a sync.
    let probe = |incremental: bool, offset: Option<u64>| {
        let dir = temp_dir("ckpt-sync", offset.map_or(0, |o| o + 1));
        let io = FaultIo::over_real();
        let config = StoreConfig::new(&dir)
            .io(Arc::new(io.clone()))
            .retry(RetryPolicy::none());
        let (mut writer, handle, _) = PersistentWriter::open(&config, seed_db()).unwrap();
        writer.apply_batch(&script_batches()[0]).unwrap();
        let acked = writer.program().clone();
        let before = io.ops();
        if let Some(offset) = offset {
            io.set_plan(FaultPlan {
                fail_from: Some(before + offset),
                fail_count: 1,
                fsync_only: true,
                ..FaultPlan::default()
            });
        }
        let result = if incremental {
            writer.checkpoint_incremental()
        } else {
            writer.checkpoint()
        };
        let span = io.ops() - before;
        let hit = io.injected() == 1;
        if hit {
            assert!(result.is_err(), "a failed sync must fail the checkpoint");
            assert_eq!(
                writer.storage_stats().wal_records,
                1,
                "the WAL keeps its record after a failed checkpoint"
            );
            drop((writer, handle));
            let outcome = ScriptOutcome {
                candidates: vec![acked],
                acked: 0,
                failed_steps: 1,
            };
            verify_clean_reopen(&dir, &outcome, &format!("(sync fault at +{offset:?})"));
        }
        std::fs::remove_dir_all(&dir).ok();
        (result, span, hit)
    };

    for incremental in [false, true] {
        let (clean, span, _) = probe(incremental, None);
        let files_written = clean.expect("clean checkpoint").segments_written + 1;
        let failed_syncs = (0..span)
            .filter(|&offset| probe(incremental, Some(offset)).2)
            .count();
        assert_eq!(
            failed_syncs,
            files_written + 2,
            "one data sync per file written, the directory sync, the WAL truncation's"
        );
    }
}

// ---------------------------------------------------------------------------
// HTTP-level resilience
// ---------------------------------------------------------------------------

use hilog_server::{client, Server, ServerConfig};
use std::time::Duration;

/// A transitive closure big enough that evaluation takes well over a
/// millisecond — the workload for deadline tests.
fn slow_program() -> hilog_core::Program {
    let mut source = String::from(
        "reach(X, Y) :- move(X, Y).\n\
         reach(X, Z) :- move(X, Y), reach(Y, Z).\n",
    );
    // Long enough that evaluation reliably overruns a 1ms deadline (the
    // reach/2 closure is quadratic in the chain), short enough that the
    // no-deadline control completes quickly even unoptimised.
    for i in 0..120 {
        source.push_str(&format!("move(n{i}, n{}).\n", i + 1));
    }
    parse_program(&source).unwrap()
}

fn query_body(query: &str) -> String {
    let mut body = String::from("{\"query\":");
    serde::write_json_string(&mut body, query);
    body.push('}');
    body
}

/// Reads `name` off a `/stats` response.
fn stat(stats: &client::ClientResponse, name: &str) -> u64 {
    stats
        .json()
        .ok()
        .and_then(|json| json.get(name).and_then(|v| v.as_u64()))
        .unwrap_or_else(|| panic!("no `{name}` in {}", stats.body))
}

/// `timeout_ms` in the request body aborts a too-slow query with `504`,
/// the same query without a deadline completes, and `/stats` counts the
/// timeout.  A generous deadline surfaces `deadline_checks` in the
/// result's `EvalStats`.  All on one connection: a `504` is an answer, not
/// a reason to close.
#[test]
fn query_deadline_answers_504_and_counts() {
    let server = Server::bind(
        ServerConfig::ephemeral()
            .workers(2)
            .default_timeout_ms(None),
        HiLogDb::new(slow_program()),
    )
    .expect("bind");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    let mut connection = client::Connection::open(addr).expect("connect");

    let response = connection
        .post("/query", r#"{"query": "?- reach(X, Y).", "timeout_ms": 1}"#)
        .unwrap();
    assert_eq!(response.status, 504, "{}", response.body);
    assert!(response.body.contains("deadline"), "{}", response.body);
    assert!(!response.close, "a timed-out query keeps its connection");

    // Without a deadline the very same query completes.
    let response = connection
        .post("/query", &query_body("?- reach(X, Y)."))
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);

    // A generous deadline passes and reports its checks in the stats.
    let response = connection
        .post(
            "/query",
            r#"{"query": "?- reach(n0, Y).", "timeout_ms": 60000}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let json = response.json().unwrap();
    let checks = json
        .get("result")
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("deadline_checks"))
        .and_then(|v| v.as_u64())
        .expect("stats carry deadline_checks");
    assert!(checks > 0, "a deadlined query reports its checks");

    let response = connection.get("/stats").unwrap();
    assert!(stat(&response, "query_timeouts") >= 1, "{}", response.body);
    assert_eq!(stat(&response, "connections_accepted"), 1);

    // Bad deadline values are client errors.
    let response = connection
        .post(
            "/query",
            r#"{"query": "?- reach(X, Y).", "timeout_ms": "soon"}"#,
        )
        .unwrap();
    assert_eq!(response.status, 400, "{}", response.body);

    shutdown.shutdown();
    serving.join().expect("server exits");
}

/// A 5 ms deadline on a full-model query over a large grounding returns
/// within a named slack: the grounding looks at the deadline at each new
/// atom, round 0's facts included, and the well-founded evaluation at each
/// component.  While a semi-naive round and the whole evaluation ran
/// unchecked, these queries returned after 52–80 ms.  Figure 1 looks at it
/// between the steps of a round and at each partial instantiation of the
/// reduction; while it looked once a round, the sharded game returned after
/// 128–140 ms.  A passed deadline is an error, not a verdict: the same
/// session without one still accepts the program.  The stable-model search
/// looks at it at each `W_P` step of its propagation: on a grounding built
/// beforehand, a 4,000-position cycle's two stable models take ≈ 0.46 s to
/// enumerate with no deadline (release), and while the search looked only
/// at its nodes, a 200-position cycle's returned after 65–76 ms.
#[test]
fn a_full_model_build_stops_at_its_deadline() {
    use hilog_repro::engine::with_deadline;
    use hilog_workloads::{cycle, normal_game_program, random_dag, sharded_game_program};
    use std::time::Instant;

    // 20 ms past the deadline; an unoptimised build is given ten times that.
    let slack = Duration::from_millis(if cfg!(debug_assertions) { 200 } else { 20 });
    let mut cyclic = cycle(20_000);
    cyclic.extend(random_dag(20_000, 1.0, 3));
    let sharded = sharded_game_program(40, 400, 17);
    let cases = [
        ("sharded", sharded.clone(), Semantics::WellFounded),
        (
            "cyclic",
            normal_game_program(&cyclic),
            Semantics::WellFounded,
        ),
        ("sharded, Figure 1", sharded, Semantics::ModularCheck),
    ];
    let query = parse_query("?- P(X).").unwrap();
    for (name, program, semantics) in cases {
        let mut db = HiLogDb::builder()
            .program(program)
            .semantics(semantics)
            .build();
        let started = Instant::now();
        let deadline = started + Duration::from_millis(5);
        let result = with_deadline(Some(deadline), || db.query(&query));
        let took = started.elapsed();
        assert!(
            matches!(result, Err(EngineError::DeadlineExceeded(_))),
            "{name}: {:?}",
            result.map(|r| r.truth)
        );
        eprintln!("{name}: deadline exceeded after {took:?}");
        assert!(took < Duration::from_millis(5) + slack, "{name}: {took:?}");
        if semantics == Semantics::ModularCheck {
            let accepted = db.check_modular().expect("no deadline, no error");
            assert!(accepted.modularly_stratified, "{:?}", accepted.reason);
        }
    }

    let name = "stable models, cycle(4000)";
    let mut db = HiLogDb::builder()
        .program(normal_game_program(&cycle(4_000)))
        .semantics(Semantics::Stable)
        .build();
    db.ground_program().expect("no deadline, no error");
    let started = Instant::now();
    let deadline = started + Duration::from_millis(5);
    let result = with_deadline(Some(deadline), || db.stable_models().map(<[Model]>::len));
    let took = started.elapsed();
    assert!(
        matches!(result, Err(EngineError::DeadlineExceeded(_))),
        "{name}: {result:?}"
    );
    eprintln!("{name}: deadline exceeded after {took:?}");
    assert!(took < Duration::from_millis(5) + slack, "{name}: {took:?}");
}

/// A dead disk under a live server: mutations degrade to `503` while
/// queries keep answering, `/stats` reports why, and a successful
/// checkpoint after the disk heals re-arms the writer — all of it on one
/// kept connection, whose `503`s do not cost it the socket.
#[test]
fn degraded_server_answers_503_and_checkpoint_rearms() {
    let dir = temp_dir("http-degraded", 0);
    let io = FaultIo::over_real();
    let program = parse_program(
        "winning(X) :- move(X, Y), not winning(Y).\n\
         move(a, b). move(b, c).",
    )
    .unwrap();
    let server = Server::bind(
        ServerConfig::ephemeral()
            .workers(2)
            .data_dir(&dir)
            .store_io(Arc::new(io.clone()))
            .store_retry(RetryPolicy::none()),
        HiLogDb::new(program),
    )
    .expect("bind durable server");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    let mut connection = client::Connection::open(addr).expect("connect");

    let response = connection
        .post("/assert", r#"{"facts": ["move(c, d)"]}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);

    // The disk dies: the next mutation degrades the store.
    io.fail_from(io.ops());
    let response = connection
        .post("/assert", r#"{"facts": ["move(d, e)"]}"#)
        .unwrap();
    assert_eq!(response.status, 503, "{}", response.body);

    // Queries keep serving the last published snapshot.
    let response = connection
        .post("/query", &query_body("?- winning(c)."))
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let json = response.json().unwrap();
    assert_eq!(
        json.get("result")
            .and_then(|r| r.get("truth"))
            .and_then(|v| v.as_str()),
        Some("true"),
        "degraded store answers from the acknowledged state"
    );

    // Stats say why, and count the injected faults.
    let response = connection.get("/stats").unwrap();
    let json = response.json().unwrap();
    let degraded = json.get("degraded").expect("stats carry degraded");
    assert!(
        degraded.get("reason").and_then(|v| v.as_str()).is_some(),
        "{}",
        response.body
    );
    assert_eq!(
        degraded.get("since_epoch").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert!(
        json.get("injected_faults")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 1,
        "{}",
        response.body
    );

    // Still read-only: the refusal is now the structured degraded error.
    let response = connection
        .post("/assert", r#"{"facts": ["move(d, e)"]}"#)
        .unwrap();
    assert_eq!(response.status, 503, "{}", response.body);
    assert!(response.body.contains("read-only"), "{}", response.body);

    // Operator frees space; a successful checkpoint re-arms the writer.
    io.heal();
    let response = connection.post("/checkpoint", "").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let response = connection
        .post("/assert", r#"{"facts": ["move(d, e)"]}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let response = connection.get("/stats").unwrap();
    let json = response.json().unwrap();
    assert!(
        matches!(json.get("degraded"), Some(serde_json::Value::Null)),
        "re-armed stats report degraded: null ({})",
        response.body
    );
    assert_eq!(stat(&response, "connections_accepted"), 1);

    shutdown.shutdown();
    serving.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

/// With an idle connection filling a connection bound of one, the next
/// arrival is shed inline with `429` + `Retry-After`; the server recovers
/// once the connection drains.
#[test]
fn overloaded_server_sheds_with_429_retry_after() {
    let server = Server::bind(
        ServerConfig::ephemeral()
            .workers(1)
            .max_backlog(1)
            .socket_timeout(Some(Duration::from_secs(30))),
        HiLogDb::new(parse_program("move(a, b).").unwrap()),
    )
    .expect("bind");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    // Fill the connection bound: an accepted connection that sends nothing.
    // Polled rather than slept — under a loaded machine the accept loop may
    // take a while to dispatch the idle connection; until it does, requests
    // still answer 200.
    let idle = std::net::TcpStream::connect(addr).unwrap();
    let mut shed = None;
    for _ in 0..100 {
        // A reset mid-shed is possible (the 429 races the close); retry.
        if let Ok(response) = client::get(addr, "/stats") {
            if response.status == 429 {
                shed = Some(response);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let response = shed.expect("a full backlog sheds the next arrival");
    assert_eq!(response.status, 429, "{}", response.body);
    assert_eq!(response.retry_after, Some(1), "shed responses say when");
    assert!(response.body.contains("overloaded"), "{}", response.body);

    // Draining the idle connection frees its place; service resumes.
    drop(idle);
    let mut recovered = None;
    for _ in 0..50 {
        if let Ok(response) = client::get(addr, "/stats") {
            if response.status == 200 {
                recovered = Some(response);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let response = recovered.expect("server recovers after the overload clears");
    let json = response.json().unwrap();
    assert!(
        json.get("shed_requests").and_then(|v| v.as_u64()).unwrap() >= 1,
        "{}",
        response.body
    );

    shutdown.shutdown();
    serving.join().expect("server exits");
}

/// Spins until `ready` — a wait on a count or a flag, never the assertion
/// itself — and gives up loudly rather than hanging the suite.
fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
    let start = std::time::Instant::now();
    while !ready() {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "gave up waiting for {what}"
        );
        std::thread::yield_now();
    }
}

/// Writes `request` on a socket of its own and reads the one response plus
/// everything after it; `Err` carries what a reset made of the exchange.
fn raw_exchange(
    addr: std::net::SocketAddr,
    request: &[u8],
) -> std::io::Result<(client::ClientResponse, Vec<u8>)> {
    use std::io::{Read, Write};
    let mut reader = std::io::BufReader::new(std::net::TcpStream::connect(addr)?);
    reader.get_mut().write_all(request)?;
    let response = client::read_response(&mut reader)?;
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest)?;
    Ok((response, rest))
}

/// A client that stalls mid-request is cut off by the socket timeout with
/// `408` instead of holding a connection thread, while one that merely sits
/// idle is closed without a byte (a `408` there would be read as the answer
/// to its next request); oversized bodies stay `413`, an oversized head is
/// `431`, a chunked body `501` — each read to the end with the request's own
/// bytes still unread behind it, and then the socket closes.
#[test]
fn slow_clients_time_out_and_oversized_bodies_are_rejected() {
    let mut config = ServerConfig::ephemeral()
        .workers(2)
        .socket_timeout(Some(Duration::from_millis(100)));
    config.max_body_bytes = 256;
    let server =
        Server::bind(config, HiLogDb::new(parse_program("move(a, b).").unwrap())).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    let response = client::post_stalled(
        addr,
        "/query",
        &query_body("?- move(a, X)."),
        Duration::from_millis(500),
    )
    .expect("the 408 response is still readable");
    assert_eq!(response.status, 408, "{}", response.body);
    assert!(response.close, "a half-read request ends its connection");

    // Idle is not stalled: a kept connection that outlives the timeout
    // between requests reads EOF and nothing else.
    {
        use std::io::Read;
        let mut kept = client::Connection::open(addr).unwrap();
        let response = kept.post("/query", &query_body("?- move(a, X).")).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let mut idle = std::net::TcpStream::connect(addr).unwrap();
        let mut stale = Vec::new();
        idle.read_to_end(&mut stale).expect("a clean close");
        assert!(stale.is_empty(), "{}", String::from_utf8_lossy(&stale));
        // The kept connection idled out beside it; its next request goes
        // out again on a fresh socket and is answered, not met with a 408.
        let response = kept.post("/query", &query_body("?- move(a, X).")).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
    }

    // The body-size limit rejects before buffering the payload.
    let huge = format!(r#"{{"query": "?- move(a, {}). "}}"#, "b".repeat(512));
    let response = client::post(addr, "/query", &huge).unwrap();
    assert_eq!(response.status, 413, "{}", response.body);

    // So does the head-size limit, and a body framed some other way.
    let padded = format!(
        "GET /stats HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "p".repeat(20_000)
    );
    let chunked = "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                   1d\r\n{\"query\": \"?- move(a, X).\"}\r\n0\r\n\r\n";
    for (request, status) in [(padded.as_str(), 431), (chunked, 501)] {
        let (response, rest) = raw_exchange(addr, request.as_bytes()).expect("answered");
        assert_eq!(response.status, status, "{}", response.body);
        assert!(response.close && rest.is_empty(), "{status} closes");
    }

    shutdown.shutdown();
    serving.join().expect("server exits");
}

/// `workers` bounds the requests that execute, not the connections that are
/// open.  With one worker: a connection that is merely open holds no permit
/// (the next client is answered while it sits there), and a request that is
/// executing holds the only one (the next request runs after it, as the
/// epoch it reads shows).
#[test]
fn one_worker_is_held_by_an_executing_request_not_by_an_idle_connection() {
    let dir = temp_dir("http-one-worker", 0);
    let io = FaultIo::over_real();
    let server = Server::bind(
        ServerConfig::ephemeral()
            .workers(1)
            .socket_timeout(Some(Duration::from_secs(30)))
            .data_dir(&dir)
            .store_io(Arc::new(io.clone()))
            // One transient fault stalls a write in its handler for 300 ms.
            .store_retry(RetryPolicy {
                attempts: 1,
                backoff: Duration::from_millis(300),
            }),
        HiLogDb::new(parse_program("move(a, b).").unwrap()),
    )
    .expect("bind durable server");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    // Accepted first, says nothing: under a worker per connection this
    // socket is the only worker's, and nobody else is served while it is
    // open.
    let idle = std::net::TcpStream::connect(addr).unwrap();
    let mut connection = client::Connection::open(addr).unwrap();
    let response = connection.get("/stats").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(stat(&response, "connections_open"), 2, "{}", response.body);
    assert_eq!(stat(&response, "workers"), 1);

    // A write stalls in its handler — on the worker.  The injected-fault
    // count says when it is there; a read sent after that must wait for the
    // worker, so it runs after the write has published.
    io.fail_nth(io.ops());
    std::thread::scope(|scope| {
        let write = scope.spawn(|| client::post(addr, "/assert", r#"{"facts": ["move(b, c)"]}"#));
        wait_for("the write to stall", || io.injected() > 0);
        let response = connection
            .post("/query", &query_body("?- move(b, X)."))
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let json = response.json().unwrap();
        assert_eq!(
            json.get("epoch").and_then(|v| v.as_u64()),
            Some(1),
            "the read overtook a write that held the only worker"
        );
        assert_eq!(write.join().unwrap().unwrap().status, 200);
    });

    drop(idle);
    shutdown.shutdown();
    serving.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

/// `shutdown()` does not wait out idle connections: with one open and a
/// 30 s socket timeout, `serve` returns as soon as the request in flight at
/// that moment has been answered — with `Connection: close` — and the idle
/// socket reads a clean EOF.
#[test]
fn shutdown_wakes_idle_connections_and_answers_the_request_in_flight() {
    use std::io::Read;
    let dir = temp_dir("http-shutdown", 0);
    let io = FaultIo::over_real();
    let server = Server::bind(
        ServerConfig::ephemeral()
            .workers(2)
            .socket_timeout(Some(Duration::from_secs(30)))
            .data_dir(&dir)
            .store_io(Arc::new(io.clone()))
            .store_retry(RetryPolicy {
                attempts: 1,
                backoff: Duration::from_millis(300),
            }),
        HiLogDb::new(parse_program("move(a, b).").unwrap()),
    )
    .expect("bind durable server");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    // One connection that has been used and is now kept idle, one that
    // never said anything.
    let mut kept = client::Connection::open(addr).unwrap();
    assert_eq!(kept.get("/stats").unwrap().status, 200);
    let mut silent = std::net::TcpStream::connect(addr).unwrap();

    // A write stalled in its handler is in flight when shutdown is called.
    io.fail_nth(io.ops());
    let started = std::thread::scope(|scope| {
        let write = scope.spawn(|| client::post(addr, "/assert", r#"{"facts": ["move(b, c)"]}"#));
        wait_for("the write to stall", || io.injected() > 0);
        let started = std::time::Instant::now();
        shutdown.shutdown();
        let response = write
            .join()
            .unwrap()
            .expect("the request in flight is answered");
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(response.close, "and told the connection is closing");
        started
    });
    serving.join().expect("server exits");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown waited on an idle socket's 30 s timeout: {:?}",
        started.elapsed()
    );
    let mut stale = Vec::new();
    silent.read_to_end(&mut stale).expect("a clean close");
    assert!(stale.is_empty(), "{}", String::from_utf8_lossy(&stale));
    assert!(kept.get("/stats").is_err(), "nobody is listening any more");
    std::fs::remove_dir_all(&dir).ok();
}
