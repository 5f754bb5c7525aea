//! Concurrency oracle for the serving layer, plus an HTTP round-trip check.
//!
//! The oracle's contract: a query answered through a pinned [`DbSnapshot`]
//! must be *exactly* the answer a fresh single-threaded [`HiLogDb`] session
//! gives for that snapshot's program — no matter how many reader threads
//! are querying concurrently or how fast the writer is publishing batches.
//! Readers therefore observe only whole published batches, at a single
//! well-defined epoch per query.
//!
//! Scaled up in CI via `HILOG_SERVING_READERS` (reader-thread count) and
//! `HILOG_SERVING_QUERIES` (queries per reader).

use hilog_repro::prelude::*;
use hilog_workloads::serving::{serving_workload, ServingWorkloadConfig};
use std::sync::atomic::{AtomicBool, Ordering};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A comparable key for a query's outcome: overall truth, the sorted answer
/// set, the route the plan chose and whether the magic route fell back to
/// the full model.  Stats and the rest of the plan are intentionally
/// excluded — caching and table reuse may differ between a warm snapshot
/// and a fresh session, but the answers and the verdict may not.
fn answer_key(result: &QueryResult) -> (String, Vec<String>, PlanStrategy, bool) {
    let mut answers: Vec<String> = result
        .answers
        .iter()
        .map(|a| format!("{:?} {:?}", a.bindings, a.truth))
        .collect();
    answers.sort();
    (
        format!("{:?}", result.truth),
        answers,
        result.plan.strategy,
        result.fallback.is_some(),
    )
}

/// One query of every shape the read surface routes differently, for the
/// writer-side leg of the epoch loop: a tabled pattern, a ground point
/// lookup, an unbound predicate name (full model) and a conjunction with
/// negation (the auxiliary-rule wrapper).
const SHAPES: [&str; 4] = [
    "?- winning(X).",
    "?- winning(p1).",
    "?- P(p0, X).",
    "?- move(X, Y), not winning(Y).",
];

/// N scoped reader threads query pinned snapshots while the writer streams
/// randomized batches; every response must exactly equal a fresh
/// single-threaded session at that snapshot's epoch.
#[test]
fn concurrent_readers_agree_with_fresh_sessions_at_every_epoch() {
    let readers = env_usize("HILOG_SERVING_READERS", 4);
    let queries_per_reader = env_usize("HILOG_SERVING_QUERIES", 60);
    let workload = serving_workload(
        &ServingWorkloadConfig {
            queries: queries_per_reader * readers,
            ..ServingWorkloadConfig::default()
        },
        0xC0FFEE,
    );

    let (mut writer, handle) = HiLogDb::new(workload.program.clone()).into_serving();
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for reader in 0..readers {
            let handle = handle.clone();
            let queries = &workload.queries;
            let writer_done = &writer_done;
            scope.spawn(move || {
                let mut checked = 0;
                let mut pass = 0;
                // Keep cycling until the writer finishes, so reads genuinely
                // overlap the publish stream even on slow machines.
                while checked < queries_per_reader || !writer_done.load(Ordering::SeqCst) {
                    let q = &queries[(reader * queries_per_reader + pass) % queries.len()];
                    pass += 1;
                    let query = parse_query(q).expect("workload query parses");
                    let snapshot = handle.current();
                    let served = snapshot.query(&query).expect("snapshot query succeeds");
                    // The oracle: a fresh, single-threaded session over this
                    // snapshot's exact program.
                    let mut oracle = HiLogDb::new(snapshot.program().clone());
                    let expected = oracle.query(&query).expect("oracle query succeeds");
                    assert_eq!(
                        answer_key(&served),
                        answer_key(&expected),
                        "reader {reader} diverged from the oracle at epoch {} on {q}",
                        snapshot.epoch(),
                    );
                    checked += 1;
                    if checked >= queries_per_reader * 4 {
                        break; // don't spin forever if the writer stalls
                    }
                }
                assert!(checked >= queries_per_reader);
            });
        }

        let mut last_epoch = handle.current().epoch();
        for batch in &workload.batches {
            for fact in &batch.facts {
                let term = parse_term(fact).expect("workload fact parses");
                if batch.assert {
                    writer.assert_fact(term).expect("workload facts are ground");
                } else {
                    assert!(writer.retract_fact(&term), "retract of live fact {fact}");
                }
            }
            // One read surface: what the writer's own session answers for
            // the batch it is about to publish, what the snapshot it then
            // publishes answers, and what a fresh session over that program
            // answers must all be the same.
            let query = parse_query(SHAPES[last_epoch as usize % SHAPES.len()]).unwrap();
            let own = writer.db().query(&query).expect("writer query succeeds");
            let snapshot = writer.publish();
            assert_eq!(snapshot.epoch(), last_epoch + 1, "epochs are monotone");
            last_epoch = snapshot.epoch();
            let served = snapshot.query(&query).expect("snapshot query succeeds");
            let expected = HiLogDb::new(snapshot.program().clone())
                .query(&query)
                .expect("oracle query succeeds");
            assert_eq!(
                answer_key(&own),
                answer_key(&served),
                "the writer and the snapshot it published diverge at epoch {last_epoch} on {query}"
            );
            assert_eq!(
                answer_key(&served),
                answer_key(&expected),
                "the published snapshot diverged from the oracle at epoch {last_epoch} on {query}"
            );
        }
        writer_done.store(true, Ordering::SeqCst);
    });
}

/// The same racing-readers contract with parallel evaluation enabled: the
/// writer session evaluates with four worker threads, so every *cold*
/// published snapshot warms its model through the SCC-wave fixpoint while
/// readers race the publish stream.  The oracle is deliberately a fresh
/// **single-threaded** session at the answering epoch — pinning the serving
/// layer and the parallel evaluator against the serial semantics at once.
#[test]
fn parallel_snapshots_agree_with_serial_sessions_under_racing_readers() {
    let readers = env_usize("HILOG_SERVING_READERS", 4);
    let queries_per_reader = env_usize("HILOG_SERVING_QUERIES", 40);
    let workload = serving_workload(
        &ServingWorkloadConfig {
            queries: queries_per_reader * readers,
            ..ServingWorkloadConfig::default()
        },
        0xBEEF,
    );

    let db = HiLogDb::builder()
        .program(workload.program.clone())
        .options(EvalOptions::with_eval_threads(4))
        .build();
    let (mut writer, handle) = db.into_serving();
    let writer_done = AtomicBool::new(false);
    let (_, _, tasks_before) = parallel_counters();

    std::thread::scope(|scope| {
        for reader in 0..readers {
            let handle = handle.clone();
            let queries = &workload.queries;
            let writer_done = &writer_done;
            scope.spawn(move || {
                let mut checked = 0;
                let mut pass = 0;
                while checked < queries_per_reader || !writer_done.load(Ordering::SeqCst) {
                    let q = &queries[(reader * queries_per_reader + pass) % queries.len()];
                    pass += 1;
                    let query = parse_query(q).expect("workload query parses");
                    let snapshot = handle.current();
                    let served = snapshot.query(&query).expect("snapshot query succeeds");
                    let mut oracle = HiLogDb::builder()
                        .program(snapshot.program().clone())
                        .options(EvalOptions::with_eval_threads(1))
                        .build();
                    let expected = oracle.query(&query).expect("oracle query succeeds");
                    assert_eq!(
                        answer_key(&served),
                        answer_key(&expected),
                        "reader {reader} diverged from the serial oracle at epoch {} on {q}",
                        snapshot.epoch(),
                    );
                    // Every few queries, warm the snapshot's full model —
                    // queries route through the tabled evaluator, so this is
                    // what actually drives the cold snapshot through the
                    // wave-parallel fixpoint — and hold it to the serial
                    // oracle's model.
                    if checked % 4 == 0 {
                        let served_model = snapshot.model().expect("snapshot model evaluates");
                        let expected_model = oracle.model().expect("oracle model evaluates");
                        assert_eq!(
                            &*served_model,
                            expected_model,
                            "reader {reader}: parallel-warmed model diverged at epoch {}",
                            snapshot.epoch(),
                        );
                    }
                    checked += 1;
                    if checked >= queries_per_reader * 4 {
                        break; // don't spin forever if the writer stalls
                    }
                }
                assert!(checked >= queries_per_reader);
            });
        }

        for batch in &workload.batches {
            for fact in &batch.facts {
                let term = parse_term(fact).expect("workload fact parses");
                if batch.assert {
                    writer.assert_fact(term).expect("workload facts are ground");
                } else {
                    assert!(writer.retract_fact(&term), "retract of live fact {fact}");
                }
            }
            writer.publish();
        }
        writer_done.store(true, Ordering::SeqCst);
    });

    let (_, _, tasks_after) = parallel_counters();
    assert!(
        tasks_after > tasks_before,
        "parallel serving never dispatched a pooled task"
    );
}

/// A reader that pinned a snapshot keeps answering at that epoch while the
/// writer publishes past it.
#[test]
fn pinned_snapshot_is_immune_to_later_publishes() {
    let workload = serving_workload(&ServingWorkloadConfig::default(), 42);
    let (mut writer, handle) = HiLogDb::new(workload.program.clone()).into_serving();

    let pinned = handle.current();
    let pinned_program = pinned.program().clone();
    let query = parse_query("?- winning(X).").unwrap();
    let before = pinned.query(&query).unwrap();

    for batch in workload.batches.iter().take(6) {
        for fact in &batch.facts {
            let term = parse_term(fact).unwrap();
            if batch.assert {
                writer.assert_fact(term).unwrap();
            } else {
                writer.retract_fact(&term);
            }
        }
        writer.publish();
    }

    assert_eq!(pinned.epoch(), 0, "the pinned snapshot does not move");
    assert!(handle.current().epoch() > 0, "the handle sees new epochs");
    let after = pinned.query(&query).unwrap();
    assert_eq!(answer_key(&before), answer_key(&after));
    let mut oracle = HiLogDb::new(pinned_program);
    let expected = oracle.query(&query).unwrap();
    assert_eq!(answer_key(&after), answer_key(&expected));
}

/// HTTP round-trip: the server's `/query` answers must match the in-process
/// snapshot answers, and `/assert`/`/retract`/`/stats` must behave.
#[test]
fn http_round_trip_matches_in_process_answers() {
    use hilog_server::{client, Server, ServerConfig};

    let workload = serving_workload(
        &ServingWorkloadConfig {
            nodes: 30,
            queries: 12,
            ..ServingWorkloadConfig::default()
        },
        7,
    );
    let db = HiLogDb::new(workload.program.clone());
    let server = Server::bind(ServerConfig::ephemeral().workers(3), db).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let snapshots = server.snapshots();
    let serving = std::thread::spawn(move || server.serve());

    // Queries on the quiescent server must match the in-process snapshot.
    for q in &workload.queries {
        let body = serde_json::to_string(&QueryBody { query: q }).unwrap();
        let response = client::post(addr, "/query", &body).expect("query round-trip");
        assert_eq!(response.status, 200, "{q}: {}", response.body);
        let json = response.json().expect("response parses");
        let served = json.get("result").expect("result member");
        let snapshot = snapshots.current();
        let expected = snapshot.query(&parse_query(q).unwrap()).unwrap();
        let expected_json: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&expected).unwrap()).unwrap();
        // Stats and plans legitimately differ between the two runs (table
        // caching on the shared snapshot); answers and truth may not.
        for member in ["answers", "truth"] {
            assert_eq!(
                served.get(member),
                expected_json.get(member),
                "HTTP and in-process `{member}` diverge on {q}"
            );
        }
    }

    // Mutations publish new epochs and report missing retractions.
    let response = client::post(addr, "/assert", r#"{"facts": ["move(p0, p29)"]}"#).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let json = response.json().unwrap();
    assert_eq!(json.get("epoch").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(json.get("applied").and_then(|v| v.as_u64()), Some(1));

    let response = client::post(
        addr,
        "/retract",
        r#"{"facts": ["move(p0, p29)", "move(p0, p0)"]}"#,
    )
    .unwrap();
    let json = response.json().unwrap();
    assert_eq!(json.get("epoch").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(json.get("applied").and_then(|v| v.as_u64()), Some(1));
    let missing = json.get("missing").and_then(|v| v.as_array()).unwrap();
    assert_eq!(missing.len(), 1);

    let response = client::get(addr, "/stats").unwrap();
    assert_eq!(response.status, 200);
    let json = response.json().unwrap();
    assert_eq!(json.get("epoch").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        json.get("semantics").and_then(|v| v.as_str()),
        Some("well-founded")
    );
    // The evaluator's counters: the cold queries above attempted head
    // unifications, and the program index they built on the epoch-0
    // snapshot was adopted by the writer and maintained through both
    // mutation epochs — it is exactly the published program's fact set.
    assert!(json.get("head_unifications").and_then(|v| v.as_u64()) > Some(0));
    let published = snapshots.current();
    let facts: std::collections::BTreeSet<&Term> = published
        .program()
        .facts()
        .filter(|r| r.head.is_ground())
        .map(|r| &r.head)
        .collect();
    assert_eq!(
        json.get("indexed_facts").and_then(|v| v.as_u64()),
        Some(facts.len() as u64)
    );

    // Bad requests are rejected with client errors, not hangs or panics.
    let response = client::post(addr, "/query", "not json").unwrap();
    assert_eq!(response.status, 400);
    let response = client::post(addr, "/query", r#"{"query": "winning(X"}"#).unwrap();
    assert_eq!(response.status, 422);
    let response = client::post(addr, "/assert", r#"{"facts": ["move(X, p1)"]}"#).unwrap();
    assert_eq!(response.status, 422, "non-ground fact is rejected");
    let response = client::get(addr, "/missing").unwrap();
    assert_eq!(response.status, 404);

    shutdown.shutdown();
    serving.join().expect("server thread exits cleanly");
}

/// Serialisation helper for the round-trip test's query bodies.
struct QueryBody<'a> {
    query: &'a str,
}

impl serde::Serialize for QueryBody<'_> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        serde::write_field(out, "query", &self.query, true);
        out.push('}');
    }
}
