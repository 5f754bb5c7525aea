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
use hilog_workloads::{serving_workload, ServingWorkloadConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// The same racing-readers contract on the full-model route: readers that
/// share a *cold* published snapshot race to warm its model behind the
/// snapshot's lock while the writer keeps publishing.  The oracle is a fresh
/// session at the answering epoch, for the answers and the model alike.
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
                while checked < queries_per_reader || !writer_done.load(Ordering::SeqCst) {
                    let q = &queries[(reader * queries_per_reader + pass) % queries.len()];
                    pass += 1;
                    let query = parse_query(q).expect("workload query parses");
                    let snapshot = handle.current();
                    let served = snapshot.query(&query).expect("snapshot query succeeds");
                    let mut oracle = HiLogDb::new(snapshot.program().clone());
                    let expected = oracle.query(&query).expect("oracle query succeeds");
                    assert_eq!(
                        answer_key(&served),
                        answer_key(&expected),
                        "reader {reader} diverged from the oracle at epoch {} on {q}",
                        snapshot.epoch(),
                    );
                    // Every few queries, warm the snapshot's full model —
                    // queries route through the tabled evaluator, so this is
                    // what actually drives the cold snapshot through the
                    // well-founded evaluation — and hold it to the oracle's
                    // model.
                    if checked % 4 == 0 {
                        let served_model = snapshot.model().expect("snapshot model evaluates");
                        let expected_model = oracle.model().expect("oracle model evaluates");
                        assert_eq!(
                            &*served_model,
                            expected_model,
                            "reader {reader}: the warmed model diverged at epoch {}",
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

/// The writer's program index and table arena are twinned: its first edit
/// after a publish takes back the version the snapshot before last held,
/// brought up to date from the last batch, and copies whole only while a
/// reader pins that version.  One writer streams batches.  Readers build
/// the index and the tables on the first snapshot, and the writer adopts
/// both.  Between batches the stream pins snapshots for one to three epochs
/// and lets them go, and asserts and retracts a rule, which drops the
/// tables of its head.  Every published epoch, and every pinned one on its
/// release, answers as a fresh session over its own program does.
#[test]
fn twinned_caches_agree_with_fresh_sessions_at_every_epoch() {
    let workload = serving_workload(
        &ServingWorkloadConfig {
            write_batches: 48,
            queries: 48,
            ..ServingWorkloadConfig::default()
        },
        0x7A1E,
    );
    let mut queries: Vec<Query> = (workload.queries.iter())
        .map(|q| parse_query(q).expect("workload query parses"))
        .collect();
    queries.push(parse_query("?- winning(X).").unwrap());
    let answers_of = |snapshot: &DbSnapshot| -> Vec<_> {
        (queries.iter())
            .map(|query| answer_key(&snapshot.query(query).expect("snapshot answers")))
            .collect()
    };
    let fresh_answers = |snapshot: &DbSnapshot| -> Vec<_> {
        let mut fresh = HiLogDb::new(snapshot.program().clone());
        (queries.iter())
            .map(|query| answer_key(&fresh.query(query).expect("fresh session answers")))
            .collect()
    };
    let (mut writer, handle) = HiLogDb::new(workload.program.clone()).into_serving();
    answers_of(&handle.current());
    let bonus_rule = parse_program("winning(X) :- bonus(X).").unwrap().rules[0].clone();
    let mut pinned: Vec<(std::sync::Arc<DbSnapshot>, u64)> = Vec::new();
    let mut state = 0x7A1E_u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    for (round, batch) in workload.batches.iter().enumerate() {
        for fact in &batch.facts {
            let term = parse_term(fact).expect("workload fact parses");
            if batch.assert {
                writer.assert_fact(term).expect("workload facts are ground");
            } else {
                assert!(writer.retract_fact(&term), "retract of live fact {fact}");
            }
        }
        match round % 8 {
            3 => {
                let node = format!("bonus(p{})", next(60));
                writer.assert_fact(parse_term(&node).unwrap()).unwrap();
                writer.assert_rule(bonus_rule.clone());
            }
            6 => assert!(writer.retract_rule(&bonus_rule)),
            _ => {}
        }
        let snapshot = writer.publish();
        let epoch = snapshot.epoch();
        let served = answers_of(&snapshot);
        assert_eq!(served, fresh_answers(&snapshot), "epoch {epoch}");
        // Pins end on their release epoch, answering their own.
        pinned.retain(|(old, release)| {
            if *release > epoch {
                return true;
            }
            assert_eq!(
                answers_of(old),
                fresh_answers(old),
                "pinned epoch {} at {epoch}",
                old.epoch()
            );
            false
        });
        if next(3) == 0 {
            pinned.push((snapshot, epoch + 1 + next(3)));
        }
    }
}

/// A session over `program` on the spill backend with one resident row:
/// every probe pages its rows in and the rest out again.
fn faulting_db(program: &Program) -> HiLogDb {
    HiLogDb::builder()
        .program(program.clone())
        .storage(StorageConfig::Spill {
            dir: None,
            resident_budget: 1,
        })
        .build()
}

/// The same program with every row resident, whatever `HILOG_STORAGE` says.
fn resident_db(program: &Program) -> HiLogDb {
    HiLogDb::builder()
        .program(program.clone())
        .storage(StorageConfig::InMemory)
        .build()
}

/// Spill traffic is counted on the thread it happens on and in the store it
/// happens to: a reader faulting rows in and out as fast as it can moves no
/// other session's per-query storage counts.  (They were deltas of
/// process-wide totals once, and 2–4 of 20,000 in-memory queries reported a
/// neighbour's faults.)
#[test]
fn a_faulting_spill_reader_leaks_no_storage_counts_into_in_memory_queries() {
    let program = serving_workload(&ServingWorkloadConfig::default(), 42).program;
    let (_spill_writer, spill) = faulting_db(&program).into_serving();
    let (_resident_writer, resident) = resident_db(&program).into_serving();
    let query = parse_query("?- move(X, Y).").unwrap();
    let faults = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    // Whatever happens in the scope, the neighbour is told to stop: a panic
    // in here would otherwise wait for a thread nobody stops.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let (leaks, faults_meanwhile) = std::thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        scope.spawn(|| {
            let snapshot = spill.current();
            while !stop.load(Ordering::SeqCst) {
                let stats = snapshot.query(&query).expect("spill query").stats;
                faults.fetch_add(stats.storage_residency_faults, Ordering::SeqCst);
            }
        });
        // Wait for the neighbour to be faulting, not for a while.
        while faults.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let faults_before = faults.load(Ordering::SeqCst);
        let snapshot = resident.current();
        let leaks: Vec<_> = (0..20_000)
            .filter_map(|i| {
                let stats = snapshot.query(&query).expect("in-memory query").stats;
                let traffic = (stats.storage_residency_faults, stats.storage_spill_writes);
                (traffic != (0, 0)).then_some((i, traffic))
            })
            .collect();
        (leaks, faults.load(Ordering::SeqCst) - faults_before)
    });
    assert!(
        leaks.is_empty(),
        "in-memory queries reported another session's (faults, page-outs): {leaks:?}"
    );
    assert!(
        faults_meanwhile > 0,
        "the spill reader was not faulting while the in-memory queries ran"
    );
}

/// The same over HTTP: two servers in one process, one of them paging, and
/// each `GET /stats` reports the stores its own snapshot holds.
#[test]
fn two_servers_in_one_process_report_their_own_spill_stats() {
    use hilog_server::{client, Server, ServerConfig};

    let program = serving_workload(&ServingWorkloadConfig::default(), 42).program;
    let serve = |db: HiLogDb| {
        let server = Server::bind(ServerConfig::ephemeral().workers(2), db).expect("bind");
        let connection = client::Connection::open(server.local_addr()).expect("connect");
        let shutdown = server.handle();
        (
            connection,
            shutdown,
            std::thread::spawn(move || server.serve()),
        )
    };
    let (mut paging, paging_shutdown, paging_thread) = serve(faulting_db(&program));
    let (mut quiet, quiet_shutdown, quiet_thread) = serve(resident_db(&program));
    let body = serde_json::to_string(&QueryBody {
        query: "?- move(X, Y).",
    })
    .unwrap();
    for _ in 0..3 {
        for connection in [&mut paging, &mut quiet] {
            let response = connection.post("/query", &body).expect("query");
            assert_eq!(response.status, 200, "{}", response.body);
        }
    }
    let stats = paging.get("/stats").expect("stats");
    assert!(stat(&stats, "spill_residency_faults") > 0, "{}", stats.body);
    assert!(stat(&stats, "spill_writes") > 0, "{}", stats.body);
    assert_eq!(stat(&stats, "spill_io_errors"), 0, "{}", stats.body);
    let stats = quiet.get("/stats").expect("stats");
    for name in ["spill_residency_faults", "spill_writes", "spill_io_errors"] {
        assert_eq!(stat(&stats, name), 0, "`{name}` in {}", stats.body);
    }
    paging_shutdown.shutdown();
    quiet_shutdown.shutdown();
    paging_thread.join().expect("paging server exits");
    quiet_thread.join().expect("quiet server exits");
}

/// HTTP round-trip, all of it on **one** kept connection: the server's
/// `/query` answers must match the in-process snapshot answers,
/// `/assert`/`/retract`/`/stats` must behave, a write is visible to the next
/// read on the same socket, and handler errors answer without closing — by
/// the server's own counts, 60-odd requests were one connection.
#[test]
fn http_round_trip_matches_in_process_answers() {
    use hilog_server::{client, Server, ServerConfig};

    let workload = serving_workload(
        &ServingWorkloadConfig {
            nodes: 30,
            queries: 50,
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
    let mut connection = client::Connection::open(addr).expect("connect");
    let mut sent = 0u64;

    // Queries on the quiescent server must match the in-process snapshot.
    for q in &workload.queries {
        let body = serde_json::to_string(&QueryBody { query: q }).unwrap();
        let response = connection.post("/query", &body).expect("query round-trip");
        sent += 1;
        assert_eq!(response.status, 200, "{q}: {}", response.body);
        assert!(!response.close, "{q}: the connection is kept");
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

    // Mutations publish new epochs and report missing retractions; the next
    // request on the socket reads the write, at its epoch.
    let moved = serde_json::to_string(&QueryBody {
        query: "?- move(p0, p29).",
    })
    .unwrap();
    let truth_at = |response: &client::ClientResponse| {
        let json = response.json().unwrap();
        (
            json.get("epoch").and_then(|v| v.as_u64()),
            json.get("result")
                .and_then(|r| r.get("truth"))
                .and_then(|v| v.as_str())
                .map(str::to_string),
        )
    };
    let response = connection.post("/query", &moved).unwrap();
    assert_eq!(truth_at(&response), (Some(0), Some("false".into())));
    let response = connection
        .post("/assert", r#"{"facts": ["move(p0, p29)"]}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let json = response.json().unwrap();
    assert_eq!(json.get("epoch").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(json.get("applied").and_then(|v| v.as_u64()), Some(1));
    let response = connection.post("/query", &moved).unwrap();
    assert_eq!(truth_at(&response), (Some(1), Some("true".into())));

    let response = connection
        .post(
            "/retract",
            r#"{"facts": ["move(p0, p29)", "move(p0, p0)"]}"#,
        )
        .unwrap();
    let json = response.json().unwrap();
    assert_eq!(json.get("epoch").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(json.get("applied").and_then(|v| v.as_u64()), Some(1));
    let missing = json.get("missing").and_then(|v| v.as_array()).unwrap();
    assert_eq!(missing.len(), 1);
    sent += 4;

    // Bad requests are rejected with client errors, not hangs or panics —
    // and, being fully read, without giving up the connection.
    let response = connection.post("/query", "not json").unwrap();
    assert_eq!((response.status, response.close), (400, false));
    // A parse error names a position in the text the client sent.
    let response = connection
        .post("/query", r#"{"query": "winning(X"}"#)
        .unwrap();
    assert_eq!((response.status, response.close), (422, false));
    assert!(
        response
            .body
            .contains("parse error at 1:9: expected `)`, found end of input"),
        "{}",
        response.body
    );
    let response = connection
        .post("/assert", r#"{"rules": ["winning(X) :- move(X, $)"]}"#)
        .unwrap();
    assert_eq!(response.status, 422);
    assert!(
        response
            .body
            .contains("parse error at 1:23: unexpected character `$`"),
        "{}",
        response.body
    );
    let response = connection
        .post("/assert", r#"{"facts": ["move(X, p1)"]}"#)
        .unwrap();
    assert_eq!(response.status, 422, "non-ground fact is rejected");
    let response = connection.get("/missing").unwrap();
    assert_eq!((response.status, response.close), (404, false));
    sent += 5;

    let response = connection.get("/stats").unwrap();
    sent += 1;
    assert_eq!(response.status, 200);
    let json = response.json().unwrap();
    let count = |name: &str| json.get(name).and_then(|v| v.as_u64());
    assert_eq!(count("epoch"), Some(2));
    assert_eq!(
        json.get("semantics").and_then(|v| v.as_str()),
        Some("well-founded")
    );
    // Every request above, this one included, came in on one connection.
    assert_eq!(count("connections_accepted"), Some(1), "{}", response.body);
    assert_eq!(count("connections_open"), Some(1), "{}", response.body);
    assert_eq!(count("requests_served"), Some(sent), "{}", response.body);
    // The evaluator's counters: the cold queries above attempted head
    // unifications, and the program index they built on the epoch-0
    // snapshot was adopted by the writer and maintained through both
    // mutation epochs — it is exactly the published program's fact set.
    assert!(count("head_unifications") > Some(0));
    let published = snapshots.current();
    let facts: std::collections::BTreeSet<&Term> = published
        .program()
        .facts()
        .filter(|r| r.head.is_ground())
        .map(|r| &r.head)
        .collect();
    assert_eq!(count("indexed_facts"), Some(facts.len() as u64));

    // A rule's final `.` is optional: the server parses the text as sent.
    for (path, rule) in [
        ("/assert", "reach(X) :- move(p0, X)"),
        ("/retract", "reach(X) :- move(p0, X)."),
    ] {
        let response = connection
            .post(path, &format!(r#"{{"rules": ["{rule}"]}}"#))
            .unwrap();
        assert_eq!(response.status, 200, "{path}: {}", response.body);
        let json = response.json().unwrap();
        assert_eq!(json.get("applied").and_then(|v| v.as_u64()), Some(1));
    }

    shutdown.shutdown();
    serving.join().expect("server thread exits cleanly");
}

/// Reads `name` off a `/stats` response.
fn stat(stats: &hilog_server::client::ClientResponse, name: &str) -> u64 {
    stats
        .json()
        .ok()
        .and_then(|json| json.get(name).and_then(|v| v.as_u64()))
        .unwrap_or_else(|| panic!("no `{name}` in {}", stats.body))
}

/// How a connection ends, on raw sockets: `Connection: close` and an
/// `HTTP/1.0` request line are each answered with `Connection: close` and
/// EOF; requests written back to back are answered in order; a handler's
/// `400` keeps the socket while an unread body's `413` closes it; and a
/// connect-and-close probe is not a request.
#[test]
fn connections_end_when_the_client_says_so_or_framing_is_lost() {
    use hilog_server::{client, Server, ServerConfig};
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    let mut config = ServerConfig::ephemeral().workers(2);
    config.max_body_bytes = 256;
    let db = HiLogDb::new(parse_program("move(a, b). move(b, c).").unwrap());
    let server = Server::bind(config, db).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    let post = |body: &str, extra: &str| {
        format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n{extra}\r\n{body}",
            body.len()
        )
    };
    let moves_from = |node: &str| format!(r#"{{"query": "?- move({node}, X)."}}"#);
    // Writes `bytes`, reads `responses` responses, and reports whether the
    // server then closed the socket (EOF) or kept it (a further request is
    // answered).
    let exchange = |bytes: &str, responses: usize| {
        let mut reader = BufReader::new(TcpStream::connect(addr).unwrap());
        reader.get_mut().write_all(bytes.as_bytes()).unwrap();
        let answers: Vec<client::ClientResponse> = (0..responses)
            .map(|_| client::read_response(&mut reader).expect("a framed response"))
            .collect();
        let closing = answers.last().is_some_and(|last| last.close);
        if closing {
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).expect("EOF, not a reset");
            assert!(rest.is_empty(), "bytes after the closing response");
        } else {
            reader
                .get_mut()
                .write_all(b"GET /stats HTTP/1.1\r\n\r\n")
                .unwrap();
            let kept = client::read_response(&mut reader).expect("the socket is kept");
            assert_eq!(kept.status, 200);
        }
        (answers, closing)
    };

    let (answers, closed) = exchange(&post(&moves_from("a"), "Connection: close\r\n"), 1);
    assert_eq!((answers[0].status, closed), (200, true));
    let old = "GET /stats HTTP/1.0\r\n\r\n";
    let (answers, closed) = exchange(old, 1);
    assert_eq!((answers[0].status, closed), (200, true));

    // Pipelined: two requests in one write, two answers in request order.
    let pipelined = post(&moves_from("a"), "") + &post(&moves_from("b"), "");
    let (answers, closed) = exchange(&pipelined, 2);
    assert!(!closed);
    for (answer, to) in answers.iter().zip(["b", "c"]) {
        assert_eq!(answer.status, 200, "{}", answer.body);
        assert!(
            answer.body.contains(&format!("\"X\":\"{to}\"")),
            "{}",
            answer.body
        );
    }

    let (answers, closed) = exchange(&post("not json", ""), 1);
    assert_eq!((answers[0].status, closed), (400, false));
    let huge = format!(r#"{{"query": "?- move(a, {}). "}}"#, "b".repeat(512));
    let (answers, closed) = exchange(&post(&huge, ""), 1);
    assert_eq!((answers[0].status, closed), (413, true));

    // A bare connect + close (a TCP health check) is nobody's request.
    let mut connection = client::Connection::open(addr).unwrap();
    let before = connection.get("/stats").unwrap();
    drop(TcpStream::connect(addr).unwrap());
    let mut polls = 0;
    let after = loop {
        // Wait, on counts, until the probe has come and gone.
        let stats = connection.get("/stats").unwrap();
        polls += 1;
        assert!(polls < 100_000, "the probe never left: {}", stats.body);
        if stat(&stats, "connections_accepted") == stat(&before, "connections_accepted") + 1
            && stat(&stats, "connections_open") == 1
        {
            break stats;
        }
        std::thread::yield_now();
    };
    assert_eq!(
        stat(&after, "requests_served"),
        stat(&before, "requests_served") + polls,
        "only this connection's polls were served: the probe was answered nothing"
    );

    shutdown.shutdown();
    serving.join().expect("server thread exits cleanly");
}

/// Request bodies that nest without end are client errors, not a stack
/// overflow on the connection thread: JSON past 128 levels is `400`, a query
/// term past `MAX_TERM_DEPTH` does not parse (`422`), and a query at the
/// bound is answered there, after which the connection serves on.
#[test]
fn deeply_nested_bodies_are_refused_and_the_server_serves_on() {
    use hilog_server::{client, Server, ServerConfig};
    use hilog_syntax::MAX_TERM_DEPTH;

    let nested = |levels: usize| format!("{}a{}", "f(".repeat(levels), ")".repeat(levels));
    // `deep(...)` is the level above the bound's.
    let deepest = nested(MAX_TERM_DEPTH - 1);
    let program = format!("move(a, b). move(b, c). deep({deepest}).");
    let db = HiLogDb::new(parse_program(&program).unwrap());
    let server = Server::bind(ServerConfig::ephemeral().workers(2), db).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    let query = |text: &str| serde_json::to_string(&QueryBody { query: text }).unwrap();

    let refused = [
        (format!(r#"{{"query": {}"#, "[".repeat(5_000)), 400),
        (query(&format!("?- move({}, X).", nested(5_000))), 422),
        (
            query(&format!("?- move([{}], X).", vec!["a"; 100_000].join(","))),
            422,
        ),
    ];
    let mut connection = client::Connection::open(addr).expect("connect");
    for (body, status) in &refused {
        let response = connection
            .post("/query", body)
            .expect("an answer, not an abort");
        assert_eq!(response.status, *status, "{}", response.body);
    }
    // At the bound, on the connection thread: the term is read, matched,
    // printed into the answer and dropped.
    let response = connection.post("/query", &query("?- deep(X).")).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains(&deepest), "{}", response.body);
    let at_bound = query(&format!("?- deep({deepest})."));
    let response = connection.post("/query", &at_bound).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(
        response.body.contains(r#""truth":"true""#),
        "{}",
        response.body
    );
    let response = connection.post("/query", &query("?- move(a, X).")).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains(r#""X":"b""#), "{}", response.body);

    shutdown.shutdown();
    serving.join().expect("server thread exits cleanly");
}

#[test]
fn a_long_negation_chain_is_answered_and_the_server_serves_on() {
    use hilog_server::{client, Server, ServerConfig};
    use hilog_workloads::{chain, normal_game_program};

    // Each position of the chain reads the next one's table negatively.
    // When a selection settled its negative subgoal by a nested call, a
    // connection thread's 2 MiB stack overflowed on this query and the
    // process aborted; the settle loop holds the chain in tables.
    let db = HiLogDb::new(normal_game_program(&chain(2000)));
    let server = Server::bind(ServerConfig::ephemeral().workers(1), db).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    let mut connection = client::Connection::open(addr).expect("connect");
    let body = serde_json::to_string(&QueryBody {
        query: "?- winning(p0).",
    })
    .unwrap();
    let response = connection.post("/query", &body).expect("an answer");
    assert_eq!(response.status, 200, "{}", response.body);
    // p1999 moves to the dead end p2000, so the odd positions win.
    assert!(
        response.body.contains(r#""truth":"false""#),
        "{}",
        response.body
    );
    assert!(
        response.body.contains(r#""fallback":null"#),
        "{}",
        response.body
    );
    let stats = client::get(addr, "/stats").expect("the server is up");
    assert_eq!(stats.status, 200, "{}", stats.body);
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
