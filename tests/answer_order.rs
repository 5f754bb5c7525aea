//! Answer order at the user boundary.
//!
//! A multi-answer query lists its answers in term order of the answer atoms,
//! whichever route answers it: the cold tabled evaluation, the warm fast path
//! over a complete table, a table the write pass maintained after
//! `assert_fact` / `retract_fact`, and `POST /query`, on both storage
//! backends.  Nothing in the evaluation orders atoms — a store is a set, and
//! term order is built by the first ordered read of an answer table — so
//! these tests pin the order where users see it.  The JSON bodies are pinned
//! byte for byte: the default one, the answer alone, and the one
//! `"analyze": true` asks for, which adds the stats and the plan.
//!
//! The programs are a win/move game on the chain `p0 -> .. -> p12` (`?-
//! winning(X).`) and the generic closure over `e1` on the same chain (`?-
//! tc(e1)(p0, X).`): node names such as `p10` sort between `p1` and `p2`, so
//! term order is neither the derivation order nor the numeric one.

use hilog_repro::prelude::*;
use hilog_server::{client, Server, ServerConfig};
use hilog_workloads::{chain, generic_closure_program, normal_game_program};

/// One multi-answer query, the writes that change its answers, and its
/// answers (the bindings of `X`) before and after them.
struct Case {
    program: Program,
    query: &'static str,
    assert: &'static str,
    retract: &'static str,
    before: &'static [&'static str],
    after: &'static [&'static str],
}

fn cases() -> [Case; 2] {
    [
        Case {
            program: normal_game_program(&chain(12)),
            query: "?- winning(X).",
            // One more move at the end flips every position; taking the
            // first one away leaves `p0` without a move.
            assert: "move(p12, p13)",
            retract: "move(p0, p1)",
            before: &["p1", "p11", "p3", "p5", "p7", "p9"],
            after: &["p10", "p12", "p2", "p4", "p6", "p8"],
        },
        Case {
            program: generic_closure_program(&[("e1", chain(12)), ("e2", chain(3))]),
            query: "?- tc(e1)(p0, X).",
            assert: "e1(p2, p20)",
            retract: "e1(p11, p12)",
            before: &[
                "p1", "p10", "p11", "p12", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9",
            ],
            after: &[
                "p1", "p10", "p11", "p2", "p20", "p3", "p4", "p5", "p6", "p7", "p8", "p9",
            ],
        },
    ]
}

fn backends() -> [StorageConfig; 2] {
    [
        StorageConfig::InMemory,
        // A resident budget far below the tables: answers page out and
        // fault back between the reads.
        StorageConfig::Spill {
            dir: None,
            resident_budget: 4,
        },
    ]
}

/// A session on `storage`, whatever `HILOG_STORAGE` says.
fn session(program: &Program, storage: &StorageConfig) -> HiLogDb {
    HiLogDb::builder()
        .program(program.clone())
        .storage(storage.clone())
        .build()
}

/// The bindings of `X`, in answer order.
fn xs(result: &QueryResult) -> Vec<String> {
    result
        .answers
        .iter()
        .map(|a| a.binding("X").expect("X is bound").to_string())
        .collect()
}

#[test]
fn multi_answer_queries_answer_in_term_order_on_every_route() {
    for storage in backends() {
        for case in cases() {
            let context = format!("`{}` on {storage:?}", case.query);
            let query = parse_query(case.query).unwrap();
            let mut db = session(&case.program, &storage);

            let cold = db.query(&query).unwrap();
            assert_eq!(cold.plan.strategy, PlanStrategy::MagicSets, "{context}");
            assert!(cold.fallback.is_none(), "{context}");
            assert!(cold.stats.rule_applications > 0, "{context}: not cold");
            assert_eq!(xs(&cold), case.before, "{context}: cold tabled route");

            let warm = db.query(&query).unwrap();
            assert_eq!(warm.stats.cached_subqueries, 1, "{context}: not warm");
            assert_eq!(warm.stats.rule_applications, 0, "{context}: not warm");
            assert_eq!(xs(&warm), case.before, "{context}: warm fast path");

            db.assert_fact(parse_term(case.assert).unwrap()).unwrap();
            assert!(db.retract_fact(&parse_term(case.retract).unwrap()));
            let maintained = db.query(&query).unwrap();
            assert_eq!(maintained.stats.tables_dropped, 0, "{context}");
            assert!(
                maintained.stats.tables_patched + maintained.stats.tables_refilled > 0,
                "{context}: the write pass maintained no table"
            );
            assert_eq!(
                xs(&maintained),
                case.after,
                "{context}: after the write pass"
            );
            let again = db.query(&query).unwrap();
            assert_eq!(again.stats.cached_subqueries, 1, "{context}: not warm");
            assert_eq!(xs(&again), case.after, "{context}: warm after the write");

            let fresh = session(db.program(), &storage).query(&query).unwrap();
            assert_eq!(xs(&fresh), case.after, "{context}: a fresh session");
        }
    }
}

/// `{"query": <text>}`, with `"analyze": true` when asked for.
fn query_body(query: &str, analyze: bool) -> String {
    if analyze {
        format!("{{\"query\": {query:?}, \"analyze\": true}}")
    } else {
        format!("{{\"query\": {query:?}}}")
    }
}

/// `{"facts": [<fact>]}`.
fn facts_body(fact: &str) -> String {
    format!("{{\"facts\": [{fact:?}]}}")
}

/// The bodies of `POST /query` for `case`: cold, warm, and after the
/// case's writes, on a server over a session on `storage`, with the
/// analysis when `analyze`.
fn served_bodies(case: &Case, storage: &StorageConfig, analyze: bool) -> Vec<String> {
    let server = Server::bind(
        ServerConfig::ephemeral().workers(1),
        session(&case.program, storage),
    )
    .expect("bind");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let mut connection = client::Connection::open(addr).expect("connect");
    let serving = std::thread::spawn(move || server.serve());
    let mut query = || {
        let response = connection
            .post("/query", &query_body(case.query, analyze))
            .expect("query");
        assert_eq!(response.status, 200, "{}", response.body);
        response.body
    };
    let mut bodies = vec![query(), query()];
    for (path, fact) in [("/assert", case.assert), ("/retract", case.retract)] {
        let response = client::post(addr, path, &facts_body(fact)).expect(path);
        assert_eq!(response.status, 200, "{path}: {}", response.body);
    }
    bodies.push(query());
    bodies.push(query());
    shutdown.shutdown();
    serving.join().expect("server exits");
    bodies.iter().map(|body| masked(body)).collect()
}

/// `body` with the value of `stats.live_symbols` replaced by `_`: it is the
/// length of the process-wide symbol pool, which the other tests of this
/// binary grow as they run.
fn masked(body: &str) -> String {
    let key = "\"live_symbols\":";
    let Some(at) = body.find(key) else {
        return body.to_string();
    };
    let start = at + key.len();
    let digits = body[start..]
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(body.len() - start);
    format!("{}_{}", &body[..start], &body[start + digits..])
}

#[test]
fn post_query_bodies_are_pinned_byte_for_byte() {
    let pins = PINNED_BODIES.iter().zip(ANALYZED_BODIES);
    for (case, (want, want_analyzed)) in cases().iter().zip(pins) {
        for (analyze, want) in [(false, want), (true, &want_analyzed)] {
            let bodies = served_bodies(case, &StorageConfig::InMemory, analyze);
            for (i, (body, want)) in bodies.iter().zip(want).enumerate() {
                assert_eq!(body, want, "`{}` body {i}, analyze {analyze}", case.query);
            }
            // The spill backend answers the same bytes but for its storage
            // counters.
            let spilled = served_bodies(case, &backends()[1], analyze);
            for (i, (body, want)) in spilled.iter().zip(want).enumerate() {
                let answers = |body: &str| {
                    let json: serde_json::Value =
                        serde_json::from_str(&body.replace(":_,", ":0,")).unwrap();
                    let result = json.get("result").expect("result member").clone();
                    (result.get("answers").cloned(), result.get("truth").cloned())
                };
                assert_eq!(
                    answers(body),
                    answers(want),
                    "`{}` spill body {i}, analyze {analyze}",
                    case.query
                );
            }
        }
    }
}

/// What `POST /query` answers for each case, in-memory: cold, warm, after
/// the writes, warm again.  The answer alone: what a client that does not
/// ask for the analysis reads.
const PINNED_BODIES: [[&str; 4]; 2] = [
    [
        r#"{"epoch":0,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","fallback":null}}"#,
        r#"{"epoch":0,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","fallback":null}}"#,
        r#"{"epoch":2,"result":{"answers":[{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p12"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"}],"truth":"true","fallback":null}}"#,
        r#"{"epoch":2,"result":{"answers":[{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p12"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"}],"truth":"true","fallback":null}}"#,
    ],
    [
        r#"{"epoch":0,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p12"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","fallback":null}}"#,
        r#"{"epoch":0,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p12"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","fallback":null}}"#,
        r#"{"epoch":2,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p20"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","fallback":null}}"#,
        r#"{"epoch":2,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p20"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","fallback":null}}"#,
    ],
];

/// The same four with `"analyze": true`: the answer, the stats and the plan
/// (`live_symbols` masked), byte for byte what every body carried before
/// the analysis became a request option.
const ANALYZED_BODIES: [[&str; 4]; 2] = [
    [
        r#"{"epoch":0,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","stats":{"subqueries":26,"answers":35,"rule_applications":48,"head_unifications":48,"cached_subqueries":11,"groundings":0,"model_source":"not-used","tables_patched":0,"tables_dropped":0,"tables_refilled":0,"instances_rederived":0,"tables_reused":0,"index_probes":34,"index_fallback_scans":3,"live_symbols":_,"parallel_waves":0,"parallel_partitioned_rounds":0,"parallel_tasks":0,"storage_residency_faults":0,"storage_spill_writes":0,"deadline_checks":25,"deadline_exceeded":0},"plan":{"strategy":"magic-sets","semantics":"well-founded","adornment":"f"},"fallback":null}}"#,
        r#"{"epoch":0,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","stats":{"subqueries":0,"answers":0,"rule_applications":0,"head_unifications":0,"cached_subqueries":1,"groundings":0,"model_source":"not-used","tables_patched":0,"tables_dropped":0,"tables_refilled":0,"instances_rederived":0,"tables_reused":26,"index_probes":0,"index_fallback_scans":0,"live_symbols":_,"parallel_waves":0,"parallel_partitioned_rounds":0,"parallel_tasks":0,"storage_residency_faults":0,"storage_spill_writes":0,"deadline_checks":0,"deadline_exceeded":0},"plan":{"strategy":"magic-sets","semantics":"well-founded","adornment":"f"},"fallback":null}}"#,
        r#"{"epoch":2,"result":{"answers":[{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p12"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"}],"truth":"true","stats":{"subqueries":0,"answers":0,"rule_applications":0,"head_unifications":0,"cached_subqueries":1,"groundings":0,"model_source":"not-used","tables_patched":0,"tables_dropped":0,"tables_refilled":0,"instances_rederived":0,"tables_reused":30,"index_probes":0,"index_fallback_scans":0,"live_symbols":_,"parallel_waves":0,"parallel_partitioned_rounds":0,"parallel_tasks":0,"storage_residency_faults":0,"storage_spill_writes":0,"deadline_checks":0,"deadline_exceeded":0},"plan":{"strategy":"magic-sets","semantics":"well-founded","adornment":"f"},"fallback":null}}"#,
        r#"{"epoch":2,"result":{"answers":[{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p12"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"}],"truth":"true","stats":{"subqueries":0,"answers":0,"rule_applications":0,"head_unifications":0,"cached_subqueries":1,"groundings":0,"model_source":"not-used","tables_patched":0,"tables_dropped":0,"tables_refilled":0,"instances_rederived":0,"tables_reused":30,"index_probes":0,"index_fallback_scans":0,"live_symbols":_,"parallel_waves":0,"parallel_partitioned_rounds":0,"parallel_tasks":0,"storage_residency_faults":0,"storage_spill_writes":0,"deadline_checks":0,"deadline_exceeded":0},"plan":{"strategy":"magic-sets","semantics":"well-founded","adornment":"f"},"fallback":null}}"#,
    ],
    [
        r#"{"epoch":0,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p12"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","stats":{"subqueries":27,"answers":91,"rule_applications":61,"head_unifications":61,"cached_subqueries":0,"groundings":0,"model_source":"not-used","tables_patched":0,"tables_dropped":0,"tables_refilled":0,"instances_rederived":0,"tables_reused":0,"index_probes":119,"index_fallback_scans":0,"live_symbols":_,"parallel_waves":0,"parallel_partitioned_rounds":0,"parallel_tasks":0,"storage_residency_faults":0,"storage_spill_writes":0,"deadline_checks":24,"deadline_exceeded":0},"plan":{"strategy":"magic-sets","semantics":"well-founded","adornment":"bf"},"fallback":null}}"#,
        r#"{"epoch":0,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p12"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","stats":{"subqueries":0,"answers":0,"rule_applications":0,"head_unifications":0,"cached_subqueries":1,"groundings":0,"model_source":"not-used","tables_patched":0,"tables_dropped":0,"tables_refilled":0,"instances_rederived":0,"tables_reused":27,"index_probes":0,"index_fallback_scans":0,"live_symbols":_,"parallel_waves":0,"parallel_partitioned_rounds":0,"parallel_tasks":0,"storage_residency_faults":0,"storage_spill_writes":0,"deadline_checks":0,"deadline_exceeded":0},"plan":{"strategy":"magic-sets","semantics":"well-founded","adornment":"bf"},"fallback":null}}"#,
        r#"{"epoch":2,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p20"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","stats":{"subqueries":0,"answers":0,"rule_applications":0,"head_unifications":0,"cached_subqueries":1,"groundings":0,"model_source":"not-used","tables_patched":0,"tables_dropped":0,"tables_refilled":0,"instances_rederived":0,"tables_reused":83,"index_probes":0,"index_fallback_scans":0,"live_symbols":_,"parallel_waves":0,"parallel_partitioned_rounds":0,"parallel_tasks":0,"storage_residency_faults":0,"storage_spill_writes":0,"deadline_checks":0,"deadline_exceeded":0},"plan":{"strategy":"magic-sets","semantics":"well-founded","adornment":"bf"},"fallback":null}}"#,
        r#"{"epoch":2,"result":{"answers":[{"bindings":{"X":"p1"},"truth":"true"},{"bindings":{"X":"p10"},"truth":"true"},{"bindings":{"X":"p11"},"truth":"true"},{"bindings":{"X":"p2"},"truth":"true"},{"bindings":{"X":"p20"},"truth":"true"},{"bindings":{"X":"p3"},"truth":"true"},{"bindings":{"X":"p4"},"truth":"true"},{"bindings":{"X":"p5"},"truth":"true"},{"bindings":{"X":"p6"},"truth":"true"},{"bindings":{"X":"p7"},"truth":"true"},{"bindings":{"X":"p8"},"truth":"true"},{"bindings":{"X":"p9"},"truth":"true"}],"truth":"true","stats":{"subqueries":0,"answers":0,"rule_applications":0,"head_unifications":0,"cached_subqueries":1,"groundings":0,"model_source":"not-used","tables_patched":0,"tables_dropped":0,"tables_refilled":0,"instances_rederived":0,"tables_reused":83,"index_probes":0,"index_fallback_scans":0,"live_symbols":_,"parallel_waves":0,"parallel_partitioned_rounds":0,"parallel_tasks":0,"storage_residency_faults":0,"storage_spill_writes":0,"deadline_checks":0,"deadline_exceeded":0},"plan":{"strategy":"magic-sets","semantics":"well-founded","adornment":"bf"},"fallback":null}}"#,
    ],
];
