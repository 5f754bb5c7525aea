//! `EvalStats.live_symbols` against the symbol pool's census.
//!
//! A query reports the pool's entry count — O(1), dead names awaiting the
//! checkpoint-time GC included — while `GET /stats` and a checkpoint's
//! outcome keep the exact live / interned census.  Right after the GC the
//! two agree.  The global pool is shared by everything in a process, so this
//! is the only test in its binary: nothing else interns or collects a name
//! while it counts.

use hilog_repro::prelude::*;
use hilog_server::{client, Server, ServerConfig};
use std::net::SocketAddr;

fn field(json: &serde_json::Value, path: &[&str]) -> usize {
    let value = path.iter().try_fold(json, |v, key| v.get(key));
    value
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("{path:?}")) as usize
}

/// `live_symbols` of a warm `?- winning(X).`: a query that names nothing
/// new, so it interns nothing.  The stats come with `"analyze": true`.
fn query_live_symbols(addr: SocketAddr) -> usize {
    let body = r#"{"query": "?- winning(X).", "analyze": true}"#;
    let response = client::post(addr, "/query", body).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    field(
        &response.json().unwrap(),
        &["result", "stats", "live_symbols"],
    )
}

#[test]
fn a_query_reports_the_pool_size_and_the_census_stays_exact() {
    let dir = std::env::temp_dir().join(format!("hilog-symbol-census-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let program = parse_program(
        "winning(X) :- move(X, Y), not winning(Y).\n\
         move(a, b). move(b, c).",
    )
    .unwrap();
    let server = Server::bind(
        ServerConfig::ephemeral().workers(2).data_dir(&dir),
        HiLogDb::new(program),
    )
    .expect("bind durable server");
    let addr = server.local_addr();
    let shutdown = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    // Warm the table, then leave one name in the pool that nothing holds.
    query_live_symbols(addr);
    drop(Symbol::new("census_probe_dead_zq"));

    // A query reports the pool's entry count, the dead name included ...
    let reported = query_live_symbols(addr);
    assert_eq!(reported, hilog_core::symbol_pool_len());
    let census = hilog_core::symbol_pool_stats();
    assert_eq!(census.interned, reported);
    assert!(census.live < census.interned, "{census:?}");

    // ... while `GET /stats` still reports the exact census.
    let stats = client::get(addr, "/stats").unwrap().json().unwrap();
    assert_eq!(field(&stats, &["live_symbols"]), census.live);
    assert_eq!(field(&stats, &["interned_symbols"]), census.interned);

    // After a checkpoint's GC every entry is live: the two agree.
    let response = client::post(addr, "/checkpoint", "").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let checkpoint = response.json().unwrap();
    assert!(field(&checkpoint, &["symbols_dropped"]) >= 1);
    let live = field(&checkpoint, &["live_symbols"]);
    assert_eq!(query_live_symbols(addr), live);
    assert_eq!(hilog_core::symbol_pool_stats().live, live);

    shutdown.shutdown();
    serving.join().expect("server thread exits");
    std::fs::remove_dir_all(&dir).ok();
}
