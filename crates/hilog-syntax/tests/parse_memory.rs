//! The memory a parse needs beyond its result does not grow with the input:
//! the parser holds one token at a time, over the caller's text.
//!
//! Measured as the growth of the process's peak resident set (`VmHWM` in
//! `/proc/self/status`) across each parse, so this file holds one test and
//! builds both inputs before the first measurement.  The bounds sit between
//! a parser that materialises the input as characters and then as a token
//! list (which needed between two and three times as much) and this one.

#![cfg(target_os = "linux")]

use hilog_core::Literal;
use hilog_syntax::{parse_program, parse_query};

/// Peak resident set size of this process, in KiB.
fn peak_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// How far the peak resident set rises while `f` runs, in MiB, and what `f`
/// returned (dropped after the measurement).
fn peak_growth_mib<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let before = peak_rss_kib();
    let out = f();
    ((peak_rss_kib() - before) as f64 / 1024.0, out)
}

/// `facts` facts `edge(pA, pB).` over `facts / 5` nodes, as the durability
/// workload writes them: about 575 KB at 30,000 facts.
fn edge_facts(facts: usize) -> String {
    let nodes = (facts / 5) as u64;
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % nodes
    };
    (0..facts)
        .map(|_| format!("edge(p{}, p{}).\n", next(), next()))
        .collect()
}

#[test]
fn a_parse_holds_its_result_and_little_more() {
    // 30,000 facts.  Parsed from a character vector and a token list, the
    // peak rose by about 19.4 MiB; now by about 5.7 MiB, the program itself.
    const PROGRAM_BOUND_MIB: f64 = 12.0;
    // A 1 MiB query (the server's default body limit) of 349,522
    // arguments.  Parsed from a character vector and a token list, the peak
    // rose by about 49 MiB; now by about 21 MiB, most of it the argument
    // vector growing.
    const QUERY_BOUND_MIB: f64 = 35.0;

    let program_text = edge_facts(30_000);
    let arguments = ((1 << 20) - 8) / 3;
    let query_text = format!("?- p({}a).", "a, ".repeat(arguments - 1));
    assert!(query_text.len() <= 1 << 20);

    let (program_growth, program) = peak_growth_mib(|| parse_program(&program_text).unwrap());
    assert_eq!(program.len(), 30_000);
    drop(program);
    let (query_growth, query) = peak_growth_mib(|| parse_query(&query_text).unwrap());
    match &query.literals[..] {
        [Literal::Pos(atom)] => assert_eq!(atom.args().len(), arguments),
        other => panic!("one atom expected, got {} literals", other.len()),
    }
    drop(query);

    eprintln!(
        "peak growth: {:.1} MiB for a {} KB program, {:.1} MiB for a {} KB query",
        program_growth,
        program_text.len() / 1000,
        query_growth,
        query_text.len() / 1000
    );
    assert!(
        program_growth <= PROGRAM_BOUND_MIB,
        "parsing 30,000 facts raised the peak by {program_growth:.1} MiB (bound {PROGRAM_BOUND_MIB})"
    );
    assert!(
        query_growth <= QUERY_BOUND_MIB,
        "parsing a 1 MiB query raised the peak by {query_growth:.1} MiB (bound {QUERY_BOUND_MIB})"
    );
}
