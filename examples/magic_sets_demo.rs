//! Section 6.1 / Example 6.6: print the magic-sets rewriting of the
//! (abbreviated) game program, then evaluate the query through a `HiLogDb`
//! session — whose planner picks exactly the magic-sets route for this bound
//! query — and cross-check against the full model.
//!
//! Run with `cargo run --example magic_sets_demo`.

use hilog_engine::{magic_transform, HiLogDb};
use hilog_syntax::{parse_program, parse_query};

fn main() {
    // The abbreviated game program of Example 6.6 (w/g/m for winning/game/move).
    let program = parse_program(
        "w(M)(X) :- g(M), M(X, Y), not w(M)(Y).\n\
         g(m).\n\
         m(a, b). m(b, c). m(c, d). m(d, e).\n\
         g(other). other(z1, z2). other(z2, z3).",
    )
    .expect("program parses");
    let query = parse_query("?- w(m)(a).").unwrap();

    // The rewriting: magic seed, supplementary chain, dp/dn bookkeeping.
    let magic = magic_transform(&program, &query).expect("strongly range restricted");
    println!("== magic-sets rewriting of {query} ==");
    println!("{magic}");

    // Query-directed evaluation (the rewriting's operational counterpart),
    // chosen by the session's planner because the query is bound.
    let mut db = HiLogDb::new(program);
    let plan = db.explain(&query);
    println!("== plan ==\n{plan}");
    assert!(plan.is_magic_sets());
    let result = db.query(&query).expect("query evaluates");
    let stats = result.stats;
    println!("== evaluation ==");
    println!("w(m)(a) = {}", result.truth);
    println!(
        "tabled {} subgoals / {} answers (the `other` game is never touched)",
        stats.subqueries, stats.answers
    );

    // Cross-check against the session's full bottom-up model.
    let model = db.model().expect("evaluates").clone();
    assert_eq!(
        result.is_true(),
        model.is_true(&hilog_syntax::parse_term("w(m)(a)").unwrap())
    );
    println!(
        "full well-founded model has {} atoms in its base",
        model.base().len()
    );
    assert!(stats.answers < model.base().len());
}
