//! Example 2.2: the generic `maplist` predicate, evaluated through a
//! `HiLogDb` session (whose planner picks the query-directed route — the
//! bottom-up instantiation is infinite, as the end of Section 6.1 warns for
//! programs with recursively applied function symbols).
//!
//! Run with `cargo run --example maplist`.

use hilog_engine::HiLogDb;
use hilog_syntax::{parse_program, parse_query};

fn main() {
    let program = parse_program(
        "% Example 2.2, with the base case guarded by a fun/1 relation.\n\
         maplist(F)([], []) :- fun(F).\n\
         maplist(F)([X | R], [Y | Z]) :- F(X, Y), maplist(F)(R, Z).\n\
         fun(successor). fun(colour_of).\n\
         successor(0, 1). successor(1, 2). successor(2, 3). successor(3, 4).\n\
         colour_of(apple, red). colour_of(pear, green). colour_of(plum, purple).",
    )
    .expect("program parses");

    let mut db = HiLogDb::new(program);

    // Forward: map successor over [1, 2, 3].
    let result = db
        .query(&parse_query("?- maplist(successor)([1, 2, 3], L).").unwrap())
        .expect("query evaluates");
    println!("maplist(successor)([1, 2, 3], L):");
    for a in &result.answers {
        println!("  L = {}", a.binding("L").unwrap());
    }
    assert_eq!(result.answers.len(), 1);
    assert_eq!(
        result.answers[0].binding("L").unwrap().to_string(),
        "[2, 3, 4]"
    );
    let stats = result.stats;

    // Backward: which fruit list has colours [red, purple]?
    let back = db
        .query(&parse_query("?- maplist(colour_of)(Fruit, [red, purple]).").unwrap())
        .expect("query evaluates");
    println!("maplist(colour_of)(Fruit, [red, purple]):");
    for a in &back.answers {
        println!("  Fruit = {}", a.binding("Fruit").unwrap());
    }
    assert_eq!(back.answers.len(), 1);
    assert_eq!(
        back.answers[0].binding("Fruit").unwrap().to_string(),
        "[apple, plum]"
    );

    println!(
        "({} tabled subgoals, {} rule applications)",
        stats.subqueries, stats.rule_applications
    );
}
