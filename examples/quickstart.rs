//! Quickstart: open a `HiLogDb` session over a HiLog program with negation,
//! ask queries through the explainable planner, check modular stratification,
//! and assert a new fact incrementally.
//!
//! Run with `cargo run --example quickstart`.

use hilog_engine::{HiLogDb, Semantics};
use hilog_syntax::{parse_program, parse_query, parse_term};

fn main() {
    // The parameterised game program of Example 6.3: one generic `winning`
    // rule shared by every game, with the move relation passed as a HiLog
    // predicate-name parameter.
    let program = parse_program(
        "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
         game(chess_endgame). game(nim).\n\
         chess_endgame(k1, k2). chess_endgame(k2, k3). chess_endgame(k3, k4).\n\
         nim(n3, n2). nim(n2, n1). nim(n1, n0).",
    )
    .expect("program parses");
    println!("== program ==\n{program}");

    // 1. One stateful session owns the program and all caches.
    let mut db = HiLogDb::builder().program(program.clone()).build();

    // 2. A bound query gets a magic-sets plan; ask who wins the nim endgame.
    let query = parse_query("?- winning(nim)(X).").unwrap();
    println!("== plan ==\n{}", db.explain(&query));
    let result = db.query(&query).expect("query evaluates");
    println!("== answers ==");
    for answer in &result.answers {
        println!("  {answer}");
    }
    // n0 has no moves (lost), so n1 wins, n2 loses, and n3 wins by moving to n2.
    assert_eq!(result.answers.len(), 2, "n1 and n3 win");

    // 3. Asking again reuses the session's subgoal tables: no rule is
    //    re-applied.
    let again = db.query(&query).expect("cached query evaluates");
    assert_eq!(again.stats.rule_applications, 0);
    assert!(again.stats.cached_subqueries > 0);
    println!(
        "== second run == {} cached subgoals, {} rule applications",
        again.stats.cached_subqueries, again.stats.rule_applications
    );

    // 4. Incremental facts: extend the nim chain and ask again; the session
    //    invalidates what the new fact can reach and re-answers.
    db.assert_fact(parse_term("nim(n4, n3)").unwrap())
        .expect("fact asserted");
    let shifted = db.query(&query).expect("query evaluates");
    println!("== after assert_fact(nim(n4, n3)) ==");
    for answer in &shifted.answers {
        println!("  {answer}");
    }

    // 5. Modular stratification for HiLog (Figure 1), through a session with
    //    the `ModularCheck` semantics: accepted, and its accumulated model
    //    agrees with the well-founded model computed by the default session.
    let mut figure1 = HiLogDb::builder()
        .program(program)
        .semantics(Semantics::ModularCheck)
        .build();
    let outcome = figure1.check_modular().expect("Figure 1 runs");
    println!(
        "== modularly stratified for HiLog: {} (settled in {} rounds) ==",
        outcome.modularly_stratified,
        outcome.rounds.len()
    );
    assert!(outcome.modularly_stratified);
    let figure1_model = figure1
        .model()
        .expect("accepted programs have a model")
        .clone();
    let mut wfs_db = HiLogDb::new(figure1.program().clone());
    let model = wfs_db.model().expect("WFS converges");
    for atom in model.base() {
        assert_eq!(figure1_model.truth(atom), model.truth(atom));
    }
    println!("Figure 1 model agrees with the well-founded model.");
}
