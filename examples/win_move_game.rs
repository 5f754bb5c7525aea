//! The win/move game of Examples 6.1 and 6.3 at a realistic size: a random
//! acyclic game graph, served from one `HiLogDb` session three ways — the
//! cached full model, the Figure 1 modular-stratification check, and a
//! magic-sets point query whose tables the session keeps for the next query
//! (the Section 6.1 use case).
//!
//! Run with `cargo run --example win_move_game`.

use hilog_engine::{HiLogDb, Semantics};
use hilog_syntax::{parse_query, parse_term};
use hilog_workloads::{hilog_game_program, node_name, random_dag};

fn main() {
    // Two games: the one we ask about, and a much larger one that a
    // query-directed evaluator should never touch.
    let queried_game = random_dag(60, 2.0, 7);
    let other_game = random_dag(400, 2.5, 8);
    let program = hilog_game_program(&[
        ("small_game", queried_game.clone()),
        ("big_game", other_game),
    ]);
    println!(
        "program: {} rules/facts over {} + {} move edges",
        program.len(),
        queried_game.len(),
        400
    );
    let mut db = HiLogDb::new(program.clone());

    // Full bottom-up evaluation of both games, cached by the session.
    let model = db.model().expect("evaluates").clone();
    let winning_positions = model
        .true_atoms()
        .iter()
        .filter(|a| a.to_string().starts_with("winning(small_game)"))
        .count();
    println!(
        "bottom-up WFS: {} atoms in the base, {winning_positions} winning positions in small_game",
        model.base().len()
    );
    assert!(model.is_total());

    // Figure 1 accepts the program (acyclic move graphs) and agrees.
    let mut checker = HiLogDb::builder()
        .program(program)
        .semantics(Semantics::ModularCheck)
        .build();
    let outcome = checker.check_modular().expect("runs");
    assert!(outcome.modularly_stratified);
    println!(
        "Figure 1 procedure: accepted in {} rounds",
        outcome.rounds.len()
    );

    // A point query on the small game only tables subgoals of the small game.
    let root = parse_term(&format!("winning(small_game)({})", node_name(0))).unwrap();
    let query = parse_query(&format!("?- winning(small_game)({}).", node_name(0))).unwrap();
    println!("== plan for {query} ==\n{}", db.explain(&query));
    let result = db.query(&query).expect("query evaluates");
    let stats = result.stats;
    println!(
        "query {root} = {}; {} tabled subgoals, {} answers, {} rule applications",
        result.truth, stats.subqueries, stats.answers, stats.rule_applications
    );
    assert_eq!(
        result.is_true(),
        model.is_true(&root),
        "query evaluation agrees with the WFS"
    );
    assert!(
        stats.answers < model.base().len(),
        "the point query touched fewer atoms than full evaluation"
    );

    // The same query again is answered purely from the session's tables.
    let cached = db.query(&query).expect("cached query evaluates");
    println!(
        "repeat query: {} rule applications, {} cached subgoals",
        cached.stats.rule_applications, cached.stats.cached_subqueries
    );
    assert_eq!(cached.stats.rule_applications, 0);
}
