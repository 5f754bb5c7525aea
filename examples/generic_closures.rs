//! Example 2.1 / Example 5.2: one *generic* HiLog transitive closure versus
//! the per-relation closures a normal program would need.
//!
//! Run with `cargo run --example generic_closures`.

use hilog_datalog::DatalogEngine;
use hilog_engine::{least_model, EvalOptions, NegationMode};
use hilog_syntax::parse_term;
use hilog_workloads::{chain, generic_closure_program, random_dag, specialized_closure_program};

fn main() {
    // Three base relations of different shapes.
    let relations = vec![
        ("rail", chain(6)),
        ("road", random_dag(8, 2.0, 42)),
        ("ferry", chain(3)),
    ];

    // One generic HiLog program covers all of them (Example 2.1, guarded by a
    // `graph` relation as Example 5.2 recommends).
    let generic = generic_closure_program(
        &relations
            .iter()
            .map(|(n, e)| (*n, e.clone()))
            .collect::<Vec<_>>(),
    );
    let generic_model =
        least_model(&generic, NegationMode::Forbid, EvalOptions::default()).expect("evaluates");
    println!("generic HiLog program: {} rules", generic.len());
    println!("generic closure derived {} atoms", generic_model.len());

    // The normal-program alternative: one specialised program per relation.
    let mut specialised_total = 0usize;
    for (name, edges) in &relations {
        let program = specialized_closure_program(name, edges);
        let engine = DatalogEngine::new(program).expect("normal program");
        let model = engine.least_model().expect("evaluates");
        let closure_size = model
            .iter()
            .filter(|a| a.name() == &hilog_core::Term::sym(format!("tc_{name}")))
            .count();
        specialised_total += closure_size;
        println!("specialised tc_{name}: {closure_size} closure tuples");
    }

    // The generic program derives exactly the same closure tuples, written as
    // tc(<relation>)(X, Y).
    let mut generic_total = 0usize;
    for (name, _) in &relations {
        let tc_name = parse_term(&format!("tc({name})")).unwrap();
        generic_total += generic_model
            .iter()
            .filter(|a| a.name() == &tc_name)
            .count();
    }
    println!("closure tuples: generic = {generic_total}, specialised = {specialised_total}");
    assert_eq!(generic_total, specialised_total);

    // Spot-check a long-range pair on the chain relation.
    let reachable = generic_model.contains(&parse_term("tc(rail)(p0, p6)").unwrap());
    println!("tc(rail)(p0, p6) = {reachable}");
    assert!(reachable);
}
