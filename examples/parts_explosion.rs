//! The parts-explosion program of Section 6: modularly stratified
//! aggregation, written once in HiLog for any number of machines.
//!
//! Run with `cargo run --example parts_explosion`.

use hilog_engine::{evaluate_aggregate_program, parts_explosion_program, EvalOptions};
use hilog_syntax::parse_term;
use hilog_workloads::random_part_hierarchy;

fn main() {
    // The paper's bicycle: two wheels, 47 spokes per wheel => 94 spokes.
    let bicycle = parts_explosion_program(
        &[("bicycle_factory", "bike_parts")],
        &[
            ("bike_parts", "bicycle", "wheel", 2),
            ("bike_parts", "wheel", "spoke", 47),
            ("bike_parts", "wheel", "rim", 1),
            ("bike_parts", "bicycle", "frame", 1),
        ],
    );
    let result = evaluate_aggregate_program(&bicycle, EvalOptions::default()).expect("evaluates");
    let spokes = parse_term("contains(bicycle_factory, bicycle, spoke, 94)").unwrap();
    println!(
        "bicycle: {} atoms, {} rounds",
        result.model.true_atoms().len(),
        result.rounds
    );
    println!(
        "  contains(bicycle_factory, bicycle, spoke, 94) = {}",
        result.model.is_true(&spokes)
    );
    assert!(result.model.is_true(&spokes));

    // A second machine sharing the program (the HiLog advantage: no
    // per-machine copy of the rules), with a randomly generated hierarchy.
    let hierarchy = random_part_hierarchy(24, 8, 11);
    let facts = hierarchy.as_facts("widget_parts");
    let widget = parts_explosion_program(&[("widget_factory", "widget_parts")], &facts);
    let result = evaluate_aggregate_program(&widget, EvalOptions::default()).expect("evaluates");
    let totals = result
        .model
        .true_atoms()
        .iter()
        .filter(|a| a.to_string().starts_with("contains(widget_factory, part0,"))
        .count();
    println!(
        "widget: {} part triples, {} distinct sub-parts reachable from the root, {} rounds",
        facts.len(),
        totals,
        result.rounds
    );
    assert!(totals > 0);
}
