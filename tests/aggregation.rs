//! Section 6's parts-explosion aggregation, cross-checked against an
//! independently computed reference (path-quantity products over the part
//! DAG), and the three routes that evaluate an aggregate literal — the
//! stand-alone aggregate evaluator, the session's tabled evaluator and
//! Figure 1's reduction — held to each other.

use hilog_core::program::Program;
use hilog_engine::{
    evaluate_aggregate_program, parts_explosion_program, EngineError, EvalOptions, HiLogDb,
    Semantics,
};
use hilog_syntax::{parse_program, parse_query, parse_term};
use hilog_workloads::random_part_hierarchy;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Case count of the randomized suites, overridable from CI via
/// `HILOG_PROPTEST_CASES` (as in `tests/session_api.rs`).
fn cases(default: u32) -> u32 {
    std::env::var("HILOG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reference implementation: contains(whole, part) = sum over all paths from
/// `whole` to `part` of the product of edge quantities.  Computed by dynamic
/// programming over the (acyclic) hierarchy.
fn reference_contains(triples: &[(String, String, i64)]) -> BTreeMap<(String, String), i64> {
    let mut direct: BTreeMap<(String, String), i64> = BTreeMap::new();
    for (w, p, q) in triples {
        *direct.entry((w.clone(), p.clone())).or_insert(0) += q;
    }
    // Iterate to fixpoint: contains = direct + direct * contains.
    let mut contains = direct.clone();
    loop {
        let mut next = direct.clone();
        for ((w, z), q1) in &direct {
            for ((z2, p), q2) in &contains {
                if z == z2 {
                    *next.entry((w.clone(), p.clone())).or_insert(0) += q1 * q2;
                }
            }
        }
        if next == contains {
            return contains;
        }
        contains = next;
    }
}

#[test]
fn bicycle_reference_values() {
    let triples = vec![
        ("bicycle".to_string(), "wheel".to_string(), 2),
        ("wheel".to_string(), "spoke".to_string(), 47),
    ];
    let reference = reference_contains(&triples);
    assert_eq!(reference[&("bicycle".to_string(), "spoke".to_string())], 94);
}

#[test]
fn parts_explosion_matches_reference_on_random_hierarchies() {
    for seed in 0..5u64 {
        let hierarchy = random_part_hierarchy(14, 6, seed);
        let reference = reference_contains(&hierarchy.triples);
        let program = parts_explosion_program(&[("m", "parts")], &hierarchy.as_facts("parts"));
        let result = evaluate_aggregate_program(&program, EvalOptions::default()).unwrap();
        for ((whole, part), qty) in &reference {
            let atom = parse_term(&format!("contains(m, {whole}, {part}, {qty})")).unwrap();
            assert!(
                result.model.is_true(&atom),
                "seed {seed}: expected {atom} (reference {qty})"
            );
        }
        // And no contains atom disagrees with the reference.
        for atom in result.model.true_atoms() {
            let text = atom.to_string();
            if let Some(inner) = text.strip_prefix("contains(m, ") {
                let parts: Vec<&str> = inner.trim_end_matches(')').split(", ").collect();
                let (whole, part, qty) = (parts[0], parts[1], parts[2].parse::<i64>().unwrap());
                assert_eq!(
                    reference.get(&(whole.to_string(), part.to_string())),
                    Some(&qty),
                    "seed {seed}: spurious {atom}"
                );
            }
        }
    }
}

#[test]
fn shared_hierarchies_are_grouped_per_machine() {
    // Two machines over the same part relation must get identical totals,
    // and a third machine over a different relation must not be affected.
    let program = parts_explosion_program(
        &[("m1", "shared"), ("m2", "shared"), ("m3", "own")],
        &[
            ("shared", "engine", "bolt", 8),
            ("shared", "engine", "piston", 4),
            ("shared", "piston", "bolt", 2),
            ("own", "engine", "bolt", 1),
        ],
    );
    let result = evaluate_aggregate_program(&program, EvalOptions::default()).unwrap();
    for machine in ["m1", "m2"] {
        let atom = parse_term(&format!("contains({machine}, engine, bolt, 16)")).unwrap();
        assert!(result.model.is_true(&atom), "{machine}");
    }
    assert!(result
        .model
        .is_true(&parse_term("contains(m3, engine, bolt, 1)").unwrap()));
    assert!(!result
        .model
        .is_true(&parse_term("contains(m3, engine, bolt, 16)").unwrap()));
}

/// The true atoms named `pred` (of arity `arity`) as each route sees them:
/// the stand-alone aggregate evaluator's model, a session's open bound query
/// (the tabled route), and the model Figure 1 accumulates.
fn three_routes(program: &Program, pred: &str, arity: usize) -> [BTreeSet<String>; 3] {
    let named = |atoms: &BTreeSet<hilog_core::term::Term>| -> BTreeSet<String> {
        let of_pred = atoms
            .iter()
            .filter(|atom| atom.name().to_string() == pred && atom.arity() == Some(arity));
        of_pred.map(|atom| atom.to_string()).collect()
    };
    let aggregate = evaluate_aggregate_program(program, EvalOptions::default())
        .expect("aggregate evaluator accepts");

    let vars: Vec<String> = (0..arity).map(|i| format!("V{i}")).collect();
    let pattern = parse_term(&format!("{pred}({})", vars.join(", "))).unwrap();
    let query = parse_query(&format!("?- {pattern}.")).unwrap();
    let result = HiLogDb::new(program.clone())
        .query(&query)
        .expect("session answers");
    assert!(result.plan.is_magic_sets() && result.fallback.is_none());
    let tabled = result.answers.iter().map(|answer| {
        let mut theta = hilog_core::subst::Substitution::new();
        for (var, term) in &answer.bindings {
            theta.bind(var.clone(), term.clone());
        }
        theta.apply(&pattern).to_string()
    });

    let mut figure1 = HiLogDb::builder()
        .program(program.clone())
        .semantics(Semantics::ModularCheck)
        .build();
    let figure1 = figure1.model().expect("Figure 1 accepts");
    [
        named(aggregate.model.true_atoms()),
        tabled.collect(),
        named(figure1.true_atoms()),
    ]
}

fn assert_routes_agree(
    program: &Program,
    pred: &str,
    arity: usize,
    context: &str,
) -> BTreeSet<String> {
    let [aggregate, tabled, figure1] = three_routes(program, pred, arity);
    assert_eq!(aggregate, tabled, "{context}: `{pred}` by the tabled route");
    assert_eq!(
        aggregate, figure1,
        "{context}: `{pred}` in Figure 1's model"
    );
    aggregate
}

#[test]
fn count_over_symbols_agrees_on_every_route() {
    // `count` counts the collected tuples, whatever they are: three symbols
    // are three.  (The tabled route and Figure 1 used to keep only integer
    // values before grouping, saw an empty group and derived nothing.)
    let program = parse_program("p(a). p(b). p(c).  n(N) :- N = count(X, p(X)).").unwrap();
    let answers = assert_routes_agree(&program, "n", 1, "count over symbols");
    assert_eq!(answers, BTreeSet::from(["n(3)".to_string()]));
}

#[test]
fn a_numeric_fold_over_symbols_is_unsupported_on_every_route() {
    for func in ["sum", "min", "max"] {
        let program = parse_program(&format!("p(a). p(b).  s(N) :- N = {func}(X, p(X)).")).unwrap();
        // The same verdict, naming the value it could not fold (the tabled
        // route prints the rule's variables renamed apart).
        let unsupported = |err: EngineError, route: &str| {
            assert!(
                matches!(err, EngineError::Unsupported(_))
                    && err
                        .to_string()
                        .contains("collected the non-integer value `a`"),
                "{func}, {route}: {err}"
            );
        };
        let aggregate = evaluate_aggregate_program(&program, EvalOptions::default());
        unsupported(aggregate.unwrap_err(), "aggregate evaluator");
        let query = parse_query("?- s(N).").unwrap();
        let tabled = HiLogDb::new(program.clone()).query(&query);
        unsupported(tabled.unwrap_err(), "tabled route");
        // Figure 1 rejects, and gives the operator's verdict as its reason.
        let mut db = HiLogDb::new(program);
        let outcome = db.check_modular().unwrap();
        assert!(!outcome.modularly_stratified, "{func}");
        let reason = outcome.reason.as_deref().unwrap_or_default();
        assert!(
            reason.contains("unsupported") && reason.contains("non-integer value `a`"),
            "{func}: {reason}"
        );
    }
}

#[test]
fn sum_count_min_max_agree_across_routes_on_random_hierarchies() {
    for seed in 0..u64::from(cases(4)) {
        let hierarchy = random_part_hierarchy(12, 5, seed);
        let mut text = String::from(
            "total(W, N) :- whole(W), N = sum(Q, parts(W, P, Q)).\n\
             least(W, N) :- whole(W), N = min(Q, parts(W, P, Q)).\n\
             most(W, N) :- whole(W), N = max(Q, parts(W, P, Q)).\n\
             kinds(W, N) :- whole(W), N = count(P, parts(W, P, Q)).\n\
             uses(P, N) :- N = count(W, parts(W, P, Q)).\n",
        );
        let mut wholes = BTreeSet::new();
        for (whole, part, qty) in &hierarchy.triples {
            text.push_str(&format!("parts({whole}, {part}, {qty}).\n"));
            wholes.insert(whole);
        }
        for whole in &wholes {
            text.push_str(&format!("whole({whole}).\n"));
        }
        let program = parse_program(&text).unwrap();
        let context = format!("seed {seed}");
        for pred in ["least", "most", "kinds", "uses"] {
            let answers = assert_routes_agree(&program, pred, 2, &context);
            assert!(!answers.is_empty(), "{context}: no `{pred}` derived");
        }
        // And the operator itself against a fold done by hand.
        let totals = assert_routes_agree(&program, "total", 2, &context);
        for whole in &wholes {
            let of_whole = hierarchy.triples.iter().filter(|(w, _, _)| w == *whole);
            let sum: i64 = of_whole.map(|(_, _, q)| q).sum();
            assert!(
                totals.contains(&format!("total({whole}, {sum})")),
                "{context}"
            );
        }
        assert_eq!(totals.len(), wholes.len(), "{context}");
        // The paper's recursive program, the sum read back through `in`:
        // Figure 1 does not reduce through it yet, the other two must agree.
        let explosion = parts_explosion_program(&[("m", "parts")], &hierarchy.as_facts("parts"));
        let reference = evaluate_aggregate_program(&explosion, EvalOptions::default()).unwrap();
        let query = parse_query("?- contains(m, X, Y, N).").unwrap();
        let tabled = HiLogDb::new(explosion).query(&query).unwrap();
        let tabled: BTreeSet<String> = tabled
            .answers
            .iter()
            .map(|a| {
                let [x, y, n] = ["X", "Y", "N"].map(|v| a.binding(v).unwrap());
                format!("contains(m, {x}, {y}, {n})")
            })
            .collect();
        let contains = reference
            .model
            .true_atoms()
            .iter()
            .filter(|atom| atom.name().to_string() == "contains");
        assert_eq!(
            tabled,
            contains.map(|a| a.to_string()).collect(),
            "{context}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(10)))]

    /// The parts-explosion evaluation agrees with the reference on random
    /// acyclic hierarchies of varying size and sharing.
    #[test]
    fn aggregation_matches_reference(parts in 4usize..16, extra in 0usize..8, seed in 0u64..1_000) {
        let hierarchy = random_part_hierarchy(parts, extra, seed);
        let reference = reference_contains(&hierarchy.triples);
        let program = parts_explosion_program(&[("m", "parts")], &hierarchy.as_facts("parts"));
        let result = evaluate_aggregate_program(&program, EvalOptions::default()).unwrap();
        for ((whole, part), qty) in &reference {
            let atom = parse_term(&format!("contains(m, {whole}, {part}, {qty})")).unwrap();
            prop_assert!(result.model.is_true(&atom), "expected {} = {}", atom, qty);
        }
    }
}
