//! Modularly stratified aggregation — the parts-explosion evaluator.
//!
//! Section 6 of the paper extends modular stratification to aggregate
//! operators: the parts-explosion program
//!
//! ```text
//! in(Mach, X, Y, null, N)  :- assoc(Mach, Part), Part(X, Y, N).
//! in(Mach, X, Y, Z, N)     :- assoc(Mach, Part), Part(X, Z, P),
//!                             contains(Mach, Z, Y, M), N is P * M.
//! contains(Mach, X, Y, N)  :- N = sum(P, in(Mach, X, Y, W, P)).
//! ```
//!
//! is not stratified — `contains` depends on itself through the aggregation
//! over `in` — but, provided every part relation is acyclic in its first two
//! arguments, "the summation operates on successively lower arguments ...
//! and so there is no looping through summation.  This is the aggregate
//! analog of modular stratification."
//!
//! The evaluator is Section 6.1's query-directed one
//! ([`crate::magic_eval`]), which runs exactly that check: a subgoal read
//! through an aggregate is settled completely before its group is folded,
//! so a sum over lower and lower arguments completes, and a group that
//! needs itself — a cyclic part hierarchy — is a dependency cycle through
//! aggregation at the instance level, reported as
//! [`EngineError::NotModularlyStratified`].  The model is the program's
//! facts together with the answers of one open subgoal per head of its
//! other rules.

use crate::error::EngineError;
use crate::horn::EvalOptions;
use crate::magic_eval::{normalize_pattern, ProgramIndex, QueryEvaluator};
use crate::storage::StorageConfig;
use hilog_core::unify::{match_with, unify_with};
use hilog_core::{
    Aggregate, AggregateFunc, Literal, Model, Program, Rule, Substitution, Term, Var,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Result of aggregate evaluation.
#[derive(Debug, Clone)]
pub struct AggregateModel {
    /// The computed (total, two-valued) model.
    pub model: Model,
}

/// Evaluates a program whose only non-monotone construct is aggregation that
/// is modularly stratified (acyclic at the instance level), such as the
/// parts-explosion program.  Negation in rule bodies is not supported on this
/// path (combine with Figure 1, [`crate::Semantics::ModularCheck`], for programs
/// that need both), and neither is a rule whose head is a bare variable,
/// which no subgoal can enumerate.
pub fn evaluate_aggregate_program(
    program: &Program,
    opts: EvalOptions,
) -> Result<AggregateModel, EngineError> {
    let mut heads = BTreeSet::new();
    for rule in program.iter() {
        if rule.has_negation() {
            return Err(EngineError::Unsupported(
                "evaluate_aggregate_program handles aggregation only; use the modular evaluator \
                 for programs that also use negation"
                    .into(),
            ));
        }
        if rule.head.is_var() {
            return Err(EngineError::Unsupported(format!(
                "rule `{rule}` has a variable for its head, so no subgoal enumerates what it \
                 derives"
            )));
        }
        if !(rule.is_fact() && rule.head.is_ground()) {
            heads.insert(normalize_pattern(&rule.head));
        }
    }
    let index = Arc::new(ProgramIndex::build(program, &StorageConfig::InMemory));
    let mut evaluator = QueryEvaluator::over(index, opts, Arc::default());
    let mut atoms: BTreeSet<Term> = (program.facts())
        .filter(|rule| rule.head.is_ground())
        .map(|rule| rule.head.clone())
        .collect();
    for head in &heads {
        atoms.extend(evaluator.solve_atom(head)?);
    }
    Ok(AggregateModel {
        model: Model::from_true_atoms(atoms),
    })
}

/// The one aggregate operator: evaluates the aggregate literal `agg` of
/// `rule` under `theta` over `candidates` — the settled atoms that may match
/// its pattern — and returns `theta` extended once per group, by the group's
/// key and its folded result.
///
/// The matches of the instantiated pattern are grouped by the pattern
/// variables that also occur outside the aggregate literal (in the head or
/// another body literal) — "the sum is grouped by Mach, X and Y" in the
/// paper's example; variables local to the pattern, and those of the
/// collected value, are aggregated over.  Every variable set is taken
/// *after* applying `theta`: a caller's substitution may have aliased rule
/// variables (a head variable renamed to a table's normalised variable), and
/// grouping must bind exactly the variables the instantiated pattern still
/// carries.  `count` counts every collected tuple; `sum` / `min` / `max`
/// fold integers, and a group that collected anything else is
/// [`EngineError::Unsupported`] on every route.  A pattern nothing matches
/// has no group, so the rule does not fire for it.
pub(crate) fn solve_aggregate<'a>(
    rule: &Rule,
    agg: &Aggregate,
    theta: &Substitution,
    candidates: impl IntoIterator<Item = &'a Term>,
) -> Result<Vec<Substitution>, EngineError> {
    // Instantiated first, and found in the body by its instantiated form:
    // a caller may hand the literal over with `theta` already applied.
    let agg = &agg.apply(theta);
    let (pattern, value) = (&agg.pattern, &agg.value);
    let mut outside: Vec<Var> = theta.apply(&rule.head).variables();
    for other in &rule.body {
        let other = other.apply(theta);
        if !matches!(&other, Literal::Aggregate(a) if a == agg) {
            outside.extend(other.variables());
        }
    }
    let value_vars = value.variables();
    let group_vars: Vec<Var> = pattern
        .variables()
        .into_iter()
        .filter(|v| outside.contains(v) && !value_vars.contains(v))
        .collect();

    let mut groups: BTreeMap<Vec<(Var, Term)>, Vec<Term>> = BTreeMap::new();
    for candidate in candidates {
        let mut m = Substitution::new();
        if match_with(pattern, candidate, &mut m) {
            let key: Vec<(Var, Term)> = group_vars
                .iter()
                .map(|v| (v.clone(), m.apply(&Term::Var(v.clone()))))
                .collect();
            groups.entry(key).or_default().push(m.apply(value));
        }
    }

    let mut solutions = Vec::new();
    for (key, values) in groups {
        let ints = || {
            let ints = values.iter().map(|t| match t {
                Term::Int(i) => Ok(*i),
                _ => Err(EngineError::Unsupported(format!(
                    "aggregate `{agg}` collected the non-integer value `{t}`"
                ))),
            });
            ints.collect::<Result<Vec<i64>, _>>()
        };
        let result = match agg.func {
            AggregateFunc::Count => values.len() as i64,
            AggregateFunc::Sum => ints()?.iter().sum(),
            AggregateFunc::Min => ints()?.into_iter().min().unwrap_or(0),
            AggregateFunc::Max => ints()?.into_iter().max().unwrap_or(0),
        };
        let mut extended = theta.clone();
        let bound = key
            .iter()
            .all(|(v, t)| unify_with(&Term::Var(v.clone()), t, &mut extended));
        if bound && unify_with(&agg.result, &Term::Int(result), &mut extended) {
            solutions.push(extended);
        }
    }
    Ok(solutions)
}

/// Builds the paper's parts-explosion program for a set of machines.
///
/// `machines` maps a machine name to its part relation name; `parts` lists
/// `(part relation, whole, part, quantity)` facts.  The returned program is
/// exactly the Section 6 program (with `N is P * M` spelled as a builtin and
/// the sum as an aggregation literal) plus the `assoc` and part facts.
pub fn parts_explosion_program(
    machines: &[(&str, &str)],
    parts: &[(&str, &str, &str, i64)],
) -> Program {
    let mut text = String::from(
        "in(Mach, X, Y, null, N) :- assoc(Mach, Part), Part(X, Y, N).\n\
         in(Mach, X, Y, Z, N) :- assoc(Mach, Part), Part(X, Z, P), contains(Mach, Z, Y, M), N is P * M.\n\
         contains(Mach, X, Y, N) :- N = sum(P, in(Mach, X, Y, W, P)).\n",
    );
    for (machine, part_rel) in machines {
        text.push_str(&format!("assoc({machine}, {part_rel}).\n"));
    }
    for (rel, whole, part, qty) in parts {
        text.push_str(&format!("{rel}({whole}, {part}, {qty}).\n"));
    }
    hilog_syntax::parse_program(&text).expect("parts-explosion program is syntactically valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::HiLogDb;
    use hilog_syntax::parse_program;

    /// The sorted true atoms of a model, one line each.
    fn sorted_atoms(model: &Model) -> Vec<String> {
        let mut atoms: Vec<String> = model.true_atoms().iter().map(|a| a.to_string()).collect();
        atoms.sort();
        atoms
    }

    /// The sorted true atoms of a model, or the kind of an error.
    type Outcome = Result<Vec<String>, String>;

    /// What `evaluate_aggregate_program` returns.
    fn outcome(program: &Program) -> Outcome {
        match evaluate_aggregate_program(program, EvalOptions::default()) {
            Ok(result) => Ok(sorted_atoms(&result.model)),
            Err(e) => Err(format!("{e:?}").split('(').next().unwrap().to_string()),
        }
    }

    /// The part facts of `cold_eval`'s parts family at 20 parts and seed 17
    /// (`random_part_hierarchy(20, 10, 21)`).
    const COLD_EVAL_PARTS: &str = "\
        m_parts(part0, part1, 4). m_parts(part1, part2, 2). m_parts(part2, part3, 4). \
        m_parts(part2, part4, 2). m_parts(part4, part5, 1). m_parts(part1, part6, 2). \
        m_parts(part2, part7, 4). m_parts(part1, part8, 1). m_parts(part8, part9, 2). \
        m_parts(part0, part10, 4). m_parts(part1, part11, 4). m_parts(part7, part12, 1). \
        m_parts(part4, part13, 2). m_parts(part10, part14, 3). m_parts(part10, part15, 1). \
        m_parts(part9, part16, 2). m_parts(part12, part17, 4). m_parts(part13, part18, 3). \
        m_parts(part2, part19, 2). m_parts(part11, part16, 4). m_parts(part18, part19, 2). \
        m_parts(part6, part14, 3). m_parts(part15, part17, 2). m_parts(part7, part16, 3). \
        m_parts(part9, part18, 2). m_parts(part14, part17, 4). m_parts(part8, part11, 4).";

    #[test]
    fn the_evaluator_answers_as_pinned() {
        // Every row was read off the iterate-and-recompute fixpoint the
        // tabled evaluator replaced, on the same program, but the cyclic
        // one: that fixpoint doubled the widget count until the product
        // overflowed (`Core`), where the tabled evaluator finds the sum
        // reading itself.
        let ok = |atoms: &[&str]| Ok(atoms.iter().map(|a| a.to_string()).collect());
        let rows: Vec<(&str, Program, Outcome)> =
            vec![
            (
                "bicycle",
                parts_explosion_program(
                    &[("bike_machine", "bike_parts")],
                    &[
                        ("bike_parts", "bicycle", "wheel", 2),
                        ("bike_parts", "wheel", "spoke", 47),
                    ],
                ),
                ok(&[
                    "assoc(bike_machine, bike_parts)",
                    "bike_parts(bicycle, wheel, 2)",
                    "bike_parts(wheel, spoke, 47)",
                    "contains(bike_machine, bicycle, spoke, 94)",
                    "contains(bike_machine, bicycle, wheel, 2)",
                    "contains(bike_machine, wheel, spoke, 47)",
                    "in(bike_machine, bicycle, spoke, wheel, 94)",
                    "in(bike_machine, bicycle, wheel, null, 2)",
                    "in(bike_machine, wheel, spoke, null, 47)",
                ]),
            ),
            (
                "car",
                parts_explosion_program(
                    &[("car_machine", "car_parts")],
                    &[
                        ("car_parts", "car", "wheel", 4),
                        ("car_parts", "wheel", "bolt", 5),
                        ("car_parts", "bolt", "washer", 2),
                    ],
                ),
                ok(&[
                    "assoc(car_machine, car_parts)",
                    "car_parts(bolt, washer, 2)",
                    "car_parts(car, wheel, 4)",
                    "car_parts(wheel, bolt, 5)",
                    "contains(car_machine, bolt, washer, 2)",
                    "contains(car_machine, car, bolt, 20)",
                    "contains(car_machine, car, washer, 40)",
                    "contains(car_machine, car, wheel, 4)",
                    "contains(car_machine, wheel, bolt, 5)",
                    "contains(car_machine, wheel, washer, 10)",
                    "in(car_machine, bolt, washer, null, 2)",
                    "in(car_machine, car, bolt, wheel, 20)",
                    "in(car_machine, car, washer, wheel, 40)",
                    "in(car_machine, car, wheel, null, 4)",
                    "in(car_machine, wheel, bolt, null, 5)",
                    "in(car_machine, wheel, washer, bolt, 10)",
                ]),
            ),
            (
                // A diamond: the screws of both paths are summed.
                "gadget",
                parts_explosion_program(
                    &[("g", "gp")],
                    &[
                        ("gp", "gadget", "arm", 2),
                        ("gp", "gadget", "leg", 3),
                        ("gp", "arm", "screw", 1),
                        ("gp", "leg", "screw", 1),
                    ],
                ),
                ok(&[
                    "assoc(g, gp)",
                    "contains(g, arm, screw, 1)",
                    "contains(g, gadget, arm, 2)",
                    "contains(g, gadget, leg, 3)",
                    "contains(g, gadget, screw, 5)",
                    "contains(g, leg, screw, 1)",
                    "gp(arm, screw, 1)",
                    "gp(gadget, arm, 2)",
                    "gp(gadget, leg, 3)",
                    "gp(leg, screw, 1)",
                    "in(g, arm, screw, null, 1)",
                    "in(g, gadget, arm, null, 2)",
                    "in(g, gadget, leg, null, 3)",
                    "in(g, gadget, screw, arm, 2)",
                    "in(g, gadget, screw, leg, 3)",
                    "in(g, leg, screw, null, 1)",
                ]),
            ),
            (
                // Two machines share one part relation through `assoc`.
                "shared assoc",
                parts_explosion_program(
                    &[("m1", "shared_parts"), ("m2", "shared_parts")],
                    &[("shared_parts", "box", "panel", 6)],
                ),
                ok(&[
                    "assoc(m1, shared_parts)",
                    "assoc(m2, shared_parts)",
                    "contains(m1, box, panel, 6)",
                    "contains(m2, box, panel, 6)",
                    "in(m1, box, panel, null, 6)",
                    "in(m2, box, panel, null, 6)",
                    "shared_parts(box, panel, 6)",
                ]),
            ),
            (
                // The part relation's name is data: the HiLog `Part(X, Y, N)`.
                "HiLog-parameterised",
                parts_explosion_program(
                    &[("m1", "parts_a"), ("m2", "parts_b")],
                    &[("parts_a", "alpha", "gear", 3), ("parts_b", "beta", "gear", 7)],
                ),
                ok(&[
                    "assoc(m1, parts_a)",
                    "assoc(m2, parts_b)",
                    "contains(m1, alpha, gear, 3)",
                    "contains(m2, beta, gear, 7)",
                    "in(m1, alpha, gear, null, 3)",
                    "in(m2, beta, gear, null, 7)",
                    "parts_a(alpha, gear, 3)",
                    "parts_b(beta, gear, 7)",
                ]),
            ),
            (
                "count, min, max",
                parse_program(
                    "kinds(X, N) :- item(X), N = count(P, part(X, P, Q)).\n\
                     biggest(X, N) :- item(X), N = max(Q, part(X, P, Q)).\n\
                     smallest(X, N) :- item(X), N = min(Q, part(X, P, Q)).\n\
                     item(bike).\n\
                     part(bike, wheel, 2). part(bike, spoke, 94). part(bike, frame, 1).",
                )
                .unwrap(),
                ok(&[
                    "biggest(bike, 94)",
                    "item(bike)",
                    "kinds(bike, 3)",
                    "part(bike, frame, 1)",
                    "part(bike, spoke, 94)",
                    "part(bike, wheel, 2)",
                    "smallest(bike, 1)",
                ]),
            ),
            (
                "negation",
                parse_program(
                    "total(X, N) :- item(X), not hidden(X), N = sum(P, part(X, Y, P)). item(a).",
                )
                .unwrap(),
                Err("Unsupported".into()),
            ),
            (
                // widget contains itself: its sum reads itself.
                "cyclic hierarchy",
                parts_explosion_program(&[("m", "p")], &[("p", "widget", "widget", 2)]),
                Err("NotModularlyStratified".into()),
            ),
        ];
        for (name, program, expected) in rows {
            assert_eq!(outcome(&program), expected, "{name}");
        }

        // `cold_eval`'s parts program: its count and the FNV-1a digest of
        // its sorted true atoms, a line each.
        let mut program = parts_explosion_program(&[("m", "m_parts")], &[]);
        for fact in parse_program(COLD_EVAL_PARTS).unwrap().iter() {
            program.push(fact.clone());
        }
        let atoms = outcome(&program).unwrap();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in atoms.iter().flat_map(|a| a.bytes().chain([b'\n'])) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!((atoms.len(), digest), (183, 0xf68e_7642_71cb_f0c0));
    }

    #[test]
    fn a_variable_head_is_unsupported_and_named() {
        let program = parse_program("X :- p(X). p(q(a)). q(a).").unwrap();
        let err = evaluate_aggregate_program(&program, EvalOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("rule `X :- p(X).`"), "{err}");
    }

    #[test]
    fn a_rule_with_two_aggregates_folds_both() {
        // Each aggregate is settled and folded in turn: the same value on
        // the tabled route (through a session's query and through this
        // evaluator) and in Figure 1's model.
        let program = parse_program(
            "weird(X, N, M) :- item(X), N = sum(P, a(X, P)), M = sum(Q, b(X, Q)). \
             item(i). a(i, 1). b(i, 2).",
        )
        .unwrap();
        let weird = |model: &Model| -> Vec<String> {
            let atoms = sorted_atoms(model);
            atoms
                .into_iter()
                .filter(|a| a.starts_with("weird"))
                .collect()
        };
        let expected = vec!["weird(i, 1, 2)".to_string()];
        let result = evaluate_aggregate_program(&program, EvalOptions::default()).unwrap();
        assert_eq!(weird(&result.model), expected);
        let query = hilog_syntax::parse_query("?- weird(X, N, M).").unwrap();
        let answers = HiLogDb::new(program.clone()).query(&query).unwrap().answers;
        let tabled: Vec<String> = answers
            .iter()
            .map(|a| {
                let [x, n, m] = ["X", "N", "M"].map(|v| a.binding(v).unwrap().to_string());
                format!("weird({x}, {n}, {m})")
            })
            .collect();
        assert_eq!(tabled, expected);
        let outcome = HiLogDb::new(program).check_modular().unwrap().clone();
        assert!(outcome.modularly_stratified, "{:?}", outcome.reason);
        assert_eq!(weird(outcome.model.as_ref().unwrap()), expected);
    }
}
