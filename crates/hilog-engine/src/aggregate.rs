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
//! The evaluator implements that reading with an iterate-and-recompute
//! scheme: each round recomputes, from scratch,
//! the least model of the non-aggregate rules together with the aggregate
//! conclusions of the previous round, and then recomputes every aggregate
//! group's value over the fresh atoms.  For acyclic (modularly stratified)
//! part hierarchies the values of groups at subpart depth `d` are correct
//! and stable after round `d + 1`, so the process reaches a fixpoint in at
//! most `depth + 2` rounds and yields the perfect model; a non-terminating
//! (cyclic) hierarchy is reported as not modularly stratified when the round
//! limit is exceeded.

use crate::ambient::check_deadline;
use crate::error::EngineError;
use crate::horn::{EvalOptions, NegationMode};
use crate::join::RulePlan;
use crate::storage::FactStore;
use hilog_core::interpretation::Model;
use hilog_core::literal::{Aggregate, AggregateFunc, Literal};
use hilog_core::program::Program;
use hilog_core::rule::Rule;
use hilog_core::subst::Substitution;
use hilog_core::term::{Term, Var};
use hilog_core::unify::{match_with, unify_with};
use std::collections::{BTreeMap, BTreeSet};

/// Result of aggregate evaluation.
#[derive(Debug, Clone)]
pub struct AggregateModel {
    /// The computed (total, two-valued) model.
    pub model: Model,
    /// Number of recomputation rounds performed.
    pub rounds: usize,
}

/// Maximum number of outer recomputation rounds before declaring the program
/// not modularly stratified for aggregation.
const MAX_AGGREGATE_ROUNDS: usize = 10_000;

/// Evaluates a program whose only non-monotone construct is aggregation that
/// is modularly stratified (acyclic at the instance level), such as the
/// parts-explosion program.  Negation in rule bodies is not supported on this
/// path (combine with Figure 1, [`crate::Semantics::ModularCheck`], for programs
/// that need both).
pub fn evaluate_aggregate_program(
    program: &Program,
    opts: EvalOptions,
) -> Result<AggregateModel, EngineError> {
    for rule in program.iter() {
        if rule.has_negation() {
            return Err(EngineError::Unsupported(
                "evaluate_aggregate_program handles aggregation only; use the modular evaluator \
                 for programs that also use negation"
                    .into(),
            ));
        }
    }
    let (aggregate_rules, plain_rules): (Vec<&Rule>, Vec<&Rule>) =
        program.iter().partition(|r| r.has_aggregate());
    let plain_program = Program::from_rules(plain_rules.iter().map(|r| (*r).clone()).collect());

    // The aggregate conclusions of the previous round, as facts.
    let mut aggregate_facts: BTreeSet<Term> = BTreeSet::new();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if rounds > MAX_AGGREGATE_ROUNDS {
            return Err(EngineError::NotModularlyStratified(format!(
                "aggregate evaluation did not converge within {MAX_AGGREGATE_ROUNDS} rounds; the \
                 aggregation is cyclic at the instance level"
            )));
        }
        // Recompute the least model of the plain rules plus the current
        // aggregate conclusions.
        let mut seeded = plain_program.clone();
        for fact in &aggregate_facts {
            seeded.push(Rule::fact(fact.clone()));
        }
        let derived = FactStore::InMemory(crate::horn::least_model(
            &seeded,
            NegationMode::Forbid,
            opts,
        )?);

        // Recompute every aggregate rule's conclusions over the fresh atoms.
        let mut new_aggregate_facts: BTreeSet<Term> = BTreeSet::new();
        for rule in &aggregate_rules {
            for head in evaluate_aggregate_rule(rule, &derived, opts)? {
                new_aggregate_facts.insert(head);
            }
        }
        if new_aggregate_facts == aggregate_facts {
            // Fixpoint: assemble the final model.
            let atoms = derived.collect_atoms().into_iter().chain(aggregate_facts);
            let model = Model::from_true_atoms(atoms);
            return Ok(AggregateModel { model, rounds });
        }
        aggregate_facts = new_aggregate_facts;
    }
}

/// Evaluates a single aggregate rule against a set of derived atoms,
/// returning the ground heads it concludes.
fn evaluate_aggregate_rule(
    rule: &Rule,
    derived: &FactStore,
    opts: EvalOptions,
) -> Result<Vec<Term>, EngineError> {
    // Split the body into the aggregate literal and the rest; the rest is
    // joined first (left-to-right) to bind the grouping context.
    let (aggregates, rest): (Vec<&Literal>, Vec<&Literal>) = rule
        .body
        .iter()
        .partition(|l| matches!(l, Literal::Aggregate(_)));
    if aggregates.len() != 1 {
        return Err(EngineError::Unsupported(format!(
            "rule `{rule}` must contain exactly one aggregate literal, found {}",
            aggregates.len()
        )));
    }
    let agg = match aggregates[0] {
        Literal::Aggregate(a) => a,
        _ => unreachable!(),
    };
    let context_rule = Rule::new(
        rule.head.clone(),
        rest.iter().map(|l| (*l).clone()).collect(),
    );
    check_deadline()?;
    let mut contexts = Vec::new();
    RulePlan::compile(&context_rule).join(derived, None, NegationMode::Forbid, &mut |m| {
        contexts.push(m.bindings());
        if contexts.len() > opts.max_atoms {
            return Err(EngineError::LimitExceeded(format!(
                "aggregate rule `{rule}` produced more than {} grouping contexts",
                opts.max_atoms
            )));
        }
        Ok(())
    })?;

    let mut heads = Vec::new();
    for theta in contexts {
        let pattern = theta.apply(&agg.pattern);
        for extended in solve_aggregate(rule, agg, &theta, &derived.collect_candidates(&pattern))? {
            let head = extended.apply(&rule.head);
            if !head.is_ground() {
                return Err(EngineError::Floundering(format!(
                    "aggregate rule `{rule}` produced the non-ground head `{head}`"
                )));
            }
            heads.push(head);
        }
    }
    Ok(heads)
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
    use hilog_syntax::{parse_program, parse_term};

    #[test]
    fn bicycle_example_from_section_6() {
        // "if a bicycle has two wheels, and each wheel has 47 spokes, then we
        // would like to infer that a bicycle has 94 spokes."
        let program = parts_explosion_program(
            &[("bike_machine", "bike_parts")],
            &[
                ("bike_parts", "bicycle", "wheel", 2),
                ("bike_parts", "wheel", "spoke", 47),
            ],
        );
        let result = evaluate_aggregate_program(&program, EvalOptions::default()).unwrap();
        let m = &result.model;
        assert!(m.is_true(&parse_term("contains(bike_machine, bicycle, wheel, 2)").unwrap()));
        assert!(m.is_true(&parse_term("contains(bike_machine, wheel, spoke, 47)").unwrap()));
        assert!(m.is_true(&parse_term("contains(bike_machine, bicycle, spoke, 94)").unwrap()));
        assert!(result.rounds <= 5);
    }

    #[test]
    fn deeper_hierarchy_multiplies_quantities_along_paths() {
        // car -> 4 wheels -> 5 bolts each -> 2 washers each = 40 washers.
        let program = parts_explosion_program(
            &[("car_machine", "car_parts")],
            &[
                ("car_parts", "car", "wheel", 4),
                ("car_parts", "wheel", "bolt", 5),
                ("car_parts", "bolt", "washer", 2),
            ],
        );
        let m = evaluate_aggregate_program(&program, EvalOptions::default())
            .unwrap()
            .model;
        assert!(m.is_true(&parse_term("contains(car_machine, car, bolt, 20)").unwrap()));
        assert!(m.is_true(&parse_term("contains(car_machine, car, washer, 40)").unwrap()));
        assert!(m.is_true(&parse_term("contains(car_machine, wheel, washer, 10)").unwrap()));
    }

    #[test]
    fn shared_subparts_are_summed_across_paths() {
        // A diamond: gadget has 2 arms and 3 legs; arms and legs each use 1
        // screw; total screws = 2 + 3 = 5.
        let program = parts_explosion_program(
            &[("g", "gp")],
            &[
                ("gp", "gadget", "arm", 2),
                ("gp", "gadget", "leg", 3),
                ("gp", "arm", "screw", 1),
                ("gp", "leg", "screw", 1),
            ],
        );
        let m = evaluate_aggregate_program(&program, EvalOptions::default())
            .unwrap()
            .model;
        assert!(m.is_true(&parse_term("contains(g, gadget, screw, 5)").unwrap()));
    }

    #[test]
    fn multiple_machines_share_part_hierarchies_via_assoc() {
        // "Having an assoc relation allows machines that share part
        // hierarchies" — two machines referencing the same part relation get
        // the same totals, independently grouped by machine.
        let program = parts_explosion_program(
            &[("m1", "shared_parts"), ("m2", "shared_parts")],
            &[("shared_parts", "box", "panel", 6)],
        );
        let m = evaluate_aggregate_program(&program, EvalOptions::default())
            .unwrap()
            .model;
        assert!(m.is_true(&parse_term("contains(m1, box, panel, 6)").unwrap()));
        assert!(m.is_true(&parse_term("contains(m2, box, panel, 6)").unwrap()));
    }

    #[test]
    fn cyclic_part_hierarchy_is_rejected() {
        // widget contains itself: the aggregation never stabilises.
        let program = parts_explosion_program(&[("m", "p")], &[("p", "widget", "widget", 2)]);
        // The evaluation diverges: either the round limit detects the cycle or
        // the multiplied quantities overflow first — in both cases the
        // program is rejected rather than silently producing values.
        let err = evaluate_aggregate_program(&program, EvalOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::NotModularlyStratified(_)
                    | EngineError::LimitExceeded(_)
                    | EngineError::Core(_)
            ),
            "{err}"
        );
    }

    #[test]
    fn count_min_max_aggregates() {
        let program = parse_program(
            "kinds(X, N) :- item(X), N = count(P, part(X, P, Q)).\n\
             biggest(X, N) :- item(X), N = max(Q, part(X, P, Q)).\n\
             smallest(X, N) :- item(X), N = min(Q, part(X, P, Q)).\n\
             item(bike).\n\
             part(bike, wheel, 2). part(bike, spoke, 94). part(bike, frame, 1).",
        )
        .unwrap();
        let m = evaluate_aggregate_program(&program, EvalOptions::default())
            .unwrap()
            .model;
        assert!(m.is_true(&parse_term("kinds(bike, 3)").unwrap()));
        assert!(m.is_true(&parse_term("biggest(bike, 94)").unwrap()));
        assert!(m.is_true(&parse_term("smallest(bike, 1)").unwrap()));
    }

    #[test]
    fn negation_is_rejected_on_this_path() {
        let program = parse_program(
            "total(X, N) :- item(X), not hidden(X), N = sum(P, part(X, Y, P)). item(a).",
        )
        .unwrap();
        assert!(matches!(
            evaluate_aggregate_program(&program, EvalOptions::default()),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn rules_with_two_aggregates_are_rejected() {
        let program = parse_program(
            "weird(X, N, M) :- item(X), N = sum(P, a(X, P)), M = sum(Q, b(X, Q)). item(i). a(i, 1). b(i, 2).",
        )
        .unwrap();
        assert!(matches!(
            evaluate_aggregate_program(&program, EvalOptions::default()),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn hilog_parameterised_parts_relation() {
        // The Part variable of the paper's program is a genuine HiLog
        // feature: the part relation *name* is data.  Two machines with
        // different part relations coexist in one program.
        let program = parts_explosion_program(
            &[("m1", "parts_a"), ("m2", "parts_b")],
            &[
                ("parts_a", "alpha", "gear", 3),
                ("parts_b", "beta", "gear", 7),
            ],
        );
        let m = evaluate_aggregate_program(&program, EvalOptions::default())
            .unwrap()
            .model;
        assert!(m.is_true(&parse_term("contains(m1, alpha, gear, 3)").unwrap()));
        assert!(m.is_true(&parse_term("contains(m2, beta, gear, 7)").unwrap()));
        assert!(!m.is_true(&parse_term("contains(m1, beta, gear, 7)").unwrap()));
    }
}
