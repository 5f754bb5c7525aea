//! Modular stratification for HiLog — the Figure 1 procedure.
//!
//! Section 6 of the paper generalises the modularly stratified programs of
//! Ross \[16\] to HiLog.  Because predicate names may contain variables, the
//! strongly connected components of the program cannot be computed a priori
//! (Example 6.2); instead the Figure 1 procedure settles the *lowest*
//! components one at a time:
//!
//! 1. partition the remaining rules into those with variables in the head
//!    predicate name (`R_v`) and the rest (`R_g`);
//! 2. reject if a ground-headed rule's head predicate is already settled
//!    (the conservative treatment of Example 6.5), or if `R_g` is empty;
//! 3. build the dependency graph over the *ground* predicate names of the
//!    remaining rules, with edges from each ground-headed rule's head to the
//!    ground names in its body;
//! 4. let `T` be the names in components with no outgoing edge;
//! 5. the rules with heads in `T` must contain no variable predicate names
//!    and must be locally stratified once instantiated; compute their (total)
//!    well-founded model `M_T`;
//! 6. add `T` to the settled set, merge `M_T` into the accumulated model and
//!    replace the remaining rules by their *HiLog reduction* modulo the model
//!    (Definition 6.5); repeat.
//!
//! Each step costs what its component costs:
//!
//! * A lowest component made only of ground facts is its own model `M_T`:
//!   the facts are true and nothing else is, with no grounding and no
//!   evaluation.  Every program's first round is such a component.
//! * A component that aggregates through itself (the parts explosion's `in`
//!   and `contains`) is settled by the aggregate evaluator over its reduced
//!   rules, which read only the component's own names; a cycle through
//!   aggregation at the instance level is a rejection.
//! * Any other component is instantiated (relevant grounding) and handed to
//!   the well-founded evaluation's `stratified_eval`, which condenses the
//!   ground atom graph once: a negative edge inside a strongly connected
//!   component means the component is not locally stratified, and
//!   otherwise its components are settled over that same condensation.
//! * The reduction walks each surviving rule's compiled plan over one slot
//!   frame, seeks the settled model by predicate name
//!   ([`Model::true_candidates`]: the model's map is ordered by name
//!   first) instead of scanning every true atom, and deduplicates the
//!   reduced rules by hash.
//!
//! If the procedure terminates with no rules left, the program is modularly
//! stratified for HiLog and the accumulated model is its total well-founded
//! model, which is also its unique stable model (Theorem 6.1).
//!
//! For normal programs the procedure specialises to modular stratification in
//! the sense of Definition 6.4 (Lemma 6.2), so one procedure serves both.
//! Callers reach it through `HiLogDb::check_modular` /
//! `DbSnapshot::check_modular`, which cache the outcome.

use crate::aggregate::{evaluate_aggregate_program, solve_aggregate};
use crate::ambient::check_deadline;
use crate::error::EngineError;
use crate::grounder::{check_rule_budget, relevant_ground};
use crate::horn::{EvalOptions, ROUND_LIMIT};
use crate::join::{Frame, Pat, RulePlan, Step};
use crate::wfs::stratified_eval;
use hilog_core::{DependencyGraph, Literal, Model, Program, Rule, Term, TermSet};
use std::collections::BTreeSet;

/// The result of running the Figure 1 procedure.
#[derive(Debug, Clone)]
pub struct ModularOutcome {
    /// `true` if the program is modularly stratified for HiLog.
    pub modularly_stratified: bool,
    /// The accumulated (total) well-founded model when stratified.
    pub model: Option<Model>,
    /// Human-readable reason for rejection.
    pub reason: Option<String>,
    /// The sets of predicate names settled at each round, in order.
    pub rounds: Vec<Vec<Term>>,
}

impl ModularOutcome {
    fn accepted(model: Model, rounds: Vec<Vec<Term>>) -> Self {
        ModularOutcome {
            modularly_stratified: true,
            model: Some(model),
            reason: None,
            rounds,
        }
    }

    fn rejected(reason: String, rounds: Vec<Vec<Term>>) -> Self {
        ModularOutcome {
            modularly_stratified: false,
            model: None,
            reason: Some(reason),
            rounds,
        }
    }
}

/// Runs the Figure 1 procedure on a HiLog program (the session and snapshot
/// facades call this and cache the outcome).
///
/// The program should be strongly range restricted (Definition 6.6 assumes
/// it); programs that flounder during instantiation are rejected with the
/// floundering message as the reason rather than raising an error, since
/// Figure 1 treats every failure of its side conditions as "not modularly
/// stratified".
pub(crate) fn figure1_procedure(
    program: &Program,
    opts: EvalOptions,
) -> Result<ModularOutcome, EngineError> {
    let mut remaining: Vec<Rule> = program.iter().cloned().collect();
    let mut settled: BTreeSet<Term> = BTreeSet::new();
    let mut model = Model::empty();
    let mut rounds: Vec<Vec<Term>> = Vec::new();
    let mut guard = 0usize;

    while !remaining.is_empty() {
        guard += 1;
        check_deadline()?;
        if guard > ROUND_LIMIT {
            return Err(EngineError::LimitExceeded(format!(
                "Figure 1 procedure exceeded {ROUND_LIMIT} rounds"
            )));
        }

        // Step 1: partition by groundness of the head predicate name.
        let (ground_headed, variable_headed): (Vec<&Rule>, Vec<&Rule>) =
            remaining.iter().partition(|r| r.head.name().is_ground());

        // Step 2: conflicts with already-settled names, or nothing to settle.
        for rule in &ground_headed {
            let name = rule.head.name().clone();
            if settled.contains(&name) {
                return Ok(ModularOutcome::rejected(
                    format!(
                        "rule `{rule}` has head predicate `{name}` which was already settled \
                         (a variable head name was instantiated too late, cf. Example 6.5)"
                    ),
                    rounds,
                ));
            }
        }
        if ground_headed.is_empty() {
            return Ok(ModularOutcome::rejected(
                format!(
                    "no rules with ground head predicate names remain ({} variable-headed rules \
                     cannot be instantiated)",
                    variable_headed.len()
                ),
                rounds,
            ));
        }

        // Step 3: dependency graph over ground predicate names of R.
        let graph = DependencyGraph::predicate_graph(&remaining);
        check_deadline()?;

        // Step 4: the lowest (sink) components.
        let lowest: BTreeSet<Term> = graph.sink_component_nodes().into_iter().collect();
        if lowest.is_empty() {
            return Ok(ModularOutcome::rejected(
                "dependency graph has no sink components".into(),
                rounds,
            ));
        }

        // Step 5: the rules defining the lowest components.
        let lowest_rules: Vec<&Rule> = ground_headed
            .iter()
            .copied()
            .filter(|r| lowest.contains(r.head.name()))
            .collect();
        for rule in &lowest_rules {
            if rule_has_variable_predicate_name(rule) {
                return Ok(ModularOutcome::rejected(
                    format!(
                        "rule `{rule}` in the lowest component contains a variable predicate name"
                    ),
                    rounds,
                ));
            }
        }
        let component_model = if lowest_rules
            .iter()
            .all(|r| r.is_fact() && r.head.is_ground())
        {
            settle_facts(lowest_rules.iter().map(|r| r.head.clone()), opts)?
        } else {
            let rules = lowest_rules.into_iter().cloned().collect();
            let names: Vec<String> = lowest.iter().map(|t| t.to_string()).collect();
            match settle_component(rules, &names, opts)? {
                Ok(component_model) => component_model,
                Err(reason) => return Ok(ModularOutcome::rejected(reason, rounds)),
            }
        };
        debug_assert!(
            component_model.is_total(),
            "locally stratified component must have a total well-founded model"
        );

        // Step 6: settle, merge, reduce.
        rounds.push(lowest.iter().cloned().collect());
        settled.extend(lowest.iter().cloned());
        model.merge(component_model);
        let survivors: Vec<Rule> = std::mem::take(&mut remaining)
            .into_iter()
            .filter(|r| !(r.head.name().is_ground() && lowest.contains(r.head.name())))
            .collect();
        check_deadline()?;
        remaining = match hilog_reduce(&survivors, &settled, &model, opts) {
            Ok(rules) => rules,
            Err(EngineError::NotModularlyStratified(reason)) => {
                return Ok(ModularOutcome::rejected(reason, rounds))
            }
            Err(other) => return Err(other),
        };
    }
    Ok(ModularOutcome::accepted(model, rounds))
}

/// The model of a component of ground facts: the facts are true and nothing
/// else is, as the grounding and the well-founded evaluation would say (a
/// fact-only program is trivially locally stratified).  The grounding's rule
/// budget still applies: one ground rule per distinct fact.
fn settle_facts(
    heads: impl Iterator<Item = Term>,
    opts: EvalOptions,
) -> Result<Model, EngineError> {
    let model = Model::from_true_atoms(heads);
    check_rule_budget(model.base().len(), opts)?;
    Ok(model)
}

/// The (total) model of a lowest component that has proper rules, or the
/// reason it is rejected.  A component that aggregates through itself (the
/// parts explosion) is settled by the aggregate evaluator: after the
/// reduction its rules read only the component's own names, and the tabled
/// evaluator settles every group it folds, reporting a cycle through
/// aggregation.  Any other component is instantiated and its ground atom
/// graph condensed.
fn settle_component(
    rules: Vec<Rule>,
    names: &[String],
    opts: EvalOptions,
) -> Result<Result<Model, String>, EngineError> {
    let program = Program::from_rules(rules);
    if program.iter().any(Rule::has_aggregate) {
        return match evaluate_aggregate_program(&program, opts) {
            Ok(settled) => Ok(Ok(settled.model)),
            Err(
                e @ (EngineError::NotModularlyStratified(_)
                | EngineError::Floundering(_)
                | EngineError::Unsupported(_)),
            ) => Ok(Err(format!(
                "the aggregation of the lowest component {names:?} cannot be settled: {e}"
            ))),
            Err(other) => Err(other),
        };
    }
    let ground = match relevant_ground(&program, opts) {
        Ok(ground) => ground,
        Err(EngineError::Floundering(msg)) => {
            return Ok(Err(format!(
                "lowest component cannot be instantiated bottom-up: {msg}"
            )))
        }
        Err(other) => return Err(other),
    };
    Ok(stratified_eval(&ground)?.ok_or_else(|| {
        format!("the reduction of the lowest component {names:?} is not locally stratified")
    }))
}

fn has_variable_name(lit: &Literal) -> bool {
    lit.dependency().is_some_and(|(a, _)| !a.name().is_ground())
}

fn rule_has_variable_predicate_name(rule: &Rule) -> bool {
    !rule.head.name().is_ground() || rule.body.iter().any(has_variable_name)
}

/// The HiLog reduction of a set of rules modulo a (total) model for the
/// settled predicates (Definition 6.5).
///
/// Each rule's plan is walked depth first over one [`Frame`], each time
/// resolving the first literal in body order that can be resolved now: a
/// settled positive literal joins the model's true atoms (sought by
/// predicate name, never scanned whole); a settled negative literal once
/// ground, and a builtin once both sides are ground, delete themselves or
/// the instance (a builtin that errs stays); a settled aggregate is folded
/// over the model.  A binding may settle a literal's name.  When nothing
/// more resolves, the head and the unresolved literals are emitted under the
/// bindings, so the outcome does not depend on the order of the body.  A
/// settled negative literal still non-ground then cannot be resolved, and
/// the reduction conservatively reports failure.
///
/// A failure is [`EngineError::NotModularlyStratified`] with the reason the
/// program is rejected; any other error (a passed deadline) is not a
/// verdict.
fn hilog_reduce(
    rules: &[Rule],
    settled: &BTreeSet<Term>,
    model: &Model,
    opts: EvalOptions,
) -> Result<Vec<Rule>, EngineError> {
    let mut out: Vec<Rule> = Vec::new();
    let mut seen: TermSet<Rule> = TermSet::default();
    for rule in rules {
        let plan = RulePlan::compile(rule);
        Reduction {
            settled,
            model,
            opts,
            plan: &plan,
            frame: plan.frame(),
            resolved: vec![false; rule.body.len()],
            instantiations: 0,
            out: &mut out,
            seen: &mut seen,
        }
        .walk()?;
    }
    Ok(out)
}

/// One rule's reduction in progress.
struct Reduction<'a> {
    settled: &'a BTreeSet<Term>,
    model: &'a Model,
    opts: EvalOptions,
    plan: &'a RulePlan,
    frame: Frame,
    /// Which body literals the walk has resolved.
    resolved: Vec<bool>,
    /// The partial instantiations made so far, against `opts.max_atoms`.
    instantiations: usize,
    out: &'a mut Vec<Rule>,
    seen: &'a mut TermSet<Rule>,
}

impl Reduction<'_> {
    /// Whether the atom `pat` stands for has a settled name under the
    /// bindings: a name the rule spells is read off the pattern, with no
    /// atom built.
    fn is_settled(&self, pat: &Pat) -> bool {
        let name = match pat {
            Pat::App(name, _) => self.frame.instantiate(name),
            atom => self.frame.instantiate(atom).name().clone(),
        };
        name.is_ground() && self.settled.contains(&name)
    }

    /// One more partial instantiation: resolves the first body literal that
    /// can be resolved now, or emits the instance if none can.
    fn walk(&mut self) -> Result<(), EngineError> {
        self.instantiations += 1;
        if self.instantiations > self.opts.max_atoms {
            return Err(EngineError::NotModularlyStratified(format!(
                "HiLog reduction of rule `{}` exceeded {} partial instantiations",
                self.plan.rule, self.opts.max_atoms
            )));
        }
        check_deadline()?;
        for at in 0..self.resolved.len() {
            if !self.resolved[at] {
                self.resolved[at] = true;
                let resolved = self.resolve(at);
                self.resolved[at] = false;
                if resolved? {
                    return Ok(());
                }
            }
        }
        self.emit()
    }

    /// Resolves literal `at` in every way it resolves under the bindings,
    /// walking on from each; `false` if it cannot be resolved yet.
    fn resolve(&mut self, at: usize) -> Result<bool, EngineError> {
        let (plan, model) = (self.plan, self.model);
        let ready = match &plan.body[at] {
            Step::Pos(pat) | Step::Aggregate(pat) => self.is_settled(pat),
            Step::Neg(pat) => self.is_settled(pat) && self.frame.instantiate(pat).is_ground(),
            Step::Builtin(_, left, right) => {
                self.frame.instantiate(left).is_ground()
                    && self.frame.instantiate(right).is_ground()
            }
        };
        if !ready {
            return Ok(false);
        }
        match &plan.body[at] {
            Step::Pos(pat) => {
                let atom = self.frame.instantiate(pat);
                if atom.is_ground() {
                    if model.is_true(&atom) {
                        self.walk()?;
                    }
                    return Ok(true);
                }
                for candidate in model.true_candidates(&atom) {
                    let mark = self.frame.mark();
                    if self.frame.unify_pat(pat, candidate) {
                        self.walk()?;
                    }
                    self.frame.undo(mark);
                }
            }
            Step::Neg(pat) => {
                if !model.is_true(&self.frame.instantiate(pat)) {
                    self.walk()?;
                }
            }
            Step::Builtin(op, left, right) => {
                let mark = self.frame.mark();
                match self.frame.eval_builtin(plan, *op, left, right) {
                    Ok(true) => self.walk()?,
                    Ok(false) => {}
                    Err(_) => return Ok(false),
                }
                self.frame.undo(mark);
            }
            Step::Aggregate(pat) => {
                let pattern = self.frame.instantiate(pat);
                let Literal::Aggregate(agg) = &plan.rule.body[at] else {
                    unreachable!("an aggregate step compiles an aggregate literal")
                };
                // A fold the operator cannot perform is a reason to reject,
                // like any other failed reduction.
                let theta = self.frame.bindings(plan);
                let solutions =
                    solve_aggregate(&plan.rule, agg, &theta, model.true_candidates(&pattern))
                        .map_err(|e| EngineError::NotModularlyStratified(e.to_string()))?;
                for extended in solutions {
                    let mark = self.frame.mark();
                    self.frame.absorb_rule(plan, &extended);
                    self.walk()?;
                    self.frame.undo(mark);
                }
            }
        }
        Ok(true)
    }

    /// Emits the instance: the head and the unresolved literals under the
    /// bindings.
    fn emit(&mut self) -> Result<(), EngineError> {
        let (plan, theta) = (self.plan, self.frame.bindings(self.plan));
        let rule = &plan.rule;
        let body = (rule.body.iter().zip(&plan.body).zip(&self.resolved))
            .filter(|(_, done)| !**done)
            .map(|((lit, step), _)| match step {
                Step::Neg(pat) if self.is_settled(pat) => {
                    Err(EngineError::NotModularlyStratified(format!(
                        "cannot reduce the non-ground settled negative literal `{}` of rule \
                         `{rule}`",
                        lit.apply(&theta)
                    )))
                }
                _ => Ok(lit.apply(&theta)),
            })
            .collect::<Result<_, _>>()?;
        let reduced = Rule::new(theta.apply(&rule.head), body);
        if self.seen.insert(reduced.clone()) {
            self.out.push(reduced);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::HiLogDb;
    use hilog_core::Truth;
    use hilog_syntax::{parse_program, parse_term};

    fn run(text: &str) -> ModularOutcome {
        HiLogDb::new(parse_program(text).unwrap())
            .check_modular()
            .unwrap()
            .clone()
    }

    fn t(s: &str) -> Term {
        parse_term(s).unwrap()
    }

    #[test]
    fn example_6_1_acyclic_game_is_modularly_stratified() {
        let out = run("winning(X) :- move(X, Y), not winning(Y).\n\
                       move(a, b). move(b, c). move(a, c).");
        assert!(out.modularly_stratified, "{:?}", out.reason);
        let m = out.model.unwrap();
        assert!(m.is_total());
        assert_eq!(m.truth(&t("winning(b)")), Truth::True);
        assert_eq!(m.truth(&t("winning(a)")), Truth::True);
        assert_eq!(m.truth(&t("winning(c)")), Truth::False);
        // Two rounds: the move component, then the winning component.
        assert_eq!(out.rounds.len(), 2);
    }

    #[test]
    fn cyclic_game_is_rejected() {
        let out = run("winning(X) :- move(X, Y), not winning(Y).\n\
                       move(a, b). move(b, a).");
        assert!(!out.modularly_stratified);
        assert!(out.reason.unwrap().contains("locally stratified"));
    }

    #[test]
    fn example_6_3_hilog_game_is_modularly_stratified() {
        let text = "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                    game(move1). game(move2).\n\
                    move1(a, b). move1(b, c).\n\
                    move2(x, y). move2(y, z).";
        let out = run(text);
        assert!(out.modularly_stratified, "{:?}", out.reason);
        let m = out.model.unwrap();
        assert_eq!(m.truth(&t("winning(move1)(a)")), Truth::False);
        assert_eq!(m.truth(&t("winning(move1)(b)")), Truth::True);
        assert_eq!(m.truth(&t("winning(move2)(x)")), Truth::False);
        assert_eq!(m.truth(&t("winning(move2)(y)")), Truth::True);
        // The model coincides with the HiLog well-founded model (Theorem 6.1).
        let mut db = HiLogDb::new(parse_program(text).unwrap());
        let wfm = db.model().unwrap();
        for atom in wfm.base() {
            assert_eq!(m.truth(atom), wfm.truth(atom), "{atom}");
        }
    }

    #[test]
    fn example_6_3_hilog_game_with_cyclic_member_is_rejected() {
        let out = run("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                       game(move1). move1(a, b). move1(b, a).");
        assert!(!out.modularly_stratified);
    }

    #[test]
    fn example_6_4_two_valued_but_not_modularly_stratified() {
        let out = run("p(X) :- t(X, Y, Z, P), not p(Y), not p(Z).\n\
                       t(a, b, a, p).\n\
                       t(c, a, b, p).\n\
                       p(b) :- t(X, Y, b, P).");
        assert!(!out.modularly_stratified);
        assert!(out.reason.unwrap().contains("locally stratified"));
    }

    #[test]
    fn example_6_5_late_instantiation_to_settled_name_is_rejected() {
        // aux depends negatively on winning(move1); the variable-headed rule
        // X :- aux(X) therefore only becomes instantiable after move1 has
        // been settled (as empty), and the procedure rejects the program.
        let out = run("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                       game(move1). move1(a, b).\n\
                       X :- aux(X).\n\
                       aux(move1(b, c)) :- not winning(move1)(a).");
        assert!(!out.modularly_stratified);
        assert!(out.reason.unwrap().contains("already settled"));
    }

    #[test]
    fn benign_variable_head_is_accepted() {
        // The variable-headed rule instantiates early (q is settled in the
        // first round), so the program is modularly stratified.
        let out = run("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                       X :- q(X).\n\
                       game(move1). q(move1(a, b)). q(move1(b, c)).");
        assert!(out.modularly_stratified, "{:?}", out.reason);
        let m = out.model.unwrap();
        assert_eq!(m.truth(&t("move1(a, b)")), Truth::True);
        assert_eq!(m.truth(&t("winning(move1)(b)")), Truth::True);
        assert_eq!(m.truth(&t("winning(move1)(a)")), Truth::False);
    }

    #[test]
    fn stratified_normal_program_is_modularly_stratified() {
        let text = "p(X) :- q(X), not r(X).\n\
                    q(a). q(b). r(b).";
        assert!(parse_program(text).unwrap().is_normal());
        let out = run(text);
        assert!(out.modularly_stratified);
        let m = out.model.unwrap();
        assert_eq!(m.truth(&t("p(a)")), Truth::True);
        assert_eq!(m.truth(&t("p(b)")), Truth::False);
    }

    #[test]
    fn lemma_6_2_agreement_on_normal_programs() {
        // For normal programs the procedure accepts exactly when the
        // conventional component-by-component definition does; spot-check a
        // modularly stratified (win-move, acyclic) and a non-modularly
        // stratified (win-move, cyclic) instance, comparing against the
        // two-valuedness of the well-founded model as a sanity bound.
        let acyclic = "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).";
        let cyclic = "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, a).";
        assert!(run(acyclic).modularly_stratified);
        assert!(!run(cyclic).modularly_stratified);
    }

    #[test]
    fn parts_explosion_aggregate_component_is_reducible() {
        // A one-level parts explosion where the aggregate's pattern relation
        // is settled before the aggregate rule: reduction evaluates the sum.
        let out = run("in(bike, wheel, 2).\n\
                       in(bike, frame, 1).\n\
                       total(X, N) :- item(X), N = sum(P, in(X, Y, P)).\n\
                       item(bike).");
        assert!(out.modularly_stratified, "{:?}", out.reason);
        let m = out.model.unwrap();
        assert_eq!(m.truth(&t("total(bike, 3)")), Truth::True);
    }

    #[test]
    fn a_component_that_aggregates_and_negates_is_rejected_not_an_error() {
        let out = run("c(X, N) :- item(X), not d(X), N = sum(P, c(X, P)).\n\
                       d(X) :- item(X), not c(X, 1).\n\
                       item(a).");
        assert!(!out.modularly_stratified);
        let reason = out.reason.unwrap();
        assert!(
            reason.contains("[\"c\", \"d\"]") && reason.contains("negation"),
            "{reason}"
        );
    }

    fn round_names(out: &ModularOutcome) -> Vec<Vec<String>> {
        let names = |round: &Vec<Term>| round.iter().map(|t| t.to_string()).collect();
        out.rounds.iter().map(names).collect()
    }

    #[test]
    fn examples_6_1_and_6_3_settle_their_facts_in_the_first_round() {
        let out = run("winning(X) :- move(X, Y), not winning(Y).\n\
                       move(a, b). move(b, c). move(a, c).");
        assert_eq!(round_names(&out), [vec!["move"], vec!["winning"]]);
        let out = run("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                       game(move1). game(move2).\n\
                       move1(a, b). move1(b, c).\n\
                       move2(x, y). move2(y, z).");
        assert_eq!(
            round_names(&out),
            [
                vec!["game", "move1", "move2"],
                vec!["winning(move1)", "winning(move2)"]
            ]
        );
    }

    #[test]
    fn the_verdict_does_not_depend_on_body_literal_order() {
        // A stratified program, so Figure 1 must accept it (Lemma 6.2)
        // whichever way its body is written.
        let facts = "r(a). r(b). q(a).";
        let negation_first = run(&format!("p(X) :- not q(X), r(X). {facts}"));
        let negation_last = run(&format!("p(X) :- r(X), not q(X). {facts}"));
        assert!(
            negation_first.modularly_stratified,
            "{:?}",
            negation_first.reason
        );
        assert!(
            negation_last.modularly_stratified,
            "{:?}",
            negation_last.reason
        );
        assert_eq!(negation_first.rounds, negation_last.rounds);
        assert_eq!(negation_first.model, negation_last.model);
        let model = negation_first.model.unwrap();
        let truths: Vec<String> = model.true_atoms().iter().map(|a| a.to_string()).collect();
        assert_eq!(truths, ["p(b)", "q(a)", "r(a)", "r(b)"]);
        assert!(model.is_total());
        // A settled negative literal nothing in the body binds is still
        // rejected.
        let out = run("p(X) :- t(X), not q(X, Y). t(a). q(a, b).");
        assert!(!out.modularly_stratified);
        assert!(out
            .reason
            .unwrap()
            .contains("cannot reduce the non-ground settled negative"));
    }

    #[test]
    fn a_literal_named_by_a_later_binding_is_reduced_too() {
        // `R(X, Y)` is only settled once `rel(R)` has bound `R`; it must
        // still be joined, not left in the reduced rule.
        let bound_first = run("reach(R)(X, Y) :- rel(R), R(X, Y). rel(e). e(a, b).");
        let bound_last = run("reach(R)(X, Y) :- R(X, Y), rel(R). rel(e). e(a, b).");
        assert!(bound_first.modularly_stratified, "{:?}", bound_first.reason);
        assert_eq!(round_names(&bound_first), round_names(&bound_last));
        assert_eq!(bound_first.model, bound_last.model);
        assert_eq!(
            bound_first.model.unwrap().truth(&t("reach(e)(a, b)")),
            Truth::True
        );
    }

    /// Each rule's reduction (the reduced rules in order, or the error)
    /// modulo a fixed settled set and model.
    fn reduce(rules: &[&str], opts: EvalOptions) -> Vec<Result<Vec<String>, String>> {
        let settled: BTreeSet<Term> = ["e", "q", "r", "cost", "rel", "item", "in"]
            .iter()
            .map(Term::sym)
            .collect();
        let model = Model::from_true_atoms(
            parse_program(
                "e(a, b). e(b, c). q(a). q(b). r(b). cost(a, 3). cost(b, 5). rel(e). \
                 item(bike). in(bike, wheel, 2). in(bike, frame, 1).",
            )
            .unwrap()
            .iter()
            .map(|r| r.head.clone()),
        );
        let reduced = |rule: &&str| {
            let rule = parse_program(rule).unwrap().rules[0].clone();
            match hilog_reduce(&[rule], &settled, &model, opts) {
                Ok(rules) => Ok(rules.iter().map(|r| r.to_string()).collect()),
                Err(EngineError::NotModularlyStratified(reason)) => Err(reason),
                Err(other) => panic!("{other}"),
            }
        };
        rules.iter().map(reduced).collect()
    }

    #[test]
    fn the_reduction_reduces_as_the_branch_reduction_did() {
        // Every row was read off the reduction over branches of cloned
        // substitutions, with its second pass, that the plan walk replaced.
        let ok = |rules: &[&str]| Ok(rules.iter().map(|r| r.to_string()).collect());
        let rows: Vec<(&str, Result<Vec<String>, String>)> =
            vec![
            // A ground settled positive, true and false.
            ("h(X) :- q(a), u(X).", ok(&["h(X) :- u(X)."])),
            ("h(X) :- q(c), u(X).", ok(&[])),
            // A non-ground settled positive joins the model.
            (
                "h(X) :- q(X), u(X).",
                ok(&["h(a) :- u(a).", "h(b) :- u(b)."]),
            ),
            // A settled negative bound by a later positive.
            ("h(X) :- not r(X), q(X), u(X).", ok(&["h(a) :- u(a)."])),
            // A builtin bound late.
            (
                "h(X, N) :- N > 4, cost(X, N), u(X).",
                ok(&["h(b, 5) :- u(b)."]),
            ),
            // A builtin that errs on ground operands stays in the body.
            (
                "h(X) :- q(X), X > 1, u(X).",
                ok(&["h(a) :- a > 1, u(a).", "h(b) :- b > 1, u(b)."]),
            ),
            // An `is` whose left side nothing binds stays in the body.
            (
                "h(X, N) :- cost(X, P), N is P * 2, u(N).",
                ok(&[
                    "h(a, N) :- N is '*'(3, 2), u(N).",
                    "h(b, N) :- N is '*'(5, 2), u(N).",
                ]),
            ),
            // A variable name bound to a settled name, before and after.
            (
                "reach(R)(X, Y) :- R(X, Y), rel(R).",
                ok(&["reach(e)(a, b).", "reach(e)(b, c)."]),
            ),
            (
                "reach(R)(X, Y) :- rel(R), R(X, Y), u(X).",
                ok(&["reach(e)(a, b) :- u(a).", "reach(e)(b, c) :- u(b)."]),
            ),
            // A variable name nothing binds stays, and so does an unsettled
            // literal.
            ("h(X) :- P(X), u(X).", ok(&["h(X) :- P(X), u(X)."])),
            // Settled `sum` and `count` aggregates.
            (
                "total(X, N) :- item(X), N = sum(P, in(X, Y, P)).",
                ok(&["total(bike, 3)."]),
            ),
            (
                "deg(X, N) :- N = count(Y, e(X, Y)), u(X).",
                ok(&["deg(a, 1) :- u(a).", "deg(b, 1) :- u(b)."]),
            ),
            (
                "bad(N) :- N = sum(X, q(X)).",
                Err("unsupported: aggregate `N = sum(X, q(X))` collected the non-integer value \
                     `a`"
                    .into()),
            ),
            // Equal instances are emitted once.
            ("h :- q(X), u(z).", ok(&["h :- u(z)."])),
            // A settled negative literal only an unsettled one binds.
            (
                "h(X) :- u(X), not e(X, Y).",
                Err("cannot reduce the non-ground settled negative literal `not e(X, Y)` of \
                     rule `h(X) :- u(X), not e(X, Y).`"
                    .into()),
            ),
        ];
        let (rules, expected): (Vec<&str>, Vec<_>) = rows.into_iter().unzip();
        for ((rule, got), want) in rules
            .iter()
            .zip(reduce(&rules, EvalOptions::default()))
            .zip(expected)
        {
            assert_eq!(got, want, "{rule}");
        }
        // The budget on partial instantiations.
        let budget = EvalOptions::with_max_atoms(3);
        assert_eq!(
            reduce(
                &["h(X) :- q(X).", "h(X, Y) :- q(X), e(Y, Z), u(Z)."],
                budget
            ),
            [
                ok(&["h(a).", "h(b)."]),
                Err(
                    "HiLog reduction of rule `h(X, Y) :- q(X), e(Y, Z), u(Z).` exceeded 3 \
                     partial instantiations"
                        .into()
                )
            ]
        );
    }

    #[test]
    fn settled_rounds_are_reported_in_order() {
        let out = run("a(X) :- b(X), not c(X).\n\
                       c(X) :- d(X).\n\
                       b(1). b(2). d(2).");
        assert!(out.modularly_stratified);
        // b and d are settled before c, which is settled before a.
        let flat: Vec<String> = out.rounds.iter().flatten().map(|t| t.to_string()).collect();
        let pos = |name: &str| flat.iter().position(|x| x == name).unwrap();
        assert!(pos("b") < pos("a"));
        assert!(pos("d") <= pos("c"));
        assert!(pos("c") < pos("a"));
    }
}
