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
//! * Any other component is instantiated (relevant grounding) and handed to
//!   the well-founded evaluation's `stratified_eval`, which condenses the
//!   ground atom graph once: a negative edge inside a strongly connected
//!   component means the component is not locally stratified, and
//!   otherwise its components are settled over that same condensation.
//! * The reduction seeks the settled model by predicate name
//!   ([`Model::true_candidates`]: the model's map is ordered by name
//!   first) instead of scanning every true atom, and it deduplicates the
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

use crate::aggregate::solve_aggregate;
use crate::ambient::check_deadline;
use crate::error::EngineError;
use crate::grounder::{check_rule_budget, relevant_ground};
use crate::horn::EvalOptions;
use crate::wfs::stratified_eval;
use hilog_core::analysis::DependencyGraph;
use hilog_core::interpretation::Model;
use hilog_core::literal::Literal;
use hilog_core::program::Program;
use hilog_core::rule::Rule;
use hilog_core::subst::Substitution;
use hilog_core::term::Term;
use hilog_core::unify::match_with;
use hilog_core::TermSet;
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
        if guard > opts.max_rounds {
            return Err(EngineError::LimitExceeded(format!(
                "Figure 1 procedure exceeded {} rounds",
                opts.max_rounds
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
            let component_program =
                Program::from_rules(lowest_rules.into_iter().cloned().collect());
            let ground_component = match relevant_ground(&component_program, opts) {
                Ok(g) => g,
                Err(EngineError::Floundering(msg)) => {
                    return Ok(ModularOutcome::rejected(
                        format!("lowest component cannot be instantiated bottom-up: {msg}"),
                        rounds,
                    ))
                }
                Err(other) => return Err(other),
            };
            match stratified_eval(&ground_component) {
                Some(component_model) => component_model,
                None => {
                    return Ok(ModularOutcome::rejected(
                        format!(
                            "the reduction of the lowest component {:?} is not locally stratified",
                            lowest.iter().map(|t| t.to_string()).collect::<Vec<_>>()
                        ),
                        rounds,
                    ))
                }
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
        remaining = match hilog_reduce(&survivors, &settled, &model, opts) {
            Ok(rules) => rules,
            Err(reason) => return Ok(ModularOutcome::rejected(reason, rounds)),
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

fn has_variable_name(lit: &Literal) -> bool {
    lit.dependency().is_some_and(|(a, _)| !a.name().is_ground())
}

fn rule_has_variable_predicate_name(rule: &Rule) -> bool {
    !rule.head.name().is_ground() || rule.body.iter().any(has_variable_name)
}

/// The HiLog reduction of a set of rules modulo a (total) model for the
/// settled predicates (Definition 6.5).
///
/// Literals whose (ground) predicate name is settled are resolved against the
/// model: true positive literals instantiate the rule's variables (the model
/// is sought by predicate name, never scanned whole), false ones delete the
/// instance; negative settled literals delete the literal (if false in the
/// model) or the instance (if true).  Literals over unsettled predicates are
/// kept.  A literal the rest of the body could still bind — a settled
/// negative literal that is not yet ground, a builtin not yet evaluable, a
/// literal whose predicate name is still a variable — is kept and tried
/// again once the body has been joined, so the outcome does not depend on
/// the order of the body.  A settled negative literal that is still
/// non-ground after that cannot be resolved, and the reduction
/// conservatively reports failure.
pub fn hilog_reduce(
    rules: &[Rule],
    settled: &BTreeSet<Term>,
    model: &Model,
    opts: EvalOptions,
) -> Result<Vec<Rule>, String> {
    let reduction = Reduction {
        settled,
        model,
        opts,
    };
    let mut out: Vec<Rule> = Vec::new();
    let mut seen: TermSet<Rule> = TermSet::default();
    for rule in rules {
        for Branch { theta, kept, retry } in reduction.reduce(rule)? {
            let body: Vec<Literal> = kept.iter().map(|l| l.apply(&theta)).collect();
            if retry {
                let unresolved = body.iter().find_map(|l| match l {
                    Literal::Neg(atom) if reduction.is_settled(atom) => Some(atom),
                    _ => None,
                });
                if let Some(atom) = unresolved {
                    return Err(format!(
                        "cannot reduce the non-ground settled negative literal `not {atom}` \
                         of rule `{rule}`"
                    ));
                }
            }
            let reduced = Rule::new(theta.apply(&rule.head), body);
            if seen.insert(reduced.clone()) {
                out.push(reduced);
            }
        }
    }
    Ok(out)
}

/// A partial instantiation of a rule in [`hilog_reduce`].
struct Branch {
    /// The bindings made so far.
    theta: Substitution,
    /// The literals kept (not resolvable, or not yet), uninstantiated.
    kept: Vec<Literal>,
    /// Some kept literal could resolve once more variables are bound.
    retry: bool,
}

/// What [`hilog_reduce`] reduces modulo.
struct Reduction<'a> {
    settled: &'a BTreeSet<Term>,
    model: &'a Model,
    opts: EvalOptions,
}

impl Reduction<'_> {
    fn is_settled(&self, atom: &Term) -> bool {
        atom.name().is_ground() && self.settled.contains(atom.name())
    }

    /// The branches of `rule`'s reduction, in order: one pass over the
    /// body, then one more over the kept literals of any branch that kept a
    /// literal later bindings could resolve, until no kept literal resolves.
    fn reduce(&self, rule: &Rule) -> Result<Vec<Branch>, String> {
        let root = Branch {
            theta: Substitution::new(),
            kept: Vec::new(),
            retry: false,
        };
        let mut pending = self.pass(rule, &rule.body, root)?;
        pending.reverse();
        let mut done = Vec::new();
        while let Some(branch) = pending.pop() {
            if !branch.retry {
                done.push(branch);
                continue;
            }
            let again = Branch {
                theta: branch.theta.clone(),
                kept: Vec::new(),
                retry: false,
            };
            let again = self.pass(rule, &branch.kept, again)?;
            if again.len() == 1 && again[0].kept.len() == branch.kept.len() {
                // Nothing resolved, so nothing will.
                done.push(branch);
            } else {
                // Every literal resolved shortens `kept`, so this ends.
                pending.extend(again.into_iter().rev());
            }
        }
        Ok(done)
    }

    /// Reduces `body` left to right from `start`.
    fn pass(&self, rule: &Rule, body: &[Literal], start: Branch) -> Result<Vec<Branch>, String> {
        let mut branches = vec![start];
        for lit in body {
            let mut next: Vec<Branch> = Vec::new();
            for branch in branches {
                self.step(rule, lit, branch, &mut next)?;
                if next.len() > self.opts.max_atoms {
                    return Err(format!(
                        "HiLog reduction of rule `{rule}` exceeded {} partial instantiations",
                        self.opts.max_atoms
                    ));
                }
            }
            branches = next;
        }
        Ok(branches)
    }

    /// Resolves one literal of `rule` in one branch, pushing what survives.
    fn step(
        &self,
        rule: &Rule,
        lit: &Literal,
        branch: Branch,
        next: &mut Vec<Branch>,
    ) -> Result<(), String> {
        let keep = |mut branch: Branch, retry: bool, next: &mut Vec<Branch>| {
            branch.kept.push(lit.clone());
            branch.retry |= retry;
            next.push(branch);
        };
        let theta = &branch.theta;
        match lit.apply(theta) {
            Literal::Pos(atom) if self.is_settled(&atom) => {
                if atom.is_ground() {
                    if self.model.is_true(&atom) {
                        next.push(branch);
                    }
                    return Ok(());
                }
                for candidate in self.model.true_candidates(&atom) {
                    let mut extended = theta.clone();
                    if match_with(&atom, candidate, &mut extended) {
                        next.push(Branch {
                            theta: extended,
                            kept: branch.kept.clone(),
                            retry: branch.retry,
                        });
                    }
                }
            }
            Literal::Neg(atom) if self.is_settled(&atom) => {
                if !atom.is_ground() {
                    keep(branch, true, next);
                } else if !self.model.is_true(&atom) {
                    next.push(branch);
                }
            }
            Literal::Builtin(b) => {
                let mut extended = theta.clone();
                if b.variables().iter().all(|v| extended.get(v).is_some())
                    || b.left.is_ground() && b.right.is_ground()
                {
                    match b.eval(&mut extended) {
                        Ok(true) => next.push(Branch {
                            theta: extended,
                            ..branch
                        }),
                        Ok(false) => {}
                        // Not yet evaluable; defer.
                        Err(_) => keep(branch, true, next),
                    }
                } else {
                    keep(branch, true, next);
                }
            }
            Literal::Aggregate(agg) if self.is_settled(&agg.pattern) => {
                // Evaluate the aggregate over the settled model; a fold the
                // operator cannot perform is a reason to reject, like any
                // other failed reduction.
                let candidates = self.model.true_candidates(&agg.pattern);
                let solutions =
                    solve_aggregate(rule, &agg, theta, candidates).map_err(|e| e.to_string())?;
                next.extend(solutions.into_iter().map(|theta| Branch {
                    theta,
                    kept: branch.kept.clone(),
                    retry: branch.retry,
                }));
            }
            // Unsettled: kept for good if its predicate name is ground, tried
            // again if a later binding could settle it.
            other => keep(branch, has_variable_name(&other), next),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::HiLogDb;
    use hilog_core::interpretation::Truth;
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
