//! Instantiation (grounding) of HiLog programs.
//!
//! Section 4 of the paper extends the well-founded and stable-model
//! semantics to HiLog by instantiating rules over the (infinite) HiLog
//! Herbrand universe.  This module provides two instantiation strategies:
//!
//! * [`relevant_ground`] — *relevant instantiation*: only substitutions that
//!   make every positive body atom a member of the over-approximated
//!   true-or-undefined set are generated.  For (strongly) range-restricted
//!   programs this is exact: Observation 5.1 / Lemma 6.3 guarantee that every
//!   atom outside the relevant set is false in the well-founded model, so the
//!   omitted ground rules can never fire.
//! * [`ground_over_universe`] — literal instantiation over an explicitly
//!   enumerated (bounded) universe, used when a definition must be exercised
//!   verbatim (e.g. the non-range-restricted programs of Example 4.1).
//!
//! Relevant instantiation is the semi-naive driver ([`crate::horn`]'s
//! `saturate`) building the ground rule from every match — the head from the
//! slots, the positive body from the atoms matched — so the possibly-true
//! set and the ground rules come out of the same single join pass, into one
//! resident [`GroundProgram`] whose own atom store is the set the driver
//! saturates: `ground_from` is that, called cold by [`relevant_ground`] and
//! continued from the new fact by the session's `assert_fact`.
//! [`ground_against`] is the paper's definition written down literally,
//! kept as the reference the oracles compare against.

use crate::ambient::check_deadline;
use crate::error::EngineError;
use crate::ground::{GroundProgram, GroundRule, IdRule};
use crate::horn::{saturate, AtomStore, EvalOptions, NegationMode};
use crate::join::RulePlan;
use crate::storage::FactStore;
use hilog_core::{AtomId, Literal, Program, Rule, Substitution, Term, TermInterner, TermSet, Var};

/// Relevant instantiation of a program (negation allowed, aggregates not).
///
/// Returns the ground rules whose positive bodies are satisfiable within the
/// over-approximation of derivable atoms (the least model with negative
/// literals ignored: [`GroundProgram::possibly_true`]).  Errors with
/// [`EngineError::Floundering`] if a head or negative literal remains
/// non-ground after the positive body is bound — i.e. when the program is
/// not range restricted enough for bottom-up evaluation (Definition 5.5 /
/// 5.6).
pub fn relevant_ground(program: &Program, opts: EvalOptions) -> Result<GroundProgram, EngineError> {
    let mut ground = GroundProgram::new();
    ground_from(program, None, opts, &mut ground)?;
    Ok(ground)
}

/// The semi-naive driver with the rule instantiated at every match:
/// saturates `ground`'s atom store from `frontier` (`None` = cold, see
/// [`saturate`]) and appends the distinct instances to `ground` in
/// first-match order, each built straight from the match — the head from
/// the slots, the positive body from the atoms matched, the negative body
/// from the slots.  The rule budget counts the whole of `ground`, so a
/// continuation is capped like a cold grounding.
///
/// The rounds read the store, so instances are numbered in a scratch table
/// and renumbered onto the store's ids once it is closed.
///
/// A continuation appends exactly the instances with at least one positive
/// body atom outside the store as it stood before the frontier joined it —
/// instances the old store fully supported belong to an earlier call — so
/// appending them to that earlier call's result reproduces what a cold
/// grounding of the extended program computes.  On `Err` the grounding is
/// left unusable; discard it.
pub(crate) fn ground_from(
    program: &Program,
    frontier: Option<AtomStore>,
    opts: EvalOptions,
    ground: &mut GroundProgram,
) -> Result<(), EngineError> {
    // The driver matches an instance once per frontier atom it reads (and a
    // program may repeat a rule), so instances are deduplicated as they land.
    let mut seen: TermSet<IdRule> = TermSet::default();
    let mut scratch = TermInterner::new();
    let first = ground.id_rules.len();
    let mut store = FactStore::InMemory(std::mem::take(&mut ground.atoms));
    saturate(
        program,
        &mut store,
        frontier,
        NegationMode::Ignore,
        opts,
        &mut |m, head| {
            let negatives = m.negatives()?;
            let instance = IdRule {
                head: scratch.intern(head),
                pos: m.atoms.iter().map(|a| scratch.intern(a)).collect(),
                neg: negatives.iter().map(|a| scratch.intern(a)).collect(),
            };
            if seen.insert(instance.clone()) {
                ground.id_rules.push(instance);
                check_rule_budget(ground.id_rules.len(), opts)?;
            }
            Ok(())
        },
    )?;
    let FactStore::InMemory(atoms) = store else {
        unreachable!("the driver never changes a store's backend")
    };
    ground.atoms = atoms;
    let ids: Vec<AtomId> = (scratch.terms().iter())
        .map(|atom| ground.atoms.intern(atom))
        .collect();
    for rule in &mut ground.id_rules[first..] {
        for id in std::iter::once(&mut rule.head)
            .chain(&mut rule.pos)
            .chain(&mut rule.neg)
        {
            *id = ids[id.index()];
        }
    }
    Ok(())
}

/// The paper's definition of the relevant instantiation, literally: each
/// rule's positive body joined against a *finished* store of candidate atoms
/// (plus builtin evaluation), negative literals kept.
///
/// This is the **definitional reference**, like
/// [`crate::wfs::well_founded_of_ground`]: nothing in the engine calls it —
/// [`relevant_ground`] gets the same rules from the join pass that computes
/// the store — and the differential oracle holds the two equal as sets.
pub fn ground_against(
    program: &Program,
    candidates: &FactStore,
    opts: EvalOptions,
) -> Result<GroundProgram, EngineError> {
    let mut rules = Vec::new();
    for rule in program.iter() {
        check_deadline()?;
        RulePlan::compile(rule).join(candidates, None, NegationMode::Ignore, &mut |m| {
            rules.push(GroundRule::new(m.head()?, m.atoms.to_vec(), m.negatives()?));
            check_rule_budget(rules.len(), opts)
        })?;
    }
    Ok(GroundProgram::from_rules(rules))
}

/// The grounding's budget: at most `opts.max_atoms` ground rules.
pub(crate) fn check_rule_budget(rules: usize, opts: EvalOptions) -> Result<(), EngineError> {
    if rules > opts.max_atoms {
        return Err(EngineError::LimitExceeded(format!(
            "relevant instantiation exceeded {} ground rules",
            opts.max_atoms
        )));
    }
    Ok(())
}

/// Literal instantiation over an explicit universe: every variable of every
/// rule ranges over every term of `universe`.  Builtins are evaluated
/// (instances whose builtins fail are dropped); aggregates are rejected.
///
/// The number of instantiations of a rule is `|universe|^(number of
/// variables)`; the function errors with [`EngineError::LimitExceeded`] if
/// this exceeds `opts.max_atoms`, since the full HiLog universe is infinite
/// and only small bounded slices are meant to be used here.
pub fn ground_over_universe(
    program: &Program,
    universe: &[Term],
    opts: EvalOptions,
) -> Result<GroundProgram, EngineError> {
    let mut rules = Vec::new();
    for rule in program.iter() {
        check_deadline()?;
        let vars = rule.variables();
        // Guard against combinatorial explosion.
        let mut count: u128 = 1;
        for _ in &vars {
            count = count.saturating_mul(universe.len() as u128);
            if count > opts.max_atoms as u128 {
                return Err(EngineError::LimitExceeded(format!(
                    "instantiating rule `{rule}` over a universe of {} terms needs more than {} \
                     instances",
                    universe.len(),
                    opts.max_atoms
                )));
            }
        }
        enumerate_assignments(&vars, universe, &mut |theta| {
            rules.extend(instantiate_ground_instance(rule, theta)?);
            Ok(())
        })?;
        if rules.len() > opts.max_atoms {
            return Err(EngineError::LimitExceeded(format!(
                "universe instantiation exceeded {} ground rules",
                opts.max_atoms
            )));
        }
    }
    Ok(GroundProgram::from_rules(rules))
}

/// Instantiates one rule under a *total* assignment; returns `None` if a
/// builtin fails (the instance is simply not part of the instantiated
/// program).
fn instantiate_ground_instance(
    rule: &Rule,
    theta: &Substitution,
) -> Result<Option<GroundRule>, EngineError> {
    let head = theta.apply(&rule.head);
    debug_assert!(head.is_ground());
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for lit in &rule.body {
        match lit {
            Literal::Pos(a) => pos.push(theta.apply(a)),
            Literal::Neg(a) => neg.push(theta.apply(a)),
            Literal::Builtin(b) => {
                let mut scratch = theta.clone();
                match b.eval(&mut scratch) {
                    Ok(true) => {}
                    Ok(false) => return Ok(None),
                    // Arithmetic over non-numeric universe terms simply fails
                    // to produce an instance.
                    Err(_) => return Ok(None),
                }
            }
            Literal::Aggregate(_) => {
                return Err(EngineError::Unsupported(
                    "aggregate literals are handled by the aggregation evaluator".into(),
                ))
            }
        }
    }
    Ok(Some(GroundRule::new(head, pos, neg)))
}

fn enumerate_assignments(
    vars: &[Var],
    universe: &[Term],
    f: &mut impl FnMut(&Substitution) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    if vars.is_empty() {
        return f(&Substitution::new());
    }
    if universe.is_empty() {
        // No assignments exist; rules with variables produce no instances.
        return Ok(());
    }
    let mut indices = vec![0usize; vars.len()];
    loop {
        let theta: Substitution = vars
            .iter()
            .zip(indices.iter())
            .map(|(v, &i)| (v.clone(), universe[i].clone()))
            .collect();
        f(&theta)?;
        // Advance mixed-radix counter.
        let mut k = 0;
        loop {
            if k == vars.len() {
                return Ok(());
            }
            indices[k] += 1;
            if indices[k] < universe.len() {
                break;
            }
            indices[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horn::least_model;
    use hilog_core::{HerbrandBounds, HerbrandUniverse};
    use hilog_syntax::parse_program;
    use std::collections::BTreeSet;

    fn ground(text: &str) -> GroundProgram {
        relevant_ground(&parse_program(text).unwrap(), EvalOptions::default()).unwrap()
    }

    #[test]
    fn relevant_grounding_of_win_move() {
        let gp = ground(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             move(a, b). move(b, c).",
        );
        // Two facts + two instantiated rules (for X/a and X/b).
        assert_eq!(gp.len(), 4);
        let texts: Vec<String> = gp.rules().map(|r| r.to_string()).collect();
        assert!(texts.contains(&"winning(a) :- move(a, b), not winning(b).".to_string()));
        assert!(texts.contains(&"winning(b) :- move(b, c), not winning(c).".to_string()));
    }

    #[test]
    fn relevant_grounding_of_hilog_game() {
        let gp = ground(
            "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
             game(move1). move1(a, b). move1(b, c).",
        );
        let texts: Vec<String> = gp.rules().map(|r| r.to_string()).collect();
        assert!(texts.contains(
            &"winning(move1)(a) :- game(move1), move1(a, b), not winning(move1)(b).".to_string()
        ));
        assert!(texts.contains(
            &"winning(move1)(b) :- game(move1), move1(b, c), not winning(move1)(c).".to_string()
        ));
    }

    #[test]
    fn relevant_grounding_only_produces_supported_instances() {
        let gp = ground(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             move(a, b). irrelevant(z, w).",
        );
        // The irrelevant fact does not generate winning instances.
        assert_eq!(gp.len(), 3);
        assert_eq!(
            gp.atoms
                .interner()
                .get(&Term::apps("winning", vec![Term::sym("z")])),
            None
        );
    }

    #[test]
    fn builtins_are_resolved_during_grounding() {
        let gp = ground("big(X) :- size(X, N), N > 2. size(a, 1). size(b, 5).");
        let texts: Vec<String> = gp.rules().map(|r| r.to_string()).collect();
        assert!(texts.contains(&"big(b) :- size(b, 5).".to_string()));
        assert!(!texts.iter().any(|t| t.starts_with("big(a)")));
    }

    #[test]
    fn floundering_head_is_reported() {
        // X(a, b). cannot be grounded bottom-up (Section 6.1 / Lemma 6.3
        // remark about programs that are not strongly range restricted).
        let p = parse_program("q(c). r(X) :- q(X), not s(X, Y).").unwrap();
        let err = relevant_ground(&p, EvalOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::Floundering(_)));
        let p2 = parse_program("p(X, X, a).").unwrap();
        assert!(matches!(
            relevant_ground(&p2, EvalOptions::default()),
            Err(EngineError::Floundering(_))
        ));
    }

    #[test]
    fn aggregates_are_rejected_by_the_grounder() {
        let p = parse_program("total(N) :- N = sum(P, in(X, P)). in(a, 3).").unwrap();
        assert!(matches!(
            relevant_ground(&p, EvalOptions::default()),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn universe_grounding_of_example_4_1() {
        // p :- not q(X).  q(a).  Over the normal universe {a} there is a
        // single instance of the rule; over a HiLog slice there are many.
        let p = parse_program("p :- not q(X). q(a).").unwrap();
        let normal = HerbrandUniverse::normal(&p, HerbrandBounds::default());
        let gp = ground_over_universe(&p, normal.terms(), EvalOptions::default()).unwrap();
        assert_eq!(gp.len(), 2);
        assert!(gp.rules().any(|r| r.to_string() == "p :- not q(a)."));

        let hilog = HerbrandUniverse::hilog(&p, HerbrandBounds::new(1, 0, 100));
        let gh = ground_over_universe(&p, hilog.terms(), EvalOptions::default()).unwrap();
        // One instance per universe term (p, q, a) plus the fact.
        assert_eq!(gh.len(), 4);
    }

    #[test]
    fn universe_grounding_evaluates_builtins() {
        let p = parse_program("q(X, Y) :- r(X), r(Y), X \\= Y. r(a). r(b).").unwrap();
        let u = vec![Term::sym("a"), Term::sym("b")];
        let gp = ground_over_universe(&p, &u, EvalOptions::default()).unwrap();
        // Only the two instances with distinct arguments survive, plus 2 facts.
        assert_eq!(gp.len(), 4);
    }

    #[test]
    fn universe_grounding_guards_against_explosion() {
        let p = parse_program("p(A, B, C, D, E, F) :- q(A, B, C, D, E, F).").unwrap();
        let u: Vec<Term> = (0..50).map(Term::int).collect();
        assert!(matches!(
            ground_over_universe(&p, &u, EvalOptions::with_max_atoms(10_000)),
            Err(EngineError::LimitExceeded(_))
        ));
    }

    #[test]
    fn delta_grounding_reproduces_fresh_grounding() {
        let base = "winning(X) :- move(X, Y), not winning(Y).\n\
                    move(a, b). move(b, c).";
        let mut program = parse_program(base).unwrap();
        let mut patched = relevant_ground(&program, EvalOptions::default()).unwrap();

        let fact = Term::apps("move", vec![Term::sym("c"), Term::sym("d")]);
        program.push(hilog_core::Rule::fact(fact.clone()));
        patched.push(GroundRule::fact(fact.clone()));
        ground_from(
            &program,
            Some(AtomStore::from_atoms([fact])),
            EvalOptions::default(),
            &mut patched,
        )
        .unwrap();
        let fresh = relevant_ground(&program, EvalOptions::default()).unwrap();
        let patched_set: BTreeSet<_> = patched.rules().collect();
        let fresh_set: BTreeSet<_> = fresh.rules().collect();
        assert_eq!(patched_set, fresh_set);
        assert_eq!(
            patched.len(),
            fresh.len(),
            "old ∪ delta repeated an instance"
        );
        let heads: BTreeSet<_> = fresh.rules().map(|r| r.head).collect();
        let possibly: BTreeSet<_> = patched.possibly_true().iter().cloned().collect();
        assert_eq!(
            possibly, heads,
            "the continued store is not the rules' heads"
        );
    }

    #[test]
    fn empty_frontier_grounds_nothing() {
        let program = parse_program("p(X) :- q(X). q(a).").unwrap();
        let mut ground = GroundProgram::new();
        ground.atoms = least_model(&program, NegationMode::Ignore, EvalOptions::default()).unwrap();
        ground_from(
            &program,
            Some(AtomStore::new()),
            EvalOptions::default(),
            &mut ground,
        )
        .unwrap();
        assert!(ground.is_empty());
    }

    #[test]
    fn grounding_joins_nothing_the_least_model_does_not() {
        // Count pin, no clock: the instances come out of the joins that
        // compute the possibly-true store, so a cold grounding moves the
        // probe counters by exactly what the least model alone moves them —
        // and its store is that least model, its rules the definitional ones.
        let mut text = String::from(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             tc(X, Y) :- move(X, Y).\n\
             tc(X, Y) :- move(X, Z), tc(Z, Y).\n",
        );
        for i in 0..40 {
            text.push_str(&format!("move(n{}, n{}).\n", i, i + 1));
        }
        let program = parse_program(&text).unwrap();
        let opts = EvalOptions::default();
        let counted = |run: &mut dyn FnMut()| {
            let before = crate::ambient::counters();
            run();
            let counted = crate::ambient::counters() - before;
            (counted.index_probes, counted.index_fallback_scans)
        };
        let mut model = AtomStore::new();
        let model_cost = counted(&mut || {
            model = least_model(&program, NegationMode::Ignore, opts).unwrap();
        });
        let mut db = crate::session::HiLogDb::builder()
            .program(program.clone())
            .options(opts)
            .storage(crate::storage::StorageConfig::InMemory)
            .build();
        let mut ground = GroundProgram::new();
        let ground_cost = counted(&mut || ground = db.ground_program().unwrap().clone());
        assert!(model_cost.0 > 0, "the chain joins through the indexes");
        assert_eq!(ground_cost, model_cost, "grounding joined on its own");
        assert!(ground.possibly_true().iter().eq(model.iter()));
        let reference = ground_against(&program, &FactStore::InMemory(model), opts).unwrap();
        let fused: BTreeSet<_> = ground.rules().collect();
        assert_eq!(fused, reference.rules().collect::<BTreeSet<_>>());
        assert_eq!(ground.len(), reference.len());
    }

    #[test]
    fn empty_universe_produces_only_ground_rule_instances() {
        let p = parse_program("p :- not q(X). s.").unwrap();
        let gp = ground_over_universe(&p, &[], EvalOptions::default()).unwrap();
        // The rule has a variable and produces no instances; the fact stays.
        assert_eq!(gp.len(), 1);
    }
}
