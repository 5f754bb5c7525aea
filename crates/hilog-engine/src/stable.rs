//! The stable-model semantics (Section 3.2, extended to HiLog in Section 4).
//!
//! Definition 3.6 characterises a stable model as a *two-valued fixpoint of
//! `W_P`*, the operator whose least fixpoint is the well-founded model, and
//! the search is built from that one operator: `wfs.rs`' `T_P` and greatest
//! unfounded set, over the grounding's atom ids.  The original
//! Gelfond–Lifschitz definition via the program reduct (Gelfond and
//! Lifschitz, ICLP 1988) is kept as the reference and as a debug
//! cross-check of every model the search accepts.
//!
//! The search starts from the well-founded model (every stable model
//! extends it, since `W_P` is monotone), then branches over the atoms it
//! leaves undefined, in term order, true first, propagating with `W_P`
//! seeded by the assumptions: if `I` is contained in a stable model `M`,
//! then `W_P(I) ⊆ W_P(M) = M`, so iterating `W_P` from the assumptions
//! yields consequences that hold in every stable model extending them and
//! prunes the search soundly.
//!
//! Every stable model is enumerated: the stable semantics of a query is the
//! consensus of all of them (Definition 3.7), and a prefix could agree where
//! the whole set does not.  Each search node counts against
//! [`EvalOptions::max_atoms`]; a search that needs more errs with
//! [`EngineError::LimitExceeded`].

use crate::ambient::check_deadline;
use crate::error::EngineError;
use crate::ground::GroundProgram;
use crate::grounder::ground_over_universe;
use crate::horn::EvalOptions;
use crate::wfs::{
    assemble_model, assignment_of, greatest_unfounded_set, is_two_valued_fixpoint, t_p,
    well_founded_assignment,
};
use hilog_core::intern::AtomId;
use hilog_core::interpretation::Model;
use hilog_core::program::Program;
use hilog_core::term::Term;

/// Enumerates every stable model of a ground program, in search order.
pub(crate) fn stable_models_of_ground(
    program: &GroundProgram,
    opts: EvalOptions,
) -> Result<Vec<Model>, EngineError> {
    let seed = well_founded_assignment(program)?;
    let base = program.mentioned();
    let interner = program.atoms.interner();
    let mut undefined: Vec<AtomId> = interner
        .iter()
        .map(|(id, _)| id)
        .filter(|id| base[id.index()] && seed[id.index()].is_none())
        .collect();
    if undefined.is_empty() {
        // The well-founded model is the unique stable model (Section 3.2).
        return Ok(vec![assemble_model(program, &seed)]);
    }
    undefined.sort_by(|&a, &b| interner.resolve(a).cmp(interner.resolve(b)));
    let mut search = Search {
        program,
        base,
        assignment: seed,
        trail: Vec::new(),
    };
    search.run(&undefined, opts.max_atoms)
}

/// A depth-first search over one assignment: every value an assumption or
/// its propagation sets goes on the trail, and backtracking unsets the
/// trail down to the choice point's mark.
struct Search<'a> {
    program: &'a GroundProgram,
    /// Per atom id, whether some rule mentions it: the atoms `W_P`'s
    /// unfounded half decides.
    base: Vec<bool>,
    /// The well-founded model plus the assumptions and their consequences.
    assignment: Vec<Option<bool>>,
    /// The atoms set since the well-founded model, in the order set.
    trail: Vec<AtomId>,
}

/// A branch point: the trail length before the atom was assumed, the
/// atom's position in the branching order, and whether its false branch
/// is the one being explored.
struct Choice {
    mark: usize,
    at: usize,
    tried_false: bool,
}

impl Search<'_> {
    /// Runs the search, branching on `order`'s atoms (the well-founded
    /// model's undefined ones), each true first, at most `budget` nodes.
    fn run(&mut self, order: &[AtomId], budget: usize) -> Result<Vec<Model>, EngineError> {
        let mut models = Vec::new();
        let mut choices: Vec<Choice> = Vec::new();
        let mut nodes = 0usize;
        loop {
            nodes += 1;
            if nodes > budget {
                return Err(EngineError::LimitExceeded(format!(
                    "stable-model search exceeded {budget} nodes"
                )));
            }
            if self.propagate()? {
                // Atoms before the last branch point are decided below it.
                let from = choices.last().map_or(0, |c| c.at + 1);
                let next =
                    (from..order.len()).find(|&at| self.assignment[order[at].index()].is_none());
                if let Some(at) = next {
                    choices.push(Choice {
                        mark: self.trail.len(),
                        at,
                        tried_false: false,
                    });
                    self.set(order[at], true);
                    continue;
                }
                // A total assignment: a stable model iff it is a fixpoint
                // of `W_P`.
                if is_two_valued_fixpoint(self.program, &self.assignment) {
                    let model = assemble_model(self.program, &self.assignment);
                    debug_assert!(gelfond_lifschitz_check(self.program, &model));
                    models.push(model);
                }
            }
            // Backtrack to the deepest choice whose false branch is left.
            loop {
                let Some(choice) = choices.last_mut() else {
                    return Ok(models);
                };
                for atom in self.trail.drain(choice.mark..) {
                    self.assignment[atom.index()] = None;
                }
                if !choice.tried_false {
                    choice.tried_false = true;
                    let atom = order[choice.at];
                    self.set(atom, false);
                    break;
                }
                choices.pop();
            }
        }
    }

    fn set(&mut self, atom: AtomId, value: bool) {
        self.assignment[atom.index()] = Some(value);
        self.trail.push(atom);
    }

    /// Iterates `W_P` from the assignment to a fixpoint, one deadline check
    /// per step.  Returns `false` if a step contradicts the assignment (an
    /// atom assumed false is derived, or one assumed true is unfounded).
    fn propagate(&mut self) -> Result<bool, EngineError> {
        let program = self.program;
        loop {
            check_deadline()?;
            let mut changed = false;
            for atom in t_p(program, &self.assignment) {
                match self.assignment[atom.index()] {
                    Some(true) => {}
                    Some(false) => return Ok(false),
                    None => {
                        self.set(atom, true);
                        changed = true;
                    }
                }
            }
            let unfounded = greatest_unfounded_set(program, &self.assignment);
            for (id, _) in program.atoms.interner().iter() {
                if !unfounded[id.index()] || !self.base[id.index()] {
                    continue;
                }
                match self.assignment[id.index()] {
                    Some(false) => {}
                    Some(true) => return Ok(false),
                    None => {
                        self.set(id, false);
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(true);
            }
        }
    }
}

/// The Gelfond–Lifschitz check, the reference for the search: `candidate`
/// is a stable model iff the least model of the reduct `P^M` (delete rules
/// with a negative body atom true in `M`; delete the remaining negative
/// literals) equals the true atoms of `M`.
pub(crate) fn gelfond_lifschitz_check(program: &GroundProgram, candidate: &Model) -> bool {
    let truth = assignment_of(program, candidate);
    let reduct: Vec<_> = program
        .id_rules
        .iter()
        .filter(|r| r.neg.iter().all(|a| truth[a.index()] == Some(false)))
        .collect();
    // Least model of the (definite) reduct.
    let mut derived = vec![false; truth.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for rule in &reduct {
            if !derived[rule.head.index()] && rule.pos.iter().all(|a| derived[a.index()]) {
                derived[rule.head.index()] = true;
                changed = true;
            }
        }
    }
    // Equal on the grounding's atoms, and no true atom outside them.
    let derived_count = derived.iter().filter(|&&d| d).count();
    derived.iter().zip(&truth).all(|(&d, &t)| t == Some(d))
        && derived_count == candidate.true_atoms().len()
}

/// Enumerates the stable models of a program instantiated over an explicit
/// universe slice.
pub fn stable_models_over_universe(
    program: &Program,
    universe: &[Term],
    eval: EvalOptions,
) -> Result<Vec<Model>, EngineError> {
    stable_models_of_ground(&ground_over_universe(program, universe, eval)?, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::relevant_ground;
    use crate::session::{HiLogDb, Semantics};
    use hilog_core::interpretation::Truth;
    use hilog_syntax::{parse_program, parse_query, parse_term};

    fn models(text: &str) -> Vec<Model> {
        HiLogDb::new(parse_program(text).unwrap())
            .stable_models()
            .unwrap()
            .to_vec()
    }

    fn t(s: &str) -> Term {
        parse_term(s).unwrap()
    }

    /// `k` independent two-position cycles of the win-move game: 2^k stable
    /// models, and a well-founded model that leaves every position
    /// undefined.
    fn two_cycles(k: usize) -> String {
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for i in 0..k {
            text.push_str(&format!("move(a{i}, b{i}). move(b{i}, a{i}).\n"));
        }
        text
    }

    #[test]
    fn example_3_2_has_two_stable_models() {
        // p :- not q.  q :- not p.  r :- p.  r :- q.  t :- p, not p.
        let ms = models("p :- not q. q :- not p. r :- p. r :- q. t :- p, not p.");
        assert_eq!(ms.len(), 2);
        // {p, r, not q, not t} and {q, r, not p, not t}.
        for m in &ms {
            assert!(m.is_total());
            assert!(m.is_true(&t("r")));
            assert!(m.is_false(&t("t")));
            assert!(m.is_true(&t("p")) ^ m.is_true(&t("q")));
        }
    }

    #[test]
    fn example_3_1_has_no_stable_models() {
        // The rule u :- not u destroys all stable models.
        let ms = models("p :- q. q :- p. r :- s, not p. s. t :- not r. u :- not u.");
        assert!(ms.is_empty());
    }

    #[test]
    fn total_wfs_is_the_unique_stable_model() {
        let text = "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).";
        let ms = models(text);
        assert_eq!(ms.len(), 1);
        assert!(ms[0].is_true(&t("winning(b)")));
        assert!(ms[0].is_false(&t("winning(a)")));
        // And it coincides with the well-founded model.
        let mut db = HiLogDb::new(parse_program(text).unwrap());
        assert_eq!(&ms[0], db.model().unwrap());
    }

    #[test]
    fn even_cycle_game_has_two_stable_models() {
        // A two-position cycle: either player can be the winner in a stable
        // model, while the well-founded model leaves both undefined.
        let ms = models("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, a).");
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert!(m.is_true(&t("winning(a)")) ^ m.is_true(&t("winning(b)")));
        }
    }

    #[test]
    fn hilog_choice_program_stable_models() {
        // Choice between two relation names through HiLog negation.
        let ms = models(
            "pick(R) :- rel(R), other(R, S), not pick(S).\n\
             rel(r1). rel(r2). other(r1, r2). other(r2, r1).",
        );
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert!(m.is_true(&t("pick(r1)")) ^ m.is_true(&t("pick(r2)")));
        }
    }

    #[test]
    fn theorem_5_4_counterexample_program() {
        // P = { X(a) :- X(X), not X(a). } is range restricted but not
        // strongly; with Q = { r(r). } the union has no stable model even
        // though P and Q separately do (Section 5, after Theorem 5.4).
        let p_alone = models("q(c).");
        assert_eq!(p_alone.len(), 1);
        let union = models("X(a) :- X(X), not X(a). r(r).");
        assert!(union.is_empty());
    }

    #[test]
    fn gelfond_lifschitz_agrees_with_fixpoint_characterisation() {
        let p = parse_program("p :- not q. q :- not p. r :- p.").unwrap();
        let gp = relevant_ground(&p, EvalOptions::default()).unwrap();
        let ms = stable_models_of_ground(&gp, EvalOptions::default()).unwrap();
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert!(gelfond_lifschitz_check(&gp, m));
            assert!(is_two_valued_fixpoint(&gp, &assignment_of(&gp, m)));
        }
        // A non-stable total model fails both checks.
        let bogus = Model::from_true_atoms([t("p"), t("q"), t("r")]);
        assert!(!gelfond_lifschitz_check(&gp, &bogus));
        assert!(!is_two_valued_fixpoint(&gp, &assignment_of(&gp, &bogus)));
    }

    #[test]
    fn every_stable_model_is_enumerated() {
        // Seven independent choices: 128 stable models, all of them found,
        // so no position is decided by the consensus (Definition 3.7).
        let text = two_cycles(7);
        let mut db = HiLogDb::builder()
            .program(parse_program(&text).unwrap())
            .semantics(Semantics::Stable)
            .build();
        assert_eq!(db.stable_models().unwrap().len(), 128);
        let query = parse_query("?- winning(a0).").unwrap();
        assert_eq!(db.query(&query).unwrap().truth, Truth::Undefined);
    }

    #[test]
    fn a_search_past_the_node_budget_errs() {
        // 2^7 leaves need more than 200 search nodes: the search errs
        // rather than answering from the models it found first.
        let program = parse_program(&two_cycles(7)).unwrap();
        let gp = relevant_ground(&program, EvalOptions::default()).unwrap();
        let result = stable_models_of_ground(&gp, EvalOptions::with_max_atoms(200));
        assert!(
            matches!(result, Err(EngineError::LimitExceeded(_))),
            "{result:?}"
        );
        let all = stable_models_of_ground(&gp, EvalOptions::default()).unwrap();
        assert_eq!(all.len(), 128);
    }

    #[test]
    fn stable_models_over_bounded_universe_for_example_4_1() {
        // p :- not q(X). q(a): over the normal universe the unique stable
        // model makes p false; over a HiLog slice p is true.
        use hilog_core::herbrand::{HerbrandBounds, HerbrandUniverse};
        let p = parse_program("p :- not q(X). q(a).").unwrap();
        let normal = HerbrandUniverse::normal(&p, HerbrandBounds::default());
        let ms = stable_models_over_universe(&p, normal.terms(), EvalOptions::default()).unwrap();
        assert_eq!(ms.len(), 1);
        assert!(ms[0].is_false(&t("p")));
        let hilog = HerbrandUniverse::hilog(&p, HerbrandBounds::new(1, 0, 50));
        let ms2 = stable_models_over_universe(&p, hilog.terms(), EvalOptions::default()).unwrap();
        assert_eq!(ms2.len(), 1);
        assert!(ms2[0].is_true(&t("p")));
    }
}
