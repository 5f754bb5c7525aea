//! The stable-model semantics (Section 3.2, extended to HiLog in Section 4).
//!
//! Definition 3.6 characterises a stable model as a *two-valued fixpoint of
//! `W_P`*; the original Gelfond–Lifschitz definition via the program reduct
//! is implemented as well and used as a cross-check (`gelfond_lifschitz_check`
//! — the two characterisations must agree, which doubles as an internal
//! consistency test).
//!
//! The solver first computes the well-founded model (every stable model
//! extends it, since `W_P` is monotone), then searches over the atoms the
//! well-founded model leaves undefined, propagating with `W_P` seeded by the
//! assumptions: if `I` is contained in a stable model `M`, then
//! `W_P(I) ⊆ W_P(M) = M`, so iterating `W_P` from the assumptions yields
//! consequences that hold in every stable model extending them and prunes the
//! search soundly.

use crate::ambient::check_deadline;
use crate::error::EngineError;
use crate::ground::{GroundProgram, GroundRule};
use crate::grounder::ground_over_universe;
use crate::horn::EvalOptions;
use crate::wfs::{is_two_valued_fixpoint, well_founded_eval};
use hilog_core::interpretation::Model;
use hilog_core::program::Program;
use hilog_core::term::Term;
use std::collections::BTreeSet;

/// Options controlling the stable-model search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableOptions {
    /// Stop after this many stable models have been found.
    pub max_models: usize,
    /// Abort (with [`EngineError::LimitExceeded`]) after this many search
    /// nodes.
    pub max_nodes: usize,
}

impl Default for StableOptions {
    fn default() -> Self {
        StableOptions {
            max_models: 64,
            max_nodes: 1_000_000,
        }
    }
}

/// Enumerates the stable models of a ground program (up to
/// `opts.max_models`).
pub fn stable_models_of_ground(
    program: &GroundProgram,
    opts: StableOptions,
) -> Result<Vec<Model>, EngineError> {
    // One thread: the seed of a serial backtracking search.
    let wfm = well_founded_eval(program, 1);
    if wfm.is_total() {
        // The well-founded model is the unique stable model (Section 3.2).
        return Ok(vec![wfm]);
    }
    let undefined: Vec<Term> = wfm.undefined_atoms().iter().cloned().collect();
    let mut solver = Solver {
        program,
        rules: program.rules().collect(),
        base: wfm.base().iter().cloned().collect(),
        undefined,
        models: Vec::new(),
        nodes: 0,
        opts,
    };
    let assumed_true: BTreeSet<Term> = wfm.true_atoms().iter().cloned().collect();
    let assumed_false: BTreeSet<Term> = wfm.false_base_atoms().iter().cloned().collect();
    solver.search(assumed_true, assumed_false)?;
    Ok(solver.models)
}

struct Solver<'a> {
    program: &'a GroundProgram,
    /// The program's rules as terms, materialised once per search.
    rules: Vec<GroundRule>,
    base: Vec<Term>,
    undefined: Vec<Term>,
    models: Vec<Model>,
    nodes: usize,
    opts: StableOptions,
}

impl Solver<'_> {
    /// Iterates `W_P` seeded with the given assumptions to a fixpoint.
    /// Returns `None` if the result is inconsistent with the assumptions
    /// (some assumed-false atom becomes derivable as true, or vice versa).
    fn propagate(
        &self,
        mut true_set: BTreeSet<Term>,
        mut false_set: BTreeSet<Term>,
    ) -> Option<(BTreeSet<Term>, BTreeSet<Term>)> {
        loop {
            let mut changed = false;
            // T_P step.
            for rule in &self.rules {
                if rule.pos.iter().all(|a| true_set.contains(a))
                    && rule.neg.iter().all(|a| false_set.contains(a))
                    && !true_set.contains(&rule.head)
                {
                    if false_set.contains(&rule.head) {
                        return None;
                    }
                    true_set.insert(rule.head.clone());
                    changed = true;
                }
            }
            // U_P step: greatest unfounded set w.r.t. (true_set, false_set).
            let founded = self.founded_atoms(&true_set, &false_set);
            for atom in &self.base {
                if !founded.contains(atom) && !false_set.contains(atom) {
                    if true_set.contains(atom) {
                        return None;
                    }
                    false_set.insert(atom.clone());
                    changed = true;
                }
            }
            if !changed {
                return Some((true_set, false_set));
            }
        }
    }

    fn founded_atoms(
        &self,
        true_set: &BTreeSet<Term>,
        false_set: &BTreeSet<Term>,
    ) -> BTreeSet<Term> {
        let mut founded: BTreeSet<Term> = BTreeSet::new();
        let usable: Vec<bool> = self
            .rules
            .iter()
            .map(|r| {
                r.pos.iter().all(|a| !false_set.contains(a))
                    && r.neg.iter().all(|a| !true_set.contains(a))
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for (ri, rule) in self.rules.iter().enumerate() {
                if !usable[ri] || founded.contains(&rule.head) {
                    continue;
                }
                if rule.pos.iter().all(|a| founded.contains(a)) {
                    founded.insert(rule.head.clone());
                    changed = true;
                }
            }
        }
        founded
    }

    fn search(
        &mut self,
        assumed_true: BTreeSet<Term>,
        assumed_false: BTreeSet<Term>,
    ) -> Result<(), EngineError> {
        if self.models.len() >= self.opts.max_models {
            return Ok(());
        }
        self.nodes += 1;
        check_deadline()?;
        if self.nodes > self.opts.max_nodes {
            return Err(EngineError::LimitExceeded(format!(
                "stable-model search exceeded {} nodes",
                self.opts.max_nodes
            )));
        }
        let Some((true_set, false_set)) = self.propagate(assumed_true, assumed_false) else {
            return Ok(());
        };
        // Find the first still-undecided atom.
        let next = self
            .undefined
            .iter()
            .find(|a| !true_set.contains(*a) && !false_set.contains(*a))
            .cloned();
        match next {
            None => {
                // Total assignment: verify it is a fixpoint of W_P (and hence a
                // stable model).
                let candidate = Model::new(self.base.iter().cloned(), true_set.iter().cloned(), []);
                if is_two_valued_fixpoint(self.program, &candidate) {
                    debug_assert!(gelfond_lifschitz_check(self.program, &candidate));
                    if !self.models.contains(&candidate) {
                        self.models.push(candidate);
                    }
                }
                Ok(())
            }
            Some(atom) => {
                // Branch: atom true first, then atom false.
                let mut with_true = true_set.clone();
                with_true.insert(atom.clone());
                self.search(with_true, false_set.clone())?;
                let mut with_false = false_set;
                with_false.insert(atom);
                self.search(true_set, with_false)
            }
        }
    }
}

/// The Gelfond–Lifschitz check: `candidate` is a stable model iff the least
/// model of the reduct `P^M` (delete rules with a negative body atom true in
/// `M`; delete the remaining negative literals) equals the true atoms of `M`.
pub fn gelfond_lifschitz_check(program: &GroundProgram, candidate: &Model) -> bool {
    // Build the reduct.
    let reduct: Vec<GroundRule> = program
        .rules()
        .filter(|r| r.neg.iter().all(|a| !candidate.is_true(a)))
        .collect();
    // Least model of the (definite) reduct.
    let mut derived: BTreeSet<Term> = BTreeSet::new();
    let mut changed = true;
    while changed {
        changed = false;
        for rule in &reduct {
            if !derived.contains(&rule.head) && rule.pos.iter().all(|a| derived.contains(a)) {
                derived.insert(rule.head.clone());
                changed = true;
            }
        }
    }
    let truths: BTreeSet<Term> = candidate.true_atoms().iter().cloned().collect();
    derived == truths
}

/// Enumerates stable models of a program instantiated over an explicit
/// universe slice.
pub fn stable_models_over_universe(
    program: &Program,
    universe: &[Term],
    eval: EvalOptions,
    opts: StableOptions,
) -> Result<Vec<Model>, EngineError> {
    stable_models_of_ground(&ground_over_universe(program, universe, eval)?, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::relevant_ground;
    use crate::session::HiLogDb;
    use hilog_syntax::{parse_program, parse_term};

    fn models_with(text: &str, opts: StableOptions) -> Vec<Model> {
        HiLogDb::builder()
            .program(parse_program(text).unwrap())
            .stable_options(opts)
            .build()
            .stable_models()
            .unwrap()
            .to_vec()
    }

    fn models(text: &str) -> Vec<Model> {
        models_with(text, StableOptions::default())
    }

    fn t(s: &str) -> Term {
        parse_term(s).unwrap()
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
        let ms = stable_models_of_ground(&gp, StableOptions::default()).unwrap();
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert!(gelfond_lifschitz_check(&gp, m));
            assert!(is_two_valued_fixpoint(&gp, m));
        }
        // A non-stable total model fails both checks.
        let bogus = Model::from_true_atoms([t("p"), t("q"), t("r")]);
        assert!(!gelfond_lifschitz_check(&gp, &bogus));
        assert!(!is_two_valued_fixpoint(&gp, &bogus));
    }

    #[test]
    fn max_models_limit_is_respected() {
        // 2^3 stable models from three independent choices; ask for at most 3.
        let text = "a1 :- not b1. b1 :- not a1.\n\
                    a2 :- not b2. b2 :- not a2.\n\
                    a3 :- not b3. b3 :- not a3.";
        let ms = models_with(
            text,
            StableOptions {
                max_models: 3,
                max_nodes: 100_000,
            },
        );
        assert_eq!(ms.len(), 3);
        assert_eq!(models(text).len(), 8);
    }

    #[test]
    fn stable_models_over_bounded_universe_for_example_4_1() {
        // p :- not q(X). q(a): over the normal universe the unique stable
        // model makes p false; over a HiLog slice p is true.
        use hilog_core::herbrand::{HerbrandBounds, HerbrandUniverse};
        let p = parse_program("p :- not q(X). q(a).").unwrap();
        let normal = HerbrandUniverse::normal(&p, HerbrandBounds::default());
        let ms = stable_models_over_universe(
            &p,
            normal.terms(),
            EvalOptions::default(),
            StableOptions::default(),
        )
        .unwrap();
        assert_eq!(ms.len(), 1);
        assert!(ms[0].is_false(&t("p")));
        let hilog = HerbrandUniverse::hilog(&p, HerbrandBounds::new(1, 0, 50));
        let ms2 = stable_models_over_universe(
            &p,
            hilog.terms(),
            EvalOptions::default(),
            StableOptions::default(),
        )
        .unwrap();
        assert_eq!(ms2.len(), 1);
        assert!(ms2[0].is_true(&t("p")));
    }
}
