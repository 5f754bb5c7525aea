//! Preservation under extensions and domain independence (Section 5).
//!
//! * **Domain independence** (Definitions 5.1 / 5.2): the semantics of `P`
//!   does not change when extra constant (and, for HiLog, function/predicate)
//!   symbols are added to the language.
//! * **Preservation under extensions** (Definitions 5.3 / 5.4): the semantics
//!   of `P` does not change when a ground program `Q` sharing no symbols with
//!   `P` is unioned with it.
//!
//! For normal programs the two notions coincide (Lemma 5.1); for HiLog
//! programs preservation under extensions is strictly stronger (Example 5.1).
//! Both notions quantify over infinitely many extensions, so this module
//! provides *checkers for a given witness*: they decide whether a particular
//! extension `Q` (or a particular set of extra symbols) changes the
//! semantics.  The property-based tests (`tests/preservation.rs`) instantiate these
//! checkers over generated families of extensions; the theorems (5.3, 5.4)
//! predict the outcome for (strongly) range-restricted programs, and the
//! paper's counterexamples are checked to fail.

use crate::error::EngineError;
use crate::grounder::relevant_ground;
use crate::horn::EvalOptions;
use crate::stable::stable_models_of_ground;
use crate::wfs::checked_well_founded_eval;
use hilog_core::herbrand::Vocabulary;
use hilog_core::interpretation::Model;
use hilog_core::program::Program;
use hilog_core::rule::Rule;
use hilog_core::term::Term;

/// The verdict of a single preservation check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreservationVerdict {
    /// `true` if the extension preserved the semantics of the original
    /// program's predicates (the extended model conservatively extends the
    /// original one).
    pub preserved: bool,
    /// Atoms generated by the original program's vocabulary whose truth value
    /// changed (or that became true/undefined without being in the original
    /// base) — the witnesses of non-preservation.
    pub violations: Vec<Term>,
}

/// Checks whether the well-founded semantics of `program` is preserved by the
/// specific ground extension `extension` (one instance of Definition 5.3).
///
/// Both programs are evaluated with relevant instantiation; the verdict
/// reports whether `wfs(P ∪ Q)` conservatively extends `wfs(P)` on the atoms
/// generated by `P`'s vocabulary.
pub fn preserved_by_extension_wfs(
    program: &Program,
    extension: &Program,
    opts: EvalOptions,
) -> Result<PreservationVerdict, EngineError> {
    if !extension.is_ground() {
        return Err(EngineError::Unsupported(
            "Definition 5.3 extensions must be ground programs".into(),
        ));
    }
    if !program.shares_no_symbols_with(extension) {
        return Err(EngineError::Unsupported(
            "Definition 5.3 extensions must share no symbols with the original program".into(),
        ));
    }
    let base_model = well_founded_model(program, opts)?;
    let union = program.union(extension);
    let union_model = well_founded_model(&union, opts)?;
    Ok(compare_models(program, &base_model, &union_model))
}

/// Checks whether the stable-model semantics of `program` is preserved by the
/// ground extension `extension` (one instance of Definition 5.4): every
/// stable model of `P` must be conservatively extended by some stable model
/// of `P ∪ Q`, provided `Q` has a stable model at all.
pub fn preserved_by_extension_stable(
    program: &Program,
    extension: &Program,
    eval: EvalOptions,
) -> Result<PreservationVerdict, EngineError> {
    if !extension.is_ground() {
        return Err(EngineError::Unsupported(
            "Definition 5.4 extensions must be ground programs".into(),
        ));
    }
    if !program.shares_no_symbols_with(extension) {
        return Err(EngineError::Unsupported(
            "Definition 5.4 extensions must share no symbols with the original program".into(),
        ));
    }
    // The definition only constrains extensions that themselves have a stable
    // model ("the stable-model semantics is not robust under union").
    let extension_models = stable_models_of_ground(&relevant_ground(extension, eval)?, eval)?;
    if extension_models.is_empty() {
        return Ok(PreservationVerdict {
            preserved: true,
            violations: Vec::new(),
        });
    }
    let base_models = stable_models_of_ground(&relevant_ground(program, eval)?, eval)?;
    let union_models =
        stable_models_of_ground(&relevant_ground(&program.union(extension), eval)?, eval)?;
    let vocab = Vocabulary::of_program(program);
    let mut violations = Vec::new();
    let mut preserved = true;
    // Surjectivity: every stable model of P must be conservatively extended
    // by some stable model of P ∪ Q.  (In particular, if P has stable models
    // but P ∪ Q has none — the situation after Theorem 5.4 — preservation
    // fails.)
    for base in &base_models {
        let found = union_models
            .iter()
            .any(|um| um.conservatively_extends(base, |atom| vocab.generates(atom)));
        if !found {
            preserved = false;
            violations.extend(base.true_atoms().iter().cloned());
        }
    }
    // Well-definedness of the map: every stable model of P ∪ Q must
    // conservatively extend some stable model of P (it must not invent new
    // information about P's predicates).
    for um in &union_models {
        let matches_some_base = base_models
            .iter()
            .any(|base| um.conservatively_extends(base, |atom| vocab.generates(atom)));
        if !matches_some_base {
            preserved = false;
            violations.extend(
                um.true_atoms()
                    .iter()
                    .filter(|a| vocab.generates(a) && !base_models.iter().any(|b| b.is_true(a)))
                    .cloned(),
            );
        }
    }
    violations.sort();
    violations.dedup();
    Ok(PreservationVerdict {
        preserved,
        violations,
    })
}

/// Checks domain independence with respect to the well-founded semantics for
/// a specific set of extra constants (one instance of Definition 5.1): the
/// extra constants are introduced through a fresh unary predicate (they must
/// appear *somewhere* to enter the Herbrand universe, exactly as in footnote
/// 3's `r(1)` example), and the models are compared on the original
/// vocabulary.
pub fn domain_independent_wfs_with_constants(
    program: &Program,
    extra_constants: &[Term],
    opts: EvalOptions,
) -> Result<PreservationVerdict, EngineError> {
    let mut extension = Program::new();
    for c in extra_constants {
        if !c.is_ground() {
            return Err(EngineError::Unsupported(
                "extra constants must be ground".into(),
            ));
        }
        extension.push(Rule::fact(Term::apps(
            "__fresh_domain_padding",
            vec![c.clone()],
        )));
    }
    let base_model = well_founded_model(program, opts)?;
    let union = program.union(&extension);
    let union_model = well_founded_model(&union, opts)?;
    Ok(compare_models(program, &base_model, &union_model))
}

/// The well-founded model of a program via relevant instantiation.
fn well_founded_model(program: &Program, opts: EvalOptions) -> Result<Model, EngineError> {
    checked_well_founded_eval(&relevant_ground(program, opts)?)
}

/// Compares the model of `P ∪ Q` against the model of `P`, collecting the
/// atoms generated by `P`'s vocabulary whose status differs.
fn compare_models(program: &Program, base: &Model, extended: &Model) -> PreservationVerdict {
    let vocab = Vocabulary::of_program(program);
    let mut violations = Vec::new();
    // Every atom of the original base must keep its truth value.
    for atom in base.base() {
        if extended.truth(atom) != base.truth(atom) {
            violations.push(atom.clone());
        }
    }
    // No new true/undefined atoms generated by P's vocabulary may appear.
    for atom in extended
        .true_atoms()
        .iter()
        .chain(extended.undefined_atoms().iter())
    {
        if vocab.generates(atom) && !base.base().contains(atom) {
            violations.push(atom.clone());
        }
    }
    violations.sort();
    violations.dedup();
    PreservationVerdict {
        preserved: violations.is_empty(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::HiLogDb;
    use hilog_syntax::parse_program;

    fn p(text: &str) -> Program {
        parse_program(text).unwrap()
    }

    #[test]
    fn example_5_1_is_not_preserved_under_extensions() {
        // P = { p :- X(Y), Y(X). }; Q = { q(r). r(q). } makes p true.
        let program = p("p :- X(Y), Y(X).");
        let extension = p("q(r). r(q).");
        let verdict =
            preserved_by_extension_wfs(&program, &extension, EvalOptions::default()).unwrap();
        assert!(!verdict.preserved);
        assert_eq!(verdict.violations, vec![Term::sym("p")]);
        // The same extension also breaks the stable-model semantics.
        let verdict_stable =
            preserved_by_extension_stable(&program, &extension, EvalOptions::default()).unwrap();
        assert!(!verdict_stable.preserved);
    }

    #[test]
    fn example_5_1_is_domain_independent() {
        // "The program of Example 5.1 is domain independent, because simply
        // adding constants to the language will not change the semantics of
        // p." — so preservation under extensions is strictly stronger.
        let program = p("p :- X(Y), Y(X).");
        let verdict = domain_independent_wfs_with_constants(
            &program,
            &[Term::sym("c1"), Term::sym("c2")],
            EvalOptions::default(),
        )
        .unwrap();
        assert!(verdict.preserved);
    }

    #[test]
    fn theorem_5_3_range_restricted_game_is_preserved() {
        // A strongly range-restricted HiLog program; adding unrelated ground
        // rules does not change the semantics of its predicates.
        let program = p("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                         game(move1). move1(a, b). move1(b, c).");
        let extension = p("salary(john, 30). dept(john, toys). bonus(john) :- salary(john, 30).");
        let verdict =
            preserved_by_extension_wfs(&program, &extension, EvalOptions::default()).unwrap();
        assert!(verdict.preserved, "violations: {:?}", verdict.violations);
        let verdict_stable =
            preserved_by_extension_stable(&program, &extension, EvalOptions::default()).unwrap();
        assert!(verdict_stable.preserved);
    }

    #[test]
    fn example_5_2_unbound_generic_tc_requires_infinitely_many_predicates() {
        // With G unbound, expanding the bodies "must check every binary
        // predicate name that can be generated by the symbols of the program,
        // an infinite set of predicates: e, tc(e), tc(tc(e)), ..." — the
        // relevant instantiation is infinite and bottom-up evaluation hits
        // the atom budget.
        let program = p("tc(G)(X, Y) :- G(X, Y).\n\
                         tc(G)(X, Y) :- G(X, Z), tc(G)(Z, Y).\n\
                         e(a, b).");
        let mut db = HiLogDb::builder()
            .program(program)
            .options(EvalOptions::with_max_atoms(120))
            .build();
        assert!(matches!(db.model(), Err(EngineError::LimitExceeded(_))));
    }

    #[test]
    fn example_5_2_guarded_generic_tc_is_preserved_and_insensitive() {
        // Binding the predicate name through a `graph` relation (the
        // alternative Example 5.2 recommends) makes the program strongly
        // range restricted; unrelated new facts then neither change its
        // predicates nor leak into the generic closure.
        let program = p("tc(G)(X, Y) :- graph(G), G(X, Y).\n\
                         tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
                         graph(e). e(a, b). e(b, c).");
        let extension = p("salary(john, 30).");
        let verdict =
            preserved_by_extension_wfs(&program, &extension, EvalOptions::default()).unwrap();
        assert!(verdict.preserved, "violations: {:?}", verdict.violations);
        let mut db = HiLogDb::new(program.union(&extension));
        let leaked = hilog_syntax::parse_term("tc(salary)(john, 30)").unwrap();
        assert!(!db.model().unwrap().is_true(&leaked));
    }

    #[test]
    fn theorem_5_4_failure_for_weakly_range_restricted_program() {
        // P = { X(a) :- X(X), not X(a). } is range restricted but not
        // strongly; Q = { r(r). }: P has a stable model, Q has a stable
        // model, but P ∪ Q has none, so preservation fails for the
        // stable-model semantics.
        let program = p("X(a) :- X(X), not X(a).");
        let extension = p("r(r).");
        let verdict =
            preserved_by_extension_stable(&program, &extension, EvalOptions::default()).unwrap();
        assert!(!verdict.preserved);
    }

    #[test]
    fn extensions_must_be_ground_and_symbol_disjoint() {
        let program = p("p :- q. q.");
        let nonground = p("r(X) :- s(X).");
        assert!(matches!(
            preserved_by_extension_wfs(&program, &nonground, EvalOptions::default()),
            Err(EngineError::Unsupported(_))
        ));
        let overlapping = p("q :- t. t.");
        assert!(matches!(
            preserved_by_extension_wfs(&program, &overlapping, EvalOptions::default()),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn extension_without_stable_models_is_vacuously_preserved() {
        // Definition 5.4 only quantifies over extensions Q having at least
        // one stable model; q :- not q destroys its own stable models.
        let program = p("p :- not r. r :- not p.");
        let extension = p("z :- not z.");
        let verdict =
            preserved_by_extension_stable(&program, &extension, EvalOptions::default()).unwrap();
        assert!(verdict.preserved);
    }

    #[test]
    fn normal_range_restricted_program_is_domain_independent() {
        // Lemma 5.1 + Theorem 4.1: range-restricted normal programs do not
        // change when constants are added.
        let program = p("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).");
        let verdict = domain_independent_wfs_with_constants(
            &program,
            &[Term::sym("zebra"), Term::int(99)],
            EvalOptions::default(),
        )
        .unwrap();
        assert!(verdict.preserved);
    }

    #[test]
    fn non_range_restricted_normal_program_fails_domain_independence() {
        // Example 4.1: p :- not q(X). q(a).  Adding an unrelated constant
        // changes the answer to ?- p (footnote 3's r(1) example).  The
        // relevant-instantiation evaluator cannot even ground it; the bounded
        // universe evaluation in the wfs tests shows the same effect, so here
        // we only check that the checker reports the floundering.
        let program = p("p :- not q(X). q(a).");
        let result = domain_independent_wfs_with_constants(
            &program,
            &[Term::sym("extra")],
            EvalOptions::default(),
        );
        assert!(matches!(result, Err(EngineError::Floundering(_))));
    }
}
