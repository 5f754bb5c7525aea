//! Lemma 6.3 (Datahilog finiteness) and the Section 2 universal-relation
//! transformation (including the Section 6 warning that it destroys the
//! stratification structure).

use hilog_core::analysis::is_stratified;
use hilog_core::interpretation::Model;
use hilog_core::restriction::{is_datahilog, is_strongly_range_restricted};
use hilog_core::universal::{decode_atom, universal_transform};
use hilog_engine::{least_model, EngineError, EvalOptions, HiLogDb, NegationMode};
use hilog_syntax::parse_program;
use hilog_workloads::{chain, hilog_game_program, random_dag};
use proptest::prelude::*;

/// Well-founded model through the session facade.
fn wfs(program: &hilog_core::Program) -> Result<Model, EngineError> {
    Ok(HiLogDb::new(program.clone()).model()?.clone())
}

/// Lemma 6.3: for strongly range-restricted Datahilog programs, the set of
/// atoms not made false by the well-founded semantics is finite — so
/// relevant-instantiation evaluation terminates without hitting any limit.
#[test]
fn lemma_6_3_datahilog_evaluation_terminates() {
    // The Datahilog version of the game program (Definition 6.7's example).
    let mut text = String::from(
        "winning(M, X) :- game(M), M(X, Y), not winning(M, Y).\n\
         game(move1). game(move2).\n",
    );
    for (u, v) in random_dag(40, 2.0, 17) {
        text.push_str(&format!("move1(p{u}, p{v}).\n"));
    }
    for (u, v) in chain(20) {
        text.push_str(&format!("move2(q{u}, q{v}).\n"));
    }
    let program = parse_program(&text).unwrap();
    assert!(is_datahilog(&program));
    assert!(is_strongly_range_restricted(&program));
    let model = wfs(&program).unwrap();
    // Finite and total: every non-false atom is among the finitely many
    // constructible flat atoms.
    assert!(model.is_total());
    assert!(!model.true_atoms().is_empty());
}

/// The contrast in Lemma 6.3's closing remark: `tc(G)(X, Y) :- graph(G), ...`
/// is *not* Datahilog (nested predicate names), while the flattened
/// `tc(G, X, Y)` version is.
#[test]
fn datahilog_classification_of_the_closure_programs() {
    let nested = parse_program(
        "tc(G)(X, Y) :- graph(G), G(X, Y).\n\
         tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
         graph(e). e(a, b).",
    )
    .unwrap();
    assert!(!is_datahilog(&nested));
    let flat = parse_program(
        "tc(G, X, Y) :- graph(G), G(X, Y).\n\
         tc(G, X, Y) :- graph(G), G(X, Z), tc(G, Z, Y).\n\
         graph(e). e(a, b).",
    )
    .unwrap();
    assert!(is_datahilog(&flat));
    // Both evaluate to the same closure, spelled differently.
    let m_nested = wfs(&nested).unwrap();
    let m_flat = wfs(&flat).unwrap();
    assert!(m_nested.is_true(&hilog_syntax::parse_term("tc(e)(a, b)").unwrap()));
    assert!(m_flat.is_true(&hilog_syntax::parse_term("tc(e, a, b)").unwrap()));
}

/// `X(a, b).` — the paper's witness that Lemma 6.3 needs *strong* range
/// restriction: the program is range restricted but its non-false atoms are
/// not finitely enumerable bottom-up (the head name is unconstrained).
#[test]
fn lemma_6_3_fails_without_strong_range_restriction() {
    let program = parse_program("X(a, b).").unwrap();
    assert!(hilog_core::restriction::is_range_restricted_hilog(&program));
    assert!(!is_strongly_range_restricted(&program));
    assert!(matches!(wfs(&program), Err(EngineError::Floundering(_))));
}

/// Section 2: the least model of the universal-relation image corresponds,
/// atom for atom, to the least model of the original negation-free program.
#[test]
fn universal_transformation_preserves_least_models() {
    let program = parse_program(
        "tc(G)(X, Y) :- graph(G), G(X, Y).\n\
         tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
         graph(e). e(a, b). e(b, c).",
    )
    .unwrap();
    let direct = least_model(&program, NegationMode::Forbid, EvalOptions::default()).unwrap();
    let transformed = universal_transform(&program).unwrap();
    let image = least_model(&transformed, NegationMode::Forbid, EvalOptions::default()).unwrap();
    // Every call(...) atom decodes to an atom of the direct model, and vice
    // versa every direct atom has an encoded counterpart.
    assert_eq!(direct.len(), image.len());
    for encoded in image.iter() {
        let decoded = decode_atom(encoded).expect("every derived atom is a call atom");
        assert!(direct.contains(&decoded), "spurious atom {decoded}");
    }
    for atom in direct.iter() {
        let encoded = hilog_core::universal::encode_atom(atom);
        assert!(image.contains(&encoded), "missing atom {atom}");
    }
}

/// Section 6: the universal-relation transformation obscures the program
/// structure — a stratified program becomes unstratified, which is exactly
/// why Figure 1 works on the original program instead.
#[test]
fn universal_transformation_destroys_stratification() {
    let program = parse_program(
        "p(X) :- q(X), not r(X).\n\
         q(a). q(b). r(b).",
    )
    .unwrap();
    assert!(is_stratified(&program));
    let transformed = universal_transform(&program).unwrap();
    assert!(!is_stratified(&transformed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Encode/decode of the universal transformation round-trips on the atoms
    /// of generated game programs.
    #[test]
    fn universal_encoding_roundtrips(n in 2usize..12, seed in 0u64..500) {
        let program = hilog_game_program(&[("g", random_dag(n, 2.0, seed))]);
        for rule in program.iter() {
            let encoded = hilog_core::universal::encode_atom(&rule.head);
            prop_assert_eq!(decode_atom(&encoded), Some(rule.head.clone()));
        }
    }

    /// Datahilog flat game programs always evaluate to total, finite models
    /// (Lemma 6.3 in property form).
    #[test]
    fn datahilog_games_terminate(n in 2usize..20, seed in 0u64..500) {
        let mut text = String::from("winning(M, X) :- game(M), M(X, Y), not winning(M, Y).\ngame(g).\n");
        for (u, v) in random_dag(n, 2.0, seed) {
            text.push_str(&format!("g(p{u}, p{v}).\n"));
        }
        let program = parse_program(&text).unwrap();
        prop_assert!(is_datahilog(&program));
        let model = wfs(&program).unwrap();
        prop_assert!(model.is_total());
    }
}
