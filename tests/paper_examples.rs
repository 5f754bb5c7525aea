//! End-to-end checks of every numbered example in the paper, exercised
//! through the public API of the workspace crates (queries and models go
//! through the `HiLogDb` session facade).

use hilog_core::{ProgramClass, Truth};
use hilog_engine::{
    least_model, well_founded_model_over_universe, EvalOptions, HiLogDb, NegationMode,
};
use hilog_syntax::{parse_program, parse_query, parse_term};

fn db(text: &str) -> HiLogDb {
    HiLogDb::new(parse_program(text).unwrap())
}

fn truth(text: &str, atom: &str) -> Truth {
    db(text).model().unwrap().truth(&parse_term(atom).unwrap())
}

/// Example 2.1: the generic transitive closure.
#[test]
fn example_2_1_generic_transitive_closure() {
    let program = parse_program(
        "tc(G)(X, Y) :- graph(G), G(X, Y).\n\
         tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
         graph(e). e(a, b). e(b, c). e(c, d).",
    )
    .unwrap();
    let model = least_model(&program, NegationMode::Forbid, EvalOptions::default()).unwrap();
    assert!(model.contains(&parse_term("tc(e)(a, d)").unwrap()));
    assert!(!model.contains(&parse_term("tc(e)(d, a)").unwrap()));
    // One may call tc(e)(X, Y) for some ground term e — and the call is a
    // range-restricted query.
    let report = ProgramClass::classify(&program);
    assert!(report.strongly_range_restricted);
}

/// Example 2.2: maplist, answered by the query-directed evaluator.
#[test]
fn example_2_2_maplist() {
    let program = parse_program(
        "maplist(F)([], []) :- fun(F).\n\
         maplist(F)([X | R], [Y | Z]) :- F(X, Y), maplist(F)(R, Z).\n\
         fun(double). double(one, two). double(two, four).",
    )
    .unwrap();
    let result = HiLogDb::new(program)
        .query(&parse_query("?- maplist(double)([one, two, one], L).").unwrap())
        .unwrap();
    assert_eq!(result.answers.len(), 1);
    assert_eq!(
        result.answers[0].binding("L").unwrap().to_string(),
        "[two, four, two]"
    );
}

/// Example 3.1: the well-founded model leaves `u` undefined and there is no
/// stable model.
#[test]
fn example_3_1_wfs_and_stable() {
    let text = "p :- q. q :- p. r :- s, not p. s. t :- not r. u :- not u.";
    assert_eq!(truth(text, "s"), Truth::True);
    assert_eq!(truth(text, "r"), Truth::True);
    assert_eq!(truth(text, "p"), Truth::False);
    assert_eq!(truth(text, "q"), Truth::False);
    assert_eq!(truth(text, "t"), Truth::False);
    assert_eq!(truth(text, "u"), Truth::Undefined);
    let models = db(text).stable_models().unwrap().to_vec();
    assert!(models.is_empty(), "u :- not u destroys all stable models");
}

/// Example 3.2: two stable models, everything undefined in the WFS.
#[test]
fn example_3_2_two_stable_models() {
    let text = "p :- not q. q :- not p. r :- p. r :- q. t :- p, not p.";
    for atom in ["p", "q", "r", "t"] {
        assert_eq!(truth(text, atom), Truth::Undefined, "{atom}");
    }
    let models = db(text).stable_models().unwrap().to_vec();
    assert_eq!(models.len(), 2);
    for m in &models {
        assert!(m.is_true(&parse_term("r").unwrap()));
        assert!(m.is_false(&parse_term("t").unwrap()));
    }
}

/// Example 4.1: the HiLog semantics differs from the normal semantics for
/// non-range-restricted programs.
#[test]
fn example_4_1_hilog_vs_normal_universe() {
    use hilog_core::{HerbrandBounds, HerbrandUniverse};
    let program = parse_program("p :- not q(X). q(a).").unwrap();
    let normal = HerbrandUniverse::normal(&program, HerbrandBounds::default());
    let m_normal =
        well_founded_model_over_universe(&program, normal.terms(), EvalOptions::default()).unwrap();
    assert_eq!(m_normal.truth(&parse_term("p").unwrap()), Truth::False);

    let hilog = HerbrandUniverse::hilog(&program, HerbrandBounds::new(2, 1, 100));
    let m_hilog =
        well_founded_model_over_universe(&program, hilog.terms(), EvalOptions::default()).unwrap();
    assert_eq!(m_hilog.truth(&parse_term("p").unwrap()), Truth::True);

    // The second program of Example 4.1: p(X, X, a) has an infinite HiLog
    // model; over the bounded slice every instantiation of X is true.
    let program2 = parse_program("p(X, X, a).").unwrap();
    let slice = HerbrandUniverse::hilog(&program2, HerbrandBounds::new(1, 0, 10));
    let m2 =
        well_founded_model_over_universe(&program2, slice.terms(), EvalOptions::default()).unwrap();
    assert!(m2.is_true(&parse_term("p(a, a, a)").unwrap()));
    assert!(m2.is_true(&parse_term("p(p, p, a)").unwrap()));
}

/// Example 5.1 is checked in `preservation.rs`; Example 5.3's classification
/// table is checked exhaustively in the core crate's unit tests.  Here we
/// re-check one representative of each class through the public API.
#[test]
fn example_5_3_classification_representatives() {
    let strongly = parse_program("tc(G, X, Y) :- graph(G), G(X, Y).").unwrap();
    let rr_only = parse_program("tc(G)(X, Y) :- G(X, Y).").unwrap();
    let not_rr = parse_program("p(X) :- X(a).").unwrap();
    assert!(ProgramClass::classify(&strongly).strongly_range_restricted);
    let rr_report = ProgramClass::classify(&rr_only);
    assert!(rr_report.range_restricted_hilog && !rr_report.strongly_range_restricted);
    let bad_report = ProgramClass::classify(&not_rr);
    assert!(!bad_report.range_restricted_hilog);
}

/// Example 6.1: the win/move game — not stratified, not locally stratified,
/// but modularly stratified when the move relation is acyclic.
#[test]
fn example_6_1_win_move() {
    let acyclic =
        parse_program("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).").unwrap();
    assert!(!hilog_core::is_stratified(&acyclic));
    let outcome = HiLogDb::new(acyclic).check_modular().unwrap().clone();
    assert!(outcome.modularly_stratified);
    assert!(outcome.model.unwrap().is_total());

    let cyclic =
        parse_program("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, a).").unwrap();
    let outcome = HiLogDb::new(cyclic).check_modular().unwrap().clone();
    assert!(!outcome.modularly_stratified);
}

/// Example 6.3: the parameterised game program, with the well-founded model,
/// the Figure 1 model and the query evaluator all agreeing.
#[test]
fn example_6_3_parameterised_game() {
    let text = "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                game(move1). game(move2).\n\
                move1(a, b). move1(b, c). move1(a, c).\n\
                move2(x, y). move2(y, z).";
    let program = parse_program(text).unwrap();
    let wfm = HiLogDb::new(program.clone()).model().unwrap().clone();
    assert!(wfm.is_total());
    let mut session = HiLogDb::new(program.clone());
    let outcome = session.check_modular().unwrap().clone();
    assert!(outcome.modularly_stratified);
    let figure1 = outcome.model.unwrap();
    for atom in wfm.base() {
        assert_eq!(figure1.truth(atom), wfm.truth(atom), "{atom}");
        if atom.to_string().starts_with("winning") {
            assert_eq!(
                session.holds(atom).unwrap().is_true(),
                wfm.is_true(atom),
                "{atom}"
            );
        }
    }
}

/// Example 6.4: total well-founded model, but not modularly stratified.
#[test]
fn example_6_4_not_modularly_stratified() {
    let text = "p(X) :- t(X, Y, Z, P), not p(Y), not p(Z).\n\
                t(a, b, a, p).\n\
                t(c, a, b, p).\n\
                p(b) :- t(X, Y, b, P).";
    let program = parse_program(text).unwrap();
    let mut session = HiLogDb::new(program);
    let wfm = session.model().unwrap().clone();
    assert!(wfm.is_total());
    assert_eq!(wfm.truth(&parse_term("p(b)").unwrap()), Truth::True);
    assert_eq!(wfm.truth(&parse_term("p(a)").unwrap()), Truth::False);
    let outcome = session.check_modular().unwrap();
    assert!(!outcome.modularly_stratified);
}

/// Example 6.6: the magic-sets rewriting of the abbreviated game program has
/// the documented shape.
#[test]
fn example_6_6_magic_rewriting_shape() {
    let program = parse_program("w(M)(X) :- g(M), M(X, Y), not w(M)(Y). g(m). m(a, b).").unwrap();
    let magic =
        hilog_engine::magic_transform(&program, &parse_query("?- w(m)(a).").unwrap()).unwrap();
    let text = magic.full_program().to_string();
    assert!(text.contains("magic(w(m)(a), '+')."));
    assert!(text.contains("magic(w(M)(Y), '-')"));
    assert!(text.contains("dn(w(M)(X), w(M)(Y))"));
    assert!(text.contains("dp(w(M)(X), g(M))"));
}

/// The parts-explosion program of Section 6 (bicycle / wheels / spokes).
#[test]
fn section_6_parts_explosion() {
    let program = hilog_engine::parts_explosion_program(
        &[("m", "parts")],
        &[
            ("parts", "bicycle", "wheel", 2),
            ("parts", "wheel", "spoke", 47),
        ],
    );
    let result =
        hilog_engine::evaluate_aggregate_program(&program, EvalOptions::default()).unwrap();
    assert!(result
        .model
        .is_true(&parse_term("contains(m, bicycle, spoke, 94)").unwrap()));
}
