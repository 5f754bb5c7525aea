//! Section 6: modular stratification (Figure 1, Theorem 6.1, Lemma 6.2) and
//! the query-directed evaluation of Section 6.1, exercised over generated
//! game workloads through the `HiLogDb` session facade.

use hilog_core::interpretation::Model;
use hilog_core::program::Program;
use hilog_core::rule::Rule;
use hilog_engine::{EngineError, HiLogDb, Semantics};
use hilog_syntax::parse_term;
use hilog_workloads::{
    chain, cycle, hilog_game_program, layered_game_graph, node_name, normal_game_program,
    random_dag, random_range_restricted_normal, random_strongly_restricted_hilog,
    HilogProgramConfig, NormalProgramConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Case count of the randomized suites, overridable from CI via
/// `HILOG_PROPTEST_CASES` (as in `tests/session_api.rs`).
fn cases(default: u32) -> u32 {
    std::env::var("HILOG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Well-founded model through the session facade.
fn wfs(program: &hilog_core::Program) -> Result<Model, EngineError> {
    Ok(HiLogDb::new(program.clone()).model()?.clone())
}

/// Theorem 6.1: a modularly stratified HiLog program has a total well-founded
/// model that is its unique stable model, and the Figure 1 procedure computes
/// exactly that model.
fn check_theorem_6_1(program: &hilog_core::Program) {
    let mut db = HiLogDb::builder()
        .program(program.clone())
        .semantics(Semantics::ModularCheck)
        .build();
    let outcome = db.check_modular().unwrap();
    assert!(outcome.modularly_stratified, "{:?}", outcome.reason);
    let figure1 = db.model().unwrap().clone();
    assert!(figure1.is_total());
    let wfm = wfs(program).unwrap();
    assert!(wfm.is_total());
    for atom in wfm.base() {
        assert_eq!(figure1.truth(atom), wfm.truth(atom), "{atom}");
    }
    let mut stable_db = HiLogDb::new(program.clone());
    let stable = stable_db.stable_models().unwrap();
    assert_eq!(stable.len(), 1);
    for atom in wfm.base() {
        assert_eq!(stable[0].truth(atom), wfm.truth(atom), "{atom}");
    }
}

#[test]
fn theorem_6_1_on_dag_games() {
    for (n, seed) in [(8, 1), (16, 2), (32, 3)] {
        let program = hilog_game_program(&[("g1", random_dag(n, 2.0, seed)), ("g2", chain(n / 2))]);
        check_theorem_6_1(&program);
    }
}

#[test]
fn theorem_6_1_on_layered_games() {
    let program = hilog_game_program(&[("layers", layered_game_graph(5, 4, 2, 9))]);
    check_theorem_6_1(&program);
}

#[test]
fn lemma_6_2_normal_games() {
    // For normal programs the HiLog procedure coincides with modular
    // stratification: acyclic games accepted, cyclic games rejected.
    let acyclic = normal_game_program(&random_dag(24, 2.0, 5));
    let outcome = HiLogDb::new(acyclic).check_modular().unwrap().clone();
    assert!(outcome.modularly_stratified);
    let cyclic = normal_game_program(&cycle(6));
    let outcome = HiLogDb::new(cyclic).check_modular().unwrap().clone();
    assert!(!outcome.modularly_stratified);
}

#[test]
fn query_evaluation_agrees_with_wfs_on_every_position() {
    let edges = random_dag(40, 2.5, 13);
    let program = hilog_game_program(&[("g", edges)]);
    let wfm = wfs(&program).unwrap();
    let mut db = HiLogDb::new(program);
    for i in 0..40 {
        let atom = parse_term(&format!("winning(g)({})", node_name(i))).unwrap();
        assert_eq!(
            db.holds(&atom).unwrap().is_true(),
            wfm.is_true(&atom),
            "disagreement at position {i}"
        );
    }
}

#[test]
fn point_queries_do_less_work_than_full_evaluation() {
    // Two games; the query touches only one of them.  The number of answers
    // tabled by the query evaluator must be well below the size of the full
    // relevant base (the relevance property the magic-sets method is for).
    let program = hilog_game_program(&[("small", chain(10)), ("large", random_dag(300, 2.5, 21))]);
    let wfm = wfs(&program).unwrap();
    let mut db = HiLogDb::new(program);
    let atom = parse_term(&format!("winning(small)({})", node_name(0))).unwrap();
    let result = db.query(&hilog_core::rule::Query::atom(atom)).unwrap();
    assert!(result.plan.is_magic_sets());
    assert!(
        result.stats.answers * 4 < wfm.base().len(),
        "expected a selective query to table far fewer atoms ({} tabled vs {} base atoms)",
        result.stats.answers,
        wfm.base().len()
    );
}

#[test]
fn repeated_point_queries_are_answered_from_session_tables() {
    let program = hilog_game_program(&[("g", random_dag(30, 2.0, 4))]);
    let mut db = HiLogDb::new(program);
    let query = hilog_core::rule::Query::atom(
        parse_term(&format!("winning(g)({})", node_name(0))).unwrap(),
    );
    let first = db.query(&query).unwrap();
    assert!(first.stats.rule_applications > 0);
    let second = db.query(&query).unwrap();
    assert_eq!(second.stats.rule_applications, 0);
    assert!(second.stats.cached_subqueries > 0);
    assert_eq!(second.truth, first.truth);
}

/// The program with every rule's body shuffled (seeded Fisher–Yates).
fn permute_bodies(program: &Program, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let permuted = program.iter().map(|rule| {
        let mut body = rule.body.clone();
        for i in (1..body.len()).rev() {
            body.swap(i, rng.gen_range(0..=i));
        }
        Rule::new(rule.head.clone(), body)
    });
    Program::from_rules(permuted.collect())
}

/// Figure 1's invariants on one program: the order of a rule's body never
/// changes the verdict, the rounds or the model, and an accepted program's
/// model is its well-founded model (Theorem 6.1).  Returns the verdict.
fn check_figure_1_invariants(program: &Program, seed: u64) -> bool {
    let outcome = HiLogDb::new(program.clone())
        .check_modular()
        .unwrap()
        .clone();
    let permuted = permute_bodies(program, seed);
    let twin = HiLogDb::new(permuted.clone())
        .check_modular()
        .unwrap()
        .clone();
    assert_eq!(
        outcome.modularly_stratified, twin.modularly_stratified,
        "verdicts differ ({:?} vs {:?}) on\n{program}\nand\n{permuted}",
        outcome.reason, twin.reason
    );
    assert_eq!(outcome.rounds, twin.rounds, "rounds differ on\n{program}");
    assert_eq!(outcome.model, twin.model, "models differ on\n{program}");
    if let Some(model) = &outcome.model {
        let wfm = wfs(program).unwrap();
        assert!(wfm.is_total(), "accepted with a partial WFS:\n{program}");
        for atom in wfm.base().iter().chain(model.base()) {
            assert_eq!(model.truth(atom), wfm.truth(atom), "{atom} in\n{program}");
        }
    }
    outcome.modularly_stratified
}

#[test]
fn figure_1_invariants_hold_on_random_programs() {
    // The generated tail below is random; this pins that the two generators
    // reach both verdicts at all.
    let verdicts: Vec<bool> = (0..40)
        .map(|seed| {
            let config = NormalProgramConfig::default();
            check_figure_1_invariants(&random_range_restricted_normal(config, seed), seed)
        })
        .collect();
    assert!(verdicts.contains(&true) && verdicts.contains(&false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// Random range-restricted normal programs (stratified, modularly
    /// stratified and three-valued alike) keep Figure 1's invariants.
    #[test]
    fn figure_1_is_body_order_blind_on_normal_programs(
        seed in 0u64..1_000_000,
        rules in 2usize..10,
        idb_predicates in 1usize..5,
    ) {
        let config = NormalProgramConfig { rules, idb_predicates, ..NormalProgramConfig::default() };
        check_figure_1_invariants(&random_range_restricted_normal(config, seed), seed ^ 0x5eed);
    }

    /// Random strongly range-restricted HiLog programs keep them too.
    #[test]
    fn figure_1_is_body_order_blind_on_hilog_programs(
        seed in 0u64..1_000_000,
        relation_names in 1usize..4,
        with_negation in 0u8..2,
    ) {
        let config = HilogProgramConfig {
            relation_names,
            with_negation: with_negation == 1,
            ..HilogProgramConfig::default()
        };
        check_figure_1_invariants(&random_strongly_restricted_hilog(config, seed), seed ^ 0x5eed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random acyclic games are always modularly stratified, with total
    /// models agreeing across all evaluation paths; random cyclic games are
    /// never modularly stratified (their reduced winning component contains a
    /// negative cycle), although their WFS may still be three-valued.
    #[test]
    fn figure_1_accepts_exactly_the_acyclic_games(
        n in 4usize..24,
        seed in 0u64..1_000,
    ) {
        let acyclic = normal_game_program(&random_dag(n, 2.0, seed));
        let outcome = HiLogDb::new(acyclic).check_modular().unwrap().clone();
        prop_assert!(outcome.modularly_stratified, "{:?}", outcome.reason);

        let cyclic = normal_game_program(&cycle(n));
        let outcome = HiLogDb::new(cyclic).check_modular().unwrap().clone();
        prop_assert!(!outcome.modularly_stratified);
    }

    /// The Figure 1 model always matches the directly computed well-founded
    /// model on HiLog games (Theorem 6.1, property form).
    #[test]
    fn figure_1_model_matches_wfs(n in 4usize..16, seed in 0u64..1_000) {
        let program = hilog_game_program(&[("g", random_dag(n, 2.0, seed))]);
        let mut db = HiLogDb::builder()
            .program(program.clone())
            .semantics(Semantics::ModularCheck)
            .build();
        prop_assert!(db.check_modular().unwrap().modularly_stratified);
        let figure1 = db.model().unwrap().clone();
        let wfm = wfs(&program).unwrap();
        for atom in wfm.base() {
            prop_assert_eq!(figure1.truth(atom), wfm.truth(atom), "{}", atom);
        }
    }
}
