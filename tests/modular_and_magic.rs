//! Section 6: modular stratification (Figure 1, Theorem 6.1, Lemma 6.2) and
//! the query-directed evaluation of Section 6.1, exercised over generated
//! game workloads through the `HiLogDb` session facade.

mod common;

use hilog_core::interpretation::{Model, Truth};
use hilog_core::literal::Literal;
use hilog_core::program::Program;
use hilog_core::rule::{Query, Rule};
use hilog_core::term::Term;
use hilog_engine::{EngineError, HiLogDb, QueryResult, Semantics};
use hilog_syntax::{parse_program, parse_query, parse_term};
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
/// model is its well-founded model (Theorem 6.1) and that of its
/// universal-relation image.  Returns the verdict.
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
        // The oracle that shares no code with Figure 1's reduction: the
        // universal-relation image in the naive engine.
        common::assert_agrees_with_universal_image(program, model, &program.to_string());
        // The cross-route theorem, in Section 6.1's left-to-right form: on a
        // program Figure 1 accepts, a bound query leaves the tabled route as
        // not modularly stratified only because a body selects a literal
        // before a settled one that Figure 1's reduction resolves first
        // (`tests/corpus/figure_1_left_to_right.hl`).  With every body's
        // settled literals moved to the front, in round order, the same
        // query is answered on the tabled route, with the same answers.
        let mut db = HiLogDb::new(program.clone());
        let mut settled_first = None;
        for atom in model.base() {
            let query = Query::new(vec![Literal::pos(atom.clone())]);
            let result = db.query(&query).unwrap();
            if !is_not_modularly_stratified(&result) {
                continue;
            }
            let reordered = settled_first
                .get_or_insert_with(|| {
                    HiLogDb::new(settled_literals_first(program, &outcome.rounds))
                })
                .query(&query)
                .unwrap();
            assert_eq!(
                reordered.fallback, None,
                "`?- {atom}.` falls back on a program Figure 1 accepts, in either body \
                 order: {:?}\n{program}",
                result.fallback
            );
            assert_eq!(
                reordered.answers, result.answers,
                "`?- {atom}.` in\n{program}"
            );
        }
    }
    outcome.modularly_stratified
}

/// Whether a query left the tabled route because it found a cycle through
/// negation.
fn is_not_modularly_stratified(result: &QueryResult) -> bool {
    result
        .fallback
        .as_ref()
        .is_some_and(|note| note.contains("not modularly stratified"))
}

/// `program` with each body's literals over names settled in Figure 1's
/// `rounds` moved to the front, earliest round first; the rest keep their
/// order behind them.
fn settled_literals_first(program: &Program, rounds: &[Vec<Term>]) -> Program {
    let round_of = |literal: &Literal| {
        literal
            .dependency()
            .and_then(|(atom, _)| rounds.iter().position(|names| names.contains(atom.name())))
            .unwrap_or(usize::MAX)
    };
    Program::from_rules(
        program
            .iter()
            .map(|rule| {
                let mut body = rule.body.clone();
                body.sort_by_key(round_of);
                Rule::new(rule.head.clone(), body)
            })
            .collect(),
    )
}

/// The committed counterexample to the body-order-blind reading of the
/// cross-route theorem: Figure 1 accepts the program, the tabled route
/// falls back on `?- idb0(c1).` in the source order, and the invariants'
/// left-to-right form holds.
#[test]
fn figure_1_accepts_a_program_the_tabled_route_reads_left_to_right() {
    let program = parse_program(include_str!("corpus/figure_1_left_to_right.hl")).unwrap();
    let mut db = HiLogDb::new(program.clone());
    assert!(db.check_modular().unwrap().modularly_stratified);
    let result = db.query(&parse_query("?- idb0(c1).").unwrap()).unwrap();
    assert!(
        is_not_modularly_stratified(&result),
        "{:?}",
        result.fallback
    );
    assert!(result.is_true());
    assert!(check_figure_1_invariants(&program, 0));
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

/// Example 6.5 with its variable-headed rule `X :- aux(X)`, which every
/// subgoal's pattern unifies with.
const EXAMPLE_6_5: &str = "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                           game(move1). move1(a, b).\n\
                           X :- aux(X).\n\
                           aux(move1(b, c)) :- not winning(move1)(a).";

#[test]
fn example_6_5_queries_return_on_the_tabled_route() {
    // Every subgoal's pattern unifies with `X :- aux(X)`; pushed into the
    // body it became `aux(G)`, `aux(aux(G))`, … without end.  Each query
    // runs on its own thread against a wall clock, so a route that nests
    // again fails the bound instead of hanging the suite.  The program is
    // not modularly stratified (Figure 1 rejects it), so the tabled route
    // meets a cycle through negation and the full model answers: each
    // answer undefined.
    let cases = [
        ("?- winning(move1)(a).", ""),
        ("?- aux(X).", "X=move1(b, c)"),
        ("?- aux(X0), not aux(X0).", "X0=move1(b, c)"),
    ];
    for (text, bindings) in cases {
        let (sent, received) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut db = HiLogDb::new(parse_program(EXAMPLE_6_5).unwrap());
            let _ = sent.send(db.query(&parse_query(text).unwrap()));
        });
        let result = received
            .recv_timeout(std::time::Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("`{text}` did not return within 20 s"))
            .unwrap_or_else(|err| panic!("`{text}`: {err}"));
        let note = result.fallback.clone().unwrap_or_default();
        assert!(
            note.contains("depends on itself through negation") && note.contains("aux(_N0)"),
            "`{text}` was not answered by the full model: {note:?}"
        );
        let answers: Vec<(String, Truth)> = (result.answers.iter())
            .map(|answer| {
                let bound: Vec<String> = (answer.bindings.iter())
                    .map(|(var, value)| format!("{var}={value}"))
                    .collect();
                (bound.join(", "), answer.truth)
            })
            .collect();
        assert_eq!(
            answers,
            vec![(bindings.to_string(), Truth::Undefined)],
            "{text}"
        );
    }
}

#[test]
fn a_benign_variable_head_is_answered_on_the_tabled_route() {
    // `X :- q(X)` unifies with every subgoal too, but nothing it derives
    // reads back through negation: the tabled route answers alone (it kept
    // nesting `q(G)`, `q(q(G))`, … before), as the full model does.
    let program = "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                X :- q(X).\n\
                game(move1). q(move1(a, b)). q(move1(b, c)).";
    let model = HiLogDb::new(parse_program(program).unwrap())
        .model()
        .unwrap()
        .clone();
    let cases = [
        ("?- winning(move1)(a).", vec![]),
        ("?- winning(move1)(b).", vec!["".to_string()]),
        (
            "?- move1(X, Y).",
            vec!["X=a, Y=b".to_string(), "X=b, Y=c".to_string()],
        ),
    ];
    for (text, expected) in cases {
        let (sent, received) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut db = HiLogDb::new(parse_program(program).unwrap());
            let _ = sent.send(db.query(&parse_query(text).unwrap()));
        });
        let result = received
            .recv_timeout(std::time::Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("`{text}` did not return within 20 s"))
            .unwrap_or_else(|err| panic!("`{text}`: {err}"));
        assert_eq!(result.fallback, None, "{text}");
        let answers: Vec<String> = (result.answers.iter())
            .map(|answer| {
                assert_eq!(answer.truth, Truth::True);
                let bound: Vec<String> = (answer.bindings.iter())
                    .map(|(var, value)| format!("{var}={value}"))
                    .collect();
                bound.join(", ")
            })
            .collect();
        assert_eq!(answers, expected, "{text}");
    }
    assert!(!model.is_true(&parse_term("winning(move1)(a)").unwrap()));
    assert!(model.is_true(&parse_term("winning(move1)(b)").unwrap()));
    assert!(model.is_true(&parse_term("move1(b, c)").unwrap()));
}

#[test]
fn a_negation_chain_of_twenty_thousand_is_answered_on_a_two_mib_stack() {
    // Each position reads the next one's table negatively.  When a
    // selection settled its negative subgoal by a nested call, a 2 MiB
    // thread (a connection thread's) overflowed its stack on `chain(1000)`
    // and the process aborted.  On the cycle the tabled route meets the
    // cycle through negation and the full model answers, undefined.  With
    // the moves derived, each position's next one is found only after its
    // `m(p_i, Y)` table completes: the chain is discovered one link at a
    // time.
    let derived = |edges: &[hilog_workloads::Edge]| {
        let rules = "winning(X) :- m(X, Y), not winning(Y).\nm(X, Y) :- move(X, Y).\n";
        let facts = hilog_workloads::edges_to_facts("move", edges);
        parse_program(&format!("{rules}{facts}")).unwrap()
    };
    for (shape, program, falls_back) in [
        ("chain", normal_game_program(&chain(20_000)), false),
        ("cycle", normal_game_program(&cycle(20_000)), true),
        ("derived chain", derived(&chain(20_000)), false),
    ] {
        let answered = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let query = parse_query("?- winning(p0).").unwrap();
                let result = HiLogDb::new(program.clone()).query(&query).unwrap();
                let model = HiLogDb::new(program).model().unwrap().clone();
                let truth = model.truth(&parse_term("winning(p0)").unwrap());
                (result.truth, result.fallback.is_some(), truth)
            })
            .unwrap()
            .join()
            .unwrap_or_else(|_| panic!("{shape}(20000) panicked"));
        let (bound, fell_back, full) = answered;
        assert_eq!(bound, full, "{shape}(20000)");
        assert_eq!(fell_back, falls_back, "{shape}(20000)");
    }
}

#[test]
fn term_growing_queries_stop_at_their_deadline() {
    // Each expansion opens a subgoal one `f` (or `s`) deeper than the last,
    // without end.  Bottom up the first program's model is `{p(a)}`; the
    // tabled route keeps opening tables, and each expansion looks at the
    // deadline.  Subgoal abstraction (ROADMAP 17(b)) would end the descent.
    let grows = "p(X) :- p(f(X)). p(a).";
    let cases = [
        (grows, "?- p(a)."),
        (grows, "?- p(X)."),
        ("q(X) :- q(s(X)), not r(X). r(a). q(a).", "?- q(a)."),
    ];
    let budget = std::time::Duration::from_millis(300);
    for (program, query) in cases {
        let (outcome, took) = std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || {
                let mut db = HiLogDb::new(parse_program(program).unwrap());
                let started = std::time::Instant::now();
                let result = hilog_engine::with_deadline(Some(started + budget), || {
                    db.query(&parse_query(query).unwrap())
                });
                (result.map(|result| result.truth), started.elapsed())
            })
            .unwrap()
            .join()
            .unwrap_or_else(|_| panic!("`{query}` panicked"));
        assert!(
            matches!(outcome, Err(EngineError::DeadlineExceeded(_))),
            "`{query}` on `{program}`: {outcome:?}"
        );
        assert!(
            took < budget + std::time::Duration::from_secs(1),
            "`{query}` on `{program}` returned after {took:?}"
        );
    }
}
