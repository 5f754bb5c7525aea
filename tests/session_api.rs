//! The `HiLogDb` session facade, exercised end-to-end through the umbrella
//! crate: plan routing, cache reuse across queries, and the property that
//! incremental `assert_fact` agrees with rebuilding a fresh session from the
//! extended program — for both magic-sets and full-model plans.

use hilog_repro::prelude::*;
use hilog_workloads::{random_range_restricted_normal, NormalProgramConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Property-test case count, overridable from CI via `HILOG_PROPTEST_CASES`.
fn proptest_cases(default: u32) -> u32 {
    std::env::var("HILOG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn game_db() -> HiLogDb {
    HiLogDb::new(
        parse_program(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             move(a, b). move(b, c). move(c, d).",
        )
        .unwrap(),
    )
}

/// Canonical rendering of a result's answers (bindings plus truth), for
/// set-level comparison between sessions.
fn answer_set(result: &QueryResult) -> BTreeSet<String> {
    result.answers.iter().map(|a| a.to_string()).collect()
}

#[test]
fn bound_queries_get_magic_plans_and_unbound_ones_full_model_plans() {
    let db = game_db();
    let bound = db.explain(&parse_query("?- winning(a).").unwrap());
    assert_eq!(bound.strategy, PlanStrategy::MagicSets);
    assert_eq!(bound.adornment, "b");
    let open_args = db.explain(&parse_query("?- winning(X).").unwrap());
    assert_eq!(open_args.strategy, PlanStrategy::MagicSets);
    assert_eq!(open_args.adornment, "f");
    let unbound = db.explain(&parse_query("?- P(a, X).").unwrap());
    assert_eq!(unbound.strategy, PlanStrategy::FullModel);
}

/// A query's stats are its work, counted once: the session and a published
/// snapshot of the same program report the same counts for the same query,
/// cold and warm, on both routes.  Only `live_symbols` is left out: it is
/// the length of the process-wide symbol pool.
#[test]
fn a_query_counts_alike_through_the_session_and_a_published_snapshot() {
    let mut db = game_db();
    let (_writer, handle) = game_db().into_serving();
    let snapshot = handle.current();
    let queries =
        ["?- winning(X).", "?- winning(a).", "?- P(a, X)."].map(|q| parse_query(q).unwrap());
    for pass in ["cold", "warm"] {
        for query in &queries {
            let session = db.query(query).unwrap().stats;
            let served = snapshot.query(query).unwrap().stats;
            let without_pool = |stats: EvalStats| EvalStats {
                live_symbols: 0,
                ..stats
            };
            assert_eq!(
                without_pool(session),
                without_pool(served),
                "{pass} `{query}`"
            );
        }
    }
}

#[test]
fn second_bound_query_reuses_tables_second_unbound_query_reuses_model() {
    let mut db = game_db();
    let bound = parse_query("?- winning(X).").unwrap();
    let first = db.query(&bound).unwrap();
    assert!(first.stats.rule_applications > 0);
    let second = db.query(&bound).unwrap();
    assert_eq!(
        second.stats.rule_applications, 0,
        "subgoal tables not reused"
    );
    assert!(second.stats.cached_subqueries > 0);
    assert_eq!(answer_set(&second), answer_set(&first));

    let unbound = parse_query("?- P(a, X).").unwrap();
    let first = db.query(&unbound).unwrap();
    assert_eq!(
        first.stats.groundings, 1,
        "first full-model query grounds once"
    );
    let second = db.query(&unbound).unwrap();
    assert_eq!(second.stats.groundings, 0, "cached model was re-grounded");
    assert_eq!(answer_set(&second), answer_set(&first));
}

#[test]
fn results_serialise_for_the_experiments_runner() {
    let mut db = game_db();
    let result = db.query(&parse_query("?- winning(X).").unwrap()).unwrap();
    let json = serde_json::to_string(&result).unwrap();
    assert!(json.contains("\"plan\""));
    assert!(json.contains("\"strategy\":\"magic-sets\""));
    assert!(json.contains("\"stats\""));
}

#[test]
fn session_agrees_with_the_figure_1_and_stable_routes() {
    let program = parse_program(
        "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
         game(m). m(a, b). m(b, c).",
    )
    .unwrap();
    let mut wfs_db = HiLogDb::new(program.clone());
    let wfm = wfs_db.model().unwrap().clone();
    let mut modular_db = HiLogDb::builder()
        .program(program.clone())
        .semantics(Semantics::ModularCheck)
        .build();
    let mut stable_db = HiLogDb::builder()
        .program(program)
        .semantics(Semantics::Stable)
        .build();
    for atom in wfm.base() {
        assert_eq!(modular_db.holds(atom).unwrap(), wfm.truth(atom), "{atom}");
        assert_eq!(stable_db.holds(atom).unwrap(), wfm.truth(atom), "{atom}");
    }
}

/// One incremental-vs-fresh comparison: `db` has already answered queries,
/// then receives `fact`; a fresh session is built from the extended program.
/// Both must answer `query` identically.
fn check_incremental_agreement(
    program: &hilog_core::Program,
    fact: &hilog_core::Term,
    query: &hilog_core::Query,
) {
    let mut incremental = HiLogDb::new(program.clone());
    // Warm every cache the plan might use before mutating.
    let _ = incremental.query(query);
    incremental.assert_fact(fact.clone()).unwrap();
    let incremental_result = incremental.query(query).unwrap();

    let mut extended = program.clone();
    extended.push(hilog_core::Rule::fact(fact.clone()));
    let mut fresh = HiLogDb::new(extended);
    let fresh_result = fresh.query(query).unwrap();

    assert_results_agree(
        &incremental_result,
        &fresh_result,
        &format!("on {query} after asserting {fact}\n{program}"),
    );
}

// ---------------------------------------------------------------------
// Incremental ≡ from-scratch under randomized mutation *sequences*
// ---------------------------------------------------------------------

/// Queries both the long-lived session and a fresh session built from the
/// session's current program, and demands strictly equivalent results on
/// *every* plan route: the same answers with the same three-valued truth,
/// the same overall truth, and the same verdict (a warm session falls back
/// to the full model on a non-modularly-stratified instance if and only if
/// a cold one does — the evaluator's negative-cycle detection is
/// path-independent, so which subgoal tables happen to be complete cannot
/// change what the query reports).
fn check_against_fresh(db: &mut HiLogDb, query: &hilog_core::Query, context: &str) {
    let incremental = db.query(query).expect("incremental session answers");
    let mut fresh = HiLogDb::new(db.program().clone());
    let reference = fresh.query(query).expect("fresh session answers");
    assert_results_agree(
        &incremental,
        &reference,
        &format!("on {query} ({context})\n{}", db.program()),
    );
}

/// The shared comparison policy of `check_against_fresh` and
/// `check_incremental_agreement`: full three-valued, answer-for-answer
/// equality, identical overall truth, and an identical
/// fell-back-to-the-full-model verdict.
fn assert_results_agree(incremental: &QueryResult, reference: &QueryResult, context: &str) {
    assert_eq!(
        answer_set(incremental),
        answer_set(reference),
        "incremental and fresh sessions disagree {context}"
    );
    assert_eq!(incremental.truth, reference.truth, "{context}");
    assert_eq!(
        incremental.fallback.is_some(),
        reference.fallback.is_some(),
        "warm and cold sessions took different routes {context}"
    );
}

/// Drives one randomized sequence of `assert_fact` / `retract_fact` /
/// `assert_rule` / `retract_rule`, interleaving a bound and an unbound query
/// after every mutation and comparing each intermediate result against a
/// fresh session built from the equivalent program.
fn run_mutation_sequence(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    let mut db = HiLogDb::new(random_range_restricted_normal(
        NormalProgramConfig::default(),
        seed,
    ));
    let constant = |i: usize| Term::sym(format!("c{i}"));
    // Warm every cache family before mutating.
    let _ = db.query(&parse_query("?- idb0(X).").unwrap());
    let _ = db.query(&parse_query("?- P(X).").unwrap());
    for step in 0..steps {
        let context = format!("seed {seed}, step {step}");
        match rng.gen_range(0..10u32) {
            // Assert an EDB fact (the common serving mutation).
            0..=3 => {
                let fact = Term::apps(
                    format!("edb{}", rng.gen_range(0..2)),
                    vec![constant(rng.gen_range(0..5)), constant(rng.gen_range(0..5))],
                );
                db.assert_fact(fact).unwrap();
            }
            // Assert an IDB fact: the predicate becomes both derived and
            // extensional, stressing the non-pure-EDB delta path.
            4 => {
                let fact = Term::apps(
                    format!("idb{}", rng.gen_range(0..3)),
                    vec![constant(rng.gen_range(0..5))],
                );
                db.assert_fact(fact).unwrap();
            }
            // Retract a random present fact (DRed path), or a missing one.
            5..=6 => {
                let facts: Vec<Term> = db.program().facts().map(|r| r.head.clone()).collect();
                if facts.is_empty() {
                    continue;
                }
                let target = facts[rng.gen_range(0..facts.len())].clone();
                assert!(db.retract_fact(&target), "{context}: fact was present");
            }
            // Assert a fresh rule (full invalidation path).
            7 => {
                let head = Term::apps(format!("idb{}", rng.gen_range(0..3)), vec![Term::var("X")]);
                let mut body = vec![Literal::pos(Term::apps(
                    format!("edb{}", rng.gen_range(0..2)),
                    vec![Term::var("X"), Term::var("Y")],
                ))];
                if rng.gen_bool(0.5) {
                    body.push(Literal::neg(Term::apps(
                        format!("idb{}", rng.gen_range(0..3)),
                        vec![Term::var("Y")],
                    )));
                }
                db.assert_rule(Rule::new(head, body));
            }
            // Retract a random proper rule (targeted rule invalidation).
            _ => {
                let rules: Vec<Rule> = db.program().proper_rules().cloned().collect();
                if rules.is_empty() {
                    continue;
                }
                let target = rules[rng.gen_range(0..rules.len())].clone();
                assert!(db.retract_rule(&target), "{context}: rule was present");
            }
        }
        let bound = parse_query(&format!("?- idb{}(X).", rng.gen_range(0..3))).unwrap();
        check_against_fresh(&mut db, &bound, &format!("{context}, bound"));
        let unbound = parse_query("?- P(X).").unwrap();
        check_against_fresh(&mut db, &unbound, &format!("{context}, unbound"));
    }
}

/// The committed regression corpus doubles as the sequence-suite corpus: the
/// pinned seeds always run, whatever the proptest configuration.
#[test]
fn pinned_mutation_sequences_match_fresh_sessions() {
    for line in include_str!("corpus/differential_seeds.txt").lines() {
        let Ok(seed) = line.trim().parse::<u64>() else {
            continue;
        };
        run_mutation_sequence(seed, 4);
    }
}

/// The pinned Example 6.4 regression corpus: programs whose instances carry
/// a dependency cycle through negation (or whose branch ordering makes the
/// cycle evaluate away), probed from a cold session and from warm sessions
/// prepared with several different query schedules.  Every schedule must
/// produce the same verdict — the same fallback-to-the-full-model decision,
/// with a `not modularly stratified` report when it happens — and the same
/// three-valued answers.
#[test]
fn example_6_4_family_verdicts_are_path_independent() {
    // (program, warm-up queries, probe queries)
    type Entry = (
        &'static str,
        &'static [&'static str],
        &'static [&'static str],
    );
    let corpus: &[Entry] = &[
        // Example 6.4 with `not p(Z)` selected first: the self-dependency of
        // p(a) is reached and the query falls back.
        (
            "p(X) :- t(X, Y, Z, P), not p(Z), not p(Y).\n\
             t(a, b, a, p). t(c, a, b, p).\n\
             p(b) :- t(X, Y, b, P).",
            &["?- p(b).", "?- t(X, Y, Z, P)."],
            &["?- p(a).", "?- p(X).", "?- p(c)."],
        ),
        // The paper's original literal order: the offending branch is killed
        // by `not p(b)` before `not p(a)` is selected, so every session —
        // warm or cold — completes without a fallback.
        (
            "p(X) :- t(X, Y, Z, P), not p(Y), not p(Z).\n\
             t(a, b, a, p). t(c, a, b, p).\n\
             p(b) :- t(X, Y, b, P).",
            &["?- p(b).", "?- p(c)."],
            &["?- p(a).", "?- p(X)."],
        ),
        // Win/move with a two-cycle a <-> b: winning(a) / winning(b) are
        // undefined, and reaching them must report the cycle identically
        // however much of the acyclic part is already tabled.
        (
            "winning(X) :- move(X, Y), not winning(Y).\n\
             move(a, b). move(b, a). move(b, c). move(d, e).",
            &["?- winning(d).", "?- winning(e).", "?- move(X, Y)."],
            &["?- winning(a).", "?- winning(X)."],
        ),
        // Two HiLog games sharing one variable-headed rule, one game cyclic:
        // warming the acyclic game must not change the cyclic game's
        // verdict (nor may the cyclic game's tables poison the acyclic one).
        (
            "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
             game(g). game(h).\n\
             g(a, b). g(b, c).\n\
             h(x, y). h(y, x).",
            &["?- winning(g)(a).", "?- winning(g)(X).", "?- game(M)."],
            &[
                "?- winning(h)(x).",
                "?- winning(g)(b).",
                "?- game(M), winning(M)(X).",
            ],
        ),
    ];
    for (i, (text, warmups, probes)) in corpus.iter().enumerate() {
        let program = parse_program(text).unwrap();
        for probe in *probes {
            let probe_query = parse_query(probe).unwrap();
            let mut cold = HiLogDb::new(program.clone());
            let reference = cold.query(&probe_query).expect("cold session answers");
            let schedules: Vec<Vec<&str>> = vec![
                vec![],
                warmups.to_vec(),
                warmups.iter().rev().copied().collect(),
                warmups.iter().chain(probes.iter()).copied().collect(),
            ];
            for schedule in schedules {
                let mut warm = HiLogDb::new(program.clone());
                for w in &schedule {
                    let _ = warm.query(&parse_query(w).unwrap());
                }
                let result = warm.query(&probe_query).expect("warm session answers");
                assert_results_agree(
                    &result,
                    &reference,
                    &format!("corpus {i}, probe {probe}, warmed by {schedule:?}"),
                );
                if let Some(note) = &result.fallback {
                    assert!(
                        note.contains("not modularly stratified"),
                        "unexpected fallback reason: {note}"
                    );
                }
            }
        }
    }
}

/// Instance-level table maintenance: a mutation to one game of a shared
/// (variable-headed) HiLog rule keeps the other game's tables, patches the
/// mutated game's fact tables in place, and re-solves only the mutated
/// game's derived tables — observable through the `EvalStats` counters.
#[test]
fn mutations_patch_and_keep_tables_at_the_instance_level() {
    let mut db = HiLogDb::new(
        parse_program(
            "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
             game(g). game(h).\n\
             g(a, b). g(b, c).\n\
             h(x, y). h(y, z).",
        )
        .unwrap(),
    );
    let g_query = parse_query("?- winning(g)(X).").unwrap();
    let h_query = parse_query("?- winning(h)(X).").unwrap();
    db.query(&g_query).unwrap();
    let h_first = db.query(&h_query).unwrap();
    assert!(h_first.stats.rule_applications > 0);
    // A new g edge: the g fact tables are patched, the winning(g) tables are
    // re-solved (none dropped), and everything h survives untouched.
    db.assert_fact(parse_term("g(c, d)").unwrap()).unwrap();
    let h_second = db.query(&h_query).unwrap();
    let stats = h_second.stats;
    assert!(stats.tables_patched > 0, "g fact tables must be patched");
    assert!(
        stats.tables_refilled > 0,
        "winning(g) tables must be re-solved"
    );
    assert_eq!(stats.tables_dropped, 0, "a re-solve is not a drop");
    assert_eq!(
        stats.rule_applications, 0,
        "the untouched game's tables were dropped"
    );
    assert!(stats.cached_subqueries > 0);
    assert!(stats.tables_reused > 0);
    // The settled g tables answer correctly, and from cache: chain
    // a -> b -> c -> d.
    let g_after = db.query(&g_query).unwrap();
    assert_eq!(g_after.stats.rule_applications, 0);
    let xs: BTreeSet<String> = g_after
        .answers
        .iter()
        .map(|a| a.binding("X").unwrap().to_string())
        .collect();
    assert_eq!(xs, ["a".to_string(), "c".to_string()].into_iter().collect());
    check_against_fresh(&mut db, &g_query, "instance-level maintenance");
}

/// The acceptance scenario: a pure-EDB assert (nothing derives or reads the
/// predicate beyond its own table) drops zero tables — the fact's own table
/// is patched in place and every other table is reused.
#[test]
fn pure_edb_asserts_drop_zero_tables_and_patch_in_place() {
    let mut db = HiLogDb::new(
        parse_program(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             move(a, b). move(b, c). colour(a, red).",
        )
        .unwrap(),
    );
    let win = parse_query("?- winning(X).").unwrap();
    let colours = parse_query("?- colour(X, C).").unwrap();
    db.query(&win).unwrap();
    db.query(&colours).unwrap();
    let warm = db.query(&win).unwrap().stats.tables_reused;
    db.assert_fact(parse_term("colour(b, blue)").unwrap())
        .unwrap();
    let result = db.query(&colours).unwrap();
    assert_eq!(result.stats.tables_dropped, 0, "unrelated tables dropped");
    assert_eq!(result.stats.tables_patched, 1, "colour table not patched");
    assert_eq!(result.stats.tables_reused, warm);
    assert_eq!(
        result.stats.rule_applications, 0,
        "the patched colour table should answer without re-evaluation"
    );
    let cs: BTreeSet<String> = result
        .answers
        .iter()
        .map(|a| a.binding("C").unwrap().to_string())
        .collect();
    assert_eq!(
        cs,
        ["red".to_string(), "blue".to_string()]
            .into_iter()
            .collect()
    );
}

/// Monotone table maintenance: a fact asserted into a negation-free reach
/// of the recorded dependency graph *refills* the affected derived tables
/// eagerly (their delta can only add answers) instead of dropping them —
/// the follow-up query is a pure cache hit that already sees the new
/// answers, and nothing is reported dropped.
#[test]
fn monotone_asserts_refill_derived_tables_eagerly() {
    let mut db = HiLogDb::new(
        parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).\n\
             edge(a, b). edge(b, c).",
        )
        .unwrap(),
    );
    let query = parse_query("?- path(a, X).").unwrap();
    db.query(&query).unwrap();
    db.assert_fact(parse_term("edge(c, d)").unwrap()).unwrap();
    let second = db.query(&query).unwrap();
    assert!(
        second.stats.tables_refilled > 0,
        "derived path tables must refill eagerly on a monotone assert"
    );
    assert_eq!(
        second.stats.tables_dropped, 0,
        "a monotone assert must not drop tables"
    );
    assert_eq!(
        second.stats.rule_applications, 0,
        "the refilled table should answer straight from cache"
    );
    let xs: BTreeSet<String> = second
        .answers
        .iter()
        .map(|a| a.binding("X").unwrap().to_string())
        .collect();
    assert_eq!(
        xs,
        ["b", "c", "d"].iter().map(|s| s.to_string()).collect(),
        "the refilled table must already contain the extended chain"
    );
    check_against_fresh(&mut db, &query, "monotone eager refill");
}

/// The early cut-off: a write that changes no derived answer re-solves the
/// table that reads the changed facts and nothing above it.  `b` already
/// wins through the dead end `c`; a second dead-end successor `d` leaves it
/// winning, so `winning(a)` and `winning(r)` — inside the reverse closure —
/// are put back as they were, and reading them evaluates nothing.
#[test]
fn a_write_that_changes_no_answer_resolves_only_the_table_it_touches() {
    let mut db = HiLogDb::new(
        parse_program(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             move(r, a). move(a, b). move(b, c).",
        )
        .unwrap(),
    );
    let ancestors: Vec<_> = ["?- winning(r).", "?- winning(a).", "?- winning(b)."]
        .iter()
        .map(|q| parse_query(q).unwrap())
        .collect();
    db.query(&ancestors[0]).unwrap();
    db.assert_fact(parse_term("move(b, d)").unwrap()).unwrap();
    let stats = db.query(&ancestors[0]).unwrap().stats;
    assert_eq!(stats.tables_patched, 1, "move(b, Y)\n{stats:?}");
    assert_eq!(stats.tables_refilled, 1, "winning(b)\n{stats:?}");
    assert_eq!(stats.tables_dropped, 0, "{stats:?}");
    for query in &ancestors {
        let result = db.query(query).unwrap();
        assert_eq!(result.stats.rule_applications, 0, "{query} was not warm");
        check_against_fresh(&mut db, query, "no derived answer changed");
    }
    // A write that does change an answer travels as far as the answers do.
    // `c` gets a move and wins: `b` is re-solved, still wins through `d`,
    // and the pass stops there.  Then `d` gets one: `b` stops winning, `a`
    // starts, `r` stops — four tables re-solved, none dropped.
    for (fact, resolved) in [("move(c, e)", 2), ("move(d, f)", 4)] {
        db.assert_fact(parse_term(fact).unwrap()).unwrap();
        let stats = db.query(&ancestors[0]).unwrap().stats;
        assert_eq!(stats.tables_refilled, resolved, "{fact}\n{stats:?}");
        assert_eq!(stats.tables_dropped, 0, "{fact}\n{stats:?}");
        for query in &ancestors {
            let result = db.query(query).unwrap();
            assert_eq!(result.stats.rule_applications, 0, "{query} was not warm");
            check_against_fresh(&mut db, query, fact);
        }
    }
    assert_eq!(
        db.holds(&parse_term("winning(r)").unwrap()).unwrap(),
        Truth::False
    );
}

/// The same-batch hazard: `winning(a)`, `winning(b)` and `winning(c)` are
/// tabled with no path between them, then one batch asserts `move(a, b)`
/// and `move(b, c)`.  Re-solving `winning(a)` now selects `winning(b)`,
/// which the recorded graph never ordered before it: it must find that
/// table settled under the whole batch or absent, never as it was (`b`
/// losing, which would make `a` win).  Either order of the two facts.
#[test]
fn a_batch_never_reads_a_table_it_has_not_settled_yet() {
    let positions: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|p| parse_query(&format!("?- winning({p}).")).unwrap())
        .collect();
    for batch in [["move(a, b)", "move(b, c)"], ["move(b, c)", "move(a, b)"]] {
        let (mut writer, handle) = HiLogDb::new(
            parse_program("winning(X) :- move(X, Y), not winning(Y). move(x, y).").unwrap(),
        )
        .into_serving();
        for query in &positions {
            assert_eq!(handle.current().query(query).unwrap().truth, Truth::False);
        }
        for fact in batch {
            writer.assert_fact(parse_term(fact).unwrap()).unwrap();
        }
        let snapshot = writer.publish();
        let mut fresh = HiLogDb::new(snapshot.program().clone());
        for (query, wins) in positions.iter().zip([false, true, false]) {
            let served = snapshot.query(query).unwrap();
            let context = format!("{query} after {batch:?}");
            assert_results_agree(&served, &fresh.query(query).unwrap(), &context);
            assert_eq!(served.is_true(), wins, "{context}");
            assert_eq!(served.stats.rule_applications, 0, "{context}: not warm");
        }
    }
}

#[test]
fn retract_rule_is_exposed_end_to_end() {
    let mut db = HiLogDb::new(
        parse_program(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             winning(X) :- bonus(X).\n\
             move(a, b). move(b, c). bonus(c).",
        )
        .unwrap(),
    );
    let query = parse_query("?- winning(X).").unwrap();
    let with_bonus = db.query(&query).unwrap();
    assert!(answer_set(&with_bonus).iter().any(|a| a.contains("X = c")));
    let bonus_rule = parse_program("winning(X) :- bonus(X).").unwrap().rules[0].clone();
    assert!(db.retract_rule(&bonus_rule));
    assert!(!db.retract_rule(&bonus_rule), "retracting twice must fail");
    let without_bonus = db.query(&query).unwrap();
    assert!(!answer_set(&without_bonus)
        .iter()
        .any(|a| a.contains("X = c")));
    // And the session still agrees with a fresh one.
    check_against_fresh(&mut db, &query, "retract_rule end-to-end");
}

#[test]
fn update_heavy_sessions_re_ground_after_every_write() {
    // Alternating asserts and full-model point queries: every read after a
    // write grounds the program again and evaluates it once, and the
    // re-read is the cached model.
    let mut db = HiLogDb::new(
        parse_program("winning(X) :- move(X, Y), not winning(Y). move(p0, p1).").unwrap(),
    );
    let query = parse_query("?- P(p0).").unwrap();
    assert_eq!(db.query(&query).unwrap().stats.groundings, 1);
    for i in 1..6 {
        db.assert_fact(parse_term(&format!("move(p{i}, p{})", i + 1)).unwrap())
            .unwrap();
        let result = db.query(&query).unwrap();
        assert_eq!(result.stats.groundings, 1, "assert {i} kept the grounding");
        assert_eq!(result.stats.model_source, ModelSource::Rebuilt);
        let again = db.query(&query).unwrap();
        assert_eq!(again.stats.model_source, ModelSource::Cached);
        assert_eq!(again.stats.groundings, 0);
        assert_eq!(again.answers, result.answers);
    }
    check_against_fresh(&mut db, &parse_query("?- P(X).").unwrap(), "update-heavy");
}

/// One of the three doors through which a program is written and its model
/// read: an owner session, the session a writer hands out
/// (`DbWriter::db()`), and the snapshot the writer publishes after each
/// write.
enum Door {
    Owner(HiLogDb),
    Writer(DbWriter),
    Published(DbWriter, SnapshotHandle),
}

impl Door {
    fn write(&mut self, fact: &Term, asserted: bool) {
        match self {
            Door::Owner(db) if asserted => db.assert_fact(fact.clone()).unwrap(),
            Door::Owner(db) => assert!(db.retract_fact(fact)),
            Door::Writer(writer) | Door::Published(writer, _) => {
                if asserted {
                    writer.assert_fact(fact.clone()).unwrap();
                } else {
                    assert!(writer.retract_fact(fact));
                }
            }
        }
        if let Door::Published(writer, _) = self {
            writer.publish();
        }
    }

    fn query(&mut self, query: &Query) -> QueryResult {
        match self {
            Door::Owner(db) => db.query(query).unwrap(),
            Door::Writer(writer) => writer.db().query(query).unwrap(),
            Door::Published(_, handle) => handle.current().query(query).unwrap(),
        }
    }

    fn stable_models(&mut self) -> Vec<Model> {
        match self {
            Door::Owner(db) => db.stable_models().unwrap().to_vec(),
            Door::Writer(writer) => writer.db().stable_models().unwrap().to_vec(),
            Door::Published(_, handle) => handle.current().stable_models().unwrap().to_vec(),
        }
    }

    fn program(&self) -> Program {
        match self {
            Door::Owner(db) => db.program().clone(),
            Door::Writer(writer) => writer.program().clone(),
            Door::Published(_, handle) => handle.current().program().clone(),
        }
    }
}

#[test]
fn a_fallback_after_a_write_evaluates_the_model_before_reading_it() {
    // a and b attack each other, so the tabled route meets a negative cycle
    // on every `win` query and falls back to the full model.  A model that
    // was warm before a mutation is not that model any more.  Through each
    // of the three doors, after an assert and after a retract, the first
    // full-model read — the fallback, or the open query `?- P(X).` — grounds
    // the program again and evaluates it once (`groundings == 1`,
    // `Rebuilt`), answers like a fresh session, and the re-read is the
    // cached model.  No rule reads `colour`, so writing it is pure EDB, and
    // no exception.  Under the stable semantics (no magic route, so no
    // fallback) the stable models after each write are a fresh session's.
    let program = parse_program(
        "win(X) :- move(X, Y), not win(Y).\n\
         move(a, b). move(b, a). move(b, c). colour(red).",
    )
    .unwrap();
    let (win, open) = (
        parse_query("?- win(X).").unwrap(),
        parse_query("?- P(X).").unwrap(),
    );
    let term = |t: &str| parse_term(t).unwrap();
    // (fact, asserted, the query read first after the write)
    let steps = [
        (term("move(c, d)"), true, &win),
        (term("colour(blue)"), true, &open),
        (term("colour(blue)"), false, &open),
        (term("move(c, d)"), false, &open),
    ];
    for semantics in [Semantics::WellFounded, Semantics::Stable] {
        let session = |program: &Program| {
            HiLogDb::builder()
                .program(program.clone())
                .semantics(semantics)
                .build()
        };
        let (published, handle) = session(&program).into_serving();
        let doors = [
            ("owner session", Door::Owner(session(&program))),
            (
                "writer.db()",
                Door::Writer(session(&program).into_serving().0),
            ),
            ("published snapshot", Door::Published(published, handle)),
        ];
        for (name, mut door) in doors {
            // A model warm before the first write, on the writer's side too.
            door.query(&open);
            if let Door::Published(writer, _) = &mut door {
                writer.db().model().unwrap();
            }
            for (fact, asserted, first) in &steps {
                door.write(fact, *asserted);
                let context = format!("{name}, {semantics}, after writing `{fact}` ({asserted})");
                let mut fresh = session(&door.program());
                let read = door.query(first);
                assert_eq!(
                    read.stats.model_source,
                    ModelSource::Rebuilt,
                    "{context}: a model outlived the write"
                );
                assert_eq!(
                    read.stats.groundings, 1,
                    "{context}: a grounding outlived the write"
                );
                assert_results_agree(&read, &fresh.query(first).unwrap(), &context);
                if semantics == Semantics::WellFounded && std::ptr::eq(*first, &win) {
                    assert!(read.fallback.is_some(), "{context}: no fallback");
                }
                for query in [&win, &open] {
                    let again = door.query(query);
                    assert_eq!(
                        again.stats.model_source,
                        ModelSource::Cached,
                        "{context}, re-read"
                    );
                    assert_eq!(again.stats.groundings, 0, "{context}, re-read");
                    assert_results_agree(&again, &fresh.query(query).unwrap(), &context);
                }
                if semantics == Semantics::Stable {
                    assert_eq!(
                        door.stable_models(),
                        fresh.stable_models().unwrap(),
                        "{context}"
                    );
                }
            }
        }
    }
}

/// What the table pass did over one batch stream, read off the writer's
/// counters: instances re-derived as bound sub-queries, and publishes across
/// which the (non-ground) table of the stream's open query changed its
/// answers without one — so it was re-solved whole.
#[derive(Debug, Default, Clone, Copy)]
struct PassRoutes {
    rederived: usize,
    resolved_whole: usize,
}

/// One randomized stream of write batches through a `DbWriter`: every batch
/// is 1–8 asserts and retracts drawn from a small pool of facts — so
/// duplicates, retractions of absent facts, and an assert undone in its own
/// batch all occur, and the game families close (and reopen) cycles through
/// negation — settled in one table-maintenance pass at `publish`.  After
/// every publish each query must answer as a fresh session over the
/// published program does, and **from warm tables**: a query that evaluated
/// without a fallback at the previous epoch and does so at this one applies
/// no rule, because the pass re-solved whatever the batch changed.  (When
/// the batch closed a cycle through negation the re-solve fails, the table
/// is dropped, and the query falls back exactly as the fresh session's
/// does.)  One early snapshot stays pinned and keeps answering its epoch,
/// and others are pinned for one to three epochs and let go: the writer
/// takes back the program index and the table arena the snapshot before
/// last held and catches them up, and copies them while a pin holds them.
///
/// Between the fact-level writes the stream goes through the other doors by
/// which a table enters or leaves the writer's map: a query of the writer's
/// own session *inside* the batch (`writer.db().query(..)`: the batch so far
/// is settled, the tables the query completes go in through the working
/// snapshot) held to a fresh session over the unpublished program, and
/// `assert_rule` / `retract_rule` from a pool of three — a second rule for
/// the family's derived relation, `reach(X, X) :- bonus(X).`, and `safe`,
/// which reads both through negation — over a `bonus` relation the stream
/// writes too.  A rule-level mutation drops the closure of its head, so the
/// epoch after one is held to the fresh session but not to warm tables.
///
/// Six families by `seed % 6`, the first query of each an open one whose
/// table the pass re-derives per instance where it can: the normal and the
/// HiLog game (enough positions that the instances a batch names are fewer
/// than the readers the table recorded), transitive closure (tables in
/// recursive groups: re-solved whole), a join whose head variable is bound
/// by its *last* literal, behind a negation, an open aggregate over a written
/// relation, and the HiLog game asked with the game unbound.
fn run_batch_stream(seed: u64, rounds: usize, storage: &StorageConfig) -> PassRoutes {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
    let node = |i: usize| format!("n{i}");
    let hilog_game = "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                      game(g). game(h). g(n0, n1). g(n1, n2). g(n3, n4). g(n5, n6).\n\
                      g(n6, n7). g(n8, n9). g(n10, n11). h(n2, n1). h(n4, n7).";
    // (rules and initial facts, nodes, the relations the stream writes with
    // their arities, the open queries, the query asked of every node, the
    // instance of the derived relation the rule pool derives and negates)
    type PointQuery = fn(usize) -> String;
    type Family = (
        &'static str,
        usize,
        &'static [(&'static str, usize)],
        &'static [&'static str],
        PointQuery,
        &'static str,
    );
    let (text, nodes, relations, open, point, derived): Family = match seed % 6 {
        0 => (
            "winning(X) :- move(X, Y), not winning(Y).\n\
                 move(n0, n1). move(n1, n2). move(n3, n4). move(n5, n6). move(n6, n7).\n\
                 move(n7, n8). move(n2, n9). move(n9, n10). move(n10, n11).",
            12,
            &[("move", 2)],
            &["?- winning(X).", "?- move(n0, X)."],
            |i| format!("?- winning(n{i})."),
            "winning(X)",
        ),
        1 => (
            hilog_game,
            12,
            &[("g", 2), ("h", 2)],
            &["?- winning(g)(X).", "?- h(X, Y)."],
            |i| format!("?- winning({})(n{i}).", ["g", "h"][i % 2]),
            "winning(g)(X)",
        ),
        2 => (
            "tc(X, Y) :- e(X, Y).\n\
                 tc(X, Y) :- e(X, Z), tc(Z, Y).\n\
                 e(n0, n1). e(n1, n2). e(n2, n0). e(n2, n3).",
            5,
            &[("e", 2)],
            &["?- tc(X, n3)."],
            |i| format!("?- tc(n{i}, Y)."),
            "tc(X, X)",
        ),
        3 => (
            "p(X, Z) :- a(X, Y), not b(Y), c(Y, Z).\n\
                 a(n0, n1). a(n2, n3). a(n4, n5). a(n6, n7). a(n1, n1). a(n3, n5).\n\
                 c(n1, n2). c(n3, n4). c(n5, n6). c(n7, n0). c(n5, n0). b(n7).",
            8,
            &[("a", 2), ("b", 1), ("c", 2)],
            &["?- p(X, Z)."],
            |i| format!("?- p(n{i}, Z)."),
            "p(X, X)",
        ),
        4 => (
            "total(X, N) :- item(X), N = sum(Q, part(X, Y, Q)).\n\
                 used(Y, N) :- N = sum(Q, part(X, Y, Q)).\n\
                 item(n0). item(n1). item(n2). item(n3). item(n4). item(n5). item(n6).\n\
                 part(n0, n1, 2). part(n0, n2, 1). part(n1, n3, 3). part(n2, n3, 1).\n\
                 part(n3, n4, 2). part(n4, n5, 1). part(n5, n6, 2). part(n6, n7, 1).",
            8,
            &[("part", 3), ("item", 1)],
            &["?- total(X, N).", "?- used(Y, N)."],
            |i| format!("?- total(n{i}, N)."),
            "total(X, 1)",
        ),
        _ => (
            hilog_game,
            12,
            &[("g", 2), ("h", 2)],
            &["?- game(M), winning(M)(X).", "?- winning(M)(X)."],
            |i| format!("?- winning({})(n{i}).", ["g", "h"][i % 2]),
            "winning(h)(X)",
        ),
    };
    let queries: Vec<_> = (open.iter().map(|q| q.to_string()))
        .chain((0..nodes).map(point))
        .map(|q| parse_query(&q).unwrap())
        .collect();
    // The other doors draw from a generator of their own: the fact-level
    // stream of a seed is the one it was before they were opened.
    let mut doors = StdRng::seed_from_u64(seed ^ 0xD0025);
    let rules = parse_program(&format!(
        "{derived} :- bonus(X).\n\
         reach(X, X) :- bonus(X).\n\
         safe(X) :- bonus(X), not {derived}, not reach(X, X)."
    ))
    .unwrap()
    .rules;
    // What the writer's session is asked inside a batch: the stream's
    // queries, and the relations only the rule pool derives.
    let reads: Vec<_> = (queries.iter().cloned())
        .chain(["?- safe(X).", "?- reach(X, Y)."].map(|q| parse_query(q).unwrap()))
        .collect();
    let (mut writer, handle) = HiLogDb::builder()
        .program(parse_program(text).unwrap())
        .storage(storage.clone())
        .build()
        .into_serving();
    // Whether each query evaluated without a fallback at the last epoch.
    let mut settled = vec![false; queries.len()];
    let mut pinned: Option<(std::sync::Arc<DbSnapshot>, Vec<BTreeSet<String>>)> = None;
    let mut routes = PassRoutes::default();
    // The writer's counters run on until a query of the *session* reads
    // them: a pass's share is what a probe after the publish reads, plus
    // what a read inside the batch took with it.
    let probe = parse_query("?- probe.").unwrap();
    let mut open_answers: Vec<Option<BTreeSet<String>>> = vec![None; open.len()];
    // Short pins, (snapshot, its answers, the round it is let go), drawn
    // from a generator of their own for the same reason as the doors.
    let mut pins = StdRng::seed_from_u64(seed ^ 0x7A1E);
    let mut short_pins: Vec<(std::sync::Arc<DbSnapshot>, Vec<BTreeSet<String>>, usize)> =
        Vec::new();
    for round in 0..rounds {
        let (mut read_rederived, mut read_dropped) = (0, 0);
        let mut rules_moved = false;
        for _ in 0..rng.gen_range(1..=8) {
            match doors.gen_range(0..12) {
                0 | 1 => {
                    let query = &reads[doors.gen_range(0..reads.len())];
                    let served = writer.db().query(query).expect("the session answers");
                    let reference = HiLogDb::new(writer.program().clone())
                        .query(query)
                        .expect("fresh session answers");
                    let context = format!("seed {seed}, round {round}, {query} inside the batch");
                    assert_results_agree(
                        &served,
                        &reference,
                        &format!("{context}\n{}", writer.program()),
                    );
                    read_rederived += served.stats.instances_rederived;
                    read_dropped += served.stats.tables_dropped;
                }
                2 => {
                    let rule = &rules[doors.gen_range(0..rules.len())];
                    if doors.gen_bool(0.6) {
                        writer.assert_rule(rule.clone());
                        rules_moved = true;
                    } else {
                        rules_moved |= writer.retract_rule(rule);
                    }
                }
                3 => {
                    let bonus =
                        Term::apps("bonus", vec![Term::sym(node(doors.gen_range(0..nodes)))]);
                    if doors.gen_bool(0.7) {
                        writer.assert_fact(bonus).unwrap();
                    } else {
                        writer.retract_fact(&bonus);
                    }
                }
                _ => {}
            }
            let (relation, arity) = relations[rng.gen_range(0..relations.len())];
            // Three draws in four point forward, so that the games stay
            // acyclic for a while before a batch closes a cycle.
            let (from, to) = if rng.gen_bool(0.75) {
                let from = rng.gen_range(0..nodes - 1);
                (from, rng.gen_range(from + 1..nodes))
            } else {
                (rng.gen_range(0..nodes), rng.gen_range(0..nodes))
            };
            let mut args = vec![Term::sym(node(from)), Term::sym(node(to))];
            args.truncate(arity);
            if arity == 3 {
                args.push(Term::int(rng.gen_range(1..=2)));
            }
            let fact = Term::apps(relation, args);
            if rng.gen_bool(0.5) {
                writer.assert_fact(fact).unwrap();
            } else {
                writer.retract_fact(&fact);
            }
        }
        writer.publish();
        let pass = writer
            .db()
            .query(&probe)
            .expect("the session answers")
            .stats;
        let pass_rederived = read_rederived + pass.instances_rederived;
        let pass_dropped = read_dropped + pass.tables_dropped;
        routes.rederived += pass_rederived;
        if rules_moved {
            settled.fill(false);
            open_answers.fill(None);
        }
        let snapshot = handle.current();
        let mut fresh = HiLogDb::new(snapshot.program().clone());
        let mut answers = Vec::with_capacity(queries.len());
        for (query, settled) in queries.iter().zip(&mut settled) {
            let context = format!("seed {seed}, round {round}, {query}");
            let served = snapshot.query(query).expect("published snapshot answers");
            let reference = fresh.query(query).expect("fresh session answers");
            assert_results_agree(
                &served,
                &reference,
                &format!("{context}\n{}", snapshot.program()),
            );
            let evaluated = served.fallback.is_none();
            if *settled && evaluated {
                // A conjunction is wrapped in an auxiliary rule, expanded
                // once over warm tables and never kept.
                let auxiliary = usize::from(query.literals.len() > 1);
                assert_eq!(
                    served.stats.rule_applications,
                    auxiliary,
                    "{context}: the batch left a cold table\n{}",
                    snapshot.program()
                );
            }
            *settled = evaluated;
            answers.push(answer_set(&served));
        }
        // An open query's table stayed warm across this publish (the check
        // above), nothing was dropped and no instance was re-derived, yet
        // its answers moved: the pass re-solved it whole.
        for (i, before) in open_answers.iter_mut().enumerate() {
            let now = settled[i].then(|| answers[i].clone());
            if let (Some(before), Some(now)) = (&before, &now) {
                if before != now && pass_rederived == 0 && pass_dropped == 0 {
                    routes.resolved_whole += 1;
                }
            }
            *before = now;
        }
        short_pins.retain(|(old, expected, release)| {
            if *release > round {
                return true;
            }
            for (query, expected) in queries.iter().zip(expected) {
                let again = old.query(query).expect("pinned snapshot answers");
                assert_eq!(
                    &answer_set(&again),
                    expected,
                    "seed {seed}, round {round}: a short pin moved on {query}"
                );
            }
            false
        });
        if pins.gen_bool(0.3) {
            let release = round + pins.gen_range(1..=3usize);
            short_pins.push((snapshot.clone(), answers.clone(), release));
        }
        match &pinned {
            None if round == 1 => pinned = Some((snapshot, answers)),
            None => {}
            Some((old, expected)) => {
                let i = round % queries.len();
                let again = old.query(&queries[i]).expect("pinned snapshot answers");
                assert_eq!(
                    &answer_set(&again),
                    &expected[i],
                    "seed {seed}, round {round}: the pinned epoch moved on {}",
                    queries[i]
                );
            }
        }
    }
    routes
}

/// Both routes of the table pass run under the batch-stream property —
/// otherwise the property pins nothing about the one that did not: every
/// family re-derives instances, and the games and the unguarded aggregate
/// (one recorded reader: nothing is cheaper than replaying it) also have
/// their open tables re-solved whole.
#[test]
fn pinned_batch_streams_take_both_routes_of_the_table_pass() {
    let mut by_family = [PassRoutes::default(); 6];
    for seed in 0..48 {
        let routes = run_batch_stream(seed, 8, &StorageConfig::InMemory);
        let family = &mut by_family[(seed % 6) as usize];
        family.rederived += routes.rederived;
        family.resolved_whole += routes.resolved_whole;
    }
    for (family, routes) in by_family.iter().enumerate() {
        assert!(routes.rederived > 0, "family {family}: {routes:?}");
    }
    for family in [0, 1, 4] {
        let routes = by_family[family];
        assert!(routes.resolved_whole > 0, "family {family}: {routes:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(12)))]

    /// Randomized sequences of `assert_fact` / `retract_fact` /
    /// `assert_rule` / `retract_rule` interleaved with queries: every
    /// intermediate result must match a fresh session built from the
    /// equivalent program.
    #[test]
    fn randomized_mutation_sequences_match_fresh_sessions(seed in 0u64..1_000_000) {
        run_mutation_sequence(seed, 6);
    }

    /// Randomized streams of write *batches* through the serving writer,
    /// one table-maintenance pass each: every published epoch answers as a
    /// fresh session does, from tables the pass kept warm.
    #[test]
    fn randomized_batch_streams_publish_settled_warm_tables(seed in 0u64..1_000_000) {
        run_batch_stream(seed, 8, &StorageConfig::InMemory);
    }

    /// The same streams with the writer's program index paged through a
    /// 256-fact residency budget: the index edits a batch makes, in place
    /// or replayed into the caught-up twin, go through the paging path.
    #[test]
    fn randomized_batch_streams_on_the_spill_backend(seed in 0u64..1_000_000) {
        run_batch_stream(seed, 8, &StorageConfig::Spill { dir: None, resident_budget: 256 });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(16)))]

    /// For random range-restricted normal programs, `assert_fact` followed by
    /// a query agrees with building a fresh `HiLogDb` from the extended
    /// program — under both plan families: a bound query (magic-sets route,
    /// with WFS fallback on non-modularly-stratified instances) and an
    /// unbound query (full-model route).
    #[test]
    fn assert_fact_agrees_with_fresh_session(
        seed in 0u64..5_000,
        edb in 0usize..2,
        idb in 0usize..3,
        a in 0usize..5,
        b in 0usize..5,
    ) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let fact = hilog_core::Term::apps(
            format!("edb{edb}"),
            vec![
                hilog_core::Term::sym(format!("c{a}")),
                hilog_core::Term::sym(format!("c{b}")),
            ],
        );
        // Magic-sets plan: bound query on a derived predicate.
        let bound = parse_query(&format!("?- idb{idb}(X).")).unwrap();
        check_incremental_agreement(&program, &fact, &bound);
        // Full-model plan: unbound query over every unary atom.
        let unbound = parse_query("?- P(X).").unwrap();
        check_incremental_agreement(&program, &fact, &unbound);
    }

    /// Retraction undoes assertion: after assert + retract the session
    /// answers exactly like an untouched session.
    #[test]
    fn retract_restores_previous_answers(seed in 0u64..5_000, idb in 0usize..3) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let query = parse_query(&format!("?- idb{idb}(X).")).unwrap();
        let mut pristine = HiLogDb::new(program.clone());
        let before = pristine.query(&query).unwrap();

        let fact = hilog_core::Term::apps(
            "edb0",
            vec![hilog_core::Term::sym("c0"), hilog_core::Term::sym("c1")],
        );
        let mut mutated = HiLogDb::new(program);
        let _ = mutated.query(&query);
        mutated.assert_fact(fact.clone()).unwrap();
        let _ = mutated.query(&query);
        prop_assert!(mutated.retract_fact(&fact));
        let after = mutated.query(&query).unwrap();
        prop_assert_eq!(answer_set(&after), answer_set(&before));
    }
}
