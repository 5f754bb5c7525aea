//! Differential test oracle for the `HiLogDb` session against the
//! independent `hilog-datalog` naive engine.
//!
//! The two engines share no evaluation code: `hilog-engine` grounds the
//! HiLog instantiation and runs the indexed alternating fixpoint, while
//! `hilog-datalog` is a conventional relation-per-predicate semi-naive
//! evaluator with its own ground well-founded construction.  Feeding both
//! the same random programs and demanding identical three-valued models is
//! therefore a genuine cross-implementation oracle — exactly the kind of
//! check the incremental-maintenance machinery of this PR needs behind it.
//!
//! Coverage (≥ 200 seeded cases in the default configuration, scaled up in
//! CI via `HILOG_DIFFERENTIAL_CASES`):
//!
//! * random range-restricted normal programs **with negation** — HiLogDb
//!   well-founded model vs the naive engine's well-founded model, and the
//!   magic-sets route's three-valued verdict per ground atom vs the model
//!   (pins the tabled evaluator's fixpoint soundness and the
//!   path-independence of its negative-cycle detection);
//! * random **negation-free** normal programs — HiLogDb model (total) vs
//!   the naive least model and the stratified model;
//! * random strongly range-restricted **HiLog** programs (outside the
//!   naive engine's fragment) — full-model plans vs magic-sets plans of an
//!   independent session, and incremental `assert_fact` vs fresh sessions;
//! * **HiLog** programs against their **universal-relation image**
//!   (Section 2; the encoding of Chen, Kifer and Warren): `HiLogDb`'s
//!   model of `P` and the naive engine's well-founded model of
//!   `universal_transform(P)`, atom for atom through `encode_atom` /
//!   `decode_atom` in both directions — random strongly range-restricted
//!   programs, the generic closure, and acyclic and cyclic HiLog games;
//! * both families — the **grounding** itself: the relevant instantiation
//!   the semi-naive driver emits from its one join pass vs the paper's
//!   definition (`ground_against` over the finished least model), its
//!   possibly-true store vs the least model, and a session's *maintained*
//!   grounding and model
//!   after an assert and retract stream vs a fresh session's; every
//!   grounding's possibly-true atoms are exactly the heads of its rules.
//!
//! The seeds in `tests/corpus/differential_seeds.txt` are a committed
//! regression corpus: they are always run, in every configuration, before
//! any additional generated seeds.

mod common;

use hilog_datalog::DatalogEngine;
use hilog_repro::engine::{ground_against, least_model};
use hilog_repro::prelude::*;
use hilog_workloads::{
    chain, cycle, generic_closure_program, hilog_game_program, random_dag,
    random_range_restricted_normal, random_strongly_restricted_hilog, HilogProgramConfig,
    NormalProgramConfig,
};

/// The committed regression corpus of pinned seeds.
fn pinned_seeds() -> Vec<u64> {
    include_str!("corpus/differential_seeds.txt")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.trim().parse().expect("corpus seeds are integers"))
        .collect()
}

/// Pinned seeds plus `extra` generated ones; `HILOG_DIFFERENTIAL_CASES`
/// overrides the *total* case count (never dropping below the corpus).
fn seeds(extra: usize) -> Vec<u64> {
    let pinned = pinned_seeds();
    let total = std::env::var("HILOG_DIFFERENTIAL_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(pinned.len() + extra)
        .max(pinned.len());
    let mut out = pinned;
    let mut next = 1_000_000u64;
    while out.len() < total {
        out.push(next);
        next += 1;
    }
    out
}

/// Asserts that two models assign the same truth value to every atom in the
/// union of their bases (atoms outside both bases are false in both by the
/// closed-world convention of `Model`).
fn assert_same_model(ours: &Model, theirs: &Model, context: &str) {
    for atom in ours.base().iter().chain(theirs.base()) {
        assert_eq!(
            ours.truth(atom),
            theirs.truth(atom),
            "divergence on `{atom}` ({context})"
        );
    }
}

#[test]
fn normal_programs_with_negation_agree_with_the_naive_engine() {
    for seed in seeds(70) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let mut db = HiLogDb::new(program.clone());
        let ours = db.model().expect("HiLogDb evaluates the program").clone();
        let naive = DatalogEngine::new(program)
            .expect("generated programs are normal")
            .well_founded_model()
            .expect("naive engine evaluates the program");
        assert_same_model(&ours, &naive, &format!("seed {seed}, with negation"));
    }
}

#[test]
fn negation_free_programs_agree_with_the_naive_least_and_stratified_models() {
    let config = NormalProgramConfig {
        negation_probability: 0.0,
        ..NormalProgramConfig::default()
    };
    for seed in seeds(30) {
        let program = random_range_restricted_normal(config, seed);
        assert!(!program.has_negation());
        let mut db = HiLogDb::new(program.clone());
        let ours = db.model().expect("HiLogDb evaluates the program").clone();
        assert!(
            ours.is_total(),
            "negation-free well-founded model must be total (seed {seed})"
        );
        let engine = DatalogEngine::new(program).expect("generated programs are normal");
        let least = engine.least_model().expect("naive least model");
        assert_eq!(
            ours.true_atoms()
                .iter()
                .cloned()
                .collect::<std::collections::BTreeSet<_>>(),
            least,
            "true atoms diverge from the naive least model (seed {seed})"
        );
        let stratified = engine.stratified_model().expect("stratified model");
        assert_same_model(&ours, &stratified, &format!("seed {seed}, negation-free"));
    }
}

#[test]
fn bound_queries_agree_with_the_full_model_on_normal_programs() {
    // Instance-level cross-route oracle on programs *with negation*: every
    // ground atom of the well-founded model must receive the same
    // three-valued truth from the magic-sets route — completing with a
    // two-valued verdict, or falling back on a detected negative cycle and
    // surfacing the undefined value — as the model assigns.  This is the
    // check that pins the evaluator's fixpoint soundness (a prematurely
    // completed scope reports false for atoms the model makes true or
    // undefined) and, because the session keeps its tables across the atom
    // loop, the path-independence of the cycle verdict.
    for seed in seeds(30) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let mut full = HiLogDb::new(program.clone());
        let model = full.model().expect("model evaluates").clone();
        let mut magic = HiLogDb::new(program);
        for atom in model.base() {
            let result = magic
                .query(&Query::atom(atom.clone()))
                .expect("bound query evaluates");
            assert!(result.plan.is_magic_sets(), "seed {seed}");
            assert_eq!(
                result.truth,
                model.truth(atom),
                "magic route diverges from the model on `{atom}` (seed {seed})"
            );
        }
    }
}

#[test]
fn hilog_programs_agree_across_plan_families() {
    // Outside the naive engine's normal fragment the oracle is
    // cross-*route*: the full-model plan of one session must agree, atom by
    // atom, with the magic-sets plan of an independent session.
    for seed in seeds(0) {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
        let mut full = HiLogDb::new(program.clone());
        let model = full.model().expect("HiLogDb grounds the program").clone();
        let mut magic = HiLogDb::new(program);
        for atom in model.base() {
            let result = magic
                .query(&Query::atom(atom.clone()))
                .expect("bound query evaluates");
            assert!(
                result.plan.is_magic_sets(),
                "ground-atom query should plan magic-sets (seed {seed})"
            );
            assert_eq!(
                result.truth,
                model.truth(atom),
                "plan families diverge on `{atom}` (seed {seed})"
            );
        }
    }
}

#[test]
fn incremental_assertion_matches_fresh_sessions_on_hilog_programs() {
    // The incremental path (semi-naive delta grounding, then the model
    // evaluated from the maintained grounding) against a from-scratch
    // session, on programs whose variable-headed rules make every
    // mutation's predicate-level scope global.
    for seed in seeds(0) {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
        let mut db = HiLogDb::new(program.clone());
        db.model().expect("warm the caches");
        let fact = parse_term(&format!("r0(c0, c{})", 1 + (seed % 3))).unwrap();
        db.assert_fact(fact.clone()).unwrap();
        let maintained = db.model().expect("model after the assert").clone();

        let mut extended = program;
        extended.push(Rule::fact(fact));
        let mut fresh = HiLogDb::new(extended);
        let reference = fresh.model().expect("fresh model").clone();
        assert_same_model(
            &maintained,
            &reference,
            &format!("seed {seed}, incremental"),
        );
    }
}

/// A random strongly range-restricted HiLog program, and in turn the
/// generic closure, an acyclic HiLog game or a cyclic one (whose odd cycles
/// leave atoms undefined).
fn universal_cases(seed: u64) -> Vec<(Program, String)> {
    let dag = |n| random_dag(n, 1.5, seed);
    let mut cyclic = dag(6);
    cyclic.extend(cycle(3 + (seed % 3) as usize));
    let family = match seed % 3 {
        0 => (
            "closure",
            generic_closure_program(&[("e1", dag(7)), ("e2", cycle(3))]),
        ),
        1 => (
            "acyclic game",
            hilog_game_program(&[("m1", dag(8)), ("m2", chain(4))]),
        ),
        _ => (
            "cyclic game",
            hilog_game_program(&[("m1", cyclic), ("m2", cycle(4))]),
        ),
    };
    vec![
        (
            random_strongly_restricted_hilog(HilogProgramConfig::default(), seed),
            format!("seed {seed}, random HiLog"),
        ),
        (family.1, format!("seed {seed}, {}", family.0)),
    ]
}

#[test]
fn hilog_programs_agree_with_their_universal_image() {
    let (mut programs, mut atoms, mut undefined) = (0, 0, 0);
    for seed in seeds(0) {
        for (program, context) in universal_cases(seed) {
            let ours = HiLogDb::new(program.clone())
                .model()
                .expect("HiLogDb evaluates the program")
                .clone();
            let (checked, open) =
                common::assert_agrees_with_universal_image(&program, &ours, &context);
            programs += 1;
            atoms += checked;
            undefined += open;
        }
    }
    eprintln!(
        "universal image: {atoms} HiLog atoms ({undefined} undefined) over {programs} programs"
    );
    assert!(undefined > 0, "the cyclic games leave atoms undefined");
}

/// Both generated families at their default size, plus (every fourth seed) a
/// wide variant whose semi-naive frontiers run to a hundred atoms and more.
fn grounding_cases(seed: u64) -> Vec<(Program, String)> {
    let mut cases = vec![
        (
            random_range_restricted_normal(NormalProgramConfig::default(), seed),
            format!("seed {seed}, normal"),
        ),
        (
            random_strongly_restricted_hilog(HilogProgramConfig::default(), seed),
            format!("seed {seed}, hilog"),
        ),
    ];
    if seed % 4 == 0 {
        let normal = NormalProgramConfig {
            constants: 14,
            facts: 110,
            rules: 8,
            ..NormalProgramConfig::default()
        };
        let hilog = HilogProgramConfig {
            relation_names: 3,
            constants: 9,
            facts_per_relation: 40,
            with_negation: true,
        };
        cases.push((
            random_range_restricted_normal(normal, seed),
            format!("seed {seed}, wide normal"),
        ));
        cases.push((
            random_strongly_restricted_hilog(hilog, seed),
            format!("seed {seed}, wide hilog"),
        ));
    }
    cases
}

fn rule_set(ground: &GroundProgram) -> std::collections::BTreeSet<GroundRule> {
    ground.rules().collect()
}

/// The grounding's invariant: its possibly-true atoms are exactly the heads
/// of its rules.
fn assert_live_atoms_are_the_heads(ground: &GroundProgram, context: &str) {
    let heads: std::collections::BTreeSet<Term> = ground.rules().map(|rule| rule.head).collect();
    let live: Vec<&Term> = ground.possibly_true().iter().collect();
    assert!(
        live.iter().copied().eq(heads.iter()),
        "the possibly-true atoms are not the rules' heads ({context})"
    );
}

#[test]
fn the_fused_grounding_is_the_definitional_one() {
    // `relevant_ground` takes its instances from the joins that compute the
    // possibly-true store; Section 4's definition joins every rule against
    // the *finished* store.  Same set of ground rules, no instance twice,
    // and the store the driver leaves behind in the grounding is the least
    // model (the same driver with nothing to do per match) and the rules'
    // heads.
    for seed in seeds(0) {
        for (program, context) in grounding_cases(seed) {
            let opts = EvalOptions::default();
            let model = least_model(&program, NegationMode::Ignore, opts).expect("least model");
            let reference = ground_against(&program, &model, opts).expect("definitional");
            let fused = relevant_ground(&program, opts).expect("fused");
            assert_eq!(
                rule_set(&fused),
                rule_set(&reference),
                "fused grounding differs from the definition ({context})"
            );
            assert_eq!(
                fused.len(),
                reference.len(),
                "an instance was emitted twice ({context})"
            );
            assert!(
                fused.possibly_true().iter().eq(model.iter()),
                "the grounding's store is not the least model ({context})"
            );
            assert_live_atoms_are_the_heads(&fused, &context);
        }
    }
}

#[test]
fn a_maintained_grounding_equals_a_cold_one_after_an_assert_and_retract_stream() {
    // Cold grounding is the driver from an empty store, `assert_fact` the
    // driver continued from the new fact, `retract_fact` DRed over the
    // grounding (or, for a fact no rule reads, an edit in place): after any
    // stream of assertions (new edges, duplicates, derived atoms, facts no
    // rule reads) and retractions (of those, and of the program's own facts)
    // the session's maintained ground program must be the set a fresh
    // session grounds cold, and its model a fresh session's, base included.
    // The model is read after every write, so an unread fact's retraction
    // patches a warm model.
    for seed in seeds(0) {
        for hilog in [false, true] {
            let program = if hilog {
                random_strongly_restricted_hilog(HilogProgramConfig::default(), seed)
            } else {
                random_range_restricted_normal(NormalProgramConfig::default(), seed)
            };
            let mut db = HiLogDb::new(program);
            db.model().expect("warm the grounding and the model");
            let context = format!("seed {seed}, hilog {hilog}");
            let cold = db.ground_program().expect("cold grounding");
            assert_live_atoms_are_the_heads(cold, &context);
            // A cheap deterministic stream: the generators' own vocabulary,
            // stepped by the seed.  Every third write is a retraction.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut asserted: Vec<Term> = Vec::new();
            for step in 0..9 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (a, b, pick) = ((state >> 33) % 5, (state >> 40) % 5, (state >> 50) % 5);
                if step % 3 == 2 {
                    // One of the stream's own facts, or one of the program's.
                    let fact = if pick % 2 == 0 && !asserted.is_empty() {
                        asserted.swap_remove(a as usize % asserted.len())
                    } else {
                        let facts: Vec<Term> =
                            db.program().facts().map(|r| r.head.clone()).collect();
                        facts[(state >> 20) as usize % facts.len()].clone()
                    };
                    db.retract_fact(&fact);
                    db.model().expect("model after a retraction");
                    let ground = db.ground_program().expect("grounding after a retraction");
                    assert_live_atoms_are_the_heads(ground, &format!("{context}, step {step}"));
                    continue;
                }
                let text = match (hilog, pick) {
                    (_, 0) => format!("unread(c{a}, c{b})"),
                    // A derived atom, often one the store already holds: the
                    // fact instance is new, the continuation has nothing to do.
                    (true, 1) => format!("reach(r{})(c{}, c{})", a % 2, a % 4, b % 4),
                    (false, 1) => format!("idb{}(c{a})", b % 3),
                    (true, _) => format!("r{}(c{}, c{})", pick % 2, a % 4, b % 4),
                    (false, _) => format!("edb{}(c{a}, c{b})", pick % 2),
                };
                let fact = parse_term(&text).unwrap();
                db.assert_fact(fact.clone()).unwrap();
                db.model().expect("model after an assertion");
                let ground = db.ground_program().expect("grounding after an assertion");
                assert_live_atoms_are_the_heads(ground, &format!("{context}, step {step}"));
                asserted.push(fact);
            }
            let maintained = db.ground_program().expect("maintained grounding").clone();
            let mut fresh = HiLogDb::new(db.program().clone());
            let cold = fresh.ground_program().expect("cold grounding");
            assert_eq!(rule_set(&maintained), rule_set(cold), "{context}");
            assert_eq!(
                maintained.len(),
                cold.len(),
                "repeated instance ({context})"
            );
            let model = db.model().expect("maintained model").clone();
            assert_eq!(&model, fresh.model().expect("cold model"), "{context}");
        }
    }
}

#[test]
fn the_regression_corpus_is_committed_and_nonempty() {
    let pinned = pinned_seeds();
    assert!(
        pinned.len() >= 50,
        "the pinned regression corpus must keep at least 50 seeds"
    );
    // 50 pinned seeds run through five differential suites, plus the
    // generated extras, keeps the default run above the 200-case bar.
    let total = seeds(70).len() + 2 * seeds(30).len() + 2 * seeds(0).len();
    assert!(
        total >= 200,
        "differential coverage dropped below 200 cases"
    );
}
