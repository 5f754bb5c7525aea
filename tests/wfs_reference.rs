//! Reference oracle for the well-founded evaluator: the one evaluation (the
//! SCC condensation settled component by component on the calling thread)
//! must produce the model Definition 3.5 defines, and produce it — answers,
//! stable sets and model order — the same way every time it repeats.
//!
//! Every model is compared to `engine::well_founded_of_ground`, the literal
//! global `W_P` iteration that no production path calls, on the same
//! relevant grounding.  The model after a mutation gets the same treatment:
//! evaluated from the session's maintained grounding, against a fresh
//! evaluation of the mutated program.  The program families are those of
//! `tests/differential.rs` — the pinned regression corpus in
//! `tests/corpus/differential_seeds.txt` always runs first, and
//! `HILOG_PARALLEL_CASES` (its name is older than the file's) scales the
//! total case count in CI.
//!
//! Determinism is checked separately from agreement: repeated evaluations
//! must yield byte-identical answer/truth/plan JSON and identical model
//! iteration order.  Evaluation statistics are excluded from those
//! comparisons — they count the work done, which caching may change —
//! which is why the determinism guarantee is stated over answers, not over
//! stats.

use hilog_repro::engine::well_founded_of_ground;
use hilog_repro::prelude::*;
use hilog_workloads::random_programs::{
    random_range_restricted_normal, random_strongly_restricted_hilog, HilogProgramConfig,
    NormalProgramConfig,
};
use hilog_workloads::{sharded_chain_game_program, sharded_game_program};

/// The committed regression corpus shared with `tests/differential.rs`.
fn pinned_seeds() -> Vec<u64> {
    include_str!("corpus/differential_seeds.txt")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.trim().parse().expect("corpus seeds are integers"))
        .collect()
}

/// Pinned seeds plus `extra` generated ones; `HILOG_PARALLEL_CASES`
/// overrides the *total* case count (never dropping below the corpus).
fn seeds(extra: usize) -> Vec<u64> {
    let pinned = pinned_seeds();
    let total = std::env::var("HILOG_PARALLEL_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(pinned.len() + extra)
        .max(pinned.len());
    let mut out = pinned;
    let mut next = 2_000_000u64;
    while out.len() < total {
        out.push(next);
        next += 1;
    }
    out
}

/// Definition 3.5's model of `program`: the global `W_P` iteration over the
/// relevant grounding, independent of the component order under test.
fn reference_model(program: &Program) -> Model {
    let ground = relevant_ground(program, EvalOptions::default()).expect("program grounds");
    well_founded_of_ground(&ground)
}

#[test]
fn normal_programs_have_the_reference_model() {
    for seed in seeds(20) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let reference = reference_model(&program);
        let mut db = HiLogDb::new(program);
        assert_eq!(
            db.model().expect("model evaluates"),
            &reference,
            "diverged from Definition 3.5 (seed {seed}, normal)"
        );
    }
}

#[test]
fn hilog_programs_have_the_reference_model() {
    for seed in seeds(0) {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
        let reference = reference_model(&program);
        let mut db = HiLogDb::new(program);
        assert_eq!(
            db.model().expect("model evaluates"),
            &reference,
            "diverged from Definition 3.5 (seed {seed}, HiLog)"
        );
    }
}

#[test]
fn stable_models_extend_the_reference_and_repeat() {
    // Stable-set enumeration shares the session's grounding with the
    // well-founded path.  Every stable model extends Definition 3.5's model
    // (an atom the well-founded model decides is decided the same way in
    // each), and enumerating again in a fresh session finds the same sets.
    for seed in seeds(0).into_iter().take(20) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let reference = reference_model(&program);
        let models = HiLogDb::new(program.clone())
            .stable_models()
            .expect("stable sets enumerate")
            .to_vec();
        for model in &models {
            assert!(model.extends(&reference), "{model}\n(seed {seed})");
        }
        let again = HiLogDb::new(program)
            .stable_models()
            .expect("stable sets enumerate")
            .to_vec();
        assert_eq!(
            models, again,
            "stable sets diverge on a repeat (seed {seed})"
        );
    }
}

#[test]
fn bound_queries_agree_with_the_reference() {
    // Instance-level oracle: every ground atom of the reference model
    // receives the same three-valued verdict from the magic-sets route.
    for seed in seeds(0).into_iter().take(25) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let reference = reference_model(&program);
        let mut magic = HiLogDb::new(program);
        let answered: Model = reference
            .base()
            .iter()
            .map(|atom| {
                let result = magic.query(&Query::atom(atom.clone()));
                let truth = result.expect("bound query evaluates").truth;
                (atom.clone(), truth)
            })
            .collect();
        assert_eq!(answered, reference, "bound queries diverge (seed {seed})");
    }
}

#[test]
fn incremental_patching_agrees_with_the_reference() {
    // The incrementally maintained grounding: an assertion sequence applied
    // to a warm session must pass, at every step, through the model a fresh
    // evaluation of the mutated program defines.
    for seed in seeds(0).into_iter().take(25) {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
        let mut db = HiLogDb::new(program);
        db.model().expect("warm the caches");
        for step in 0..3u64 {
            let fact = parse_term(&format!("r0(c0, c{})", 1 + ((seed + step) % 3))).unwrap();
            db.assert_fact(fact).expect("fact asserts");
            let maintained = db.model().expect("model after the assert").clone();
            assert_eq!(
                maintained,
                reference_model(db.program()),
                "model after the assert diverges from fresh evaluation (seed {seed}, step {step})"
            );
        }
    }
}

/// The stable observable part of a query result: answers, overall truth,
/// plan, and fallback — everything except the stats member, whose counts
/// caching may change.
fn observable_json(result: &QueryResult) -> Vec<(String, String)> {
    let full: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(result).unwrap()).unwrap();
    ["answers", "truth", "plan", "fallback"]
        .iter()
        .map(|m| {
            (
                m.to_string(),
                serde_json::to_string(full.get(m).expect("member present")).unwrap(),
            )
        })
        .collect()
}

#[test]
fn query_results_are_deterministic_across_runs() {
    // Deep chains maximise the number of components, the random-DAG shards
    // their width; both must answer identically — bytes included — on every
    // run.
    let programs = [
        ("chain", sharded_chain_game_program(3, 60)),
        ("dag", sharded_game_program(4, 12, 7)),
    ];
    for (family, program) in programs {
        let queries = ["?- winning0(X).", "?- winning1(X).", "?- move2(X, Y)."];
        let mut reference: Option<Vec<Vec<(String, String)>>> = None;
        for run in 0..2 {
            let mut db = HiLogDb::new(program.clone());
            let observed: Vec<_> = queries
                .iter()
                .map(|q| {
                    let result = db.query(&parse_query(q).unwrap()).expect("query evaluates");
                    observable_json(&result)
                })
                .collect();
            match &reference {
                None => reference = Some(observed),
                Some(expected) => assert_eq!(
                    &observed, expected,
                    "nondeterministic answers ({family}, run {run})"
                ),
            }
        }
    }
}

#[test]
fn model_iteration_order_is_the_reference_order() {
    // Two fresh evaluations and Definition 3.5's model are one model, and
    // list their atoms (true, undefined, false) in one order.
    let program = sharded_chain_game_program(4, 50);
    let reference = reference_model(&program);
    for run in 0..2 {
        let mut db = HiLogDb::new(program.clone());
        let model = db.model().expect("model evaluates");
        assert_eq!(model, &reference, "model diverges (run {run})");
        assert_eq!(
            model.to_string(),
            reference.to_string(),
            "model iteration order changed (run {run})"
        );
    }
}
