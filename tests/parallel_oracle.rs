//! Thread-count oracle for the well-founded evaluator: there is one
//! evaluation order — the SCC-condensation wave schedule — and at every
//! thread count it must produce *exactly* the same model, stable sets and
//! query answers, and that model must be the one Definition 3.5 defines.
//!
//! `EvalOptions::eval_threads` only decides where a wave's components run:
//! inline on the calling thread at `1`, on the engine work pool above that.
//! So these tests compare thread counts 1/2/4/8 **to each other**, and
//! compare every one of them — `1` included — to
//! `engine::well_founded_of_ground`, the literal global `W_P` iteration that
//! no production path calls, on the same relevant grounding.  The model after
//! a mutation gets the same treatment: evaluated from the session's
//! maintained grounding at each thread count, against a fresh evaluation of
//! the mutated program.  The partitioned semi-naive
//! rounds are pinned through the bound-query suite.  The program families
//! are those of `tests/differential.rs` — the pinned regression corpus in
//! `tests/corpus/differential_seeds.txt` always runs first, and
//! `HILOG_PARALLEL_CASES` scales the total case count in CI.
//!
//! Determinism is checked separately from agreement: repeated evaluations at
//! the *same* thread count (and across different thread counts) must yield
//! byte-identical answer/truth/plan JSON and identical model iteration
//! order.  Evaluation statistics are deliberately excluded from those
//! comparisons — the `parallel_*` counters say where the work ran, so they
//! differ between thread counts by design — which is exactly why the
//! determinism guarantee is stated over answers, not over stats.  The
//! counters themselves are per query and exact (counted on the dispatching
//! thread, whatever its pool workers count handed back to it), and the last
//! two tests pin them on a grounding that joins — into an in-memory store
//! through a session, and straight into a spill store that pages.

use hilog_repro::engine::{counters, relevant_ground_into, well_founded_of_ground};
use hilog_repro::prelude::*;
use hilog_workloads::random_programs::{
    random_range_restricted_normal, random_strongly_restricted_hilog, HilogProgramConfig,
    NormalProgramConfig,
};
use hilog_workloads::{
    random_dag, sharded_chain_game_program, sharded_game_program, specialized_closure_program,
};

/// Thread counts every oracle runs at; `1` runs every wave inline.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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
/// relevant grounding, independent of the wave schedule under test.
fn reference_model(program: &Program) -> Model {
    let ground = relevant_ground(program, EvalOptions::default()).expect("program grounds");
    well_founded_of_ground(&ground)
}

/// A session evaluating with exactly `threads` threads.
fn db_with_threads(program: Program, threads: usize) -> HiLogDb {
    HiLogDb::builder()
        .program(program)
        .options(EvalOptions::with_eval_threads(threads))
        .build()
}

#[test]
fn normal_programs_have_thread_count_independent_models() {
    for seed in seeds(20) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let reference = reference_model(&program);
        for threads in THREAD_COUNTS {
            let mut db = db_with_threads(program.clone(), threads);
            assert_eq!(
                db.model().expect("model evaluates"),
                &reference,
                "threads={threads} diverged from Definition 3.5 (seed {seed}, normal)"
            );
        }
    }
}

#[test]
fn hilog_programs_have_thread_count_independent_models() {
    for seed in seeds(0) {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
        let reference = reference_model(&program);
        for threads in THREAD_COUNTS {
            let mut db = db_with_threads(program.clone(), threads);
            assert_eq!(
                db.model().expect("model evaluates"),
                &reference,
                "threads={threads} diverged from Definition 3.5 (seed {seed}, HiLog)"
            );
        }
    }
}

#[test]
fn stable_models_are_thread_count_independent() {
    // Stable-set enumeration shares the session's grounding with the
    // well-founded path; the enumerated models must not depend on the
    // evaluation thread count either.
    for seed in seeds(0).into_iter().take(20) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let mut reference: Option<Vec<Model>> = None;
        for threads in THREAD_COUNTS {
            let mut db = db_with_threads(program.clone(), threads);
            let models = db.stable_models().expect("stable sets enumerate");
            match &reference {
                None => reference = Some(models.to_vec()),
                Some(expected) => assert_eq!(
                    models,
                    &expected[..],
                    "stable sets diverge at threads={threads} (seed {seed})"
                ),
            }
        }
    }
}

#[test]
fn bound_queries_agree_across_thread_counts() {
    // Instance-level oracle: every ground atom of the reference model
    // receives the same three-valued verdict from the magic-sets route at
    // every thread count (above one this exercises the partitioned
    // semi-naive rounds).
    for seed in seeds(0).into_iter().take(25) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let model = reference_model(&program);
        for threads in THREAD_COUNTS {
            let mut magic = db_with_threads(program.clone(), threads);
            for atom in model.base() {
                let result = magic
                    .query(&Query::atom(atom.clone()))
                    .expect("bound query evaluates");
                assert_eq!(
                    result.truth,
                    model.truth(atom),
                    "bound query diverges on `{atom}` at threads={threads} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn incremental_patching_agrees_across_thread_counts() {
    // The incrementally maintained grounding at every thread count: the same
    // assertion sequence applied to warm sessions must pass, at every step,
    // through the model a fresh evaluation of the mutated program defines.
    for seed in seeds(0).into_iter().take(25) {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
        let mut sessions: Vec<(usize, HiLogDb)> = THREAD_COUNTS
            .iter()
            .map(|&t| (t, db_with_threads(program.clone(), t)))
            .collect();
        for (_, db) in &mut sessions {
            db.model().expect("warm the caches");
        }
        for step in 0..3u64 {
            let fact = parse_term(&format!("r0(c0, c{})", 1 + ((seed + step) % 3))).unwrap();
            let mut fresh: Option<Model> = None;
            for (threads, db) in &mut sessions {
                db.assert_fact(fact.clone()).expect("fact asserts");
                let maintained = db.model().expect("model after the assert").clone();
                let expected = fresh.get_or_insert_with(|| reference_model(db.program()));
                assert_eq!(
                    &maintained, expected,
                    "model after the assert diverges from fresh evaluation at threads={threads} \
                     (seed {seed}, step {step})"
                );
            }
        }
    }
}

/// The stable observable part of a query result: answers, overall truth,
/// plan, and fallback — everything except the stats member, whose pooled
/// counters differ between thread counts.
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
fn query_results_are_deterministic_within_and_across_thread_counts() {
    // Deep chains maximise wave count, the random-DAG shards maximise
    // per-wave width; both must answer identically — bytes included — on
    // every run at every thread count.
    let programs = [
        ("chain", sharded_chain_game_program(3, 60)),
        ("dag", sharded_game_program(4, 12, 7)),
    ];
    for (family, program) in programs {
        let queries = ["?- winning0(X).", "?- winning1(X).", "?- move2(X, Y)."];
        let mut reference: Option<Vec<Vec<(String, String)>>> = None;
        for threads in THREAD_COUNTS {
            for run in 0..2 {
                let mut db = db_with_threads(program.clone(), threads);
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
                        "nondeterministic answers ({family}, threads={threads}, run {run})"
                    ),
                }
            }
        }
    }
}

#[test]
fn model_iteration_order_is_thread_count_independent() {
    let program = sharded_chain_game_program(4, 50);
    let mut reference: Option<Vec<String>> = None;
    for threads in THREAD_COUNTS {
        let mut db = db_with_threads(program.clone(), threads);
        let model = db.model().expect("model evaluates");
        let order: Vec<String> = model
            .base()
            .iter()
            .chain(model.true_atoms().iter())
            .chain(model.undefined_atoms().iter())
            .map(|t| t.to_string())
            .collect();
        match &reference {
            None => reference = Some(order),
            Some(expected) => assert_eq!(
                &order, expected,
                "model iteration order changed at threads={threads}"
            ),
        }
    }
}

#[test]
fn per_query_counters_are_exact_when_grounding_joins_on_the_pool() {
    // The win/move families have one positive literal per rule and never
    // probe an index while grounding.  Transitive closure joins two
    // (`tc_edge(X, Y) :- edge(X, Z), tc_edge(Z, Y).`), from frontiers of
    // 64+ atoms: at four threads those rounds run partitioned
    // on the pool, and every probe a pool task makes must come back to the
    // query that dispatched it.  Each partition repeats the serial round's
    // open scans and probes its own slice of the frontier, so the pooled
    // run counts no fewer probes than the inline one.
    let edges = random_dag(48, 3.0, 17);
    assert!(edges.len() >= 64, "{} edges", edges.len());
    let program = specialized_closure_program("edge", &edges);
    let stats_at = |threads: usize| {
        let mut db = db_with_threads(program.clone(), threads);
        let result = db
            .query(&parse_query("?- P(X, Y).").unwrap())
            .expect("full-model query evaluates");
        assert_eq!(result.plan.strategy, PlanStrategy::FullModel);
        assert!(result.answers.len() >= edges.len());
        result.stats
    };
    let inline = stats_at(1);
    assert!(
        inline.index_probes > 0,
        "the closure rule joins on an index"
    );
    assert_eq!(
        (
            inline.parallel_waves,
            inline.parallel_partitioned_rounds,
            inline.parallel_tasks
        ),
        (0, 0, 0),
        "eval_threads = 1 dispatches nothing, whatever other tests pool meanwhile"
    );
    let pooled = stats_at(4);
    assert!(pooled.parallel_tasks > 0, "{pooled:?}");
    assert!(pooled.parallel_waves > 0, "{pooled:?}");
    assert!(pooled.parallel_partitioned_rounds > 0, "{pooled:?}");
    assert!(
        pooled.index_probes >= inline.index_probes,
        "probes made on pool threads were lost: {} at four threads, {} inline",
        pooled.index_probes,
        inline.index_probes
    );
}

#[test]
fn pool_tasks_hand_back_their_spill_traffic_as_well_as_their_probes() {
    // The same closure grounded straight into a spill store that keeps one
    // row resident: the partitions of a round probe the store from pool
    // threads, and every row they fault in or page out there is counted by
    // the thread that dispatched them — not two of the fields, all of them.
    // The store keeps its own lifetime totals under its lock, whoever
    // probes it, so "nothing was lost on the way back" is an equation.
    let edges = random_dag(48, 3.0, 17);
    let program = specialized_closure_program("edge", &edges);
    let grounded_at = |threads: usize| {
        let mut store = FactStore::new(&StorageConfig::Spill {
            dir: None,
            resident_budget: 1,
        });
        let before = counters();
        let ground = relevant_ground_into(
            &program,
            EvalOptions::with_eval_threads(threads),
            &mut store,
        )
        .expect("closure grounds");
        (counters() - before, store.storage_stats(), ground)
    };
    let (inline, inline_store, inline_ground) = grounded_at(1);
    assert_eq!(
        (
            inline.parallel_waves,
            inline.parallel_partitioned_rounds,
            inline.parallel_tasks
        ),
        (0, 0, 0)
    );
    assert!(inline.residency_faults > 0 && inline.spill_writes > 0);
    let (pooled, pooled_store, pooled_ground) = grounded_at(4);
    assert!(pooled.parallel_partitioned_rounds > 0, "{pooled:?}");
    assert!(pooled.parallel_tasks > 0, "{pooled:?}");
    for (route, counted, store) in [
        ("inline", inline, inline_store),
        ("pooled", pooled, pooled_store),
    ] {
        assert_eq!(
            (
                counted.residency_faults,
                counted.spill_writes,
                counted.spill_io_errors
            ),
            (
                store.residency_faults,
                store.spill_writes,
                store.spill_io_errors
            ),
            "{route}: the dispatching thread's counts are not the store's own"
        );
    }
    // Equal to the inline run they are not, and need not be: every partition
    // repeats the round's leading probe of the store and of its slice of the
    // frontier.  What may not happen is a pooled run counting *fewer*.
    assert!(pooled.index_probes >= inline.index_probes);
    assert!(pooled.index_fallback_scans >= inline.index_fallback_scans);
    assert!(pooled.residency_faults >= inline.residency_faults);
    let rules = |ground: &GroundProgram| -> std::collections::BTreeSet<String> {
        ground.rules.iter().map(|rule| rule.to_string()).collect()
    };
    assert_eq!(pooled_ground.len(), inline_ground.len());
    assert_eq!(rules(&pooled_ground), rules(&inline_ground));
}
