//! Reference oracle for the well-founded evaluator: the one evaluation (the
//! SCC condensation settled component by component on the calling thread)
//! must produce the model Definition 3.5 defines, and produce it — answers,
//! stable sets and model order — the same way every time it repeats.
//!
//! Every model is compared to `engine::well_founded_of_ground`, the literal
//! global `W_P` iteration that no production path calls, on the same
//! relevant grounding.  The model after a mutation gets the same treatment:
//! a warm session's model after each assert, against a fresh evaluation of
//! the mutated program.  The program families are those of
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
//!
//! The stable-model search has a brute-force oracle of its own: every total
//! extension of the well-founded model over the atoms it leaves undefined,
//! kept when the least model of its Gelfond–Lifschitz reduct is exactly its
//! true atoms.

use hilog_repro::engine::well_founded_of_ground;
use hilog_repro::engine::with_deadline;
use hilog_repro::prelude::*;
use hilog_workloads::{
    cycle, normal_game_program, random_range_restricted_normal, random_strongly_restricted_hilog,
    sharded_chain_game_program, sharded_game_program, HilogProgramConfig, NormalProgramConfig,
};
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

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

/// `k` independent two-position cycles of the win-move game: 2^k stable
/// models over a well-founded model that leaves all 2k positions undefined.
fn two_cycles(k: usize) -> Program {
    let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
    for i in 0..k {
        text.push_str(&format!("move(a{i}, b{i}). move(b{i}, a{i}).\n"));
    }
    parse_program(&text).unwrap()
}

/// The lasso game: `cycle(n)` plus one exit move, from `p0` to a position
/// with no moves.  Its model is total, and settling it walks the cycle one
/// position at a time.
fn lasso(n: usize) -> Program {
    let mut edges = cycle(n);
    edges.push((0, n + 1));
    normal_game_program(&edges)
}

/// Two lassos that share the position `p0`, each with an exit of its own.
fn two_lassos() -> Program {
    normal_game_program(&[
        (0, 1),
        (1, 2),
        (2, 0),
        (1, 9),
        (0, 3),
        (3, 4),
        (4, 5),
        (5, 0),
        (4, 8),
    ])
}

/// A chain of `k` gated positive loops: `g0.`, and for each `i`
/// `x_i :- y_i.`, `y_i :- x_i.`, `y_i :- not g_i.` and `g_{i+1} :- not x_i.`
/// Each loop becomes unfounded only once the one before it is.
fn gated_loops(k: usize) -> Program {
    let mut text = String::from("g0.\n");
    for i in 0..k {
        let next = i + 1;
        text.push_str(&format!(
            "x{i} :- y{i}. y{i} :- x{i}. y{i} :- not g{i}. g{next} :- not x{i}.\n"
        ));
    }
    parse_program(&text).unwrap()
}

/// The stable models of `program` by brute force, as sets of true atoms:
/// each total extension of Definition 3.5's model over the atoms it leaves
/// undefined whose Gelfond–Lifschitz reduct (Gelfond and Lifschitz, ICLP
/// 1988) has exactly its true atoms as least model.  The reduct is taken
/// here over the grounding's term rules, so nothing of the search is
/// shared but the grounding.  `None` if more than `max_undefined` atoms
/// are undefined.
fn brute_force_stable_sets(
    program: &Program,
    max_undefined: usize,
) -> Option<BTreeSet<BTreeSet<Term>>> {
    let reference = reference_model(program);
    let undefined: Vec<&Term> = reference.undefined_atoms().iter().collect();
    if undefined.len() > max_undefined {
        return None;
    }
    let ground = relevant_ground(program, EvalOptions::default()).expect("program grounds");
    let rules: Vec<GroundRule> = ground.rules().collect();
    // Index the atoms once; each candidate is then a vector of booleans.
    let mut index: HashMap<Term, usize> = HashMap::new();
    let mut id = |atom: &Term| {
        let next = index.len();
        *index.entry(atom.clone()).or_insert(next)
    };
    let rules: Vec<(usize, Vec<usize>, Vec<usize>)> = rules
        .iter()
        .map(|r| {
            (
                id(&r.head),
                r.pos.iter().map(&mut id).collect(),
                r.neg.iter().map(&mut id).collect(),
            )
        })
        .collect();
    let seed: Vec<bool> = {
        let mut truth = vec![false; index.len()];
        for atom in reference.true_atoms() {
            truth[index[atom]] = true;
        }
        truth
    };
    let choices: Vec<usize> = undefined.iter().map(|atom| index[*atom]).collect();
    let mut found = BTreeSet::new();
    for mask in 0..1u64 << choices.len() {
        let mut truth = seed.clone();
        for (bit, &atom) in choices.iter().enumerate() {
            truth[atom] = mask >> bit & 1 == 1;
        }
        let reduct: Vec<_> = rules
            .iter()
            .filter(|(_, _, neg)| neg.iter().all(|&a| !truth[a]))
            .collect();
        let mut least = vec![false; truth.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (head, pos, _) in &reduct {
                if !least[*head] && pos.iter().all(|&a| least[a]) {
                    least[*head] = true;
                    changed = true;
                }
            }
        }
        if least == truth {
            let true_atoms = index
                .iter()
                .filter(|(_, &i)| truth[i])
                .map(|(atom, _)| atom.clone());
            found.insert(true_atoms.collect());
        }
    }
    Some(found)
}

/// Holds the search's stable models of `program` to the brute-force
/// oracle; returns how many there are, or `None` past `max_undefined`.
fn assert_stable_models_are_the_brute_force_ones(
    program: &Program,
    max_undefined: usize,
    context: &str,
) -> Option<usize> {
    let expected = brute_force_stable_sets(program, max_undefined)?;
    let reference = reference_model(program);
    let models = HiLogDb::new(program.clone())
        .stable_models()
        .expect("stable sets enumerate")
        .to_vec();
    let mut found = BTreeSet::new();
    for model in &models {
        assert!(model.is_total(), "a partial stable model ({context})");
        assert!(
            model.base().iter().eq(reference.base().iter()),
            "a stable model over another base ({context})"
        );
        let fresh = found.insert(
            model
                .true_atoms()
                .iter()
                .cloned()
                .collect::<BTreeSet<Term>>(),
        );
        assert!(fresh, "a stable model found twice ({context})");
    }
    assert_eq!(
        found, expected,
        "the search and brute force disagree ({context})"
    );
    Some(models.len())
}

#[test]
fn stable_models_are_the_brute_force_ones() {
    // The k-two-cycle game has 2^k stable models, all of which the search
    // must find (a search capped at 64 models finds half of them at k = 7).
    for k in 1..=8 {
        let found = assert_stable_models_are_the_brute_force_ones(
            &two_cycles(k),
            16,
            &format!("{k} two-cycles"),
        );
        assert_eq!(found, Some(1 << k), "{k} two-cycles");
    }
    // Shapes only the unfounded pass, or a settle that walks one atom per
    // round, decides.
    let shapes = [
        ("a lasso", lasso(7)),
        ("two lassos sharing a node", two_lassos()),
        (
            "a positive loop under a negation",
            parse_program(
                "p :- q. q :- p. r :- not p. s :- r, not q. u :- q, not s. v :- not v, p.",
            )
            .unwrap(),
        ),
        ("gated loops", gated_loops(6)),
        (
            "a positive loop under a choice",
            parse_program("p :- not q. q :- not p. x :- y. y :- x. y :- p. r :- not x.").unwrap(),
        ),
    ];
    for (context, program) in &shapes {
        assert!(
            assert_stable_models_are_the_brute_force_ones(program, 16, context).is_some(),
            "{context}"
        );
    }
    // Random normal programs whose well-founded model leaves at most 14
    // atoms undefined.
    let (mut checked, mut partial) = (0, 0);
    for seed in seeds(0) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        let context = format!("seed {seed}");
        if assert_stable_models_are_the_brute_force_ones(&program, 14, &context).is_some() {
            checked += 1;
            partial += usize::from(!reference_model(&program).is_total());
        }
    }
    eprintln!(
        "brute-force oracle: {checked} random programs checked, {partial} of them with a \
         partial well-founded model"
    );
    assert!(
        checked > 0 && partial > 0,
        "{checked} checked, {partial} partial"
    );
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
fn the_model_after_each_assert_agrees_with_the_reference() {
    // An assertion sequence applied to a warm session must pass, at every
    // step, through the model a fresh evaluation of the mutated program
    // defines.
    for seed in seeds(0).into_iter().take(25) {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
        let mut db = HiLogDb::new(program);
        db.model().expect("warm the caches");
        for step in 0..3u64 {
            let fact = parse_term(&format!("r0(c0, c{})", 1 + ((seed + step) % 3))).unwrap();
            db.assert_fact(fact).expect("fact asserts");
            let after = db.model().expect("model after the assert").clone();
            assert_eq!(
                after,
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

/// Runs `f` under a 10 s deadline.  A settle that re-scans a component per
/// round decides the lasso below in minutes, a linear one in well under a
/// second, in either build.
fn within_ten_seconds<T>(what: &str, f: impl FnOnce() -> Result<T, EngineError>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    with_deadline(Some(deadline), f).unwrap_or_else(|err| panic!("{what}: {err}"))
}

#[test]
fn the_model_of_a_long_lasso_settles_in_linear_time() {
    let mut db = HiLogDb::new(lasso(20_000));
    let model = within_ten_seconds("the lasso's model", || db.model().cloned());
    assert!(model.is_total());
    assert!(model.is_true(&parse_term("winning(p0)").unwrap()));
    assert!(model.is_false(&parse_term("winning(p19999)").unwrap()));
}

#[test]
fn a_bound_query_on_a_long_lasso_settles_in_linear_time() {
    // The cycle sends the query to the full model.
    let mut db = HiLogDb::new(lasso(20_000));
    let query = parse_query("?- winning(p0).").unwrap();
    let result = within_ten_seconds("?- winning(p0).", || db.query(&query));
    assert_eq!(result.truth, Truth::True);
    assert!(result.fallback.is_some());
}

#[test]
fn the_stable_search_over_a_long_cycle_is_linear() {
    let mut db = HiLogDb::builder()
        .program(normal_game_program(&cycle(20_000)))
        .semantics(Semantics::Stable)
        .build();
    let models = within_ten_seconds("the stable models of cycle(20000)", || {
        db.stable_models().map(<[Model]>::len)
    });
    assert_eq!(models, 2);
}
