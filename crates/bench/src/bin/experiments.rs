//! Experiment runner: regenerates every experiment row of EXPERIMENTS.md and
//! prints the results as markdown tables (plus a JSON dump on request).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hilog-bench --bin experiments [--json PATH] [--quick]
//! ```
//!
//! `--quick` shrinks the workload sizes (useful in CI); `--json PATH` writes
//! the raw measurements to a JSON file in addition to the markdown output.

// Every measurement builds a fresh `HiLogDb`, so the rows stay cold one-shot
// evaluations of the paper's constructions; warm reuse of a session is
// measured separately by bench_session_reuse.

use hilog_bench::{median_time, timed, to_markdown, Measurement};
use hilog_core::interpretation::Model;
use hilog_core::program::Program;
use hilog_core::restriction::ProgramClass;
use hilog_core::universal::universal_transform;
use hilog_datalog::engine::DatalogEngine;
use hilog_engine::aggregate::{evaluate_aggregate_program, parts_explosion_program};
use hilog_engine::extension::{preserved_by_extension_stable, preserved_by_extension_wfs};
use hilog_engine::horn::{least_model, EvalOptions, NegationMode};
use hilog_engine::magic_eval::QueryEvaluator;
use hilog_engine::modular::ModularOutcome;
use hilog_engine::session::HiLogDb;
use hilog_engine::stable::StableOptions;
use hilog_syntax::{parse_program, parse_term};
use hilog_workloads::{
    chain, cycle, generic_closure_program, hilog_game_program, node_name, normal_game_program,
    random_dag, random_part_hierarchy,
    random_programs::{
        random_ground_extension, random_range_restricted_normal, random_strongly_restricted_hilog,
        ExtensionConfig, HilogProgramConfig, NormalProgramConfig,
    },
    specialized_closure_program,
};

/// The well-founded model from a cold session.
fn cold_model(program: &Program) -> Model {
    HiLogDb::new(program.clone()).model().unwrap().clone()
}

/// The Figure 1 outcome from a cold session.
fn figure1(program: &Program) -> ModularOutcome {
    let mut db = HiLogDb::new(program.clone());
    db.check_modular().unwrap().clone()
}

struct Config {
    quick: bool,
    json_path: Option<String>,
}

fn parse_args() -> Config {
    let mut config = Config {
        quick: false,
        json_path: None,
    };
    let usage = |problem: String| -> ! {
        eprintln!("{problem} (expected --quick or --json PATH)");
        std::process::exit(2)
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => config.quick = true,
            "--json" => match args.next() {
                Some(path) => config.json_path = Some(path),
                None => usage("`--json` needs a path".into()),
            },
            other => usage(format!("unknown argument `{other}`")),
        }
    }
    config
}

fn main() {
    let config = parse_args();
    let mut rows: Vec<Measurement> = Vec::new();

    exp_e1_closures(&config, &mut rows);
    exp_e3_coincidence(&config, &mut rows);
    exp_e4_preservation(&config, &mut rows);
    exp_e5_modular(&config, &mut rows);
    exp_e7_magic(&config, &mut rows);
    exp_e8_datahilog(&config, &mut rows);
    exp_e9_universal(&config, &mut rows);
    exp_e10_aggregate(&config, &mut rows);
    exp_e11_generic_vs_specialized(&config, &mut rows);

    println!("\n== all measurements ==\n");
    println!("{}", to_markdown(&rows));
    if let Some(path) = &config.json_path {
        let json = serde_json::to_string_pretty(&rows).expect("serialises");
        std::fs::write(path, json).expect("write json");
        println!("(raw measurements written to {path})");
    }
}

/// E1: generic transitive closure workloads (Example 2.1).
fn exp_e1_closures(config: &Config, rows: &mut Vec<Measurement>) {
    println!("\n-- E1: generic closures (Examples 2.1, 2.2) --");
    let sizes: &[usize] = if config.quick {
        &[16, 64]
    } else {
        &[16, 64, 256]
    };
    for &n in sizes {
        let program = generic_closure_program(&[("e", chain(n))]);
        let (model, duration) =
            timed(|| least_model(&program, NegationMode::Forbid, EvalOptions::default()).unwrap());
        let tc_atoms = n * (n + 1) / 2;
        println!("  chain n={n}: {} atoms in {:?}", model.len(), duration);
        assert!(model.len() >= tc_atoms);
        rows.push(Measurement::new(
            "E1",
            format!("tc over chain n={n}"),
            "least-model time",
            duration.as_secs_f64() * 1e3,
            "ms",
        ));
        rows.push(Measurement::new(
            "E1",
            format!("tc over chain n={n}"),
            "derived atoms",
            model.len() as f64,
            "atoms",
        ));
    }
}

/// E3: Theorems 4.1/4.2 — HiLog vs normal semantics on range-restricted
/// normal programs.
fn exp_e3_coincidence(config: &Config, rows: &mut Vec<Measurement>) {
    println!("\n-- E3: coincidence on range-restricted normal programs (Theorems 4.1/4.2) --");
    let samples = if config.quick { 20 } else { 60 };
    let mut agree = 0usize;
    for seed in 0..samples {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed as u64);
        let hilog = cold_model(&program);
        let normal = DatalogEngine::new(program.clone())
            .unwrap()
            .well_founded_model()
            .unwrap();
        let ok = normal
            .base()
            .iter()
            .all(|a| hilog.truth(a) == normal.truth(a));
        if ok {
            agree += 1;
        }
    }
    println!("  {agree}/{samples} random programs agree exactly (expected: all)");
    rows.push(Measurement::new(
        "E3",
        format!("{samples} random range-restricted normal programs"),
        "agreement rate",
        agree as f64 / samples as f64,
        "fraction",
    ));
}

/// E4: preservation under extensions (Theorems 5.3/5.4 plus Example 5.1).
fn exp_e4_preservation(config: &Config, rows: &mut Vec<Measurement>) {
    println!("\n-- E4: preservation under extensions (Section 5) --");
    let samples = if config.quick { 10 } else { 30 };
    let mut preserved_wfs = 0usize;
    let mut preserved_stable = 0usize;
    for seed in 0..samples {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed as u64);
        let extension = random_ground_extension(ExtensionConfig::default(), seed as u64 + 1);
        if preserved_by_extension_wfs(&program, &extension, EvalOptions::default())
            .unwrap()
            .preserved
        {
            preserved_wfs += 1;
        }
        if preserved_by_extension_stable(
            &program,
            &extension,
            EvalOptions::default(),
            StableOptions::default(),
        )
        .unwrap()
        .preserved
        {
            preserved_stable += 1;
        }
    }
    // The paper's counterexample must fail.
    let example_5_1 = parse_program("p :- X(Y), Y(X).").unwrap();
    let witness = parse_program("q(r). r(q).").unwrap();
    let counterexample_fails =
        !preserved_by_extension_wfs(&example_5_1, &witness, EvalOptions::default())
            .unwrap()
            .preserved;
    println!(
        "  strongly range-restricted programs preserved: wfs {preserved_wfs}/{samples}, stable {preserved_stable}/{samples}"
    );
    println!("  Example 5.1 counterexample rejected: {counterexample_fails}");
    rows.push(Measurement::new(
        "E4",
        format!("{samples} random strongly range-restricted HiLog programs"),
        "wfs preservation rate",
        preserved_wfs as f64 / samples as f64,
        "fraction",
    ));
    rows.push(Measurement::new(
        "E4",
        format!("{samples} random strongly range-restricted HiLog programs"),
        "stable preservation rate",
        preserved_stable as f64 / samples as f64,
        "fraction",
    ));
    rows.push(Measurement::new(
        "E4",
        "Example 5.1 counterexample",
        "violation detected",
        if counterexample_fails { 1.0 } else { 0.0 },
        "bool",
    ));
}

/// E5: the Figure 1 modular-stratification procedure.
fn exp_e5_modular(config: &Config, rows: &mut Vec<Measurement>) {
    println!("\n-- E5: modular stratification for HiLog (Figure 1) --");
    let sizes: &[usize] = if config.quick {
        &[32, 128]
    } else {
        &[32, 128, 512, 1024]
    };
    for &n in sizes {
        let program = hilog_game_program(&[
            ("g1", random_dag(n, 2.0, 5)),
            ("g2", random_dag(n / 2, 2.0, 6)),
        ]);
        let duration = median_time(3, || {
            let out = figure1(&program);
            assert!(out.modularly_stratified);
        });
        println!("  acyclic games n={n}: accepted in {duration:?}");
        rows.push(Measurement::new(
            "E5",
            format!("two acyclic games, n={n}"),
            "Figure 1 time",
            duration.as_secs_f64() * 1e3,
            "ms",
        ));
    }
    // Cyclic games are rejected.
    let cyclic = normal_game_program(&cycle(64));
    let (out, duration) = timed(|| figure1(&cyclic));
    println!(
        "  cyclic game n=64: rejected={} in {duration:?}",
        !out.modularly_stratified
    );
    rows.push(Measurement::new(
        "E5",
        "cyclic game n=64",
        "rejected",
        if out.modularly_stratified { 0.0 } else { 1.0 },
        "bool",
    ));
}

/// E7: query-directed (magic-set style) evaluation versus full bottom-up
/// evaluation on point queries.
fn exp_e7_magic(config: &Config, rows: &mut Vec<Measurement>) {
    println!("\n-- E7: magic sets / query-directed evaluation vs bottom-up (Section 6.1) --");
    let sizes: &[usize] = if config.quick {
        &[64, 256]
    } else {
        &[64, 256, 1024]
    };
    for &n in sizes {
        // The queried game is small and the rest of the database is large.
        let program = hilog_game_program(&[("target", chain(12)), ("bulk", random_dag(n, 2.5, 9))]);
        let atom = parse_term(&format!("winning(target)({})", node_name(0))).unwrap();
        let bottom_up = median_time(3, || {
            let model = cold_model(&program);
            std::hint::black_box(model.is_true(&atom));
        });
        let query_directed = median_time(3, || {
            let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
            std::hint::black_box(ev.holds(&atom).unwrap());
        });
        let speedup = bottom_up.as_secs_f64() / query_directed.as_secs_f64().max(1e-9);
        println!(
            "  |bulk|={n}: bottom-up {bottom_up:?}, query-directed {query_directed:?}, speedup {speedup:.1}x"
        );
        rows.push(Measurement::new(
            "E7",
            format!("point query, irrelevant game size {n}"),
            "bottom-up time",
            bottom_up.as_secs_f64() * 1e3,
            "ms",
        ));
        rows.push(Measurement::new(
            "E7",
            format!("point query, irrelevant game size {n}"),
            "query-directed time",
            query_directed.as_secs_f64() * 1e3,
            "ms",
        ));
        rows.push(Measurement::new(
            "E7",
            format!("point query, irrelevant game size {n}"),
            "speedup",
            speedup,
            "x",
        ));
    }
}

/// E8: Datahilog finiteness (Lemma 6.3).
fn exp_e8_datahilog(config: &Config, rows: &mut Vec<Measurement>) {
    println!("\n-- E8: Datahilog termination (Lemma 6.3) --");
    let samples = if config.quick { 10 } else { 25 };
    let mut total = 0usize;
    for seed in 0..samples {
        let mut text =
            String::from("winning(M, X) :- game(M), M(X, Y), not winning(M, Y).\ngame(g).\n");
        for (u, v) in random_dag(24, 2.0, seed as u64) {
            text.push_str(&format!("g(p{u}, p{v}).\n"));
        }
        let program = parse_program(&text).unwrap();
        let report = ProgramClass::classify(&program);
        assert!(report.datahilog && report.strongly_range_restricted);
        let model = cold_model(&program);
        if model.is_total() {
            total += 1;
        }
    }
    println!("  {total}/{samples} random Datahilog games evaluate to finite total models");
    rows.push(Measurement::new(
        "E8",
        format!("{samples} random Datahilog game programs"),
        "finite total models",
        total as f64 / samples as f64,
        "fraction",
    ));
}

/// E9: the universal-relation transformation — structure loss and overhead.
fn exp_e9_universal(config: &Config, rows: &mut Vec<Measurement>) {
    println!("\n-- E9: universal-relation transformation (Section 2 / Section 6) --");
    let n = if config.quick { 64 } else { 256 };
    let program = generic_closure_program(&[("e", chain(n))]);
    let direct = median_time(3, || {
        std::hint::black_box(
            least_model(&program, NegationMode::Forbid, EvalOptions::default())
                .unwrap()
                .len(),
        );
    });
    let transformed = universal_transform(&program).unwrap();
    let image = median_time(3, || {
        std::hint::black_box(
            least_model(&transformed, NegationMode::Forbid, EvalOptions::default())
                .unwrap()
                .len(),
        );
    });
    let overhead = image.as_secs_f64() / direct.as_secs_f64().max(1e-9);
    // Structure loss: a stratified program becomes unstratified.
    let stratified = parse_program("p(X) :- q(X), not r(X). q(a). r(b).").unwrap();
    let lost = hilog_core::analysis::is_stratified(&stratified)
        && !hilog_core::analysis::is_stratified(&universal_transform(&stratified).unwrap());
    println!("  chain n={n}: direct {direct:?}, universal image {image:?} ({overhead:.2}x)");
    println!("  stratification destroyed by the transformation: {lost}");
    rows.push(Measurement::new(
        "E9",
        format!("tc over chain n={n}"),
        "universal-image overhead",
        overhead,
        "x",
    ));
    rows.push(Measurement::new(
        "E9",
        "stratified p/q/r program",
        "stratification destroyed",
        if lost { 1.0 } else { 0.0 },
        "bool",
    ));
}

/// E10: the parts-explosion aggregation.
fn exp_e10_aggregate(config: &Config, rows: &mut Vec<Measurement>) {
    println!("\n-- E10: parts-explosion aggregation (Section 6) --");
    let sizes: &[usize] = if config.quick {
        &[16, 64]
    } else {
        &[16, 64, 256]
    };
    for &n in sizes {
        let hierarchy = random_part_hierarchy(n, n / 2, 3);
        let program = parts_explosion_program(&[("m", "parts")], &hierarchy.as_facts("parts"));
        let (result, duration) =
            timed(|| evaluate_aggregate_program(&program, EvalOptions::default()).unwrap());
        println!(
            "  {n} parts: {} contains atoms in {:?} ({} rounds)",
            result
                .model
                .true_atoms()
                .iter()
                .filter(|a| a.to_string().starts_with("contains"))
                .count(),
            duration,
            result.rounds
        );
        rows.push(Measurement::new(
            "E10",
            format!("random hierarchy, {n} parts"),
            "evaluation time",
            duration.as_secs_f64() * 1e3,
            "ms",
        ));
        rows.push(Measurement::new(
            "E10",
            format!("random hierarchy, {n} parts"),
            "rounds",
            result.rounds as f64,
            "rounds",
        ));
    }
}

/// E11: one generic HiLog closure vs k specialised normal closures.
fn exp_e11_generic_vs_specialized(config: &Config, rows: &mut Vec<Measurement>) {
    println!("\n-- E11: generic HiLog tc vs specialised normal tc (Examples 2.1/5.2) --");
    let k = 4usize;
    let n = if config.quick { 32 } else { 96 };
    let relations: Vec<(String, Vec<(usize, usize)>)> = (0..k)
        .map(|i| (format!("rel{i}"), random_dag(n, 1.5, i as u64 + 40)))
        .collect();
    let borrowed: Vec<(&str, Vec<(usize, usize)>)> = relations
        .iter()
        .map(|(s, e)| (s.as_str(), e.clone()))
        .collect();
    let generic = generic_closure_program(&borrowed);
    let generic_time = median_time(3, || {
        std::hint::black_box(
            least_model(&generic, NegationMode::Forbid, EvalOptions::default())
                .unwrap()
                .len(),
        );
    });
    let specialised_time = median_time(3, || {
        let mut total = 0usize;
        for (name, edges) in &relations {
            let program = specialized_closure_program(name, edges);
            let engine = DatalogEngine::new(program).unwrap();
            total += engine.least_model().unwrap().len();
        }
        std::hint::black_box(total);
    });
    let ratio = generic_time.as_secs_f64() / specialised_time.as_secs_f64().max(1e-9);
    println!(
        "  k={k}, n={n}: generic {generic_time:?} (1 program) vs specialised {specialised_time:?} ({k} programs); ratio {ratio:.2}x"
    );
    rows.push(Measurement::new(
        "E11",
        format!("k={k} relations, n={n} nodes"),
        "generic/specialised time ratio",
        ratio,
        "x",
    ));
    rows.push(Measurement::new(
        "E11",
        format!("k={k} relations, n={n} nodes"),
        "rule sets needed (generic)",
        1.0,
        "programs",
    ));
    rows.push(Measurement::new(
        "E11",
        format!("k={k} relations, n={n} nodes"),
        "rule sets needed (specialised)",
        k as f64,
        "programs",
    ));
}
