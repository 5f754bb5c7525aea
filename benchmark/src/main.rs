//! The repository's benchmark: five workloads, the end-to-end metrics a user
//! of the system would see, and a per-layer trace.  See `README.md` beside
//! this crate's manifest for what each workload and metric is and why.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--data-dir DIR]
//! benchmark [--passes K] [--out FILE] [--seed N] [--smoke]   # all five
//! benchmark --compare A.json B.json
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Without it the process re-executes itself once per workload and trace
//! setting, so process-wide state (the symbol pool, peak memory) is per
//! workload.
//!
//! The program under test is only ever called through the entry points the
//! roadmap keeps; nothing deprecated is reachable from here.

#![deny(deprecated)]
#![forbid(unsafe_code)]

mod check;
mod compare;
mod counting_io;
mod http_client;
mod report;
mod stats;
mod trace;
mod window;
mod workloads;

use report::{
    Outcome, RunConfig, DEFAULT_SEED, END_TO_END, PER_LAYER, REFERENCE_SECONDS, WORKLOADS,
};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--smoke`: every workload at a twentieth of its size.
const SMOKE_SECONDS: f64 = REFERENCE_SECONDS / 20.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    passes: usize,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: REFERENCE_SECONDS,
        trace: false,
        data_dir: None,
        out: None,
        passes: 1,
        compare: None,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = |what: &str| words.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = parse_u64(&value("a number")?).ok_or("--seed needs a number")?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds needs a number in (0, 60]")?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--smoke" => args.seconds = SMOKE_SECONDS,
            "--data-dir" => args.data_dir = Some(PathBuf::from(value("a directory")?)),
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--passes" => {
                args.passes = value("a count")?
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or("--passes needs a count of at least 1")?;
            }
            "--compare" => {
                let a = PathBuf::from(value("two result files")?);
                let b = PathBuf::from(value("two result files")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where build outputs go — the one place in a checkout the benchmark may
/// write (git-ignored).  Cargo sets neither variable for the running binary,
/// so this mirrors its rule: `CARGO_TARGET_DIR`, else `target` beside the
/// manifest.
fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
    }
}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    let target = target_dir();
    let scratch = args.data_dir.clone().unwrap_or_else(|| {
        target
            .join("benchmark-scratch")
            .join(format!("{name}-{}", std::process::id()))
    });
    // A directory left by a killed run would turn a fresh store into a
    // recovery; start clean, and leave nothing behind.
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(error) = std::fs::create_dir_all(&scratch) {
        eprintln!("benchmark: cannot create {}: {error}", scratch.display());
        return ExitCode::from(2);
    }
    let cfg = RunConfig {
        seed: args.seed,
        scale: args.seconds / REFERENCE_SECONDS,
        trace: args.trace,
        scratch: scratch.clone(),
        trace_dir: target.join("benchmark"),
    };
    let mut outcome = workloads::run(name, &cfg);
    let _ = std::fs::remove_dir_all(&scratch);

    if !cfg.trace {
        outcome.set("peak_rss_mb", report::peak_rss_mb());
    }
    print_result(name, args, &mut outcome)
}

/// The human-readable table on standard error, the contract's JSON object as
/// the last line of standard output.
fn print_result(name: &str, args: &Args, outcome: &mut Outcome) -> ExitCode {
    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
    };
    for name in outcome.metrics.keys() {
        assert!(
            expected.iter().any(|(n, _)| n == name),
            "workload reported `{name}`, which is not a listed metric"
        );
    }
    eprintln!(
        "# {name} seed={:#x} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    for (key, value) in &outcome.info {
        eprintln!("#   {key} = {value}");
    }
    let mut metrics = String::new();
    for (metric, unit) in &expected {
        let value = match outcome.metrics.get(metric) {
            Some(value) => *value,
            // A layer the workload does not reach reports 0; an end-to-end
            // metric must always be measured.
            None if args.trace => 0.0,
            None => {
                outcome.failed += 1;
                outcome.failures.push(format!("{metric} was not measured"));
                0.0
            }
        };
        if !args.trace && (value <= 0.0 || !value.is_finite()) {
            outcome.failed += 1;
            outcome
                .failures
                .push(format!("{metric} = {value}, not a positive number"));
        }
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push_str(&format!(
            "\"{metric}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
        if args.trace && !outcome.metrics.contains_key(metric) {
            continue;
        }
        eprintln!("{metric:<56} {value:>16.4} {unit}");
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The engine's evaluation threads in every workload, unless the caller's
/// `HILOG_EVAL_THREADS` says otherwise.  The engine's own default is one per
/// core, and it spawns and joins its workers in every well-founded
/// evaluation: on a small shared machine that measures how long the host
/// takes to wake a second processor (`cold_eval` read 59–64 evaluations a
/// second on one thread and 46–51 on two in the same quarter of an hour, the
/// raw rates of the latter between 32 and 43; README, *Measured facts*).
const EVAL_THREADS: &str = "1";

fn main() -> ExitCode {
    // Read once per process by the engine, and inherited by the processes a
    // full pass starts; set before any thread exists.
    if std::env::var_os("HILOG_EVAL_THREADS").is_none() {
        std::env::set_var("HILOG_EVAL_THREADS", EVAL_THREADS);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::compare(a, b);
    }
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => compare::full_pass(
            args.seed,
            args.seconds,
            args.passes,
            args.data_dir.as_deref(),
            args.out.as_deref(),
        ),
    }
}
