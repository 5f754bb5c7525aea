//! The full pass (every workload, untraced and traced, each in a process of
//! its own), the stamped result file it writes, and `--compare`.

use crate::report::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let (_, mount, fstype) = (words.next()?, words.next()?, words.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// What machine, build and settings produced a result file.
fn stamp(seed: u64, seconds: f64, data_dir: Option<&Path>) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let data_dir = data_dir.map_or_else(
        || crate::target_dir().join("benchmark-scratch"),
        Path::to_path_buf,
    );
    let mut stamp = BTreeMap::new();
    let mut put = |key: &str, value: Value| {
        stamp.insert(key.to_string(), value);
    };
    put(
        "commit",
        Value::String(command_line("git", &["rev-parse", "HEAD"])),
    );
    put("rustc", Value::String(command_line("rustc", &["-V"])));
    put(
        "profile",
        Value::String(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    );
    put(
        "nproc",
        Value::Number(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
    );
    put("cpu_model", Value::String(cpu_model));
    put("kernel", Value::String(kernel));
    put("seed", Value::Number(seed as f64));
    put("seconds", Value::Number(seconds));
    put(
        "eval_threads",
        Value::Number(hilog_engine::default_eval_threads() as f64),
    );
    put(
        "data_dir_filesystem",
        Value::String(filesystem_of(&data_dir)),
    );
    put("data_dir", Value::String(data_dir.display().to_string()));
    Value::Object(stamp)
}

/// One child run: `(result object, info lines)`, or why there is none.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: Option<&Path>,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(
            data_dir
                .iter()
                .flat_map(|dir| [Path::new("--data-dir"), dir]),
        )
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    eprint!("{stderr}");
    let mut info = BTreeMap::new();
    for line in stderr.lines() {
        if let Some((key, value)) = line
            .strip_prefix("#   ")
            .and_then(|rest| rest.split_once(" = "))
        {
            info.insert(key.to_string(), Value::String(value.to_string()));
        }
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result ({})", output.status))?;
    let result = serde_json::from_str(line)
        .map_err(|e| format!("{workload} printed a malformed result: {e}"))?;
    Ok((result, Value::Object(info)))
}

/// Runs every workload `passes` times, untraced then traced, and writes the
/// stamped results to `out` (when given).  Fails if any run was incorrect.
pub fn full_pass(
    seed: u64,
    seconds: f64,
    passes: usize,
    data_dir: Option<&Path>,
    out: Option<&Path>,
) -> ExitCode {
    let mut all_correct = true;
    let mut recorded = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut pass = BTreeMap::new();
        for workload in WORKLOADS {
            let mut entry = BTreeMap::new();
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                match child_run(workload, seed, seconds, trace, data_dir) {
                    Ok((result, info)) => {
                        all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
                        entry.insert(key.to_string(), result);
                        entry.insert(format!("{key}_info"), info);
                    }
                    Err(message) => {
                        eprintln!("benchmark: {message}");
                        all_correct = false;
                    }
                }
            }
            pass.insert(workload.to_string(), Value::Object(entry));
        }
        recorded.push(Value::Object(pass));
    }
    if let Some(path) = out {
        let mut file = BTreeMap::new();
        file.insert("stamp".to_string(), stamp(seed, seconds, data_dir));
        file.insert("passes".to_string(), Value::Array(recorded));
        let text = serde_json::to_string_pretty(&Value::Object(file)).expect("values serialise");
        if let Err(error) = std::fs::write(path, text + "\n") {
            eprintln!("benchmark: cannot write {}: {error}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("benchmark: wrote {}", path.display());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `metric -> one value per pass`, for one workload of a result file.
fn end_to_end_values(file: &Value, workload: &str) -> BTreeMap<String, Vec<f64>> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let passes = file.get("passes").and_then(Value::as_array);
    for pass in passes.into_iter().flatten() {
        let metrics = pass
            .get(workload)
            .and_then(|w| w.get("end_to_end"))
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object);
        for (name, metric) in metrics.into_iter().flatten() {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                values.entry(name.clone()).or_default().push(value);
            }
        }
    }
    values
}

/// Applies the bounds per (metric, workload): `b` against `a`.  A pairing
/// whose own spread is wider than its bound is *unresolved*, not unchanged —
/// unless every run of `b` reads better than every run of `a`.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |path: &Path| -> Option<Value> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| eprintln!("benchmark: cannot read {}: {e}", path.display()))
            .ok()?;
        serde_json::from_str(&text)
            .map_err(|e| eprintln!("benchmark: {} is not a result file: {e}", path.display()))
            .ok()
    };
    let (Some(file_a), Some(file_b)) = (load(a), load(b)) else {
        return ExitCode::from(2);
    };
    let mut regressions = 0;
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse", "spread", "bound"
    );
    for workload in WORKLOADS {
        let values_a = end_to_end_values(&file_a, workload);
        let values_b = end_to_end_values(&file_b, workload);
        for (metric, _, better, bound) in END_TO_END {
            let lower_is_better = *better == "lower";
            let (Some(xs), Some(ys)) = (values_a.get(*metric), values_b.get(*metric)) else {
                continue;
            };
            let (ma, mb) = (median(xs), median(ys));
            if ma == 0.0 {
                continue;
            }
            let worse = if lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = iqr_share(xs).max(iqr_share(ys));
            let b_always_better = if lower_is_better {
                ys.iter().cloned().fold(f64::MIN, f64::max)
                    < xs.iter().cloned().fold(f64::MAX, f64::min)
            } else {
                ys.iter().cloned().fold(f64::MAX, f64::min)
                    > xs.iter().cloned().fold(f64::MIN, f64::max)
            };
            let verdict = if spread > *bound && !b_always_better {
                "unresolved"
            } else if worse > *bound {
                regressions += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<22} {metric:<18} {ma:>14.4} {mb:>14.4} {:>7.1}% {:>7.1}% {:>6.0}%  {verdict}",
                worse * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
