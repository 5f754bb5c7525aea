//! What a run is given, what it hands back, and the fixed lists of metric
//! names — the names `BENCHMARK.json` and later issues refer to.

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed a run uses when none is given; input digests are pinned for it.
pub const DEFAULT_SEED: u64 = 0x11;

/// `--seconds` at which every size in this crate is stated (`run_seconds` in
/// `BENCHMARK.json`).  Other values scale the operation counts linearly.
pub const REFERENCE_SECONDS: f64 = 10.0;

pub const WORKLOADS: &[&str] = &[
    "http_point_reads",
    "inproc_mixed_rw",
    "bulk_ingest_recover",
    "cold_eval",
    "large_edb_cold_reads",
];

/// `(name, unit, better, bound)`; every workload reports every one.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// `(name, unit, better)`; a workload that does not reach a layer reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // hilog-server, seen from the socket.
    ("hilog-server.http.connect_us", "us", "lower"),
    ("hilog-server.http.exchange_us", "us", "lower"),
    ("hilog-server.http.residual_us", "us", "lower"),
    ("hilog-server.http.connections_opened", "count", "lower"),
    (
        "hilog-server.http.requests_per_connection",
        "ratio",
        "higher",
    ),
    ("hilog-server.http.latency_p90_ms", "ms", "lower"),
    ("hilog-server.http.latency_p99_ms", "ms", "lower"),
    ("hilog-server.json.parse_us", "us", "lower"),
    ("hilog-server.json.serialize_us", "us", "lower"),
    ("hilog-server.json.response_bytes", "bytes", "lower"),
    ("hilog-server.handlers.shed_requests", "count", "lower"),
    ("hilog-server.handlers.query_timeouts", "count", "lower"),
    // hilog-syntax.
    ("hilog-syntax.parser.parse_query_us", "us", "lower"),
    ("hilog-syntax.parser.parse_program_mb_s", "MB/s", "higher"),
    ("hilog-syntax.parser.parse_term_us", "us", "lower"),
    // hilog-engine, reads.
    ("hilog-engine.snapshot.query_warm_us", "us", "lower"),
    ("hilog-engine.snapshot.query_cold_ms", "ms", "lower"),
    (
        "hilog-engine.magic_eval.rule_applications_per_query",
        "count",
        "lower",
    ),
    ("hilog-engine.magic_eval.table_hit_share", "ratio", "higher"),
    ("hilog-engine.horn.index_probe_share", "ratio", "higher"),
    // hilog-engine, writes.
    ("hilog-engine.session.assert_fact_us", "us", "lower"),
    ("hilog-engine.session.retract_fact_us", "us", "lower"),
    ("hilog-engine.snapshot.publish_ms", "ms", "lower"),
    ("hilog-engine.session.model_patch_ms", "ms", "lower"),
    ("hilog-engine.session.model_rebuilt_share", "ratio", "lower"),
    (
        "hilog-engine.session.tables_dropped_per_write",
        "count",
        "lower",
    ),
    (
        "hilog-engine.session.tables_patched_per_write",
        "count",
        "higher",
    ),
    (
        "hilog-engine.session.tables_refilled_per_write",
        "count",
        "higher",
    ),
    // hilog-engine, cold evaluation.
    ("hilog-engine.grounder.ground_ms", "ms", "lower"),
    ("hilog-engine.grounder.ground_rules", "count", "lower"),
    ("hilog-engine.wfs.eval_ms", "ms", "lower"),
    ("hilog-engine.wfs.undefined_atoms", "count", "lower"),
    ("hilog-engine.modular.check_ms", "ms", "lower"),
    ("hilog-engine.pool.parallel_tasks", "count", "higher"),
    ("hilog-engine.spill.build_ms", "ms", "lower"),
    ("hilog-engine.storage.inmem_build_ms", "ms", "lower"),
    ("hilog-engine.spill.residency_faults", "count", "lower"),
    ("hilog-engine.spill.spill_writes", "count", "lower"),
    ("hilog-engine.spill.spilled_share", "ratio", "higher"),
    ("hilog-engine.session.cold_hilog_game_ms", "ms", "lower"),
    (
        "hilog-engine.session.cold_normal_game_cyclic_ms",
        "ms",
        "lower",
    ),
    (
        "hilog-engine.session.cold_generic_closure_ms",
        "ms",
        "lower",
    ),
    ("hilog-engine.session.cold_chain_game_ms", "ms", "lower"),
    (
        "hilog-engine.session.cold_parts_explosion_ms",
        "ms",
        "lower",
    ),
    ("hilog-engine.session.cold_universal_game_ms", "ms", "lower"),
    (
        "hilog-engine.session.cold_sharded_linked_spill_ms",
        "ms",
        "lower",
    ),
    // hilog-core.
    ("hilog-core.universal.transform_ms", "ms", "lower"),
    ("hilog-core.symbol.live_symbols", "count", "lower"),
    // hilog-store.
    ("hilog-store.serving.apply_batch_ms", "ms", "lower"),
    ("hilog-store.serving.recover_s", "s", "lower"),
    ("hilog-store.serving.bytes_per_user_byte", "ratio", "lower"),
    ("hilog-store.ops.encode_us", "us", "lower"),
    ("hilog-store.wal.append_ms", "ms", "lower"),
    ("hilog-store.wal.bytes_per_fact", "bytes", "lower"),
    ("hilog-store.wal.replay_ms_per_record", "ms", "lower"),
    ("hilog-store.checkpoint.save_ms", "ms", "lower"),
    ("hilog-store.checkpoint.bytes", "bytes", "lower"),
    ("hilog-store.checkpoint.load_ms", "ms", "lower"),
    ("hilog-store.manifest.incremental_save_ms", "ms", "lower"),
    ("hilog-store.manifest.segments_written", "count", "lower"),
    ("hilog-store.io.fsyncs", "count", "lower"),
    ("hilog-store.io.bytes_written", "bytes", "lower"),
    ("hilog-store.io.ops", "count", "lower"),
    ("hilog-store.io.flush_wait_ms", "ms", "lower"),
    ("hilog-store.io.retries", "count", "lower"),
    // The harness itself.
    ("harness.trace_overhead_share", "ratio", "lower"),
    ("harness.trace_coverage_share", "ratio", "higher"),
    ("harness.slice_rate_iqr_share", "ratio", "lower"),
    ("harness.latency_p90_ms", "ms", "lower"),
    ("harness.latency_p99_ms", "ms", "lower"),
    ("harness.tw_at_start", "count", "lower"),
    ("harness.tw_wait_s", "s", "lower"),
];

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// `--seconds / REFERENCE_SECONDS`: multiplies every operation count.
    pub scale: f64,
    pub trace: bool,
    /// A fresh directory of this run's own: data dirs, spill segments.
    pub scratch: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub trace_dir: PathBuf,
}

impl RunConfig {
    /// `n` operations at the reference size, scaled; never below `floor`.
    pub fn count(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(floor)
    }

    /// Input digests are pinned for the default seed at the reference size.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && self.scale == 1.0
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations of the measured window (or traced prefix) plus every
    /// verification made beside it.
    pub attempted: u64,
    /// Those that errored, were refused, or gave a wrong answer.
    pub failed: u64,
    /// One line per failure, first few only.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sizes and settings worth stamping on the result (not metrics).
    pub info: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Counts one verified operation; records the reason when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.insert(key, value.to_string());
    }

    /// Records the digest of the generated inputs and, when `pinned` says
    /// these are the inputs the digest was pinned for, holds it to `expected`
    /// — so a change to `hilog-workloads` or to the vendored `rand` cannot
    /// silently change the load.
    pub fn pin_inputs(&mut self, digest: u64, expected: u64, pinned: bool) {
        self.note("input_digest", format!("{digest:016x}"));
        if pinned {
            self.check(digest == expected, || {
                format!("generated inputs changed: digest {digest:016x}")
            });
        }
    }

    /// The harness's account of a traced pass: how much of the untraced
    /// operation (median, ns) the stages under `root` cover, what tracing
    /// cost, and the spans themselves, written beside the build.
    pub fn trace_report(
        &mut self,
        cfg: &RunConfig,
        workload: &str,
        tracer: &Tracer,
        root: &str,
        untraced_ns: f64,
    ) {
        let (covered, whole) = tracer.stage_cover(root);
        self.set(
            "harness.trace_coverage_share",
            median(&covered) / untraced_ns,
        );
        self.set(
            "harness.trace_overhead_share",
            median(&whole) / untraced_ns - 1.0,
        );
        let path = cfg.trace_dir.join(format!("trace-{workload}.json"));
        if let Err(error) = tracer.write_json(&path) {
            eprintln!("benchmark: cannot write {}: {error}", path.display());
        }
    }
}

/// The tail of a traced run's real-path latencies.  Tails are per-layer
/// numbers only: across ten seeds `p90` spread by 17–270% of its median on
/// four of the five workloads, so no bound could be put on it.
pub fn latency_tail(outcome: &mut Outcome, latencies_ms: &[f64]) {
    outcome.set("harness.latency_p90_ms", quantile(latencies_ms, 0.90));
    outcome.set("harness.latency_p99_ms", quantile(latencies_ms, 0.99));
}

/// Peak resident set of this process (`VmHWM`), in MB; 0.0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Engine counters summed over the reads of a traced pass; the per-layer
/// read metrics are ratios of these sums.
#[derive(Debug, Default)]
pub struct ReadCounters {
    reads: u64,
    cached_subqueries: u64,
    subqueries: u64,
    rule_applications: u64,
    index_probes: u64,
    index_fallback_scans: u64,
    parallel_tasks: u64,
    live_symbols: usize,
}

impl ReadCounters {
    pub fn add(&mut self, stats: &hilog_engine::EvalStats) {
        self.reads += 1;
        self.cached_subqueries += stats.cached_subqueries as u64;
        self.subqueries += stats.subqueries as u64;
        self.rule_applications += stats.rule_applications as u64;
        self.index_probes += stats.index_probes as u64;
        self.index_fallback_scans += stats.index_fallback_scans as u64;
        self.parallel_tasks += stats.parallel_tasks as u64;
        self.live_symbols = stats.live_symbols;
    }

    pub fn report(&self, outcome: &mut Outcome) {
        let share = |part: u64, rest: u64| {
            if part + rest == 0 {
                0.0
            } else {
                part as f64 / (part + rest) as f64
            }
        };
        outcome.set(
            "hilog-engine.magic_eval.table_hit_share",
            share(self.cached_subqueries, self.subqueries),
        );
        outcome.set(
            "hilog-engine.horn.index_probe_share",
            share(self.index_probes, self.index_fallback_scans),
        );
        outcome.set(
            "hilog-engine.magic_eval.rule_applications_per_query",
            self.rule_applications as f64 / self.reads.max(1) as f64,
        );
        outcome.set(
            "hilog-engine.pool.parallel_tasks",
            self.parallel_tasks as f64,
        );
        outcome.set("hilog-core.symbol.live_symbols", self.live_symbols as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn repo_file(name: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The lists above are the one source of names, units and bounds;
    /// `BENCHMARK.json` repeats them for the driver and must not drift.
    #[test]
    fn benchmark_json_repeats_the_built_in_lists() {
        let spec: Value = serde_json::from_str(&repo_file("BENCHMARK.json")).unwrap();
        let list = |key: &str| spec.get(key).and_then(Value::as_array).unwrap().clone();
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let built_in: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), *bound))
            .collect();
        assert_eq!(end_to_end, built_in);
        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let built_in: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(per_layer, built_in);
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_f64),
            Some(REFERENCE_SECONDS)
        );
    }

    /// Cargo reads profiles from a workspace's root manifest only, and this
    /// package is a workspace of its own: its release profile is a copy of
    /// the repository's and has to stay one, or the benchmark measures a
    /// build nobody ships.
    #[test]
    fn release_profile_is_the_repositorys() {
        let profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|line| line.trim() != "[profile.release]")
                .skip(1)
                .take_while(|line| !line.trim_start().starts_with('['))
                .map(|line| line.split('#').next().unwrap_or("").trim().to_string())
                .filter(|line| !line.is_empty())
                .collect()
        };
        let ours = profile(&repo_file("benchmark/Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, profile(&repo_file("Cargo.toml")));
    }
}
