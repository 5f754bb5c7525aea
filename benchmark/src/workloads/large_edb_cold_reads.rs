//! `large_edb_cold_reads`: new bound subgoals against a large EDB.
//!
//! One thread, an in-process snapshot built from `durability_workload`'s
//! flat program (two rules over tens of thousands of `edge` facts).  Each
//! probe `?- linked(p_i, X).` names a node no earlier probe named, so it is
//! a subgoal the tables have never seen; it is followed by one repeat, a
//! warm hit, which is recorded per layer only.  The same `snapshot.query`
//! call `http_point_reads` ends in, but every table is cold and the EDB is
//! a hundred times larger: what a new subgoal costs as the EDB grows shows
//! here and is invisible at 300 nodes.

use crate::check::canon_result;
use crate::report::{latency_tail, Outcome, ReadCounters, RunConfig};
use crate::stats::{median, sliced_rate, Fnv, SplitMix};
use crate::trace::Tracer;
use crate::window::{LatencyOf, Window};
use crate::workloads::EdgeList;
use hilog_core::Query;
use hilog_engine::{HiLogDb, SnapshotHandle};
use hilog_syntax::{parse_program, parse_query};
use hilog_workloads::{durability_workload, DurabilityWorkloadConfig};
use std::time::Instant;

/// `edge` facts in the program (the size does not scale with `--seconds`:
/// the cost of a probe depends on it).
const FACTS: usize = 30_000;
const NODES: usize = FACTS / 5;
/// Distinct probes in the window at the reference size.
const PROBES: usize = 100;
const TRACED_PROBES: usize = 50;
/// Throughput is the median rate of this many slices of the window.
const SLICES: usize = 20;

/// FNV-1a digest of the generated inputs for the default seed.
const PINNED_INPUT_DIGEST: u64 = 0x5d82_c4db_1e50_e2c1;

struct Loaded {
    text: String,
    handle: SnapshotHandle,
    /// Keeps the snapshot cell's writer side alive.
    _writer: hilog_engine::DbWriter,
    /// `(query text, parsed, expected answers from the edge list)`.
    probes: Vec<(String, Query, Vec<String>)>,
}

impl Loaded {
    /// Set-up: generate the program text, parse it, build the serving pair,
    /// and pick the probes.
    fn new(cfg: &RunConfig, probes: usize) -> Loaded {
        let workload = durability_workload(
            &DurabilityWorkloadConfig {
                facts: FACTS,
                nodes: NODES,
                batch_size: FACTS,
                probes: 1,
            },
            cfg.seed,
        );
        let text = workload.flat_program;
        let program = parse_program(&text).expect("generated program parses");
        let (writer, handle) = HiLogDb::new(program).into_serving();

        // The expected answers come from the fact text alone; the probed
        // nodes are distinct and chosen by the benchmark's own generator.
        let edges = EdgeList::new(workload.batches.iter().flatten());
        let mut nodes = edges.nodes();
        let mut rng = SplitMix::new(cfg.seed ^ 0x9e37_79b9);
        let probes = (0..probes.min(nodes.len()))
            .map(|_| {
                let node = nodes.swap_remove(rng.below(nodes.len()));
                let text = format!("?- linked({node}, X).");
                let parsed = parse_query(&text).expect("probe parses");
                (text, parsed, edges.linked(node))
            })
            .collect();
        Loaded {
            text,
            handle,
            _writer: writer,
            probes,
        }
    }

    fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.write(self.text.as_bytes());
        for (probe, _, _) in &self.probes {
            fnv.write(probe.as_bytes());
        }
        fnv.finish()
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let probes = cfg.count(if cfg.trace { TRACED_PROBES } else { PROBES }, 5);

    let mut window = Window::new(cfg, 1.0, SLICES, LatencyOf::Items);
    let loaded = window.set_up(cfg, |_| Loaded::new(cfg, probes), drop);
    // The traced run's fewer probes are other input.
    outcome.pin_inputs(
        loaded.digest(),
        PINNED_INPUT_DIGEST,
        cfg.pinned() && !cfg.trace,
    );
    outcome.note("facts", FACTS);
    outcome.note("nodes", NODES);
    outcome.note("probes", probes);
    outcome.note(
        "eval_threads",
        loaded.handle.current().options().eval_threads,
    );

    if cfg.trace {
        trace_run(cfg, &loaded, &mut outcome);
        return outcome;
    }

    for (text, query, expected) in &loaded.probes {
        window.pace();
        let start = Instant::now();
        let cold = loaded.handle.current().query(query);
        let elapsed = start.elapsed().as_secs_f64();
        window.item(elapsed);
        outcome.check(
            matches!(&cold, Ok(result) if &canon_result(result) == expected),
            || format!("{text}: answer differs from the edge list"),
        );
        // The repeat is a warm hit; it belongs to the per-layer run.
        let warm = loaded.handle.current().query(query);
        outcome.check(
            matches!(&warm, Ok(result) if &canon_result(result) == expected),
            || format!("{text}: repeated answer differs from the edge list"),
        );
    }
    window.end_to_end(&mut outcome);
    outcome
}

/// The per-layer numbers.  A probe is one call, so its stages are few:
/// parse the query, pin the snapshot and answer cold, answer again warm.
fn trace_run(cfg: &RunConfig, loaded: &Loaded, outcome: &mut Outcome) {
    // hilog-syntax's share of set-up: the program text through the parser.
    let start = Instant::now();
    std::hint::black_box(parse_program(&loaded.text).expect("generated program parses"));
    outcome.set(
        "hilog-syntax.parser.parse_program_mb_s",
        loaded.text.len() as f64 / 1e6 / start.elapsed().as_secs_f64(),
    );

    // The untraced reference runs on a snapshot of its own: a probe is cold
    // only once.
    let reference = Loaded::new(cfg, loaded.probes.len());
    let mut untraced_ns = Vec::with_capacity(reference.probes.len());
    let mut completions = Vec::new();
    let mut clock = 0.0;
    for (text, query, expected) in &reference.probes {
        let start = Instant::now();
        let cold = reference.handle.current().query(query);
        let elapsed = start.elapsed();
        clock += elapsed.as_secs_f64();
        completions.push(clock);
        untraced_ns.push(elapsed.as_nanos() as f64);
        outcome.check(
            matches!(&cold, Ok(result) if &canon_result(result) == expected),
            || format!("{text}: answer differs from the edge list"),
        );
    }
    let untraced_ms: Vec<f64> = untraced_ns.iter().map(|ns| ns / 1e6).collect();
    latency_tail(outcome, &untraced_ms);
    let (_, slice_iqr) = sliced_rate(&completions, 1.0, completions.len());
    outcome.set("harness.slice_rate_iqr_share", slice_iqr);

    let mut tracer = Tracer::new();
    let mut cold_counters = ReadCounters::default();
    for (index, (text, _, expected)) in loaded.probes.iter().enumerate() {
        let op = index as u64;
        let query = tracer.span("hilog-syntax.parser.parse_query", op, |_| {
            parse_query(text).expect("probe parses")
        });
        let cold = tracer.span("probe", op, |t| {
            t.span("hilog-engine.snapshot.query_cold", op, |_| {
                loaded.handle.current().query(&query)
            })
        });
        let warm = tracer.span("hilog-engine.snapshot.query_warm", op, |_| {
            loaded.handle.current().query(&query)
        });
        if let Ok(result) = &cold {
            cold_counters.add(&result.stats);
        }
        for result in [&cold, &warm] {
            outcome.check(
                matches!(result, Ok(result) if &canon_result(result) == expected),
                || format!("{text}: traced answer differs from the edge list"),
            );
        }
    }
    cold_counters.report(outcome);
    outcome.set(
        "hilog-syntax.parser.parse_query_us",
        tracer.p50("hilog-syntax.parser.parse_query", 1e3),
    );
    outcome.set(
        "hilog-engine.snapshot.query_cold_ms",
        tracer.p50("hilog-engine.snapshot.query_cold", 1e6),
    );
    outcome.set(
        "hilog-engine.snapshot.query_warm_us",
        tracer.p50("hilog-engine.snapshot.query_warm", 1e3),
    );
    outcome.note("traced_probes", loaded.probes.len());
    outcome.trace_report(
        cfg,
        "large_edb_cold_reads",
        &tracer,
        "probe",
        median(&untraced_ns),
    );
}
