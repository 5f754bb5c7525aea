//! The five workloads, and what more than one of them needs.  Each module's
//! header says what it loads and why.

mod bulk_ingest_recover;
mod cold_eval;
mod http_point_reads;
mod inproc_mixed_rw;
mod large_edb_cold_reads;

use crate::report::{Outcome, RunConfig};
use crate::stats::median;
use crate::trace::Tracer;
use hilog_engine::DbWriter;
use hilog_store::ops::encode_batch;
use hilog_store::{Op, Wal};
use hilog_syntax::parse_term;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

pub fn run(name: &str, cfg: &RunConfig) -> Outcome {
    match name {
        "http_point_reads" => http_point_reads::run(cfg),
        "inproc_mixed_rw" => inproc_mixed_rw::run(cfg),
        "bulk_ingest_recover" => bulk_ingest_recover::run(cfg),
        "cold_eval" => cold_eval::run(cfg),
        "large_edb_cold_reads" => large_edb_cold_reads::run(cfg),
        other => unreachable!("`{other}` passed argument checking"),
    }
}

/// The benchmark's own reading of `durability_workload`'s `edge(pU, pV)`
/// facts: what `?- linked(p_i, X).` must answer, worked out from the fact
/// text alone (the rules make `linked` the symmetric closure of `edge`).
struct EdgeList<'a> {
    neighbours: HashMap<&'a str, BTreeSet<&'a str>>,
}

impl<'a> EdgeList<'a> {
    fn new(facts: impl Iterator<Item = &'a String>) -> EdgeList<'a> {
        let mut neighbours: HashMap<&str, BTreeSet<&str>> = HashMap::new();
        for fact in facts {
            let (u, v) = fact
                .strip_prefix("edge(")
                .and_then(|rest| rest.strip_suffix(')'))
                .and_then(|args| args.split_once(", "))
                .expect("generated facts are edge(pU, pV)");
            neighbours.entry(u).or_default().insert(v);
            neighbours.entry(v).or_default().insert(u);
        }
        EdgeList { neighbours }
    }

    /// Every node with an edge, in a fixed order.
    fn nodes(&self) -> Vec<&'a str> {
        let mut nodes: Vec<&str> = self.neighbours.keys().copied().collect();
        nodes.sort_unstable();
        nodes
    }

    /// The canonical answers (see [`crate::check`]) of `?- linked(node, X).`.
    fn linked(&self, node: &str) -> Vec<String> {
        let mut answers: Vec<String> = self.neighbours[node]
            .iter()
            .map(|other| format!("X={other}|true"))
            .collect();
        answers.sort_unstable();
        answers
    }
}

/// Median time of `parse_term` over `facts`, in µs — hilog-syntax's share of
/// a write workload's set-up.
fn parse_term_us<'a>(facts: impl Iterator<Item = &'a String>) -> f64 {
    let samples: Vec<f64> = facts
        .map(|fact| {
            let start = Instant::now();
            let term = parse_term(fact);
            let elapsed = start.elapsed();
            std::hint::black_box(term).expect("generated fact parses");
            elapsed.as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// One batch's write stages, as `PersistentWriter::apply_batch` runs them but
/// a span each: `Wal::append` (the commit point), then every op through the
/// `DbWriter`.  The caller publishes, so it can look at the session first.
/// `encode_batch` gets a span beside the operation, not inside it:
/// `Wal::append` encodes again.
fn staged_write(t: &mut Tracer, op_id: u64, wal: &mut Wal, writer: &mut DbWriter, ops: &[Op]) {
    let epoch = writer.epoch() + 1;
    t.span("hilog-store.wal.append", op_id, |_| {
        wal.append(epoch, ops).expect("append to the scratch log")
    });
    for op in ops {
        match op {
            Op::AssertFact(fact) => {
                let fact = fact.clone();
                t.span("hilog-engine.session.assert_fact", op_id, |_| {
                    writer.assert_fact(fact).expect("ground fact asserts")
                })
            }
            Op::RetractFact(fact) => t.span("hilog-engine.session.retract_fact", op_id, |_| {
                writer.retract_fact(fact);
            }),
            Op::AssertRule(_) | Op::RetractRule(_) => {
                unreachable!("the generated streams hold facts only")
            }
        }
    }
}

fn staged_encode(t: &mut Tracer, op_id: u64, epoch: u64, ops: &[Op]) {
    t.span("hilog-store.ops.encode", op_id, |_| {
        std::hint::black_box(encode_batch(epoch, ops));
    });
}

/// The per-layer metrics of the staged write path, from its spans.
fn report_staged_writes(outcome: &mut Outcome, tracer: &Tracer, wal: &Wal, facts: usize) {
    for (metric, span, per) in [
        ("hilog-store.ops.encode_us", "hilog-store.ops.encode", 1e3),
        ("hilog-store.wal.append_ms", "hilog-store.wal.append", 1e6),
        (
            "hilog-engine.session.assert_fact_us",
            "hilog-engine.session.assert_fact",
            1e3,
        ),
        (
            "hilog-engine.session.retract_fact_us",
            "hilog-engine.session.retract_fact",
            1e3,
        ),
        (
            "hilog-engine.snapshot.publish_ms",
            "hilog-engine.snapshot.publish",
            1e6,
        ),
    ] {
        outcome.set(metric, tracer.p50(span, per));
    }
    outcome.set(
        "hilog-store.wal.bytes_per_fact",
        wal.bytes() as f64 / facts.max(1) as f64,
    );
}
