//! `inproc_mixed_rw`: writes beside reads on the serving layer, no sockets.
//!
//! A durable `PersistentWriter` (WAL fsync'd per batch) and its
//! `SnapshotHandle` over the same game `http_point_reads` serves.  One
//! thread, a deterministic interleave: each round applies one write batch
//! (a 4-fact assert or retract toggle from the churn pool) and then answers
//! 16 reads.  Incremental maintenance (DRed, the table reverse closure, the
//! snapshot publish, the model rebuild an open query pays after a write) and
//! the WAL do the work.  Single-threaded so counts repeat exactly.

use crate::check::canon_result;
use crate::counting_io::CountingIo;
use crate::report::{latency_tail, Outcome, ReadCounters, RunConfig};
use crate::stats::{median, sliced_rate, Fnv};
use crate::trace::Tracer;
use crate::window::{LatencyOf, Window};
use crate::workloads::{parse_term_us, report_staged_writes, staged_encode, staged_write};
use hilog_core::Query;
use hilog_engine::{DbWriter, HiLogDb, ModelSource, SnapshotHandle};
use hilog_store::{FsyncPolicy, Op, PersistentWriter, StoreConfig, Wal};
use hilog_syntax::{parse_query, parse_term};
use hilog_workloads::{serving_workload, ServingWorkload, ServingWorkloadConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 300;
const QUERIES: usize = 1_024;
const CHURN_POOL: usize = 40;
const BATCH_FACTS: usize = 4;
const READS_PER_ROUND: usize = 16;
/// Rounds in the window at the reference size.
const ROUNDS: usize = 600;
/// Rounds of the traced run.
const TRACED_ROUNDS: usize = 200;
/// Throughput is the median rate of this many slices of the window
/// (30 rounds each at the reference size), so every slice holds rounds of
/// every kind: cheap ones and ones whose write dropped the tables.
const SLICES: usize = 20;
/// Every n-th read is compared with a fresh `HiLogDb` over the program as
/// it stands at that epoch.
const VERIFY_EVERY: usize = 256;

/// FNV-1a digest of the generated inputs for the default seed.
const PINNED_INPUT_DIGEST: u64 = 0x0a06_f1ce_f4fe_faf9;

/// The generated inputs, parsed once: parsing is not this workload's work.
struct Inputs {
    workload: ServingWorkload,
    queries: Vec<Query>,
    batches: Vec<Vec<Op>>,
}

impl Inputs {
    fn generate(cfg: &RunConfig, rounds: usize) -> Inputs {
        let workload = serving_workload(
            &ServingWorkloadConfig {
                nodes: NODES,
                avg_out_degree: 2.0,
                churn_pool: CHURN_POOL,
                batch_size: BATCH_FACTS,
                write_batches: rounds,
                queries: QUERIES,
            },
            cfg.seed,
        );
        let queries = workload
            .queries
            .iter()
            .map(|q| parse_query(q).expect("generated query parses"))
            .collect();
        let batches = workload
            .batches
            .iter()
            .map(|batch| {
                batch
                    .facts
                    .iter()
                    .map(|fact| {
                        let term = parse_term(fact).expect("generated fact parses");
                        if batch.assert {
                            Op::AssertFact(term)
                        } else {
                            Op::RetractFact(term)
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            workload,
            queries,
            batches,
        }
    }

    fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.write(self.workload.program.to_string().as_bytes());
        for query in &self.workload.queries {
            fnv.write(query.as_bytes());
        }
        for batch in &self.workload.batches {
            fnv.write(&[batch.assert as u8]);
            for fact in &batch.facts {
                fnv.write(fact.as_bytes());
            }
        }
        fnv.finish()
    }
}

/// An open durable store with every query warmed.
struct Store {
    inputs: Inputs,
    writer: PersistentWriter,
    handle: SnapshotHandle,
    io: Arc<CountingIo>,
}

impl Store {
    /// Set-up: generate and parse the inputs, open the store in a fresh
    /// directory (which writes the baseline checkpoint), warm every query.
    fn open(cfg: &RunConfig, rounds: usize, dir: &Path) -> Store {
        let inputs = Inputs::generate(cfg, rounds);
        let io = Arc::new(CountingIo::new());
        let config = StoreConfig::new(dir)
            .fsync(FsyncPolicy::PerBatch)
            .io(io.clone());
        let (writer, handle, report) =
            PersistentWriter::open(&config, HiLogDb::new(inputs.workload.program.clone()))
                .expect("open a store in a fresh directory");
        assert!(!report.recovered, "{} was not fresh", dir.display());
        warm(&handle, &inputs.queries);
        Store {
            inputs,
            writer,
            handle,
            io,
        }
    }
}

fn warm(handle: &SnapshotHandle, queries: &[Query]) {
    for query in queries {
        handle
            .current()
            .query(query)
            .expect("generated query evaluates");
    }
}

fn verify_read(
    outcome: &mut Outcome,
    program: &hilog_core::Program,
    query: &Query,
    got: &hilog_engine::QueryResult,
) {
    let want = HiLogDb::new(program.clone())
        .query(query)
        .expect("oracle evaluates");
    outcome.check(canon_result(got) == canon_result(&want), || {
        format!("{query}: answer differs from a fresh HiLogDb")
    });
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let rounds = cfg.count(if cfg.trace { TRACED_ROUNDS } else { ROUNDS }, 20);

    // One item per round.
    let mut window = Window::new(
        cfg,
        (1 + READS_PER_ROUND) as f64,
        SLICES,
        LatencyOf::Operations,
    );
    let mut store = window.set_up_less(
        cfg,
        |attempt| Store::open(cfg, rounds, &cfg.scratch.join(format!("store-{attempt}"))),
        |store| store.io.flush_wait_s(),
        drop,
    );
    // The traced run's shorter stream is other input.
    outcome.pin_inputs(
        store.inputs.digest(),
        PINNED_INPUT_DIGEST,
        cfg.pinned() && !cfg.trace,
    );
    outcome.note("nodes", NODES);
    outcome.note("rounds", rounds);
    outcome.note("reads_per_round", READS_PER_ROUND);
    outcome.note("batch_facts", BATCH_FACTS);
    outcome.note("fsync", "per batch, its wait left out of the timings");
    outcome.note(
        "eval_threads",
        store.handle.current().options().eval_threads,
    );

    if cfg.trace {
        trace_run(cfg, &mut store, rounds, &mut outcome);
        return outcome;
    }

    // A write is timed without its wait for the device (see `CountingIo`).
    let mut write_ms = Vec::with_capacity(rounds);
    let mut flush_ms = Vec::with_capacity(rounds);
    let mut read = 0usize;
    for round in 0..rounds {
        window.pace();
        let ops = &store.inputs.batches[round];
        let (applied, elapsed, waited) = store.io.timed(|| store.writer.apply_batch(ops));
        let mut this_round = elapsed - waited;
        write_ms.push(elapsed * 1e3);
        flush_ms.push(waited * 1e3);
        outcome.check(
            matches!(&applied, Ok(o) if o.epoch == round as u64 + 1 && o.missing.is_empty()),
            || format!("batch {round}: {applied:?}"),
        );
        for _ in 0..READS_PER_ROUND {
            let query = &store.inputs.queries[read % store.inputs.queries.len()];
            let start = Instant::now();
            let result = store.handle.current().query(query);
            let elapsed = start.elapsed().as_secs_f64();
            this_round += elapsed;
            window.operation(elapsed * 1e3);
            match &result {
                Ok(result) if read % VERIFY_EVERY == 0 => {
                    verify_read(&mut outcome, store.writer.program(), query, result)
                }
                Ok(_) => outcome.attempted += 1,
                Err(error) => outcome.check(false, || format!("{query}: {error}")),
            }
            read += 1;
        }
        window.item(this_round);
    }
    // The final state, in full: the open query's answer is the whole model.
    let open = parse_query("?- winning(X).").expect("literal query parses");
    let last = store
        .handle
        .current()
        .query(&open)
        .expect("final open query");
    verify_read(&mut outcome, store.writer.program(), &open, &last);
    outcome.check(store.writer.epoch() == rounds as u64, || {
        format!("epoch {} after {rounds} batches", store.writer.epoch())
    });

    window.end_to_end(&mut outcome);
    outcome.note("raw_write_latency_p50_ms", median(&write_ms));
    outcome.note("flush_wait_p50_ms", median(&flush_ms));
    outcome
}

/// The per-layer numbers.  The real path (`apply_batch`, then reads) runs on
/// the store opened in set-up; beside it the same rounds run stage by stage
/// on a second `DbWriter` with its own log: `encode_batch`, `Wal::append`,
/// `assert_fact` / `retract_fact` per op, `publish`, then the same reads.
fn trace_run(cfg: &RunConfig, store: &mut Store, rounds: usize, outcome: &mut Outcome) {
    // Parsing a fact is set-up here, but it is hilog-syntax's share of it.
    let facts = store.inputs.workload.batches.iter().flat_map(|b| &b.facts);
    outcome.set("hilog-syntax.parser.parse_term_us", parse_term_us(facts));

    // Real path.
    let mut counters = ReadCounters::default();
    let mut apply_ms = Vec::with_capacity(rounds);
    let mut read_ms = Vec::with_capacity(rounds * READS_PER_ROUND);
    let mut round_ns = Vec::with_capacity(rounds);
    let mut completions = Vec::new();
    let mut clock = 0.0;
    let mut read = 0usize;
    for round in 0..rounds {
        let ops = &store.inputs.batches[round];
        let start = Instant::now();
        let applied = store.writer.apply_batch(ops);
        let mut this_round = start.elapsed();
        apply_ms.push(this_round.as_secs_f64() * 1e3);
        outcome.check(applied.is_ok(), || format!("batch {round}: {applied:?}"));
        for _ in 0..READS_PER_ROUND {
            let query = &store.inputs.queries[read % store.inputs.queries.len()];
            let start = Instant::now();
            let result = store.handle.current().query(query);
            let elapsed = start.elapsed();
            this_round += elapsed;
            read_ms.push(elapsed.as_secs_f64() * 1e3);
            match &result {
                Ok(result) => {
                    outcome.attempted += 1;
                    counters.add(&result.stats);
                }
                Err(error) => outcome.check(false, || format!("{query}: {error}")),
            }
            read += 1;
        }
        round_ns.push(this_round.as_nanos() as f64);
        clock += this_round.as_secs_f64();
        completions.push(clock);
    }
    counters.report(outcome);
    let (_, slice_iqr) = sliced_rate(&completions, (1 + READS_PER_ROUND) as f64, rounds);
    outcome.set("harness.slice_rate_iqr_share", slice_iqr);
    outcome.set("hilog-store.serving.apply_batch_ms", median(&apply_ms));
    outcome.set(
        "hilog-engine.snapshot.query_warm_us",
        median(&read_ms) * 1e3,
    );
    latency_tail(outcome, &read_ms);
    let device = store.io.counts();
    outcome.set("hilog-store.io.fsyncs", device.fsyncs as f64);
    outcome.set("hilog-store.io.bytes_written", device.bytes_written as f64);
    outcome.set("hilog-store.io.ops", device.ops as f64);
    outcome.set("hilog-store.io.flush_wait_ms", device.flush_wait_ms);
    outcome.set(
        "hilog-store.io.retries",
        store.writer.storage_stats().io_retries as f64,
    );

    // Staged path, on a store of its own in the same warm state.
    let staged_io = CountingIo::new();
    let (mut wal, _) = Wal::open(
        &staged_io,
        cfg.scratch.join("staged-wal.log"),
        FsyncPolicy::PerBatch,
    )
    .expect("open a scratch log");
    let (mut writer, handle): (DbWriter, SnapshotHandle) =
        HiLogDb::new(store.inputs.workload.program.clone()).into_serving();
    warm(&handle, &store.inputs.queries);
    let probe = parse_query("?- move(p0, X).").expect("literal query parses");
    // Every generated query has a ground predicate name and is answered by
    // the tabled route; only a query with a variable one reads the full
    // model, so one is asked after each write to see what keeping the model
    // current costs and whether it was patched or rebuilt.
    let full_model = parse_query("?- P(X).").expect("literal query parses");
    let mut rebuilt = 0usize;
    let mut tracer = Tracer::new();
    let (mut dropped, mut patched, mut refilled) = (0usize, 0usize, 0usize);
    let mut facts = 0usize;
    let mut read = 0usize;
    for round in 0..rounds {
        let ops = &store.inputs.batches[round];
        let op_id = round as u64;
        facts += ops.len();
        staged_encode(&mut tracer, op_id, round as u64 + 1, ops);
        tracer.span("round", op_id, |t| {
            staged_write(t, op_id, &mut wal, &mut writer, ops);
            // What table maintenance did for this batch, read from the
            // session before it publishes (the counters reset on read).
            t.span("harness.table_counters", op_id, |_| {
                if let Ok(result) = writer.db().query(&probe) {
                    dropped += result.stats.tables_dropped;
                    patched += result.stats.tables_patched;
                    refilled += result.stats.tables_refilled;
                }
            });
            t.span("hilog-engine.snapshot.publish", op_id, |_| {
                writer.publish();
            });
            t.span("harness.full_model_query", op_id, |_| {
                match handle.current().query(&full_model) {
                    Ok(result) if result.stats.model_source == ModelSource::Rebuilt => rebuilt += 1,
                    Ok(_) => {}
                    Err(error) => outcome.check(false, || format!("{full_model}: {error}")),
                }
            });
            for _ in 0..READS_PER_ROUND {
                let query = &store.inputs.queries[read % store.inputs.queries.len()];
                let result = t.span("hilog-engine.snapshot.query", op_id, |_| {
                    handle.current().query(query)
                });
                if let Err(error) = result {
                    outcome.check(false, || format!("staged {query}: {error}"));
                }
                read += 1;
            }
        });
    }
    // Both paths must have reached the same state.
    let open = parse_query("?- winning(X).").expect("literal query parses");
    let real = store.handle.current().query(&open).expect("open query");
    let staged = handle.current().query(&open).expect("open query");
    outcome.check(canon_result(&real) == canon_result(&staged), || {
        "staged and real stores disagree on the final model".to_string()
    });
    verify_read(outcome, store.writer.program(), &open, &real);

    report_staged_writes(outcome, &tracer, &wal, facts);
    outcome.set(
        "hilog-engine.session.model_patch_ms",
        tracer.p50("harness.full_model_query", 1e6),
    );
    outcome.set(
        "hilog-engine.session.model_rebuilt_share",
        rebuilt as f64 / rounds as f64,
    );
    let per_write = |n: usize| n as f64 / rounds as f64;
    outcome.set(
        "hilog-engine.session.tables_dropped_per_write",
        per_write(dropped),
    );
    outcome.set(
        "hilog-engine.session.tables_patched_per_write",
        per_write(patched),
    );
    outcome.set(
        "hilog-engine.session.tables_refilled_per_write",
        per_write(refilled),
    );
    outcome.note("traced_rounds", rounds);
    outcome.trace_report(cfg, "inproc_mixed_rw", &tracer, "round", median(&round_ns));
}
