//! `bulk_ingest_recover`: the write path, then a crash, then recovery.
//!
//! A durable `PersistentWriter` ingests `durability_workload`: distinct
//! `edge` facts in pre-parsed batches of 100 over a two-rule program, a full
//! checkpoint near the end, a tail of batches left in the log, a crash (the
//! writer is dropped and every file is cut back to the bytes an fsync
//! covered), a reopen, and a first probe whose answer is verified.  The
//! op-at-a-time `assert_fact`, the per-batch publish, the WAL, checkpoint
//! encode and decode, and replay do the work; nothing here parses a query in
//! the window or touches a socket.  Ingest cost grows with the store (each
//! `assert_fact` scans the program), so the size is fixed by count.

use crate::check::canon_result;
use crate::counting_io::CountingIo;
use crate::report::{latency_tail, Outcome, RunConfig};
use crate::stats::{median, pseudo_median, sliced_rate, Fnv};
use crate::trace::Tracer;
use crate::window::{LatencyOf, Window};
use crate::workloads::{
    parse_term_us, report_staged_writes, staged_encode, staged_write, EdgeList,
};
use hilog_core::Query;
use hilog_engine::{DbWriter, HiLogDb, SnapshotHandle};
use hilog_store::{FsyncPolicy, Op, PersistentWriter, StoreConfig, Wal};
use hilog_syntax::{parse_query, parse_term};
use hilog_workloads::{durability_workload, DurabilityWorkload, DurabilityWorkloadConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const BATCH_FACTS: usize = 100;
/// Batches at the reference size (20,000 facts).
const BATCHES: usize = 200;
/// Share of the batches ingested before the full checkpoint; the rest stay
/// in the log for recovery to replay.
const CHECKPOINT_AFTER: f64 = 0.925;
const PROBES: usize = 32;
/// Batches the traced run also drives stage by stage.
const TRACED_BATCHES: usize = 100;

/// FNV-1a digest of the generated inputs for the default seed.
const PINNED_INPUT_DIGEST: u64 = 0x5bcb_0609_7089_a372;

struct Inputs {
    workload: DurabilityWorkload,
    batches: Vec<Vec<Op>>,
    /// Bytes of fact text handed to the store.
    user_bytes: u64,
    /// Nodes with at least one edge.
    nodes: usize,
    /// Each probe with its answer worked out from the edge list alone.
    probes: Vec<(Query, Vec<String>)>,
}

impl Inputs {
    fn generate(cfg: &RunConfig, batches: usize) -> Inputs {
        let facts = batches * BATCH_FACTS;
        let workload = durability_workload(
            &DurabilityWorkloadConfig {
                facts,
                nodes: (facts / 5).max(2),
                batch_size: BATCH_FACTS,
                probes: PROBES,
            },
            cfg.seed,
        );
        let facts = || workload.batches.iter().flatten();
        // `edge(p1, p2)` reaches the store as `edge(p1, p2).\n`.
        let user_bytes = facts().map(|fact| fact.len() as u64 + 2).sum();
        let edges = EdgeList::new(facts());
        let nodes = edges.nodes().len();
        let probes = workload
            .probes
            .iter()
            .map(|probe| {
                let node = probe
                    .strip_prefix("?- linked(")
                    .and_then(|rest| rest.split_once(','))
                    .map(|(node, _)| node)
                    .expect("generated probes are ?- linked(pU, X).");
                (
                    parse_query(probe).expect("generated probe parses"),
                    edges.linked(node),
                )
            })
            .collect();
        let parsed = workload
            .batches
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|fact| Op::AssertFact(parse_term(fact).expect("generated fact parses")))
                    .collect()
            })
            .collect();
        Inputs {
            workload,
            batches: parsed,
            user_bytes,
            nodes,
            probes,
        }
    }

    fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        for fact in self.workload.batches.iter().flatten() {
            fnv.write(fact.as_bytes());
        }
        for probe in &self.workload.probes {
            fnv.write(probe.as_bytes());
        }
        fnv.finish()
    }

    fn facts(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

struct Store {
    inputs: Inputs,
    config: StoreConfig,
    io: Arc<CountingIo>,
    writer: PersistentWriter,
    handle: SnapshotHandle,
}

impl Store {
    /// Set-up: generate and parse the stream, open the store in a fresh
    /// directory (which writes the baseline checkpoint).
    fn open(cfg: &RunConfig, batches: usize, dir: &Path) -> Store {
        let inputs = Inputs::generate(cfg, batches);
        let io = Arc::new(CountingIo::new());
        let config = StoreConfig::new(dir)
            .fsync(FsyncPolicy::PerBatch)
            .io(io.clone());
        let (writer, handle, report) =
            PersistentWriter::open(&config, HiLogDb::new(inputs.workload.rules.clone()))
                .expect("open a store in a fresh directory");
        assert!(!report.recovered, "{} was not fresh", dir.display());
        Store {
            inputs,
            config,
            io,
            writer,
            handle,
        }
    }
}

/// What one ingest → checkpoint → tail → crash → recover cycle measured.
struct Cycle {
    batch_ms: Vec<f64>,
    completions: Vec<f64>,
    ingest_s: f64,
    checkpoint_s: f64,
    checkpoint_bytes: u64,
    recover_s: f64,
    tail_records: usize,
    data_dir_bytes: u64,
    /// The recovered store, still open.
    writer: PersistentWriter,
    handle: SnapshotHandle,
}

fn probe_matches(handle: &SnapshotHandle, probe: &(Query, Vec<String>)) -> bool {
    handle
        .current()
        .query(&probe.0)
        .is_ok_and(|result| canon_result(&result) == probe.1)
}

fn cycle(
    store: Store,
    outcome: &mut Outcome,
    window: &mut Window,
) -> (Cycle, Inputs, StoreConfig, Arc<CountingIo>) {
    let Store {
        inputs,
        config,
        io,
        mut writer,
        handle,
    } = store;
    let checkpoint_at = ((inputs.batches.len() as f64 * CHECKPOINT_AFTER).round() as usize)
        .clamp(1, inputs.batches.len() - 1);
    let mut batch_ms = Vec::with_capacity(inputs.batches.len());
    let mut completions = Vec::with_capacity(inputs.batches.len());
    let mut clock = 0.0;
    let mut checkpoint_s = 0.0;
    let mut checkpoint_bytes = 0;
    for (index, ops) in inputs.batches.iter().enumerate() {
        if index == checkpoint_at {
            window.pace();
            let (saved, elapsed, waited) = io.timed(|| writer.checkpoint());
            checkpoint_s = elapsed;
            window.interval(elapsed - waited);
            outcome.check(matches!(&saved, Ok(c) if c.epoch == index as u64), || {
                format!("checkpoint after batch {index}: {saved:?}")
            });
            checkpoint_bytes = saved.map_or(0, |c| c.bytes_written);
        }
        window.pace();
        let (applied, elapsed, waited) = io.timed(|| writer.apply_batch(ops));
        window.item(elapsed - waited);
        clock += elapsed;
        batch_ms.push(elapsed * 1e3);
        completions.push(clock);
        outcome.check(
            matches!(&applied, Ok(o) if o.epoch == index as u64 + 1 && o.applied == ops.len()),
            || format!("batch {index}: {applied:?}"),
        );
    }
    let acknowledged = writer.epoch();
    let data_dir_bytes = writer.storage_stats().data_dir_bytes;
    // The live answer, before the crash, against the edge list.
    outcome.check(probe_matches(&handle, &inputs.probes[0]), || {
        "live probe differs from the edge list".to_string()
    });

    // The crash: handles closed, unflushed bytes gone.
    drop(writer);
    drop(handle);
    let discarded = io.crash().expect("cut files back to their synced length");
    outcome.note("bytes_discarded_by_crash", discarded);

    window.pace();
    let ((writer, handle, report, first_probe_ok), recover_s, waited) = io.timed(|| {
        let reopened = PersistentWriter::open(&config, HiLogDb::new(inputs.workload.rules.clone()));
        let (writer, handle, report) = reopened.expect("reopen the store after the crash");
        let first_probe_ok = probe_matches(&handle, &inputs.probes[0]);
        (writer, handle, report, first_probe_ok)
    });
    window.interval(recover_s - waited);
    outcome.check(first_probe_ok, || {
        "first probe after recovery differs from the edge list".to_string()
    });

    let tail_records = inputs.batches.len() - checkpoint_at;
    outcome.check(
        report.recovered && report.replayed_records == tail_records,
        || format!("recovery replayed {report:?}, expected {tail_records} records"),
    );
    outcome.check(writer.epoch() == acknowledged, || {
        format!(
            "recovered epoch {} but {acknowledged} was acknowledged",
            writer.epoch()
        )
    });
    let recovered_facts = writer
        .program()
        .rules
        .iter()
        .filter(|r| r.is_fact())
        .count();
    outcome.check(recovered_facts == inputs.facts(), || {
        format!("recovered {recovered_facts} facts of {}", inputs.facts())
    });
    for probe in &inputs.probes[1..] {
        outcome.check(probe_matches(&handle, probe), || {
            format!("{}: recovered answer differs from the edge list", probe.0)
        });
    }
    (
        Cycle {
            batch_ms,
            completions,
            ingest_s: clock,
            checkpoint_s,
            checkpoint_bytes,
            recover_s,
            tail_records,
            data_dir_bytes,
            writer,
            handle,
        },
        inputs,
        config,
        io,
    )
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let batches = cfg.count(BATCHES, 10);

    // The items are the batches, the checkpoint and the recovery; the rate
    // is taken over all of them (see below), not over slices.
    let mut window = Window::new(cfg, BATCH_FACTS as f64, 1, LatencyOf::Items);
    let store = window.set_up_less(
        cfg,
        |attempt| Store::open(cfg, batches, &cfg.scratch.join(format!("store-{attempt}"))),
        |store| store.io.flush_wait_s(),
        drop,
    );
    outcome.pin_inputs(store.inputs.digest(), PINNED_INPUT_DIGEST, cfg.pinned());
    outcome.note("facts", store.inputs.facts());
    outcome.note("batch_facts", BATCH_FACTS);
    outcome.note("nodes", store.inputs.nodes);
    outcome.note("fsync", "per batch, its wait left out of the timings");

    let (cycle, inputs, config, io) = cycle(store, &mut outcome, &mut window);
    outcome.note("tail_records", cycle.tail_records);
    outcome.note("checkpoint_s", cycle.checkpoint_s);
    outcome.note("recover_s", cycle.recover_s);
    outcome.note("flush_wait_s", io.flush_wait_s());
    let bytes_per_user_byte = cycle.data_dir_bytes as f64 / inputs.user_bytes as f64;
    outcome.note("bytes_per_user_byte", bytes_per_user_byte);

    if cfg.trace {
        trace_run(cfg, cycle, &inputs, &config, &io, &mut outcome);
        outcome.set(
            "hilog-store.serving.bytes_per_user_byte",
            bytes_per_user_byte,
        );
        return outcome;
    }

    window.end_to_end(&mut outcome);
    // Write cost, recovery time and space trade against each other, so the
    // rate is taken over the whole cycle: facts made durable and brought
    // back, per second of ingest + checkpoint + recovery.
    outcome.set("throughput_ops_s", inputs.facts() as f64 / window.total_s());
    // A batch costs in proportion to the facts already stored, so the
    // latencies are a ramp and their median is set by the twenty batches
    // next to the middle — by the machine's mood in that half second.  The
    // pseudo-median is the same number drawn from all of them: over ten
    // seeds it spread by 2% of its median where the median spread by 10%.
    outcome.set(
        "latency_p50_ms",
        pseudo_median(&window.corrected_latencies_ms()),
    );
    outcome.note(
        "raw_throughput_ops_s",
        inputs.facts() as f64 / (cycle.ingest_s + cycle.checkpoint_s + cycle.recover_s),
    );
    outcome
}

/// The per-layer numbers: the full cycle has just run on the real path; the
/// first batches now run again stage by stage on a `DbWriter` and a log of
/// their own, and the recovered store is checkpointed and reopened to split
/// recovery into checkpoint load and log replay.
fn trace_run(
    cfg: &RunConfig,
    mut cycle: Cycle,
    inputs: &Inputs,
    config: &StoreConfig,
    io: &CountingIo,
    outcome: &mut Outcome,
) {
    let prefix = TRACED_BATCHES.min(inputs.batches.len());
    let (_, slice_iqr) = sliced_rate(&cycle.completions, BATCH_FACTS as f64, 20);
    outcome.set("harness.slice_rate_iqr_share", slice_iqr);
    outcome.set(
        "hilog-store.serving.apply_batch_ms",
        median(&cycle.batch_ms[..prefix]),
    );
    latency_tail(outcome, &cycle.batch_ms);
    outcome.set("hilog-store.serving.recover_s", cycle.recover_s);
    outcome.set("hilog-store.checkpoint.save_ms", cycle.checkpoint_s * 1e3);
    outcome.set(
        "hilog-store.checkpoint.bytes",
        cycle.checkpoint_bytes as f64,
    );

    // Device counts of the cycle, before the extra checkpoints below.
    let device = io.counts();
    outcome.set("hilog-store.io.fsyncs", device.fsyncs as f64);
    outcome.set("hilog-store.io.bytes_written", device.bytes_written as f64);
    outcome.set("hilog-store.io.ops", device.ops as f64);
    outcome.set("hilog-store.io.flush_wait_ms", device.flush_wait_ms);
    outcome.set(
        "hilog-store.io.retries",
        cycle.writer.storage_stats().io_retries as f64,
    );

    // An incremental checkpoint of the recovered store, then a full one, so
    // the next open loads a checkpoint and replays nothing.
    let start = Instant::now();
    let incremental = cycle.writer.checkpoint_incremental();
    outcome.set(
        "hilog-store.manifest.incremental_save_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    outcome.check(incremental.is_ok(), || {
        format!("incremental checkpoint: {incremental:?}")
    });
    outcome.set(
        "hilog-store.manifest.segments_written",
        incremental.map_or(0.0, |c| c.segments_written as f64),
    );
    let full = cycle.writer.checkpoint();
    outcome.check(full.is_ok(), || format!("final checkpoint: {full:?}"));
    let Cycle {
        writer,
        handle,
        recover_s,
        tail_records,
        batch_ms,
        ..
    } = cycle;
    drop(writer);
    drop(handle);
    {
        let start = Instant::now();
        let reopened = PersistentWriter::open(config, HiLogDb::new(inputs.workload.rules.clone()));
        let (_writer, handle, report) = reopened.expect("reopen the checkpointed store");
        let first_probe_ok = probe_matches(&handle, &inputs.probes[0]);
        let load_s = start.elapsed().as_secs_f64();
        outcome.check(first_probe_ok && report.replayed_records == 0, || {
            format!("reopen from a checkpoint alone: {report:?}")
        });
        outcome.set("hilog-store.checkpoint.load_ms", load_s * 1e3);
        outcome.set(
            "hilog-store.wal.replay_ms_per_record",
            (recover_s - load_s) * 1e3 / tail_records.max(1) as f64,
        );
        outcome.set(
            "hilog-core.symbol.live_symbols",
            handle
                .current()
                .query(&inputs.probes[0].0)
                .map_or(0.0, |r| r.stats.live_symbols as f64),
        );
        // The store is closed before the staged pass: the real path ran its
        // first batches in a process holding no other database.
    }

    // Staged path.
    let staged_io = CountingIo::new();
    let (mut wal, _) = Wal::open(
        &staged_io,
        cfg.scratch.join("staged-wal.log"),
        FsyncPolicy::PerBatch,
    )
    .expect("open a scratch log");
    let (mut writer, _handle): (DbWriter, SnapshotHandle) =
        HiLogDb::new(inputs.workload.rules.clone()).into_serving();
    let mut tracer = Tracer::new();
    for (index, ops) in inputs.batches[..prefix].iter().enumerate() {
        let op_id = index as u64;
        staged_encode(&mut tracer, op_id, index as u64 + 1, ops);
        tracer.span("batch", op_id, |t| {
            staged_write(t, op_id, &mut wal, &mut writer, ops);
            t.span("hilog-engine.snapshot.publish", op_id, |_| {
                writer.publish();
            });
        });
    }
    report_staged_writes(outcome, &tracer, &wal, prefix * BATCH_FACTS);
    outcome.set(
        "hilog-syntax.parser.parse_term_us",
        parse_term_us(inputs.workload.batches[..prefix].iter().flatten()),
    );
    outcome.note("traced_batches", prefix);
    let untraced_ns = median(&batch_ms[..prefix]) * 1e6;
    outcome.trace_report(cfg, "bulk_ingest_recover", &tracer, "batch", untraced_ns);
}
