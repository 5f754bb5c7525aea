//! What durability costs, and what recovery buys.
//!
//! Three questions, one EDB-heavy ingest workload (`durability_workload`,
//! 10^5 distinct `edge` facts in 500-fact batches over a two-rule program):
//!
//! 1. **Write-path overhead** — the same batch stream is pushed through a
//!    `PersistentWriter` with the in-memory backend (PR 6 behaviour), a WAL
//!    fsync'd per batch, and a WAL fsync'd on a 50ms interval.  The interval
//!    setting is the one the issue bounds at `<10%` overhead.
//! 2. **Checkpoint cost** — wall time to save the full ingested state and
//!    the resulting file size.
//! 3. **Restart-to-first-answer** — time from `PersistentWriter::open` on an
//!    existing data directory until a bound probe query answers, for the
//!    checkpoint path and the WAL-replay path, against cold fresh
//!    evaluation (parse the flat program, build, answer).
//!
//! Run with `cargo bench -p hilog-bench --bench bench_durability`; besides
//! the markdown table on stdout it records the measurements in
//! `BENCH_durability.json` at the repository root.  `HILOG_BENCH_SMOKE=1`
//! runs a reduced load and does not overwrite the committed numbers.

use hilog_bench::{to_markdown, Measurement};
use hilog_engine::HiLogDb;
use hilog_store::{Op, PersistentWriter, StoreConfig};
use hilog_syntax::{parse_program, parse_query, parse_term};
use hilog_workloads::durability::{
    durability_workload, DurabilityWorkload, DurabilityWorkloadConfig,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hilog-bench-durability-{tag}-{}",
        std::process::id()
    ));
    // A stale directory from a killed run would turn "fresh ingest" into
    // "recovery plus ingest"; start clean.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create bench data dir");
    dir
}

/// Pre-parsed assert batches, shared by every variant so parsing cost never
/// contaminates the write-path comparison.
fn parse_batches(workload: &DurabilityWorkload) -> Vec<Vec<Op>> {
    workload
        .batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|fact| Op::AssertFact(parse_term(fact).expect("workload fact parses")))
                .collect()
        })
        .collect()
}

/// Streams every batch through `writer`, returning the wall time.
fn ingest(writer: &mut PersistentWriter, batches: &[Vec<Op>]) -> Duration {
    let start = Instant::now();
    for ops in batches {
        writer.apply_batch(ops).expect("ingest batch applies");
    }
    writer.flush().expect("ingest flush");
    start.elapsed()
}

/// Answers the first probe against the writer's published snapshot,
/// asserting it is non-empty (i.e. the ingested facts are really there).
fn first_answer(handle: &hilog_engine::SnapshotHandle, probe: &str) -> Duration {
    let query = parse_query(probe).expect("probe parses");
    let start = Instant::now();
    let result = handle.current().query(&query).expect("probe answers");
    let elapsed = start.elapsed();
    assert!(!result.answers.is_empty(), "probe {probe} found no edges");
    elapsed
}

fn row(workload: &str, metric: &str, value: f64, unit: &str) -> Measurement {
    Measurement::new("DURABILITY", workload.to_string(), metric, value, unit)
}

fn main() {
    let smoke = std::env::var("HILOG_BENCH_SMOKE").is_ok();
    let config = if smoke {
        DurabilityWorkloadConfig {
            facts: 2_000,
            nodes: 500,
            batch_size: 100,
            probes: 8,
        }
    } else {
        DurabilityWorkloadConfig::default()
    };
    let workload = durability_workload(&config, 0xD15C);
    let batches = parse_batches(&workload);
    let facts = config.facts as f64;
    let scale = format!("n={}", config.facts);
    let mut rows = Vec::new();

    // 1. Write-path overhead: identical streams, three backends.
    let (mut mem_writer, _mem_handle) =
        PersistentWriter::in_memory(HiLogDb::new(workload.rules.clone()));
    let mem_wall = ingest(&mut mem_writer, &batches);
    rows.push(row(
        &format!("ingest in-memory {scale}"),
        "facts_per_s",
        facts / mem_wall.as_secs_f64(),
        "1/s",
    ));
    drop(mem_writer);

    let perbatch_dir = temp_dir("perbatch");
    let (mut pb_writer, _pb_handle, _) = PersistentWriter::open(
        &StoreConfig::new(&perbatch_dir),
        HiLogDb::new(workload.rules.clone()),
    )
    .expect("open per-batch store");
    let pb_wall = ingest(&mut pb_writer, &batches);
    rows.push(row(
        &format!("ingest wal-perbatch {scale}"),
        "facts_per_s",
        facts / pb_wall.as_secs_f64(),
        "1/s",
    ));
    drop(pb_writer); // Simulated crash: full WAL, baseline checkpoint only.

    let interval_dir = temp_dir("interval");
    let (mut iv_writer, iv_handle, _) = PersistentWriter::open(
        &StoreConfig::new(&interval_dir).fsync_interval(Duration::from_millis(50)),
        HiLogDb::new(workload.rules.clone()),
    )
    .expect("open interval store");
    let iv_wall = ingest(&mut iv_writer, &batches);
    rows.push(row(
        &format!("ingest wal-interval {scale}"),
        "facts_per_s",
        facts / iv_wall.as_secs_f64(),
        "1/s",
    ));
    let overhead =
        (iv_wall.as_secs_f64() - mem_wall.as_secs_f64()) / mem_wall.as_secs_f64() * 100.0;
    rows.push(row(
        &format!("ingest wal-interval {scale}"),
        "overhead_vs_memory",
        overhead,
        "%",
    ));
    // Warm the probe once so checkpoint/restart timings below aren't mixed
    // with first-build index costs on the live side.
    first_answer(&iv_handle, &workload.probes[0]);

    // 2. Checkpoint save cost (and file size) at the full ingested state.
    let ckpt_start = Instant::now();
    let outcome = iv_writer.checkpoint().expect("checkpoint saves");
    let ckpt_wall = ckpt_start.elapsed();
    rows.push(row(
        &format!("checkpoint {scale}"),
        "save_wall",
        ckpt_wall.as_secs_f64() * 1e3,
        "ms",
    ));
    rows.push(row(
        &format!("checkpoint {scale}"),
        "file_size",
        outcome.bytes_written as f64,
        "bytes",
    ));
    drop(iv_writer);

    // 3a. Restart from the checkpoint: open (load + decode) then answer.
    let open_start = Instant::now();
    let (ck_writer, ck_handle, report) = PersistentWriter::open(
        &StoreConfig::new(&interval_dir),
        HiLogDb::new(workload.rules.clone()),
    )
    .expect("reopen checkpoint store");
    let ck_open = open_start.elapsed();
    assert!(report.recovered && report.replayed_records == 0);
    let ck_answer = first_answer(&ck_handle, &workload.probes[0]);
    rows.push(row(
        &format!("restart checkpoint {scale}"),
        "open_wall",
        ck_open.as_secs_f64() * 1e3,
        "ms",
    ));
    rows.push(row(
        &format!("restart checkpoint {scale}"),
        "first_answer",
        (ck_open + ck_answer).as_secs_f64() * 1e3,
        "ms",
    ));
    drop(ck_writer);

    // 3b. Restart by replaying the full WAL (the crash-without-checkpoint
    // path left behind by the per-batch run above).
    let open_start = Instant::now();
    let (wal_writer, wal_handle, report) = PersistentWriter::open(
        &StoreConfig::new(&perbatch_dir),
        HiLogDb::new(workload.rules.clone()),
    )
    .expect("reopen WAL store");
    let wal_open = open_start.elapsed();
    assert!(report.recovered && report.replayed_records == batches.len());
    let wal_answer = first_answer(&wal_handle, &workload.probes[0]);
    rows.push(row(
        &format!("restart wal-replay {scale}"),
        "open_wall",
        wal_open.as_secs_f64() * 1e3,
        "ms",
    ));
    rows.push(row(
        &format!("restart wal-replay {scale}"),
        "first_answer",
        (wal_open + wal_answer).as_secs_f64() * 1e3,
        "ms",
    ));
    drop(wal_writer);

    // 3c. Cold fresh evaluation: parse the flat program, build, answer.
    let cold_start = Instant::now();
    let program = parse_program(&workload.flat_program).expect("flat program parses");
    let (_cold_writer, cold_handle) = HiLogDb::new(program).into_serving();
    let cold_build = cold_start.elapsed();
    let cold_answer = first_answer(&cold_handle, &workload.probes[0]);
    rows.push(row(
        &format!("cold fresh {scale}"),
        "build_wall",
        cold_build.as_secs_f64() * 1e3,
        "ms",
    ));
    rows.push(row(
        &format!("cold fresh {scale}"),
        "first_answer",
        (cold_build + cold_answer).as_secs_f64() * 1e3,
        "ms",
    ));

    std::fs::remove_dir_all(&perbatch_dir).ok();
    std::fs::remove_dir_all(&interval_dir).ok();

    print!("{}", to_markdown(&rows));
    if smoke {
        // CI smoke: exercise every path but keep the committed numbers.
        return;
    }
    let json = serde_json::to_string_pretty(&rows).expect("measurements serialise");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_durability.json");
    std::fs::write(path, json + "\n").expect("BENCH_durability.json written");
    println!("wrote {path}");
}
