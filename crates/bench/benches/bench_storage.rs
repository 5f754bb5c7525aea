//! What the pluggable storage layer costs, and what it buys.
//!
//! Three questions, one sharded multi-relation workload
//! (`storage_workload`: many small HiLog relations tied together by the
//! generic guarded closure rules, so spill residency and checkpoint
//! dirtiness are both per-shard):
//!
//! 1. **Spill store probes** — the same bound candidate probes against a
//!    `FactStore` holding 10^5 facts on the in-memory backend and on the
//!    spill backend with a ~20% residency budget.  Probes walk shards in
//!    random order, so the spill store keeps faulting cold relations back
//!    in; the run asserts facts really were paged out *and* faulted back.
//! 2. **End-to-end query latency** — the workload's bound `linked` probes
//!    through the full serving stack, session storage in-memory versus
//!    spill, answering the issue's "bound queries at interactive latency
//!    while the EDB no longer fits the residency budget".
//! 3. **Incremental versus full checkpoints** — at 10^6 facts over 100
//!    relations: a full checkpoint that writes every segment, then an
//!    update stream touching 2 of the 100 shards and an incremental
//!    checkpoint that should rewrite only those segments, ~10x under the
//!    full checkpoint's time.
//!
//! Run with `cargo bench -p hilog-bench --bench bench_storage`; besides the
//! markdown table on stdout it records the measurements in
//! `BENCH_storage.json` at the repository root.  `HILOG_BENCH_SMOKE=1` runs
//! a reduced load and does not overwrite the committed numbers.

use hilog_bench::{to_markdown, Measurement};
use hilog_engine::{FactStore, HiLogDb, RelationStorage, StorageConfig};
use hilog_store::{Op, PersistentWriter, StoreConfig};
use hilog_syntax::{parse_program, parse_query, parse_term};
use hilog_workloads::storage::{storage_workload, StorageWorkload, StorageWorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hilog-bench-storage-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create bench data dir");
    dir
}

fn row(workload: &str, metric: &str, value: f64, unit: &str) -> Measurement {
    Measurement::new("STORAGE", workload.to_string(), metric, value, unit)
}

/// Bound candidate patterns (`s17(p3, X)`) in random shard order — random
/// so an LRU residency policy keeps missing, the worst case for spill.
fn store_patterns(workload: &StorageWorkload, count: usize, seed: u64) -> Vec<hilog_core::Term> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut patterns = Vec::with_capacity(count);
    for _ in 0..count {
        let batch = &workload.batches[rng.gen_range(0..workload.batches.len())];
        let fact = &batch[rng.gen_range(0..batch.len())];
        // `s17(p3, p9)` -> probe pattern `s17(p3, X)`.
        let open = fact.find('(').expect("fact has arguments");
        let comma = fact.find(',').expect("fact is binary");
        let pattern = format!("{}{}, X)", &fact[..open], &fact[open..comma]);
        patterns.push(parse_term(&pattern).expect("probe pattern parses"));
    }
    patterns
}

/// Inserts every workload fact, then times the candidate probes.  Returns
/// (insert wall, probe wall, candidates visited).
fn run_store(
    store: &mut FactStore,
    workload: &StorageWorkload,
    patterns: &[hilog_core::Term],
) -> (Duration, Duration, usize) {
    let insert_start = Instant::now();
    for batch in &workload.batches {
        for fact in batch {
            store.insert(parse_term(fact).expect("fact parses"));
        }
    }
    let insert_wall = insert_start.elapsed();

    let mut visited = 0usize;
    let probe_start = Instant::now();
    for pattern in patterns {
        store.for_each_candidate(pattern, &mut |_t| visited += 1);
    }
    (insert_wall, probe_start.elapsed(), visited)
}

/// Answers every probe against the snapshot, returning total wall time.
fn run_probes(handle: &hilog_engine::SnapshotHandle, probes: &[String]) -> Duration {
    let start = Instant::now();
    for probe in probes {
        let query = parse_query(probe).expect("probe parses");
        let result = handle.current().query(&query).expect("probe answers");
        assert!(!result.answers.is_empty(), "probe {probe} found no edges");
    }
    start.elapsed()
}

fn main() {
    let smoke = std::env::var("HILOG_BENCH_SMOKE").is_ok();

    // --- 1. Spill store probes at 10^5 facts, ~20% residency budget. ---
    let probe_config = if smoke {
        StorageWorkloadConfig {
            relations: 16,
            facts_per_relation: 125,
            nodes: 100,
            probes: 8,
            dirty_relations: 2,
            updates_per_relation: 10,
        }
    } else {
        StorageWorkloadConfig {
            relations: 100,
            facts_per_relation: 1_000,
            nodes: 500,
            probes: 32,
            dirty_relations: 2,
            updates_per_relation: 50,
        }
    };
    let total_facts = probe_config.relations * probe_config.facts_per_relation;
    let budget = total_facts / 5;
    let workload = storage_workload(&probe_config, 0x57E0);
    let patterns = store_patterns(&workload, if smoke { 64 } else { 512 }, 0xBEEF);
    let scale = format!("n={total_facts} shards={}", probe_config.relations);
    let mut rows = Vec::new();

    let mut mem_store = FactStore::new(&StorageConfig::InMemory);
    let (_, mem_probe, mem_visited) = run_store(&mut mem_store, &workload, &patterns);
    rows.push(row(
        &format!("store probes in-memory {scale}"),
        "probe_mean",
        mem_probe.as_secs_f64() * 1e6 / patterns.len() as f64,
        "us",
    ));

    let mut spill_store = FactStore::new(&StorageConfig::Spill {
        dir: None,
        resident_budget: budget,
    });
    let (_, spill_probe, spill_visited) = run_store(&mut spill_store, &workload, &patterns);
    assert_eq!(
        mem_visited, spill_visited,
        "spill and in-memory probes must visit the same candidates"
    );
    let stats = spill_store.storage_stats();
    assert!(
        stats.spill_writes > 0,
        "with a {budget}-fact budget over {total_facts} facts, rows must spill"
    );
    assert!(
        stats.residency_faults > 0,
        "random-order probes must fault spilled relations back in"
    );
    rows.push(row(
        &format!("store probes spill-20% {scale}"),
        "probe_mean",
        spill_probe.as_secs_f64() * 1e6 / patterns.len() as f64,
        "us",
    ));
    rows.push(row(
        &format!("store probes spill-20% {scale}"),
        "spilled_facts",
        stats.spilled_facts as f64,
        "facts",
    ));
    rows.push(row(
        &format!("store probes spill-20% {scale}"),
        "residency_faults",
        stats.residency_faults as f64,
        "faults",
    ));
    drop(spill_store);

    // --- 2. End-to-end bound query latency, in-memory vs spill session. ---
    let program = parse_program(&workload.flat_program).expect("flat program parses");
    for (tag, config) in [
        ("in-memory", StorageConfig::InMemory),
        (
            "spill-20%",
            StorageConfig::Spill {
                dir: None,
                resident_budget: budget,
            },
        ),
    ] {
        let db = HiLogDb::builder()
            .program(program.clone())
            .storage(config)
            .build();
        let (_writer, handle) = db.into_serving();
        let wall = run_probes(&handle, &workload.probes);
        rows.push(row(
            &format!("query {tag} {scale}"),
            "probe_mean",
            wall.as_secs_f64() * 1e3 / workload.probes.len() as f64,
            "ms",
        ));
    }

    // --- 3. Incremental vs full checkpoints at 10^6 facts. ---
    let ckpt_config = if smoke {
        probe_config.clone()
    } else {
        StorageWorkloadConfig::default() // 100 relations x 10^4 facts
    };
    let ckpt_total = ckpt_config.relations * ckpt_config.facts_per_relation;
    let ckpt_scale = format!("n={ckpt_total} shards={}", ckpt_config.relations);
    let ckpt_workload = storage_workload(&ckpt_config, 0xC4B7);
    let ckpt_program = parse_program(&ckpt_workload.flat_program).expect("flat program parses");
    let dir = temp_dir("checkpoint");
    let (mut writer, handle, _) =
        PersistentWriter::open(&StoreConfig::new(&dir), HiLogDb::new(ckpt_program))
            .expect("open checkpoint store");

    let start = Instant::now();
    let full = writer.checkpoint().expect("full checkpoint saves");
    let full_wall = start.elapsed();
    assert!(full.segments_written >= ckpt_config.relations);
    rows.push(row(
        &format!("checkpoint full {ckpt_scale}"),
        "save_wall",
        full_wall.as_secs_f64() * 1e3,
        "ms",
    ));
    rows.push(row(
        &format!("checkpoint full {ckpt_scale}"),
        "bytes_written",
        full.bytes_written as f64,
        "bytes",
    ));

    // Dirty a small fixed subset of shards, then checkpoint incrementally:
    // only those shards' segments should be rewritten.
    for batch in &ckpt_workload.updates {
        let ops: Vec<Op> = batch
            .iter()
            .map(|fact| Op::AssertFact(parse_term(fact).expect("update parses")))
            .collect();
        writer.apply_batch(&ops).expect("update batch applies");
    }
    let start = Instant::now();
    let dirty = writer
        .checkpoint_incremental()
        .expect("dirty incremental checkpoint saves");
    let dirty_wall = start.elapsed();
    assert_eq!(
        dirty.segments_written,
        ckpt_workload.dirty.len(),
        "only the dirtied shards' segments are rewritten"
    );
    rows.push(row(
        &format!("checkpoint incremental-dirty {ckpt_scale}"),
        "save_wall",
        dirty_wall.as_secs_f64() * 1e3,
        "ms",
    ));
    rows.push(row(
        &format!("checkpoint incremental-dirty {ckpt_scale}"),
        "segments_written",
        dirty.segments_written as f64,
        "segments",
    ));
    rows.push(row(
        &format!("checkpoint incremental-dirty {ckpt_scale}"),
        "bytes_written",
        dirty.bytes_written as f64,
        "bytes",
    ));
    rows.push(row(
        &format!("checkpoint incremental-dirty {ckpt_scale}"),
        "speedup_vs_full",
        full_wall.as_secs_f64() / dirty_wall.as_secs_f64().max(1e-9),
        "x",
    ));
    // The published state answers; recovery of the same state from the
    // manifest is covered by tests/recovery.rs.
    run_probes(
        &handle,
        &ckpt_workload.probes[..1.min(ckpt_workload.probes.len())],
    );
    drop(writer);
    std::fs::remove_dir_all(&dir).ok();

    print!("{}", to_markdown(&rows));
    if smoke {
        // CI smoke: exercise every path but keep the committed numbers.
        return;
    }
    let json = serde_json::to_string_pretty(&rows).expect("measurements serialise");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_storage.json");
    std::fs::write(path, json + "\n").expect("BENCH_storage.json written");
    println!("wrote {path}");
}
