//! Thread scaling of the SCC-wave well-founded fixpoint, swept over sharded
//! win/move workloads (random-DAG games and deep chain games) and evaluation
//! thread counts.
//!
//! Two metrics per (shards, threads) cell:
//!
//! * **wfs_fixpoint** — the fixpoint itself on a pre-computed grounding
//!   (`well_founded_eval`), isolating the evaluator from the grounder;
//! * **cold_model** — a cold `HiLogDb::model()` end to end, grounding
//!   included (Amdahl's share of the win in a real cold query).
//!
//! There is one evaluator: `threads = 1` runs the same wave schedule inline
//! on the calling thread (no pool, no counters), so the reported
//! `fixpoint_speedup_vs_serial` is the `threads = 1` time over the
//! `threads = N` time of **one algorithm** — thread scaling, nothing else;
//! what the schedule itself is worth shows in the `threads = 1` rows.  With
//! fewer hardware threads than `N` — the recorded `hardware_threads` row
//! says how many this run had — expect the ratio at or below 1: the pool's
//! hand-offs cost and buy nothing.  Every cell's model is asserted
//! identical to the `threads = 1` model before it is timed.
//!
//! Run with `cargo bench -p hilog-bench --bench bench_parallel`; besides
//! the markdown table on stdout it records the measurements in
//! `BENCH_parallel.json` at the repository root.  `HILOG_BENCH_SMOKE=1`
//! runs a reduced sweep, asserts that pooled tasks actually executed, and
//! does not overwrite the committed numbers.

use hilog_bench::{median_time, to_markdown, Measurement};
use hilog_engine::horn::EvalOptions;
use hilog_engine::session::HiLogDb;
use hilog_engine::{parallel_counters, relevant_ground, well_founded_eval};
use hilog_workloads::{sharded_chain_game_program, sharded_game_program};
use std::time::Duration;

const REPEATS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let smoke = std::env::var("HILOG_BENCH_SMOKE").is_ok();
    // Two workload families: random-DAG games (skip edges keep the game's
    // remoteness shallow: few, wide waves — the shape a pool can spread)
    // and chain games (remoteness grows with the chain: thousands of
    // one-component waves — the shape where every wave runs inline and the
    // pool can only add overhead).
    let (cells, thread_counts): (Vec<(String, _)>, Vec<usize>) = if smoke {
        (
            vec![
                (
                    "win/move shards=4 per_shard=8".into(),
                    sharded_game_program(4, 8, 7),
                ),
                (
                    "win/move chain shards=2 len=40".into(),
                    sharded_chain_game_program(2, 40),
                ),
            ],
            vec![1, 4],
        )
    } else {
        (
            vec![
                (
                    "win/move shards=1 per_shard=15".into(),
                    sharded_game_program(1, 15, 7),
                ),
                (
                    "win/move shards=4 per_shard=15".into(),
                    sharded_game_program(4, 15, 7),
                ),
                (
                    "win/move shards=10 per_shard=15".into(),
                    sharded_game_program(10, 15, 7),
                ),
                (
                    "win/move shards=16 per_shard=15".into(),
                    sharded_game_program(16, 15, 7),
                ),
                (
                    "win/move shards=10 per_shard=60".into(),
                    sharded_game_program(10, 60, 7),
                ),
                (
                    "win/move chain shards=10 len=320".into(),
                    sharded_chain_game_program(10, 320),
                ),
                (
                    "win/move chain shards=10 len=640".into(),
                    sharded_chain_game_program(10, 640),
                ),
                (
                    "win/move chain shards=16 len=640".into(),
                    sharded_chain_game_program(16, 640),
                ),
            ],
            vec![1, 2, 4, 8],
        )
    };

    let mut rows = Vec::new();
    rows.push(Measurement::new(
        "PARALLEL",
        "environment",
        "hardware_threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as f64,
        "threads",
    ));
    rows.push(Measurement::new(
        "PARALLEL",
        "environment: one SCC-wave schedule at every thread count (threads=1 runs it \
         inline), so fixpoint_speedup_vs_serial is thread scaling of one algorithm",
        "evaluation_orders",
        1.0,
        "algorithms",
    ));

    for (name, program) in &cells {
        let ground = relevant_ground(program, EvalOptions::default()).expect("workload grounds");
        let inline_model = well_founded_eval(&ground, 1);
        let mut inline_fixpoint: Option<Duration> = None;
        for &threads in &thread_counts {
            // Correctness gate before timing: every thread count must
            // reproduce the inline model exactly.
            assert_eq!(
                well_founded_eval(&ground, threads),
                inline_model,
                "threads={threads} diverged from the threads=1 model"
            );
            let (_, _, tasks_before) = parallel_counters();
            let fixpoint = median_time(REPEATS, || {
                std::hint::black_box(well_founded_eval(&ground, threads));
            });
            let (_, _, tasks_after) = parallel_counters();
            // The counters move exactly when a pool with workers ran the
            // waves; nothing else in this process pools work.
            if threads > 1 {
                assert!(
                    tasks_after > tasks_before,
                    "threads={threads} never dispatched a pooled task"
                );
            } else {
                assert_eq!(
                    tasks_after, tasks_before,
                    "threads=1 reported inline waves as pooled tasks"
                );
            }
            let cold = median_time(REPEATS, || {
                let mut db = HiLogDb::builder()
                    .program(program.clone())
                    .options(EvalOptions::with_eval_threads(threads))
                    .build();
                db.model().expect("workload model builds");
            });

            let workload = format!("{name} threads={threads}");
            rows.push(Measurement::new(
                "PARALLEL",
                workload.clone(),
                "wfs_fixpoint",
                ms(fixpoint),
                "ms",
            ));
            rows.push(Measurement::new(
                "PARALLEL",
                workload.clone(),
                "cold_model",
                ms(cold),
                "ms",
            ));
            match inline_fixpoint {
                None => inline_fixpoint = Some(fixpoint),
                Some(inline) => rows.push(Measurement::new(
                    "PARALLEL",
                    workload,
                    "fixpoint_speedup_vs_serial",
                    inline.as_secs_f64() / fixpoint.as_secs_f64().max(f64::EPSILON),
                    "x",
                )),
            }
        }
    }

    print!("{}", to_markdown(&rows));
    if smoke {
        // CI smoke: exercise the sweep but keep the committed numbers.
        return;
    }
    let json = serde_json::to_string_pretty(&rows).expect("measurements serialise");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, json + "\n").expect("BENCH_parallel.json written");
    println!("wrote {path}");
}
