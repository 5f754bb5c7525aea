//! E3/E5 substrate: the well-founded model of win/move games (Examples 6.1
//! and 6.3) as the move graph grows, for both the normal and the HiLog
//! (parameterised) formulation.
// Every iteration builds a fresh `HiLogDb`, so these stay cold one-shot
// measurements; warm reuse of a session is measured in bench_session_reuse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hilog_engine::session::HiLogDb;
use hilog_workloads::{hilog_game_program, normal_game_program, random_dag};
use std::time::Duration;

fn bench_wfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("E3_wfs_win_move");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for n in [32usize, 128, 512] {
        let normal = normal_game_program(&random_dag(n, 2.0, 11));
        group.bench_with_input(BenchmarkId::new("normal", n), &normal, |b, p| {
            b.iter(|| HiLogDb::new(p.clone()).model().unwrap().base().len())
        });
        let hilog = hilog_game_program(&[("g", random_dag(n, 2.0, 11))]);
        group.bench_with_input(BenchmarkId::new("hilog", n), &hilog, |b, p| {
            b.iter(|| HiLogDb::new(p.clone()).model().unwrap().base().len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wfs);
criterion_main!(benches);
