//! E5: the Figure 1 modular-stratification procedure on parameterised games,
//! scaling the move graphs and the number of games.
// Every iteration builds a fresh `HiLogDb`, so these stay cold one-shot
// measurements; warm reuse of a session is measured in bench_session_reuse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hilog_engine::session::HiLogDb;
use hilog_workloads::{hilog_game_program, random_dag};
use std::time::Duration;

fn bench_modular(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5_figure1");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for n in [32usize, 128, 512] {
        let program = hilog_game_program(&[("g1", random_dag(n, 2.0, 5))]);
        group.bench_with_input(BenchmarkId::new("one_game", n), &program, |b, p| {
            b.iter(|| {
                let mut db = HiLogDb::new(p.clone());
                let out = db.check_modular().unwrap();
                assert!(out.modularly_stratified);
                out.rounds.len()
            })
        });
    }
    for games in [1usize, 2, 4, 8] {
        let specs: Vec<(String, Vec<(usize, usize)>)> = (0..games)
            .map(|i| (format!("g{i}"), random_dag(48, 2.0, i as u64)))
            .collect();
        let borrowed: Vec<(&str, Vec<(usize, usize)>)> =
            specs.iter().map(|(s, e)| (s.as_str(), e.clone())).collect();
        let program = hilog_game_program(&borrowed);
        group.bench_with_input(BenchmarkId::new("many_games", games), &program, |b, p| {
            b.iter(|| {
                let mut db = HiLogDb::new(p.clone());
                let out = db.check_modular().unwrap();
                assert!(out.modularly_stratified);
                out.rounds.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modular);
criterion_main!(benches);
