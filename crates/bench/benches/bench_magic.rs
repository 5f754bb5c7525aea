//! E7: query-directed (magic-set style) evaluation of a point query versus
//! full bottom-up well-founded evaluation, as the fraction of the database
//! irrelevant to the query grows (Section 6.1).
// Every iteration builds a fresh `HiLogDb`, so these stay cold one-shot
// measurements; warm reuse of a session is measured in bench_session_reuse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hilog_engine::horn::EvalOptions;
use hilog_engine::magic_eval::QueryEvaluator;
use hilog_engine::session::HiLogDb;
use hilog_syntax::parse_term;
use hilog_workloads::{chain, hilog_game_program, node_name, random_dag};
use std::time::Duration;

fn bench_magic(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7_magic_vs_bottom_up");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for bulk in [64usize, 256, 1024] {
        let program =
            hilog_game_program(&[("target", chain(12)), ("bulk", random_dag(bulk, 2.5, 9))]);
        let atom = parse_term(&format!("winning(target)({})", node_name(0))).unwrap();
        group.bench_with_input(BenchmarkId::new("bottom_up", bulk), &program, |b, p| {
            b.iter(|| HiLogDb::new(p.clone()).model().unwrap().is_true(&atom))
        });
        group.bench_with_input(
            BenchmarkId::new("query_directed", bulk),
            &program,
            |b, p| {
                b.iter(|| {
                    let mut ev = QueryEvaluator::new(p, EvalOptions::default());
                    ev.holds(&atom).unwrap()
                })
            },
        );
        // The unselective case: asking for every position of the bulk game,
        // where the two approaches must converge.
        let all = parse_term(&format!("winning(bulk)({})", node_name(0))).unwrap();
        group.bench_with_input(
            BenchmarkId::new("query_directed_unselective", bulk),
            &program,
            |b, p| {
                b.iter(|| {
                    let mut ev = QueryEvaluator::new(p, EvalOptions::default());
                    ev.holds(&all).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_magic);
criterion_main!(benches);
