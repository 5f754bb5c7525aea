//! Mixed read/write workloads for the concurrent serving layer.
//!
//! The serving bench and the concurrency oracle both need the same thing: a
//! base program plus a deterministic stream of reader queries and writer
//! batches.  Everything here is rendered as concrete-syntax strings, the
//! common denominator between the in-process path (`parse_query` /
//! `parse_term` at the call site) and the HTTP path (JSON bodies verbatim).
//!
//! The base program is the normal win/move game of Example 6.1 over a random
//! DAG, so reader queries exercise the magic-sets route with negation, and
//! writer batches toggle edges from a disjoint "churn pool" — retracting a
//! churn edge never removes a base edge, keeping the reachable game
//! nontrivial at every epoch.

use crate::graphs::{node_name, random_dag, Edge};
use hilog_core::Program;
use hilog_syntax::parse_program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`serving_workload`].
#[derive(Debug, Clone)]
pub struct ServingWorkloadConfig {
    /// Nodes in the base game graph.
    pub nodes: usize,
    /// Average out-degree of the base DAG.
    pub avg_out_degree: f64,
    /// Size of the churn pool: extra forward edges the writer toggles.
    pub churn_pool: usize,
    /// Facts per writer batch.
    pub batch_size: usize,
    /// Number of writer batches to generate.
    pub write_batches: usize,
    /// Number of reader queries to generate.
    pub queries: usize,
}

impl Default for ServingWorkloadConfig {
    fn default() -> Self {
        ServingWorkloadConfig {
            nodes: 60,
            avg_out_degree: 2.0,
            churn_pool: 40,
            batch_size: 4,
            write_batches: 32,
            queries: 256,
        }
    }
}

/// One writer batch: facts to assert or retract, then publish.
#[derive(Debug, Clone)]
pub struct WriteBatch {
    /// `true` asserts the facts, `false` retracts them.
    pub assert: bool,
    /// Ground facts in concrete syntax, e.g. `"move(p3, p17)"`.
    pub facts: Vec<String>,
}

/// A generated serving workload (see the module docs).
#[derive(Debug, Clone)]
pub struct ServingWorkload {
    /// The base program: the win/move rule plus the base edge facts.
    pub program: Program,
    /// Reader queries in concrete syntax, e.g. `"?- winning(p7)."`.
    pub queries: Vec<String>,
    /// Writer batches, in stream order.
    pub batches: Vec<WriteBatch>,
}

fn move_fact(edge: Edge) -> String {
    format!("move({}, {})", node_name(edge.0), node_name(edge.1))
}

/// Builds a deterministic mixed read/write workload from `config` and
/// `seed`.  Writer batches alternate assert/retract over the churn pool, so
/// replaying the stream toggles edges rather than growing the store without
/// bound; every churn edge is forward (`u < v`), keeping each published
/// program a DAG game that is modularly stratified at every epoch.
pub fn serving_workload(config: &ServingWorkloadConfig, seed: u64) -> ServingWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = config.nodes.max(2);
    let base = random_dag(nodes, config.avg_out_degree, seed);

    // Churn edges: forward edges not in the base graph (a sorted set of
    // forward edges), as many as there are.
    let pool = config.churn_pool.min(nodes * (nodes - 1) / 2 - base.len());
    let mut churn: Vec<Edge> = Vec::new();
    while churn.len() < pool {
        let u = rng.gen_range(0..nodes - 1);
        let v = rng.gen_range(u + 1..nodes);
        if !base.contains(&(u, v)) && !churn.contains(&(u, v)) {
            churn.push((u, v));
        }
    }

    let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
    for &edge in &base {
        text.push_str(&move_fact(edge));
        text.push_str(".\n");
    }
    let program = parse_program(&text).expect("generated serving program parses");

    // Queries: mostly bound winning/move lookups (the magic route), with an
    // unbound winning(X) sprinkled in (the full-model route).
    let mut queries = Vec::with_capacity(config.queries);
    for _ in 0..config.queries {
        let q = match rng.gen_range(0..8u32) {
            0 => "?- winning(X).".to_string(),
            1..=2 => {
                let u = rng.gen_range(0..nodes);
                format!("?- move({}, X).", node_name(u))
            }
            _ => {
                let u = rng.gen_range(0..nodes);
                format!("?- winning({}).", node_name(u))
            }
        };
        queries.push(q);
    }

    // Batches: each picks `batch_size` churn edges; `asserted` tracks which
    // are live so retract batches name edges that are actually present.
    let mut asserted = vec![false; churn.len()];
    let write_batches = if churn.is_empty() {
        0
    } else {
        config.write_batches
    };
    let mut batches = Vec::with_capacity(write_batches);
    for round in 0..write_batches {
        let assert = round % 2 == 0;
        let mut facts = Vec::with_capacity(config.batch_size);
        let mut tries = 0;
        while facts.len() < config.batch_size && tries < churn.len() * 4 {
            tries += 1;
            let i = rng.gen_range(0..churn.len());
            if asserted[i] != assert {
                asserted[i] = assert;
                facts.push(move_fact(churn[i]));
            }
        }
        if facts.is_empty() {
            // Pool exhausted in this direction; flip one edge anyway so the
            // batch still publishes a change.
            let i = rng.gen_range(0..churn.len());
            asserted[i] = assert;
            facts.push(move_fact(churn[i]));
        }
        batches.push(WriteBatch { assert, facts });
    }

    ServingWorkload {
        program,
        queries,
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_core::is_range_restricted_normal;
    use hilog_syntax::{parse_query, parse_term};

    #[test]
    fn workload_is_deterministic() {
        let config = ServingWorkloadConfig::default();
        let a = serving_workload(&config, 7);
        let b = serving_workload(&config, 7);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.program.len(), b.program.len());
        assert_eq!(a.batches.len(), b.batches.len());
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x.assert, y.assert);
            assert_eq!(x.facts, y.facts);
        }
        let c = serving_workload(&config, 8);
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn workload_pieces_parse() {
        let w = serving_workload(&ServingWorkloadConfig::default(), 1);
        assert!(is_range_restricted_normal(&w.program));
        for q in &w.queries {
            parse_query(q).expect("workload query parses");
        }
        for batch in &w.batches {
            assert!(!batch.facts.is_empty());
            for f in &batch.facts {
                let t = parse_term(f).expect("workload fact parses");
                assert!(t.is_ground());
            }
        }
    }

    #[test]
    fn a_churn_pool_larger_than_the_free_edges_is_capped() {
        // 8 nodes have 28 forward pairs, fewer than the default pool of 40.
        let config = ServingWorkloadConfig {
            nodes: 8,
            queries: 4,
            ..ServingWorkloadConfig::default()
        };
        let w = serving_workload(&config, 17);
        let base: Vec<String> = w.program.iter().map(|r| r.head.to_string()).collect();
        let index = |t: &hilog_core::Term| t.to_string()[1..].parse::<usize>().unwrap();
        let mut churn: Vec<String> = Vec::new();
        for batch in &w.batches {
            for f in &batch.facts {
                let t = parse_term(f).unwrap();
                assert!(
                    index(&t.args()[0]) < index(&t.args()[1]),
                    "{f} is not forward"
                );
                assert!(!base.contains(f), "{f} is a base edge");
                if !churn.contains(f) {
                    churn.push(f.clone());
                }
            }
        }
        assert_eq!(w.batches.len(), config.write_batches);
        assert!(!churn.is_empty() && churn.len() <= 28 - (base.len() - 1));
        // Two nodes have one forward pair, the base edge: no churn, no writes.
        let config = ServingWorkloadConfig { nodes: 2, ..config };
        assert!(serving_workload(&config, 17).batches.is_empty());
    }

    #[test]
    fn retract_batches_only_name_live_edges() {
        let w = serving_workload(&ServingWorkloadConfig::default(), 3);
        let mut live: Vec<String> = Vec::new();
        for batch in &w.batches {
            for f in &batch.facts {
                if batch.assert {
                    assert!(!live.contains(f), "assert of already-live {f}");
                    live.push(f.clone());
                } else {
                    let i = live.iter().position(|x| x == f);
                    assert!(i.is_some(), "retract of non-live {f}");
                    live.remove(i.unwrap());
                }
            }
        }
    }
}
