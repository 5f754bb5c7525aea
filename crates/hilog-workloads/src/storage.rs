//! Sharded multi-relation streams for the pluggable storage layer.
//!
//! The spill backend and incremental checkpoints are both *per-relation*
//! mechanisms: the spill store pages whole relations in and out of
//! residency, and an incremental checkpoint rewrites only the relations
//! dirtied since the last manifest.  A single wide `edge` relation (the
//! [`durability`](crate::durability) workload) cannot exercise either, so
//! [`storage_workload`] shards its facts across many HiLog relations — one
//! plain relation symbol `s<i>` per shard, tied together by the generic
//! guarded rules of Example 5.2:
//!
//! ```text
//! linked(G)(X, Y) :- shard(G), G(X, Y).
//! linked(G)(X, Y) :- shard(G), G(Y, X).
//! shard(s0). shard(s1). ...
//! ```
//!
//! Bound probes (`?- linked(s17)(p3, X).`) touch exactly one shard each, so
//! under the spill backend a probe faults in at most one cold relation; the
//! update stream touches a small fixed subset of shards, so an incremental
//! checkpoint after it should rewrite only that subset.

use crate::graphs::node_name;
use hilog_core::Program;
use hilog_syntax::parse_program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`storage_workload`].
#[derive(Debug, Clone)]
pub struct StorageWorkloadConfig {
    /// Shard relations the facts are spread over.
    pub relations: usize,
    /// Distinct facts per shard relation.
    pub facts_per_relation: usize,
    /// Nodes each shard's edges are drawn over.
    pub nodes: usize,
    /// Bound probe queries to generate (spread across shards).
    pub probes: usize,
    /// Shards the post-ingest update stream touches.
    pub dirty_relations: usize,
    /// New facts per dirtied shard in the update stream.
    pub updates_per_relation: usize,
}

impl Default for StorageWorkloadConfig {
    fn default() -> Self {
        StorageWorkloadConfig {
            relations: 100,
            facts_per_relation: 10_000,
            nodes: 2_000,
            probes: 32,
            dirty_relations: 2,
            updates_per_relation: 50,
        }
    }
}

/// A generated sharded stream (see the module docs).
#[derive(Debug, Clone)]
pub struct StorageWorkload {
    /// The base program: generic `linked` rules plus one `shard(s<i>)` fact
    /// per relation.
    pub rules: Program,
    /// Ingest batches of ground facts in concrete syntax; each batch holds
    /// facts of a single shard, shards delivered in order.
    pub batches: Vec<Vec<String>>,
    /// Post-ingest update batches; together they touch exactly
    /// `dirty_relations` shards.
    pub updates: Vec<Vec<String>>,
    /// The shard relation names the update stream dirties.
    pub dirty: Vec<String>,
    /// Bound queries (e.g. `"?- linked(s17)(p3, X)."`), each answerable from
    /// a single shard's ingested facts.
    pub probes: Vec<String>,
    /// Rules plus every ingested fact (updates excluded) as one flat program
    /// text, for cold-evaluation baselines.
    pub flat_program: String,
}

/// Shard relation name, e.g. `s17`.
fn shard_name(index: usize) -> String {
    format!("s{index}")
}

/// Builds a deterministic sharded stream from `config` and `seed`.  Facts
/// are distinct within each shard (re-asserting an existing fact is a no-op
/// that would dilute write-path measurements) and the update stream's facts
/// are distinct from the ingested ones.
pub fn storage_workload(config: &StorageWorkloadConfig, seed: u64) -> StorageWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = config.nodes.max(2);
    let relations = config.relations.max(1);

    let mut rules_text = String::from(
        "linked(G)(X, Y) :- shard(G), G(X, Y).\n\
         linked(G)(X, Y) :- shard(G), G(Y, X).\n",
    );
    for shard in 0..relations {
        rules_text.push_str(&format!("shard({}).\n", shard_name(shard)));
    }
    let rules = parse_program(&rules_text).expect("storage workload rules parse");

    // Per-shard distinct edges; `seen` is reused per shard because shards
    // are independent relations.
    let mut shard_edges: Vec<Vec<(usize, usize)>> = Vec::with_capacity(relations);
    for _ in 0..relations {
        let mut seen = std::collections::HashSet::with_capacity(config.facts_per_relation);
        let mut edges = Vec::with_capacity(config.facts_per_relation);
        while edges.len() < config.facts_per_relation {
            let u = rng.gen_range(0..nodes);
            let v = rng.gen_range(0..nodes);
            if u != v && seen.insert((u, v)) {
                edges.push((u, v));
            }
        }
        shard_edges.push(edges);
    }

    let batches: Vec<Vec<String>> = shard_edges
        .iter()
        .enumerate()
        .map(|(shard, edges)| {
            let name = shard_name(shard);
            edges
                .iter()
                .map(|&(u, v)| format!("{}({}, {})", name, node_name(u), node_name(v)))
                .collect()
        })
        .collect();

    // Update stream: fresh edges for the first `dirty_relations` shards.
    // Fresh means "not among that shard's ingested edges", checked against
    // the per-shard set rebuilt from `shard_edges`.
    let dirty_count = config.dirty_relations.min(relations);
    let mut updates = Vec::with_capacity(dirty_count);
    let mut dirty = Vec::with_capacity(dirty_count);
    for (shard, edges) in shard_edges.iter().enumerate().take(dirty_count) {
        let name = shard_name(shard);
        let mut seen: std::collections::HashSet<(usize, usize)> = edges.iter().copied().collect();
        let mut batch = Vec::with_capacity(config.updates_per_relation);
        while batch.len() < config.updates_per_relation {
            let u = rng.gen_range(0..nodes);
            let v = rng.gen_range(0..nodes);
            if u != v && seen.insert((u, v)) {
                batch.push(format!("{}({}, {})", name, node_name(u), node_name(v)));
            }
        }
        updates.push(batch);
        dirty.push(name);
    }

    let mut probes = Vec::with_capacity(config.probes);
    for _ in 0..config.probes {
        let shard = rng.gen_range(0..relations);
        let edges = &shard_edges[shard];
        let &(u, _) = &edges[rng.gen_range(0..edges.len())];
        probes.push(format!(
            "?- linked({})({}, X).",
            shard_name(shard),
            node_name(u)
        ));
    }

    let mut flat_program = rules_text.clone();
    for batch in &batches {
        for fact in batch {
            flat_program.push_str(fact);
            flat_program.push_str(".\n");
        }
    }

    StorageWorkload {
        rules,
        batches,
        updates,
        dirty,
        probes,
        flat_program,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_syntax::{parse_query, parse_term};

    fn small() -> StorageWorkloadConfig {
        StorageWorkloadConfig {
            relations: 8,
            facts_per_relation: 40,
            nodes: 30,
            probes: 6,
            dirty_relations: 2,
            updates_per_relation: 5,
        }
    }

    #[test]
    fn workload_is_deterministic_and_parses() {
        let a = storage_workload(&small(), 21);
        let b = storage_workload(&small(), 21);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.probes, b.probes);
        let c = storage_workload(&small(), 22);
        assert_ne!(c.batches, a.batches);

        for batch in a.batches.iter().chain(&a.updates) {
            for fact in batch {
                let t = parse_term(fact).expect("fact parses");
                assert!(t.is_ground());
            }
        }
        for probe in &a.probes {
            parse_query(probe).expect("probe parses");
        }
        parse_program(&a.flat_program).expect("flat program parses");
    }

    #[test]
    fn shards_are_disjoint_relations_and_updates_are_fresh() {
        let w = storage_workload(&small(), 7);
        assert_eq!(w.batches.len(), 8);
        for (shard, batch) in w.batches.iter().enumerate() {
            assert_eq!(batch.len(), 40);
            let prefix = format!("{}(", shard_name(shard));
            assert!(batch.iter().all(|fact| fact.starts_with(&prefix)));
        }
        assert_eq!(w.updates.len(), 2);
        assert_eq!(w.dirty, vec!["s0".to_string(), "s1".to_string()]);
        for (batch, ingest) in w.updates.iter().zip(&w.batches) {
            for fact in batch {
                assert!(!ingest.contains(fact), "update {fact} is not fresh");
            }
        }
    }

    #[test]
    fn probes_answer_against_ingested_state() {
        let w = storage_workload(&small(), 5);
        let program = parse_program(&w.flat_program).unwrap();
        let db = hilog_engine::HiLogDb::new(program);
        let (_, handle) = db.into_serving();
        for probe in &w.probes {
            let result = handle
                .current()
                .query(&parse_query(probe).unwrap())
                .unwrap();
            assert!(
                !result.answers.is_empty(),
                "probe {probe} should have answers"
            );
        }
    }
}
