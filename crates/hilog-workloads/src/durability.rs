//! EDB-heavy ingest streams for the durable storage layer.
//!
//! The durability bench and the crash/recovery CI job both need a workload
//! whose cost is dominated by *facts moving through the write path* — WAL
//! appends, incremental application, checkpoint encode/decode — rather than
//! by rule evaluation.  [`durability_workload`] therefore generates a large
//! random edge relation delivered as assert batches over a tiny stratified
//! rule set, plus cheap bound probe queries (the magic-sets route) whose
//! answers depend on the ingested facts: answering one after a restart
//! proves the facts actually came back.

use crate::graphs::node_name;
use hilog_core::Program;
use hilog_syntax::parse_program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`durability_workload`].
#[derive(Debug, Clone)]
pub struct DurabilityWorkloadConfig {
    /// Total `edge` facts delivered through the batches.
    pub facts: usize,
    /// Nodes the edges are drawn over.
    pub nodes: usize,
    /// Facts per assert batch (one batch = one WAL record = one epoch).
    pub batch_size: usize,
    /// Bound probe queries to generate.
    pub probes: usize,
}

impl Default for DurabilityWorkloadConfig {
    fn default() -> Self {
        DurabilityWorkloadConfig {
            facts: 100_000,
            nodes: 20_000,
            batch_size: 500,
            probes: 32,
        }
    }
}

/// A generated ingest stream (see the module docs).
#[derive(Debug, Clone)]
pub struct DurabilityWorkload {
    /// The rule-only base program the store is seeded with.
    pub rules: Program,
    /// Assert batches of ground facts in concrete syntax, in stream order.
    pub batches: Vec<Vec<String>>,
    /// Bound queries (e.g. `"?- linked(p17, X)."`) answerable only with the
    /// ingested facts; each names a node that has at least one edge.
    pub probes: Vec<String>,
    /// The same state as one flat program text (rules plus every fact), for
    /// measuring cold fresh evaluation against recovery.
    pub flat_program: String,
}

/// Builds a deterministic EDB-heavy ingest stream from `config` and `seed`.
/// Edges are distinct (re-asserting an existing fact is a no-op that would
/// dilute write-path measurements) and the rules are definite and linear in
/// the probed node's degree, so probes stay cheap at any scale.
pub fn durability_workload(config: &DurabilityWorkloadConfig, seed: u64) -> DurabilityWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = config.nodes.max(2);
    let rules_text = "linked(X, Y) :- edge(X, Y).\nlinked(X, Y) :- edge(Y, X).\n";
    let rules = parse_program(rules_text).expect("durability rules parse");

    let mut seen = std::collections::HashSet::with_capacity(config.facts);
    let mut facts = Vec::with_capacity(config.facts);
    while facts.len() < config.facts {
        let u = rng.gen_range(0..nodes);
        let v = rng.gen_range(0..nodes);
        if u != v && seen.insert((u, v)) {
            facts.push((u, v));
        }
    }

    let batch_size = config.batch_size.max(1);
    let batches: Vec<Vec<String>> = facts
        .chunks(batch_size)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&(u, v)| format!("edge({}, {})", node_name(u), node_name(v)))
                .collect()
        })
        .collect();

    let mut probes = Vec::with_capacity(config.probes);
    for _ in 0..config.probes {
        let &(u, _) = &facts[rng.gen_range(0..facts.len())];
        probes.push(format!("?- linked({}, X).", node_name(u)));
    }

    let mut flat_program = String::from(rules_text);
    for &(u, v) in &facts {
        flat_program.push_str(&format!("edge({}, {}).\n", node_name(u), node_name(v)));
    }

    DurabilityWorkload {
        rules,
        batches,
        probes,
        flat_program,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_syntax::{parse_query, parse_term};

    fn small() -> DurabilityWorkloadConfig {
        DurabilityWorkloadConfig {
            facts: 200,
            nodes: 50,
            batch_size: 16,
            probes: 8,
        }
    }

    #[test]
    fn workload_is_deterministic_and_parses() {
        let a = durability_workload(&small(), 11);
        let b = durability_workload(&small(), 11);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.probes, b.probes);
        let c = durability_workload(&small(), 12);
        assert_ne!(a.batches, c.batches);

        for batch in &a.batches {
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
    fn facts_are_distinct_and_counted() {
        let w = durability_workload(&small(), 3);
        let all: Vec<&String> = w.batches.iter().flatten().collect();
        assert_eq!(all.len(), 200);
        let unique: std::collections::HashSet<&&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "no duplicate facts in the stream");
    }

    #[test]
    fn probes_answer_against_recovered_state() {
        let w = durability_workload(&small(), 5);
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
