//! Random part hierarchies for the parts-explosion workload (Section 6).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated part hierarchy: an acyclic set of `(whole, part, quantity)`
/// triples over parts named `part0 ... part{n-1}`, where every edge goes from
/// a lower-numbered part to a higher-numbered one (so the hierarchy is
/// acyclic and the aggregation is modularly stratified).
#[derive(Debug, Clone)]
pub struct PartHierarchy {
    /// The `(whole, part, quantity)` triples.
    pub triples: Vec<(String, String, i64)>,
    /// Number of part names.
    pub parts: usize,
}

impl PartHierarchy {
    /// Renders the hierarchy as the `(relation, whole, part, qty)` tuples
    /// expected by `hilog_engine::parts_explosion_program`.
    pub fn as_facts<'a>(&'a self, relation: &'a str) -> Vec<(&'a str, &'a str, &'a str, i64)> {
        self.triples
            .iter()
            .map(|(w, p, q)| (relation, w.as_str(), p.as_str(), *q))
            .collect()
    }

    /// The root part name (`part0`).
    pub fn root(&self) -> &str {
        "part0"
    }
}

/// Generates a random acyclic part hierarchy with `n` parts.  Every part
/// other than the root has at least one parent among the lower-numbered
/// parts; `extra_edges` additional random edges create shared sub-assemblies
/// (diamonds), which exercise the grouping in the `contains` aggregation.
pub fn random_part_hierarchy(n: usize, extra_edges: usize, seed: u64) -> PartHierarchy {
    assert!(n >= 2, "a hierarchy needs at least a root and one part");
    let mut rng = StdRng::seed_from_u64(seed);
    let name = |i: usize| format!("part{i}");
    let mut triples = Vec::new();
    for child in 1..n {
        let parent = rng.gen_range(0..child);
        let qty = rng.gen_range(1..=4);
        triples.push((name(parent), name(child), qty));
    }
    for _ in 0..extra_edges {
        let parent = rng.gen_range(0..n - 1);
        let child = rng.gen_range(parent + 1..n);
        let qty = rng.gen_range(1..=4);
        let triple = (name(parent), name(child), qty);
        if !triples
            .iter()
            .any(|(w, p, _)| *w == triple.0 && *p == triple.1)
        {
            triples.push(triple);
        }
    }
    PartHierarchy { triples, parts: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_is_acyclic_and_connected() {
        let h = random_part_hierarchy(32, 16, 3);
        for (whole, part, qty) in &h.triples {
            let w: usize = whole.trim_start_matches("part").parse().unwrap();
            let p: usize = part.trim_start_matches("part").parse().unwrap();
            assert!(w < p, "edge {whole} -> {part} breaks the topological order");
            assert!(*qty >= 1);
        }
        // Every non-root part has a parent.
        for child in 1..32 {
            let name = format!("part{child}");
            assert!(h.triples.iter().any(|(_, p, _)| *p == name));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            random_part_hierarchy(16, 4, 9).triples,
            random_part_hierarchy(16, 4, 9).triples
        );
    }

    #[test]
    fn facts_projection() {
        let h = random_part_hierarchy(4, 0, 1);
        let facts = h.as_facts("bike_parts");
        assert_eq!(facts.len(), h.triples.len());
        assert!(facts.iter().all(|(rel, _, _, _)| *rel == "bike_parts"));
        assert_eq!(h.root(), "part0");
    }

    #[test]
    #[should_panic]
    fn tiny_hierarchies_are_rejected() {
        let _ = random_part_hierarchy(1, 0, 0);
    }
}
