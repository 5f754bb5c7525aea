//! Program analysis: predicate names, dependency graphs, strongly connected
//! components, stratification and local stratification.
//!
//! Section 6 of the paper defines stratification (Definition 6.1) and local
//! stratification (Definition 6.2) for normal programs, and uses strongly
//! connected components of the predicate dependency graph both for modular
//! stratification of normal programs (Definition 6.4) and — restricted to
//! *ground* predicate names — inside the Figure 1 procedure for HiLog
//! programs.

use crate::hash::TermMap;
use crate::literal::Literal;
use crate::program::Program;
use crate::rule::Rule;
use crate::term::Term;
use std::collections::{BTreeMap, BTreeSet};

/// The predicate *name* of an atom: `t` for `t(t1, ..., tn)`, the atom itself
/// for a bare symbol / variable (a propositional or variable atom).
pub fn predicate_name(atom: &Term) -> &Term {
    atom.name()
}

/// The predicate name if it is ground, `None` otherwise.
pub fn ground_predicate_name(atom: &Term) -> Option<Term> {
    let name = atom.name();
    if name.is_ground() {
        Some(name.clone())
    } else {
        None
    }
}

/// Polarity of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeSign {
    /// The body literal is positive.
    Positive,
    /// The body literal is negative (or an aggregate, which the paper treats
    /// like negation for stratification purposes).
    Negative,
}

/// A dependency graph over ground predicate names (or over ground atoms, for
/// local stratification).  Edges run from the head's node to each body
/// literal's node.
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    nodes: Vec<Term>,
    index: TermMap<Term, usize>,
    /// Adjacency: `edges[u]` is the list of `(v, sign)` with an edge `u -> v`.
    edges: Vec<Vec<(usize, EdgeSign)>>,
}

impl DependencyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DependencyGraph::default()
    }

    /// Adds (or finds) a node.
    pub fn add_node(&mut self, term: Term) -> usize {
        if let Some(&i) = self.index.get(&term) {
            return i;
        }
        let i = self.nodes.len();
        self.index.insert(term.clone(), i);
        self.nodes.push(term);
        self.edges.push(Vec::new());
        i
    }

    /// Adds an edge `from -> to` with the given sign.
    pub fn add_edge(&mut self, from: Term, to: Term, sign: EdgeSign) {
        let u = self.add_node(from);
        let v = self.add_node(to);
        if !self.edges[u].contains(&(v, sign)) {
            self.edges[u].push((v, sign));
        }
    }

    /// The nodes of the graph.
    pub fn nodes(&self) -> &[Term] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node index.
    pub fn node_index(&self, term: &Term) -> Option<usize> {
        self.index.get(term).copied()
    }

    /// Outgoing edges of a node.
    pub fn successors(&self, node: usize) -> &[(usize, EdgeSign)] {
        &self.edges[node]
    }

    /// Builds the *predicate* dependency graph of a program: one node per
    /// ground predicate name, one edge per (head, body literal) pair where
    /// both names are ground.  Non-ground predicate names are skipped (they
    /// are handled separately by the Figure 1 procedure).
    pub fn predicate_graph(program: &Program) -> DependencyGraph {
        let mut g = DependencyGraph::new();
        for rule in program.iter() {
            let head_name = match ground_predicate_name(&rule.head) {
                Some(n) => n,
                None => continue,
            };
            g.add_node(head_name.clone());
            for lit in &rule.body {
                let (atom, sign) = match lit {
                    Literal::Pos(a) => (a, EdgeSign::Positive),
                    Literal::Neg(a) => (a, EdgeSign::Negative),
                    Literal::Aggregate(agg) => (&agg.pattern, EdgeSign::Negative),
                    Literal::Builtin(_) => continue,
                };
                if let Some(body_name) = ground_predicate_name(atom) {
                    g.add_edge(head_name.clone(), body_name, sign);
                }
            }
        }
        g
    }

    /// Builds the *atom* dependency graph of a **ground** program: one node
    /// per ground atom, one edge per (head, body atom) pair.  Used for local
    /// stratification (Definition 6.2).
    pub fn atom_graph(rules: &[Rule]) -> DependencyGraph {
        let mut g = DependencyGraph::new();
        for rule in rules {
            g.add_node(rule.head.clone());
            for lit in &rule.body {
                let (atom, sign) = match lit {
                    Literal::Pos(a) => (a, EdgeSign::Positive),
                    Literal::Neg(a) => (a, EdgeSign::Negative),
                    Literal::Aggregate(agg) => (&agg.pattern, EdgeSign::Negative),
                    Literal::Builtin(_) => continue,
                };
                g.add_edge(rule.head.clone(), atom.clone(), sign);
            }
        }
        g
    }

    /// Strongly connected components, computed by
    /// [`strongly_connected_components`] over the node indices.  Components
    /// are returned in reverse topological order of the condensation: if
    /// component `A` has an edge into component `B`, then `B` appears before
    /// `A` in the result.  (Lower components — the ones other components
    /// depend on — come first.)
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        strongly_connected_components(self.nodes.len(), |v| self.edges[v].iter().map(|&(w, _)| w))
    }

    /// The index of each node's component in `sccs` (as [`Self::sccs`]
    /// returns them).
    fn component_of(&self, sccs: &[Vec<usize>]) -> Vec<usize> {
        let mut component_of = vec![usize::MAX; self.nodes.len()];
        for (ci, comp) in sccs.iter().enumerate() {
            for &v in comp {
                component_of[v] = ci;
            }
        }
        component_of
    }

    /// The strongly connected components as sets of node terms, in reverse
    /// topological (lower-components-first) order.
    pub fn scc_terms(&self) -> Vec<Vec<Term>> {
        self.sccs()
            .into_iter()
            .map(|c| c.into_iter().map(|i| self.nodes[i].clone()).collect())
            .collect()
    }

    /// Returns the nodes whose strongly connected components have no outgoing
    /// edges to *other* components — the "lowest" components used by step 3 of
    /// the Figure 1 procedure ("let T be the set of nodes in G from components
    /// with no outgoing edge").
    pub fn sink_component_nodes(&self) -> Vec<Term> {
        let sccs = self.sccs();
        let component_of = self.component_of(&sccs);
        let mut has_outgoing = vec![false; sccs.len()];
        for v in 0..self.nodes.len() {
            for &(w, _) in &self.edges[v] {
                if component_of[v] != component_of[w] {
                    has_outgoing[component_of[v]] = true;
                }
            }
        }
        let mut out = Vec::new();
        for (ci, comp) in sccs.iter().enumerate() {
            if !has_outgoing[ci] {
                for &v in comp {
                    out.push(self.nodes[v].clone());
                }
            }
        }
        out
    }

    /// Returns `true` if no strongly connected component contains a negative
    /// edge.  For the predicate graph this is exactly stratifiability
    /// (Definition 6.1); for the atom graph of a finite ground program it is
    /// local stratifiability (Definition 6.2).
    pub fn no_negative_cycle(&self) -> bool {
        let sccs = self.sccs();
        let component_of = self.component_of(&sccs);
        for v in 0..self.nodes.len() {
            for &(w, sign) in &self.edges[v] {
                if sign == EdgeSign::Negative && component_of[v] == component_of[w] {
                    return false;
                }
            }
        }
        true
    }

    /// Assigns stratification levels to nodes if possible: every node gets a
    /// level such that along a positive edge the level does not increase and
    /// along a negative edge it strictly decreases (head has greater level
    /// than negated body predicates, at least as great as positive ones).
    /// Returns `None` if the graph is not stratifiable.
    pub fn strata(&self) -> Option<BTreeMap<Term, usize>> {
        if !self.no_negative_cycle() {
            return None;
        }
        let sccs = self.sccs();
        let component_of = self.component_of(&sccs);
        // Components are in reverse topological order (dependencies first),
        // so a single pass in *reverse* of that order (dependents first) with
        // relaxation iterated to fixpoint assigns minimal levels.  Since the
        // condensation is a DAG, iterate levels until stable.
        let mut level = vec![0usize; sccs.len()];
        let mut changed = true;
        let mut guard = 0usize;
        while changed {
            changed = false;
            guard += 1;
            if guard > sccs.len() + 2 {
                // Should be impossible on a DAG.
                return None;
            }
            for v in 0..self.nodes.len() {
                for &(w, sign) in &self.edges[v] {
                    let (cv, cw) = (component_of[v], component_of[w]);
                    if cv == cw {
                        continue;
                    }
                    let need = match sign {
                        EdgeSign::Positive => level[cw],
                        EdgeSign::Negative => level[cw] + 1,
                    };
                    if level[cv] < need {
                        level[cv] = need;
                        changed = true;
                    }
                }
            }
        }
        Some(
            self.nodes
                .iter()
                .enumerate()
                .map(|(i, t)| (t.clone(), level[component_of[i]]))
                .collect(),
        )
    }
}

/// Strongly connected components of the directed graph over the vertices
/// `0..n` whose outgoing edges `successors(v)` enumerates — the workspace's
/// one Tarjan, shared by [`DependencyGraph::sccs`] and by the well-founded
/// evaluator's condensation of the ground atom graph.
///
/// Components are emitted dependencies first: when a component has an edge
/// into another component, the other one appears earlier in the result.
/// The traversal is iterative — an explicit stack of (vertex, successor
/// iterator) frames — because recursion would overflow on the deep chain
/// programs the evaluator condenses.
pub fn strongly_connected_components<I>(
    n: usize,
    successors: impl Fn(usize) -> I,
) -> Vec<Vec<usize>>
where
    I: Iterator<Item = usize>,
{
    const UNVISITED: usize = usize::MAX;
    let mut next_index = 0usize;
    let mut indices = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut result: Vec<Vec<usize>> = Vec::new();
    let mut frames: Vec<(usize, I)> = Vec::new();

    for start in 0..n {
        if indices[start] != UNVISITED {
            continue;
        }
        let mut enter = Some(start);
        loop {
            if let Some(v) = enter.take() {
                indices[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
                frames.push((v, successors(v)));
            }
            let Some((v, unexplored)) = frames.last_mut() else {
                break;
            };
            let v = *v;
            match unexplored.next() {
                Some(w) if indices[w] == UNVISITED => enter = Some(w),
                Some(w) => {
                    if on_stack[w] {
                        lowlink[v] = lowlink[v].min(indices[w]);
                    }
                }
                None => {
                    frames.pop();
                    if let Some((parent, _)) = frames.last() {
                        lowlink[*parent] = lowlink[*parent].min(lowlink[v]);
                    }
                    if lowlink[v] == indices[v] {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        result.push(component);
                    }
                }
            }
        }
    }
    result
}

/// Definition 6.1: a program is *stratified* if ordinal levels can be
/// assigned to predicate names such that in every rule the head's level is
/// greater than that of every negated body predicate and at least as great as
/// that of every positive body predicate.
///
/// Programs containing a rule whose head or body predicate name is non-ground
/// are reported unstratified (levels cannot be assigned to unknown names); the
/// Figure 1 procedure handles those separately.
pub fn is_stratified(program: &Program) -> bool {
    // Every predicate name that participates must be ground.
    for rule in program.iter() {
        if ground_predicate_name(&rule.head).is_none() {
            return false;
        }
        for lit in &rule.body {
            if let Some(atom) = lit.atom() {
                if ground_predicate_name(atom).is_none() {
                    return false;
                }
            }
        }
    }
    DependencyGraph::predicate_graph(program).no_negative_cycle()
}

/// Definition 6.2 restricted to a finite ground program: the program is
/// locally stratified iff no cycle of the ground-atom dependency graph passes
/// through a negative edge.
///
/// This is the **definitional reference**: the engine's Figure 1 reads the
/// same verdict off the condensation its well-founded evaluation builds
/// (`stratified_eval` in `hilog-engine`), and the oracles hold the two
/// equal.
///
/// # Panics
///
/// Panics if a rule is not ground; callers instantiate first.
pub fn is_locally_stratified_ground(rules: &[Rule]) -> bool {
    for r in rules {
        assert!(
            r.head.is_ground() && r.body.iter().all(|l| l.atom().is_none_or(Term::is_ground)),
            "is_locally_stratified_ground requires ground rules, got {r}"
        );
    }
    DependencyGraph::atom_graph(rules).no_negative_cycle()
}

/// Groups the rules of a program by the strongly connected component of
/// their (ground) head predicate name, returning the groups in
/// lower-component-first order together with the set of names in each
/// component.  Rules whose head name is non-ground are not returned.
pub fn rules_by_component(program: &Program) -> Vec<(BTreeSet<Term>, Vec<Rule>)> {
    let graph = DependencyGraph::predicate_graph(program);
    let sccs = graph.scc_terms();
    let mut component_of: TermMap<Term, usize> = TermMap::default();
    for (ci, comp) in sccs.iter().enumerate() {
        for t in comp {
            component_of.insert(t.clone(), ci);
        }
    }
    let mut groups: Vec<(BTreeSet<Term>, Vec<Rule>)> = sccs
        .iter()
        .map(|c| (c.iter().cloned().collect(), Vec::new()))
        .collect();
    for rule in program.iter() {
        if let Some(name) = ground_predicate_name(&rule.head) {
            if let Some(&ci) = component_of.get(&name) {
                groups[ci].1.push(rule.clone());
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;

    fn sym(s: &str) -> Term {
        Term::sym(s)
    }

    fn win_move() -> Program {
        Program::from_rules(vec![
            Rule::new(
                Term::apps("winning", vec![Term::var("X")]),
                vec![
                    Literal::pos(Term::apps("move", vec![Term::var("X"), Term::var("Y")])),
                    Literal::neg(Term::apps("winning", vec![Term::var("Y")])),
                ],
            ),
            Rule::fact(Term::apps("move", vec![sym("a"), sym("b")])),
        ])
    }

    fn stratified_pqr() -> Program {
        // p(X) :- q(X), not r(X).   q(a).   r(b).
        Program::from_rules(vec![
            Rule::new(
                Term::apps("p", vec![Term::var("X")]),
                vec![
                    Literal::pos(Term::apps("q", vec![Term::var("X")])),
                    Literal::neg(Term::apps("r", vec![Term::var("X")])),
                ],
            ),
            Rule::fact(Term::apps("q", vec![sym("a")])),
            Rule::fact(Term::apps("r", vec![sym("b")])),
        ])
    }

    #[test]
    fn predicate_names() {
        let atom = Term::app(
            Term::apps("winning", vec![Term::var("M")]),
            vec![Term::var("X")],
        );
        assert_eq!(predicate_name(&atom).to_string(), "winning(M)");
        assert_eq!(ground_predicate_name(&atom), None);
        let ground = Term::app(Term::apps("winning", vec![sym("move1")]), vec![sym("a")]);
        assert_eq!(
            ground_predicate_name(&ground).unwrap().to_string(),
            "winning(move1)"
        );
    }

    #[test]
    fn stratification_of_pqr() {
        let p = stratified_pqr();
        assert!(is_stratified(&p));
        let strata = DependencyGraph::predicate_graph(&p).strata().unwrap();
        assert!(strata[&sym("p")] > strata[&sym("r")]);
        assert!(strata[&sym("p")] >= strata[&sym("q")]);
    }

    #[test]
    fn win_move_is_not_stratified() {
        // "This program is not stratified because winning depends negatively
        // on itself." (Example 6.1)
        assert!(!is_stratified(&win_move()));
        assert!(DependencyGraph::predicate_graph(&win_move())
            .strata()
            .is_none());
    }

    #[test]
    fn variable_predicate_names_are_not_stratified() {
        // winning(M)(X) :- game(M), M(X,Y), not winning(M)(Y).
        let p = Program::from_rules(vec![Rule::new(
            Term::app(
                Term::apps("winning", vec![Term::var("M")]),
                vec![Term::var("X")],
            ),
            vec![
                Literal::pos(Term::apps("game", vec![Term::var("M")])),
                Literal::pos(Term::app(
                    Term::var("M"),
                    vec![Term::var("X"), Term::var("Y")],
                )),
                Literal::neg(Term::app(
                    Term::apps("winning", vec![Term::var("M")]),
                    vec![Term::var("Y")],
                )),
            ],
        )]);
        assert!(!is_stratified(&p));
    }

    #[test]
    fn sccs_group_mutual_recursion() {
        // p :- q.  q :- p.  r :- p.
        let p = Program::from_rules(vec![
            Rule::new(sym("p"), vec![Literal::pos(sym("q"))]),
            Rule::new(sym("q"), vec![Literal::pos(sym("p"))]),
            Rule::new(sym("r"), vec![Literal::pos(sym("p"))]),
        ]);
        let g = DependencyGraph::predicate_graph(&p);
        let sccs = g.scc_terms();
        assert_eq!(sccs.len(), 2);
        // p,q component must come before r (reverse topological order).
        let first: BTreeSet<String> = sccs[0].iter().map(|t| t.to_string()).collect();
        assert_eq!(
            first,
            ["p".to_string(), "q".to_string()].into_iter().collect()
        );
        assert_eq!(sccs[1], vec![sym("r")]);
    }

    #[test]
    fn shared_scc_routine_and_graph_sccs_agree_on_order_and_membership() {
        // A cycle 0 -> 1 -> 2 -> 0 with a tail (3), a self-loop (4), an
        // isolated vertex (5), and a chain into the cycle deep enough to
        // overflow a recursive Tarjan.
        let mut adjacency = vec![vec![1], vec![2], vec![0, 3], vec![], vec![4], vec![]];
        let chain_len = 50_000;
        for i in 1..=chain_len {
            let next = if i < chain_len {
                adjacency.len() + 1
            } else {
                0
            };
            adjacency.push(vec![next]);
        }
        let node = |i: usize| Term::sym(format!("n{i}"));
        let mut graph = DependencyGraph::new();
        for v in 0..adjacency.len() {
            graph.add_node(node(v));
        }
        for (v, successors) in adjacency.iter().enumerate() {
            for &w in successors {
                graph.add_edge(node(v), node(w), EdgeSign::Positive);
            }
        }

        let shared =
            strongly_connected_components(adjacency.len(), |v| adjacency[v].iter().copied());
        assert_eq!(shared, graph.sccs(), "same components, same order");
        // Membership: the cycle is one component, everything else a singleton.
        assert_eq!(shared.len(), adjacency.len() - 2);
        let component_of = graph.component_of(&shared);
        assert!(component_of[0] == component_of[1] && component_of[1] == component_of[2]);
        // Order: every edge points into the same or an earlier component.
        for (v, successors) in adjacency.iter().enumerate() {
            for &w in successors {
                assert!(component_of[w] <= component_of[v], "{w} emitted after {v}");
            }
        }
    }

    #[test]
    fn sink_components_are_the_lowest() {
        let p = stratified_pqr();
        let g = DependencyGraph::predicate_graph(&p);
        let sinks: BTreeSet<String> = g
            .sink_component_nodes()
            .iter()
            .map(|t| t.to_string())
            .collect();
        // q and r have no outgoing edges; p depends on both.
        assert_eq!(
            sinks,
            ["q".to_string(), "r".to_string()].into_iter().collect()
        );
    }

    #[test]
    fn local_stratification_of_ground_programs() {
        // winning(a) :- move(a,b), not winning(b).  winning(b) :- move(b,a), not winning(a).
        // This ground program has a negative cycle winning(a) -> winning(b) -> winning(a).
        let cyclic = vec![
            Rule::new(
                Term::apps("winning", vec![sym("a")]),
                vec![
                    Literal::pos(Term::apps("move", vec![sym("a"), sym("b")])),
                    Literal::neg(Term::apps("winning", vec![sym("b")])),
                ],
            ),
            Rule::new(
                Term::apps("winning", vec![sym("b")]),
                vec![
                    Literal::pos(Term::apps("move", vec![sym("b"), sym("a")])),
                    Literal::neg(Term::apps("winning", vec![sym("a")])),
                ],
            ),
        ];
        assert!(!is_locally_stratified_ground(&cyclic));
        // The acyclic version (only a -> b) is locally stratified.
        let acyclic = vec![cyclic[0].clone()];
        assert!(is_locally_stratified_ground(&acyclic));
    }

    #[test]
    #[should_panic]
    fn local_stratification_rejects_non_ground_input() {
        let r = Rule::new(
            Term::apps("p", vec![Term::var("X")]),
            vec![Literal::neg(Term::apps("p", vec![Term::var("X")]))],
        );
        let _ = is_locally_stratified_ground(&[r]);
    }

    #[test]
    fn strata_handles_chains() {
        // a :- not b.  b :- not c.  c.
        let p = Program::from_rules(vec![
            Rule::new(sym("a"), vec![Literal::neg(sym("b"))]),
            Rule::new(sym("b"), vec![Literal::neg(sym("c"))]),
            Rule::fact(sym("c")),
        ]);
        let strata = DependencyGraph::predicate_graph(&p).strata().unwrap();
        assert!(strata[&sym("a")] > strata[&sym("b")]);
        assert!(strata[&sym("b")] > strata[&sym("c")]);
    }

    #[test]
    fn rules_grouped_by_component() {
        let p = stratified_pqr();
        let groups = rules_by_component(&p);
        assert_eq!(groups.len(), 3);
        // Each group's rules have heads in that group.
        for (names, rules) in &groups {
            for r in rules {
                assert!(names.contains(&ground_predicate_name(&r.head).unwrap()));
            }
        }
    }

    #[test]
    fn aggregate_counts_as_negative_dependency() {
        use crate::literal::{Aggregate, AggregateFunc};
        // contains(X, N) :- N = sum(P, in(X, P)).   in(a, 1).
        let p = Program::from_rules(vec![
            Rule::new(
                Term::apps("contains", vec![Term::var("X"), Term::var("N")]),
                vec![Literal::Aggregate(Aggregate::new(
                    AggregateFunc::Sum,
                    Term::var("N"),
                    Term::var("P"),
                    Term::apps("in", vec![Term::var("X"), Term::var("P")]),
                ))],
            ),
            Rule::fact(Term::apps("in", vec![sym("a"), Term::int(1)])),
        ]);
        let g = DependencyGraph::predicate_graph(&p);
        let contains_idx = g.node_index(&sym("contains")).unwrap();
        assert!(g
            .successors(contains_idx)
            .iter()
            .any(|&(_, s)| s == EdgeSign::Negative));
        // Still stratified: no cycle.
        assert!(is_stratified(&p));
    }
}
