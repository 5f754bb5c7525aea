//! Program analysis: the dependency relation, its strongly connected
//! components, stratification and local stratification.
//!
//! Section 6 of the paper has one dependency relation: an edge runs from a
//! rule's head to each body literal, positive or negative, with aggregation
//! read as negation.  [`Literal::dependency`] is that edge's one definition,
//! and [`DependencyGraph`] is the one graph built from it, over ground
//! predicate names ([`DependencyGraph::predicate_graph`]) or over ground
//! atoms ([`DependencyGraph::atom_graph`]).  Everything Section 6 reads off
//! the relation reads it off this graph: stratification (Definition 6.1),
//! local stratification (Definition 6.2), the lowest components of the
//! Figure 1 procedure in `hilog-engine` and the strata of `hilog-datalog`.

use crate::hash::TermMap;
use crate::literal::Literal;
use crate::program::Program;
use crate::rule::Rule;
use crate::term::Term;
use std::collections::{BTreeMap, BTreeSet};

/// Polarity of a dependency edge, between predicate names and between atoms.
///
/// The query-directed evaluator records the same polarity on the
/// instance-level edges of its subgoal tables: there `Positive` and
/// `Negative` are the evaluation-side counterparts of the `dp(H, A)` /
/// `dn(H, A)` facts Section 6.1's magic rewriting derives.  `Positive <
/// Negative`, so an edge recorded under both polarities is their `max`:
/// negative dominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeSign {
    /// The body literal is positive.
    Positive,
    /// The body literal is negative, or an aggregate, which the paper treats
    /// like negation for stratification purposes: the dependency must be
    /// completely settled before the rule can proceed.
    Negative,
}

impl EdgeSign {
    /// Returns `true` for [`EdgeSign::Negative`].
    pub fn is_negative(self) -> bool {
        self == EdgeSign::Negative
    }
}

/// A dependency graph over ground predicate names (or over ground atoms, for
/// local stratification).  Edges run from the head's node to each body
/// literal's node.
///
/// A predicate graph also records what a graph over ground names cannot show
/// as an edge: whether some rule's head name is a variable (such a rule can
/// define any name) and which heads read a literal whose name is a variable
/// (they read every name).
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    nodes: Vec<Term>,
    index: TermMap<Term, usize>,
    /// Adjacency: `edges[u]` is the list of `(v, sign)` with an edge `u -> v`.
    edges: Vec<Vec<(usize, EdgeSign)>>,
    /// Head nodes of rules reading a literal that has no node.
    reads_any: BTreeSet<usize>,
    /// Some rule's head has no node.
    variable_heads: bool,
}

impl DependencyGraph {
    /// Adds (or finds) a node.
    fn add_node(&mut self, term: &Term) -> usize {
        if let Some(&i) = self.index.get(term) {
            return i;
        }
        let i = self.nodes.len();
        self.index.insert(term.clone(), i);
        self.nodes.push(term.clone());
        self.edges.push(Vec::new());
        i
    }

    /// Adds an edge `from -> to` with the given sign.
    fn add_edge(&mut self, from: usize, to: usize, sign: EdgeSign) {
        if !self.edges[from].contains(&(to, sign)) {
            self.edges[from].push((to, sign));
        }
    }

    /// The graph of `rules` whose node for an atom is `node_of(atom)`: every
    /// node any rule mentions, one edge from each head node to each body
    /// node, by [`Literal::dependency`].
    fn build<'a>(
        rules: impl IntoIterator<Item = &'a Rule>,
        node_of: fn(&Term) -> Option<&Term>,
    ) -> DependencyGraph {
        let mut g = DependencyGraph::default();
        for rule in rules {
            let head = node_of(&rule.head).map(|h| g.add_node(h));
            g.variable_heads |= head.is_none();
            for (atom, sign) in rule.body.iter().filter_map(Literal::dependency) {
                match (head, node_of(atom)) {
                    (Some(u), Some(body)) => {
                        let v = g.add_node(body);
                        g.add_edge(u, v, sign);
                    }
                    (None, Some(body)) => {
                        g.add_node(body);
                    }
                    (Some(u), None) => {
                        g.reads_any.insert(u);
                    }
                    (None, None) => {}
                }
            }
        }
        g
    }

    /// The *predicate* dependency graph of some rules (Figure 1's step 3):
    /// every ground predicate name any rule mentions is a node, and each rule
    /// whose head name is ground has one edge to each ground body name.
    /// Variable names have no node; [`Self::has_variable_heads`] and
    /// [`Self::reads_any`] record where they occur.
    pub fn predicate_graph<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> DependencyGraph {
        fn ground_name(atom: &Term) -> Option<&Term> {
            Some(atom.name()).filter(|name| name.is_ground())
        }
        Self::build(rules, ground_name)
    }

    /// The *atom* dependency graph of a **ground** program: one node per
    /// ground atom, one edge per (head, body atom) pair.  Used for local
    /// stratification (Definition 6.2).
    pub fn atom_graph(rules: &[Rule]) -> DependencyGraph {
        fn itself(atom: &Term) -> Option<&Term> {
            Some(atom)
        }
        Self::build(rules, itself)
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

    /// Outgoing edges of a node.
    pub fn successors(&self, node: usize) -> &[(usize, EdgeSign)] {
        &self.edges[node]
    }

    /// Returns `true` if some rule's head predicate name is a variable: such
    /// a rule can define any name.
    pub fn has_variable_heads(&self) -> bool {
        self.variable_heads
    }

    /// The heads of rules that read a literal whose predicate name is a
    /// variable: they read every name.
    pub fn reads_any(&self) -> impl Iterator<Item = &Term> {
        self.reads_any.iter().map(|&v| &self.nodes[v])
    }

    /// Strongly connected components, computed by
    /// [`strongly_connected_components`] over the node indices.  Components
    /// are returned in reverse topological order of the condensation: if
    /// component `A` has an edge into component `B`, then `B` appears before
    /// `A` in the result.  (Lower components — the ones other components
    /// depend on — come first.)
    pub fn sccs(&self) -> Components {
        strongly_connected_components(self.nodes.len(), |v| self.edges[v].iter().map(|&(w, _)| w))
    }

    /// Returns the nodes whose strongly connected components have no outgoing
    /// edges to *other* components — the "lowest" components used by step 3 of
    /// the Figure 1 procedure ("let T be the set of nodes in G from components
    /// with no outgoing edge").
    pub fn sink_component_nodes(&self) -> Vec<Term> {
        let sccs = self.sccs();
        let component_of = sccs.component_of(self.nodes.len());
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

    /// The least level of each node's component, in one pass over
    /// [`Self::sccs`]: components come dependencies first, so every edge out
    /// of a component reaches one whose level is already final.  A positive
    /// edge keeps the level, a negative one raises it by one.  `None` if an
    /// edge inside a component is negative.
    fn levels(&self) -> Option<(Vec<usize>, Vec<usize>)> {
        let sccs = self.sccs();
        let component_of = sccs.component_of(self.nodes.len());
        let mut level = vec![0usize; sccs.len()];
        for (c, comp) in sccs.iter().enumerate() {
            for &v in comp {
                for &(w, sign) in &self.edges[v] {
                    let negative = usize::from(sign.is_negative());
                    if component_of[w] == c {
                        if negative == 1 {
                            return None;
                        }
                    } else {
                        level[c] = level[c].max(level[component_of[w]] + negative);
                    }
                }
            }
        }
        Some((component_of, level))
    }

    /// Returns `true` if no strongly connected component contains a negative
    /// edge.  For the predicate graph this is exactly stratifiability
    /// (Definition 6.1); for the atom graph of a finite ground program it is
    /// local stratifiability (Definition 6.2).
    pub fn no_negative_cycle(&self) -> bool {
        self.levels().is_some()
    }

    /// Assigns the least stratification levels to nodes if possible: along a
    /// positive edge the level does not increase and along a negative edge it
    /// strictly decreases (head has greater level than negated body
    /// predicates, at least as great as positive ones).  Returns `None` if
    /// the graph is not stratifiable.
    pub fn strata(&self) -> Option<BTreeMap<Term, usize>> {
        let (component_of, level) = self.levels()?;
        Some(
            self.nodes
                .iter()
                .zip(component_of)
                .map(|(t, c)| (t.clone(), level[c]))
                .collect(),
        )
    }
}

/// Strongly connected components, flat: the members of every component in
/// one vector, each component a range of it, in the order Tarjan emits them
/// — dependencies first: when a component has an edge into another
/// component, the other one comes earlier.  Within a component the members
/// are in the order Tarjan pops them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Components {
    members: Vec<usize>,
    /// Where each component starts in `members`, then `members.len()`.
    offsets: Vec<usize>,
}

impl Components {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Returns `true` if there are no components (the graph had no vertex).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The components, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        self.offsets
            .windows(2)
            .map(|at| &self.members[at[0]..at[1]])
    }

    /// The members of every component, component by component, to be
    /// reordered within each component (`iter` sees the new order).
    pub fn members_mut(&mut self) -> impl Iterator<Item = &mut [usize]> + '_ {
        let mut rest = self.members.as_mut_slice();
        self.offsets.windows(2).map(move |at| {
            let (component, tail) = std::mem::take(&mut rest).split_at_mut(at[1] - at[0]);
            rest = tail;
            component
        })
    }

    /// Each vertex's component, by vertex (the graph had `n` vertices).
    pub fn component_of(&self, n: usize) -> Vec<usize> {
        let mut component_of = vec![usize::MAX; n];
        for (c, component) in self.iter().enumerate() {
            for &v in component {
                component_of[v] = c;
            }
        }
        component_of
    }

    fn clear(&mut self) {
        self.members.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }
}

/// The workspace's one Tarjan, with its scratch: a caller that condenses a
/// graph again and again (the session's table pass, once per write) keeps
/// one and reuses its vectors, so a run allocates nothing once they have
/// grown to the graph.  [`strongly_connected_components`] is a run on a
/// fresh one.
///
/// The traversal is iterative — an explicit stack of (vertex, successor
/// iterator) frames — because recursion would overflow on the deep chain
/// programs the evaluator condenses.
#[derive(Debug, Clone, Default)]
pub struct Tarjan {
    indices: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    components: Components,
}

impl Tarjan {
    /// The components the last run found.
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// The strongly connected components of the directed graph over the
    /// vertices `0..n` whose outgoing edges `successors(v)` enumerates, as
    /// [`Components`] describes them.
    pub fn run<I>(&mut self, n: usize, successors: impl Fn(usize) -> I) -> &Components
    where
        I: Iterator<Item = usize>,
    {
        const UNVISITED: usize = usize::MAX;
        let mut next_index = 0usize;
        self.indices.clear();
        self.indices.resize(n, UNVISITED);
        self.lowlink.clear();
        self.lowlink.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.stack.clear();
        self.components.clear();
        let Tarjan {
            indices,
            lowlink,
            on_stack,
            stack,
            components,
        } = self;
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
                            loop {
                                let w = stack.pop().expect("tarjan stack underflow");
                                on_stack[w] = false;
                                components.members.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            components.offsets.push(components.members.len());
                        }
                    }
                }
            }
        }
        components
    }
}

/// Strongly connected components of the directed graph over the vertices
/// `0..n` whose outgoing edges `successors(v)` enumerates, dependencies
/// first — [`Tarjan::run`] on a fresh scratch, for the callers that condense
/// a graph once: [`DependencyGraph::sccs`], the well-founded evaluator's
/// condensation of the ground atom graph, and the tabled evaluator's
/// regions.
pub fn strongly_connected_components<I>(n: usize, successors: impl Fn(usize) -> I) -> Components
where
    I: Iterator<Item = usize>,
{
    let mut tarjan = Tarjan::default();
    tarjan.run(n, successors);
    tarjan.components
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
    let graph = DependencyGraph::predicate_graph(program.iter());
    !graph.has_variable_heads() && graph.reads_any().next().is_none() && graph.no_negative_cycle()
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
    fn stratification_of_pqr() {
        let p = stratified_pqr();
        assert!(is_stratified(&p));
        let strata = DependencyGraph::predicate_graph(p.iter()).strata().unwrap();
        assert!(strata[&sym("p")] > strata[&sym("r")]);
        assert!(strata[&sym("p")] >= strata[&sym("q")]);
    }

    #[test]
    fn win_move_is_not_stratified() {
        // "This program is not stratified because winning depends negatively
        // on itself." (Example 6.1)
        assert!(!is_stratified(&win_move()));
        assert!(DependencyGraph::predicate_graph(win_move().iter())
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
        let g = DependencyGraph::predicate_graph(p.iter());
        let sccs: Vec<BTreeSet<String>> = g
            .sccs()
            .iter()
            .map(|c| c.iter().map(|&v| g.nodes()[v].to_string()).collect())
            .collect();
        // The p,q component must come before r (reverse topological order).
        assert_eq!(
            sccs,
            [vec!["p", "q"], vec!["r"]]
                .map(|c| c.into_iter().map(String::from).collect::<BTreeSet<_>>())
        );
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
        let mut graph = DependencyGraph::default();
        for v in 0..adjacency.len() {
            graph.add_node(&Term::sym(format!("n{v}")));
        }
        for (v, successors) in adjacency.iter().enumerate() {
            for &w in successors {
                graph.add_edge(v, w, EdgeSign::Positive);
            }
        }

        let shared =
            strongly_connected_components(adjacency.len(), |v| adjacency[v].iter().copied());
        assert_eq!(shared, graph.sccs(), "same components, same order");
        // Membership: the cycle is one component, everything else a singleton.
        assert_eq!(shared.len(), adjacency.len() - 2);
        let component_of = shared.component_of(adjacency.len());
        assert!(component_of[0] == component_of[1] && component_of[1] == component_of[2]);
        // Order: every edge points into the same or an earlier component.
        for (v, successors) in adjacency.iter().enumerate() {
            for &w in successors {
                assert!(component_of[w] <= component_of[v], "{w} emitted after {v}");
            }
        }
    }

    #[test]
    fn a_reused_tarjan_finds_what_a_fresh_one_does() {
        // A 2-cycle read by a vertex, then a smaller graph: the second run
        // sees nothing of the first.
        let first = [vec![1], vec![0], vec![0]];
        let second = [vec![], vec![0]];
        let mut tarjan = Tarjan::default();
        for graph in [&first[..], &second[..], &first[..]] {
            let fresh = strongly_connected_components(graph.len(), |v| graph[v].iter().copied());
            let reused = tarjan.run(graph.len(), |v| graph[v].iter().copied());
            assert_eq!(reused, &fresh);
        }
        let components = tarjan.components();
        let listed: Vec<&[usize]> = components.iter().collect();
        assert_eq!(listed, [&[1, 0][..], &[2][..]]);
        assert_eq!(components.component_of(3), [0, 0, 1]);
    }

    #[test]
    fn sink_components_are_the_lowest() {
        let p = stratified_pqr();
        let g = DependencyGraph::predicate_graph(p.iter());
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
        let strata = DependencyGraph::predicate_graph(p.iter()).strata().unwrap();
        assert!(strata[&sym("a")] > strata[&sym("b")]);
        assert!(strata[&sym("b")] > strata[&sym("c")]);
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
        let g = DependencyGraph::predicate_graph(p.iter());
        let contains = g
            .nodes()
            .iter()
            .position(|n| *n == sym("contains"))
            .unwrap();
        assert!(g.successors(contains).iter().any(|&(_, s)| s.is_negative()));
        // Still stratified: no cycle.
        assert!(is_stratified(&p));
    }

    /// The levels the stratifier assigned before its one pass: relax every
    /// edge between components until nothing rises.
    fn relaxed_levels(g: &DependencyGraph) -> BTreeMap<Term, usize> {
        let mut level = vec![0usize; g.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..g.len() {
                for &(w, sign) in g.successors(v) {
                    let need = level[w] + usize::from(sign.is_negative());
                    if level[v] < need {
                        level[v] = need;
                        changed = true;
                    }
                }
            }
        }
        g.nodes().iter().cloned().zip(level).collect()
    }

    #[test]
    fn strata_are_the_relaxed_levels_on_a_chain_and_a_diamond() {
        // a :- not b.  b :- c.  c :- not d.  d.
        let chain = Program::from_rules(vec![
            Rule::new(sym("a"), vec![Literal::neg(sym("b"))]),
            Rule::new(sym("b"), vec![Literal::pos(sym("c"))]),
            Rule::new(sym("c"), vec![Literal::neg(sym("d"))]),
            Rule::fact(sym("d")),
        ]);
        // top :- l, not r.  l :- not bottom.  r :- bottom.  bottom.
        let diamond = Program::from_rules(vec![
            Rule::new(
                sym("top"),
                vec![Literal::pos(sym("l")), Literal::neg(sym("r"))],
            ),
            Rule::new(sym("l"), vec![Literal::neg(sym("bottom"))]),
            Rule::new(sym("r"), vec![Literal::pos(sym("bottom"))]),
            Rule::fact(sym("bottom")),
        ]);
        for (program, top) in [(chain, ("a", 2)), (diamond, ("top", 1))] {
            let g = DependencyGraph::predicate_graph(program.iter());
            let strata = g.strata().unwrap();
            assert_eq!(strata, relaxed_levels(&g), "{program}");
            assert_eq!(strata[&sym(top.0)], top.1);
        }
    }

    #[test]
    fn a_variable_headed_rule_or_fact_is_recorded_and_not_stratified() {
        // X(a) :- p(X).  p(q).
        let p = Program::from_rules(vec![
            Rule::new(
                Term::app(Term::var("X"), vec![sym("a")]),
                vec![Literal::pos(Term::apps("p", vec![Term::var("X")]))],
            ),
            Rule::fact(Term::apps("p", vec![sym("q")])),
        ]);
        let g = DependencyGraph::predicate_graph(p.iter());
        assert!(g.has_variable_heads());
        assert!(!is_stratified(&p));
        // A variable-headed fact alone does the same.
        let fact = Program::from_rules(vec![Rule::fact(Term::app(Term::var("X"), vec![sym("a")]))]);
        assert!(DependencyGraph::predicate_graph(fact.iter()).has_variable_heads());
        assert!(!is_stratified(&fact));
    }

    #[test]
    fn a_head_reading_a_variable_name_is_recorded_and_not_stratified() {
        // any :- X(a).  top :- any.  p :- q.  q.
        let p = Program::from_rules(vec![
            Rule::new(
                sym("any"),
                vec![Literal::pos(Term::app(Term::var("X"), vec![sym("a")]))],
            ),
            Rule::new(sym("top"), vec![Literal::pos(sym("any"))]),
            Rule::new(sym("p"), vec![Literal::pos(sym("q"))]),
            Rule::fact(sym("q")),
        ]);
        let g = DependencyGraph::predicate_graph(p.iter());
        assert_eq!(g.reads_any().collect::<Vec<_>>(), vec![&sym("any")]);
        assert!(!is_stratified(&p));
    }

    #[test]
    fn a_variable_named_aggregate_pattern_is_not_stratified() {
        use crate::literal::{Aggregate, AggregateFunc};
        // n(N) :- N = count(Y, X(Y)).
        let p = Program::from_rules(vec![Rule::new(
            Term::apps("n", vec![Term::var("N")]),
            vec![Literal::Aggregate(Aggregate::new(
                AggregateFunc::Count,
                Term::var("N"),
                Term::var("Y"),
                Term::app(Term::var("X"), vec![Term::var("Y")]),
            ))],
        )]);
        assert!(!is_stratified(&p));
    }

    #[test]
    fn a_builtin_only_body_adds_no_edge() {
        use crate::builtin::{BuiltinCall, BuiltinOp};
        // f :- 1 < 2.  e.
        let p = Program::from_rules(vec![
            Rule::new(
                sym("f"),
                vec![Literal::Builtin(BuiltinCall::new(
                    BuiltinOp::Lt,
                    Term::int(1),
                    Term::int(2),
                ))],
            ),
            Rule::fact(sym("e")),
        ]);
        let g = DependencyGraph::predicate_graph(p.iter());
        assert_eq!(g.nodes(), &[sym("f"), sym("e")]);
        assert!(g.successors(0).is_empty());
    }
}
