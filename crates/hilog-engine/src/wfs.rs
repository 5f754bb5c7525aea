//! The well-founded semantics (Section 3.1, extended to HiLog in Section 4).
//!
//! Definitions 3.3–3.5 of the paper, on the instantiated (ground) program:
//! `T_P(I)` derives an atom if some rule for it has every body literal true
//! in `I`; `U_P(I)` is the greatest unfounded set with respect to `I`, the
//! complement of the least *founded* set (an atom is founded if some rule
//! for it has no body literal false in `I` and all its positive body atoms
//! are founded); the least fixpoint of `W_P(I) = T_P(I) ∪ ¬·U_P(I)` is the
//! well-founded partial model, and its two-valued fixpoints are the stable
//! models (Definition 3.6, `stable.rs`).
//!
//! Both semantics run on one `Propagator` over the grounding's atom ids: `T_P`
//! by counters of the body literals not yet true (Dowling and Gallier, JLP
//! 1984), an atom with no rule left free of a false body literal false, and,
//! when those run dry, one greatest-unfounded-set pass over a given set of
//! atoms for what only a positive loop keeps open (the smodels order:
//! Simons, Niemelä and Soininen, AIJ 2002).  Its trail of values set is the
//! queue, and `undo` takes the counters back to a mark.
//!
//! [`well_founded_eval`] settles the strongly connected components of the
//! atom dependency graph in order, lower first, each unfounded pass
//! confined to one component — Ross's component-by-component evaluation
//! (Section 6, Figure 1) applied to the atoms of the well-founded
//! construction.  It is how every model is obtained, the model after a write
//! included, from the HiLog instantiation (Section 4) [`crate::grounder`]
//! builds.  The literal global `W_P` iteration, [`well_founded_of_ground`],
//! is the definitional reference the oracles hold it to.

use crate::ambient::{check_deadline, with_deadline};
use crate::error::EngineError;
use crate::ground::{GroundProgram, IdRule};
use crate::grounder::ground_over_universe;
use crate::horn::EvalOptions;
use hilog_core::{strongly_connected_components, AtomId, Components, Model, Program, Term, Truth};

/// A three-valued assignment over a [`GroundProgram`]'s atoms, indexed by
/// [`AtomId::index`]: `Some(true)` = true, `Some(false)` = false, `None` =
/// undefined.
pub(crate) type Assignment = [Option<bool>];

/// One application of the `T_P` operator (Definition 3.5): the set of atoms
/// with a rule whose positive body atoms are all true and whose negative body
/// atoms are all false in `I`.
fn t_p(program: &GroundProgram, i: &Assignment) -> Vec<AtomId> {
    let body_true = |r: &IdRule| {
        r.pos.iter().all(|p| i[p.index()] == Some(true))
            && r.neg.iter().all(|n| i[n.index()] == Some(false))
    };
    let fired = program.id_rules.iter().filter(|r| body_true(r));
    fired.map(|r| r.head).collect()
}

/// The greatest unfounded set with respect to `I` (Definitions 3.3–3.4),
/// returned as a boolean mask over atom ids.
///
/// The complement (the *founded* atoms) is computed as a least fixpoint: an
/// atom is founded if it has a rule with no witness of unusability
/// (condition 1: no body literal's complement is in `I`) whose positive body
/// atoms are all founded (the negation of condition 2).  Everything not
/// founded is unfounded.
fn greatest_unfounded_set(program: &GroundProgram, i: &Assignment) -> Vec<bool> {
    let mut founded = vec![false; program.atoms.interner().len()];
    // usable[r] = rule r has no witness of unusability of type 1.
    let usable: Vec<bool> = program
        .id_rules
        .iter()
        .map(|r| {
            r.pos.iter().all(|p| i[p.index()] != Some(false))
                && r.neg.iter().all(|q| i[q.index()] != Some(true))
        })
        .collect();
    // Least fixpoint by worklist.
    let mut changed = true;
    while changed {
        changed = false;
        for (rule, &usable) in program.id_rules.iter().zip(&usable) {
            if !usable || founded[rule.head.index()] {
                continue;
            }
            if rule.pos.iter().all(|p| founded[p.index()]) {
                founded[rule.head.index()] = true;
                changed = true;
            }
        }
    }
    founded.iter().map(|&f| !f).collect()
}

/// The **definitional reference**: the well-founded (partial) model of a
/// ground program by iterating the global `W_P` operator to its least
/// fixpoint, literally as Definition 3.5 states it, re-scanning the whole
/// program per iteration.  No production path calls it: the oracles hold
/// [`well_founded_eval`] to it.
pub fn well_founded_of_ground(program: &GroundProgram) -> Model {
    let mut assignment = vec![None; program.atoms.interner().len()];
    loop {
        let mut changed = false;
        // W_P(I) = T_P(I) ∪ ¬ · U_P(I).
        let trues = t_p(program, &assignment);
        let unfounded = greatest_unfounded_set(program, &assignment);
        for a in trues {
            if assignment[a.index()] != Some(true) {
                assignment[a.index()] = Some(true);
                changed = true;
            }
        }
        for (a, &unf) in unfounded.iter().enumerate() {
            if unf && assignment[a].is_none() {
                assignment[a] = Some(false);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    assemble_model(program, &assignment)
}

/// Builds a [`Model`] from a settled assignment over a ground program's
/// atoms, in one pass.  The base is the atoms some rule mentions (an id
/// maintenance left behind is no part of it).  The result depends only on
/// the assignment values (the model is ordered by term), never on the order
/// that produced them.
pub(crate) fn assemble_model(program: &GroundProgram, assignment: &Assignment) -> Model {
    let mentioned = program.mentioned();
    let atoms = program.atoms.interner();
    let base = atoms.iter().filter(|(id, _)| mentioned[id.index()]);
    base.map(|(id, atom)| {
        let truth = match assignment[id.index()] {
            Some(true) => Truth::True,
            Some(false) => Truth::False,
            None => Truth::Undefined,
        };
        (atom.clone(), truth)
    })
    .collect()
}

/// Computes the well-founded model of a ground program — the one model
/// entry point, for every caller.
///
/// The atom dependency graph is condensed into strongly connected
/// components, settled in Tarjan order, dependencies first, on one
/// `Propagator`: the splitting property of the well-founded semantics along
/// the whole condensation.  Each value is propagated once and each
/// unfounded pass covers one component, so no component is ever re-scanned,
/// and the model is the one Definition 3.5's global iteration yields.
///
/// It runs to completion whatever deadline the calling thread carries:
/// `checked_well_founded_eval` is the same evaluation under it, and every
/// caller inside the workspace's crates uses that one.  Only the benchmark
/// package and the tests call this wrapper; `_threads` is inert, since
/// evaluation runs on the calling thread.  The parameter, and this wrapper,
/// stay only while the benchmark package pins this signature (ROADMAP 1(c)
/// removes it).
pub fn well_founded_eval(program: &GroundProgram, _threads: usize) -> Model {
    with_deadline(None, || checked_well_founded_eval(program)).expect("no deadline to pass")
}

/// [`well_founded_eval`] under the calling thread's deadline, which it
/// checks once per unfounded pass, so at least once per component.
pub(crate) fn checked_well_founded_eval(program: &GroundProgram) -> Result<Model, EngineError> {
    Ok(Propagator::well_founded(program)?.model())
}

/// The well-founded model of a ground program that is *locally stratified*
/// (Definition 6.2: no cycle of the atom dependency graph passes through a
/// negative edge), or `None` if it is not — Step 5 of Figure 1 in one pass.
///
/// A negative edge lies on a cycle exactly when its two ends share a
/// strongly connected component, so the test reads the condensation
/// [`well_founded_eval`] builds anyway, and the components are then settled
/// over that same condensation, checking the deadline once per pass.
/// A locally stratified program's model is total.
pub(crate) fn stratified_eval(program: &GroundProgram) -> Result<Option<Model>, EngineError> {
    let condensation = condensation(program);
    let scc_of = &condensation.scc_of;
    let negative_cycle = program.id_rules.iter().any(|rule| {
        let head = scc_of[rule.head.index()];
        rule.neg.iter().any(|q| scc_of[q.index()] == head)
    });
    if negative_cycle {
        return Ok(None);
    }
    Ok(Some(settle_components(program, &condensation)?.model()))
}

/// The condensation of the atom dependency graph.
struct Condensation {
    /// The strongly connected components, each's members sorted,
    /// dependencies before dependents (the shared Tarjan's order).
    sccs: Components,
    /// Each atom's index into `sccs`.
    scc_of: Vec<usize>,
}

/// Condenses the atom dependency graph — one vertex per atom id, an edge
/// from every rule head to each of its (positive *and* negative) body atoms.
fn condensation(program: &GroundProgram) -> Condensation {
    let n = program.atoms.interner().len();
    let mut adj: Vec<Vec<AtomId>> = vec![Vec::new(); n];
    for rule in &program.id_rules {
        adj[rule.head.index()].extend(rule.pos.iter().chain(&rule.neg));
    }
    let mut sccs = strongly_connected_components(n, |v| adj[v].iter().map(|a| a.index()));
    sccs.members_mut().for_each(<[usize]>::sort_unstable);
    let scc_of = sccs.component_of(n);
    Condensation { sccs, scc_of }
}

/// Settles every component of `condensation` in order on one propagator.
/// Tarjan's order puts each component after everything it depends on, so
/// an unfounded pass over a component reads only settled atoms outside it,
/// and propagation never sets an atom of a component already settled.
fn settle_components<'a>(
    program: &'a GroundProgram,
    condensation: &Condensation,
) -> Result<Propagator<'a>, EngineError> {
    let mut propagator = Propagator::new(program);
    for members in condensation.sccs.iter() {
        let consistent = propagator.settle(members)?;
        debug_assert!(consistent, "the well-founded settle met a conflict");
    }
    Ok(propagator)
}

/// The one `W_P` propagator over a [`GroundProgram`], which the
/// well-founded settle and the stable-model search share.  An atom is
/// indexed by [`AtomId::index`], a rule by its position in `id_rules`.
pub(crate) struct Propagator<'a> {
    program: &'a GroundProgram,
    /// Per atom, its value: `None` while undefined.
    value: Vec<Option<bool>>,
    /// Per atom, the rules whose head it is.
    rules_of: Vec<Vec<u32>>,
    /// Per atom, the body literals that read it, each `rule << 1 | positive`.
    uses: Vec<Vec<u32>>,
    /// Per rule, its body literals not yet true: at 0 its head is true.
    pending: Vec<u32>,
    /// Per rule, its body literals that are false.
    falses: Vec<u32>,
    /// Per atom, its rules with no false body literal: at 0 it is false.
    open: Vec<u32>,
    /// Every atom set, in the order set: those below `done` are propagated,
    /// the rest are the queue.
    trail: Vec<usize>,
    done: usize,
    /// Scratch of [`Propagator::unfounded`], so a pass costs its set: per
    /// atom the last pass that put it in the set and that founded it, per
    /// rule its positive body atoms in the set not yet founded, the founded
    /// atoms whose readers are due.
    pass: u32,
    member: Vec<u32>,
    founded: Vec<u32>,
    support: Vec<u32>,
    queue: Vec<usize>,
}

impl<'a> Propagator<'a> {
    /// A propagator over `program` with every fact true and every atom that
    /// heads no rule false, queued and not yet propagated.
    fn new(program: &'a GroundProgram) -> Self {
        let n = program.atoms.interner().len();
        let rules = &program.id_rules;
        let mut rules_of = vec![Vec::new(); n];
        let mut uses = vec![Vec::new(); n];
        for (r, rule) in (0u32..).zip(rules) {
            rules_of[rule.head.index()].push(r);
            let pos = rule.pos.iter().map(|p| (p, r << 1 | 1));
            for (atom, literal) in pos.chain(rule.neg.iter().map(|q| (q, r << 1))) {
                uses[atom.index()].push(literal);
            }
        }
        let pending = rules.iter().map(|r| (r.pos.len() + r.neg.len()) as u32);
        let mut propagator = Propagator {
            program,
            value: vec![None; n],
            open: rules_of.iter().map(|of| of.len() as u32).collect(),
            rules_of,
            uses,
            pending: pending.collect(),
            falses: vec![0; rules.len()],
            trail: Vec::new(),
            done: 0,
            pass: 0,
            member: vec![0; n],
            founded: vec![0; n],
            support: vec![0; rules.len()],
            queue: Vec::new(),
        };
        for rule in rules.iter().filter(|r| r.is_fact()) {
            propagator.set(rule.head.index(), true);
        }
        for atom in 0..n {
            if propagator.open[atom] == 0 {
                propagator.set(atom, false);
            }
        }
        propagator
    }

    /// The propagator settled to `program`'s well-founded model, component
    /// by component.
    pub(crate) fn well_founded(program: &'a GroundProgram) -> Result<Self, EngineError> {
        settle_components(program, &condensation(program))
    }

    /// The value of `atom`.
    pub(crate) fn value(&self, atom: usize) -> Option<bool> {
        self.value[atom]
    }

    /// The model the values make.
    pub(crate) fn model(&self) -> Model {
        assemble_model(self.program, &self.value)
    }

    /// A mark to [undo](Self::undo) back to: the trail's length.
    pub(crate) fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Sets `atom` to `value` and queues it, unless it has a value already:
    /// `false` if that value is the other one.
    pub(crate) fn set(&mut self, atom: usize, value: bool) -> bool {
        match self.value[atom] {
            Some(old) => old == value,
            None => {
                self.value[atom] = Some(value);
                self.trail.push(atom);
                true
            }
        }
    }

    /// Propagates, then sets false what one unfounded pass over `atoms`
    /// finds, until a pass finds nothing, looking at the deadline once per
    /// pass.  `Ok(false)` on a conflict: an atom set both ways, whether
    /// derived, left with no open rule or found unfounded.
    pub(crate) fn settle(&mut self, atoms: &[usize]) -> Result<bool, EngineError> {
        loop {
            if !self.propagate() {
                return Ok(false);
            }
            check_deadline()?;
            let unfounded = self.unfounded(atoms);
            if unfounded.is_empty() {
                return Ok(true);
            }
            for atom in unfounded {
                if !self.set(atom, false) {
                    return Ok(false);
                }
            }
        }
    }

    /// Takes back every value set since `mark`, with what propagating it
    /// counted.
    pub(crate) fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let atom = self.trail.pop().expect("above the mark");
            if self.trail.len() < self.done {
                for k in 0..self.uses[atom].len() {
                    let (rule, head, holds) = self.literal(atom, k);
                    if holds {
                        self.pending[rule] += 1;
                    } else {
                        self.falses[rule] -= 1;
                        self.open[head] += u32::from(self.falses[rule] == 0);
                    }
                }
            }
            self.value[atom] = None;
        }
        self.done = self.done.min(mark);
    }

    /// Propagates the queued values through the counters: a rule whose body
    /// is all true makes its head true (`T_P`), and an atom whose every rule
    /// has a false body literal is false.  `false` on a conflict, with the
    /// atom that met it fully counted.
    fn propagate(&mut self) -> bool {
        let mut consistent = true;
        while consistent && self.done < self.trail.len() {
            let atom = self.trail[self.done];
            self.done += 1;
            for k in 0..self.uses[atom].len() {
                let (rule, head, holds) = self.literal(atom, k);
                if holds {
                    self.pending[rule] -= 1;
                    if self.pending[rule] == 0 {
                        consistent &= self.set(head, true);
                    }
                } else {
                    self.falses[rule] += 1;
                    if self.falses[rule] == 1 {
                        self.open[head] -= 1;
                        if self.open[head] == 0 {
                            consistent &= self.set(head, false);
                        }
                    }
                }
            }
        }
        consistent
    }

    /// The `k`-th body literal that reads `atom`: its rule, the rule's head,
    /// and whether `atom`'s value makes the literal true.
    fn literal(&self, atom: usize, k: usize) -> (usize, usize, bool) {
        let literal = self.uses[atom][k];
        let rule = (literal >> 1) as usize;
        let holds = (literal & 1 == 1) == (self.value[atom] == Some(true));
        (rule, self.program.id_rules[rule].head.index(), holds)
    }

    /// The greatest unfounded set within `atoms`, those outside founded unless
    /// false: the members not false and not founded by a rule free of false
    /// body literals.  A true one is the caller's conflict.  The pass costs
    /// the members' rules and readers, not the grounding.
    fn unfounded(&mut self, atoms: &[usize]) -> Vec<usize> {
        self.pass += 1;
        let pass = self.pass;
        for &atom in atoms {
            if self.value[atom] != Some(false) {
                self.member[atom] = pass;
            }
        }
        let rules = &self.program.id_rules;
        for &atom in atoms.iter().filter(|&&a| self.member[a] == pass) {
            for &rule in &self.rules_of[atom] {
                let rule = rule as usize;
                if self.falses[rule] > 0 {
                    continue;
                }
                let inside = rules[rule].pos.iter();
                self.support[rule] =
                    inside.filter(|p| self.member[p.index()] == pass).count() as u32;
                if self.support[rule] == 0 && self.founded[atom] != pass {
                    self.founded[atom] = pass;
                    self.queue.push(atom);
                }
            }
        }
        while let Some(atom) = self.queue.pop() {
            for &literal in self.uses[atom].iter().filter(|&&l| l & 1 == 1) {
                let rule = (literal >> 1) as usize;
                let head = rules[rule].head.index();
                if self.member[head] != pass || self.falses[rule] > 0 {
                    continue;
                }
                self.support[rule] -= 1;
                if self.support[rule] == 0 && self.founded[head] != pass {
                    self.founded[head] = pass;
                    self.queue.push(head);
                }
            }
        }
        let unfounded = |&a: &usize| self.member[a] == pass && self.founded[a] != pass;
        atoms.iter().copied().filter(unfounded).collect()
    }
}

/// Computes the well-founded model of a program instantiated over an
/// explicitly enumerated universe slice (the literal reading of Section 4 for
/// programs that are not range restricted, e.g. Example 4.1).
pub fn well_founded_model_over_universe(
    program: &Program,
    universe: &[Term],
    opts: EvalOptions,
) -> Result<Model, EngineError> {
    let ground = ground_over_universe(program, universe, opts)?;
    checked_well_founded_eval(&ground)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundRule;
    use crate::grounder::relevant_ground;
    use crate::session::HiLogDb;
    use crate::stable::gelfond_lifschitz_check;
    use hilog_core::{is_locally_stratified_ground, Literal, Rule};
    use hilog_syntax::{parse_program, parse_term};

    fn wfs(text: &str) -> Model {
        HiLogDb::new(parse_program(text).unwrap())
            .model()
            .unwrap()
            .clone()
    }

    fn t(s: &str) -> Term {
        parse_term(s).unwrap()
    }

    #[test]
    fn example_3_1_well_founded_model() {
        // p :- q.  q :- p.  r :- s, not p.  s.  t :- not r.  u :- not u.
        let m = wfs("p :- q. q :- p. r :- s, not p. s. t :- not r. u :- not u.");
        assert_eq!(m.truth(&t("s")), Truth::True);
        assert_eq!(m.truth(&t("r")), Truth::True);
        assert_eq!(m.truth(&t("p")), Truth::False);
        assert_eq!(m.truth(&t("q")), Truth::False);
        assert_eq!(m.truth(&t("t")), Truth::False);
        assert_eq!(m.truth(&t("u")), Truth::Undefined);
        assert!(!m.is_total());
    }

    #[test]
    fn example_3_2_everything_undefined() {
        // p :- not q.  q :- not p.  r :- p.  r :- q.  t :- p, not p.
        let m = wfs("p :- not q. q :- not p. r :- p. r :- q. t :- p, not p.");
        for atom in ["p", "q", "r"] {
            assert_eq!(m.truth(&t(atom)), Truth::Undefined, "{atom}");
        }
        // t can never be true (it needs p and not p), but it is not decided
        // false either by W_P?  It is: the rule's body contains complementary
        // literals, so t is unfounded once p is... p stays undefined, so the
        // rule for t has no witness of unusability and t stays undefined.
        assert_eq!(m.truth(&t("t")), Truth::Undefined);
        assert!(!m.is_total());
    }

    #[test]
    fn win_move_game_example_6_1() {
        // A chain a -> b -> c: a and c lose... actually winning(b) is true
        // (b moves to c which has no moves), winning(a) is false (its only
        // move hands b a winning position), winning(c) is false (no moves).
        let m = wfs("winning(X) :- move(X, Y), not winning(Y).\n\
                     move(a, b). move(b, c).");
        assert_eq!(m.truth(&t("winning(b)")), Truth::True);
        assert_eq!(m.truth(&t("winning(a)")), Truth::False);
        assert_eq!(m.truth(&t("winning(c)")), Truth::False);
        assert!(m.is_total());
    }

    #[test]
    fn win_move_with_cycle_has_undefined_positions() {
        // A pure two-position cycle is a draw: both positions are undefined
        // in the well-founded model (the game analogue of Example 3.2).
        let m = wfs("winning(X) :- move(X, Y), not winning(Y).\n\
                     move(a, b). move(b, a).");
        assert_eq!(m.truth(&t("winning(a)")), Truth::Undefined);
        assert_eq!(m.truth(&t("winning(b)")), Truth::Undefined);
        assert!(!m.is_total());
        // Adding an escape move from b to a dead-end position c makes the
        // game determinate again: b wins by moving to c, a loses.
        let m2 = wfs("winning(X) :- move(X, Y), not winning(Y).\n\
                      move(a, b). move(b, a). move(b, c).");
        assert_eq!(m2.truth(&t("winning(b)")), Truth::True);
        assert_eq!(m2.truth(&t("winning(a)")), Truth::False);
        assert!(m2.is_total());
    }

    #[test]
    fn hilog_game_program_example_6_3() {
        let m = wfs("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                     game(move1). game(move2).\n\
                     move1(a, b). move1(b, c).\n\
                     move2(x, y).");
        assert_eq!(m.truth(&t("winning(move1)(b)")), Truth::True);
        assert_eq!(m.truth(&t("winning(move1)(a)")), Truth::False);
        assert_eq!(m.truth(&t("winning(move2)(x)")), Truth::True);
        assert_eq!(m.truth(&t("winning(move2)(y)")), Truth::False);
        assert!(m.is_total());
    }

    #[test]
    fn generic_transitive_closure_with_negation() {
        // unreachable pairs via tc and negation: strongly range-restricted
        // variant of Example 2.1 with a graph relation.
        let m = wfs("tc(G)(X, Y) :- graph(G), G(X, Y).\n\
                     tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
                     node(a). node(b). node(c).\n\
                     unreachable(G)(X, Y) :- graph(G), node(X), node(Y), not tc(G)(X, Y).\n\
                     graph(e). e(a, b). e(b, c).");
        assert_eq!(m.truth(&t("tc(e)(a, c)")), Truth::True);
        assert_eq!(m.truth(&t("unreachable(e)(c, a)")), Truth::True);
        assert_eq!(m.truth(&t("unreachable(e)(a, c)")), Truth::False);
        assert!(m.is_total());
    }

    #[test]
    fn example_4_1_depends_on_the_universe() {
        // p :- not q(X).  q(a).
        // Over the normal universe {a}: p is false.
        // Over a HiLog universe slice with extra terms: p is true.
        let p = parse_program("p :- not q(X). q(a).").unwrap();
        use hilog_core::{HerbrandBounds, HerbrandUniverse};
        let normal = HerbrandUniverse::normal(&p, HerbrandBounds::default());
        let m_normal =
            well_founded_model_over_universe(&p, normal.terms(), EvalOptions::default()).unwrap();
        assert_eq!(m_normal.truth(&t("p")), Truth::False);

        let hilog = HerbrandUniverse::hilog(&p, HerbrandBounds::new(2, 1, 200));
        let m_hilog =
            well_founded_model_over_universe(&p, hilog.terms(), EvalOptions::default()).unwrap();
        assert_eq!(m_hilog.truth(&t("p")), Truth::True);
    }

    #[test]
    fn example_5_1_preservation_counterexample_base_case() {
        // P = { p :- X(Y), Y(X). }: p is false in the well-founded model of P
        // alone, true after adding q(r), r(q).
        let m_alone = wfs("p :- X(Y), Y(X).");
        assert_eq!(m_alone.truth(&t("p")), Truth::False);
        let m_extended = wfs("p :- X(Y), Y(X). q(r). r(q).");
        assert_eq!(m_extended.truth(&t("p")), Truth::True);
    }

    #[test]
    fn example_6_4_has_total_wfs() {
        let m = wfs("p(X) :- t(X, Y, Z, P), not p(Y), not p(Z).\n\
                     t(a, b, a, p).\n\
                     t(c, a, b, p).\n\
                     p(b) :- t(X, Y, b, P).");
        assert_eq!(m.truth(&t("p(b)")), Truth::True);
        assert_eq!(m.truth(&t("p(a)")), Truth::False);
        assert_eq!(m.truth(&t("p(c)")), Truth::False);
        assert!(m.is_total());
    }

    #[test]
    fn stratified_program_wfs_is_total_and_standard() {
        let m = wfs("reach(X) :- source(X).\n\
                     reach(Y) :- reach(X), edge(X, Y).\n\
                     blocked(X) :- node(X), not reach(X).\n\
                     source(a). edge(a, b). node(a). node(b). node(c). edge(b, b).");
        assert!(m.is_total());
        assert_eq!(m.truth(&t("reach(b)")), Truth::True);
        assert_eq!(m.truth(&t("blocked(c)")), Truth::True);
        assert_eq!(m.truth(&t("blocked(b)")), Truth::False);
    }

    #[test]
    fn the_stable_check_agrees_with_wfs_on_total_models() {
        let p = parse_program("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).")
            .unwrap();
        let gp = relevant_ground(&p, EvalOptions::default()).unwrap();
        let m = well_founded_of_ground(&gp);
        assert!(m.is_total());
        assert!(gelfond_lifschitz_check(&gp, &m));
        // Flipping an atom makes it no stable model.
        let mut wrong = m.clone();
        wrong.set_true(t("winning(a)"));
        assert!(!gelfond_lifschitz_check(&gp, &wrong));
    }

    #[test]
    fn empty_program_has_empty_model() {
        let m = well_founded_of_ground(&GroundProgram::new());
        assert!(m.is_total());
        assert!(m.base().is_empty());
    }

    #[test]
    fn component_evaluation_matches_the_reference_on_mixed_programs() {
        // Total, partial, cyclic, and multi-SCC shapes; settling component
        // by component must reproduce Definition 3.5's model.
        let programs = [
            "p :- q. q :- p. r :- s, not p. s. t :- not r. u :- not u.",
            "p :- not q. q :- not p. r :- p. r :- q. t :- p, not p.",
            "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c). move(c, a).",
            "w1(X) :- m1(X, Y), not w1(Y). w2(X) :- m2(X, Y), not w2(Y).\n\
             m1(a, b). m1(b, c). m2(u, v). m2(v, u).",
            "reach(X) :- source(X). reach(Y) :- reach(X), edge(X, Y).\n\
             blocked(X) :- node(X), not reach(X).\n\
             source(a). edge(a, b). node(a). node(b). node(c). edge(b, b).",
            // Shapes only the unfounded pass, or a settle that walks one atom
            // per round, decides.
            LASSO,
            TWO_LASSOS,
            "p :- q. q :- p. r :- not p. s :- r, not q. u :- q, not s.",
            &gated_loops(6),
        ];
        for text in programs {
            let gp =
                relevant_ground(&parse_program(text).unwrap(), EvalOptions::default()).unwrap();
            assert_eq!(
                well_founded_eval(&gp, 1),
                well_founded_of_ground(&gp),
                "diverged on `{text}`"
            );
        }
    }

    /// A lasso game: a cycle of five positions with one exit, from `p0`.
    /// Its model is total, and settling it walks the cycle one position at a
    /// time.
    const LASSO: &str = "winning(X) :- move(X, Y), not winning(Y).\n\
         move(p0, p1). move(p1, p2). move(p2, p3). move(p3, p4). move(p4, p0). move(p0, out).";

    /// Two lassos that share the node `n0`, each with an exit of its own.
    const TWO_LASSOS: &str = "winning(X) :- move(X, Y), not winning(Y).\n\
         move(n0, n1). move(n1, n2). move(n2, n0). move(n1, e1).\n\
         move(n0, m1). move(m1, m2). move(m2, m3). move(m3, n0). move(m2, e2).";

    /// A chain of `k` gated positive loops: `g0.`, and for each `i`
    /// `x_i :- y_i.`, `y_i :- x_i.`, `y_i :- not g_i.` and
    /// `g_{i+1} :- not x_i.`  Each loop becomes unfounded only once the one
    /// before it is.
    fn gated_loops(k: usize) -> String {
        let mut text = String::from("g0.\n");
        for i in 0..k {
            let next = i + 1;
            text.push_str(&format!(
                "x{i} :- y{i}. y{i} :- x{i}. y{i} :- not g{i}. g{next} :- not x{i}.\n"
            ));
        }
        text
    }

    /// Random ground programs over a handful of atoms, so positive and
    /// negative cycles are common, with each one's rules as terms.
    fn random_ground_programs(count: usize) -> Vec<Vec<GroundRule>> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let atom = |i: u64| Term::sym(format!("a{i}"));
        let mut programs = Vec::new();
        for _ in 0..count {
            let atoms = 2 + draw(6);
            let rules: Vec<GroundRule> = (0..1 + draw(10))
                .map(|_| {
                    let head = atom(draw(atoms));
                    let pos = (0..draw(3)).map(|_| atom(draw(atoms))).collect();
                    let neg = (0..draw(2)).map(|_| atom(draw(atoms))).collect();
                    GroundRule::new(head, pos, neg)
                })
                .collect();
            programs.push(rules);
        }
        programs
    }

    #[test]
    fn stratified_eval_agrees_with_the_definitional_references() {
        // `stratified_eval` accepts exactly the random programs the
        // atom-graph reference calls locally stratified, and its model is
        // Definition 3.5's.
        let (mut accepted, mut rejected) = (0, 0);
        for rules in random_ground_programs(400) {
            let as_rules: Vec<Rule> = rules
                .iter()
                .map(|r| {
                    let pos = r.pos.iter().cloned().map(Literal::Pos);
                    let neg = r.neg.iter().cloned().map(Literal::Neg);
                    Rule::new(r.head.clone(), pos.chain(neg).collect())
                })
                .collect();
            let stratified = is_locally_stratified_ground(&as_rules);
            let gp = GroundProgram::from_rules(rules);
            match stratified_eval(&gp).unwrap() {
                Some(m) => {
                    assert!(stratified, "accepted a negative cycle: {as_rules:?}");
                    assert!(m.is_total());
                    assert_eq!(m, well_founded_of_ground(&gp));
                }
                None => assert!(!stratified, "rejected a stratified program: {as_rules:?}"),
            }
            if stratified {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            accepted > 40 && rejected > 40,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn undo_restores_what_the_propagator_held_at_the_mark() {
        // On the random programs, propagated but not settled, up to four
        // nested assumptions on undefined atoms, each settled over every
        // atom, conflicts included; undoing
        // them one at a time must give back, at each mark, every value and
        // counter the propagator held there.
        let held = |p: &Propagator| {
            let counters = (p.pending.clone(), p.falses.clone(), p.open.clone());
            (p.value.clone(), counters, p.trail.clone(), p.done)
        };
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut undone, mut conflicts) = (0, 0);
        for rules in random_ground_programs(400) {
            let gp = GroundProgram::from_rules(rules);
            let all: Vec<usize> = (0..gp.atoms.interner().len()).collect();
            let mut propagator = Propagator::new(&gp);
            let mut marks = Vec::new();
            let mut consistent = propagator.propagate();
            while consistent && marks.len() < 4 {
                let open: Vec<usize> = (all.iter().copied())
                    .filter(|&a| propagator.value(a).is_none())
                    .collect();
                if open.is_empty() {
                    break;
                }
                marks.push((propagator.mark(), held(&propagator)));
                propagator.set(open[draw(open.len())], draw(2) == 1);
                consistent = propagator.settle(&all).unwrap();
                conflicts += usize::from(!consistent);
            }
            while let Some((mark, at_mark)) = marks.pop() {
                propagator.undo(mark);
                assert!(held(&propagator) == at_mark, "undo({mark}) on {gp}");
                undone += 1;
            }
        }
        assert!(
            undone > 200 && conflicts > 20,
            "{undone} undos, {conflicts} conflicts"
        );
    }

    #[test]
    fn component_evaluation_of_empty_program_is_empty() {
        let m = well_founded_eval(&GroundProgram::new(), 1);
        assert!(m.is_total());
        assert!(m.base().is_empty());
    }

    #[test]
    fn deep_chain_settles_component_by_component() {
        // Every position of a chain game is its own component and depends
        // on the next one, so the condensation is as deep as the chain:
        // more than 2,000 components.  Built directly as a ground program:
        // the point is the component order, not the grounder.
        let n = 2_500usize;
        let pos = |i: usize| Term::sym(format!("p{i}"));
        let winning = |i: usize| Term::apps("winning", vec![pos(i)]);
        let mv = |i: usize| Term::apps("move", vec![pos(i), pos(i + 1)]);
        let gp = GroundProgram::from_rules(
            (0..n)
                .flat_map(|i| {
                    let wins = GroundRule::new(winning(i), vec![mv(i)], vec![winning(i + 1)]);
                    [GroundRule::new(mv(i), vec![], vec![]), wins]
                })
                .collect(),
        );
        let sccs = condensation(&gp).sccs;
        assert!(sccs.len() >= 2_000, "{} components", sccs.len());

        let model = well_founded_eval(&gp, 1);
        assert!(model.is_total());
        // The last position has no move and loses; winners alternate back
        // from it.
        for i in 0..=n {
            assert_eq!(
                model.is_true(&winning(i)),
                (n - i) % 2 == 1,
                "winning(p{i})"
            );
        }
    }
}
