//! The well-founded semantics (Section 3.1, extended to HiLog in Section 4).
//!
//! Definitions 3.3–3.5 of the paper are implemented directly on the
//! instantiated (ground) program:
//!
//! * `T_P(I)` — an atom is derived if some instantiated rule has every body
//!   literal true in `I`;
//! * `U_P(I)` — the greatest unfounded set with respect to `I`, computed as
//!   the complement of the least *founded* set (an atom is founded if some
//!   rule for it has no witness of unusability and all its positive body
//!   atoms are already founded);
//! * `W_P(I) = T_P(I) ∪ ¬·U_P(I)`, iterated from the empty interpretation to
//!   its least fixpoint, the well-founded partial model.
//!
//! There is **one evaluation**: [`well_founded_eval`] settles the strongly
//! connected components of the ground atom dependency graph one at a time on
//! the calling thread, lower components first — Ross's
//! component-by-component evaluation (Section 6, Figure 1) applied to the
//! atoms of the well-founded construction — and it is how every model is
//! obtained, the model after a write included (the session keeps the
//! *grounding* current and evaluates it again).  The literal global `W_P`
//! iteration is kept too, with no production caller: it is the definitional
//! reference the oracles hold the component order to.
//!
//! The HiLog well-founded semantics is obtained by applying exactly the same
//! construction to the HiLog instantiation of the program (Section 4); the
//! caller chooses the instantiation strategy (relevant or bounded-universe,
//! see [`crate::grounder`]).

use crate::error::EngineError;
use crate::ground::{GroundProgram, IdRule};
use crate::grounder::ground_over_universe;
use crate::horn::EvalOptions;
use hilog_core::analysis::strongly_connected_components;
use hilog_core::intern::AtomId;
use hilog_core::interpretation::{Model, Truth};
use hilog_core::program::Program;
use hilog_core::term::Term;

/// A three-valued assignment over a [`GroundProgram`]'s atoms, indexed by
/// [`AtomId::index`]: `Some(true)` = true, `Some(false)` = false, `None` =
/// undefined.
type Assignment = [Option<bool>];

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
/// fixpoint, literally as Definition 3.5 states it.
///
/// No production path calls this — every evaluation goes through
/// [`well_founded_eval`] — and it re-scans the whole program once per
/// iteration, which is quadratic on deep chains.  It exists
/// so the oracles (`tests/wfs_reference.rs`, the unit tests below) can hold
/// the component order to the paper's definition.
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
fn assemble_model(program: &GroundProgram, assignment: &Assignment) -> Model {
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
/// components and the components are settled in Tarjan order, dependencies
/// first, each by an alternating fixpoint over its own rules with every
/// earlier-settled atom read as fixed external context: the splitting
/// property of the well-founded semantics applied along the whole
/// condensation.  No component is ever re-scanned, and the model is the one
/// Definition 3.5's global iteration yields.
///
/// `_threads` is inert: evaluation runs on the calling thread.  The
/// parameter stays only while the benchmark package pins this signature
/// (ROADMAP 1(c) removes it).
pub fn well_founded_eval(program: &GroundProgram, _threads: usize) -> Model {
    let assignment = settle_components(program, &condensation(program));
    assemble_model(program, &assignment)
}

/// The well-founded model of a ground program that is *locally stratified*
/// (Definition 6.2: no cycle of the atom dependency graph passes through a
/// negative edge), or `None` if it is not — Step 5 of Figure 1 in one pass.
///
/// A negative edge lies on a cycle exactly when its two ends share a
/// strongly connected component, so the test reads the condensation
/// [`well_founded_eval`] builds anyway, and the components are then settled
/// over that same condensation.  A locally stratified program's model is
/// total.
pub(crate) fn stratified_eval(program: &GroundProgram) -> Option<Model> {
    let condensation = condensation(program);
    let scc_of = &condensation.scc_of;
    let negative_cycle = program.id_rules.iter().any(|rule| {
        let head = scc_of[rule.head.index()];
        rule.neg.iter().any(|q| scc_of[q.index()] == head)
    });
    if negative_cycle {
        return None;
    }
    let assignment = settle_components(program, &condensation);
    Some(assemble_model(program, &assignment))
}

/// The condensation of the atom dependency graph.
struct Condensation {
    /// The strongly connected components as sorted member lists,
    /// dependencies before dependents (the shared Tarjan's order).
    sccs: Vec<Vec<usize>>,
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
    let mut scc_of = vec![usize::MAX; n];
    for (si, members) in sccs.iter_mut().enumerate() {
        members.sort_unstable();
        for &m in members.iter() {
            scc_of[m] = si;
        }
    }
    Condensation { sccs, scc_of }
}

/// Settles every component of `condensation` in order into one assignment.
/// Tarjan's order puts each component after everything it depends on, so a
/// component only ever reads atoms that are already settled.
fn settle_components(program: &GroundProgram, condensation: &Condensation) -> Vec<Option<bool>> {
    let mut rules_by_head: Vec<Vec<&IdRule>> = vec![Vec::new(); program.atoms.interner().len()];
    for rule in &program.id_rules {
        rules_by_head[rule.head.index()].push(rule);
    }
    let mut assignment = vec![None; program.atoms.interner().len()];
    for members in &condensation.sccs {
        let rules: Vec<&IdRule> = members
            .iter()
            .flat_map(|&m| rules_by_head[m].iter().copied())
            .collect();
        let values = eval_component(&rules, members, &assignment);
        for (&atom, value) in members.iter().zip(values) {
            assignment[atom] = value;
        }
    }
    assignment
}

/// Settles one strongly connected component: the alternating `W_P` fixpoint
/// restricted to `rules`, the rules whose head lies in the component, with
/// every non-member body atom read from the settled assignment as fixed
/// context.  A settled external atom counts as founded exactly when it is
/// not false (at the fixpoint of the full computation the unfounded set is
/// the set of false atoms).  Returns the members' final truth values, in
/// member order; recording them is the caller's job.
fn eval_component(rules: &[&IdRule], members: &[usize], settled: &Assignment) -> Vec<Option<bool>> {
    // Members are sorted, so a binary search beats a hash map at the
    // typical component size (a singleton, for any stratified program).
    let local_idx = |a: AtomId| members.binary_search(&a.index()).ok();
    let mut local: Vec<Option<bool>> = vec![None; members.len()];
    let value = |local: &[Option<bool>], a: AtomId| -> Option<bool> {
        match local_idx(a) {
            Some(li) => local[li],
            None => settled[a.index()],
        }
    };

    loop {
        let mut changed = false;
        // T_P restricted to the component's rules.
        let trues: Vec<usize> = rules
            .iter()
            .filter(|rule| {
                rule.pos.iter().all(|&p| value(&local, p) == Some(true))
                    && rule.neg.iter().all(|&q| value(&local, q) == Some(false))
            })
            .map(|rule| local_idx(rule.head).expect("rule head is a member"))
            .collect();
        // Greatest unfounded set restricted to the members: the founded
        // least fixpoint over the component's rules, externals pre-founded
        // unless false.
        let usable: Vec<bool> = rules
            .iter()
            .map(|rule| {
                rule.pos.iter().all(|&p| value(&local, p) != Some(false))
                    && rule.neg.iter().all(|&q| value(&local, q) != Some(true))
            })
            .collect();
        let mut founded = vec![false; members.len()];
        let mut grew = true;
        while grew {
            grew = false;
            for (rule, &usable) in rules.iter().zip(&usable) {
                if !usable {
                    continue;
                }
                let head = local_idx(rule.head).expect("rule head is a member");
                if founded[head] {
                    continue;
                }
                let supported = rule.pos.iter().all(|&p| match local_idx(p) {
                    Some(pl) => founded[pl],
                    None => settled[p.index()] != Some(false),
                });
                if supported {
                    founded[head] = true;
                    grew = true;
                }
            }
        }
        for li in trues {
            if local[li] != Some(true) {
                local[li] = Some(true);
                changed = true;
            }
        }
        for (li, &f) in founded.iter().enumerate() {
            if !f && local[li].is_none() {
                local[li] = Some(false);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    local
}

/// Checks whether a *total* candidate assignment over the ground program's
/// atoms is a fixpoint of `W_P` — the characterisation of stable models used
/// by Definition 3.6.  `candidate` maps every atom some rule mentions to a
/// truth value via [`Model::is_true`] (atoms outside its base count as
/// false).
pub fn is_two_valued_fixpoint(program: &GroundProgram, candidate: &Model) -> bool {
    let atoms = program.atoms.interner().terms();
    let assignment: Vec<Option<bool>> = atoms.iter().map(|a| Some(candidate.is_true(a))).collect();
    // T_P(I) must be exactly the true atoms, and U_P(I) exactly the false ones.
    let mut derived = vec![false; assignment.len()];
    for a in t_p(program, &assignment) {
        derived[a.index()] = true;
    }
    let unfounded = greatest_unfounded_set(program, &assignment);
    let mentioned = program.mentioned();
    (0..assignment.len()).filter(|&id| mentioned[id]).all(|id| {
        let is_true = assignment[id] == Some(true);
        is_true == derived[id] && is_true != unfounded[id]
    })
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
    Ok(well_founded_eval(&ground, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundRule;
    use crate::grounder::relevant_ground;
    use crate::session::HiLogDb;
    use hilog_core::analysis::is_locally_stratified_ground;
    use hilog_core::literal::Literal;
    use hilog_core::rule::Rule;
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
        use hilog_core::herbrand::{HerbrandBounds, HerbrandUniverse};
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
    fn two_valued_fixpoint_check_agrees_with_wfs_on_total_models() {
        let p = parse_program("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).")
            .unwrap();
        let gp = relevant_ground(&p, EvalOptions::default()).unwrap();
        let m = well_founded_of_ground(&gp);
        assert!(m.is_total());
        assert!(is_two_valued_fixpoint(&gp, &m));
        // Flipping an atom breaks the fixpoint property.
        let mut wrong = m.clone();
        wrong.set_true(t("winning(a)"));
        assert!(!is_two_valued_fixpoint(&gp, &wrong));
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

    #[test]
    fn stratified_eval_agrees_with_the_definitional_references() {
        // Random ground programs over a handful of atoms, so positive and
        // negative cycles are common: `stratified_eval` accepts exactly the
        // programs the atom-graph reference calls locally stratified, and
        // its model is Definition 3.5's.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let atom = |i: u64| Term::sym(format!("a{i}"));
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..400 {
            let atoms = 2 + draw(6);
            let rules: Vec<GroundRule> = (0..1 + draw(10))
                .map(|_| {
                    let head = atom(draw(atoms));
                    let pos = (0..draw(3)).map(|_| atom(draw(atoms))).collect();
                    let neg = (0..draw(2)).map(|_| atom(draw(atoms))).collect();
                    GroundRule::new(head, pos, neg)
                })
                .collect();
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
            match stratified_eval(&gp) {
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
