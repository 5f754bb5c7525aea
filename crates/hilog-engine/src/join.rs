//! Rule plans and the one join executor.
//!
//! Every join of a rule body against stored atoms runs a [`RulePlan`]: the
//! rule compiled once, its variables numbered into slots.  The semi-naive
//! driver (and with it the grounder and the assert continuation), the
//! session's spontaneous-fact check and the definitional grounding reference
//! run [`RulePlan::join`].  Three callers walk the same plans depth first
//! over one [`Frame`] with the same operations, each against its own
//! source: the tabled evaluator (left to right over subgoal tables), Figure
//! 1's HiLog reduction (the first literal the settled model can resolve)
//! and the full-model query route (left to right over a three-valued
//! model).
//!
//! A [`Frame`] is the slots of one evaluation with an undo trail: a match
//! binds slots and the trail takes them back, so a join builds no
//! substitution per literal, clones no map per candidate and applies none
//! per probe.  The caller is handed a [`Match`] — the plan, the slots and
//! the positive atoms matched, in body order — and builds from the slots
//! what it needs: the head, the ground rule, the bindings.
//!
//! A positive literal is joined one way: instantiated from the slots, then
//! one `contains` if that is ground, else a probe on its ground argument
//! positions (the argument index the store picks) with each candidate
//! unified into the slots — which binds the literal's free variables and
//! checks its repeated ones.
//!
//! Inside a frame, a variable term with a non-zero generation stands for a
//! slot (its generation less one): an unbound slot inside a built term, or
//! a variable of an imported subgoal pattern.  Source variables and table
//! keys have generation 0, and nothing a frame reads is renamed.

use crate::error::EngineError;
use crate::horn::NegationMode;
use crate::storage::FactStore;
use hilog_core::{BuiltinCall, BuiltinOp, Literal, Rule, Substitution, Term, Var};
use std::sync::{Arc, OnceLock};

/// A rule term with its variables numbered into slots.
#[derive(Debug, Clone)]
pub(crate) enum Pat {
    /// A subterm with no variable, shared with the rule (an application's
    /// name keeps the rule's own allocation, so building the application
    /// allocates no name).
    Ground(Arc<Term>),
    /// A variable: its slot.
    Slot(usize),
    /// An application with a variable somewhere inside.
    App(Box<Pat>, Box<[Pat]>),
}

impl Pat {
    fn compile(term: &Term, vars: &mut Vec<Var>) -> Pat {
        match term {
            _ if term.is_ground() => Pat::Ground(Arc::new(term.clone())),
            Term::Var(v) => Pat::Slot(match vars.iter().position(|w| w == v) {
                Some(slot) => slot,
                None => {
                    vars.push(v.clone());
                    vars.len() - 1
                }
            }),
            Term::App(name, args) => Pat::App(
                Box::new(match name.is_ground() {
                    true => Pat::Ground(Arc::clone(name)),
                    false => Pat::compile(name, vars),
                }),
                args.iter().map(|a| Pat::compile(a, vars)).collect(),
            ),
            Term::Sym(_) | Term::Int(_) => unreachable!("constants are ground"),
        }
    }
}

/// One body literal, compiled.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// A positive atom.
    Pos(Pat),
    /// A negative atom.
    Neg(Pat),
    /// A builtin.
    Builtin(BuiltinOp, Pat, Pat),
    /// An aggregate: its pattern (the rule keeps the literal).
    Aggregate(Pat),
}

/// A rule compiled once: its variables numbered into slots, its head
/// builder and one [`Step`] per body literal, in body order.
#[derive(Debug, Clone)]
pub(crate) struct RulePlan {
    /// The rule itself, for reports and for the aggregate operator.
    pub(crate) rule: Rule,
    /// The variable behind each slot.
    vars: Vec<Var>,
    pub(crate) head: Pat,
    pub(crate) body: Vec<Step>,
    /// Number of positive body literals.
    pub(crate) positives: usize,
}

impl RulePlan {
    /// Compiles `rule`.
    pub(crate) fn compile(rule: &Rule) -> RulePlan {
        let mut vars = Vec::new();
        let head = Pat::compile(&rule.head, &mut vars);
        let mut body = Vec::with_capacity(rule.body.len());
        let mut positives = 0;
        for lit in &rule.body {
            let step = match lit {
                Literal::Pos(atom) => {
                    positives += 1;
                    Step::Pos(Pat::compile(atom, &mut vars))
                }
                Literal::Neg(atom) => Step::Neg(Pat::compile(atom, &mut vars)),
                Literal::Builtin(b) => Step::Builtin(
                    b.op,
                    Pat::compile(&b.left, &mut vars),
                    Pat::compile(&b.right, &mut vars),
                ),
                Literal::Aggregate(agg) => {
                    // Every variable of the literal gets a slot, so that the
                    // aggregate operator's bindings have somewhere to land.
                    Pat::compile(&agg.result, &mut vars);
                    Pat::compile(&agg.value, &mut vars);
                    Step::Aggregate(Pat::compile(&agg.pattern, &mut vars))
                }
            };
            body.push(step);
        }
        RulePlan {
            rule: rule.clone(),
            vars,
            head,
            body,
            positives,
        }
    }

    /// An empty frame for this plan.
    pub(crate) fn frame(&self) -> Frame {
        Frame {
            slots: vec![None; self.vars.len()],
            trail: Vec::new(),
        }
    }

    /// Joins the body against `store`, depth first in body order, handing
    /// every match to `visit`: every way of matching the positive atoms in
    /// the store under which the builtins hold.  With `delta =
    /// Some((frontier, k))` the `k`-th positive literal (counting positive
    /// literals only) draws from `frontier` instead — the semi-naive
    /// restriction.  Negative literals are skipped under
    /// [`NegationMode::Ignore`] and an error under [`NegationMode::Forbid`]
    /// once a match reaches one; so is an aggregate.
    pub(crate) fn join(
        &self,
        store: &FactStore,
        delta: Option<(&FactStore, usize)>,
        mode: NegationMode,
        visit: &mut dyn FnMut(&Match<'_>) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        Join {
            plan: self,
            store,
            delta,
            mode,
            frame: self.frame(),
            atoms: Vec::with_capacity(self.positives),
            visit,
        }
        .step(0)
    }
}

/// The variable standing for `slot` inside a frame.
fn slot_variable(slot: usize) -> Var {
    static BASE: OnceLock<Var> = OnceLock::new();
    let base = BASE.get_or_init(|| Var::new("_S"));
    base.with_generation(slot as u32 + 1)
}

/// The variable term standing for `slot` inside a frame.
fn slot_var(slot: usize) -> Term {
    Term::Var(slot_variable(slot))
}

/// The slot a variable term inside a frame stands for.
fn slot_of(var: &Var) -> usize {
    debug_assert!(var.generation() > 0, "`{var}` is not a slot");
    var.generation() as usize - 1
}

/// The slots of one evaluation of a plan, with the undo trail.
#[derive(Debug)]
pub(crate) struct Frame {
    slots: Vec<Option<Term>>,
    trail: Vec<usize>,
}

impl Frame {
    /// The trail position to [`undo`](Self::undo) back to.
    pub(crate) fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Unbinds every slot bound since `mark`.
    pub(crate) fn undo(&mut self, mark: usize) {
        for slot in self.trail.drain(mark..) {
            self.slots[slot] = None;
        }
    }

    fn bind(&mut self, slot: usize, value: Term) {
        debug_assert!(self.slots[slot].is_none(), "slot {slot} bound twice");
        self.slots[slot] = Some(value);
        self.trail.push(slot);
    }

    /// Copies `term` into the frame with each of its variables a fresh
    /// slot: the subgoal pattern a tabled expansion unifies the head with.
    pub(crate) fn import(&mut self, term: &Term) -> Term {
        if term.is_ground() {
            return term.clone();
        }
        let vars = term.variables();
        let first = self.slots.len();
        self.slots.resize(first + vars.len(), None);
        fn rename(term: &Term, vars: &[Var], first: usize) -> Term {
            match term {
                Term::Var(v) => slot_var(first + vars.iter().position(|w| w == v).expect("a var")),
                Term::Sym(_) | Term::Int(_) => term.clone(),
                Term::App(name, args) => Term::app(
                    rename(name, vars, first),
                    args.iter().map(|a| rename(a, vars, first)).collect(),
                ),
            }
        }
        rename(term, &vars, first)
    }

    /// The term `pat` stands for under the bindings: unbound slots stay
    /// variables.
    pub(crate) fn instantiate(&self, pat: &Pat) -> Term {
        match pat {
            Pat::Ground(term) => Term::clone(term),
            Pat::Slot(slot) => match &self.slots[*slot] {
                Some(value) => self.resolve(value, &[]),
                None => slot_var(*slot),
            },
            Pat::App(name, args) => Term::App(
                match &**name {
                    Pat::Ground(name) => Arc::clone(name),
                    name => Arc::new(self.instantiate(name)),
                },
                args.iter().map(|a| self.instantiate(a)).collect(),
            ),
        }
    }

    /// `term` with its bound slot variables replaced by their values, and
    /// each unbound slot `names` names by its name.
    fn resolve(&self, term: &Term, names: &[Var]) -> Term {
        self.resolve_shared(term, names)
            .unwrap_or_else(|| term.clone())
    }

    /// `Some(resolved)` if resolving changes `term`; untouched subterms are
    /// shared.
    fn resolve_shared(&self, term: &Term, names: &[Var]) -> Option<Term> {
        match term {
            Term::Var(v) => match &self.slots[slot_of(v)] {
                Some(value) => Some(self.resolve(value, names)),
                None => names.get(slot_of(v)).map(|name| Term::Var(name.clone())),
            },
            Term::Sym(_) | Term::Int(_) => None,
            Term::App(name, args) => {
                let new_name = self.resolve_shared(name, names);
                let mut new_args: Option<Vec<Term>> = None;
                for (i, arg) in args.iter().enumerate() {
                    match self.resolve_shared(arg, names) {
                        Some(changed) => new_args
                            .get_or_insert_with(|| args[..i].to_vec())
                            .push(changed),
                        None => {
                            if let Some(done) = new_args.as_mut() {
                                done.push(arg.clone());
                            }
                        }
                    }
                }
                if new_name.is_none() && new_args.is_none() {
                    return None;
                }
                Some(Term::App(
                    new_name.map_or_else(|| name.clone(), Arc::new),
                    new_args.map_or_else(|| args.clone(), Into::into),
                ))
            }
        }
    }

    /// The value of the slot a bound slot variable stands for.
    fn bound(&self, term: &Term) -> Option<Term> {
        match term {
            Term::Var(v) => self.slots[slot_of(v)].clone(),
            _ => None,
        }
    }

    /// Whether `slot` occurs in `term` under the bindings.
    fn occurs(&self, slot: usize, term: &Term) -> bool {
        match term {
            Term::Var(v) => {
                let other = slot_of(v);
                other == slot
                    || (self.slots[other].as_ref()).is_some_and(|value| self.occurs(slot, value))
            }
            Term::Sym(_) | Term::Int(_) => false,
            Term::App(name, args) => {
                self.occurs(slot, name) || args.iter().any(|a| self.occurs(slot, a))
            }
        }
    }

    /// Binds the slot of the unbound slot variable `var` to `term`, unless
    /// that would make a cycle (the occurs check).
    fn bind_var(&mut self, var: &Var, term: &Term) -> bool {
        if let Term::Var(other) = term {
            if other == var {
                return true;
            }
        }
        let slot = slot_of(var);
        if self.occurs(slot, term) {
            return false;
        }
        self.bind(slot, term.clone());
        true
    }

    /// Unifies two frame terms, binding slots.
    fn unify(&mut self, left: &Term, right: &Term) -> bool {
        if let Some(value) = self.bound(left) {
            return self.unify(&value, right);
        }
        if let Some(value) = self.bound(right) {
            return self.unify(left, &value);
        }
        match (left, right) {
            (Term::Var(x), t) | (t, Term::Var(x)) => self.bind_var(x, t),
            (Term::Sym(a), Term::Sym(b)) => a == b,
            (Term::Int(a), Term::Int(b)) => a == b,
            (Term::App(n1, a1), Term::App(n2, a2)) => {
                if Arc::ptr_eq(n1, n2) && Arc::ptr_eq(a1, a2) {
                    return true;
                }
                a1.len() == a2.len()
                    && self.unify(n1, n2)
                    && a1.iter().zip(a2.iter()).all(|(x, y)| self.unify(x, y))
            }
            _ => false,
        }
    }

    /// Unifies the term `pat` stands for with `term` (a stored atom, an
    /// answer, an imported pattern), binding slots.  On failure the caller
    /// undoes to its mark.
    pub(crate) fn unify_pat(&mut self, pat: &Pat, term: &Term) -> bool {
        if let Some(value) = self.bound(term) {
            return self.unify_pat(pat, &value);
        }
        match pat {
            Pat::Ground(ground) => self.unify(ground, term),
            Pat::Slot(slot) => match (&self.slots[*slot], term) {
                // A constant against a non-variable: equal or not.
                (Some(value @ (Term::Sym(_) | Term::Int(_))), Term::Sym(_) | Term::Int(_)) => {
                    value == term
                }
                (Some(value), _) => {
                    let value = value.clone();
                    self.unify(&value, term)
                }
                (None, _) => self.bind_var(&slot_variable(*slot), term),
            },
            Pat::App(name, args) => match term {
                Term::App(tname, targs) => {
                    targs.len() == args.len()
                        && self.unify_pat(name, tname)
                        && args
                            .iter()
                            .zip(targs.iter())
                            .all(|(p, t)| self.unify_pat(p, t))
                }
                Term::Var(_) => {
                    let built = self.instantiate(pat);
                    self.unify(term, &built)
                }
                _ => false,
            },
        }
    }

    /// Evaluates a builtin of the plan's rule over the bindings, binding
    /// what `is` and `=` bind; `Ok(false)` when it fails.  An error shows
    /// the builtin as the rule spells it, its unbound variables by name.
    pub(crate) fn eval_builtin(
        &mut self,
        plan: &RulePlan,
        op: BuiltinOp,
        left: &Pat,
        right: &Pat,
    ) -> Result<bool, EngineError> {
        let call = BuiltinCall::new(op, self.instantiate(left), self.instantiate(right));
        let mut theta = Substitution::new();
        let holds = call.eval(&mut theta).map_err(|error| {
            let named = |term: &Term| self.resolve(term, &plan.vars);
            let named = BuiltinCall::new(op, named(&call.left), named(&call.right));
            EngineError::Core(named.eval(&mut Substitution::new()).err().unwrap_or(error))
        })?;
        if holds {
            self.absorb(&[], &theta);
        }
        Ok(holds)
    }

    /// The bound variables of the plan's rule, each to its value, in which
    /// an unbound slot of the rule is its variable: the substitution the
    /// aggregate operator reads, and the bindings of a reduced rule or an
    /// answer.
    pub(crate) fn bindings(&self, plan: &RulePlan) -> Substitution {
        let mut theta = Substitution::with_capacity(plan.vars.len());
        for (var, value) in plan.vars.iter().zip(&self.slots) {
            if let Some(value) = value {
                theta.bind(var.clone(), self.resolve(value, &plan.vars));
            }
        }
        theta
    }

    /// Binds the unbound slots `theta` binds — by slot variable, or by the
    /// rule variable `vars` names — to what it binds them to.
    fn absorb(&mut self, vars: &[Var], theta: &Substitution) {
        for (var, _) in theta.iter() {
            let slot = match var.generation() {
                0 => match vars.iter().position(|v| v == var) {
                    Some(slot) => slot,
                    None => continue,
                },
                _ => slot_of(var),
            };
            if self.slots[slot].is_none() {
                let value = theta.apply(&Term::Var(var.clone()));
                self.bind(slot, value);
            }
        }
    }

    /// [`Self::absorb`] with the plan's rule variables.
    pub(crate) fn absorb_rule(&mut self, plan: &RulePlan, theta: &Substitution) {
        self.absorb(&plan.vars, theta);
    }
}

/// One match of a rule body, as [`RulePlan::join`] hands it over.
pub(crate) struct Match<'m> {
    pub(crate) plan: &'m RulePlan,
    pub(crate) frame: &'m Frame,
    /// The positive body atoms matched, in body order.
    pub(crate) atoms: &'m [Term],
}

impl Match<'_> {
    /// The head, or [`EngineError::Floundering`] when the body left a head
    /// variable unbound.
    pub(crate) fn head(&self) -> Result<Term, EngineError> {
        let head = self.frame.instantiate(&self.plan.head);
        if head.is_ground() {
            Ok(head)
        } else {
            Err(EngineError::Floundering(format!(
                "rule `{}` derives the non-ground head `{head}`; the program is not range \
                 restricted (Definition 5.5) so bottom-up evaluation cannot bind it",
                self.plan.rule
            )))
        }
    }

    /// The negative body atoms, in body order, or
    /// [`EngineError::Floundering`] when one is not ground.
    pub(crate) fn negatives(&self) -> Result<Vec<Term>, EngineError> {
        let mut out = Vec::new();
        for step in &self.plan.body {
            if let Step::Neg(pat) = step {
                let atom = self.frame.instantiate(pat);
                if !atom.is_ground() {
                    return Err(EngineError::Floundering(format!(
                        "negative literal `not {atom}` of rule `{}` is not ground after binding \
                         the positive body",
                        self.plan.rule
                    )));
                }
                out.push(atom);
            }
        }
        Ok(out)
    }
}

/// One depth-first join in progress.
struct Join<'j> {
    plan: &'j RulePlan,
    store: &'j FactStore,
    delta: Option<(&'j FactStore, usize)>,
    mode: NegationMode,
    frame: Frame,
    atoms: Vec<Term>,
    visit: &'j mut dyn FnMut(&Match<'_>) -> Result<(), EngineError>,
}

impl<'j> Join<'j> {
    fn step(&mut self, at: usize) -> Result<(), EngineError> {
        let plan = self.plan;
        let Some(step) = plan.body.get(at) else {
            return (self.visit)(&Match {
                plan,
                frame: &self.frame,
                atoms: &self.atoms,
            });
        };
        match step {
            Step::Pos(pat) => {
                let source = match self.delta {
                    Some((frontier, k)) if k == self.atoms.len() => frontier,
                    _ => self.store,
                };
                self.positive(at, pat, source)
            }
            Step::Neg(_) => match self.mode {
                NegationMode::Ignore => self.step(at + 1),
                NegationMode::Forbid => Err(EngineError::Unsupported(format!(
                    "negative literal `{}` in a definite-program computation",
                    plan.rule.body[at]
                ))),
            },
            Step::Builtin(op, left, right) => {
                let mark = self.frame.mark();
                let result = match self.frame.eval_builtin(plan, *op, left, right) {
                    Ok(true) => self.step(at + 1),
                    Ok(false) => Ok(()),
                    Err(e) => Err(e),
                };
                self.frame.undo(mark);
                result
            }
            Step::Aggregate(_) => Err(EngineError::Unsupported(
                "aggregate literals are evaluated by the aggregation evaluator, not the grounder"
                    .into(),
            )),
        }
    }

    /// Matches a positive literal against `source`: one `contains` if it
    /// is ground under the slots, else every candidate of the probe on its
    /// ground arguments, unified into the slots.
    fn positive(&mut self, at: usize, pat: &Pat, source: &FactStore) -> Result<(), EngineError> {
        let atom = self.frame.instantiate(pat);
        if atom.is_ground() {
            if source.contains(&atom) {
                self.descend(at, atom)?;
            }
            return Ok(());
        }
        source.try_for_each_candidate(&atom, |candidate| {
            let mark = self.frame.mark();
            let result = match self.frame.unify_pat(pat, candidate) {
                true => self.descend(at, candidate.clone()),
                false => Ok(()),
            };
            self.frame.undo(mark);
            result
        })
    }

    fn descend(&mut self, at: usize, matched: Term) -> Result<(), EngineError> {
        self.atoms.push(matched);
        let result = self.step(at + 1);
        self.atoms.pop();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambient::counters;
    use crate::horn::AtomStore;
    use hilog_syntax::parse_program;
    use std::collections::BTreeSet;

    fn store(text: &str) -> FactStore {
        let program = parse_program(text).unwrap();
        FactStore::InMemory(AtomStore::from_atoms(
            program.iter().map(|r| r.head.clone()),
        ))
    }

    /// The heads a join of `rule` derives, or the kind of its error, and
    /// the index probes and scans it made.
    fn run(
        facts: &FactStore,
        rule: &str,
        delta: Option<&str>,
        at: usize,
        mode: NegationMode,
    ) -> (Result<BTreeSet<String>, String>, (u64, u64)) {
        let plan = RulePlan::compile(&parse_program(rule).unwrap().rules[0]);
        let frontier = delta.map(store);
        let before = counters();
        let mut heads = BTreeSet::new();
        let joined = plan.join(facts, frontier.as_ref().map(|f| (f, at)), mode, &mut |m| {
            heads.insert(m.head()?.to_string());
            Ok(())
        });
        let moved = counters() - before;
        let kind = |e: EngineError| format!("{e:?}").split('(').next().unwrap().to_string();
        (
            joined.map(|()| heads).map_err(kind),
            (moved.index_probes, moved.index_fallback_scans),
        )
    }

    #[test]
    fn the_executor_joins_as_the_substitution_join_did() {
        // Every row's heads, error and probe counts were read off the
        // substitution-per-branch join this executor replaced, on the same
        // store.
        let facts = store(
            "e(a, a). e(a, b). e(b, b). e(b, c). e(c, d). graph(e). graph(f). f(c, d). \
             g(x, y). tc(e)(a, b). tc(f)(c, d). p(f(a), b). p(g(a), c). p(f(b), d). \
             q(a). q(b). r(a, a). s(c). cost(a, 3). cost(b, 5).",
        );
        use NegationMode::{Forbid, Ignore};
        type Row = (&'static str, Option<&'static str>, usize, NegationMode);
        type Outcome = Result<BTreeSet<String>, String>;
        let ok = |heads: &[&str]| -> Outcome { Ok(heads.iter().map(|h| h.to_string()).collect()) };
        let cases: Vec<(Row, Outcome, (u64, u64))> = vec![
            // A repeated variable.
            (
                ("h(X) :- e(X, X).", None, 0, Forbid),
                ok(&["h(a)", "h(b)"]),
                (0, 1),
            ),
            // A predicate name bound by an earlier literal.
            (
                ("h(G, X, Y) :- graph(G), G(X, Y).", None, 0, Forbid),
                ok(&[
                    "h(e, a, a)",
                    "h(e, a, b)",
                    "h(e, b, b)",
                    "h(e, b, c)",
                    "h(e, c, d)",
                    "h(f, c, d)",
                ]),
                (0, 3),
            ),
            // A compound name.
            (
                ("h(G, X, Y) :- tc(G)(X, Y).", None, 0, Forbid),
                ok(&["h(e, a, b)", "h(f, c, d)"]),
                (0, 1),
            ),
            // A compound argument.
            (
                ("h(X, Y) :- p(f(X), Y).", None, 0, Forbid),
                ok(&["h(a, b)", "h(b, d)"]),
                (0, 1),
            ),
            // Ground on entry: `contains`, no probe.
            (
                ("h(X) :- q(X), r(a, X).", None, 0, Forbid),
                ok(&["h(a)"]),
                (0, 1),
            ),
            (
                ("h(X) :- q(X), s(c).", None, 0, Forbid),
                ok(&["h(a)", "h(b)"]),
                (0, 1),
            ),
            (("h(X) :- q(X), s(d).", None, 0, Forbid), ok(&[]), (0, 1)),
            // A builtin that binds, and one that tests.
            (
                ("h(X, N) :- cost(X, P), N is P * 2, N > 7.", None, 0, Forbid),
                ok(&["h(b, 10)"]),
                (0, 1),
            ),
            // Each delta position, and none.
            (
                ("h(X, Z) :- e(X, Y), e(Y, Z).", None, 0, Forbid),
                ok(&[
                    "h(a, a)", "h(a, b)", "h(a, c)", "h(b, b)", "h(b, c)", "h(b, d)",
                ]),
                (5, 1),
            ),
            (
                ("h(X, Z) :- e(X, Y), e(Y, Z).", Some("e(b, c)."), 0, Forbid),
                ok(&["h(b, d)"]),
                (1, 1),
            ),
            (
                ("h(X, Z) :- e(X, Y), e(Y, Z).", Some("e(b, c)."), 1, Forbid),
                ok(&["h(a, c)", "h(b, c)"]),
                (5, 1),
            ),
            // Negation ignored, forbidden once reached, forbidden but never reached.
            (
                ("h(X) :- q(X), not r(X, X).", None, 0, Ignore),
                ok(&["h(a)", "h(b)"]),
                (0, 1),
            ),
            (
                ("h(X) :- q(X), not r(X, X).", None, 0, Forbid),
                Err("Unsupported".into()),
                (0, 1),
            ),
            (
                ("h(X) :- absent(X), not r(X, X).", None, 0, Forbid),
                ok(&[]),
                (0, 0),
            ),
            // A floundering head.
            (
                ("h(X, Y) :- q(X).", None, 0, Forbid),
                Err("Floundering".into()),
                (0, 1),
            ),
            // `=` binding a variable before and after the literal that grounds it.
            (
                ("h(X, Y) :- q(X), Y = f(X).", None, 0, Forbid),
                ok(&["h(a, f(a))", "h(b, f(b))"]),
                (0, 1),
            ),
            (
                ("h(X, Y) :- Y = f(X), q(X).", None, 0, Forbid),
                ok(&["h(a, f(a))", "h(b, f(b))"]),
                (0, 1),
            ),
        ];
        for ((rule, delta, at, mode), heads, probes) in cases {
            let (got, moved) = run(&facts, rule, delta, at, mode);
            assert_eq!(got, heads, "{rule} (delta {delta:?} at {at}, {mode:?})");
            assert_eq!(
                moved, probes,
                "probes and scans of {rule} (delta {delta:?} at {at})"
            );
        }
    }

    #[test]
    fn a_builtin_error_names_the_rule_variables() {
        // The frame evaluates over slots; the error reads as the rule is
        // written, not `unbound variable _S_3`.
        let facts = store("p(a).");
        for (rule, error) in [
            (
                "h(X, Y) :- p(X), Y is Z + 1.",
                "arithmetic error: unbound variable Z",
            ),
            (
                "h(X) :- p(X), X \\= Z.",
                "uninstantiated builtin: \\= requires ground operands, got a \\= Z",
            ),
        ] {
            let plan = RulePlan::compile(&parse_program(rule).unwrap().rules[0]);
            let joined = plan.join(&facts, None, NegationMode::Forbid, &mut |_| Ok(()));
            assert_eq!(joined.unwrap_err().to_string(), error, "{rule}");
        }
    }

    #[test]
    fn a_tabled_head_unifies_with_its_pattern_in_one_frame() {
        // `p(X, X)` against `p(_N0, _N1)`: the pattern's variables become
        // slots beside the rule's, and unifying aliases them.
        let plan = RulePlan::compile(&parse_program("p(X, X) :- q(X).").unwrap().rules[0]);
        let mut frame = plan.frame();
        let goal = frame.import(&hilog_syntax::parse_term("p(_N0, _N1)").unwrap());
        assert!(frame.unify_pat(&plan.head, &goal));
        let Step::Pos(atom) = &plan.body[0] else {
            unreachable!()
        };
        let selected = frame.instantiate(atom);
        assert!(!selected.is_ground());
        let mark = frame.mark();
        assert!(frame.unify_pat(atom, &hilog_syntax::parse_term("q(a)").unwrap()));
        assert_eq!(frame.instantiate(&plan.head).to_string(), "p(a, a)");
        frame.undo(mark);
        assert_eq!(frame.instantiate(atom), selected);
    }
}
