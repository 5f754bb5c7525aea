//! Incremental maintenance of the grounding under mutation.
//!
//! A fact-level change does not discard the working snapshot's grounding:
//! the relevant instantiation — its rules and its possibly-true store, one
//! resident object — is *maintained*.
//! The model is either exact or absent: a fact nothing reads edits it in
//! place, any other change drops it, and the next route that needs it runs
//! [`well_founded_eval`](crate::wfs::well_founded_eval) over the maintained
//! grounding.  How far a change can reach is read off the program's one
//! predicate dependency graph ([`DependencyGraph::readers_closure`]), which
//! the session caches per program version.
//!
//! An assert runs the same semi-naive driver that ground the program cold
//! ([`crate::grounder`]'s `ground_from`) — there from an empty store, here
//! from `{fact}` over the grounding's warm store — so this module owns no
//! round loop and no limit checks of its own, only what to do with the new
//! instances and with a failure (drop the caches; the next read re-grounds).
//! A retract is DRed overdelete/rederive over the cached ground rules.

use super::HiLogDb;
use crate::ground::{GroundProgram, GroundRule, IdRule};
use crate::grounder::ground_from;
use crate::horn::{AtomStore, NegationMode};
use crate::join::RulePlan;
use crate::snapshot::{lock_mut, SnapCore};
use hilog_core::{DependencyGraph, Program, Term};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Returns `true` if the name of `atom` falls inside an optional scope of
/// predicate names (`None` means "everything" — a variable-headed rule or a
/// fact with a variable name made the mutation global).  Used only to bound
/// the DRed sweep of [`HiLogDb::retract_from_ground`].
fn pred_scope_affects(preds: Option<&BTreeSet<Term>>, atom: &Term) -> bool {
    preds.is_none_or(|preds| preds.contains(atom.name()))
}

impl HiLogDb {
    /// Resets every cache except the subgoal tables (the one cache with
    /// finer-than-global invalidation, maintained through the recorded
    /// dependency edges instead).
    pub(super) fn invalidate_caches_keeping_tables(&mut self) {
        self.analysis = None;
        *lock_mut(&mut self.snap.core) = SnapCore::default();
    }

    /// Targeted invalidation + incremental maintenance after a fact-level
    /// change to `fact`.  `asserted` is `true` for assertion, `false` for
    /// retraction.
    ///
    /// The subgoal tables are not touched here: the change is queued, and
    /// [`Self::settle_tables`] folds a whole batch of them into the tables
    /// in one pass over the instance-level recorded dependency graph
    /// (unaffected tables survive, fact-backed tables are patched in place,
    /// the readers of what changed are re-solved).  The cached grounding is
    /// *maintained* (the grounding driver continued from the fact on assert,
    /// DRed overdelete/rederive on retract); the cached model is edited in
    /// place when nothing reads the fact's predicate and dropped otherwise.
    pub(super) fn invalidate_for_fact(&mut self, fact: &Term, asserted: bool) {
        // What `spontaneous_fact` (reached twice from here on a retraction)
        // relies on to skip the program's facts.
        debug_assert!(
            asserted
                || self
                    .fact_copies
                    .as_ref()
                    .is_some_and(|copies| !copies.contains_key(fact)),
            "a retraction is maintained only once no copy of `{fact}` remains"
        );
        // The Figure 1 outcome records the settling order, which even a pure
        // EDB fact can extend; recompute it on demand.
        lock_mut(&mut self.snap.core).modular = None;
        // A table tabled after this change is tabled under it: with none
        // held there is nothing to settle, and a store that is only written
        // to pays nothing for the queue.
        if !lock_mut(&mut self.snap.tables).is_empty() {
            self.unsettled.push((fact.clone(), asserted));
        }
        // No grounding, model or stable models to maintain — every write a
        // serving `DbWriter` makes: what follows would only patch `None`s.
        let core = lock_mut(&mut self.snap.core);
        if core.ground.is_none() && core.model.is_none() && core.stable.is_none() {
            return;
        }
        // `assert_fact` only admits ground atoms, but `assert_rule` (and the
        // builder) accept facts with variable predicate names, and those can
        // reach here through `retract_fact`; without a predicate identity
        // the predicate-level scope is global.
        let name = fact.name();
        let affected = if name.is_ground() {
            self.analysis().readers_closure(name)
        } else {
            None
        };
        let Some(affected) = affected else {
            self.apply_fact_delta(fact, asserted, None);
            return;
        };
        let pure_edb = affected.len() == 1 && !self.analysis().derives(name);
        if !pure_edb {
            self.apply_fact_delta(fact, asserted, Some(affected));
            return;
        }
        let max_atoms = self.snap.opts.max_atoms;
        let core = lock_mut(&mut self.snap.core);
        if asserted {
            // Nothing reads the predicate and no rule derives it: the fact
            // only adds itself to the ground program (its fact instance,
            // and so its possibly-true store) and the model — an exact patch,
            // no re-evaluation needed.  (The duplicate short-circuit in
            // `assert_fact` guarantees this is a genuinely new fact.)
            if let Some(ground) = &mut core.ground {
                Arc::make_mut(ground).push(GroundRule::fact(fact.clone()));
            }
            // Same cumulative cap as `assert_into_ground`: fall back to full
            // re-grounding (and its `LimitExceeded`) instead of silently
            // growing past what a fresh session would reject.
            if core.ground.as_ref().is_some_and(|g| g.len() > max_atoms) {
                *core = SnapCore::default();
                return;
            }
            if let Some(model) = &mut core.model {
                Arc::make_mut(model).set_true(fact.clone());
            }
            if let Some(models) = &mut core.stable {
                for m in Arc::make_mut(models).iter_mut() {
                    m.set_true(fact.clone());
                }
            }
        } else {
            if let Some(ground) = &mut core.ground {
                let ground = Arc::make_mut(ground);
                if let Some(id) = ground.atoms.interner().get(fact) {
                    ground.id_rules.retain(|r| !(r.is_fact() && r.head == id));
                }
                ground.atoms.remove(fact);
            }
            // No rule reads or derives the fact, so with its fact instance
            // gone no rule mentions it: it leaves the base, as a fresh
            // grounding would never have put it there.
            if let Some(model) = &mut core.model {
                Arc::make_mut(model).remove_atom(fact);
            }
            if let Some(models) = &mut core.stable {
                for m in Arc::make_mut(models).iter_mut() {
                    m.remove_atom(fact);
                }
            }
        }
    }

    /// Folds a fact-level change that some rule may read into the warm
    /// caches: the grounding is maintained in place and the model — which
    /// the change can move anywhere in its reverse closure — is dropped, for
    /// the next route that needs it to evaluate from the maintained
    /// grounding.  `preds` is the predicate-level reverse closure (when one
    /// exists) and only bounds the DRed sweep of a retraction.  Cold (or
    /// unmaintainable) caches are dropped and rebuilt lazily.
    fn apply_fact_delta(&mut self, fact: &Term, asserted: bool, preds: Option<BTreeSet<Term>>) {
        let core = lock_mut(&mut self.snap.core);
        // Stable models go too (the delta can flip whole models in and out
        // of existence); like the model they are rebuilt from the
        // *maintained* grounding, which is where the expensive work sits.
        core.stable = None;
        core.model = None;
        let maintained = core.ground.is_some()
            && if asserted {
                self.assert_into_ground(fact)
            } else {
                self.retract_from_ground(fact, preds.as_ref());
                true
            };
        if !maintained {
            lock_mut(&mut self.snap.core).ground = None;
        }
    }

    /// Semi-naive continuation for an asserted fact: the driver from
    /// `{fact}` over the warm grounding's store, instantiating the rules
    /// each round's frontier enables as the frontier lands
    /// ([`ground_from`] — the heads and the instantiations come from the
    /// same joins), appended to the cached ground program, whose rule budget
    /// the driver checks against the whole grounding.
    ///
    /// Returns `false` when the continuation cannot be completed (a resource
    /// limit, the deadline, a floundering instance — the store is then only
    /// partially extended); the caller drops the caches and the next read
    /// re-grounds, surfacing the error exactly like a fresh session.
    fn assert_into_ground(&mut self, fact: &Term) -> bool {
        let (program, opts) = (&self.snap.program, self.snap.opts);
        let core = lock_mut(&mut self.snap.core);
        let ground = Arc::make_mut(core.ground.as_mut().expect("checked by caller"));
        let fact_was_new = ground.atoms.insert(fact.clone());
        let id = ground.atoms.intern(fact);
        // The asserted fact's bodyless instance is new unless the atom was
        // already a ground fact (a duplicate assertion, or a builtin-guarded
        // rule's instance): only then is a scan needed.
        if fact_was_new || !ground.id_rules.iter().any(|r| r.is_fact() && r.head == id) {
            ground.push(GroundRule::fact(fact.clone()));
        }
        if fact_was_new {
            // Continuation instances carry at least one brand-new positive
            // body atom, so they cannot repeat any cached rule.
            let frontier = AtomStore::from_atoms([fact.clone()]);
            if ground_from(program, Some(frontier), opts, ground).is_err() {
                return false;
            }
        }
        // The driver checks the cumulative budget as instances land; the
        // fact instance above still counts.  Falling back surfaces the
        // `LimitExceeded` on the next query, exactly like a fresh session.
        ground.len() <= opts.max_atoms
    }

    /// DRed-style maintenance for a retracted fact: *overdelete* the forward
    /// closure of the fact through the cached ground rules, then *rederive*
    /// every overdeleted atom that still has a supported instantiation, and
    /// finally drop the instantiations that lost support.
    ///
    /// `preds` is the predicate-level reverse-dependency closure (when one
    /// exists): every atom that can be overdeleted (and every rule that can
    /// lose support) has its head inside it, so the index and the final
    /// sweep skip rules headed outside it entirely — a retraction confined
    /// to one component never walks the others' rules.
    fn retract_from_ground(&mut self, fact: &Term, preds: Option<&BTreeSet<Term>>) {
        let program = &self.snap.program;
        let core = lock_mut(&mut self.snap.core);
        let GroundProgram { atoms, id_rules } =
            Arc::make_mut(core.ground.as_mut().expect("checked by caller"));
        // An atom no rule mentions supports nothing and is derived by nothing.
        let Some(fact_id) = atoms.interner().get(fact) else {
            return;
        };
        let scoped: Vec<bool> = (id_rules.iter())
            .map(|rule| pred_scope_affects(preds, atoms.interner().resolve(rule.head)))
            .collect();
        // One pass over the in-scope rules builds the index both fixpoints
        // run on (rules by positive body atom), so neither loop ever rescans
        // the ground program per round.
        let mut rules_by_pos: Vec<Vec<usize>> = vec![Vec::new(); atoms.interner().len()];
        for (i, rule) in id_rules.iter().enumerate() {
            if scoped[i] {
                for atom in &rule.pos {
                    rules_by_pos[atom.index()].push(i);
                }
            }
        }
        // Overdelete: everything whose derivation may pass through `fact`,
        // by worklist over the index.
        let mut deleted = vec![false; atoms.interner().len()];
        deleted[fact_id.index()] = true;
        let mut worklist = vec![fact_id];
        while let Some(atom) = worklist.pop() {
            for &ri in &rules_by_pos[atom.index()] {
                let head = id_rules[ri].head;
                if !deleted[head.index()] {
                    deleted[head.index()] = true;
                    worklist.push(head);
                }
            }
        }
        let overdeleted: Vec<Term> = (atoms.interner().iter())
            .filter(|(id, _)| deleted[id.index()])
            .map(|(_, atom)| atom.clone())
            .collect();
        for atom in &overdeleted {
            atoms.remove(atom);
        }
        // The retracted EDB instance only survives if another bodyless route
        // to the same ground fact exists (e.g. a builtin-guarded rule).
        let spontaneous = spontaneous_fact(program, fact);
        // Rederive: a deleted atom returns as soon as one of its cached
        // instantiations is fully supported by surviving atoms.  Only rules
        // whose head was overdeleted can rederive anything; seed with those,
        // then chase the index from each re-added atom.
        let rederives = |rule: &IdRule, atoms: &AtomStore| {
            rule.pos.iter().all(|&a| atoms.is_live(a))
                && !(rule.is_fact() && rule.head == fact_id && !spontaneous)
        };
        let mut worklist: Vec<usize> = (0..id_rules.len())
            .filter(|&ri| deleted[id_rules[ri].head.index()] && rederives(&id_rules[ri], atoms))
            .collect();
        while let Some(ri) = worklist.pop() {
            let head = id_rules[ri].head;
            if !deleted[head.index()] {
                continue;
            }
            deleted[head.index()] = false;
            atoms.insert(atoms.interner().resolve(head).clone());
            // Re-adding `head` can revalidate overdeleted rules reading it.
            for &reader in &rules_by_pos[head.index()] {
                let rule = &id_rules[reader];
                if deleted[rule.head.index()] && rederives(rule, atoms) {
                    worklist.push(reader);
                }
            }
        }
        // Drop the instantiations that lost support.  (The store shrank, so
        // this is exactly what a fresh relevant instantiation would omit;
        // out-of-scope rules cannot have lost anything.)  Their atoms keep
        // their ids; the model's base is what the surviving rules mention.
        let mut scoped = scoped.into_iter();
        id_rules.retain(|r| !scoped.next().expect("one flag a rule") || rederives(r, atoms));
    }

    /// The program's predicate dependency graph, built on first use after
    /// each rule-level change.
    fn analysis(&mut self) -> &DependencyGraph {
        let program = &self.snap.program;
        self.analysis
            .get_or_insert_with(|| DependencyGraph::predicate_graph(program.iter()))
    }
}

/// Returns `true` if some rule other than a program fact still produces the
/// just-retracted `fact` as a bodiless ground instance: a builtin-guarded
/// rule like `f :- 1 < 2.`.  Used by the DRed retraction path and the table
/// maintenance to decide whether the ground fact survives the removal of its
/// last program-fact occurrence.
///
/// Bodiless rules are skipped before any join: such a rule derives exactly
/// its head, and both callers run only once `retract_fact` has found (by
/// the fact multiset) that no bodiless rule headed `fact` remains — so the
/// cost is a glance at each fact plus a join per builtin-only rule, not a
/// join per stored fact.
pub(super) fn spontaneous_fact(program: &Program, fact: &Term) -> bool {
    let empty = AtomStore::new();
    program.proper_rules().any(|rule| {
        if rule.positive_atoms().count() > 0 || rule.negative_atoms().count() > 0 {
            return false;
        }
        let plan = RulePlan::compile(rule);
        let mut derives = false;
        let joined = plan.join(&empty, None, NegationMode::Ignore, &mut |m| {
            derives |= m.frame.instantiate(&plan.head) == *fact;
            Ok(())
        });
        joined.is_ok() && derives
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::horn::EvalOptions;
    use crate::magic_eval::ModelSource;
    use hilog_core::{Query, Rule, Truth};
    use hilog_syntax::{parse_program, parse_query, parse_term};

    fn game_db() -> HiLogDb {
        HiLogDb::new(
            parse_program(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 move(a, b). move(b, c).",
            )
            .unwrap(),
        )
    }

    /// What a write that is not pure-EDB leaves behind, read through the
    /// full-model query `open`: the model is evaluated again (`Rebuilt`)
    /// from the grounding the write kept current (no grounding pass), it
    /// equals a fresh session's whole (base included), and the re-read is
    /// `Cached`.
    fn assert_model_re_evaluated_from_the_maintained_grounding(db: &mut HiLogDb, open: &Query) {
        assert!(db.cached_model().is_none(), "the write kept the model");
        let read = db.query(open).unwrap();
        assert_eq!(read.stats.groundings, 0, "the write dropped the grounding");
        assert_eq!(read.stats.model_source, ModelSource::Rebuilt);
        let mut fresh = HiLogDb::new(db.program().clone());
        assert_eq!(read.answers, fresh.query(open).unwrap().answers);
        assert_eq!(db.model().unwrap(), fresh.model().unwrap());
        let again = db.query(open).unwrap();
        assert_eq!(again.stats.groundings, 0);
        assert_eq!(again.stats.model_source, ModelSource::Cached);
    }

    #[test]
    fn a_fact_write_with_nothing_cached_reads_no_dependency_graph() {
        let mut db = game_db();
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        assert!(db.retract_fact(&parse_term("move(a, b)").unwrap()));
        assert!(db.analysis.is_none(), "the write built the graph");
        let mut fresh = HiLogDb::new(db.program().clone());
        assert_eq!(db.model().unwrap(), fresh.model().unwrap());
    }

    #[test]
    fn pure_edb_fact_patches_the_cached_model() {
        // `colour` is read by no rule: asserting a colour fact keeps the
        // cached model (no re-grounding) and still answers correctly.
        let mut db = HiLogDb::new(
            parse_program(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 move(a, b). colour(a, red).",
            )
            .unwrap(),
        );
        let unbound = parse_query("?- P(a, X).").unwrap();
        assert_eq!(db.query(&unbound).unwrap().stats.groundings, 1);
        db.assert_fact(parse_term("colour(b, blue)").unwrap())
            .unwrap();
        let after = db.query(&unbound).unwrap();
        assert_eq!(
            after.stats.groundings, 0,
            "pure EDB fact forced re-grounding"
        );
        assert_eq!(after.stats.model_source, ModelSource::Cached);
        assert_eq!(
            db.holds(&parse_term("colour(b, blue)").unwrap()).unwrap(),
            Truth::True
        );
        assert!(db.retract_fact(&parse_term("colour(b, blue)").unwrap()));
        assert_eq!(
            db.holds(&parse_term("colour(b, blue)").unwrap()).unwrap(),
            Truth::False
        );
        // The patched model is the one a fresh session computes, base
        // included: a retracted fact nothing mentions any more leaves it.
        assert_eq!(db.query(&unbound).unwrap().stats.groundings, 0);
        let mut fresh = HiLogDb::new(db.program().clone());
        assert_eq!(db.model().unwrap(), fresh.model().unwrap());
    }

    #[test]
    fn retracting_an_unread_fact_leaves_no_phantom_in_any_model() {
        // The same patch over the stable models: warm both, assert and
        // retract a fact no rule reads, and every model is a fresh one.
        let mut db = HiLogDb::new(parse_program("p(X) :- q(X). q(a).").unwrap());
        db.model().unwrap();
        db.stable_models().unwrap();
        let unread = parse_term("unread(a)").unwrap();
        db.assert_fact(unread.clone()).unwrap();
        assert!(db.retract_fact(&unread));
        let mut fresh = HiLogDb::new(db.program().clone());
        assert!(!db.model().unwrap().base().contains(&unread));
        assert_eq!(db.model().unwrap(), fresh.model().unwrap());
        assert_eq!(db.stable_models().unwrap(), fresh.stable_models().unwrap());
    }

    #[test]
    fn assert_rule_rebuilds_everything() {
        let mut db = game_db();
        db.query(&parse_query("?- winning(X).").unwrap()).unwrap();
        db.assert_rule(
            parse_program("winning(X) :- bonus(X).")
                .unwrap()
                .rules
                .remove(0),
        );
        db.assert_fact(parse_term("bonus(c)").unwrap()).unwrap();
        assert_eq!(
            db.holds(&parse_term("winning(c)").unwrap()).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn retracting_a_variable_named_fact_does_not_panic() {
        // `assert_rule` accepts facts with variable predicate names; a later
        // retract must fall back to global invalidation, not panic.
        let mut db = HiLogDb::new(parse_program("q(r). r(q).").unwrap());
        let var_fact = Term::app(Term::var("P"), vec![Term::sym("a")]);
        db.assert_rule(Rule::fact(var_fact.clone()));
        assert!(db.retract_fact(&var_fact));
        assert_eq!(db.holds(&parse_term("q(r)").unwrap()).unwrap(), Truth::True);
    }

    #[test]
    fn assert_fact_keeps_the_grounding_and_drops_the_model() {
        let mut db = game_db();
        let unbound = parse_query("?- P(a, X).").unwrap();
        let first = db.query(&unbound).unwrap();
        assert_eq!(first.stats.groundings, 1);
        assert_eq!(first.stats.model_source, ModelSource::Rebuilt);
        assert!(db.cached_model().is_some());
        // `move` is read by `winning`: not pure EDB, so the model goes —
        // but the grounding is continued from the fact, not rebuilt.
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        assert_model_re_evaluated_from_the_maintained_grounding(&mut db, &unbound);
    }

    #[test]
    fn a_tail_assert_in_one_scc_re_evaluates_the_maintained_grounding() {
        // One long chain game is a single predicate-level SCC; asserting an
        // edge at its tail flips every upstream position, and the model
        // evaluated from the continued grounding must agree with a fresh
        // session on every atom.
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for i in 0..30 {
            text.push_str(&format!("move(p{}, p{}).\n", i, i + 1));
        }
        let mut db = HiLogDb::new(parse_program(&text).unwrap());
        let open = parse_query("?- P(p0, X).").unwrap();
        db.query(&open).unwrap();
        db.assert_fact(parse_term("move(p30, p31)").unwrap())
            .unwrap();
        assert_model_re_evaluated_from_the_maintained_grounding(&mut db, &open);
    }

    #[test]
    fn consecutive_asserts_cost_one_evaluation() {
        let mut db = game_db();
        let unbound = parse_query("?- P(a, X).").unwrap();
        db.query(&unbound).unwrap();
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        db.assert_fact(parse_term("move(d, e)").unwrap()).unwrap();
        assert_model_re_evaluated_from_the_maintained_grounding(&mut db, &unbound);
        assert_eq!(
            db.holds(&parse_term("winning(d)").unwrap()).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn retract_fact_uses_dred_and_matches_fresh_recomputation() {
        // tc is derived through the retracted edge: DRed must overdelete the
        // downstream closure and rederive what other edges still support.
        let mut db = HiLogDb::new(
            parse_program(
                "tc(X, Y) :- edge(X, Y).\n\
                 tc(X, Y) :- edge(X, Z), tc(Z, Y).\n\
                 edge(a, b). edge(b, c). edge(a, c).",
            )
            .unwrap(),
        );
        let unbound = parse_query("?- P(a, X).").unwrap();
        assert_eq!(db.query(&unbound).unwrap().stats.groundings, 1);
        db.assert_fact(parse_term("edge(c, d)").unwrap()).unwrap();
        db.query(&unbound).unwrap();
        // Retract edge(b, c): tc(a, c) survives via edge(a, c); tc(b, c),
        // tc(b, d) die.
        assert!(db.retract_fact(&parse_term("edge(b, c)").unwrap()));
        assert_model_re_evaluated_from_the_maintained_grounding(&mut db, &unbound);
        assert_eq!(
            db.holds(&parse_term("tc(b, c)").unwrap()).unwrap(),
            Truth::False
        );
        assert_eq!(
            db.holds(&parse_term("tc(a, c)").unwrap()).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn retracting_a_derived_support_fact_removes_dependent_atoms() {
        // The acceptance case: retracting a fact that transitively supports
        // derived atoms provably removes the no-longer-derivable ones.
        let mut db = HiLogDb::new(
            parse_program(
                "reach(Y) :- reach(X), edge(X, Y). reach(a).\n\
                 edge(a, b). edge(b, c).",
            )
            .unwrap(),
        );
        let unbound = parse_query("?- P(X).").unwrap();
        db.query(&unbound).unwrap();
        assert!(db.retract_fact(&parse_term("edge(a, b)").unwrap()));
        let result = db.query(&unbound).unwrap();
        assert_eq!(result.stats.groundings, 0);
        assert_eq!(
            db.holds(&parse_term("reach(b)").unwrap()).unwrap(),
            Truth::False
        );
        assert_eq!(
            db.holds(&parse_term("reach(c)").unwrap()).unwrap(),
            Truth::False
        );
        assert_eq!(
            db.holds(&parse_term("reach(a)").unwrap()).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn dred_rederives_atoms_with_cyclic_support_correctly() {
        // p and q support each other, but only through the seed fact p: after
        // retracting p, neither may be rederived through the cycle.
        let mut db = HiLogDb::new(parse_program("p :- q. q :- p. p. r.").unwrap());
        let unbound = parse_query("?- P(X).").unwrap(); // warms ground+model
        let _ = db.query(&unbound);
        db.model().unwrap();
        assert!(db.retract_fact(&parse_term("p").unwrap()));
        assert_eq!(db.holds(&parse_term("p").unwrap()).unwrap(), Truth::False);
        assert_eq!(db.holds(&parse_term("q").unwrap()).unwrap(), Truth::False);
        assert_eq!(db.holds(&parse_term("r").unwrap()).unwrap(), Truth::True);
    }

    #[test]
    fn builtin_guarded_facts_survive_retraction_of_their_edb_twin() {
        // `s :- 1 < 2.` grounds to the same ground fact as the EDB `s.`;
        // retracting the EDB occurrence must keep s true (spontaneous
        // justification), and a second retraction is a no-op returning false.
        let mut db = HiLogDb::new(parse_program("s :- 1 < 2. s. t :- s.").unwrap());
        db.model().unwrap();
        assert!(db.retract_fact(&parse_term("s").unwrap()));
        assert_eq!(db.holds(&parse_term("s").unwrap()).unwrap(), Truth::True);
        assert_eq!(db.holds(&parse_term("t").unwrap()).unwrap(), Truth::True);
        assert!(!db.retract_fact(&parse_term("s").unwrap()));
    }

    #[test]
    fn guarded_twins_survive_and_plain_facts_go_in_a_program_of_many_chunks() {
        // The same decisions as above, but with the guarded rule, the
        // retracted plain fact and the EDB twin in three different chunks of
        // the rule sequence (800 facts between them), and both maintenance
        // routes warm: the subgoal tables and the grounding + model.
        let mut text = String::from("s :- 1 < 2. t :- s. u(X) :- e(X, Y).\n");
        for i in 0..800 {
            text.push_str(&format!("e(n{i}, n{}).\n", i + 1));
        }
        text.push_str("s.\n");
        let mut db = HiLogDb::new(parse_program(&text).unwrap());
        let term = |t: &str| parse_term(t).unwrap();
        for atom in ["s", "t", "e(n400, n401)", "u(n400)"] {
            assert_eq!(db.holds(&term(atom)).unwrap(), Truth::True);
        }
        db.model().unwrap();
        // The twin: `s` stays true on both routes, and is gone as a fact.
        assert!(db.retract_fact(&term("s")));
        assert!(!db.retract_fact(&term("s")));
        for atom in ["s", "t"] {
            assert_eq!(db.holds(&term(atom)).unwrap(), Truth::True, "{atom}");
            assert_eq!(db.model().unwrap().truth(&term(atom)), Truth::True);
        }
        // A plain fact has no other bodiless route: it goes from tables and
        // model alike, with what it supported.
        assert!(db.retract_fact(&term("e(n400, n401)")));
        for atom in ["e(n400, n401)", "u(n400)"] {
            assert_eq!(db.holds(&term(atom)).unwrap(), Truth::False, "{atom}");
            assert_eq!(db.model().unwrap().truth(&term(atom)), Truth::False);
        }
        let open = parse_query("?- P(n399, X).").unwrap();
        let warm = db.query(&open).unwrap();
        assert_eq!(warm.stats.groundings, 0, "maintenance re-grounded");
        assert_eq!(warm.answers.len(), 1);
        let mut fresh = HiLogDb::new(db.program().clone());
        assert_eq!(warm.answers, fresh.query(&open).unwrap().answers);
        assert_eq!(db.model().unwrap(), fresh.model().unwrap());
        // A non-ground bodiless rule is no twin of any ground fact either
        // (it makes the full model flounder, so only the tables are warm):
        // it neither keeps a retracted fact alive nor is touched by it.
        text.push_str("e(X, stop).\n");
        let mut db = HiLogDb::new(parse_program(&text).unwrap());
        assert_eq!(db.holds(&term("e(n400, n401)")).unwrap(), Truth::True);
        assert!(db.retract_fact(&term("e(n400, n401)")));
        assert_eq!(db.holds(&term("e(n400, n401)")).unwrap(), Truth::False);
        assert_eq!(db.holds(&term("e(n400, stop)")).unwrap(), Truth::True);
        let open_fact = term("e(X, stop)");
        assert!(db.retract_fact(&open_fact));
        assert!(!db.retract_fact(&open_fact));
        assert_eq!(db.holds(&term("e(n400, stop)")).unwrap(), Truth::False);
    }

    #[test]
    fn hilog_programs_with_variable_heads_still_maintain_the_grounding() {
        // The HiLog game rule has a non-ground head predicate name, so the
        // predicate-level scope degenerates to All — but the grounding is
        // still maintained incrementally (no re-grounding pass).
        let mut db = HiLogDb::new(
            parse_program(
                "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                 game(m). m(a, b). m(b, c).",
            )
            .unwrap(),
        );
        let unbound = parse_query("?- game(M), winning(M)(X).").unwrap();
        // Unbound? game(M) is bound (ground name) — force the model route.
        let open = parse_query("?- P(a, b).").unwrap();
        assert_eq!(db.query(&open).unwrap().stats.groundings, 1);
        db.assert_fact(parse_term("m(c, d)").unwrap()).unwrap();
        assert_model_re_evaluated_from_the_maintained_grounding(&mut db, &open);
        assert_eq!(
            db.holds(&parse_term("winning(m)(c)").unwrap()).unwrap(),
            Truth::True
        );
        let _ = db.query(&unbound);
    }

    #[test]
    fn retract_rule_undoes_assert_rule() {
        let mut db = game_db();
        let query = parse_query("?- winning(X).").unwrap();
        let before = db.query(&query).unwrap();
        let rule = parse_program("winning(X) :- bonus(X).").unwrap().rules[0].clone();
        db.assert_rule(rule.clone());
        db.assert_fact(parse_term("bonus(c)").unwrap()).unwrap();
        assert_eq!(
            db.holds(&parse_term("winning(c)").unwrap()).unwrap(),
            Truth::True
        );
        assert!(db.retract_rule(&rule));
        assert!(db.retract_fact(&parse_term("bonus(c)").unwrap()));
        let after = db.query(&query).unwrap();
        assert_eq!(after.answers, before.answers);
    }

    #[test]
    fn pure_edb_asserts_respect_the_cumulative_ground_cap() {
        // 4 ground rules after the first query; cap at 6 and pour in pure-EDB
        // facts: the session must fall back to re-grounding (and report the
        // same LimitExceeded a fresh session would) instead of growing past
        // the cap.
        let mut db = HiLogDb::builder()
            .program(
                parse_program(
                    "winning(X) :- move(X, Y), not winning(Y).\n\
                     move(a, b). colour(a, red).",
                )
                .unwrap(),
            )
            .options(EvalOptions::with_max_atoms(6))
            .build();
        let unbound = parse_query("?- P(a, X).").unwrap();
        db.query(&unbound).unwrap();
        for i in 0..4 {
            db.assert_fact(parse_term(&format!("colour(c{i}, blue)")).unwrap())
                .unwrap();
        }
        let err = db.query(&unbound).unwrap_err();
        assert!(matches!(err, EngineError::LimitExceeded(_)));
    }

    #[test]
    fn an_assert_past_its_deadline_leaves_a_session_that_answers_like_a_fresh_one() {
        // The continuation's only failure route is `Err ⇒ None ⇒ drop and
        // re-ground`.  An already expired deadline fails the driver at its
        // first round, with the possibly-true store half extended: the
        // mutation itself must still land, and the next read must re-ground
        // (once) and agree with a fresh session on every atom.
        let mut db = game_db();
        let unbound = parse_query("?- P(a, X).").unwrap();
        assert_eq!(db.query(&unbound).unwrap().stats.groundings, 1);
        crate::ambient::with_deadline(Some(std::time::Instant::now()), || {
            db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        });
        let after = db.query(&unbound).unwrap();
        assert_eq!(
            after.stats.groundings, 1,
            "failed continuation not re-ground"
        );
        assert_eq!(after.stats.model_source, ModelSource::Rebuilt);
        let mut fresh = HiLogDb::new(db.program().clone());
        assert_eq!(after.answers, fresh.query(&unbound).unwrap().answers);
        assert_eq!(
            db.ground_program().unwrap().len(),
            fresh.ground_program().unwrap().len()
        );
        assert_eq!(db.model().unwrap(), fresh.model().unwrap());
        assert_eq!(
            db.holds(&parse_term("winning(c)").unwrap()).unwrap(),
            Truth::True
        );
    }
}
