//! Instance-level maintenance of the subgoal tables under mutation.
//!
//! Each completed [`Table`] carries the dependency edges recorded while it
//! was filled; mutations walk the *reverse* closure of those edges
//! (instance-level, unlike the predicate-level analysis the grounding
//! maintenance uses) to decide which tables to patch in place, which to
//! refill eagerly, which to drop, and which to leave untouched.

use super::maintain::spontaneous_fact;
use super::HiLogDb;
use crate::magic::DepSign;
use crate::magic_eval::{QueryEvaluator, Table};
use crate::snapshot::lock_mut;
use crate::storage::RelationStorage;
use hilog_core::subst::Substitution;
use hilog_core::term::Term;
use hilog_core::unify::{match_with, unify_with};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The keys of every subgoal table whose answers could change when the set
/// of atoms matching `probe` changes: the tables whose pattern unifies with
/// `probe`, plus the reverse closure under the dependency edges the tables
/// recorded while they were filled.
///
/// This is *instance-level* where the session's `DepAnalysis` is
/// predicate-level: a mutation to one game of a HiLog win/move database
/// leaves the other games' `winning(g)(x)` tables untouched even though
/// every one of them shares the (variable-headed) winning rule.  It is
/// sound because a kept table's evaluation only ever consulted the tables
/// its recorded closure names: if none of them overlaps `probe`, refilling
/// the kept table would never read a changed atom — and any *newly
/// selectable* subgoal requires some consulted table to gain answers first,
/// which puts it inside the closure.
fn tables_affected_by(tables: &HashMap<Term, Arc<Table>>, probe: &Term) -> BTreeSet<Term> {
    let renamed = rename_apart(probe);
    let mut queue: Vec<Term> = tables
        .iter()
        .filter(|(_, t)| {
            let mut theta = Substitution::new();
            unify_with(&t.pattern, &renamed, &mut theta)
        })
        .map(|(key, _)| key.clone())
        .collect();
    let mut readers: HashMap<&Term, Vec<&Term>> = HashMap::new();
    for (key, table) in tables {
        for dep in table.deps.keys() {
            readers.entry(dep).or_default().push(key);
        }
    }
    let mut affected: BTreeSet<Term> = BTreeSet::new();
    while let Some(key) = queue.pop() {
        if !affected.insert(key.clone()) {
            continue;
        }
        if let Some(rs) = readers.get(&key) {
            queue.extend(rs.iter().map(|r| (*r).clone()));
        }
    }
    affected
}

/// `true` when every recorded dependency edge in `key`'s transitive
/// downward closure is positive.  An asserted fact reaching such a table
/// can only add answers (the evaluation consulted no negated subgoal), so
/// the table can be rebuilt eagerly rather than dropped.  A dep whose table
/// is gone makes the answer conservatively `false`.
fn positive_closure(tables: &HashMap<Term, Arc<Table>>, key: &Term) -> bool {
    let mut queue = vec![key.clone()];
    let mut seen = BTreeSet::new();
    while let Some(key) = queue.pop() {
        if !seen.insert(key.clone()) {
            continue;
        }
        let Some(table) = tables.get(&key) else {
            return false;
        };
        for (dep, sign) in &table.deps {
            if *sign == DepSign::Neg {
                return false;
            }
            queue.push(dep.clone());
        }
    }
    true
}

/// Renames a probe term's variables into a reserved generation so that
/// unifying it against a table's normalised pattern (whose variables are
/// generation-0 `_N*`) can never capture a variable by name.
fn rename_apart(probe: &Term) -> Term {
    let theta: Substitution = probe
        .variables()
        .iter()
        .map(|v| (v.clone(), Term::Var(v.with_generation(u32::MAX))))
        .collect();
    theta.apply(probe)
}

impl HiLogDb {
    /// Folds a fact-level change into the subgoal tables: tables outside
    /// the instance-level affected set survive untouched; affected tables
    /// with no recorded subgoal edges (their answers are exactly the
    /// matching bodyless instances) are *patched* by the exact answer
    /// delta; affected tables with rule-derived answers are dropped and
    /// refilled by the next query that needs them.
    pub(super) fn maintain_tables_for_fact(&mut self, fact: &Term, asserted: bool) {
        let tables = lock_mut(&mut self.snap.tables);
        let affected = tables_affected_by(tables, fact);
        if affected.is_empty() {
            return;
        }
        // The retracted ground instance survives in a table if some other
        // bodyless route still derives it (a builtin-guarded twin) — the
        // same check the DRed path applies to the ground program.
        let spontaneous =
            !asserted && fact.is_ground() && spontaneous_fact(&self.snap.program, fact);
        // Classify before mutating the table map: the monotone check walks
        // recorded edges into tables that may themselves be affected.
        let monotone: BTreeSet<Term> = if asserted {
            affected
                .iter()
                .filter(|key| positive_closure(tables, key))
                .cloned()
                .collect()
        } else {
            BTreeSet::new()
        };
        let mut refill = Vec::new();
        for key in affected {
            let table = tables.get_mut(&key).expect("affected keys exist");
            let mut theta = Substitution::new();
            if table.deps.is_empty()
                && fact.is_ground()
                && match_with(&table.pattern, fact, &mut theta)
            {
                let table = Arc::make_mut(table);
                if asserted {
                    table.answers.insert(fact.clone());
                } else if !spontaneous {
                    table.answers.remove(fact);
                }
                self.pending_patched += 1;
            } else if monotone.contains(&key) {
                // The assert reaches this derived table through positive
                // edges only, so its answer delta is monotone: re-solve it
                // now, seeded with every surviving warm table, instead of
                // leaving a cold miss for the next query.
                tables.remove(&key);
                refill.push(key);
            } else {
                tables.remove(&key);
                self.pending_dropped += 1;
            }
        }
        self.refill_tables(refill);
    }

    /// Re-solves dropped-but-monotone table patterns against the updated
    /// program (through the maintained program index, which the caller has
    /// already brought up to date).  The evaluator is seeded with every
    /// surviving table, so the refill only re-derives the affected subtree;
    /// the tables it completes (including any fresh dependencies) — and
    /// only those — flow back into the session.  A
    /// pattern the evaluator cannot settle falls back to the drop counter —
    /// the next query recovers exactly as it would have without the refill.
    fn refill_tables(&mut self, keys: Vec<Term>) {
        if keys.is_empty() {
            return;
        }
        let snap = &mut self.snap;
        let seeded = lock_mut(&mut snap.tables).clone();
        let mut evaluator = QueryEvaluator::with_tables(
            snap.program_index(),
            snap.opts,
            seeded,
            snap.storage.clone(),
        );
        let mut failed = 0usize;
        for key in &keys {
            if evaluator.solve_atom(key).is_err() {
                failed += 1;
            }
        }
        lock_mut(&mut snap.tables).extend(evaluator.into_tables());
        self.pending_refilled += keys.len() - failed;
        self.pending_dropped += failed;
    }

    /// Drops every table in the instance-level reverse closure of a rule
    /// head (a new or retracted rule can change exactly the instances its
    /// head covers, and whatever reads them).
    pub(super) fn drop_tables_for_head(&mut self, head: &Term) {
        let tables = lock_mut(&mut self.snap.tables);
        for key in tables_affected_by(tables, head) {
            tables.remove(&key);
            self.pending_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_core::interpretation::Truth;
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

    #[test]
    fn assert_fact_invalidates_only_dependent_tables() {
        let mut db = HiLogDb::new(
            parse_program(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 reach(X) :- edge(X, Y).\n\
                 move(a, b). move(b, c). edge(u, v).",
            )
            .unwrap(),
        );
        let win = parse_query("?- winning(X).").unwrap();
        let reach = parse_query("?- reach(X).").unwrap();
        db.query(&win).unwrap();
        db.query(&reach).unwrap();
        let warm = db.explain(&win).cached_subqueries;
        assert!(warm > 0);
        // A new edge fact only reaches `reach`: the winning tables survive.
        db.assert_fact(parse_term("edge(v, w)").unwrap()).unwrap();
        let after = db.explain(&win).cached_subqueries;
        assert!(after > 0, "unrelated tables were dropped");
        let second = db.query(&win).unwrap();
        assert_eq!(second.stats.rule_applications, 0);
        // And the reach query sees the new fact.
        let reach_result = db.query(&reach).unwrap();
        assert!(reach_result
            .answers
            .iter()
            .any(|a| a.binding("X").unwrap() == &Term::sym("v")));
    }

    #[test]
    fn assert_fact_on_read_predicate_updates_answers() {
        let mut db = game_db();
        let query = parse_query("?- winning(X).").unwrap();
        let before = db.query(&query).unwrap();
        assert_eq!(before.answers.len(), 1); // b
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        let after = db.query(&query).unwrap();
        // Chain a -> b -> c -> d: now c wins too and b loses.
        let xs: Vec<String> = after
            .answers
            .iter()
            .map(|a| a.binding("X").unwrap().to_string())
            .collect();
        assert!(xs.contains(&"c".to_string()));
    }

    #[test]
    fn retract_fact_restores_the_original_answers() {
        let mut db = game_db();
        let query = parse_query("?- winning(X).").unwrap();
        let before = db.query(&query).unwrap();
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        db.query(&query).unwrap();
        assert!(db.retract_fact(&parse_term("move(c, d)").unwrap()));
        let after = db.query(&query).unwrap();
        assert_eq!(after.answers, before.answers);
        assert!(!db.retract_fact(&parse_term("move(zz, zz)").unwrap()));
    }

    #[test]
    fn retract_rule_removes_derivations_and_keeps_unrelated_tables() {
        let mut db = HiLogDb::new(
            parse_program(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 reach(X) :- edge(X, Y).\n\
                 bonus(X) :- extra(X).\n\
                 move(a, b). edge(u, v). extra(c).",
            )
            .unwrap(),
        );
        let win = parse_query("?- winning(X).").unwrap();
        let reach = parse_query("?- reach(X).").unwrap();
        let bonus_rule = parse_program("bonus(X) :- extra(X).").unwrap().rules[0].clone();
        db.query(&win).unwrap();
        db.query(&reach).unwrap();
        assert_eq!(
            db.holds(&parse_term("bonus(c)").unwrap()).unwrap(),
            Truth::True
        );
        assert!(db.retract_rule(&bonus_rule));
        // Unrelated tables survive...
        let plan = db.explain(&win);
        assert!(plan.cached_subqueries > 0, "unrelated tables were dropped");
        // ...and the retracted rule derives nothing any more.
        assert_eq!(
            db.holds(&parse_term("bonus(c)").unwrap()).unwrap(),
            Truth::False
        );
        // Retracting an absent rule reports false.
        assert!(!db.retract_rule(&bonus_rule));
    }

    #[test]
    fn duplicate_asserts_keep_every_cache() {
        let mut db = game_db();
        let query = parse_query("?- winning(X).").unwrap();
        db.query(&query).unwrap();
        let warm = db.explain(&query).cached_subqueries;
        assert!(warm > 0);
        // `move(a, b)` is already a program fact: re-asserting it must not
        // drop the tables in move's dependency closure.
        db.assert_fact(parse_term("move(a, b)").unwrap()).unwrap();
        assert_eq!(
            db.explain(&query).cached_subqueries,
            warm,
            "duplicate assert invalidated caches"
        );
        let repeat = db.query(&query).unwrap();
        assert_eq!(repeat.stats.rule_applications, 0);
        // Retracting one of the two copies is equally a no-op; retracting
        // the second is not: the winning tables are dropped, while the
        // fact-backed move tables are patched in place and survive.
        assert!(db.retract_fact(&parse_term("move(a, b)").unwrap()));
        assert_eq!(db.explain(&query).cached_subqueries, warm);
        assert!(db.retract_fact(&parse_term("move(a, b)").unwrap()));
        let plan = db.explain(&query);
        assert!(plan.dropped_subqueries > 0, "winning tables must drop");
        assert!(plan.patched_subqueries > 0, "move tables must be patched");
        assert!(
            plan.cached_subqueries >= plan.patched_subqueries,
            "patched and untouched tables must survive"
        );
        // The patched tables answer correctly: b still wins through
        // move(b, c), and nothing else does.
        let after = db.query(&query).unwrap();
        assert_eq!(after.answers.len(), 1);
        assert_eq!(after.answers[0].binding("X").unwrap(), &Term::sym("b"));
    }
}
