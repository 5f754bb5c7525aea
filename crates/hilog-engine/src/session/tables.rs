//! Instance-level maintenance of the subgoal tables under mutation.
//!
//! Each completed [`Table`] carries the dependency edges recorded while it
//! was filled — the instance-level `dp` / `dn` of Section 6.1 — and Figure 1
//! / Definition 6.5 say what to do with such a graph: settle the lowest
//! components first and reduce whatever reads them *modulo their model*, so
//! a reader whose lower components kept their model reduces to exactly the
//! rules it had.  [`HiLogDb::settle_tables`] is that procedure applied to a
//! batch of fact-level changes:
//!
//! * the *reverse closure* of the changed tables under the recorded edges
//!   (instance-level, unlike the predicate-level analysis the grounding
//!   maintenance uses) is where the pass **looks** — every table outside it
//!   is left untouched;
//! * inside it, fact-backed tables are **patched** in place, and the
//!   rule-derived ones are set aside and walked in dependency order: a table
//!   none of whose dependencies changed its answers is put back as it was
//!   (the early cut-off of demand-driven incremental computation), the
//!   others are **re-solved** eagerly, off the readers' path;
//! * only a table whose re-solve fails is **dropped** — the next query that
//!   needs it fails, or falls back, exactly as a fresh session's would.
//!
//! Rule-level mutations change what a *pattern* can derive, not what a fact
//! set holds, and drop the reverse closure of the rule's head outright.

use super::maintain::spontaneous_fact;
use super::HiLogDb;
use crate::magic_eval::{QueryEvaluator, Table};
use crate::snapshot::lock_mut;
use crate::storage::RelationStorage;
use hilog_core::analysis::strongly_connected_components;
use hilog_core::subst::Substitution;
use hilog_core::term::Term;
use hilog_core::unify::{match_with, unify_with};
use std::collections::HashMap;
use std::sync::Arc;

type Tables = HashMap<Term, Arc<Table>>;

/// The dependency graph the tables of a map recorded, by *position*: built
/// once per maintenance pass — and only once a pass has found a table to
/// start from — so that everything after it (the closure, the order, the
/// walk) is integer work, not term hashing.
struct TableGraph {
    /// The table keys; a table's position is its index here.
    keys: Vec<Term>,
    position: HashMap<Term, usize>,
    /// Positions of the tables each table read while it was filled.
    reads: Vec<Vec<usize>>,
    /// Tables that read a table the map does not hold.
    dangling: Vec<bool>,
    /// The strongly connected components of `reads`, dependencies before
    /// readers, mutually recursive tables as one group.
    groups: Vec<Vec<usize>>,
}

impl TableGraph {
    fn of(tables: &Tables) -> TableGraph {
        let keys: Vec<Term> = tables.keys().cloned().collect();
        let position: HashMap<Term, usize> = keys.iter().cloned().zip(0..).collect();
        let mut reads = vec![Vec::new(); keys.len()];
        let mut dangling = vec![false; keys.len()];
        for (key, table) in tables {
            let v = position[key];
            for dep in table.deps.keys() {
                match position.get(dep) {
                    Some(&w) => reads[v].push(w),
                    None => dangling[v] = true,
                }
            }
        }
        let groups = strongly_connected_components(keys.len(), |v| reads[v].iter().copied());
        TableGraph {
            keys,
            position,
            reads,
            dangling,
            groups,
        }
    }

    /// One flag per position, set for the tables `keys` names.
    fn flags(&self, keys: &[Term]) -> Vec<bool> {
        let mut flags = vec![false; self.keys.len()];
        for key in keys {
            flags[self.position[key]] = true;
        }
        flags
    }

    /// Flags every table whose answers could change when the answers of the
    /// flagged `seeds` do: the seeds plus their reverse closure under the
    /// recorded edges.
    ///
    /// This is *instance-level* where the session's `DepAnalysis` is
    /// predicate-level: a mutation to one game of a HiLog win/move database
    /// leaves the other games' `winning(g)(x)` tables untouched even though
    /// every one of them shares the (variable-headed) winning rule.  It is
    /// sound because a kept table's evaluation only ever consulted the
    /// tables its recorded closure names: if none of them is a seed,
    /// refilling the kept table would never read a changed atom — and any
    /// *newly selectable* subgoal requires some consulted table to gain
    /// answers first, which puts it inside the closure.
    ///
    /// One sweep in dependency order: a group is in the closure if a member
    /// is a seed or reads a table that is.
    fn reverse_closure(&self, seeds: Vec<bool>) -> Vec<bool> {
        let mut affected = seeds;
        for group in &self.groups {
            let reached = |&v: &usize| affected[v] || self.reads[v].iter().any(|&w| affected[w]);
            if group.iter().any(reached) {
                for &v in group {
                    affected[v] = true;
                }
            }
        }
        affected
    }
}

/// Whether `pattern` (a table's normalised pattern) could cover an instance
/// of `probe` (renamed apart by the caller).  A ground probe — every
/// fact-level change but the retraction of a non-ground bodiless rule — is
/// *matched*, which copies no term and binds nothing before the first
/// mismatch: this runs once per table per changed fact.
fn overlaps(pattern: &Term, probe: &Term) -> bool {
    let mut theta = Substitution::new();
    if probe.is_ground() {
        match_with(pattern, probe, &mut theta)
    } else {
        unify_with(pattern, probe, &mut theta)
    }
}

/// Renames a probe term's variables into a reserved generation so that
/// unifying it against a table's normalised pattern (whose variables are
/// generation-0 `_N*`) can never capture a variable by name.
fn rename_apart(probe: &Term) -> Term {
    if probe.is_ground() {
        return probe.clone();
    }
    let theta: Substitution = probe
        .variables()
        .iter()
        .map(|v| (v.clone(), Term::Var(v.with_generation(u32::MAX))))
        .collect();
    theta.apply(probe)
}

/// Whether two versions of a table hold the same answers.
fn same_answers(new: &Table, old: &Table) -> bool {
    if new.answers.len() != old.answers.len() {
        return false;
    }
    let mut same = true;
    old.answers
        .for_each_atom(&mut |answer| same = same && new.answers.contains(answer));
    same
}

impl HiLogDb {
    /// Settles the subgoal tables under the fact-level changes queued since
    /// they were last settled: **one pass per batch**, however many facts the
    /// batch asserted or retracted.
    ///
    /// 1. Every table whose pattern covers a changed fact is *directly
    ///    touched*.  A touched table with no recorded subgoal edges holds
    ///    exactly the matching bodiless instances and is patched in place,
    ///    fact by fact in the order the changes were made, noting whether
    ///    its answer set really moved.
    /// 2. The reverse closure of the tables that moved, and of the touched
    ///    rule-derived ones, is where the pass looks (one index of the
    ///    recorded edges per batch; none when nothing is touched).  Every
    ///    rule-derived table in it is **set aside first**, so that no
    ///    evaluation below can read it: a batch can make one affected table
    ///    select another that the old graph never ordered before it (assert
    ///    `move(a, b)` and `move(b, c)` together: `winning(a)` now reads
    ///    `winning(b)`), and it must find that table settled or absent,
    ///    never stale.
    /// 3. The tables set aside are walked in dependency order — the strongly
    ///    connected components of the recorded edges, dependencies before
    ///    readers, mutually recursive tables as one group.  A group that is
    ///    not directly touched and whose every dependency is back in the map
    ///    with the answers it had gets the same `Arc`s back: by induction on
    ///    the order its replay would select the same subgoals and derive the
    ///    same answers (Figure 1's argument, on the instance graph).  Any
    ///    other group is re-solved, each member by an evaluator seeded with
    ///    the live map and under the resource limits a cold query for it
    ///    would face; every table such a run completes is kept, and a member
    ///    counts as *changed* only if its answers differ from the version
    ///    set aside.  A re-solve that fails (a limit, the deadline, a cycle
    ///    through negation the batch closed) leaves the table dropped, which
    ///    its readers see as a change.
    ///
    /// A dependency missing from the map is treated as changed.  The pass
    /// itself never leaves one (see the assertion in `DbSnapshot::fork`);
    /// the fallback keeps a map that came in that way correct.
    pub(crate) fn settle_tables(&mut self) {
        let deltas = std::mem::take(&mut self.unsettled);
        if deltas.is_empty() {
            return;
        }
        // The map is worked on by value: a re-solve moves it into its
        // evaluator and back instead of cloning it.
        let mut tables = std::mem::take(lock_mut(&mut self.snap.tables));
        self.settle_under(&deltas, &mut tables);
        *lock_mut(&mut self.snap.tables) = tables;
    }

    fn settle_under(&mut self, deltas: &[(Term, bool)], tables: &mut Tables) {
        let probes: Vec<Term> = deltas.iter().map(|(fact, _)| rename_apart(fact)).collect();
        // A retracted ground instance survives in a table if some other
        // bodiless route still derives it (a builtin-guarded twin) — the
        // same check the DRed path applies to the ground program; asked
        // once per retraction, and only if a table holds the fact.
        let mut spontaneous: Vec<Option<bool>> = vec![None; deltas.len()];
        let program = &self.snap.program;
        // The patched tables whose answers moved, and the rule-derived
        // tables whose own pattern covers a changed fact.
        let (mut moved, mut direct) = (Vec::new(), Vec::new());
        for (key, table) in tables.iter_mut() {
            let hits: Vec<usize> = (0..probes.len())
                .filter(|&i| overlaps(&table.pattern, &probes[i]))
                .collect();
            if hits.is_empty() {
                continue;
            }
            if !table.deps.is_empty() || hits.iter().any(|&i| !deltas[i].0.is_ground()) {
                direct.push(key.clone());
                continue;
            }
            let table = Arc::make_mut(table);
            let mut answers_moved = false;
            for i in hits {
                let (fact, asserted) = &deltas[i];
                answers_moved |= if *asserted {
                    table.answers.insert(fact.clone())
                } else {
                    !*spontaneous[i].get_or_insert_with(|| spontaneous_fact(program, fact))
                        && table.answers.remove(fact)
                };
                self.pending_patched += 1;
            }
            if answers_moved {
                moved.push(key.clone());
            }
        }
        if moved.is_empty() && direct.is_empty() {
            return;
        }
        // Where the pass looks.  `changed` flags what a reader cannot stand
        // on: so far the patched tables that moved, which stay in the map;
        // every other table in the closure is set aside.
        let graph = TableGraph::of(tables);
        let mut changed = graph.flags(&moved);
        let direct = graph.flags(&direct);
        let seeds = changed.iter().zip(&direct).map(|(m, d)| m | d).collect();
        let affected = graph.reverse_closure(seeds);
        let aside: Vec<Option<Arc<Table>>> = (graph.keys.iter().enumerate())
            .map(|(v, key)| {
                (affected[v] && !changed[v])
                    .then(|| tables.remove(key))
                    .flatten()
            })
            .collect();
        let mut index = None;
        for group in &graph.groups {
            // A group is set aside as a whole or not at all.
            if aside[group[0]].is_none() {
                continue;
            }
            // No member of this group is flagged yet, so an edge inside it
            // holds nothing up; every other dependency has had its turn.
            let stands = group.iter().all(|&v| {
                !direct[v] && !graph.dangling[v] && graph.reads[v].iter().all(|&w| !changed[w])
            });
            if stands {
                for &v in group {
                    tables.insert(graph.keys[v].clone(), aside[v].clone().expect("set aside"));
                }
                continue;
            }
            for &v in group {
                let key = &graph.keys[v];
                // An earlier re-solve may have completed it on its way.
                if tables.contains_key(key) {
                    continue;
                }
                let mut evaluator = QueryEvaluator::with_tables(
                    index
                        .get_or_insert_with(|| self.snap.program_index())
                        .clone(),
                    self.snap.opts,
                    std::mem::take(tables),
                    self.snap.storage.clone(),
                );
                // A failure shows as the table's absence below.
                let _ = evaluator.settle(key);
                *tables = evaluator.into_all_tables();
            }
            for &v in group {
                let old = aside[v].as_ref().expect("set aside");
                match tables.get(&graph.keys[v]) {
                    Some(new) => {
                        self.pending_refilled += 1;
                        changed[v] = !same_answers(new, old);
                    }
                    None => {
                        self.pending_dropped += 1;
                        changed[v] = true;
                    }
                }
            }
        }
    }

    /// Drops every table in the instance-level reverse closure of a rule
    /// head (a new or retracted rule can change exactly the instances its
    /// head covers, and whatever reads them).
    pub(super) fn drop_tables_for_head(&mut self, head: &Term) {
        let tables = lock_mut(&mut self.snap.tables);
        let probe = rename_apart(head);
        let covered: Vec<Term> = tables
            .iter()
            .filter(|(_, table)| overlaps(&table.pattern, &probe))
            .map(|(key, _)| key.clone())
            .collect();
        if covered.is_empty() {
            return;
        }
        let graph = TableGraph::of(tables);
        let affected = graph.reverse_closure(graph.flags(&covered));
        for (key, _) in graph.keys.iter().zip(affected).filter(|(_, hit)| *hit) {
            tables.remove(key);
            self.pending_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::magic_eval::normalize_pattern;
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
        // the second is not: the fact-backed move tables are patched in
        // place, the winning tables that read them are re-solved before the
        // retraction returns, and nothing is dropped.
        assert!(db.retract_fact(&parse_term("move(a, b)").unwrap()));
        assert_eq!(db.explain(&query).cached_subqueries, warm);
        assert!(db.retract_fact(&parse_term("move(a, b)").unwrap()));
        let plan = db.explain(&query);
        assert!(plan.patched_subqueries > 0, "move tables must be patched");
        assert!(
            plan.refilled_subqueries > 0,
            "winning tables must be re-solved"
        );
        assert_eq!(plan.dropped_subqueries, 0, "a re-solve is not a drop");
        assert_eq!(plan.cached_subqueries, warm, "every table is still warm");
        // The settled tables answer correctly without evaluating anything:
        // b still wins through move(b, c), and nothing else does.
        let after = db.query(&query).unwrap();
        assert_eq!(after.stats.rule_applications, 0);
        assert_eq!(after.stats.tables_refilled, plan.refilled_subqueries);
        let fresh = HiLogDb::new(db.program().clone()).query(&query).unwrap();
        assert_eq!(after.answers, fresh.answers);
        assert_eq!(after.answers.len(), 1);
        assert_eq!(after.answers[0].binding("X").unwrap(), &Term::sym("b"));
    }

    /// The table the session holds for `pattern`: its `Arc` tells a table
    /// that was put back from one that was re-solved.
    fn table(db: &mut HiLogDb, pattern: &str) -> Arc<Table> {
        let key = normalize_pattern(&parse_term(pattern).unwrap());
        lock_mut(&mut db.snap.tables)[&key].clone()
    }

    #[test]
    fn a_batch_resolves_a_recursive_group_as_one_and_puts_standing_tables_back() {
        // A 3-cycle a -> b -> c -> a with a shortcut a -> c, a tail
        // c -> t1 -> t2, a reader s -> a, and a component of its own
        // u -> v -> w.
        let (mut writer, handle) = HiLogDb::new(
            parse_program(
                "tc(X, Y) :- e(X, Y).\n\
                 tc(X, Y) :- e(X, Z), tc(Z, Y).\n\
                 e(a, b). e(b, c). e(c, a). e(a, c). e(c, t1). e(t1, t2).\n\
                 e(s, a). e(u, v). e(v, w).",
            )
            .unwrap(),
        )
        .into_serving();
        let queries: Vec<_> = ["a", "b", "c", "s", "u"]
            .iter()
            .map(|from| parse_query(&format!("?- tc({from}, Y).")).unwrap())
            .collect();
        let check = |handle: &crate::snapshot::SnapshotHandle| {
            let snapshot = handle.current();
            for query in &queries {
                let served = snapshot.query(query).unwrap();
                let fresh = HiLogDb::new(snapshot.program().clone())
                    .query(query)
                    .unwrap();
                assert_eq!(served.answers, fresh.answers, "{query}");
                assert_eq!(served.stats.rule_applications, 0, "{query} not warm");
            }
        };
        // Readers warm the tables; a mutation-free publish adopts them.
        for query in &queries {
            handle.current().query(query).unwrap();
        }
        writer.publish();
        let before = table(writer.db(), "tc(u, Y)");
        // One batch cuts the cycle and extends the tail: tc(t2), tc(t1), the
        // group {tc(a), tc(b), tc(c)} — mutually recursive when recorded, a
        // chain afterwards — and their reader tc(s) change and are re-solved
        // in the one pass; the other component is not looked at.
        assert!(writer.retract_fact(&parse_term("e(c, a)").unwrap()));
        writer
            .assert_fact(parse_term("e(t2, t3)").unwrap())
            .unwrap();
        writer.publish();
        let plan = writer.db().explain(&queries[0]);
        assert_eq!(plan.refilled_subqueries, 6, "{plan}");
        assert_eq!(plan.dropped_subqueries, 0, "{plan}");
        assert_eq!(plan.patched_subqueries, 2, "e(c, Y) and e(t2, Y)");
        assert!(Arc::ptr_eq(&before, &table(writer.db(), "tc(u, Y)")));
        check(&handle);
        // The shortcut goes: tc(a) is re-solved and comes out as it was, so
        // its reader tc(s) — inside the closure — gets its `Arc` back.
        writer.db().query(&queries[0]).unwrap();
        let (a_before, s_before) = (
            table(writer.db(), "tc(a, Y)"),
            table(writer.db(), "tc(s, Y)"),
        );
        assert!(writer.retract_fact(&parse_term("e(a, c)").unwrap()));
        writer.publish();
        let plan = writer.db().explain(&queries[0]);
        assert_eq!(plan.refilled_subqueries, 1, "{plan}");
        assert_eq!(plan.dropped_subqueries, 0, "{plan}");
        assert!(!Arc::ptr_eq(&a_before, &table(writer.db(), "tc(a, Y)")));
        assert!(Arc::ptr_eq(&s_before, &table(writer.db(), "tc(s, Y)")));
        check(&handle);
    }
}
