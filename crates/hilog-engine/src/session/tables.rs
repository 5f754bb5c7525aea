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
//!   others are **re-solved** eagerly, off the readers' path — whole, or,
//!   for a non-ground table, at the head instances the changes can reach;
//! * only a table whose re-solve fails is **dropped** — the next query that
//!   needs it fails, or falls back, exactly as a fresh session's would.
//!
//! Rule-level mutations change what a *pattern* can derive, not what a fact
//! set holds, and drop the reverse closure of the rule's head outright.
//!
//! # The edges live with the tables
//!
//! Neither pass reads the whole map to find out where to look.  The map is
//! an arena ([`Tables`]) that keeps every key at a stable position, the
//! *readers* of each table as a list of positions, and the tables bucketed
//! by the outermost functor and arity of their pattern, each filed with the
//! hash of its first argument where that is ground; whatever puts a
//! table in or takes one out — a query merging what it completed, the
//! writer adopting what readers completed, the pass, the drop of a rule
//! head's closure — goes through its `insert` / `remove`, which move the
//! edges in the same step.  The pass *sets aside* the tables of its closure
//! by a flag on their slots: out of view of every evaluation, edges in
//! place, table where it was, so a table that comes back as it was costs
//! the arena nothing but the flag — nor the writer's twin of the arena,
//! which is caught up by the slots an edit changed (`Twinned` in
//! `snapshot.rs`).
//!
//! So a pass costs what it reaches.  The tables covering a changed fact are
//! looked for in the bucket of the fact's functor, among those whose first
//! argument can match the fact's; the reverse closure is a breadth-first
//! walk of the readers from them; and the dependency order of the walk is
//! Tarjan over the **closure only**.  That is Tarjan over the
//! whole graph: the closure is closed under readers, a cycle through one of
//! its tables consists of transitive readers of that table, so every
//! strongly connected component that meets the closure lies inside it, and
//! an edge leaving the closure leads to a table the batch cannot have
//! changed, which orders nothing.  The walk numbers the closure, lists its
//! edges and runs Tarjan in scratch the session keeps from pass to pass
//! ([`Walk`]), indexed by arena position and by number, so a pass allocates
//! nothing per table it reaches.  Wherever debug assertions run, every
//! publish compares the arena with one rebuilt from its own tables
//! (`DbSnapshot::fork`).
//!
//! # Editing a table a snapshot shares
//!
//! The published snapshot shares every table with the writer, so the tables
//! the pass edits in place — a fact table it patches, an open table it
//! re-derives per instance — cannot be edited where they are.  They go
//! through one door, `Tables::table_mut`, which does for one table what
//! `Twinned` does for the arena: the version the table was last made from
//! is kept ([`Spares`]), each edit is logged on the table, and the next
//! edit of the same table takes that version back and replays the log into
//! it instead of copying the version in use.  Only while a reader still
//! pins that version is the table copied whole.  A table put back as it
//! was is not edited at all.  Wherever debug assertions run, every table so
//! caught up is compared with the version it caught up to, answer by answer
//! and edge by edge.
//!
//! # Re-deriving a non-ground table per head instance
//!
//! **Record.**  Section 6.1's relations are `dp(H, A)` / `dn(H, A)`: the head
//! *instance* `H` whose rule selected the subgoal instance `A`.  A table
//! with a non-ground pattern keeps the `H`: every recorded dependency on a
//! table `w` lists its *readers* — for each selection `a = θ(L)` answered
//! from `w`, the head instance `h = θ(head)`, in variables shared with `w`'s
//! key, once up to renaming ([`Dep`]).  A table with a ground pattern
//! records none: its only head instance is itself.
//!
//! **Patch.**  Every table the pass settles leaves its *difference* behind,
//! `{added, removed}`: for a patched fact table the facts that moved it, for
//! a re-solved table what comparing it with the version set aside finds, for
//! a dropped one nothing (its extent is unknown).  When the group whose turn
//! it is is a single non-ground table that reads no table of its own group,
//! the *affected head instances* are
//!
//! > `H` = the changed facts the table's own pattern covers ∪
//! > { `θ′(h)` : `w` a changed dependency, `h` ∈ readers(`w`), `δ` ∈
//! > difference(`w`), `θ′` the match of `w`'s key against `δ` },
//!
//! and the table is re-derived at those alone: each `h ∈ H` is settled as a
//! bound sub-query by the evaluator the pass uses anyway (normally a table
//! that is warm, or that the pass has just re-solved), the answers under `h`
//! are replaced in place, through the door above, by that sub-query's
//! answers, and the readers under `h` by one edge to the table of `h` — so
//! that the next change to the instance arrives as a difference of that
//! table.  The table counts as changed only by its own difference.
//!
//! **Fallbacks.**  The table is re-solved whole, which also records it
//! afresh, when a dependency is missing or changed by an unknown amount;
//! when a changed fact its pattern covers is not ground; when some member of
//! `H` is still a variant of the pattern (the selection was made before
//! anything bound the head: a *whole-table* reader, `p(X) :- q(Y), r(X, Y).`
//! under a change to `q`); and when `H` has as many members as the table has
//! recorded readers — what the full re-solve would replay, a measure read
//! off the recorded evaluation and not a threshold anyone sets.  If a
//! sub-query fails (a limit, a cycle through negation only that instance
//! reaches) the table is dropped exactly as after a failed re-solve; if a
//! sub-query completes the table itself on its way, that version stands.
//!
//! **Why it is sound.**  Take any ground instance of a rule for the table
//! and walk its body left to right in the old state and in the new.  The
//! first literal whose truth differs was selected by the recorded evaluation
//! under a `θ` at least as general as the instance — every literal before it
//! succeeded then as it does now — so its `(a, h)` is on file; the atom `δ`
//! it differs at is in the difference of `a`'s table, which is known; and
//! `θ′(h)` covers the instance's head.  An instance whose head is outside
//! `H` therefore replays literal for literal as recorded — Figure 1 /
//! Definition 6.5's argument at the granularity of head instances — and for
//! the instances inside `H` the invariant is re-established by the edge to
//! their own, freshly settled table.

use super::HiLogDb;
use crate::horn::AtomStore;
use crate::magic_eval::{
    normalize_pattern, ProgramIndex, QueryEvaluator, Spares, Table, TableId, Tables,
};
use crate::snapshot::lock_mut;
use hilog_core::unify::{match_with, unify_with};
use hilog_core::{Substitution, Tarjan, Term, TermSet};
use std::collections::BTreeSet;
use std::sync::Arc;

impl Tables {
    /// Calls `hit` with the position of every table held whose pattern could
    /// cover an instance of `probe` (renamed apart by the caller): looked
    /// for among the tables of the probe's functor and arity whose first
    /// argument can match ([`Tables::candidates`]), not among all of them.
    fn covering(&mut self, probe: &Term, mut hit: impl FnMut(TableId)) {
        let candidates = self.candidates(probe);
        #[cfg(test)]
        {
            self.visited += candidates.len();
        }
        for v in candidates {
            if overlaps(self.key(v), probe) {
                hit(v);
            }
        }
    }
}

/// The part of the recorded graph one pass walks, over scratch the session
/// keeps from pass to pass: indexed by arena position or by number in the
/// closure, grown to the largest closure and map it has met, so that a pass
/// allocates nothing per table it reaches.  The closure is the reverse
/// closure of what a batch touched, its tables numbered from 0 — the seeds
/// first — and its edges are the ones among them as they stood when the
/// pass began (the arena itself moves on as the pass re-solves).  An edge
/// out of the closure leads to a table the pass leaves alone, which holds
/// nothing up, unless the map does not hold it: `dangling`.
#[derive(Debug, Default)]
pub(super) struct Walk {
    /// Per arena position, its number in the closure: `usize::MAX` outside
    /// it, and everywhere between passes.
    number: Vec<usize>,
    /// The closure's positions, by number.
    members: Vec<TableId>,
    /// The members each member read, by number: `reads[reads_at[v]..
    /// reads_at[v + 1]]`, in the order of their numbers.
    reads_at: Vec<usize>,
    reads: Vec<usize>,
    /// Members that read a table the map does not hold.
    dangling: Vec<bool>,
    /// The strongly connected components of the edges, dependencies before
    /// readers, mutually recursive tables as one group.
    tarjan: Tarjan,
    /// What the pass has established about each member.
    changes: Vec<Change>,
    /// The versions of members set aside that a re-solve replaced before
    /// their turn came, by position.
    displaced: Vec<(TableId, Arc<Table>)>,
    /// The versions the pass's edits replaced, for the next edit of the
    /// same table to catch up: not scratch, the one thing kept here that a
    /// pass leaves for the next.
    spares: Spares,
}

impl Walk {
    /// Numbers the positions at `seeds` (distinct), in the order given, then
    /// their reverse closure under the recorded edges, breadth first.
    ///
    /// This is *instance-level* where the session's predicate dependency
    /// graph is predicate-level: a mutation to one game of a HiLog win/move database
    /// leaves the other games' `winning(g)(x)` tables untouched even though
    /// every one of them shares the (variable-headed) winning rule.  It is
    /// sound because a kept table's evaluation only ever consulted the
    /// tables its recorded closure names: if none of them is a seed,
    /// refilling the kept table would never read a changed atom — and any
    /// *newly selectable* subgoal requires some consulted table to gain
    /// answers first, which puts it inside the closure.
    fn close(&mut self, tables: &mut Tables, seeds: impl IntoIterator<Item = TableId>) {
        if self.number.len() < tables.span() {
            self.number.resize(tables.span(), usize::MAX);
        }
        self.members.clear();
        for v in seeds {
            self.number[v] = self.members.len();
            self.members.push(v);
        }
        let mut next = 0;
        while let Some(&v) = self.members.get(next) {
            next += 1;
            for &reader in tables.readers(v) {
                if self.number[reader] == usize::MAX {
                    self.number[reader] = self.members.len();
                    self.members.push(reader);
                }
            }
        }
        #[cfg(test)]
        {
            tables.visited += self.members.len();
        }
    }

    /// The recorded edges among the members — a set closed under readers, so
    /// every cycle through a member lies inside it and its strongly connected
    /// components are the whole graph's — read off the members' readers
    /// lists backwards, so no key is looked up; then their components.
    fn order(&mut self, tables: &Tables) {
        let n = self.members.len();
        self.reads_at.clear();
        self.reads_at.resize(n + 1, 0);
        for &dep in &self.members {
            for &reader in tables.readers(dep) {
                self.reads_at[self.number[reader] + 1] += 1;
            }
        }
        for v in 0..n {
            self.reads_at[v + 1] += self.reads_at[v];
        }
        // Filled through the starts, which end up one member along.
        self.reads.clear();
        self.reads.resize(self.reads_at[n], 0);
        for (w, &dep) in self.members.iter().enumerate() {
            for &reader in tables.readers(dep) {
                let at = &mut self.reads_at[self.number[reader]];
                self.reads[*at] = w;
                *at += 1;
            }
        }
        self.reads_at.rotate_right(1);
        self.reads_at[0] = 0;
        self.dangling.clear();
        (self.dangling).extend(self.members.iter().map(|&v| tables.reads_absent(v)));
        let Walk {
            reads_at,
            reads,
            tarjan,
            ..
        } = self;
        tarjan.run(n, |v| reads[reads_at[v]..reads_at[v + 1]].iter().copied());
    }

    /// The members member `v` read.
    fn reads(&self, v: usize) -> &[usize] {
        &self.reads[self.reads_at[v]..self.reads_at[v + 1]]
    }

    /// Takes back the version of the table at `id` a re-solve displaced.
    fn take_displaced(&mut self, id: TableId) -> Option<Arc<Table>> {
        let at = self.displaced.iter().position(|&(v, _)| v == id)?;
        Some(self.displaced.swap_remove(at).1)
    }

    /// Leaves the scratch numbered nowhere, holding no difference.
    fn reset(&mut self) {
        for &v in &self.members {
            self.number[v] = usize::MAX;
        }
        self.members.clear();
        self.changes.clear();
        debug_assert!(self.displaced.is_empty(), "a displaced version was lost");
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

/// How a table's answers moved in a pass.
#[derive(Debug, Default)]
struct Difference {
    added: Vec<Term>,
    removed: Vec<Term>,
}

impl Difference {
    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// One more edit of the table, folded in *net*: an answer that went and
    /// came back within the batch did not move.
    fn note(&mut self, atom: &Term, added: bool) {
        let (same, opposite) = if added {
            (&mut self.added, &mut self.removed)
        } else {
            (&mut self.removed, &mut self.added)
        };
        match opposite.iter().position(|a| a == atom) {
            Some(undone) => {
                opposite.swap_remove(undone);
            }
            None => same.push(atom.clone()),
        }
    }

    /// What `new` holds that `old` does not, and the reverse.
    fn between(new: &AtomStore, old: &AtomStore) -> Difference {
        let only_in = |a: &AtomStore, b: &AtomStore| -> Vec<Term> {
            (a.iter()).filter(|t| !b.contains(t)).cloned().collect()
        };
        let removed = only_in(old, new);
        // Everything of `new` is accounted for when the sizes say so.
        let added = match new.len() + removed.len() > old.len() {
            true => only_in(new, old),
            false => Vec::new(),
        };
        Difference { added, removed }
    }
}

/// What a pass has established about one table, for the tables that read it.
#[derive(Debug)]
enum Change {
    /// Its answers are what they were (or its turn has not come).
    None,
    /// Its answers moved, by this much.
    Known(Difference),
    /// It was dropped: whatever read it cannot stand on anything.
    Unknown,
}

impl From<Difference> for Change {
    fn from(difference: Difference) -> Change {
        if difference.is_empty() {
            Change::None
        } else {
            Change::Known(difference)
        }
    }
}

/// The head instances of the non-ground table `old` (member `v` of `walk`)
/// that the changes below it can bear on: the changed facts its own pattern
/// covers (`direct`), and for every changed dependency `w`, answer `δ` of
/// its difference and recorded reader `h`, the instance `θ′(h)` with `θ′`
/// the match of `w`'s key against `δ` — normalised, each once.  `None` when
/// the table has to be re-solved whole instead: a dependency is gone or
/// changed by an unknown amount, a changed fact is not ground, an instance
/// comes out as a variant of the pattern (a whole-table reader), or there
/// are as many instances as the recorded evaluation has readers — what the
/// full re-solve would replay.
fn affected_instances<'a>(
    old: &Table,
    tables: &Tables,
    walk: &Walk,
    v: usize,
    direct: impl Iterator<Item = &'a Term>,
) -> Option<BTreeSet<Term>> {
    if walk.dangling[v] {
        return None;
    }
    let replayed: usize = old.deps.values().map(|dep| dep.readers.len()).sum();
    let mut instances = BTreeSet::new();
    let mut admit = |instance: Term| {
        let instance = normalize_pattern(&instance);
        instance != old.pattern && {
            instances.insert(instance);
            instances.len() < replayed
        }
    };
    for fact in direct {
        if !(fact.is_ground() && admit(fact.clone())) {
            return None;
        }
    }
    for &w in walk.reads(v) {
        let difference = match &walk.changes[w] {
            Change::None => continue,
            Change::Known(difference) => difference,
            Change::Unknown => return None,
        };
        let key = tables.key(walk.members[w]);
        let readers = &old.deps[key].readers;
        for delta in difference.added.iter().chain(&difference.removed) {
            let mut theta = Substitution::new();
            let answers_key = match_with(key, delta, &mut theta);
            debug_assert!(answers_key, "`{delta}` is not an answer of `{key}`");
            if !readers.iter().all(|reader| admit(theta.apply(reader))) {
                return None;
            }
        }
    }
    Some(instances)
}

/// Replaces the answers and the readers of the table at `id` under each of
/// `instances` by what the instance's own table — settled, in `tables` —
/// says: its answers, and one edge to it, so that the next change to the
/// instance arrives as a difference of that table.  The table is edited
/// through the arena's door ([`Tables::table_mut`]) and only if an answer
/// or an edge moves; returns how its answers moved.
fn graft(
    tables: &mut Tables,
    spares: &mut Spares,
    id: TableId,
    instances: &BTreeSet<Term>,
) -> Difference {
    let mut difference = Difference::default();
    for instance in instances {
        let (mut stale, mut fresh) = (Vec::new(), Vec::new());
        let table = tables.held(id).expect("set aside");
        let settled = &tables.get(instance).expect("settled").answers;
        for answer in table.answers.candidates(instance) {
            if subsumes(instance, answer) && !settled.contains(answer) {
                stale.push(answer.clone());
            }
        }
        for answer in settled.iter() {
            if !table.answers.contains(answer) {
                fresh.push(answer.clone());
            }
        }
        if stale.is_empty() && fresh.is_empty() {
            continue;
        }
        // One instance may cover another; both read the same new state, so
        // the second finds nothing left to do and no answer is noted twice.
        let table = tables.table_mut(id, spares);
        for answer in &stale {
            table.remove_answer(answer);
        }
        for answer in &fresh {
            table.insert_answer(answer);
        }
        difference.removed.append(&mut stale);
        difference.added.append(&mut fresh);
    }
    // A reader is *under* an instance that covers it.  What the instance
    // read is its own table's business from here on: every edge on its
    // behalf goes, but the one to that table.  Every recorded reader is
    // looked up: by hash, not by walking the ordered set.
    let table = tables.held(id).expect("set aside");
    let members: TermSet<&Term> = instances.iter().collect();
    let open: Vec<&Term> = instances.iter().filter(|h| !h.is_ground()).collect();
    let under = |reader: &Term| {
        members.contains(reader) || open.iter().any(|instance| subsumes(instance, reader))
    };
    let mut outdated: Vec<(Term, Term)> = Vec::new();
    for (key, dep) in &table.deps {
        for reader in &dep.readers {
            let own_table = key == reader && members.contains(reader);
            if !own_table && under(reader) {
                outdated.push((key.clone(), reader.clone()));
            }
        }
    }
    let missing: Vec<&Term> = (instances.iter())
        .filter(|&h| !(table.deps.get(h)).is_some_and(|dep| dep.readers.contains(h)))
        .collect();
    if !(outdated.is_empty() && missing.is_empty()) {
        tables.rewire(id, spares, &outdated, &missing);
    }
    difference
}

/// Whether `instance` is an instance of `general` — one-way matching, the
/// instance's variables standing for themselves.
fn subsumes(general: &Term, instance: &Term) -> bool {
    match_with(general, instance, &mut Substitution::new())
}

impl HiLogDb {
    /// Settles the subgoal tables under the fact-level changes queued since
    /// they were last settled: **one pass per batch**, however many facts the
    /// batch asserted or retracted.
    ///
    /// 1. Every table whose pattern covers a changed fact is *directly
    ///    touched* (looked for among the tables of the fact's functor and
    ///    arity, not among all of them).  A touched table with no recorded subgoal edges holds
    ///    exactly the matching bodiless instances and is patched in place,
    ///    fact by fact in the order the changes were made, noting by how
    ///    much its answer set really moved.
    /// 2. The reverse closure of the tables that moved, and of the touched
    ///    rule-derived ones, is where the pass looks: read off the reverse
    ///    edges the map keeps, so finding it costs the closure and not the
    ///    map.  Every rule-derived table in it is **set aside first** (a flag
    ///    on its slot), so that no evaluation below can read it: a batch can
    ///    make one affected table select another that the old graph never
    ///    ordered before it (assert `move(a, b)` and `move(b, c)` together:
    ///    `winning(a)` now reads `winning(b)`), and it must find that table
    ///    settled or absent, never stale.
    /// 3. The tables set aside are walked in dependency order — the strongly
    ///    connected components of the recorded edges, dependencies before
    ///    readers, mutually recursive tables as one group.  A group that is
    ///    not directly touched and whose every dependency is back in the map
    ///    with the answers it had comes back as it was: by induction on
    ///    the order its replay would select the same subgoals and derive the
    ///    same answers (Figure 1's argument, on the instance graph).  A
    ///    group that is one non-ground table reading no table of its own
    ///    group is **re-derived per instance** where that is less work than
    ///    replaying it (the module documentation says when, and why it is
    ///    sound).  Any other group is re-solved whole, each member by an
    ///    evaluator seeded with the live map and under the resource limits a
    ///    cold query for it would face; every table such a run completes is
    ///    kept.  Either way a member leaves its *difference* behind for its
    ///    readers, and counts as changed only if that is not empty.  A
    ///    re-solve or sub-query that fails (a limit, the deadline, a cycle
    ///    through negation the batch closed) leaves the table dropped, which
    ///    its readers see as a change of unknown extent.
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
        // evaluator and back instead of cloning it.  It is the writer's own
        // from here on: the first write after a publish takes back the twin
        // the snapshot before it shared, caught up from the last batch, and
        // copies the map only while a reader pins that twin.
        let mut tables = std::mem::take(lock_mut(&mut self.snap.tables).make_mut());
        let mut walk = std::mem::take(&mut self.walk);
        self.settle_under(&deltas, &mut tables, &mut walk);
        walk.reset();
        walk.spares.sweep(&tables);
        self.walk = walk;
        *lock_mut(&mut self.snap.tables).make_mut() = tables;
    }

    fn settle_under(&mut self, deltas: &[(Term, bool)], tables: &mut Tables, walk: &mut Walk) {
        let probes: Vec<Term> = deltas.iter().map(|(fact, _)| rename_apart(fact)).collect();
        // A retracted ground instance survives in a table if some other
        // bodiless route still derives it (a builtin-guarded twin); asked
        // once per retraction, and only if a table holds the fact.
        let mut spontaneous: Vec<Option<bool>> = vec![None; deltas.len()];
        let mut index = None;
        // (table, change) for every table whose pattern covers a changed
        // fact: a table's hits together, in the order the changes were made.
        let mut hits: Vec<(TableId, usize)> = Vec::new();
        for (i, probe) in probes.iter().enumerate() {
            tables.covering(probe, |v| hits.push((v, i)));
        }
        hits.sort_unstable();
        // The patched tables whose answers moved (and by how much), and the
        // rule-derived tables whose own pattern covers a changed fact.
        let (mut moved, mut direct) = (Vec::new(), Vec::new());
        for hits in hits.chunk_by(|a, b| a.0 == b.0) {
            let v = hits[0].0;
            let rule_derived = !tables.held(v).expect("covering").deps.is_empty();
            if rule_derived || hits.iter().any(|&(_, i)| !deltas[i].0.is_ground()) {
                direct.push(v);
                continue;
            }
            let mut difference = Difference::default();
            for &(_, i) in hits {
                let (fact, asserted) = &deltas[i];
                let held = tables.held(v).expect("covering").answers.contains(fact);
                let edited = if *asserted {
                    !held && tables.table_mut(v, &mut walk.spares).insert_answer(fact)
                } else {
                    held && !*spontaneous[i].get_or_insert_with(|| {
                        (index.get_or_insert_with(|| self.snap.program_index()))
                            .derives_spontaneously(fact)
                    }) && tables.table_mut(v, &mut walk.spares).remove_answer(fact)
                };
                if edited {
                    difference.note(fact, *asserted);
                }
                self.pending_patched += 1;
            }
            if !difference.is_empty() {
                moved.push((v, difference));
            }
        }
        if moved.is_empty() && direct.is_empty() {
            return;
        }
        // Where the pass looks: the closure, its tables numbered with the
        // directly touched ones first and the patched ones after them.
        // `changes` says what a reader cannot stand on: so far the patched
        // tables that moved, which stay in the map; every other table in
        // the closure is set aside.
        let seeds = (direct.iter().copied()).chain(moved.iter().map(|(v, _)| *v));
        walk.close(tables, seeds);
        walk.order(tables);
        let (touched, patched) = (direct.len(), direct.len() + moved.len());
        let direct = |v: usize| v < touched;
        let standing = |v: usize| !(touched..patched).contains(&v);
        walk.changes.clear();
        (walk.changes).resize_with(walk.members.len(), || Change::None);
        for (change, (_, difference)) in walk.changes[touched..].iter_mut().zip(moved) {
            *change = Change::Known(difference);
        }
        for (v, &id) in walk.members.iter().enumerate() {
            if standing(v) {
                tables.set_aside(id);
            }
        }
        let groups = std::mem::take(&mut walk.tarjan);
        for group in groups.components().iter() {
            // A group is set aside as a whole or not at all.
            if !standing(group[0]) {
                continue;
            }
            // No member of this group is flagged yet, so an edge inside it
            // holds nothing up; every other dependency has had its turn.
            let stands = group.iter().all(|&v| {
                !direct(v)
                    && !walk.dangling[v]
                    && (walk.reads(v).iter()).all(|&w| matches!(walk.changes[w], Change::None))
            });
            if stands {
                for &v in group {
                    // A re-solve below may have completed the table on its
                    // way; the version that stood all along takes its place.
                    let id = walk.members[v];
                    match walk.take_displaced(id) {
                        Some(stood) => {
                            tables.put_back(id, stood);
                        }
                        None => tables.restore(id),
                    }
                }
                continue;
            }
            let rederivable = match group {
                &[v] if !tables.key(walk.members[v]).is_ground() && !walk.reads(v).contains(&v) => {
                    let id = walk.members[v];
                    let key = tables.key(id);
                    let covered = (deltas.iter().zip(&probes))
                        .filter(|(_, probe)| direct(v) && overlaps(key, probe))
                        .map(|((fact, _), _)| fact);
                    let displaced = walk.displaced.iter().find(|&&(w, _)| w == id);
                    let old =
                        displaced.map_or_else(|| tables.held(id).expect("held"), |(_, old)| old);
                    affected_instances(old, tables, walk, v, covered).map(|h| (v, h))
                }
                _ => None,
            };
            if let Some((v, instances)) = rederivable {
                let id = walk.members[v];
                let key = tables.key(id).clone();
                // Each instance is a bound sub-query: normally a table that
                // is warm, or that this pass has just re-solved.  One that
                // completes the table itself on its way ends the matter:
                // that version stands, and is accounted for below.
                let settled = instances.iter().all(|instance| {
                    self.pending_rederived += 1;
                    self.resolve(&mut index, tables, instance, &mut walk.displaced)
                        && !tables.contains_key(&key)
                });
                if settled {
                    let difference = graft(tables, &mut walk.spares, id, &instances);
                    tables.restore(id);
                    self.pending_refilled += 1;
                    walk.changes[v] = difference.into();
                    continue;
                }
            } else {
                for &v in group {
                    // A failure shows as the table still set aside below.
                    let key = tables.key(walk.members[v]).clone();
                    self.resolve(&mut index, tables, &key, &mut walk.displaced);
                }
            }
            for &v in group {
                let id = walk.members[v];
                walk.changes[v] = if tables.is_aside(id) {
                    tables.remove(id);
                    self.pending_dropped += 1;
                    Change::Unknown
                } else {
                    let old = walk.take_displaced(id).expect("set aside, then re-solved");
                    self.pending_refilled += 1;
                    let new = tables.held(id).expect("re-solved");
                    Difference::between(&new.answers, &old.answers).into()
                };
            }
        }
        walk.tarjan = groups;
    }

    /// Completes the table for `pattern` (a key) in `tables` — a look when
    /// an earlier evaluation of the pass completed it on its way, otherwise
    /// one evaluator over the whole map, moved into an `Arc` base and taken
    /// back out of it once the evaluator is gone; every table the evaluation
    /// completed enters the map (a re-solved one trading its old edges for
    /// its new, and leaving the version set aside in `displaced`).  `false`
    /// if the evaluation failed, which leaves the table absent or set aside.
    fn resolve(
        &self,
        index: &mut Option<Arc<ProgramIndex>>,
        tables: &mut Tables,
        pattern: &Term,
        displaced: &mut Vec<(TableId, Arc<Table>)>,
    ) -> bool {
        if tables.contains_key(pattern) {
            return true;
        }
        let base = Arc::new(std::mem::take(tables));
        let mut evaluator = QueryEvaluator::over(
            index
                .get_or_insert_with(|| self.snap.program_index())
                .clone(),
            self.snap.opts,
            Arc::clone(&base),
        );
        let settled = evaluator.settle(pattern).is_ok();
        let created = evaluator.into_tables();
        *tables = Arc::into_inner(base).expect("the evaluator let go of the map");
        for table in created.into_values() {
            let key = table.pattern.clone();
            if let Some(aside) = tables.insert(table) {
                displaced.push((tables.position(&key).expect("just held"), aside));
            }
        }
        settled
    }

    /// Drops every table in the instance-level reverse closure of a rule
    /// head (a new or retracted rule can change exactly the instances its
    /// head covers, and whatever reads them): the tables of the head's
    /// functor that cover it, and a walk of their readers.
    pub(super) fn drop_tables_for_head(&mut self, head: &Term) {
        if lock_mut(&mut self.snap.tables).is_empty() {
            return;
        }
        let tables = lock_mut(&mut self.snap.tables).make_mut();
        let mut covered = Vec::new();
        tables.covering(&rename_apart(head), |v| covered.push(v));
        self.walk.close(tables, covered);
        for &v in &self.walk.members {
            tables.remove(v);
        }
        self.pending_dropped += self.walk.members.len();
        self.walk.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::magic_eval::Dep;
    use crate::snapshot::DbSnapshot;
    use hilog_core::{EdgeSign, Truth};
    use hilog_syntax::{parse_program, parse_query, parse_term};
    use std::collections::BTreeMap;

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
        assert!(db.snap.cached_subqueries() > 0);
        // A new edge fact only reaches `reach`: the winning tables survive.
        db.assert_fact(parse_term("edge(v, w)").unwrap()).unwrap();
        assert!(
            db.snap.cached_subqueries() > 0,
            "unrelated tables were dropped"
        );
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
        assert!(
            db.snap.cached_subqueries() > 0,
            "unrelated tables were dropped"
        );
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
        let warm = db.snap.cached_subqueries();
        assert!(warm > 0);
        // `move(a, b)` is already a program fact: re-asserting it must not
        // drop the tables in move's dependency closure.
        db.assert_fact(parse_term("move(a, b)").unwrap()).unwrap();
        assert_eq!(
            db.snap.cached_subqueries(),
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
        assert_eq!(db.snap.cached_subqueries(), warm);
        assert!(db.retract_fact(&parse_term("move(a, b)").unwrap()));
        let after = db.query(&query).unwrap();
        let stats = after.stats;
        assert!(stats.tables_patched > 0, "move tables must be patched");
        assert!(
            stats.tables_refilled > 0,
            "winning tables must be re-solved"
        );
        assert_eq!(stats.tables_dropped, 0, "a re-solve is not a drop");
        // Every table is still warm, and the open table was re-derived at
        // `winning(a)` alone — through two tables nobody had asked for yet,
        // that instance's own and the `move(a, Y)` it reads.
        assert_eq!(stats.instances_rederived, 1, "{stats:?}");
        assert_eq!(stats.tables_reused, warm + 2, "{stats:?}");
        // The settled tables answer correctly without evaluating anything:
        // b still wins through move(b, c), and nothing else does.
        assert_eq!(stats.rule_applications, 0);
        let fresh = HiLogDb::new(db.program().clone()).query(&query).unwrap();
        assert_eq!(after.answers, fresh.answers);
        assert_eq!(after.answers.len(), 1);
        assert_eq!(after.answers[0].binding("X").unwrap(), &Term::sym("b"));
    }

    /// The table the session holds for `pattern`: its `Arc` tells a table
    /// that was put back from one that was re-solved.
    fn table(db: &mut HiLogDb, pattern: &str) -> Arc<Table> {
        let key = normalize_pattern(&parse_term(pattern).unwrap());
        lock_mut(&mut db.snap.tables).get(&key).unwrap().clone()
    }

    #[test]
    fn a_table_a_write_re_solves_or_drops_is_released() {
        let mut db = game_db();
        let query = parse_query("?- winning(a).").unwrap();
        db.query(&query).unwrap();
        // `winning(b)` loses and `winning(a)` with it: both are re-solved.
        let resolved = Arc::downgrade(&table(&mut db, "winning(a)"));
        assert!(db.retract_fact(&parse_term("move(b, c)").unwrap()));
        db.query(&query).unwrap();
        assert!(resolved.upgrade().is_none(), "a re-solved table is held");
        // A rule edit drops the tables of its head.
        let dropped = Arc::downgrade(&table(&mut db, "winning(a)"));
        let rule = db.program().rules[0].clone();
        assert!(db.retract_rule(&rule));
        db.query(&parse_query("?- move(a, X).").unwrap()).unwrap();
        assert!(dropped.upgrade().is_none(), "a dropped table is held");
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
        let stats = writer.db().query(&queries[0]).unwrap().stats;
        assert_eq!(stats.tables_refilled, 6, "{stats:?}");
        // Two of the six are chained to what changed through a shared
        // variable and re-derived where it changed: `tc(t1, Y)` at `t3`,
        // `tc(s, Y)` at `a` (gone with the cycle) and at `t3`.
        assert_eq!(stats.instances_rederived, 3, "{stats:?}");
        assert_eq!(stats.tables_dropped, 0, "{stats:?}");
        assert_eq!(stats.tables_patched, 2, "e(c, Y) and e(t2, Y)");
        assert!(Arc::ptr_eq(&before, &table(writer.db(), "tc(u, Y)")));
        check(&handle);
        // The shortcut goes: tc(a) — whose second rule reads `e(a, Z)` on
        // behalf of every answer — is re-solved whole and comes out as it
        // was, and so are the two instance tables `tc(a, a)` and `tc(a, t3)`
        // the pass above left under it; its reader tc(s) — inside the
        // closure — gets its `Arc` back.
        let (a_before, s_before) = (
            table(writer.db(), "tc(a, Y)"),
            table(writer.db(), "tc(s, Y)"),
        );
        assert!(writer.retract_fact(&parse_term("e(a, c)").unwrap()));
        writer.publish();
        assert_eq!(counts(&mut writer), (3, 0, 0));
        assert!(!Arc::ptr_eq(&a_before, &table(writer.db(), "tc(a, Y)")));
        assert!(Arc::ptr_eq(&s_before, &table(writer.db(), "tc(s, Y)")));
        check(&handle);
    }

    /// What the pass did since the counters were last read, then resets
    /// them: `(re-solved, instances re-derived, dropped)`.
    fn counts(writer: &mut crate::snapshot::DbWriter) -> (usize, usize, usize) {
        let probe = parse_query("?- probe.").unwrap();
        let stats = writer.db().query(&probe).unwrap().stats;
        (
            stats.tables_refilled,
            stats.instances_rederived,
            stats.tables_dropped,
        )
    }

    /// The published snapshot answers `query` as a fresh session over its
    /// program does, and without applying a rule.
    fn assert_warm_and_fresh(handle: &crate::snapshot::SnapshotHandle, query: &str) {
        let query = parse_query(query).unwrap();
        let snapshot = handle.current();
        let served = snapshot.query(&query).unwrap();
        let fresh = HiLogDb::new(snapshot.program().clone())
            .query(&query)
            .unwrap();
        assert_eq!(served.answers, fresh.answers, "{query}");
        assert_eq!(served.fallback.is_some(), fresh.fallback.is_some());
        assert_eq!(served.stats.rule_applications, 0, "{query} not warm");
    }

    #[test]
    fn an_open_table_is_rederived_at_the_instances_a_write_can_change() {
        // A chain n0 -> ... -> n9 with two branches off it, and n10 with two
        // dead ends below it: n10 -> n11, n10 -> n12.
        let mut moves: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        moves.extend([(2, 10), (6, 10), (10, 11), (10, 12)]);
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for (from, to) in &moves {
            text.push_str(&format!("move(n{from}, n{to}).\n"));
        }
        let (mut writer, handle) = HiLogDb::new(parse_program(&text).unwrap()).into_serving();
        let open = "?- winning(X).";
        handle.current().query(&parse_query(open).unwrap()).unwrap();
        for n in 0..13 {
            let ground = parse_query(&format!("?- winning(n{n}).")).unwrap();
            handle.current().query(&ground).unwrap();
        }
        writer.publish();
        counts(&mut writer);
        let recorded: usize = (table(writer.db(), "winning(X)").deps.values())
            .map(|dep| dep.readers.len())
            .sum();
        assert_eq!(recorded, 1 + moves.len(), "`move(X, Y)` and one per move");
        // n11 gets a move and starts winning; n10 keeps winning through n12,
        // so that is the one position that flips.  The instances to look at
        // are the source of the new move and the one position with a move
        // into the table that changed — not the thirteen the table covers.
        writer
            .assert_fact(parse_term("move(n11, n13)").unwrap())
            .unwrap();
        writer.publish();
        let (resolved, rederived, dropped) = counts(&mut writer);
        assert_eq!(rederived, 2, "winning(n11), winning(n10)");
        // winning(n11) changes, its reader winning(n10) does not and stops
        // the pass there; the open table counts once.
        assert_eq!((resolved, dropped), (3, 0));
        assert_warm_and_fresh(&handle, open);
        let after = handle.current().query(&parse_query(open).unwrap()).unwrap();
        assert!(after
            .answers
            .iter()
            .any(|a| a.binding("X").unwrap() == &Term::sym("n11")));
        // The two instances now read their own tables: their old edges are
        // gone, one edge each took their place.
        let deps = &table(writer.db(), "winning(X)").deps;
        for instance in ["winning(n10)", "winning(n11)"] {
            let instance = parse_term(instance).unwrap();
            assert!(deps[&instance].readers.contains(&instance));
        }
        let n12 = parse_term("winning(n12)").unwrap();
        assert!(!deps.contains_key(&n12), "only winning(n10) read it");
        // A toggle that moves no answer — n10 gets, then loses, a third dead
        // end — re-derives winning(n10) each time.  The first round still
        // has n10's instance edge to write; repeated, no answer and no edge
        // changes, and the table is the same allocation throughout.
        let toggle = parse_term("move(n10, n14)").unwrap();
        let toggle_pair = |writer: &mut crate::snapshot::DbWriter| {
            writer.assert_fact(toggle.clone()).unwrap();
            writer.publish();
            assert!(writer.retract_fact(&toggle));
            writer.publish();
            let (resolved, rederived, dropped) = counts(writer);
            // winning(n10) and the open table, twice over.
            assert_eq!((resolved, rederived, dropped), (4, 2, 0));
            table(writer.db(), "winning(X)")
        };
        let first = toggle_pair(&mut writer);
        let second = toggle_pair(&mut writer);
        assert!(Arc::ptr_eq(&first, &second));
        assert_warm_and_fresh(&handle, open);
    }

    /// Whole copies of a table the writer's pass has made so far.
    fn table_copies(writer: &mut crate::snapshot::DbWriter) -> usize {
        lock_mut(&mut writer.db().snap.tables).copies
    }

    #[test]
    fn a_pinned_table_is_copied_and_the_next_edit_catches_up_again() {
        // Every batch toggles `move(n11, n13)`: it patches the fact tables
        // `move(X, Y)` and `move(n11, Y)` and flips `winning(n11)`, which
        // grafts the open `winning(X)` table.
        let mut moves: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        moves.extend([(2, 10), (6, 10), (10, 11), (10, 12)]);
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for (from, to) in &moves {
            text.push_str(&format!("move(n{from}, n{to}).\n"));
        }
        let (mut writer, handle) = HiLogDb::new(parse_program(&text).unwrap()).into_serving();
        let (open, edges) = ("?- winning(X).", "?- move(X, Y).");
        let mut queries = vec![open.to_string(), edges.to_string()];
        queries.extend((0..14).map(|n| format!("?- winning(n{n}).")));
        for query in &queries {
            (handle.current().query(&parse_query(query).unwrap())).unwrap();
        }
        writer.publish();
        let toggle = parse_term("move(n11, n13)").unwrap();
        let mut asserted = false;
        let mut batch = |writer: &mut crate::snapshot::DbWriter| {
            if asserted {
                assert!(writer.retract_fact(&toggle));
            } else {
                writer.assert_fact(toggle.clone()).unwrap();
            }
            asserted = !asserted;
            writer.publish();
            let (resolved, rederived, dropped) = counts(writer);
            assert!(resolved > 0 && rederived > 0 && dropped == 0);
            assert_warm_and_fresh(&handle, open);
            assert_warm_and_fresh(&handle, edges);
        };
        // The first edit of each table has no older version to catch up;
        // from the second batch on nothing is copied.
        batch(&mut writer);
        let first = table_copies(&mut writer);
        assert_eq!(first, 3, "move(X, Y), move(n11, Y), winning(X): once each");
        batch(&mut writer);
        batch(&mut writer);
        assert_eq!(table_copies(&mut writer), first);
        // A reader pins the epoch both tables were last edited from.  The
        // next batch edits them again: the version the one after that would
        // catch up is the pinned one.
        let pinned = handle.current();
        let answers = |snapshot: &DbSnapshot, query: &str| {
            snapshot
                .query(&parse_query(query).unwrap())
                .unwrap()
                .answers
        };
        let before = (answers(&pinned, open), answers(&pinned, edges));
        batch(&mut writer);
        assert_eq!(table_copies(&mut writer), first, "nothing pins its spare");
        batch(&mut writer);
        assert_eq!(
            table_copies(&mut writer),
            first + 3,
            "copied, not caught up"
        );
        assert_eq!((answers(&pinned, open), answers(&pinned, edges)), before);
        // Once the pin is gone, the next batch catches up again.
        drop(pinned);
        batch(&mut writer);
        batch(&mut writer);
        assert_eq!(table_copies(&mut writer), first + 3);
    }

    /// The 13-node game of the test above beside `unrelated` warm tables
    /// `tc(u_i, Y)` (and as many `e(u_i, Y)`) over a relation of their own —
    /// a binary tree, so one cold query tables every node — under one `move`
    /// assert: the positions the pass looked at.
    fn positions_visited_beside(unrelated: usize) -> usize {
        let mut moves: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        moves.extend([(2, 10), (6, 10), (10, 11), (10, 12)]);
        let mut text = String::from(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             tc(X, Y) :- e(X, Y).\n\
             tc(X, Y) :- e(X, Z), tc(Z, Y).\n",
        );
        for (from, to) in &moves {
            text.push_str(&format!("move(n{from}, n{to}).\n"));
        }
        for child in 1..unrelated {
            text.push_str(&format!("e(u{}, u{child}).\n", (child - 1) / 2));
        }
        let (mut writer, handle) = HiLogDb::new(parse_program(&text).unwrap()).into_serving();
        let open = "?- winning(X).";
        let mut queries = vec![open.to_string(), "?- tc(u0, Y).".to_string()];
        queries.extend((0..13).map(|n| format!("?- winning(n{n}).")));
        for query in &queries {
            handle
                .current()
                .query(&parse_query(query).unwrap())
                .unwrap();
        }
        writer.publish();
        counts(&mut writer);
        let before = lock_mut(&mut writer.db().snap.tables).clone();
        let is_unrelated = |key: &Term| {
            let functor = key.outermost_functor();
            functor == &Term::sym("tc") || functor == &Term::sym("e")
        };
        let held = before.iter().filter(|(key, _)| is_unrelated(key)).count();
        assert_eq!(held, 2 * unrelated, "tc(u_i, Y) and e(u_i, Y) per node");
        writer
            .assert_fact(parse_term("move(n11, n13)").unwrap())
            .unwrap();
        writer.publish();
        // What the pass does is what it did without the bystanders ...
        assert_eq!(counts(&mut writer), (3, 2, 0));
        assert_warm_and_fresh(&handle, open);
        // ... none of which it replaced ...
        let after = lock_mut(&mut writer.db().snap.tables).clone();
        for (key, table) in before.iter().filter(|(key, _)| is_unrelated(key)) {
            assert!(
                Arc::ptr_eq(table, after.get(key).unwrap()),
                "{key} was replaced"
            );
        }
        // ... or looked at.
        after.assert_describes();
        after.visited - before.visited
    }

    #[test]
    fn the_pass_does_not_look_at_the_rest_of_the_map() {
        let beside_few = positions_visited_beside(10);
        // `move(n11, Y)` is the one table of the fact's functor that covers
        // it among the `move(n_i, Y)` the game tabled; the closure is that
        // table, `winning(n11)`, and the two tables that read it.
        assert!((4..40).contains(&beside_few), "{beside_few}");
        assert_eq!(beside_few, positions_visited_beside(2_000));
    }

    /// A table for `key` that recorded an edge to each of `deps`.
    fn table_reading(key: &Term, deps: &[&Term]) -> Arc<Table> {
        let edge = || Dep {
            sign: EdgeSign::Positive,
            readers: BTreeSet::new(),
        };
        let mut table = Table::new(key.clone());
        table.complete = true;
        table.deps = deps.iter().map(|&dep| (dep.clone(), edge())).collect();
        Arc::new(table)
    }

    /// The position of the table held for `key`, if any.
    fn held(tables: &Tables, key: &Term) -> Option<TableId> {
        (tables.candidates(key).into_iter()).find(|&v| tables.key(v) == key)
    }

    fn position(tables: &Tables, key: &Term) -> TableId {
        held(tables, key).expect("held")
    }

    /// SplitMix64: a pinned seed gives the same sequence on every platform.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn the_arena_equals_its_rebuild_op_by_op() {
        let key = |text: &str| normalize_pattern(&parse_term(text).unwrap());
        let (p, q, r, open, hilog) = (
            key("p(a)"),
            key("q(a, b)"),
            key("r(a)"),
            key("p(X)"),
            key("G(a)"),
        );
        let mut tables = Tables::default();
        let put = |tables: &mut Tables, key: &Term, deps: &[&Term]| {
            tables.insert(table_reading(key, deps));
            tables.assert_describes();
        };
        // `q` is read before the map holds it (a dangling edge), `p` reads
        // itself, and a variable-named pattern is in nobody's bucket.
        put(&mut tables, &p, &[&q, &p]);
        put(&mut tables, &open, &[&p, &q]);
        put(&mut tables, &hilog, &[&r]);
        assert!(!tables.contains_key(&q));
        put(&mut tables, &q, &[]);
        let named = |tables: &Tables, positions: &[TableId]| -> BTreeSet<Term> {
            positions.iter().map(|&v| tables.key(v).clone()).collect()
        };
        let covering = |tables: &mut Tables, probe: &str| {
            let mut hit = Vec::new();
            tables.covering(&parse_term(probe).unwrap(), |v| hit.push(v));
            named(tables, &hit)
        };
        assert_eq!(
            covering(&mut tables, "p(a)"),
            BTreeSet::from([p.clone(), open.clone(), hilog.clone()])
        );
        assert_eq!(
            covering(&mut tables, "q(a, b)"),
            BTreeSet::from([q.clone()])
        );
        // A probe with another first argument is matched against the open
        // pattern alone: not `p(a)`, nor `G(a)` beside it.
        let visited = tables.visited;
        assert_eq!(
            covering(&mut tables, "p(b)"),
            BTreeSet::from([open.clone()])
        );
        assert_eq!(tables.visited - visited, 1);
        // The closure of `q`: its readers and theirs, not `G(a)`.
        let seed = position(&tables, &q);
        let mut walk = Walk::default();
        walk.close(&mut tables, [seed]);
        assert_eq!(walk.members[0], seed);
        assert_eq!(
            named(&tables, &walk.members),
            BTreeSet::from([q.clone(), p.clone(), open.clone()])
        );
        walk.reset();
        assert!(walk.number.iter().all(|&n| n == usize::MAX));
        // Another version of `p` with other edges; a grafted `open`.
        put(&mut tables, &p, &[&r]);
        put(&mut tables, &open, &[&q, &r]);
        // Set aside: out of view, edges in place; put back as it was.
        let at = position(&tables, &open);
        tables.set_aside(at);
        tables.assert_describes();
        assert!(!tables.contains_key(&open));
        assert_eq!(tables.len(), 3);
        tables.restore(at);
        tables.assert_describes();
        // Set aside, then replaced by a re-solve that reads otherwise: the
        // version set aside is handed back.
        let at = position(&tables, &p);
        let old = tables.get(&p).unwrap().clone();
        tables.set_aside(at);
        let displaced = tables.insert(table_reading(&p, &[&q, &p]));
        assert!(Arc::ptr_eq(&displaced.expect("set aside"), &old));
        tables.assert_describes();
        assert_eq!(position(&tables, &p), at);
        assert_eq!(tables.len(), 4);
        // Tables leave; the positions they and their dangling `r` held are
        // given to whatever comes next.
        let (_, positions) = tables.footprint();
        for gone in [&p, &hilog, &open, &q] {
            tables.remove(position(&tables, gone));
            tables.assert_describes();
        }
        assert_eq!(tables.footprint().0, 0, "a key outlived its tables");
        put(&mut tables, &r, &[&q]);
        put(&mut tables, &p, &[&p]);
        assert_eq!(tables.footprint().1, positions, "positions were not reused");

        // Then every operation at random over a handful of keys — absent
        // dependencies, self-edges and HiLog patterns among them — against
        // a plain map of what should be in view.
        let keys = [&p, &q, &r, &open, &hilog, &key("s(b)"), &key("t(X, a)")];
        let mut shown: BTreeMap<Term, Arc<Table>> = (tables.iter())
            .map(|(key, table)| (key.clone(), table.clone()))
            .collect();
        let mut aside: Vec<(TableId, Arc<Table>)> = Vec::new();
        let mut rng = Rng(0x5eed_0044);
        for _ in 0..2_000 {
            let k = keys[rng.below(keys.len())];
            let held = held(&tables, k);
            match rng.below(5) {
                // A new table, or a new version — a re-solve, if the key
                // is set aside.
                0 | 1 => {
                    let deps: Vec<&Term> = (0..rng.below(4))
                        .map(|_| keys[rng.below(keys.len())])
                        .collect();
                    let table = table_reading(k, &deps);
                    let was_aside = aside.iter().position(|&(v, _)| tables.key(v) == k);
                    let displaced = tables.insert(table.clone());
                    match (was_aside, displaced) {
                        (Some(at), Some(old)) => assert!(Arc::ptr_eq(&aside.remove(at).1, &old)),
                        (None, None) => {}
                        _ => panic!("a version set aside is handed back, and no other"),
                    }
                    shown.insert(k.clone(), table);
                }
                2 => {
                    if let Some(v) = held {
                        tables.remove(v);
                        aside.retain(|&(w, _)| w != v);
                        shown.remove(k);
                    }
                }
                3 => {
                    if let Some(table) = shown.remove(k) {
                        let v = held.expect("in view");
                        tables.set_aside(v);
                        assert!(tables.is_aside(v));
                        assert!(Arc::ptr_eq(tables.held(v).unwrap(), &table));
                        aside.push((v, table));
                    }
                }
                _ => {
                    if !aside.is_empty() {
                        let (v, table) = aside.swap_remove(rng.below(aside.len()));
                        tables.restore(v);
                        shown.insert(tables.key(v).clone(), table);
                    }
                }
            }
            tables.assert_describes();
            assert_eq!(tables.len(), shown.len());
            assert_eq!(tables.iter().count(), shown.len());
            for (key, table) in &shown {
                assert!(Arc::ptr_eq(tables.get(key).unwrap(), table), "{key}");
            }
            assert!(
                tables.footprint().1 <= keys.len(),
                "a free position was not reused"
            );
        }
    }

    #[test]
    fn a_head_variable_bound_by_a_later_literal_is_covered_by_the_recorded_reader() {
        // `Z` is bound by the last literal only: the reader `not b(Y)` is
        // recorded under is `p(x, Z)` with `Z` open, the one `c(Y, Z)` is
        // recorded under shares `Z` with it.
        let (mut writer, handle) = HiLogDb::new(
            parse_program(
                "p(X, Z) :- a(X, Y), not b(Y), c(Y, Z).\n\
                 a(x1, y1). a(x2, y2). a(x3, y3). a(x4, y4).\n\
                 c(y1, z1). c(y2, z2). c(y3, z3). c(y4, z4). b(y4).",
            )
            .unwrap(),
        )
        .into_serving();
        let open = "?- p(X, Z).";
        handle.current().query(&parse_query(open).unwrap()).unwrap();
        writer.publish();
        counts(&mut writer);
        // One batch makes `b(y1)` true and takes `c(y1, z1)` away: a join of
        // the `b` delta against the new state no longer reaches `z1`.
        writer.assert_fact(parse_term("b(y1)").unwrap()).unwrap();
        assert!(writer.retract_fact(&parse_term("c(y1, z1)").unwrap()));
        writer.publish();
        let (resolved, rederived, dropped) = counts(&mut writer);
        assert_eq!(rederived, 2, "p(x1, Z) for `b`, p(x1, z1) for `c`");
        assert_eq!((resolved, dropped), (1, 0), "the open table, in part");
        assert_warm_and_fresh(&handle, open);
        // And back, with another `Z`: `p(x1, z9)` appears.
        assert!(writer.retract_fact(&parse_term("b(y1)").unwrap()));
        writer
            .assert_fact(parse_term("c(y1, z9)").unwrap())
            .unwrap();
        writer.publish();
        let (_, rederived, dropped) = counts(&mut writer);
        assert!(rederived > 0);
        assert_eq!(dropped, 0);
        assert_warm_and_fresh(&handle, open);
        let answers = handle.current().query(&parse_query(open).unwrap()).unwrap();
        assert_eq!(answers.answers.len(), 3, "x1 (z9), x2, x3");
    }

    #[test]
    fn whole_table_readers_and_recursive_groups_are_resolved_whole() {
        // `q(Y)` is selected before anything binds `X`: whatever changes in
        // `q` bears on every answer of `p(X)`.
        let (mut writer, handle) = HiLogDb::new(
            parse_program(
                "p(X) :- q(Y), r(X, Y).\n\
                 q(c). r(a, c). r(b, c). r(d, e).\n\
                 tc(X, Y) :- e(X, Y).\n\
                 tc(X, Y) :- e(X, Z), tc(Z, Y).\n\
                 e(a, b). e(b, a).",
            )
            .unwrap(),
        )
        .into_serving();
        for query in ["?- p(X).", "?- tc(a, Y)."] {
            handle
                .current()
                .query(&parse_query(query).unwrap())
                .unwrap();
        }
        writer.publish();
        counts(&mut writer);
        let before = table(writer.db(), "p(X)");
        writer.assert_fact(parse_term("q(e)").unwrap()).unwrap();
        writer.publish();
        assert_eq!(counts(&mut writer), (1, 0, 0), "p(X), whole");
        assert!(!Arc::ptr_eq(&before, &table(writer.db(), "p(X)")));
        assert_warm_and_fresh(&handle, "?- p(X).");
        // tc(a, Y) and tc(b, Y) read each other: one group, re-solved as one.
        writer.assert_fact(parse_term("e(b, c)").unwrap()).unwrap();
        writer.publish();
        assert_eq!(counts(&mut writer), (2, 0, 0), "tc(a, Y), tc(b, Y)");
        assert_warm_and_fresh(&handle, "?- tc(a, Y).");
    }

    #[test]
    fn a_cycle_through_negation_behind_one_instance_drops_the_table() {
        let (mut writer, handle) = HiLogDb::new(
            parse_program(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 move(n0, n1). move(n1, n2). move(n2, n3). move(n3, n4).\n\
                 move(n4, n5). move(n6, n7). move(n7, n8). move(n8, n9).",
            )
            .unwrap(),
        )
        .into_serving();
        let open = parse_query("?- winning(X).").unwrap();
        let pinned = handle.current();
        let before = pinned.query(&open).unwrap();
        assert!(before.fallback.is_none());
        writer.publish();
        counts(&mut writer);
        // n6 has moves but nobody moves to it: the open table is the only
        // table that covers winning(n6).  A move n6 -> n6 makes that instance
        // depend on itself through negation (Example 6.4's shape), and the
        // instance is the only thing the delta names: settling it meets the
        // cycle, and the table goes the way a failed re-solve goes.
        writer
            .assert_fact(parse_term("move(n6, n6)").unwrap())
            .unwrap();
        writer.publish();
        assert_eq!(counts(&mut writer), (0, 1, 1), "winning(n6), the table");
        let snapshot = handle.current();
        let served = snapshot.query(&open).unwrap();
        let fresh = HiLogDb::new(snapshot.program().clone())
            .query(&open)
            .unwrap();
        assert!(served.fallback.is_some() && fresh.fallback.is_some());
        assert_eq!(served.answers, fresh.answers);
        assert_eq!(served.truth, fresh.truth);
        // The ground tables below n6 were never looked at, and the epoch
        // pinned before the write answers as it did.
        let untouched = parse_query("?- winning(n7).").unwrap();
        assert_eq!(
            snapshot.query(&untouched).unwrap().stats.rule_applications,
            0
        );
        assert_eq!(pinned.query(&open).unwrap().answers, before.answers);
    }
}
