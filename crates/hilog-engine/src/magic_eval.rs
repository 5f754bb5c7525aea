//! Query-directed evaluation for modularly stratified HiLog programs.
//!
//! Section 6.1 uses the magic-sets rewriting to evaluate queries bottom-up
//! while only ever touching atoms relevant to the query.  This
//! module realises the *evaluation* side of that method with a
//! memoising, query/subquery engine: subgoals are tabled, answers are
//! computed to a fixpoint, and a negative (or aggregate) subgoal is read
//! only once its own table is *complete* — which is exactly what modular
//! stratification guarantees to be possible, and exactly what the
//! dp/dn/□ machinery of Ross \[16\] arranges in the rewritten program.  The
//! relevance behaviour (irrelevant parts of the database are never visited)
//! is the same (`EvalStats.rule_applications` counts it).
//!
//! Every subgoal table records the positive/negative dependency edges
//! discovered while it was filled (the instance-level counterpart of the
//! `dp` / `dn` bookkeeping predicates — see [`EdgeSign`]).  The incomplete
//! tables of an evaluation are its one scope, and they are settled the way
//! Figure 1 settles predicates: condensed over the recorded edges into
//! strongly connected components, the *lowest* first (the leader-based
//! completion of SLG-WAM: Sagonas and Swift, TOPLAS 20(3), 1998).  A
//! component with a negative edge inside — a negative dependency cycle at
//! the instance level, as in Example 6.4 — is reported as
//! [`EngineError::NotModularlyStratified`] with the offending cycle read
//! back from that recorded graph, mirroring the paper's remark that the
//! magic-sets method "would notice the negative dependency of `p(a)` on
//! itself ... and not get as far as checking `p(b)`".  Because every
//! component is saturated to a true fixpoint before it completes, the set
//! of selected subgoal instances — and therefore the verdict — depends only
//! on the program and the query, not on which tables happen to be complete
//! already: a session that reuses completed tables reaches the same verdict
//! and the same answers as a cold evaluator.  Completed tables keep their
//! edges, which is also what lets [`crate::session::HiLogDb`] *maintain*
//! tables under mutation instead of dropping whole predicate closures.
//!
//! The rewritten program derives `dp(H, A)` / `dn(H, A)` per head *instance*
//! `H` (`dn(w(M)(X), w(M)(Y)) :- sup_0_2(M, X, Y).`), and so do the tables:
//! a table whose pattern is non-ground stands for many head instances, and
//! each edge it records (`Table.deps`) lists, beside the sign, the instances
//! that selected the subgoal — in variables shared with the subgoal's key, so
//! that matching the key against one changed answer yields the head
//! instances that answer can bear on.  A selection made before anything
//! bound the head is recorded under a variant of the pattern itself: it was
//! read on behalf of the whole table.  The session's table maintenance uses
//! the instances to re-derive such a table where a write can change it
//! rather than whole; a table with a ground pattern records none.
//!
//! The same edges drive the settle loop, which is one loop and no
//! recursion.  A selection settles nothing: it records its edge and opens
//! the subgoal's table if there is none; a positive literal reads the
//! answers its table holds now, and a negative or aggregate literal on an
//! incomplete table drops the branch — the walk is *blocked* on it.  The
//! loop gathers the incomplete tables a root reaches, expanding each new
//! one, condenses them, and runs each component whose reads outside itself
//! are all complete to a fixpoint: a member is expanded again only when a
//! table it reads grew since it last began, or one it blocked on completed.
//! So a subgoal costs one expansion per change of its inputs, a chain of
//! negations is a chain of tables rather than of nested calls — the depth
//! of an evaluation is bounded by memory, not by the thread's stack, and
//! every expansion checks the deadline — and re-solving a table whose
//! dependencies are all complete is a single expansion with no
//! condensation.  A *new* subgoal no rule head can match is never expanded
//! at all: its table is filled from the program's facts and completed when
//! it is selected, so the expansion that selected it reads its answers at
//! once.
//!
//! Subgoals must have ground predicate names and ground negative subgoals at
//! selection time (the program must not *flounder*, footnote 10); the
//! left-to-right subgoal order of the source rules is the sideways
//! information passing strategy.
//!
//! The evaluator reads the program through one `ProgramIndex`: the ground
//! bodiless rules (the EDB) sit in an argument-indexed [`FactStore`] (the one
//! store a session may page to disk), every
//! other rule, compiled once into a [`RulePlan`] as it enters, in a head
//! index keyed on `(outermost functor, arity)`.  An expansion unifies a
//! plan's head with the subgoal pattern in a fresh [`Frame`] — the
//! pattern's variables become slots beside the rule's, so no rule is
//! renamed — and walks the body depth first over that one frame.
//! Expanding a subgoal asks the store for the candidates of its pattern —
//! the same "find the stored atoms a pattern could match" operation the
//! grounder's joins and the table joins use — so a bound subgoal costs in
//! proportion to the facts it *matches*, not to the facts of its relation
//! (the relevance the magic predicates buy in the rewritten program).  The
//! index is built once per program and *maintained* under mutation by the
//! session (see [`crate::snapshot::DbSnapshot`]); a raw `QueryEvaluator`
//! builds its own.

use crate::aggregate::solve_aggregate;
use crate::ambient::{check_deadline, Counters};
use crate::error::EngineError;
use crate::horn::{AtomStore, EvalOptions, NegationMode};
use crate::join::{Frame, RulePlan, Step};
use crate::snapshot::{CatchUp, Log, Twinned};
use crate::storage::{FactStore, RelationStorageStats, StorageConfig};
use hilog_core::unify::match_with;
use hilog_core::{
    hash_one, strongly_connected_components, EdgeSign, Literal, Program, Query, Rule, Substitution,
    Term, TermMap, Var,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Head predicate name of the auxiliary rule
/// [`QueryEvaluator::answer_query`] wraps conjunctive queries in.
const QUERY_HEAD: &str = "__query_answer";

/// Statistics collected during query evaluation, used by the benchmarks to
/// show the relevance advantage of query-directed evaluation and by
/// [`crate::session::HiLogDb`] to make cache reuse observable.
///
/// Serialises to JSON via the workspace `serde` stub, so the server and the
/// benchmark emit it directly.
///
/// The *ambient* counts — `index_*`, `storage_residency_faults`,
/// `storage_spill_writes`, `deadline_*` — are counted where the work happens,
/// in the per-thread counters of `ambient.rs`: this thread's count while the
/// query ran, so exact per query whatever else the process evaluates.
/// `DbSnapshot::query` fills them; a raw `QueryEvaluator` reports 0
/// (difference two [`crate::counters`] reads instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct EvalStats {
    /// Number of distinct subgoals tabled by the evaluation (tables it was
    /// seeded with — a session's warm tables — are not counted).
    pub subqueries: usize,
    /// Number of answers derived across the tables counted by `subqueries`.
    pub answers: usize,
    /// Number of rule-body expansions attempted: one per rule *or fact*
    /// whose head unified with the subgoal being expanded.
    pub rule_applications: usize,
    /// Number of head unifications *attempted* while expanding subgoals: one
    /// per fact the program index offered as a candidate plus one per
    /// candidate rule.  `rule_applications` counts the ones that succeeded;
    /// the gap between the two is what the index's discrimination left on
    /// the table, and a count that grows with the EDB at equal
    /// `rule_applications` is the signature of a regression to walking the
    /// relation.
    pub head_unifications: usize,
    /// Number of subgoals answered from a table that was already there
    /// (cache hits): the query's own pattern found complete, and each
    /// negative or aggregate subgoal an expansion reads for the first time
    /// whose table it found — complete, or still being settled — rather
    /// than opened.  Only a session-held evaluator that reuses tables
    /// across queries can observe a second-query hit.
    pub cached_subqueries: usize,
    /// Number of grounding passes performed while answering.  The
    /// query-directed evaluator never grounds, so this is only non-zero for
    /// full-model plans; a cached model answers with `groundings == 0`, and
    /// the first full-model read after a write with `groundings == 1`
    /// (a write drops the grounding with the model).
    pub groundings: usize,
    /// How the model that answered this query was obtained: reused, or
    /// rebuilt because none was built yet or a write dropped it.
    /// Magic-sets plans never consult a model and report
    /// [`ModelSource::NotUsed`].
    pub model_source: ModelSource,
    /// Number of subgoal tables the session *patched in place* (exact
    /// answer-level edit of fact-backed tables), one per table per changed
    /// fact, across the mutations since the previous query.  Always zero for
    /// a raw `QueryEvaluator`.
    pub tables_patched: usize,
    /// Number of subgoal tables the session dropped across the mutations
    /// since the previous query: a table whose re-solve failed (a resource
    /// limit, a dependency cycle through negation the mutation closed) or
    /// that a rule-level mutation's head reaches through the recorded edges.
    /// A fact-level mutation that can be re-solved drops nothing.
    pub tables_dropped: usize,
    /// Number of rule-derived subgoal tables the session *re-solved* across
    /// the mutations since the previous query: of the tables in the
    /// instance-level reverse dependency closure of the mutated atoms, the
    /// ones that read a table whose answers really changed — the others are
    /// put back untouched and not counted.  A re-solve runs when the
    /// mutation is settled (a batch's at publish), seeded with every table
    /// that stands, so the next query finds the table warm.  Always zero for
    /// a raw `QueryEvaluator`.  A non-ground table re-derived *in part* —
    /// at the head instances a changed dependency supports, see
    /// `instances_rederived` — counts once here, never as a patch.
    pub tables_refilled: usize,
    /// Number of head instances of non-ground tables the session re-derived
    /// as bound sub-queries across the mutations since the previous query,
    /// instead of re-solving their tables whole: the answers a write could
    /// change, read off the head instances every recorded dependency keeps.
    /// Always zero for a raw `QueryEvaluator`.
    pub instances_rederived: usize,
    /// Number of completed subgoal tables that survived into this query and
    /// were available for reuse when it started.
    pub tables_reused: usize,
    /// Number of candidate lookups answered from an **argument index** while
    /// this query ran (`AtomStore::candidates` probing the most selective
    /// index over the pattern's bound argument positions) — grounding joins
    /// and subgoal-table joins both count.
    pub index_probes: usize,
    /// Number of candidate lookups that fell back to a functor-bucket or
    /// whole-store scan (fully open patterns, or patterns with a variable
    /// predicate name).  A sudden growth relative to `index_probes` is the
    /// observable signature of a regression to full scans.
    pub index_fallback_scans: usize,
    /// Number of names in the global symbol pool when the query finished:
    /// live, plus any awaiting the checkpoint-time GC
    /// ([`hilog_core::gc_symbol_pool`]); right after that GC every
    /// entry is live.  Read in O(1); the exact live / interned census walks
    /// the pool, so it stays off the query path (`GET /stats` and a
    /// checkpoint's outcome report it).  A raw `QueryEvaluator` reports
    /// 0; the session and snapshot query paths fill it.
    pub live_symbols: usize,
    /// Inert: always 0, since evaluation runs on the calling thread.  Kept
    /// so every `/query` body keeps its shape (ROADMAP 1(c) removes it).
    pub parallel_waves: usize,
    /// Inert: always 0 (see `parallel_waves`).
    pub parallel_partitioned_rounds: usize,
    /// Inert: always 0 (see `parallel_waves`).
    pub parallel_tasks: usize,
    /// Spilled rows this query decoded back into memory (residency faults)
    /// — no other query's.
    pub storage_residency_faults: u64,
    /// Rows this query paged out to spill segments.
    pub storage_spill_writes: u64,
    /// Deadline checks performed while this query ran (one per resource-
    /// limit hook visit when a deadline was installed; zero when the query
    /// carried no deadline).
    pub deadline_checks: u64,
    /// Deadline checks that found the deadline already passed while this
    /// query ran (0 or 1 in practice: the first hit aborts evaluation with
    /// [`crate::EngineError::DeadlineExceeded`]).
    pub deadline_exceeded: u64,
}

impl EvalStats {
    /// Takes one query's ambient counts — the difference of two
    /// [`crate::ambient::counters`] reads — into the fields that report them.
    pub(crate) fn absorb(&mut self, counted: Counters) {
        self.index_probes = counted.index_probes as usize;
        self.index_fallback_scans = counted.index_fallback_scans as usize;
        self.storage_residency_faults = counted.residency_faults;
        self.storage_spill_writes = counted.spill_writes;
        self.deadline_checks = counted.deadline_checks;
        self.deadline_exceeded = counted.deadline_exceeded;
    }
}

/// How a full-model plan obtained the model it answered from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ModelSource {
    /// No model was consulted (magic-sets plans, or an error before the
    /// model was needed).
    #[default]
    NotUsed,
    /// The cached model was reused as-is (a cached model is always exact).
    Cached,
    /// No cached model existed — none was built yet, or a mutation dropped
    /// it — and it was evaluated from the grounding, which
    /// `EvalStats::groundings == 0` says was already at hand (grounded by an
    /// earlier route, such as [`crate::session::HiLogDb::ground_program`],
    /// since the last write).
    Rebuilt,
}

impl std::fmt::Display for ModelSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelSource::NotUsed => write!(f, "not-used"),
            ModelSource::Cached => write!(f, "cached"),
            ModelSource::Rebuilt => write!(f, "rebuilt"),
        }
    }
}

impl serde::Serialize for ModelSource {
    fn write_json(&self, out: &mut String) {
        serde::write_json_string(out, &self.to_string());
    }
}

/// One subgoal table: the normalised pattern (which is also its key in the
/// table map), the ground answers derived for it, and the direct dependency
/// edges discovered while it was filled.  The edges of a *complete* table
/// describe its entire evaluation: refilling the table from scratch would
/// select exactly the subgoal instances recorded here, so the session can
/// use the recorded graph both to propagate invalidation at the instance
/// level and to rule out masked negative cycles (a complete table's
/// transitive dependency closure is settled and cycle-free).
#[derive(Debug, Clone)]
pub(crate) struct Table {
    pub(crate) pattern: Term,
    /// Ground answers, held in an argument-indexed [`AtomStore`] so that
    /// joining a partially instantiated subgoal against a (large, warm)
    /// table probes an index on its bound argument positions instead of
    /// scanning every answer.  The indexes are maintained by the session's
    /// in-place table patches, so they stay warm across mutations.  Derived
    /// state: resident on every backend.
    pub(crate) answers: AtomStore,
    pub(crate) complete: bool,
    /// Direct subgoal edges, by the normalised key of the dependency.
    pub(crate) deps: BTreeMap<Term, Dep>,
    /// The edits the session's table pass made since the log started
    /// ([`CatchUp`]): what brings the version this one was made from up to
    /// this one.
    log: Log<TableLog>,
}

/// What a [`Table`] has logged: its edits, under the number [`Spares`]
/// filed the version they start from with.
#[derive(Debug, Default)]
struct TableLog {
    id: u64,
    edits: Vec<TableEdit>,
}

/// One logged edit of a complete [`Table`]: an answer in or out, a reader
/// off a recorded dependency, an instance's edge to its own table.
#[derive(Debug, Clone)]
enum TableEdit {
    Insert(Term),
    Remove(Term),
    Unread { key: Term, reader: Term },
    ReadOwn(Term),
}

/// One recorded dependency of a table on a subgoal `A`: Section 6.1's
/// `dp(H, A)` / `dn(H, A)` for that `A`, *with* the `H`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Dep {
    /// Strongest polarity `A` was selected under ([`EdgeSign::Negative`]
    /// dominates).
    pub(crate) sign: EdgeSign,
    /// The head instances `H` that selected `A`, each in variables shared
    /// with the dependency's key (see [`normalize_reader`]) and held once up
    /// to renaming: matching the key against a changed answer of `A`
    /// instantiates a reader to the head instances that answer can affect.
    /// A reader that is still a variant of the table's pattern read `A` on
    /// behalf of the whole table.  Empty for a table whose pattern is
    /// ground: its only head instance is itself.
    pub(crate) readers: BTreeSet<Term>,
}

impl Table {
    pub(crate) fn new(pattern: Term) -> Self {
        Table {
            pattern,
            answers: AtomStore::new(),
            complete: false,
            deps: BTreeMap::new(),
            log: Log::default(),
        }
    }

    /// Adds an answer; `true` if it is new.
    pub(crate) fn insert_answer(&mut self, answer: &Term) -> bool {
        let new = self.answers.insert(answer.clone());
        if new {
            self.log_edit(|| TableEdit::Insert(answer.clone()));
        }
        new
    }

    /// Takes an answer out; `true` if it was there.
    pub(crate) fn remove_answer(&mut self, answer: &Term) -> bool {
        let held = self.answers.remove(answer);
        if held {
            self.log_edit(|| TableEdit::Remove(answer.clone()));
        }
        held
    }

    /// Takes `reader` off the readers of the dependency on `key`; `true` if
    /// that was its last, which takes the dependency with it.
    fn unread(&mut self, key: &Term, reader: &Term) -> bool {
        self.log_edit(|| TableEdit::Unread {
            key: key.clone(),
            reader: reader.clone(),
        });
        let dep = self.deps.get_mut(key).expect("a recorded dependency");
        dep.readers.remove(reader);
        let last = dep.readers.is_empty();
        if last {
            self.deps.remove(key);
        }
        last
    }

    /// Records `instance` as reading its own table; `true` if the table did
    /// not read that table before.
    fn read_own(&mut self, instance: &Term) -> bool {
        self.log_edit(|| TableEdit::ReadOwn(instance.clone()));
        let mut new = false;
        let dep = self.deps.entry(instance.clone()).or_insert_with(|| {
            new = true;
            Dep {
                sign: EdgeSign::Positive,
                readers: BTreeSet::new(),
            }
        });
        dep.readers.insert(instance.clone());
        new
    }

    /// Logs an edit while the log runs.  A log longer than the table would
    /// replay more than a copy costs: it stops, and the next catch-up falls
    /// back to the copy.
    fn log_edit(&mut self, edit: impl FnOnce() -> TableEdit) {
        let Some(log) = &mut self.log.0 else {
            return;
        };
        if log.edits.len() <= self.answers.len() + self.deps.len() {
            log.edits.push(edit());
        } else {
            self.log = Log::default();
        }
    }

    /// The number of the running log, if one runs.
    fn log_id(&self) -> Option<u64> {
        self.log.0.as_ref().map(|log| log.id)
    }
}

impl CatchUp for Table {
    fn start_log(&mut self) {
        self.log = Log(Some(TableLog::default()));
    }

    fn catch_up(&mut self, newer: &Table) -> bool {
        let Some(TableLog { edits, .. }) = &newer.log.0 else {
            return false;
        };
        self.log = Log::default();
        for edit in edits {
            match edit {
                TableEdit::Insert(answer) => self.insert_answer(answer),
                TableEdit::Remove(answer) => self.remove_answer(answer),
                TableEdit::Unread { key, reader } => self.unread(key, reader),
                TableEdit::ReadOwn(instance) => self.read_own(instance),
            };
        }
        #[cfg(debug_assertions)]
        {
            assert_eq!(self.pattern, newer.pattern, "the twin is another table");
            self.answers.assert_replays(&newer.answers);
            assert_eq!(self.deps, newer.deps, "the twin's edges lag");
            assert_eq!(self.complete, newer.complete);
        }
        true
    }
}

/// The program as the tabled evaluator reads it: the ground bodiless rules
/// in an argument-indexed [`FactStore`], every other rule behind a head
/// index.  [`QueryEvaluator`] finds the candidates of a subgoal here and
/// nowhere else.
///
/// The fact store is a *set* (a fact asserted twice is held once and leaves
/// only with its last copy); the rule part mirrors the program's non-fact
/// rules one for one, in program order.  Neither refers to positions in
/// `program.rules`, so retracting a fact shifts nothing here.  The owning
/// session keeps the index in step with the program through
/// [`insert`](ProgramIndex::insert) / [`remove`](ProgramIndex::remove)
/// instead of rebuilding it: a fact-level mutation is one store operation,
/// a rule-level one re-keys the (small) rule part and never touches the
/// store.  While the writer keeps a twin of it, it logs those calls, and
/// catching the twin up replays them in order.
#[derive(Debug, Clone)]
pub(crate) struct ProgramIndex {
    /// Heads of the ground bodiless rules.
    facts: FactStore,
    /// Every other rule (proper rules, non-ground bodiless rules such as
    /// `p(X).`), in program order, each compiled once as it enters (and
    /// shared by every copy of the index).
    rules: Vec<Arc<RulePlan>>,
    /// Positions in `rules` grouped by the (ground) outermost functor and
    /// arity of the head, so that a subgoal only considers rules that could
    /// match it (the discrimination the magic predicates provide in the
    /// rewritten program).
    by_head: TermMap<(Term, Option<usize>), Vec<usize>>,
    /// Positions in `rules` of the rules whose head's outermost functor is a
    /// variable: candidates for every subgoal.
    wildcard: Vec<usize>,
    /// The `insert` / `remove` calls since the log started.
    log: Log<Vec<IndexEdit>>,
}

/// One logged edit of a [`ProgramIndex`].
#[derive(Debug, Clone)]
enum IndexEdit {
    Insert(Rule),
    Remove { rule: Rule, last_copy: bool },
}

impl ProgramIndex {
    /// Indexes `program`, holding its facts on the `storage` backend.
    pub(crate) fn build(program: &Program, storage: &StorageConfig) -> Self {
        let mut index = ProgramIndex {
            facts: FactStore::new(storage),
            rules: Vec::new(),
            by_head: TermMap::default(),
            wildcard: Vec::new(),
            log: Log::default(),
        };
        for rule in program.iter() {
            index.insert(rule);
        }
        index
    }

    /// `true` for the rules the fact store holds.
    fn is_indexed_fact(rule: &Rule) -> bool {
        rule.is_fact() && rule.head.is_ground()
    }

    /// One more copy of `rule` was pushed onto the program: a fact goes to
    /// the store, any other rule is compiled (only it) and keyed.
    pub(crate) fn insert(&mut self, rule: &Rule) {
        self.log_edit(|| IndexEdit::Insert(rule.clone()));
        if Self::is_indexed_fact(rule) {
            self.facts.insert(rule.head.clone());
            return;
        }
        self.rules.push(Arc::new(RulePlan::compile(rule)));
        self.key(self.rules.len() - 1);
    }

    /// Files the rule at `position` under its head.
    fn key(&mut self, position: usize) {
        let head = &self.rules[position].rule.head;
        let functor = head.outermost_functor();
        if functor.is_ground() {
            self.by_head
                .entry((functor.clone(), head.arity()))
                .or_default()
                .push(position);
        } else {
            self.wildcard.push(position);
        }
    }

    /// One copy of `rule` (the first, as `retract_fact` / `retract_rule`
    /// remove it) left the program; `last_copy` says none remains.
    pub(crate) fn remove(&mut self, rule: &Rule, last_copy: bool) {
        self.log_edit(|| IndexEdit::Remove {
            rule: rule.clone(),
            last_copy,
        });
        if Self::is_indexed_fact(rule) {
            if last_copy {
                self.facts.remove(&rule.head);
            }
            return;
        }
        let Some(position) = self.rules.iter().position(|plan| plan.rule == *rule) else {
            return;
        };
        // Later positions shift: re-key the rule part, plans and all (never
        // the store, and nothing is compiled again).
        self.rules.remove(position);
        self.by_head.clear();
        self.wildcard.clear();
        for position in 0..self.rules.len() {
            self.key(position);
        }
    }

    /// Positions in `rules` of the rules whose head could unify with
    /// `pattern`, in program order.
    pub(crate) fn candidate_rules(&self, pattern: &Term) -> Vec<usize> {
        let functor = pattern.outermost_functor();
        if !functor.is_ground() {
            return (0..self.rules.len()).collect();
        }
        let mut out: Vec<usize> = self
            .by_head
            .get(&(functor.clone(), pattern.arity()))
            .cloned()
            .unwrap_or_default();
        out.extend(self.wildcard.iter().copied());
        out.sort_unstable();
        out
    }

    /// Whether some rule other than a program fact derives the ground
    /// `fact` with no atom to read: a builtin-guarded rule such as
    /// `f :- 1 < 2.`.  Asked once `fact`'s last bodiless copy has left the
    /// program (the table pass), so a program fact
    /// cannot be the route: only the non-fact rules filed under `fact`'s
    /// functor and arity are looked at, each joined once — not the program's
    /// facts, however many there are.
    pub(crate) fn derives_spontaneously(&self, fact: &Term) -> bool {
        let empty = AtomStore::new();
        let routes = (self.candidate_rules(fact).into_iter()).map(|position| &self.rules[position]);
        routes
            .filter(|plan| {
                let rule = &plan.rule;
                !rule.is_fact()
                    && rule.positive_atoms().next().is_none()
                    && rule.negative_atoms().next().is_none()
            })
            .any(|plan| {
                let mut derives = false;
                let joined = plan.join(&empty, None, NegationMode::Ignore, &mut |m| {
                    derives |= m.frame.instantiate(&plan.head) == *fact;
                    Ok(())
                });
                joined.is_ok() && derives
            })
    }

    /// Number of distinct ground facts held.
    pub(crate) fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Storage statistics of the fact store.
    pub(crate) fn storage_stats(&self) -> RelationStorageStats {
        self.facts.storage_stats()
    }

    /// Logs an edit while the log runs.  A log longer than the index holds
    /// would replay more than a copy costs: it stops, and the next catch-up
    /// falls back to the copy.
    fn log_edit(&mut self, edit: impl FnOnce() -> IndexEdit) {
        let Some(log) = &mut self.log.0 else {
            return;
        };
        if log.len() <= self.facts.len() + self.rules.len() {
            log.push(edit());
        } else {
            self.log = Log::default();
        }
    }
}

impl CatchUp for ProgramIndex {
    fn start_log(&mut self) {
        self.log = Log(Some(Vec::new()));
    }

    fn catch_up(&mut self, newer: &ProgramIndex) -> bool {
        let Some(edits) = &newer.log.0 else {
            return false;
        };
        self.log = Log::default();
        for edit in edits {
            match edit {
                IndexEdit::Insert(rule) => self.insert(rule),
                IndexEdit::Remove { rule, last_copy } => self.remove(rule, *last_copy),
            }
        }
        #[cfg(debug_assertions)]
        {
            let facts = |index: &ProgramIndex| {
                let mut facts = Vec::new();
                index.facts.for_each_atom(|fact| facts.push(fact.clone()));
                facts
            };
            let rules = |index: &ProgramIndex| -> Vec<Rule> {
                (index.rules.iter()).map(|plan| plan.rule.clone()).collect()
            };
            assert_eq!(facts(self), facts(newer), "the twin's facts lag");
            assert_eq!(rules(self), rules(newer), "the twin's rules lag");
            assert_eq!(
                (&self.by_head, &self.wildcard),
                (&newer.by_head, &newer.wildcard)
            );
        }
        true
    }
}

/// A table's position in a [`Tables`] arena.
pub(crate) type TableId = usize;

/// Complete subgoal tables by their normalised pattern — every map of them,
/// a snapshot's or an evaluator's base — with the reverse of the edges they
/// recorded, which the operations that put tables in and take them out
/// move in the same step.  Tables are `Arc`d so a map shares them with
/// every copy of it.  The session's pass edits a table a published map
/// shares through one door, [`Tables::table_mut`]: like the arena itself
/// ([`Twinned`]), it takes back the version the table was last made from —
/// kept in the session's [`Spares`] — and replays the table's logged edits
/// into it, and copies the table whole only while something else still
/// holds that version.
///
/// A key has a stable position while the arena holds its table **or** a
/// table it holds read it (a *dangling* edge: the maintenance pass never
/// leaves one, and treats a reader of one as changed); a position neither
/// holds is on the free list.  A table's reads are its `deps` keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tables {
    slots: Vec<Slot>,
    /// The door: the position of every key with a table or a reader,
    /// shared with every copy of the arena until one of them adds or drops
    /// a key (a pass that re-solves tables in place never does).
    ids: Arc<TermMap<Term, TableId>>,
    /// Positions of the tables held, by the (ground) outermost functor and
    /// arity of their pattern — the only tables that can cover a fact with
    /// that functor and arity — and those whose functor is a variable,
    /// which can cover any.  The idiom of `ProgramIndex`' `by_head` /
    /// `wildcard`, each position filed with its pattern's
    /// [`first_argument`].
    by_head: TermMap<(Term, Option<usize>), Vec<Filed>>,
    wildcard: Vec<Filed>,
    free: Vec<TableId>,
    /// Tables held and not set aside.
    len: usize,
    /// Positions with readers and no table: the keys dangling edges lead
    /// to.  0 in every map the maintenance pass leaves.
    dangling: usize,
    /// The slots and buckets edited since the log started.
    log: Log<Edited>,
    /// Bucket entries probed and closure members walked by the passes:
    /// what the unit tests hold equal across map sizes.
    #[cfg(test)]
    pub(crate) visited: usize,
    /// Whole copies of a table [`Tables::table_mut`] made.
    #[cfg(test)]
    pub(crate) copies: usize,
}

/// The versions of tables the writer replaced through [`Tables::table_mut`],
/// kept to be caught up the next time the same table is edited instead of
/// copying the version in use: Left-right ([`Twinned`]) one level down.
/// Each is filed under the table's position and the number of the log the
/// version that replaced it keeps; an entry is good for as long as the
/// table at that position still logs under that number, which no other
/// version of any table does.  The session keeps one, from pass to pass:
/// the arena it edits alternates between two versions, and what it keeps
/// here outlives both.
#[derive(Debug, Default)]
pub(crate) struct Spares {
    kept: Vec<(TableId, u64, Arc<Table>)>,
    logs: u64,
}

impl Spares {
    /// Takes the version kept for the position `id`, if it is the one the
    /// table there (logging under `log`) was made from.
    fn take(&mut self, id: TableId, log: Option<u64>) -> Option<Arc<Table>> {
        let at = self.kept.iter().position(|&(v, _, _)| v == id)?;
        let (_, made_from, version) = self.kept.swap_remove(at);
        (log == Some(made_from)).then_some(version)
    }

    /// Keeps `version`, which the table at `id` was just made from, under a
    /// new log number, and returns the number.
    fn keep(&mut self, id: TableId, version: Arc<Table>) -> u64 {
        self.logs += 1;
        self.kept.push((id, self.logs, version));
        self.logs
    }

    /// Lets go of the versions no table is made from any more: replaced,
    /// dropped, or logging no longer.
    pub(crate) fn sweep(&mut self, tables: &Tables) {
        self.kept.retain(|&(id, log, _)| {
            (tables.slots.get(id)).is_some_and(|slot| {
                (slot.table.as_ref()).is_some_and(|table| table.log_id() == Some(log))
            })
        });
    }
}

/// A position in a bucket, beside its pattern's [`first_argument`].
type Filed = (Option<u64>, TableId);

/// The hash of `term`'s first argument, if that is ground.  A table whose
/// pattern's first argument hashes otherwise than a fact's cannot cover
/// the fact, so a probe passes over it without reading the pattern: a
/// changed `move(p3, p7)` is matched against the `move(p3, _)` tables and
/// those with an open first argument, not against every `move` table.
fn first_argument(term: &Term) -> Option<u64> {
    (term.args().first())
        .filter(|first| first.is_ground())
        .map(hash_one)
}

#[derive(Debug, Clone)]
struct Slot {
    /// The key at this position (stale at a free one).
    key: Term,
    table: Option<Arc<Table>>,
    /// The table was set aside ([`Tables::set_aside`]): held for its
    /// edges, hidden from every lookup.
    aside: bool,
    /// The positions of the tables that read this one, once per edge;
    /// shared like the door, so that a copy of the arena copies no list.
    readers: Arc<Vec<TableId>>,
}

/// What a [`Tables`] arena logs for its twin: the positions and buckets
/// whose content an edit can have changed, each once.  Setting a table
/// aside is not an edit: the pass puts back or removes every table it sets
/// aside, and one put back as it was leaves its slot as it found it.
#[derive(Debug, Default)]
struct Edited {
    slots: Vec<TableId>,
    seen: Vec<bool>,
    buckets: Vec<(Term, Option<usize>)>,
}

/// Removes one occurrence of `v` from a list of positions.
fn forget(list: &mut Vec<TableId>, v: TableId) {
    let at = list.iter().position(|&w| w == v).expect("linked");
    list.swap_remove(at);
}

impl Tables {
    /// Number of tables in view.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn get(&self, key: &Term) -> Option<&Arc<Table>> {
        let slot = &self.slots[*self.ids.get(key)?];
        slot.table.as_ref().filter(|_| !slot.aside)
    }

    /// The position `key` holds, if it has a table or a reader.
    pub(crate) fn position(&self, key: &Term) -> Option<TableId> {
        self.ids.get(key).copied()
    }

    pub(crate) fn contains_key(&self, key: &Term) -> bool {
        self.get(key).is_some()
    }

    /// The tables in view, by key.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Term, &Arc<Table>)> {
        (self.slots.iter())
            .filter(|slot| !slot.aside)
            .filter_map(|slot| Some((&slot.key, slot.table.as_ref()?)))
    }

    /// Holds `table` under its pattern: a new table, or another version of
    /// one held.  Returns the version it replaced if that was set aside.
    pub(crate) fn insert(&mut self, table: Arc<Table>) -> Option<Arc<Table>> {
        let id = self.slot(&table.pattern);
        self.put_back(id, table)
    }

    /// Inserts each of `fresh` whose pattern holds no table, calling
    /// `entered` on it: any complete table for a pattern is as good as any
    /// other while the program stands still.
    pub(crate) fn fill(
        &mut self,
        fresh: impl IntoIterator<Item = Arc<Table>>,
        mut entered: impl FnMut(&Arc<Table>),
    ) {
        for table in fresh {
            if !self.contains_key(&table.pattern) {
                entered(&table);
                self.insert(table);
            }
        }
    }

    /// Takes the table at `id` out of view, edges in place, until
    /// [`Self::restore`], [`Self::put_back`] or [`Self::remove`].
    pub(crate) fn set_aside(&mut self, id: TableId) {
        let slot = &mut self.slots[id];
        assert!(slot.table.is_some() && !slot.aside, "set aside twice");
        slot.aside = true;
        self.len -= 1;
    }

    /// Whether the table at `id` is set aside.
    pub(crate) fn is_aside(&self, id: TableId) -> bool {
        self.slots[id].aside
    }

    /// The table set aside at `id` comes back as it was.
    pub(crate) fn restore(&mut self, id: TableId) {
        let slot = &mut self.slots[id];
        assert!(std::mem::take(&mut slot.aside), "not set aside");
        self.len += 1;
    }

    /// The slot `id` shows `table` from now on: a new version replaces the
    /// one held (set aside or not), re-linked from the old version's edges
    /// to its own.  Returns the version it replaced if that was set aside.
    pub(crate) fn put_back(&mut self, id: TableId, table: Arc<Table>) -> Option<Arc<Table>> {
        let slot = &mut self.slots[id];
        let was_aside = std::mem::take(&mut slot.aside);
        if slot.table.is_none() || was_aside {
            self.len += 1;
        }
        if slot
            .table
            .as_ref()
            .is_some_and(|held| Arc::ptr_eq(held, &table))
        {
            return None;
        }
        let old = slot.table.replace(Arc::clone(&table));
        self.edited(id);
        match &old {
            Some(old) => self.relink(id, table.deps.keys(), old.deps.keys()),
            None => {
                let key = self.slots[id].key.clone();
                if !self.slots[id].readers.is_empty() {
                    self.dangling -= 1;
                }
                self.bucket(&key).push((first_argument(&key), id));
                for dep in table.deps.keys() {
                    self.link(id, dep);
                }
            }
        }
        old.filter(|_| was_aside)
    }

    /// Moves the table at `id`'s edges from the keys it read to the keys it
    /// reads, each list in key order: both lists side by side, so a key on
    /// both is not touched at all.
    fn relink<'a>(
        &mut self,
        id: TableId,
        new: impl Iterator<Item = &'a Term>,
        gone: impl Iterator<Item = &'a Term>,
    ) {
        let (mut new, mut gone) = (new.peekable(), gone.peekable());
        loop {
            let order = match (new.peek(), gone.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(a), Some(b)) if a == b => Ordering::Equal,
                (Some(a), Some(b)) => a.cmp(b),
            };
            match order {
                Ordering::Less => self.link(id, new.next().expect("peeked")),
                Ordering::Greater => self.unlink(id, gone.next().expect("peeked")),
                Ordering::Equal => {
                    new.next();
                    gone.next();
                }
            }
        }
    }

    /// Drops the table at `id` (in view or set aside) and its edges.
    pub(crate) fn remove(&mut self, id: TableId) {
        let key = self.slots[id].key.clone();
        let bucket = self.bucket(&key);
        let at = bucket.iter().position(|&(_, w)| w == id).expect("filed");
        bucket.swap_remove(at);
        let table = Arc::clone(self.slots[id].table.as_ref().expect("held"));
        for dep in table.deps.keys() {
            self.unlink(id, dep);
        }
        // Only now: an edge to itself must not give the position up twice.
        self.edited(id);
        let slot = &mut self.slots[id];
        slot.table = None;
        if !std::mem::take(&mut slot.aside) {
            self.len -= 1;
        }
        if !slot.readers.is_empty() {
            self.dangling += 1;
        }
        self.release(id);
    }

    /// The table at `id` (in view or set aside), made the arena's own to
    /// edit: in place if nothing else holds it; otherwise the version the
    /// last catch-up replaced, caught up, if nothing else holds that; and
    /// only otherwise a whole copy.  The table logs its edits from then on,
    /// so that the next catch-up can do the same.  Its answers are edited
    /// through [`Table::insert_answer`] / [`Table::remove_answer`], its
    /// edges only through [`Tables::rewire`].
    pub(crate) fn table_mut(&mut self, id: TableId, spares: &mut Spares) -> &mut Table {
        self.edited(id);
        let table = self.slots[id].table.as_mut().expect("held");
        if Arc::get_mut(table).is_none() {
            let spare = spares.take(id, table.log_id());
            let (replaced, _copied) = Twinned::take_over(table, spare);
            let log = spares.keep(id, replaced);
            (Arc::get_mut(table).expect("just made").log.0)
                .as_mut()
                .expect("just started")
                .id = log;
            #[cfg(test)]
            {
                self.copies += usize::from(_copied);
            }
        }
        let table = self.slots[id].table.as_mut().expect("held");
        Arc::get_mut(table).expect("held alone")
    }

    /// Edits the edges of the table at `id` through [`Self::table_mut`]:
    /// takes each `(key, reader)` of `unread` off the readers of its
    /// dependency on `key` (the dependency goes with its last reader), then
    /// records each of `own` as reading its own table.  The arena's reverse
    /// edges move as [`Self::put_back`] would move them from the old
    /// version's edges to the new one's.  `unread` comes in key order, `own`
    /// in term order.
    pub(crate) fn rewire(
        &mut self,
        id: TableId,
        spares: &mut Spares,
        unread: &[(Term, Term)],
        own: &[&Term],
    ) {
        let table = self.table_mut(id, spares);
        let gone: Vec<&Term> = (unread.iter())
            .filter(|(key, reader)| table.unread(key, reader))
            .map(|(key, _)| key)
            .collect();
        let new: Vec<&Term> = own.iter().copied().filter(|h| table.read_own(h)).collect();
        self.relink(id, new.into_iter(), gone.into_iter());
    }

    /// The key at position `id`.
    pub(crate) fn key(&self, id: TableId) -> &Term {
        &self.slots[id].key
    }

    /// The table held at `id`, in view or set aside.
    pub(crate) fn held(&self, id: TableId) -> Option<&Arc<Table>> {
        self.slots[id].table.as_ref()
    }

    /// Whether the table at `id` read a key with no table (looked for only
    /// while the arena has such a key).
    pub(crate) fn reads_absent(&self, id: TableId) -> bool {
        self.dangling > 0
            && (self.held(id).into_iter())
                .flat_map(|table| table.deps.keys())
                .any(|dep| self.slots[self.ids[dep]].table.is_none())
    }

    /// The positions of the tables that read the one at `id`.
    pub(crate) fn readers(&self, id: TableId) -> &[TableId] {
        &self.slots[id].readers
    }

    /// The tables held whose pattern can have an instance of `probe` for
    /// an instance: those of its (ground) outermost functor and arity and
    /// those whose functor is a variable, less those whose ground first
    /// argument differs from the probe's — every one, for a probe with a
    /// variable for a functor (a retracted `X(a).`).
    pub(crate) fn candidates(&self, probe: &Term) -> Vec<TableId> {
        let functor = probe.outermost_functor();
        if !functor.is_ground() {
            return (0..self.slots.len())
                .filter(|&id| self.slots[id].table.is_some())
                .collect();
        }
        let first = first_argument(probe);
        let bucket = self.by_head.get(&(functor.clone(), probe.arity()));
        (bucket.into_iter().flatten().chain(&self.wildcard))
            .filter(|(filed, _)| first.is_none() || filed.is_none() || *filed == first)
            .map(|&(_, id)| id)
            .collect()
    }

    /// The number of positions ever handed out: every `TableId` is below it.
    pub(crate) fn span(&self) -> usize {
        self.slots.len()
    }

    /// The position `key` holds, giving it one if it holds none.
    fn slot(&mut self, key: &Term) -> TableId {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id].key = key.clone();
                id
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    table: None,
                    aside: false,
                    readers: Arc::default(),
                });
                self.slots.len() - 1
            }
        };
        self.edited(id);
        Arc::make_mut(&mut self.ids).insert(key.clone(), id);
        id
    }

    /// Gives up the position of a key with neither a table nor a reader.
    fn release(&mut self, id: TableId) {
        let slot = &self.slots[id];
        if slot.table.is_none() && slot.readers.is_empty() {
            Arc::make_mut(&mut self.ids).remove(&slot.key);
            self.free.push(id);
        }
    }

    fn bucket(&mut self, key: &Term) -> &mut Vec<Filed> {
        let functor = key.outermost_functor();
        if functor.is_ground() {
            let head = (functor.clone(), key.arity());
            if let Some(edited) = &mut self.log.0 {
                if !edited.buckets.contains(&head) {
                    edited.buckets.push(head.clone());
                }
            }
            (self.by_head.entry(head)).or_default()
        } else {
            &mut self.wildcard
        }
    }

    /// Logs an edit of the slot at `id` while the log runs.
    fn edited(&mut self, id: TableId) {
        if let Some(edited) = &mut self.log.0 {
            if edited.seen.len() <= id {
                edited.seen.resize(id + 1, false);
            }
            if !std::mem::replace(&mut edited.seen[id], true) {
                edited.slots.push(id);
            }
        }
    }

    fn link(&mut self, id: TableId, dep: &Term) {
        let w = self.slot(dep);
        self.edited(w);
        let slot = &mut self.slots[w];
        if slot.table.is_none() && slot.readers.is_empty() {
            self.dangling += 1;
        }
        Arc::make_mut(&mut slot.readers).push(id);
    }

    fn unlink(&mut self, id: TableId, dep: &Term) {
        let w = self.ids[dep];
        self.edited(w);
        let slot = &mut self.slots[w];
        forget(Arc::make_mut(&mut slot.readers), id);
        if slot.table.is_none() && slot.readers.is_empty() {
            self.dangling -= 1;
        }
        self.release(w);
    }

    /// The arena without its positions: per key whether a table is held
    /// and set aside and who reads it, per bucket (`None`: the wildcard
    /// list) its keys — equal for two arenas of the same tables.
    #[cfg(any(test, debug_assertions))]
    fn canonical(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        let named = |list: &[TableId]| -> BTreeSet<&Term> {
            list.iter().map(|&w| &self.slots[w].key).collect()
        };
        let edges: BTreeMap<_, _> = (self.ids.iter())
            .map(|(key, &id)| {
                let slot = &self.slots[id];
                assert_eq!(&slot.key, key, "the door names another slot");
                let state = (slot.table.is_some(), slot.aside, named(&slot.readers));
                (key, state)
            })
            .collect();
        let mut buckets = BTreeMap::new();
        let filed = |list: &[Filed]| -> BTreeSet<(Option<u64>, &Term)> {
            list.iter()
                .map(|&(first, w)| (first, &self.slots[w].key))
                .collect()
        };
        for (head, bucket) in &self.by_head {
            buckets.insert(Some(head), filed(bucket));
        }
        buckets.insert(None, filed(&self.wildcard));
        buckets.retain(|_, bucket| !bucket.is_empty());
        (edges, buckets)
    }

    /// Checks the arena against one rebuilt from its own `(key, table)`
    /// pairs — the tables set aside set aside again — and that every
    /// position is either behind the door or free.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_describes(&self) {
        let mut rebuilt = Tables::default();
        for slot in &self.slots {
            if let Some(table) = &slot.table {
                rebuilt.insert(Arc::clone(table));
            }
        }
        for slot in self.slots.iter().filter(|slot| slot.aside) {
            rebuilt.set_aside(rebuilt.ids[&slot.key]);
        }
        assert_eq!(
            self.canonical(),
            rebuilt.canonical(),
            "the table arena is out of step with its tables"
        );
        assert_eq!((self.len, self.dangling), (rebuilt.len, rebuilt.dangling));
        let mut positions: Vec<TableId> = self.ids.values().chain(&self.free).copied().collect();
        positions.sort_unstable();
        assert!(
            positions.iter().copied().eq(0..self.slots.len()),
            "a position is lost or held twice"
        );
    }
}

impl CatchUp for Tables {
    fn start_log(&mut self) {
        // A flag for every position up front: grown an edit at a time, the
        // flags would be reallocated as often as the order the positions
        // come in says.
        self.log = Log(Some(Edited {
            seen: vec![false; self.slots.len()],
            ..Edited::default()
        }));
    }

    /// Copies, by position, the slots and buckets `newer` edited, and the
    /// door, the lists and the counts whole: the door is one `Arc`, the
    /// lists are short.
    fn catch_up(&mut self, newer: &Tables) -> bool {
        let Some(edited) = &newer.log.0 else {
            return false;
        };
        let span = self.slots.len();
        self.slots.extend_from_slice(&newer.slots[span..]);
        for &id in edited.slots.iter().filter(|&&id| id < span) {
            self.slots[id].clone_from(&newer.slots[id]);
        }
        for head in &edited.buckets {
            (self.by_head.entry(head.clone()).or_default()).clone_from(&newer.by_head[head]);
        }
        self.ids = Arc::clone(&newer.ids);
        self.wildcard.clone_from(&newer.wildcard);
        self.free.clone_from(&newer.free);
        (self.len, self.dangling) = (newer.len, newer.dangling);
        self.log = Log::default();
        #[cfg(test)]
        {
            (self.visited, self.copies) = (newer.visited, newer.copies);
        }
        #[cfg(debug_assertions)]
        {
            let same = |a: &Slot, b: &Slot| {
                a.key == b.key
                    && a.aside == b.aside
                    && a.readers == b.readers
                    && match (&a.table, &b.table) {
                        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                        (a, b) => a.is_none() && b.is_none(),
                    }
            };
            assert_eq!(self.slots.len(), newer.slots.len());
            for (id, (a, b)) in self.slots.iter().zip(&newer.slots).enumerate() {
                assert!(same(a, b), "the twin's slot {id} lags");
            }
            assert_eq!(self.by_head, newer.by_head, "the twin's buckets lag");
        }
        true
    }
}

/// A memoising query/subquery evaluator over a fixed program.
///
/// It reads its tables through two levels: the completed tables it was
/// seeded with (`base`, shared and never written) and the tables it creates
/// (`own`, the only ones it writes).  Keys are disjoint — a table is created
/// only for a key neither level holds.
#[derive(Debug)]
pub struct QueryEvaluator {
    /// The program: its facts to probe, its rules by head.
    index: Arc<ProgramIndex>,
    /// The auxiliary `__query_answer` rule of the conjunctive query being
    /// answered, compiled and held *beside* the index as rule position
    /// `index.rules.len()` — so wrapping a query never copies anything.
    query_rule: Option<Arc<RulePlan>>,
    opts: EvalOptions,
    /// The completed tables the evaluator was seeded with — a snapshot's
    /// map, shared by one `Arc` bump however many tables it holds, which is
    /// how [`crate::session::HiLogDb`] and [`crate::snapshot::DbSnapshot`]
    /// reuse work across queries.  A complete table is only ever read, so
    /// nothing here is written and nothing is copied.
    base: Arc<Tables>,
    /// The tables this evaluator created, keyed structurally by their
    /// normalised pattern (the `Arc`-backed [`Term`] itself), so lookup and
    /// the session's maintenance never render a pattern to text — and two
    /// patterns that would print identically can never share a table.
    /// Handing the work back, and counting it, cost in proportion to these
    /// and not to the warm tables the evaluator started from.  A plain map:
    /// a table being filled still changes its edges.
    own: TermMap<Term, Arc<Table>>,
    /// `rule_applications`, `head_unifications` and `cached_subqueries` so
    /// far; the table counts are read off `own` on demand.
    stats: EvalStats,
    /// Number of answers inserted by *this* evaluator (seeded answers are
    /// not counted): the resource-limit measure, so that a warm evaluator
    /// and a cold one face the same per-query derivation budget.
    derived: usize,
    /// When each table of `own` was last expanded, grew and completed, on
    /// `clock` (0: never), from its first expansion on.  A table complete
    /// when it was read was read whole, so a complete table filled from
    /// the facts or seeded needs no stamp.
    stamps: TermMap<Term, Stamp>,
    clock: u64,
}

/// A table's times on its evaluator's clock.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    expanded: u64,
    grew: u64,
    completed: u64,
}

impl QueryEvaluator {
    /// Creates an evaluator over an already indexed program, seeded with
    /// the completed tables of a previous run over the same program.  They
    /// are trusted as-is and never written.
    pub(crate) fn over(index: Arc<ProgramIndex>, opts: EvalOptions, base: Arc<Tables>) -> Self {
        QueryEvaluator {
            index,
            query_rule: None,
            opts,
            base,
            own: TermMap::default(),
            stats: EvalStats::default(),
            derived: 0,
            stamps: TermMap::default(),
            clock: 0,
        }
    }

    /// Consumes the evaluator, handing the subgoal tables it *created and
    /// completed* back to the caller: the seeded tables are the caller's
    /// already, and the auxiliary query table is not a table of the program
    /// (an evaluation, failed or not, leaves no incomplete table behind).
    /// Every table returned is a valid table of the base program.  The
    /// evaluator's hold on its base ends here, so a caller that holds the
    /// only other `Arc` of it owns it outright again.
    pub(crate) fn into_tables(mut self) -> TermMap<Term, Arc<Table>> {
        self.drop_query_table();
        self.own
    }

    /// The table for the normalised `key`, created or seeded.
    fn table(&self, key: &Term) -> Option<&Table> {
        self.own
            .get(key)
            .or_else(|| self.base.get(key))
            .map(Arc::as_ref)
    }

    /// The table for a key the evaluation has already created or found.
    fn table_at(&self, key: &Term) -> &Table {
        self.table(key).expect("the table was created or seeded")
    }

    /// Forgets the auxiliary table of the last conjunctive query.  The match
    /// is on the pattern's functor, not the rendered key (where
    /// `__query_answer` comes out quoted).
    fn drop_query_table(&mut self) {
        let aux_functor = Term::sym(QUERY_HEAD);
        self.own
            .retain(|key, _| key.outermost_functor() != &aux_functor);
    }

    /// The plan at `position`: a rule of the index, or — one past its end —
    /// the auxiliary rule of the query being answered.
    fn rule(&self, position: usize) -> &Arc<RulePlan> {
        self.index.rules.get(position).unwrap_or_else(|| {
            self.query_rule.as_ref().expect(
                "candidate_rules only names the auxiliary position while a query rule is set",
            )
        })
    }

    /// The positions of the non-fact rules that could match a subgoal with
    /// the given pattern (the facts are probed, not enumerated — see
    /// [`Self::expand`]).  The auxiliary query rule answers its own pattern
    /// and nothing else: it is not a rule of the program, so a subgoal with
    /// a variable predicate name must not find `__query_answer` among its
    /// instances.
    fn candidate_rules(&self, pattern: &Term) -> Vec<usize> {
        let mut out = self.index.candidate_rules(pattern);
        if self.query_rule.as_ref().is_some_and(|plan| {
            plan.rule.head.outermost_functor() == pattern.outermost_functor()
                && plan.rule.head.arity() == pattern.arity()
        }) {
            out.push(self.index.rules.len());
        }
        out
    }

    /// Evaluation statistics so far.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            subqueries: self.own.len(),
            answers: self.own.values().map(|t| t.answers.len()).sum(),
            ..self.stats
        }
    }

    /// Answers a single-atom subgoal: returns all ground instances of
    /// `pattern` that are true in the well-founded model of the program.
    pub fn solve_atom(&mut self, pattern: &Term) -> Result<Vec<Term>, EngineError> {
        let key = self.settle(pattern)?;
        Ok(self.table_at(&key).answers.iter().cloned().collect())
    }

    /// Completes the table for `pattern`, evaluating whatever it needs, and
    /// returns the table's key — [`Self::solve_atom`] without reading the
    /// answers out, which is all the session's table maintenance wants.
    pub(crate) fn settle(&mut self, pattern: &Term) -> Result<Term, EngineError> {
        if pattern.is_var() {
            return Err(EngineError::Floundering(format!(
                "subgoal `{pattern}` is an unbound variable"
            )));
        }
        self.evaluate_completely(normalize_pattern(pattern))
    }

    /// Answers a query (a conjunction of literals), returning one
    /// substitution of the query's variables per true instance.
    ///
    /// A single positive atom tables the pattern itself, so a repeat of the
    /// same query is a pure cache hit.  Anything else is wrapped in an
    /// auxiliary `__query_answer` rule (the `answer` rule of Section 5) so
    /// conjunctions and negative literals are handled uniformly; the rule
    /// sits beside the borrowed program only for the duration of the call,
    /// and its table is never handed on — every other table the run
    /// completes is a valid table of the base program.
    pub fn answer_query(&mut self, query: &Query) -> Result<Vec<Substitution>, EngineError> {
        let vars = query.variables();
        let (head, solved) = if let [Literal::Pos(atom)] = query.literals.as_slice() {
            (atom.clone(), self.solve_atom(atom))
        } else {
            let head = Term::apps(
                QUERY_HEAD,
                vars.iter().map(|v| Term::Var(v.clone())).collect(),
            );
            // The previous conjunction's table must not answer this one.
            self.drop_query_table();
            let rule = Rule::new(head.clone(), query.literals.clone());
            self.query_rule = Some(Arc::new(RulePlan::compile(&rule)));
            let solved = self.solve_atom(&head);
            self.query_rule = None;
            (head, solved)
        };
        // The head's variables are the query's, so matching an answer binds
        // exactly them.
        Ok(solved?
            .into_iter()
            .filter_map(|answer| {
                let mut theta = Substitution::new();
                match_with(&head, &answer, &mut theta).then_some(theta)
            })
            .collect())
    }

    /// Records that the table `from` selected `atom` with the given
    /// polarity ([`EdgeSign::Negative`] dominates a previously recorded positive
    /// edge) and returns the key of the table `atom` is answered from, and
    /// whether `from` had not read it before.
    /// `head` is the instance of the rule head doing the selecting — given
    /// for a table whose pattern is non-ground, where it says which of the
    /// table's answers the selection can bear on.
    fn record_edge(
        &mut self,
        from: &Term,
        atom: &Term,
        head: Option<Term>,
        sign: EdgeSign,
    ) -> (Term, bool) {
        let (to, reader) = match head {
            Some(head) => {
                let (to, reader) = normalize_reader(atom, &head);
                (to, Some(reader))
            }
            None => (normalize_pattern(atom), None),
        };
        // Only a table being filled selects anything, and those are all
        // this evaluator's own.
        let table = Arc::make_mut(self.own.get_mut(from).expect("a table being filled"));
        let (dep, first) = match table.deps.entry(to.clone()) {
            Entry::Occupied(dep) => (dep.into_mut(), false),
            Entry::Vacant(dep) => (
                dep.insert(Dep {
                    sign,
                    readers: BTreeSet::new(),
                }),
                true,
            ),
        };
        dep.sign = dep.sign.max(sign);
        dep.readers.extend(reader);
        (to, first)
    }

    /// Builds the [`EngineError::NotModularlyStratified`] report for `key`,
    /// the end of a negative edge inside a strongly connected component of
    /// incomplete tables: reads a dependency cycle through `key` containing
    /// at least one negative edge back from the recorded graph.  The
    /// component holds the cycle, so it is present; the search is bounded by
    /// visiting each table at most twice (once per "negative edge seen yet"
    /// state).
    fn not_modularly_stratified(&self, key: &Term) -> EngineError {
        /// One DFS visit: the table reached, whether the path to it crossed
        /// a negative edge, and the visit it was reached from with the sign
        /// of that edge — the path is read back through these, never copied.
        type Visit<'t> = (&'t Term, bool, Option<(usize, EdgeSign)>);
        let mut visits: Vec<Visit<'_>> = vec![(key, false, None)];
        let mut stack = vec![0];
        let mut visited: BTreeSet<(&Term, bool)> = BTreeSet::new();
        while let Some(at) = stack.pop() {
            let (node, has_neg, _) = visits[at];
            if !visited.insert((node, has_neg)) {
                continue;
            }
            let Some(table) = self.table(node) else {
                continue;
            };
            for (dep, Dep { sign, .. }) in &table.deps {
                let neg = has_neg || sign.is_negative();
                if dep == key && neg {
                    let back = std::iter::successors(Some(at), |&v| Some(visits[v].2?.0));
                    let path: Vec<_> = back
                        .filter_map(|v| Some((visits[v].0, visits[v].2?.1)))
                        .collect();
                    let steps: Vec<_> = path.into_iter().rev().chain([(dep, *sign)]).collect();
                    // Three steps at each end: a reason as long as the
                    // cycle would go into every response that carries it.
                    let len = steps.len();
                    let mut rendered = format!("`{key}`");
                    for (i, (step, sign)) in steps.into_iter().enumerate() {
                        if len <= 6 || i < 3 || i >= len - 3 {
                            let arrow = if sign.is_negative() { "-not->" } else { "->" };
                            rendered.push_str(&format!(" {arrow} `{step}`"));
                        } else if i == len - 4 {
                            rendered.push_str(&format!(" … `{step}`"));
                        }
                    }
                    return EngineError::NotModularlyStratified(format!(
                        "the subgoal `{key}` depends on itself through negation or aggregation \
                         (cf. Example 6.4), over a cycle of {len} steps: {rendered}"
                    ));
                }
                if !visited.contains(&(dep, neg)) {
                    visits.push((dep, neg, Some((at, *sign))));
                    stack.push(visits.len() - 1);
                }
            }
        }
        // Defensive: the closing edge is recorded before this runs, so a
        // cycle must exist; keep a generic report in case it does not.
        EngineError::NotModularlyStratified(format!(
            "the subgoal `{key}` depends on itself through negation or aggregation \
             (cf. Example 6.4)"
        ))
    }

    /// Completes the table for the *normalised* `key`, and every table its
    /// evaluation opens, and returns the key.  A complete table is a cache
    /// hit, and a *new* [fact-only](Self::fact_only) key is filled from the
    /// facts at once; anything else is settled by [`Self::settle_open`].
    /// An evaluation that fails leaves no incomplete table behind.
    fn evaluate_completely(&mut self, key: Term) -> Result<Term, EngineError> {
        // An incomplete table never outlives an evaluation.
        if self.table(&key).is_some() {
            self.stats.cached_subqueries += 1;
        } else if self.fact_only(&key) {
            // The one deadline check of the expansion a fill stands in for.
            check_deadline()?;
            self.complete_from_facts(&key)?;
        } else if let Err(err) = self.settle_open(&key) {
            self.own.retain(|_, table| table.complete);
            return Err(err);
        }
        Ok(key)
    }

    /// Opens the table for a new `key` and settles the incomplete tables —
    /// the evaluation's one scope — until it is complete, lowest components
    /// first, in one loop over a stack of *regions*.  A region is every
    /// incomplete table its root reaches over the recorded edges; the first
    /// region's root is `key`.  Each turn of the loop
    ///
    /// 1. gathers the top region, expanding a table met for the first time
    ///    before following its edges;
    /// 2. condenses the region into strongly connected components,
    ///    dependencies first (a region is closed under reachability, so they
    ///    are components of the whole scope, and the root's is the last);
    /// 3. runs each component in turn, its due members ([`Self::is_due`]),
    ///    to a fixpoint and completes it.  Before each round of expansions,
    ///    a negative (or aggregate) edge between two members — recorded
    ///    before the condensation or by an expansion since — is a cycle
    ///    through negation at the instance level (Example 6.4): the program
    ///    is not modularly stratified.  A component whose expansions opened
    ///    or reached an incomplete table outside itself ends the turn: the
    ///    root's component is gathered again with what it now reads, and any
    ///    other becomes the root of a region of its own, pushed on the stack.
    ///    A region whose root is complete is popped.
    ///
    /// A selection never settles anything, so the native stack does not
    /// grow with the evaluation: a chain of `n` negations is `n` tables
    /// here, not `n` nested calls, and a chain discovered one link at a
    /// time is `n` small regions, not `n` condensations of the whole scope.
    /// A table re-solved over complete tables is one expansion and no
    /// condensation.
    fn settle_open(&mut self, key: &Term) -> Result<(), EngineError> {
        self.open_table(key)?;
        self.expand(key)?;
        if (self.table_at(key).deps.keys()).all(|dep| self.table_at(dep).complete) {
            // It reads complete tables only (a re-solve after a write).
            Arc::make_mut(self.own.get_mut(key).expect("opened")).complete = true;
            return Ok(());
        }
        let mut regions = vec![key.clone()];
        while let Some(root) = regions.last().cloned() {
            if self.table_at(&root).complete {
                regions.pop();
                continue;
            }
            // The region, its root first; a table met for the first time is
            // expanded before its edges are followed.
            let mut region = vec![root.clone()];
            let mut position: TermMap<Term, usize> = TermMap::from_iter([(root, 0)]);
            let mut at = 0;
            while let Some(member) = region.get(at).cloned() {
                if !self.stamps.contains_key(&member) {
                    self.expand(&member)?;
                }
                for dep in self.table_at(&member).deps.keys() {
                    if !self.table_at(dep).complete && !position.contains_key(dep) {
                        position.insert(dep.clone(), region.len());
                        region.push(dep.clone());
                    }
                }
                at += 1;
            }
            let components = strongly_connected_components(region.len(), |v| {
                (self.table_at(&region[v]).deps.keys()).filter_map(|dep| position.get(dep).copied())
            });
            let component_of = components.component_of(region.len());
            'components: for (c, component) in components.iter().enumerate() {
                let members: Vec<&Term> = component.iter().map(|&v| &region[v]).collect();
                loop {
                    let mut waits = false;
                    for (dep, read) in members.iter().flat_map(|m| &self.table_at(m).deps) {
                        if self.table_at(dep).complete {
                            continue;
                        } else if position.get(dep).map(|&v| component_of[v]) != Some(c) {
                            waits = true;
                        } else if read.sign.is_negative() {
                            return Err(self.not_modularly_stratified(dep));
                        }
                    }
                    if waits {
                        // The root's component is the last.
                        regions.extend((c + 1 < components.len()).then(|| members[0].clone()));
                        break 'components;
                    }
                    let due: Vec<_> = members.iter().filter(|m| self.is_due(m)).collect();
                    if due.is_empty() {
                        break;
                    }
                    for member in due {
                        self.expand(member)?;
                    }
                }
                self.clock += 1;
                for member in members {
                    Arc::make_mut(self.own.get_mut(member).expect("an open table")).complete = true;
                    self.stamps.get_mut(member).expect("stamped").completed = self.clock;
                }
            }
        }
        Ok(())
    }

    /// Whether an incomplete table must be expanded again: since it last
    /// began, a table it reads grew, or one it read
    /// negatively — blocked on, while it was incomplete — completed.  An
    /// expansion is a function of the program and of the answers of the
    /// tables it selects, so one whose inputs all stand where they stood
    /// would select the same subgoals and derive the same answers.  An edge
    /// of either sign counts as a read: the negative sign dominates a
    /// positive read of the same table.
    fn is_due(&self, key: &Term) -> bool {
        let since = self.stamps[key].expanded;
        (self.table_at(key).deps.iter()).any(|(dep, Dep { sign, .. })| {
            self.stamps.get(dep).is_some_and(|read| {
                read.grew > since || (sign.is_negative() && read.completed > since)
            })
        })
    }

    /// Opens the table of a normalised `key` that has none — filled from
    /// the facts and complete (a [fact-only](Self::fact_only) key), or
    /// empty and incomplete, to be expanded by the settle loop (a key
    /// opened again, like the auxiliary query's, starts unexpanded) — and
    /// says whether it is complete.
    fn open_table(&mut self, key: &Term) -> Result<bool, EngineError> {
        if !self.fact_only(key) {
            self.stamps.remove(key);
            let table = Table::new(key.clone());
            self.own.insert(key.clone(), Arc::new(table));
            return Ok(false);
        }
        self.complete_from_facts(key).map(|()| true)
    }

    /// Whether no rule head can match `key`: no rule of its functor, no
    /// rule with a variable functor, not the auxiliary query rule.
    fn fact_only(&self, key: &Term) -> bool {
        self.candidate_rules(key).is_empty()
    }

    /// Answers a *new* [fact-only](Self::fact_only) key from the program's
    /// facts alone and completes its table on the spot, so it is never
    /// expanded and the expansion that selected it reads its answers at
    /// once.  Each fact the index offers is one head unification, each
    /// match one rule application, as when the table was expanded; the
    /// answer budget is checked before the table is complete, and a fill
    /// over it is an error that leaves no table.
    fn complete_from_facts(&mut self, key: &Term) -> Result<(), EngineError> {
        let mut table = Table::new(key.clone());
        for fact in self.matching_facts(key) {
            table.answers.insert(fact);
        }
        self.derived += table.answers.len();
        if self.derived > self.opts.max_atoms {
            return Err(self.over_budget());
        }
        table.complete = true;
        self.own.insert(key.clone(), Arc::new(table));
        Ok(())
    }

    /// The program's facts that are instances of `pattern`, from a probe of
    /// the index's store on its bound argument positions (not a walk of the
    /// relation).  Each fact offered is one head unification and each match
    /// one rule application: a ground head unifies with the pattern iff the
    /// pattern matches it, and the fact is its own (bodiless) answer.
    fn matching_facts(&mut self, pattern: &Term) -> Vec<Term> {
        let mut matched = Vec::new();
        let stats = &mut self.stats;
        self.index.facts.for_each_candidate(pattern, |fact| {
            stats.head_unifications += 1;
            if match_with(pattern, fact, &mut Substitution::new()) {
                stats.rule_applications += 1;
                matched.push(fact.clone());
            }
        });
        matched
    }

    /// The error of an evaluation that derived more answers than it may.
    fn over_budget(&self) -> EngineError {
        EngineError::LimitExceeded(format!(
            "query evaluation derived more than {} answers",
            self.opts.max_atoms
        ))
    }

    /// One expansion pass over everything whose head unifies with the
    /// subgoal's pattern: the facts the index's store offers for the pattern
    /// (a probe on its bound argument positions, not a walk of the
    /// relation), then the candidate rules' plans.  Each plan's head is
    /// unified with the pattern in a fresh frame, and the body is walked
    /// depth first, left to right, over that one frame ([`Self::select`]).
    /// Each expansion checks the deadline once, and the answer budget when
    /// the table grew.
    fn expand(&mut self, subgoal_key: &Term) -> Result<(), EngineError> {
        check_deadline()?;
        self.clock += 1;
        (self.stamps.entry(subgoal_key.clone()).or_default()).expanded = self.clock;
        let pattern = self.table_at(subgoal_key).pattern.clone();
        let mut derived = self.matching_facts(&pattern);
        for rule_index in self.candidate_rules(&pattern) {
            // Held through its own `Arc` while the expansion writes tables.
            let plan = Arc::clone(self.rule(rule_index));
            self.stats.head_unifications += 1;
            // The head unifies with the subgoal pattern in a fresh frame:
            // the pattern's variables become slots beside the rule's, so
            // nothing is renamed.  A bare-variable head would nest the
            // subgoal without end (`X :- aux(X)` selects `aux(G)`, then
            // `aux(aux(G))`, …: Example 6.5): its body is walked open.
            let mut frame = plan.frame();
            if !plan.rule.head.is_var() {
                let goal = frame.import(&pattern);
                if !frame.unify_pat(&plan.head, &goal) {
                    continue;
                }
            }
            self.stats.rule_applications += 1;
            self.select(&plan, 0, &mut frame, subgoal_key, &mut derived)?;
        }
        let table = Arc::make_mut(self.own.get_mut(subgoal_key).expect("a table being filled"));
        let before = table.answers.len();
        for d in derived {
            // Only keep instances of the subgoal pattern.
            if match_with(&table.pattern, &d, &mut Substitution::new()) {
                table.answers.insert(d);
            }
        }
        let grew = table.answers.len() - before;
        if grew > 0 {
            self.derived += grew;
            self.clock += 1;
            self.stamps.get_mut(subgoal_key).expect("stamped").grew = self.clock;
            if self.derived > self.opts.max_atoms {
                return Err(self.over_budget());
            }
        }
        Ok(())
    }

    /// Selects body literal `at` of `plan` under the frame's bindings and
    /// walks on from every way it holds, undoing each binding after; past
    /// the last literal the head is an answer of the table `subgoal_key`
    /// the walk fills, pushed onto `derived`.
    ///
    /// A selection records its dependency edge and opens the subgoal's
    /// table if it has none, and settles nothing: a positive literal reads
    /// the answers its table holds now, and a negative or aggregate literal
    /// on an incomplete table drops the branch — the walk is *blocked* on
    /// that table, and the settle loop expands it again once it completes.
    fn select(
        &mut self,
        plan: &RulePlan,
        at: usize,
        frame: &mut Frame,
        subgoal_key: &Term,
        derived: &mut Vec<Term>,
    ) -> Result<(), EngineError> {
        let (pat, sign) = match plan.body.get(at) {
            None => {
                let answer = frame.instantiate(&plan.head);
                if !answer.is_ground() {
                    return Err(EngineError::Floundering(format!(
                        "rule `{}` produced the non-ground answer `{answer}`",
                        plan.rule
                    )));
                }
                derived.push(answer);
                return Ok(());
            }
            Some(Step::Builtin(op, left, right)) => {
                let mark = frame.mark();
                if frame.eval_builtin(plan, *op, left, right)? {
                    self.select(plan, at + 1, frame, subgoal_key, derived)?;
                }
                frame.undo(mark);
                return Ok(());
            }
            Some(Step::Pos(pat)) => (pat, EdgeSign::Positive),
            Some(Step::Neg(pat) | Step::Aggregate(pat)) => (pat, EdgeSign::Negative),
        };
        let instantiated = frame.instantiate(pat);
        match &plan.body[at] {
            Step::Pos(_) | Step::Aggregate(_) if instantiated.is_var() => {
                return Err(EngineError::Floundering(format!(
                    "subgoal `{instantiated}` is an unbound variable when selected"
                )))
            }
            Step::Neg(_) if !instantiated.is_ground() => {
                return Err(EngineError::Floundering(format!(
                    "negative subgoal `not {instantiated}` is selected while non-ground (the \
                     rule order flounders, footnote 10)"
                )))
            }
            _ => {}
        }
        // An open table keeps the head instance behind every selection (of
        // a body walked open, the table's own pattern: any instance).
        let head = (!subgoal_key.is_ground()).then(|| match plan.rule.head.is_var() {
            true => subgoal_key.clone(),
            false => frame.instantiate(&plan.head),
        });
        let (key, first) = self.record_edge(subgoal_key, &instantiated, head, sign);
        let found = self.table(&key).map(|table| table.complete);
        let complete = found.map_or_else(|| self.open_table(&key), Ok)?;
        if sign.is_negative() {
            // A table this expansion is the first to read negatively, found
            // rather than opened for it, is a hit.
            self.stats.cached_subqueries += usize::from(first && found.is_some());
            if !complete {
                return Ok(());
            }
        }
        // Probe the table's argument indexes with the already-resolved
        // subgoal: only answers agreeing with its bound argument positions
        // are visited.
        let table = &self.table_at(&key).answers;
        let answers: Vec<Term> = match &plan.body[at] {
            Step::Neg(_) if table.contains(&instantiated) => return Ok(()),
            Step::Neg(_) => return self.select(plan, at + 1, frame, subgoal_key, derived),
            _ => table.candidates(&instantiated).cloned().collect(),
        };
        if let Literal::Aggregate(agg) = &plan.rule.body[at] {
            let theta = frame.bindings(plan);
            for extended in solve_aggregate(&plan.rule, agg, &theta, &answers)? {
                let mark = frame.mark();
                frame.absorb_rule(plan, &extended);
                self.select(plan, at + 1, frame, subgoal_key, derived)?;
                frame.undo(mark);
            }
            return Ok(());
        }
        for answer in answers {
            let mark = frame.mark();
            if frame.unify_pat(pat, &answer) {
                self.select(plan, at + 1, frame, subgoal_key, derived)?;
            }
            frame.undo(mark);
        }
        Ok(())
    }
}

/// Canonical table key for a subgoal pattern: variables renamed to `_N0`,
/// `_N1`, … in order of first occurrence, so variant patterns share a table.
/// The normalised term itself is the (structural) key.  Exposed to the
/// session facade so a warm single-atom query can look its table up without
/// constructing an evaluator.
pub(crate) fn normalize_pattern(pattern: &Term) -> Term {
    let vars = pattern.variables();
    if vars.is_empty() {
        return pattern.clone();
    }
    rename_canonically(pattern, &vars, &canonical_variables(vars.len()))
}

/// A selected atom and the head instance that selected it, renamed together
/// — the atom's variables first, so the first component is the atom's table
/// key ([`normalize_pattern`] of it) and the second says, in that key's
/// variables, which head instances an answer of that table bears on.
pub(crate) fn normalize_reader(atom: &Term, head: &Term) -> (Term, Term) {
    let mut vars = atom.variables();
    for var in head.variables() {
        if !vars.contains(&var) {
            vars.push(var);
        }
    }
    if vars.is_empty() {
        return (atom.clone(), head.clone());
    }
    let canonical = canonical_variables(vars.len());
    (
        rename_canonically(atom, &vars, &canonical),
        rename_canonically(head, &vars, &canonical),
    )
}

/// How many canonical variables are built once, for every key to share.
const SHARED_CANONICAL: usize = 64;

/// `_N0`, `_N1`, … up to `count`: a slice of the shared ones (no lock, no
/// allocation — a warm hit with a variable builds its key on them), or for
/// a pattern with more variables than that, built.
fn canonical_variables(count: usize) -> Cow<'static, [Term]> {
    static SHARED: OnceLock<Vec<Term>> = OnceLock::new();
    let canonical = |i: usize| Term::var(format!("_N{i}"));
    let shared = SHARED.get_or_init(|| (0..SHARED_CANONICAL).map(canonical).collect());
    match shared.get(..count) {
        Some(prefix) => Cow::Borrowed(prefix),
        None => Cow::Owned((0..count).map(canonical).collect()),
    }
}

/// A simultaneous renaming `vars[i] ↦ canonical[i]`, written out:
/// `Substitution::apply` follows chains, and a pattern that already carries
/// a `_Nk` behind a fresh variable (a rule variable bound to its table's
/// pattern: `q(Y, _N0)`) would be handed `Y ↦ _N0, _N0 ↦ _N1` and come back
/// `q(_N1, _N1)`.
fn rename_canonically(term: &Term, vars: &[Var], canonical: &[Term]) -> Term {
    match term {
        Term::Var(v) => {
            let position = vars.iter().position(|w| w == v);
            canonical[position.expect("a variable of the term")].clone()
        }
        Term::Sym(_) | Term::Int(_) => term.clone(),
        Term::App(name, args) => Term::app(
            rename_canonically(name, vars, canonical),
            (args.iter())
                .map(|a| rename_canonically(a, vars, canonical))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    impl Tables {
        /// The keys behind the door, and the positions ever handed out.
        pub(crate) fn footprint(&self) -> (usize, usize) {
            (self.ids.len(), self.slots.len())
        }
    }

    use super::*;
    use crate::ambient::with_deadline;
    use crate::session::HiLogDb;
    use hilog_core::Truth;
    use hilog_syntax::{parse_program, parse_query, parse_term};
    use std::time::{Duration, Instant};

    impl QueryEvaluator {
        /// An evaluator for the program (indexing it first), seeded with
        /// no tables.
        fn new(program: &Program, opts: EvalOptions) -> Self {
            let index = Arc::new(ProgramIndex::build(program, &StorageConfig::InMemory));
            Self::over(index, opts, Arc::default())
        }

        /// Whether the ground atom is true in the well-founded model.
        fn holds(&mut self, atom: &Term) -> Result<bool, EngineError> {
            if !atom.is_ground() {
                return Err(EngineError::Floundering(format!(
                    "holds() requires a ground atom, got `{atom}`"
                )));
            }
            let answers = self.solve_atom(atom)?;
            Ok(answers.iter().any(|a| a == atom))
        }
    }

    /// The true answers of `query` through a fresh session's planner.
    fn true_answers(program: &Program, query: &str) -> Vec<Substitution> {
        HiLogDb::new(program.clone())
            .query(&parse_query(query).unwrap())
            .unwrap()
            .answers
            .into_iter()
            .filter(|a| a.truth == Truth::True)
            .map(|a| a.bindings.into_iter().collect())
            .collect()
    }

    fn game(n: usize) -> Program {
        // A chain game a0 -> a1 -> ... -> an.
        let mut text = String::from("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n");
        text.push_str("game(move1).\n");
        for i in 0..n {
            text.push_str(&format!("move1(p{}, p{}).\n", i, i + 1));
        }
        parse_program(&text).unwrap()
    }

    #[test]
    fn normalisation_renames_simultaneously() {
        // A subgoal selected under an open table carries that table's `_N0`
        // wherever the rule put the variable; a fresh variable in front of
        // it must not be merged with it.
        let selected = Term::apps("q", vec![Term::var("Y"), Term::var("_N0")]);
        let key = normalize_pattern(&selected);
        assert_eq!(key, parse_term("q(_N0, _N1)").unwrap());
        assert_eq!(normalize_pattern(&key), key);
        // End to end: `p(X)` reads the second column of `q`, not its diagonal.
        let program = parse_program("q(a, b). q(c, c). p(X) :- q(Y, X).").unwrap();
        let answers = true_answers(&program, "?- p(X).");
        assert_eq!(answers.len(), 2, "{answers:?}");
    }

    #[test]
    fn ground_query_on_the_game_program() {
        let program = game(4);
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        // p3 can move to the dead end p4, so p3 is winning; p4 is not.
        assert!(ev
            .holds(&parse_term("winning(move1)(p3)").unwrap())
            .unwrap());
        assert!(!ev
            .holds(&parse_term("winning(move1)(p4)").unwrap())
            .unwrap());
        // Positions alternate along the chain.
        assert!(!ev
            .holds(&parse_term("winning(move1)(p2)").unwrap())
            .unwrap());
        assert!(ev
            .holds(&parse_term("winning(move1)(p1)").unwrap())
            .unwrap());
    }

    #[test]
    fn open_query_enumerates_answers() {
        let program = game(4);
        let answers = true_answers(&program, "?- winning(move1)(X).");
        let xs: BTreeSet<String> = answers
            .iter()
            .map(|s| s.apply(&Term::var("X")).to_string())
            .collect();
        assert_eq!(
            xs,
            ["p1".to_string(), "p3".to_string()].into_iter().collect()
        );
    }

    #[test]
    fn query_with_variable_predicate_name() {
        // ?- game(M), winning(M)(p1). binds the game name first, as the
        // strongly range-restricted discipline requires.
        let program = game(2);
        let answers = true_answers(&program, "?- game(M), winning(M)(X).");
        assert!(!answers.is_empty());
        for a in &answers {
            assert_eq!(a.apply(&Term::var("M")).to_string(), "move1");
        }
    }

    #[test]
    fn agreement_with_bottom_up_wfs() {
        let program = game(6);
        let mut db = HiLogDb::new(program.clone());
        let wfm = db.model().unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        for i in 0..=6 {
            let atom = parse_term(&format!("winning(move1)(p{i})")).unwrap();
            assert_eq!(
                ev.holds(&atom).unwrap(),
                wfm.is_true(&atom),
                "disagreement on winning(move1)(p{i})"
            );
        }
    }

    #[test]
    fn relevance_point_query_does_not_touch_other_games() {
        // Two games; querying one should not table subgoals of the other.
        let program = parse_program(
            "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
             game(move1). game(move2).\n\
             move1(a, b). move1(b, c).\n\
             move2(x1, x2). move2(x2, x3). move2(x3, x4).",
        )
        .unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        assert!(!ev.holds(&parse_term("winning(move1)(a)").unwrap()).unwrap());
        let stats = ev.stats();
        // No table mentions move2 positions.
        assert!(
            !ev.own.keys().any(|k| k.to_string().contains("move2(x")),
            "irrelevant subgoals were tabled: {:?}",
            ev.own.keys().collect::<Vec<_>>()
        );
        assert!(stats.subqueries > 0);
    }

    #[test]
    fn positive_recursion_is_tabled_to_fixpoint() {
        // Generic transitive closure with a bound relation name.
        let program = parse_program(
            "tc(G)(X, Y) :- graph(G), G(X, Y).\n\
             tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
             graph(e). e(a, b). e(b, c). e(c, d).",
        )
        .unwrap();
        let answers = true_answers(&program, "?- tc(e)(a, Y).");
        let ys: BTreeSet<String> = answers
            .iter()
            .map(|s| s.apply(&Term::var("Y")).to_string())
            .collect();
        assert_eq!(
            ys,
            ["b".to_string(), "c".to_string(), "d".to_string()]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn a_subgoal_is_expanded_again_only_when_a_table_it_reads_grew_or_completed() {
        // The open game query over warm ground tables: `winning(X)` reads
        // `move(X, Y)` (complete) and every `winning(p_i)` (complete), and
        // nothing reads `winning(X)` — its one expansion is the fixpoint.
        let program = parse_program(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             move(a, b). move(b, c). move(c, d). move(a, d).",
        )
        .unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        ev.solve_atom(&parse_term("move(X, Y)").unwrap()).unwrap();
        for position in ["a", "b", "c", "d"] {
            ev.solve_atom(&parse_term(&format!("winning({position})")).unwrap())
                .unwrap();
        }
        let warm = ev.stats().rule_applications;
        let answers = ev.solve_atom(&parse_term("winning(X)").unwrap()).unwrap();
        assert_eq!(ev.stats().rule_applications - warm, 1);
        assert_eq!(
            answers,
            [
                parse_term("winning(a)").unwrap(),
                parse_term("winning(c)").unwrap()
            ]
        );
        // From cold: the `move(X, Y)` that `winning(X)` selects has no rule,
        // so its four facts fill it and complete it on selection, and the
        // expansion reads them at once.  Each `not winning(_)` it selects is
        // a new table, so the walk blocks; `winning(b)` and `winning(c)`
        // block on the next position in turn.  `winning(d)` completes
        // first, and each member that blocked is expanded once more when
        // its blocker completes: 13 = 10 (the expansions of the settle that
        // nested the negative subgoals instead) + 3 members that blocked.
        // Expanding the fact table in the scope took 13 too, and
        // re-expanding every member of a scope until the scope's answer
        // count stood still 26.
        let mut cold = QueryEvaluator::new(&program, EvalOptions::default());
        assert_eq!(
            cold.solve_atom(&parse_term("winning(X)").unwrap()).unwrap(),
            answers
        );
        assert_eq!(cold.stats().rule_applications, 13);
        // Positive recursion on a chain: each `tc(e)(_, Y)` table is
        // expanded when it opens, and a table that read the one below it
        // while that one was incomplete once more when it completes, lowest
        // first: 16, where the shared scope took 18
        // (72 when a round re-expanded every member, 26 while the fact-only
        // `graph(e)` and `e(_, _)` tables joined the scope), same answers.
        let program = parse_program(
            "tc(G)(X, Y) :- graph(G), G(X, Y).\n\
             tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
             graph(e). e(a, b). e(b, c). e(c, d).",
        )
        .unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        let mut reached = ev.solve_atom(&parse_term("tc(e)(a, Y)").unwrap()).unwrap();
        reached.sort();
        let expected = ["tc(e)(a, b)", "tc(e)(a, c)", "tc(e)(a, d)"];
        assert_eq!(reached, expected.map(|t| parse_term(t).unwrap()));
        assert_eq!(ev.stats().rule_applications, 16);
    }

    #[test]
    fn a_fact_only_subgoal_is_complete_when_selected() {
        let program = parse_program(
            "linked(X, Y) :- edge(X, Y).\n\
             linked(X, Y) :- edge(Y, X).\n\
             edge(a, b). edge(c, a). edge(b, c).",
        )
        .unwrap();
        let mut db = HiLogDb::new(program);
        let query = |text: &str| parse_query(text).unwrap();
        let xs = |result: &crate::session::QueryResult| -> BTreeSet<String> {
            (result.answers.iter())
                .map(|a| a.binding("X").unwrap().to_string())
                .collect()
        };
        let deadline = || Some(Instant::now() + Duration::from_secs(60));
        let cold = with_deadline(deadline(), || db.query(&query("?- linked(a, X)."))).unwrap();
        assert_eq!(
            xs(&cold),
            BTreeSet::from(["b".to_string(), "c".to_string()])
        );
        // One expansion of `linked(a, _N0)`, in one round: both rule heads
        // unify, and each selects an `edge` table no rule can match, filled
        // from the one fact the index offers it and read in the same
        // expansion.  Each such table cost a round and a second expansion of
        // `linked(a, _N0)` while it joined the scope (6, 6 and 2).
        let counts = |s: EvalStats| (s.rule_applications, s.head_unifications, s.deadline_checks);
        assert_eq!(counts(cold.stats), (4, 4, 1));
        assert_eq!(cold.stats.subqueries, 3);
        let tables = crate::snapshot::lock_mut(&mut db.working().tables).share();
        for key in ["edge(a, _N0)", "edge(_N0, a)"] {
            let table = tables.get(&parse_term(key).unwrap()).expect("merged");
            assert!(table.complete && table.deps.is_empty(), "{key}");
            assert_eq!(table.answers.len(), 1, "{key}");
        }
        // Warm, the fact table is a hit.
        let warm = db.query(&query("?- edge(a, X).")).unwrap();
        assert_eq!(xs(&warm), BTreeSet::from(["b".to_string()]));
        assert_eq!(
            (warm.stats.cached_subqueries, warm.stats.rule_applications),
            (1, 0)
        );
        // A write patches it as the fact-backed table it is.
        db.assert_fact(parse_term("edge(z, a)").unwrap()).unwrap();
        let after = db.query(&query("?- linked(a, X).")).unwrap();
        assert_eq!(after.stats.tables_patched, 1);
        assert_eq!(
            xs(&after),
            BTreeSet::from(["b".to_string(), "c".to_string(), "z".to_string()])
        );
    }

    #[test]
    fn a_fact_only_fill_over_the_answer_budget_is_an_error_and_leaves_no_table() {
        let mut text = String::from("linked(X, Y) :- e(X, Y).\n");
        for i in 0..20 {
            text.push_str(&format!("e(n{i}, n{}).\n", i + 1));
        }
        let program = parse_program(&text).unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::with_max_atoms(10));
        let err = ev.solve_atom(&parse_term("e(X, Y)").unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::LimitExceeded(_)), "{err}");
        assert!(ev.into_tables().is_empty());
    }

    #[test]
    fn a_table_read_positively_then_settled_negatively_in_one_expansion_is_reread() {
        // Expanding `p(a)`: the first rule selects `q(b)` positively and the
        // second the same `q(b)` negatively, which overwrites the recorded
        // edge's sign.  When `q(b)` was a table that grew in the scope, the
        // criterion for expanding `p(a)` again had to take that negative
        // edge to a table that grew as a read, or `p(a)` was lost to a
        // premature fixpoint.
        let program = parse_program(
            "p(X) :- e(X, Y), q(Y), not r(Y).\n\
             p(X) :- e(X, Y), not q(Y).\n\
             e(a, b). e(c, d). q(b).",
        )
        .unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        let key = ev.settle(&parse_term("p(a)").unwrap()).unwrap();
        let q_b = parse_term("q(b)").unwrap();
        assert_eq!(ev.table_at(&key).deps[&q_b].sign, EdgeSign::Negative);
        let mut db = HiLogDb::new(program.clone());
        let model = db.model().unwrap().clone();
        for atom in ["p(a)", "p(c)", "p(b)"] {
            let atom = parse_term(atom).unwrap();
            assert_eq!(ev.holds(&atom).unwrap(), model.is_true(&atom), "{atom}");
        }
        assert!(ev.holds(&parse_term("p(a)").unwrap()).unwrap());
    }

    #[test]
    fn maplist_example_2_2_evaluates_top_down() {
        // Example 2.2: the query-directed evaluator handles maplist, which
        // bottom-up evaluation cannot (its relevant instantiation is
        // infinite — see the horn module's maplist test).
        let program = parse_program(
            "maplist(F)([], []) :- fun(F).\n\
             maplist(F)([X | R], [Y | Z]) :- F(X, Y), maplist(F)(R, Z).\n\
             fun(double).\n\
             double(one, two). double(two, four).",
        )
        .unwrap();
        let answers = true_answers(&program, "?- maplist(double)([one, two], L).");
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].apply(&Term::var("L")).to_string(), "[two, four]");
        // maplist also runs "backwards": which input list doubles to
        // [two, four]?
        let back = true_answers(&program, "?- maplist(double)(In, [two, four]).");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].apply(&Term::var("In")).to_string(), "[one, two]");
    }

    #[test]
    fn example_6_4_self_dependency_is_rejected_when_encountered() {
        // Example 6.4 is not modularly stratified: the instantiated rule
        // p(a) :- t(a, b, a, p), not p(b), not p(a) makes p(a) depend
        // negatively on itself.  Whether the sequential evaluator actually
        // *reaches* that dependency depends on the left-to-right subgoal
        // order (the method of Section 6.1 is "modular stratification from
        // left to right").  With `not p(Z)` selected first the cycle is hit
        // and the program is rejected, exactly as the paper describes
        // ("notice the negative dependency of p(a) on itself ... and not get
        // as far as checking p(b)").
        let reordered = parse_program(
            "p(X) :- t(X, Y, Z, P), not p(Z), not p(Y).\n\
             t(a, b, a, p).\n\
             t(c, a, b, p).\n\
             p(b) :- t(X, Y, b, P).",
        )
        .unwrap();
        let mut ev = QueryEvaluator::new(&reordered, EvalOptions::default());
        let err = ev.holds(&parse_term("p(a)").unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::NotModularlyStratified(_)));

        // With the paper's original literal order, the offending branch is
        // killed by `not p(b)` before `not p(a)` is selected, so the
        // evaluator happens to terminate with the correct well-founded
        // values — a conservative improvement over the paper's method, which
        // gives up.  The Figure 1 procedure still classifies the program as
        // not modularly stratified (see the modular module's tests).
        let original = parse_program(
            "p(X) :- t(X, Y, Z, P), not p(Y), not p(Z).\n\
             t(a, b, a, p).\n\
             t(c, a, b, p).\n\
             p(b) :- t(X, Y, b, P).",
        )
        .unwrap();
        let mut ev2 = QueryEvaluator::new(&original, EvalOptions::default());
        assert!(!ev2.holds(&parse_term("p(a)").unwrap()).unwrap());
        assert!(ev2.holds(&parse_term("p(b)").unwrap()).unwrap());
    }

    #[test]
    fn floundering_negative_subgoal_is_reported() {
        let program = parse_program("p(X) :- not q(X, Y), r(X). r(a). q(a, b).").unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        let err = ev.holds(&parse_term("p(a)").unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::Floundering(_)));
    }

    #[test]
    fn builtins_in_rule_bodies() {
        let program = parse_program(
            "price(X, N) :- base(X, P), N is P * 2.\n\
             cheap(X) :- price(X, N), N < 10.\n\
             base(a, 3). base(b, 7).",
        )
        .unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        assert!(ev.holds(&parse_term("cheap(a)").unwrap()).unwrap());
        assert!(!ev.holds(&parse_term("cheap(b)").unwrap()).unwrap());
        assert!(ev.holds(&parse_term("price(b, 14)").unwrap()).unwrap());
    }

    #[test]
    fn aggregates_via_query_evaluation() {
        // A one-level sum: total(X, N) where N sums the quantities of X's
        // direct parts.
        let program = parse_program(
            "total(X, N) :- item(X), N = sum(P, part(X, Y, P)).\n\
             item(bike).\n\
             part(bike, wheel, 2). part(bike, frame, 1).",
        )
        .unwrap();
        let answers = true_answers(&program, "?- total(bike, N).");
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].apply(&Term::var("N")), Term::int(3));
    }

    #[test]
    fn aggregates_with_free_grouping_variables() {
        // Regression: when the aggregate is the only body literal, the
        // grouping variables reach the aggregate already aliased to the
        // subgoal pattern's normalised variables; grouping must still bind
        // them (previously this floundered with a non-ground answer).
        let program = parse_program(
            "total(X, N) :- N = sum(P, part(X, Y, P)).\n\
             part(bike, wheel, 2). part(bike, frame, 1). part(car, wheel, 4).",
        )
        .unwrap();
        let answers = true_answers(&program, "?- total(X, N).");
        let rendered: BTreeSet<String> = answers
            .iter()
            .map(|s| format!("{}={}", s.apply(&Term::var("X")), s.apply(&Term::var("N"))))
            .collect();
        assert_eq!(
            rendered,
            ["bike=3".to_string(), "car=4".to_string()]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn one_evaluator_answers_conjunctions_without_sharing_their_auxiliary_table() {
        // Two conjunctions with the same variable count wrap into the same
        // `__query_answer(X)` pattern; the second must not be answered from
        // the first one's table, and neither table is handed on.
        let program = parse_program("p(a). p(b). q(b). r(c).").unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        let x = |s: &Substitution| s.apply(&Term::var("X")).to_string();
        let first = ev
            .answer_query(&parse_query("?- p(X), q(X).").unwrap())
            .unwrap();
        assert_eq!(first.iter().map(x).collect::<Vec<_>>(), ["b"]);
        let second = ev
            .answer_query(&parse_query("?- r(X), not q(X).").unwrap())
            .unwrap();
        assert_eq!(second.iter().map(x).collect::<Vec<_>>(), ["c"]);
        // A single atom tables its own pattern.
        let third = ev.answer_query(&parse_query("?- p(X).").unwrap()).unwrap();
        assert_eq!(third.len(), 2);
        let tables = ev.into_tables();
        assert!(tables.contains_key(&normalize_pattern(&parse_term("p(X)").unwrap())));
        assert!(tables
            .values()
            .all(|t| t.complete && t.pattern.outermost_functor() != &Term::sym(QUERY_HEAD)));
    }

    #[test]
    fn a_variable_predicate_name_does_not_read_the_auxiliary_query_rule() {
        // The conjunction wraps into `__query_answer(X, Y, M)`, of the same
        // arity as `M(X, Y, c)`: were the auxiliary rule a candidate for that
        // subgoal, `M = '__query_answer'` would come back as an answer, and
        // the subgoal's table would read a rule the program does not have.
        let program = parse_program("e(a, b). c(a, b, c).").unwrap();
        let query = parse_query("?- e(X, Y), M(X, Y, c).").unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        let names: Vec<String> = (ev.answer_query(&query).unwrap().iter())
            .map(|s| s.apply(&Term::var("M")).to_string())
            .collect();
        assert_eq!(names, ["c"]);
        let tables = ev.into_tables();
        assert!(tables.values().all(|t| t.deps.values().all(|dep| {
            (dep.readers.iter()).all(|h| h.outermost_functor() != &Term::sym(QUERY_HEAD))
        })));
    }

    #[test]
    fn program_index_holds_facts_as_a_set_and_rules_as_the_program_does() {
        let program = parse_program(
            "p(X) :- q(X).\n\
             q(a). q(a). winning(g)(x).\n\
             any(X).\n\
             M(X) :- r(M, X).\n\
             p(X) :- s(X).",
        )
        .unwrap();
        let mut index = ProgramIndex::build(&program, &StorageConfig::InMemory);
        // Ground bodiless rules are facts, duplicates held once; everything
        // else — `any(X).` included — is a rule.
        assert_eq!(index.fact_count(), 2);
        assert_eq!(index.rules.len(), 4);
        let positions = |index: &ProgramIndex, pattern: &str| {
            index.candidate_rules(&parse_term(pattern).unwrap())
        };
        // By head functor and arity, the variable-headed rule always along,
        // in program order.
        assert_eq!(positions(&index, "p(a)"), [0, 2, 3]);
        assert_eq!(positions(&index, "any(a)"), [1, 2]);
        assert_eq!(positions(&index, "p(a, b)"), [2]);
        assert_eq!(positions(&index, "M(a)"), [0, 1, 2, 3]);
        // One of two copies leaves: the fact stays.  The last one takes it.
        let q_a = Rule::fact(parse_term("q(a)").unwrap());
        index.remove(&q_a, false);
        assert_eq!(index.fact_count(), 2);
        index.remove(&q_a, true);
        assert_eq!(index.fact_count(), 1);
        index.insert(&q_a);
        index.insert(&q_a);
        assert_eq!(index.fact_count(), 2);
        // Removing a rule re-keys the later ones and leaves the store alone.
        index.remove(&program.rules[4], true);
        assert_eq!(index.rules.len(), 3);
        assert_eq!(positions(&index, "p(a)"), [0, 1, 2]);
        assert_eq!(positions(&index, "any(a)"), [1]);
        assert_eq!(index.fact_count(), 2);
        // A rule the index does not hold is not there to remove.
        index.remove(&program.rules[4], true);
        assert_eq!(index.rules.len(), 3);
    }

    #[test]
    fn the_spontaneous_check_reads_the_rules_of_the_facts_functor_not_the_facts() {
        // `move(a, b)` has a builtin-guarded route of its own; the other
        // rules are filed under other functors.
        let index_of = |facts: usize| {
            let mut text = String::from(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 move(a, b) :- 1 < 2.\n\
                 s :- 1 < 2.\n",
            );
            for i in 0..facts {
                text.push_str(&format!("move(p{i}, p{}).\n", i + 1));
            }
            ProgramIndex::build(&parse_program(&text).unwrap(), &StorageConfig::InMemory)
        };
        let (small, large) = (index_of(20), index_of(20_000));
        assert_eq!(large.fact_count(), 20_000);
        for fact in ["move(a, b)", "move(p3, p4)"] {
            let fact = parse_term(fact).unwrap();
            // What the check walks: the one rule filed under `move/2`.
            let walked = |index: &ProgramIndex| index.candidate_rules(&fact).len();
            assert_eq!((walked(&small), walked(&large)), (1, 1), "{fact}");
            let derives = fact == parse_term("move(a, b)").unwrap();
            assert_eq!(small.derives_spontaneously(&fact), derives, "{fact}");
            assert_eq!(large.derives_spontaneously(&fact), derives, "{fact}");
        }
    }

    #[test]
    fn seeded_tables_are_neither_counted_nor_handed_back() {
        let program = game(6);
        let index = Arc::new(ProgramIndex::build(&program, &StorageConfig::InMemory));
        let evaluator = |tables: Tables| {
            QueryEvaluator::over(index.clone(), EvalOptions::default(), Arc::new(tables))
        };
        let mut first = evaluator(Tables::default());
        first
            .solve_atom(&parse_term("winning(move1)(p4)").unwrap())
            .unwrap();
        let seeded = first.into_tables();
        assert!(!seeded.is_empty());
        // The second evaluator starts from those tables and needs more.
        let mut base = Tables::default();
        base.fill(seeded.clone().into_values(), |_| {});
        let mut second = evaluator(base);
        second
            .solve_atom(&parse_term("winning(move1)(p2)").unwrap())
            .unwrap();
        let stats = second.stats();
        assert!(
            stats.cached_subqueries > 0,
            "the seeded tables were not used"
        );
        let fresh = second.into_tables();
        assert!(!fresh.is_empty());
        assert_eq!(stats.subqueries, fresh.len());
        assert!(fresh.keys().all(|key| !seeded.contains_key(key)));
        assert!(fresh.values().all(|table| table.complete));
    }

    #[test]
    fn head_unifications_count_attempts_and_rule_applications_successes() {
        // `e(a, X)` probes the store on its bound position: one candidate,
        // one match.  `e(X, X)` binds none: both facts are offered, one
        // matches.  The rule head is attempted once per expansion either way.
        let program = parse_program("e(a, a). e(b, c). r(X, Y) :- e(X, Y).").unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        ev.solve_atom(&parse_term("e(a, X)").unwrap()).unwrap();
        let bound = ev.stats();
        assert_eq!(bound.head_unifications, bound.rule_applications);
        ev.solve_atom(&parse_term("e(X, X)").unwrap()).unwrap();
        let open = ev.stats();
        let attempts = open.head_unifications - bound.head_unifications;
        let successes = open.rule_applications - bound.rule_applications;
        assert_eq!(attempts, 2 * successes);
    }

    #[test]
    fn stats_reflect_work_done() {
        let program = game(8);
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        ev.holds(&parse_term("winning(move1)(p0)").unwrap())
            .unwrap();
        let stats = ev.stats();
        assert!(stats.subqueries >= 8);
        assert!(stats.rule_applications > 0);
        assert!(stats.answers > 0);
    }

    #[test]
    fn a_negative_cycle_is_reported_in_bounded_length() {
        // A 1,000-position cycle: the reason names the subgoal, the cycle's
        // length and three steps at each end, not the thousand between.
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for i in 0..1_000 {
            text.push_str(&format!("move(p{i}, p{}).\n", (i + 1) % 1_000));
        }
        let result = HiLogDb::new(parse_program(&text).unwrap())
            .query(&parse_query("?- winning(p0).").unwrap())
            .unwrap();
        let reason = result.fallback.expect("a negative cycle falls back");
        assert!(
            reason.contains("the subgoal `winning(p0)`")
                && reason.contains("over a cycle of 1000 steps"),
            "{reason}"
        );
        assert_eq!(reason.matches("-not->").count(), 6, "{reason}");
        assert!(reason.len() < 400, "{} bytes: {reason}", reason.len());
    }
}
