//! Query-directed evaluation for modularly stratified HiLog programs.
//!
//! Section 6.1 uses the magic-sets rewriting to evaluate queries bottom-up
//! while only ever touching atoms relevant to the query.  This
//! module realises the *evaluation* side of that method with a
//! memoising, query/subquery engine: subgoals are tabled, answers are
//! computed to a fixpoint, and a negative (or aggregate) subgoal is handled
//! by *completely settling* its own subquery first — which is exactly what
//! modular stratification guarantees to be possible, and exactly what the
//! dp/dn/□ machinery of Ross \[16\] arranges in the rewritten program.  The
//! relevance behaviour (irrelevant parts of the database are never visited)
//! is the same (`EvalStats.rule_applications` counts it).
//!
//! Every subgoal table records the positive/negative dependency edges
//! discovered while it was filled (the instance-level counterpart of the
//! `dp` / `dn` bookkeeping predicates — see [`crate::magic::DepSign`]).  When
//! settling a subgoal requires a subgoal that is still being evaluated
//! higher up the chain — a negative dependency cycle at the instance level,
//! as in Example 6.4 — the evaluator reports
//! [`EngineError::NotModularlyStratified`] with the offending cycle read
//! back from that recorded graph, mirroring the paper's remark that the
//! magic-sets method "would notice the negative dependency of `p(a)` on
//! itself ... and not get as far as checking `p(b)`".  Because every scope
//! is saturated to a true fixpoint (including answers contributed by nested
//! settles) the set of selected subgoal instances — and therefore the
//! verdict — depends only on the program and the query, not on which tables
//! happen to be complete already: a session that reuses completed tables
//! reaches the same verdict and the same answers as a cold evaluator.
//! Completed tables keep their edges, which is also what lets
//! [`crate::session::HiLogDb`] *maintain* tables under mutation instead of
//! dropping whole predicate closures.
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
//! The same edges drive the fixpoint of a scope (the tables one settle owns:
//! its subgoal and the positive subgoals reached from it).  A member is
//! expanded when it joins, and again only after a round in which a table it
//! reads — an edge of either sign — gained answers; the scope is complete
//! when no member is due.  So a subgoal costs one expansion per round in
//! which its inputs moved, not one per round of its scope, and re-solving a
//! table whose dependencies are all warm is a single expansion.
//!
//! Subgoals must have ground predicate names and ground negative subgoals at
//! selection time (the program must not *flounder*, footnote 10); the
//! left-to-right subgoal order of the source rules is the sideways
//! information passing strategy.
//!
//! The evaluator reads the program through one `ProgramIndex`: the ground
//! bodiless rules (the EDB) sit in an argument-indexed [`FactStore`], every
//! other rule in a head index keyed on `(outermost functor, arity)`.
//! Expanding a subgoal asks the store for `collect_candidates(pattern)` —
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
use crate::horn::EvalOptions;
use crate::magic::DepSign;
use crate::storage::{FactStore, RelationStorageStats, StorageConfig};
use hilog_core::hash::TermMap;
use hilog_core::literal::Literal;
use hilog_core::program::Program;
use hilog_core::rule::{Query, Rule};
use hilog_core::subst::Substitution;
use hilog_core::term::{Term, Var};
use hilog_core::unify::{match_with, unify_with};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
    /// Number of subgoals answered from an already-complete table without
    /// any re-evaluation (cache hits; only a session-held evaluator that
    /// reuses tables across queries can observe a second-query hit).
    pub cached_subqueries: usize,
    /// Number of grounding passes performed while answering.  The
    /// query-directed evaluator never grounds, so this is only non-zero for
    /// full-model plans executed by [`crate::session::HiLogDb`]; a cached
    /// model answers with `groundings == 0`.
    pub groundings: usize,
    /// How the model that answered this query was obtained — the
    /// observability hook for the session's incremental maintenance.
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
    /// ([`hilog_core::symbol::gc_symbol_pool`]); right after that GC every
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
    /// Facts resident in memory across the session's relation stores (the
    /// possibly-true store plus every subgoal table) when this query
    /// finished.  Under the in-memory backend this is the total fact count.
    pub storage_resident_facts: usize,
    /// Facts whose payloads currently live only in spill segment files
    /// (always zero under the in-memory backend).
    pub storage_spilled_facts: usize,
    /// Bytes appended to spill segment files by the session's stores.
    pub storage_segment_bytes: u64,
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
    /// `EvalStats::groundings == 0` says was already at hand (cached, or
    /// kept current by the session's incremental maintenance).
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
    /// Ground answers, held in an argument-indexed [`FactStore`] so that
    /// joining a partially instantiated subgoal against a (large, warm)
    /// table probes an index on its bound argument positions instead of
    /// scanning every answer.  The indexes are maintained by the session's
    /// in-place table patches, so they stay warm across mutations; on the
    /// spill backend a cold table's answer payloads page to disk while its
    /// indexes stay resident.
    pub(crate) answers: FactStore,
    pub(crate) complete: bool,
    /// Direct subgoal edges, by the normalised key of the dependency.
    pub(crate) deps: BTreeMap<Term, Dep>,
}

/// One recorded dependency of a table on a subgoal `A`: Section 6.1's
/// `dp(H, A)` / `dn(H, A)` for that `A`, *with* the `H`.
#[derive(Debug, Clone)]
pub(crate) struct Dep {
    /// Strongest polarity `A` was selected under ([`DepSign::Neg`]
    /// dominates).
    pub(crate) sign: DepSign,
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
    fn new(pattern: Term, storage: &StorageConfig) -> Self {
        Table {
            pattern,
            answers: FactStore::new(storage),
            complete: false,
            deps: BTreeMap::new(),
        }
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
/// store.
#[derive(Debug, Clone)]
pub(crate) struct ProgramIndex {
    /// Heads of the ground bodiless rules.
    facts: FactStore,
    /// Every other rule (proper rules, non-ground bodiless rules such as
    /// `p(X).`), in program order.
    rules: Vec<Rule>,
    /// Positions in `rules` grouped by the (ground) outermost functor and
    /// arity of the head, so that a subgoal only considers rules that could
    /// match it (the discrimination the magic predicates provide in the
    /// rewritten program).
    by_head: TermMap<(Term, Option<usize>), Vec<usize>>,
    /// Positions in `rules` of the rules whose head's outermost functor is a
    /// variable: candidates for every subgoal.
    wildcard: Vec<usize>,
}

impl ProgramIndex {
    /// Indexes `program`, holding its facts on the `storage` backend.
    pub(crate) fn build(program: &Program, storage: &StorageConfig) -> Self {
        let mut index = ProgramIndex {
            facts: FactStore::new(storage),
            rules: Vec::new(),
            by_head: TermMap::default(),
            wildcard: Vec::new(),
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

    /// One more copy of `rule` was pushed onto the program.
    pub(crate) fn insert(&mut self, rule: &Rule) {
        if Self::is_indexed_fact(rule) {
            self.facts.insert(rule.head.clone());
            return;
        }
        let position = self.rules.len();
        let functor = rule.head.outermost_functor();
        if functor.is_ground() {
            self.by_head
                .entry((functor.clone(), rule.head.arity()))
                .or_default()
                .push(position);
        } else {
            self.wildcard.push(position);
        }
        self.rules.push(rule.clone());
    }

    /// One copy of `rule` (the first, as `retract_fact` / `retract_rule`
    /// remove it) left the program; `last_copy` says none remains.
    pub(crate) fn remove(&mut self, rule: &Rule, last_copy: bool) {
        if Self::is_indexed_fact(rule) {
            if last_copy {
                self.facts.remove(&rule.head);
            }
            return;
        }
        let Some(position) = self.rules.iter().position(|r| r == rule) else {
            return;
        };
        // Later positions shift: re-key the rule part (never the store).
        let mut rules = std::mem::take(&mut self.rules);
        rules.remove(position);
        self.by_head.clear();
        self.wildcard.clear();
        for rule in &rules {
            self.insert(rule);
        }
    }

    /// Positions in `rules` of the rules whose head could unify with
    /// `pattern`, in program order.
    fn candidate_rules(&self, pattern: &Term) -> Vec<usize> {
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

    /// Number of distinct ground facts held.
    pub(crate) fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Storage statistics of the fact store.
    pub(crate) fn storage_stats(&self) -> RelationStorageStats {
        self.facts.storage_stats()
    }
}

/// Subgoal tables by their normalised pattern.  Tables are `Arc`d so a map
/// shares them structurally with every copy of it; `Arc::make_mut` copies a
/// table on its first write only if another map still holds it.
pub(crate) type Tables = TermMap<Term, Arc<Table>>;

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
    /// answered, held *beside* the index as rule position
    /// `index.rules.len()` — so wrapping a query never copies anything.
    query_rule: Option<Rule>,
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
    /// and not to the warm tables the evaluator started from.
    own: Tables,
    rename_counter: u32,
    /// `rule_applications`, `head_unifications` and `cached_subqueries` so
    /// far; the table counts are read off `own` on demand.
    stats: EvalStats,
    /// Number of answers inserted by *this* evaluator (seeded answers are
    /// not counted): the resource-limit measure, so that a warm evaluator
    /// and a cold one face the same per-query derivation budget.
    derived: usize,
    /// Backend configuration for tables this evaluator creates (seeded
    /// tables keep whatever backend they were built on).
    storage: StorageConfig,
}

impl QueryEvaluator {
    /// Creates an evaluator over an already indexed program, seeded with
    /// the completed tables of a previous run over the same program.  They
    /// are trusted as-is and never written.
    pub(crate) fn over(
        index: Arc<ProgramIndex>,
        opts: EvalOptions,
        base: Arc<Tables>,
        storage: StorageConfig,
    ) -> Self {
        QueryEvaluator {
            index,
            query_rule: None,
            opts,
            base,
            own: Tables::default(),
            rename_counter: 0,
            stats: EvalStats::default(),
            derived: 0,
            storage,
        }
    }

    /// Consumes the evaluator, handing the subgoal tables it *created and
    /// completed* back to the caller: the seeded tables are the caller's
    /// already, an aborted evaluation leaves incomplete ones behind, and the
    /// auxiliary query table is not a table of the program.  Every table
    /// returned is a valid table of the base program.  The evaluator's hold
    /// on its base ends here, so a caller that holds the only other `Arc` of
    /// it owns it outright again.
    pub(crate) fn into_tables(mut self) -> Tables {
        self.drop_query_table();
        self.own.retain(|_, table| table.complete);
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

    /// Starts an empty table for the normalised `key`.
    fn create_table(&mut self, key: Term) {
        self.own
            .insert(key.clone(), Arc::new(Table::new(key, &self.storage)));
    }

    /// Forgets the auxiliary table of the last conjunctive query.  The match
    /// is on the pattern's functor, not the rendered key (where
    /// `__query_answer` comes out quoted).
    fn drop_query_table(&mut self) {
        let aux_functor = Term::sym(QUERY_HEAD);
        self.own
            .retain(|key, _| key.outermost_functor() != &aux_functor);
    }

    /// The rule at `position`: a rule of the index, or — one past its end —
    /// the auxiliary rule of the query being answered.
    fn rule(&self, position: usize) -> &Rule {
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
        if self.query_rule.as_ref().is_some_and(|r| {
            r.head.outermost_functor() == pattern.outermost_functor()
                && r.head.arity() == pattern.arity()
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
        Ok(self.table_at(&key).answers.collect_atoms())
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
        self.evaluate_completely(normalize_pattern(pattern), &mut Vec::new())
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
            self.query_rule = Some(Rule::new(head.clone(), query.literals.clone()));
            let solved = self.solve_atom(&head);
            self.query_rule = None;
            (head, solved)
        };
        Ok(solved?
            .into_iter()
            .filter_map(|answer| {
                let mut theta = Substitution::new();
                match_with(&head, &answer, &mut theta).then(|| theta.restrict(&vars))
            })
            .collect())
    }

    fn fresh_generation(&mut self) -> u32 {
        self.rename_counter += 1;
        self.rename_counter
    }

    /// Records that the table `from` selected `atom` with the given
    /// polarity ([`DepSign::Neg`] dominates a previously recorded positive
    /// edge) and returns the key of the table `atom` is answered from.
    /// `head` is the instance of the rule head doing the selecting — given
    /// for a table whose pattern is non-ground, where it says which of the
    /// table's answers the selection can bear on.
    fn record_edge(&mut self, from: &Term, atom: &Term, head: Option<Term>, sign: DepSign) -> Term {
        let (to, reader) = match head {
            Some(head) => {
                let (to, reader) = normalize_reader(atom, &head);
                (to, Some(reader))
            }
            None => (normalize_pattern(atom), None),
        };
        // Only a table being filled selects anything, and those are all
        // this evaluator's own.
        if let Some(table) = self.own.get_mut(from) {
            let dep = (Arc::make_mut(table).deps.entry(to.clone())).or_insert_with(|| Dep {
                sign,
                readers: BTreeSet::new(),
            });
            if sign == DepSign::Neg {
                dep.sign = DepSign::Neg;
            }
            dep.readers.extend(reader);
        }
        to
    }

    /// Builds the [`EngineError::NotModularlyStratified`] report for a
    /// request to settle `key` while it is still being settled: reads a
    /// dependency cycle through `key` containing at least one negative edge
    /// back from the recorded graph.  By construction the closing edge has
    /// just been recorded, so the cycle is present; the search is bounded by
    /// visiting each table at most twice (once per "negative edge seen yet"
    /// state).
    fn not_modularly_stratified(&self, key: &Term) -> EngineError {
        /// One DFS frame: the table reached, whether the path to it crossed
        /// a negative edge, and the edges walked so far (for the report).
        type Frame = (Term, bool, Vec<(Term, DepSign)>);
        let mut stack: Vec<Frame> = vec![(key.clone(), false, Vec::new())];
        let mut visited: BTreeSet<(Term, bool)> = BTreeSet::new();
        while let Some((node, has_neg, path)) = stack.pop() {
            if !visited.insert((node.clone(), has_neg)) {
                continue;
            }
            let Some(table) = self.table(&node) else {
                continue;
            };
            for (dep, Dep { sign, .. }) in &table.deps {
                let neg = has_neg || sign.is_negative();
                if dep == key && neg {
                    let mut rendered = format!("`{key}`");
                    for (step, sign) in path.iter().chain([(dep.clone(), *sign)].iter()) {
                        rendered.push_str(if sign.is_negative() {
                            " -not-> "
                        } else {
                            " -> "
                        });
                        rendered.push_str(&format!("`{step}`"));
                    }
                    return EngineError::NotModularlyStratified(format!(
                        "the subgoal `{key}` depends on itself through negation or aggregation \
                         (cf. Example 6.4): {rendered}"
                    ));
                }
                if !visited.contains(&(dep.clone(), neg)) {
                    let mut next_path = path.clone();
                    next_path.push((dep.clone(), *sign));
                    stack.push((dep.clone(), neg, next_path));
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

    /// The answers each table in `scope` currently holds — what
    /// [`Self::evaluate_completely`] measures growth against.  Read off the
    /// tables (not off a per-expansion flag) so that answers contributed to
    /// a scope table by a *nested* settle — e.g. a negative subgoal elsewhere
    /// in the scope completing a table this scope also reads positively —
    /// are observed and the rule bodies that read it are re-joined.
    fn scope_answers(&self, scope: &[Term]) -> Vec<usize> {
        scope
            .iter()
            .map(|k| self.table(k).map_or(0, |t| t.answers.len()))
            .collect()
    }

    /// Ensures the table for the *normalised* key exists and is complete,
    /// evaluating the subgoal (and, recursively, everything it needs) to a
    /// fixpoint.  Callers normalise once and pass the key (also recording
    /// the dependency edge first, so a cycle-closing request is already in
    /// the graph when this detects it).
    ///
    /// `in_progress` tracks the subgoal keys currently being settled; a
    /// request to *completely* settle a key that is already in progress is a
    /// negative dependency cycle and the program is rejected as not
    /// modularly stratified.
    fn evaluate_completely(
        &mut self,
        key: Term,
        in_progress: &mut Vec<Term>,
    ) -> Result<Term, EngineError> {
        if !key.name().is_ground() && key.is_var() {
            return Err(EngineError::Floundering(format!(
                "subgoal `{key}` is an unbound variable"
            )));
        }
        if let Some(table) = self.table(&key) {
            if table.complete {
                self.stats.cached_subqueries += 1;
                return Ok(key);
            }
            // The subgoal is already being settled further up the negation
            // chain: a dependency cycle through negation at the instance
            // level (Example 6.4), reported from the recorded dependency
            // graph (the closing edge was recorded by the caller).  A merely
            // *incomplete* table that is not an ancestor (it belongs to an
            // enclosing positive fixpoint) is fine — we saturate it here,
            // which only brings its completion forward.
            if in_progress.contains(&key) {
                return Err(self.not_modularly_stratified(&key));
            }
        } else {
            self.create_table(key.clone());
        }
        in_progress.push(key.clone());

        // The set of subgoal keys whose fixpoint this evaluation owns.  New
        // positive subgoals encountered during expansion join the scope.
        //
        // A member is expanded in the round it joins, and again in a later
        // round only if a table it reads *grew* during the round before: an
        // expansion is a function of the program and of the answers of the
        // tables it selects, so one whose dependencies all stand where they
        // stood when it last began would select the same subgoals and derive
        // the same answers.  The fixpoint is reached when no member is due.
        //
        // Growth is read off the tables' answer counts, not off a
        // per-expansion "changed" flag: a nested settle (of a negative
        // subgoal selected within this scope) can complete a table the scope
        // also reads positively, and the rule bodies whose branches died on
        // that table while it was still empty must be re-joined — otherwise
        // the scope completes prematurely, missing answers and masking
        // negative cycles behind them.  For the same reason an edge of
        // *either* sign counts as a read: `record_edge` lets the negative
        // selection overwrite the positive edge to that very table.
        let mut scope: Vec<Term> = vec![key.clone()];
        let mut due = vec![true];
        loop {
            check_deadline()?;
            let before = self.scope_answers(&scope);
            let mut i = 0;
            while i < scope.len() {
                if due.get(i).copied().unwrap_or(true) {
                    let subgoal_key = scope[i].clone();
                    self.expand(&subgoal_key, &mut scope, in_progress)?;
                }
                i += 1;
            }
            // A table that joined during the round is measured from empty.
            let grown: BTreeSet<&Term> = scope
                .iter()
                .zip(self.scope_answers(&scope))
                .enumerate()
                .filter(|(i, (_, now))| *now > before.get(*i).copied().unwrap_or(0))
                .map(|(_, (k, _))| k)
                .collect();
            if grown.is_empty() {
                break;
            }
            if self.derived > self.opts.max_atoms {
                return Err(EngineError::LimitExceeded(format!(
                    "query evaluation derived more than {} answers",
                    self.opts.max_atoms
                )));
            }
            due = scope
                .iter()
                .map(|k| {
                    let deps = &self.table_at(k).deps;
                    if deps.len() <= grown.len() {
                        deps.keys().any(|d| grown.contains(d))
                    } else {
                        grown.iter().any(|g| deps.contains_key(*g))
                    }
                })
                .collect();
            if !due.contains(&true) {
                break;
            }
        }
        for k in &scope {
            if let Some(t) = self.own.get_mut(k) {
                Arc::make_mut(t).complete = true;
            }
        }
        in_progress.pop();
        Ok(key)
    }

    /// Registers (or finds) the table for a positive subgoal's *normalised*
    /// key, adding it to the evaluation scope if it is new.
    fn table_for_positive(
        &mut self,
        key: Term,
        scope: &mut Vec<Term>,
        in_progress: &[Term],
    ) -> Result<Term, EngineError> {
        if let Some(table) = self.table(&key) {
            if !table.complete && !scope.contains(&key) {
                // The subgoal is being settled in an enclosing evaluation
                // whose completion transitively needs *this* evaluation: a
                // dependency cycle through negation (the chain from the
                // ancestor down to this scope crosses at least one settle
                // boundary, so the recorded cycle has a negative edge).
                if in_progress.contains(&key) {
                    return Err(self.not_modularly_stratified(&key));
                }
                scope.push(key.clone());
            }
            return Ok(key);
        }
        self.create_table(key.clone());
        scope.push(key.clone());
        Ok(key)
    }

    /// One expansion pass over everything whose head unifies with the
    /// subgoal's pattern: the facts the index's store offers for the pattern
    /// (a probe on its bound argument positions, not a walk of the
    /// relation), then the candidate rules.  Dependency edges are recorded
    /// as subgoals are selected — *before* they are settled, so that a
    /// cycle-closing selection is already in the graph when the settle
    /// detects it.
    fn expand(
        &mut self,
        subgoal_key: &Term,
        scope: &mut Vec<Term>,
        in_progress: &mut Vec<Term>,
    ) -> Result<(), EngineError> {
        let pattern = self.table_at(subgoal_key).pattern.clone();
        // An open table keeps the head instance behind every selection.
        let open = !pattern.is_ground();
        let mut derived: Vec<Term> = Vec::new();
        for fact in self.index.facts.collect_candidates(&pattern) {
            self.stats.head_unifications += 1;
            // A ground head unifies with the pattern iff the pattern
            // matches it, and the fact is its own (bodiless) answer.
            if match_with(&pattern, &fact, &mut Substitution::new()) {
                self.stats.rule_applications += 1;
                derived.push(fact);
            }
        }
        for rule_index in self.candidate_rules(&pattern) {
            let generation = self.fresh_generation();
            let renamed = self.rule(rule_index).rename(generation);
            self.stats.head_unifications += 1;
            let mut theta = Substitution::new();
            if !unify_with(&renamed.head, &pattern, &mut theta) {
                continue;
            }
            self.stats.rule_applications += 1;
            let mut branches = vec![theta];
            for lit in &renamed.body {
                if branches.is_empty() {
                    break;
                }
                let mut next = Vec::new();
                for theta in branches {
                    let head = || open.then(|| theta.apply(&renamed.head));
                    match lit {
                        Literal::Pos(atom) => {
                            let instantiated = theta.apply(atom);
                            if !instantiated.name().is_ground() && instantiated.is_var() {
                                return Err(EngineError::Floundering(format!(
                                    "positive subgoal `{instantiated}` is an unbound variable \
                                     when selected"
                                )));
                            }
                            let target =
                                self.record_edge(subgoal_key, &instantiated, head(), DepSign::Pos);
                            let key = self.table_for_positive(target, scope, in_progress)?;
                            // Probe the table's argument indexes with the
                            // already-resolved subgoal: only answers agreeing
                            // with its bound argument positions are visited.
                            let answers: Vec<Term> = self
                                .table_at(&key)
                                .answers
                                .collect_candidates(&instantiated);
                            for answer in answers {
                                let mut extended = theta.clone();
                                if unify_with(&instantiated, &answer, &mut extended) {
                                    next.push(extended);
                                }
                            }
                        }
                        Literal::Neg(atom) => {
                            let instantiated = theta.apply(atom);
                            if !instantiated.is_ground() {
                                return Err(EngineError::Floundering(format!(
                                    "negative subgoal `not {instantiated}` is selected while \
                                     non-ground (the rule order flounders, footnote 10)"
                                )));
                            }
                            let target =
                                self.record_edge(subgoal_key, &instantiated, head(), DepSign::Neg);
                            let key = self.evaluate_completely(target, in_progress)?;
                            let is_true = self.table_at(&key).answers.contains(&instantiated);
                            if !is_true {
                                next.push(theta);
                            }
                        }
                        Literal::Builtin(b) => {
                            let mut extended = theta.clone();
                            match b.eval(&mut extended) {
                                Ok(true) => next.push(extended),
                                Ok(false) => {}
                                Err(e) => return Err(EngineError::Core(e)),
                            }
                        }
                        Literal::Aggregate(agg) => {
                            let instantiated_pattern = theta.apply(&agg.pattern);
                            let target = self.record_edge(
                                subgoal_key,
                                &instantiated_pattern,
                                head(),
                                DepSign::Neg,
                            );
                            let key = self.evaluate_completely(target, in_progress)?;
                            let answers: Vec<Term> = self
                                .table_at(&key)
                                .answers
                                .collect_candidates(&instantiated_pattern);
                            next.extend(solve_aggregate(&renamed, agg, &theta, &answers)?);
                        }
                    }
                }
                branches = next;
            }
            for theta in branches {
                let answer = theta.apply(&renamed.head);
                if answer.is_ground() {
                    derived.push(answer);
                } else {
                    return Err(EngineError::Floundering(format!(
                        "rule `{}` produced the non-ground answer `{answer}`",
                        self.rule(rule_index)
                    )));
                }
            }
        }
        let table = self.own.get_mut(subgoal_key).expect("a table being filled");
        let before = table.answers.len();
        if !derived.is_empty() {
            let table = Arc::make_mut(table);
            for d in derived {
                // Only keep instances of the subgoal pattern.
                let mut m = Substitution::new();
                if match_with(&table.pattern, &d, &mut m) {
                    table.answers.insert(d);
                }
            }
        }
        self.derived += self.own[subgoal_key].answers.len() - before;
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

fn canonical_variables(count: usize) -> Vec<Term> {
    (0..count).map(|i| Term::var(format!("_N{i}"))).collect()
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
    use super::*;
    use crate::session::HiLogDb;
    use hilog_core::interpretation::Truth;
    use hilog_syntax::{parse_program, parse_query, parse_term};

    impl QueryEvaluator {
        /// An evaluator for the program (indexing it first), seeded with
        /// no tables.
        fn new(program: &Program, opts: EvalOptions) -> Self {
            let storage = StorageConfig::default();
            let index = Arc::new(ProgramIndex::build(program, &storage));
            Self::over(index, opts, Arc::default(), storage)
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
    fn a_subgoal_is_expanded_once_per_round_in_which_something_it_reads_grew() {
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
        // From cold the same query is two expansions of `winning(X)` (the
        // first finds `move(X, Y)` empty), one of `move(X, Y)` — the facts
        // are matched once, not once per round — and the ground tables under
        // them: 13 where re-expanding every member of a scope until the
        // scope's answer count stood still took 26.
        let mut cold = QueryEvaluator::new(&program, EvalOptions::default());
        assert_eq!(
            cold.solve_atom(&parse_term("winning(X)").unwrap()).unwrap(),
            answers
        );
        assert_eq!(cold.stats().rule_applications, 13);
        // Positive recursion, where a scope holds many tables and a round
        // used to re-expand all of them: 26 against 72, same answers.
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
        assert_eq!(ev.stats().rule_applications, 26);
    }

    #[test]
    fn a_table_read_positively_then_settled_negatively_in_one_expansion_is_reread() {
        // Expanding `p(a)`: the first rule selects `q(b)` positively — a new,
        // empty table that joins the scope, so the branch dies — and the
        // second settles the same `q(b)` negatively, which completes it with
        // an answer and overwrites the recorded edge's sign.  The round
        // criterion has to take that negative edge to a table that grew as a
        // reason to expand `p(a)` again, or `p(a)` is lost (the premature
        // fixpoint of PR 4).
        let program = parse_program(
            "p(X) :- e(X, Y), q(Y), not r(Y).\n\
             p(X) :- e(X, Y), not q(Y).\n\
             e(a, b). e(c, d). q(b).",
        )
        .unwrap();
        let mut ev = QueryEvaluator::new(&program, EvalOptions::default());
        let key = ev.settle(&parse_term("p(a)").unwrap()).unwrap();
        let q_b = parse_term("q(b)").unwrap();
        assert_eq!(ev.table_at(&key).deps[&q_b].sign, DepSign::Neg);
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
    fn seeded_tables_are_neither_counted_nor_handed_back() {
        let program = game(6);
        let index = Arc::new(ProgramIndex::build(&program, &StorageConfig::InMemory));
        let evaluator = |tables| {
            QueryEvaluator::over(
                index.clone(),
                EvalOptions::default(),
                Arc::new(tables),
                StorageConfig::InMemory,
            )
        };
        let mut first = evaluator(Tables::default());
        first
            .solve_atom(&parse_term("winning(move1)(p4)").unwrap())
            .unwrap();
        let seeded = first.into_tables();
        assert!(!seeded.is_empty());
        // The second evaluator starts from those tables and needs more.
        let mut second = evaluator(seeded.clone());
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
}
