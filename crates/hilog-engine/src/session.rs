//! The `HiLogDb` session: the mutable owner of the one read surface.
//!
//! Every other entry point in this crate is a free function that takes a
//! [`Program`] and re-derives grounding and dependency information from
//! scratch.  A [`HiLogDb`] instead *owns* its program and amortises that work
//! across queries: the relevant instantiation, the full model and the
//! completed subgoal tables of the query-directed evaluator are all cached.
//! [`assert_fact`](HiLogDb::assert_fact) / [`retract_fact`](HiLogDb::retract_fact)
//! maintain the subgoal tables at the instance level and drop the
//! model-side caches (grounding, model, stable models, Figure 1) whole.
//! Queries are routed through an explainable [`QueryPlan`]: bound queries use
//! magic-sets style tabled evaluation (Section 6.1 of the paper), unbound
//! ones fall back to the cached full model.
//!
//! The session does not implement those read routes itself.  It owns a
//! *working* [`DbSnapshot`] by value — program, caches and the one
//! implementation of `query` / `holds` / `model` / `stable_models` /
//! `check_modular` / `explain` — and is a thin shell around it: reads
//! delegate (the snapshot's interior locks are uncontended, since `&mut
//! self` is exclusive), and what is genuinely session-only lives here and in
//! `tables` (instance-level subgoal-table maintenance): the mutation paths,
//! which reach the snapshot's caches lock-free, and the mutation-window
//! counters a query's stats carry.
//! The tabled evaluator's program index is maintained here too: once a
//! query has built it, every `assert_*` / `retract_*` mirrors its one
//! program edit into it (a store insert or remove for a ground fact) rather
//! than letting the next query index the program again.
//! [`HiLogDb::into_serving`] hands the same object to a
//! [`DbWriter`], which publishes `Arc`-sharing
//! copies of the working snapshot for concurrent readers.
//!
//! A write costs what it changes, not what the store holds.  The program's
//! rule list is a persistent sequence
//! ([`RuleSeq`](hilog_core::RuleSeq)), so un-sharing it from a
//! published snapshot and editing it copies the touched chunk, not the
//! rules; and the three things a mutation asks of the fact set — is this
//! assert a duplicate, is there anything to retract, was that the last copy
//! — are probes of a multiset of bodiless-rule heads the session keeps
//! beside the program (built by the first mutation, never published), not
//! walks over it.  What still walks: finding the position of a fact that
//! *is* present, to retract that occurrence.
//!
//! ```
//! use hilog_engine::HiLogDb;
//! use hilog_syntax::{parse_program, parse_query};
//!
//! let program = parse_program(
//!     "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).",
//! )
//! .unwrap();
//! let mut db = HiLogDb::builder().program(program).build();
//! let query = parse_query("?- winning(X).").unwrap();
//! let first = db.query(&query).unwrap();
//! assert_eq!(first.answers.len(), 1); // only b wins
//! // The second run answers from the session's subgoal tables.
//! let second = db.query(&query).unwrap();
//! assert_eq!(second.stats.rule_applications, 0);
//! assert!(second.stats.cached_subqueries > 0);
//! ```

mod tables;

use crate::error::EngineError;
use crate::ground::GroundProgram;
use crate::horn::EvalOptions;
use crate::magic_eval::{EvalStats, ProgramIndex};
use crate::modular::ModularOutcome;
use crate::plan::QueryPlan;
use crate::snapshot::{
    holds_query, lock_mut, DbSnapshot, DbWriter, SnapCore, SnapshotHandle, Twinned,
};
use crate::storage::{RelationStorageStats, StorageConfig};
use hilog_core::{Model, Program, Query, Rule, Term, TermMap, Truth, Var};
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Which semantics a [`HiLogDb`] answers queries under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Semantics {
    /// The (three-valued) well-founded semantics of Sections 3.1 / 4 — the
    /// default, and the only semantics with a magic-sets route.
    #[default]
    WellFounded,
    /// Stable-model consensus truth (Definition 3.7): an atom is true if it
    /// is true in every stable model, false if false in every stable model,
    /// and undefined otherwise.  Queries fail with
    /// [`EngineError::NoStableModels`] when no stable model exists.
    Stable,
    /// The Figure 1 modular-stratification procedure: queries are answered
    /// from the procedure's accumulated total model, and fail with
    /// [`EngineError::NotModularlyStratified`] when the program is rejected.
    ModularCheck,
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Semantics::WellFounded => write!(f, "well-founded"),
            Semantics::Stable => write!(f, "stable"),
            Semantics::ModularCheck => write!(f, "modular-check"),
        }
    }
}

impl Serialize for Semantics {
    fn write_json(&self, out: &mut String) {
        serde::write_json_string(out, &self.to_string());
    }
}

/// One answer to a query: bindings for the query's free variables together
/// with the three-valued truth of that instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAnswer {
    /// Bindings in first-occurrence order of the query's variables.
    pub bindings: Vec<(Var, Term)>,
    /// Truth of this instance.  Magic-sets plans only report true instances;
    /// full-model plans also surface undefined ones.
    pub truth: Truth,
}

impl QueryAnswer {
    /// The binding of the named variable, if any.
    pub fn binding(&self, name: &str) -> Option<&Term> {
        self.bindings
            .iter()
            .find(|(v, _)| v.name() == name && v.generation() == 0)
            .map(|(_, t)| t)
    }
}

impl fmt::Display for QueryAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} = {}", v.name(), t)?;
        }
        write!(f, "}} ({})", self.truth)
    }
}

impl Serialize for QueryAnswer {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        out.push_str("\"bindings\":{");
        for (i, (v, t)) in self.bindings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::write_json_string(out, v.name());
            out.push(':');
            serde::write_json_display(out, t);
        }
        out.push_str("},\"truth\":");
        serde::write_json_string(out, self.truth.as_str());
        out.push('}');
    }
}

/// The unified result of [`HiLogDb::query`]: answers, an overall truth
/// value, the statistics of the evaluation and the plan that produced it.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// One entry per derived instance of the query.
    pub answers: Vec<QueryAnswer>,
    /// Overall truth: `True` if some instance is true, else `Undefined` if
    /// some instance is undefined, else `False`.
    pub truth: Truth,
    /// Statistics of this evaluation (not cumulative across queries).
    pub stats: EvalStats,
    /// The plan that was executed.
    pub plan: QueryPlan,
    /// When the magic-sets route could not settle the query (it detected a
    /// negative dependency cycle, or floundered) the session transparently
    /// re-answers from the full model; the original error is recorded here.
    pub fallback: Option<String>,
}

impl QueryResult {
    /// Returns `true` if the overall truth is `True`.
    pub fn is_true(&self) -> bool {
        self.truth == Truth::True
    }

    /// Writes the result as JSON: the answer,
    /// `{"answers":…,"truth":…,"fallback":…}`, and when `analyze` its
    /// analysis, `stats` and `plan`, before `fallback` (as [`Serialize`]
    /// writes it).
    pub fn write_json_with(&self, out: &mut String, analyze: bool) {
        out.push('{');
        serde::write_field(out, "answers", &self.answers, true);
        serde::write_field(out, "truth", self.truth.as_str(), false);
        if analyze {
            serde::write_field(out, "stats", &self.stats, false);
            serde::write_field(out, "plan", &self.plan, false);
        }
        serde::write_field(out, "fallback", &self.fallback, false);
        out.push('}');
    }
}

impl Serialize for QueryResult {
    fn write_json(&self, out: &mut String) {
        self.write_json_with(out, true);
    }
}

/// Builder for [`HiLogDb`]; obtained from [`HiLogDb::builder`].
#[derive(Debug, Clone, Default)]
pub struct HiLogDbBuilder {
    program: Program,
    opts: EvalOptions,
    semantics: Semantics,
    storage: StorageConfig,
}

impl HiLogDbBuilder {
    /// Uses `program` as the initial rule set (replacing any previous one).
    pub fn program(mut self, program: Program) -> Self {
        self.program = program;
        self
    }

    /// Appends a single rule (or fact) to the initial program.
    pub fn rule(mut self, rule: Rule) -> Self {
        self.program.push(rule);
        self
    }

    /// Sets the evaluation limits used by every route — the session's single
    /// stored copy of [`EvalOptions`].
    pub fn options(mut self, opts: EvalOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Chooses the semantics queries are answered under.
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Chooses the relation-storage backend for the program index's facts,
    /// the one store a session may page to disk (subgoal tables and the
    /// grounding are derived from the program and stay resident).  The
    /// default is [`StorageConfig::InMemory`].
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Builds the session.  No evaluation happens yet; every cache is filled
    /// lazily by the first query that needs it.
    pub fn build(self) -> HiLogDb {
        HiLogDb {
            snap: DbSnapshot::new(self.program, self.opts, self.semantics, self.storage),
            generation: 0,
            fact_copies: None,
            unsettled: Vec::new(),
            walk: tables::Walk::default(),
            pending_patched: 0,
            pending_dropped: 0,
            pending_refilled: 0,
            pending_rederived: 0,
        }
    }
}

/// A stateful HiLog database session.
///
/// Owns a [`Program`] plus every cache the engine can amortise across
/// queries; `session.rs`' module documentation has the overall shape and a
/// usage example.
#[derive(Debug)]
pub struct HiLogDb {
    /// The working snapshot: the program, every cache, and the one
    /// implementation of every read route.  Mutations reach its caches
    /// lock-free (`&mut self` is exclusive); publishing shares them by
    /// `Arc`, and the next mutation un-shares whatever a published snapshot
    /// still holds (the program index and the table map by catching up
    /// their twins, see [`Twinned`]).  Its table map keeps its own edges
    /// (`Tables`), which a table-maintenance pass reads.
    snap: DbSnapshot,
    /// Bumped by every mutation of the program.  The
    /// [`DbWriter`] compares it with the value it
    /// published at to know whether its program is still the published one.
    generation: u64,
    /// How many bodiless rules of the program carry each head — the one
    /// thing a mutation has to ask of the (arbitrarily large) fact set, so
    /// it is a hash probe and not a walk over the rule list.  Writer-only:
    /// never cloned into a published snapshot, and `None` until the first
    /// mutation counts the program (a session that only reads never pays
    /// for it); from then on every edit of a bodiless rule moves it in the
    /// same step.  The keys share the `Arc`s of the rules' own heads.
    fact_copies: Option<TermMap<Term, usize>>,
    /// The effective fact-level changes (fact, `true` for asserted) the
    /// subgoal tables have not been settled under yet, in the order they
    /// were made (none is queued while the session holds no table).  Empty
    /// whenever a caller can reach the session: the public
    /// mutators settle before they return, and a [`DbWriter`] — the one
    /// holder that queues a whole batch — settles before it publishes or
    /// hands the session out (see `tables::settle_tables`).
    unsettled: Vec<(Term, bool)>,
    /// The scratch the table pass walks its closure over, kept from pass
    /// to pass so that a pass allocates nothing per table it reaches.
    walk: tables::Walk,
    /// Subgoal tables patched in place by mutations since the last query,
    /// one per table per fact (reported through
    /// [`EvalStats::tables_patched`], then reset).
    pending_patched: usize,
    /// Subgoal tables dropped by mutations since the last query: a failed
    /// re-solve, or the reverse closure of a rule-level mutation.
    pending_dropped: usize,
    /// Rule-derived subgoal tables *re-solved* by mutations since the last
    /// query, because a table they read changed its answers.
    pending_refilled: usize,
    /// Head instances of non-ground tables re-derived as bound sub-queries
    /// by mutations since the last query.
    pending_rederived: usize,
}

impl HiLogDb {
    /// Starts building a session.
    pub fn builder() -> HiLogDbBuilder {
        HiLogDbBuilder::default()
    }

    /// A session over `program` with default options and well-founded
    /// semantics.
    pub fn new(program: Program) -> Self {
        Self::builder().program(program).build()
    }

    /// The current program (initial rules plus asserted facts and rules,
    /// minus retracted facts).
    pub fn program(&self) -> &Program {
        self.snap.program()
    }

    /// The session's evaluation limits.
    pub fn options(&self) -> EvalOptions {
        self.snap.options()
    }

    /// The semantics queries are answered under.
    pub fn semantics(&self) -> Semantics {
        self.snap.semantics()
    }

    // ------------------------------------------------------------------
    // Mutation with targeted cache invalidation
    // ------------------------------------------------------------------

    /// The program for mutation — the one place the mutation generation
    /// moves, so no change to the program can go unrecorded.  Copy-on-write:
    /// the clone happens only while a published snapshot still holds the
    /// previous version, and it is a clone of chunk pointers (see
    /// [`RuleSeq`](hilog_core::RuleSeq)); the edit that follows
    /// copies the one chunk it lands in.
    fn program_mut(&mut self) -> &mut Program {
        self.generation += 1;
        Arc::make_mut(&mut self.snap.program)
    }

    /// The tabled evaluator's program index, for maintenance: `None` until
    /// a query has built one (then there is nothing to keep in step).  While
    /// a published snapshot shares it, the first edit takes back the twin
    /// the snapshot before it shared, caught up from the last batch, rather
    /// than copying it (see [`Twinned`]).
    fn index_mut(&mut self) -> Option<&mut ProgramIndex> {
        lock_mut(&mut self.snap.index)
            .as_mut()
            .map(Twinned::make_mut)
    }

    /// The fact multiset (see the field), counted from the program by the
    /// first caller.  Every mutator reaches it through [`Self::has_fact`] /
    /// [`Self::count_copy`] *before* it edits the program, so the count never
    /// sees an edit it is about to be told of.
    fn fact_copies(&mut self) -> &mut TermMap<Term, usize> {
        let program = &self.snap.program;
        self.fact_copies
            .get_or_insert_with(|| count_fact_copies(program))
    }

    /// Whether the program holds a bodiless rule with this head: one probe.
    fn has_fact(&mut self, fact: &Term) -> bool {
        let copies = self.fact_copies().get(fact).copied().unwrap_or(0);
        debug_assert_eq!(
            copies,
            self.program()
                .rules
                .iter()
                .filter(|r| r.is_fact() && r.head == *fact)
                .count(),
            "fact multiset out of step with the program at `{fact}`"
        );
        copies > 0
    }

    /// Records one more bodiless rule headed `fact`.
    fn count_copy(&mut self, fact: &Term) {
        *self.fact_copies().entry(fact.clone()).or_insert(0) += 1;
    }

    /// Records one bodiless rule headed `fact` fewer; returns `true` if that
    /// was the last copy.  The caller has established there is one.
    fn uncount_copy(&mut self, fact: &Term) -> bool {
        let copies = self.fact_copies();
        let count = copies.get_mut(fact).expect("caller found a copy");
        *count -= 1;
        let last_copy = *count == 0;
        if last_copy {
            copies.remove(fact);
        }
        last_copy
    }

    /// Asserts a ground fact.
    ///
    /// Subgoal tables are maintained through their recorded dependency
    /// edges before this returns (tables outside the instance-level closure
    /// survive, fact-backed tables are patched in place, the rule-derived
    /// tables whose dependencies changed their answers are re-solved); the
    /// model-side caches are dropped whole, and the next read that needs
    /// the model grounds the program cold and evaluates it once.  Nothing
    /// here walks the program: the cost is that of what the fact changes,
    /// whatever the store holds.
    pub fn assert_fact(&mut self, fact: Term) -> Result<(), EngineError> {
        self.assert_fact_unsettled(fact)?;
        self.settle_tables();
        Ok(())
    }

    /// [`Self::assert_fact`], leaving the subgoal tables to a later
    /// `settle_tables`: how a [`DbWriter`] makes a batch one pass.
    pub(crate) fn assert_fact_unsettled(&mut self, fact: Term) -> Result<(), EngineError> {
        if !fact.is_ground() {
            return Err(EngineError::Floundering(format!(
                "assert_fact requires a ground atom, got `{fact}`"
            )));
        }
        // A duplicate of an already-present fact changes nothing
        // semantically; every cache stays valid (the mirror image of
        // `retract_fact`'s duplicate short-circuit).
        let already_present = self.has_fact(&fact);
        self.count_copy(&fact);
        let rule = Rule::fact(fact.clone());
        if let Some(index) = self.index_mut() {
            index.insert(&rule);
        }
        self.program_mut().push(rule);
        if !already_present {
            self.invalidate_for_fact(&fact, true);
        }
        Ok(())
    }

    /// Retracts one occurrence of a ground fact; returns `false` — after one
    /// probe — if the program contains no such fact.  The subgoal tables
    /// are settled before this returns, as for [`Self::assert_fact`].
    pub fn retract_fact(&mut self, fact: &Term) -> bool {
        let retracted = self.retract_fact_unsettled(fact);
        self.settle_tables();
        retracted
    }

    /// [`Self::retract_fact`], leaving the subgoal tables to a later
    /// `settle_tables`.
    pub(crate) fn retract_fact_unsettled(&mut self, fact: &Term) -> bool {
        if !self.has_fact(fact) {
            return false;
        }
        self.remove_first(|r| r.is_fact() && r.head == *fact);
        // A duplicate assertion may still be present; then nothing changed
        // semantically and every cache stays valid.
        let last_copy = self.uncount_copy(fact);
        if let Some(index) = self.index_mut() {
            index.remove(&Rule::fact(fact.clone()), last_copy);
        }
        if last_copy {
            self.invalidate_for_fact(fact, false);
        }
        true
    }

    /// After a fact-level change to `fact` (`asserted`: `true` for an
    /// assertion).  The subgoal tables are not touched here: the change is
    /// queued, and [`Self::settle_tables`] folds a whole batch of them into
    /// the tables in one pass over their recorded dependency edges.  The
    /// model-side caches go whole.
    fn invalidate_for_fact(&mut self, fact: &Term, asserted: bool) {
        // What `ProgramIndex::derives_spontaneously`, asked by the table
        // pass on a retraction, relies on to skip the program's facts.
        debug_assert!(
            asserted
                || (self.fact_copies.as_ref()).is_some_and(|copies| !copies.contains_key(fact)),
            "a retraction is settled only once no copy of `{fact}` remains"
        );
        // A table tabled after this change is tabled under it: with none
        // held there is nothing to settle, and a store that is only written
        // to pays nothing for the queue.
        if !lock_mut(&mut self.snap.tables).is_empty() {
            self.unsettled.push((fact.clone(), asserted));
        }
        self.drop_model_caches();
    }

    /// Drops the grounding, the model, the stable models and the Figure 1
    /// outcome together: the next read that needs one grounds the program
    /// as it stands, cold.  The subgoal tables are the one cache with
    /// finer invalidation, maintained through their recorded edges.
    fn drop_model_caches(&mut self) {
        *lock_mut(&mut self.snap.core) = SnapCore::default();
    }

    /// Removes the first rule of the program `matches` accepts, which the
    /// caller has established exists.  The one remaining walk on a write
    /// path: finding *where* a present rule sits.
    fn remove_first(&mut self, matches: impl Fn(&Rule) -> bool) {
        let pos = self
            .program()
            .rules
            .iter()
            .position(matches)
            .expect("caller found a copy");
        self.program_mut().rules.remove(pos);
    }

    /// Asserts a rule.  The model-side caches are rebuilt lazily, as after
    /// any write, and the subgoal tables are maintained at the instance
    /// level: the new rule can only
    /// derive instances of its head, so only the tables whose pattern
    /// overlaps the head (plus their recorded-edge reverse closure) are
    /// dropped, and every other table survives.
    pub fn assert_rule(&mut self, rule: Rule) {
        // Fact-level changes a writer's batch queued are settled under the
        // rules they were made under.
        self.settle_tables();
        self.drop_tables_for_head(&rule.head);
        if rule.is_fact() {
            self.count_copy(&rule.head);
        }
        if let Some(index) = self.index_mut() {
            index.insert(&rule);
        }
        self.program_mut().push(rule);
        self.drop_model_caches();
    }

    /// Retracts the first rule structurally equal to `rule`; returns `false`
    /// if the program contains no such rule.
    ///
    /// Subgoal tables survive outside the instance-level reverse closure of
    /// the rule's head, exactly as for [`Self::assert_rule`]; the
    /// model-side caches are rebuilt lazily, as after any write.
    pub fn retract_rule(&mut self, rule: &Rule) -> bool {
        self.settle_tables();
        // A structurally identical copy may remain; then nothing changed.
        let last_copy = if rule.is_fact() {
            // Bodiless rules are the multiset's: presence and remaining
            // copies are probes, as in `retract_fact`.
            if !self.has_fact(&rule.head) {
                return false;
            }
            self.remove_first(|r| r == rule);
            self.uncount_copy(&rule.head)
        } else {
            // Proper rules are few and uncounted: one walk finds the first
            // copy and whether there is a second.
            let mut copies = self
                .program()
                .rules
                .iter()
                .enumerate()
                .filter(|(_, r)| *r == rule);
            let Some((pos, _)) = copies.next() else {
                return false;
            };
            let last_copy = copies.next().is_none();
            self.program_mut().rules.remove(pos);
            last_copy
        };
        if let Some(index) = self.index_mut() {
            index.remove(rule, last_copy);
        }
        if !last_copy {
            return true;
        }
        self.drop_tables_for_head(&rule.head);
        self.drop_model_caches();
        true
    }

    // ------------------------------------------------------------------
    // Reading: every route is the working snapshot's
    // ------------------------------------------------------------------

    /// The cached relevant instantiation of the program, grounding on first
    /// use.
    pub fn ground_program(&mut self) -> Result<&GroundProgram, EngineError> {
        self.snap.owned_ground()
    }

    /// The cached full model under the session's semantics, computing it on
    /// first use (see [`DbSnapshot::model`]).
    pub fn model(&mut self) -> Result<&Model, EngineError> {
        self.snap.owned_model()
    }

    /// The cached stable models of the program (computing them on first
    /// use), regardless of the session's query semantics.
    pub fn stable_models(&mut self) -> Result<&[Model], EngineError> {
        self.snap.owned_stable_models()
    }

    /// Runs (and caches) the Figure 1 modular-stratification procedure.
    pub fn check_modular(&mut self) -> Result<&ModularOutcome, EngineError> {
        self.snap.owned_modular()
    }

    /// Builds the plan [`query`](HiLogDb::query) would execute, without
    /// evaluating anything.
    pub fn explain(&self, query: &Query) -> QueryPlan {
        self.snap.explain(query)
    }

    /// Answers a query through the plan [`explain`](HiLogDb::explain)
    /// chooses, reusing every cache the session holds.  Its stats also
    /// carry what table maintenance did since the last query.
    pub fn query(&mut self, query: &Query) -> Result<QueryResult, EngineError> {
        let mut result = self.snap.query(query)?;
        // Consumed only on success, so a failed query (no stats to carry
        // them) leaves the mutation window's counters for the next one.
        result.stats.tables_patched = std::mem::take(&mut self.pending_patched);
        result.stats.tables_dropped = std::mem::take(&mut self.pending_dropped);
        result.stats.tables_refilled = std::mem::take(&mut self.pending_refilled);
        result.stats.instances_rederived = std::mem::take(&mut self.pending_rederived);
        Ok(result)
    }

    /// Aggregate relation-storage statistics over the session's stores (see
    /// [`DbSnapshot::storage_stats`]).
    pub fn storage_stats(&self) -> RelationStorageStats {
        self.snap.storage_stats()
    }

    /// Three-valued truth of a single ground atom under the session's
    /// semantics.
    pub fn holds(&mut self, atom: &Term) -> Result<Truth, EngineError> {
        Ok(self.query(&holds_query(atom)?)?.truth)
    }

    // ------------------------------------------------------------------
    // Serving: the writer publishes copies of the working snapshot
    // ------------------------------------------------------------------

    /// Converts the session into a serving pair: a single [`DbWriter`]
    /// owning this session's incremental mutation path, and a
    /// [`SnapshotHandle`] any number of reader threads can clone to pin
    /// immutable [`DbSnapshot`]s.  The initial snapshot (epoch 0) is
    /// published immediately.
    pub fn into_serving(self) -> (DbWriter, SnapshotHandle) {
        self.into_serving_at(0)
    }

    /// [`HiLogDb::into_serving`], but with the initial snapshot published at
    /// `epoch` instead of 0.  This is the recovery path: a session restored
    /// from a checkpoint plus a WAL tail resumes serving at the epoch it had
    /// reached when it went down, so clients never observe epochs moving
    /// backwards across a restart.
    pub fn into_serving_at(self, epoch: u64) -> (DbWriter, SnapshotHandle) {
        DbWriter::from_db_at(self, epoch)
    }

    /// The cached full model, if one is warm (`None` if no model has been
    /// computed, or a mutation has dropped it since); never forces an
    /// evaluation.
    #[cfg(test)]
    pub(crate) fn cached_model(&self) -> Option<Arc<Model>> {
        self.snap.core.read().unwrap().model.clone()
    }

    /// The working snapshot, for the writer to fold a reader-built program
    /// index into.
    pub(crate) fn working(&mut self) -> &mut DbSnapshot {
        &mut self.snap
    }

    /// The mutation generation; see the field.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }
}

/// The multiset of `program`'s bodiless-rule heads: head → copies.
fn count_fact_copies(program: &Program) -> TermMap<Term, usize> {
    let mut copies = TermMap::default();
    for fact in program.facts() {
        *copies.entry(fact.head.clone()).or_insert(0) += 1;
    }
    copies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::magic_eval::ModelSource;
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
    fn expired_deadline_aborts_the_query_and_counts_in_stats() {
        use std::time::{Duration, Instant};
        let mut db = game_db();
        let query = parse_query("?- winning(X).").unwrap();
        let err =
            crate::ambient::with_deadline(Some(Instant::now() - Duration::from_millis(1)), || {
                db.query(&query).unwrap_err()
            });
        assert!(matches!(err, EngineError::DeadlineExceeded(_)));
        // The session stays usable: without a deadline the same query
        // answers, and its stats carry the (zero) per-query deadline deltas.
        let result = db.query(&query).unwrap();
        assert_eq!(result.answers.len(), 1);
        assert_eq!(result.stats.deadline_checks, 0);
        assert_eq!(result.stats.deadline_exceeded, 0);
        // A generous deadline passes while still being checked.
        let result =
            crate::ambient::with_deadline(Some(Instant::now() + Duration::from_secs(60)), || {
                let mut fresh = game_db();
                fresh.query(&query).unwrap()
            });
        assert_eq!(result.answers.len(), 1);
        assert!(result.stats.deadline_checks > 0);
        assert_eq!(result.stats.deadline_exceeded, 0);
    }

    #[test]
    fn expired_deadline_stops_a_model_rebuild_after_a_write() {
        use std::time::{Duration, Instant};
        // The full-model route after a write: the grounding and the model
        // are gone, and the rebuild is one grounding and one evaluation
        // under the snapshot's write lock; it has to look at the clock.
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for i in 0..200 {
            text.push_str(&format!("move(n{i}, n{}).\n", i + 1));
        }
        let mut db = HiLogDb::new(parse_program(&text).unwrap());
        let query = parse_query("?- P(X).").unwrap();
        let answers = db.query(&query).unwrap().answers.len();
        db.assert_fact(parse_term("move(n200, n201)").unwrap())
            .unwrap();
        assert!(db.cached_model().is_none(), "the write dropped it");
        let before = crate::ambient::counters();
        let err =
            crate::ambient::with_deadline(Some(Instant::now() - Duration::from_millis(1)), || {
                db.query(&query).map(|result| result.stats).unwrap_err()
            });
        assert!(matches!(err, EngineError::DeadlineExceeded(_)), "{err}");
        let counted = crate::ambient::counters() - before;
        assert_eq!(counted.deadline_exceeded, 1);
        // The model is absent, not half-built, and the session usable: the
        // same read without a deadline grounds and evaluates once.
        assert!(db.cached_model().is_none());
        let result = db.query(&query).unwrap();
        assert_eq!(result.stats.model_source, crate::ModelSource::Rebuilt);
        assert_eq!(result.stats.groundings, 1);
        assert_eq!(result.answers.len(), answers + 1, "winning(n200) is new");
    }

    /// What a fact write leaves behind, read through the full-model query
    /// `open`: no model, and the next read grounds the program cold and
    /// evaluates it once (`groundings == 1`, `Rebuilt`), equal to a fresh
    /// session's model whole (base included); the re-read is `Cached`.
    fn assert_model_rebuilt_cold_after_the_write(db: &mut HiLogDb, open: &Query) {
        assert!(db.cached_model().is_none(), "the write kept the model");
        let read = db.query(open).unwrap();
        assert_eq!(read.stats.groundings, 1, "the write kept the grounding");
        assert_eq!(read.stats.model_source, ModelSource::Rebuilt);
        let mut fresh = HiLogDb::new(db.program().clone());
        assert_eq!(read.answers, fresh.query(open).unwrap().answers);
        assert_eq!(db.model().unwrap(), fresh.model().unwrap());
        let again = db.query(open).unwrap();
        assert_eq!(again.stats.groundings, 0);
        assert_eq!(again.stats.model_source, ModelSource::Cached);
    }

    #[test]
    fn a_fact_write_with_nothing_cached_answers_like_a_fresh_session() {
        let mut db = game_db();
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        assert!(db.retract_fact(&parse_term("move(a, b)").unwrap()));
        let mut fresh = HiLogDb::new(db.program().clone());
        assert_eq!(db.model().unwrap(), fresh.model().unwrap());
    }

    #[test]
    fn a_pure_edb_fact_drops_the_model_like_any_other() {
        // `colour` is read by no rule: a colour fact still drops the model,
        // and the next full-model read grounds again and answers correctly.
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
        assert_model_rebuilt_cold_after_the_write(&mut db, &unbound);
        assert_eq!(
            db.holds(&parse_term("colour(b, blue)").unwrap()).unwrap(),
            Truth::True
        );
        assert!(db.retract_fact(&parse_term("colour(b, blue)").unwrap()));
        assert_eq!(
            db.holds(&parse_term("colour(b, blue)").unwrap()).unwrap(),
            Truth::False
        );
        // The rebuilt model is the one a fresh session computes, base
        // included: a retracted fact nothing mentions any more leaves it.
        assert_model_rebuilt_cold_after_the_write(&mut db, &unbound);
    }

    #[test]
    fn retracting_an_unread_fact_leaves_no_phantom_in_any_model() {
        // Warm the model and the stable models, assert and retract a fact no
        // rule reads, and every model is a fresh one.
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
        // retract must drop the caches like any other, not panic.
        let mut db = HiLogDb::new(parse_program("q(r). r(q).").unwrap());
        let var_fact = Term::app(Term::var("P"), vec![Term::sym("a")]);
        db.assert_rule(Rule::fact(var_fact.clone()));
        assert!(db.retract_fact(&var_fact));
        assert_eq!(db.holds(&parse_term("q(r)").unwrap()).unwrap(), Truth::True);
    }

    #[test]
    fn assert_fact_drops_the_grounding_and_the_model() {
        let mut db = game_db();
        let unbound = parse_query("?- P(a, X).").unwrap();
        let first = db.query(&unbound).unwrap();
        assert_eq!(first.stats.groundings, 1);
        assert_eq!(first.stats.model_source, ModelSource::Rebuilt);
        assert!(db.cached_model().is_some());
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        assert_model_rebuilt_cold_after_the_write(&mut db, &unbound);
    }

    #[test]
    fn a_tail_assert_in_one_scc_rebuilds_a_model_equal_to_a_fresh_one() {
        // One long chain game is a single predicate-level SCC; asserting an
        // edge at its tail flips every upstream position, and the model
        // rebuilt after the write must agree with a fresh session on every
        // atom.
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for i in 0..30 {
            text.push_str(&format!("move(p{}, p{}).\n", i, i + 1));
        }
        let mut db = HiLogDb::new(parse_program(&text).unwrap());
        let open = parse_query("?- P(p0, X).").unwrap();
        db.query(&open).unwrap();
        db.assert_fact(parse_term("move(p30, p31)").unwrap())
            .unwrap();
        assert_model_rebuilt_cold_after_the_write(&mut db, &open);
    }

    #[test]
    fn consecutive_asserts_cost_one_evaluation() {
        let mut db = game_db();
        let unbound = parse_query("?- P(a, X).").unwrap();
        db.query(&unbound).unwrap();
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        db.assert_fact(parse_term("move(d, e)").unwrap()).unwrap();
        assert_model_rebuilt_cold_after_the_write(&mut db, &unbound);
        assert_eq!(
            db.holds(&parse_term("winning(d)").unwrap()).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn retract_fact_matches_fresh_recomputation() {
        // tc is derived through the retracted edge: what it supported goes,
        // what other edges still support stays.
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
        assert_model_rebuilt_cold_after_the_write(&mut db, &unbound);
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
        assert_eq!(result.stats.groundings, 1);
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
    fn retracting_the_seed_of_a_positive_cycle_falsifies_the_cycle() {
        // p and q support each other, but only through the seed fact p: after
        // retracting p, neither holds through the cycle.
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
        // the rule sequence (800 facts between them), and both read routes
        // warm: the subgoal tables and the model.
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
        assert_eq!(warm.stats.groundings, 0, "the model read above was lost");
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
    fn hilog_programs_with_variable_heads_rebuild_the_model_after_a_write() {
        // The HiLog game rule has a non-ground head predicate name; a write
        // drops its grounding and model like any program's.
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
        assert_model_rebuilt_cold_after_the_write(&mut db, &open);
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
        // facts: re-grounding after them must report the same LimitExceeded
        // a fresh session would.
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
        // An already expired deadline around the write: the mutation itself
        // must still land, and the next read must ground (once) and agree
        // with a fresh session on every atom.
        let mut db = game_db();
        let unbound = parse_query("?- P(a, X).").unwrap();
        assert_eq!(db.query(&unbound).unwrap().stats.groundings, 1);
        crate::ambient::with_deadline(Some(std::time::Instant::now()), || {
            db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        });
        let after = db.query(&unbound).unwrap();
        assert_eq!(after.stats.groundings, 1, "the write kept the grounding");
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

    #[test]
    fn bound_query_twice_reuses_tables_without_rule_applications() {
        let mut db = game_db();
        let query = parse_query("?- winning(X).").unwrap();
        let first = db.query(&query).unwrap();
        assert!(first.stats.rule_applications > 0);
        assert_eq!(first.answers.len(), 1);
        let second = db.query(&query).unwrap();
        assert_eq!(second.stats.rule_applications, 0, "tables were not reused");
        assert!(second.stats.cached_subqueries > 0);
        assert_eq!(second.answers, first.answers);
    }

    #[test]
    fn unbound_query_grounds_once_then_reuses_the_model() {
        let mut db = game_db();
        let query = parse_query("?- P(a, X).").unwrap();
        let first = db.query(&query).unwrap();
        assert_eq!(first.stats.groundings, 1);
        let second = db.query(&query).unwrap();
        assert_eq!(second.stats.groundings, 0, "model was re-grounded");
        assert_eq!(second.answers, first.answers);
        // P(a, X) matches move(a, b).
        assert_eq!(first.answers.len(), 1);
        assert_eq!(first.answers[0].binding("P").unwrap(), &Term::sym("move"));
    }

    #[test]
    fn explain_routes_bound_vs_unbound() {
        let db = game_db();
        let bound = db.explain(&parse_query("?- winning(a).").unwrap());
        assert!(bound.is_magic_sets());
        assert_eq!(bound.adornment, "b");
        let unbound = db.explain(&parse_query("?- P(a, b).").unwrap());
        assert!(unbound.is_full_model());
    }

    #[test]
    fn holds_is_three_valued() {
        let mut db =
            HiLogDb::new(parse_program("p :- not q. q :- not p. r. s :- r, not r.").unwrap());
        assert_eq!(db.holds(&parse_term("r").unwrap()).unwrap(), Truth::True);
        assert_eq!(
            db.holds(&parse_term("p").unwrap()).unwrap(),
            Truth::Undefined
        );
        assert_eq!(db.holds(&parse_term("s").unwrap()).unwrap(), Truth::False);
    }

    #[test]
    fn magic_route_falls_back_on_negative_cycles() {
        // `p :- not p.` makes the tabled route report a cycle; the session
        // transparently answers from the well-founded model instead.
        let mut db = HiLogDb::new(parse_program("p :- not p. q.").unwrap());
        let result = db.query(&parse_query("?- p.").unwrap()).unwrap();
        assert!(result.fallback.is_some());
        assert_eq!(result.truth, Truth::Undefined);
    }

    #[test]
    fn stable_semantics_answers_consensus_truth() {
        let mut db = HiLogDb::builder()
            .program(parse_program("p :- not q. q :- not p. r :- p. r :- q.").unwrap())
            .semantics(Semantics::Stable)
            .build();
        assert_eq!(db.holds(&parse_term("r").unwrap()).unwrap(), Truth::True);
        assert_eq!(
            db.holds(&parse_term("p").unwrap()).unwrap(),
            Truth::Undefined
        );
        assert_eq!(db.stable_models().unwrap().len(), 2);
    }

    #[test]
    fn stable_semantics_reports_missing_stable_models() {
        let mut db = HiLogDb::builder()
            .program(parse_program("u :- not u. v.").unwrap())
            .semantics(Semantics::Stable)
            .build();
        let err = db.holds(&parse_term("v").unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::NoStableModels));
    }

    #[test]
    fn modular_check_semantics_accepts_and_rejects() {
        let mut accepted = HiLogDb::builder()
            .program(
                parse_program("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).")
                    .unwrap(),
            )
            .semantics(Semantics::ModularCheck)
            .build();
        assert_eq!(
            accepted.holds(&parse_term("winning(b)").unwrap()).unwrap(),
            Truth::True
        );
        assert!(accepted.check_modular().unwrap().modularly_stratified);

        let mut rejected = HiLogDb::builder()
            .program(
                parse_program("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, a).")
                    .unwrap(),
            )
            .semantics(Semantics::ModularCheck)
            .build();
        let err = rejected
            .holds(&parse_term("winning(a)").unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::NotModularlyStratified(_)));
    }

    #[test]
    fn conjunctive_queries_bind_across_literals() {
        let mut db = HiLogDb::new(
            parse_program(
                "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                 game(m). m(a, b). m(b, c).",
            )
            .unwrap(),
        );
        let result = db
            .query(&parse_query("?- game(M), winning(M)(X).").unwrap())
            .unwrap();
        assert_eq!(result.answers.len(), 1);
        assert_eq!(result.answers[0].binding("M").unwrap(), &Term::sym("m"));
        assert_eq!(result.answers[0].binding("X").unwrap(), &Term::sym("b"));
        // The conjunction's subgoal tables are retained (the auxiliary
        // `__query_answer` table is not).
        assert!(db.snap.cached_subqueries() > 0);
    }

    #[test]
    fn stats_are_per_query_not_cumulative() {
        let mut db = game_db();
        let query = parse_query("?- winning(X).").unwrap();
        let first = db.query(&query).unwrap();
        assert!(first.stats.subqueries > 0);
        assert!(first.stats.answers > 0);
        // The repeat run creates no new tables and derives no new answers;
        // its stats must not re-count the seeded tables.
        let second = db.query(&query).unwrap();
        assert_eq!(second.stats.subqueries, 0);
        assert_eq!(second.stats.answers, 0);
        assert!(second.stats.cached_subqueries > 0);
    }

    #[test]
    fn conjunctive_queries_do_not_share_auxiliary_tables() {
        // Regression: the auxiliary `__query_answer` table's key is the
        // *rendered* pattern (quoted, since the name starts with `_`); a
        // string-prefix cleanup missed it, so a later conjunction with the
        // same variable count silently returned the first query's answers.
        let mut db = HiLogDb::new(parse_program("p(a). p(b). q(b). r(c).").unwrap());
        let first = db.query(&parse_query("?- p(X), q(X).").unwrap()).unwrap();
        assert_eq!(first.answers.len(), 1);
        assert_eq!(first.answers[0].binding("X").unwrap(), &Term::sym("b"));
        let second = db.query(&parse_query("?- r(X), r(X).").unwrap()).unwrap();
        assert_eq!(second.answers.len(), 1);
        assert_eq!(second.answers[0].binding("X").unwrap(), &Term::sym("c"));
    }

    #[test]
    fn results_and_plans_serialise_to_json() {
        let mut db = game_db();
        let result = db.query(&parse_query("?- winning(X).").unwrap()).unwrap();
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("\"answers\""));
        assert!(json.contains("\"X\":\"b\""));
        assert!(json.contains("\"truth\":\"true\""));
        assert!(json.contains("\"strategy\":\"magic-sets\""));
        // The plan is the route alone: what ran is in `stats`.
        assert_eq!(
            serde_json::to_string(&result.plan).unwrap(),
            r#"{"strategy":"magic-sets","semantics":"well-founded","adornment":"f"}"#
        );
        let stats_json = serde_json::to_string(&result.stats).unwrap();
        assert!(stats_json.contains("\"rule_applications\""));
        // The answer alone is the same JSON without `stats` and `plan`.
        let mut answer = String::new();
        result.write_json_with(&mut answer, false);
        assert_eq!(
            answer,
            r#"{"answers":[{"bindings":{"X":"b"},"truth":"true"}],"truth":"true","fallback":null}"#
        );
        let analysis = format!(
            ",\"stats\":{stats_json},\"plan\":{}",
            serde_json::to_string(&result.plan).unwrap()
        );
        assert_eq!(json.replacen(&analysis, "", 1), answer);
    }

    #[test]
    fn stats_surface_index_probes_and_serialise() {
        let mut db = HiLogDb::new(
            parse_program(
                "tc(X, Y) :- e(X, Y).\n\
                 tc(X, Y) :- e(X, Z), tc(Z, Y).\n\
                 e(a, b). e(b, c). e(c, d).",
            )
            .unwrap(),
        );
        // The full-model route grounds the program: the tc(Z, Y) join probes
        // the argument index on Z.
        let result = db.query(&parse_query("?- P(a, X).").unwrap()).unwrap();
        assert!(
            result.stats.index_probes > 0,
            "grounding joins never probed"
        );
        let json = serde_json::to_string(&result.stats).unwrap();
        assert!(json.contains("\"index_probes\""));
        assert!(json.contains("\"index_fallback_scans\""));
        // The magic route joins warm tables through the same API.
        let bound = db.query(&parse_query("?- tc(a, Y).").unwrap()).unwrap();
        assert_eq!(bound.answers.len(), 3);
    }

    #[test]
    fn fact_multiset_equals_a_recount_whichever_mutation_builds_it() {
        // Duplicates, a compound-name HiLog fact, a non-ground bodiless rule
        // and a builtin-guarded twin of a fact, all present from the start.
        let text = "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                    game(g). g(a, b). g(a, b). g(b, c). winning(g)(x). winning(g)(x).\n\
                    p(X). p(X). s :- 1 < 2. s.";
        let facts: Vec<Term> = [
            "g(a, b)",
            "g(b, c)",
            "g(c, d)",
            "winning(g)(x)",
            "s",
            "q(1)",
        ]
        .iter()
        .map(|t| parse_term(t).unwrap())
        .collect();
        let rules: Vec<Rule> =
            parse_program("p(X). P(a). g(a, b). winning(g)(x). s :- 1 < 2. t(X) :- g(X, Y).")
                .unwrap()
                .iter()
                .cloned()
                .collect();
        // `g(a, b)` and `p(X).`: two copies of each in `text`.
        let (dup_fact, dup_rule) = (facts[0].clone(), rules[0].clone());
        // Each mutator in turn is the session's *first* mutation — the one
        // that counts the program — aimed at a head with two copies, so the
        // retractions really edit; the random stream after it runs on the
        // multiset that first mutation left.
        for first in 0..4 {
            let mut db = HiLogDb::new(parse_program(text).unwrap());
            // Reads never build it.
            db.query(&parse_query("?- g(a, X).").unwrap()).unwrap();
            assert!(db.fact_copies.is_none());
            match first {
                0 => db.assert_fact(dup_fact.clone()).unwrap(),
                1 => assert!(db.retract_fact(&dup_fact)),
                2 => db.assert_rule(dup_rule.clone()),
                _ => assert!(db.retract_rule(&dup_rule)),
            }
            assert_eq!(
                db.fact_copies,
                Some(count_fact_copies(db.program())),
                "first mutation {first}"
            );
            let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ first;
            let mut next = move |bound: usize| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize % bound
            };
            for step in 0..400 {
                let before = count_fact_copies(db.program());
                match next(4) {
                    0 => db.assert_fact(facts[next(facts.len())].clone()).unwrap(),
                    1 => {
                        let fact = &facts[next(facts.len())];
                        assert_eq!(db.retract_fact(fact), before.contains_key(fact));
                    }
                    2 => db.assert_rule(rules[next(rules.len())].clone()),
                    _ => {
                        let rule = &rules[next(rules.len())];
                        let held = db.program().rules.contains(rule);
                        assert_eq!(db.retract_rule(rule), held);
                    }
                }
                assert_eq!(
                    db.fact_copies,
                    Some(count_fact_copies(db.program())),
                    "first mutation {first}, step {step}"
                );
            }
            // The session the multiset served still answers like a fresh one.
            let query = parse_query("?- g(X, Y).").unwrap();
            let fresh = HiLogDb::new(db.program().clone()).query(&query).unwrap();
            assert_eq!(db.query(&query).unwrap().answers, fresh.answers);
        }
    }

    #[test]
    fn builder_options_are_honoured() {
        let mut db = HiLogDb::builder()
            .program(parse_program("nat(z). nat(s(X)) :- nat(X).").unwrap())
            .options(EvalOptions::with_max_atoms(10))
            .build();
        let err = db.query(&parse_query("?- P(X).").unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::LimitExceeded(_)));
    }
}
