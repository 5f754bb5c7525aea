//! The `HiLogDb` session facade: one stateful entry point over the engine.
//!
//! Every other entry point in this crate is a free function that takes a
//! [`Program`] and re-derives grounding and dependency information from
//! scratch.  A [`HiLogDb`] instead *owns* its program and amortises that work
//! across queries: the relevant instantiation, the full model, the
//! predicate-dependency analysis and the completed subgoal tables of the
//! query-directed evaluator are all cached, and
//! [`assert_fact`](HiLogDb::assert_fact) / [`retract_fact`](HiLogDb::retract_fact)
//! invalidate only the caches that the mutated predicate can actually reach.
//! Queries are routed through an explainable [`QueryPlan`]: bound queries use
//! magic-sets style tabled evaluation (Section 6.1 of the paper), unbound
//! ones fall back to the cached full model.
//!
//! ```
//! use hilog_engine::session::HiLogDb;
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

use crate::error::EngineError;
use crate::ground::{GroundProgram, GroundRule};
use crate::grounder::{ground_against, ground_delta};
use crate::horn::{join_body, least_model_into, AtomStore, EvalOptions, NegationMode};
use crate::magic::DepSign;
use crate::magic_eval::{
    normalize_pattern, EvalStats, ModelSource, QueryEvaluator, Table, QUERY_HEAD,
};
use crate::modular::{figure1_procedure, ModularOutcome};
use crate::plan::{adornment, query_is_bound, PlanStrategy, QueryPlan};
use crate::stable::{stable_models_of_ground, StableOptions};
use crate::storage::{FactStore, RelationStorageStats, StorageConfig};
use crate::wfs::{affected_closure, well_founded_eval, well_founded_patch};
use hilog_core::interpretation::{Model, Truth};
use hilog_core::literal::Literal;
use hilog_core::program::Program;
use hilog_core::rule::{Query, Rule};
use hilog_core::subst::Substitution;
use hilog_core::term::{Term, Var};
use hilog_core::unify::{match_with, unify_with};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
            serde::write_json_string(out, &t.to_string());
        }
        out.push('}');
        out.push(',');
        serde::write_json_string(out, "truth");
        out.push(':');
        serde::write_json_string(out, &self.truth.to_string());
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
}

impl Serialize for QueryResult {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        serde::write_field(out, "answers", &self.answers, true);
        serde::write_field(out, "truth", &self.truth.to_string(), false);
        serde::write_field(out, "stats", &self.stats, false);
        serde::write_field(out, "plan", &self.plan, false);
        serde::write_field(out, "fallback", &self.fallback, false);
        out.push('}');
    }
}

/// Builder for [`HiLogDb`]; obtained from [`HiLogDb::builder`].
#[derive(Debug, Clone, Default)]
pub struct HiLogDbBuilder {
    program: Program,
    opts: EvalOptions,
    stable_opts: StableOptions,
    semantics: Semantics,
    warm_model: Option<Model>,
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

    /// Sets the stable-model search limits (only used under
    /// [`Semantics::Stable`]).
    pub fn stable_options(mut self, opts: StableOptions) -> Self {
        self.stable_opts = opts;
        self
    }

    /// Chooses the semantics queries are answered under.
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Seeds the session with an already-computed full model for the initial
    /// program, so the first full-model query skips evaluation entirely.
    ///
    /// This is the recovery path of the durable storage layer: a checkpoint
    /// persists the model alongside the program, and restoring it here makes
    /// restart-to-first-answer independent of model (re)computation.  The
    /// caller asserts the model is *the* model of `program` under the chosen
    /// semantics — grounding and subgoal tables still rebuild lazily, and
    /// every mutation path treats the seeded model exactly like one the
    /// session computed itself (patched in place when the grounding is warm,
    /// dropped when it cannot be maintained).
    pub fn warm_model(mut self, model: Model) -> Self {
        self.warm_model = Some(model);
        self
    }

    /// Chooses the relation-storage backend for the session's long-lived
    /// stores (the possibly-true store and the subgoal-table answers).  The
    /// default is [`StorageConfig::from_env`]: in-memory unless
    /// `HILOG_STORAGE=spill` flips the process-wide default.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Builds the session.  No evaluation happens yet; every cache is filled
    /// lazily by the first query that needs it.
    pub fn build(self) -> HiLogDb {
        HiLogDb {
            program: Arc::new(self.program),
            opts: self.opts,
            stable_opts: self.stable_opts,
            semantics: self.semantics,
            analysis: None,
            ground: None,
            possibly: None,
            model: self.warm_model.map(Arc::new),
            dirty: None,
            stable: None,
            modular: None,
            tables: HashMap::new(),
            scratch: None,
            groundings: 0,
            patches: 0,
            pending_patched: 0,
            pending_dropped: 0,
            pending_refilled: 0,
            storage: self.storage,
        }
    }
}

/// Returns `true` if `atom` falls inside an optional predicate-level scope
/// (`None` means "everything" — a variable-headed rule or a fact without a
/// predicate identity made the mutation global).  Used only to bound the
/// DRed sweep of [`HiLogDb::retract_from_ground`]; the *model* patch works
/// at the finer instance level (seed atoms + [`affected_closure`]).
fn pred_scope_affects(preds: Option<&BTreeSet<PredKey>>, atom: &Term) -> bool {
    match preds {
        None => true,
        // Ground atoms always have a predicate key; default to affected
        // for safety.
        Some(preds) => pred_key(atom).is_none_or(|k| preds.contains(&k)),
    }
}

/// A stateful HiLog database session.
///
/// Owns a [`Program`] plus every cache the engine can amortise across
/// queries; see the [module documentation](crate::session) for the overall
/// shape and a usage example.
#[derive(Debug)]
pub struct HiLogDb {
    /// The program, `Arc`d so publishing a [`crate::snapshot::DbSnapshot`]
    /// shares it with the session; mutations go through `Arc::make_mut`
    /// (copy-on-write: the clone happens only while a snapshot still holds
    /// the previous version).  Every other heavyweight cache below is `Arc`d
    /// for the same reason.
    program: Arc<Program>,
    opts: EvalOptions,
    stable_opts: StableOptions,
    semantics: Semantics,
    /// Cached predicate-dependency analysis; survives fact-level mutations
    /// (facts add no dependency edges) and is rebuilt after rule-level ones.
    analysis: Option<DepAnalysis>,
    /// Cached relevant instantiation of the program, maintained
    /// *incrementally* under fact-level mutations (delta grounding on
    /// assert, DRed overdelete/rederive on retract).
    ground: Option<Arc<GroundProgram>>,
    /// The over-approximated true-or-undefined store backing `ground` (the
    /// least model of the positive program).  Kept in lockstep with `ground`
    /// so the semi-naive continuation has a closed store to extend.
    possibly: Option<Arc<FactStore>>,
    /// Cached full model under `semantics`.
    model: Option<Arc<Model>>,
    /// Pending fact-level deltas not yet folded into `model`: the **seed
    /// atoms** the mutations actually touched (new facts, heads of new or
    /// dropped ground-rule instances), accumulated across mutations.  `Some`
    /// only while both `model` and `ground` are warm under
    /// [`Semantics::WellFounded`]; discharged lazily by the next query that
    /// needs the model, which re-evaluates only the seeds' instance-level
    /// reverse closure ([`affected_closure`]) with the rest of the model —
    /// even inside the same strongly connected component — frozen at its
    /// previous values.
    dirty: Option<BTreeSet<Term>>,
    /// Cached stable models (only filled under [`Semantics::Stable`]).
    stable: Option<Arc<Vec<Model>>>,
    /// Cached Figure 1 outcome.
    modular: Option<Arc<ModularOutcome>>,
    /// Completed subgoal tables of the query-directed evaluator, keyed
    /// structurally by their normalised subgoal pattern.  Each table carries
    /// the dependency edges recorded while it was filled; mutations walk the
    /// *reverse* closure of those edges (instance-level, unlike the
    /// predicate-level `DepAnalysis`) to decide which tables to patch in
    /// place, which to drop, and which to leave untouched.
    tables: HashMap<Term, Arc<Table>>,
    /// Scratch copy of the program used to host the auxiliary rule of
    /// conjunctive queries (cloned lazily, reused until the program mutates).
    scratch: Option<Program>,
    /// Total grounding passes performed since construction.
    groundings: usize,
    /// Total incremental model patches performed since construction.
    patches: usize,
    /// Subgoal tables patched in place by mutations since the last query
    /// (reported through [`EvalStats::tables_patched`], then reset).
    pending_patched: usize,
    /// Subgoal tables dropped by mutations since the last query.
    pending_dropped: usize,
    /// Derived subgoal tables *refilled eagerly* (monotone delta: the
    /// mutation reaches them through positive edges only, so their old
    /// answers stay valid and only additions are derived) since the last
    /// query.
    pending_refilled: usize,
    /// Relation-storage backend for the session's long-lived stores.
    storage: StorageConfig,
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
        self.program.as_ref()
    }

    /// The session's evaluation limits.
    pub fn options(&self) -> EvalOptions {
        self.opts
    }

    /// Overrides the evaluation thread count (clamped to at least 1) without
    /// touching any cache: the thread count changes the evaluation schedule,
    /// never its result, so cached models and tables stay valid.
    pub fn set_eval_threads(&mut self, eval_threads: usize) {
        self.opts.eval_threads = eval_threads.max(1);
    }

    /// The semantics queries are answered under.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// The session's stable-model search limits.
    pub fn stable_options(&self) -> StableOptions {
        self.stable_opts
    }

    // ------------------------------------------------------------------
    // Mutation with targeted cache invalidation
    // ------------------------------------------------------------------

    /// Asserts a ground fact.
    ///
    /// The dependency analysis is kept (facts add no edges); subgoal tables
    /// are maintained through their recorded dependency edges (tables
    /// outside the instance-level closure survive, fact-backed tables are
    /// patched in place), and when nothing reads the predicate at all the
    /// cached ground program and model are *patched* instead of discarded.
    pub fn assert_fact(&mut self, fact: Term) -> Result<(), EngineError> {
        if !fact.is_ground() {
            return Err(EngineError::Floundering(format!(
                "assert_fact requires a ground atom, got `{fact}`"
            )));
        }
        // A duplicate of an already-present fact changes nothing
        // semantically; every cache stays valid (the mirror image of
        // `retract_fact`'s duplicate short-circuit).
        let already_present = self
            .program
            .rules
            .iter()
            .any(|r| r.is_fact() && r.head == fact);
        Arc::make_mut(&mut self.program).push(Rule::fact(fact.clone()));
        if already_present {
            self.scratch = None;
            return Ok(());
        }
        self.invalidate_for_fact(&fact, true);
        Ok(())
    }

    /// Retracts one occurrence of a ground fact; returns `false` if the
    /// program contains no such fact.
    pub fn retract_fact(&mut self, fact: &Term) -> bool {
        let Some(pos) = self
            .program
            .rules
            .iter()
            .position(|r| r.is_fact() && r.head == *fact)
        else {
            return false;
        };
        Arc::make_mut(&mut self.program).rules.remove(pos);
        self.scratch = None;
        // A duplicate assertion may still be present; then nothing changed
        // semantically and every cache stays valid.
        let still_present = self
            .program
            .rules
            .iter()
            .any(|r| r.is_fact() && r.head == *fact);
        if !still_present {
            self.invalidate_for_fact(fact, false);
        }
        true
    }

    /// Asserts a rule.  Rules add predicate-level dependency edges, so the
    /// analysis/grounding/model caches are rebuilt lazily — but the subgoal
    /// tables are maintained at the instance level: the new rule can only
    /// derive instances of its head, so only the tables whose pattern
    /// overlaps the head (plus their recorded-edge reverse closure) are
    /// dropped, and every other table survives.
    pub fn assert_rule(&mut self, rule: Rule) {
        self.drop_tables_for_head(&rule.head);
        Arc::make_mut(&mut self.program).push(rule);
        self.invalidate_caches_keeping_tables();
    }

    /// Retracts the first rule structurally equal to `rule`; returns `false`
    /// if the program contains no such rule.
    ///
    /// Subgoal tables survive outside the instance-level reverse closure of
    /// the rule's head, exactly as for [`Self::assert_rule`].  The
    /// grounding/model caches have no provenance for the retracted rule's
    /// instantiations and are rebuilt lazily.
    pub fn retract_rule(&mut self, rule: &Rule) -> bool {
        let Some(pos) = self.program.rules.iter().position(|r| r == rule) else {
            return false;
        };
        Arc::make_mut(&mut self.program).rules.remove(pos);
        // A structurally identical copy may remain; then nothing changed.
        if self.program.rules.iter().any(|r| r == rule) {
            self.scratch = None;
            return true;
        }
        self.drop_tables_for_head(&rule.head);
        self.invalidate_caches_keeping_tables();
        true
    }

    /// Resets every cache except the subgoal tables (the one cache with
    /// finer-than-global invalidation, maintained through the recorded
    /// dependency edges instead).
    fn invalidate_caches_keeping_tables(&mut self) {
        self.analysis = None;
        self.ground = None;
        self.possibly = None;
        self.model = None;
        self.dirty = None;
        self.stable = None;
        self.modular = None;
        self.scratch = None;
    }

    // ------------------------------------------------------------------
    // Instance-level subgoal-table maintenance over recorded edges
    // ------------------------------------------------------------------

    /// The keys of every subgoal table whose answers could change when the
    /// set of atoms matching `probe` changes: the tables whose pattern
    /// unifies with `probe`, plus the reverse closure under the dependency
    /// edges the tables recorded while they were filled.
    ///
    /// This is *instance-level* where [`DepAnalysis::affected_by`] is
    /// predicate-level: a mutation to one game of a HiLog win/move database
    /// leaves the other games' `winning(g)(x)` tables untouched even though
    /// every one of them shares the (variable-headed) winning rule.  It is
    /// sound because a kept table's evaluation only ever consulted the
    /// tables its recorded closure names: if none of them overlaps `probe`,
    /// refilling the kept table would never read a changed atom — and any
    /// *newly selectable* subgoal requires some consulted table to gain
    /// answers first, which puts it inside the closure.
    fn tables_affected_by(&self, probe: &Term) -> BTreeSet<Term> {
        let renamed = rename_apart(probe);
        let mut queue: Vec<Term> = self
            .tables
            .iter()
            .filter(|(_, t)| {
                let mut theta = Substitution::new();
                unify_with(&t.pattern, &renamed, &mut theta)
            })
            .map(|(key, _)| key.clone())
            .collect();
        let mut readers: HashMap<&Term, Vec<&Term>> = HashMap::new();
        for (key, table) in &self.tables {
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

    /// Folds a fact-level change into the subgoal tables: tables outside
    /// the instance-level affected set survive untouched; affected tables
    /// with no recorded subgoal edges (their answers are exactly the
    /// matching bodyless instances) are *patched* by the exact answer
    /// delta; affected tables with rule-derived answers are dropped and
    /// refilled by the next query that needs them.
    fn maintain_tables_for_fact(&mut self, fact: &Term, asserted: bool) {
        let affected = self.tables_affected_by(fact);
        if affected.is_empty() {
            return;
        }
        // The retracted ground instance survives in a table if some other
        // bodyless route still derives it (a builtin-guarded twin) — the
        // same check the DRed path applies to the ground program.
        let spontaneous = !asserted && fact.is_ground() && spontaneous_fact(&self.program, fact);
        // Classify before mutating the table map: the monotone check walks
        // recorded edges into tables that may themselves be affected.
        let monotone: BTreeSet<Term> = if asserted {
            affected
                .iter()
                .filter(|key| self.positive_closure(key))
                .cloned()
                .collect()
        } else {
            BTreeSet::new()
        };
        let mut refill = Vec::new();
        for key in affected {
            let table = self.tables.get_mut(&key).expect("affected keys exist");
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
                self.tables.remove(&key);
                refill.push(key);
            } else {
                self.tables.remove(&key);
                self.pending_dropped += 1;
            }
        }
        self.refill_tables(refill);
    }

    /// `true` when every recorded dependency edge in `key`'s transitive
    /// downward closure is positive.  An asserted fact reaching such a table
    /// can only add answers (the evaluation consulted no negated subgoal),
    /// so the table can be rebuilt eagerly rather than dropped.  A dep whose
    /// table is gone makes the answer conservatively `false`.
    fn positive_closure(&self, key: &Term) -> bool {
        let mut queue = vec![key.clone()];
        let mut seen = BTreeSet::new();
        while let Some(key) = queue.pop() {
            if !seen.insert(key.clone()) {
                continue;
            }
            let Some(table) = self.tables.get(&key) else {
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

    /// Re-solves dropped-but-monotone table patterns against the updated
    /// program.  The evaluator is seeded with every surviving table, so the
    /// refill only re-derives the affected subtree; tables it completes
    /// (including any fresh dependencies) flow back into the session.  A
    /// pattern the evaluator cannot settle falls back to the drop counter —
    /// the next query recovers exactly as it would have without the refill.
    fn refill_tables(&mut self, keys: Vec<Term>) {
        if keys.is_empty() {
            return;
        }
        let tables = std::mem::take(&mut self.tables);
        let mut evaluator =
            QueryEvaluator::with_tables(&self.program, self.opts, tables, self.storage.clone());
        let mut failed = 0usize;
        for key in &keys {
            if evaluator.solve_atom(key).is_err() {
                failed += 1;
            }
        }
        let mut tables = evaluator.into_tables();
        tables.retain(|_, t| t.complete);
        self.tables = tables;
        self.pending_refilled += keys.len() - failed;
        self.pending_dropped += failed;
    }

    /// Drops every table in the instance-level reverse closure of a rule
    /// head (a new or retracted rule can change exactly the instances its
    /// head covers, and whatever reads them).
    fn drop_tables_for_head(&mut self, head: &Term) {
        for key in self.tables_affected_by(head) {
            self.tables.remove(&key);
            self.pending_dropped += 1;
        }
    }

    /// Targeted invalidation + incremental maintenance after a fact-level
    /// change to `fact`.  `asserted` is `true` for assertion, `false` for
    /// retraction.
    ///
    /// Subgoal tables are maintained through the instance-level recorded
    /// dependency graph ([`Self::maintain_tables_for_fact`]: unaffected
    /// tables survive, fact-backed tables are patched in place, the rest of
    /// the affected closure is dropped).  The cached grounding is
    /// *maintained* semi-naively (delta instantiation on assert, DRed
    /// overdelete/rederive on retract), and under the well-founded semantics
    /// the cached model is marked dirty for the predicate-level closure —
    /// the next query that needs it re-evaluates only the affected
    /// components.
    fn invalidate_for_fact(&mut self, fact: &Term, asserted: bool) {
        // The scratch program mirrors `self.program` and is always stale
        // after a fact-level change, whatever the dependency analysis says.
        self.scratch = None;
        // The Figure 1 outcome records the settling order, which even a pure
        // EDB fact can extend; recompute it on demand.
        self.modular = None;
        self.maintain_tables_for_fact(fact, asserted);
        // `assert_fact` only admits ground atoms, but `assert_rule` (and the
        // builder) accept facts with variable predicate names, and those can
        // reach here through `retract_fact`; without a predicate identity
        // the predicate-level scope is global.  (The *model* patch is scoped
        // at the instance level either way — see `apply_fact_delta`.)
        let keyed = match pred_key(fact) {
            Some(key) => self.analysis().affected_by(&key).map(|set| (key, set)),
            None => None,
        };
        let Some((key, affected)) = keyed else {
            self.apply_fact_delta(fact, asserted, None);
            return;
        };
        let analysis = self.analysis.as_ref().expect("analysis just built");
        let pure_edb = affected.len() == 1 && !analysis.derived.contains(&key);
        if pure_edb && asserted {
            // Nothing reads the predicate and no rule derives it: the fact
            // only adds itself to the stores, the ground program and the
            // model — an exact patch, no re-evaluation needed.  (The
            // duplicate short-circuit in `assert_fact` guarantees this is a
            // genuinely new fact.)
            if let Some(possibly) = &mut self.possibly {
                Arc::make_mut(possibly).insert(fact.clone());
            }
            if let Some(ground) = &mut self.ground {
                Arc::make_mut(ground).push(GroundRule::fact(fact.clone()));
            }
            // Same cumulative cap as `assert_into_ground`: fall back to full
            // re-grounding (and its `LimitExceeded`) instead of silently
            // growing past what a fresh session would reject.
            if self
                .ground
                .as_ref()
                .is_some_and(|g| g.rules.len() > self.opts.max_atoms)
            {
                self.ground = None;
                self.possibly = None;
                self.model = None;
                self.stable = None;
                self.dirty = None;
                return;
            }
            if let Some(model) = &mut self.model {
                Arc::make_mut(model).set_true(fact.clone());
            }
            if let Some(models) = &mut self.stable {
                for m in Arc::make_mut(models).iter_mut() {
                    m.set_true(fact.clone());
                }
            }
        } else if pure_edb {
            if let Some(possibly) = &mut self.possibly {
                Arc::make_mut(possibly).remove(fact);
            }
            if let Some(ground) = &mut self.ground {
                Arc::make_mut(ground)
                    .rules
                    .retain(|r| !(r.is_fact() && r.head == *fact));
            }
            if let Some(model) = &mut self.model {
                Arc::make_mut(model).set_false(fact.clone());
            }
            if let Some(models) = &mut self.stable {
                for m in Arc::make_mut(models).iter_mut() {
                    m.set_false(fact.clone());
                }
            }
        } else {
            self.apply_fact_delta(fact, asserted, Some(affected));
        }
    }

    // ------------------------------------------------------------------
    // Semi-naive incremental maintenance of the grounding and the model
    // ------------------------------------------------------------------

    /// Folds a fact-level change into the warm caches: the grounding is
    /// patched in place, and the model is marked dirty with the **seed
    /// atoms** the maintenance actually touched, so the next use re-evaluates
    /// only their instance-level reverse closure.  `preds` is the
    /// predicate-level reverse closure (when one exists) and only bounds the
    /// DRed sweep of a retraction.  Cold (or unmaintainable) caches are
    /// dropped and rebuilt lazily as before.
    fn apply_fact_delta(&mut self, fact: &Term, asserted: bool, preds: Option<BTreeSet<PredKey>>) {
        // Stable models are not patchable (the delta can flip whole models in
        // and out of existence), but they are rebuilt from the *maintained*
        // grounding, which is where the expensive work sits.
        self.stable = None;
        let seeds = if self.ground.is_some() && self.possibly.is_some() {
            if asserted {
                self.assert_into_ground(fact)
            } else {
                self.retract_from_ground(fact, preds.as_ref())
            }
        } else {
            None
        };
        let Some(seeds) = seeds else {
            self.ground = None;
            self.possibly = None;
            self.model = None;
            self.dirty = None;
            return;
        };
        if self.semantics == Semantics::WellFounded && self.model.is_some() {
            match self.dirty.as_mut() {
                Some(previous) => previous.extend(seeds),
                None => self.dirty = Some(seeds),
            }
        } else {
            self.model = None;
            self.dirty = None;
        }
    }

    /// Semi-naive continuation for an asserted fact: extends the
    /// possibly-true store from the new fact, instantiating the rules each
    /// round's frontier enables *as the frontier lands* (one join pass per
    /// round — the heads and the instantiations come from the same joins,
    /// never re-joined against the accumulated delta), and appends them
    /// (deduplicated) to the cached ground program.
    ///
    /// Returns the **seed atoms** of the change — the fact plus the head of
    /// every appended instantiation, i.e. every atom whose rule set grew —
    /// from which the model patch derives its instance-level affected
    /// closure.  Returns `None` when the continuation cannot be completed
    /// (e.g. a resource limit); the caller then falls back to full
    /// re-grounding.
    fn assert_into_ground(&mut self, fact: &Term) -> Option<BTreeSet<Term>> {
        let possibly = Arc::make_mut(self.possibly.as_mut().expect("checked by caller"));
        let ground = Arc::make_mut(self.ground.as_mut().expect("checked by caller"));
        let mut seeds: BTreeSet<Term> = BTreeSet::new();
        seeds.insert(fact.clone());
        let fact_was_new = !possibly.contains(fact);
        // The asserted fact's bodyless instance is new unless the atom was
        // already a ground fact (a duplicate assertion, or a builtin-guarded
        // rule's instance): only then is a scan needed.
        if fact_was_new || !ground.rules.iter().any(|r| r.is_fact() && r.head == *fact) {
            ground.push(GroundRule::fact(fact.clone()));
        }
        if fact_was_new {
            possibly.insert(fact.clone());
            // Frontier instantiations carry at least one brand-new positive
            // body atom, so they cannot duplicate any pre-existing rule —
            // only each other (one copy per delta position they match).
            let mut appended: BTreeSet<GroundRule> = BTreeSet::new();
            let mut frontier = AtomStore::from_atoms([fact.clone()]);
            let mut rounds = 0usize;
            while !frontier.is_empty() {
                rounds += 1;
                if rounds > self.opts.max_rounds {
                    return None;
                }
                // Ground this frontier while the store holds exactly the
                // rounds up to it.  The instantiations' heads *are* the
                // delta-aware consequence operator's output, so the next
                // frontier falls out of the same single join pass.
                let rules = match ground_delta(&self.program, possibly, &frontier, self.opts) {
                    Ok(rules) => rules,
                    Err(_) => return None,
                };
                let mut next = AtomStore::new();
                for rule in rules {
                    if !possibly.contains(&rule.head) {
                        if possibly.len() >= self.opts.max_atoms {
                            return None;
                        }
                        possibly.insert(rule.head.clone());
                        next.insert(rule.head.clone());
                    }
                    if appended.insert(rule.clone()) {
                        seeds.insert(rule.head.clone());
                        ground.push(rule);
                    }
                }
                frontier = next;
            }
        }
        // `ground_delta` only bounds each call; enforce the same *cumulative*
        // limit a fresh grounding would hit, so a long-lived session cannot
        // silently grow past what `ensure_ground` would reject.  Falling back
        // surfaces the `LimitExceeded` on the next query, exactly like a
        // fresh session.
        (ground.rules.len() <= self.opts.max_atoms).then_some(seeds)
    }

    /// DRed-style maintenance for a retracted fact: *overdelete* the forward
    /// closure of the fact through the cached ground rules, then *rederive*
    /// every overdeleted atom that still has a supported instantiation, and
    /// finally drop the instantiations that lost support.
    ///
    /// Returns the **seed atoms** of the change — the fact, every atom that
    /// stayed deleted, and the head of every dropped instantiation (an atom
    /// that lost a rule may change truth even if other rules keep it
    /// possibly-true) — or `None` if the caches cannot be maintained.
    ///
    /// `preds` is the predicate-level reverse-dependency closure (when one
    /// exists): every atom that can be overdeleted (and every rule that can
    /// lose support) has its head inside it, so the index and the final
    /// sweep skip rules headed outside it entirely — a retraction confined
    /// to one component never walks the others' rules.
    fn retract_from_ground(
        &mut self,
        fact: &Term,
        preds: Option<&BTreeSet<PredKey>>,
    ) -> Option<BTreeSet<Term>> {
        let possibly = Arc::make_mut(self.possibly.as_mut()?);
        let ground = Arc::make_mut(self.ground.as_mut()?);
        // One pass over the in-scope rules builds the index both fixpoints
        // run on (rules by positive body atom), so neither loop ever rescans
        // the ground program per round.
        let mut rules_by_pos: HashMap<&Term, Vec<usize>> = HashMap::new();
        for (i, rule) in ground.rules.iter().enumerate() {
            if !pred_scope_affects(preds, &rule.head) {
                continue;
            }
            for atom in &rule.pos {
                rules_by_pos.entry(atom).or_default().push(i);
            }
        }
        // Overdelete: everything whose derivation may pass through `fact`,
        // by worklist over the index.
        let mut deleted: BTreeSet<Term> = BTreeSet::new();
        deleted.insert(fact.clone());
        let mut worklist = vec![fact.clone()];
        while let Some(atom) = worklist.pop() {
            let Some(readers) = rules_by_pos.get(&atom) else {
                continue;
            };
            for &ri in readers {
                let head = &ground.rules[ri].head;
                if !deleted.contains(head) {
                    deleted.insert(head.clone());
                    worklist.push(head.clone());
                }
            }
        }
        for atom in &deleted {
            possibly.remove(atom);
        }
        // The retracted EDB instance only survives if another bodyless route
        // to the same ground fact exists (e.g. a builtin-guarded rule).
        let spontaneous = spontaneous_fact(&self.program, fact);
        // Rederive: a deleted atom returns as soon as one of its cached
        // instantiations is fully supported by surviving atoms.  Only rules
        // whose head was overdeleted can rederive anything; seed with those,
        // then chase the index from each re-added atom.
        let candidates: Vec<usize> = ground
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| deleted.contains(&r.head))
            .map(|(i, _)| i)
            .collect();
        let rederives = |rule: &GroundRule, possibly: &FactStore| {
            rule.pos.iter().all(|a| possibly.contains(a))
                && !(rule.is_fact() && rule.head == *fact && !spontaneous)
        };
        let mut worklist: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&ri| rederives(&ground.rules[ri], possibly))
            .collect();
        while let Some(ri) = worklist.pop() {
            let head = &ground.rules[ri].head;
            if !deleted.remove(head) {
                continue;
            }
            possibly.insert(head.clone());
            // Re-adding `head` can revalidate overdeleted rules reading it.
            if let Some(readers) = rules_by_pos.get(head) {
                for &reader in readers {
                    let rule = &ground.rules[reader];
                    if deleted.contains(&rule.head) && rederives(rule, possibly) {
                        worklist.push(reader);
                    }
                }
            }
        }
        // Seeds for the instance-level model patch: the fact, whatever
        // stayed deleted, and (below) the head of every dropped rule.
        let mut seeds: BTreeSet<Term> = BTreeSet::new();
        seeds.insert(fact.clone());
        seeds.extend(deleted.iter().cloned());
        // Drop the instantiations that lost support.  (`possibly` shrank, so
        // this is exactly what a fresh relevant instantiation would omit;
        // out-of-scope rules cannot have lost anything.)
        ground.rules.retain(|r| {
            let keep = !pred_scope_affects(preds, &r.head)
                || (r.pos.iter().all(|a| possibly.contains(a))
                    && !(r.is_fact() && r.head == *fact && !spontaneous));
            if !keep {
                seeds.insert(r.head.clone());
            }
            keep
        });
        Some(seeds)
    }

    // ------------------------------------------------------------------
    // Cached analyses and models
    // ------------------------------------------------------------------

    fn analysis(&mut self) -> &DepAnalysis {
        if self.analysis.is_none() {
            self.analysis = Some(DepAnalysis::build(&self.program));
        }
        self.analysis.as_ref().expect("just built")
    }

    fn ensure_ground(&mut self) -> Result<(), EngineError> {
        if self.ground.is_none() {
            // Ground in two steps (rather than through `relevant_ground`) so
            // the possibly-true store is kept: it is the closed store the
            // semi-naive continuation of `assert_fact` extends.  Built on the
            // session's configured backend, so a spill session pages the
            // possibly-true store's cold relations to disk from the start.
            let mut possibly = FactStore::new(&self.storage);
            least_model_into(
                &self.program,
                NegationMode::Ignore,
                self.opts,
                &mut possibly,
            )?;
            self.ground = Some(Arc::new(ground_against(
                &self.program,
                &possibly,
                self.opts,
            )?));
            self.possibly = Some(Arc::new(possibly));
            self.groundings += 1;
        }
        Ok(())
    }

    /// The cached relevant instantiation of the program, grounding on first
    /// use.
    pub fn ground_program(&mut self) -> Result<&GroundProgram, EngineError> {
        self.ensure_ground()?;
        Ok(self.ground.as_deref().expect("just grounded"))
    }

    /// The cached full model under the session's semantics, computing it on
    /// first use.  For [`Semantics::Stable`] this is the consensus model of
    /// Definition 3.7; for [`Semantics::ModularCheck`] it is the Figure 1
    /// model (or an error if the program is rejected).
    pub fn model(&mut self) -> Result<&Model, EngineError> {
        self.ensure_model()?;
        Ok(self.model.as_deref().expect("just built"))
    }

    /// Ensures the cached model is usable and *exact*, reporting how it was
    /// obtained: reused as-is, patched in place (pending fact-level deltas
    /// folded in by re-evaluating only the affected components), or rebuilt.
    fn ensure_model(&mut self) -> Result<ModelSource, EngineError> {
        if self.model.is_some() {
            let Some(seeds) = self.dirty.take() else {
                return Ok(ModelSource::Cached);
            };
            // Invariant: `dirty` is only set while the grounding is warm and
            // the semantics is well-founded.
            debug_assert!(self.semantics == Semantics::WellFounded);
            self.ensure_ground()?;
            let ground = self.ground.as_ref().expect("dirty implies warm ground");
            // Instance-level warm start: only the seeds' reverse closure
            // through the maintained ground rules is re-evaluated; everything
            // else — including untouched atoms of the *same* strongly
            // connected component — keeps its previous truth as frozen
            // context.
            let closure = affected_closure(ground, seeds);
            let previous = Arc::unwrap_or_clone(self.model.take().expect("checked above"));
            let patched = well_founded_patch(
                ground,
                previous,
                |atom| closure.contains(atom),
                self.opts.eval_threads,
            );
            self.model = Some(Arc::new(patched));
            self.patches += 1;
            return Ok(ModelSource::Patched);
        }
        self.dirty = None;
        let model = match self.semantics {
            Semantics::WellFounded => {
                self.ensure_ground()?;
                well_founded_eval(
                    self.ground.as_deref().expect("just grounded"),
                    self.opts.eval_threads,
                )
            }
            Semantics::Stable => consensus_model(self.stable_models()?)?,
            Semantics::ModularCheck => {
                let outcome = self.check_modular()?;
                match (&outcome.model, &outcome.reason) {
                    (Some(model), _) => model.clone(),
                    (None, reason) => {
                        return Err(EngineError::NotModularlyStratified(
                            reason.clone().unwrap_or_else(|| {
                                "the Figure 1 procedure rejected the program".into()
                            }),
                        ))
                    }
                }
            }
        };
        self.model = Some(Arc::new(model));
        Ok(ModelSource::Rebuilt)
    }

    /// The cached stable models of the program (computing them on first
    /// use), regardless of the session's query semantics.
    pub fn stable_models(&mut self) -> Result<&[Model], EngineError> {
        if self.stable.is_none() {
            self.ensure_ground()?;
            let ground = self.ground.as_deref().expect("just grounded");
            self.stable = Some(Arc::new(stable_models_of_ground(ground, self.stable_opts)?));
        }
        Ok(self.stable.as_deref().expect("just computed"))
    }

    /// Runs (and caches) the Figure 1 modular-stratification procedure.
    pub fn check_modular(&mut self) -> Result<&ModularOutcome, EngineError> {
        if self.modular.is_none() {
            self.modular = Some(Arc::new(figure1_procedure(&self.program, self.opts)?));
        }
        Ok(self.modular.as_deref().expect("just checked"))
    }

    // ------------------------------------------------------------------
    // Planning and querying
    // ------------------------------------------------------------------

    /// Builds the plan [`query`](HiLogDb::query) would execute, without
    /// evaluating anything.
    pub fn explain(&self, query: &Query) -> QueryPlan {
        build_plan(
            self.semantics,
            query,
            self.model.is_some(),
            self.model.is_some() && self.dirty.is_some(),
            self.tables.values().filter(|t| t.complete).count(),
            self.pending_patched,
            self.pending_dropped,
        )
    }

    /// Answers a query through the plan [`explain`](HiLogDb::explain)
    /// chooses, reusing every cache the session holds.
    pub fn query(&mut self, query: &Query) -> Result<QueryResult, EngineError> {
        let plan = self.explain(query);
        // Table-maintenance observability: how many tables survived into
        // this query (read before the route consumes the table map).
        let tables_reused = self.tables.len();
        // Join-index observability: every candidate lookup this query causes
        // (grounding joins and subgoal-table joins alike) lands in these
        // thread-cumulative counters; the deltas are the per-query numbers.
        let (probes_before, fallbacks_before) = crate::horn::probe_counters();
        // Parallel observability: process-wide pool counters, read as deltas
        // around the query (see `pool::parallel_counters` for the caveats).
        let (waves_before, rounds_before, tasks_before) = crate::pool::parallel_counters();
        // Storage observability: spill faults and page-outs, same
        // process-wide delta convention as the probe/pool counters.
        let (faults_before, spills_before) = crate::storage::storage_counters();
        // Deadline observability: thread-local, so the delta is exact.
        let (dl_checks_before, dl_exceeded_before) = crate::deadline::deadline_counters();
        let mut result = match plan.strategy {
            PlanStrategy::MagicSets => match self.query_magic(query) {
                Ok((answers, stats)) => assemble(answers, stats, plan, None),
                Err(
                    err @ (EngineError::NotModularlyStratified(_) | EngineError::Floundering(_)),
                ) => {
                    // The tabled route cannot settle this query; the
                    // bottom-up well-founded construction still can.
                    let note = err.to_string();
                    let (answers, stats) = self.query_full(query)?;
                    assemble(answers, stats, plan, Some(note))
                }
                Err(err) => return Err(err),
            },
            PlanStrategy::FullModel => {
                let (answers, stats) = self.query_full(query)?;
                assemble(answers, stats, plan, None)
            }
        };
        // Consumed only on success, so a failed query (no stats to carry
        // them) leaves the mutation window's counters for the next one.
        result.stats.tables_patched = std::mem::take(&mut self.pending_patched);
        result.stats.tables_dropped = std::mem::take(&mut self.pending_dropped);
        result.stats.tables_refilled = std::mem::take(&mut self.pending_refilled);
        result.stats.tables_reused = tables_reused;
        let (probes_after, fallbacks_after) = crate::horn::probe_counters();
        result.stats.index_probes = probes_after - probes_before;
        result.stats.index_fallback_scans = fallbacks_after - fallbacks_before;
        let (waves_after, rounds_after, tasks_after) = crate::pool::parallel_counters();
        result.stats.parallel_waves = waves_after - waves_before;
        result.stats.parallel_partitioned_rounds = rounds_after - rounds_before;
        result.stats.parallel_tasks = tasks_after - tasks_before;
        result.stats.live_symbols = hilog_core::symbol::symbol_pool_stats().live;
        let (faults_after, spills_after) = crate::storage::storage_counters();
        result.stats.storage_residency_faults = faults_after.saturating_sub(faults_before);
        result.stats.storage_spill_writes = spills_after.saturating_sub(spills_before);
        let (dl_checks_after, dl_exceeded_after) = crate::deadline::deadline_counters();
        result.stats.deadline_checks = dl_checks_after - dl_checks_before;
        result.stats.deadline_exceeded = dl_exceeded_after - dl_exceeded_before;
        let storage = self.storage_stats();
        result.stats.storage_resident_facts = storage.resident_facts;
        result.stats.storage_spilled_facts = storage.spilled_facts;
        result.stats.storage_segment_bytes = storage.segment_bytes;
        Ok(result)
    }

    /// Aggregate relation-storage statistics over the session's stores: the
    /// possibly-true store (when grounding has run) and every subgoal
    /// table's answer store.  Under [`StorageConfig::InMemory`] everything
    /// is resident and the spill fields are zero.
    pub fn storage_stats(&self) -> RelationStorageStats {
        let mut total = RelationStorageStats::default();
        if let Some(possibly) = &self.possibly {
            total.merge(&possibly.storage_stats());
        }
        for table in self.tables.values() {
            total.merge(&table.answers.storage_stats());
        }
        total
    }

    /// Three-valued truth of a single ground atom under the session's
    /// semantics.
    pub fn holds(&mut self, atom: &Term) -> Result<Truth, EngineError> {
        if !atom.is_ground() {
            return Err(EngineError::Floundering(format!(
                "holds() requires a ground atom, got `{atom}`"
            )));
        }
        Ok(self.query(&Query::atom(atom.clone()))?.truth)
    }

    /// Magic-sets route: tabled evaluation seeded with the session's
    /// completed tables; completed tables flow back into the session.
    fn query_magic(&mut self, query: &Query) -> Result<(Vec<QueryAnswer>, EvalStats), EngineError> {
        let vars = query.variables();
        // Fast path: a single-atom query whose table is already complete is
        // answered straight from the session's tables — no evaluator (and no
        // per-query rule index) is built at all.  Sound because a complete
        // table's recorded dependency closure is settled and cycle-free, so
        // a cold evaluation of the same pattern would reach the same
        // answers and the same (non-)verdict.
        if let [Literal::Pos(atom)] = query.literals.as_slice() {
            let key = normalize_pattern(atom);
            if let Some(table) = self.tables.get(&key) {
                if table.complete {
                    let answers = table
                        .answers
                        .collect_atoms()
                        .into_iter()
                        .filter_map(|answer| {
                            let mut theta = Substitution::new();
                            match_with(atom, &answer, &mut theta)
                                .then(|| true_answer(&theta, &vars))
                        })
                        .collect();
                    let stats = EvalStats {
                        cached_subqueries: 1,
                        ..EvalStats::default()
                    };
                    return Ok((answers, stats));
                }
            }
        }
        let tables = std::mem::take(&mut self.tables);
        // `QueryEvaluator::stats` totals over every table it holds, seeded
        // ones included; subtract the seeded counts so the reported stats
        // cover this query only (seeded tables are complete and gain no
        // answers during the run).
        let seeded_tables = tables.len();
        let seeded_answers: usize = tables.values().map(|t| t.answers.len()).sum();
        let per_query = move |mut stats: EvalStats| {
            stats.subqueries = stats.subqueries.saturating_sub(seeded_tables);
            stats.answers = stats.answers.saturating_sub(seeded_answers);
            stats
        };
        if let [Literal::Pos(atom)] = query.literals.as_slice() {
            // Single-atom queries table the pattern itself — the second run
            // of the same query is a pure cache hit.
            let mut evaluator =
                QueryEvaluator::with_tables(&self.program, self.opts, tables, self.storage.clone());
            let solved = evaluator.solve_atom(atom);
            let stats = per_query(evaluator.stats());
            let mut tables = evaluator.into_tables();
            tables.retain(|_, t| t.complete);
            self.tables = tables;
            let answers = solved?
                .into_iter()
                .filter_map(|answer| {
                    let mut theta = Substitution::new();
                    match_with(atom, &answer, &mut theta).then(|| true_answer(&theta, &vars))
                })
                .collect();
            Ok((answers, stats))
        } else {
            // Conjunctions run through an auxiliary `__query_answer` rule
            // appended to the session's scratch copy of the program (cloned
            // once, reused across queries); every table except the auxiliary
            // one remains a valid table of the base program.
            let head = Term::apps(
                QUERY_HEAD,
                vars.iter().map(|v| Term::Var(v.clone())).collect(),
            );
            if self.scratch.is_none() {
                self.scratch = Some(Program::clone(&self.program));
            }
            let scratch = self.scratch.as_mut().expect("just cloned");
            scratch.push(Rule::new(head.clone(), query.literals.clone()));
            let mut evaluator =
                QueryEvaluator::with_tables(scratch, self.opts, tables, self.storage.clone());
            let solved = evaluator.solve_atom(&head);
            let stats = per_query(evaluator.stats());
            let mut tables = evaluator.into_tables();
            self.scratch.as_mut().expect("just cloned").rules.pop();
            // The auxiliary table must not leak into later conjunctions: its
            // key is the *rendered* pattern (where `__query_answer` comes out
            // quoted), so compare the pattern's functor, not the key string.
            let aux_functor = Term::sym(QUERY_HEAD);
            tables.retain(|_, t| t.complete && t.pattern.outermost_functor() != &aux_functor);
            self.tables = tables;
            let answers = solved?
                .into_iter()
                .filter_map(|answer| {
                    let mut theta = Substitution::new();
                    match_with(&head, &answer, &mut theta).then(|| true_answer(&theta, &vars))
                })
                .collect();
            Ok((answers, stats))
        }
    }

    /// Full-model route: match the query against the cached model.
    fn query_full(&mut self, query: &Query) -> Result<(Vec<QueryAnswer>, EvalStats), EngineError> {
        let groundings_before = self.groundings;
        let patches_before = self.patches;
        let model_source = self.ensure_model()?;
        let model = self.model.as_ref().expect("just built");
        let answers = eval_against_model(model, query)?;
        let stats = EvalStats {
            answers: answers.len(),
            groundings: self.groundings - groundings_before,
            patches: self.patches - patches_before,
            model_source,
            ..EvalStats::default()
        };
        Ok((answers, stats))
    }

    // ------------------------------------------------------------------
    // Snapshot export (the writer half of the serving split)
    // ------------------------------------------------------------------

    /// Converts the session into a serving pair: a single
    /// [`DbWriter`](crate::snapshot::DbWriter) owning this session's
    /// incremental mutation path, and a [`SnapshotHandle`](crate::snapshot::SnapshotHandle)
    /// any number of reader threads can clone to pin immutable
    /// [`DbSnapshot`](crate::snapshot::DbSnapshot)s.  The initial snapshot
    /// (epoch 0) is published immediately.
    pub fn into_serving(self) -> (crate::snapshot::DbWriter, crate::snapshot::SnapshotHandle) {
        crate::snapshot::DbWriter::from_db(self)
    }

    /// [`HiLogDb::into_serving`], but with the initial snapshot published at
    /// `epoch` instead of 0.  This is the recovery path: a session restored
    /// from a checkpoint plus a WAL tail resumes serving at the epoch it had
    /// reached when it went down, so clients never observe epochs moving
    /// backwards across a restart.
    pub fn into_serving_at(
        self,
        epoch: u64,
    ) -> (crate::snapshot::DbWriter, crate::snapshot::SnapshotHandle) {
        crate::snapshot::DbWriter::from_db_at(self, epoch)
    }

    /// The cached full model, if one is warm — pending fact-level deltas are
    /// discharged first so the returned model is exact (`None` if the
    /// discharge fails or no model has been computed).  Checkpointing uses
    /// this to persist the model without forcing an evaluation: a session
    /// that never computed its model simply checkpoints without one.
    pub fn cached_model(&mut self) -> Option<Arc<Model>> {
        if self.dirty.is_some() && self.ensure_model().is_err() {
            self.model = None;
            self.dirty = None;
        }
        self.model.clone()
    }

    /// Cheap `Arc` clones of every cache a published snapshot shares with the
    /// session.  Pending model deltas are discharged first (the incremental
    /// patch the next query would have applied), so the exported model is
    /// exact; if the discharge fails the model is dropped and the snapshot
    /// rebuilds it lazily, surfacing the error per query exactly like a
    /// fresh session would.
    pub(crate) fn snapshot_parts(&mut self) -> SnapshotParts {
        if self.dirty.is_some() && self.ensure_model().is_err() {
            self.model = None;
            self.dirty = None;
        }
        SnapshotParts {
            program: self.program.clone(),
            opts: self.opts,
            stable_opts: self.stable_opts,
            semantics: self.semantics,
            ground: self.ground.clone(),
            possibly: self.possibly.clone(),
            model: self.model.clone(),
            stable: self.stable.clone(),
            modular: self.modular.clone(),
            tables: self.tables.clone(),
            storage: self.storage.clone(),
        }
    }

    /// Folds completed subgoal tables a snapshot derived (against the same
    /// program epoch) back into the session, so queries answered on reader
    /// threads warm the writer's table cache too.  Only fills gaps: a table
    /// the session already holds (and maintains under mutation) wins.
    pub(crate) fn adopt_tables(&mut self, fresh: HashMap<Term, Arc<Table>>) {
        for (key, table) in fresh {
            self.tables.entry(key).or_insert(table);
        }
    }
}

/// `Arc` clones of the session caches a [`crate::snapshot::DbSnapshot`] is
/// assembled from; produced by [`HiLogDb::snapshot_parts`].
pub(crate) struct SnapshotParts {
    pub(crate) program: Arc<Program>,
    pub(crate) opts: EvalOptions,
    pub(crate) stable_opts: StableOptions,
    pub(crate) semantics: Semantics,
    pub(crate) ground: Option<Arc<GroundProgram>>,
    pub(crate) possibly: Option<Arc<FactStore>>,
    pub(crate) model: Option<Arc<Model>>,
    pub(crate) stable: Option<Arc<Vec<Model>>>,
    pub(crate) modular: Option<Arc<ModularOutcome>>,
    pub(crate) tables: HashMap<Term, Arc<Table>>,
    pub(crate) storage: StorageConfig,
}

/// Builds the [`QueryPlan`] for a query given the cache state of whichever
/// side is planning it — the mutable [`HiLogDb`] session or an immutable
/// [`crate::snapshot::DbSnapshot`] (whose model is never stale and whose
/// tables are never patched or dropped, only gained).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_plan(
    semantics: Semantics,
    query: &Query,
    cached_model: bool,
    stale_model: bool,
    cached_subqueries: usize,
    patched_subqueries: usize,
    dropped_subqueries: usize,
) -> QueryPlan {
    let bound = query_is_bound(query);
    let (strategy, reason) = if semantics != Semantics::WellFounded {
        (
            PlanStrategy::FullModel,
            format!(
                "the {semantics} semantics is defined through the full model, so the query is \
                 answered from the session's cached model"
            ),
        )
    } else if bound {
        (
            PlanStrategy::MagicSets,
            "the first literal has a ground predicate name, so query-directed \
             (magic-sets) evaluation visits only the relevant subgoals and reuses the \
             session's completed tables"
                .to_string(),
        )
    } else {
        (
            PlanStrategy::FullModel,
            "the query has no leading positive literal with a ground predicate name \
             (it is unbound), so it is answered from the session's cached full model"
                .to_string(),
        )
    };
    QueryPlan {
        strategy,
        semantics,
        query: query.to_string(),
        adornment: adornment(query),
        cached_model,
        stale_model,
        cached_subqueries,
        patched_subqueries,
        dropped_subqueries,
        reason,
    }
}

pub(crate) fn assemble(
    answers: Vec<QueryAnswer>,
    stats: EvalStats,
    plan: QueryPlan,
    fallback: Option<String>,
) -> QueryResult {
    let truth = overall_truth(&answers);
    QueryResult {
        answers,
        truth,
        stats,
        plan,
        fallback,
    }
}

fn overall_truth(answers: &[QueryAnswer]) -> Truth {
    let mut best = Truth::False;
    for a in answers {
        match a.truth {
            Truth::True => return Truth::True,
            Truth::Undefined => best = Truth::Undefined,
            Truth::False => {}
        }
    }
    best
}

pub(crate) fn true_answer(theta: &Substitution, vars: &[Var]) -> QueryAnswer {
    QueryAnswer {
        bindings: vars
            .iter()
            .map(|v| (v.clone(), theta.apply(&Term::Var(v.clone()))))
            .collect(),
        truth: Truth::True,
    }
}

/// Three-valued conjunctive evaluation of a query against a model.  Branches
/// carry the weakest truth seen so far; false literals prune.
pub(crate) fn eval_against_model(
    model: &Model,
    query: &Query,
) -> Result<Vec<QueryAnswer>, EngineError> {
    let vars = query.variables();
    let mut branches: Vec<(Substitution, Truth)> = vec![(Substitution::new(), Truth::True)];
    for lit in &query.literals {
        let mut next = Vec::new();
        for (theta, truth) in branches {
            match lit {
                Literal::Pos(atom) => {
                    let instantiated = theta.apply(atom);
                    if instantiated.is_ground() {
                        match model.truth(&instantiated) {
                            Truth::False => {}
                            t => next.push((theta.clone(), conj(truth, t))),
                        }
                    } else {
                        // Ground-named patterns walk only the name's
                        // contiguous range of the ordered base.
                        for candidate in model.base_candidates(&instantiated) {
                            let t = model.truth(candidate);
                            if t == Truth::False {
                                continue;
                            }
                            let mut extended = theta.clone();
                            if match_with(&instantiated, candidate, &mut extended) {
                                next.push((extended, conj(truth, t)));
                            }
                        }
                    }
                }
                Literal::Neg(atom) => {
                    let instantiated = theta.apply(atom);
                    if !instantiated.is_ground() {
                        return Err(EngineError::Floundering(format!(
                            "negative literal `not {instantiated}` is non-ground when selected \
                             (bind its variables with an earlier positive literal)"
                        )));
                    }
                    match model.truth(&instantiated) {
                        Truth::True => {}
                        Truth::False => next.push((theta.clone(), truth)),
                        Truth::Undefined => next.push((theta.clone(), Truth::Undefined)),
                    }
                }
                Literal::Builtin(b) => {
                    let mut extended = theta.clone();
                    match b.eval(&mut extended) {
                        Ok(true) => next.push((extended, truth)),
                        Ok(false) => {}
                        Err(e) => return Err(EngineError::Core(e)),
                    }
                }
                Literal::Aggregate(_) => {
                    return Err(EngineError::Unsupported(
                        "aggregate literals in full-model query evaluation are unsupported; \
                         ask a bound query (magic-sets plan) or use the aggregation evaluator"
                            .into(),
                    ))
                }
            }
        }
        branches = next;
    }
    // Group by bindings, keeping the strongest truth per instance.
    let mut best: BTreeMap<Vec<(Var, Term)>, Truth> = BTreeMap::new();
    for (theta, truth) in branches {
        let bindings: Vec<(Var, Term)> = vars
            .iter()
            .map(|v| (v.clone(), theta.apply(&Term::Var(v.clone()))))
            .collect();
        let entry = best.entry(bindings).or_insert(truth);
        if *entry == Truth::Undefined && truth == Truth::True {
            *entry = Truth::True;
        }
    }
    Ok(best
        .into_iter()
        .map(|(bindings, truth)| QueryAnswer { bindings, truth })
        .collect())
}

fn conj(a: Truth, b: Truth) -> Truth {
    if a == Truth::Undefined || b == Truth::Undefined {
        Truth::Undefined
    } else {
        Truth::True
    }
}

/// The consensus model of Definition 3.7 over a set of stable models.
pub(crate) fn consensus_model(models: &[Model]) -> Result<Model, EngineError> {
    if models.is_empty() {
        return Err(EngineError::NoStableModels);
    }
    let mut base: BTreeSet<Term> = BTreeSet::new();
    for m in models {
        base.extend(m.base().iter().cloned());
    }
    let mut true_atoms = Vec::new();
    let mut undefined = Vec::new();
    for atom in &base {
        if models.iter().all(|m| m.is_true(atom)) {
            true_atoms.push(atom.clone());
        } else if !models.iter().all(|m| m.is_false(atom)) {
            undefined.push(atom.clone());
        }
    }
    Ok(Model::new(base, true_atoms, undefined))
}

// ----------------------------------------------------------------------
// Predicate-dependency analysis for targeted invalidation
// ----------------------------------------------------------------------

/// A predicate identity: the (ground) predicate-name term plus arity.
/// Symbols are `Arc`-backed, so cloning a first-order name is one refcount
/// bump — this key is on the per-atom hot path of the model patch.
type PredKey = (Term, Option<usize>);

fn pred_key(atom: &Term) -> Option<PredKey> {
    let name = atom.name();
    name.is_ground().then(|| (name.clone(), atom.arity()))
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

/// Returns `true` if some rule with no positive or negative body atoms (a
/// remaining bare fact, or a builtin-guarded rule like `f :- 1 < 2.`) still
/// produces `fact` as a bodyless ground instance.  Used by the DRed
/// retraction path to decide whether the ground fact survives the removal of
/// its program-fact occurrence.
fn spontaneous_fact(program: &Program, fact: &Term) -> bool {
    let empty = AtomStore::new();
    program.iter().any(|rule| {
        rule.positive_atoms().count() == 0
            && rule.negative_atoms().count() == 0
            && join_body(rule, &empty, None, NegationMode::Ignore)
                .map(|thetas| thetas.iter().any(|theta| theta.apply(&rule.head) == *fact))
                .unwrap_or(false)
    })
}

/// Reverse dependency information over the program's predicates, used to
/// decide which caches a fact-level mutation can reach.
#[derive(Debug, Clone, Default)]
struct DepAnalysis {
    /// `dependents[p]` = head predicates of rules whose body reads `p`.
    dependents: HashMap<PredKey, BTreeSet<PredKey>>,
    /// Head predicates of rules with a variable predicate name somewhere in
    /// the body: they read *every* predicate.
    universal_readers: BTreeSet<PredKey>,
    /// `true` when some proper rule's head predicate name is non-ground; such
    /// a rule can define any predicate, so every mutation is global.
    wildcard_heads: bool,
    /// Head predicates of proper (non-fact) rules.
    derived: BTreeSet<PredKey>,
}

impl DepAnalysis {
    fn build(program: &Program) -> Self {
        let mut analysis = DepAnalysis::default();
        for rule in program.proper_rules() {
            let Some(head) = pred_key(&rule.head) else {
                analysis.wildcard_heads = true;
                continue;
            };
            analysis.derived.insert(head.clone());
            for lit in &rule.body {
                let atom = match lit {
                    Literal::Pos(a) | Literal::Neg(a) => a,
                    Literal::Aggregate(a) => &a.pattern,
                    Literal::Builtin(_) => continue,
                };
                match pred_key(atom) {
                    Some(body_key) => {
                        analysis
                            .dependents
                            .entry(body_key)
                            .or_default()
                            .insert(head.clone());
                    }
                    None => {
                        analysis.universal_readers.insert(head.clone());
                    }
                }
            }
        }
        analysis
    }

    /// Every predicate whose cached state may change when `key` gains or
    /// loses a fact (transitive reverse closure, always including the
    /// universal readers).  `None` means "everything" — a variable-headed
    /// rule exists.
    fn affected_by(&self, key: &PredKey) -> Option<BTreeSet<PredKey>> {
        if self.wildcard_heads {
            return None;
        }
        let mut affected: BTreeSet<PredKey> = BTreeSet::new();
        let mut queue: Vec<PredKey> = vec![key.clone()];
        queue.extend(self.universal_readers.iter().cloned());
        while let Some(k) = queue.pop() {
            if !affected.insert(k.clone()) {
                continue;
            }
            if let Some(readers) = self.dependents.get(&k) {
                queue.extend(readers.iter().cloned());
            }
        }
        Some(affected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            crate::deadline::with_deadline(Some(Instant::now() - Duration::from_millis(1)), || {
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
            crate::deadline::with_deadline(Some(Instant::now() + Duration::from_secs(60)), || {
                let mut fresh = game_db();
                fresh.query(&query).unwrap()
            });
        assert_eq!(result.answers.len(), 1);
        assert!(result.stats.deadline_checks > 0);
        assert_eq!(result.stats.deadline_exceeded, 0);
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
        assert_eq!(
            db.holds(&parse_term("colour(b, blue)").unwrap()).unwrap(),
            Truth::True
        );
        assert!(db.retract_fact(&parse_term("colour(b, blue)").unwrap()));
        assert_eq!(
            db.holds(&parse_term("colour(b, blue)").unwrap()).unwrap(),
            Truth::False
        );
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
        let cached = db
            .explain(&parse_query("?- game(M).").unwrap())
            .cached_subqueries;
        assert!(cached > 0);
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
        let plan_json = serde_json::to_string(&result.plan).unwrap();
        assert!(plan_json.contains("\"semantics\":\"well-founded\""));
        let stats_json = serde_json::to_string(&result.stats).unwrap();
        assert!(stats_json.contains("\"rule_applications\""));
    }

    #[test]
    fn assert_fact_patches_the_model_without_regrounding() {
        let mut db = game_db();
        let unbound = parse_query("?- P(a, X).").unwrap();
        let first = db.query(&unbound).unwrap();
        assert_eq!(first.stats.groundings, 1);
        assert_eq!(first.stats.model_source, ModelSource::Rebuilt);
        // `move` is read by `winning`: not pure EDB, so the old session
        // dropped the model and re-grounded; now it patches instead.
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        let plan = db.explain(&unbound);
        assert!(plan.cached_model);
        assert!(plan.stale_model, "pending delta not reported by the plan");
        let second = db.query(&unbound).unwrap();
        assert_eq!(second.stats.groundings, 0, "patching must not re-ground");
        assert_eq!(second.stats.patches, 1);
        assert_eq!(second.stats.model_source, ModelSource::Patched);
        // The patched model agrees with a fresh session on every atom.
        let mut fresh = HiLogDb::new(db.program().clone());
        let fresh_model = fresh.model().unwrap().clone();
        let patched = db.model().unwrap();
        for atom in patched.base().iter().chain(fresh_model.base()) {
            assert_eq!(patched.truth(atom), fresh_model.truth(atom), "{atom}");
        }
        let third = db.query(&unbound).unwrap();
        assert_eq!(third.stats.model_source, ModelSource::Cached);
        assert_eq!(third.stats.patches, 0);
    }

    #[test]
    fn single_scc_patch_freezes_untouched_instances() {
        // One long chain game is a single predicate-level SCC; asserting an
        // edge at its tail must patch the model by re-evaluating only the
        // instance-level reverse closure of the change (the upstream
        // positions), with every downstream truth frozen — and agree with a
        // fresh session on every atom.
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for i in 0..30 {
            text.push_str(&format!("move(p{}, p{}).\n", i, i + 1));
        }
        let mut db = HiLogDb::new(parse_program(&text).unwrap());
        let open = parse_query("?- P(p0, X).").unwrap();
        db.query(&open).unwrap();
        db.assert_fact(parse_term("move(p30, p31)").unwrap())
            .unwrap();
        let result = db.query(&open).unwrap();
        assert_eq!(result.stats.groundings, 0);
        assert_eq!(result.stats.model_source, ModelSource::Patched);
        let mut fresh = HiLogDb::new(db.program().clone());
        let fresh_model = fresh.model().unwrap().clone();
        let patched = db.model().unwrap();
        for atom in patched.base().iter().chain(fresh_model.base()) {
            assert_eq!(patched.truth(atom), fresh_model.truth(atom), "{atom}");
        }
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
    fn consecutive_asserts_are_folded_into_one_patch() {
        let mut db = game_db();
        let unbound = parse_query("?- P(a, X).").unwrap();
        db.query(&unbound).unwrap();
        db.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
        db.assert_fact(parse_term("move(d, e)").unwrap()).unwrap();
        let result = db.query(&unbound).unwrap();
        assert_eq!(result.stats.patches, 1, "deltas were not accumulated");
        assert_eq!(result.stats.groundings, 0);
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
        let result = db.query(&unbound).unwrap();
        assert_eq!(result.stats.groundings, 0, "DRed path re-grounded");
        assert_eq!(result.stats.model_source, ModelSource::Patched);
        let mut fresh = HiLogDb::new(db.program().clone());
        let fresh_model = fresh.model().unwrap().clone();
        let patched = db.model().unwrap();
        for atom in patched.base().iter().chain(fresh_model.base()) {
            assert_eq!(patched.truth(atom), fresh_model.truth(atom), "{atom}");
        }
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
    fn hilog_programs_with_variable_heads_still_patch_the_grounding() {
        // The HiLog game rule has a non-ground head predicate name, so the
        // per-predicate dirty scope degenerates to All — but the grounding is
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
        let after = db.query(&open).unwrap();
        assert_eq!(after.stats.groundings, 0, "HiLog delta re-grounded");
        assert_eq!(after.stats.model_source, ModelSource::Patched);
        assert_eq!(
            db.holds(&parse_term("winning(m)(c)").unwrap()).unwrap(),
            Truth::True
        );
        let _ = db.query(&unbound);
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
    fn builder_options_are_honoured() {
        let mut db = HiLogDb::builder()
            .program(parse_program("nat(z). nat(s(X)) :- nat(X).").unwrap())
            .options(EvalOptions::with_max_atoms(10))
            .build();
        let err = db.query(&parse_query("?- P(X).").unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::LimitExceeded(_)));
    }
}
