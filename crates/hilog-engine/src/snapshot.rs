//! The read surface and the serving pair: a [`DbSnapshot`] answers queries
//! through `&self`, a [`DbWriter`] publishes snapshots for readers.
//!
//! There is **one** implementation of "answer a query under the program's
//! meaning" in this crate, and it lives here: [`DbSnapshot::query`] (and
//! `holds` / `model` / `stable_models` / `check_modular` / `explain`) route
//! through the plan, the magic-sets evaluator or the lazily built full
//! model (whose route walks the query's compiled plan over the model),
//! filling caches behind interior locks.  Everything that reads goes
//! through it:
//!
//! * A [`HiLogDb`] session *owns* one working snapshot by value.  Its reads
//!   delegate to that snapshot (an uncontended lock, tens of nanoseconds);
//!   its mutations reach the snapshot's caches lock-free through
//!   `RwLock::get_mut`: the subgoal tables and the program index are
//!   maintained in place, and a write drops the model-side caches
//!   (grounding, model, stable models, Figure 1) whole.
//! * A published [`DbSnapshot`] is an `Arc`-sharing copy of the working one
//!   at an *epoch*: the program and every heavyweight cache are shared by
//!   `Arc` (publishing is a handful of refcount bumps, never a deep copy).
//!   The writer's next mutation un-shares what it edits.  Of the program it
//!   copies only the chunks of its rule sequence the batch edits.  The
//!   program index and the table arena are [`Twinned`]: the writer takes
//!   back the version the snapshot before last held and replays the last
//!   batch into it, and copies whole only while a reader pins that version.
//!   A table the writer's table pass edits in place is handled the same way,
//!   one level down (`Tables::table_mut`).  The grounding and the model are
//!   never edited: a write drops them.  The type is
//!   `Send + Sync`, so any number of threads answer
//!   queries from the same snapshot in parallel; caches the writer had not
//!   filled yet are built lazily *inside* the snapshot — the first reader
//!   that needs the full model builds it, later readers reuse it.
//! * A [`DbWriter`] owns the [`HiLogDb`].  Mutations accumulate into a
//!   batch; [`DbWriter::publish`] swaps the next snapshot into the shared
//!   cell.  Readers never block on the writer and the writer never waits
//!   for readers: a reader keeps whatever snapshot it pinned until it asks
//!   the handle for the current one.
//! * A [`SnapshotHandle`] is the cloneable reader endpoint:
//!   [`SnapshotHandle::current`] pins the most recently published snapshot.
//!
//! Subgoal tables flow in both directions.  A published snapshot starts
//! with the writer's completed tables; queries answered on reader threads
//! add tables to the snapshot's own map, which logs them; and the writer
//! *adopts* the logged tables back — but only while its program is still
//! exactly the program the snapshot was built from (before the first
//! mutation of a batch, or at a mutation-free publish).  Every map is one
//! arena (`Tables`) that keeps its own edges, so adopted tables then enjoy
//! the session's instance-level maintenance like any other.
//!
//! The tabled evaluator's `ProgramIndex` (the EDB in an argument-indexed
//! store, the rules by head) travels the same way.  It is one more lazily
//! filled, `Arc`-shared cache: the first tabled query that misses the warm
//! path builds it — never session construction or `into_serving`, so a
//! store that is only ever written to never pays for it — a published copy
//! shares it, the writer adopts a reader-built one together with the reader
//! tables, and from then on the session's mutations *maintain* it instead
//! of rebuilding it: in place, or in its caught-up twin while a published
//! snapshot shares it, exactly like the table arena.
//!
//! ```
//! use hilog_engine::HiLogDb;
//! use hilog_syntax::{parse_program, parse_query, parse_term};
//!
//! let program = parse_program(
//!     "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).",
//! )
//! .unwrap();
//! let (mut writer, handle) = HiLogDb::new(program).into_serving();
//! let query = parse_query("?- winning(X).").unwrap();
//!
//! // Readers pin the published snapshot; queries take `&self`.
//! let snapshot = handle.current();
//! assert_eq!(snapshot.query(&query).unwrap().answers.len(), 1);
//!
//! // The writer mutates and publishes the next epoch; the pinned snapshot
//! // is untouched and keeps answering at epoch 0.
//! writer.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
//! writer.publish();
//! assert_eq!(snapshot.epoch(), 0);
//! assert_eq!(handle.current().epoch(), 1);
//! assert_eq!(handle.current().query(&query).unwrap().answers.len(), 2);
//! ```

use crate::ambient::{check_deadline, counters};
use crate::error::EngineError;
use crate::ground::GroundProgram;
use crate::grounder::relevant_ground;
use crate::horn::EvalOptions;
use crate::join::{Frame, RulePlan, Step};
use crate::magic_eval::{
    normalize_pattern, EvalStats, ModelSource, ProgramIndex, QueryEvaluator, Table, Tables,
};
use crate::modular::{figure1_procedure, ModularOutcome};
use crate::plan::{PlanStrategy, QueryPlan};
use crate::session::{HiLogDb, QueryAnswer, QueryResult, Semantics};
use crate::stable::stable_models_of_ground;
use crate::storage::{RelationStorageStats, StorageConfig};
use crate::wfs::checked_well_founded_eval;
use hilog_core::unify::match_with;
use hilog_core::{Literal, Model, Program, Query, Rule, Substitution, Term, Truth, Var};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Reads a possibly poisoned lock.  Every critical section in this module
/// either only swaps `Arc`s or leaves the caches in a consistent (possibly
/// merely colder) state on unwind, so a poisoned lock is safe to keep using.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Writes a possibly poisoned lock; see [`read_lock`].
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Locks a possibly poisoned mutex; see [`read_lock`].
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The owner's lock-free access: `&mut` proves nobody else holds the lock,
/// so the session's mutation paths never pay for it.  Poison is ignored for
/// the reason given at [`read_lock`].
pub(crate) fn lock_mut<T>(lock: &mut RwLock<T>) -> &mut T {
    lock.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// A cache the writer edits in place — the program index, the table arena
/// — as a snapshot holds it: the version in use, shared by `Arc` with every
/// snapshot published since, and on a session's working snapshot its
/// *twin*, the version the snapshot before the last publish shared.
///
/// Left-right (Ramalhete and Correia, 2015) for a single writer.  A publish
/// shares the working version, so the writer's first edit after it cannot
/// be made in place.  By then the previous snapshot has usually been
/// dropped, and the twin it shared differs from the working version by one
/// batch, which the working version logged ([`CatchUp`]).
/// [`make_mut`](Twinned::make_mut) replays that batch onto the twin and
/// swaps the two.  It copies the working version whole only when there is
/// no twin to take back — none yet, or a reader still pins it — or when the
/// working version logged nothing, having been taken over whole (an index
/// a reader built).
#[derive(Debug, Default)]
pub(crate) struct Twinned<T> {
    current: Arc<T>,
    twin: Option<Arc<T>>,
    /// Whole copies [`make_mut`](Twinned::make_mut) made.
    #[cfg(test)]
    copies: usize,
}

/// A cache that logs its edits while it has a twin, so that the twin can be
/// brought up to it instead of being dropped for a copy.
pub(crate) trait CatchUp: Clone {
    /// Logs every edit from now on, against the content as it stands.
    fn start_log(&mut self);
    /// Makes `self`, the content `newer` had when it started its log, equal
    /// to `newer` by what that log holds; `false`, with `self` untouched,
    /// if `newer` keeps no log.
    fn catch_up(&mut self, newer: &Self) -> bool;
}

/// What a cache has logged of its edits for its twin: nothing while it has
/// none.  A clone has none, so its log starts empty.
#[derive(Debug)]
pub(crate) struct Log<L>(pub(crate) Option<L>);

impl<L> Default for Log<L> {
    fn default() -> Self {
        Log(None)
    }
}

impl<L> Clone for Log<L> {
    fn clone(&self) -> Self {
        Log(None)
    }
}

impl<T> Twinned<T> {
    pub(crate) fn new(value: T) -> Self {
        Twinned::from_arc(Arc::new(value))
    }

    fn from_arc(current: Arc<T>) -> Self {
        Twinned {
            current,
            twin: None,
            #[cfg(test)]
            copies: 0,
        }
    }

    /// The version in use, shared.
    pub(crate) fn share(&self) -> Arc<T> {
        Arc::clone(&self.current)
    }

    /// What a published snapshot holds: the version in use, and no twin.
    pub(crate) fn fork(&self) -> Self {
        Twinned::from_arc(self.share())
    }
}

impl<T> std::ops::Deref for Twinned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.current
    }
}

/// The one copy-on-write door to the caches a snapshot edits.
impl<T: CatchUp> Twinned<T> {
    /// The version in use, made the writer's own: in place if nothing else
    /// holds it; otherwise the twin, caught up, if no reader pins it; and
    /// only otherwise a whole copy.  The version it replaces becomes the
    /// twin.
    pub(crate) fn make_mut(&mut self) -> &mut T {
        if Arc::get_mut(&mut self.current).is_none() {
            let (replaced, _copied) = Self::take_over(&mut self.current, self.twin.take());
            #[cfg(test)]
            {
                self.copies += usize::from(_copied);
            }
            self.twin = Some(replaced);
        }
        Arc::get_mut(&mut self.current).expect("held alone")
    }

    /// Puts a version the caller holds alone in the place of `current`,
    /// which something else holds: `twin` caught up to `current`, if no one
    /// else holds `twin` and `current` logged what it takes; otherwise a
    /// whole copy.  The new version logs its edits from here on.  Returns
    /// the version it replaced, and whether it had to copy.  The arena's
    /// door to one table ([`Tables::table_mut`]) goes through here too.
    pub(crate) fn take_over(current: &mut Arc<T>, twin: Option<Arc<T>>) -> (Arc<T>, bool) {
        let newer = &*current;
        let caught_up =
            twin.and_then(|mut twin| Arc::get_mut(&mut twin)?.catch_up(newer).then_some(twin));
        let copied = caught_up.is_none();
        let mine = caught_up.unwrap_or_else(|| Arc::new(T::clone(newer)));
        let replaced = std::mem::replace(current, mine);
        Arc::get_mut(current).expect("just made").start_log();
        (replaced, copied)
    }

    /// A published snapshot's door: it keeps no twin, so the first merge
    /// into a map the writer still shares copies it, and the copy is the
    /// snapshot's alone from then on.
    pub(crate) fn copy_mut(&mut self) -> &mut T {
        Arc::make_mut(&mut self.current)
    }
}

/// The lazily fillable caches of a snapshot, guarded together: the model
/// routes fill them in dependency order (grounding before model before
/// stable models) under one write lock, so concurrent first-readers do the
/// expensive work once instead of racing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapCore {
    /// Relevant instantiation of the program, grounded cold by the first
    /// route that needs it.  Resident on every backend, with its
    /// possibly-true store.
    pub(crate) ground: Option<Arc<GroundProgram>>,
    /// Full model under the snapshot's semantics: exact for `program`, or
    /// absent.  The owning session never edits any of these caches: every
    /// mutation resets the whole `SnapCore`, and the next route that needs
    /// the model grounds the program and evaluates it once.
    pub(crate) model: Option<Arc<Model>>,
    /// Stable models (filled by [`DbSnapshot::stable_models`]).
    pub(crate) stable: Option<Arc<Vec<Model>>>,
    /// Figure 1 outcome (filled by [`DbSnapshot::check_modular`]).
    pub(crate) modular: Option<Arc<ModularOutcome>>,
}

/// A view of the database whose query routes all take `&self`: either the
/// working state a [`HiLogDb`] owns and mutates, or an immutable copy of it
/// published at one epoch.
///
/// The type is `Send + Sync`: wrap it in an `Arc` (which is what
/// [`SnapshotHandle::current`] hands out) and share it across as many reader
/// threads as you like.  `snapshot.rs`' module documentation has the overall
/// shape.
#[derive(Debug)]
pub struct DbSnapshot {
    /// The program, `Arc`d so a published copy shares it with the session;
    /// the session mutates through `Arc::make_mut` (copy-on-write: the clone
    /// happens only while a published snapshot still holds the previous
    /// version).  The clone is shallow — the rule list is a persistent
    /// sequence of `Arc`d chunks — so a batch un-shares the chunks it
    /// edits and this snapshot keeps the rest in common with every later
    /// epoch.  Every heavyweight cache below is `Arc`d for the same reason:
    /// the grounding and the model are never edited (a write drops them),
    /// the table arena and the program index catch up their twin
    /// ([`Twinned`]).  The session's fact multiset is deliberately *not*
    /// here: only mutations read it.
    pub(crate) program: Arc<Program>,
    pub(crate) opts: EvalOptions,
    pub(crate) semantics: Semantics,
    /// Publication counter: 0 for a session's working state and for the
    /// snapshot [`HiLogDb::into_serving`] publishes, +1 per
    /// [`DbWriter::publish`].
    epoch: u64,
    /// Lazily fillable model-side caches (interior mutability: the routes
    /// take `&self`).
    pub(crate) core: RwLock<SnapCore>,
    /// Completed subgoal tables of the query-directed evaluator, keyed
    /// structurally by their normalised subgoal pattern and extended by the
    /// queries answered on this snapshot.  The read routes only ever *add*
    /// tables — under a frozen program a completed table cannot go stale;
    /// the owning session patches and drops them as it mutates the program.
    /// The map is `Arc`d: a cold query seeds its evaluator with one `Arc`
    /// bump, and a fork shares it with the published copy.  The writer edits
    /// it through [`Twinned::make_mut`]: its first table write after a
    /// publish takes back the twin the snapshot before last held, caught up
    /// from the last batch, and copies the map only while a reader pins that
    /// twin.  A published snapshot copies the map when it merges into it
    /// while another holder shares it (the writer, or another reader's
    /// evaluator).
    pub(crate) tables: RwLock<Twinned<Tables>>,
    /// Of a *published* snapshot, the tables
    /// [`merge_tables`](DbSnapshot::merge_tables) has inserted since the
    /// fork (or since the writer last asked), written under the write lock
    /// of `tables`: the writer adopts exactly these instead of probing its
    /// map for every table the snapshot holds.  `None` for a session's
    /// working snapshot, whose map is the writer's own.
    merged: Option<Mutex<Vec<Arc<Table>>>>,
    /// The program as the tabled evaluator reads it (facts in an indexed
    /// store, rules by head): `None` until the first tabled query that
    /// misses the warm path builds it, then shared by `Arc` with every
    /// published copy and maintained by the owning session's mutations, in
    /// place or in its caught-up twin, like `tables`.  Always describes
    /// exactly `program`.
    pub(crate) index: RwLock<Option<Twinned<ProgramIndex>>>,
    /// Relation-storage backend of the program index's facts (every other
    /// store is resident).
    pub(crate) storage: StorageConfig,
}

impl DbSnapshot {
    /// A cold working snapshot; what
    /// [`crate::session::HiLogDbBuilder::build`] wraps.
    pub(crate) fn new(
        program: Program,
        opts: EvalOptions,
        semantics: Semantics,
        storage: StorageConfig,
    ) -> Self {
        DbSnapshot {
            program: Arc::new(program),
            opts,
            semantics,
            epoch: 0,
            core: RwLock::default(),
            tables: RwLock::default(),
            merged: None,
            index: RwLock::new(None),
            storage,
        }
    }

    /// Publishes the working state at `epoch`: an `Arc`-sharing copy of the
    /// program and every cache.
    pub(crate) fn fork(&mut self, epoch: u64) -> DbSnapshot {
        // What the session's table maintenance relies on, checked at every
        // publish wherever debug assertions run: the map holds complete
        // tables only, every table a table read is in it too — the tables of
        // the head instances a non-ground table was re-derived at included —
        // and its edges are those of a map rebuilt from its tables.  (The
        // pass treats a missing dependency as changed — a fallback for a
        // map that came in that way, not a state it produces.)
        #[cfg(debug_assertions)]
        {
            let tables = lock_mut(&mut self.tables);
            assert!(tables
                .iter()
                .all(|(_, t)| t.complete && t.deps.keys().all(|dep| tables.contains_key(dep))));
            tables.assert_describes();
        }
        DbSnapshot {
            program: self.program.clone(),
            opts: self.opts,
            semantics: self.semantics,
            epoch,
            core: RwLock::new(lock_mut(&mut self.core).clone()),
            tables: RwLock::new(lock_mut(&mut self.tables).fork()),
            merged: Some(Mutex::default()),
            index: RwLock::new(lock_mut(&mut self.index).as_ref().map(Twinned::fork)),
            storage: self.storage.clone(),
        }
    }

    /// The program this snapshot answers from.
    pub fn program(&self) -> &Program {
        self.program.as_ref()
    }

    /// The snapshot's evaluation limits.
    pub fn options(&self) -> EvalOptions {
        self.opts
    }

    /// The semantics queries are answered under.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// The publication epoch: 0 for the initial snapshot, incremented by
    /// every [`DbWriter::publish`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of completed subgoal tables currently held (seeded plus
    /// derived by queries on this snapshot).  O(1): the map only ever holds
    /// complete tables (an evaluator hands back nothing else), so this is
    /// its length.
    pub fn cached_subqueries(&self) -> usize {
        read_lock(&self.tables).len()
    }

    /// Number of distinct ground facts in the tabled evaluator's program
    /// index; 0 while no query has built it.
    pub fn indexed_facts(&self) -> usize {
        read_lock(&self.index)
            .as_ref()
            .map_or(0, |index| index.fact_count())
    }

    /// Aggregate relation-storage statistics over this snapshot's stores:
    /// the grounding's (resident) store, the program index's fact store
    /// (when a tabled query has built it) and every subgoal table's answer
    /// store.  Only the program index's facts can page; under
    /// [`StorageConfig::InMemory`] everything is resident and the spill
    /// fields are zero.  O(#tables) — kept off the query path of
    /// published snapshots.
    pub fn storage_stats(&self) -> RelationStorageStats {
        let mut total = RelationStorageStats::default();
        if let Some(ground) = &read_lock(&self.core).ground {
            total.merge(&ground.possibly_true().storage_stats());
        }
        if let Some(index) = &*read_lock(&self.index) {
            total.merge(&index.storage_stats());
        }
        for (_, table) in read_lock(&self.tables).iter() {
            total.merge(&table.answers.storage_stats());
        }
        total
    }

    /// Builds the plan [`query`](DbSnapshot::query) would execute, without
    /// evaluating anything.
    pub fn explain(&self, query: &Query) -> QueryPlan {
        QueryPlan::new(query, self.semantics)
    }

    /// Answers a query through the plan [`explain`](DbSnapshot::explain)
    /// chooses, reusing (and warming) every cache the snapshot holds.
    pub fn query(&self, query: &Query) -> Result<QueryResult, EngineError> {
        let plan = self.explain(query);
        // Table-maintenance observability: how many tables were available
        // for reuse when this query started.
        let tables_reused = self.cached_subqueries();
        // What this query counts outside its evaluator lands in this
        // thread's counters: the difference of two reads is the query's.
        let before = counters();
        let mut result = match plan.strategy {
            PlanStrategy::MagicSets => match self.query_magic(query) {
                Ok((answers, stats)) => assemble(answers, stats, plan, None),
                Err(
                    err @ (EngineError::NotModularlyStratified(_) | EngineError::Floundering(_)),
                ) => {
                    // The tabled route cannot settle this query; the
                    // bottom-up well-founded construction still can, unless
                    // the program aggregates (no grounding holds that).
                    if self.program.has_aggregate() {
                        return Err(err);
                    }
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
        result.stats.tables_reused = tables_reused;
        result.stats.absorb(counters() - before);
        result.stats.live_symbols = hilog_core::symbol_pool_len();
        Ok(result)
    }

    /// Three-valued truth of a single ground atom under the snapshot's
    /// semantics.
    pub fn holds(&self, atom: &Term) -> Result<Truth, EngineError> {
        Ok(self.query(&holds_query(atom)?)?.truth)
    }

    /// The full model under the snapshot's semantics, building (and caching
    /// in the snapshot) on first use.  For [`Semantics::Stable`] this is the
    /// consensus model of Definition 3.7; for [`Semantics::ModularCheck`] it
    /// is the Figure 1 model (or an error if the program is rejected).
    /// Errors are not cached: a failed build is retried by the next caller,
    /// exactly like a fresh session.
    pub fn model(&self) -> Result<Arc<Model>, EngineError> {
        self.model_impl().map(|(model, _, _)| model)
    }

    /// The stable models of the program (computing them on first use),
    /// regardless of the snapshot's query semantics.
    pub fn stable_models(&self) -> Result<Arc<Vec<Model>>, EngineError> {
        if let Some(stable) = &read_lock(&self.core).stable {
            return Ok(stable.clone());
        }
        let mut core = write_lock(&self.core);
        self.ensure_stable_locked(&mut core)
    }

    /// Runs (and caches) the Figure 1 modular-stratification procedure.
    pub fn check_modular(&self) -> Result<Arc<ModularOutcome>, EngineError> {
        if let Some(modular) = &read_lock(&self.core).modular {
            return Ok(modular.clone());
        }
        let mut core = write_lock(&self.core);
        self.ensure_modular_locked(&mut core)
    }

    // The working snapshot's caches for the session that owns it: filled
    // on first use like any reader's, then borrowed through the exclusive
    // `&mut self`, without a lock.  The session itself only ever resets
    // them whole.

    /// The grounding, grounding on first use.
    pub(crate) fn owned_ground(&mut self) -> Result<&GroundProgram, EngineError> {
        self.ensure_ground_locked(&mut write_lock(&self.core))?;
        let core = lock_mut(&mut self.core);
        Ok(core.ground.as_deref().expect("just grounded"))
    }

    /// The model; see [`Self::model`].
    pub(crate) fn owned_model(&mut self) -> Result<&Model, EngineError> {
        self.model()?;
        let core = lock_mut(&mut self.core);
        Ok(core.model.as_deref().expect("just built"))
    }

    /// The stable models; see [`Self::stable_models`].
    pub(crate) fn owned_stable_models(&mut self) -> Result<&[Model], EngineError> {
        self.stable_models()?;
        let core = lock_mut(&mut self.core);
        Ok(core.stable.as_deref().expect("just computed"))
    }

    /// The Figure 1 outcome; see [`Self::check_modular`].
    pub(crate) fn owned_modular(&mut self) -> Result<&ModularOutcome, EngineError> {
        self.check_modular()?;
        let core = lock_mut(&mut self.core);
        Ok(core.modular.as_deref().expect("just checked"))
    }

    /// The tabled evaluator's view of the program, built on first use.
    /// Double-checked like the model: the warm path is one read lock, and
    /// concurrent first-readers build the index once.
    pub(crate) fn program_index(&self) -> Arc<ProgramIndex> {
        if let Some(index) = &*read_lock(&self.index) {
            return index.share();
        }
        write_lock(&self.index)
            .get_or_insert_with(|| Twinned::new(ProgramIndex::build(&self.program, &self.storage)))
            .share()
    }

    /// Magic-sets route: tabled evaluation seeded with the snapshot's
    /// completed tables; the tables it completes merge back into the
    /// snapshot.
    fn query_magic(&self, query: &Query) -> Result<(Vec<QueryAnswer>, EvalStats), EngineError> {
        let vars = query.variables();
        // Fast path: a single-atom query whose table is already complete is
        // answered under the read lock alone — no evaluator is built and
        // the program index is not touched (or built); the path concurrent
        // readers hammering the same warm query stay on.  Sound because a
        // complete table's recorded dependency closure is settled and
        // cycle-free, so a cold evaluation of the same pattern would reach
        // the same answers and the same (non-)verdict.
        if let [Literal::Pos(atom)] = query.literals.as_slice() {
            let key = normalize_pattern(atom);
            let hit = read_lock(&self.tables)
                .get(&key)
                .filter(|t| t.complete)
                .cloned();
            if let Some(table) = hit {
                // One binding buffer, cleared per answer: an answer costs
                // its own `bindings` vector and nothing else.
                let mut answers = Vec::with_capacity(table.answers.len());
                let mut theta = Substitution::new();
                for answer in table.answers.iter() {
                    theta.clear();
                    if match_with(atom, answer, &mut theta) {
                        answers.push(true_answer(&theta, &vars));
                    }
                }
                let stats = EvalStats {
                    cached_subqueries: 1,
                    ..EvalStats::default()
                };
                return Ok((answers, stats));
            }
        }
        // Seeding shares the map: one `Arc` bump, however many tables it
        // holds.  The evaluator writes only the tables it creates.
        let mut evaluator = QueryEvaluator::over(
            self.program_index(),
            self.opts,
            read_lock(&self.tables).share(),
        );
        let solved = evaluator.answer_query(query);
        // The evaluator counts only the tables it created, so the stats
        // cover this query alone.
        let stats = evaluator.stats();
        // Tables completed before a failure are still valid and are kept;
        // only the new ones come back, so the write lock is held for
        // O(new tables), not O(all tables).  `into_tables` drops the
        // evaluator's share of the map before the merge takes the lock: a
        // reader alone on this snapshot merges in place, without a copy.
        self.merge_tables(evaluator.into_tables().into_values());
        let answers = solved?
            .iter()
            .map(|theta| true_answer(theta, &vars))
            .collect();
        Ok((answers, stats))
    }

    /// Full-model route: match the query against the (lazily built) model.
    fn query_full(&self, query: &Query) -> Result<(Vec<QueryAnswer>, EvalStats), EngineError> {
        let (model, model_source, groundings) = self.model_impl()?;
        let answers = eval_against_model(&model, query)?;
        let stats = EvalStats {
            answers: answers.len(),
            groundings,
            model_source,
            ..EvalStats::default()
        };
        Ok((answers, stats))
    }

    /// The exact model plus how it was obtained — reused as-is or rebuilt
    /// (after any write the grounding is gone with the model, so a rebuild
    /// grounds cold and runs one evaluation) — and how many grounding
    /// passes the call performed.  Double-checked: the warm path is one read lock; anything
    /// else computes under the write lock, so concurrent first-readers build
    /// the model once and the rest reuse it.
    fn model_impl(&self) -> Result<(Arc<Model>, ModelSource, usize), EngineError> {
        let cached = |core: &SnapCore| Some((core.model.clone()?, ModelSource::Cached, 0));
        if let Some(hit) = cached(&read_lock(&self.core)) {
            return Ok(hit);
        }
        let mut guard = write_lock(&self.core);
        let core = &mut *guard;
        // Another reader may have built it between our two lock acquisitions.
        if let Some(hit) = cached(core) {
            return Ok(hit);
        }
        // The grounding looks at the deadline at each new atom and the
        // well-founded evaluation at each component; Figure 1 per round.
        let mut groundings = 0;
        let model = match self.semantics {
            Semantics::WellFounded => {
                groundings += self.ensure_ground_locked(core)?;
                checked_well_founded_eval(core.ground.as_deref().expect("just grounded"))?
            }
            Semantics::Stable => {
                groundings += self.ensure_ground_locked(core)?;
                let stable = self.ensure_stable_locked(core)?;
                consensus_model(&stable)?
            }
            Semantics::ModularCheck => {
                let outcome = self.ensure_modular_locked(core)?;
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
        let model = Arc::new(model);
        core.model = Some(model.clone());
        Ok((model, ModelSource::Rebuilt, groundings))
    }

    /// Fills the grounding under the held write lock; returns the number of
    /// grounding passes performed (0 if it was already warm).
    fn ensure_ground_locked(&self, core: &mut SnapCore) -> Result<usize, EngineError> {
        if core.ground.is_some() {
            return Ok(0);
        }
        // In memory on every backend: its store numbers its rules.
        core.ground = Some(Arc::new(relevant_ground(&self.program, self.opts)?));
        Ok(1)
    }

    /// Fills (and returns) the stable models under the held write lock.
    fn ensure_stable_locked(&self, core: &mut SnapCore) -> Result<Arc<Vec<Model>>, EngineError> {
        if let Some(stable) = &core.stable {
            return Ok(stable.clone());
        }
        self.ensure_ground_locked(core)?;
        check_deadline()?;
        let ground = core.ground.as_deref().expect("just grounded");
        let stable = Arc::new(stable_models_of_ground(ground, self.opts)?);
        core.stable = Some(stable.clone());
        Ok(stable)
    }

    /// Fills (and returns) the Figure 1 outcome under the held write lock.
    fn ensure_modular_locked(
        &self,
        core: &mut SnapCore,
    ) -> Result<Arc<ModularOutcome>, EngineError> {
        if let Some(modular) = &core.modular {
            return Ok(modular.clone());
        }
        let modular = Arc::new(figure1_procedure(&self.program, self.opts)?);
        core.modular = Some(modular.clone());
        Ok(modular)
    }

    /// Merges completed tables into the snapshot's map, filling gaps only
    /// ([`Tables::fill`]): what a query completed, or what the writer adopts
    /// from a published snapshot.
    pub(crate) fn merge_tables(&self, fresh: impl IntoIterator<Item = Arc<Table>>) {
        let mut fresh = fresh.into_iter().peekable();
        if fresh.peek().is_none() {
            return;
        }
        let mut shared = write_lock(&self.tables);
        match &self.merged {
            Some(merged) => {
                let mut merged = lock(merged);
                (shared.copy_mut()).fill(fresh, |table| merged.push(table.clone()));
            }
            None => shared.make_mut().fill(fresh, |_| {}),
        }
    }

    /// The tables merged into this published snapshot since it was forked
    /// or since the last call: each is handed out once.
    pub(crate) fn take_merged_tables(&self) -> Vec<Arc<Table>> {
        (self.merged.as_ref()).map_or_else(Vec::new, |merged| std::mem::take(&mut *lock(merged)))
    }
}

/// The query [`DbSnapshot::holds`] (and the session's) asks for a ground
/// atom.
pub(crate) fn holds_query(atom: &Term) -> Result<Query, EngineError> {
    if !atom.is_ground() {
        return Err(EngineError::Floundering(format!(
            "holds() requires a ground atom, got `{atom}`"
        )));
    }
    Ok(Query::atom(atom.clone()))
}

fn assemble(
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

fn true_answer(theta: &Substitution, vars: &[Var]) -> QueryAnswer {
    QueryAnswer {
        bindings: vars
            .iter()
            .map(|v| (v.clone(), theta.apply(&Term::Var(v.clone()))))
            .collect(),
        truth: Truth::True,
    }
}

/// Three-valued conjunctive evaluation of a query against a model: the
/// query's plan walked left to right, depth first, over one frame.  A path
/// carries the weakest truth of its literals, a false literal ends it, and
/// each answer keeps the strongest truth of its paths.
fn eval_against_model(model: &Model, query: &Query) -> Result<Vec<QueryAnswer>, EngineError> {
    let plan = RulePlan::compile(&query.as_answer_rule());
    let mut walk = ModelWalk {
        model,
        plan: &plan,
        frame: plan.frame(),
        vars: query.variables(),
        answers: BTreeMap::new(),
        error: None,
    };
    walk.step(0, Truth::True);
    if let Some((_, error)) = walk.error {
        return Err(error);
    }
    let answer = |(bindings, truth)| QueryAnswer { bindings, truth };
    Ok(walk.answers.into_iter().map(answer).collect())
}

/// One [`eval_against_model`] walk: the answers so far, and the error at
/// the earliest literal a path errs at (the one a literal-by-literal walk
/// meets first).
struct ModelWalk<'a> {
    model: &'a Model,
    plan: &'a RulePlan,
    frame: Frame,
    vars: Vec<Var>,
    answers: BTreeMap<Vec<(Var, Term)>, Truth>,
    error: Option<(usize, EngineError)>,
}

impl ModelWalk<'_> {
    /// Walks on from literal `at` along a path of truth `truth`.
    fn step(&mut self, at: usize, truth: Truth) {
        if self.error.as_ref().is_some_and(|(first, _)| *first <= at) {
            return;
        }
        let (plan, model) = (self.plan, self.model);
        // The path's truth once a literal of truth `t`, not false, joins it.
        let and = |t| if t == Truth::Undefined { t } else { truth };
        let error = match plan.body.get(at) {
            None => {
                let theta = self.frame.bindings(plan);
                let value = |v: &Var| (v.clone(), theta.apply(&Term::Var(v.clone())));
                let best =
                    (self.answers.entry(self.vars.iter().map(value).collect())).or_insert(truth);
                if truth == Truth::True {
                    *best = truth;
                }
                return;
            }
            Some(Step::Pos(pat)) => {
                let atom = self.frame.instantiate(pat);
                if atom.is_ground() {
                    match model.truth(&atom) {
                        Truth::False => {}
                        t => self.step(at + 1, and(t)),
                    }
                    return;
                }
                // Ground-named patterns walk only the name's contiguous
                // range of the ordered base.
                for candidate in model.base_candidates(&atom) {
                    let t = model.truth(candidate);
                    let mark = self.frame.mark();
                    if t != Truth::False && self.frame.unify_pat(pat, candidate) {
                        self.step(at + 1, and(t));
                    }
                    self.frame.undo(mark);
                }
                return;
            }
            Some(Step::Neg(pat)) => {
                let atom = self.frame.instantiate(pat);
                if atom.is_ground() {
                    match model.truth(&atom) {
                        Truth::True => {}
                        t => self.step(at + 1, and(t)),
                    }
                    return;
                }
                let literal = plan.rule.body[at].apply(&self.frame.bindings(plan));
                EngineError::Floundering(format!(
                    "negative literal `{literal}` is non-ground when selected (bind its \
                     variables with an earlier positive literal)"
                ))
            }
            Some(Step::Builtin(op, left, right)) => {
                let mark = self.frame.mark();
                let holds = self.frame.eval_builtin(plan, *op, left, right);
                if let Ok(true) = holds {
                    self.step(at + 1, truth);
                }
                self.frame.undo(mark);
                match holds {
                    Ok(_) => return,
                    Err(error) => error,
                }
            }
            Some(Step::Aggregate(_)) => EngineError::Unsupported(
                "aggregate literals in full-model query evaluation are unsupported; ask a \
                 bound query (magic-sets plan) or use the aggregation evaluator"
                    .into(),
            ),
        };
        self.error = Some((at, error));
    }
}

/// The consensus model of Definition 3.7 over the stable models of one
/// grounding, which share one base (the atoms its rules mention): an atom
/// keeps the value every model gives it, and is undefined where they
/// disagree.  Each atom is decided once, reading every model, and looks at
/// the deadline.
fn consensus_model(models: &[Model]) -> Result<Model, EngineError> {
    let first = models.first().ok_or(EngineError::NoStableModels)?;
    debug_assert!(models
        .iter()
        .all(|m| m.base().iter().eq(first.base().iter())));
    let mut consensus = Model::empty();
    for atom in first.base() {
        check_deadline()?;
        let truth = first.truth(atom);
        let agreed = models.iter().all(|m| m.truth(atom) == truth);
        consensus.insert(atom.clone(), if agreed { truth } else { Truth::Undefined });
    }
    Ok(consensus)
}

/// The cloneable reader endpoint: pins the most recently published
/// [`DbSnapshot`].  Cheap to clone (one `Arc`), `Send + Sync`, and valid for
/// as long as any writer or other handle exists.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    cell: Arc<RwLock<Arc<DbSnapshot>>>,
}

impl SnapshotHandle {
    /// The most recently published snapshot.  The critical section is one
    /// `Arc` clone — nanoseconds — so readers effectively never contend with
    /// the writer's swap; the returned snapshot stays valid (and unchanged,
    /// epoch included) for as long as the caller holds it.
    pub fn current(&self) -> Arc<DbSnapshot> {
        read_lock(&self.cell).clone()
    }
}

/// The single-writer half of the serving split: owns the [`HiLogDb`] and
/// with it the incremental mutation path, and publishes [`DbSnapshot`]s.
///
/// Mutations accumulate into the current batch; nothing is visible to
/// readers until [`publish`](DbWriter::publish) swaps the next snapshot into
/// the shared cell.  `snapshot.rs`' module documentation has the overall
/// shape.
#[derive(Debug)]
pub struct DbWriter {
    db: HiLogDb,
    /// Epoch of the most recently published snapshot.
    epoch: u64,
    /// The session's mutation generation when the current snapshot was
    /// published.  While the session is still at it, the writer's program
    /// is exactly the published snapshot's — the one condition under which
    /// reader-computed tables are sound to adopt.  Every mutation moves the
    /// session past it, however it is reached (the writer's wrappers or
    /// [`db`](DbWriter::db)); reads never do.
    published_generation: u64,
    handle: SnapshotHandle,
}

impl DbWriter {
    /// Splits a session into the serving pair, publishing its current state
    /// as the snapshot of `epoch`.  (Reachable as [`HiLogDb::into_serving`]
    /// at epoch 0 and [`HiLogDb::into_serving_at`]; the recovery path of the
    /// durable storage layer uses the latter so a session rebuilt from
    /// checkpoint + WAL resumes at the epoch it went down with.)
    pub(crate) fn from_db_at(mut db: HiLogDb, epoch: u64) -> (DbWriter, SnapshotHandle) {
        let snapshot = Arc::new(db.working().fork(epoch));
        let handle = SnapshotHandle {
            cell: Arc::new(RwLock::new(snapshot)),
        };
        let writer = DbWriter {
            published_generation: db.generation(),
            db,
            epoch,
            handle: handle.clone(),
        };
        (writer, handle)
    }

    /// A serving pair over `program` with default options and well-founded
    /// semantics.
    pub fn new(program: Program) -> (DbWriter, SnapshotHandle) {
        HiLogDb::new(program).into_serving()
    }

    /// A fresh reader endpoint (equivalent to cloning any existing one).
    pub fn handle(&self) -> SnapshotHandle {
        self.handle.clone()
    }

    /// The most recently published snapshot.
    pub fn current(&self) -> Arc<DbSnapshot> {
        self.handle.current()
    }

    /// Epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The writer's program, **including unpublished batch mutations**.
    pub fn program(&self) -> &Program {
        self.db.program()
    }

    /// The semantics queries are answered under.
    pub fn semantics(&self) -> Semantics {
        self.db.semantics()
    }

    /// Adopts the tables reader queries computed on the published snapshot
    /// (and the program index, if a reader built it), if the session has
    /// not been mutated since it was published: the writer's program is
    /// then still exactly the snapshot's, so its completed tables are valid
    /// session tables — and once adopted they (and the index) are
    /// *maintained* through later mutations like anything the session
    /// computed itself.
    fn adopt_reader_tables(&mut self) {
        if self.db.generation() == self.published_generation {
            let published = self.current();
            // What readers added, not what the map holds.
            (self.db.working()).merge_tables(published.take_merged_tables());
            // The same condition makes a reader-built program index the
            // writer's: without it every publish would hand readers a
            // snapshot that has to index the whole program again.
            let index = lock_mut(&mut self.db.working().index);
            if index.is_none() {
                *index = read_lock(&published.index).as_ref().map(Twinned::fork);
            }
        }
    }

    /// Asserts a ground fact into the current batch (see
    /// [`HiLogDb::assert_fact`]).  Not visible to readers until
    /// [`publish`](DbWriter::publish).  The model-side caches are dropped
    /// here; the subgoal tables are not touched yet — the change is queued,
    /// and the batch's fact-level changes are folded into them together, in
    /// one pass, by [`publish`](DbWriter::publish) (or by
    /// [`db`](DbWriter::db), or by the next rule-level mutation, whichever
    /// comes first).
    pub fn assert_fact(&mut self, fact: Term) -> Result<(), EngineError> {
        self.adopt_reader_tables();
        self.db.assert_fact_unsettled(fact)
    }

    /// Retracts one occurrence of a ground fact in the current batch (see
    /// [`HiLogDb::retract_fact`]); the subgoal tables are settled with the
    /// batch, as for [`assert_fact`](DbWriter::assert_fact).
    pub fn retract_fact(&mut self, fact: &Term) -> bool {
        self.adopt_reader_tables();
        self.db.retract_fact_unsettled(fact)
    }

    /// Asserts a rule into the current batch (see [`HiLogDb::assert_rule`]).
    pub fn assert_rule(&mut self, rule: Rule) {
        self.adopt_reader_tables();
        self.db.assert_rule(rule)
    }

    /// Retracts the first matching rule in the current batch (see
    /// [`HiLogDb::retract_rule`]).
    pub fn retract_rule(&mut self, rule: &Rule) -> bool {
        self.adopt_reader_tables();
        self.db.retract_rule(rule)
    }

    /// Direct access to the underlying session — the escape hatch for routes
    /// without a writer wrapper ([`HiLogDb::stable_models`], …).  The
    /// subgoal tables are settled under the batch so far before the session
    /// is handed out, so it never answers (or explains) from a stale table.
    /// Reading through it leaves the batch as it is; mutating through it
    /// opens the batch exactly like the writer's own wrappers — the tables
    /// readers completed on the published snapshot are adopted first, while
    /// the programs are still the same, because a mutation closes that
    /// window for the epoch — settling the tables per mutation.
    pub fn db(&mut self) -> &mut HiLogDb {
        self.adopt_reader_tables();
        self.db.settle_tables();
        &mut self.db
    }

    /// Publishes the session's current state as the next snapshot and swaps
    /// it into the shared cell; readers see it on their next
    /// [`SnapshotHandle::current`] call, while already pinned snapshots are
    /// untouched.  A mutation-free publish first adopts the tables reader
    /// queries computed on the outgoing snapshot (the programs are
    /// identical), so warmth accumulates across epochs instead of resetting.
    /// A publish after mutations first settles the subgoal tables under the
    /// batch's fact-level changes — one pass for the batch, on the writer's
    /// side, re-solving the tables whose answers the batch can have changed
    /// — so the snapshot readers get holds no stale table and (resource
    /// limits permitting) no missing one.
    pub fn publish(&mut self) -> Arc<DbSnapshot> {
        self.adopt_reader_tables();
        self.db.settle_tables();
        self.epoch += 1;
        let snapshot = Arc::new(self.db.working().fork(self.epoch));
        *write_lock(&self.handle.cell) = snapshot.clone();
        self.published_generation = self.db.generation();
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_syntax::{parse_program, parse_query, parse_term};
    use std::collections::BTreeSet;

    fn game() -> Program {
        parse_program(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             move(a, b). move(b, c).",
        )
        .unwrap()
    }

    #[test]
    fn serving_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DbSnapshot>();
        assert_send_sync::<Arc<DbSnapshot>>();
        assert_send_sync::<SnapshotHandle>();
        assert_send_sync::<DbWriter>();
    }

    #[test]
    fn pinned_snapshots_answer_their_own_epoch() {
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        let pinned = handle.current();
        assert_eq!(pinned.epoch(), 0);
        let query = parse_query("?- winning(X).").unwrap();
        let before = pinned.query(&query).unwrap();
        assert_eq!(before.answers.len(), 1); // only b wins
        writer
            .assert_fact(parse_term("move(c, d)").unwrap())
            .unwrap();
        let published = writer.publish();
        assert_eq!(published.epoch(), 1);
        assert_eq!(handle.current().epoch(), 1);
        // The pinned snapshot still answers the epoch-0 state.
        assert_eq!(pinned.query(&query).unwrap().answers, before.answers);
        // The new snapshot sees the extended chain a -> b -> c -> d.
        let after = handle.current().query(&query).unwrap();
        let xs: Vec<String> = after
            .answers
            .iter()
            .map(|a| a.binding("X").unwrap().to_string())
            .collect();
        assert!(xs.contains(&"c".to_string()));
    }

    #[test]
    fn concurrent_readers_share_one_snapshot() {
        let (_writer, handle) = HiLogDb::new(game()).into_serving();
        let query = parse_query("?- winning(X).").unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let handle = handle.clone();
                let query = &query;
                s.spawn(move || {
                    let result = handle.current().query(query).unwrap();
                    assert_eq!(result.answers.len(), 1);
                    assert_eq!(result.answers[0].binding("X").unwrap(), &Term::sym("b"));
                });
            }
        });
    }

    #[test]
    fn full_model_is_built_once_per_snapshot() {
        let (_writer, handle) = HiLogDb::new(game()).into_serving();
        let snapshot = handle.current();
        let query = parse_query("?- P(a, X).").unwrap();
        let first = snapshot.query(&query).unwrap();
        assert_eq!(first.stats.groundings, 1);
        assert_eq!(first.stats.model_source, ModelSource::Rebuilt);
        let second = snapshot.query(&query).unwrap();
        assert_eq!(second.stats.groundings, 0);
        assert_eq!(second.stats.model_source, ModelSource::Cached);
    }

    #[test]
    fn reader_warmed_tables_flow_back_on_publish() {
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        let query = parse_query("?- winning(X).").unwrap();
        // Warm the tables on the *snapshot*, not the writer.
        let first = handle.current().query(&query).unwrap();
        assert!(first.stats.rule_applications > 0);
        // Reading through `db()` is not a mutation: it must not cost the
        // adoption below.
        writer
            .db()
            .query(&parse_query("?- move(a, X).").unwrap())
            .unwrap();
        // A mutation-free publish adopts them into the writer; the next
        // snapshot starts warm.
        let next = writer.publish();
        assert!(next.cached_subqueries() > 0);
        let warm = next.query(&query).unwrap();
        assert_eq!(warm.stats.rule_applications, 0, "tables were not adopted");
        assert!(warm.stats.cached_subqueries > 0);
    }

    #[test]
    fn program_index_is_built_by_the_first_cold_tabled_query_and_nothing_else() {
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        let snapshot = handle.current();
        assert_eq!(snapshot.indexed_facts(), 0);
        // Writing and publishing never ask for it ...
        writer
            .assert_fact(parse_term("move(c, d)").unwrap())
            .unwrap();
        assert_eq!(writer.publish().indexed_facts(), 0);
        // ... nor does the full-model route.
        snapshot
            .query(&parse_query("?- P(a, X).").unwrap())
            .unwrap();
        assert_eq!(snapshot.indexed_facts(), 0);
        let cold = snapshot
            .query(&parse_query("?- winning(X).").unwrap())
            .unwrap();
        assert!(cold.stats.head_unifications > 0);
        assert_eq!(snapshot.indexed_facts(), 2);
        let storage = snapshot.storage_stats();
        assert!(storage.resident_facts + storage.spilled_facts >= 2);
        // The warm repeat attempts nothing.
        let warm = snapshot
            .query(&parse_query("?- winning(X).").unwrap())
            .unwrap();
        assert_eq!(warm.stats.head_unifications, 0);
    }

    #[test]
    fn reader_built_index_is_adopted_then_maintained_copy_on_write() {
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        let published = handle.current();
        published
            .query(&parse_query("?- winning(X).").unwrap())
            .unwrap();
        let built = read_lock(&published.index).as_ref().expect("built").share();
        // The first mutation of the batch adopts the reader's index (no
        // second build), then edits its own copy of it.
        writer
            .assert_fact(parse_term("move(c, d)").unwrap())
            .unwrap();
        let maintained = lock_mut(&mut writer.db().working().index)
            .as_ref()
            .expect("adopted")
            .share();
        assert!(!Arc::ptr_eq(&built, &maintained), "edited in place");
        assert_eq!(built.fact_count(), 2);
        assert_eq!(maintained.fact_count(), 3);
        assert!(Arc::ptr_eq(
            &built,
            &read_lock(&published.index)
                .as_ref()
                .expect("still there")
                .current
        ));
        // The next epoch is published with the maintained index itself.
        let next = writer.publish();
        assert!(Arc::ptr_eq(
            &maintained,
            &read_lock(&next.index)
                .as_ref()
                .expect("carried by fork")
                .current
        ));
        // A mutation behind the writer's wrappers closes the adoption
        // window for the index exactly as for the tables.
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        writer
            .db()
            .assert_fact(parse_term("move(c, d)").unwrap())
            .unwrap();
        handle
            .current()
            .query(&parse_query("?- winning(X).").unwrap())
            .unwrap();
        assert_eq!(handle.current().indexed_facts(), 2);
        assert_eq!(writer.publish().indexed_facts(), 0, "stale index adopted");
    }

    #[test]
    fn a_cold_query_merges_only_the_tables_it_completed() {
        let (_writer, handle) = HiLogDb::new(game()).into_serving();
        let snapshot = handle.current();
        snapshot
            .query(&parse_query("?- move(a, X).").unwrap())
            .unwrap();
        let held: Tables = (**read_lock(&snapshot.tables)).clone();
        assert_eq!(held.len(), 1);
        let cold = snapshot
            .query(&parse_query("?- winning(X).").unwrap())
            .unwrap();
        let after = read_lock(&snapshot.tables);
        // Everything new is this query's; what was there is the same `Arc`.
        assert_eq!(after.len(), held.len() + cold.stats.subqueries);
        assert_eq!(cold.stats.tables_reused, held.len());
        for (key, table) in held.iter() {
            assert!(Arc::ptr_eq(table, after.get(key).unwrap()));
        }
    }

    /// The allocation behind a snapshot's table map (a raw pointer, so that
    /// asking does not share the map).
    fn map_of(snapshot: &DbSnapshot) -> *const Tables {
        Arc::as_ptr(&read_lock(&snapshot.tables).current)
    }

    /// A chain `p0 -> p1 -> ... -> p{n}` under the game rule.
    fn chain_game(n: usize) -> Program {
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for i in 0..n {
            text.push_str(&format!("move(p{i}, p{}).\n", i + 1));
        }
        parse_program(&text).unwrap()
    }

    #[test]
    fn a_cold_query_adds_its_tables_to_the_map_without_copying_it() {
        let (mut writer, handle) = HiLogDb::new(chain_game(120)).into_serving();
        let writer_map =
            |writer: &mut DbWriter| Arc::as_ptr(&lock_mut(&mut writer.db.working().tables).current);
        let snapshot = handle.current();
        assert_eq!(map_of(&snapshot), writer_map(&mut writer), "publish shares");
        // The first merge parts the reader's map from the writer's; from
        // then on one thread's cold queries add to it in place.
        let probe = |i: usize| parse_query(&format!("?- move(p{i}, Y).")).unwrap();
        snapshot.query(&probe(0)).unwrap();
        let map = map_of(&snapshot);
        for i in 1..120 {
            snapshot.query(&probe(i)).unwrap();
        }
        assert_eq!(snapshot.cached_subqueries(), 120);
        let cold = snapshot
            .query(&parse_query("?- winning(p100).").unwrap())
            .unwrap();
        assert!(cold.stats.subqueries > 0);
        assert_eq!(map_of(&snapshot), map, "a cold query copied the map");
        assert_eq!(snapshot.cached_subqueries(), 120 + cold.stats.subqueries);
        let key = normalize_pattern(&parse_term("winning(p100)").unwrap());
        assert!(read_lock(&snapshot.tables).contains_key(&key));
        // A mutation-free publish adopts them, and the next snapshot and
        // the writer share one map ...
        let next = writer.publish();
        let published = map_of(&next);
        assert_eq!(writer_map(&mut writer), published);
        assert_eq!(next.cached_subqueries(), snapshot.cached_subqueries());
        // ... until the writer's next table write, which copies it for the
        // writer and leaves the published one as it was.
        writer
            .assert_fact(parse_term("move(p120, p121)").unwrap())
            .unwrap();
        writer.db();
        assert_ne!(writer_map(&mut writer), published);
        assert_eq!(map_of(&next), published);
        assert_eq!(next.cached_subqueries(), snapshot.cached_subqueries());
    }

    #[test]
    fn concurrent_cold_readers_merge_each_table_once() {
        let program = chain_game(24);
        let mut queries: Vec<String> = (0..=24)
            .flat_map(|i| [format!("?- winning(p{i})."), format!("?- move(p{i}, Y).")])
            .collect();
        queries.push("?- winning(X).".to_string());
        let queries: Vec<Query> = queries.iter().map(|q| parse_query(q).unwrap()).collect();
        let fresh: Vec<_> = (queries.iter())
            .map(|q| HiLogDb::new(program.clone()).query(q).unwrap().answers)
            .collect();
        let (_writer, handle) = HiLogDb::new(program).into_serving();
        let snapshot = handle.current();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (snapshot, queries, fresh, barrier) = (&snapshot, &queries, &fresh, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    // Each thread starts at its own offset and half of them
                    // walk backwards, so the probes overlap cold and warm.
                    for k in 0..queries.len() {
                        let k = (k + t * queries.len() / 4) % queries.len();
                        let i = if t % 2 == 0 { k } else { queries.len() - 1 - k };
                        let served = snapshot.query(&queries[i]).unwrap();
                        assert_eq!(served.answers, fresh[i], "{}", queries[i]);
                    }
                });
            }
        });
        // Every table in the map was merged once, by the first writer for
        // its key, and is handed out once.
        let merged = snapshot.take_merged_tables();
        let map = read_lock(&snapshot.tables);
        assert_eq!(merged.len(), map.len());
        let keys: BTreeSet<&Term> = merged.iter().map(|table| &table.pattern).collect();
        assert_eq!(keys.len(), merged.len(), "a key was merged twice");
        for table in &merged {
            let key = &table.pattern;
            assert!(
                Arc::ptr_eq(table, map.get(key).unwrap()),
                "{key} was replaced"
            );
        }
        assert!(snapshot.take_merged_tables().is_empty());
    }

    /// The allocations behind a snapshot's program index and table arena.
    fn caches_of(snapshot: &DbSnapshot) -> (*const ProgramIndex, *const Tables) {
        let index = Arc::as_ptr(&read_lock(&snapshot.index).as_ref().expect("built").current);
        (index, Arc::as_ptr(&read_lock(&snapshot.tables).current))
    }

    /// Whole copies the writer's index and arena have made so far.
    fn copies(writer: &mut DbWriter) -> (usize, usize) {
        let working = writer.db.working();
        let index = lock_mut(&mut working.index).as_ref().expect("built");
        (index.copies, lock_mut(&mut working.tables).copies)
    }

    /// A chain game whose tables and program index readers built, adopted
    /// by the writer at a mutation-free publish.
    fn warm_chain_writer() -> (DbWriter, SnapshotHandle) {
        let (mut writer, handle) = HiLogDb::new(chain_game(60)).into_serving();
        for query in ["?- winning(X).", "?- winning(p3).", "?- move(p7, Y)."] {
            handle
                .current()
                .query(&parse_query(query).unwrap())
                .unwrap();
        }
        writer.publish();
        (writer, handle)
    }

    /// Asserts `move(p{i}, p{i + 1})`, settles the tables and publishes.
    fn extend_chain(writer: &mut DbWriter, i: usize) -> Arc<DbSnapshot> {
        let fact = parse_term(&format!("move(p{i}, p{})", i + 1)).unwrap();
        writer.assert_fact(fact).unwrap();
        writer.db();
        writer.publish()
    }

    /// Every published epoch answers as a fresh session over its program.
    fn assert_fresh(snapshot: &DbSnapshot) {
        for query in ["?- winning(X).", "?- winning(p3).", "?- move(p7, Y)."] {
            let query = parse_query(query).unwrap();
            let fresh = HiLogDb::new(snapshot.program().clone()).query(&query);
            assert_eq!(
                snapshot.query(&query).unwrap().answers,
                fresh.unwrap().answers,
                "epoch {}: {query}",
                snapshot.epoch()
            );
        }
    }

    #[test]
    fn the_writer_takes_back_what_the_snapshot_before_last_held() {
        let (mut writer, _handle) = warm_chain_writer();
        // The caches each epoch was published with, by raw pointer: nothing
        // here keeps a snapshot alive.
        let mut published = vec![caches_of(&writer.current())];
        for i in 60..66 {
            let fact = parse_term(&format!("move(p{i}, p{})", i + 1)).unwrap();
            writer.assert_fact(fact).unwrap();
            writer.db();
            // From the second write on, the working index and arena are the
            // allocations the snapshot two epochs back held, caught up.
            if published.len() > 1 {
                let two_back = published[published.len() - 2];
                assert_eq!(caches_of(writer.db.working()), two_back, "write {i}");
            }
            let snapshot = writer.publish();
            published.push(caches_of(&snapshot));
            assert_fresh(&snapshot);
        }
        // The first write after the first publish copied each; none since.
        assert_eq!(copies(&mut writer), (1, 1));
    }

    #[test]
    fn a_pinned_twin_is_copied_and_keeps_answering_its_epoch() {
        let (mut writer, handle) = warm_chain_writer();
        for i in 60..63 {
            extend_chain(&mut writer, i);
        }
        assert_eq!(copies(&mut writer), (1, 1));
        // A reader pins the epoch whose caches are the writer's next twin.
        let pinned = handle.current();
        let query = parse_query("?- winning(X).").unwrap();
        let before = pinned.query(&query).unwrap().answers;
        extend_chain(&mut writer, 63);
        assert_eq!(copies(&mut writer), (1, 1), "the twin was free");
        // Now the twin is the pinned one's: the writer copies instead.
        assert_fresh(&extend_chain(&mut writer, 64));
        assert_eq!(copies(&mut writer), (2, 2));
        for i in 65..68 {
            assert_fresh(&extend_chain(&mut writer, i));
        }
        assert_eq!(pinned.query(&query).unwrap().answers, before);
        assert_fresh(&pinned);
        // Unpinned, the pinned epoch's caches are never taken back: the
        // writer's twins have moved on, and it catches them up as before.
        drop(pinned);
        for i in 68..71 {
            assert_fresh(&extend_chain(&mut writer, i));
        }
        assert_eq!(copies(&mut writer), (2, 2));
    }

    #[test]
    fn an_index_log_longer_than_the_index_gives_way_to_a_copy() {
        let (mut writer, _handle) = warm_chain_writer();
        for i in 60..62 {
            extend_chain(&mut writer, i);
        }
        assert_eq!(copies(&mut writer).0, 1);
        // A batch that toggles one fact more often than the index holds
        // facts: replaying its log would cost more than a copy.
        let toggled = parse_term("move(p0, p9)").unwrap();
        for _ in 0..40 {
            writer.assert_fact(toggled.clone()).unwrap();
            assert!(writer.retract_fact(&toggled));
        }
        assert_fresh(&extend_chain(&mut writer, 62));
        assert_fresh(&extend_chain(&mut writer, 63));
        assert_eq!(copies(&mut writer).0, 2);
        // The copy logs afresh, and the next twin is caught up again.
        for i in 64..67 {
            assert_fresh(&extend_chain(&mut writer, i));
        }
        assert_eq!(copies(&mut writer).0, 2);
    }

    #[test]
    fn tables_are_not_adopted_after_a_mutation_through_db() {
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        let query = parse_query("?- winning(X).").unwrap();
        // The caller mutates behind the writer's wrappers; then a reader
        // warms the (now outdated) published snapshot.
        writer
            .db()
            .assert_fact(parse_term("move(c, d)").unwrap())
            .unwrap();
        let stale = handle.current().query(&query).unwrap();
        assert_eq!(stale.answers.len(), 1, "the old epoch: only b wins");
        // Adopting those tables would serve the old answers at the new
        // epoch.
        let next = writer.publish();
        let fresh = HiLogDb::new(next.program().clone()).query(&query).unwrap();
        let served = next.query(&query).unwrap();
        assert_eq!(served.answers, fresh.answers);
        assert!(served.stats.rule_applications > 0, "stale tables adopted");
    }

    #[test]
    fn a_mutation_through_db_adopts_reader_tables_first() {
        let (mut writer, handle) = HiLogDb::new(
            parse_program(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 reach(X) :- edge(X, Y).\n\
                 move(a, b). move(b, c). edge(u, v).",
            )
            .unwrap(),
        )
        .into_serving();
        let win = parse_query("?- winning(X).").unwrap();
        handle.current().query(&win).unwrap();
        // The mutation closes the adoption window for this epoch: what
        // readers completed so far is taken in before it, or lost for good.
        writer
            .db()
            .assert_fact(parse_term("edge(v, w)").unwrap())
            .unwrap();
        let snapshot = writer.publish();
        let warm = snapshot.query(&win).unwrap();
        assert_eq!(warm.stats.rule_applications, 0, "reader tables were lost");
    }

    #[test]
    fn spill_backed_snapshots_report_residency_faults() {
        // A one-fact budget: the program index's `move` rows are paged out
        // as soon as a probe has read them back, so every cold query that
        // probes them must fault them in again — and say so in its stats.
        // A warm repeat reads its resident table and faults nothing.
        let (_writer, handle) = HiLogDb::builder()
            .program(game())
            .storage(StorageConfig::Spill {
                dir: None,
                resident_budget: 1,
            })
            .build()
            .into_serving();
        let snapshot = handle.current();
        let first = parse_query("?- move(a, X).").unwrap();
        assert_eq!(snapshot.query(&first).unwrap().answers.len(), 1);
        let cold = snapshot
            .query(&parse_query("?- move(X, Y).").unwrap())
            .unwrap();
        assert_eq!(cold.answers.len(), 2);
        assert!(cold.stats.rule_applications > 0);
        assert!(
            cold.stats.storage_residency_faults > 0,
            "a published snapshot's query lost the storage-counter delta"
        );
        let warm = snapshot.query(&first).unwrap();
        assert_eq!(warm.stats.rule_applications, 0);
        assert_eq!(warm.stats.storage_residency_faults, 0, "a table hit paged");
    }

    #[test]
    fn a_spill_session_keeps_its_grounding_resident() {
        // The grounding is one resident object on every backend: after
        // `model()` nothing is spilled, however small the budget.  What the
        // backend does page — the program index's facts — spills and faults
        // back once a bound query builds the index.
        let mut text = String::from("winning(X) :- move(X, Y), not winning(Y).\n");
        for i in 0..40 {
            text.push_str(&format!("move(n{i}, n{}).\n", i + 1));
        }
        let mut db = HiLogDb::builder()
            .program(parse_program(&text).unwrap())
            .storage(StorageConfig::Spill {
                dir: None,
                resident_budget: 4,
            })
            .build();
        db.model().unwrap();
        let possibly = db.ground_program().unwrap().possibly_true().len();
        let grounded = db.storage_stats();
        assert_eq!(grounded.resident_facts, possibly);
        assert_eq!(grounded.spilled_facts, 0);
        assert_eq!(grounded.residency_faults, 0);
        db.query(&parse_query("?- winning(n0).").unwrap()).unwrap();
        let queried = db.storage_stats();
        assert!(queried.spilled_facts > 0, "{queried:?}");
        assert!(queried.residency_faults > 0, "{queried:?}");
    }

    #[test]
    fn tables_adopted_before_a_batch_survive_unrelated_mutations() {
        let (mut writer, handle) = HiLogDb::new(
            parse_program(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 reach(X) :- edge(X, Y).\n\
                 move(a, b). move(b, c). edge(u, v).",
            )
            .unwrap(),
        )
        .into_serving();
        let win = parse_query("?- winning(X).").unwrap();
        handle.current().query(&win).unwrap();
        // First mutation of the batch adopts the reader-computed winning
        // tables (programs still equal), then the unrelated edge fact leaves
        // them untouched through the instance-level maintenance.
        writer
            .assert_fact(parse_term("edge(v, w)").unwrap())
            .unwrap();
        let snapshot = writer.publish();
        assert!(snapshot.cached_subqueries() > 0, "warm tables were lost");
        let warm = snapshot.query(&win).unwrap();
        assert_eq!(warm.stats.rule_applications, 0);
        // And the mutation is visible.
        let reach = snapshot
            .query(&parse_query("?- reach(X).").unwrap())
            .unwrap();
        assert!(reach
            .answers
            .iter()
            .any(|a| a.binding("X").unwrap() == &Term::sym("v")));
    }

    #[test]
    fn snapshot_serves_stable_and_modular_routes() {
        let (_writer, handle) = HiLogDb::builder()
            .program(parse_program("p :- not q. q :- not p. r :- p. r :- q.").unwrap())
            .semantics(Semantics::Stable)
            .build()
            .into_serving();
        let snapshot = handle.current();
        assert_eq!(snapshot.stable_models().unwrap().len(), 2);
        assert_eq!(
            snapshot.holds(&parse_term("r").unwrap()).unwrap(),
            Truth::True
        );
        assert_eq!(
            snapshot.holds(&parse_term("p").unwrap()).unwrap(),
            Truth::Undefined
        );

        let (_writer, handle) = HiLogDb::builder()
            .program(game())
            .semantics(Semantics::ModularCheck)
            .build()
            .into_serving();
        let snapshot = handle.current();
        assert!(snapshot.check_modular().unwrap().modularly_stratified);
        assert_eq!(
            snapshot.holds(&parse_term("winning(b)").unwrap()).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn writer_batches_are_invisible_until_published() {
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        writer
            .assert_fact(parse_term("move(c, d)").unwrap())
            .unwrap();
        // Still epoch 0 and still the old answers.
        let current = handle.current();
        assert_eq!(current.epoch(), 0);
        assert_eq!(
            current.holds(&parse_term("move(c, d)").unwrap()).unwrap(),
            Truth::False
        );
        writer.publish();
        assert_eq!(
            handle
                .current()
                .holds(&parse_term("move(c, d)").unwrap())
                .unwrap(),
            Truth::True
        );
    }

    #[test]
    fn the_model_route_answers_as_the_branch_walk_did() {
        // Every row was read off the walk over a vector of substitutions
        // that the plan walk replaced.
        let atoms = |text: &str| {
            parse_program(text)
                .unwrap()
                .iter()
                .map(|r| r.head.clone())
                .collect::<Vec<_>>()
        };
        let model = Model::new(
            atoms("q(a). q(z)."),
            atoms("p(a). p(b). e(a, b). e(b, a). n(1). n(2). f(a)(b)."),
            atoms("p(c). e(a, c). u(a). f(a)(c)."),
        );
        let answer = |query: &str| match eval_against_model(&model, &parse_query(query).unwrap()) {
            Ok(answers) => Ok(answers
                .iter()
                .map(|a| {
                    let bindings: Vec<String> =
                        a.bindings.iter().map(|(v, t)| format!("{v}={t}")).collect();
                    format!("{} {}", bindings.join(" "), a.truth)
                })
                .collect::<Vec<_>>()),
            Err(e) => Err(e.to_string()),
        };
        type Row = (&'static str, Result<Vec<&'static str>, &'static str>);
        let rows: Vec<Row> = vec![
            (
                "?- p(X).",
                Ok(vec!["X=a true", "X=b true", "X=c undefined"]),
            ),
            // A true and an undefined instance of one query.
            ("?- e(a, Y), p(Y).", Ok(vec!["Y=b true", "Y=c undefined"])),
            // A negative literal on an undefined atom.
            (
                "?- p(X), not u(X).",
                Ok(vec!["X=a undefined", "X=b true", "X=c undefined"]),
            ),
            ("?- not u(a).", Ok(vec![" undefined"])),
            ("?- not q(a).", Ok(vec![" true"])),
            ("?- not p(a).", Ok(vec![])),
            // A builtin that binds, one that tests, and ones that err.
            (
                "?- n(X), Y is X + 1.",
                Ok(vec!["X=1 Y=2 true", "X=2 Y=3 true"]),
            ),
            ("?- n(X), X > 1.", Ok(vec!["X=2 true"])),
            (
                "?- p(X), Y is X + 1.",
                Err("arithmetic error: non-numeric symbol a"),
            ),
            (
                "?- Y is Z + 1.",
                Err("arithmetic error: unbound variable Z"),
            ),
            (
                "?- p(X), X \\= Y.",
                Err("uninstantiated builtin: \\= requires ground operands, got a \\= Y"),
            ),
            // Of two errors, the one at the earlier literal.
            (
                "?- P(X), Y is X + 1, not q(Y, Z).",
                Err("arithmetic error: non-numeric symbol a"),
            ),
            // Floundering, and an aggregate.
            (
                "?- p(X), not e(X, Y).",
                Err(
                    "floundering: negative literal `not e(a, Y)` is non-ground when selected \
                     (bind its variables with an earlier positive literal)",
                ),
            ),
            (
                "?- N = count(X, p(X)).",
                Err(
                    "unsupported: aggregate literals in full-model query evaluation are \
                     unsupported; ask a bound query (magic-sets plan) or use the aggregation \
                     evaluator",
                ),
            ),
            // Bindings to variables of the query.
            ("?- X = Y.", Ok(vec!["X=Y Y=Y true"])),
            (
                "?- e(X, Y), Z = g(Y, W).",
                Ok(vec![
                    "X=a Y=b Z=g(b, W) W=W true",
                    "X=a Y=c Z=g(c, W) W=W undefined",
                    "X=b Y=a Z=g(a, W) W=W true",
                ]),
            ),
            // HiLog names and atoms.
            ("?- f(P)(X).", Ok(vec!["P=a X=b true", "P=a X=c undefined"])),
            (
                "?- X, not X.",
                Ok(vec![
                    "X=e(a, c) undefined",
                    "X=p(c) undefined",
                    "X=u(a) undefined",
                    "X=f(a)(c) undefined",
                ]),
            ),
        ];
        for (query, want) in rows {
            let want = want
                .map(|w| w.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .map_err(|e| e.to_string());
            assert_eq!(answer(query), want, "{query}");
        }
    }
}
