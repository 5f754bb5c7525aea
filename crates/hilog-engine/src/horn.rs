//! Least models of definite (negation-free) programs, and the atom store /
//! join machinery shared with the grounder.
//!
//! Section 2 of the paper: a negation-free HiLog program — for instance the
//! image of a program under the universal-relation transformation — is a Horn
//! program whose least model gives its semantics.  The least model is
//! computed bottom-up by semi-naive iteration; the same join machinery drives
//! the *relevant instantiation* used to ground programs with negation.

use crate::deadline::check_deadline;
use crate::error::EngineError;
use crate::storage::RelationStorage;
use hilog_core::intern::{AtomId, TermInterner};
use hilog_core::literal::Literal;
use hilog_core::program::Program;
use hilog_core::rule::Rule;
use hilog_core::subst::Substitution;
use hilog_core::term::Term;
use hilog_core::unify::match_with;
use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{PoisonError, RwLock};

/// Resource limits for bottom-up evaluation.  They exist because HiLog
/// Herbrand universes are infinite: a non-range-restricted program (or a
/// range-restricted one with recursively applied function symbols, as the
/// paper notes at the end of Section 6.1) may not have a finite relevant
/// instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Maximum number of distinct derived atoms before aborting.
    pub max_atoms: usize,
    /// Maximum number of semi-naive rounds before aborting.
    pub max_rounds: usize,
    /// Threads an evaluation may use: they share the components of each
    /// SCC wave of the well-founded fixpoint and the hash partitions of a
    /// semi-naive join round.  The algorithm is the same at every count —
    /// `1` runs the same wave schedule inline on the calling thread, spawns
    /// nothing and leaves the `parallel_*` stats at zero.  The default is
    /// [`crate::pool::default_eval_threads`] (the machine's available
    /// parallelism, overridable with `HILOG_EVAL_THREADS`).  Evaluation
    /// results are identical at every thread count — only where the work
    /// runs and the `parallel_*` stats change.
    pub eval_threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_atoms: 500_000,
            max_rounds: 100_000,
            eval_threads: crate::pool::default_eval_threads(),
        }
    }
}

impl EvalOptions {
    /// Options with a small atom budget, useful in tests of divergence.
    pub fn with_max_atoms(max_atoms: usize) -> Self {
        EvalOptions {
            max_atoms,
            ..EvalOptions::default()
        }
    }

    /// Options with an explicit worker-thread count (clamped to at least 1).
    pub fn with_eval_threads(eval_threads: usize) -> Self {
        EvalOptions {
            eval_threads: eval_threads.max(1),
            ..EvalOptions::default()
        }
    }

    /// Returns these options with the worker-thread count replaced (clamped
    /// to at least 1).
    pub fn eval_threads(mut self, eval_threads: usize) -> Self {
        self.eval_threads = eval_threads.max(1);
        self
    }
}

/// How to treat negative literals during a positive (over-approximating)
/// computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegationMode {
    /// Ignore negative literals (treat them as true).  This yields the
    /// over-approximation of the true-or-undefined atoms used for relevant
    /// instantiation (Observation 5.1 justifies that atoms outside it are
    /// false for range-restricted programs).
    Ignore,
    /// Reject programs containing negative literals.
    Forbid,
}

thread_local! {
    /// Whether [`AtomStore::candidates`] may answer from argument indexes.
    /// Disabled by [`scan_only_guard`] so benchmarks and the index-vs-scan
    /// property oracle can measure the pure functor-scan baseline through the
    /// exact same call path.
    static INDEXING_ENABLED: Cell<bool> = const { Cell::new(true) };
    /// Cumulative candidate probes answered from an argument index.
    static INDEX_PROBES: Cell<usize> = const { Cell::new(0) };
    /// Cumulative candidate probes that fell back to a functor-bucket or
    /// whole-store (arity) scan.
    static INDEX_FALLBACK_SCANS: Cell<usize> = const { Cell::new(0) };
}

/// Snapshot of this thread's cumulative `(index_probes, index_fallback_scans)`
/// counters, maintained by every [`AtomStore::candidates`] call.  The session
/// facade subtracts snapshots around a query to report per-query numbers in
/// its `EvalStats`; benchmarks read them directly.  Probes against a
/// `(functor, arity)` key with no stored atoms count as neither (they are
/// O(1) rejections, not scans).
pub fn probe_counters() -> (usize, usize) {
    (
        INDEX_PROBES.with(Cell::get),
        INDEX_FALLBACK_SCANS.with(Cell::get),
    )
}

/// RAII guard returned by [`scan_only_guard`]; restores index probing for
/// this thread when dropped.
#[derive(Debug)]
pub struct ScanOnlyGuard {
    previous: bool,
}

impl Drop for ScanOnlyGuard {
    fn drop(&mut self) {
        INDEXING_ENABLED.with(|flag| flag.set(self.previous));
    }
}

/// Disables argument-index probing on this thread until the returned guard
/// drops: every [`AtomStore::candidates`] call answers with the pre-index
/// functor-bucket (or arity) scan.  This exists for the `bench_join_index`
/// baseline and for the property suite pinning *indexed ≡ scanned*; it is
/// not an evaluation mode.
pub fn scan_only_guard() -> ScanOnlyGuard {
    let previous = INDEXING_ENABLED.with(|flag| flag.replace(false));
    ScanOnlyGuard { previous }
}

/// The `(predicate name, arity)` identity of a stored relation.
type RelKey = (Term, Option<usize>);

/// Borrowed view of a [`RelKey`], so relation lookups can use the pattern's
/// name in place — no `Term` clone or allocation on the probe path (the old
/// `key_of` cloned the name on every insert/contains/candidates call).
trait RelKeyRef {
    fn name(&self) -> &Term;
    fn arity(&self) -> Option<usize>;
}

impl RelKeyRef for RelKey {
    fn name(&self) -> &Term {
        &self.0
    }
    fn arity(&self) -> Option<usize> {
        self.1
    }
}

impl RelKeyRef for (&Term, Option<usize>) {
    fn name(&self) -> &Term {
        self.0
    }
    fn arity(&self) -> Option<usize> {
        self.1
    }
}

// Hash must mirror `RelKey`'s derived tuple hash (field order), so the
// borrowed and owned forms agree inside the relation map.
impl Hash for dyn RelKeyRef + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name().hash(state);
        self.arity().hash(state);
    }
}

impl PartialEq for dyn RelKeyRef + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.arity() == other.arity() && self.name() == other.name()
    }
}

impl Eq for dyn RelKeyRef + '_ {}

impl<'a> Borrow<dyn RelKeyRef + 'a> for RelKey {
    fn borrow(&self) -> &(dyn RelKeyRef + 'a) {
        self
    }
}

/// One `(functor, arity)` extension: its live members in insertion order plus
/// the argument-position hash indexes built for it so far.
#[derive(Debug, Default)]
struct Relation {
    /// Live member ids, insertion order (removal compacts in place).
    rows: Vec<AtomId>,
    /// Lazily built argument indexes: position → argument value → posting
    /// list of live rows.  Built on the first probe that binds the position
    /// (under `&self`, hence the lock) and maintained incrementally by every
    /// later insert/remove, so a warm store never rebuilds an index.  An
    /// `RwLock` rather than a `RefCell` so a shared [`AtomStore`] is `Sync`:
    /// concurrent snapshot readers probing the same warm relation only take
    /// the read lock; the write lock is held briefly when a reader is the
    /// first to need an index at some position.
    indexes: RwLock<HashMap<usize, HashMap<Term, Vec<AtomId>>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            rows: self.rows.clone(),
            indexes: RwLock::new(
                self.indexes
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl Relation {
    /// Probes the most selective argument index over the pattern's ground
    /// argument positions, building missing indexes on first use.  Returns
    /// the matching posting list (cloned out, so no lock guard escapes) or
    /// `None` when the pattern binds no argument position — the caller then
    /// falls back to the functor-bucket scan.  Warm probes only take the
    /// read lock; a probe that needs a missing index upgrades to the write
    /// lock to build it.
    fn probe(&self, pattern: &Term, interner: &TermInterner) -> Option<Vec<AtomId>> {
        let args = pattern.args();
        let ground: Vec<usize> = args
            .iter()
            .enumerate()
            .filter(|(_, arg)| arg.is_ground())
            .map(|(pos, _)| pos)
            .collect();
        if ground.is_empty() {
            return None;
        }
        let read = self.indexes.read().unwrap_or_else(PoisonError::into_inner);
        if ground.iter().all(|pos| read.contains_key(pos)) {
            return Some(Self::pick_posting(&read, args, &ground));
        }
        drop(read);
        let mut write = self.indexes.write().unwrap_or_else(PoisonError::into_inner);
        for &pos in &ground {
            write
                .entry(pos)
                .or_insert_with(|| Self::build_index(&self.rows, pos, interner));
        }
        Some(Self::pick_posting(&write, args, &ground))
    }

    /// The smallest posting list over the pattern's bound positions; empty if
    /// any bound position has no posting at all (an empty posting list is
    /// maximally selective: no candidate can match the pattern).
    fn pick_posting(
        indexes: &HashMap<usize, HashMap<Term, Vec<AtomId>>>,
        args: &[Term],
        ground: &[usize],
    ) -> Vec<AtomId> {
        let mut best: Option<&Vec<AtomId>> = None;
        for &pos in ground {
            match indexes[&pos].get(&args[pos]) {
                None => return Vec::new(),
                Some(posting) => {
                    if best.is_none_or(|b| posting.len() < b.len()) {
                        best = Some(posting);
                    }
                }
            }
        }
        best.cloned().unwrap_or_default()
    }

    fn build_index(
        rows: &[AtomId],
        pos: usize,
        interner: &TermInterner,
    ) -> HashMap<Term, Vec<AtomId>> {
        let mut index: HashMap<Term, Vec<AtomId>> = HashMap::new();
        for &id in rows {
            if let Some(arg) = interner.resolve(id).args().get(pos) {
                index.entry(arg.clone()).or_default().push(id);
            }
        }
        index
    }
}

/// A set of ground atoms organised for the join hot path: every atom is
/// interned to a stable [`AtomId`], grouped into per-`(predicate name,
/// arity)` relations, and each relation carries lazily built hash indexes on
/// its argument positions.  [`AtomStore::candidates`] probes the most
/// selective index over a pattern's bound argument positions and only falls
/// back to the functor-bucket scan for fully open patterns (or to an arity
/// scan for variable predicate names).
///
/// Indexes are built on the first probe that needs them and maintained
/// incrementally by [`insert`](AtomStore::insert) /
/// [`remove`](AtomStore::remove), so long-lived stores (the session's
/// possibly-true store, the evaluator's subgoal tables) keep their indexes
/// warm across mutations.
#[derive(Debug, Clone, Default)]
pub struct AtomStore {
    /// Stable ids for every atom ever inserted (ids survive removal).
    interner: TermInterner,
    /// Per-id liveness; `false` entries are removed (or never-inserted) ids.
    live: Vec<bool>,
    live_count: usize,
    /// Ordered view of the live atoms: deterministic iteration and the
    /// `atoms()` set view.  Entries share their `Arc`s with the interner.
    atoms: BTreeSet<Term>,
    relations: HashMap<RelKey, Relation>,
}

impl AtomStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        AtomStore::default()
    }

    /// Builds a store from an iterator of ground atoms.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Term>) -> Self {
        let mut store = AtomStore::new();
        for a in atoms {
            store.insert(a);
        }
        store
    }

    fn is_live(&self, id: AtomId) -> bool {
        self.live.get(id.index()).copied().unwrap_or(false)
    }

    /// Inserts a ground atom; returns `true` if it was new.
    pub fn insert(&mut self, atom: Term) -> bool {
        debug_assert!(
            atom.is_ground(),
            "AtomStore::insert of non-ground atom {atom}"
        );
        let id = self.interner.intern(&atom);
        if self.live.len() <= id.index() {
            self.live.resize(id.index() + 1, false);
        }
        if self.live[id.index()] {
            return false;
        }
        self.live[id.index()] = true;
        self.live_count += 1;
        self.atoms.insert(atom.clone());
        let key = (atom.name(), atom.arity());
        if !self.relations.contains_key(&key as &dyn RelKeyRef) {
            self.relations
                .insert((atom.name().clone(), atom.arity()), Relation::default());
        }
        let rel = self
            .relations
            .get_mut(&key as &dyn RelKeyRef)
            .expect("relation just ensured");
        rel.rows.push(id);
        // Keep every already-built index exact (`get_mut` is lock-free: the
        // `&mut self` receiver proves exclusive access).
        for (pos, index) in rel
            .indexes
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .iter_mut()
        {
            if let Some(arg) = atom.args().get(*pos) {
                index.entry(arg.clone()).or_default().push(id);
            }
        }
        true
    }

    /// Removes a ground atom; returns `true` if it was present.  The atom's
    /// [`AtomId`] stays reserved (a later re-insert revives it), and every
    /// built index is maintained in place.
    pub fn remove(&mut self, atom: &Term) -> bool {
        let Some(id) = self.interner.get(atom) else {
            return false;
        };
        if !self.is_live(id) {
            return false;
        }
        self.live[id.index()] = false;
        self.live_count -= 1;
        self.atoms.remove(atom);
        if let Some(rel) = self
            .relations
            .get_mut(&(atom.name(), atom.arity()) as &dyn RelKeyRef)
        {
            rel.rows.retain(|&r| r != id);
            for (pos, index) in rel
                .indexes
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .iter_mut()
            {
                if let Some(arg) = atom.args().get(*pos) {
                    if let Some(posting) = index.get_mut(arg) {
                        posting.retain(|&r| r != id);
                    }
                }
            }
        }
        true
    }

    /// Returns `true` if the atom is present (one hash probe of the interner,
    /// no tree walk).
    pub fn contains(&self, atom: &Term) -> bool {
        self.interner.get(atom).is_some_and(|id| self.is_live(id))
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Iterates over all atoms in term order.
    pub fn iter(&self) -> impl Iterator<Item = &Term> {
        self.atoms.iter()
    }

    /// The full atom set.
    pub fn atoms(&self) -> &BTreeSet<Term> {
        &self.atoms
    }

    /// Number of `(name, arity)` relations ever touched.
    pub(crate) fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Iterates the ordered atom view from `lower` (inclusive) — the range
    /// walk behind the trait's name-keyed probe.
    pub(crate) fn atoms_from<'a>(&'a self, lower: &Term) -> impl Iterator<Item = &'a Term> {
        use std::ops::Bound;
        self.atoms.range((Bound::Included(lower), Bound::Unbounded))
    }

    /// Candidate atoms that could match the given (possibly partially
    /// instantiated) pattern.
    ///
    /// Selection, most selective first:
    ///
    /// 1. a ground predicate name narrows to the `(name, arity)` relation —
    ///    an absent relation answers empty immediately;
    /// 2. within the relation, the *most selective argument index* over the
    ///    pattern's ground argument positions is probed (indexes are built
    ///    lazily on first use and maintained by insert/remove);
    /// 3. a pattern binding no argument scans the relation's rows;
    /// 4. a variable predicate name scans the whole store by arity.
    ///
    /// Candidates are a superset of the actual matches restricted by the
    /// chosen access path; callers still unify/match against each candidate.
    /// Returns a concrete [`Candidates`] iterator (no boxed trait object —
    /// this is the hot path of [`join_body`]).
    pub fn candidates<'a>(&'a self, pattern: &Term) -> Candidates<'a> {
        let arity = pattern.arity();
        if !pattern.name().is_ground() {
            INDEX_FALLBACK_SCANS.with(|c| c.set(c.get() + 1));
            return Candidates {
                inner: CandidatesInner::ByArity(self.atoms.iter(), arity),
            };
        }
        let Some(rel) = self
            .relations
            .get(&(pattern.name(), arity) as &dyn RelKeyRef)
        else {
            return Candidates {
                inner: CandidatesInner::Empty,
            };
        };
        if INDEXING_ENABLED.with(Cell::get) {
            if let Some(posting) = rel.probe(pattern, &self.interner) {
                INDEX_PROBES.with(|c| c.set(c.get() + 1));
                return Candidates {
                    inner: CandidatesInner::Probe {
                        ids: posting.into_iter(),
                        interner: &self.interner,
                    },
                };
            }
        }
        INDEX_FALLBACK_SCANS.with(|c| c.set(c.get() + 1));
        Candidates {
            inner: CandidatesInner::Keyed {
                ids: rel.rows.iter(),
                interner: &self.interner,
            },
        }
    }
}

/// Concrete iterator returned by [`AtomStore::candidates`].
///
/// Index probes walk a posting list restricted to the pattern's most
/// selective bound argument; keyed fallbacks iterate the `(name, arity)`
/// relation; patterns with a variable predicate name scan the whole store,
/// keeping atoms of the pattern's arity.  Every yielded atom has the
/// pattern's arity, for ground-named patterns also its exact predicate name,
/// and for index probes additionally the probed argument's value.
#[derive(Debug, Clone)]
pub struct Candidates<'a> {
    inner: CandidatesInner<'a>,
}

#[derive(Debug, Clone)]
enum CandidatesInner<'a> {
    Empty,
    Probe {
        ids: std::vec::IntoIter<AtomId>,
        interner: &'a TermInterner,
    },
    Keyed {
        ids: std::slice::Iter<'a, AtomId>,
        interner: &'a TermInterner,
    },
    ByArity(std::collections::btree_set::Iter<'a, Term>, Option<usize>),
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a Term;

    fn next(&mut self) -> Option<&'a Term> {
        match &mut self.inner {
            CandidatesInner::Empty => None,
            CandidatesInner::Probe { ids, interner } => ids.next().map(|id| interner.resolve(id)),
            CandidatesInner::Keyed { ids, interner } => ids.next().map(|&id| interner.resolve(id)),
            CandidatesInner::ByArity(iter, arity) => iter.find(|a| a.arity() == *arity),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            CandidatesInner::Empty => (0, Some(0)),
            CandidatesInner::Probe { ids, .. } => ids.size_hint(),
            CandidatesInner::Keyed { ids, .. } => ids.size_hint(),
            CandidatesInner::ByArity(iter, _) => (0, iter.size_hint().1),
        }
    }
}

/// Extends the substitutions in `seeds` by matching `pattern` against the
/// atoms of `store`, returning every successful extension.
///
/// Takes the store through the [`RelationStorage`] trait so one compiled
/// join path serves every backend; the dynamic dispatch is one virtual call
/// per *probe*, not per candidate.
pub fn extend_by_matching(
    seeds: Vec<Substitution>,
    pattern: &Term,
    store: &dyn RelationStorage,
) -> Vec<Substitution> {
    let mut out = Vec::new();
    for theta in seeds {
        let instantiated = theta.apply(pattern);
        if instantiated.is_ground() {
            if store.contains(&instantiated) {
                out.push(theta);
            }
            continue;
        }
        store.for_each_candidate(&instantiated, &mut |candidate| {
            let mut extended = theta.clone();
            if match_with(&instantiated, candidate, &mut extended) {
                out.push(extended);
            }
        });
    }
    out
}

/// Joins the body of a rule against an atom store, producing every
/// substitution under which all positive atoms are in the store and all
/// builtins succeed.  Negative literals are handled according to `mode`;
/// aggregates are rejected (they have a dedicated evaluator).
///
/// When `delta` is `Some((store, index))`, the positive literal at position
/// `index` (counting positive literals only) draws its candidates from the
/// delta store instead — the semi-naive restriction.
pub fn join_body(
    rule: &Rule,
    store: &dyn RelationStorage,
    delta: Option<(&dyn RelationStorage, usize)>,
    mode: NegationMode,
) -> Result<Vec<Substitution>, EngineError> {
    let mut thetas = vec![Substitution::new()];
    let mut positive_index = 0usize;
    for lit in &rule.body {
        if thetas.is_empty() {
            return Ok(thetas);
        }
        match lit {
            Literal::Pos(atom) => {
                let use_store = match delta {
                    Some((delta_store, idx)) if idx == positive_index => delta_store,
                    _ => store,
                };
                thetas = extend_by_matching(thetas, atom, use_store);
                positive_index += 1;
            }
            Literal::Neg(_) => match mode {
                NegationMode::Ignore => {}
                NegationMode::Forbid => {
                    return Err(EngineError::Unsupported(format!(
                        "negative literal `{lit}` in a definite-program computation"
                    )))
                }
            },
            Literal::Builtin(b) => {
                let mut next = Vec::with_capacity(thetas.len());
                for mut theta in thetas {
                    match b.eval(&mut theta) {
                        Ok(true) => next.push(theta),
                        Ok(false) => {}
                        Err(e) => return Err(EngineError::Core(e)),
                    }
                }
                thetas = next;
            }
            Literal::Aggregate(_) => return Err(EngineError::Unsupported(
                "aggregate literals are evaluated by the aggregation evaluator, not the grounder"
                    .into(),
            )),
        }
    }
    Ok(thetas)
}

/// Computes the least model of a definite program by semi-naive bottom-up
/// evaluation.  With [`NegationMode::Ignore`] the result over-approximates
/// the true-or-undefined atoms of any model of the full program (negative
/// literals are treated as true); with [`NegationMode::Forbid`] the program
/// must be negation-free and the result is its least Herbrand model.
pub fn least_model(
    program: &Program,
    mode: NegationMode,
    opts: EvalOptions,
) -> Result<AtomStore, EngineError> {
    let mut store = AtomStore::new();
    least_model_into(program, mode, opts, &mut store)?;
    Ok(store)
}

/// [`least_model`] evaluated *into* a caller-provided (empty) store — the
/// backend-polymorphic entry point: pass a spill-backed store and the least
/// model materialises with cold relations paged to disk.
pub fn least_model_into(
    program: &Program,
    mode: NegationMode,
    opts: EvalOptions,
    store: &mut dyn RelationStorage,
) -> Result<(), EngineError> {
    let mut delta = AtomStore::new();

    // Round 0: facts and rules whose positive body is empty.
    for rule in program.iter() {
        let positives = rule.positive_atoms().count();
        if positives == 0 {
            for theta in join_body(rule, &*store, None, mode)? {
                let head = theta.apply(&rule.head);
                if !head.is_ground() {
                    return Err(EngineError::Floundering(format!(
                        "rule `{rule}` derives the non-ground head `{head}`; the program is not \
                         range restricted (Definition 5.5) so bottom-up evaluation cannot bind it"
                    )));
                }
                if store.insert(head.clone()) {
                    delta.insert(head);
                }
            }
        }
    }

    let mut rounds = 0usize;
    while !delta.is_empty() {
        rounds += 1;
        check_deadline()?;
        if rounds > opts.max_rounds {
            return Err(EngineError::LimitExceeded(format!(
                "least-model computation exceeded {} rounds",
                opts.max_rounds
            )));
        }
        let mut next_delta = AtomStore::new();
        if partition_count(delta.len(), opts) > 1 {
            // Partitioned round: the frontier splits by hash of the first
            // bound argument and the partitions join concurrently against
            // the frozen store.  Sound because the frontier is already in
            // `store` (a rule matching frontier atoms from two partitions
            // fires in either one, drawing the other from `store`), and the
            // merge below deduplicates into the same sets the serial round
            // fills.
            for head in consequence_round_partitioned(program, &*store, &delta, mode, opts)? {
                if !store.contains(&head) {
                    if store.len() >= opts.max_atoms {
                        return Err(EngineError::LimitExceeded(format!(
                            "least-model computation exceeded {} atoms",
                            opts.max_atoms
                        )));
                    }
                    store.insert(head.clone());
                    next_delta.insert(head);
                }
            }
        } else {
            for rule in program.iter() {
                let positives = rule.positive_atoms().count();
                for delta_idx in 0..positives {
                    for theta in join_body(rule, &*store, Some((&delta, delta_idx)), mode)? {
                        let head = theta.apply(&rule.head);
                        if !head.is_ground() {
                            return Err(EngineError::Floundering(format!(
                                "rule `{rule}` derives the non-ground head `{head}`"
                            )));
                        }
                        if !store.contains(&head) {
                            if store.len() >= opts.max_atoms {
                                return Err(EngineError::LimitExceeded(format!(
                                    "least-model computation exceeded {} atoms",
                                    opts.max_atoms
                                )));
                            }
                            store.insert(head.clone());
                            next_delta.insert(head);
                        }
                    }
                }
            }
        }
        delta = next_delta;
    }
    Ok(())
}

/// A semi-naive evaluation frontier: the atoms added in the most recent
/// round (`frontier`) plus everything accumulated since the continuation
/// started.  This is the unit of work the delta-aware consequence operator
/// [`consequence_round`] consumes, and what
/// [`extend_least_model`] hands back to callers that need to know which
/// atoms an incremental update introduced (the session facade grounds new
/// rule instantiations from exactly this set).
#[derive(Debug, Clone, Default)]
pub struct Delta {
    frontier: AtomStore,
    accumulated: AtomStore,
}

impl Delta {
    /// An empty frontier.
    pub fn new() -> Self {
        Delta::default()
    }

    /// Seeds the frontier with an atom (recorded as accumulated as well).
    /// Returns `true` if the atom was new to the accumulated set.
    pub fn seed(&mut self, atom: Term) -> bool {
        if self.accumulated.insert(atom.clone()) {
            self.frontier.insert(atom);
            true
        } else {
            false
        }
    }

    /// The atoms of the most recent round.
    pub fn frontier(&self) -> &AtomStore {
        &self.frontier
    }

    /// Every atom added since the continuation started.
    pub fn accumulated(&self) -> &AtomStore {
        &self.accumulated
    }

    /// Returns `true` if the frontier is exhausted (fixpoint reached).
    pub fn is_settled(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Replaces the frontier with the next round's atoms, folding them into
    /// the accumulated set.
    fn advance(&mut self, next: AtomStore) {
        for atom in next.iter() {
            self.accumulated.insert(atom.clone());
        }
        self.frontier = next;
    }
}

/// One application of the delta-aware consequence operator: every head
/// derivable by a rule whose body has at least one positive literal matched
/// in `frontier` (the semi-naive restriction), with the remaining positive
/// literals drawn from `store`.  Heads already in `store` are not returned.
///
/// Rules with an empty positive body can never fire from a non-empty
/// frontier, so they are skipped — callers start from a store that already
/// contains round 0 (see [`least_model`]).
pub fn consequence_round(
    program: &Program,
    store: &dyn RelationStorage,
    frontier: &dyn RelationStorage,
    mode: NegationMode,
) -> Result<Vec<Term>, EngineError> {
    let mut out = Vec::new();
    for rule in program.iter() {
        let positives = rule.positive_atoms().count();
        for delta_idx in 0..positives {
            for theta in join_body(rule, store, Some((frontier, delta_idx)), mode)? {
                let head = theta.apply(&rule.head);
                if !head.is_ground() {
                    return Err(EngineError::Floundering(format!(
                        "rule `{rule}` derives the non-ground head `{head}`"
                    )));
                }
                if !store.contains(&head) {
                    out.push(head);
                }
            }
        }
    }
    Ok(out)
}

/// Frontiers smaller than this evaluate serially even when `eval_threads`
/// allows partitioning: below it the per-partition bookkeeping costs more
/// than the joins it spreads.
const PARTITION_MIN_FRONTIER: usize = 64;

/// How many partitions a frontier should split into under `opts`: the
/// thread count when the frontier is large enough to be worth splitting,
/// otherwise 1 (serial).
fn partition_count(frontier_len: usize, opts: EvalOptions) -> usize {
    if opts.eval_threads > 1 && frontier_len >= PARTITION_MIN_FRONTIER {
        opts.eval_threads
    } else {
        1
    }
}

/// The partition an atom belongs to: hash of its first argument (the
/// position the per-argument indexes make cheap to join on), falling back
/// to the whole atom for 0-ary atoms.  Any within-process assignment works
/// for correctness — partitioning only redistributes which task derives a
/// head, and every sink deduplicates — but hashing the first argument keeps
/// the rows of one join key together, so a partition's joins stay on warm
/// posting lists.
fn partition_of(atom: &Term, partitions: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    match atom.args().first() {
        Some(arg) => arg.hash(&mut hasher),
        None => atom.hash(&mut hasher),
    }
    (hasher.finish() as usize) % partitions
}

/// [`consequence_round`] with the frontier split into hash partitions joined
/// concurrently on the engine work pool ([`crate::pool`]).
///
/// Requires the caller's invariant that the frontier is a subset of `store`
/// (both [`least_model`] and [`extend_least_model`] maintain it): a rule
/// whose body matches frontier atoms from several partitions then fires in
/// each of their tasks, drawing the others from `store`, so no derivation is
/// lost to the split.  Duplicated derivations — and the schedule-dependent
/// concatenation order — are absorbed by the deduplicating stores every
/// caller merges into, which is what keeps the computed model independent of
/// the thread count.
pub fn consequence_round_partitioned(
    program: &Program,
    store: &dyn RelationStorage,
    frontier: &dyn RelationStorage,
    mode: NegationMode,
    opts: EvalOptions,
) -> Result<Vec<Term>, EngineError> {
    let partitions = partition_count(frontier.len(), opts);
    if partitions <= 1 {
        return consequence_round(program, store, frontier, mode);
    }
    let mut parts: Vec<AtomStore> = (0..partitions).map(|_| AtomStore::new()).collect();
    frontier.for_each_atom(&mut |atom| {
        parts[partition_of(atom, partitions)].insert(atom.clone());
    });
    parts.retain(|p| !p.is_empty());
    crate::pool::note_partitioned_round();
    let tasks: Vec<_> = parts
        .iter()
        .map(|part| move || consequence_round(program, store, part, mode))
        .collect();
    let mut out = Vec::new();
    for derived in crate::pool::run_tasks(opts.eval_threads, tasks) {
        out.extend(derived?);
    }
    Ok(out)
}

/// Semi-naive *continuation*: extends an existing least-model store with new
/// seed atoms, running the delta-aware consequence operator to a fixpoint.
///
/// `store` must be closed under the program's rules before the call (e.g. a
/// previous [`least_model`] result); afterwards it is closed again.  Returns
/// the settled [`Delta`] whose accumulated set is exactly the atoms the seeds
/// introduced — the incremental analogue of re-running [`least_model`] on the
/// extended program, at the cost of only the new derivations.
///
/// On `Err` (a resource limit, or a floundering derivation) the store is
/// left **partially extended** — the seeds plus whatever was derived before
/// the failure — so it is no longer closed; discard it and recompute from
/// scratch, as [`crate::session::HiLogDb`] does.
pub fn extend_least_model(
    program: &Program,
    store: &mut dyn RelationStorage,
    seeds: impl IntoIterator<Item = Term>,
    mode: NegationMode,
    opts: EvalOptions,
) -> Result<Delta, EngineError> {
    let mut delta = Delta::new();
    for seed in seeds {
        debug_assert!(seed.is_ground(), "extend_least_model seed must be ground");
        if !store.contains(&seed) {
            delta.seed(seed.clone());
            store.insert(seed);
        }
    }
    let mut rounds = 0usize;
    while !delta.is_settled() {
        rounds += 1;
        check_deadline()?;
        if rounds > opts.max_rounds {
            return Err(EngineError::LimitExceeded(format!(
                "incremental least-model continuation exceeded {} rounds",
                opts.max_rounds
            )));
        }
        let derived =
            consequence_round_partitioned(program, &*store, delta.frontier(), mode, opts)?;
        let mut next = AtomStore::new();
        for head in derived {
            if !store.contains(&head) {
                if store.len() >= opts.max_atoms {
                    return Err(EngineError::LimitExceeded(format!(
                        "incremental least-model continuation exceeded {} atoms",
                        opts.max_atoms
                    )));
                }
                store.insert(head.clone());
                next.insert(head);
            }
        }
        delta.advance(next);
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_syntax::parse_program;

    fn lm(text: &str) -> AtomStore {
        least_model(
            &parse_program(text).unwrap(),
            NegationMode::Forbid,
            EvalOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn least_model_of_facts() {
        let m = lm("move(a, b). move(b, c).");
        assert_eq!(m.len(), 2);
        assert!(m.contains(&Term::apps("move", vec![Term::sym("a"), Term::sym("b")])));
    }

    #[test]
    fn transitive_closure_of_chain() {
        let m = lm("tc(X, Y) :- edge(X, Y).\n\
                    tc(X, Y) :- edge(X, Z), tc(Z, Y).\n\
                    edge(a, b). edge(b, c). edge(c, d).");
        // 3 edges + 6 tc facts.
        assert_eq!(m.len(), 9);
        assert!(m.contains(&Term::apps("tc", vec![Term::sym("a"), Term::sym("d")])));
        assert!(!m.contains(&Term::apps("tc", vec![Term::sym("d"), Term::sym("a")])));
    }

    #[test]
    fn generic_hilog_transitive_closure() {
        // Example 2.1 with a bound relation name.
        let m = lm("tc(G)(X, Y) :- graph(G), G(X, Y).\n\
                    tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
                    graph(e). e(a, b). e(b, c).");
        let tc_e = |x: &str, y: &str| {
            Term::app(
                Term::apps("tc", vec![Term::sym("e")]),
                vec![Term::sym(x), Term::sym(y)],
            )
        };
        assert!(m.contains(&tc_e("a", "b")));
        assert!(m.contains(&tc_e("a", "c")));
        assert!(m.contains(&tc_e("b", "c")));
        assert!(!m.contains(&tc_e("c", "a")));
    }

    #[test]
    fn maplist_bottom_up_is_infinite_and_hits_the_atom_budget() {
        // Example 2.2 has recursively applied constructors (`cons`), so — as
        // the end of Section 6.1 warns for programs with recursively applied
        // function symbols — its bottom-up relevant instantiation is
        // infinite: ever longer lists keep being derived.  The engine detects
        // this through the atom budget; the query-directed evaluator in
        // `magic_eval` is the right tool for maplist (see its tests).
        let p = parse_program(
            "maplist(F)([], []) :- fun(F).\n\
             maplist(F)([X | R], [Y | Z]) :- F(X, Y), maplist(F)(R, Z).\n\
             fun(double).\n\
             double(one, two). double(two, four).",
        )
        .unwrap();
        let r = least_model(&p, NegationMode::Forbid, EvalOptions::with_max_atoms(300));
        assert!(matches!(r, Err(EngineError::LimitExceeded(_))));
    }

    #[test]
    fn unguarded_maplist_flounders() {
        // The literal Example 2.2 base case has the variable F in its head
        // name; bottom-up evaluation cannot bind it and reports floundering.
        let p = parse_program("maplist(F)([], []).").unwrap();
        assert!(matches!(
            least_model(&p, NegationMode::Forbid, EvalOptions::default()),
            Err(EngineError::Floundering(_))
        ));
    }

    #[test]
    fn builtins_participate_in_joins() {
        let m = lm("cost(a, 3). cost(b, 5).\n\
                    total(X, N) :- cost(X, P), N is P * 2.\n\
                    cheap(X) :- cost(X, P), P < 4.");
        assert!(m.contains(&Term::apps("total", vec![Term::sym("a"), Term::int(6)])));
        assert!(m.contains(&Term::apps("cheap", vec![Term::sym("a")])));
        assert!(!m.contains(&Term::apps("cheap", vec![Term::sym("b")])));
    }

    #[test]
    fn variable_predicate_names_join_against_all_atoms() {
        // p :- X(Y), Y(X).  (Example 5.1) — no derivation without facts, one
        // with the facts q(r), r(q).
        let without = least_model(
            &parse_program("p :- X(Y), Y(X).").unwrap(),
            NegationMode::Forbid,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(!without.contains(&Term::sym("p")));
        let with = lm("p :- X(Y), Y(X). q(r). r(q).");
        assert!(with.contains(&Term::sym("p")));
    }

    #[test]
    fn negation_mode_controls_negative_literals() {
        let p = parse_program("p :- q, not r. q.").unwrap();
        assert!(matches!(
            least_model(&p, NegationMode::Forbid, EvalOptions::default()),
            Err(EngineError::Unsupported(_))
        ));
        let m = least_model(&p, NegationMode::Ignore, EvalOptions::default()).unwrap();
        assert!(m.contains(&Term::sym("p")));
    }

    #[test]
    fn floundering_is_reported() {
        // A fact with a variable cannot be grounded bottom-up.
        let p = parse_program("p(X, X, a).").unwrap();
        assert!(matches!(
            least_model(&p, NegationMode::Forbid, EvalOptions::default()),
            Err(EngineError::Floundering(_))
        ));
    }

    #[test]
    fn atom_limit_stops_runaway_programs() {
        // nat(s(X)) :- nat(X). generates unboundedly many atoms.
        let p = parse_program("nat(z). nat(s(X)) :- nat(X).").unwrap();
        let r = least_model(&p, NegationMode::Forbid, EvalOptions::with_max_atoms(50));
        assert!(matches!(r, Err(EngineError::LimitExceeded(_))));
    }

    #[test]
    fn atom_store_candidates_by_name_and_arity() {
        let mut store = AtomStore::new();
        store.insert(Term::apps("move", vec![Term::sym("a"), Term::sym("b")]));
        store.insert(Term::apps("move", vec![Term::sym("b"), Term::sym("c")]));
        store.insert(Term::apps("game", vec![Term::sym("move1")]));
        let pat = Term::apps("move", vec![Term::var("X"), Term::var("Y")]);
        assert_eq!(store.candidates(&pat).count(), 2);
        let var_name = Term::app(Term::var("G"), vec![Term::var("X"), Term::var("Y")]);
        assert_eq!(store.candidates(&var_name).count(), 2);
        let unary = Term::app(Term::var("G"), vec![Term::var("X")]);
        assert_eq!(store.candidates(&unary).count(), 1);
    }

    #[test]
    fn candidates_never_yield_non_matching_functors() {
        // Micro-assertion for the join hot path: a ground-named pattern must
        // only see atoms with its exact (name, arity) key, and a
        // variable-named pattern must only see atoms of its arity.
        let mut store = AtomStore::new();
        for i in 0..8 {
            store.insert(Term::apps(
                "move",
                vec![Term::sym(format!("a{i}")), Term::sym("b")],
            ));
            store.insert(Term::apps("game", vec![Term::sym(format!("g{i}"))]));
            store.insert(Term::app(
                Term::apps("winning", vec![Term::sym(format!("g{i}"))]),
                vec![Term::sym("p")],
            ));
        }
        let pat = Term::apps("move", vec![Term::var("X"), Term::var("Y")]);
        for cand in store.candidates(&pat) {
            assert_eq!(cand.name(), pat.name(), "wrong functor from keyed lookup");
            assert_eq!(cand.arity(), pat.arity(), "wrong arity from keyed lookup");
        }
        assert_eq!(store.candidates(&pat).count(), 8);
        // Variable predicate name: all unary atoms (game/1 and winning(_)/1),
        // never the binary move atoms.
        let var_pat = Term::app(Term::var("P"), vec![Term::var("X")]);
        let mut seen = 0usize;
        for cand in store.candidates(&var_pat) {
            assert_eq!(cand.arity(), Some(1), "arity filter leaked {cand}");
            seen += 1;
        }
        assert_eq!(seen, 16);
        // A key absent from the store yields nothing.
        assert_eq!(
            store
                .candidates(&Term::apps("absent", vec![Term::var("X")]))
                .count(),
            0
        );
    }

    /// All atoms of `store` matching `pattern`, via whatever access path
    /// `candidates` picks, verified by one-way matching.
    fn matches(store: &AtomStore, pattern: &Term) -> BTreeSet<Term> {
        store
            .candidates(pattern)
            .filter(|c| {
                let mut theta = Substitution::new();
                match_with(pattern, c, &mut theta)
            })
            .cloned()
            .collect()
    }

    #[test]
    fn argument_index_probe_agrees_with_the_functor_scan() {
        let mut store = AtomStore::new();
        for i in 0..10 {
            for j in 0..10 {
                store.insert(Term::apps(
                    "edge",
                    vec![Term::sym(format!("n{i}")), Term::sym(format!("n{j}"))],
                ));
            }
        }
        let bound_first = Term::apps("edge", vec![Term::sym("n3"), Term::var("Y")]);
        let bound_second = Term::apps("edge", vec![Term::var("X"), Term::sym("n7")]);
        let bound_both = Term::apps("edge", vec![Term::sym("n3"), Term::sym("n7")]);
        for pattern in [&bound_first, &bound_second, &bound_both] {
            let (probes_before, _) = probe_counters();
            let indexed = matches(&store, pattern);
            let (probes_after, _) = probe_counters();
            assert!(
                probes_after > probes_before,
                "bound pattern {pattern} did not use an index"
            );
            let scanned = {
                let _guard = scan_only_guard();
                matches(&store, pattern)
            };
            assert_eq!(indexed, scanned, "index and scan disagree on {pattern}");
        }
        assert_eq!(matches(&store, &bound_first).len(), 10);
        assert_eq!(matches(&store, &bound_both).len(), 1);
        // An open pattern still scans the relation (and is counted as such).
        let open = Term::apps("edge", vec![Term::var("X"), Term::var("Y")]);
        let (_, fallbacks_before) = probe_counters();
        assert_eq!(matches(&store, &open).len(), 100);
        let (_, fallbacks_after) = probe_counters();
        assert!(fallbacks_after > fallbacks_before);
    }

    #[test]
    fn built_indexes_are_maintained_by_insert_and_remove() {
        let mut store = AtomStore::new();
        for i in 0..6 {
            store.insert(Term::apps(
                "edge",
                vec![Term::sym("hub"), Term::sym(format!("n{i}"))],
            ));
        }
        let from_hub = Term::apps("edge", vec![Term::sym("hub"), Term::var("Y")]);
        // First probe builds the position-0 index.
        assert_eq!(matches(&store, &from_hub).len(), 6);
        // Mutations after the build must keep it exact: remove two, add one,
        // re-add a removed one.
        let n0 = Term::apps("edge", vec![Term::sym("hub"), Term::sym("n0")]);
        let n1 = Term::apps("edge", vec![Term::sym("hub"), Term::sym("n1")]);
        assert!(store.remove(&n0));
        assert!(store.remove(&n1));
        store.insert(Term::apps(
            "edge",
            vec![Term::sym("hub"), Term::sym("fresh")],
        ));
        store.insert(n0.clone());
        let indexed = matches(&store, &from_hub);
        let scanned = {
            let _guard = scan_only_guard();
            matches(&store, &from_hub)
        };
        assert_eq!(indexed, scanned);
        assert_eq!(indexed.len(), 6);
        assert!(indexed.contains(&n0));
        assert!(!indexed.contains(&n1));
        // The most selective bound position wins: binding the second argument
        // probes its (smaller) posting list and yields exactly that atom.
        let exact = Term::apps("edge", vec![Term::var("X"), Term::sym("fresh")]);
        assert_eq!(matches(&store, &exact).len(), 1);
    }

    #[test]
    fn duplicate_insertion_is_idempotent() {
        let mut store = AtomStore::new();
        assert!(store.insert(Term::sym("p")));
        assert!(!store.insert(Term::sym("p")));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn removal_updates_the_candidate_index() {
        let mut store = AtomStore::new();
        let ab = Term::apps("move", vec![Term::sym("a"), Term::sym("b")]);
        let bc = Term::apps("move", vec![Term::sym("b"), Term::sym("c")]);
        store.insert(ab.clone());
        store.insert(bc.clone());
        assert!(store.remove(&ab));
        assert!(!store.remove(&ab));
        assert_eq!(store.len(), 1);
        let pat = Term::apps("move", vec![Term::var("X"), Term::var("Y")]);
        let left: Vec<&Term> = store.candidates(&pat).collect();
        assert_eq!(left, vec![&bc]);
    }

    #[test]
    fn extend_least_model_matches_recomputation() {
        // Closing tc over a chain, then adding the edge that joins two
        // components, must agree with recomputing from scratch.
        let base = "tc(X, Y) :- edge(X, Y).\n\
                    tc(X, Y) :- edge(X, Z), tc(Z, Y).\n\
                    edge(a, b). edge(c, d).";
        let mut program = parse_program(base).unwrap();
        let mut store =
            least_model(&program, NegationMode::Forbid, EvalOptions::default()).unwrap();
        let new_edge = Term::apps("edge", vec![Term::sym("b"), Term::sym("c")]);
        program.push(Rule::fact(new_edge.clone()));
        let delta = extend_least_model(
            &program,
            &mut store,
            [new_edge],
            NegationMode::Forbid,
            EvalOptions::default(),
        )
        .unwrap();
        let fresh = least_model(&program, NegationMode::Forbid, EvalOptions::default()).unwrap();
        assert_eq!(store.atoms(), fresh.atoms());
        // The delta is exactly the difference: the new edge plus the new
        // tc pairs crossing it (a->c, a->d, b->c, b->d, c is already linked
        // to d).
        assert_eq!(delta.accumulated().len(), 5);
        assert!(delta
            .accumulated()
            .contains(&Term::apps("tc", vec![Term::sym("a"), Term::sym("d")])));
        assert!(delta.is_settled());
    }

    #[test]
    fn extending_with_a_known_atom_is_a_no_op() {
        let program = parse_program("p(a). q(X) :- p(X).").unwrap();
        let mut store =
            least_model(&program, NegationMode::Forbid, EvalOptions::default()).unwrap();
        let before = store.atoms().clone();
        let delta = extend_least_model(
            &program,
            &mut store,
            [Term::apps("p", vec![Term::sym("a")])],
            NegationMode::Forbid,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(delta.accumulated().is_empty());
        assert_eq!(store.atoms(), &before);
    }

    #[test]
    fn extension_respects_the_atom_budget() {
        let program = parse_program("nat(z). nat(s(X)) :- nat(X).").unwrap();
        // The base program diverges, so close only the fact by hand.
        let mut store = AtomStore::from_atoms([Term::sym("seed")]);
        let r = extend_least_model(
            &program,
            &mut store,
            [Term::apps("nat", vec![Term::sym("z")])],
            NegationMode::Forbid,
            EvalOptions::with_max_atoms(20),
        );
        assert!(matches!(r, Err(EngineError::LimitExceeded(_))));
    }
}
