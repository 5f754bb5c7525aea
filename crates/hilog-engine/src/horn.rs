//! Least models of definite (negation-free) programs, the atom store and
//! join machinery, and the one semi-naive driver the grounder shares.
//!
//! Section 2 of the paper: a negation-free HiLog program — for instance the
//! image of a program under the universal-relation transformation — is a Horn
//! program whose least model gives its semantics.  The least model is
//! computed bottom-up by semi-naive iteration, and that iteration is written
//! once: `saturate` owns the round policy (delta restriction, the limits
//! and the deadline, the floundering check), joins each rule through its
//! compiled plan (`crate::join`) and hands each match — the slots and the
//! positive atoms matched — to its caller.  [`least_model`] is the
//! driver with nothing to do per match; the *relevant instantiation* used
//! to ground programs with negation is the driver building the ground rule
//! from each match ([`crate::grounder`]), always cold from an empty store.
//!
//! Every store here is an [`AtomStore`]: the driver's store and frontier,
//! a grounding's possibly-true set and a subgoal table's answers are
//! derived from the program and resident on every backend.  Only the
//! program index's facts may page (`crate::storage`).

use crate::ambient::{check_deadline, count};
use crate::error::EngineError;
use crate::join::{Match, RulePlan};
use crate::storage::RelationStorageStats;
use hilog_core::{AtomId, Program, Term, TermInterner, TermMap};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, PoisonError, RwLock};

/// The most rounds one semi-naive saturation, or one run of the Figure 1
/// procedure, takes before it errs with [`EngineError::LimitExceeded`].
pub(crate) const ROUND_LIMIT: usize = 100_000;

/// Resource limits for bottom-up evaluation.  They exist because HiLog
/// Herbrand universes are infinite: a non-range-restricted program (or a
/// range-restricted one with recursively applied function symbols, as the
/// paper notes at the end of Section 6.1) may not have a finite relevant
/// instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// The size budget of one evaluation; each route counts its own unit:
    /// - `saturate`: distinct atoms;
    /// - the grounder: ground rules (`ground_over_universe` also bounds one
    ///   rule's instances);
    /// - the tabled route: answers summed over the tables the evaluation
    ///   creates, so an answer held by two tables counts twice;
    /// - Figure 1's reduction: partial instantiations of one rule;
    /// - the stable-model search: search nodes.
    pub max_atoms: usize,
    /// Inert: reads 1 and is ignored, since evaluation runs on the calling
    /// thread.  Kept while the benchmark package reads it (ROADMAP 1(c)
    /// removes it).
    pub eval_threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_atoms: 500_000,
            eval_threads: 1,
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
}

/// Inert: always 1, since evaluation runs on the calling thread.  Kept
/// while the benchmark package reads it (ROADMAP 1(c) removes it).
pub fn default_eval_threads() -> usize {
    1
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
    indexes: RwLock<TermMap<usize, TermMap<Term, Vec<AtomId>>>>,
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
        indexes: &TermMap<usize, TermMap<Term, Vec<AtomId>>>,
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
    ) -> TermMap<Term, Vec<AtomId>> {
        let mut index: TermMap<Term, Vec<AtomId>> = TermMap::default();
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
/// [`remove`](AtomStore::remove), so long-lived stores (a grounding's
/// possibly-true store, the evaluator's subgoal tables) keep their indexes
/// warm across mutations.
///
/// The store is a *set*: a write costs an interner probe, a relation push
/// and the built indexes' postings, and sorts nothing.  Term order exists
/// only for [`iter`](AtomStore::iter): the first ordered read after a write sorts
/// the live ids by term, O(n log n) comparisons, and the order is cached
/// until the next insert or remove that changes the set — a complete table
/// nobody writes sorts once however often it is read.
#[derive(Debug, Clone, Default)]
pub struct AtomStore {
    /// Stable ids for every atom ever inserted (ids survive removal).
    interner: TermInterner,
    /// Per-id liveness; `false` entries are removed (or never-inserted) ids.
    live: Vec<bool>,
    live_count: usize,
    /// The live ids in term order, filled by the first [`AtomStore::iter`]
    /// after a write and emptied by every write that changes the set.
    ordered: OnceLock<Vec<AtomId>>,
    relations: TermMap<RelKey, Relation>,
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

    /// Whether the atom an id stands for is in the set.
    pub(crate) fn is_live(&self, id: AtomId) -> bool {
        self.live.get(id.index()).copied().unwrap_or(false)
    }

    /// The atom's id, interned if new but not added to the set.
    pub(crate) fn intern(&mut self, atom: &Term) -> AtomId {
        let id = self.interner.intern(atom);
        if self.live.len() <= id.index() {
            self.live.resize(id.index() + 1, false);
        }
        id
    }

    /// Every atom ever interned, in the set or not, by id.
    pub(crate) fn interner(&self) -> &TermInterner {
        &self.interner
    }

    /// Inserts a ground atom; returns `true` if it was new.
    pub fn insert(&mut self, atom: Term) -> bool {
        debug_assert!(
            atom.is_ground(),
            "AtomStore::insert of non-ground atom {atom}"
        );
        let id = self.intern(&atom);
        if self.live[id.index()] {
            return false;
        }
        self.live[id.index()] = true;
        self.live_count += 1;
        self.ordered.take();
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
        self.ordered.take();
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

    /// Iterates over all atoms in term order.  The first call after a write
    /// sorts the live atoms; later calls walk the cached order.
    pub fn iter(&self) -> impl Iterator<Item = &Term> {
        let ordered = self.ordered.get_or_init(|| {
            let mut ids: Vec<AtomId> = self
                .interner
                .iter()
                .filter(|&(id, _)| self.is_live(id))
                .map(|(id, _)| id)
                .collect();
            // Distinct ids are distinct terms, so an unstable sort is exact.
            ids.sort_unstable_by(|&a, &b| self.interner.resolve(a).cmp(self.interner.resolve(b)));
            ids
        });
        ordered.iter().map(|&id| self.interner.resolve(id))
    }

    /// Iterates over all atoms in id (first-insertion) order, sorting
    /// nothing: for the loops that only need the set.
    fn iter_by_id(&self) -> impl Iterator<Item = &Term> {
        self.by_id()
            .filter_map(|(atom, &live)| live.then_some(atom))
    }

    /// Every interned atom beside its liveness flag, in id order.
    fn by_id(&self) -> LiveTerms<'_> {
        self.interner.terms().iter().zip(&self.live)
    }

    /// Checks that `self` holds what `other` holds under the same ids, and
    /// every relation's rows in the same order: what replaying the edits
    /// that made `other` from a copy of `self` must reproduce.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_replays(&self, other: &AtomStore) {
        assert!(self.by_id().eq(other.by_id()), "the answers differ");
        assert_eq!(self.relations.len(), other.relations.len());
        for (key, relation) in &self.relations {
            assert_eq!(relation.rows, other.relations[key].rows, "rows of {key:?}");
        }
    }

    /// Storage counters: every atom resident.
    pub(crate) fn storage_stats(&self) -> RelationStorageStats {
        RelationStorageStats {
            resident_facts: self.len(),
            relations: self.relations.len(),
            ..RelationStorageStats::default()
        }
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
    /// No route sorts: candidates come in posting, row or id order (see
    /// [`Candidates`]).
    /// Returns a concrete [`Candidates`] iterator (no boxed trait object —
    /// this is the hot path of the join executor).
    pub fn candidates<'a>(&'a self, pattern: &Term) -> Candidates<'a> {
        let arity = pattern.arity();
        if !pattern.name().is_ground() {
            count(|c| &c.index_fallback_scans, 1);
            return Candidates {
                inner: CandidatesInner::ByArity(self.by_id(), arity),
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
        if let Some(posting) = rel.probe(pattern, &self.interner) {
            count(|c| &c.index_probes, 1);
            return Candidates {
                inner: CandidatesInner::Probe {
                    ids: posting.into_iter(),
                    interner: &self.interner,
                },
            };
        }
        count(|c| &c.index_fallback_scans, 1);
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
/// relation; patterns with a variable predicate name walk the store's
/// interned atoms by id, keeping the live ones of the pattern's arity.  Every
/// yielded atom has the pattern's arity, for ground-named patterns also its
/// exact predicate name, and for index probes additionally the probed
/// argument's value.
///
/// The order is the access path's, never term order: a posting list and a
/// relation's rows are in insertion order, the arity scan in id (first
/// insertion) order.  Each route costs the atoms it walks and nothing more;
/// a caller that needs term order reads [`AtomStore::iter`].
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
    ByArity(LiveTerms<'a>, Option<usize>),
}

/// An [`AtomStore`]'s interned atoms zipped with their liveness, in id order.
type LiveTerms<'a> = std::iter::Zip<std::slice::Iter<'a, Term>, std::slice::Iter<'a, bool>>;

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a Term;

    fn next(&mut self) -> Option<&'a Term> {
        match &mut self.inner {
            CandidatesInner::Empty => None,
            CandidatesInner::Probe { ids, interner } => ids.next().map(|id| interner.resolve(id)),
            CandidatesInner::Keyed { ids, interner } => ids.next().map(|&id| interner.resolve(id)),
            CandidatesInner::ByArity(atoms, arity) => atoms
                .find(|&(atom, &live)| live && atom.arity() == *arity)
                .map(|(atom, _)| atom),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            CandidatesInner::Empty => (0, Some(0)),
            CandidatesInner::Probe { ids, .. } => ids.size_hint(),
            CandidatesInner::Keyed { ids, .. } => ids.size_hint(),
            CandidatesInner::ByArity(atoms, _) => (0, atoms.size_hint().1),
        }
    }
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
    saturate(program, &mut store, mode, opts, &mut |_, _| Ok(()))?;
    Ok(store)
}

/// The semi-naive driver — the one place that knows how a round works.
///
/// Saturates `store` under the rules of `program`, each compiled once into
/// a [`RulePlan`] for the call, and hands every match — the
/// [`Match`] (the plan, its slots, the positive atoms it matched) and the
/// ground head built from the slots (the driver needs it for the store) —
/// to `on_match`: [`least_model`] ignores them, the grounder builds
/// the ground rule from them ([`crate::grounder::relevant_ground`]), so the
/// heads and the instantiations come from the same single join pass.
///
/// Round 0 fires the rules with no positive body (the facts among them)
/// into `store`; what they add is the first frontier.  Round-0 atoms do not
/// count against `max_atoms`.  Each later round joins every rule with a
/// positive body once per positive position, that position drawing from
/// the frontier and the others from the store (the semi-naive
/// restriction).  The store stands still during a round and the round's
/// new heads land after it, so a rule instance is matched exactly in the
/// round its last body atom landed — never again in a later round, though
/// once per frontier atom it reads within that round.  Invariant
/// throughout: the frontier is a subset of the store.
///
/// On `Err` — [`ROUND_LIMIT`], `max_atoms`, the deadline, a floundering head,
/// or whatever `on_match` returns — the store is left **partially
/// extended** and no longer closed; discard it.
pub(crate) fn saturate(
    program: &Program,
    store: &mut AtomStore,
    mode: NegationMode,
    opts: EvalOptions,
    on_match: &mut dyn FnMut(&Match<'_>, &Term) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    // One walk of the program compiles the rules a frontier can fire and
    // runs round 0 on the rest.
    let mut frontier = AtomStore::new();
    let mut firing: Vec<RulePlan> = Vec::new();
    for rule in program.iter() {
        if rule.positive_atoms().next().is_some() {
            firing.push(RulePlan::compile(rule));
        } else {
            let mut heads = Vec::new();
            RulePlan::compile(rule).join(store, None, mode, &mut |m| {
                let head = m.head()?;
                on_match(m, &head)?;
                heads.push(head);
                Ok(())
            })?;
            for head in heads {
                if store.insert(head.clone()) {
                    check_deadline()?;
                    frontier.insert(head);
                }
            }
        }
    }

    let mut rounds = 0usize;
    while !frontier.is_empty() {
        rounds += 1;
        check_deadline()?;
        if rounds > ROUND_LIMIT {
            return Err(EngineError::LimitExceeded(format!(
                "semi-naive evaluation exceeded {ROUND_LIMIT} rounds"
            )));
        }
        let mut next = AtomStore::new();
        {
            let frozen = &*store;
            let mut land = |m: &Match<'_>, head: Term| {
                on_match(m, &head)?;
                if !frozen.contains(&head) && !next.contains(&head) {
                    // A round can be the whole evaluation (every rule of a
                    // game reads only the facts): each new atom, here and in
                    // round 0, looks at the deadline.
                    check_deadline()?;
                    if frozen.len() + next.len() >= opts.max_atoms {
                        return Err(EngineError::LimitExceeded(format!(
                            "semi-naive evaluation exceeded {} atoms",
                            opts.max_atoms
                        )));
                    }
                    next.insert(head);
                }
                Ok(())
            };
            fire(&firing, frozen, &frontier, mode, &mut land)?;
        }
        for atom in next.iter_by_id() {
            store.insert(atom.clone());
        }
        frontier = next;
    }
    Ok(())
}

/// One frontier's worth of joins: every plan of `firing`, once per positive
/// position with that position restricted to `frontier`, visiting each
/// match with its ground head.
fn fire(
    firing: &[RulePlan],
    store: &AtomStore,
    frontier: &AtomStore,
    mode: NegationMode,
    visit: &mut dyn FnMut(&Match<'_>, Term) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    for plan in firing {
        for delta in 0..plan.positives {
            plan.join(store, Some((frontier, delta)), mode, &mut |m| {
                let head = m.head()?;
                visit(m, head)
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambient::counters;
    use hilog_core::unify::match_with;
    use hilog_core::Substitution;
    use hilog_syntax::parse_program;
    use std::collections::BTreeSet;

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

    fn matching<'a>(atoms: impl Iterator<Item = &'a Term>, pattern: &Term) -> BTreeSet<Term> {
        let is_match = |c: &&Term| match_with(pattern, c, &mut Substitution::new());
        atoms.filter(is_match).cloned().collect()
    }

    /// All atoms of `store` matching `pattern`, via whatever access path
    /// `candidates` picks, verified by one-way matching.
    fn matches(store: &AtomStore, pattern: &Term) -> BTreeSet<Term> {
        matching(store.candidates(pattern), pattern)
    }

    /// The same set by brute force: every stored atom, no access path.
    fn brute_force(store: &AtomStore, pattern: &Term) -> BTreeSet<Term> {
        matching(store.iter(), pattern)
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
            let before = counters();
            let indexed = matches(&store, pattern);
            assert!(
                counters().index_probes > before.index_probes,
                "bound pattern {pattern} did not use an index"
            );
            let scanned = brute_force(&store, pattern);
            assert_eq!(indexed, scanned, "index and scan disagree on {pattern}");
        }
        assert_eq!(matches(&store, &bound_first).len(), 10);
        assert_eq!(matches(&store, &bound_both).len(), 1);
        // An open pattern still scans the relation (and is counted as such),
        // and the functor-bucket scan yields the brute-force set too.
        let open = Term::apps("edge", vec![Term::var("X"), Term::var("Y")]);
        let before = counters();
        assert_eq!(matches(&store, &open), brute_force(&store, &open));
        assert_eq!(matches(&store, &open).len(), 100);
        assert!(counters().index_fallback_scans > before.index_fallback_scans);
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
        assert_eq!(indexed, brute_force(&store, &from_hub));
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
    fn each_instance_is_matched_once_in_the_round_its_last_atom_lands() {
        // Over a chain no instance reads two atoms of one round (the edges
        // land in round 0, each `tc` atom later), so every instance is
        // handed to `on_match` exactly once: the three facts, the three
        // `tc(X, Y) :- edge(X, Y)` instances and the three recursive ones.
        let program = parse_program(
            "tc(X, Y) :- edge(X, Y).\n\
             tc(X, Y) :- edge(X, Z), tc(Z, Y).\n\
             edge(a, b). edge(b, c). edge(c, d).",
        )
        .unwrap();
        let mut seen: std::collections::BTreeMap<(Term, Vec<Term>), usize> = Default::default();
        let mut store = AtomStore::new();
        saturate(
            &program,
            &mut store,
            NegationMode::Forbid,
            EvalOptions::default(),
            &mut |m, head| {
                *seen.entry((head.clone(), m.atoms.to_vec())).or_insert(0) += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen.len(), 9);
        assert!(seen.values().all(|&n| n == 1), "{seen:?}");
        let fresh = least_model(&program, NegationMode::Forbid, EvalOptions::default()).unwrap();
        assert!(store.iter().eq(fresh.iter()));
        assert!(store.contains(&Term::apps("tc", vec![Term::sym("a"), Term::sym("d")])));
    }

    #[test]
    fn the_round_limit_stops_a_chain_that_grows_an_atom_a_round() {
        // One new atom per round, and more atoms than the budget needs:
        // the round limit is what stops it.
        let program = parse_program(&format!(
            "n(Y) :- n(X), Y is X + 1, Y < {}. n(0).",
            ROUND_LIMIT + 10
        ))
        .unwrap();
        let r = least_model(
            &program,
            NegationMode::Forbid,
            EvalOptions::with_max_atoms(2 * ROUND_LIMIT),
        );
        match r {
            Err(EngineError::LimitExceeded(reason)) => {
                assert!(reason.contains("rounds"), "{reason}")
            }
            other => panic!("expected the round limit, got {:?}", other.map(|s| s.len())),
        }
    }
}
