//! Pluggable relation storage: the [`RelationStorage`] trait the evaluator
//! speaks, and the backend-polymorphic [`FactStore`] every long-lived store
//! in the engine (the session's possibly-true store, subgoal-table answers)
//! is made of.
//!
//! The join machinery in [`crate::horn`], the grounder, and the tabled
//! magic evaluator only need a small contract from a fact store:
//! insert/remove/contains, candidate enumeration for a (possibly partially
//! instantiated) pattern, ordered iteration, and name-keyed ranges.  That
//! contract is [`RelationStorage`]; it is object safe, so the evaluation
//! functions take `&dyn RelationStorage` and one compiled join path serves
//! every backend (cozo evaluates the same semi-naive program over swappable
//! `TempStore`s inside a transaction — same shape).
//!
//! Two backends ship:
//!
//! * **In-memory** — [`crate::horn::AtomStore`], today's behaviour,
//!   bit-identical results and performance; the default.
//! * **Spill** — [`crate::spill::SpillStore`], which keeps every
//!   argument-position index (and each relation's bookkeeping) in memory
//!   but pages *cold relations' fact payloads* out to per-relation segment
//!   files, faulting rows back in on demand with an LRU residency budget.
//!   A fact base larger than RAM keeps answering bound queries at
//!   interactive latency because bound probes only decode the posting list
//!   they hit.
//!
//! Backend selection is per store via [`StorageConfig`]; the
//! `HILOG_STORAGE=spill` environment variable flips the process-wide
//! default so CI can run the entire suite on the spill backend.
//!
//! Crossing the residency boundary is counted per store, for its lifetime
//! ([`RelationStorageStats`]), and per thread ([`crate::ambient`], where a
//! query's `EvalStats` take their exact share from) — never process-wide.

use crate::horn::AtomStore;
use crate::spill::SpillStore;
use hilog_core::term::Term;
use std::path::PathBuf;

/// Per-store storage observability: how much of the store is resident
/// versus paged out, and what moving rows across the boundary has cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelationStorageStats {
    /// Facts whose decoded payload is currently in memory.
    pub resident_facts: usize,
    /// Facts whose payload currently lives only in a segment file.
    pub spilled_facts: usize,
    /// Relations in the store.
    pub relations: usize,
    /// Relations with at least one spilled fact.
    pub spilled_relations: usize,
    /// Total bytes appended to this store's segment files.
    pub segment_bytes: u64,
    /// Rows decoded back from a segment file over this store's lifetime.
    pub residency_faults: u64,
    /// Rows paged out to a segment file over this store's lifetime.
    pub spill_writes: u64,
    /// Eviction attempts over this store's lifetime that hit a segment I/O
    /// error and kept their rows resident: a degraded cache (budget
    /// overshot), never wrong answers.
    pub spill_io_errors: u64,
}

impl RelationStorageStats {
    /// Accumulates another store's stats into this one (the session sums
    /// its possibly-true store and every subgoal table into one report).
    pub fn merge(&mut self, other: &RelationStorageStats) {
        self.resident_facts += other.resident_facts;
        self.spilled_facts += other.spilled_facts;
        self.relations += other.relations;
        self.spilled_relations += other.spilled_relations;
        self.segment_bytes += other.segment_bytes;
        self.residency_faults += other.residency_faults;
        self.spill_writes += other.spill_writes;
        self.spill_io_errors += other.spill_io_errors;
    }
}

/// The storage contract the evaluator needs from a set of ground atoms.
///
/// Extracted from [`AtomStore`]'s inherent API: the join machinery
/// ([`crate::horn::join_body`], [`crate::horn::extend_by_matching`], the
/// semi-naive rounds), the grounder, and the magic evaluator's subgoal
/// tables call only these methods, so any implementor can back them.
/// Candidate enumeration and iteration use visitor callbacks instead of
/// borrowed iterators because a spilled row has no `&Term` to lend — it is
/// decoded on the fly; `Term` is `Arc`-backed, so the in-memory backend
/// loses nothing by sharing through `&Term` callbacks either.
pub trait RelationStorage: std::fmt::Debug + Send + Sync {
    /// Inserts a ground atom; returns `true` if it was new.
    fn insert(&mut self, atom: Term) -> bool;

    /// Removes a ground atom; returns `true` if it was present.
    fn remove(&mut self, atom: &Term) -> bool;

    /// Returns `true` if the atom is present.
    fn contains(&self, atom: &Term) -> bool;

    /// Number of atoms.
    fn len(&self) -> usize;

    /// Returns `true` if the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits candidate atoms that could match the given (possibly
    /// partially instantiated) pattern — a superset of the actual matches
    /// restricted by the backend's best access path; callers still
    /// unify/match against each candidate.  Mirrors
    /// [`AtomStore::candidates`]'s selection order: relation narrowing,
    /// most selective argument index, functor-bucket scan, arity scan.
    fn for_each_candidate(&self, pattern: &Term, visit: &mut dyn FnMut(&Term));

    /// Visits every atom in term order.
    fn for_each_atom(&self, visit: &mut dyn FnMut(&Term));

    /// Visits every atom whose predicate name equals `name` (restricted to
    /// one arity when `arity` is `Some`) in term order — the name-keyed
    /// range probe [`hilog_core::interpretation::Model::base_candidates`]
    /// performs on the ordered model base.
    fn for_each_named(&self, name: &Term, arity: Option<usize>, visit: &mut dyn FnMut(&Term));

    /// Storage observability counters for this store.
    fn storage_stats(&self) -> RelationStorageStats;

    /// Collects the candidates for `pattern` into owned terms (a
    /// convenience over [`RelationStorage::for_each_candidate`]; `Term`
    /// clones are `Arc` bumps).
    fn collect_candidates(&self, pattern: &Term) -> Vec<Term> {
        let mut out = Vec::new();
        self.for_each_candidate(pattern, &mut |t| out.push(t.clone()));
        out
    }

    /// Collects every atom in term order.
    fn collect_atoms(&self) -> Vec<Term> {
        let mut out = Vec::new();
        self.for_each_atom(&mut |t| out.push(t.clone()));
        out
    }
}

impl RelationStorage for AtomStore {
    fn insert(&mut self, atom: Term) -> bool {
        AtomStore::insert(self, atom)
    }

    fn remove(&mut self, atom: &Term) -> bool {
        AtomStore::remove(self, atom)
    }

    fn contains(&self, atom: &Term) -> bool {
        AtomStore::contains(self, atom)
    }

    fn len(&self) -> usize {
        AtomStore::len(self)
    }

    fn for_each_candidate(&self, pattern: &Term, visit: &mut dyn FnMut(&Term)) {
        for candidate in self.candidates(pattern) {
            visit(candidate);
        }
    }

    fn for_each_atom(&self, visit: &mut dyn FnMut(&Term)) {
        for atom in self.iter() {
            visit(atom);
        }
    }

    fn for_each_named(&self, name: &Term, arity: Option<usize>, visit: &mut dyn FnMut(&Term)) {
        if !name.is_ground() {
            // No contiguous range to walk; filter the ordered view.
            for atom in self.iter() {
                if atom.name() == name && (arity.is_none() || atom.arity() == arity) {
                    visit(atom);
                }
            }
            return;
        }
        // A bare symbol atom is its own name and orders before every
        // application, so it sits outside the range below.  An application
        // atom is *not* its own name (its name is its head), so a stored
        // atom equal to a compound `name` does not belong to the range —
        // same as `Model::base_candidates`, whose range starts at
        // `App(name, [])`.
        if arity.is_none() && !matches!(name, Term::App(_, _)) && AtomStore::contains(self, name) {
            visit(name);
        }
        // Term order is name-major for applications: every `name(..)` atom
        // is contiguous starting at the empty application (same walk as
        // `Model::base_candidates`).
        for atom in self.atoms_from(&Term::app(name.clone(), Vec::new())) {
            if atom.name() != name {
                break;
            }
            if arity.is_none() || atom.arity() == arity {
                visit(atom);
            }
        }
    }

    fn storage_stats(&self) -> RelationStorageStats {
        RelationStorageStats {
            resident_facts: self.len(),
            relations: self.relation_count(),
            ..RelationStorageStats::default()
        }
    }
}

/// Which backend a [`FactStore`] uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageConfig {
    /// Everything in memory ([`AtomStore`]) — the exact pre-trait baseline.
    InMemory,
    /// Hot relations and all indexes in memory; cold relations' fact
    /// payloads paged to per-relation segment files.
    Spill {
        /// Directory for the segment files.  `None` creates (and on drop of
        /// the last clone removes) a fresh directory under the system temp
        /// dir.  The directory is a cache, not durable state: durability is
        /// the WAL + checkpoints in `hilog-store`.
        dir: Option<PathBuf>,
        /// How many decoded fact payloads may stay resident before the
        /// least-recently-probed relations are paged out.
        resident_budget: usize,
    },
}

/// Default resident budget when `HILOG_SPILL_BUDGET` is unset.
pub const DEFAULT_SPILL_BUDGET: usize = 65_536;

impl StorageConfig {
    /// The spill backend with an automatic temp directory and the
    /// environment-controlled (or default) residency budget.
    pub fn spill() -> Self {
        StorageConfig::Spill {
            dir: None,
            resident_budget: env_budget(),
        }
    }

    /// Reads the process-wide default from `HILOG_STORAGE` (`spill` selects
    /// the spill backend, anything else — or unset — the in-memory one) and
    /// `HILOG_SPILL_BUDGET` (resident fact budget for spill).
    pub fn from_env() -> Self {
        match std::env::var("HILOG_STORAGE") {
            Ok(v) if v.eq_ignore_ascii_case("spill") => StorageConfig::spill(),
            _ => StorageConfig::InMemory,
        }
    }
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig::from_env()
    }
}

fn env_budget() -> usize {
    std::env::var("HILOG_SPILL_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SPILL_BUDGET)
}

/// A fact store over one of the pluggable backends.  This is the concrete
/// type long-lived engine state is made of; everything it can do it says
/// once, through [`RelationStorage`] (import the trait to call it),
/// dispatching over the backend enum.
#[derive(Debug, Clone)]
pub enum FactStore {
    /// Everything resident ([`AtomStore`]).
    InMemory(AtomStore),
    /// Cold relations paged to segment files ([`SpillStore`]).
    Spill(SpillStore),
}

impl Default for FactStore {
    fn default() -> Self {
        FactStore::InMemory(AtomStore::new())
    }
}

impl FactStore {
    /// An empty store on the configured backend.
    pub fn new(config: &StorageConfig) -> Self {
        match config {
            StorageConfig::InMemory => FactStore::InMemory(AtomStore::new()),
            StorageConfig::Spill {
                dir,
                resident_budget,
            } => FactStore::Spill(SpillStore::new(dir.clone(), *resident_budget)),
        }
    }

    /// `true` when this store pages relations to segment files under a
    /// residency budget (the [`StorageConfig::Spill`] backend).
    pub fn is_spill(&self) -> bool {
        matches!(self, FactStore::Spill(_))
    }

    fn as_dyn(&self) -> &dyn RelationStorage {
        match self {
            FactStore::InMemory(s) => s,
            FactStore::Spill(s) => s,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn RelationStorage {
        match self {
            FactStore::InMemory(s) => s,
            FactStore::Spill(s) => s,
        }
    }
}

impl RelationStorage for FactStore {
    fn insert(&mut self, atom: Term) -> bool {
        self.as_dyn_mut().insert(atom)
    }

    fn remove(&mut self, atom: &Term) -> bool {
        self.as_dyn_mut().remove(atom)
    }

    fn contains(&self, atom: &Term) -> bool {
        self.as_dyn().contains(atom)
    }

    fn len(&self) -> usize {
        self.as_dyn().len()
    }

    fn for_each_candidate(&self, pattern: &Term, visit: &mut dyn FnMut(&Term)) {
        self.as_dyn().for_each_candidate(pattern, visit)
    }

    fn for_each_atom(&self, visit: &mut dyn FnMut(&Term)) {
        self.as_dyn().for_each_atom(visit)
    }

    fn for_each_named(&self, name: &Term, arity: Option<usize>, visit: &mut dyn FnMut(&Term)) {
        self.as_dyn().for_each_named(name, arity, visit)
    }

    fn storage_stats(&self) -> RelationStorageStats {
        self.as_dyn().storage_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(name: &str, args: &[&str]) -> Term {
        Term::apps(name, args.iter().map(|a| Term::sym(*a)).collect::<Vec<_>>())
    }

    #[test]
    fn in_memory_factstore_mirrors_atomstore() {
        let mut store = FactStore::new(&StorageConfig::InMemory);
        assert!(store.insert(atom("move", &["a", "b"])));
        assert!(!store.insert(atom("move", &["a", "b"])));
        assert!(store.insert(atom("move", &["b", "c"])));
        assert!(store.contains(&atom("move", &["a", "b"])));
        assert_eq!(store.len(), 2);
        let pat = Term::apps("move", vec![Term::sym("a"), Term::var("Y")]);
        assert_eq!(store.collect_candidates(&pat).len(), 1);
        assert!(store.remove(&atom("move", &["a", "b"])));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn trait_candidates_agree_with_inherent_iterator() {
        let mut store = AtomStore::new();
        for i in 0..16 {
            store.insert(atom("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]));
        }
        let pat = Term::apps("edge", vec![Term::sym("n3"), Term::var("Y")]);
        let via_iter: Vec<Term> = store.candidates(&pat).cloned().collect();
        let via_trait = RelationStorage::collect_candidates(&store, &pat);
        assert_eq!(via_iter, via_trait);
    }

    #[test]
    fn named_range_restricts_by_name_and_arity() {
        let mut store = AtomStore::new();
        store.insert(atom("p", &["a"]));
        store.insert(atom("p", &["a", "b"]));
        store.insert(atom("q", &["a"]));
        let name = Term::sym("p");
        let mut all = Vec::new();
        store.for_each_named(&name, None, &mut |t| all.push(t.clone()));
        assert_eq!(all.len(), 2);
        let mut unary = Vec::new();
        store.for_each_named(&name, Some(1), &mut |t| unary.push(t.clone()));
        assert_eq!(unary, vec![atom("p", &["a"])]);
    }

    #[test]
    fn storage_config_env_default_is_in_memory() {
        // The suite does not set HILOG_STORAGE (the CI storage job does);
        // whatever the ambient value, from_env must parse without panicking
        // and "spill" must map to the spill backend.
        let _ = StorageConfig::from_env();
        assert!(matches!(
            StorageConfig::spill(),
            StorageConfig::Spill { dir: None, .. }
        ));
    }
}
