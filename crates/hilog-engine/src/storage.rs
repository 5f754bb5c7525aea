//! Pluggable relation storage: [`FactStore`], the one store type the
//! evaluator speaks — subgoal-table answers, the program index's facts and
//! the join inputs.
//!
//! A grounding's possibly-true store is the `GroundProgram`'s own
//! [`AtomStore`], resident on every backend: its interner numbers the
//! ground rules, which every model evaluation reads whole.
//!
//! The join machinery in [`crate::horn`], the grounder, and the tabled
//! magic evaluator need a small contract from a fact store:
//! insert/remove/contains, candidate enumeration for a (possibly partially
//! instantiated) pattern, and ordered iteration.  [`FactStore`] states it
//! once, as inherent methods that each `match` over the two backends, and
//! the evaluation functions take `&FactStore` — a concrete store, statically
//! dispatched, as cozo hands its semi-naive program `TempStore`s.
//!
//! The two backends:
//!
//! * **In-memory** — [`crate::horn::AtomStore`]: everything resident,
//!   lazily built argument indexes; the default.
//! * **Spill** — [`crate::spill::SpillStore`], which keeps every
//!   argument-position index (and each relation's bookkeeping) in memory
//!   but pages *cold relations' fact payloads* out to per-relation segment
//!   files, faulting rows back in on demand with an LRU residency budget.
//!   A fact base larger than RAM keeps answering bound queries at
//!   interactive latency because bound probes only decode the posting list
//!   they hit.
//!
//! Neither backend keeps term order up on a write, yet
//! [`FactStore::for_each_atom`] visits in term order: the in-memory backend
//! sorts its live atoms on the first ordered read after a write and caches
//! that order until the next write; the spill backend sorts on every ordered
//! read (it decodes spilled rows anyway).  Candidate enumeration never sorts.
//!
//! Candidates and atoms are *visited* by callback rather than lent as
//! borrowed iterators, because a spilled row has no `&Term` to lend — it is
//! decoded on the fly under the store's lock; `Term` is `Arc`-backed, so the
//! in-memory backend loses nothing by sharing through `&Term` callbacks.
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
use hilog_core::Term;
use std::convert::Infallible;
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
    /// its grounding's store, the program index and every subgoal table into
    /// one report).
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

/// Which backend a [`FactStore`] uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageConfig {
    /// Everything in memory ([`AtomStore`]).
    InMemory,
    /// Hot relations and all indexes in memory; cold relations' fact
    /// payloads paged to per-relation segment files.
    Spill {
        /// Directory for the segment files: each store creates (and on drop
        /// of its last clone removes) one segment file of its own in it, so
        /// many stores may share one directory.  `None` uses the system temp
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

/// A set of ground atoms on one of the two backends — the one store type
/// the evaluator speaks; see the module docs.
#[derive(Debug, Clone)]
pub enum FactStore {
    /// Everything resident ([`AtomStore`]).
    InMemory(AtomStore),
    /// Cold relations paged to segment files ([`SpillStore`]).
    Spill(SpillStore),
}

impl Default for FactStore {
    /// An empty in-memory store, whatever `HILOG_STORAGE` says.
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

    /// Inserts a ground atom; returns `true` if it was new.
    pub fn insert(&mut self, atom: Term) -> bool {
        match self {
            FactStore::InMemory(s) => s.insert(atom),
            FactStore::Spill(s) => s.insert(atom),
        }
    }

    /// Removes a ground atom; returns `true` if it was present.
    pub fn remove(&mut self, atom: &Term) -> bool {
        match self {
            FactStore::InMemory(s) => s.remove(atom),
            FactStore::Spill(s) => s.remove(atom),
        }
    }

    /// Returns `true` if the atom is present.
    pub fn contains(&self, atom: &Term) -> bool {
        match self {
            FactStore::InMemory(s) => s.contains(atom),
            FactStore::Spill(s) => s.contains(atom),
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        match self {
            FactStore::InMemory(s) => s.len(),
            FactStore::Spill(s) => s.len(),
        }
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits candidate atoms that could match the given (possibly
    /// partially instantiated) pattern — a superset of the actual matches
    /// restricted by the backend's best access path; callers still
    /// unify/match against each candidate.  Both backends select as
    /// [`AtomStore::candidates`] does: relation narrowing, most selective
    /// argument index, relation scan, arity scan.
    pub fn for_each_candidate(&self, pattern: &Term, mut visit: impl FnMut(&Term)) {
        let Ok(()) = self.try_for_each_candidate(pattern, |t| {
            visit(t);
            Ok::<(), Infallible>(())
        });
    }

    /// [`Self::for_each_candidate`], stopping at the first error `visit`
    /// returns.
    pub(crate) fn try_for_each_candidate<E>(
        &self,
        pattern: &Term,
        visit: impl FnMut(&Term) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            FactStore::InMemory(s) => s.candidates(pattern).try_for_each(visit),
            FactStore::Spill(s) => s.try_for_each_candidate(pattern, visit),
        }
    }

    /// Visits every atom in term order.  In memory, the first ordered read
    /// after a write sorts the store (O(n log n) term comparisons) and the
    /// order is cached until the next write; on the spill backend every
    /// ordered read sorts.  A caller that only needs the set should not ask
    /// for an order.
    pub fn for_each_atom(&self, visit: impl FnMut(&Term)) {
        match self {
            FactStore::InMemory(s) => s.iter().for_each(visit),
            FactStore::Spill(s) => s.for_each_atom(visit),
        }
    }

    /// The candidates for `pattern` as owned terms (`Term` clones are `Arc`
    /// bumps).
    pub fn collect_candidates(&self, pattern: &Term) -> Vec<Term> {
        let mut out = Vec::new();
        self.for_each_candidate(pattern, |t| out.push(t.clone()));
        out
    }

    /// Every atom in term order, as owned terms.
    pub fn collect_atoms(&self) -> Vec<Term> {
        let mut out = Vec::new();
        self.for_each_atom(|t| out.push(t.clone()));
        out
    }

    /// Storage observability counters for this store.
    pub fn storage_stats(&self) -> RelationStorageStats {
        match self {
            FactStore::InMemory(s) => s.storage_stats(),
            FactStore::Spill(s) => s.storage_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambient::counters;

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
    fn the_enum_visits_exactly_what_the_atom_store_yields_and_counts_it_once() {
        // The in-memory variant is the atom store itself: the same candidate
        // sequence in the same order, and one visit through the enum moves
        // the probe counters (`horn.index_probe_share` is computed from them)
        // by exactly what one `AtomStore::candidates` call moves them.
        let mut atoms = AtomStore::new();
        for i in 0..16 {
            atoms.insert(atom("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]));
            atoms.insert(atom("node", &[&format!("n{i}")]));
        }
        let store = FactStore::InMemory(atoms.clone());
        let patterns = [
            Term::apps("edge", vec![Term::sym("n3"), Term::var("Y")]),
            Term::apps("edge", vec![Term::var("X"), Term::var("Y")]),
            Term::app(Term::var("P"), vec![Term::var("X")]),
            Term::apps("absent", vec![Term::var("X")]),
        ];
        let probes_during = |run: &mut dyn FnMut()| {
            let before = counters();
            run();
            let moved = counters() - before;
            (moved.index_probes, moved.index_fallback_scans)
        };
        for pattern in &patterns {
            let mut direct = Vec::new();
            let direct_cost = probes_during(&mut || {
                direct = atoms.candidates(pattern).cloned().collect();
            });
            let mut visited = Vec::new();
            let enum_cost = probes_during(&mut || {
                store.for_each_candidate(pattern, |t| visited.push(t.clone()));
            });
            assert_eq!(visited, direct, "candidate sequence for {pattern}");
            assert_eq!(enum_cost, direct_cost, "probe counters for {pattern}");
        }
        // The bound pattern probed an index, the open and variable-named
        // ones fell back to scans: each route was exercised.
        let routes = probes_during(&mut || {
            for pattern in &patterns[..3] {
                store.for_each_candidate(pattern, |_| {});
            }
        });
        assert_eq!(routes, (1, 2));
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
