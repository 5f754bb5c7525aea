//! HiLog symbols.
//!
//! In HiLog there is no distinction between predicate, function and constant
//! symbols (Section 2 of the paper): a single pool of *symbols* is used in
//! every role, and every symbol may be applied at every arity.  A [`Symbol`]
//! is therefore just an immutable, cheaply clonable name.
//!
//! ## Identity, hashing and order
//!
//! Symbols are hash-consed in one global pool, so a name has exactly one
//! allocation for as long as any [`Symbol`] for it is alive, and that
//! allocation's address *is* the symbol's identity:
//!
//! * **`Eq` and `Hash` are identity.**  Equality compares pointers and
//!   hashing feeds the pointer — one machine word — to the hasher.  Every
//!   join probe, table lookup and interner hit in the engine hashes terms
//!   made of symbols, so this is the per-atom constant under evaluation; see
//!   [`crate::hash`] for the hasher those maps use.
//! * **`Ord` is text.**  Ordering compares names byte-wise (after a pointer
//!   fast path), so every `BTreeSet` / `BTreeMap` of terms — answers, models,
//!   JSON, codec output — is ordered the same in every process.
//!
//! Why pointer identity is text identity: [`Symbol::new`] returns the pooled
//! allocation whenever one exists, and [`gc_symbol_pool`] only drops entries
//! whose sole owner is the pool (`strong_count == 1`), i.e. names no
//! `Symbol` refers to.  So two live symbols with the same text always share
//! one allocation, and a name collected and re-interned later gets a fresh
//! allocation that no surviving symbol could be compared against.  A hash is
//! therefore meaningful only within one process: nothing persisted may
//! depend on it (the codec writes names, never pointers or hashes).

use crate::hash::TermSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// The global symbol pool: every [`Symbol::new`] hands out the one shared
/// allocation for its name, which is what makes pointer equality exact.
///
/// The pool grows while names are interned and is drained explicitly:
/// [`gc_symbol_pool`] drops every entry whose only owner is the pool itself,
/// which the durable serving layer runs at checkpoint time so a long-running
/// server ingesting arbitrary vocabularies no longer retains dead names for
/// process lifetime.  Persisted files use payload-local symbol ids (see
/// [`crate::codec`]), so collecting the pool never invalidates anything on
/// disk.
fn pool() -> &'static Mutex<TermSet<Arc<str>>> {
    static POOL: OnceLock<Mutex<TermSet<Arc<str>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(TermSet::default()))
}

/// An interned, immutable HiLog symbol.
///
/// Symbols are hash-consed: [`Symbol::new`] interns the name in a global
/// pool, so two symbols with the same name always share one allocation.
/// Cloning is an [`Arc`] bump; equality and hashing are by that allocation,
/// ordering is by name (see the module docs).
///
/// ```
/// use hilog_core::Symbol;
/// let a = Symbol::new("tc");
/// let b = Symbol::new("tc");
/// assert_eq!(a, b);
/// assert_eq!(a.name(), "tc");
/// ```
#[derive(Clone)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Creates a symbol with the given name, interning it in the global pool.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let mut pool = pool().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = pool.get(name) {
            return Symbol(existing.clone());
        }
        let arc: Arc<str> = Arc::from(name);
        pool.insert(arc.clone());
        Symbol(arc)
    }

    /// Returns the textual name of the symbol.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// Returns `true` if the symbol requires quoting in concrete syntax,
    /// i.e. it does not match `[a-z][A-Za-z0-9_]*` or it is one of the
    /// syntax's keywords (`not`, `is`, `mod`, `div`): `X mod 2` parses to
    /// the application `mod(X, 2)`, which prints as `'mod'(X, 2)`.
    pub fn needs_quoting(&self) -> bool {
        if matches!(&*self.0, "not" | "is" | "mod" | "div") {
            return true;
        }
        let mut chars = self.0.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {
                !chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
            }
            _ => true,
        }
    }
}

/// A point-in-time census of the global symbol pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolPoolStats {
    /// Total names currently interned (live or not).
    pub interned: usize,
    /// Names with at least one owner outside the pool.  While the pool lock
    /// is held no `Symbol` can be created or destroyed, so the strong-count
    /// probe is exact, not racy.
    pub live: usize,
}

/// Number of names in the global pool, live or awaiting [`gc_symbol_pool`]:
/// O(1), one lock and a length — unlike [`symbol_pool_stats`], which walks
/// every entry to tell the live ones apart.
pub fn symbol_pool_len() -> usize {
    pool().lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Counts interned and live names in the global pool: a walk of every entry
/// under the pool's lock, for the occasional census (`GET /stats`, a
/// checkpoint's outcome) — not for a per-query path.
pub fn symbol_pool_stats() -> SymbolPoolStats {
    let pool = pool().lock().unwrap_or_else(|e| e.into_inner());
    let live = pool.iter().filter(|arc| Arc::strong_count(arc) > 1).count();
    SymbolPoolStats {
        interned: pool.len(),
        live,
    }
}

/// Garbage-collects the global symbol pool: drops every interned name whose
/// only remaining owner is the pool itself, returning how many were dropped.
///
/// Soundness: `Symbol::new` takes the same lock, so no new reference to an
/// entry can appear between the strong-count check and the drop, and an
/// entry some `Symbol` still holds is never dropped — which is what keeps
/// pointer identity equal to text identity (module docs).  A name collected
/// here and re-interned later simply gets a fresh allocation.
pub fn gc_symbol_pool() -> usize {
    let mut pool = pool().lock().unwrap_or_else(|e| e.into_inner());
    let before = pool.len();
    pool.retain(|arc| Arc::strong_count(arc) > 1);
    before - pool.len()
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The interned allocation's address: equal exactly when `eq` is.
        state.write_usize(Arc::as_ptr(&self.0) as *const u8 as usize);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.needs_quoting() {
            write!(f, "'{}'", self.0.replace('\'', "\\'"))
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(s)
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{hash_one, TermSet};
    use crate::term::Term;
    use std::sync::Barrier;

    #[test]
    fn equality_is_by_name() {
        assert_eq!(Symbol::new("move"), Symbol::new("move"));
        assert_ne!(Symbol::new("move"), Symbol::new("move1"));
    }

    #[test]
    fn clones_share_storage() {
        let a = Symbol::new("winning");
        let b = a.clone();
        assert_eq!(a, b);
        // Both point at the same allocation.
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn independent_constructions_are_hash_consed() {
        // Two symbols built from the same text share the pooled allocation,
        // so equality is a pointer comparison.
        let a = Symbol::new("hash_consed_probe");
        let b = Symbol::new(String::from("hash_consed_probe"));
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(hash_one(&a), hash_one(&b));
    }

    #[test]
    fn hash_set_membership() {
        let mut set = TermSet::default();
        set.insert(Symbol::new("game"));
        assert!(set.contains(&Symbol::new("game")));
        assert!(!set.contains(&Symbol::new("games")));
    }

    #[test]
    fn display_plain_and_quoted() {
        assert_eq!(Symbol::new("tc").to_string(), "tc");
        assert_eq!(Symbol::new("Tc").to_string(), "'Tc'");
        assert_eq!(Symbol::new("hello world").to_string(), "'hello world'");
        assert_eq!(Symbol::new("x_1").to_string(), "x_1");
    }

    #[test]
    fn needs_quoting_rules() {
        assert!(!Symbol::new("abc").needs_quoting());
        assert!(!Symbol::new("a1_b").needs_quoting());
        assert!(Symbol::new("1abc").needs_quoting());
        assert!(Symbol::new("Abc").needs_quoting());
        assert!(Symbol::new("a-b").needs_quoting());
        assert!(Symbol::new("").needs_quoting());
        for keyword in ["not", "is", "mod", "div"] {
            assert!(Symbol::new(keyword).needs_quoting());
        }
        assert!(!Symbol::new("nota").needs_quoting());
    }

    #[test]
    fn gc_drops_only_pool_owned_names() {
        // Other tests share the global pool, so assert relative effects on
        // names no other test uses.
        let keep = Symbol::new("gc_probe_kept_zq");
        {
            let _drop_me = Symbol::new("gc_probe_dropped_zq");
        }
        let stats = symbol_pool_stats();
        assert!(stats.interned >= stats.live);
        gc_symbol_pool();
        let pool = pool().lock().unwrap_or_else(|e| e.into_inner());
        assert!(pool.get("gc_probe_kept_zq").is_some());
        assert!(pool.get("gc_probe_dropped_zq").is_none());
        drop(pool);
        // A collected name re-interns fine and stays equal to survivors of
        // the same text.
        let again = Symbol::new("gc_probe_dropped_zq");
        assert_eq!(again, Symbol::new("gc_probe_dropped_zq"));
        assert_eq!(keep, Symbol::new("gc_probe_kept_zq"));
    }

    #[test]
    fn hash_agrees_with_eq_across_pool_collections() {
        // A live name survives a collection as the same allocation: a term
        // hashed into a set before the collection is found by a term rebuilt
        // from text after it.
        let live = Symbol::new("gc_hash_probe_live_zq");
        let before = Term::app(Term::Sym(live.clone()), vec![Term::int(1)]);
        let set: TermSet<Term> = [before.clone()].into_iter().collect();
        gc_symbol_pool();
        let rebuilt = Term::apps("gc_hash_probe_live_zq", vec![Term::int(1)]);
        assert!(Arc::ptr_eq(
            &live.0,
            &Symbol::new("gc_hash_probe_live_zq").0
        ));
        assert_eq!(rebuilt, before);
        assert_eq!(hash_one(&rebuilt), hash_one(&before));
        assert!(set.contains(&rebuilt));
        // A name nothing holds is collected; interned again, it is one
        // allocation for every holder, so Hash and Eq agree among them.
        drop(Symbol::new("gc_hash_probe_dead_zq"));
        gc_symbol_pool();
        let a = Symbol::new("gc_hash_probe_dead_zq");
        let b = Symbol::new(String::from("gc_hash_probe_dead_zq"));
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(hash_one(&a), hash_one(&b));
        assert_ne!(a, Symbol::new("gc_hash_probe_dead_zq_other"));
    }

    #[test]
    fn hash_agrees_with_eq_for_symbols_interned_on_four_threads() {
        const THREADS: usize = 4;
        const NAMES: usize = 200;
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // Each thread walks the names from its own offset, so
                    // the threads race to intern every name first.
                    let mut symbols = vec![None; NAMES];
                    for k in 0..NAMES {
                        let i = (k + t * NAMES / THREADS) % NAMES;
                        symbols[i] = Some(Symbol::new(format!("concurrent_probe_{i}_zq")));
                    }
                    symbols.into_iter().map(Option::unwrap).collect::<Vec<_>>()
                })
            })
            .collect();
        let per_thread: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let first: TermSet<Term> = per_thread[0].iter().cloned().map(Term::Sym).collect();
        assert_eq!(first.len(), NAMES);
        for symbols in &per_thread[1..] {
            for (i, symbol) in symbols.iter().enumerate() {
                assert!(Arc::ptr_eq(&symbol.0, &per_thread[0][i].0), "name {i}");
                assert_eq!(symbol, &per_thread[0][i]);
                assert_eq!(hash_one(symbol), hash_one(&per_thread[0][i]));
                assert!(first.contains(&Term::Sym(symbol.clone())));
            }
        }
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Symbol::new("b"), Symbol::new("a"), Symbol::new("c")];
        v.sort();
        assert_eq!(
            v.iter().map(|s| s.name().to_string()).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
    }
}
