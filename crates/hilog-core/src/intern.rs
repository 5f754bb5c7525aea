//! Interning of ground terms into stable, dense [`AtomId`]s.
//!
//! The bottom-up evaluation hot path (the join machinery of the engine's
//! `AtomStore`) wants O(1) identity for ground atoms: posting lists of an
//! argument index should hold machine words, not deep terms, and membership
//! should be one hash probe.  A [`TermInterner`] assigns each distinct term
//! it sees a stable `u32`-sized [`AtomId`]; ids are never reused or
//! invalidated, so index structures built on top of them survive arbitrary
//! insert/remove churn (liveness is the owner's concern — the interner only
//! guarantees the id ↔ term bijection).
//!
//! This is the id layer under the engine's argument-indexed `AtomStore`
//! (`horn.rs` in `hilog-engine`); the engine's ground programs keep their own
//! program-local dense-id table (`AtomTable` in `hilog-engine`'s `ground.rs`).

use crate::hash::TermMap;
use crate::term::Term;

/// A stable, store-local identifier for an interned term.
///
/// Ids are dense (`0..len`) and never reused; two ids from the *same*
/// interner are equal exactly when their terms are structurally equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(u32);

impl AtomId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hash-consing table from terms to stable [`AtomId`]s.
///
/// ```
/// use hilog_core::{intern::TermInterner, Term};
/// let mut interner = TermInterner::new();
/// let a = interner.intern(&Term::apps("move", vec![Term::sym("a"), Term::sym("b")]));
/// let b = interner.intern(&Term::apps("move", vec![Term::sym("a"), Term::sym("b")]));
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a).to_string(), "move(a, b)");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermInterner {
    terms: Vec<Term>,
    ids: TermMap<Term, AtomId>,
}

impl TermInterner {
    /// An empty interner.
    pub fn new() -> Self {
        TermInterner::default()
    }

    /// Interns a term, returning its stable id.  The term is cloned only on
    /// first sight (an O(1) `Arc` bump).
    pub fn intern(&mut self, term: &Term) -> AtomId {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id =
            AtomId(u32::try_from(self.terms.len()).expect("more than u32::MAX interned atoms"));
        self.terms.push(term.clone());
        self.ids.insert(term.clone(), id);
        id
    }

    /// Looks a term's id up without interning it.
    pub fn get(&self, term: &Term) -> Option<AtomId> {
        self.ids.get(term).copied()
    }

    /// The term an id stands for.
    pub fn resolve(&self, id: AtomId) -> &Term {
        &self.terms[id.index()]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Every interned term, indexed by id.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (AtomId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_deduplicated() {
        let mut interner = TermInterner::new();
        let p = Term::apps("p", vec![Term::sym("a")]);
        let q = Term::apps("q", vec![Term::sym("b")]);
        let id_p = interner.intern(&p);
        let id_q = interner.intern(&q);
        assert_ne!(id_p, id_q);
        assert_eq!(interner.intern(&p), id_p);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(id_q), &q);
        assert_eq!(interner.get(&p), Some(id_p));
        assert_eq!(interner.get(&Term::sym("absent")), None);
    }

    #[test]
    fn iteration_is_in_id_order() {
        let mut interner = TermInterner::new();
        let ids: Vec<AtomId> = ["a", "b", "c"]
            .iter()
            .map(|s| interner.intern(&Term::sym(s)))
            .collect();
        let seen: Vec<AtomId> = interner.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, seen);
        assert_eq!(ids[2].index(), 2);
    }
}
