//! Relation storage for the normal Datalog baseline.
//!
//! A relation is a named set of ground first-order tuples.  Tuples are plain
//! vectors of ground [`Term`]s (constants, integers, or first-order function
//! terms); the store indexes them by the value of their first column, which
//! is the access pattern the semi-naive joins use most.

use hilog_core::Term;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A relation name together with its arity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationName {
    /// The predicate symbol.
    pub name: String,
    /// Number of columns.
    pub arity: usize,
}

impl RelationName {
    /// Creates a relation name.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        RelationName {
            name: name.into(),
            arity,
        }
    }
}

impl fmt::Display for RelationName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

/// A set of ground tuples with a first-column index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation {
    tuples: BTreeSet<Vec<Term>>,
    by_first: BTreeMap<Term, Vec<Vec<Term>>>,
}

impl Relation {
    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the tuple contains variables.
    pub fn insert(&mut self, tuple: Vec<Term>) -> bool {
        debug_assert!(
            tuple.iter().all(Term::is_ground),
            "relations store ground tuples"
        );
        if self.tuples.insert(tuple.clone()) {
            if let Some(first) = tuple.first() {
                self.by_first.entry(first.clone()).or_default().push(tuple);
            }
            true
        } else {
            false
        }
    }

    /// Returns `true` if the tuple is present.
    pub fn contains(&self, tuple: &[Term]) -> bool {
        self.tuples.contains(tuple)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Iterates over all tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<Term>> {
        self.tuples.iter()
    }

    /// Tuples whose first column equals `value` (the indexed access path);
    /// falls back to the full scan when the relation is nullary.
    pub fn with_first(&self, value: &Term) -> impl Iterator<Item = &Vec<Term>> {
        self.by_first.get(value).into_iter().flat_map(|v| v.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Term {
        Term::sym(s)
    }

    #[test]
    fn insert_and_lookup() {
        let mut r = Relation::default();
        assert!(r.insert(vec![sym("a"), sym("b")]));
        assert!(!r.insert(vec![sym("a"), sym("b")]));
        assert!(r.contains(&[sym("a"), sym("b")]));
        assert!(!r.contains(&[sym("b"), sym("a")]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn first_column_index() {
        let mut r = Relation::default();
        r.insert(vec![sym("a"), sym("b")]);
        r.insert(vec![sym("a"), sym("c")]);
        r.insert(vec![sym("b"), sym("c")]);
        assert_eq!(r.with_first(&sym("a")).count(), 2);
        assert_eq!(r.with_first(&sym("b")).count(), 1);
        assert_eq!(r.with_first(&sym("z")).count(), 0);
    }

    #[test]
    fn relation_name_display() {
        assert_eq!(RelationName::new("move", 2).to_string(), "move/2");
    }
}
