//! Substitutions over HiLog terms.
//!
//! A substitution maps variables to terms.  Because HiLog variables may
//! occur in predicate-name position, applying a substitution can turn a
//! variable-named atom such as `G(X, Y)` into `move1(a, b)` — this is the
//! mechanism by which Figure 1's procedure and the magic-sets evaluation bind
//! predicate names at run time.

use crate::term::{Term, Var};
use std::fmt;

/// A (simultaneous) substitution from variables to terms.
///
/// The bindings are one vector kept sorted by variable, found by binary
/// search: a substitution binds a handful of variables.
/// [`clear`](Substitution::clear) keeps the buffer for the next match, so a
/// caller matching many atoms against one pattern allocates it once.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    bindings: Vec<(Var, Term)>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Self {
        Substitution::default()
    }

    /// The empty substitution, with room for `capacity` bindings.
    pub fn with_capacity(capacity: usize) -> Self {
        Substitution {
            bindings: Vec::with_capacity(capacity),
        }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Returns `true` if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Unbinds every variable, keeping the buffer.
    pub fn clear(&mut self) {
        self.bindings.clear();
    }

    /// Where `var`'s binding is, or where it would go.
    fn position(&self, var: &Var) -> Result<usize, usize> {
        self.bindings.binary_search_by(|(v, _)| v.cmp(var))
    }

    /// Looks up a variable's binding (not followed transitively).
    pub fn get(&self, var: &Var) -> Option<&Term> {
        let at = self.position(var).ok()?;
        Some(&self.bindings[at].1)
    }

    /// Returns `true` if the variable is bound.
    pub fn contains(&self, var: &Var) -> bool {
        self.position(var).is_ok()
    }

    /// Binds `var` to `term`, replacing any previous binding.
    pub fn bind(&mut self, var: Var, term: Term) {
        match self.position(&var) {
            Ok(at) => self.bindings[at].1 = term,
            Err(at) => self.bindings.insert(at, (var, term)),
        }
    }

    /// Iterates over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Term)> {
        self.bindings.iter().map(|(v, t)| (v, t))
    }

    /// Resolves a variable through chains of variable-to-variable bindings,
    /// returning the final binding applied to this substitution.
    pub fn walk(&self, var: &Var) -> Option<Term> {
        let mut current = self.get(var)?;
        // Follow variable chains, guarding against accidental cycles.
        let mut steps = 0usize;
        loop {
            match current {
                Term::Var(v) => {
                    if let Some(next) = self.get(v) {
                        steps += 1;
                        if steps > self.len() {
                            // A cycle of variable bindings; return as-is.
                            return Some(self.apply(current));
                        }
                        current = next;
                    } else {
                        return Some(current.clone());
                    }
                }
                _ => return Some(self.apply(current)),
            }
        }
    }

    /// Applies the substitution to a term, replacing bound variables by their
    /// (recursively substituted) bindings.
    ///
    /// Subterms the substitution does not touch are **shared** with the input
    /// (an `Arc` bump, no rebuild), so repeated applications over mostly
    /// ground terms cost O(changed) and keep pointer identity — which the
    /// pointer fast paths of [`Term`]'s equality/ordering then exploit.
    pub fn apply(&self, term: &Term) -> Term {
        if self.is_empty() {
            return term.clone();
        }
        self.apply_shared(term, 0).unwrap_or_else(|| term.clone())
    }

    /// Returns `Some(rewritten)` when the substitution changes the term,
    /// `None` when it leaves it untouched (the caller reuses the original).
    fn apply_shared(&self, term: &Term, depth: usize) -> Option<Term> {
        // Depth guard: bindings produced by unification with occurs check are
        // acyclic, so this is defensive only.
        const MAX_DEPTH: usize = 10_000;
        match term {
            Term::Var(v) => match self.get(v) {
                Some(t) if depth < MAX_DEPTH && t != term => {
                    Some(self.apply_shared(t, depth + 1).unwrap_or_else(|| t.clone()))
                }
                Some(t) => Some(t.clone()),
                None => None,
            },
            Term::Sym(_) | Term::Int(_) => None,
            Term::App(name, args) => {
                let new_name = self.apply_shared(name, depth);
                // Rebuild the argument vector lazily: untouched prefixes are
                // copied (cheap Arc bumps) only once a change appears.
                let mut new_args: Option<Vec<Term>> = None;
                for (i, a) in args.iter().enumerate() {
                    match self.apply_shared(a, depth) {
                        Some(changed) => {
                            new_args
                                .get_or_insert_with(|| args[..i].to_vec())
                                .push(changed);
                        }
                        None => {
                            if let Some(v) = new_args.as_mut() {
                                v.push(a.clone());
                            }
                        }
                    }
                }
                if new_name.is_none() && new_args.is_none() {
                    return None;
                }
                let name = match new_name {
                    Some(n) => std::sync::Arc::new(n),
                    None => name.clone(),
                };
                let args: std::sync::Arc<[Term]> = match new_args {
                    Some(v) => v.into(),
                    None => args.clone(),
                };
                Some(Term::App(name, args))
            }
        }
    }

    /// Returns `true` if every binding is to a ground term.
    pub fn is_ground(&self) -> bool {
        self.bindings.iter().all(|(_, t)| t.is_ground())
    }
}

impl fmt::Debug for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} -> {t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Var, Term)> for Substitution {
    fn from_iter<I: IntoIterator<Item = (Var, Term)>>(iter: I) -> Self {
        // Sorted once rather than inserted one at a time.  A variable bound
        // twice keeps its last binding, as `bind` would: the stable sort of
        // the reversed list puts it first among its equals, and `dedup_by`
        // keeps the first.
        let mut bindings: Vec<(Var, Term)> = iter.into_iter().collect();
        bindings.reverse();
        bindings.sort_by(|(a, _), (b, _)| a.cmp(b));
        bindings.dedup_by(|(later, _), (kept, _)| later == kept);
        Substitution { bindings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_replaces_variables_in_name_position() {
        // G(X, Y) with G -> move1, X -> a  becomes  move1(a, Y)
        let atom = Term::app(Term::var("G"), vec![Term::var("X"), Term::var("Y")]);
        let theta = Substitution::from_iter([
            (Var::new("G"), Term::sym("move1")),
            (Var::new("X"), Term::sym("a")),
        ]);
        assert_eq!(theta.apply(&atom).to_string(), "move1(a, Y)");
    }

    #[test]
    fn apply_is_recursive_through_bindings() {
        // X -> f(Y), Y -> a : applying to X yields f(a).
        let theta = Substitution::from_iter([
            (Var::new("X"), Term::apps("f", vec![Term::var("Y")])),
            (Var::new("Y"), Term::sym("a")),
        ]);
        assert_eq!(theta.apply(&Term::var("X")).to_string(), "f(a)");
    }

    #[test]
    fn walk_follows_variable_chains() {
        let theta = Substitution::from_iter([
            (Var::new("X"), Term::var("Y")),
            (Var::new("Y"), Term::var("Z")),
            (Var::new("Z"), Term::sym("c")),
        ]);
        assert_eq!(theta.walk(&Var::new("X")), Some(Term::sym("c")));
        assert_eq!(theta.walk(&Var::new("W")), None);
    }

    #[test]
    fn groundness_of_substitution() {
        let g = Substitution::from_iter([(Var::new("X"), Term::sym("a"))]);
        assert!(g.is_ground());
        let ng = Substitution::from_iter([(Var::new("X"), Term::var("Y"))]);
        assert!(!ng.is_ground());
    }

    #[test]
    fn bindings_stay_sorted_and_clear_keeps_the_buffer() {
        let mut theta = Substitution::from_iter([
            (Var::new("Y"), Term::sym("b")),
            (Var::new("X"), Term::sym("a")),
            (Var::new("Y"), Term::sym("c")),
        ]);
        assert_eq!(theta.to_string(), "{X -> a, Y -> c}");
        assert_eq!(theta.get(&Var::new("Y")), Some(&Term::sym("c")));
        let capacity = theta.bindings.capacity();
        theta.clear();
        assert!(theta.is_empty() && !theta.contains(&Var::new("X")));
        assert_eq!(theta.bindings.capacity(), capacity);
    }

    #[test]
    fn display_format() {
        let theta = Substitution::from_iter([(Var::new("X"), Term::sym("a"))]);
        assert_eq!(theta.to_string(), "{X -> a}");
    }
}
