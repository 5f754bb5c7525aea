//! HiLog terms.
//!
//! Definition 2.1 of the paper: every symbol is a term, every variable is a
//! term, and if `t, t1, ..., tn` are terms (`n >= 0`) then so is
//! `t(t1, ..., tn)`.  There is no distinction between terms and atoms, nor
//! between predicate, function and constant symbols; the Herbrand base and
//! Herbrand universe coincide.
//!
//! Following footnote 1 of the paper we admit 0-ary applications and keep the
//! 0-ary atom `p()` distinct from the bare symbol `p`.
//!
//! Integers are admitted as an extra leaf kind so that the parts-explosion
//! program of Section 6 (which multiplies and sums quantities) can be
//! expressed; they behave like ordinary constant symbols with respect to the
//! semantics.
//!
//! `Eq` and `Hash` are structural over the term tree and *identity* at the
//! leaves: a [`Symbol`] compares and hashes by its interned allocation (see
//! [`crate::symbol`]), so hashing a term costs one word per node and never
//! reads a name.  `Ord` is structural over the tree and *textual* at the
//! leaves, so ordered collections of terms iterate the same in every
//! process.  Hash values are per process: term-keyed maps use
//! [`crate::hash::TermMap`], and nothing persisted depends on a hash.

use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A HiLog variable.
///
/// Variables may appear both in argument positions and in predicate-name
/// positions (e.g. `G` in `tc(G)(X, Y)` or `X` in `p :- X(Y), Y(X)`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var {
    name: Symbol,
    /// Renaming generation.  Source variables have generation 0; fresh
    /// variables produced during evaluation get positive generations so they
    /// can never collide with source variables.
    generation: u32,
}

impl Var {
    /// Creates a source-level variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Var {
            name: Symbol::new(name),
            generation: 0,
        }
    }

    /// Creates a renamed copy of this variable in the given generation.
    pub fn with_generation(&self, generation: u32) -> Self {
        Var {
            name: self.name.clone(),
            generation,
        }
    }

    /// The variable's base name (without the generation suffix).
    pub fn name(&self) -> &str {
        self.name.name()
    }

    /// The renaming generation (0 for source variables).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The interned base name: what the codec numbers, without a trip
    /// through the symbol pool.
    pub(crate) fn symbol(&self) -> &Symbol {
        &self.name
    }

    /// The variable named by an already-interned symbol, in `generation`.
    pub(crate) fn from_symbol(name: Symbol, generation: u32) -> Self {
        Var { name, generation }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({self})")
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.generation == 0 {
            write!(f, "{}", self.name.name())
        } else {
            write!(f, "{}_{}", self.name.name(), self.generation)
        }
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A HiLog term (equivalently, a HiLog atom).
///
/// Application nodes are `Arc`-backed, so cloning any term is O(1) reference
/// bumps — a substitution, a store insertion or a table answer never deep
/// copies.  Equality and ordering are structural but short-circuit on shared
/// pointers, which the Arc-sharing [`crate::subst::Substitution::apply`] and
/// the hash-consed [`Symbol`] pool make the common case on evaluation hot
/// paths.
#[derive(Clone)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A symbol (predicate / function / constant name — HiLog does not
    /// distinguish them).
    Sym(Symbol),
    /// An integer constant.  Semantically an ordinary constant; provided so
    /// arithmetic builtins and aggregation have something to compute with.
    Int(i64),
    /// An application `name(args...)`: the *name* is itself an arbitrary
    /// term, and `args` may be empty (the 0-ary atom `p()` of footnote 1).
    App(Arc<Term>, Arc<[Term]>),
}

impl Term {
    /// Builds a variable term.
    pub fn var(name: impl AsRef<str>) -> Term {
        Term::Var(Var::new(name))
    }

    /// Builds a symbol term.
    pub fn sym(name: impl AsRef<str>) -> Term {
        Term::Sym(Symbol::new(name))
    }

    /// Builds an integer term.
    pub fn int(value: i64) -> Term {
        Term::Int(value)
    }

    /// Builds the application of `name` to `args`.
    pub fn app(name: Term, args: Vec<Term>) -> Term {
        Term::App(Arc::new(name), args.into())
    }

    /// Builds the common case `symbol(args...)`.
    pub fn apps(name: impl AsRef<str>, args: Vec<Term>) -> Term {
        Term::app(Term::sym(name), args)
    }

    /// The canonical list constructors used by the concrete syntax:
    /// `[]` is the symbol `nil`, `[H|T]` is `cons(H, T)`.
    pub fn nil() -> Term {
        Term::sym("nil")
    }

    /// Builds `cons(head, tail)`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::apps("cons", vec![head, tail])
    }

    /// Builds a proper list from the given elements.
    pub fn list(elements: Vec<Term>) -> Term {
        let mut acc = Term::nil();
        for e in elements.into_iter().rev() {
            acc = Term::cons(e, acc);
        }
        acc
    }

    /// Returns `true` if the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Sym(_) | Term::Int(_) => true,
            Term::App(name, args) => name.is_ground() && args.iter().all(Term::is_ground),
        }
    }

    /// Returns `true` if the term is a bare variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// The *name* of the term when viewed as an atom (Definition 2.1):
    /// for `t(t1, ..., tn)` the name is `t`; a bare symbol, integer or
    /// variable is its own name.
    pub fn name(&self) -> &Term {
        match self {
            Term::App(name, _) => name,
            other => other,
        }
    }

    /// The arguments of the term when viewed as an atom; empty for
    /// non-applications.
    pub fn args(&self) -> &[Term] {
        match self {
            Term::App(_, args) => args,
            _ => &[],
        }
    }

    /// The arity of the term when viewed as an atom: `Some(n)` for an n-ary
    /// application, `None` for a bare symbol / variable / integer (which the
    /// paper distinguishes from the 0-ary application `p()`).
    pub fn arity(&self) -> Option<usize> {
        match self {
            Term::App(_, args) => Some(args.len()),
            _ => None,
        }
    }

    /// The *outermost functor* of the predicate name: follows `name()`
    /// recursively until a non-application is reached.  Used by the
    /// stratification analyses of Section 6 ("we can require only that the
    /// outermost functor of every predicate name is ground").
    pub fn outermost_functor(&self) -> &Term {
        let mut t = self;
        while let Term::App(name, _) = t {
            t = name;
        }
        t
    }

    /// Collects the variables of the term, in first-occurrence order.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        self.collect_variables(&mut out, &mut seen);
        out
    }

    fn collect_variables(&self, out: &mut Vec<Var>, seen: &mut BTreeSet<Var>) {
        match self {
            Term::Var(v) => {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
            Term::Sym(_) | Term::Int(_) => {}
            Term::App(name, args) => {
                name.collect_variables(out, seen);
                for a in args.iter() {
                    a.collect_variables(out, seen);
                }
            }
        }
    }

    /// Returns `true` if the variable occurs anywhere in the term.
    pub fn contains_var(&self, var: &Var) -> bool {
        match self {
            Term::Var(v) => v == var,
            Term::Sym(_) | Term::Int(_) => false,
            Term::App(name, args) => {
                name.contains_var(var) || args.iter().any(|a| a.contains_var(var))
            }
        }
    }

    /// Collects every symbol occurring in the term.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_symbols(&mut out);
        out
    }

    /// Collects every symbol occurring in the term into `out`.
    pub fn collect_symbols(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Term::Var(_) | Term::Int(_) => {}
            Term::Sym(s) => {
                out.insert(s.clone());
            }
            Term::App(name, args) => {
                name.collect_symbols(out);
                for a in args.iter() {
                    a.collect_symbols(out);
                }
            }
        }
    }

    /// Collects every integer constant occurring in the term into `out`.
    pub fn collect_integers(&self, out: &mut BTreeSet<i64>) {
        match self {
            Term::Int(i) => {
                out.insert(*i);
            }
            Term::Var(_) | Term::Sym(_) => {}
            Term::App(name, args) => {
                name.collect_integers(out);
                for a in args.iter() {
                    a.collect_integers(out);
                }
            }
        }
    }

    /// Term depth: leaves have depth 1, an application has depth
    /// `1 + max(depth(name), depth(args))`.
    pub fn depth(&self) -> usize {
        match self {
            Term::Var(_) | Term::Sym(_) | Term::Int(_) => 1,
            Term::App(name, args) => {
                1 + name
                    .depth()
                    .max(args.iter().map(Term::depth).max().unwrap_or(0))
            }
        }
    }

    /// Total number of nodes in the term tree.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Sym(_) | Term::Int(_) => 1,
            Term::App(name, args) => 1 + name.size() + args.iter().map(Term::size).sum::<usize>(),
        }
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Term::Var(a), Term::Var(b)) => a == b,
            (Term::Sym(a), Term::Sym(b)) => a == b,
            (Term::Int(a), Term::Int(b)) => a == b,
            (Term::App(n1, a1), Term::App(n2, a2)) => {
                (Arc::ptr_eq(n1, n2) || n1 == n2) && (Arc::ptr_eq(a1, a2) || a1 == a2)
            }
            _ => false,
        }
    }
}

impl Eq for Term {}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Term::Var(v) => v.hash(state),
            Term::Sym(s) => s.hash(state),
            Term::Int(i) => i.hash(state),
            Term::App(name, args) => {
                name.hash(state);
                args.hash(state);
            }
        }
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    fn cmp(&self, other: &Self) -> Ordering {
        // Variant order matches the previous derived ordering:
        // Var < Sym < Int < App.
        match (self, other) {
            (Term::Var(a), Term::Var(b)) => a.cmp(b),
            (Term::Var(_), _) => Ordering::Less,
            (_, Term::Var(_)) => Ordering::Greater,
            (Term::Sym(a), Term::Sym(b)) => a.cmp(b),
            (Term::Sym(_), _) => Ordering::Less,
            (_, Term::Sym(_)) => Ordering::Greater,
            (Term::Int(a), Term::Int(b)) => a.cmp(b),
            (Term::Int(_), _) => Ordering::Less,
            (_, Term::Int(_)) => Ordering::Greater,
            (Term::App(n1, a1), Term::App(n2, a2)) => {
                let name_cmp = if Arc::ptr_eq(n1, n2) {
                    Ordering::Equal
                } else {
                    n1.cmp(n2)
                };
                name_cmp.then_with(|| {
                    if Arc::ptr_eq(a1, a2) {
                        Ordering::Equal
                    } else {
                        a1.iter().cmp(a2.iter())
                    }
                })
            }
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Sym(s) => write!(f, "{s}"),
            Term::Int(i) => write!(f, "{i}"),
            Term::App(name, args) => {
                // Pretty-print lists.
                if let Some(items) = try_list_view(self) {
                    write!(f, "[")?;
                    for (i, item) in items.0.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{item}")?;
                    }
                    if let Some(tail) = items.1 {
                        write!(f, " | {tail}")?;
                    }
                    return write!(f, "]");
                }
                match &**name {
                    // `-3(a)` would read as `-(3(a))`.
                    Term::Int(i) if *i < 0 => write!(f, "({name})(")?,
                    _ => write!(f, "{name}(")?,
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// If the term is a `cons`/`nil` list, returns its elements and an optional
/// non-list tail.
fn try_list_view(term: &Term) -> Option<(Vec<&Term>, Option<&Term>)> {
    let mut items = Vec::new();
    let mut cur = term;
    let mut saw_cons = false;
    loop {
        match cur {
            Term::App(name, args)
                if args.len() == 2 && matches!(&**name, Term::Sym(s) if s.name() == "cons") =>
            {
                saw_cons = true;
                items.push(&args[0]);
                cur = &args[1];
            }
            Term::Sym(s) if s.name() == "nil" => {
                return if saw_cons { Some((items, None)) } else { None };
            }
            other => {
                return if saw_cons {
                    Some((items, Some(other)))
                } else {
                    None
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc_atom() -> Term {
        // tc(G)(X, Y)
        Term::app(
            Term::apps("tc", vec![Term::var("G")]),
            vec![Term::var("X"), Term::var("Y")],
        )
    }

    #[test]
    fn display_nested_application() {
        assert_eq!(tc_atom().to_string(), "tc(G)(X, Y)");
        let t = Term::app(
            Term::apps("p", vec![Term::sym("a"), Term::var("X")]),
            vec![Term::var("Y")],
        );
        assert_eq!(t.to_string(), "p(a, X)(Y)");
        // A negative number applied is parenthesised, a positive one not.
        let negative = Term::app(Term::int(-3), vec![Term::sym("a")]);
        assert_eq!(negative.to_string(), "(-3)(a)");
        assert_eq!(Term::app(Term::int(3), vec![]).to_string(), "3()");
    }

    #[test]
    fn zero_ary_application_is_distinct_from_symbol() {
        let sym = Term::sym("p");
        let app0 = Term::apps("p", vec![]);
        assert_ne!(sym, app0);
        assert_eq!(app0.to_string(), "p()");
        assert_eq!(app0.arity(), Some(0));
        assert_eq!(sym.arity(), None);
    }

    #[test]
    fn groundness() {
        assert!(!tc_atom().is_ground());
        let g = Term::app(
            Term::apps("tc", vec![Term::sym("e")]),
            vec![Term::sym("a"), Term::sym("b")],
        );
        assert!(g.is_ground());
        assert!(Term::int(42).is_ground());
    }

    #[test]
    fn variables_in_name_position_are_collected() {
        let t = Term::app(Term::var("G"), vec![Term::var("X"), Term::var("G").clone()]);
        let vars = t.variables();
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].name(), "G");
        assert_eq!(vars[1].name(), "X");
    }

    #[test]
    fn name_args_and_outermost_functor() {
        let t = tc_atom();
        assert_eq!(t.name().to_string(), "tc(G)");
        assert_eq!(t.args().len(), 2);
        assert_eq!(t.outermost_functor(), &Term::sym("tc"));
        assert_eq!(Term::sym("p").outermost_functor(), &Term::sym("p"));
    }

    #[test]
    fn depth_and_size() {
        let t = tc_atom();
        // tc(G) has depth 2; tc(G)(X,Y) has depth 3.
        assert_eq!(t.depth(), 3);
        assert_eq!(t.size(), 6);
        assert_eq!(Term::sym("a").depth(), 1);
        assert_eq!(Term::sym("a").size(), 1);
    }

    #[test]
    fn symbol_collection() {
        let t = Term::app(
            Term::apps("tc", vec![Term::sym("e")]),
            vec![Term::sym("a"), Term::var("Y")],
        );
        let syms = t.symbols();
        let names: Vec<&str> = syms.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["a", "e", "tc"]);
    }

    #[test]
    fn list_sugar_roundtrip() {
        let l = Term::list(vec![Term::sym("a"), Term::sym("b"), Term::int(3)]);
        assert_eq!(l.to_string(), "[a, b, 3]");
        let open = Term::cons(Term::var("X"), Term::var("R"));
        assert_eq!(open.to_string(), "[X | R]");
        assert_eq!(Term::nil().to_string(), "nil");
        assert_eq!(Term::list(vec![]).to_string(), "nil");
    }

    #[test]
    fn contains_var() {
        let t = tc_atom();
        assert!(t.contains_var(&Var::new("G")));
        assert!(t.contains_var(&Var::new("X")));
        assert!(!t.contains_var(&Var::new("Z")));
    }

    #[test]
    fn fresh_variable_generations_are_distinct() {
        let x = Var::new("X");
        let x1 = x.with_generation(1);
        assert_ne!(x, x1);
        assert_eq!(x1.to_string(), "X_1");
        assert_eq!(x.to_string(), "X");
    }
}
