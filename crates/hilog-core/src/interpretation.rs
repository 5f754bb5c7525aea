//! Three-valued Herbrand interpretations and finitely represented models.
//!
//! The paper works with *partial interpretations*: consistent sets of ground
//! literals (Definitions 2.2 and 3.2).  An atom is **true** if it appears
//! positively, **false** if it appears negatively, and **undefined**
//! otherwise.  Because both the normal and (especially) the HiLog Herbrand
//! bases can be infinite, computed well-founded / stable models are
//! represented finitely by a [`Model`]: an explicit *base* of relevant atoms
//! together with its true and undefined subsets; every atom outside the base
//! is false by convention (this matches the semantics of (strongly)
//! range-restricted programs, where Observation 5.1 / Lemma 6.3 guarantee
//! that atoms outside the relevant set are false).
//!
//! The module also implements the `extends` and `conservatively extends`
//! relations of Definition 2.4, which Theorems 4.1, 4.2, 5.3 and 5.4 are
//! stated in terms of.

use crate::term::Term;
use std::collections::BTreeSet;
use std::fmt;

/// The three truth values of the well-founded semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth {
    /// The atom is true.
    True,
    /// The atom is false.
    False,
    /// The atom is neither true nor false.
    Undefined,
}

impl Truth {
    /// Returns `true` for [`Truth::True`].
    pub fn is_true(self) -> bool {
        self == Truth::True
    }
    /// Returns `true` for [`Truth::False`].
    pub fn is_false(self) -> bool {
        self == Truth::False
    }
    /// Returns `true` for [`Truth::Undefined`].
    pub fn is_undefined(self) -> bool {
        self == Truth::Undefined
    }
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Truth::True => write!(f, "true"),
            Truth::False => write!(f, "false"),
            Truth::Undefined => write!(f, "undefined"),
        }
    }
}

/// A partial interpretation: a consistent set of ground literals, stored as
/// the set of true atoms and the set of false atoms.
///
/// Atoms in neither set are undefined.  Unlike [`Model`], an
/// `Interpretation` carries no notion of a base: it is exactly the
/// "consistent set of ground literals" of Definition 3.2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interpretation {
    true_atoms: BTreeSet<Term>,
    false_atoms: BTreeSet<Term>,
}

impl Interpretation {
    /// The empty interpretation (everything undefined).
    pub fn new() -> Self {
        Interpretation::default()
    }

    /// Marks an atom true.  Returns `false` if this would make the
    /// interpretation inconsistent (the atom is already false).
    pub fn insert_true(&mut self, atom: Term) -> bool {
        if self.false_atoms.contains(&atom) {
            return false;
        }
        self.true_atoms.insert(atom);
        true
    }

    /// Marks an atom false.  Returns `false` if this would make the
    /// interpretation inconsistent (the atom is already true).
    pub fn insert_false(&mut self, atom: Term) -> bool {
        if self.true_atoms.contains(&atom) {
            return false;
        }
        self.false_atoms.insert(atom);
        true
    }

    /// The truth value of an atom.
    pub fn truth(&self, atom: &Term) -> Truth {
        if self.true_atoms.contains(atom) {
            Truth::True
        } else if self.false_atoms.contains(atom) {
            Truth::False
        } else {
            Truth::Undefined
        }
    }

    /// The set of true atoms.
    pub fn true_atoms(&self) -> &BTreeSet<Term> {
        &self.true_atoms
    }

    /// The set of false atoms.
    pub fn false_atoms(&self) -> &BTreeSet<Term> {
        &self.false_atoms
    }

    /// Total number of literals (true + false).
    pub fn len(&self) -> usize {
        self.true_atoms.len() + self.false_atoms.len()
    }

    /// Returns `true` if no literal is present.
    pub fn is_empty(&self) -> bool {
        self.true_atoms.is_empty() && self.false_atoms.is_empty()
    }

    /// Returns `true` if no atom is both true and false (Definition 3.1).
    pub fn is_consistent(&self) -> bool {
        self.true_atoms.is_disjoint(&self.false_atoms)
    }

    /// Merges another interpretation into this one; returns `false` if the
    /// union would be inconsistent (in which case `self` is left unchanged).
    pub fn merge(&mut self, other: &Interpretation) -> bool {
        if other
            .true_atoms
            .iter()
            .any(|a| self.false_atoms.contains(a))
            || other
                .false_atoms
                .iter()
                .any(|a| self.true_atoms.contains(a))
        {
            return false;
        }
        self.true_atoms.extend(other.true_atoms.iter().cloned());
        self.false_atoms.extend(other.false_atoms.iter().cloned());
        true
    }
}

impl fmt::Display for Interpretation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for a in &self.true_atoms {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for a in &self.false_atoms {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "not {a}")?;
        }
        write!(f, "}}")
    }
}

/// A finitely represented three-valued model.
///
/// `base` is the set of *relevant* ground atoms (for computed models: every
/// atom occurring in the relevant instantiation of the program).  Atoms in
/// `base` are true, undefined or false according to `true_atoms` / `undefined`
/// membership; atoms outside `base` are **false** (the closed-world
/// convention justified by Observation 5.1 and Lemma 6.3 for the program
/// classes this library evaluates).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    base: BTreeSet<Term>,
    true_atoms: BTreeSet<Term>,
    undefined: BTreeSet<Term>,
}

impl Model {
    /// Creates a model.  Atoms listed as true or undefined are added to the
    /// base automatically.
    pub fn new(
        base: impl IntoIterator<Item = Term>,
        true_atoms: impl IntoIterator<Item = Term>,
        undefined: impl IntoIterator<Item = Term>,
    ) -> Self {
        let mut base: BTreeSet<Term> = base.into_iter().collect();
        let true_atoms: BTreeSet<Term> = true_atoms.into_iter().collect();
        let undefined: BTreeSet<Term> = undefined.into_iter().collect();
        base.extend(true_atoms.iter().cloned());
        base.extend(undefined.iter().cloned());
        Model {
            base,
            true_atoms,
            undefined,
        }
    }

    /// The empty model (empty base; every atom false).
    pub fn empty() -> Self {
        Model::default()
    }

    /// A model consisting only of true facts (total, everything else false).
    pub fn from_true_atoms(atoms: impl IntoIterator<Item = Term>) -> Self {
        let true_atoms: BTreeSet<Term> = atoms.into_iter().collect();
        Model {
            base: true_atoms.clone(),
            true_atoms,
            undefined: BTreeSet::new(),
        }
    }

    /// The truth value of a ground atom under this model.
    pub fn truth(&self, atom: &Term) -> Truth {
        if self.true_atoms.contains(atom) {
            Truth::True
        } else if self.undefined.contains(atom) {
            Truth::Undefined
        } else {
            Truth::False
        }
    }

    /// Returns `true` if the atom is true.
    pub fn is_true(&self, atom: &Term) -> bool {
        self.true_atoms.contains(atom)
    }

    /// Returns `true` if the atom is false.
    pub fn is_false(&self, atom: &Term) -> bool {
        !self.true_atoms.contains(atom) && !self.undefined.contains(atom)
    }

    /// Returns `true` if the atom is undefined.
    pub fn is_undefined(&self, atom: &Term) -> bool {
        self.undefined.contains(atom)
    }

    /// The base of relevant atoms.
    pub fn base(&self) -> &BTreeSet<Term> {
        &self.base
    }

    /// The base atoms that could match a (possibly partially instantiated)
    /// atom pattern.
    ///
    /// The base is ordered with application terms keyed by their predicate
    /// name first, so all atoms sharing a ground name form one contiguous
    /// range: the probe seeks to its start and stops at its end, never
    /// scanning the rest of the base.  Patterns with a variable predicate
    /// name (or bare-variable patterns) fall back to the full base.  Callers
    /// still match/unify against each candidate — this only narrows the
    /// walk, exactly like the engine's argument-indexed candidate probes.
    pub fn base_candidates<'a>(&'a self, pattern: &'a Term) -> BaseCandidates<'a> {
        named_range(&self.base, pattern)
    }

    /// The true atoms that could match an atom pattern: the same name-keyed
    /// range seek as [`Model::base_candidates`], over the true set.  The
    /// candidates come in the true set's order.
    pub fn true_candidates<'a>(&'a self, pattern: &'a Term) -> BaseCandidates<'a> {
        named_range(&self.true_atoms, pattern)
    }

    /// The true atoms.
    pub fn true_atoms(&self) -> &BTreeSet<Term> {
        &self.true_atoms
    }

    /// The undefined atoms.
    pub fn undefined_atoms(&self) -> &BTreeSet<Term> {
        &self.undefined
    }

    /// The explicitly false atoms (base atoms that are neither true nor
    /// undefined).  Atoms outside the base are also false but are not
    /// enumerated here.
    pub fn false_base_atoms(&self) -> impl Iterator<Item = &Term> {
        self.base
            .iter()
            .filter(|a| !self.true_atoms.contains(*a) && !self.undefined.contains(*a))
    }

    /// Returns `true` if nothing is undefined (the model is *total* /
    /// two-valued), the condition investigated in Section 6.
    pub fn is_total(&self) -> bool {
        self.undefined.is_empty()
    }

    /// Adds an atom to the base (making it false unless also inserted as true
    /// or undefined).
    pub fn add_base_atom(&mut self, atom: Term) {
        self.base.insert(atom);
    }

    /// Marks an atom true (adding it to the base).
    pub fn set_true(&mut self, atom: Term) {
        self.undefined.remove(&atom);
        self.base.insert(atom.clone());
        self.true_atoms.insert(atom);
    }

    /// Marks an atom undefined (adding it to the base).
    pub fn set_undefined(&mut self, atom: Term) {
        self.true_atoms.remove(&atom);
        self.base.insert(atom.clone());
        self.undefined.insert(atom);
    }

    /// Drops an atom from the model altogether (base, true and undefined
    /// sets): the atom is false and no longer part of the relevant base.
    pub fn remove_atom(&mut self, atom: &Term) {
        self.base.remove(atom);
        self.true_atoms.remove(atom);
        self.undefined.remove(atom);
    }

    /// Merges another model into this one (union of bases, true sets and
    /// undefined sets), moving its atoms rather than copying them.  The
    /// caller is responsible for the two models having disjoint or agreeing
    /// vocabularies (as in Figure 1, where `M := M ∪ M_T` joins models of
    /// disjoint predicate sets).
    pub fn merge(&mut self, mut other: Model) {
        self.base.append(&mut other.base);
        self.true_atoms.append(&mut other.true_atoms);
        self.undefined.append(&mut other.undefined);
        // An atom true in one part and undefined in another would be a bug in
        // the caller; prefer the stronger value.
        if !self.undefined.is_empty() {
            let true_atoms = &self.true_atoms;
            self.undefined.retain(|a| !true_atoms.contains(a));
        }
    }

    /// Converts to an [`Interpretation`] over the base (base atoms only).
    pub fn to_interpretation(&self) -> Interpretation {
        let mut interp = Interpretation::new();
        for a in &self.true_atoms {
            interp.insert_true(a.clone());
        }
        for a in self.false_base_atoms() {
            interp.insert_false(a.clone());
        }
        interp
    }

    /// Definition 2.4 (*extends*): every atom true in `smaller` is true in
    /// `self`, and every atom false in `smaller`'s base is false in `self`.
    pub fn extends(&self, smaller: &Model) -> bool {
        smaller.base.iter().all(|a| match smaller.truth(a) {
            Truth::True => self.truth(a) == Truth::True,
            Truth::False => self.truth(a) == Truth::False,
            Truth::Undefined => true,
        })
    }

    /// Definition 2.4 (*conservatively extends*), checked finitely.
    ///
    /// `self` (the model over the larger language) conservatively extends
    /// `smaller` when:
    ///
    /// 1. every atom of `smaller`'s base has the *same* truth value in both
    ///    models, and
    /// 2. every atom that is true or undefined in `self` and whose predicate
    ///    name is "generated by" the smaller program — as judged by the
    ///    caller-supplied `name_generated` predicate — already belongs to
    ///    `smaller`'s base (so the only extra information about the smaller
    ///    program's predicates is negative).
    pub fn conservatively_extends(
        &self,
        smaller: &Model,
        mut name_generated: impl FnMut(&Term) -> bool,
    ) -> bool {
        for a in &smaller.base {
            if self.truth(a) != smaller.truth(a) {
                return false;
            }
        }
        for a in self.true_atoms.iter().chain(self.undefined.iter()) {
            if name_generated(a) && !smaller.base.contains(a) {
                return false;
            }
        }
        true
    }

    /// Restricts the model to the atoms satisfying the predicate (used to
    /// project a model of `P ∪ Q` back onto the atoms generated by `P`).
    pub fn restrict(&self, mut keep: impl FnMut(&Term) -> bool) -> Model {
        Model {
            base: self.base.iter().filter(|a| keep(a)).cloned().collect(),
            true_atoms: self
                .true_atoms
                .iter()
                .filter(|a| keep(a))
                .cloned()
                .collect(),
            undefined: self.undefined.iter().filter(|a| keep(a)).cloned().collect(),
        }
    }
}

/// The atoms of one of a model's ordered sets that could match `pattern`.
///
/// `App(name, [])` is the least application with this name, and every
/// non-application orders before all applications, so the range starts
/// exactly at the name's first atom.
fn named_range<'a>(set: &'a BTreeSet<Term>, pattern: &'a Term) -> BaseCandidates<'a> {
    let name = pattern.name();
    if let (Term::App(_, _), true) = (pattern, name.is_ground()) {
        let lower = Term::app(name.clone(), Vec::new());
        return BaseCandidates::Named {
            range: set.range(lower..),
            name,
            arity: pattern.arity(),
        };
    }
    BaseCandidates::All(set.iter())
}

/// Iterator returned by [`Model::base_candidates`] and
/// [`Model::true_candidates`]: either the contiguous name-keyed range of the
/// ordered set, or the whole set for patterns without a ground predicate
/// name.
#[derive(Debug, Clone)]
pub enum BaseCandidates<'a> {
    /// Contiguous range of atoms sharing the pattern's ground name.
    Named {
        /// Range cursor positioned at the name's first atom.
        range: std::collections::btree_set::Range<'a, Term>,
        /// The pattern's (ground) predicate name.
        name: &'a Term,
        /// The pattern's arity; candidates of other arities are skipped.
        arity: Option<usize>,
    },
    /// Whole-set fallback (variable predicate name).
    All(std::collections::btree_set::Iter<'a, Term>),
}

impl<'a> Iterator for BaseCandidates<'a> {
    type Item = &'a Term;

    fn next(&mut self) -> Option<&'a Term> {
        match self {
            BaseCandidates::Named { range, name, arity } => loop {
                let atom = range.next()?;
                // The range is sorted by name first: once the name moves past
                // the pattern's, no later atom can match.
                if atom.name() != *name {
                    return None;
                }
                if atom.arity() == *arity {
                    return Some(atom);
                }
            },
            BaseCandidates::All(iter) => iter.next(),
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "true:      {:?}",
            self.true_atoms
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        )?;
        writeln!(
            f,
            "undefined: {:?}",
            self.undefined
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        )?;
        write!(
            f,
            "false:     {:?}",
            self.false_base_atoms()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(name: &str) -> Term {
        Term::sym(name)
    }

    #[test]
    fn base_candidates_walk_only_the_named_range() {
        let mk = |name: &str, args: &[&str]| Term::apps(name, args.iter().map(Term::sym).collect());
        let hilog = Term::app(
            Term::apps("winning", vec![Term::sym("g")]),
            vec![Term::sym("x")],
        );
        let base = vec![
            Term::sym("zero_ary"),
            mk("edge", &["a", "b"]),
            mk("edge", &["b", "c"]),
            mk("edge", &["a"]), // same name, different arity
            mk("move", &["a", "b"]),
            hilog.clone(),
        ];
        let model = Model::new(base.clone(), vec![], vec![]);
        let probe =
            |pattern: &Term| -> Vec<Term> { model.base_candidates(pattern).cloned().collect() };
        // Ground-named binary pattern: exactly the edge/2 atoms.
        let edges = probe(&mk("edge", &["a", "b"]).clone());
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().all(|a| a.name() == &Term::sym("edge")));
        // Arity discriminates within the name.
        assert_eq!(probe(&Term::apps("edge", vec![Term::var("X")])).len(), 1);
        // HiLog compound names are a range key too.
        assert_eq!(
            probe(&Term::app(
                Term::apps("winning", vec![Term::sym("g")]),
                vec![Term::var("X")],
            )),
            vec![hilog]
        );
        // Variable predicate names fall back to the whole base.
        let open = Term::app(Term::var("P"), vec![Term::var("X"), Term::var("Y")]);
        assert_eq!(probe(&open).len(), base.len());
        // Absent names yield nothing.
        assert!(probe(&Term::apps("absent", vec![Term::var("X")])).is_empty());
    }

    #[test]
    fn true_candidates_walk_only_the_named_true_range() {
        let edge = |a: &str, b: &str| Term::apps("edge", vec![Term::sym(a), Term::sym(b)]);
        let mv = Term::apps("move", vec![Term::sym("a"), Term::sym("b")]);
        let model = Model::new(
            [edge("a", "b"), edge("b", "c"), edge("c", "d"), mv.clone()],
            [edge("c", "d"), edge("a", "b"), mv],
            [],
        );
        let pattern = Term::apps("edge", vec![Term::var("X"), Term::var("Y")]);
        let found: Vec<Term> = model.true_candidates(&pattern).cloned().collect();
        // The true edge atoms only, in the true set's order.
        assert_eq!(found, vec![edge("a", "b"), edge("c", "d")]);
        let open = Term::app(Term::var("P"), vec![Term::var("X"), Term::var("Y")]);
        assert_eq!(model.true_candidates(&open).count(), 3);
    }

    #[test]
    fn interpretation_truth_values() {
        let mut i = Interpretation::new();
        assert!(i.insert_true(atom("s")));
        assert!(i.insert_false(atom("p")));
        assert_eq!(i.truth(&atom("s")), Truth::True);
        assert_eq!(i.truth(&atom("p")), Truth::False);
        assert_eq!(i.truth(&atom("u")), Truth::Undefined);
        assert!(i.is_consistent());
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn interpretation_rejects_inconsistency() {
        let mut i = Interpretation::new();
        assert!(i.insert_true(atom("p")));
        assert!(!i.insert_false(atom("p")));
        assert!(i.is_consistent());
    }

    #[test]
    fn interpretation_merge() {
        let mut a = Interpretation::new();
        a.insert_true(atom("p"));
        let mut b = Interpretation::new();
        b.insert_false(atom("q"));
        assert!(a.merge(&b));
        assert_eq!(a.truth(&atom("q")), Truth::False);
        let mut c = Interpretation::new();
        c.insert_false(atom("p"));
        assert!(!a.merge(&c));
    }

    #[test]
    fn model_truth_with_closed_base() {
        // Example 3.1's well-founded model: r, s true; p, q, t false; u undefined.
        let m = Model::new(
            ["p", "q", "r", "s", "t", "u"].map(atom),
            [atom("r"), atom("s")],
            [atom("u")],
        );
        assert_eq!(m.truth(&atom("r")), Truth::True);
        assert_eq!(m.truth(&atom("p")), Truth::False);
        assert_eq!(m.truth(&atom("u")), Truth::Undefined);
        // Atoms outside the base are false.
        assert_eq!(m.truth(&atom("zzz")), Truth::False);
        assert!(!m.is_total());
        assert_eq!(m.false_base_atoms().count(), 3);
    }

    #[test]
    fn model_mutators() {
        let mut m = Model::empty();
        m.set_true(atom("a"));
        m.set_undefined(atom("b"));
        m.add_base_atom(atom("c"));
        assert!(m.is_true(&atom("a")));
        assert!(m.is_undefined(&atom("b")));
        assert!(m.is_false(&atom("c")));
        m.remove_atom(&atom("a"));
        assert!(m.is_false(&atom("a")));
        assert!(!m.base().contains(&atom("a")));
        m.set_true(atom("b"));
        assert!(m.is_true(&atom("b")));
        assert!(m.is_total());
    }

    #[test]
    fn model_merge_prefers_true_over_undefined() {
        let mut a = Model::new([atom("p")], [], [atom("p")]);
        let b = Model::from_true_atoms([atom("p")]);
        a.merge(b);
        assert_eq!(a.truth(&atom("p")), Truth::True);
    }

    #[test]
    fn extends_relation() {
        let smaller = Model::new([atom("p"), atom("q")], [atom("p")], []);
        // larger keeps p true, q false, adds r true.
        let larger = Model::new(
            [atom("p"), atom("q"), atom("r")],
            [atom("p"), atom("r")],
            [],
        );
        assert!(larger.extends(&smaller));
        // flipping q to true violates extension of falsity.
        let bad = Model::new([atom("p"), atom("q")], [atom("p"), atom("q")], []);
        assert!(!bad.extends(&smaller));
    }

    #[test]
    fn conservative_extension_checks_no_new_positive_info() {
        // smaller: q(a) true over base {q(a)}.
        let qa = Term::apps("q", vec![Term::sym("a")]);
        let qp = Term::apps("q", vec![Term::sym("p")]);
        let smaller = Model::from_true_atoms([qa.clone()]);
        // A conservative extension: q(a) stays true, new atoms (q(p)) false.
        let larger = Model::new([qa.clone(), qp.clone()], [qa.clone()], []);
        let generated = |a: &Term| matches!(a.name(), Term::Sym(s) if s.name() == "q");
        assert!(larger.conservatively_extends(&smaller, generated));
        // A non-conservative extension: q(p) becomes true.
        let bad = Model::from_true_atoms([qa.clone(), qp.clone()]);
        assert!(!bad.conservatively_extends(&smaller, generated));
        // Changing the truth value of q(a) is also non-conservative.
        let bad2 = Model::new([qa.clone()], [], []);
        assert!(!bad2.conservatively_extends(&smaller, generated));
    }

    #[test]
    fn restriction_projects_model() {
        let qa = Term::apps("q", vec![Term::sym("a")]);
        let ra = Term::apps("r", vec![Term::sym("a")]);
        let m = Model::from_true_atoms([qa.clone(), ra.clone()]);
        let only_q = m.restrict(|a| matches!(a.name(), Term::Sym(s) if s.name() == "q"));
        assert!(only_q.is_true(&qa));
        assert!(!only_q.base().contains(&ra));
    }

    #[test]
    fn to_interpretation_conversion() {
        let m = Model::new([atom("p"), atom("q"), atom("u")], [atom("p")], [atom("u")]);
        let i = m.to_interpretation();
        assert_eq!(i.truth(&atom("p")), Truth::True);
        assert_eq!(i.truth(&atom("q")), Truth::False);
        assert_eq!(i.truth(&atom("u")), Truth::Undefined);
    }

    #[test]
    fn display_does_not_panic() {
        let m = Model::new([atom("p")], [atom("p")], []);
        assert!(m.to_string().contains("true"));
        let i = Interpretation::new();
        assert_eq!(i.to_string(), "{}");
    }
}
