//! Three-valued Herbrand interpretations and finitely represented models.
//!
//! The paper works with *partial interpretations*: consistent sets of ground
//! literals (Definitions 2.2 and 3.2).  An atom is **true** if it appears
//! positively, **false** if it appears negatively, and **undefined**
//! otherwise: every atom has exactly one truth value.  Because both the
//! normal and (especially) the HiLog Herbrand bases can be infinite, computed
//! well-founded / stable models are represented finitely by a [`Model`]: one
//! ordered map from each atom of an explicit *base* of relevant atoms to its
//! value.  Every atom outside the base is false (Observation 5.1 / Lemma 6.3
//! guarantee this for (strongly) range-restricted programs).
//!
//! The module also implements the `extends` and `conservatively extends`
//! relations of Definition 2.4, which Theorems 4.1, 4.2, 5.3 and 5.4 are
//! stated in terms of.

use crate::term::Term;
use std::collections::{btree_map, BTreeMap};
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
    /// The value's name: `true`, `false` or `undefined`.
    pub fn as_str(self) -> &'static str {
        match self {
            Truth::True => "true",
            Truth::False => "false",
            Truth::Undefined => "undefined",
        }
    }
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A finitely represented three-valued model: one ordered map from each
/// atom of the base to its truth value.
///
/// The base is the set of *relevant* ground atoms (for computed models: every
/// atom occurring in the relevant instantiation of the program); atoms
/// outside it are **false**.  Two models are equal when they have the same
/// base and give each of its atoms the same value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    atoms: BTreeMap<Term, Truth>,
}

impl Model {
    /// Creates a model.  Atoms listed as true or undefined are added to the
    /// base automatically; an atom listed as true is true, and otherwise an
    /// atom listed as undefined is undefined.
    pub fn new(
        base: impl IntoIterator<Item = Term>,
        true_atoms: impl IntoIterator<Item = Term>,
        undefined: impl IntoIterator<Item = Term>,
    ) -> Self {
        let mut model: Model = base.into_iter().map(|a| (a, Truth::False)).collect();
        for atom in undefined {
            model.atoms.insert(atom, Truth::Undefined);
        }
        for atom in true_atoms {
            model.atoms.insert(atom, Truth::True);
        }
        model
    }

    /// The empty model (empty base; every atom false).
    pub fn empty() -> Self {
        Model::default()
    }

    /// A model consisting only of true facts (total, everything else false).
    pub fn from_true_atoms(atoms: impl IntoIterator<Item = Term>) -> Self {
        atoms.into_iter().map(|a| (a, Truth::True)).collect()
    }

    /// The truth value of a ground atom under this model.
    pub fn truth(&self, atom: &Term) -> Truth {
        self.atoms.get(atom).copied().unwrap_or(Truth::False)
    }

    /// Returns `true` if the atom is true.
    pub fn is_true(&self, atom: &Term) -> bool {
        self.truth(atom).is_true()
    }

    /// Returns `true` if the atom is false.
    pub fn is_false(&self, atom: &Term) -> bool {
        self.truth(atom).is_false()
    }

    /// Returns `true` if the atom is undefined.
    pub fn is_undefined(&self, atom: &Term) -> bool {
        self.truth(atom).is_undefined()
    }

    /// The base of relevant atoms.
    pub fn base(&self) -> Atoms<'_> {
        self.view(None)
    }

    /// The true atoms.
    pub fn true_atoms(&self) -> Atoms<'_> {
        self.view(Some(Truth::True))
    }

    /// The undefined atoms.
    pub fn undefined_atoms(&self) -> Atoms<'_> {
        self.view(Some(Truth::Undefined))
    }

    /// The false atoms of the base.  Atoms outside the base are also false
    /// but are not enumerated here.
    pub fn false_base_atoms(&self) -> Atoms<'_> {
        self.view(Some(Truth::False))
    }

    fn view(&self, only: Option<Truth>) -> Atoms<'_> {
        let atoms = &self.atoms;
        Atoms { atoms, only }
    }

    /// The base atoms that could match a (possibly partially instantiated)
    /// atom pattern.
    ///
    /// Terms order by predicate name first, so all atoms sharing a ground
    /// name form one contiguous range of the map: the probe seeks to its
    /// start and stops at its end.  Patterns with a variable predicate name
    /// (or bare-variable patterns) fall back to the full base.  Callers
    /// still match/unify against each candidate.
    pub fn base_candidates<'a>(&'a self, pattern: &'a Term) -> impl Iterator<Item = &'a Term> {
        self.candidates(pattern, None)
    }

    /// The true atoms that could match an atom pattern: the same name-keyed
    /// range seek as [`Model::base_candidates`], keeping the true entries.
    pub fn true_candidates<'a>(&'a self, pattern: &'a Term) -> impl Iterator<Item = &'a Term> {
        self.candidates(pattern, Some(Truth::True))
    }

    /// `App(name, [])` is the least application with this name, and every
    /// non-application orders before all applications.
    fn candidates<'a>(
        &'a self,
        pattern: &'a Term,
        only: Option<Truth>,
    ) -> impl Iterator<Item = &'a Term> {
        let name = pattern.name();
        let named = matches!(pattern, Term::App(..)) && name.is_ground();
        let entries = if named {
            self.atoms.range(Term::app(name.clone(), Vec::new())..)
        } else {
            self.atoms.range::<Term, _>(..)
        };
        entries
            .take_while(move |(atom, _)| !named || atom.name() == name)
            .filter(move |(atom, &truth)| {
                only.is_none_or(|o| o == truth) && (!named || atom.arity() == pattern.arity())
            })
            .map(|(atom, _)| atom)
    }

    /// Returns `true` if nothing is undefined (the model is *total* /
    /// two-valued), the condition investigated in Section 6.  Walks the base.
    pub fn is_total(&self) -> bool {
        !self.atoms.values().any(|t| t.is_undefined())
    }

    /// Gives an atom a truth value (adding it to the base) and returns the
    /// value it had if it was already in the base.
    pub fn insert(&mut self, atom: Term, truth: Truth) -> Option<Truth> {
        self.atoms.insert(atom, truth)
    }

    /// Merges another model into this one (union of bases), moving the
    /// smaller model's atoms into the larger.  An atom in both keeps the
    /// stronger value: true over undefined over false.  (Figure 1's
    /// `M := M ∪ M_T` joins models of disjoint predicate sets.)
    pub fn merge(&mut self, mut other: Model) {
        if other.atoms.len() > self.atoms.len() {
            std::mem::swap(self, &mut other);
        }
        for (atom, truth) in other.atoms {
            let slot = self.atoms.entry(atom).or_insert(truth);
            if *slot != Truth::True && truth != Truth::False {
                *slot = truth;
            }
        }
    }

    /// Definition 2.4 (*extends*): every atom true in `smaller` is true in
    /// `self`, and every atom false in `smaller`'s base is false in `self`.
    pub fn extends(&self, smaller: &Model) -> bool {
        let kept = |(a, &t): (&Term, &Truth)| t.is_undefined() || self.truth(a) == t;
        smaller.atoms.iter().all(kept)
    }

    /// Definition 2.4 (*conservatively extends*), checked finitely.
    ///
    /// `self` (the model over the larger language) conservatively extends
    /// `smaller` when every atom of `smaller`'s base has the *same* value in
    /// both, and every atom true or undefined in `self` whose name is
    /// generated by the smaller program (`name_generated`) is in `smaller`'s
    /// base: the only extra information about its predicates is negative.
    pub fn conservatively_extends(
        &self,
        smaller: &Model,
        mut name_generated: impl FnMut(&Term) -> bool,
    ) -> bool {
        smaller.atoms.iter().all(|(a, &t)| self.truth(a) == t)
            && self
                .atoms
                .iter()
                .all(|(a, &t)| t.is_false() || !name_generated(a) || smaller.atoms.contains_key(a))
    }
}

/// Builds a model from each base atom's value.
impl FromIterator<(Term, Truth)> for Model {
    fn from_iter<I: IntoIterator<Item = (Term, Truth)>>(atoms: I) -> Self {
        let atoms = atoms.into_iter().collect();
        Model { atoms }
    }
}

/// A view of a model's base atoms in term order: all of them
/// ([`Model::base`]) or those of one truth value ([`Model::true_atoms`],
/// [`Model::undefined_atoms`], [`Model::false_base_atoms`]).
#[derive(Debug, Clone, Copy)]
pub struct Atoms<'a> {
    atoms: &'a BTreeMap<Term, Truth>,
    only: Option<Truth>,
}

impl<'a> Atoms<'a> {
    /// The atoms, in term order.
    pub fn iter(&self) -> AtomsIter<'a> {
        let (entries, only) = (self.atoms.iter(), self.only);
        AtomsIter { entries, only }
    }

    /// The number of atoms.  A view of one truth value walks the base.
    pub fn len(&self) -> usize {
        match self.only {
            None => self.atoms.len(),
            Some(_) => self.iter().count(),
        }
    }

    /// Returns `true` if the view holds no atom.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Returns `true` if the atom is in the view.
    pub fn contains(&self, atom: &Term) -> bool {
        let truth = self.atoms.get(atom);
        truth.is_some_and(|&t| self.only.is_none_or(|o| o == t))
    }
}

impl<'a> IntoIterator for Atoms<'a> {
    type Item = &'a Term;
    type IntoIter = AtomsIter<'a>;

    fn into_iter(self) -> AtomsIter<'a> {
        self.iter()
    }
}

/// The iterator of an [`Atoms`] view.
#[derive(Debug, Clone)]
pub struct AtomsIter<'a> {
    entries: btree_map::Iter<'a, Term, Truth>,
    only: Option<Truth>,
}

impl<'a> Iterator for AtomsIter<'a> {
    type Item = &'a Term;

    fn next(&mut self) -> Option<&'a Term> {
        let only = self.only;
        self.entries
            .find_map(|(a, &t)| only.is_none_or(|o| o == t).then_some(a))
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |atoms: Atoms<'_>| atoms.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        writeln!(f, "true:      {:?}", names(self.true_atoms()))?;
        writeln!(f, "undefined: {:?}", names(self.undefined_atoms()))?;
        write!(f, "false:     {:?}", names(self.false_base_atoms()))
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
        // The true edge atoms only, in term order.
        assert_eq!(found, vec![edge("a", "b"), edge("c", "d")]);
        let open = Term::app(Term::var("P"), vec![Term::var("X"), Term::var("Y")]);
        assert_eq!(model.true_candidates(&open).count(), 3);
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
        assert_eq!(m.false_base_atoms().len(), 3);
    }

    #[test]
    fn model_mutators() {
        let mut m = Model::empty();
        m.insert(atom("b"), Truth::Undefined);
        m.insert(atom("c"), Truth::False);
        assert!(m.is_undefined(&atom("b")));
        assert!(m.is_false(&atom("c")));
        assert!(m.is_false(&atom("a")));
        assert!(!m.base().contains(&atom("a")));
        m.insert(atom("b"), Truth::True);
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

    /// Every atom has exactly one value, and the three views partition the
    /// base, through `Model::new` with overlapping lists, every mutator and
    /// `merge`.
    #[test]
    fn truth_is_a_function() {
        let [p, q, r, s] = ["p", "q", "r", "s"].map(atom);
        let check = |m: &Model, expected: &[(&Term, Truth)]| {
            let views = [m.true_atoms(), m.undefined_atoms(), m.false_base_atoms()];
            for a in [&p, &q, &r, &s] {
                let holds = [m.is_true(a), m.is_false(a), m.is_undefined(a)];
                assert_eq!(holds.iter().filter(|&&h| h).count(), 1, "{a} in {m}");
                let in_base = usize::from(m.base().contains(a));
                assert_eq!(views.iter().filter(|v| v.contains(a)).count(), in_base);
                assert!(in_base == 1 || m.is_false(a));
            }
            assert_eq!(views.iter().map(|v| v.len()).sum::<usize>(), m.base().len());
            let mut joined: Vec<&Term> = views.iter().flat_map(|v| v.iter()).collect();
            joined.sort();
            assert_eq!(joined, m.base().iter().collect::<Vec<_>>());
            for (a, t) in expected {
                assert_eq!(m.truth(a), *t, "{a} in {m}");
            }
        };
        let mut m = Model::new([p.clone(), q.clone()], [p.clone()], [p.clone(), r.clone()]);
        check(
            &m,
            &[
                (&p, Truth::True),
                (&q, Truth::False),
                (&r, Truth::Undefined),
            ],
        );
        assert_eq!(m.insert(p.clone(), Truth::Undefined), Some(Truth::True));
        check(&m, &[(&p, Truth::Undefined)]);
        m.insert(q.clone(), Truth::True);
        check(&m, &[(&q, Truth::True)]);
        assert_eq!(m.insert(s.clone(), Truth::False), None);
        check(&m, &[(&q, Truth::True), (&s, Truth::False)]);
        assert_eq!(m.insert(s.clone(), Truth::Undefined), Some(Truth::False));
        check(&m, &[(&s, Truth::Undefined)]);
        assert_eq!(m.insert(r.clone(), Truth::False), Some(Truth::Undefined));
        check(&m, &[(&r, Truth::False)]);
        // merge: true over undefined over false, whichever side holds which.
        m.merge(Model::new([p.clone(), r.clone()], [p.clone()], []));
        check(&m, &[(&p, Truth::True), (&r, Truth::False)]);
        let mut small = Model::new([q.clone()], [], [r.clone()]);
        small.merge(m.clone());
        check(&small, &[(&q, Truth::True), (&r, Truth::Undefined)]);
        let everywhere = Model::new([p.clone()], [p.clone()], [p.clone()]);
        check(&everywhere, &[(&p, Truth::True)]);
    }

    #[test]
    fn display_does_not_panic() {
        let m = Model::new([atom("p")], [atom("p")], []);
        assert!(m.to_string().contains("true"));
    }
}
