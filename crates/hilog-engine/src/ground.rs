//! Ground (Herbrand-instantiated) programs.
//!
//! The well-founded and stable-model constructions of Section 3 / Section 4
//! operate on the set of Herbrand-instantiated rules of a program.  A
//! [`GroundRule`] has a ground head, ground positive body atoms and ground
//! negative body atoms; builtins have already been evaluated away by the
//! grounder, and aggregates are handled by the dedicated aggregation
//! evaluator before reaching this representation.
//!
//! A [`GroundProgram`] is one resident object: an in-memory [`AtomStore`]
//! whose live atoms are exactly the rules' heads (an atom only a body names
//! is interned, not live), and the rules as id triples over its interner.
//! The one `W_P` propagator (`wfs.rs`), shared by the well-founded
//! evaluation and the stable-model search, keeps its values and per-atom
//! counters by those ids and its per-rule counters by rule position; the
//! definitional references and the Gelfond–Lifschitz cross-check read the
//! same ids.  The term form [`GroundRule`] is what builds rules, what
//! displays them and what the tests' references read.

use crate::horn::AtomStore;
use hilog_core::{AtomId, Term, TermSet};
use std::fmt;

/// A fully instantiated rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroundRule {
    /// The ground head atom.
    pub head: Term,
    /// Ground positive body atoms.
    pub pos: Vec<Term>,
    /// Ground negative body atoms.
    pub neg: Vec<Term>,
}

impl GroundRule {
    /// Creates a ground rule, asserting groundness in debug builds.
    pub fn new(head: Term, pos: Vec<Term>, neg: Vec<Term>) -> Self {
        debug_assert!(head.is_ground(), "non-ground head {head}");
        debug_assert!(pos.iter().all(Term::is_ground), "non-ground positive body");
        debug_assert!(neg.iter().all(Term::is_ground), "non-ground negative body");
        GroundRule { head, pos, neg }
    }

    /// A ground fact.
    pub fn fact(head: Term) -> Self {
        GroundRule::new(head, Vec::new(), Vec::new())
    }

    /// Returns `true` if the body is empty.
    pub fn is_fact(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }
}

impl fmt::Display for GroundRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fact() {
            return write!(f, "{}.", self.head);
        }
        let pos = self.pos.iter().map(Term::to_string);
        let body: Vec<String> = pos
            .chain(self.neg.iter().map(|a| format!("not {a}")))
            .collect();
        write!(f, "{} :- {}.", self.head, body.join(", "))
    }
}

/// A ground rule over a [`GroundProgram`]'s atom ids: the form every
/// fixpoint reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct IdRule {
    /// Head atom id.
    pub head: AtomId,
    /// Positive body atom ids.
    pub pos: Vec<AtomId>,
    /// Negative body atom ids.
    pub neg: Vec<AtomId>,
}

impl IdRule {
    /// Returns `true` if the body is empty.
    pub fn is_fact(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }
}

/// A set of ground rules: one atom store and the rules as id triples over
/// its interner.
///
/// Ids are never reused: a rule removed by maintenance can leave an id that
/// no rule mentions, and the relevant base of a computed model is the atoms
/// some rule mentions, not every id.
#[derive(Debug, Clone, Default)]
pub struct GroundProgram {
    /// The rules' heads, live; every atom a rule mentions (and, after
    /// maintenance, possibly some no rule mentions any more), interned.
    pub(crate) atoms: AtomStore,
    /// The rules, in insertion order.
    pub(crate) id_rules: Vec<IdRule>,
}

impl GroundProgram {
    /// The empty ground program.
    pub fn new() -> Self {
        GroundProgram::default()
    }

    /// Builds a ground program from rules, removing exact duplicates while
    /// preserving first-occurrence order.
    pub fn from_rules(rules: Vec<GroundRule>) -> Self {
        let mut program = GroundProgram::new();
        let mut seen = TermSet::default();
        for rule in &rules {
            let ids = program.intern(rule);
            if seen.insert(ids.clone()) {
                program.id_rules.push(ids);
            }
        }
        program
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.id_rules.len()
    }

    /// Returns `true` if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.id_rules.is_empty()
    }

    /// Appends a rule.
    pub fn push(&mut self, rule: GroundRule) {
        let ids = self.intern(&rule);
        self.id_rules.push(ids);
    }

    /// The rules, as terms, in insertion order.
    pub fn rules(&self) -> impl Iterator<Item = GroundRule> + '_ {
        self.id_rules.iter().map(|r| self.resolve(r))
    }

    /// The possibly-true atoms: the heads of the rules.
    pub fn possibly_true(&self) -> &AtomStore {
        &self.atoms
    }

    /// Interns a rule's atoms, its head live, returning its id triple.
    fn intern(&mut self, rule: &GroundRule) -> IdRule {
        let atoms = &mut self.atoms;
        atoms.insert(rule.head.clone());
        IdRule {
            head: atoms.intern(&rule.head),
            pos: rule.pos.iter().map(|a| atoms.intern(a)).collect(),
            neg: rule.neg.iter().map(|a| atoms.intern(a)).collect(),
        }
    }

    /// The rule an id triple stands for.
    fn resolve(&self, rule: &IdRule) -> GroundRule {
        let term = |&id: &AtomId| self.atoms.interner().resolve(id).clone();
        GroundRule {
            head: term(&rule.head),
            pos: rule.pos.iter().map(term).collect(),
            neg: rule.neg.iter().map(term).collect(),
        }
    }

    /// Per atom id, whether some rule mentions it: the relevant base.
    pub(crate) fn mentioned(&self) -> Vec<bool> {
        let mut mentioned = vec![false; self.atoms.interner().len()];
        for rule in &self.id_rules {
            for atom in std::iter::once(&rule.head)
                .chain(&rule.pos)
                .chain(&rule.neg)
            {
                mentioned[atom.index()] = true;
            }
        }
        mentioned
    }
}

impl fmt::Display for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.rules() {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(name: &str, args: &[&str]) -> Term {
        Term::apps(name, args.iter().map(Term::sym).collect())
    }

    #[test]
    fn ground_rule_display() {
        let r = GroundRule::new(
            atom("winning", &["a"]),
            vec![atom("move", &["a", "b"])],
            vec![atom("winning", &["b"])],
        );
        assert_eq!(r.to_string(), "winning(a) :- move(a, b), not winning(b).");
        assert_eq!(
            GroundRule::fact(atom("move", &["a", "b"])).to_string(),
            "move(a, b)."
        );
    }

    #[test]
    fn from_rules_deduplicates() {
        let r = GroundRule::fact(atom("p", &["a"]));
        let gp = GroundProgram::from_rules(vec![r.clone(), r.clone(), r]);
        assert_eq!(gp.len(), 1);
    }

    #[test]
    fn rules_round_trip_through_the_atom_table() {
        let rule = GroundRule::new(
            atom("winning", &["a"]),
            vec![atom("move", &["a", "b"])],
            vec![atom("winning", &["b"])],
        );
        let gp = GroundProgram::from_rules(vec![
            rule.clone(),
            GroundRule::fact(atom("move", &["a", "b"])),
        ]);
        assert_eq!(gp.atoms.interner().len(), 3, "each atom is interned once");
        assert_eq!(gp.rules().next(), Some(rule));
        assert_eq!(gp.mentioned(), vec![true; 3]);
        // Only the heads are possibly true: `winning(b)` occurs negatively.
        let heads: Vec<&Term> = gp.possibly_true().iter().collect();
        assert_eq!(
            heads,
            vec![&atom("move", &["a", "b"]), &atom("winning", &["a"])]
        );
    }
}
