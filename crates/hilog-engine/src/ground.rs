//! Ground (Herbrand-instantiated) programs.
//!
//! The well-founded and stable-model constructions of Section 3 / Section 4
//! operate on the set of Herbrand-instantiated rules of a program.  A
//! [`GroundRule`] has a ground head, ground positive body atoms and ground
//! negative body atoms; builtins have already been evaluated away by the
//! grounder, and aggregates are handled by the dedicated aggregation
//! evaluator before reaching this representation.
//!
//! [`IndexedProgram`] is the id-based form the fixpoint computations use: it
//! interns atoms into dense indices and groups rules by head.

use hilog_core::hash::TermMap;
use hilog_core::term::Term;
use std::collections::BTreeSet;
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
        write!(f, "{} :- ", self.head)?;
        let mut first = true;
        for a in &self.pos {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for a in &self.neg {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "not {a}")?;
        }
        write!(f, ".")
    }
}

/// A set of ground rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundProgram {
    /// The rules.
    pub rules: Vec<GroundRule>,
}

impl GroundProgram {
    /// The empty ground program.
    pub fn new() -> Self {
        GroundProgram::default()
    }

    /// Builds a ground program from rules, removing exact duplicates while
    /// preserving first-occurrence order.
    pub fn from_rules(rules: Vec<GroundRule>) -> Self {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(rules.len());
        for r in rules {
            if seen.insert(r.clone()) {
                out.push(r);
            }
        }
        GroundProgram { rules: out }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Appends a rule.
    pub fn push(&mut self, rule: GroundRule) {
        self.rules.push(rule);
    }

    /// Every atom occurring in the program (heads and bodies).  This is the
    /// *relevant base* over which computed models are reported.
    pub fn atoms(&self) -> BTreeSet<Term> {
        let mut out = BTreeSet::new();
        for r in &self.rules {
            out.insert(r.head.clone());
            out.extend(r.pos.iter().cloned());
            out.extend(r.neg.iter().cloned());
        }
        out
    }

    /// Merges two ground programs.
    pub fn union(&self, other: &GroundProgram) -> GroundProgram {
        let mut rules = self.rules.clone();
        rules.extend(other.rules.iter().cloned());
        GroundProgram::from_rules(rules)
    }
}

impl fmt::Display for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl FromIterator<GroundRule> for GroundProgram {
    fn from_iter<I: IntoIterator<Item = GroundRule>>(iter: I) -> Self {
        GroundProgram::from_rules(iter.into_iter().collect())
    }
}

/// An atom table interning ground atoms into dense `u32` ids.
#[derive(Debug, Clone, Default)]
pub struct AtomTable {
    atoms: Vec<Term>,
    index: TermMap<Term, u32>,
}

impl AtomTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        AtomTable::default()
    }

    /// Interns an atom, returning its id.
    pub fn intern(&mut self, atom: &Term) -> u32 {
        if let Some(&id) = self.index.get(atom) {
            return id;
        }
        let id = self.atoms.len() as u32;
        self.atoms.push(atom.clone());
        self.index.insert(atom.clone(), id);
        id
    }

    /// Looks up an atom's id without interning.
    pub fn lookup(&self, atom: &Term) -> Option<u32> {
        self.index.get(atom).copied()
    }

    /// The atom for an id.
    pub fn atom(&self, id: u32) -> &Term {
        &self.atoms[id as usize]
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Returns `true` if no atom has been interned.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over `(id, atom)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Term)> {
        self.atoms.iter().enumerate().map(|(i, a)| (i as u32, a))
    }
}

/// An id-based rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedRule {
    /// Head atom id.
    pub head: u32,
    /// Positive body atom ids.
    pub pos: Vec<u32>,
    /// Negative body atom ids.
    pub neg: Vec<u32>,
}

/// A ground program interned into dense atom ids, with a rules-by-head index.
#[derive(Debug, Clone)]
pub struct IndexedProgram {
    /// The atom table.
    pub atoms: AtomTable,
    /// The rules.
    pub rules: Vec<IndexedRule>,
    /// For each atom id, the indices of rules whose head is that atom.
    pub rules_by_head: Vec<Vec<u32>>,
}

impl IndexedProgram {
    /// Builds the indexed form of a ground program.
    pub fn build(program: &GroundProgram) -> IndexedProgram {
        let mut atoms = AtomTable::new();
        let mut rules = Vec::with_capacity(program.len());
        for r in &program.rules {
            let head = atoms.intern(&r.head);
            let pos = r.pos.iter().map(|a| atoms.intern(a)).collect();
            let neg = r.neg.iter().map(|a| atoms.intern(a)).collect();
            rules.push(IndexedRule { head, pos, neg });
        }
        let mut rules_by_head = vec![Vec::new(); atoms.len()];
        for (i, r) in rules.iter().enumerate() {
            rules_by_head[r.head as usize].push(i as u32);
        }
        IndexedProgram {
            atoms,
            rules,
            rules_by_head,
        }
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
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
    fn atoms_collects_relevant_base() {
        let gp = GroundProgram::from_rules(vec![GroundRule::new(
            atom("winning", &["a"]),
            vec![atom("move", &["a", "b"])],
            vec![atom("winning", &["b"])],
        )]);
        let atoms = gp.atoms();
        assert_eq!(atoms.len(), 3);
        assert!(atoms.contains(&atom("winning", &["b"])));
    }

    #[test]
    fn union_merges_and_dedups() {
        let a = GroundProgram::from_rules(vec![GroundRule::fact(atom("p", &["a"]))]);
        let b = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("p", &["a"])),
            GroundRule::fact(atom("q", &["b"])),
        ]);
        assert_eq!(a.union(&b).len(), 2);
    }

    #[test]
    fn atom_table_interns_stably() {
        let mut t = AtomTable::new();
        let a = atom("p", &["a"]);
        let id1 = t.intern(&a);
        let id2 = t.intern(&a);
        assert_eq!(id1, id2);
        assert_eq!(t.atom(id1), &a);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&atom("q", &[])), None);
    }

    #[test]
    fn indexed_program_groups_rules_by_head() {
        let gp = GroundProgram::from_rules(vec![
            GroundRule::new(atom("p", &["a"]), vec![], vec![atom("q", &["a"])]),
            GroundRule::new(atom("p", &["a"]), vec![atom("r", &["a"])], vec![]),
            GroundRule::fact(atom("r", &["a"])),
        ]);
        let ip = IndexedProgram::build(&gp);
        assert_eq!(ip.rule_count(), 3);
        assert_eq!(ip.atom_count(), 3);
        let p_id = ip.atoms.lookup(&atom("p", &["a"])).unwrap();
        assert_eq!(ip.rules_by_head[p_id as usize].len(), 2);
    }
}
