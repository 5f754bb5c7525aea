//! Rules and queries.
//!
//! A HiLog rule is `A :- L1, ..., Ln` where `A` is a HiLog term and each `Li`
//! is a HiLog literal (Definition 2.1).  A query is a conjunction of literals
//! `?- L1, ..., Ln`; Section 5 explains how queries are classified as range
//! restricted by turning them into an auxiliary `answer(...)` rule.

use crate::literal::Literal;
use crate::subst::Substitution;
use crate::term::{Term, Var};
use crate::unify::rename_term;
use std::fmt;

/// A HiLog rule `head :- body`.  A rule with an empty body is a fact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// The head atom.
    pub head: Term,
    /// The body literals, in source order (order matters for the left-to-right
    /// sideways information passing of the magic-sets method, Section 6.1).
    pub body: Vec<Literal>,
}

impl Rule {
    /// Creates a rule.
    pub fn new(head: Term, body: Vec<Literal>) -> Self {
        Rule { head, body }
    }

    /// Creates a fact (a rule with an empty body).
    pub fn fact(head: Term) -> Self {
        Rule {
            head,
            body: Vec::new(),
        }
    }

    /// Returns `true` if the rule is a fact.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// Returns `true` if the rule (head and body) contains no variables.
    pub fn is_ground(&self) -> bool {
        self.head.is_ground() && self.body.iter().all(Literal::is_ground)
    }

    /// Returns `true` if the body contains a negative literal.
    pub fn has_negation(&self) -> bool {
        self.body.iter().any(Literal::is_negative_atom)
    }

    /// Returns `true` if the body contains an aggregate literal.
    pub fn has_aggregate(&self) -> bool {
        self.body.iter().any(|l| matches!(l, Literal::Aggregate(_)))
    }

    /// The positive body atoms.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Term> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
    }

    /// The negative body atoms.
    pub fn negative_atoms(&self) -> impl Iterator<Item = &Term> {
        self.body.iter().filter_map(|l| match l {
            Literal::Neg(a) => Some(a),
            _ => None,
        })
    }

    /// All variables of the rule, in first-occurrence order (head first).
    pub fn variables(&self) -> Vec<Var> {
        let mut vars = self.head.variables();
        for lit in &self.body {
            for v in lit.variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        vars
    }

    /// Applies a substitution to the whole rule.
    pub fn apply(&self, theta: &Substitution) -> Rule {
        Rule {
            head: theta.apply(&self.head),
            body: self.body.iter().map(|l| l.apply(theta)).collect(),
        }
    }

    /// Renames all variables into the given generation, producing a variant
    /// of the rule that shares no variables with generation-0 terms.
    pub fn rename(&self, generation: u32) -> Rule {
        let rename_lit = |l: &Literal| match l {
            Literal::Pos(a) => Literal::Pos(rename_term(a, generation)),
            Literal::Neg(a) => Literal::Neg(rename_term(a, generation)),
            Literal::Builtin(b) => Literal::Builtin(crate::builtin::BuiltinCall {
                op: b.op,
                left: rename_term(&b.left, generation),
                right: rename_term(&b.right, generation),
            }),
            Literal::Aggregate(a) => Literal::Aggregate(crate::literal::Aggregate {
                func: a.func,
                result: rename_term(&a.result, generation),
                value: rename_term(&a.value, generation),
                pattern: rename_term(&a.pattern, generation),
            }),
        };
        Rule {
            head: rename_term(&self.head, generation),
            body: self.body.iter().map(rename_lit).collect(),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.body.is_empty() {
            write!(f, "{}.", self.head)
        } else {
            write!(f, "{} :- ", self.head)?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
            write!(f, ".")
        }
    }
}

/// A query `?- L1, ..., Ln`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The conjunction of literals to prove.
    pub literals: Vec<Literal>,
}

impl Query {
    /// Creates a query from literals.
    pub fn new(literals: Vec<Literal>) -> Self {
        Query { literals }
    }

    /// Creates a query asking for a single atom.
    pub fn atom(atom: Term) -> Self {
        Query {
            literals: vec![Literal::Pos(atom)],
        }
    }

    /// The free variables of the query, in first-occurrence order.
    pub fn variables(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for lit in &self.literals {
            for v in lit.variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        vars
    }

    /// Turns the query into the auxiliary rule
    /// `answer(X1, ..., Xn) :- L1, ..., Ln` used by Definition 5.5 to define
    /// range restriction of queries and by the magic-sets rewriting to seed
    /// evaluation.
    pub fn as_answer_rule(&self) -> Rule {
        let vars = self.variables();
        let head = Term::apps("answer", vars.into_iter().map(Term::Var).collect());
        Rule::new(head, self.literals.clone())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?- ")?;
        for (i, l) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc_rule() -> Rule {
        // tc(G)(X,Y) :- G(X,Z), tc(G)(Z,Y).
        Rule::new(
            Term::app(
                Term::apps("tc", vec![Term::var("G")]),
                vec![Term::var("X"), Term::var("Y")],
            ),
            vec![
                Literal::pos(Term::app(
                    Term::var("G"),
                    vec![Term::var("X"), Term::var("Z")],
                )),
                Literal::pos(Term::app(
                    Term::apps("tc", vec![Term::var("G")]),
                    vec![Term::var("Z"), Term::var("Y")],
                )),
            ],
        )
    }

    #[test]
    fn display_rule_and_fact() {
        assert_eq!(
            tc_rule().to_string(),
            "tc(G)(X, Y) :- G(X, Z), tc(G)(Z, Y)."
        );
        assert_eq!(Rule::fact(Term::sym("s")).to_string(), "s.");
    }

    #[test]
    fn rule_classification() {
        let r = tc_rule();
        assert!(!r.is_fact());
        assert!(!r.has_negation());
        assert!(!r.is_ground());
        let f = Rule::fact(Term::apps("move", vec![Term::sym("a"), Term::sym("b")]));
        assert!(f.is_fact());
        assert!(f.is_ground());
    }

    #[test]
    fn variable_collection_order() {
        let vars = tc_rule().variables();
        let names: Vec<&str> = vars.iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["G", "X", "Y", "Z"]);
    }

    #[test]
    fn positive_and_negative_atom_iterators() {
        let win = Rule::new(
            Term::apps("winning", vec![Term::var("X")]),
            vec![
                Literal::pos(Term::apps("move", vec![Term::var("X"), Term::var("Y")])),
                Literal::neg(Term::apps("winning", vec![Term::var("Y")])),
            ],
        );
        assert_eq!(win.positive_atoms().count(), 1);
        assert_eq!(win.negative_atoms().count(), 1);
        assert!(win.has_negation());
    }

    #[test]
    fn rename_produces_variant_sharing_no_source_vars() {
        let r = tc_rule();
        let renamed = r.rename(3);
        for v in renamed.variables() {
            assert_eq!(v.generation(), 3);
        }
        // Structure preserved.
        assert_eq!(renamed.body.len(), r.body.len());
    }

    #[test]
    fn apply_substitution_to_rule() {
        let r = tc_rule();
        let theta = Substitution::from_iter([(Var::new("G"), Term::sym("e"))]);
        let inst = r.apply(&theta);
        assert_eq!(inst.to_string(), "tc(e)(X, Y) :- e(X, Z), tc(e)(Z, Y).");
    }

    #[test]
    fn query_answer_rule() {
        // ?- tc(e)(a, Y).
        let q = Query::atom(Term::app(
            Term::apps("tc", vec![Term::sym("e")]),
            vec![Term::sym("a"), Term::var("Y")],
        ));
        let rule = q.as_answer_rule();
        assert_eq!(rule.to_string(), "answer(Y) :- tc(e)(a, Y).");
        assert_eq!(q.to_string(), "?- tc(e)(a, Y).");
        assert_eq!(q.variables().len(), 1);
    }
}
