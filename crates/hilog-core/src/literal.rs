//! Body literals.
//!
//! A HiLog literal is a HiLog term or a negated HiLog term (Definition 2.1).
//! In addition to the paper's literals we support evaluable *builtin*
//! literals (arithmetic and comparison, see [`crate::builtin`]) and the
//! *aggregation* literal used by the parts-explosion program of Section 6
//! (`N = sum P : in(Mach, X, Y, _, P)`), which the paper treats as the
//! aggregate analogue of negation for modular stratification.

use crate::analysis::EdgeSign;
use crate::builtin::BuiltinCall;
use crate::subst::Substitution;
use crate::term::{Term, Var};
use std::fmt;

/// An aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunc {
    /// Sum of the collected values.
    Sum,
    /// Number of collected tuples.
    Count,
    /// Minimum of the collected values.
    Min,
    /// Maximum of the collected values.
    Max,
}

impl AggregateFunc {
    /// Concrete-syntax name of the function.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunc::Sum => "sum",
            AggregateFunc::Count => "count",
            AggregateFunc::Min => "min",
            AggregateFunc::Max => "max",
        }
    }
}

/// An aggregation literal `Result = func(Value, Pattern)`.
///
/// For every grouping (determined by the variables of `pattern` that are
/// bound by earlier body literals), the engine collects the instantiations of
/// `value` over all true instances of `pattern` and combines them with
/// `func`, unifying the result with `result`.  The paper's example
///
/// ```text
/// contains(Mach, X, Y, N) :- N = sum(P, in(Mach, X, Y, W, P)).
/// ```
///
/// groups by `Mach, X, Y` (bound via the head / earlier subgoals) and sums
/// `P` over the matching `in` atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Aggregate {
    /// The aggregation function.
    pub func: AggregateFunc,
    /// The term the aggregate result is unified with (usually a variable).
    pub result: Term,
    /// The value collected from each matching atom (usually a variable of
    /// `pattern`).
    pub value: Term,
    /// The atom pattern that is matched against settled atoms.
    pub pattern: Term,
}

impl Aggregate {
    /// Creates an aggregation literal.
    pub fn new(func: AggregateFunc, result: Term, value: Term, pattern: Term) -> Self {
        Aggregate {
            func,
            result,
            value,
            pattern,
        }
    }

    /// Applies a substitution to all components.
    pub fn apply(&self, theta: &Substitution) -> Aggregate {
        Aggregate {
            func: self.func,
            result: theta.apply(&self.result),
            value: theta.apply(&self.value),
            pattern: theta.apply(&self.pattern),
        }
    }

    /// Variables occurring anywhere in the aggregate literal.
    pub fn variables(&self) -> Vec<Var> {
        let mut vars = self.result.variables();
        for v in self
            .value
            .variables()
            .into_iter()
            .chain(self.pattern.variables())
        {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {}({}, {})",
            self.result,
            self.func.name(),
            self.value,
            self.pattern
        )
    }
}

/// A body literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// A positive HiLog atom.
    Pos(Term),
    /// A negated HiLog atom (`not A`).
    Neg(Term),
    /// An evaluable builtin.
    Builtin(BuiltinCall),
    /// An aggregation literal.
    Aggregate(Aggregate),
}

impl Literal {
    /// Convenience constructor for a positive literal.
    pub fn pos(atom: Term) -> Literal {
        Literal::Pos(atom)
    }

    /// Convenience constructor for a negative literal.
    pub fn neg(atom: Term) -> Literal {
        Literal::Neg(atom)
    }

    /// Returns the underlying atom for positive and negative literals.
    pub fn atom(&self) -> Option<&Term> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            _ => None,
        }
    }

    /// Returns `true` for negative atom literals.
    pub fn is_negative_atom(&self) -> bool {
        matches!(self, Literal::Neg(_))
    }

    /// The atom this literal makes its rule's head depend on, and the
    /// polarity of that dependency: the atom of an atom literal, an
    /// aggregate's pattern under [`EdgeSign::Negative`] (the paper reads
    /// aggregation as negation), and `None` for a builtin.  Every dependency
    /// graph is built from this one map.
    pub fn dependency(&self) -> Option<(&Term, EdgeSign)> {
        match self {
            Literal::Pos(a) => Some((a, EdgeSign::Positive)),
            Literal::Neg(a) => Some((a, EdgeSign::Negative)),
            Literal::Aggregate(a) => Some((&a.pattern, EdgeSign::Negative)),
            Literal::Builtin(_) => None,
        }
    }

    /// Applies a substitution to the literal.
    pub fn apply(&self, theta: &Substitution) -> Literal {
        match self {
            Literal::Pos(a) => Literal::Pos(theta.apply(a)),
            Literal::Neg(a) => Literal::Neg(theta.apply(a)),
            Literal::Builtin(b) => Literal::Builtin(b.apply(theta)),
            Literal::Aggregate(a) => Literal::Aggregate(a.apply(theta)),
        }
    }

    /// Variables occurring in the literal.
    pub fn variables(&self) -> Vec<Var> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => a.variables(),
            Literal::Builtin(b) => b.variables(),
            Literal::Aggregate(a) => a.variables(),
        }
    }

    /// Returns `true` if the literal contains no variables.
    pub fn is_ground(&self) -> bool {
        self.variables().is_empty()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Builtin(b) => write!(f, "{b}"),
            Literal::Aggregate(a) => write!(f, "{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::BuiltinOp;

    #[test]
    fn literal_constructors_and_accessors() {
        let atom = Term::apps("winning", vec![Term::var("X")]);
        let pos = Literal::pos(atom.clone());
        let neg = Literal::neg(atom.clone());
        assert!(neg.is_negative_atom());
        assert_eq!(pos.atom(), Some(&atom));
        assert_eq!(neg.atom(), Some(&atom));
    }

    #[test]
    fn evaluable_literals_have_no_atom() {
        let b = Literal::Builtin(BuiltinCall::new(BuiltinOp::Lt, Term::int(1), Term::int(2)));
        assert!(b.atom().is_none());
        assert!(b.dependency().is_none());
    }

    #[test]
    fn display_forms() {
        let atom = Term::app(
            Term::apps("winning", vec![Term::var("M")]),
            vec![Term::var("Y")],
        );
        assert_eq!(Literal::neg(atom.clone()).to_string(), "not winning(M)(Y)");
        assert_eq!(Literal::pos(atom).to_string(), "winning(M)(Y)");
        let agg = Aggregate::new(
            AggregateFunc::Sum,
            Term::var("N"),
            Term::var("P"),
            Term::apps(
                "in",
                vec![
                    Term::var("Mach"),
                    Term::var("X"),
                    Term::var("Y"),
                    Term::var("W"),
                    Term::var("P"),
                ],
            ),
        );
        assert_eq!(
            Literal::Aggregate(agg).to_string(),
            "N = sum(P, in(Mach, X, Y, W, P))"
        );
    }

    #[test]
    fn substitution_application() {
        let lit = Literal::neg(Term::app(Term::var("G"), vec![Term::var("X")]));
        let theta = Substitution::from_iter([
            (Var::new("G"), Term::sym("move")),
            (Var::new("X"), Term::sym("a")),
        ]);
        assert_eq!(lit.apply(&theta).to_string(), "not move(a)");
        assert!(lit.apply(&theta).is_ground());
    }

    #[test]
    fn dependencies_read_aggregation_as_negation() {
        let atom = Term::apps("p", vec![Term::var("X")]);
        assert_eq!(
            Literal::pos(atom.clone()).dependency(),
            Some((&atom, EdgeSign::Positive))
        );
        assert_eq!(
            Literal::neg(atom.clone()).dependency(),
            Some((&atom, EdgeSign::Negative))
        );
        let agg = Literal::Aggregate(Aggregate::new(
            AggregateFunc::Count,
            Term::var("N"),
            Term::var("X"),
            atom.clone(),
        ));
        assert_eq!(agg.dependency(), Some((&atom, EdgeSign::Negative)));
    }

    #[test]
    fn variables_of_aggregate() {
        let agg = Aggregate::new(
            AggregateFunc::Sum,
            Term::var("N"),
            Term::var("P"),
            Term::apps("in", vec![Term::var("X"), Term::var("P")]),
        );
        let vars = agg.variables();
        assert_eq!(vars.len(), 3);
    }

    #[test]
    fn aggregate_func_names() {
        assert_eq!(AggregateFunc::Sum.name(), "sum");
        assert_eq!(AggregateFunc::Count.name(), "count");
        assert_eq!(AggregateFunc::Min.name(), "min");
        assert_eq!(AggregateFunc::Max.name(), "max");
    }
}
