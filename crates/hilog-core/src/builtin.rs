//! Builtin (evaluable) literals.
//!
//! The paper's parts-explosion program (Section 6) uses arithmetic
//! (`N = P * M`) alongside aggregation.  To express it we support a small set
//! of evaluable literals in rule bodies:
//!
//! * `X is Expr` — evaluate the arithmetic expression `Expr` (built from
//!   integers, `+`, `-`, `*`, `div`, `mod`) and unify the result with `X`;
//! * comparisons `<`, `<=`, `>`, `>=`, `=:=`, `=\=` over arithmetic
//!   expressions;
//! * syntactic equality `=` and disequality `\=` over arbitrary HiLog terms.
//!
//! Builtins are not HiLog atoms: they do not appear in the Herbrand base and
//! take no part in the well-founded construction; they are evaluated during
//! grounding / rule instantiation, exactly as a deductive database system
//! would evaluate them.

use crate::error::CoreError;
use crate::subst::Substitution;
use crate::term::Term;
use crate::unify::unify_with;
use std::fmt;

/// The operator of a builtin literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinOp {
    /// `X is Expr`: arithmetic evaluation of the right-hand side.
    Is,
    /// `Expr =:= Expr`: arithmetic equality.
    ArithEq,
    /// `Expr =\= Expr`: arithmetic inequality.
    ArithNeq,
    /// `Expr < Expr`.
    Lt,
    /// `Expr <= Expr`.
    Le,
    /// `Expr > Expr`.
    Gt,
    /// `Expr >= Expr`.
    Ge,
    /// `T = T`: syntactic unification.
    Eq,
    /// `T \= T`: syntactic non-unifiability (both sides must be ground for a
    /// sound answer; we require groundness).
    Neq,
}

impl BuiltinOp {
    /// The concrete-syntax spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BuiltinOp::Is => "is",
            BuiltinOp::ArithEq => "=:=",
            BuiltinOp::ArithNeq => "=\\=",
            BuiltinOp::Lt => "<",
            BuiltinOp::Le => "<=",
            BuiltinOp::Gt => ">",
            BuiltinOp::Ge => ">=",
            BuiltinOp::Eq => "=",
            BuiltinOp::Neq => "\\=",
        }
    }
}

/// A builtin literal `left OP right`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BuiltinCall {
    /// The operator.
    pub op: BuiltinOp,
    /// Left operand.
    pub left: Term,
    /// Right operand.
    pub right: Term,
}

impl BuiltinCall {
    /// Creates a builtin literal.
    pub fn new(op: BuiltinOp, left: Term, right: Term) -> Self {
        BuiltinCall { op, left, right }
    }

    /// Applies a substitution to both operands.
    pub fn apply(&self, theta: &Substitution) -> BuiltinCall {
        BuiltinCall {
            op: self.op,
            left: theta.apply(&self.left),
            right: theta.apply(&self.right),
        }
    }

    /// Variables occurring in the builtin.
    pub fn variables(&self) -> Vec<crate::term::Var> {
        let mut vars = self.left.variables();
        for v in self.right.variables() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars
    }

    /// Evaluates the builtin under the given substitution, possibly extending
    /// it (for `is` and `=`).  Returns `Ok(true)` if the builtin succeeds,
    /// `Ok(false)` if it fails, and an error if an operand is insufficiently
    /// instantiated.
    pub fn eval(&self, theta: &mut Substitution) -> Result<bool, CoreError> {
        let left = theta.apply(&self.left);
        let right = theta.apply(&self.right);
        match self.op {
            BuiltinOp::Is => {
                let value = eval_arith(&right)?;
                Ok(unify_with(&left, &Term::Int(value), theta))
            }
            BuiltinOp::Eq => Ok(unify_with(&left, &right, theta)),
            BuiltinOp::Neq => {
                if !left.is_ground() || !right.is_ground() {
                    return Err(CoreError::Uninstantiated(format!(
                        "\\= requires ground operands, got {left} \\= {right}"
                    )));
                }
                Ok(left != right)
            }
            BuiltinOp::ArithEq => Ok(eval_arith(&left)? == eval_arith(&right)?),
            BuiltinOp::ArithNeq => Ok(eval_arith(&left)? != eval_arith(&right)?),
            BuiltinOp::Lt => Ok(eval_arith(&left)? < eval_arith(&right)?),
            BuiltinOp::Le => Ok(eval_arith(&left)? <= eval_arith(&right)?),
            BuiltinOp::Gt => Ok(eval_arith(&left)? > eval_arith(&right)?),
            BuiltinOp::Ge => Ok(eval_arith(&left)? >= eval_arith(&right)?),
        }
    }
}

impl fmt::Display for BuiltinCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op.symbol(), self.right)
    }
}

/// Evaluates an arithmetic expression term to an integer.
///
/// Expressions are HiLog terms whose applications use the symbols `+`, `-`,
/// `*`, `div` and `mod` at arity 2 (and `-` at arity 1 for negation); leaves
/// must be integers.
fn eval_arith(term: &Term) -> Result<i64, CoreError> {
    match term {
        Term::Int(i) => Ok(*i),
        Term::Var(v) => Err(CoreError::Arithmetic(format!("unbound variable {v}"))),
        Term::Sym(s) => Err(CoreError::Arithmetic(format!("non-numeric symbol {s}"))),
        Term::App(name, args) => {
            let op = match &**name {
                Term::Sym(s) => s.name().to_string(),
                other => {
                    return Err(CoreError::Arithmetic(format!(
                        "non-symbol arithmetic operator {other}"
                    )))
                }
            };
            match (op.as_str(), args.len()) {
                ("-", 1) => {
                    let a = eval_arith(&args[0])?;
                    a.checked_neg()
                        .ok_or_else(|| CoreError::Arithmetic("negation overflow".into()))
                }
                ("+", 2) => checked(
                    eval_arith(&args[0])?,
                    eval_arith(&args[1])?,
                    i64::checked_add,
                    "+",
                ),
                ("-", 2) => checked(
                    eval_arith(&args[0])?,
                    eval_arith(&args[1])?,
                    i64::checked_sub,
                    "-",
                ),
                ("*", 2) => checked(
                    eval_arith(&args[0])?,
                    eval_arith(&args[1])?,
                    i64::checked_mul,
                    "*",
                ),
                ("div", 2) | ("/", 2) => {
                    let b = eval_arith(&args[1])?;
                    if b == 0 {
                        return Err(CoreError::Arithmetic("division by zero".into()));
                    }
                    Ok(eval_arith(&args[0])? / b)
                }
                ("mod", 2) => {
                    let b = eval_arith(&args[1])?;
                    if b == 0 {
                        return Err(CoreError::Arithmetic("mod by zero".into()));
                    }
                    Ok(eval_arith(&args[0])?.rem_euclid(b))
                }
                ("min", 2) => Ok(eval_arith(&args[0])?.min(eval_arith(&args[1])?)),
                ("max", 2) => Ok(eval_arith(&args[0])?.max(eval_arith(&args[1])?)),
                (other, n) => Err(CoreError::Arithmetic(format!(
                    "unknown arithmetic operator {other}/{n}"
                ))),
            }
        }
    }
}

fn checked(a: i64, b: i64, f: fn(i64, i64) -> Option<i64>, op: &str) -> Result<i64, CoreError> {
    f(a, b).ok_or_else(|| CoreError::Arithmetic(format!("overflow in {a} {op} {b}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Var;

    fn bin(op: &str, a: Term, b: Term) -> Term {
        Term::apps(op, vec![a, b])
    }

    #[test]
    fn arithmetic_evaluation() {
        // 2 * 47 (spokes per wheel times wheels, from the parts-explosion example)
        let e = bin("*", Term::int(2), Term::int(47));
        assert_eq!(eval_arith(&e).unwrap(), 94);
        let nested = bin("+", bin("*", Term::int(3), Term::int(4)), Term::int(5));
        assert_eq!(eval_arith(&nested).unwrap(), 17);
        assert_eq!(
            eval_arith(&Term::apps("-", vec![Term::int(7)])).unwrap(),
            -7
        );
        assert_eq!(
            eval_arith(&bin("div", Term::int(9), Term::int(2))).unwrap(),
            4
        );
        assert_eq!(
            eval_arith(&bin("mod", Term::int(9), Term::int(2))).unwrap(),
            1
        );
        assert_eq!(
            eval_arith(&bin("min", Term::int(9), Term::int(2))).unwrap(),
            2
        );
        assert_eq!(
            eval_arith(&bin("max", Term::int(9), Term::int(2))).unwrap(),
            9
        );
    }

    #[test]
    fn arithmetic_errors() {
        assert!(eval_arith(&Term::var("X")).is_err());
        assert!(eval_arith(&Term::sym("a")).is_err());
        assert!(eval_arith(&bin("div", Term::int(1), Term::int(0))).is_err());
        assert!(eval_arith(&bin("**", Term::int(1), Term::int(2))).is_err());
        assert!(eval_arith(&bin("*", Term::int(i64::MAX), Term::int(2))).is_err());
    }

    #[test]
    fn is_binds_result() {
        let call = BuiltinCall::new(
            BuiltinOp::Is,
            Term::var("N"),
            bin("*", Term::var("P"), Term::var("M")),
        );
        let mut theta = Substitution::from_iter([
            (Var::new("P"), Term::int(2)),
            (Var::new("M"), Term::int(47)),
        ]);
        assert!(call.eval(&mut theta).unwrap());
        assert_eq!(theta.apply(&Term::var("N")), Term::int(94));
    }

    #[test]
    fn is_checks_when_bound() {
        let call = BuiltinCall::new(
            BuiltinOp::Is,
            Term::int(5),
            bin("+", Term::int(2), Term::int(3)),
        );
        assert!(call.eval(&mut Substitution::new()).unwrap());
        let bad = BuiltinCall::new(
            BuiltinOp::Is,
            Term::int(6),
            bin("+", Term::int(2), Term::int(3)),
        );
        assert!(!bad.eval(&mut Substitution::new()).unwrap());
    }

    #[test]
    fn comparisons() {
        let mut theta = Substitution::new();
        assert!(BuiltinCall::new(BuiltinOp::Lt, Term::int(1), Term::int(2))
            .eval(&mut theta)
            .unwrap());
        assert!(!BuiltinCall::new(BuiltinOp::Gt, Term::int(1), Term::int(2))
            .eval(&mut theta)
            .unwrap());
        assert!(BuiltinCall::new(BuiltinOp::Le, Term::int(2), Term::int(2))
            .eval(&mut theta)
            .unwrap());
        assert!(BuiltinCall::new(BuiltinOp::Ge, Term::int(2), Term::int(2))
            .eval(&mut theta)
            .unwrap());
        assert!(BuiltinCall::new(
            BuiltinOp::ArithEq,
            Term::int(2),
            bin("+", Term::int(1), Term::int(1))
        )
        .eval(&mut theta)
        .unwrap());
        assert!(
            BuiltinCall::new(BuiltinOp::ArithNeq, Term::int(3), Term::int(2))
                .eval(&mut theta)
                .unwrap()
        );
    }

    #[test]
    fn syntactic_equality_unifies() {
        let call = BuiltinCall::new(
            BuiltinOp::Eq,
            Term::var("X"),
            Term::apps("f", vec![Term::sym("a")]),
        );
        let mut theta = Substitution::new();
        assert!(call.eval(&mut theta).unwrap());
        assert_eq!(theta.apply(&Term::var("X")).to_string(), "f(a)");
    }

    #[test]
    fn disequality_requires_groundness() {
        let ok = BuiltinCall::new(BuiltinOp::Neq, Term::sym("a"), Term::sym("b"));
        assert!(ok.eval(&mut Substitution::new()).unwrap());
        let eq = BuiltinCall::new(BuiltinOp::Neq, Term::sym("a"), Term::sym("a"));
        assert!(!eq.eval(&mut Substitution::new()).unwrap());
        let unbound = BuiltinCall::new(BuiltinOp::Neq, Term::var("X"), Term::sym("a"));
        assert!(unbound.eval(&mut Substitution::new()).is_err());
    }

    #[test]
    fn display_and_variables() {
        let call = BuiltinCall::new(
            BuiltinOp::Is,
            Term::var("N"),
            bin("*", Term::var("P"), Term::var("M")),
        );
        assert_eq!(call.to_string(), "N is '*'(P, M)");
        assert_eq!(call.variables().len(), 3);
    }

    #[test]
    fn apply_substitutes_operands() {
        let call = BuiltinCall::new(BuiltinOp::Lt, Term::var("X"), Term::int(3));
        let theta = Substitution::from_iter([(Var::new("X"), Term::int(1))]);
        assert_eq!(call.apply(&theta).left, Term::int(1));
    }
}
