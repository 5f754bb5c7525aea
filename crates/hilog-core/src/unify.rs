//! HiLog unification.
//!
//! Section 2 of the paper notes (citing Chen, Kifer and Warren) that HiLog
//! unification is decidable and that resolution is sound and complete.
//! Structurally, HiLog unification is first-order unification over the term
//! algebra of [`crate::term::Term`]: two applications unify when their names
//! unify, their arities agree, and their arguments unify pairwise.  The
//! subtlety relative to ordinary logic programming is only that the *name*
//! position is an arbitrary term (possibly a variable), which this module
//! handles uniformly.

use crate::subst::Substitution;
use crate::term::{Term, Var};

/// Unifies two terms, returning the most general unifier if one exists.
///
/// The occurs check is performed, so the result is always an idempotent,
/// acyclic substitution.
///
/// ```
/// use hilog_core::{Term, unify::unify};
/// // tc(G)(X, b)  ~  tc(e)(a, Y)
/// let left = Term::app(Term::apps("tc", vec![Term::var("G")]),
///                      vec![Term::var("X"), Term::sym("b")]);
/// let right = Term::app(Term::apps("tc", vec![Term::sym("e")]),
///                       vec![Term::sym("a"), Term::var("Y")]);
/// let mgu = unify(&left, &right).unwrap();
/// assert_eq!(mgu.apply(&left), mgu.apply(&right));
/// ```
pub fn unify(left: &Term, right: &Term) -> Option<Substitution> {
    let mut subst = Substitution::new();
    if unify_with(left, right, &mut subst) {
        Some(subst)
    } else {
        None
    }
}

/// Unifies two terms under an existing substitution, extending it in place.
/// Returns `false` (leaving the substitution in an unspecified but consistent
/// state for the caller to discard) if unification fails.
pub fn unify_with(left: &Term, right: &Term, subst: &mut Substitution) -> bool {
    let l = subst.apply(left);
    let r = subst.apply(right);
    unify_resolved(&l, &r, subst)
}

fn unify_resolved(left: &Term, right: &Term, subst: &mut Substitution) -> bool {
    match (left, right) {
        (Term::Var(x), Term::Var(y)) if x == y => true,
        (Term::Var(x), t) | (t, Term::Var(x)) => bind(x, t, subst),
        (Term::Sym(a), Term::Sym(b)) => a == b,
        (Term::Int(a), Term::Int(b)) => a == b,
        (Term::App(n1, a1), Term::App(n2, a2)) => {
            // Interned fast path: a term always unifies with itself (shared
            // variables included) without adding bindings, and Arc sharing
            // makes identical subtrees pointer-equal on the hot paths.
            if std::sync::Arc::ptr_eq(n1, n2) && std::sync::Arc::ptr_eq(a1, a2) {
                return true;
            }
            if a1.len() != a2.len() {
                return false;
            }
            if !unify_with(n1, n2, subst) {
                return false;
            }
            for (x, y) in a1.iter().zip(a2.iter()) {
                if !unify_with(x, y, subst) {
                    return false;
                }
            }
            true
        }
        _ => false,
    }
}

fn bind(var: &Var, term: &Term, subst: &mut Substitution) -> bool {
    if let Term::Var(v) = term {
        if v == var {
            return true;
        }
    }
    if occurs(var, term, subst) {
        return false;
    }
    subst.bind(var.clone(), term.clone());
    true
}

/// Occurs check: does `var` occur in `term` under the current substitution?
fn occurs(var: &Var, term: &Term, subst: &Substitution) -> bool {
    match term {
        Term::Var(v) => {
            if v == var {
                return true;
            }
            match subst.get(v) {
                Some(bound) => occurs(var, &bound.clone(), subst),
                None => false,
            }
        }
        Term::Sym(_) | Term::Int(_) => false,
        Term::App(name, args) => {
            occurs(var, name, subst) || args.iter().any(|a| occurs(var, a, subst))
        }
    }
}

/// One-way matching: extends `subst` over the variables of `pattern` so
/// that `pattern.subst == target`, and returns whether that succeeded.  The
/// target must be ground for the match to be meaningful; variables in the
/// target never get bound.
///
/// Matching (rather than full unification) is what grounding and bottom-up
/// evaluation use: rule bodies are matched against already-derived ground
/// atoms.
pub fn match_with(pattern: &Term, target: &Term, subst: &mut Substitution) -> bool {
    match pattern {
        Term::Var(v) => match subst.get(v) {
            Some(bound) => bound.clone() == *target,
            None => {
                subst.bind(v.clone(), target.clone());
                true
            }
        },
        Term::Sym(a) => matches!(target, Term::Sym(b) if a == b),
        Term::Int(a) => matches!(target, Term::Int(b) if a == b),
        Term::App(n1, a1) => match target {
            Term::App(n2, a2) if a1.len() == a2.len() => {
                // Interned fast path, mirroring `unify_resolved`: a *ground*
                // pattern sharing the target's `Arc`s matches without walking
                // either term.  The groundness guard matters — a pattern with
                // variables matching itself would still need to record their
                // bindings, so only the variable-free case can short-circuit.
                // On the warm-table probe path most patterns are exactly the
                // interned atoms they are probed against, so this hits often.
                if std::sync::Arc::ptr_eq(n1, n2)
                    && std::sync::Arc::ptr_eq(a1, a2)
                    && pattern.is_ground()
                {
                    return true;
                }
                if !match_with(n1, n2, subst) {
                    return false;
                }
                for (x, y) in a1.iter().zip(a2.iter()) {
                    if !match_with(x, y, subst) {
                        return false;
                    }
                }
                true
            }
            _ => false,
        },
    }
}

/// Renames every variable of a term into the given generation, so that rule
/// variables never collide with query variables during resolution.
pub fn rename_term(term: &Term, generation: u32) -> Term {
    match term {
        Term::Var(v) => Term::Var(v.with_generation(generation)),
        Term::Sym(_) | Term::Int(_) => term.clone(),
        Term::App(name, args) => Term::app(
            rename_term(name, generation),
            args.iter().map(|a| rename_term(a, generation)).collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app2(name: Term, a: Term, b: Term) -> Term {
        Term::app(name, vec![a, b])
    }

    #[test]
    fn unify_symbols() {
        assert!(unify(&Term::sym("a"), &Term::sym("a")).is_some());
        assert!(unify(&Term::sym("a"), &Term::sym("b")).is_none());
        assert!(unify(&Term::int(3), &Term::int(3)).is_some());
        assert!(unify(&Term::int(3), &Term::int(4)).is_none());
        assert!(unify(&Term::int(3), &Term::sym("three")).is_none());
    }

    #[test]
    fn unify_variable_with_term() {
        let mgu = unify(&Term::var("X"), &Term::apps("f", vec![Term::sym("a")])).unwrap();
        assert_eq!(mgu.apply(&Term::var("X")).to_string(), "f(a)");
    }

    #[test]
    fn unify_variable_in_name_position() {
        // G(a, b) ~ move(a, b) binds G -> move.
        let l = app2(Term::var("G"), Term::sym("a"), Term::sym("b"));
        let r = app2(Term::sym("move"), Term::sym("a"), Term::sym("b"));
        let mgu = unify(&l, &r).unwrap();
        assert_eq!(mgu.apply(&Term::var("G")), Term::sym("move"));
    }

    #[test]
    fn unify_nested_hilog_atoms() {
        // tc(G)(X, b) ~ tc(e)(a, Y)
        let l = Term::app(
            Term::apps("tc", vec![Term::var("G")]),
            vec![Term::var("X"), Term::sym("b")],
        );
        let r = Term::app(
            Term::apps("tc", vec![Term::sym("e")]),
            vec![Term::sym("a"), Term::var("Y")],
        );
        let mgu = unify(&l, &r).unwrap();
        assert_eq!(mgu.apply(&l), mgu.apply(&r));
        assert_eq!(mgu.apply(&Term::var("G")), Term::sym("e"));
        assert_eq!(mgu.apply(&Term::var("X")), Term::sym("a"));
        assert_eq!(mgu.apply(&Term::var("Y")), Term::sym("b"));
    }

    #[test]
    fn arity_mismatch_fails() {
        let l = Term::apps("p", vec![Term::sym("a")]);
        let r = Term::apps("p", vec![Term::sym("a"), Term::sym("b")]);
        assert!(unify(&l, &r).is_none());
        // In HiLog the same name may be used at several arities, but two
        // *atoms* of different arity never unify.
    }

    #[test]
    fn symbol_does_not_unify_with_zero_ary_application() {
        // Footnote 1: p and p() are distinct.
        assert!(unify(&Term::sym("p"), &Term::apps("p", vec![])).is_none());
    }

    #[test]
    fn occurs_check_rejects_cyclic_bindings() {
        let x = Term::var("X");
        let fx = Term::apps("f", vec![Term::var("X")]);
        assert!(unify(&x, &fx).is_none());
        // Also through the name position: X ~ X(a).
        let xa = Term::app(Term::var("X"), vec![Term::sym("a")]);
        assert!(unify(&x, &xa).is_none());
    }

    #[test]
    fn unifier_is_most_general() {
        // f(X, Y) ~ f(Y, Z) should not ground anything.
        let l = app2(Term::sym("f"), Term::var("X"), Term::var("Y"));
        let r = app2(Term::sym("f"), Term::var("Y"), Term::var("Z"));
        let mgu = unify(&l, &r).unwrap();
        assert_eq!(mgu.apply(&l), mgu.apply(&r));
        assert!(!mgu.apply(&l).is_ground());
    }

    #[test]
    fn shared_variables_across_sides() {
        // p(X, X) ~ p(a, b) must fail; p(X, X) ~ p(a, a) must succeed.
        let pxx = app2(Term::sym("p"), Term::var("X"), Term::var("X"));
        let pab = app2(Term::sym("p"), Term::sym("a"), Term::sym("b"));
        let paa = app2(Term::sym("p"), Term::sym("a"), Term::sym("a"));
        assert!(unify(&pxx, &pab).is_none());
        assert!(unify(&pxx, &paa).is_some());
    }

    #[test]
    fn matching_is_one_way() {
        let pattern = app2(Term::sym("move"), Term::var("X"), Term::var("Y"));
        let target = app2(Term::sym("move"), Term::sym("a"), Term::sym("b"));
        let mut theta = Substitution::new();
        assert!(match_with(&pattern, &target, &mut theta));
        assert_eq!(theta.apply(&pattern), target);
        // The reverse direction has no matcher because the "pattern" is ground
        // and differs from the target.
        assert!(!match_with(&target, &pattern, &mut Substitution::new()));
    }

    #[test]
    fn matching_respects_prior_bindings() {
        let mut theta = Substitution::from_iter([(Var::new("X"), Term::sym("a"))]);
        let pattern = Term::apps("q", vec![Term::var("X")]);
        assert!(match_with(
            &pattern,
            &Term::apps("q", vec![Term::sym("a")]),
            &mut theta
        ));
        let mut theta2 = Substitution::from_iter([(Var::new("X"), Term::sym("b"))]);
        assert!(!match_with(
            &pattern,
            &Term::apps("q", vec![Term::sym("a")]),
            &mut theta2
        ));
    }

    #[test]
    fn matching_a_shared_term_against_itself() {
        // Ground shared term: the pointer fast path answers true with no
        // bindings, exactly like the structural walk would.
        let ground = app2(Term::sym("move"), Term::sym("a"), Term::sym("b"));
        let mut theta = Substitution::new();
        assert!(match_with(&ground, &ground.clone(), &mut theta));
        assert!(theta.is_empty());
        // Non-ground shared term: the fast path must NOT fire — matching a
        // pattern against itself still records the identity bindings of its
        // variables, which later literals may rely on.
        let open = app2(Term::sym("move"), Term::var("X"), Term::sym("b"));
        let mut theta = Substitution::new();
        assert!(match_with(&open, &open.clone(), &mut theta));
        assert_eq!(theta.apply(&Term::var("X")), Term::var("X"));
        assert!(!theta.is_empty());
    }

    #[test]
    fn rename_shifts_generation() {
        let t = Term::app(Term::var("G"), vec![Term::var("X")]);
        let renamed = rename_term(&t, 7);
        assert_eq!(renamed.to_string(), "G_7(X_7)");
        assert!(unify(&t, &renamed).is_some());
    }

    #[test]
    fn unify_is_symmetric_on_result_application() {
        let l = Term::apps("p", vec![Term::var("X"), Term::sym("b")]);
        let r = Term::apps("p", vec![Term::sym("a"), Term::var("Y")]);
        let m1 = unify(&l, &r).unwrap();
        let m2 = unify(&r, &l).unwrap();
        assert_eq!(m1.apply(&l), m2.apply(&l));
        assert_eq!(m1.apply(&r), m2.apply(&r));
    }
}
