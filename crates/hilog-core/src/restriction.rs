//! Syntactic program classes.
//!
//! * Definition 4.1 — range restriction for **normal** programs;
//! * Definition 5.5 — range restriction for **HiLog** rules and queries;
//! * Definition 5.6 — **strong** range restriction for HiLog rules;
//! * Definition 6.7 — **Datahilog** programs (the function-free fragment for
//!   which Lemma 6.3 guarantees a finite set of non-false atoms).
//!
//! The distinction the paper draws between variables in *argument* positions
//! and variables in *predicate-name* positions is central here: for an atom
//! `tc(G)(Z, Y)`, the variables `Z` and `Y` occur as arguments while `G`
//! occurs (only) in the predicate name.

use crate::literal::Literal;
use crate::program::Program;
use crate::rule::{Query, Rule};
use crate::term::{Term, Var};
use std::collections::BTreeSet;

/// Variables occurring in *argument* positions of an atom (anywhere inside
/// the argument terms), excluding variables that occur only in the predicate
/// name.
fn argument_variables(atom: &Term) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    for arg in atom.args() {
        for v in arg.variables() {
            out.insert(v);
        }
    }
    out
}

/// Variables occurring in the *predicate name* of an atom (anywhere inside
/// the name term).
fn name_variables(atom: &Term) -> BTreeSet<Var> {
    match atom {
        Term::App(name, _) => name.variables().into_iter().collect(),
        Term::Var(v) => [v.clone()].into_iter().collect(),
        _ => BTreeSet::new(),
    }
}

/// All variables of an atom.
fn all_variables(atom: &Term) -> BTreeSet<Var> {
    atom.variables().into_iter().collect()
}

/// Variables bound by evaluable (builtin / aggregate) literals: the paper's
/// definitions only speak about atoms, but a deductive database treats the
/// output of `N is P * M` or `N = sum(...)` as bound, so these variables are
/// counted together with the positive-literal argument variables by the
/// range-restriction checks below.
fn evaluable_binder_variables(rule: &Rule) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    for lit in &rule.body {
        match lit {
            Literal::Builtin(b) => {
                out.extend(b.left.variables());
                out.extend(b.right.variables());
            }
            Literal::Aggregate(a) => {
                out.extend(a.result.variables());
            }
            _ => {}
        }
    }
    out
}

/// Definition 4.1: a normal rule is range restricted when every variable
/// occurring in the head or in a negative body literal also occurs in a
/// positive body literal.
fn is_range_restricted_normal_rule(rule: &Rule) -> bool {
    let mut positive_vars: BTreeSet<Var> = BTreeSet::new();
    for atom in rule.positive_atoms() {
        positive_vars.extend(atom.variables());
    }
    positive_vars.extend(evaluable_binder_variables(rule));
    let mut required: BTreeSet<Var> = rule.head.variables().into_iter().collect();
    for atom in rule.negative_atoms() {
        required.extend(atom.variables());
    }
    required.iter().all(|v| positive_vars.contains(v))
}

/// Definition 4.1 lifted to programs.
pub fn is_range_restricted_normal(program: &Program) -> bool {
    program.iter().all(is_range_restricted_normal_rule)
}

/// Checks condition 3 of Definitions 5.5 / 5.6: there is an ordering
/// `A_1, ..., A_n` of the positive body literals such that every variable in
/// the predicate name of `A_j` appears as an argument of some earlier `A_k`
/// (`k < j`) or belongs to `seed` (the head-name variables, for Definition
/// 5.5; empty for Definition 5.6).
///
/// A greedy selection is complete here: admitting a literal only ever grows
/// the set of available argument variables, so if any ordering exists the
/// greedy one succeeds.
fn positive_literals_orderable(rule: &Rule, seed: &BTreeSet<Var>) -> bool {
    let positives: Vec<&Term> = rule.positive_atoms().collect();
    let mut available: BTreeSet<Var> = seed.clone();
    let mut remaining: Vec<usize> = (0..positives.len()).collect();
    while !remaining.is_empty() {
        let mut picked = None;
        for (pos, &i) in remaining.iter().enumerate() {
            let needed = name_variables(positives[i]);
            if needed.iter().all(|v| available.contains(v)) {
                picked = Some(pos);
                break;
            }
        }
        match picked {
            Some(pos) => {
                let i = remaining.remove(pos);
                available.extend(argument_variables(positives[i]));
            }
            None => return false,
        }
    }
    true
}

/// Definition 5.5: range restriction for a HiLog rule.
fn is_range_restricted_hilog_rule(rule: &Rule) -> bool {
    let mut positive_arg_vars: BTreeSet<Var> = BTreeSet::new();
    for atom in rule.positive_atoms() {
        positive_arg_vars.extend(argument_variables(atom));
    }
    positive_arg_vars.extend(evaluable_binder_variables(rule));
    let head_name_vars = name_variables(&rule.head);

    // 1. Every variable appearing in an argument in the head also appears as
    //    an argument in a positive body literal.
    let head_arg_vars = argument_variables(&rule.head);
    if !head_arg_vars.iter().all(|v| positive_arg_vars.contains(v)) {
        return false;
    }

    // 2. Every variable in a negative literal appears as an argument in a
    //    positive body literal or in the name in the head.
    for atom in rule.negative_atoms() {
        for v in all_variables(atom) {
            if !positive_arg_vars.contains(&v) && !head_name_vars.contains(&v) {
                return false;
            }
        }
    }

    // 3. Orderability of the positive body literals, seeded with the head
    //    name variables.
    positive_literals_orderable(rule, &head_name_vars)
}

/// Definition 5.5 lifted to programs.
pub fn is_range_restricted_hilog(program: &Program) -> bool {
    program.iter().all(is_range_restricted_hilog_rule)
}

/// Definition 5.6: strong range restriction for a HiLog rule.
fn is_strongly_range_restricted_rule(rule: &Rule) -> bool {
    let mut positive_arg_vars: BTreeSet<Var> = BTreeSet::new();
    for atom in rule.positive_atoms() {
        positive_arg_vars.extend(argument_variables(atom));
    }
    positive_arg_vars.extend(evaluable_binder_variables(rule));

    // 1. Every variable appearing in an argument or in the name of the head
    //    appears as an argument in a positive body literal.
    let mut head_vars = argument_variables(&rule.head);
    head_vars.extend(name_variables(&rule.head));
    if !head_vars.iter().all(|v| positive_arg_vars.contains(v)) {
        return false;
    }

    // 2. Every variable in a negative literal appears as an argument in a
    //    positive body literal.
    for atom in rule.negative_atoms() {
        for v in all_variables(atom) {
            if !positive_arg_vars.contains(&v) {
                return false;
            }
        }
    }

    // 3. Orderability with an empty seed.
    positive_literals_orderable(rule, &BTreeSet::new())
}

/// Definition 5.6 lifted to programs.
pub fn is_strongly_range_restricted(program: &Program) -> bool {
    program.iter().all(is_strongly_range_restricted_rule)
}

/// Section 5: a query `Q(X1, ..., Xn)` is range restricted when the auxiliary
/// rule `answer(X1, ..., Xn) :- Q(X1, ..., Xn)` is range restricted according
/// to Definition 5.5.  In particular the predicate names of the query must be
/// ground.
pub fn is_range_restricted_query(query: &Query) -> bool {
    is_range_restricted_hilog_rule(&query.as_answer_rule())
}

/// Definition 6.7: a Datahilog program — in every atom of every rule, both
/// the name and the arguments are either variables or constant symbols (no
/// nested applications, no integers treated as structure).
pub fn is_datahilog(program: &Program) -> bool {
    fn term_is_flat(t: &Term) -> bool {
        matches!(t, Term::Var(_) | Term::Sym(_) | Term::Int(_))
    }
    fn atom_is_datahilog(atom: &Term) -> bool {
        match atom {
            Term::Var(_) | Term::Sym(_) | Term::Int(_) => true,
            Term::App(name, args) => term_is_flat(name) && args.iter().all(term_is_flat),
        }
    }
    program.iter().all(|r| {
        atom_is_datahilog(&r.head)
            && r.body.iter().all(|l| match l {
                Literal::Pos(a) | Literal::Neg(a) => atom_is_datahilog(a),
                Literal::Builtin(_) => true,
                Literal::Aggregate(a) => atom_is_datahilog(&a.pattern),
            })
    })
}

/// Summary of which syntactic classes a program falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestrictionReport {
    /// The program is a normal (first-order) program.
    pub normal: bool,
    /// Range restricted in the sense of Definition 4.1 (only meaningful when
    /// `normal` is true).
    pub range_restricted_normal: bool,
    /// Range restricted in the sense of Definition 5.5.
    pub range_restricted_hilog: bool,
    /// Strongly range restricted (Definition 5.6).
    pub strongly_range_restricted: bool,
    /// Datahilog (Definition 6.7).
    pub datahilog: bool,
    /// Stratified (Definition 6.1); requires ground predicate names.
    pub stratified: bool,
}

/// A coarse classification of a program, combining the individual class
/// checks.  `ProgramClass::classify` is the one-stop entry point used by the
/// examples and the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramClass;

impl ProgramClass {
    /// Classifies the program against every syntactic class of the paper.
    pub fn classify(program: &Program) -> RestrictionReport {
        RestrictionReport {
            normal: program.is_normal(),
            range_restricted_normal: program.is_normal() && is_range_restricted_normal(program),
            range_restricted_hilog: is_range_restricted_hilog(program),
            strongly_range_restricted: is_strongly_range_restricted(program),
            datahilog: is_datahilog(program),
            stratified: crate::analysis::is_stratified(program),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;

    fn v(s: &str) -> Term {
        Term::var(s)
    }
    fn s(x: &str) -> Term {
        Term::sym(x)
    }

    /// `X(Y)(Z) :- p(X, Y, W), W(a)(Z), not W(b)(Z).` — strongly range
    /// restricted (Example 5.3, first group).
    fn strong_example_1() -> Rule {
        Rule::new(
            Term::app(Term::app(v("X").clone(), vec![v("Y")]), vec![v("Z")]),
            vec![
                Literal::pos(Term::apps("p", vec![v("X"), v("Y"), v("W")])),
                Literal::pos(Term::app(Term::app(v("W"), vec![s("a")]), vec![v("Z")])),
                Literal::neg(Term::app(Term::app(v("W"), vec![s("b")]), vec![v("Z")])),
            ],
        )
    }

    /// `p(X) :- X(a), q(X).` — strongly range restricted (Example 5.3).
    fn strong_example_2() -> Rule {
        Rule::new(
            Term::apps("p", vec![v("X")]),
            vec![
                Literal::pos(Term::app(v("X"), vec![s("a")])),
                Literal::pos(Term::apps("q", vec![v("X")])),
            ],
        )
    }

    /// `tc(G, X, Y) :- graph(G), G(X, Y).` — strongly range restricted
    /// (Example 5.3).
    fn strong_example_3() -> Rule {
        Rule::new(
            Term::apps("tc", vec![v("G"), v("X"), v("Y")]),
            vec![
                Literal::pos(Term::apps("graph", vec![v("G")])),
                Literal::pos(Term::app(v("G"), vec![v("X"), v("Y")])),
            ],
        )
    }

    /// `tc(G)(X, Y) :- G(X, Y).` — range restricted but not strongly
    /// (Example 5.3, second group).
    fn rr_not_strong_tc() -> Rule {
        Rule::new(
            Term::app(Term::apps("tc", vec![v("G")]), vec![v("X"), v("Y")]),
            vec![Literal::pos(Term::app(v("G"), vec![v("X"), v("Y")]))],
        )
    }

    /// `not(X)() :- not X.` — range restricted but not strongly (Example 5.3).
    fn rr_not_strong_not() -> Rule {
        Rule::new(
            Term::app(Term::apps("not", vec![v("X")]), vec![]),
            vec![Literal::neg(v("X"))],
        )
    }

    /// `X(Y)(Z) :- p(X, Z, W), X(a)(Z), not X(b)(Z).` — range restricted but
    /// not strongly restricted (Example 5.3: the head name variable `Y` is
    /// bound only via the head).
    fn rr_not_strong_xyz() -> Rule {
        Rule::new(
            Term::app(Term::app(v("X"), vec![v("Y")]), vec![v("Z")]),
            vec![
                Literal::pos(Term::apps("p", vec![v("X"), v("Z"), v("W")])),
                Literal::pos(Term::app(Term::app(v("X"), vec![s("a")]), vec![v("Z")])),
                Literal::neg(Term::app(Term::app(v("X"), vec![s("b")]), vec![v("Z")])),
            ],
        )
    }

    /// `tc(G, X, Y) :- G(X, Y).` — not range restricted (Example 5.3, third
    /// group: `G` occurs as a head argument but never as a body argument).
    fn not_rr_tc() -> Rule {
        Rule::new(
            Term::apps("tc", vec![v("G"), v("X"), v("Y")]),
            vec![Literal::pos(Term::app(v("G"), vec![v("X"), v("Y")]))],
        )
    }

    /// `p(X) :- X(a).` — not range restricted (Example 5.3).
    fn not_rr_px() -> Rule {
        Rule::new(
            Term::apps("p", vec![v("X")]),
            vec![Literal::pos(Term::app(v("X"), vec![s("a")]))],
        )
    }

    /// `not(X) :- not X.` — not range restricted (Example 5.3).
    fn not_rr_not() -> Rule {
        Rule::new(Term::apps("not", vec![v("X")]), vec![Literal::neg(v("X"))])
    }

    /// `X(Y)(Z) :- Z(X, Y, W), W(a)(Z), not W(b)(Z).` — not range restricted
    /// (Example 5.3: no admissible ordering of the positive literals).
    fn not_rr_zxy() -> Rule {
        Rule::new(
            Term::app(Term::app(v("X"), vec![v("Y")]), vec![v("Z")]),
            vec![
                Literal::pos(Term::app(v("Z"), vec![v("X"), v("Y"), v("W")])),
                Literal::pos(Term::app(Term::app(v("W"), vec![s("a")]), vec![v("Z")])),
                Literal::neg(Term::app(Term::app(v("W"), vec![s("b")]), vec![v("Z")])),
            ],
        )
    }

    #[test]
    fn argument_vs_name_variables() {
        // tc(G)(Z, Y): arguments Z, Y; name variables {G}.
        let atom = Term::app(Term::apps("tc", vec![v("G")]), vec![v("Z"), v("Y")]);
        let args: Vec<String> = argument_variables(&atom)
            .iter()
            .map(|x| x.to_string())
            .collect();
        let names: Vec<String> = name_variables(&atom)
            .iter()
            .map(|x| x.to_string())
            .collect();
        assert_eq!(args, vec!["Y", "Z"]);
        assert_eq!(names, vec!["G"]);
        // A bare variable atom: the variable is its own name.
        assert_eq!(name_variables(&v("X")).len(), 1);
        assert!(argument_variables(&v("X")).is_empty());
    }

    #[test]
    fn example_5_3_strongly_range_restricted_rules() {
        for rule in [strong_example_1(), strong_example_2(), strong_example_3()] {
            assert!(is_strongly_range_restricted_rule(&rule), "{rule}");
            assert!(is_range_restricted_hilog_rule(&rule), "{rule}");
        }
    }

    #[test]
    fn example_5_3_range_restricted_but_not_strong() {
        for rule in [rr_not_strong_tc(), rr_not_strong_not(), rr_not_strong_xyz()] {
            assert!(is_range_restricted_hilog_rule(&rule), "{rule}");
            assert!(!is_strongly_range_restricted_rule(&rule), "{rule}");
        }
    }

    #[test]
    fn example_5_3_not_range_restricted() {
        for rule in [not_rr_tc(), not_rr_px(), not_rr_not(), not_rr_zxy()] {
            assert!(!is_range_restricted_hilog_rule(&rule), "{rule}");
            assert!(!is_strongly_range_restricted_rule(&rule), "{rule}");
        }
    }

    #[test]
    fn normal_range_restriction_definition_4_1() {
        // p :- not q(X).  (Example 4.1) — not range restricted.
        let bad = Rule::new(s("p"), vec![Literal::neg(Term::apps("q", vec![v("X")]))]);
        assert!(!is_range_restricted_normal_rule(&bad));
        // p(X, X, a). — a fact with variables in the head is not range restricted.
        let fact = Rule::fact(Term::apps("p", vec![v("X"), v("X"), s("a")]));
        assert!(!is_range_restricted_normal_rule(&fact));
        // winning(X) :- move(X, Y), not winning(Y). — range restricted.
        let win = Rule::new(
            Term::apps("winning", vec![v("X")]),
            vec![
                Literal::pos(Term::apps("move", vec![v("X"), v("Y")])),
                Literal::neg(Term::apps("winning", vec![v("Y")])),
            ],
        );
        assert!(is_range_restricted_normal_rule(&win));
    }

    #[test]
    fn hilog_range_restriction_generalizes_normal() {
        // For normal rules, Definition 5.5 should agree with Definition 4.1
        // on these samples.
        let win = Rule::new(
            Term::apps("winning", vec![v("X")]),
            vec![
                Literal::pos(Term::apps("move", vec![v("X"), v("Y")])),
                Literal::neg(Term::apps("winning", vec![v("Y")])),
            ],
        );
        assert!(is_range_restricted_hilog_rule(&win));
        let bad = Rule::new(s("p"), vec![Literal::neg(Term::apps("q", vec![v("X")]))]);
        assert!(!is_range_restricted_hilog_rule(&bad));
    }

    #[test]
    fn query_range_restriction_requires_ground_names() {
        // ?- tc(e)(a, Y).  — ground name, range restricted.
        let q1 = Query::atom(Term::app(
            Term::apps("tc", vec![s("e")]),
            vec![s("a"), v("Y")],
        ));
        assert!(is_range_restricted_query(&q1));
        // ?- tc(G)(X, Y).  — unbound name G, not range restricted (Example 5.2
        // discusses why such queries are problematic).
        let q2 = Query::atom(Term::app(
            Term::apps("tc", vec![v("G")]),
            vec![v("X"), v("Y")],
        ));
        assert!(!is_range_restricted_query(&q2));
        // ?- graph(G), tc(G)(X, Y). — binding the name inside the query makes
        // it acceptable.
        let q3 = Query::new(vec![
            Literal::pos(Term::apps("graph", vec![v("G")])),
            Literal::pos(Term::app(
                Term::apps("tc", vec![v("G")]),
                vec![v("X"), v("Y")],
            )),
        ]);
        assert!(is_range_restricted_query(&q3));
    }

    #[test]
    fn datahilog_definition_6_7() {
        // winning(M, X) :- game(M), M(X, Y), not winning(M, Y). — Datahilog.
        let flat = Program::from_rules(vec![Rule::new(
            Term::apps("winning", vec![v("M"), v("X")]),
            vec![
                Literal::pos(Term::apps("game", vec![v("M")])),
                Literal::pos(Term::app(v("M"), vec![v("X"), v("Y")])),
                Literal::neg(Term::apps("winning", vec![v("M"), v("Y")])),
            ],
        )]);
        assert!(is_datahilog(&flat));
        // tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y). — not Datahilog
        // (nested predicate name tc(G)).
        let nested = Program::from_rules(vec![Rule::new(
            Term::app(Term::apps("tc", vec![v("G")]), vec![v("X"), v("Y")]),
            vec![
                Literal::pos(Term::apps("graph", vec![v("G")])),
                Literal::pos(Term::app(v("G"), vec![v("X"), v("Z")])),
                Literal::pos(Term::app(
                    Term::apps("tc", vec![v("G")]),
                    vec![v("Z"), v("Y")],
                )),
            ],
        )]);
        assert!(!is_datahilog(&nested));
    }

    #[test]
    fn classification_report() {
        let p = Program::from_rules(vec![strong_example_3()]);
        let report = ProgramClass::classify(&p);
        assert!(!report.normal);
        assert!(report.range_restricted_hilog);
        assert!(report.strongly_range_restricted);
        assert!(report.datahilog);
        // Variable predicate name in the body => not stratified by the
        // ground-name criterion.
        assert!(!report.stratified);
    }

    #[test]
    fn facts_with_ground_heads_are_strongly_range_restricted() {
        let p = Program::from_rules(vec![Rule::fact(Term::apps("move", vec![s("a"), s("b")]))]);
        assert!(is_strongly_range_restricted(&p));
        assert!(is_range_restricted_hilog(&p));
        assert!(is_range_restricted_normal(&p));
    }

    #[test]
    fn x_a_b_fact_is_not_strongly_range_restricted() {
        // "Lemma 6.3 does not hold for range-restricted programs that are not
        // strongly range restricted as illustrated by the simple program
        // X(a, b)." — the head name variable X is unconstrained.
        let fact = Rule::fact(Term::app(v("X"), vec![s("a"), s("b")]));
        assert!(!is_strongly_range_restricted_rule(&fact));
        assert!(is_range_restricted_hilog_rule(&fact));
    }
}
