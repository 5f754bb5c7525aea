//! The magic-sets transformation for modularly stratified HiLog programs
//! (Section 6.1, Example 6.6).
//!
//! Given a strongly range-restricted program and a query, the transformation
//! produces a rewritten program in the style of Example 6.6:
//!
//! * a `magic(Q, +)` seed for the query atom;
//! * one supplementary predicate `sup_{r,j}(...)` per rule `r` and body
//!   position `j`, chaining the bindings passed left to right (the sideways
//!   information passing strategy);
//! * `magic(A, +)` / `magic(A, -)` rules generating sub-queries for positive
//!   and negative subgoals respectively;
//! * the rewritten rules themselves, guarded by their last supplementary
//!   predicate, with negative subgoals replaced by the □ ("settled false")
//!   wrapper;
//! * the `dp` / `dn` / `dn'` dependency-bookkeeping rules of Ross \[16\] that
//!   drive the evaluation of negative subgoals.
//!
//! The transformation is a *syntactic artifact*: it can be printed, compared
//! against Example 6.6 and analysed.  Query evaluation with the same
//! relevance behaviour is performed by [`crate::magic_eval`], which settles
//! negative subgoals component-at-a-time with memoised subqueries (the
//! strategy that replaces the □ fixpoint machinery of \[16\]).

use crate::error::EngineError;
use hilog_core::{is_strongly_range_restricted, Literal, Program, Query, Rule, Term, Var};
use std::fmt;

/// Reserved predicate names introduced by the transformation.
pub mod names {
    /// The magic predicate.
    pub const MAGIC: &str = "magic";
    /// The supplementary predicate prefix (`sup_r_j`).
    pub const SUP: &str = "sup";
    /// "Depends positively".
    pub const DP: &str = "dp";
    /// "Depends negatively".
    pub const DN: &str = "dn";
    /// "Settled" negative dependencies.
    pub const DN_SETTLED: &str = "dn_settled";
    /// The □ wrapper: the atom has been settled false.
    pub const BOX_FALSE: &str = "settled_false";
    /// Positive-call annotation.
    pub const PLUS: &str = "+";
    /// Negative-call annotation.
    pub const MINUS: &str = "-";
}

/// The output of the magic-sets transformation.
#[derive(Debug, Clone)]
pub struct MagicProgram {
    /// The seed fact `magic(Q, +)` for the query.
    pub seed: Rule,
    /// The rewritten rules (supplementary, magic and guarded original rules).
    pub rewritten: Program,
    /// The dependency-bookkeeping rules (`dp`, `dn`, `dn_settled`,
    /// `settled_false`).
    pub bookkeeping: Program,
    /// The names of the supplementary predicates that were introduced, in
    /// `(rule index, body position)` order.
    pub supplementary: Vec<(usize, usize)>,
}

impl MagicProgram {
    /// The full rewritten program: seed + rewritten rules + bookkeeping.
    pub fn full_program(&self) -> Program {
        let mut p = Program::new();
        p.push(self.seed.clone());
        p.extend_with(&self.rewritten);
        p.extend_with(&self.bookkeeping);
        p
    }

    /// Total number of rules in the rewritten program.
    pub fn len(&self) -> usize {
        1 + self.rewritten.len() + self.bookkeeping.len()
    }

    /// Returns `true` if the transformation produced no rules (impossible for
    /// a non-empty input program, present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for MagicProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "% magic seed")?;
        writeln!(f, "{}", self.seed)?;
        writeln!(f, "% rewritten rules")?;
        write!(f, "{}", self.rewritten)?;
        writeln!(f, "% dependency bookkeeping")?;
        write!(f, "{}", self.bookkeeping)
    }
}

fn magic_atom(atom: &Term, sign: &str) -> Term {
    Term::apps(names::MAGIC, vec![atom.clone(), Term::sym(sign)])
}

fn sup_atom(rule_index: usize, position: usize, vars: &[Var]) -> Term {
    Term::apps(
        format!("{}_{}_{}", names::SUP, rule_index, position),
        vars.iter().map(|v| Term::Var(v.clone())).collect(),
    )
}

fn box_false(atom: &Term) -> Term {
    Term::apps(names::BOX_FALSE, vec![atom.clone()])
}

/// Applies the magic-sets transformation to a strongly range-restricted
/// program and a single-atom query.
///
/// Errors if the program is not strongly range restricted (Section 6.1
/// assumes strong range restriction so that queries with variables in
/// predicate names are permitted) or if the query is not a single atom.
pub fn magic_transform(program: &Program, query: &Query) -> Result<MagicProgram, EngineError> {
    if !is_strongly_range_restricted(program) {
        return Err(EngineError::Unsupported(
            "the magic-sets transformation of Section 6.1 requires a strongly range-restricted \
             program (Definition 5.6)"
                .into(),
        ));
    }
    let query_atom = match query.literals.as_slice() {
        [Literal::Pos(a)] => a.clone(),
        _ => {
            return Err(EngineError::Unsupported(
                "magic_transform expects a query consisting of a single positive atom".into(),
            ))
        }
    };

    let seed = Rule::fact(magic_atom(&query_atom, names::PLUS));
    let mut rewritten = Program::new();
    let mut bookkeeping = Program::new();
    let mut supplementary = Vec::new();

    for (rule_index, rule) in program.iter().enumerate() {
        let head = &rule.head;
        let head_vars: Vec<Var> = head.variables();

        // sup_{r,0}(head vars) :- magic(head, +).
        // (A magic(head, -) seed also feeds the rule: negative calls need the
        // same answers to decide settledness.)
        let sup0 = sup_atom(rule_index, 0, &head_vars);
        supplementary.push((rule_index, 0));
        rewritten.push(Rule::new(
            sup0.clone(),
            vec![Literal::Pos(magic_atom(head, names::PLUS))],
        ));
        rewritten.push(Rule::new(
            sup0.clone(),
            vec![Literal::Pos(magic_atom(head, names::MINUS))],
        ));

        // Chain through the body, accumulating bound variables.
        let mut bound: Vec<Var> = head_vars.clone();
        let mut previous_sup = sup0;
        for (j, lit) in rule.body.iter().enumerate() {
            let position = j + 1;
            match lit {
                Literal::Pos(atom) => {
                    // magic(A, +) :- sup_{r,j-1}(...).
                    rewritten.push(Rule::new(
                        magic_atom(atom, names::PLUS),
                        vec![Literal::Pos(previous_sup.clone())],
                    ));
                    // dp(H, A) :- sup_{r,j-1}(...): the head depends
                    // positively on the subgoal.
                    bookkeeping.push(Rule::new(
                        Term::apps(names::DP, vec![head.clone(), atom.clone()]),
                        vec![Literal::Pos(previous_sup.clone())],
                    ));
                    // sup_{r,j}(bound ∪ vars(A)) :- sup_{r,j-1}(...), A.
                    for v in atom.variables() {
                        if !bound.contains(&v) {
                            bound.push(v);
                        }
                    }
                    let sup_j = sup_atom(rule_index, position, &bound);
                    supplementary.push((rule_index, position));
                    rewritten.push(Rule::new(
                        sup_j.clone(),
                        vec![
                            Literal::Pos(previous_sup.clone()),
                            Literal::Pos(atom.clone()),
                        ],
                    ));
                    previous_sup = sup_j;
                }
                Literal::Neg(atom) => {
                    // magic(A, -) :- sup_{r,j-1}(...).
                    rewritten.push(Rule::new(
                        magic_atom(atom, names::MINUS),
                        vec![Literal::Pos(previous_sup.clone())],
                    ));
                    // dn(H, A) :- sup_{r,j-1}(...): the head depends
                    // negatively on the subgoal.
                    bookkeeping.push(Rule::new(
                        Term::apps(names::DN, vec![head.clone(), atom.clone()]),
                        vec![Literal::Pos(previous_sup.clone())],
                    ));
                    // sup_{r,j}(bound) :- sup_{r,j-1}(...), settled_false(A).
                    let sup_j = sup_atom(rule_index, position, &bound);
                    supplementary.push((rule_index, position));
                    rewritten.push(Rule::new(
                        sup_j.clone(),
                        vec![
                            Literal::Pos(previous_sup.clone()),
                            Literal::Pos(box_false(atom)),
                        ],
                    ));
                    previous_sup = sup_j;
                }
                Literal::Builtin(b) => {
                    // Builtins are carried along inside the supplementary
                    // chain; they bind new variables (e.g. `N is P * M`).
                    for v in b.variables() {
                        if !bound.contains(&v) {
                            bound.push(v);
                        }
                    }
                    let sup_j = sup_atom(rule_index, position, &bound);
                    supplementary.push((rule_index, position));
                    rewritten.push(Rule::new(
                        sup_j.clone(),
                        vec![
                            Literal::Pos(previous_sup.clone()),
                            Literal::Builtin(b.clone()),
                        ],
                    ));
                    previous_sup = sup_j;
                }
                Literal::Aggregate(agg) => {
                    // Aggregates behave like negative subgoals for the
                    // dependency bookkeeping (they need their pattern
                    // relation settled), and like builtins for the binding
                    // chain.
                    rewritten.push(Rule::new(
                        magic_atom(&agg.pattern, names::MINUS),
                        vec![Literal::Pos(previous_sup.clone())],
                    ));
                    bookkeeping.push(Rule::new(
                        Term::apps(names::DN, vec![head.clone(), agg.pattern.clone()]),
                        vec![Literal::Pos(previous_sup.clone())],
                    ));
                    for v in agg.variables() {
                        if !bound.contains(&v) {
                            bound.push(v);
                        }
                    }
                    let sup_j = sup_atom(rule_index, position, &bound);
                    supplementary.push((rule_index, position));
                    rewritten.push(Rule::new(
                        sup_j.clone(),
                        vec![
                            Literal::Pos(previous_sup.clone()),
                            Literal::Aggregate(agg.clone()),
                        ],
                    ));
                    previous_sup = sup_j;
                }
            }
        }

        // H :- sup_{r,n}(...).
        rewritten.push(Rule::new(head.clone(), vec![Literal::Pos(previous_sup)]));
    }

    // Generic bookkeeping rules (Example 6.6, last block):
    //   dn_settled(Q) :- magic(Q, -), Q.
    //   dn_settled(Q) :- magic(Q, -), settled_false(Q).
    //   settled_false(Q) :- magic(Q, -), "Q has been settled and is not true".
    // The third rule's side condition is operational (the □ evaluation of
    // [16]); it is realised by the query-directed evaluator in
    // `crate::magic_eval`, so here it is recorded as a rule over the reserved
    // `dn_settled` predicate for documentation and shape tests.
    let q = Term::var("Q");
    bookkeeping.push(Rule::new(
        Term::apps(names::DN_SETTLED, vec![q.clone()]),
        vec![
            Literal::Pos(magic_atom(&q, names::MINUS)),
            Literal::Pos(q.clone()),
        ],
    ));
    bookkeeping.push(Rule::new(
        Term::apps(names::DN_SETTLED, vec![q.clone()]),
        vec![
            Literal::Pos(magic_atom(&q, names::MINUS)),
            Literal::Pos(box_false(&q)),
        ],
    ));

    Ok(MagicProgram {
        seed,
        rewritten,
        bookkeeping,
        supplementary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_syntax::{parse_program, parse_query};
    use std::collections::BTreeSet;

    /// Collects the predicate names (outermost functors) introduced by the
    /// transformation, for shape tests.
    fn introduced_predicates(magic: &MagicProgram) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for rule in magic.full_program().iter() {
            if let Term::Sym(s) = rule.head.outermost_functor() {
                let name = s.name();
                if name == names::MAGIC
                    || name == names::DP
                    || name == names::DN
                    || name == names::DN_SETTLED
                    || name == names::BOX_FALSE
                    || name.starts_with(names::SUP)
                {
                    out.insert(name.to_string());
                }
            }
        }
        out
    }

    /// The abbreviated game program of Example 6.6.
    fn game_program() -> Program {
        parse_program(
            "w(M)(X) :- g(M), M(X, Y), not w(M)(Y).\n\
             g(m). m(a, b). m(b, c).",
        )
        .unwrap()
    }

    #[test]
    fn example_6_6_shape() {
        let magic = magic_transform(&game_program(), &parse_query("?- w(m)(a).").unwrap()).unwrap();
        // The seed is magic(w(m)(a), +).
        assert_eq!(magic.seed.to_string(), "magic(w(m)(a), '+').");
        let text = magic.full_program().to_string();
        // Supplementary predicates for the three body literals of the game
        // rule exist (sup_0_0 .. sup_0_3).
        assert!(text.contains("sup_0_0(M, X)"));
        assert!(text.contains("sup_0_1(M, X)"));
        assert!(text.contains("sup_0_2(M, X, Y)"));
        assert!(text.contains("sup_0_3(M, X, Y)"));
        // The negative subgoal generates a negatively annotated magic call
        // and a settled_false guard, as in the paper's listing.
        assert!(text.contains("magic(w(M)(Y), '-') :- sup_0_2(M, X, Y)."));
        assert!(text.contains("settled_false(w(M)(Y))"));
        // Positive subgoals generate positively annotated magic calls.
        assert!(text.contains("magic(g(M), '+') :- sup_0_0(M, X)."));
        assert!(text.contains("magic(M(X, Y), '+') :- sup_0_1(M, X)."));
        // dp / dn bookkeeping is present.
        assert!(text.contains("dp(w(M)(X), g(M)) :- sup_0_0(M, X)."));
        assert!(text.contains("dn(w(M)(X), w(M)(Y)) :- sup_0_2(M, X, Y)."));
        // The rewritten head rule is guarded by the final supplementary
        // predicate.
        assert!(text.contains("w(M)(X) :- sup_0_3(M, X, Y)."));
    }

    #[test]
    fn introduced_predicate_inventory() {
        let magic = magic_transform(&game_program(), &parse_query("?- w(m)(a).").unwrap()).unwrap();
        let preds = introduced_predicates(&magic);
        assert!(preds.contains("magic"));
        assert!(preds.contains("dp"));
        assert!(preds.contains("dn"));
        assert!(preds.contains("dn_settled"));
        assert!(preds.iter().any(|p| p.starts_with("sup_")));
    }

    #[test]
    fn every_rule_gets_a_supplementary_chain() {
        let program = parse_program(
            "tc(G, X, Y) :- graph(G), G(X, Y).\n\
             tc(G, X, Y) :- graph(G), G(X, Z), tc(G, Z, Y).\n\
             graph(e). e(a, b).",
        )
        .unwrap();
        let magic = magic_transform(&program, &parse_query("?- tc(e, a, Y).").unwrap()).unwrap();
        // Rule 0 has 2 body literals -> positions 0..=2; rule 1 has 3 -> 0..=3;
        // facts contribute a single position 0 each.
        let for_rule = |r: usize| {
            magic
                .supplementary
                .iter()
                .filter(|(ri, _)| *ri == r)
                .count()
        };
        assert_eq!(for_rule(0), 3);
        assert_eq!(for_rule(1), 4);
        assert_eq!(for_rule(2), 1);
        assert_eq!(for_rule(3), 1);
    }

    #[test]
    fn rejects_programs_that_are_not_strongly_range_restricted() {
        // tc(G)(X, Y) :- G(X, Y). is range restricted but not strongly.
        let program = parse_program("tc(G)(X, Y) :- G(X, Y).").unwrap();
        let err = magic_transform(&program, &parse_query("?- tc(e)(a, Y).").unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn rejects_non_atomic_queries() {
        let program = game_program();
        let err =
            magic_transform(&program, &parse_query("?- g(M), w(M)(a).").unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
        let err2 = magic_transform(&program, &parse_query("?- not w(m)(a).").unwrap()).unwrap_err();
        assert!(matches!(err2, EngineError::Unsupported(_)));
    }

    #[test]
    fn builtins_are_carried_in_the_supplementary_chain() {
        let program = parse_program(
            "price(X, N) :- item(X, P), N is P * 2.\n\
             item(a, 3).",
        )
        .unwrap();
        let magic = magic_transform(&program, &parse_query("?- price(a, N).").unwrap()).unwrap();
        let text = magic.full_program().to_string();
        // The head variables (X, N) seed the supplementary chain; the builtin
        // is carried along in the chain.
        assert!(text.contains("sup_0_2(X, N, P) :- sup_0_1(X, N, P), N is '*'(P, 2)."));
    }

    #[test]
    fn queries_with_variable_predicate_names_are_allowed() {
        // "Because the program is assumed to be strongly range restricted,
        // queries with variables in their names are permitted." (Section 6.1)
        let magic = magic_transform(&game_program(), &parse_query("?- w(M)(a).").unwrap()).unwrap();
        assert_eq!(magic.seed.to_string(), "magic(w(M)(a), '+').");
    }
}
