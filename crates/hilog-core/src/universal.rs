//! The universal-relation ("call" / `apply_i`) transformation of Section 2.
//!
//! A (negation-free) HiLog program can be understood by rewriting every
//! n-ary atom into an atom of a single unary predicate `call` applied to a
//! term built with generic function symbols `u_i` of each arity `i`:
//!
//! ```text
//! maplist(F)([], []).
//!   ==>   call(u3(u2(maplist, F), [], [])).
//! p(X, a)(Z)
//!   ==>   call(u2(u3(p, X, a), Z)).
//! ```
//!
//! The least model of the resulting Horn program gives the semantics of the
//! negation-free HiLog program.  Section 6 stresses that this transformation
//! must **not** be used to analyse stratification: a stratified normal
//! program becomes unstratified because all predicates collapse into `call`,
//! and the strongly connected components are merged.  Both facts are
//! reproduced by the tests here and in `tests/datahilog_and_universal.rs`.

use crate::error::CoreError;
use crate::literal::Literal;
use crate::program::Program;
use crate::rule::Rule;
use crate::term::Term;

/// The reserved predicate name wrapping every transformed atom.
const CALL_SYMBOL: &str = "call";
/// The prefix of the reserved generic function symbols `u1`, `u2`, ...
const APPLY_PREFIX: &str = "u";

/// Returns the reserved `u_i` symbol for the given arity.
fn apply_symbol(arity: usize) -> Term {
    Term::sym(format!("{APPLY_PREFIX}{arity}"))
}

/// Returns `true` if the symbol name is reserved by the transformation
/// (`call` or `u<digits>`).
fn is_reserved_symbol(name: &str) -> bool {
    if name == CALL_SYMBOL {
        return true;
    }
    if let Some(rest) = name.strip_prefix(APPLY_PREFIX) {
        !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit())
    } else {
        false
    }
}

/// Encodes a HiLog *term* into the universal-relation term language:
/// `t(t1, ..., tn)` becomes `u_{n+1}(enc(t), enc(t1), ..., enc(tn))`;
/// symbols, integers and variables are unchanged.
pub fn encode_term(term: &Term) -> Term {
    match term {
        Term::Var(_) | Term::Sym(_) | Term::Int(_) => term.clone(),
        Term::App(name, args) => {
            let mut encoded = Vec::with_capacity(args.len() + 1);
            encoded.push(encode_term(name));
            encoded.extend(args.iter().map(encode_term));
            Term::app(apply_symbol(args.len() + 1), encoded)
        }
    }
}

/// Encodes a HiLog *atom*: `call(enc(atom))`.
pub fn encode_atom(atom: &Term) -> Term {
    Term::apps(CALL_SYMBOL, vec![encode_term(atom)])
}

/// Decodes a term of the universal language back into a HiLog term, undoing
/// [`encode_term`].  Terms that do not use the reserved `u_i` symbols are
/// returned unchanged (they decode to themselves).
pub fn decode_term(term: &Term) -> Term {
    match term {
        Term::Var(_) | Term::Sym(_) | Term::Int(_) => term.clone(),
        Term::App(name, args) => {
            if let Term::Sym(s) = &**name {
                if is_reserved_symbol(s.name()) && s.name() != CALL_SYMBOL && !args.is_empty() {
                    let inner_name = decode_term(&args[0]);
                    let inner_args = args[1..].iter().map(decode_term).collect();
                    return Term::app(inner_name, inner_args);
                }
            }
            Term::app(decode_term(name), args.iter().map(decode_term).collect())
        }
    }
}

/// Decodes a `call(...)` atom back to the HiLog atom it encodes.  Returns
/// `None` if the term is not a unary `call` application.
pub fn decode_atom(atom: &Term) -> Option<Term> {
    match atom {
        Term::App(name, args) if args.len() == 1 => match &**name {
            Term::Sym(s) if s.name() == CALL_SYMBOL => Some(decode_term(&args[0])),
            _ => None,
        },
        _ => None,
    }
}

/// Applies the universal-relation transformation to a whole program,
/// rewriting every head and (positive or negative) body atom.  Builtin and
/// aggregate literals are left untouched.
///
/// Returns an error if the program already uses one of the reserved symbols,
/// since the transformed program could then confuse object-level and
/// encoding-level atoms.
pub fn universal_transform(program: &Program) -> Result<Program, CoreError> {
    for sym in program.symbols() {
        if is_reserved_symbol(sym.name()) {
            return Err(CoreError::Precondition(format!(
                "program uses reserved symbol `{}` of the universal-relation transformation",
                sym.name()
            )));
        }
    }
    let rules = program
        .iter()
        .map(|rule| Rule {
            head: encode_atom(&rule.head),
            body: rule
                .body
                .iter()
                .map(|lit| match lit {
                    Literal::Pos(a) => Literal::Pos(encode_atom(a)),
                    Literal::Neg(a) => Literal::Neg(encode_atom(a)),
                    other => other.clone(),
                })
                .collect(),
        })
        .collect();
    Ok(Program::from_rules(rules))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_stratified;

    fn v(s: &str) -> Term {
        Term::var(s)
    }
    fn s(x: &str) -> Term {
        Term::sym(x)
    }

    #[test]
    fn encode_simple_and_nested_atoms() {
        // p(X, a)(Z) ==> u2(u3(p, X, a), Z); as an atom, wrapped in call.
        let atom = Term::app(Term::apps("p", vec![v("X"), s("a")]), vec![v("Z")]);
        assert_eq!(encode_term(&atom).to_string(), "u2(u3(p, X, a), Z)");
        assert_eq!(encode_atom(&atom).to_string(), "call(u2(u3(p, X, a), Z))");
        // A bare propositional symbol encodes to itself under call.
        assert_eq!(encode_atom(&s("p")).to_string(), "call(p)");
        // 0-ary application p() becomes u1(p).
        assert_eq!(
            encode_atom(&Term::apps("p", vec![])).to_string(),
            "call(u1(p))"
        );
    }

    #[test]
    fn encode_maplist_example_from_section_2() {
        // maplist(F)([], []) ==> call(u3(u2(maplist, F), nil, nil)).
        let atom = Term::app(
            Term::apps("maplist", vec![v("F")]),
            vec![Term::nil(), Term::nil()],
        );
        assert_eq!(
            encode_atom(&atom).to_string(),
            "call(u3(u2(maplist, F), nil, nil))"
        );
    }

    #[test]
    fn decode_inverts_encode() {
        let atoms = vec![
            Term::app(Term::apps("p", vec![v("X"), s("a")]), vec![v("Z")]),
            Term::app(
                Term::apps("tc", vec![s("e")]),
                vec![s("a"), Term::apps("f", vec![s("b")])],
            ),
            s("p"),
            Term::apps("p", vec![]),
            Term::app(
                Term::app(Term::apps("p", vec![s("a"), v("X")]), vec![v("Y")]),
                vec![
                    s("b"),
                    Term::app(Term::apps("f", vec![s("c")]), vec![s("d")]),
                ],
            ),
        ];
        for atom in atoms {
            let encoded = encode_atom(&atom);
            assert_eq!(decode_atom(&encoded), Some(atom.clone()), "{atom}");
            assert_eq!(decode_term(&encode_term(&atom)), atom);
        }
    }

    #[test]
    fn decode_atom_rejects_non_call_terms() {
        assert_eq!(decode_atom(&s("p")), None);
        assert_eq!(decode_atom(&Term::apps("q", vec![s("a")])), None);
        assert_eq!(decode_atom(&Term::apps("call", vec![s("a"), s("b")])), None);
    }

    #[test]
    fn reserved_symbol_detection() {
        assert!(is_reserved_symbol("call"));
        assert!(is_reserved_symbol("u1"));
        assert!(is_reserved_symbol("u17"));
        assert!(!is_reserved_symbol("u"));
        assert!(!is_reserved_symbol("ux"));
        assert!(!is_reserved_symbol("update"));
        assert!(!is_reserved_symbol("move"));
    }

    #[test]
    fn transform_rejects_programs_using_reserved_symbols() {
        let p = Program::from_rules(vec![Rule::fact(Term::apps("call", vec![s("a")]))]);
        assert!(universal_transform(&p).is_err());
        let p2 = Program::from_rules(vec![Rule::fact(Term::apps("u2", vec![s("a"), s("b")]))]);
        assert!(universal_transform(&p2).is_err());
    }

    #[test]
    fn transform_produces_horn_program_over_call() {
        // The maplist program of Example 2.2.
        let maplist = Program::from_rules(vec![
            Rule::fact(Term::app(
                Term::apps("maplist", vec![v("F")]),
                vec![Term::nil(), Term::nil()],
            )),
            Rule::new(
                Term::app(
                    Term::apps("maplist", vec![v("F")]),
                    vec![Term::cons(v("X"), v("R")), Term::cons(v("Y"), v("Z"))],
                ),
                vec![
                    Literal::pos(Term::app(v("F"), vec![v("X"), v("Y")])),
                    Literal::pos(Term::app(
                        Term::apps("maplist", vec![v("F")]),
                        vec![v("R"), v("Z")],
                    )),
                ],
            ),
        ]);
        let t = universal_transform(&maplist).unwrap();
        assert_eq!(t.len(), 2);
        for rule in t.iter() {
            // Every atom is a unary `call` atom.
            assert_eq!(rule.head.name(), &s("call"));
            assert_eq!(rule.head.args().len(), 1);
            for lit in &rule.body {
                let a = lit.atom().unwrap();
                assert_eq!(a.name(), &s("call"));
            }
        }
        // The body of the second rule encodes F(X, Y) as call(u2(F, X, Y)).
        assert!(t.rules[1]
            .body
            .iter()
            .any(|l| l.to_string() == "call(u3(F, X, Y))"));
    }

    #[test]
    fn transform_destroys_stratification_structure() {
        // Section 6: the stratified program  p(X) :- q(X), not r(X)
        // becomes unstratified under the universal relation model because
        // every predicate collapses into `call`.
        let p = Program::from_rules(vec![
            Rule::new(
                Term::apps("p", vec![v("X")]),
                vec![
                    Literal::pos(Term::apps("q", vec![v("X")])),
                    Literal::neg(Term::apps("r", vec![v("X")])),
                ],
            ),
            Rule::fact(Term::apps("q", vec![s("a")])),
            Rule::fact(Term::apps("r", vec![s("b")])),
        ]);
        assert!(is_stratified(&p));
        let t = universal_transform(&p).unwrap();
        assert!(!is_stratified(&t));
    }

    #[test]
    fn transform_preserves_negation_polarity() {
        let p = Program::from_rules(vec![Rule::new(
            Term::apps("winning", vec![v("X")]),
            vec![
                Literal::pos(Term::apps("move", vec![v("X"), v("Y")])),
                Literal::neg(Term::apps("winning", vec![v("Y")])),
            ],
        )]);
        let t = universal_transform(&p).unwrap();
        let body = &t.rules[0].body;
        assert!(matches!(body[0], Literal::Pos(_)));
        assert!(matches!(body[1], Literal::Neg(_)));
    }
}
