//! Parser / printer round-trip properties: the concrete syntax printed for a
//! program re-parses to the same program, both for the paper's programs and
//! for generated workloads.

use hilog_core::{hash_one, Program, Term, TermSet};
use hilog_syntax::{parse_program, parse_term, program_to_source};
use hilog_workloads::{
    chain, hilog_game_program, random_dag, random_ground_extension, random_range_restricted_normal,
    random_strongly_restricted_hilog, ExtensionConfig, HilogProgramConfig, NormalProgramConfig,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn rule_set(program: &Program) -> BTreeSet<String> {
    program.iter().map(|r| r.to_string()).collect()
}

fn assert_roundtrip(program: &Program) {
    // Display of each rule re-parses to an equal rule.
    for rule in program.iter() {
        let reparsed = hilog_syntax::parse_rule(&rule.to_string()).unwrap();
        assert_eq!(&reparsed, rule, "rule display does not round-trip: {rule}");
    }
    // The whole-program pretty printer preserves the rule set.
    let source = program_to_source(program);
    let reparsed = parse_program(&source).unwrap();
    assert_eq!(rule_set(program), rule_set(&reparsed));
}

#[test]
fn paper_programs_roundtrip() {
    let texts = [
        "tc(G)(X, Y) :- G(X, Y).\n tc(G)(X, Y) :- G(X, Z), tc(G)(Z, Y).",
        "maplist(F)([], []).\n maplist(F)([X | R], [Y | Z]) :- F(X, Y), maplist(F)(R, Z).",
        "p :- q. q :- p. r :- s, not p. s. t :- not r. u :- not u.",
        "p :- not q. q :- not p. r :- p. r :- q. t :- p, not p.",
        "p :- not q(X). q(a).",
        "p :- X(Y), Y(X).",
        "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y). game(move1). move1(a, b).",
        "X(a) :- X(X), not X(a).",
        "p(X) :- t(X, Y, Z, P), not p(Y), not p(Z). t(a, b, a, p). p(b) :- t(X, Y, b, P).",
        "in(Mach, X, Y, null, N) :- assoc(Mach, Part), Part(X, Y, N).\n\
         in(Mach, X, Y, Z, N) :- assoc(Mach, Part), Part(X, Z, P), contains(Mach, Z, Y, M), N is P * M.\n\
         contains(Mach, X, Y, N) :- N = sum(P, in(Mach, X, Y, W, P)).",
        // The paper writes this rule with `not` as the head functor; `not` is
        // a keyword of the concrete syntax, so the repository's programs use
        // `neg` for the same shape (a 0-ary application head whose name
        // carries the variable).
        "neg(X)() :- not X.",
        "w(M)(X) :- g(M), M(X, Y), not w(M)(Y). g(m). m(a, b).",
    ];
    for text in texts {
        let program = parse_program(text).unwrap();
        assert_roundtrip(&program);
    }
}

#[test]
fn quoted_symbols_and_integers_roundtrip() {
    let program = parse_program(
        "part('Front Wheel', spoke, 47). cost('x-y', -12). threshold(T) :- part(P, Q, N), T is N * 2 + 1.",
    )
    .unwrap();
    assert_roundtrip(&program);
    // Terms round-trip individually as well.
    for text in [
        "'Front Wheel'",
        "f(a, -3)",
        "[a, b | T]",
        "tc(e)(a, b)",
        "p()",
    ] {
        let term = parse_term(text).unwrap();
        let reparsed = parse_term(&term.to_string()).unwrap();
        assert_eq!(term, reparsed, "{text}");
    }
}

#[test]
fn parsed_and_constructed_terms_agree_on_hash_and_eq() {
    // Symbols hash and compare by their interned allocation: a term the
    // parser builds and one built by hand from the same names share every
    // symbol, so `Hash` agrees with `Eq` across the two routes.
    let built = [
        Term::app(
            Term::apps("winning", vec![Term::sym("move1")]),
            vec![Term::sym("p4")],
        ),
        Term::apps(
            "part",
            vec![Term::sym("Front Wheel"), Term::sym("spoke"), Term::int(47)],
        ),
        Term::apps(
            "f",
            vec![Term::cons(
                Term::sym("a"),
                Term::cons(Term::sym("b"), Term::var("T")),
            )],
        ),
        Term::apps("p", vec![]),
        Term::sym("p"),
    ];
    let texts = [
        "winning(move1)(p4)",
        "part('Front Wheel', spoke, 47)",
        "f([a, b | T])",
        "p()",
        "p",
    ];
    let set: TermSet<Term> = built.iter().cloned().collect();
    assert_eq!(set.len(), built.len(), "`p()` and `p` stay distinct");
    for (text, built) in texts.iter().zip(&built) {
        let parsed = parse_term(text).unwrap();
        assert_eq!(&parsed, built, "{text}");
        assert_eq!(hash_one(&parsed), hash_one(built), "{text}");
        assert!(set.contains(&parsed), "{text}");
    }
    assert!(!set.contains(&parse_term("winning(move1)(p5)").unwrap()));
}

#[test]
fn generated_game_programs_roundtrip() {
    for seed in 0..5u64 {
        let program = hilog_game_program(&[("g1", random_dag(12, 2.0, seed)), ("g2", chain(6))]);
        assert_roundtrip(&program);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_normal_programs_roundtrip(seed in 0u64..10_000) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        assert_roundtrip(&program);
    }

    #[test]
    fn random_hilog_programs_roundtrip(seed in 0u64..10_000) {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
        assert_roundtrip(&program);
    }

    #[test]
    fn random_extensions_roundtrip(seed in 0u64..10_000) {
        let program = random_ground_extension(ExtensionConfig::default(), seed);
        assert_roundtrip(&program);
    }
}
