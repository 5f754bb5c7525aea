//! A warm hit answers what a cold session answers, in the same bytes.
//!
//! A single-atom query whose subgoal table is complete is answered from the
//! table alone: each answer is matched into one binding buffer, cleared
//! between answers, and its terms are written to JSON through an escaping
//! `fmt::Write` rather than a `String` each.  These tests hold that path to
//! a fresh `HiLogDb` answering the same query cold: the same answers in the
//! same order, every binding the same bytes through `Display`, and every
//! answer the same JSON as a term's `to_string()` escaped whole.  The
//! queries cover a variable in name position, a repeated variable, a
//! nested name, integer arguments and a quoted symbol holding `"` and `\`.

use hilog_repro::prelude::*;
use proptest::prelude::*;
use serde::Serialize;

/// A program with every shape the cases below need; `graph/1` guards the
/// generic closure, so its names stay finite.
const PROGRAM: &str = "\
    e(a, a). e(a, b). e(b, b). e(b, c). e(c, a).\n\
    e1(p0, p1). e1(p1, p2). e1(p2, p10). e1(p10, p3).\n\
    graph(e). graph(e1).\n\
    tc(G)(X, Y) :- graph(G), G(X, Y).\n\
    tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
    score(a, 3). score(b, -2). score(c, 10). score(f(a, -7), 0).\n";

/// The program, plus `label/2` facts whose first argument must be quoted
/// (built by hand: the symbol holds a `"` and a `\`).
fn program() -> Program {
    let mut program = parse_program(PROGRAM).unwrap();
    for (name, n) in [("a\"b\\c", 1), ("plain", 2), ("it's", 3), ("tab\there", 4)] {
        let fact = Term::app(Term::sym("label"), vec![Term::sym(name), Term::int(n)]);
        program.push(Rule::fact(fact));
    }
    program
}

/// Each query and whether its route is the tabled one (whose warm answer is
/// a table hit) or the full model.
const CASES: [(&str, PlanStrategy); 8] = [
    ("?- G(a, Y).", PlanStrategy::FullModel),
    ("?- e(X, X).", PlanStrategy::MagicSets),
    ("?- e(a, Y).", PlanStrategy::MagicSets),
    ("?- tc(G)(p0, Y).", PlanStrategy::FullModel),
    ("?- tc(e1)(p0, Y).", PlanStrategy::MagicSets),
    ("?- tc(e)(X, X).", PlanStrategy::MagicSets),
    ("?- score(X, N).", PlanStrategy::MagicSets),
    ("?- label(S, N).", PlanStrategy::MagicSets),
];

/// A session over [`program`], in memory whatever `HILOG_STORAGE` says.
fn session() -> HiLogDb {
    HiLogDb::builder()
        .program(program())
        .storage(StorageConfig::InMemory)
        .build()
}

/// Each answer as its bindings through `Display` and its truth, in answer
/// order.
fn rendered(result: &QueryResult) -> Vec<(Vec<(String, String)>, Truth)> {
    let answer = |a: &QueryAnswer| {
        let bindings = a.bindings.iter();
        let bindings = bindings.map(|(v, t)| (v.name().to_string(), t.to_string()));
        (bindings.collect(), a.truth)
    };
    result.answers.iter().map(answer).collect()
}

/// The answers' JSON as it was written before the escaping writer: each
/// term's `to_string()` escaped whole, the truth's too.
fn reference_json(answers: &[QueryAnswer]) -> String {
    let mut out = String::from("[");
    for (i, answer) in answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"bindings\":{");
        for (j, (v, t)) in answer.bindings.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            serde::write_json_string(&mut out, v.name());
            out.push(':');
            serde::write_json_string(&mut out, &t.to_string());
        }
        out.push_str("},\"truth\":");
        serde::write_json_string(&mut out, &answer.truth.to_string());
        out.push('}');
    }
    out.push(']');
    out
}

/// `result`'s answers through their `Serialize`.
fn answers_json(result: &QueryResult) -> String {
    let mut out = String::new();
    result.answers.write_json(&mut out);
    out
}

#[test]
fn a_warm_hit_answers_what_a_cold_session_answers() {
    let mut warm_db = session();
    let (mut writer, _snapshots) = session().into_serving();
    let snapshot = writer.publish();
    for (text, route) in CASES {
        let query = parse_query(text).unwrap();
        let cold = session().query(&query).unwrap();
        assert_eq!(cold.plan.strategy, route, "{text}");
        assert!(!cold.answers.is_empty(), "{text}: no answers");
        warm_db.query(&query).unwrap();
        snapshot.query(&query).unwrap();
        let warm = [
            ("session", warm_db.query(&query).unwrap()),
            ("snapshot", snapshot.query(&query).unwrap()),
        ];
        for (reader, warm) in warm {
            let context = format!("{text} on the {reader}");
            if route == PlanStrategy::MagicSets {
                assert_eq!(warm.stats.cached_subqueries, 1, "{context}: not a hit");
                assert_eq!(warm.stats.rule_applications, 0, "{context}: not a hit");
            }
            assert_eq!(rendered(&warm), rendered(&cold), "{context}");
            assert_eq!(warm.answers, cold.answers, "{context}");
            assert_eq!(
                answers_json(&warm),
                reference_json(&cold.answers),
                "{context}"
            );
        }
    }
}

/// The answers the cases above must read, so that agreeing with a wrong
/// cold route is not enough.
#[test]
fn the_cases_answer_as_pinned() {
    let mut db = session();
    let mut answers = |text: &str| {
        let result = db.query(&parse_query(text).unwrap()).unwrap();
        rendered(&result)
            .into_iter()
            .map(|(bindings, _)| {
                let bindings = bindings.into_iter().map(|(v, t)| format!("{v}={t}"));
                bindings.collect::<Vec<_>>().join(",")
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(answers("?- e(X, X)."), ["X=a", "X=b"]);
    assert_eq!(answers("?- tc(e)(X, X)."), ["X=a", "X=b", "X=c"]);
    assert_eq!(
        answers("?- tc(e1)(p0, Y)."),
        ["Y=p1", "Y=p10", "Y=p2", "Y=p3"]
    );
    assert_eq!(
        answers("?- score(X, N)."),
        ["X=a,N=3", "X=b,N=-2", "X=c,N=10", "X=f(a, -7),N=0"]
    );
    // Term order reads a symbol's name, not its quoted form.
    assert_eq!(
        answers("?- label(S, N)."),
        [
            "S='a\"b\\c',N=1",
            "S='it\\'s',N=3",
            "S=plain,N=2",
            "S='tab\there',N=4",
        ]
    );
    let mut out = String::new();
    serde::write_json_display(&mut out, &Term::sym("a\"b\\c"));
    assert_eq!(out, r#""'a\"b\\c'""#);
}

/// Symbol names drawn from characters JSON must escape (and some it must
/// not), plus the two that make `Display` print a list.
fn arb_symbol() -> impl Strategy<Value = Term> {
    const CHARS: [char; 12] = [
        'a', 'Z', '_', ' ', '"', '\\', '\'', '\n', '\t', '\u{1}', 'é', '→',
    ];
    let named = proptest::collection::vec(0..CHARS.len(), 0..5)
        .prop_map(|picks| Term::sym(picks.iter().map(|&i| CHARS[i]).collect::<String>()));
    prop_oneof![named, Just(Term::sym("cons")), Just(Term::sym("nil"))]
}

/// Ground terms: symbols, integers, and applications whose name is itself
/// a term.
fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![arb_symbol(), (-20i64..20).prop_map(Term::int)];
    leaf.prop_recursive(3, 24, 3, |inner| {
        (inner.clone(), proptest::collection::vec(inner, 0..3))
            .prop_map(|(name, args)| Term::app(name, args))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The escaping writer writes the bytes of the term's `to_string()`
    /// escaped whole.
    #[test]
    fn a_term_is_escaped_as_its_string_is(t in arb_term()) {
        let (mut direct, mut via_string) = (String::new(), String::new());
        serde::write_json_display(&mut direct, &t);
        serde::write_json_string(&mut via_string, &t.to_string());
        prop_assert_eq!(direct, via_string);
    }
}
