//! Same outcomes: what every query of a fixed corpus answers, digested.
//!
//! For each program of a family this records, one line each:
//!
//! * Figure 1's verdict (`check_modular`) and its rounds;
//! * per query, under [`Semantics::WellFounded`] and then
//!   [`Semantics::ModularCheck`], the route that answered it (the tabled
//!   route, the tabled route's fallback to the full model with the kind of
//!   error it fell back on, or the full model), the overall truth and every
//!   answer with its truth — or the kind of error the query returned.
//!
//! It records no counters and no error messages: a change in how answers
//! are computed keeps every digest, a change in what they are does not.
//! The queries of a program are every atom of its well-founded model's base
//! (bound, ground), one open query per predicate, a conjunction with a
//! negation, and the queries a family names.  One session per program and
//! semantics answers them in that order, so later queries meet the tables
//! earlier ones completed, as a served database's do.
//!
//! One FNV-1a digest per family is checked in.  On a mismatch the family's
//! lines are written to `<target>/tmp/same_outcomes/<family>.txt`, so that a
//! run on another commit and a `diff` of the two files show what changed.
//! The differential families follow `HILOG_DIFFERENTIAL_CASES` like
//! `tests/differential.rs`; their digests hold at its default, and a larger
//! count evaluates the extra seeds without digesting them.

use hilog_repro::prelude::*;
use hilog_workloads::closure::generic_closure_program;
use hilog_workloads::games::{hilog_game_program, normal_game_program};
use hilog_workloads::graphs::{chain, cycle, random_dag};
use hilog_workloads::random_programs::{
    random_range_restricted_normal, random_strongly_restricted_hilog, HilogProgramConfig,
    NormalProgramConfig,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One program of a family: a label, the program and the queries it names
/// beyond the generated ones.
struct Case {
    label: String,
    program: Program,
    extra: Vec<&'static str>,
}

impl Case {
    fn new(label: impl Into<String>, program: Program) -> Self {
        Case {
            label: label.into(),
            program,
            extra: Vec::new(),
        }
    }
}

/// The committed regression seeds, then generated ones up to `default`
/// (or `HILOG_DIFFERENTIAL_CASES`) in all, as `tests/differential.rs` picks
/// them; the second value is how many of them the digest covers.
fn seeds(extra: usize) -> (Vec<u64>, usize) {
    let mut out: Vec<u64> = include_str!("corpus/differential_seeds.txt")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.trim().parse().expect("corpus seeds are integers"))
        .collect();
    let default = out.len() + extra;
    let total = std::env::var("HILOG_DIFFERENTIAL_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
        .max(out.len());
    let mut next = 1_000_000u64;
    while out.len() < total {
        out.push(next);
        next += 1;
    }
    (out, default)
}

fn error_kind(err: &EngineError) -> &'static str {
    match err {
        EngineError::Floundering(_) => "floundering",
        EngineError::LimitExceeded(_) => "limit exceeded",
        EngineError::NotModularlyStratified(_) => "not modularly stratified",
        EngineError::NoStableModels => "no stable models",
        EngineError::DeadlineExceeded(_) => "deadline exceeded",
        EngineError::Unsupported(_) => "unsupported",
        EngineError::Core(_) => "core",
    }
}

/// The queries of a program: the extra ones, every atom of its
/// well-founded base, one open query per predicate, and one conjunction
/// with a negation over the first two unary predicates.
fn queries(case: &Case, base: &[Term]) -> Vec<Query> {
    let mut out: Vec<Query> = (case.extra.iter())
        .map(|text| parse_query(text).expect("a family's query parses"))
        .collect();
    out.extend(base.iter().map(|atom| Query::atom(atom.clone())));
    let predicates: BTreeSet<(Term, usize)> = (base.iter())
        .filter_map(|atom| Some((atom.outermost_functor().clone(), atom.arity()?)))
        .collect();
    let open = |name: &Term, arity: usize| {
        Term::app(
            name.clone(),
            (0..arity).map(|i| Term::var(format!("V{i}"))).collect(),
        )
    };
    for (name, arity) in &predicates {
        out.push(Query::atom(open(name, *arity)));
    }
    let unary: Vec<&Term> = (predicates.iter())
        .filter(|(_, arity)| *arity == 1)
        .map(|(name, _)| name)
        .take(2)
        .collect();
    if let [first, second] = unary[..] {
        out.push(Query::new(vec![
            Literal::pos(open(first, 1)),
            Literal::neg(open(second, 1)),
        ]));
    }
    out
}

/// The outcome lines of one program.
fn outcome_lines(case: &Case, out: &mut Vec<String>) {
    let label = &case.label;
    out.push(match HiLogDb::new(case.program.clone()).check_modular() {
        Ok(outcome) => {
            let rounds: Vec<String> = (outcome.rounds.iter())
                .map(|names| {
                    let names: Vec<String> = names.iter().map(Term::to_string).collect();
                    format!("[{}]", names.join(", "))
                })
                .collect();
            format!(
                "{label} | figure 1 | {} | {}",
                if outcome.modularly_stratified {
                    "accepted"
                } else {
                    "rejected"
                },
                rounds.join(" ")
            )
        }
        Err(err) => format!("{label} | figure 1 | error {}", error_kind(&err)),
    });
    let base: Vec<Term> = match HiLogDb::new(case.program.clone()).model() {
        Ok(model) => model.base().iter().cloned().collect(),
        Err(err) => {
            out.push(format!("{label} | model | error {}", error_kind(&err)));
            Vec::new()
        }
    };
    let queries = queries(case, &base);
    for semantics in [Semantics::WellFounded, Semantics::ModularCheck] {
        let mut db = HiLogDb::builder()
            .program(case.program.clone())
            .semantics(semantics)
            .build();
        for query in &queries {
            let mut line = format!("{label} | {semantics:?} | {query} | ");
            match db.query(query) {
                Ok(result) => {
                    let route = match (&result.fallback, result.plan.is_magic_sets()) {
                        (None, true) => "tabled".to_string(),
                        (Some(note), _) => {
                            let kind = note.split(':').next().unwrap_or_default();
                            format!("fallback ({kind})")
                        }
                        (None, false) => "full model".to_string(),
                    };
                    write!(line, "{route} | {:?} |", result.truth).unwrap();
                    for answer in &result.answers {
                        let bound: Vec<String> = (answer.bindings.iter())
                            .map(|(var, value)| format!("{var}={value}"))
                            .collect();
                        write!(line, " {{{}}}:{:?}", bound.join(", "), answer.truth).unwrap();
                    }
                }
                Err(err) => write!(line, "error {}", error_kind(&err)).unwrap(),
            }
            out.push(line);
        }
    }
}

/// 64-bit FNV-1a over the lines, each ended by a newline.
fn fnv1a(lines: &[String]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Evaluates a family; the digest covers its first `digested` cases.
fn check(family: &str, cases: Vec<Case>, digested: usize, expected: u64) {
    let mut lines = Vec::new();
    let mut covered = 0;
    for (i, case) in cases.iter().enumerate() {
        outcome_lines(case, &mut lines);
        if i + 1 == digested.min(cases.len()) {
            covered = lines.len();
        }
    }
    let digest = fnv1a(&lines[..covered]);
    if digest != expected {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("same_outcomes");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{family}.txt"));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        panic!(
            "family `{family}`: digest {digest:#018x}, expected {expected:#018x}; its {} outcome \
             lines are in {}",
            lines.len(),
            path.display()
        );
    }
    eprintln!("{family}: {} outcome lines", lines.len());
}

#[test]
fn normal_programs_with_negation() {
    let (seeds, digested) = seeds(70);
    let cases = (seeds.iter())
        .map(|&seed| {
            let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
            Case::new(format!("seed {seed}"), program)
        })
        .collect();
    check("normal", cases, digested, 0x6a0d_0da3_9b13_eb1d);
}

#[test]
fn negation_free_normal_programs() {
    let config = NormalProgramConfig {
        negation_probability: 0.0,
        ..NormalProgramConfig::default()
    };
    let (seeds, digested) = seeds(30);
    let cases = (seeds.iter())
        .map(|&seed| {
            let program = random_range_restricted_normal(config, seed);
            Case::new(format!("seed {seed}"), program)
        })
        .collect();
    check("negation_free", cases, digested, 0x14a8_c5df_c4fc_fc63);
}

#[test]
fn hilog_programs_closures_and_games() {
    // `tests/differential.rs`' HiLog families: a random strongly
    // range-restricted program per seed, and in turn the generic closure,
    // an acyclic HiLog game or a cyclic one.
    let (seeds, digested) = seeds(0);
    let mut cases = Vec::new();
    for &seed in &seeds {
        let dag = |n| random_dag(n, 1.5, seed);
        let mut cyclic = dag(6);
        cyclic.extend(cycle(3 + (seed % 3) as usize));
        let family = match seed % 3 {
            0 => generic_closure_program(&[("e1", dag(7)), ("e2", cycle(3))]),
            1 => hilog_game_program(&[("m1", dag(8)), ("m2", chain(4))]),
            _ => hilog_game_program(&[("m1", cyclic), ("m2", cycle(4))]),
        };
        let random = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
        cases.push(Case::new(format!("seed {seed}, random HiLog"), random));
        cases.push(Case::new(format!("seed {seed}, family"), family));
    }
    // Two cases a seed.
    check("hilog", cases, 2 * digested, 0x5aef_7c28_a813_65ea);
}

#[test]
fn paper_examples_and_the_corpus() {
    let parse = |text: &str| parse_program(text).unwrap();
    let mut example_6_4 = Case::new(
        "example 6.4",
        parse(
            "p(X) :- t(X, Y, Z, P), not p(Y), not p(Z).\n\
             t(a, b, a, p). t(c, a, b, p).\n\
             p(b) :- t(X, Y, b, P).",
        ),
    );
    example_6_4.extra = vec!["?- p(a).", "?- p(c).", "?- p(X)."];
    let mut reordered = Case::new(
        "example 6.4, not p(Z) first",
        parse(
            "p(X) :- t(X, Y, Z, P), not p(Z), not p(Y).\n\
             t(a, b, a, p). t(c, a, b, p).\n\
             p(b) :- t(X, Y, b, P).",
        ),
    );
    reordered.extra = example_6_4.extra.clone();
    let mut example_6_5 = Case::new(
        "example 6.5",
        parse(
            "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
             game(move1). move1(a, b).\n\
             X :- aux(X).\n\
             aux(move1(b, c)) :- not winning(move1)(a).",
        ),
    );
    example_6_5.extra = vec![
        "?- winning(move1)(a).",
        "?- aux(X).",
        "?- aux(X0), not aux(X0).",
    ];
    let mut left_to_right = Case::new(
        "figure_1_left_to_right.hl",
        parse(include_str!("corpus/figure_1_left_to_right.hl")),
    );
    left_to_right.extra = vec!["?- idb0(c1).", "?- idb2(X), not idb0(X)."];
    let cases = vec![
        Case::new(
            "example 6.1, acyclic",
            parse("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c)."),
        ),
        Case::new(
            "example 6.1, cyclic",
            parse("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, a)."),
        ),
        Case::new(
            "example 6.3",
            parse(
                "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                 game(move1). game(move2).\n\
                 move1(a, b). move1(b, c). move1(a, c).\n\
                 move2(x, y). move2(y, z).",
            ),
        ),
        example_6_4,
        reordered,
        example_6_5,
        left_to_right,
    ];
    check("examples", cases, usize::MAX, 0xc987_e8b6_b85a_d5aa);
}

#[test]
fn chain_and_cycle_games_and_closures() {
    let mut cases = Vec::new();
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 50] {
        for (shape, edges) in [("chain", chain(n)), ("cycle", cycle(n))] {
            let mut game = Case::new(format!("{shape}({n}) game"), normal_game_program(&edges));
            game.extra = vec!["?- winning(p0).", "?- winning(X)."];
            let mut hilog = Case::new(
                format!("{shape}({n}) HiLog game"),
                hilog_game_program(&[("m", edges.clone())]),
            );
            hilog.extra = vec!["?- winning(m)(p0).", "?- game(M), winning(M)(X)."];
            let mut closure = Case::new(
                format!("{shape}({n}) closure"),
                generic_closure_program(&[("e", edges)]),
            );
            closure.extra = vec!["?- tc(e)(p0, X).", "?- tc(e)(X, Y).", "?- P(X, Y)."];
            cases.extend([game, hilog, closure]);
        }
    }
    check(
        "games_and_closures",
        cases,
        usize::MAX,
        0xd5dc_1fa0_8b7c_15cf,
    );
}
