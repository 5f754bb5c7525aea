//! The text decoders that read bytes from a socket, mutation-fuzzed: the
//! HiLog parser (`parse_program`, `parse_clauses`, `parse_query`,
//! `parse_rule`, `parse_term`) and the vendored JSON decoder
//! (`serde_json::from_str`).
//!
//! Seeds are texts the repository produces itself: the workload generators'
//! programs, queries and facts, `tests/corpus/*.hl`, server request bodies
//! and a query result.  Each seed is cut at every character boundary, a
//! short one has every token spliced in at every boundary, and each is
//! mutated at random (characters flipped, inserted and deleted, multi-byte
//! ones included, and tokens spliced in).  A decoder must never panic; the
//! parser's every error names a line and column inside the text; every
//! value decoded prints back to text that decodes to an equal value.
//! `HILOG_CODEC_CASES` scales the mutants per seed (CI's codec fuzz step).

use hilog_core::{Program, Term};
use hilog_syntax::{
    parse_clauses, parse_program, parse_query, parse_rule, parse_term, program_to_source,
    ParseError,
};
use hilog_workloads::{
    durability_workload, generic_closure_program, hilog_game_program, random_dag,
    random_range_restricted_normal, random_strongly_restricted_hilog, serving_workload,
    sharded_game_text, DurabilityWorkloadConfig, ServingWorkloadConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Random mutants per seed: `HILOG_CODEC_CASES`, 16 by default.
fn cases() -> usize {
    std::env::var("HILOG_CODEC_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

/// SplitMix64: a pinned seed gives the same mutants on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Every character boundary of `text`.
fn boundaries(text: &str) -> impl Iterator<Item = usize> + '_ {
    (0..=text.len()).filter(|&at| text.is_char_boundary(at))
}

/// One to three edits of `text`: a character flipped, inserted or deleted,
/// or a token spliced in.
fn mutate(text: &str, characters: &[char], tokens: &[&str], rng: &mut Rng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(chars.len() + 1);
        match rng.below(4) {
            0 if at < chars.len() => chars[at] = *rng.pick(characters),
            1 => chars.insert(at, *rng.pick(characters)),
            2 if at < chars.len() => {
                chars.remove(at);
            }
            _ => {
                let token: Vec<char> = rng.pick(tokens).chars().collect();
                chars.splice(at..at, token);
            }
        }
    }
    chars.into_iter().collect()
}

/// The seeds, each cut everywhere, each short one with every token spliced
/// in everywhere (so a token lands where a value may stand), and each
/// mutated `cases()` times.
fn mutants(seeds: &[String], characters: &[char], tokens: &[&str], seed: u64) -> Vec<String> {
    let mut rng = Rng(seed);
    let mut out = Vec::new();
    for text in seeds {
        out.extend(boundaries(text).map(|at| text[..at].to_string()));
        if text.len() <= 200 {
            for at in boundaries(text) {
                let (head, tail) = text.split_at(at);
                out.extend(tokens.iter().map(|token| format!("{head}{token}{tail}")));
            }
        }
        out.extend((0..cases()).map(|_| mutate(text, characters, tokens, &mut rng)));
    }
    out
}

/// `f(text)`, or a failure naming the text if it panics.
fn no_panic<T>(what: &str, text: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{what} panicked on {text:?}"))
}

// ---- the HiLog parser -----------------------------------------------------

const HILOG_CHARACTERS: &[char] = &[
    'a', 'q', 'Z', '_', '0', '7', '(', ')', '[', ']', ',', '|', '.', ':', '-', '?', '\\', '=', '<',
    '>', '+', '*', '/', '\'', '%', '\n', ' ', '\t', '\r', '$', '#', '"', 'é', 'λ', '∀', '🦀',
];

const HILOG_TOKENS: &[&str] = &[
    "not ",
    "\\+ ",
    " is ",
    " mod ",
    " div ",
    ":-",
    "?-",
    "=:=",
    "=\\=",
    "\\=",
    "=<",
    ">=",
    "'it\\'s'",
    "'a b'",
    "'not'",
    "'is'",
    "'mod'",
    "'div'",
    "''",
    "'λ'",
    "'\\\\'",
    "-3",
    "- 3",
    "(-3)",
    "(X)",
    "[a | T]",
    "[]",
    "sum(V, p(V))",
    "count(X, q(X))",
    "_",
    "_X",
    "tc(G)(X, Y)",
    "f(",
    ")(",
    "% note\n",
    "99999999999999999999",
    "9223372036854775807",
];

/// Program, query and fact texts the repository generates and keeps.
fn hilog_seeds() -> Vec<String> {
    let mut seeds = vec![
        random_range_restricted_normal(Default::default(), 3).to_string(),
        random_strongly_restricted_hilog(Default::default(), 5).to_string(),
        hilog_game_program(&[("m", random_dag(6, 1.5, 7))]).to_string(),
        generic_closure_program(&[("e", random_dag(6, 1.5, 11))]).to_string(),
        sharded_game_text(2, 4, 13),
        "contains(M, X, Y, N) :- N = sum(P, in(M, X, Y, _, P)).\n\
         in(M, X, Y, Z, N) :- q(M, X, P), contains(M, Z, Y, K), N is P * K - 1.\n\
         big(X) :- p(X, N), N >= 2 + 3 mod 4, N =< 100 div 2, N \\= 7, N =\\= 8, N =:= N / 1.\n\
         maplist(F)([X | R], [Y | Z]) :- F(X, Y), maplist(F)(R, Z).\n\
         p('Hello world', 'it\\'s', -3, (X)(a), (-3)(a), [a](b), []) :- \\+ q, not r(_, _).\n"
            .to_string(),
    ];
    let serving = serving_workload(
        &ServingWorkloadConfig {
            nodes: 30,
            queries: 4,
            ..Default::default()
        },
        17,
    );
    seeds.extend(serving.queries);
    let durability = durability_workload(
        &DurabilityWorkloadConfig {
            facts: 6,
            nodes: 4,
            batch_size: 3,
            probes: 2,
        },
        17,
    );
    seeds.push(durability.flat_program);
    seeds.extend(durability.batches.concat());
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(corpus)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "hl"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    seeds.extend(files.iter().map(|f| std::fs::read_to_string(f).unwrap()));
    seeds
}

/// `error` names a position inside `text`: a line of it, and a column on
/// that line or just past its end.
fn inside(text: &str, error: &ParseError) -> bool {
    let line = text.split('\n').nth(error.line.wrapping_sub(1));
    line.is_some_and(|line| (1..=line.chars().count() + 1).contains(&error.column))
}

/// The printed rules, sorted: `program_to_source` groups the rules before
/// the facts.
fn sorted_rules(program: &Program) -> Vec<String> {
    let mut rules: Vec<String> = program.iter().map(|rule| rule.to_string()).collect();
    rules.sort();
    rules
}

/// The five entry points on `text`, each checked; the number of `Ok`s.
fn check_parsers(text: &str) -> usize {
    let mut parsed = 0;
    let mut check = |entry: &str, outcome: Result<(), ParseError>| match outcome {
        Ok(()) => parsed += 1,
        Err(e) => assert!(inside(text, &e), "{entry}: {e} lies outside {text:?}"),
    };
    let program = no_panic("parse_program", text, || parse_program(text));
    check(
        "parse_program",
        program.map(|program| {
            let printed = program.to_string();
            assert_eq!(parse_program(&printed).as_ref(), Ok(&program), "{text:?}");
            let source = parse_program(&program_to_source(&program)).unwrap();
            assert_eq!(sorted_rules(&source), sorted_rules(&program), "{text:?}");
        }),
    );
    let clauses = no_panic("parse_clauses", text, || parse_clauses(text));
    check("parse_clauses", clauses.map(|_| ()));
    let query = no_panic("parse_query", text, || parse_query(text));
    check(
        "parse_query",
        query.map(|query| {
            let printed = query.to_string();
            assert_eq!(parse_query(&printed).as_ref(), Ok(&query), "{text:?}");
        }),
    );
    let rule = no_panic("parse_rule", text, || parse_rule(text));
    check(
        "parse_rule",
        rule.map(|rule| {
            let printed = rule.to_string();
            assert_eq!(parse_rule(&printed).as_ref(), Ok(&rule), "{text:?}");
        }),
    );
    let term = no_panic("parse_term", text, || parse_term(text));
    check(
        "parse_term",
        term.map(|term: Term| {
            let printed = term.to_string();
            assert_eq!(parse_term(&printed).as_ref(), Ok(&term), "{text:?}");
        }),
    );
    parsed
}

#[test]
fn mutated_hilog_text_parses_or_errs_inside_it() {
    let seeds = hilog_seeds();
    for seed in &seeds {
        assert!(check_parsers(seed) > 0, "seed does not parse: {seed:?}");
    }
    let mutants = mutants(&seeds, HILOG_CHARACTERS, HILOG_TOKENS, 0x5eed);
    let parsed: usize = mutants.iter().map(|text| check_parsers(text)).sum();
    // The mutants reach both sides of the parser.
    assert!(
        parsed > mutants.len() / 10,
        "{parsed} of {}",
        mutants.len() * 5
    );
    assert!(
        parsed < mutants.len() * 4,
        "{parsed} of {}",
        mutants.len() * 5
    );
}

// ---- the JSON decoder -----------------------------------------------------

const JSON_CHARACTERS: &[char] = &[
    '{', '}', '[', ']', ',', ':', '"', '\\', '/', 'u', 'n', 't', 'f', 'e', 'E', '0', '9', '-', '+',
    '.', ' ', '\n', '\t', 'é', '🦀', '\u{1}',
];

const JSON_TOKENS: &[&str] = &[
    "1e400",
    "-1e400",
    "1e-400",
    "-0",
    "1.5e-7",
    "9007199254740993",
    "123456789012345678901234",
    "\\u00e9",
    "\\ud83e\\udd80",
    "\\ud800",
    "\\u",
    "true",
    "false",
    "null",
    "[]",
    "{}",
    "[[",
    "{\"a\":",
    "\"é\"",
    ",",
    ":",
];

/// Request bodies the server reads and a result it writes.
fn json_seeds() -> Vec<String> {
    let program = parse_program("move(a, b). move(b, c). win(X) :- move(X, Y), not win(Y).");
    let result = hilog_engine::HiLogDb::new(program.unwrap())
        .query(&parse_query("?- win(X).").unwrap())
        .unwrap();
    vec![
        r#"{"query": "?- winning(X).", "timeout_ms": 250}"#.to_string(),
        r#"{"facts": ["move(a, b)", "it's \"é\" é🦀"], "rules": ["p :- q"]}"#.to_string(),
        r#"[0, -0, 1.5, -2e2, 3E+1, 1e-7, 18446744073709551615, true, false, null, {}, []]"#
            .to_string(),
        serde_json::to_string(&result).unwrap(),
    ]
}

#[test]
fn mutated_json_decodes_to_a_value_that_round_trips_or_errs() {
    let seeds = json_seeds();
    let mutants = mutants(&seeds, JSON_CHARACTERS, JSON_TOKENS, 0x15_0b);
    let mut decoded = 0;
    for text in seeds.iter().chain(&mutants) {
        let Ok(value) = no_panic("from_str", text, || serde_json::from_str(text)) else {
            continue;
        };
        decoded += 1;
        let printed = serde_json::to_string(&value).unwrap();
        let again = serde_json::from_str(&printed);
        assert_eq!(
            again.ok().as_ref(),
            Some(&value),
            "{text:?} printed as {printed:?}"
        );
    }
    assert!(decoded > seeds.len(), "{decoded} of {}", mutants.len());
}
