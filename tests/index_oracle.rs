//! Property oracles for the engine's two indexes.
//!
//! **The argument-indexed `AtomStore`**: whatever access path `candidates`
//! picks — an argument-index probe, the functor-bucket fallback, or the
//! arity scan for variable predicate names — the matches it yields must be
//! **exactly** the full-scan-and-unify set, and every lazily built index
//! must stay consistent through arbitrary insert/remove churn — as must the
//! term order `iter()` caches between writes.
//!
//! The suite drives randomized stores (first-order and HiLog-shaped atoms,
//! duplicate keys, shared argument values) and randomized patterns (argument
//! subsets opened to variables, variable predicate names), comparing two
//! answers per probe:
//!
//! 1. the `candidates` path (indexes built lazily by the probes themselves,
//!    maintained incrementally by the mutations; open patterns take the
//!    functor-bucket scan, variable names the arity scan);
//! 2. a brute-force match over `store.iter()`.
//!
//! **The tabled evaluator's program index** (the `program_index_*` tests):
//! the EDB in such a store plus the rules by head, built by the first cold
//! tabled query and from then on *maintained* by the session's mutations,
//! shared with published snapshots and adopted back by the writer.  Over
//! random streams of asserts, duplicate asserts, retractions of one of two
//! copies, rule assertions and retractions, and publishes, the tabled
//! answers of the subject (the writer's session, the published snapshot, a
//! snapshot pinned epochs ago) must equal the answers read off the
//! subject's own full model and the answers of a fresh session built from
//! the subject's program.  One stream starts from a program of several
//! chunks of its persistent rule sequence and edits across their boundaries
//! (a chunk empties on the way): every snapshot it publishes stays pinned
//! and must keep rendering the rule list of its own epoch while the writer
//! copies-on-write the chunks they share.  A count-based test pins the
//! complexity: a cold bound probe attempts the same number of head
//! unifications at 3,000 and at 30,000 facts.
//!
//! Seeds are pinned (`SEED_BASE` + case index) so failures reproduce;
//! `HILOG_INDEX_ORACLE_CASES` scales the case count up in CI.

use hilog_core::unify::match_with;
use hilog_engine::{AtomStore, DbSnapshot};
use hilog_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

const SEED_BASE: u64 = 0x00A7_0A57;

fn cases() -> u64 {
    std::env::var("HILOG_INDEX_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

const FUNCTORS: &[&str] = &["move", "edge", "game", "winning", "p", "q"];
const CONSTANTS: &[&str] = &["a", "b", "c", "d", "e", "hub", "n1", "n2"];

/// A random ground atom: first-order (`f(c, ...)`) with arity 0..=3, a bare
/// symbol, or HiLog-shaped (`winning(g)(c)` — a compound predicate name).
fn random_atom(rng: &mut StdRng) -> Term {
    let constant = |rng: &mut StdRng| -> Term {
        if rng.gen_bool(0.2) {
            Term::int(rng.gen_range(0..5))
        } else {
            Term::sym(CONSTANTS[rng.gen_range(0..CONSTANTS.len())])
        }
    };
    match rng.gen_range(0..10u32) {
        0 => Term::sym(FUNCTORS[rng.gen_range(0..FUNCTORS.len())]),
        1 | 2 => {
            // HiLog: compound name applied to one argument.
            let name = Term::apps(
                FUNCTORS[rng.gen_range(0..FUNCTORS.len())],
                vec![constant(rng)],
            );
            Term::app(name, vec![constant(rng)])
        }
        _ => {
            let arity = rng.gen_range(0..4usize);
            Term::apps(
                FUNCTORS[rng.gen_range(0..FUNCTORS.len())],
                (0..arity).map(|_| constant(rng)).collect(),
            )
        }
    }
}

/// A random pattern: take an atom shape and open a random subset of argument
/// positions (sometimes the predicate name too) to variables.
fn random_pattern(rng: &mut StdRng, population: &[Term]) -> Term {
    let template = if population.is_empty() || rng.gen_bool(0.3) {
        random_atom(rng)
    } else {
        population[rng.gen_range(0..population.len())].clone()
    };
    let name = if rng.gen_bool(0.15) {
        Term::var("P")
    } else {
        template.name().clone()
    };
    if template.args().is_empty() && template.arity().is_none() {
        return template;
    }
    let args: Vec<Term> = template
        .args()
        .iter()
        .enumerate()
        .map(|(i, arg)| {
            if rng.gen_bool(0.5) {
                Term::var(format!("X{i}"))
            } else {
                arg.clone()
            }
        })
        .collect();
    Term::app(name, args)
}

/// The matches of `pattern` via whatever path `candidates` takes.
fn via_candidates(store: &AtomStore, pattern: &Term) -> BTreeSet<Term> {
    store
        .candidates(pattern)
        .filter(|c| {
            let mut theta = Substitution::new();
            hilog_core::unify::match_with(pattern, c, &mut theta)
        })
        .cloned()
        .collect()
}

/// Brute-force oracle: match every stored atom.
fn via_full_scan(store: &AtomStore, pattern: &Term) -> BTreeSet<Term> {
    store
        .iter()
        .filter(|c| {
            let mut theta = Substitution::new();
            hilog_core::unify::match_with(pattern, c, &mut theta)
        })
        .cloned()
        .collect()
}

fn check_pattern(store: &AtomStore, pattern: &Term, seed: u64) {
    let indexed = via_candidates(store, pattern);
    let brute = via_full_scan(store, pattern);
    assert_eq!(
        indexed, brute,
        "seed {seed}: indexed candidates diverge from the full scan for `{pattern}`"
    );
}

#[test]
fn candidates_via_any_index_equal_the_scan_and_unify_filter() {
    for case in 0..cases() {
        let seed = SEED_BASE + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(5..120usize);
        let atoms: Vec<Term> = (0..n).map(|_| random_atom(&mut rng)).collect();
        let store = AtomStore::from_atoms(atoms.iter().cloned());
        for _ in 0..12 {
            let pattern = random_pattern(&mut rng, &atoms);
            check_pattern(&store, &pattern, seed);
        }
    }
}

/// Every pattern with a variable predicate name the generator's atoms can
/// match: a bare variable (the 0-ary symbols) and `P(X0, ..)` for arities
/// 0 to 3.
fn variable_name_patterns() -> Vec<Term> {
    let mut patterns = vec![Term::var("P")];
    for arity in 0..4 {
        let args = (0..arity).map(|i| Term::var(format!("X{i}"))).collect();
        patterns.push(Term::app(Term::var("P"), args));
    }
    patterns
}

#[test]
fn insert_and_remove_keep_every_lazily_built_index_consistent() {
    for case in 0..cases() {
        let seed = SEED_BASE ^ (0x5EED << 16) ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = AtomStore::new();
        // Mirror model: the plain set the store must stay equivalent to.
        let mut mirror: BTreeSet<Term> = BTreeSet::new();
        let mut population: Vec<Term> = (0..40).map(|_| random_atom(&mut rng)).collect();
        for step in 0..60 {
            let atom = population[rng.gen_range(0..population.len())].clone();
            if rng.gen_bool(0.6) {
                assert_eq!(
                    store.insert(atom.clone()),
                    mirror.insert(atom.clone()),
                    "seed {seed} step {step}: insert novelty diverged for `{atom}`"
                );
            } else {
                assert_eq!(
                    store.remove(&atom),
                    mirror.remove(&atom),
                    "seed {seed} step {step}: remove presence diverged for `{atom}`"
                );
            }
            if rng.gen_bool(0.15) {
                population.push(random_atom(&mut rng));
            }
            // Probing *during* the mutation sequence is the point: it forces
            // indexes to exist early, so later inserts/removes must maintain
            // them rather than rebuild them.
            let pattern = random_pattern(&mut rng, &population);
            check_pattern(&store, &pattern, seed);
            assert_eq!(store.len(), mirror.len(), "seed {seed} step {step}");
            // `iter` sorts on the first read after a write and caches the
            // order (`check_pattern` read it once already): it must be the
            // mirror's sequence, never an order a write made stale.
            assert!(
                store.iter().eq(&mirror),
                "seed {seed} step {step}: `iter` is not the set in term order"
            );
            for pattern in variable_name_patterns() {
                let scanned: BTreeSet<Term> = store.candidates(&pattern).cloned().collect();
                let want: BTreeSet<Term> = mirror
                    .iter()
                    .filter(|atom| atom.arity() == pattern.arity())
                    .cloned()
                    .collect();
                assert_eq!(
                    scanned, want,
                    "seed {seed} step {step}: the arity scan for `{pattern}` diverged"
                );
            }
        }
        // Final sweep over every population member, bound and open.
        for atom in &population {
            assert_eq!(store.contains(atom), mirror.contains(atom));
            check_pattern(&store, atom, seed);
        }
    }
}

// ---------------------------------------------------------------------
// The tabled evaluator's maintained program index
// ---------------------------------------------------------------------

/// Nodes the generated relations range over (`n0` .. `n7`, plus `n8` as the
/// far end of an acyclic game move).
const NODES: usize = 8;

/// The rules every stream starts from: a flat EDB view, the HiLog win/move
/// game (a variable-name subgoal `M(X, Y)` under a compound head name) and
/// generic transitive closure over a relation named by an argument.
const BASE_RULES: &str = "\
linked(X, Y) :- edge(X, Y).
linked(X, Y) :- edge(Y, X).
winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
tc(G)(X, Y) :- graph(G), G(X, Y).
tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).
game(g1). game(g2). graph(edge). graph(g1).
";

/// Rules the stream asserts and retracts.  The first group is range
/// restricted; the ground bodiless ones are *facts* to the index even
/// though they travel through `assert_rule` / `retract_rule`.
const RULE_POOL: &[&str] = &[
    "linked(X, Y) :- bridge(X, Y).",
    "reach(X) :- edge(n0, X).",
    "quiet(X) :- node(X), not reach(X).",
    "ok(X) :- node(X), any(X).",
    "edge(n0, n1).",
    "winning(g3)(n2).",
];

/// Non-ground bodiless rules: they live in the index's rule part, and they
/// make the program not range restricted, so only the tabled route answers.
const OPEN_FACT_POOL: &[&str] = &["any(X).", "P(n7)."];

fn node(i: usize) -> Term {
    Term::sym(format!("n{i}"))
}

/// A random ground fact: flat EDB relations, acyclic game moves, and HiLog
/// facts with compound names (`winning(g1)(n3)`, `tc(edge)(n1, n2)`).
fn random_fact(rng: &mut StdRng) -> Term {
    let (a, b) = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
    let (lo, hi) = (a.min(b), a.max(b) + 1);
    let game = ["g1", "g2", "g3"][rng.gen_range(0..3usize)];
    match rng.gen_range(0..10u32) {
        0..=3 => Term::apps("edge", vec![node(a), node(b)]),
        4 | 5 => Term::apps(
            ["g1", "g2"][rng.gen_range(0..2usize)],
            vec![node(lo), node(hi)],
        ),
        6 => Term::apps("node", vec![node(a)]),
        7 => Term::apps("bridge", vec![node(a), node(b)]),
        8 => Term::app(Term::apps("winning", vec![Term::sym(game)]), vec![node(a)]),
        _ => Term::app(
            Term::apps("tc", vec![Term::sym("edge")]),
            vec![node(a), node(b)],
        ),
    }
}

/// A random query the planner sends down the tabled route (its first literal
/// has a ground predicate name): bound and open probes of the EDB, of the
/// rules over it, of the compound-name relations, and conjunctions whose
/// later subgoal still has a *variable* name when it is selected.
fn random_query(rng: &mut StdRng) -> Query {
    let (a, b) = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
    let text = match rng.gen_range(0..15u32) {
        0 | 1 => format!("?- linked(n{a}, X)."),
        2 => format!("?- edge(n{a}, X)."),
        3 => format!("?- edge(X, n{a})."),
        4 => format!("?- linked(n{a}, n{b})."),
        5 => "?- winning(g1)(X).".to_string(),
        6 => format!("?- winning(g2)(n{a})."),
        7 => "?- winning(g3)(X).".to_string(),
        8 => format!("?- tc(edge)(n{a}, Y)."),
        9 => "?- tc(g1)(X, Y).".to_string(),
        10 => format!("?- node(n{a}), M(n{a}, Y)."),
        11 => format!("?- game(M), M(n{a}, Y), not winning(M)(Y)."),
        12 => format!("?- ok(n{a})."),
        13 => "?- reach(X).".to_string(),
        _ => "?- quiet(X).".to_string(),
    };
    parse_query(&text).unwrap()
}

fn pool_rule(rng: &mut StdRng) -> Rule {
    let text = if rng.gen_bool(0.2) {
        OPEN_FACT_POOL[rng.gen_range(0..OPEN_FACT_POOL.len())]
    } else {
        RULE_POOL[rng.gen_range(0..RULE_POOL.len())]
    };
    parse_program(text).unwrap().rules.remove(0)
}

/// The ground bodiless rule heads of `program`, one entry per copy.
fn ground_facts(program: &Program) -> Vec<Term> {
    program
        .facts()
        .filter(|r| r.head.is_ground())
        .map(|r| r.head.clone())
        .collect()
}

fn rendered(answers: impl Iterator<Item = QueryAnswer>) -> BTreeSet<String> {
    answers.map(|a| a.to_string()).collect()
}

/// The true instances of `query` read off `model` by brute force: every
/// positive literal is matched against every true atom, every (then ground)
/// negative literal looked up.
fn true_in_model(model: &Model, query: &Query) -> BTreeSet<String> {
    let mut branches = vec![Substitution::new()];
    for literal in &query.literals {
        let mut next = Vec::new();
        for theta in branches {
            match literal {
                Literal::Pos(atom) => {
                    let instantiated = theta.apply(atom);
                    for candidate in model.true_atoms() {
                        let mut extended = theta.clone();
                        if match_with(&instantiated, candidate, &mut extended) {
                            next.push(extended);
                        }
                    }
                }
                Literal::Neg(atom) => {
                    if model.truth(&theta.apply(atom)) == Truth::False {
                        next.push(theta);
                    }
                }
                other => unreachable!("the generator emits no `{other}`"),
            }
        }
        branches = next;
    }
    let vars = query.variables();
    rendered(branches.iter().map(|theta| {
        QueryAnswer {
            bindings: vars
                .iter()
                .map(|v| (v.clone(), theta.apply(&Term::Var(v.clone()))))
                .collect(),
            truth: Truth::True,
        }
    }))
}

/// Asks `subject` a few random queries and holds each answer to the two
/// oracles: the subject's own full model (when the program has one — a
/// non-ground bodiless rule makes bottom-up evaluation flounder) and a
/// fresh session over the subject's program.
fn check_subject(
    context: &str,
    rng: &mut StdRng,
    program: &Program,
    model: Result<Model, EngineError>,
    mut subject: impl FnMut(&Query) -> Result<QueryResult, EngineError>,
) {
    let mut fresh = HiLogDb::new(program.clone());
    for _ in 0..3 {
        let query = random_query(rng);
        let got = subject(&query);
        let want = fresh.query(&query);
        match (&got, &want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(
                    rendered(got.answers.iter().cloned()),
                    rendered(want.answers.iter().cloned()),
                    "{context}: `{query}` differs from a fresh session"
                );
                assert_eq!(
                    got.fallback.is_some(),
                    want.fallback.is_some(),
                    "{context}: `{query}` reached a different verdict than a fresh session"
                );
            }
            (Err(_), Err(_)) => {}
            _ => panic!("{context}: `{query}` answered {got:?}, a fresh session {want:?}"),
        }
        if let (Ok(got), Ok(model)) = (&got, &model) {
            let true_answers = got
                .answers
                .iter()
                .filter(|a| a.truth == Truth::True)
                .cloned();
            assert_eq!(
                rendered(true_answers),
                true_in_model(model, &query),
                "{context}: `{query}` differs from the subject's full model"
            );
        }
    }
}

fn check_snapshot(context: &str, rng: &mut StdRng, snapshot: &DbSnapshot) {
    let model = snapshot.model().map(|m| (*m).clone());
    check_subject(context, rng, snapshot.program(), model, |q| {
        snapshot.query(q)
    });
}

#[test]
fn program_index_answers_equal_the_full_model_and_a_fresh_session_under_mutation() {
    for case in 0..cases() {
        let seed = SEED_BASE ^ (0x1DE << 20) ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = BASE_RULES.to_string();
        for _ in 0..rng.gen_range(4..20usize) {
            text.push_str(&format!("{}.\n", random_fact(&mut rng)));
        }
        let (mut writer, handle) = HiLogDb::new(parse_program(&text).unwrap()).into_serving();
        assert_eq!(
            handle.current().indexed_facts(),
            0,
            "seed {seed}: the index was built before any query asked for it"
        );
        // Half the streams also read through the writer's own session, so
        // its index is the one it built; the other half only ever read
        // published snapshots, so the writer's index is the one it adopts.
        let read_through_writer = rng.gen_bool(0.5);
        // Once any snapshot has built the index, every later one must be
        // published *with* it, maintained to exactly its program's facts.
        let mut index_seen = false;
        let mut pinned: Option<Arc<DbSnapshot>> = None;
        check_snapshot(&format!("seed {seed} epoch 0"), &mut rng, &handle.current());
        index_seen |= handle.current().indexed_facts() > 0;
        for step in 0..40 {
            let context = format!("seed {seed} step {step}");
            let present = ground_facts(writer.program());
            match rng.gen_range(0..100u32) {
                0..=29 => writer.assert_fact(random_fact(&mut rng)).unwrap(),
                // A second copy of a fact the program already holds.
                30..=39 if !present.is_empty() => writer
                    .assert_fact(present[rng.gen_range(0..present.len())].clone())
                    .unwrap(),
                // One copy leaves: the fact itself only with its last one.
                40..=59 if !present.is_empty() => {
                    assert!(writer.retract_fact(&present[rng.gen_range(0..present.len())]));
                }
                60..=64 => {
                    let fact = random_fact(&mut rng);
                    assert_eq!(writer.retract_fact(&fact), present.contains(&fact));
                }
                65..=74 => writer.assert_rule(pool_rule(&mut rng)),
                75..=82 => {
                    let rule = pool_rule(&mut rng);
                    let held = writer.program().rules.contains(&rule);
                    assert_eq!(writer.retract_rule(&rule), held, "{context}");
                }
                _ => {
                    let snapshot = writer.publish();
                    let distinct: BTreeSet<Term> =
                        ground_facts(snapshot.program()).into_iter().collect();
                    if index_seen {
                        assert_eq!(
                            snapshot.indexed_facts(),
                            distinct.len(),
                            "{context}: the published index is not its program's fact set"
                        );
                    }
                    check_snapshot(&format!("{context} published"), &mut rng, &snapshot);
                    index_seen |= snapshot.indexed_facts() > 0;
                    if pinned.is_none() && rng.gen_bool(0.4) {
                        pinned = Some(snapshot);
                    }
                }
            }
            if read_through_writer {
                let program = writer.program().clone();
                let model = writer.db().model().cloned();
                let db = writer.db();
                check_subject(&context, &mut rng, &program, model, |q| db.query(q));
                index_seen = true;
            }
            // The writer has moved on (and with it the index it shares with
            // this snapshot); the snapshot must not have.
            if let Some(pinned) = pinned.as_ref().filter(|_| rng.gen_bool(0.3)) {
                check_snapshot(&format!("{context} pinned"), &mut rng, pinned);
            }
        }
        if let Some(pinned) = &pinned {
            check_snapshot(&format!("seed {seed} pinned at the end"), &mut rng, pinned);
        }
    }
}

/// An upper bound on the rules per chunk of the program's persistent rule
/// sequence (the private `CHUNK_CAPACITY` of `crates/hilog-core/src/program.rs`).  The stream
/// below starts from four of these and retracts a run of two, so it crosses
/// chunk boundaries and empties a whole chunk at any capacity up to this.
const CHUNK: usize = 256;

fn rule_list(program: &Program) -> Vec<String> {
    program.iter().map(|r| r.to_string()).collect()
}

/// `bridge(w<i>, w<i+1>)`: the bulk relation of the chunk-crossing stream —
/// distinct facts over nodes of their own, read only by the pool rule
/// `linked(X, Y) :- bridge(X, Y).`, so a thousand of them keep every model
/// small.
fn wide_fact(i: usize) -> Term {
    let w = |i: usize| Term::sym(format!("w{i}"));
    Term::apps("bridge", vec![w(i), w(i + 1)])
}

/// A snapshot pinned at its publication, with the rule list its program
/// rendered then.
struct Pinned {
    snapshot: Arc<DbSnapshot>,
    rules: Vec<String>,
}

impl Pinned {
    /// The writer has moved on, editing chunks this snapshot's program
    /// shares with it; the snapshot must still hold — and answer from —
    /// exactly the rule list of its own epoch.
    fn check(&self, context: &str, rng: &mut StdRng) {
        assert_eq!(
            rule_list(self.snapshot.program()),
            self.rules,
            "{context}: a pinned program changed under its snapshot"
        );
        // A subgoal this snapshot has (most likely) never tabled.
        let i = rng.gen_range(0..4 * CHUNK);
        let fact = wide_fact(i);
        let query = parse_query(&format!("?- bridge(w{i}, X).")).unwrap();
        let answers = self.snapshot.query(&query).unwrap().answers;
        assert_eq!(
            answers.len(),
            usize::from(self.rules.contains(&format!("{fact}."))),
            "{context}: `{query}` on the snapshot of epoch {}",
            self.snapshot.epoch()
        );
    }
}

#[test]
fn program_index_stream_across_program_chunks_keeps_every_pinned_rule_list() {
    for case in 0..(cases() / 30).max(1) {
        let seed = SEED_BASE ^ (0xC4 << 24) ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut program = parse_program(BASE_RULES).unwrap();
        for i in 0..4 * CHUNK {
            program.push(Rule::fact(wide_fact(i)));
        }
        let (mut writer, handle) = HiLogDb::new(program).into_serving();
        // The flat list the chunked sequence must read as: appended to on
        // assert, first match removed on retract.
        let mut mirror = rule_list(writer.program());
        let retract_mirror = |mirror: &mut Vec<String>, rule: &str| -> bool {
            let pos = mirror.iter().position(|r| r == rule);
            pos.map(|pos| mirror.remove(pos)).is_some()
        };
        let mut pinned = vec![Pinned {
            snapshot: handle.current(),
            rules: mirror.clone(),
        }];
        check_snapshot(&format!("seed {seed} epoch 0"), &mut rng, &handle.current());
        for step in 0..60 {
            let context = format!("seed {seed} step {step}");
            let present = ground_facts(writer.program());
            let some_present = present[rng.gen_range(0..present.len())].clone();
            match rng.gen_range(0..100u32) {
                // New facts land in the last chunk ...
                0..=19 => {
                    let fact = random_fact(&mut rng);
                    mirror.push(format!("{fact}."));
                    writer.assert_fact(fact).unwrap();
                }
                // ... and so does a second copy of a fact from any chunk:
                // the two copies now straddle chunk boundaries.
                20..=39 => {
                    mirror.push(format!("{some_present}."));
                    writer.assert_fact(some_present).unwrap();
                }
                // One copy leaves — the first, wherever it sits.
                40..=59 => {
                    assert!(retract_mirror(&mut mirror, &format!("{some_present}.")));
                    assert!(writer.retract_fact(&some_present), "{context}");
                }
                60..=64 => {
                    let fact = wide_fact(rng.gen_range(0..8 * CHUNK));
                    assert_eq!(
                        writer.retract_fact(&fact),
                        retract_mirror(&mut mirror, &format!("{fact}.")),
                        "{context}: retracting `{fact}`"
                    );
                }
                65..=72 => {
                    let rule = pool_rule(&mut rng);
                    mirror.push(rule.to_string());
                    writer.assert_rule(rule);
                }
                73..=80 => {
                    let rule = pool_rule(&mut rng);
                    assert_eq!(
                        writer.retract_rule(&rule),
                        retract_mirror(&mut mirror, &rule.to_string()),
                        "{context}: retracting `{rule}`"
                    );
                }
                _ => {
                    let snapshot = writer.publish();
                    check_snapshot(&format!("{context} published"), &mut rng, &snapshot);
                    pinned.push(Pinned {
                        snapshot,
                        rules: mirror.clone(),
                    });
                }
            }
            // A third of the way in, a run of retractions two chunks long
            // from the middle of the program: some chunk empties and goes.
            if step == 20 {
                let doomed: Vec<Term> = writer
                    .program()
                    .iter()
                    .skip(CHUNK)
                    .take(2 * CHUNK)
                    .filter(|r| r.is_fact() && r.head.is_ground())
                    .map(|r| r.head.clone())
                    .collect();
                for fact in &doomed {
                    assert!(retract_mirror(&mut mirror, &format!("{fact}.")));
                    assert!(writer.retract_fact(fact), "{context}: `{fact}`");
                }
            }
            assert_eq!(rule_list(writer.program()), mirror, "{context}");
            for old in &pinned {
                old.check(&context, &mut rng);
            }
        }
        assert!(pinned.len() > 2, "seed {seed}: the stream never published");
        let last = writer.publish();
        assert_eq!(rule_list(last.program()), mirror, "seed {seed}");
        for old in [&pinned[0], &pinned[pinned.len() / 2]] {
            let context = format!("seed {seed} epoch {} at the end", old.snapshot.epoch());
            check_snapshot(&context, &mut rng, &old.snapshot);
        }
    }
}

#[test]
fn program_index_pinned_snapshot_answers_its_own_epoch_after_the_writer_mutates_it() {
    let program = parse_program(
        "linked(X, Y) :- edge(X, Y).\n\
         linked(X, Y) :- edge(Y, X).\n\
         edge(a, b). edge(b, c). edge(c, d).",
    )
    .unwrap();
    let (mut writer, handle) = HiLogDb::new(program).into_serving();
    let pinned = handle.current();
    let linked = |snapshot: &DbSnapshot, node: &str| -> Vec<String> {
        snapshot
            .query(&parse_query(&format!("?- linked({node}, X).")).unwrap())
            .unwrap()
            .answers
            .iter()
            .map(|a| a.binding("X").unwrap().to_string())
            .collect()
    };
    // A reader builds the index on the published snapshot ...
    assert_eq!(linked(&pinned, "a"), ["b"]);
    assert_eq!(pinned.indexed_facts(), 3);
    // ... the writer adopts that very index and maintains it through a
    // batch: a new fact, a second copy of an old one, a retraction.
    let edge = |x: &str, y: &str| parse_term(&format!("edge({x}, {y})")).unwrap();
    writer.assert_fact(edge("c", "e")).unwrap();
    writer.assert_fact(edge("a", "b")).unwrap();
    assert!(writer.retract_fact(&edge("b", "c")));
    let next = writer.publish();
    assert_eq!(
        next.indexed_facts(),
        3,
        "the next epoch is published with the maintained index: a-b once, c-d, c-e"
    );
    // Subgoals the pinned snapshot has never tabled go through *its* index:
    // they must see epoch 0, not the writer's edits.
    assert_eq!(linked(&pinned, "c"), ["b", "d"]);
    assert_eq!(linked(&pinned, "b"), ["a", "c"]);
    assert_eq!(linked(&pinned, "e"), Vec::<String>::new());
    assert_eq!(pinned.indexed_facts(), 3);
    assert_eq!(linked(&next, "c"), ["d", "e"]);
    assert_eq!(linked(&next, "b"), ["a"]);
    assert_eq!(linked(&next, "e"), ["c"]);
    // Retracting one of the two copies of a-b leaves the fact in place.
    assert!(writer.retract_fact(&edge("a", "b")));
    let last = writer.publish();
    assert_eq!(last.indexed_facts(), 3);
    assert_eq!(linked(&last, "a"), ["b"]);
    assert!(writer.retract_fact(&edge("a", "b")));
    let last = writer.publish();
    assert_eq!(last.indexed_facts(), 2);
    assert_eq!(linked(&last, "a"), Vec::<String>::new());
}

#[test]
fn program_index_cold_probe_costs_the_same_at_ten_times_the_facts() {
    // A chain n0 - n1 - ... : every inner node has exactly two neighbours
    // whatever the length, so a cold `linked(n_i, X)` matches two facts.
    let cold_probe = |facts: usize| {
        let mut program = parse_program(
            "linked(X, Y) :- edge(X, Y).\n\
             linked(X, Y) :- edge(Y, X).",
        )
        .unwrap();
        for i in 0..facts {
            program.push(Rule::fact(Term::apps("edge", vec![node(i), node(i + 1)])));
        }
        let (_writer, handle) = HiLogDb::new(program).into_serving();
        let snapshot = handle.current();
        // The first cold query builds the index; the probe measured is the
        // steady state: a new subgoal against a built index.
        snapshot
            .query(&parse_query("?- linked(n1, X).").unwrap())
            .unwrap();
        assert_eq!(snapshot.indexed_facts(), facts);
        let probe = snapshot
            .query(&parse_query("?- linked(n7, X).").unwrap())
            .unwrap();
        assert_eq!(probe.answers.len(), 2);
        assert!(probe.fallback.is_none());
        probe.stats
    };
    let small = cold_probe(3_000);
    let large = cold_probe(30_000);
    assert!(small.rule_applications > 0 && small.subqueries > 0);
    assert_eq!(small.rule_applications, large.rule_applications);
    assert_eq!(
        small.head_unifications, large.head_unifications,
        "a cold bound probe walked the relation instead of probing it"
    );
    assert!(
        large.head_unifications < 64,
        "a two-neighbour probe attempted {} head unifications",
        large.head_unifications
    );
}
