//! `cold_eval`: what the paper defines, from cold caches.
//!
//! One thread, the library only.  A round takes seven program families each
//! from text through `parse_program`, a fresh `HiLogDb`, the full model,
//! `check_modular()` (Figure 1) and one bound query; a latency sample is one
//! round, so every family is in every sample.  The grounder, the Horn
//! fixpoint, the well-founded evaluator, the modular-stratification
//! procedure, the tabled evaluator and the spill store do all the work.

use crate::check::canon_result;
use crate::report::{latency_tail, Outcome, ReadCounters, RunConfig, DEFAULT_SEED};
use crate::stats::{median, sliced_rate, Fnv};
use crate::trace::Tracer;
use crate::window::{LatencyOf, Window};
use hilog_core::unify::match_with;
use hilog_core::universal::{encode_atom, universal_transform};
use hilog_core::{Model, Program, Query, Substitution, Term};
use hilog_datalog::DatalogEngine;
use hilog_engine::{
    evaluate_aggregate_program, relevant_ground, well_founded_eval, EvalOptions, HiLogDb,
    QueryResult, StorageConfig,
};
use hilog_syntax::{parse_program, parse_query, parse_term};
use hilog_workloads::{
    edges_to_facts, random_dag, random_part_hierarchy, sharded_chain_game_text, storage_workload,
    StorageWorkloadConfig,
};
use std::path::PathBuf;
use std::time::Instant;

/// Rounds in the window at the reference size.
const ROUNDS: usize = 40;
const TRACED_ROUNDS: usize = 5;
/// Throughput is the median rate of this many slices of the window.
const SLICES: usize = 20;

// Sizes, trimmed once so a round takes about 0.2 s, then pinned.
const HILOG_GAME_NODES: usize = 36;
const CYCLIC_GAME_NODES: usize = 80;
const CYCLIC_RING: usize = 8;
const CYCLIC_RING_ENTRIES: usize = 8;
const CLOSURE_NODES: usize = 18;
const CHAIN_SHARDS: usize = 4;
const CHAIN_LENGTH: usize = 48;
const PARTS: usize = 20;
const SPILL_SHARDS: usize = 24;
const SPILL_FACTS_PER_SHARD: usize = 25;
/// Resident budget of the spill family: a fifth of its facts.
const SPILL_BUDGET: usize = SPILL_SHARDS * SPILL_FACTS_PER_SHARD / 5;
const SPILL_PROBES: usize = 8;

/// FNV-1a digest of the generated inputs for the default seed.
const PINNED_INPUT_DIGEST: u64 = 0x981b_f0ce_c257_606d;

/// How a family's program is evaluated and what its answers are held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Normal program: `hilog-datalog`'s well-founded model is the oracle.
    Normal,
    /// HiLog program: Figure 1 accepting it must mean a total model.
    HiLog,
    /// The universal-relation image of another family's text.
    Universal,
    /// Aggregation (Section 6): the aggregate evaluator builds the model;
    /// the quantities are checked against sums over the hierarchy's paths.
    Aggregate,
    /// Built under the spill backend; facts must page out and fault back.
    Spill,
}

struct Family {
    name: &'static str,
    metric: &'static str,
    kind: Kind,
    text: String,
    queries: Vec<String>,
    /// Answers worked out from the generated data alone, when that is easy.
    expected: Option<Vec<Vec<String>>>,
}

/// What the timed part of an evaluation leaves behind.  Reading it means
/// formatting every atom of the model, which is the benchmark's work and not
/// the library's, so that happens after the clock has stopped.
enum Raw {
    Session {
        db: Box<HiLogDb>,
        accepted: bool,
        results: Vec<QueryResult>,
    },
    Aggregate {
        model: Model,
        matched: Vec<Vec<Term>>,
    },
}

impl Raw {
    fn read(self, counters: &mut ReadCounters) -> Evaluation {
        match self {
            Raw::Session {
                mut db,
                accepted,
                results,
            } => {
                let storage = db.storage_stats();
                let facts = storage.resident_facts + storage.spilled_facts;
                let model = db.model().expect("the model is cached");
                Evaluation {
                    model_digest: model_digest(model),
                    total: model.is_total(),
                    accepted,
                    true_atoms: model.true_atoms().len(),
                    undefined: model.undefined_atoms().len(),
                    answers: results
                        .iter()
                        .map(|result| {
                            counters.add(&result.stats);
                            canon_result(result)
                        })
                        .collect(),
                    spilled_share: storage.spilled_facts as f64 / facts.max(1) as f64,
                    residency_faults: storage.residency_faults,
                    spill_writes: storage.spill_writes,
                }
            }
            Raw::Aggregate { model, matched } => Evaluation {
                model_digest: model_digest(&model),
                total: model.is_total(),
                accepted: true,
                true_atoms: model.true_atoms().len(),
                undefined: model.undefined_atoms().len(),
                answers: matched
                    .iter()
                    .map(|atoms| atoms.iter().map(ToString::to_string).collect())
                    .collect(),
                spilled_share: 0.0,
                residency_faults: 0,
                spill_writes: 0,
            },
        }
    }
}

/// What one evaluation of a family produced.
struct Evaluation {
    /// Digest of the model's true and undefined atoms.
    model_digest: u64,
    total: bool,
    accepted: bool,
    true_atoms: usize,
    undefined: usize,
    answers: Vec<Vec<String>>,
    spilled_share: f64,
    residency_faults: u64,
    spill_writes: u64,
}

fn model_digest(model: &Model) -> u64 {
    let mut fnv = Fnv::new();
    for atom in model.true_atoms() {
        fnv.write(atom.to_string().as_bytes());
    }
    fnv.write(b"undefined");
    for atom in model.undefined_atoms() {
        fnv.write(atom.to_string().as_bytes());
    }
    fnv.finish()
}

fn generate(seed: u64) -> Vec<Family> {
    let game_rule = "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n";
    let mut hilog_game = String::from(game_rule);
    for (index, name) in ["move1", "move2"].iter().enumerate() {
        hilog_game.push_str(&format!("game({name}).\n"));
        hilog_game.push_str(&edges_to_facts(
            name,
            &random_dag(HILOG_GAME_NODES, 2.0, seed + index as u64),
        ));
    }

    // A DAG game plus a ring: a position on the ring is neither won nor lost
    // (no move from it reaches a lost position), and so is a DAG position
    // whose best move enters the ring.  The model is three-valued; the DAG
    // still has won and lost positions.
    let mut cyclic_edges = random_dag(CYCLIC_GAME_NODES, 2.0, seed + 2);
    let ring = CYCLIC_GAME_NODES..CYCLIC_GAME_NODES + CYCLIC_RING;
    for node in ring.clone() {
        let next = ring.start + (node + 1 - ring.start) % CYCLIC_RING;
        cyclic_edges.push((node, next));
    }
    for entry in (0..CYCLIC_GAME_NODES).step_by(CYCLIC_GAME_NODES / CYCLIC_RING_ENTRIES) {
        cyclic_edges.push((entry, ring.start));
    }
    let cyclic_game = format!(
        "winning(X) :- move(X, Y), not winning(Y).\n{}",
        edges_to_facts("move", &cyclic_edges)
    );

    let closure = format!(
        "tc(G)(X, Y) :- graph(G), G(X, Y).\n\
         tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n\
         graph(e1).\n{}",
        edges_to_facts("e1", &random_dag(CLOSURE_NODES, 2.0, seed + 3))
    );

    let hierarchy = random_part_hierarchy(PARTS, PARTS / 2, seed + 4);
    let mut parts = String::from(
        "in(Mach, X, Y, null, N) :- assoc(Mach, Part), Part(X, Y, N).\n\
         in(Mach, X, Y, Z, N) :- assoc(Mach, Part), Part(X, Z, P), contains(Mach, Z, Y, M), N is P * M.\n\
         contains(Mach, X, Y, N) :- N = sum(P, in(Mach, X, Y, W, P)).\n\
         assoc(m, m_parts).\n",
    );
    for (whole, part, quantity) in &hierarchy.triples {
        parts.push_str(&format!("m_parts({whole}, {part}, {quantity}).\n"));
    }
    // How many of each part the root contains: the sum over every path of
    // the product of the quantities along it.  Edges run from lower to
    // higher part numbers, so one pass in that order settles every total.
    let part_index = |name: &str| -> usize {
        name.trim_start_matches("part")
            .parse()
            .expect("parts are named part<i>")
    };
    let mut contained = [0i64; PARTS];
    contained[0] = 1;
    let mut triples = hierarchy.triples.clone();
    triples.sort_by_key(|(whole, _, _)| part_index(whole));
    for (whole, part, quantity) in &triples {
        contained[part_index(part)] += contained[part_index(whole)] * quantity;
    }
    let root_contains = (1..PARTS)
        .filter(|&i| contained[i] > 0)
        .map(|i| format!("contains(m, part0, part{i}, {})", contained[i]))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect::<Vec<String>>();

    let sharded = storage_workload(
        &StorageWorkloadConfig {
            relations: SPILL_SHARDS,
            facts_per_relation: SPILL_FACTS_PER_SHARD,
            nodes: 30,
            probes: SPILL_PROBES,
            dirty_relations: 0,
            updates_per_relation: 0,
        },
        seed + 5,
    );

    let family = |name, metric, kind, text: String, queries: Vec<String>| Family {
        name,
        metric,
        kind,
        text,
        queries,
        expected: (kind == Kind::Aggregate).then(|| vec![root_contains.clone()]),
    };
    vec![
        family(
            "hilog_game",
            "hilog-engine.session.cold_hilog_game_ms",
            Kind::HiLog,
            hilog_game.clone(),
            vec!["?- winning(move1)(p0).".into()],
        ),
        family(
            "normal_game_cyclic",
            "hilog-engine.session.cold_normal_game_cyclic_ms",
            Kind::Normal,
            cyclic_game,
            vec!["?- winning(p0).".into()],
        ),
        family(
            "generic_closure",
            "hilog-engine.session.cold_generic_closure_ms",
            Kind::HiLog,
            closure,
            vec!["?- tc(e1)(p0, X).".into()],
        ),
        family(
            "chain_game",
            "hilog-engine.session.cold_chain_game_ms",
            Kind::Normal,
            sharded_chain_game_text(CHAIN_SHARDS, CHAIN_LENGTH),
            vec!["?- winning0(p1).".into()],
        ),
        family(
            "parts_explosion",
            "hilog-engine.session.cold_parts_explosion_ms",
            Kind::Aggregate,
            parts,
            vec!["contains(m, part0, X, N)".into()],
        ),
        family(
            "universal_game",
            "hilog-engine.session.cold_universal_game_ms",
            Kind::Universal,
            hilog_game,
            vec!["winning(move1)(p0)".into()],
        ),
        family(
            "sharded_linked_spill",
            "hilog-engine.session.cold_sharded_linked_spill_ms",
            Kind::Spill,
            sharded.flat_program,
            sharded.probes,
        ),
    ]
}

fn inputs_digest(families: &[Family]) -> u64 {
    let mut fnv = Fnv::new();
    for family in families {
        fnv.write(family.text.as_bytes());
        for query in &family.queries {
            fnv.write(query.as_bytes());
        }
    }
    fnv.finish()
}

impl Family {
    /// The family's queries, parsed (the universal family's is an atom to be
    /// encoded the way its program was).
    fn parsed_queries(&self) -> Vec<Query> {
        self.queries
            .iter()
            .map(|q| match self.kind {
                Kind::Universal => {
                    Query::atom(encode_atom(&parse_term(q).expect("literal atom parses")))
                }
                _ => parse_query(q).expect("generated query parses"),
            })
            .collect()
    }

    /// Text to program: parse, and for the universal family transform.
    fn program(&self) -> Program {
        let parsed = parse_program(&self.text).expect("generated program parses");
        match self.kind {
            Kind::Universal => universal_transform(&parsed).expect("no reserved symbols"),
            _ => parsed,
        }
    }

    fn database(&self, program: Program, spill_dir: &std::path::Path) -> HiLogDb {
        let builder = HiLogDb::builder().program(program);
        match self.kind {
            Kind::Spill => builder
                .storage(StorageConfig::Spill {
                    dir: Some(spill_dir.to_path_buf()),
                    resident_budget: SPILL_BUDGET,
                })
                .build(),
            _ => builder.storage(StorageConfig::InMemory).build(),
        }
    }

    /// The pipeline as a user of the library runs it — the timed part.  The
    /// session evaluates every family but the aggregate one, which the
    /// aggregate evaluator builds in one call (its converging is the
    /// modular-stratification verdict, and its "bound query" is a match of
    /// the root's `contains` pattern against the model).
    fn evaluate(&self, spill_dir: &std::path::Path) -> Raw {
        let program = self.program();
        if self.kind == Kind::Aggregate {
            let model = evaluate_aggregate_program(&program, EvalOptions::default())
                .expect("the hierarchy is acyclic, so aggregation is modularly stratified")
                .model;
            let matched = self
                .queries
                .iter()
                .map(|pattern| {
                    let pattern = parse_term(pattern).expect("literal pattern parses");
                    model
                        .true_atoms()
                        .iter()
                        .filter(|atom| match_with(&pattern, atom, &mut Substitution::new()))
                        .cloned()
                        .collect()
                })
                .collect();
            return Raw::Aggregate { model, matched };
        }
        let mut db = self.database(program, spill_dir);
        db.model().expect("the full model builds");
        let accepted = db
            .check_modular()
            .expect("Figure 1 runs")
            .modularly_stratified;
        let results = self
            .parsed_queries()
            .iter()
            .map(|query| db.query(query).expect("the bound query evaluates"))
            .collect();
        Raw::Session {
            db: Box::new(db),
            accepted,
            results,
        }
    }

    /// Holds an evaluation to the family's oracle or invariant.
    fn verify(&self, first: &Evaluation, got: &Evaluation, outcome: &mut Outcome) {
        outcome.check(
            got.model_digest == first.model_digest && got.answers == first.answers,
            || format!("{}: answers changed between rounds", self.name),
        );
        // The paper's invariant: a program Figure 1 accepts has a total
        // well-founded model.
        outcome.check(!got.accepted || got.total, || {
            format!("{}: Figure 1 accepted a three-valued model", self.name)
        });
        if self.kind == Kind::Spill {
            outcome.check(got.spilled_share > 0.0 && got.residency_faults > 0, || {
                format!(
                    "{}: nothing spilled ({}) or nothing faulted back ({})",
                    self.name, got.spilled_share, got.residency_faults
                )
            });
        }
    }

    /// `hilog-datalog`'s independent well-founded model, for the normal
    /// programs (and the universal image, which is one).
    fn oracle_digest(&self) -> Option<u64> {
        if !matches!(self.kind, Kind::Normal | Kind::Universal) {
            return None;
        }
        let model = DatalogEngine::new(self.program())
            .expect("the program is normal")
            .well_founded_model()
            .expect("the oracle evaluates");
        Some(model_digest(&model))
    }
}

struct Setup {
    families: Vec<Family>,
    spill_dir: PathBuf,
}

impl Setup {
    /// Set-up: generate the seven program texts and run one untimed round,
    /// so the symbol pool, the allocator and the spill directory are in the
    /// state every timed round finds them in.
    fn new(cfg: &RunConfig) -> Setup {
        let families = generate(cfg.seed);
        let spill_dir = cfg.scratch.join("spill");
        std::fs::create_dir_all(&spill_dir).expect("create the spill directory");
        for family in &families {
            std::hint::black_box(family.evaluate(&spill_dir));
        }
        Setup {
            families,
            spill_dir,
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let rounds = cfg.count(if cfg.trace { TRACED_ROUNDS } else { ROUNDS }, 3);

    // One interval per family evaluation, each with kernel samples beside
    // it; a latency sample is the seven of a round.
    let mut window = Window::new(cfg, 1.0, SLICES, LatencyOf::Items);
    let setup = window.set_up(cfg, |_| Setup::new(cfg), drop);
    // The programs do not change with `--seconds`, only the round count.
    outcome.pin_inputs(
        inputs_digest(&setup.families),
        PINNED_INPUT_DIGEST,
        cfg.seed == DEFAULT_SEED,
    );
    outcome.note("rounds", rounds);
    outcome.note("families", setup.families.len());
    outcome.note("eval_threads", EvalOptions::default().eval_threads);

    // Reference evaluations, held to the oracles once.
    let mut counters = ReadCounters::default();
    let first: Vec<Evaluation> = setup
        .families
        .iter()
        .map(|family| family.evaluate(&setup.spill_dir).read(&mut counters))
        .collect();
    for (family, evaluation) in setup.families.iter().zip(&first) {
        if let Some(want) = family.oracle_digest() {
            outcome.check(evaluation.model_digest == want, || {
                format!("{}: model differs from hilog-datalog's", family.name)
            });
        }
        if let Some(expected) = &family.expected {
            outcome.check(&evaluation.answers == expected, || {
                format!("{}: answers differ from the generated data", family.name)
            });
        }
    }
    // The universal-relation transform preserves the semantics: the image of
    // the HiLog game has as many true and as many undefined atoms as the
    // game itself.
    let by_name = |name: &str| {
        let index = setup.families.iter().position(|f| f.name == name);
        &first[index.expect("the family is generated")]
    };
    let (game, image) = (by_name("hilog_game"), by_name("universal_game"));
    outcome.check(
        game.true_atoms == image.true_atoms && game.undefined == image.undefined,
        || "universal_game: the transform changed the model's shape".to_string(),
    );

    if cfg.trace {
        trace_run(cfg, &setup, &first, rounds, &mut outcome);
        return outcome;
    }

    for _ in 0..rounds {
        for (family, reference) in setup.families.iter().zip(&first) {
            window.pace();
            let start = Instant::now();
            let raw = family.evaluate(&setup.spill_dir);
            window.interval(start.elapsed().as_secs_f64());
            family.verify(reference, &raw.read(&mut counters), &mut outcome);
        }
        window.latency_of_last(setup.families.len());
    }
    window.end_to_end(&mut outcome);
    outcome
}

/// The per-layer numbers: each family's pipeline as the library runs it
/// (timed per family), then the same rounds stage by stage — parse, ground,
/// well-founded evaluation, Figure 1, the bound query — with a span each.
fn trace_run(
    cfg: &RunConfig,
    setup: &Setup,
    first: &[Evaluation],
    rounds: usize,
    outcome: &mut Outcome,
) {
    let mut counters = ReadCounters::default();
    let mut per_family: Vec<Vec<f64>> = vec![Vec::new(); setup.families.len()];
    let mut round_ns = Vec::with_capacity(rounds);
    let mut completions = Vec::new();
    let mut clock = 0.0;
    for _ in 0..rounds {
        let mut round = 0.0;
        for (index, (family, reference)) in setup.families.iter().zip(first).enumerate() {
            let start = Instant::now();
            let raw = family.evaluate(&setup.spill_dir);
            let elapsed = start.elapsed().as_secs_f64();
            round += elapsed;
            per_family[index].push(elapsed * 1e3);
            family.verify(reference, &raw.read(&mut counters), outcome);
        }
        clock += round;
        completions.push(clock);
        round_ns.push(round * 1e9);
    }
    counters.report(outcome);
    let round_ms: Vec<f64> = round_ns.iter().map(|ns| ns / 1e6).collect();
    latency_tail(outcome, &round_ms);
    for (family, samples) in setup.families.iter().zip(&per_family) {
        outcome.set(family.metric, median(samples));
    }
    let (_, slice_iqr) = sliced_rate(&completions, 7.0, rounds);
    outcome.set("harness.slice_rate_iqr_share", slice_iqr);
    outcome.set(
        "hilog-engine.wfs.undefined_atoms",
        first.iter().map(|e| e.undefined).sum::<usize>() as f64,
    );
    let spill = &first[setup.families.len() - 1];
    outcome.set("hilog-engine.spill.spilled_share", spill.spilled_share);
    outcome.set(
        "hilog-engine.spill.residency_faults",
        spill.residency_faults as f64,
    );
    outcome.set("hilog-engine.spill.spill_writes", spill.spill_writes as f64);

    let opts = EvalOptions::default();
    let mut tracer = Tracer::new();
    let mut ground_rules = 0usize;
    let mut text_bytes = 0usize;
    for round in 0..rounds {
        let op = round as u64;
        tracer.span("round", op, |t| {
            for family in &setup.families {
                text_bytes += family.text.len();
                let parsed = t.span("hilog-syntax.parser.parse_program", op, |_| {
                    parse_program(&family.text).expect("generated program parses")
                });
                let program = match family.kind {
                    Kind::Universal => t.span("hilog-core.universal.transform", op, |_| {
                        universal_transform(&parsed).expect("no reserved symbols")
                    }),
                    _ => parsed,
                };
                if family.kind == Kind::Aggregate {
                    // Not grounded and not a session: one call builds it.
                    t.span("hilog-engine.aggregate.evaluate", op, |_| {
                        std::hint::black_box(
                            evaluate_aggregate_program(&program, opts)
                                .expect("aggregation is modularly stratified"),
                        );
                    });
                    continue;
                }
                let mut db = family.database(program.clone(), &setup.spill_dir);
                if family.kind == Kind::Spill {
                    t.span("hilog-engine.spill.build", op, |_| {
                        db.model().expect("the full model builds");
                    });
                } else {
                    let ground = t.span("hilog-engine.grounder.relevant_ground", op, |_| {
                        relevant_ground(&program, opts).expect("the program grounds")
                    });
                    ground_rules += ground.len();
                    t.span("hilog-engine.wfs.well_founded_eval", op, |_| {
                        std::hint::black_box(well_founded_eval(&ground, opts.eval_threads));
                    });
                }
                t.span("hilog-engine.modular.check", op, |_| {
                    db.check_modular().expect("Figure 1 runs");
                });
                for query in family.parsed_queries() {
                    t.span("hilog-engine.session.bound_query", op, |_| {
                        db.query(&query).expect("the bound query evaluates");
                    });
                }
                if family.kind == Kind::Spill {
                    // The same build with everything resident, for scale.
                    t.span("harness.inmem_build", op, |_| {
                        let mut resident = HiLogDb::builder()
                            .program(program.clone())
                            .storage(StorageConfig::InMemory)
                            .build();
                        resident.model().expect("the full model builds");
                    });
                }
            }
        });
    }
    outcome.set(
        "hilog-engine.grounder.ground_rules",
        (ground_rules / rounds) as f64,
    );
    // Per-round totals of each stage: the sum over the families.
    let per_round = |name: &str| tracer.durations_ns(name).iter().sum::<f64>() / rounds as f64;
    outcome.set(
        "hilog-syntax.parser.parse_program_mb_s",
        (text_bytes / rounds) as f64 / 1e6 / (per_round("hilog-syntax.parser.parse_program") / 1e9),
    );
    outcome.set(
        "hilog-engine.grounder.ground_ms",
        per_round("hilog-engine.grounder.relevant_ground") / 1e6,
    );
    outcome.set(
        "hilog-engine.wfs.eval_ms",
        per_round("hilog-engine.wfs.well_founded_eval") / 1e6,
    );
    outcome.set(
        "hilog-engine.modular.check_ms",
        per_round("hilog-engine.modular.check") / 1e6,
    );
    outcome.set(
        "hilog-engine.spill.build_ms",
        tracer.p50("hilog-engine.spill.build", 1e6),
    );
    outcome.set(
        "hilog-engine.storage.inmem_build_ms",
        tracer.p50("harness.inmem_build", 1e6),
    );
    outcome.set(
        "hilog-core.universal.transform_ms",
        tracer.p50("hilog-core.universal.transform", 1e6),
    );
    outcome.note("traced_rounds", rounds);
    outcome.trace_report(cfg, "cold_eval", &tracer, "round", median(&round_ns));
}
