//! Crash/replay differential oracle for the durable storage layer, plus an
//! HTTP restart round-trip.
//!
//! The oracle's contract extends `tests/serving.rs` to crashes: a store
//! reopened after a simulated crash — writer dropped mid-stream, with or
//! without an intervening checkpoint, possibly with a *torn* final WAL
//! record — must answer every query exactly like a fresh single-threaded
//! [`HiLogDb`] built from the program the pre-crash writer had published.
//! Randomized mutation sequences come from the same distribution as
//! `tests/session_api.rs` (EDB/IDB fact asserts, present-fact retractions,
//! rule churn over random range-restricted normal programs), so recovery is
//! exercised on every incremental-maintenance path the session oracle
//! covers.
//!
//! Scaled up in CI via `HILOG_RECOVERY_CASES` (randomized cases to run).

use hilog_repro::prelude::*;
use hilog_store::{FaultIo, FaultPlan, Op, PersistentWriter, StoreConfig};
use hilog_workloads::{random_range_restricted_normal, NormalProgramConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn temp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hilog-recovery-{tag}-{}-{case}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn answer_set(result: &QueryResult) -> BTreeSet<String> {
    result.answers.iter().map(|a| a.to_string()).collect()
}

/// The session-oracle comparison policy, applied across a crash: identical
/// answers with identical three-valued truth, identical overall truth, and
/// an identical fell-back-to-the-full-model verdict.
fn assert_results_agree(recovered: &QueryResult, reference: &QueryResult, context: &str) {
    assert_eq!(
        answer_set(recovered),
        answer_set(reference),
        "recovered and fresh sessions disagree {context}"
    );
    assert_eq!(recovered.truth, reference.truth, "{context}");
    assert_eq!(
        recovered.fallback.is_some(),
        reference.fallback.is_some(),
        "recovered and fresh sessions took different routes {context}"
    );
}

/// Rules as a sorted multiset: recovery reconstructs the program as
/// non-fact rules followed by facts grouped per relation, so recovered
/// programs are order-permuted (never gaining or losing an occurrence —
/// duplicates back retract-one-occurrence semantics and must survive
/// exactly).  Rule order is semantically neutral, so equality up to
/// permutation is the right cross-recovery program check; the query
/// differential below covers semantics.
fn program_multiset(program: &hilog_core::Program) -> Vec<String> {
    let mut rules: Vec<String> = program.rules.iter().map(|r| r.to_string()).collect();
    rules.sort();
    rules
}

/// Draws one mutation batch from the `session_api` distribution, using the
/// writer's current program to aim retractions at entries that exist.
fn random_batch(rng: &mut StdRng, program: &hilog_core::Program) -> Vec<Op> {
    let constant = |i: usize| Term::sym(format!("c{i}"));
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..10u32) {
            // Assert an EDB fact (the common serving mutation).
            0..=3 => ops.push(Op::AssertFact(Term::apps(
                format!("edb{}", rng.gen_range(0..2)),
                vec![constant(rng.gen_range(0..5)), constant(rng.gen_range(0..5))],
            ))),
            // Assert an IDB fact: stresses the non-pure-EDB delta path.
            4 => ops.push(Op::AssertFact(Term::apps(
                format!("idb{}", rng.gen_range(0..3)),
                vec![constant(rng.gen_range(0..5))],
            ))),
            // Retract a present fact, or (sometimes) a missing one.
            5..=6 => {
                let facts: Vec<Term> = program.facts().map(|r| r.head.clone()).collect();
                if facts.is_empty() || rng.gen_bool(0.2) {
                    ops.push(Op::RetractFact(Term::apps(
                        "edb0",
                        vec![Term::sym("nope"), Term::sym("nope")],
                    )));
                } else {
                    ops.push(Op::RetractFact(
                        facts[rng.gen_range(0..facts.len())].clone(),
                    ));
                }
            }
            // Assert a fresh rule (full invalidation path).
            7 => {
                let head = Term::apps(format!("idb{}", rng.gen_range(0..3)), vec![Term::var("X")]);
                let mut body = vec![Literal::pos(Term::apps(
                    format!("edb{}", rng.gen_range(0..2)),
                    vec![Term::var("X"), Term::var("Y")],
                ))];
                if rng.gen_bool(0.5) {
                    body.push(Literal::neg(Term::apps(
                        format!("idb{}", rng.gen_range(0..3)),
                        vec![Term::var("Y")],
                    )));
                }
                ops.push(Op::AssertRule(Rule::new(head, body)));
            }
            // Retract a present proper rule.
            _ => {
                let rules: Vec<Rule> = program.proper_rules().cloned().collect();
                if rules.is_empty() {
                    continue;
                }
                ops.push(Op::RetractRule(
                    rules[rng.gen_range(0..rules.len())].clone(),
                ));
            }
        }
    }
    if ops.is_empty() {
        ops.push(Op::AssertFact(Term::apps(
            "edb0",
            vec![constant(0), constant(1)],
        )));
    }
    ops
}

/// One randomized crash/replay case.  Applies a batch stream with a
/// checkpoint at a random point (full or incremental, randomly),
/// crashes (drops the writer cold), optionally damages the WAL tail the way
/// a real torn write would, reopens, and compares the recovered store
/// against fresh evaluation of the expected program.
fn run_recovery_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE);
    let dir = temp_dir("case", seed);
    let config = StoreConfig::new(&dir);
    let seed_db = || {
        HiLogDb::new(random_range_restricted_normal(
            NormalProgramConfig::default(),
            seed,
        ))
    };

    let batches = rng.gen_range(3..=8usize);
    let checkpoint_after = rng.gen_range(0..=batches);
    // Half the cases checkpoint incrementally, so a manifest that reuses
    // older segments runs under the same differential oracle (and the same
    // torn tails) as a self-contained full one.
    let incremental = rng.gen_bool(0.5);
    // Torn tail: half the cases append a partial frame (a crash mid-append
    // of a batch that was never acknowledged); recovery must discard it and
    // keep everything acknowledged.
    let tear_tail = rng.gen_bool(0.5);

    // `programs[k]` is the published program after k batches.
    let mut programs = Vec::with_capacity(batches + 1);
    let expected_epoch;
    {
        let (mut writer, _handle, report) =
            PersistentWriter::open(&config, seed_db()).expect("fresh open");
        assert!(!report.recovered);
        programs.push(writer.program().clone());
        for k in 0..batches {
            let ops = random_batch(&mut rng, writer.program());
            writer.apply_batch(&ops).expect("batch applies");
            programs.push(writer.program().clone());
            if k + 1 == checkpoint_after {
                if incremental {
                    writer
                        .checkpoint_incremental()
                        .expect("mid-stream incremental checkpoint");
                } else {
                    writer.checkpoint().expect("mid-stream checkpoint");
                }
            }
        }
        expected_epoch = writer.epoch();
        assert_eq!(expected_epoch, batches as u64);
        // Simulated crash: dropped cold, no flush, no final checkpoint.
    }

    if tear_tail {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .expect("open wal for tearing");
        // A length prefix promising more payload than follows: exactly what
        // a crash mid-append leaves behind.
        let torn = [0xFFu8, 0x00, 0x00, 0x00, 0xAB, 0xCD];
        file.write_all(&torn[..rng.gen_range(1..=torn.len())])
            .expect("append torn frame");
    }

    let expected = &programs[batches];
    let (recovered_writer, handle, report) =
        PersistentWriter::open(&config, seed_db()).expect("recovery open");
    assert!(report.recovered, "seed {seed}: reopen must recover");
    assert_eq!(
        recovered_writer.epoch(),
        expected_epoch,
        "seed {seed}: recovered epoch"
    );
    assert_eq!(
        program_multiset(recovered_writer.program()),
        program_multiset(expected),
        "seed {seed}: recovered program (checkpoint after {checkpoint_after}, \
         incremental={incremental}, torn={tear_tail})"
    );

    // The differential oracle: every plan route against fresh evaluation.
    let mut fresh = HiLogDb::new(expected.clone());
    let snapshot = handle.current();
    for query_text in ["?- idb0(X).", "?- idb1(X).", "?- idb2(X).", "?- P(X)."] {
        let query = parse_query(query_text).unwrap();
        let recovered = snapshot.query(&query).expect("recovered store answers");
        let reference = fresh.query(&query).expect("fresh session answers");
        assert_results_agree(
            &recovered,
            &reference,
            &format!("(seed {seed}, query {query_text})"),
        );
    }
    drop((recovered_writer, handle, snapshot));

    // Recovery is idempotent: reopening the untouched directory lands on
    // the same epoch and program again.
    let (again, _, report) = PersistentWriter::open(&config, seed_db()).expect("second reopen");
    assert!(report.recovered);
    assert_eq!(again.epoch(), expected_epoch, "seed {seed}: second reopen");
    assert_eq!(
        program_multiset(again.program()),
        program_multiset(expected),
        "seed {seed}: second reopen"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Randomized crash points, checkpoint positions, and torn tails; the case
/// count scales in CI via `HILOG_RECOVERY_CASES`.
#[test]
fn recovered_stores_answer_like_fresh_sessions() {
    let cases = env_usize("HILOG_RECOVERY_CASES", 8);
    for case in 0..cases {
        run_recovery_case(0xD0_0D + case as u64);
    }
}

/// One fsync-fault drill: the disk's sync intermittently lies (seeded,
/// probabilistic, fsync-only faults) while a random batch stream applies
/// under the default retry policy.  A batch whose fsync never lands rolls
/// back and is refused — unacknowledged — and the writer may drop into
/// read-only degraded mode, which a later successful checkpoint re-arms.
/// After a crash, a *clean* reopen must land exactly on the last
/// acknowledged program and answer queries like fresh evaluation of it.
/// Returns how many faults the plan actually injected.
fn run_fsync_fault_case(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF5C);
    let dir = temp_dir("fsync-fault", seed);
    let io = FaultIo::over_real();
    let config = StoreConfig::new(&dir).io(Arc::new(io.clone()));
    let seed_db = || {
        HiLogDb::new(random_range_restricted_normal(
            NormalProgramConfig::default(),
            seed,
        ))
    };

    let (last_acked, expected_epoch) = {
        let (mut writer, _handle, report) =
            PersistentWriter::open(&config, seed_db()).expect("fresh open");
        assert!(!report.recovered);
        // Arm the faults only once the store is up: the drill targets the
        // batch/checkpoint stream, not directory creation.
        io.set_plan(FaultPlan {
            probability: 0.3,
            seed,
            fsync_only: true,
            ..FaultPlan::default()
        });
        let mut last_acked = writer.program().clone();
        let mut expected_epoch = writer.epoch();
        for _ in 0..8 {
            let ops = random_batch(&mut rng, writer.program());
            match writer.apply_batch(&ops) {
                Ok(_) => {
                    last_acked = writer.program().clone();
                    expected_epoch = writer.epoch();
                }
                // Roll-backed or refused-degraded: either way the batch is
                // unacknowledged.  A checkpoint attempt (itself allowed to
                // fail) is the operator move that re-arms a degraded
                // writer.
                Err(_) => {
                    if writer.checkpoint().is_ok() {
                        last_acked = writer.program().clone();
                        expected_epoch = writer.epoch();
                    }
                }
            }
        }
        (last_acked, expected_epoch)
        // Crash: writer dropped cold mid-fault-storm.
    };

    let injected = io.injected();
    let clean = StoreConfig::new(&dir);
    let (recovered_writer, handle, _report) =
        PersistentWriter::open(&clean, seed_db()).expect("clean reopen after fsync faults");
    assert_eq!(
        recovered_writer.epoch(),
        expected_epoch,
        "seed {seed}: recovery lands on the last acknowledged epoch"
    );
    assert_eq!(
        program_multiset(recovered_writer.program()),
        program_multiset(&last_acked),
        "seed {seed}: recovery keeps exactly the acknowledged batches"
    );

    let mut fresh = HiLogDb::new(last_acked);
    let snapshot = handle.current();
    for query_text in ["?- idb0(X).", "?- idb1(X).", "?- idb2(X).", "?- P(X)."] {
        let query = parse_query(query_text).unwrap();
        let recovered = snapshot.query(&query).expect("recovered store answers");
        let reference = fresh.query(&query).expect("fresh session answers");
        assert_results_agree(
            &recovered,
            &reference,
            &format!("(fsync-fault seed {seed}, query {query_text})"),
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    injected
}

/// The recovery oracle under an fsync-fault storm; scales in CI via
/// `HILOG_RECOVERY_CASES`.
#[test]
fn recovery_oracle_survives_injected_fsync_faults() {
    let cases = env_usize("HILOG_RECOVERY_CASES", 8);
    let mut injected = 0;
    for case in 0..cases {
        injected += run_fsync_fault_case(0xF5C0 + case as u64);
    }
    assert!(
        injected > 0,
        "a 30% per-sync fault probability must actually fire across {cases} cases"
    );
}

/// Losing the *final acknowledged* record to corruption truncates recovery
/// to the previous epoch — the documented contract for bytes that never
/// reached the disk intact — while every earlier batch survives.
#[test]
fn corrupted_final_record_recovers_the_previous_epoch() {
    let seed = 0xBAD_F00D;
    let dir = temp_dir("torn-final", 0);
    let config = StoreConfig::new(&dir);
    let seed_db = || {
        HiLogDb::new(random_range_restricted_normal(
            NormalProgramConfig::default(),
            seed,
        ))
    };
    let mut rng = StdRng::seed_from_u64(seed);

    let mut programs = Vec::new();
    let wal_before_last;
    {
        let (mut writer, _, _) = PersistentWriter::open(&config, seed_db()).expect("fresh open");
        programs.push(writer.program().clone());
        for _ in 0..3 {
            let ops = random_batch(&mut rng, writer.program());
            writer.apply_batch(&ops).expect("batch applies");
            programs.push(writer.program().clone());
        }
        wal_before_last = {
            let stats = writer.storage_stats();
            // Bytes the first three records occupy; everything past this
            // belongs to the fourth.
            let ops = random_batch(&mut rng, writer.program());
            writer.apply_batch(&ops).expect("final batch applies");
            programs.push(writer.program().clone());
            stats.wal_bytes
        };
    }

    // Cut into the final record at an arbitrary depth: the tail scan must
    // drop exactly that record and keep the three intact ones.
    let wal_path = dir.join("wal.log");
    let full = std::fs::metadata(&wal_path).unwrap().len();
    assert!(full > wal_before_last);
    let cut = wal_before_last + (full - wal_before_last) / 2;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    let (writer, handle, report) = PersistentWriter::open(&config, seed_db()).expect("reopen");
    assert!(report.recovered);
    assert_eq!(report.replayed_records, 3);
    assert_eq!(writer.epoch(), 3, "recovery lands on the last intact epoch");
    assert_eq!(
        program_multiset(writer.program()),
        program_multiset(&programs[3])
    );

    let mut fresh = HiLogDb::new(programs[3].clone());
    let query = parse_query("?- idb0(X).").unwrap();
    let recovered = handle.current().query(&query).unwrap();
    let reference = fresh.query(&query).unwrap();
    assert_results_agree(&recovered, &reference, "(torn final record)");

    std::fs::remove_dir_all(&dir).ok();
}

/// A torn *segment* file (media corruption under an otherwise-committed
/// manifest) must not fail recovery: the manifest that references it
/// becomes unloadable, and the store falls back to the newest recovery
/// point that still loads — here the fresh-open baseline checkpoint.  State
/// acknowledged after that point and compacted out of the WAL by the
/// incremental checkpoint is gone (corruption ate its only copy), but the
/// store comes up consistent at the older epoch rather than refusing to
/// open.
#[test]
fn torn_segment_falls_back_to_an_older_recovery_point() {
    let dir = temp_dir("torn-segment", 0);
    let config = StoreConfig::new(&dir);
    let rules = parse_program(
        "reach(X, Y) :- move(X, Y).\n\
         reach(X, Z) :- move(X, Y), reach(Y, Z).",
    )
    .unwrap();

    {
        let (mut writer, _, report) =
            PersistentWriter::open(&config, HiLogDb::new(rules.clone())).expect("fresh open");
        assert!(!report.recovered);
        writer
            .apply_batch(&[
                Op::AssertFact(parse_term("move(a, b)").unwrap()),
                Op::AssertFact(parse_term("colour(a, red)").unwrap()),
            ])
            .expect("batch applies");
        let outcome = writer
            .checkpoint_incremental()
            .expect("incremental checkpoint");
        assert!(outcome.segments_written > 0);
        // Simulated crash right after the checkpoint (WAL now empty).
    }

    // Tear the first segment file in half — a torn write that fsync never
    // acknowledged, discovered only at recovery time.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|ext| ext == "hseg"))
        .expect("incremental checkpoint left a segment");
    let len = std::fs::metadata(&segment).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    file.set_len(len / 2).unwrap();
    drop(file);

    let (writer, handle, report) =
        PersistentWriter::open(&config, HiLogDb::new(rules.clone())).expect("reopen succeeds");
    assert!(report.recovered, "baseline checkpoint still loads");
    assert_eq!(
        report.checkpoint_epoch,
        Some(0),
        "the manifest naming the torn segment must be skipped"
    );
    assert_eq!(
        writer.epoch(),
        0,
        "recovery lands on the baseline epoch (the WAL was compacted)"
    );
    assert_eq!(writer.program(), &rules);

    // The recovered (older) state answers exactly like fresh evaluation.
    let mut fresh = HiLogDb::new(rules);
    let query = parse_query("?- reach(a, X).").unwrap();
    let recovered = handle.current().query(&query).unwrap();
    let reference = fresh.query(&query).unwrap();
    assert_results_agree(&recovered, &reference, "(torn segment)");

    std::fs::remove_dir_all(&dir).ok();
}

/// An incremental checkpoint taken after a full one reuses the full
/// checkpoint's segments: only the relations dirtied in between are
/// rewritten, and the stitched recovery point answers like a fresh session.
#[test]
fn incremental_after_full_reuses_the_full_checkpoints_segments() {
    let dir = temp_dir("reuse-after-full", 0);
    let config = StoreConfig::new(&dir);
    let rules = parse_program(
        "reach(X, Y) :- move(X, Y).\n\
         reach(X, Z) :- move(X, Y), reach(Y, Z).",
    )
    .unwrap();
    let batch = |facts: &[&str]| -> Vec<Op> {
        let fact = |text: &&str| Op::AssertFact(parse_term(text).unwrap());
        facts.iter().map(fact).collect()
    };

    let expected = {
        let (mut writer, _, _) =
            PersistentWriter::open(&config, HiLogDb::new(rules.clone())).expect("fresh open");
        writer
            .apply_batch(&batch(&["move(a, b)", "move(b, c)", "colour(a, red)"]))
            .unwrap();
        let full = writer.checkpoint().expect("full checkpoint, epoch 1");
        assert_eq!(full.segments_written, 2, "move/2 and colour/2");
        writer.apply_batch(&batch(&["colour(b, blue)"])).unwrap();
        let incremental = writer
            .checkpoint_incremental()
            .expect("incremental checkpoint, epoch 2");
        assert_eq!(
            incremental.segments_written, 1,
            "only colour/2 was dirtied since the full checkpoint"
        );
        writer.program().clone()
        // Simulated crash right after the checkpoint (WAL now empty).
    };

    let (writer, handle, report) =
        PersistentWriter::open(&config, HiLogDb::new(rules)).expect("reopen");
    assert_eq!(report.checkpoint_epoch, Some(2));
    assert_eq!(report.replayed_records, 0);
    assert_eq!(
        program_multiset(writer.program()),
        program_multiset(&expected)
    );
    let mut fresh = HiLogDb::new(expected);
    for query_text in ["?- reach(a, X).", "?- colour(X, Y).", "?- P(a, X)."] {
        let query = parse_query(query_text).unwrap();
        let recovered = handle.current().query(&query).unwrap();
        let reference = fresh.query(&query).unwrap();
        assert_results_agree(&recovered, &reference, &format!("({query_text})"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A full checkpoint is self-contained: with every file of every older
/// recovery point deleted by hand, the store still recovers from it alone.
/// A recovery point holds no model, so the first full-model read evaluates
/// one, even though the seed's model was warm before every write.
#[test]
fn full_checkpoint_is_self_contained() {
    let dir = temp_dir("self-contained", 0);
    let config = StoreConfig::new(&dir);
    let program = parse_program(
        "winning(X) :- move(X, Y), not winning(Y).\n\
         move(a, b). move(b, c).",
    )
    .unwrap();
    let assert_fact = |text: &str| vec![Op::AssertFact(parse_term(text).unwrap())];

    {
        let mut seed = HiLogDb::new(program.clone());
        seed.model().expect("seed model");
        let (mut writer, _, _) = PersistentWriter::open(&config, seed).expect("fresh open");
        writer.apply_batch(&assert_fact("colour(a, red)")).unwrap();
        writer
            .checkpoint_incremental()
            .expect("incremental checkpoint, epoch 1");
        writer.apply_batch(&assert_fact("colour(b, blue)")).unwrap();
        writer.checkpoint().expect("full checkpoint, epoch 2");
    }

    // Keep only the WAL and the files the epoch-2 checkpoint wrote.
    let epoch_2 = format!("{:020}", 2);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name != "wal.log" && !name.contains(&epoch_2) {
            std::fs::remove_file(&path).unwrap();
        }
    }

    let (writer, handle, report) =
        PersistentWriter::open(&config, HiLogDb::new(program)).expect("reopen");
    assert_eq!(report.checkpoint_epoch, Some(2));
    assert_eq!(writer.epoch(), 2);
    // A variable in predicate position forces the full-model route.
    let result = handle
        .current()
        .query(&parse_query("?- P(b, blue).").unwrap())
        .unwrap();
    assert_eq!(result.answers.len(), 1, "P = colour");
    assert_eq!(result.stats.model_source, ModelSource::Rebuilt);

    std::fs::remove_dir_all(&dir).ok();
}

/// What a full checkpoint left when recovery points still carried a model:
/// the same segments, a manifest whose model-flag byte (its payload's last)
/// is 1, and a `model-<epoch>.hmod` file beside it.  Rewrites the manifest
/// of `epoch` that way, the frame's checksum included, and returns the path
/// the model file had.
fn mark_manifest_as_naming_a_model(dir: &Path, epoch: u64) -> PathBuf {
    let manifest = dir.join(format!("manifest-{epoch:020}.hman"));
    let mut bytes = std::fs::read(&manifest).unwrap();
    *bytes.last_mut().unwrap() = 1;
    let crc = hilog_core::crc32(&bytes[12..]);
    bytes[8..12].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&manifest, bytes).unwrap();
    dir.join(format!("model-{epoch:020}.hmod"))
}

/// A directory whose newest manifest names a model file recovers whole
/// whether that file is torn or missing: a model is derived state, so
/// recovery never opens it and comes up at the manifest's own epoch with
/// every committed batch.  The full checkpoint truncated the WAL, so
/// falling back to the epoch-0 baseline would lose both batches.
fn recover_beside_a_named_model_file(torn: bool) {
    let context = if torn {
        "(torn model file)"
    } else {
        "(missing model file)"
    };
    let dir = temp_dir("legacy-model", torn as u64);
    let config = StoreConfig::new(&dir);
    let program = parse_program(
        "winning(X) :- move(X, Y), not winning(Y).\n\
         move(a, b). move(b, c).",
    )
    .unwrap();
    let expected = {
        let mut seed = HiLogDb::new(program.clone());
        seed.model().expect("seed model");
        let (mut writer, _, _) = PersistentWriter::open(&config, seed).expect("fresh open");
        writer
            .apply_batch(&[Op::AssertFact(parse_term("move(c, d)").unwrap())])
            .unwrap();
        writer
            .apply_batch(&[Op::AssertFact(parse_term("colour(a, red)").unwrap())])
            .unwrap();
        writer.checkpoint().expect("full checkpoint, epoch 2");
        writer.program().clone()
    };
    let model_file = mark_manifest_as_naming_a_model(&dir, 2);
    if torn {
        // A model frame whose checksum does not match its payload.
        let mut bytes = b"HMOD".to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&hilog_core::crc32(b"model").to_le_bytes());
        bytes.extend_from_slice(b"modem");
        std::fs::write(&model_file, bytes).unwrap();
    } else {
        std::fs::remove_file(&model_file).ok();
    }

    let (mut writer, handle, report) =
        PersistentWriter::open(&config, HiLogDb::new(program)).expect("reopen");
    assert_eq!(report.checkpoint_epoch, Some(2), "{context}");
    assert_eq!(writer.epoch(), 2, "{context}");
    assert_eq!(
        program_multiset(writer.program()),
        program_multiset(&expected),
        "{context}"
    );
    let mut fresh = HiLogDb::new(expected);
    for query_text in ["?- winning(X).", "?- colour(X, Y).", "?- P(c, X)."] {
        let query = parse_query(query_text).unwrap();
        let recovered = handle.current().query(&query).unwrap();
        let reference = fresh.query(&query).unwrap();
        assert_results_agree(&recovered, &reference, &format!("({query_text}) {context}"));
    }

    // Nothing names the file any more: the next checkpoint's prune
    // removes it.
    writer.checkpoint_incremental().expect("next checkpoint");
    assert!(!model_file.exists(), "the prune kept {context}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_recovery_point_naming_a_torn_model_file_recovers_whole() {
    recover_beside_a_named_model_file(true);
}

#[test]
fn a_recovery_point_naming_a_missing_model_file_recovers_whole() {
    recover_beside_a_named_model_file(false);
}

/// Replay over a checkpointed program that spans several chunks of its
/// persistent rule sequence: 700 facts checkpointed, then a WAL tail whose
/// first op is what counts the recovered program into the session's fact
/// multiset — a duplicate assert of a fact from the first chunk, a retract
/// of one of its two copies, a retract of a single-copy fact from a middle
/// chunk, a retract of an absent fact.  Replay drives the same `apply_ops`
/// as the live writer, so the recovered program must be the live writer's
/// **as a rule list, order included** (one relation, rules first: the
/// checkpoint's relation-grouped order is the source order here), at the
/// same epoch, with the same answers.
#[test]
fn replay_across_program_chunks_recovers_the_live_rule_list() {
    let dir = temp_dir("chunks", 0);
    let config = StoreConfig::new(&dir);
    let rules = parse_program(
        "linked(X, Y) :- move(X, Y).\n\
         linked(X, Y) :- move(Y, X).",
    )
    .unwrap();
    let fact = |i: usize| parse_term(&format!("move(p{i}, p{})", i + 1)).unwrap();
    let rule_list = |program: &hilog_core::Program| -> Vec<String> {
        program.iter().map(|r| r.to_string()).collect()
    };
    let queries: Vec<Query> = [
        "?- linked(p10, X).",
        "?- linked(p300, X).",
        "?- linked(p301, X).",
        "?- move(q0, X).",
        "?- move(X, p700).",
    ]
    .iter()
    .map(|text| parse_query(text).unwrap())
    .collect();

    let (live_rules, live_epoch, live_answers) = {
        let (mut writer, handle, _) =
            PersistentWriter::open(&config, HiLogDb::new(rules.clone())).expect("fresh open");
        for batch in 0..7 {
            let ops: Vec<Op> = (batch * 100..(batch + 1) * 100)
                .map(|i| Op::AssertFact(fact(i)))
                .collect();
            writer.apply_batch(&ops).unwrap();
        }
        writer.checkpoint().expect("full checkpoint, epoch 7");
        let absent = parse_term("move(zz, zz)").unwrap();
        let tail = [
            vec![
                Op::AssertFact(fact(10)),
                Op::AssertFact(parse_term("move(q0, q1)").unwrap()),
            ],
            vec![Op::RetractFact(fact(10)), Op::RetractFact(fact(300))],
            vec![Op::RetractFact(absent), Op::AssertFact(fact(700))],
        ];
        let outcomes: Vec<_> = tail
            .iter()
            .map(|ops| writer.apply_batch(ops).unwrap())
            .collect();
        assert_eq!(outcomes[1].missing, Vec::<usize>::new());
        assert_eq!(outcomes[2].missing, vec![0], "the absent fact");
        // One copy of move(p10, p11) left its place in the first chunk; the
        // other stays where the duplicate assert appended it.
        let live_rules = rule_list(writer.program());
        assert_eq!(live_rules.len(), 2 + 700 + 3 - 2);
        assert_eq!(live_rules[2 + 10], "move(p11, p12).");
        assert_eq!(live_rules[2 + 698], "move(p10, p11).");
        let answers: Vec<BTreeSet<String>> = queries
            .iter()
            .map(|q| answer_set(&handle.current().query(q).unwrap()))
            .collect();
        (live_rules, writer.epoch(), answers)
        // Simulated crash: writer dropped with three records in the WAL.
    };

    let (writer, handle, report) =
        PersistentWriter::open(&config, HiLogDb::new(rules)).expect("reopen");
    assert!(report.recovered);
    assert_eq!(report.checkpoint_epoch, Some(7));
    assert_eq!(report.replayed_records, 3);
    assert_eq!(report.replayed_ops, 6);
    assert_eq!(writer.epoch(), live_epoch);
    assert_eq!(rule_list(writer.program()), live_rules);
    let mut fresh = HiLogDb::new(writer.program().clone());
    for (query, live) in queries.iter().zip(&live_answers) {
        let recovered = handle.current().query(query).unwrap();
        assert_eq!(&answer_set(&recovered), live, "`{query}` across the crash");
        let reference = fresh.query(query).unwrap();
        assert_results_agree(&recovered, &reference, &format!("({query})"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// HTTP restart round-trip: mutate a durable server, shut it down
/// gracefully (final checkpoint), start a second server on the same
/// directory, and demand identical answers plus truthful storage stats.
#[test]
fn http_server_restart_recovers_answers_and_reports_storage() {
    use hilog_server::{client, Server, ServerConfig};

    let dir = temp_dir("http", 0);
    let program = parse_program(
        "winning(X) :- move(X, Y), not winning(Y).\n\
         move(a, b). move(b, c).",
    )
    .unwrap();

    // First life: assert through HTTP, checkpoint through HTTP, mutate some
    // more (leaving a WAL tail), then shut down gracefully.
    {
        let server = Server::bind(
            ServerConfig::ephemeral().workers(2).data_dir(&dir),
            HiLogDb::new(program.clone()),
        )
        .expect("bind durable server");
        assert!(!server.recovery().recovered, "first boot is fresh");
        let addr = server.local_addr();
        let shutdown = server.handle();
        let serving = std::thread::spawn(move || server.serve());

        let response = client::post(
            addr,
            "/assert",
            r#"{"facts": ["move(c, d)", "move(d, e)"]}"#,
        )
        .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);

        let response = client::post(addr, "/checkpoint", "").unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let json = response.json().unwrap();
        assert_eq!(json.get("epoch").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(json.get("durable").and_then(|v| v.as_bool()), Some(true));

        let response = client::post(addr, "/retract", r#"{"facts": ["move(a, b)"]}"#).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);

        let response = client::get(addr, "/stats").unwrap();
        let json = response.json().unwrap();
        assert_eq!(json.get("durable").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("wal_records").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            json.get("last_checkpoint_epoch").and_then(|v| v.as_u64()),
            Some(1)
        );
        assert!(json.get("live_symbols").and_then(|v| v.as_u64()).unwrap() > 0);

        shutdown.shutdown();
        serving.join().expect("server thread exits");
    }

    // Second life: an *empty* seed program — everything must come back from
    // the data directory alone.
    {
        let server = Server::bind(
            ServerConfig::ephemeral().workers(2).data_dir(&dir),
            HiLogDb::new(hilog_core::Program::new()),
        )
        .expect("bind recovered server");
        let report = server.recovery();
        assert!(report.recovered, "second boot recovers");
        assert_eq!(
            report.replayed_records, 0,
            "graceful shutdown checkpointed, so no replay"
        );
        let addr = server.local_addr();
        let shutdown = server.handle();
        let serving = std::thread::spawn(move || server.serve());

        // The full recovered state: c -> d -> e, a no longer moves.
        for (query, truth) in [
            ("?- move(c, d).", true),
            ("?- move(d, e).", true),
            ("?- move(a, b).", false),
            ("?- winning(d).", true),
        ] {
            let mut body = String::from("{\"query\":");
            serde::write_json_string(&mut body, query);
            body.push('}');
            let response = client::post(addr, "/query", &body).unwrap();
            assert_eq!(response.status, 200, "{query}: {}", response.body);
            let json = response.json().unwrap();
            let served = json
                .get("result")
                .and_then(|r| r.get("truth"))
                .and_then(|v| v.as_str())
                .expect("truth member");
            assert_eq!(served == "true", truth, "{query} after restart");
        }

        let response = client::get(addr, "/stats").unwrap();
        let json = response.json().unwrap();
        assert_eq!(json.get("epoch").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(json.get("wal_records").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(
            json.get("last_checkpoint_epoch").and_then(|v| v.as_u64()),
            Some(2),
            "shutdown checkpoint is the newest"
        );

        shutdown.shutdown();
        serving.join().expect("server thread exits");
    }

    std::fs::remove_dir_all(&dir).ok();
}
