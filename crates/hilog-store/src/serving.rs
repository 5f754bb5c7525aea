//! The durable writer: [`hilog_engine::DbWriter`] over a [`Durable`] store.
//!
//! [`PersistentWriter`] is what a server holds instead of a bare `DbWriter`.
//! Its publish pipeline is
//!
//! ```text
//! WAL-append (commit point)  →  apply incrementally  →  Arc-swap snapshot
//! ```
//!
//! so the log always runs *ahead of* or *level with* the applied state —
//! never behind it.  Replay applies each record through the same engine
//! mutation path, in the same order, with the same absent-fact/rule and
//! error handling, so a recovered session is bit-for-bit the session a
//! crash interrupted (the crash/replay differential oracle in
//! `tests/recovery.rs` checks this against fresh evaluation).

use crate::backend::{Durable, StorageStats, StoreConfig};
use crate::error::StoreError;
use crate::manifest::{rel_key, CheckpointData, RelKey};
use crate::ops::Op;
use hilog_core::{gc_symbol_pool, symbol_pool_stats};
use hilog_engine::{DbSnapshot, DbWriter, EngineError, HiLogDb, Semantics, SnapshotHandle};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// What one [`PersistentWriter::apply_batch`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The epoch the batch published.
    pub epoch: u64,
    /// Operations that took effect.
    pub applied: usize,
    /// Indexes (into the submitted batch) of retractions that found nothing
    /// to remove — no-ops on both the live and the replay path.
    pub missing: Vec<usize>,
}

/// What one [`PersistentWriter::checkpoint`] (or
/// [`PersistentWriter::checkpoint_incremental`]) call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// The epoch the checkpoint captured.
    pub epoch: u64,
    /// The manifest it committed (`None` for the in-memory backend).
    pub path: Option<PathBuf>,
    /// Names the checkpoint-time symbol-pool GC dropped.
    pub symbols_dropped: usize,
    /// Names still live after the GC.
    pub live_symbols: usize,
    /// Segment files this checkpoint wrote: one per relation for
    /// [`PersistentWriter::checkpoint`], one per *dirtied* relation for
    /// [`PersistentWriter::checkpoint_incremental`].
    pub segments_written: usize,
    /// Bytes this checkpoint added to the data directory: new segments, the
    /// manifest and (full checkpoints with a warm model) the model file.
    pub bytes_written: u64,
}

/// How [`PersistentWriter::open`] brought the session up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// `true` if state was restored from disk (`false`: fresh directory —
    /// the seed session was used and a baseline checkpoint written).
    pub recovered: bool,
    /// Epoch of the checkpoint that seeded recovery.
    pub checkpoint_epoch: Option<u64>,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: usize,
    /// Operations inside those records.
    pub replayed_ops: usize,
}

/// Why (and since when) a writer stopped accepting mutations.  Reported
/// through `GET /stats` as `degraded: {reason, since_epoch}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedState {
    /// The storage failure that triggered degradation.
    pub reason: String,
    /// Epoch of the last successfully published batch — queries keep
    /// answering from this state.
    pub since_epoch: u64,
}

/// A [`DbWriter`] whose batches are durable before they are visible.
#[derive(Debug)]
pub struct PersistentWriter {
    writer: DbWriter,
    /// `None`: in memory — nothing is stored and no storage call can fail.
    store: Option<Durable>,
    /// `Some` once a non-transient storage failure put the writer in
    /// read-only degraded mode: mutations are refused, the last good
    /// snapshot keeps serving, and a successful checkpoint re-arms.
    degraded: Option<DegradedState>,
    /// Relations mutated since the newest manifest — exactly the set the
    /// next incremental checkpoint must rewrite.  Accumulated from applied
    /// batches (and recovery replay) and cleared when any checkpoint
    /// commits.
    dirty: BTreeSet<RelKey>,
}

/// The relations a batch can change: fact ops name theirs directly; a rule
/// asserted/retracted *as a fact* (ground, empty body) dirties its head's
/// relation; non-fact rule ops touch none (the manifest rewrites the rules
/// blob every checkpoint anyway).  Marked before application, so an
/// engine-rejected suffix over-marks — a spurious rewrite, never a stale
/// reuse.
fn mark_dirty(dirty: &mut BTreeSet<RelKey>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::AssertFact(fact) | Op::RetractFact(fact) => {
                dirty.insert(rel_key(fact));
            }
            Op::AssertRule(rule) | Op::RetractRule(rule) => {
                if rule.is_fact() {
                    dirty.insert(rel_key(&rule.head));
                }
            }
        }
    }
}

/// Applies `ops` in order through the writer's incremental mutation path.
/// Stops at the first engine error (everything before it stays applied —
/// deterministic, so replay reproduces the same prefix); absent retractions
/// are recorded, not errors.
fn apply_ops(writer: &mut DbWriter, ops: &[Op]) -> (usize, Vec<usize>, Option<EngineError>) {
    let mut applied = 0;
    let mut missing = Vec::new();
    for (index, op) in ops.iter().enumerate() {
        match op {
            Op::AssertFact(fact) => match writer.assert_fact(fact.clone()) {
                Ok(()) => applied += 1,
                Err(error) => return (applied, missing, Some(error)),
            },
            Op::RetractFact(fact) => {
                if writer.retract_fact(fact) {
                    applied += 1;
                } else {
                    missing.push(index);
                }
            }
            Op::AssertRule(rule) => {
                writer.assert_rule(rule.clone());
                applied += 1;
            }
            Op::RetractRule(rule) => {
                if writer.retract_rule(rule) {
                    applied += 1;
                } else {
                    missing.push(index);
                }
            }
        }
    }
    (applied, missing, None)
}

impl PersistentWriter {
    /// Wraps a session with the zero-overhead in-memory backend — behaviour
    /// identical to `db.into_serving()`.
    pub fn in_memory(db: HiLogDb) -> (PersistentWriter, SnapshotHandle) {
        let (writer, handle) = db.into_serving();
        (
            PersistentWriter {
                writer,
                store: None,
                dirty: BTreeSet::new(),
                degraded: None,
            },
            handle,
        )
    }

    /// Opens a durable writer under `config.data_dir`.
    ///
    /// * **Fresh directory** — serve `seed` as-is and immediately write the
    ///   epoch-0 baseline checkpoint (the WAL alone never carries the
    ///   initial program, so recovery is always checkpoint + tail).
    /// * **Existing directory** — rebuild the session from the newest valid
    ///   checkpoint (program, semantics, and — when present — the model,
    ///   seeded warm), replay the WAL tail through the live mutation path,
    ///   and resume publishing at the recovered epoch.  `seed` contributes
    ///   only its evaluation options; its program is ignored in favour of
    ///   the recovered one.
    pub fn open(
        config: &StoreConfig,
        seed: HiLogDb,
    ) -> Result<(PersistentWriter, SnapshotHandle, RecoveryReport), StoreError> {
        let (mut store, recovered) = Durable::open(config)?;
        match recovered.checkpoint {
            None => {
                let (writer, handle) = seed.into_serving();
                let mut this = PersistentWriter {
                    writer,
                    store: Some(store),
                    dirty: BTreeSet::new(),
                    degraded: None,
                };
                this.checkpoint()?;
                Ok((this, handle, RecoveryReport::default()))
            }
            Some(ckpt) => {
                let report_epoch = ckpt.epoch;
                let mut builder = HiLogDb::builder()
                    .program(ckpt.program)
                    .semantics(ckpt.semantics)
                    .options(seed.options());
                if let Some(model) = ckpt.model {
                    builder = builder.warm_model(model);
                }
                let db = builder.build();
                // Replay strictly after the checkpoint: records at or below
                // its epoch survive only when the process died between
                // checkpointing and truncating the log.
                let (mut writer, handle) = db.into_serving_at(report_epoch);
                let mut replayed_records = 0;
                let mut replayed_ops = 0;
                // Replayed mutations are dirty relative to the recovered
                // recovery point, exactly like live batches would be.
                let mut dirty = BTreeSet::new();
                for record in recovered.wal_records {
                    if record.epoch <= report_epoch {
                        continue;
                    }
                    // Reproduce the live outcome exactly, including an
                    // engine-rejected suffix: the prefix stays applied and
                    // the next record continues, just as the server kept
                    // serving after returning the error to that client.
                    mark_dirty(&mut dirty, &record.ops);
                    let _ = apply_ops(&mut writer, &record.ops);
                    let snapshot = writer.publish();
                    debug_assert_eq!(snapshot.epoch(), record.epoch);
                    replayed_records += 1;
                    replayed_ops += record.ops.len();
                }
                // `into_serving_at` numbered replay publishes from the
                // checkpoint epoch; the records' own epochs are contiguous
                // above it, so the writer now sits at the last record's
                // epoch and new batches extend the same monotone sequence.
                store.flush()?;
                Ok((
                    PersistentWriter {
                        writer,
                        store: Some(store),
                        dirty,
                        degraded: None,
                    },
                    handle,
                    RecoveryReport {
                        recovered: true,
                        checkpoint_epoch: Some(report_epoch),
                        replayed_records,
                        replayed_ops,
                    },
                ))
            }
        }
    }

    /// Applies one mutation batch: WAL-append (the commit point), apply
    /// through the incremental path, publish.  On an engine error the
    /// already-applied prefix is still published — the same state replay
    /// reproduces — and the error is surfaced.
    ///
    /// In degraded mode the batch is refused up front with
    /// [`StoreError::Degraded`] — nothing is appended or applied.  A WAL
    /// append that still fails after the backend's bounded retries is
    /// treated as non-transient: the batch is *not* applied (the commit
    /// point stays atomic — an unlogged batch must never be visible), the
    /// writer drops into read-only degraded mode, and a later successful
    /// [`Self::checkpoint`] / [`Self::checkpoint_incremental`] re-arms it.
    pub fn apply_batch(&mut self, ops: &[Op]) -> Result<BatchOutcome, StoreError> {
        if let Some(state) = &self.degraded {
            return Err(StoreError::Degraded {
                reason: state.reason.clone(),
                since_epoch: state.since_epoch,
            });
        }
        let epoch = self.writer.epoch() + 1;
        let store = self.store.as_mut();
        if let Some(Err(error)) = store.map(|s| s.append_batch(epoch, ops)) {
            if matches!(error, StoreError::Io(_)) {
                self.degraded = Some(DegradedState {
                    reason: error.to_string(),
                    since_epoch: self.writer.epoch(),
                });
            }
            return Err(error);
        }
        mark_dirty(&mut self.dirty, ops);
        let (applied, missing, failure) = apply_ops(&mut self.writer, ops);
        let snapshot = self.writer.publish();
        debug_assert_eq!(snapshot.epoch(), epoch);
        match failure {
            Some(error) => Err(StoreError::Engine { applied, error }),
            None => Ok(BatchOutcome {
                epoch,
                applied,
                missing,
            }),
        }
    }

    /// Writes a *full* checkpoint of the current state (truncating the WAL)
    /// and garbage-collects the global symbol pool: a fresh segment for
    /// every relation plus, when the writer has one warm, the model (a model
    /// a write has dropped since it was last read is simply not written) — a
    /// self-contained recovery point that names no older file.  Persisted
    /// files use payload-local symbol ids, so the GC never remaps anything
    /// on disk.
    pub fn checkpoint(&mut self) -> Result<CheckpointOutcome, StoreError> {
        self.write_checkpoint(false)
    }

    /// Writes an *incremental* checkpoint: fresh segment files only for the
    /// relations dirtied since the newest manifest, a manifest stitching
    /// them together with every clean relation's existing segment, then
    /// truncates the WAL.  The segments written scale with the mutation
    /// delta, not the store: a clean relation's segment is never rewritten.
    /// The model is not persisted (it rebuilds lazily); use
    /// [`Self::checkpoint`] for a warm-model recovery point.
    pub fn checkpoint_incremental(&mut self) -> Result<CheckpointOutcome, StoreError> {
        self.write_checkpoint(true)
    }

    fn write_checkpoint(&mut self, incremental: bool) -> Result<CheckpointOutcome, StoreError> {
        let model = if incremental {
            None
        } else {
            self.writer.cached_model().map(|m| (*m).clone())
        };
        let data = CheckpointData {
            epoch: self.writer.epoch(),
            semantics: self.writer.semantics(),
            program: self.writer.program().clone(),
            model,
        };
        let dirty = incremental.then_some(&self.dirty);
        let path = match &mut self.store {
            Some(store) => Some(store.write_checkpoint(&data, dirty)?),
            None => None,
        };
        // A checkpoint that reached disk proves storage is writable again:
        // leave degraded mode.  Its manifest is the new reuse basis.
        self.degraded = None;
        self.dirty.clear();
        let stats = self.storage_stats();
        let symbols_dropped = gc_symbol_pool();
        let live_symbols = symbol_pool_stats().live;
        Ok(CheckpointOutcome {
            epoch: data.epoch,
            path,
            symbols_dropped,
            live_symbols,
            segments_written: stats.last_checkpoint_segments,
            bytes_written: stats.last_checkpoint_bytes,
        })
    }

    /// Forces buffered WAL records to stable storage.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.store.as_mut().map_or(Ok(()), Durable::flush)
    }

    /// Graceful shutdown: flush the WAL and, when `checkpoint` is set, write
    /// a final checkpoint so the next boot skips replay entirely.
    pub fn shutdown(&mut self, checkpoint: bool) -> Result<(), StoreError> {
        self.flush()?;
        if checkpoint {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Storage counters for `GET /stats`.
    pub fn storage_stats(&self) -> StorageStats {
        self.store.as_ref().map(Durable::stats).unwrap_or_default()
    }

    /// `Some` while the writer is in read-only degraded mode.
    pub fn degraded(&self) -> Option<&DegradedState> {
        self.degraded.as_ref()
    }

    /// Epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.writer.epoch()
    }

    /// The writer's current program.
    pub fn program(&self) -> &hilog_core::Program {
        self.writer.program()
    }

    /// The semantics queries are answered under.
    pub fn semantics(&self) -> Semantics {
        self.writer.semantics()
    }

    /// A fresh reader endpoint.
    pub fn handle(&self) -> SnapshotHandle {
        self.writer.handle()
    }

    /// The currently published snapshot.
    pub fn current(&self) -> Arc<DbSnapshot> {
        self.writer.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_syntax::{parse_program, parse_query, parse_term};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hilog-pw-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn game_db() -> HiLogDb {
        HiLogDb::new(
            parse_program(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 move(a, b). move(b, c).",
            )
            .unwrap(),
        )
    }

    fn assert_true(handle: &SnapshotHandle, query: &str) {
        let result = handle
            .current()
            .query(&parse_query(query).unwrap())
            .unwrap();
        assert!(result.is_true(), "{query} should hold");
    }

    #[test]
    fn fresh_open_writes_baseline_checkpoint() {
        let dir = temp_dir("baseline");
        let config = StoreConfig::new(&dir);
        let (writer, handle, report) = PersistentWriter::open(&config, game_db()).unwrap();
        assert!(!report.recovered);
        assert_eq!(writer.epoch(), 0);
        assert_true(&handle, "?- winning(b).");
        let stats = writer.storage_stats();
        assert!(stats.durable);
        assert_eq!(stats.last_checkpoint_epoch, Some(0));
        assert_eq!(stats.wal_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutate_drop_reopen_recovers_exactly() {
        let dir = temp_dir("recover");
        let config = StoreConfig::new(&dir);
        {
            let (mut writer, handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
            writer
                .apply_batch(&[Op::AssertFact(parse_term("move(c, d)").unwrap())])
                .unwrap();
            writer
                .apply_batch(&[
                    Op::RetractFact(parse_term("move(a, b)").unwrap()),
                    Op::AssertFact(parse_term("move(a, c)").unwrap()),
                ])
                .unwrap();
            assert_eq!(writer.epoch(), 2);
            assert_true(&handle, "?- winning(c).");
            // Simulated crash: writer dropped, no checkpoint.
        }
        let (writer, handle, report) = PersistentWriter::open(&config, game_db()).unwrap();
        assert!(report.recovered);
        assert_eq!(report.checkpoint_epoch, Some(0));
        assert_eq!(report.replayed_records, 2);
        assert_eq!(report.replayed_ops, 3);
        assert_eq!(writer.epoch(), 2);
        // One recovered base fact and one derived atom (c moves to the dead
        // end d, so c is winning).
        assert_true(&handle, "?- move(c, d).");
        assert_true(&handle, "?- winning(c).");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_reopen() {
        let dir = temp_dir("ckpt");
        let config = StoreConfig::new(&dir);
        {
            let (mut writer, _handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
            writer
                .apply_batch(&[Op::AssertFact(parse_term("move(c, d)").unwrap())])
                .unwrap();
            let outcome = writer.checkpoint().unwrap();
            assert_eq!(outcome.epoch, 1);
            assert!(outcome.path.is_some());
            let stats = writer.storage_stats();
            assert_eq!(stats.wal_records, 0);
            assert_eq!(stats.last_checkpoint_epoch, Some(1));
        }
        let (writer, handle, report) = PersistentWriter::open(&config, game_db()).unwrap();
        assert!(report.recovered);
        assert_eq!(report.checkpoint_epoch, Some(1));
        assert_eq!(report.replayed_records, 0);
        assert_eq!(writer.epoch(), 1);
        assert_true(&handle, "?- move(c, d).");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_restores_model_warm() {
        let dir = temp_dir("warm");
        let config = StoreConfig::new(&dir);
        {
            let (mut writer, _handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
            // Warm the writer-side model so the checkpoint persists it.
            writer.writer.db().model().unwrap();
            let _ = writer.checkpoint().unwrap();
        }
        let (_writer, handle, report) = PersistentWriter::open(&config, game_db()).unwrap();
        assert!(report.recovered);
        // A variable in predicate position forces the full-model route; the
        // model must come back warm from the checkpoint — answered without
        // rebuilding (and without any grounding pass).
        let result = handle
            .current()
            .query(&parse_query("?- P(a, b).").unwrap())
            .unwrap();
        assert_eq!(result.answers.len(), 1); // P = move
        assert_eq!(result.stats.model_source, hilog_engine::ModelSource::Cached);
        assert_eq!(result.stats.groundings, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_format_directory_is_refused_not_opened_fresh() {
        // What a cleanly shut-down pre-manifest server leaves: a final
        // whole-store file and an empty WAL, no manifest.
        let dir = temp_dir("retired");
        std::fs::write(dir.join("checkpoint-00000000000000000007.hsnp"), b"HSNP").unwrap();
        std::fs::write(dir.join("wal.log"), b"").unwrap();
        let err = PersistentWriter::open(&StoreConfig::new(&dir), game_db()).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(msg) if msg.contains(".hsnp")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rules_and_retract_rules_recover() {
        let dir = temp_dir("rules");
        let config = StoreConfig::new(&dir);
        let rule = parse_program("reach(X, Y) :- move(X, Y).")
            .unwrap()
            .rules
            .remove(0);
        {
            let (mut writer, _, _) = PersistentWriter::open(&config, game_db()).unwrap();
            writer.apply_batch(&[Op::AssertRule(rule.clone())]).unwrap();
            writer
                .apply_batch(&[Op::RetractFact(parse_term("move(b, c)").unwrap())])
                .unwrap();
        }
        let (writer, handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
        assert_true(&handle, "?- reach(a, b).");
        let result = handle
            .current()
            .query(&parse_query("?- reach(b, c).").unwrap())
            .unwrap();
        assert!(!result.is_true());
        assert_eq!(
            writer.program().rules.len(),
            game_db().program().rules.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_retractions_are_reported_and_replay_identically() {
        let dir = temp_dir("missing");
        let config = StoreConfig::new(&dir);
        {
            let (mut writer, _, _) = PersistentWriter::open(&config, game_db()).unwrap();
            let outcome = writer
                .apply_batch(&[
                    Op::RetractFact(parse_term("move(x, y)").unwrap()),
                    Op::AssertFact(parse_term("move(c, d)").unwrap()),
                ])
                .unwrap();
            assert_eq!(outcome.missing, vec![0]);
            assert_eq!(outcome.applied, 1);
        }
        let (writer, handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
        assert_eq!(writer.epoch(), 1);
        assert_true(&handle, "?- move(c, d).");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_checkpoint_rewrites_only_dirty_relations() {
        let dir = temp_dir("incr");
        let config = StoreConfig::new(&dir);
        {
            let (mut writer, _handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
            writer
                .apply_batch(&[Op::AssertFact(parse_term("colour(a, red)").unwrap())])
                .unwrap();
            // A full checkpoint reuses nothing: every relation (move,
            // colour) gets a segment.
            let first = writer.checkpoint().unwrap();
            assert_eq!(first.segments_written, 2);
            assert!(first.path.is_some());
            assert_eq!(writer.storage_stats().wal_records, 0, "WAL truncated");
            assert_eq!(writer.storage_stats().manifest_segments, 2);
            // Dirty only `colour`: the move segment must be reused.
            writer
                .apply_batch(&[Op::AssertFact(parse_term("colour(b, blue)").unwrap())])
                .unwrap();
            let second = writer.checkpoint_incremental().unwrap();
            assert_eq!(
                second.segments_written, 1,
                "clean relations reuse their segments"
            );
            assert!(
                second.bytes_written < first.bytes_written,
                "the incremental delta must shrink with the dirty set"
            );
            let stats = writer.storage_stats();
            assert_eq!(stats.last_checkpoint_segments, 1);
            assert_eq!(stats.last_checkpoint_bytes, second.bytes_written);
        }
        // Recovery loads the manifest + segments (model rebuilds lazily).
        let (writer, handle, report) = PersistentWriter::open(&config, game_db()).unwrap();
        assert!(report.recovered);
        assert_eq!(report.checkpoint_epoch, Some(2));
        assert_eq!(report.replayed_records, 0);
        assert_eq!(writer.epoch(), 2);
        assert_true(&handle, "?- colour(b, blue).");
        assert_true(&handle, "?- winning(b).");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_after_incremental_checkpoint_marks_relations_dirty() {
        let dir = temp_dir("incr-replay");
        let config = StoreConfig::new(&dir);
        {
            let (mut writer, _handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
            writer
                .apply_batch(&[Op::AssertFact(parse_term("colour(a, red)").unwrap())])
                .unwrap();
            writer.checkpoint_incremental().unwrap();
            // Mutate after the checkpoint, then "crash" without another one.
            writer
                .apply_batch(&[Op::AssertFact(parse_term("move(c, d)").unwrap())])
                .unwrap();
        }
        let (mut writer, handle, report) = PersistentWriter::open(&config, game_db()).unwrap();
        assert_eq!(report.checkpoint_epoch, Some(1));
        assert_eq!(report.replayed_records, 1);
        // The replayed `move` mutation must invalidate the reused segment:
        // this checkpoint has to rewrite it, or recovery below would lose
        // the replayed fact.
        let outcome = writer.checkpoint_incremental().unwrap();
        assert_eq!(outcome.segments_written, 1);
        drop(writer);
        drop(handle);
        let (_writer, handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
        assert_true(&handle, "?- move(c, d).");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_transient_append_failure_degrades_and_checkpoint_rearms() {
        use crate::io::{FaultIo, RetryPolicy};
        let dir = temp_dir("degraded");
        let io = FaultIo::over_real();
        let config = StoreConfig::new(&dir)
            .io(std::sync::Arc::new(io.clone()))
            .retry(RetryPolicy::none());
        let (mut writer, handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
        writer
            .apply_batch(&[Op::AssertFact(parse_term("move(c, d)").unwrap())])
            .unwrap();
        let epoch = writer.epoch();
        // The disk dies mid-serving: the next batch must fail, not apply,
        // and drop the writer into read-only degraded mode.
        io.fail_from(io.ops());
        let err = writer
            .apply_batch(&[Op::AssertFact(parse_term("move(d, e)").unwrap())])
            .unwrap_err();
        assert!(
            matches!(err, StoreError::Io(_)),
            "first failure is the I/O error"
        );
        assert_eq!(writer.epoch(), epoch, "unlogged batch was not applied");
        let state = writer.degraded().expect("writer is degraded").clone();
        assert_eq!(state.since_epoch, epoch);
        // Further mutations are refused up front with the structured error.
        let err = writer
            .apply_batch(&[Op::AssertFact(parse_term("move(d, e)").unwrap())])
            .unwrap_err();
        assert!(matches!(err, StoreError::Degraded { .. }));
        // Queries keep answering from the last good snapshot.
        assert_true(&handle, "?- winning(c).");
        // Operator frees space; a checkpoint that reaches disk re-arms.
        io.heal();
        writer.checkpoint().unwrap();
        assert!(writer.degraded().is_none(), "successful checkpoint re-arms");
        writer
            .apply_batch(&[Op::AssertFact(parse_term("move(d, e)").unwrap())])
            .unwrap();
        assert_true(&handle, "?- move(d, e).");
        // The whole history survives a reopen with a clean backend.
        drop(writer);
        drop(handle);
        let (_writer, handle, report) =
            PersistentWriter::open(&StoreConfig::new(&dir), game_db()).unwrap();
        assert!(report.recovered);
        assert_true(&handle, "?- move(c, d).");
        assert_true(&handle, "?- move(d, e).");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_fault_is_absorbed_by_retry_and_counted() {
        use crate::io::FaultIo;
        let dir = temp_dir("retry");
        let io = FaultIo::over_real();
        let config = StoreConfig::new(&dir).io(std::sync::Arc::new(io.clone()));
        let (mut writer, handle, _) = PersistentWriter::open(&config, game_db()).unwrap();
        // One-shot fault on the next WAL write: the default retry policy
        // must absorb it without the caller noticing.
        io.fail_nth(io.ops());
        writer
            .apply_batch(&[Op::AssertFact(parse_term("move(c, d)").unwrap())])
            .unwrap();
        assert!(writer.degraded().is_none());
        assert_true(&handle, "?- winning(c).");
        let stats = writer.storage_stats();
        assert!(stats.io_retries >= 1, "the retry was counted");
        assert!(stats.injected_faults >= 1, "the fault was counted");
        assert!(stats.io_ops > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_backend_reports_not_durable() {
        let (mut writer, handle) = PersistentWriter::in_memory(game_db());
        writer
            .apply_batch(&[Op::AssertFact(parse_term("move(c, d)").unwrap())])
            .unwrap();
        assert_true(&handle, "?- winning(c).");
        let stats = writer.storage_stats();
        assert!(!stats.durable);
        let outcome = writer.checkpoint().unwrap();
        assert!(outcome.path.is_none());
    }
}
