//! Recovery points: per-relation segment files + a manifest.
//!
//! A recovery point captures everything the writer cannot rebuild from
//! thin air — the program's rules (initial + asserted, minus retracted) —
//! stamped with the epoch it represents and the semantics it answers
//! under.  Derived state (models, grounding, per-argument indexes, subgoal
//! tables) deliberately stays out: it rebuilds lazily on first use, which
//! keeps recovery points compact and the format stable under
//! engine-internal changes, and means no torn cache file can cost a
//! recovery point its committed epochs.
//!
//! ## Files
//!
//! Every file is `[magic][version: u32 LE][crc32(payload): u32 LE][payload]`
//! with a [`hilog_core::PayloadWriter`] payload, written through a temp file +
//! `fsync` + atomic rename, and immutable once renamed into place.
//!
//! * **Segment** (`rel-<hash:016x>-<epoch:020>.hseg`, magic `HSEG`) — the
//!   facts of *one* relation (one predicate key: name term + arity).  The
//!   hash is FNV-1a over the key's codec bytes, fixed per key text across
//!   processes, and each manifest entry records the one its file carries.
//! * **Manifest** (`manifest-<epoch:020>.hman`, magic `HMAN`) — the
//!   recovery point itself: the epoch, the semantics, every *non-fact* rule
//!   (always rewritten — the rules blob is tiny next to the fact payload),
//!   one entry per relation naming the segment that holds its facts, and
//!   a flag byte written as 0.  Directories written before models left the
//!   recovery point set it to 1 beside a `model-<epoch:020>.hmod` file;
//!   recovery reads the flag, never opens the file, and the next prune
//!   deletes it.
//!
//! ## Full and incremental checkpoints
//!
//! Both are one call, [`commit_checkpoint`].  A *full* checkpoint reuses
//! nothing: every relation gets a fresh segment at the checkpoint's epoch,
//! so the recovery point is self-contained.  An *incremental* one writes new
//! segments only for relations dirtied since the previous manifest and
//! copies every clean relation's entry forward, re-pointing at segments
//! earlier checkpoints wrote.
//!
//! Either way the files a manifest names are in place before it is, and no
//! file is deleted until a newer manifest is durable, so a crash leaves the
//! old recovery point or the new one, whole.  [`load_latest_recovery`] takes
//! the newest manifest that validates end-to-end, falling back to older ones
//! when a manifest, or any file it names, is torn, stale or missing.

use crate::error::StoreError;
use crate::io::{OpenMode, StoreIo};
use hilog_core::{crc32, PayloadReader, PayloadWriter, Program, Rule, Term, TermMap};
use hilog_engine::Semantics;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const SEGMENT_MAGIC: &[u8; 4] = b"HSEG";
const MANIFEST_MAGIC: &[u8; 4] = b"HMAN";
const VERSION: u32 = 1;

const SEM_WELL_FOUNDED: u8 = 0;
const SEM_STABLE: u8 = 1;
const SEM_MODULAR: u8 = 2;

/// The state a checkpoint captures and recovery hands back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointData {
    /// The published epoch this state corresponds to.
    pub epoch: u64,
    /// The semantics the session answers under.
    pub semantics: Semantics,
    /// The full current program (rules + facts).
    pub program: Program,
}

fn semantics_tag(semantics: Semantics) -> u8 {
    match semantics {
        Semantics::WellFounded => SEM_WELL_FOUNDED,
        Semantics::Stable => SEM_STABLE,
        Semantics::ModularCheck => SEM_MODULAR,
    }
}

fn semantics_from_tag(tag: u8) -> Result<Semantics, StoreError> {
    Ok(match tag {
        SEM_WELL_FOUNDED => Semantics::WellFounded,
        SEM_STABLE => Semantics::Stable,
        SEM_MODULAR => Semantics::ModularCheck,
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown semantics tag {other}"
            )))
        }
    })
}

/// The unit of incremental persistence: one relation, identified the way
/// [`hilog_engine::AtomStore`] buckets atoms — the predicate-position name
/// term (for a HiLog atom like `winning(g)(x)` that is the *instance*
/// `winning(g)`) plus the arity (`None` for a bare symbol asserted as a
/// fact).
pub type RelKey = (Term, Option<usize>);

/// The relation key of a ground fact.
pub fn rel_key(fact: &Term) -> RelKey {
    (fact.name().clone(), fact.arity())
}

/// The number a new segment of `key` is named by: FNV-1a (64-bit) over the
/// key's codec payload, the bytes [`write_key`] puts in the segment itself.
/// It depends on the key's text only — never on `impl Hash`, whose values
/// are per process (symbols hash by address, maps by a per-process seed) —
/// so a file name means the same relation in every process.  Loading never
/// recomputes it: an entry carries the hash its file was named with.
fn key_hash(key: &RelKey) -> u64 {
    let mut writer = PayloadWriter::new();
    write_key(&mut writer, key);
    fnv1a(&writer.finish())
}

/// FNV-1a (64-bit): a digest of bytes that is the same in every process.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One manifest entry: where a relation's facts live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The relation this segment holds.
    pub key: RelKey,
    /// The number fixed into the segment file name when it was written
    /// (see `key_hash`); kept as written, never recomputed.
    pub hash: u64,
    /// The checkpoint epoch that wrote the segment (part of the file name,
    /// so a rewrite never clobbers a file an older manifest still names).
    pub epoch: u64,
    /// Facts in the segment.
    pub facts: u32,
    /// File size in bytes (observability: the reused-vs-rewritten split).
    pub bytes: u64,
}

impl SegmentEntry {
    /// The segment's file name inside the data directory.
    pub fn file_name(&self) -> String {
        segment_file_name(self.hash, self.epoch)
    }
}

/// The canonical segment file name for a relation-hash at a checkpoint
/// epoch.
pub fn segment_file_name(hash: u64, epoch: u64) -> String {
    format!("rel-{hash:016x}-{epoch:020}.hseg")
}

/// The canonical manifest file name (zero-padded: lexicographic order is
/// numeric order).
pub fn manifest_file_name(epoch: u64) -> String {
    format!("manifest-{epoch:020}.hman")
}

fn parse_manifest_epoch(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("manifest-")?.strip_suffix(".hman")?;
    digits.parse().ok()
}

/// A recovery point: what one manifest file carries, plus the entries
/// needed to *extend* it (the next incremental checkpoint copies clean
/// entries forward from here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The published epoch this recovery point corresponds to.
    pub epoch: u64,
    /// The semantics the session answers under.
    pub semantics: Semantics,
    /// Every non-fact rule of the program (facts live in the segments).
    pub rules: Vec<Rule>,
    /// One entry per non-empty relation.
    pub entries: Vec<SegmentEntry>,
}

fn write_framed(
    io: &dyn StoreIo,
    dir: &Path,
    name: &str,
    magic: &[u8; 4],
    payload: &[u8],
) -> Result<u64, StoreError> {
    let mut bytes = Vec::with_capacity(payload.len() + 12);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    {
        let mut tmp = io.open(&tmp_path, OpenMode::Truncate)?;
        tmp.write_all(&bytes)?;
        tmp.sync_data()?;
    }
    io.rename(&tmp_path, &final_path)?;
    Ok(bytes.len() as u64)
}

fn read_framed(io: &dyn StoreIo, path: &Path, magic: &[u8; 4]) -> Result<Vec<u8>, StoreError> {
    let mut bytes = io.read(path)?;
    if bytes.len() < 12 || &bytes[..4] != magic {
        return Err(StoreError::Corrupt(format!(
            "{} is not a {} file",
            path.display(),
            String::from_utf8_lossy(magic)
        )));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported version {version} in {}",
            path.display()
        )));
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if crc32(&bytes[12..]) != crc {
        return Err(StoreError::Corrupt(format!(
            "checksum mismatch in {}",
            path.display()
        )));
    }
    bytes.drain(..12);
    Ok(bytes)
}

fn write_key(writer: &mut PayloadWriter, key: &RelKey) {
    writer.write_term(&key.0);
    match key.1 {
        None => writer.write_u8(0),
        Some(arity) => {
            writer.write_u8(1);
            writer.write_u32(arity as u32);
        }
    }
}

fn read_key(reader: &mut PayloadReader<'_>) -> Result<RelKey, StoreError> {
    let name = reader.read_term()?;
    let arity = match reader.read_u8()? {
        0 => None,
        1 => Some(reader.read_u32()? as usize),
        other => {
            return Err(StoreError::Corrupt(format!("unknown arity flag {other}")));
        }
    };
    Ok((name, arity))
}

fn write_terms<'a>(writer: &mut PayloadWriter, terms: impl IntoIterator<Item = &'a Term>) {
    let terms: Vec<&Term> = terms.into_iter().collect();
    writer.write_u32(terms.len() as u32);
    for term in terms {
        writer.write_term(term);
    }
}

fn read_terms(reader: &mut PayloadReader<'_>) -> Result<Vec<Term>, StoreError> {
    // Each term is one id.
    let count = reader.read_count(4)?;
    let mut terms = Vec::with_capacity(count);
    for _ in 0..count {
        terms.push(reader.read_term()?);
    }
    Ok(terms)
}

fn expect_end(reader: &PayloadReader<'_>, what: &str) -> Result<(), StoreError> {
    if !reader.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing byte(s) in {what} payload",
            reader.remaining()
        )));
    }
    Ok(())
}

/// Writes one relation's segment for checkpoint `epoch` and returns its
/// manifest entry.  Temp + fsync + rename: the file is durable (modulo the
/// directory fsync the manifest commit performs) before the manifest that
/// names it can exist.
pub fn write_segment(
    io: &dyn StoreIo,
    dir: &Path,
    key: &RelKey,
    epoch: u64,
    facts: &[Term],
) -> Result<SegmentEntry, StoreError> {
    let payload = encode_segment(key, facts);
    let hash = key_hash(key);
    let bytes = write_framed(
        io,
        dir,
        &segment_file_name(hash, epoch),
        SEGMENT_MAGIC,
        &payload,
    )?;
    Ok(SegmentEntry {
        key: key.clone(),
        hash,
        epoch,
        facts: facts.len() as u32,
        bytes,
    })
}

/// The payload of a segment holding `facts` of relation `key`.
pub(crate) fn encode_segment(key: &RelKey, facts: &[Term]) -> Vec<u8> {
    // About one `App` per fact, and a new argument symbol every few facts.
    let mut writer = PayloadWriter::with_capacity(facts.len() + facts.len() / 4 + 1);
    write_key(&mut writer, key);
    write_terms(&mut writer, facts);
    writer.finish()
}

/// Reads and validates one segment, checking it holds the relation its
/// manifest entry claims (count included — a stale same-name file from a
/// different run fails here instead of silently changing the program).
pub fn load_segment(
    io: &dyn StoreIo,
    dir: &Path,
    entry: &SegmentEntry,
) -> Result<Vec<Term>, StoreError> {
    let path = dir.join(entry.file_name());
    let payload = read_framed(io, &path, SEGMENT_MAGIC)?;
    decode_segment(&payload, &path, entry)
}

/// The facts of a segment payload read from `path`, checked against `entry`.
pub(crate) fn decode_segment(
    payload: &[u8],
    path: &Path,
    entry: &SegmentEntry,
) -> Result<Vec<Term>, StoreError> {
    let mut reader = PayloadReader::new(payload)?;
    let key = read_key(&mut reader)?;
    if key != entry.key {
        return Err(StoreError::Corrupt(format!(
            "{} holds relation `{}` but the manifest expects `{}`",
            path.display(),
            key.0,
            entry.key.0
        )));
    }
    let facts = read_terms(&mut reader)?;
    if facts.len() != entry.facts as usize {
        return Err(StoreError::Corrupt(format!(
            "{} holds {} fact(s) but the manifest expects {}",
            path.display(),
            facts.len(),
            entry.facts
        )));
    }
    expect_end(&reader, "segment")?;
    Ok(facts)
}

/// Writes the manifest file for `manifest.epoch` (temp + fsync + rename)
/// and returns its size.  Every file it names must already be in place.
fn write_manifest(io: &dyn StoreIo, dir: &Path, manifest: &Manifest) -> Result<u64, StoreError> {
    let payload = encode_manifest(manifest);
    let name = manifest_file_name(manifest.epoch);
    write_framed(io, dir, &name, MANIFEST_MAGIC, &payload)
}

/// The payload of a manifest file.
pub(crate) fn encode_manifest(manifest: &Manifest) -> Vec<u8> {
    let mut writer = PayloadWriter::new();
    writer.write_u64(manifest.epoch);
    writer.write_u8(semantics_tag(manifest.semantics));
    writer.write_u32(manifest.rules.len() as u32);
    for rule in &manifest.rules {
        writer.write_rule(rule);
    }
    writer.write_u32(manifest.entries.len() as u32);
    for entry in &manifest.entries {
        write_key(&mut writer, &entry.key);
        writer.write_u64(entry.hash);
        writer.write_u64(entry.epoch);
        writer.write_u32(entry.facts);
        writer.write_u64(entry.bytes);
    }
    // The model flag of the format's version 1: no model file is written.
    writer.write_u8(0);
    writer.finish()
}

/// Reads and validates one manifest file (not its segments — see
/// [`load_manifest_data`] for the end-to-end load).
pub fn load_manifest(io: &dyn StoreIo, path: &Path) -> Result<Manifest, StoreError> {
    let payload = read_framed(io, path, MANIFEST_MAGIC)?;
    decode_manifest(&payload)
}

/// The manifest a manifest-file payload holds.
pub(crate) fn decode_manifest(payload: &[u8]) -> Result<Manifest, StoreError> {
    let mut reader = PayloadReader::new(payload)?;
    let epoch = reader.read_u64()?;
    let semantics = semantics_from_tag(reader.read_u8()?)?;
    // A rule is at least a head id and a body length.
    let rule_count = reader.read_count(8)?;
    let mut rules = Vec::with_capacity(rule_count);
    for _ in 0..rule_count {
        rules.push(reader.read_rule()?);
    }
    // An entry is at least a key (term id + arity flag), hash, epoch,
    // fact count and size.
    let entry_count = reader.read_count(4 + 1 + 8 + 8 + 4 + 8)?;
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let key = read_key(&mut reader)?;
        let hash = reader.read_u64()?;
        let epoch = reader.read_u64()?;
        let facts = reader.read_u32()?;
        let bytes = reader.read_u64()?;
        entries.push(SegmentEntry {
            key,
            hash,
            epoch,
            facts,
            bytes,
        });
    }
    // The model flag: 1 named a model file, which recovery no longer reads
    // (a model is derived state and rebuilds on first use).
    match reader.read_u8()? {
        0 | 1 => {}
        other => return Err(StoreError::Corrupt(format!("unknown model flag {other}"))),
    }
    expect_end(&reader, "manifest")?;
    Ok(Manifest {
        epoch,
        semantics,
        rules,
        entries,
    })
}

/// Loads the full state a manifest describes: its rules and every segment's
/// facts.  Fails if *any* segment is missing, torn, or holds a different
/// relation than the manifest claims — the caller then falls back to an
/// older recovery point.
pub fn load_manifest_data(
    io: &dyn StoreIo,
    dir: &Path,
    manifest: &Manifest,
) -> Result<CheckpointData, StoreError> {
    let mut program = Program::new();
    for rule in &manifest.rules {
        program.push(rule.clone());
    }
    for entry in &manifest.entries {
        for fact in load_segment(io, dir, entry)? {
            program.push(Rule::fact(fact));
        }
    }
    Ok(CheckpointData {
        epoch: manifest.epoch,
        semantics: manifest.semantics,
        program,
    })
}

/// Every manifest in `dir`, newest epoch first.
pub fn manifest_candidates(
    io: &dyn StoreIo,
    dir: &Path,
) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    for name in io.list_dir(dir)? {
        if let Some(epoch) = parse_manifest_epoch(&name) {
            candidates.push((epoch, dir.join(name)));
        }
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    Ok(candidates)
}

/// The newest recovery point that validates end-to-end: walks the manifests
/// newest epoch first, skipping (but not deleting) any that is torn, stale,
/// or names a missing file.  With the WAL already truncated a fallback can
/// lose epochs, but it recovers a consistent (older) state instead of
/// nothing.  `Ok(None)` when no manifest loads.
pub fn load_latest_recovery(
    io: &dyn StoreIo,
    dir: &Path,
) -> Result<Option<(CheckpointData, Manifest)>, StoreError> {
    for (_, path) in manifest_candidates(io, dir)? {
        let loaded =
            load_manifest(io, &path).and_then(|m| Ok((load_manifest_data(io, dir, &m)?, m)));
        match loaded {
            Ok(recovery) => return Ok(Some(recovery)),
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(StoreError::Corrupt(_) | StoreError::Codec(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Commits the next recovery point — segments, then the manifest that names
/// them, then a directory fsync — and returns the manifest, how many segments were
/// written, and the bytes added.  An error (the directory fsync's included)
/// means the recovery point may not be durable: the caller must neither
/// prune older ones nor truncate the WAL.
///
/// `reuse` is the previous manifest plus the relations dirtied since it —
/// an incremental checkpoint; `None` is a full one.
pub fn commit_checkpoint(
    io: &dyn StoreIo,
    dir: &Path,
    data: &CheckpointData,
    reuse: Option<(&Manifest, &BTreeSet<RelKey>)>,
) -> Result<(Manifest, usize, u64), StoreError> {
    let mut rules = Vec::new();
    let mut facts: BTreeMap<RelKey, Vec<Term>> = BTreeMap::new();
    for rule in &data.program.rules {
        if rule.is_fact() {
            facts
                .entry(rel_key(&rule.head))
                .or_default()
                .push(rule.head.clone());
        } else {
            rules.push(rule.clone());
        }
    }
    let reusable: TermMap<&RelKey, &SegmentEntry> = reuse
        .map(|(previous, dirty)| {
            let clean = previous.entries.iter().filter(|e| !dirty.contains(&e.key));
            clean.map(|e| (&e.key, e)).collect()
        })
        .unwrap_or_default();
    let mut entries = Vec::with_capacity(facts.len());
    let mut written = 0usize;
    let mut delta_bytes = 0u64;
    for (key, relation_facts) in &facts {
        match reusable.get(key) {
            Some(entry) => entries.push((*entry).clone()),
            None => {
                let entry = write_segment(io, dir, key, data.epoch, relation_facts)?;
                written += 1;
                delta_bytes += entry.bytes;
                entries.push(entry);
            }
        }
    }
    let manifest = Manifest {
        epoch: data.epoch,
        semantics: data.semantics,
        rules,
        entries,
    };
    delta_bytes += write_manifest(io, dir, &manifest)?;
    io.sync_dir(dir)?;
    Ok((manifest, written, delta_bytes))
}

/// Deletes all but the newest `keep` manifests, every segment no retained
/// manifest names, every model file (no manifest names one any more: they
/// are what directories written before models left the recovery point
/// still hold), and stray `.tmp` files.  A manifest that
/// fails to parse is *kept* (deleting it could orphan the fallback chain the
/// loader walks); its files stay pinned only if a parsable manifest names
/// them.  A retained manifest that cannot be *read* fails the prune before
/// anything is deleted: the files it names are unknown, not unreferenced.
pub fn prune_incremental(io: &dyn StoreIo, dir: &Path, keep: usize) -> Result<usize, StoreError> {
    let candidates = manifest_candidates(io, dir)?;
    let keep = keep.max(1);
    let mut referenced: BTreeSet<String> = BTreeSet::new();
    for (_, path) in candidates.iter().take(keep) {
        let manifest = match load_manifest(io, path) {
            Ok(manifest) => manifest,
            Err(StoreError::Corrupt(_) | StoreError::Codec(_)) => continue,
            Err(e) => return Err(e),
        };
        for entry in &manifest.entries {
            referenced.insert(entry.file_name());
        }
    }
    let mut removed = 0usize;
    for (_, path) in candidates.into_iter().skip(keep) {
        io.remove_file(&path)?;
        removed += 1;
    }
    for name in io.list_dir(dir)? {
        let is_segment = name.starts_with("rel-") && name.ends_with(".hseg");
        let is_model = name.starts_with("model-") && name.ends_with(".hmod");
        let is_stray_tmp = name.ends_with(".tmp")
            && ["rel-", "model-", "manifest-"]
                .iter()
                .any(|prefix| name.starts_with(prefix));
        if is_stray_tmp || is_model || (is_segment && !referenced.contains(&name)) {
            io.remove_file(&dir.join(name))?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RealIo;
    use hilog_syntax::{parse_program, parse_term};
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn real() -> RealIo {
        RealIo::new()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hilog-man-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn data(epoch: u64, program: &Program) -> CheckpointData {
        CheckpointData {
            epoch,
            semantics: Semantics::WellFounded,
            program: program.clone(),
        }
    }

    fn sample_program() -> Program {
        parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).\n\
             edge(a, b). edge(b, c). colour(a, red).",
        )
        .unwrap()
    }

    #[test]
    fn segment_roundtrip() {
        let dir = temp_dir("seg");
        let key = rel_key(&parse_term("edge(a, b)").unwrap());
        let facts = vec![
            parse_term("edge(a, b)").unwrap(),
            parse_term("edge(b, c)").unwrap(),
        ];
        let entry = write_segment(&real(), &dir, &key, 3, &facts).unwrap();
        assert_eq!(entry.facts, 2);
        assert_eq!(load_segment(&real(), &dir, &entry).unwrap(), facts);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrip_reconstructs_program() {
        let dir = temp_dir("roundtrip");
        let program = sample_program();
        let (manifest, written, _) =
            commit_checkpoint(&real(), &dir, &data(5, &program), None).unwrap();
        assert_eq!(written, 2, "edge and colour each get a segment");
        let loaded = load_manifest(&real(), &dir.join(manifest_file_name(5))).unwrap();
        assert_eq!(loaded, manifest);
        let rebuilt = load_manifest_data(&real(), &dir, &loaded).unwrap().program;
        let mut original: Vec<String> = program.rules.iter().map(|r| r.to_string()).collect();
        let mut recovered: Vec<String> = rebuilt.rules.iter().map(|r| r.to_string()).collect();
        original.sort();
        recovered.sort();
        assert_eq!(original, recovered);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_has_no_recovery_point() {
        let dir = temp_dir("empty");
        assert!(load_latest_recovery(&real(), &dir).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_relations_reuse_segments() {
        let dir = temp_dir("reuse");
        let program = sample_program();
        let (first, _, _) = commit_checkpoint(&real(), &dir, &data(1, &program), None).unwrap();
        // Dirty only `colour`: the edge segment must be copied forward.
        let mut program = program;
        program.push(Rule::fact(parse_term("colour(b, blue)").unwrap()));
        let dirty: BTreeSet<RelKey> = [rel_key(&parse_term("colour(b, blue)").unwrap())].into();
        let (second, written, _) =
            commit_checkpoint(&real(), &dir, &data(2, &program), Some((&first, &dirty))).unwrap();
        assert_eq!(written, 1, "only the dirty relation is rewritten");
        let edge_key = rel_key(&parse_term("edge(a, b)").unwrap());
        let edge = second.entries.iter().find(|e| e.key == edge_key).unwrap();
        assert_eq!(edge.epoch, 1, "clean segment reused from the old epoch");
        let colour_key = rel_key(&parse_term("colour(a, red)").unwrap());
        let colour = second.entries.iter().find(|e| e.key == colour_key).unwrap();
        assert_eq!(colour.epoch, 2);
        assert_eq!(colour.facts, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_drops_unreferenced_segments_and_old_manifests() {
        let dir = temp_dir("prune");
        let mut program = sample_program();
        let (first, _, _) = commit_checkpoint(&real(), &dir, &data(1, &program), None).unwrap();
        // Dirty `edge` twice so two superseded edge segments accumulate.
        let dirty: BTreeSet<RelKey> = [rel_key(&parse_term("edge(a, b)").unwrap())].into();
        program.push(Rule::fact(parse_term("edge(c, d)").unwrap()));
        let (second, _, _) =
            commit_checkpoint(&real(), &dir, &data(2, &program), Some((&first, &dirty))).unwrap();
        program.push(Rule::fact(parse_term("edge(d, e)").unwrap()));
        let (third, _, _) =
            commit_checkpoint(&real(), &dir, &data(3, &program), Some((&second, &dirty))).unwrap();
        fs::write(dir.join("rel-junk.tmp"), b"junk").unwrap();
        prune_incremental(&real(), &dir, 1).unwrap();
        // Only the newest manifest and exactly its segments survive.
        let segs: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.ends_with(".hseg"))
            .collect();
        assert_eq!(segs.len(), third.entries.len());
        for entry in &third.entries {
            assert!(segs.contains(&entry.file_name()));
        }
        assert!(!dir.join(manifest_file_name(1)).exists());
        assert!(!dir.join(manifest_file_name(2)).exists());
        assert!(dir.join(manifest_file_name(3)).exists());
        assert!(!dir.join("rel-junk.tmp").exists());
        // The surviving manifest still loads end-to-end.
        let loaded = load_manifest(&real(), &dir.join(manifest_file_name(3))).unwrap();
        load_manifest_data(&real(), &dir, &loaded).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    fn sorted_rules(program: &Program) -> Vec<String> {
        let mut rules: Vec<String> = program.rules.iter().map(|r| r.to_string()).collect();
        rules.sort();
        rules
    }

    #[test]
    fn a_segment_name_depends_on_the_key_text_only() {
        // Golden: the name is a function of the key's codec bytes, the same
        // in every process and however the key's terms were built.
        let key = rel_key(&parse_term("edge(a, b)").unwrap());
        assert_eq!(
            segment_file_name(key_hash(&key), 7),
            "rel-1e5c413f42bbea48-00000000000000000007.hseg"
        );
        let built = (hilog_core::Term::sym("edge"), Some(2));
        assert_eq!(key_hash(&built), key_hash(&key));
        assert_ne!(key_hash(&(built.0.clone(), Some(3))), key_hash(&key));
        assert_ne!(key_hash(&(built.0, None)), key_hash(&key));
    }

    #[test]
    fn a_manifest_whose_entry_hashes_key_hash_would_not_produce_still_loads() {
        // Data directories written before segment names came from codec
        // bytes name their segments by other numbers; every entry carries
        // its own, so they recover, extend and prune as before.
        let dir = temp_dir("foreign-hash");
        let program = sample_program();
        let (mut manifest, _, _) =
            commit_checkpoint(&real(), &dir, &data(4, &program), None).unwrap();
        for (i, entry) in manifest.entries.iter_mut().enumerate() {
            let foreign = 0xdead_beef_0000_0000 | i as u64;
            assert_ne!(foreign, key_hash(&entry.key));
            let renamed = segment_file_name(foreign, entry.epoch);
            fs::rename(dir.join(entry.file_name()), dir.join(renamed)).unwrap();
            entry.hash = foreign;
        }
        write_manifest(&real(), &dir, &manifest).unwrap();
        let (loaded, loaded_manifest) = load_latest_recovery(&real(), &dir).unwrap().unwrap();
        assert_eq!(loaded_manifest, manifest);
        assert_eq!(sorted_rules(&loaded.program), sorted_rules(&program));

        // An incremental checkpoint copies the foreign entries forward and
        // names only the dirty relation's new segment by `key_hash`.
        let mut program = program;
        let blue = parse_term("colour(b, blue)").unwrap();
        program.push(Rule::fact(blue.clone()));
        let dirty: BTreeSet<RelKey> = [rel_key(&blue)].into();
        let (next, written, _) =
            commit_checkpoint(&real(), &dir, &data(5, &program), Some((&manifest, &dirty)))
                .unwrap();
        assert_eq!(written, 1);
        for entry in &next.entries {
            if entry.key == rel_key(&blue) {
                assert_eq!(entry.hash, key_hash(&entry.key));
            } else {
                assert_eq!(entry.hash >> 32, 0xdead_beef, "copied forward as written");
            }
        }
        prune_incremental(&real(), &dir, 1).unwrap();
        let (loaded, _) = load_latest_recovery(&real(), &dir).unwrap().unwrap();
        assert_eq!(loaded.epoch, 5);
        assert_eq!(sorted_rules(&loaded.program), sorted_rules(&program));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_segment_fails_manifest_load() {
        let dir = temp_dir("torn");
        let program = sample_program();
        let (manifest, _, _) = commit_checkpoint(&real(), &dir, &data(1, &program), None).unwrap();
        // Truncate one segment mid-payload.
        let victim = dir.join(manifest.entries[0].file_name());
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            load_manifest_data(&real(), &dir, &manifest),
            Err(StoreError::Corrupt(_) | StoreError::Codec(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fixed_checkpoint_writes_the_pinned_files() {
        // A HiLog relation with ints, an arity-9 one, repeated subterms, and
        // rules with `not`, a builtin and an aggregate.
        let dir = temp_dir("pinned");
        let base = "tc(G)(X, Y) :- graph(G), G(X, Y), not blocked(X).\n\
                    tc(G)(X, Z) :- graph(G), G(X, Y), tc(G)(Y, Z), Z \\= X.\n\
                    graph(e1). e1(p0, p1). e1(p1, p2). e1(p2, p0). blocked(p2).\n\
                    cost(f(a, b), 12). cost(g(f(a, b), f(a, b)), -3).\n\
                    wide(1, 2, 3, 4, 5, 6, 7, 8, 9).\n";
        let program = parse_program(&format!("{base}total(N) :- N = sum(Q, cost(P, Q)).")).unwrap();
        let (manifest, written, _) =
            commit_checkpoint(&real(), &dir, &data(9, &program), None).unwrap();
        assert_eq!(written, 5);
        let mut files: Vec<String> = manifest.entries.iter().map(|e| e.file_name()).collect();
        files.push(manifest_file_name(9));
        let pinned: Vec<(String, usize, String)> = files
            .into_iter()
            .map(|name| {
                let bytes = fs::read(dir.join(&name)).unwrap();
                (name, bytes.len(), format!("{:016x}", fnv1a(&bytes)))
            })
            .collect();
        // Captured from the structural writer this codec replaced; the
        // manifest re-pinned when its model flag became a constant 0 (the
        // frame's checksum and that byte are all that moved).
        let expected = [
            (
                "rel-e4eed198e1d3ff23-00000000000000000009.hseg",
                77,
                "3833c626a6b51e71",
            ),
            (
                "rel-839e355d7df94ba8-00000000000000000009.hseg",
                180,
                "3e2eb5817e9e7cf8",
            ),
            (
                "rel-67ce351da8e74ee9-00000000000000000009.hseg",
                140,
                "f40e60262bd9e4fa",
            ),
            (
                "rel-b5fe7d04af2c3ca9-00000000000000000009.hseg",
                75,
                "4d02fb589a6f1501",
            ),
            (
                "rel-8b03e18e77b32d6d-00000000000000000009.hseg",
                176,
                "f002ee9392342510",
            ),
            (
                "manifest-00000000000000000009.hman",
                628,
                "69daed6c9017c9cb",
            ),
        ];
        let expected: Vec<(String, usize, String)> = expected
            .iter()
            .map(|&(name, len, digest)| (name.to_string(), len, digest.to_string()))
            .collect();
        assert_eq!(pinned, expected);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_term_count_the_payload_cannot_hold_is_an_error() {
        // Empty tables, then `u32::MAX` terms.
        let mut payload = vec![0u8; 8];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = PayloadReader::new(&payload).unwrap();
        assert!(read_terms(&mut reader).is_err());
    }

    fn load_framed_manifest(tag: &str, payload: &[u8]) -> Result<Manifest, StoreError> {
        let dir = temp_dir(tag);
        let name = manifest_file_name(1);
        write_framed(&real(), &dir, &name, MANIFEST_MAGIC, payload).unwrap();
        let loaded = load_manifest(&real(), &dir.join(name));
        fs::remove_dir_all(&dir).ok();
        loaded
    }

    #[test]
    fn a_rule_count_the_manifest_cannot_hold_is_an_error() {
        // Empty tables, epoch 0, well-founded, then `u32::MAX` rules.
        let mut payload = vec![0u8; 17];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(load_framed_manifest("rule-count", &payload).is_err());
    }

    #[test]
    fn an_entry_count_the_manifest_cannot_hold_is_an_error() {
        // Empty tables, epoch 0, well-founded, no rules, then `u32::MAX`
        // entries.
        let mut payload = vec![0u8; 21];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(load_framed_manifest("entry-count", &payload).is_err());
    }
}
