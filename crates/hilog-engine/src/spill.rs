//! The spill-to-disk backend of [`crate::storage::FactStore`].
//!
//! A [`SpillStore`] holds the same logical content as an
//! [`crate::horn::AtomStore`] but pages *cold relations' fact payloads* out
//! to the store's segment file: every relation keeps its bookkeeping —
//! per-argument-position hash indexes, the structural-hash membership map,
//! insertion order — in memory, while the decoded `Term` payloads of rows
//! in relations that have not been probed recently are dropped after being
//! appended (once) to the segment.  A later probe *faults*
//! the rows it actually needs back in with positioned reads
//! (`pread`-style `read_at`; the OS page cache is the paging layer — the
//! build environment has no mmap crate, and positioned reads over a cached
//! file are what a read-only mmap would give us without the unsafety).
//!
//! Consequences of the layout:
//!
//! * A bound probe (`for_each_candidate` with a ground argument) walks one
//!   posting list and decodes only those rows — interactive latency even
//!   when the fact base is much larger than the residency budget.
//! * `contains` confirms a structural-hash hit by decoding at most the few
//!   hash-colliding rows.
//! * Full scans (unbound patterns over a cold relation) fault the whole
//!   relation back in — correct, visible in the fault counters, and priced
//!   exactly like the cold read it is.
//!
//! Segment files are append-only and process-lifetime: they are a *cache*,
//! not durable state (durability is `hilog-store`'s WAL + checkpoints), so
//! no fsync, no recovery, and clones of a store (the session publishes its
//! program index into snapshots via `Arc::make_mut`) share the same
//! append-only segment — offsets recorded by either clone stay valid
//! because nothing is ever overwritten or truncated.  Every store has a
//! segment file of its own in the configured directory, removed with the
//! store's last clone, so stores configured with one directory (the program
//! indexes of every session built with one [`crate::StorageConfig`]) never
//! touch each other's bytes.
//!
//! The membership map's hash is [`hash_one`], the engine's one term hasher:
//! per process, never written to disk.
//!
//! Eviction is relation-LRU: when the decoded-payload count exceeds the
//! budget, the least-recently-probed relations are paged out first, so hot
//! relations stay resident end to end.  A segment write that fails keeps its
//! rows resident — a degraded cache, never a wrong answer — and is counted as
//! a `spill_io_error`: per store in [`RelationStorageStats`] (the server's
//! `GET /stats`), per thread in [`crate::ambient`].  The write path has no
//! fault-injection hook; the unit tests arm a test-build-only plan on the
//! store's `SpillDir`.

use crate::ambient::count;
use crate::storage::RelationStorageStats;
use hilog_core::{hash_one, PayloadReader, PayloadWriter, Term, TermMap};
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Process-unique suffix for spill segment names.
static SPILL_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One store's place on disk, shared by every clone of that store and by no
/// other store: a segment file of its own in the configured directory (the
/// system temp dir when none is configured), created on the first page-out
/// and removed when the last clone drops.
///
/// Every relation of the store and every clone appends to that one
/// [`Segment`] through its one `end`, so no two appenders ever hold separate
/// ends over the same file — which is what happened when segments were named
/// by relation and two stores (or two clones) paged out the same one.
#[derive(Debug)]
struct SpillDir {
    /// The segment file's path, unique among live stores (pid + counter).
    path: PathBuf,
    /// The segment, once the store first pages out.
    segment: Mutex<Option<Arc<Segment>>>,
    /// Segment writes the unit tests want to see fail.
    #[cfg(test)]
    faults: tests::FaultPlan,
}

impl SpillDir {
    fn new(dir: Option<PathBuf>) -> Self {
        let dir = dir.unwrap_or_else(std::env::temp_dir);
        let path = dir.join(format!(
            "hilog-spill-{}-{}.seg",
            std::process::id(),
            SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        SpillDir {
            path,
            segment: Mutex::new(None),
            #[cfg(test)]
            faults: Default::default(),
        }
    }

    /// The store's segment, created on first use.  The name is unique among
    /// live stores, so a file already there is a dead process's leftover and
    /// is truncated.  A failed creation is retried by the next page-out.
    fn segment(&self) -> std::io::Result<Arc<Segment>> {
        let mut slot = self.segment.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(segment) = &*slot {
            return Ok(Arc::clone(segment));
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        let segment = Arc::new(Segment {
            file,
            end: AtomicU64::new(0),
        });
        *slot = Some(Arc::clone(&segment));
        Ok(segment)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let created = self
            .segment
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some();
        if created {
            // Best effort: the file is a cache keyed by pid; a leak is
            // harmless and reaped by the OS temp cleaner.
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A store's append-only segment file, shared by its relations and clones.
#[derive(Debug)]
struct Segment {
    file: File,
    /// Logical end of the file.  Appends claim `[end, end + len)` with a
    /// fetch-add, then write with `write_all_at`, so appenders sharing the
    /// segment never interleave within a record.
    end: AtomicU64,
}

impl Segment {
    /// Appends `bytes`, claiming its offset first so clones sharing the
    /// segment never interleave within a record.  A failed write (disk
    /// full, cache dir removed) is reported to the caller, which keeps the
    /// row resident; the claimed byte range is simply never referenced
    /// again (segments are append-only caches, holes are fine).
    fn append(&self, bytes: &[u8]) -> std::io::Result<(u64, u32)> {
        let offset = self.end.fetch_add(bytes.len() as u64, Ordering::SeqCst);
        #[cfg(unix)]
        self.file.write_all_at(bytes, offset)?;
        #[cfg(not(unix))]
        let _ = offset; // Spill requires positioned IO; unix-only for now.
        Ok((offset, bytes.len() as u32))
    }

    fn read(&self, offset: u64, len: u32) -> Vec<u8> {
        let mut buf = vec![0u8; len as usize];
        #[cfg(unix)]
        {
            // Bounded retry for transient read hiccups; a fault that
            // persists means the cache lost rows the store already evicted —
            // unrecoverable by construction (the payload exists nowhere
            // else), so panicking with a pointed message beats corrupting
            // answers.
            let mut last = None;
            for attempt in 0..3 {
                match self.file.read_exact_at(&mut buf, offset) {
                    Ok(()) => return buf,
                    Err(error) => {
                        last = Some(error);
                        std::thread::sleep(std::time::Duration::from_millis(attempt + 1));
                    }
                }
            }
            panic!(
                "spill segment read failed after retries (cache file corrupted or removed): {}",
                last.expect("loop recorded an error")
            );
        }
        #[cfg(not(unix))]
        {
            let _ = offset;
            buf
        }
    }
}

/// Row state: the decoded payload (when resident) and its on-disk location
/// (once spilled).  Removed rows give up their slot bookkeeping but their
/// segment bytes stay — segments are append-only, stale records are simply
/// never read again.
#[derive(Debug, Clone, Default)]
struct Slot {
    term: Option<Term>,
    disk: Option<(u64, u32)>,
}

/// One `(predicate name, arity)` extension.
#[derive(Debug, Clone, Default)]
struct SpillRelation {
    /// Live slot ids in insertion order (mirrors `AtomStore`'s row order).
    order: Vec<u32>,
    slots: Vec<Slot>,
    /// Structural term hash → live slots (membership / removal path).
    by_hash: TermMap<u64, Vec<u32>>,
    /// Argument-position indexes, maintained eagerly on insert/remove so a
    /// probe over a cold relation never faults rows in just to build an
    /// index.  Keys are argument subterms (`Arc` bumps) — the "all indexes
    /// stay in memory" half of the spill contract.
    indexes: TermMap<usize, TermMap<Term, Vec<u32>>>,
    /// Rows currently resident (decoded payload in memory).
    resident: usize,
    /// LRU clock of the last operation that touched this relation.
    touch: u64,
    /// The relation's place in the store's creation order (relations never
    /// leave the map, so it is the map's length when this one entered).
    /// Operations that touch several relations stamp them with one clock;
    /// eviction breaks those ties on this, never on the map's walk order,
    /// which the seeded term hasher makes differ from process to process.
    created: usize,
    /// The store's segment, taken on this relation's first eviction.
    segment: Option<Arc<Segment>>,
}

impl SpillRelation {
    /// Decodes slot `slot`, faulting it in from the segment when
    /// non-resident.  Returns the term and `1` if a fault happened.
    fn slot_term(&mut self, slot: u32) -> (Term, u64) {
        let entry = &mut self.slots[slot as usize];
        if let Some(term) = &entry.term {
            return (term.clone(), 0);
        }
        let (offset, len) = entry
            .disk
            .expect("non-resident spill slot must have a disk location");
        let segment = self
            .segment
            .as_ref()
            .expect("spilled relation must have a segment");
        let term = decode_row(&segment.read(offset, len));
        self.slots[slot as usize].term = Some(term.clone());
        self.resident += 1;
        count(|c| &c.residency_faults, 1);
        (term, 1)
    }

    /// Locates the live slot holding `atom`, faulting colliding rows in to
    /// confirm equality.  Returns the slot and the number of faults.
    fn find_slot(&mut self, hash: u64, atom: &Term) -> (Option<u32>, u64) {
        let Some(slots) = self.by_hash.get(&hash) else {
            return (None, 0);
        };
        let slots = slots.clone();
        let mut faults = 0u64;
        for slot in slots {
            let (term, f) = self.slot_term(slot);
            faults += f;
            if &term == atom {
                return (Some(slot), faults);
            }
        }
        (None, faults)
    }
}

#[derive(Debug, Default)]
struct SpillInner {
    relations: TermMap<(Term, Option<usize>), SpillRelation>,
    /// Total live atoms.
    len: usize,
    /// Total resident (decoded) rows across relations.
    resident: usize,
    clock: u64,
    /// Lifetime counters for [`RelationStorageStats`].
    faults: u64,
    spill_writes: u64,
    io_errors: u64,
    segment_bytes: u64,
}

impl SpillInner {
    fn touch(&mut self, key: &(Term, Option<usize>)) -> Option<&mut SpillRelation> {
        self.clock += 1;
        let clock = self.clock;
        let rel = self.relations.get_mut(key)?;
        rel.touch = clock;
        Some(rel)
    }
}

/// The spill backend of [`crate::storage::FactStore`]; see the module docs.
///
/// Interior mutability (`Mutex`) because faulting rows in and updating the
/// LRU clock happen under `&self` probes, and a shared store must stay
/// `Sync` for concurrent snapshot readers.  Probe results
/// are decoded under the lock and visited outside it: a spilled row has no
/// `&Term` to lend, so the store visits rather than iterates.
#[derive(Debug)]
pub struct SpillStore {
    inner: Mutex<SpillInner>,
    dir: Arc<SpillDir>,
    budget: usize,
}

impl Clone for SpillStore {
    fn clone(&self) -> Self {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        SpillStore {
            inner: Mutex::new(SpillInner {
                relations: inner.relations.clone(),
                len: inner.len,
                resident: inner.resident,
                clock: inner.clock,
                faults: inner.faults,
                spill_writes: inner.spill_writes,
                io_errors: inner.io_errors,
                segment_bytes: inner.segment_bytes,
            }),
            dir: Arc::clone(&self.dir),
            budget: self.budget,
        }
    }
}

fn encode_row(atom: &Term) -> Vec<u8> {
    let mut writer = PayloadWriter::new();
    writer.write_term(atom);
    writer.finish()
}

fn decode_row(bytes: &[u8]) -> Term {
    let mut reader = PayloadReader::new(bytes).expect("spill row payload parses");
    reader.read_term().expect("spill row decodes to a term")
}

impl SpillStore {
    /// An empty store spilling to a segment file of its own in `dir` (the
    /// system temp directory when `None`) with the given resident-payload
    /// budget.
    pub fn new(dir: Option<PathBuf>, resident_budget: usize) -> Self {
        SpillStore {
            inner: Mutex::new(SpillInner::default()),
            dir: Arc::new(SpillDir::new(dir)),
            budget: resident_budget.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SpillInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pages out every resident row of `rel`, appending rows not yet on
    /// disk to the store's segment file.  Returns `(evicted, writes,
    /// bytes, failed)`.
    ///
    /// Resilience contract: a failed segment write (disk full, cache dir
    /// removed, injected fault) **keeps the affected rows resident** and
    /// stops this eviction attempt — the store overshoots its residency
    /// budget rather than lose a payload that exists nowhere else.  The
    /// next budget enforcement retries naturally; every failed attempt is
    /// reported (`failed`) and counted by the caller as a `spill_io_error`.
    fn evict_relation(dir: &SpillDir, rel: &mut SpillRelation) -> (usize, u64, u64, bool) {
        if rel.resident == 0 {
            return (0, 0, 0, false);
        }
        if rel.segment.is_none() {
            match dir.segment() {
                Ok(segment) => rel.segment = Some(segment),
                Err(_) => {
                    // Can't create the cache file: nothing pages out, all
                    // rows stay resident and correct.
                    return (0, 0, 0, true);
                }
            }
        }
        let segment = Arc::clone(rel.segment.as_ref().expect("segment just ensured"));
        let mut evicted = 0usize;
        let mut writes = 0u64;
        let mut bytes = 0u64;
        let mut failed = false;
        for &slot in &rel.order {
            let entry = &mut rel.slots[slot as usize];
            let Some(term) = &entry.term else { continue };
            if entry.disk.is_none() {
                let encoded = encode_row(term);
                #[cfg(not(test))]
                let appended = segment.append(&encoded);
                #[cfg(test)]
                let appended = dir
                    .faults
                    .next_write()
                    .and_then(|()| segment.append(&encoded));
                match appended {
                    Ok(location) => {
                        entry.disk = Some(location);
                        writes += 1;
                        bytes += encoded.len() as u64;
                    }
                    Err(_) => {
                        // The row's only copy is the in-memory one: keep it
                        // resident and abandon this eviction pass.
                        failed = true;
                        break;
                    }
                }
            }
            entry.term = None;
            evicted += 1;
        }
        rel.resident -= evicted;
        (evicted, writes, bytes, failed)
    }

    /// Enforces the residency budget by paging out the least recently
    /// touched relations, the earliest created first among equally recent
    /// ones — never `hot_key`, which the caller is actively working in,
    /// unless it is the only relation left with resident rows (then it
    /// simply overshoots rather than thrash).
    fn enforce_budget(&self, inner: &mut SpillInner, hot_key: Option<&(Term, Option<usize>)>) {
        while inner.resident > self.budget {
            let victim = inner
                .relations
                .iter()
                .filter(|(key, rel)| rel.resident > 0 && Some(*key) != hot_key)
                .min_by_key(|(_, rel)| (rel.touch, rel.created))
                .map(|(key, _)| key.clone());
            let Some(key) = victim else { break };
            let rel = inner.relations.get_mut(&key).expect("victim exists");
            let (evicted, writes, bytes, failed) = Self::evict_relation(&self.dir, rel);
            inner.resident -= evicted;
            inner.spill_writes += writes;
            inner.io_errors += u64::from(failed);
            inner.segment_bytes += bytes;
            count(|c| &c.spill_writes, writes);
            count(|c| &c.spill_io_errors, u64::from(failed));
            if evicted == 0 {
                // The eviction attempt failed (I/O error on the victim):
                // stop rather than spin on the same victim; the budget is
                // overshot until a later attempt succeeds, which is the
                // documented degraded-cache behaviour, never wrong answers.
                break;
            }
        }
    }

    /// Inserts a ground atom; returns `true` if it was new.
    pub(crate) fn insert(&mut self, atom: Term) -> bool {
        debug_assert!(
            atom.is_ground(),
            "SpillStore::insert of non-ground atom {atom}"
        );
        let key = (atom.name().clone(), atom.arity());
        let hash = hash_one(&atom);
        let inner = &mut *self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let created = inner.relations.len();
        let rel = inner
            .relations
            .entry(key.clone())
            .or_insert_with(|| SpillRelation {
                created,
                ..SpillRelation::default()
            });
        rel.touch = clock;
        let (found, faults) = rel.find_slot(hash, &atom);
        if found.is_some() {
            inner.resident += faults as usize;
            inner.faults += faults;
            self.enforce_budget(inner, Some(&key));
            return false;
        }
        let slot = rel.slots.len() as u32;
        for (pos, arg) in atom.args().iter().enumerate() {
            rel.indexes
                .entry(pos)
                .or_default()
                .entry(arg.clone())
                .or_default()
                .push(slot);
        }
        rel.slots.push(Slot {
            term: Some(atom),
            disk: None,
        });
        rel.order.push(slot);
        rel.by_hash.entry(hash).or_default().push(slot);
        rel.resident += 1;
        inner.resident += 1 + faults as usize;
        inner.faults += faults;
        inner.len += 1;
        self.enforce_budget(inner, Some(&key));
        true
    }

    /// Removes a ground atom; returns `true` if it was present.
    pub(crate) fn remove(&mut self, atom: &Term) -> bool {
        let key = (atom.name().clone(), atom.arity());
        let hash = hash_one(atom);
        let inner = &mut *self.lock();
        let Some(rel) = inner.touch(&key) else {
            return false;
        };
        let (found, faults) = rel.find_slot(hash, atom);
        let Some(slot) = found else {
            inner.resident += faults as usize;
            inner.faults += faults;
            return false;
        };
        let entry = &mut rel.slots[slot as usize];
        let was_resident = entry.term.take().is_some();
        if was_resident {
            rel.resident -= 1;
        }
        rel.order.retain(|&s| s != slot);
        if let Some(bucket) = rel.by_hash.get_mut(&hash) {
            bucket.retain(|&s| s != slot);
            if bucket.is_empty() {
                rel.by_hash.remove(&hash);
            }
        }
        for (pos, index) in rel.indexes.iter_mut() {
            if let Some(arg) = atom.args().get(*pos) {
                if let Some(posting) = index.get_mut(arg) {
                    posting.retain(|&s| s != slot);
                }
            }
        }
        // find_slot left the target row resident (faulting it in if it was
        // spilled); taking its payload back out undoes exactly one unit,
        // while the other colliding faults stay resident.
        debug_assert!(was_resident, "find_slot leaves the found row resident");
        inner.resident += faults as usize;
        inner.resident -= 1;
        inner.faults += faults;
        inner.len -= 1;
        true
    }

    /// Returns `true` if the atom is present, faulting in at most the rows
    /// that share its structural hash.
    pub(crate) fn contains(&self, atom: &Term) -> bool {
        let key = (atom.name().clone(), atom.arity());
        let hash = hash_one(atom);
        let inner = &mut *self.lock();
        let Some(rel) = inner.touch(&key) else {
            return false;
        };
        let (found, faults) = rel.find_slot(hash, atom);
        inner.resident += faults as usize;
        inner.faults += faults;
        if faults > 0 {
            self.enforce_budget(inner, Some(&key));
        }
        found.is_some()
    }

    /// Number of atoms.
    pub(crate) fn len(&self) -> usize {
        self.lock().len
    }

    /// Visits the candidates for `pattern`, selected as
    /// [`crate::horn::AtomStore::candidates`] selects them, faulting in
    /// exactly the rows of the posting list or relations it walks.
    pub(crate) fn for_each_candidate(&self, pattern: &Term, visit: impl FnMut(&Term)) {
        let collected: Vec<Term> = {
            let inner = &mut *self.lock();
            inner.clock += 1;
            let clock = inner.clock;
            let mut faults = 0u64;
            let arity = pattern.arity();
            let mut out: Vec<Term> = Vec::new();
            if !pattern.name().is_ground() {
                // Arity scan across every relation.  The relation map's walk
                // order differs between processes (seeded hasher), so the
                // rows are sorted: one sequence in every process.
                let mut sorted: BTreeSet<Term> = BTreeSet::new();
                for (key, rel) in inner.relations.iter_mut() {
                    if key.1 != arity {
                        continue;
                    }
                    rel.touch = clock;
                    for slot in rel.order.clone() {
                        let (term, f) = rel.slot_term(slot);
                        faults += f;
                        sorted.insert(term);
                    }
                }
                out.extend(sorted);
            } else if let Some(rel) = inner.relations.get_mut(&(pattern.name().clone(), arity)) {
                rel.touch = clock;
                // Most selective posting list over the pattern's ground
                // argument positions; indexes are maintained eagerly on
                // insert, so an absent posting means no row can match.
                let mut best: Option<&Vec<u32>> = None;
                let mut impossible = false;
                for (pos, arg) in pattern.args().iter().enumerate() {
                    if !arg.is_ground() {
                        continue;
                    }
                    match rel.indexes.get(&pos).and_then(|index| index.get(arg)) {
                        None => {
                            impossible = true;
                            break;
                        }
                        Some(posting) => {
                            if best.is_none_or(|b| posting.len() < b.len()) {
                                best = Some(posting);
                            }
                        }
                    }
                }
                if !impossible {
                    let slots: Vec<u32> = match best {
                        Some(posting) => posting.clone(),
                        None => rel.order.clone(),
                    };
                    for slot in slots {
                        let (term, f) = rel.slot_term(slot);
                        faults += f;
                        out.push(term);
                    }
                }
            }
            inner.resident += faults as usize;
            inner.faults += faults;
            self.enforce_budget(inner, None);
            out
        };
        collected.iter().for_each(visit)
    }

    /// Visits every atom in term order, faulting every spilled row in.
    pub(crate) fn for_each_atom(&self, mut visit: impl FnMut(&Term)) {
        let collected: BTreeSet<Term> = {
            let inner = &mut *self.lock();
            inner.clock += 1;
            let clock = inner.clock;
            let mut faults = 0u64;
            let mut sorted = BTreeSet::new();
            for rel in inner.relations.values_mut() {
                rel.touch = clock;
                for slot in rel.order.clone() {
                    let (term, f) = rel.slot_term(slot);
                    faults += f;
                    sorted.insert(term);
                }
            }
            inner.resident += faults as usize;
            inner.faults += faults;
            self.enforce_budget(inner, None);
            sorted
        };
        for term in &collected {
            visit(term);
        }
    }

    /// Storage observability counters for this store.
    pub(crate) fn storage_stats(&self) -> RelationStorageStats {
        let inner = self.lock();
        RelationStorageStats {
            resident_facts: inner.resident,
            spilled_facts: inner.len - inner.resident,
            relations: inner.relations.len(),
            spilled_relations: inner
                .relations
                .values()
                .filter(|r| r.resident < r.order.len())
                .count(),
            segment_bytes: inner.segment_bytes,
            residency_faults: inner.faults,
            spill_writes: inner.spill_writes,
            spill_io_errors: inner.io_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambient::counters;

    /// Which of a spill directory's segment writes fail: those numbered
    /// `[from, from + count)`, counting from the moment the plan is armed.
    /// `count = u64::MAX` is a disk that never recovers.
    #[derive(Debug, Default)]
    pub(super) struct FaultPlan(Mutex<Option<(u64, u64, u64)>>);

    impl FaultPlan {
        fn arm(&self, from: u64, count: u64) {
            *self.0.lock().unwrap() = Some((0, from, count));
        }

        fn disarm(&self) {
            *self.0.lock().unwrap() = None;
        }

        /// Numbers one segment write and fails it if the armed plan says so.
        pub(super) fn next_write(&self) -> std::io::Result<()> {
            let mut plan = self.0.lock().unwrap();
            let Some((next, from, count)) = plan.as_mut() else {
                return Ok(());
            };
            let index = *next;
            *next += 1;
            if index >= *from && index - *from < *count {
                return Err(std::io::Error::other(
                    "injected fault: spill segment write failed (ENOSPC)",
                ));
            }
            Ok(())
        }
    }

    fn atom(name: &str, a: &str, b: &str) -> Term {
        Term::apps(name, vec![Term::sym(a), Term::sym(b)])
    }

    fn candidates(store: &SpillStore, pattern: &Term) -> Vec<Term> {
        let mut out = Vec::new();
        store.for_each_candidate(pattern, |t| out.push(t.clone()));
        out
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut store = SpillStore::new(None, 4);
        assert!(store.insert(atom("edge", "a", "b")));
        assert!(!store.insert(atom("edge", "a", "b")));
        assert!(store.contains(&atom("edge", "a", "b")));
        assert!(!store.contains(&atom("edge", "b", "a")));
        assert!(store.remove(&atom("edge", "a", "b")));
        assert!(!store.remove(&atom("edge", "a", "b")));
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn eviction_pages_cold_relations_and_probes_fault_back() {
        let mut store = SpillStore::new(None, 8);
        // Two relations; the second relation's inserts make the first cold.
        for i in 0..16 {
            store.insert(atom("cold", &format!("a{i}"), "x"));
        }
        for i in 0..16 {
            store.insert(atom("hot", &format!("b{i}"), "y"));
        }
        let stats = store.storage_stats();
        assert!(
            stats.spilled_facts > 0,
            "expected spilled facts, got {stats:?}"
        );
        assert!(stats.spill_writes > 0);
        assert!(stats.segment_bytes > 0);
        // A bound probe on the cold relation faults exactly the posting
        // list back in and still answers correctly.
        let pattern = Term::apps("cold", vec![Term::sym("a3"), Term::var("Y")]);
        let hits = candidates(&store, &pattern);
        assert_eq!(hits, vec![atom("cold", "a3", "x")]);
        assert!(store.storage_stats().residency_faults > 0);
        assert!(store.contains(&atom("cold", "a7", "x")));
    }

    #[test]
    fn resident_count_stays_within_budget_for_multiple_relations() {
        let mut store = SpillStore::new(None, 10);
        for r in 0..6 {
            for i in 0..10 {
                store.insert(atom(&format!("rel{r}"), &format!("k{i}"), "v"));
            }
        }
        let stats = store.storage_stats();
        assert_eq!(stats.resident_facts + stats.spilled_facts, 60);
        assert!(
            stats.resident_facts <= 20,
            "budget 10 plus one hot relation, got {stats:?}"
        );
    }

    #[test]
    fn removal_of_spilled_rows_is_exact() {
        let mut store = SpillStore::new(None, 2);
        for i in 0..8 {
            store.insert(atom("r", &format!("k{i}"), "v"));
        }
        assert!(store.remove(&atom("r", "k2", "v")));
        assert!(!store.contains(&atom("r", "k2", "v")));
        assert_eq!(store.len(), 7);
        let pattern = Term::apps("r", vec![Term::var("X"), Term::var("Y")]);
        assert_eq!(candidates(&store, &pattern).len(), 7);
    }

    #[test]
    fn ordered_iteration_matches_term_order() {
        let mut store = SpillStore::new(None, 2);
        let mut expected = BTreeSet::new();
        for i in [3, 1, 4, 1, 5, 9, 2, 6] {
            let a = atom("z", &format!("n{i}"), "w");
            store.insert(a.clone());
            expected.insert(a.clone());
            let b = atom("a", &format!("n{i}"), "w");
            store.insert(b.clone());
            expected.insert(b);
        }
        let mut collected = Vec::new();
        store.for_each_atom(|t| collected.push(t.clone()));
        assert_eq!(collected, expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn a_tie_in_recency_evicts_the_earliest_created_relation() {
        // `for_each_atom` stamps every relation with one clock, so the next
        // page-out picks among equals.  Each round's names hash to a
        // different walk order of the relation map; the victim must still be
        // the relation created first, whatever its name (they are created in
        // reverse name order, so name order would pick the last).
        for round in 0..8 {
            let mut store = SpillStore::new(None, 8);
            let names: Vec<String> = (0..4).rev().map(|i| format!("r{round}_{i}")).collect();
            for name in &names {
                store.insert(atom(name, "a", "x"));
                store.insert(atom(name, "b", "x"));
            }
            store.for_each_atom(|_| {});
            store.insert(atom("fresh", "a", "x"));
            store.insert(atom("fresh", "b", "x"));
            let inner = store.lock();
            let paged_out: Vec<&str> = names
                .iter()
                .filter(|name| inner.relations[&(Term::sym(name.as_str()), Some(2))].resident == 0)
                .map(String::as_str)
                .collect();
            assert_eq!(paged_out, [names[0].as_str()], "round {round}");
            assert_eq!(inner.spill_writes, 2, "round {round}");
        }
    }

    #[test]
    fn injected_write_fault_keeps_rows_resident_and_answers_correct() {
        let mut store = SpillStore::new(None, 4);
        let before = counters();
        // Fill one relation past the budget with the disk dead: every
        // eviction attempt fails, so all rows must stay resident and every
        // answer must stay correct.
        store.dir.faults.arm(0, u64::MAX);
        for i in 0..12 {
            store.insert(atom("f", &format!("k{i}"), "v"));
        }
        for i in 0..4 {
            store.insert(atom("g", &format!("k{i}"), "v"));
        }
        let stats = store.storage_stats();
        assert_eq!(stats.spilled_facts, 0, "failed evictions spill nothing");
        assert_eq!(stats.resident_facts, 16, "rows survive in memory");
        assert!(stats.spill_io_errors > 0, "the failures were counted");
        assert_eq!(
            (counters() - before).spill_io_errors,
            stats.spill_io_errors,
            "on the store and on the thread they happened on alike"
        );
        for i in 0..12 {
            assert!(store.contains(&atom("f", &format!("k{i}"), "v")));
        }
        // The disk comes back: the next budget enforcement pages out again.
        store.dir.faults.disarm();
        for i in 0..4 {
            store.insert(atom("h", &format!("k{i}"), "v"));
        }
        let stats = store.storage_stats();
        assert!(stats.spilled_facts > 0, "healed disk spills again");
        for i in 0..12 {
            assert!(store.contains(&atom("f", &format!("k{i}"), "v")));
        }
        assert_eq!(store.len(), 20);
    }

    #[test]
    fn one_shot_write_fault_is_survived_mid_eviction() {
        let mut store = SpillStore::new(None, 4);
        // Fail exactly the third segment write the store performs: the
        // eviction pass stops there, rows before it are spilled, rows from
        // it on stay resident, and everything keeps answering.
        store.dir.faults.arm(2, 1);
        for r in 0..4 {
            for i in 0..6 {
                store.insert(atom(&format!("rel{r}"), &format!("k{i}"), "v"));
            }
        }
        store.dir.faults.disarm();
        let stats = store.storage_stats();
        assert_eq!(stats.resident_facts + stats.spilled_facts, 24);
        assert_eq!(stats.spill_io_errors, 1, "the one failure was counted");
        for r in 0..4 {
            for i in 0..6 {
                assert!(store.contains(&atom(&format!("rel{r}"), &format!("k{i}"), "v")));
            }
        }
    }

    #[test]
    fn clones_share_segments_without_corruption() {
        let mut store = SpillStore::new(None, 2);
        for i in 0..12 {
            store.insert(atom("s", &format!("k{i}"), "v"));
        }
        let mut clone = store.clone();
        clone.insert(atom("s", "extra", "v"));
        // Both clones keep answering from the shared (append-only) segment.
        assert!(store.contains(&atom("s", "k1", "v")));
        assert!(clone.contains(&atom("s", "k1", "v")));
        assert!(clone.contains(&atom("s", "extra", "v")));
        assert!(!store.contains(&atom("s", "extra", "v")));
    }

    fn rows(store: &SpillStore, name: &str) -> Vec<Term> {
        candidates(
            store,
            &Term::apps(name, vec![Term::var("X"), Term::var("Y")]),
        )
    }

    #[test]
    fn stores_configured_with_one_directory_keep_their_own_rows() {
        // Sessions built with one `StorageConfig` page their program
        // indexes into one directory.  Two stores paging the
        // same relation into one directory used to append to one file with
        // two ends and read each other's bytes back ("dangling term id").
        let dir = std::env::temp_dir().join(format!(
            "hilog-spill-shared-{}-{}",
            std::process::id(),
            SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut stores = [
            SpillStore::new(Some(dir.clone()), 2),
            SpillStore::new(Some(dir.clone()), 2),
        ];
        for i in 0..20 {
            for (n, store) in stores.iter_mut().enumerate() {
                store.insert(atom("r", &format!("s{n}k{i}"), "v"));
                store.insert(atom("other", &format!("s{n}k{i}"), "v"));
            }
        }
        for (n, store) in stores.iter().enumerate() {
            let expected: Vec<Term> = (0..20)
                .map(|i| atom("r", &format!("s{n}k{i}"), "v"))
                .collect();
            assert_eq!(rows(store, "r"), expected, "store {n}");
            assert!(store.storage_stats().residency_faults > 0);
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2, "a file each");
        drop(stores);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "each file leaves with its store; the configured directory stays"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clones_that_each_page_out_a_new_relation_keep_their_own_rows() {
        // `r` appears after the clone, so each clone pages it out on its
        // own; rows either clone appends later must not land on the other's
        // (with a segment per relation name, each clone opened the file with
        // an end of its own).
        let store = SpillStore::new(None, 2);
        let mut clones = [store.clone(), store];
        for round in 0..3 {
            for (n, clone) in clones.iter_mut().enumerate() {
                for i in 0..4 {
                    clone.insert(atom("r", &format!("c{n}r{round}k{i}"), "v"));
                }
                for i in 0..4 {
                    clone.insert(atom("other", &format!("c{n}r{round}k{i}"), "v"));
                }
            }
        }
        for (n, clone) in clones.into_iter().enumerate() {
            let expected: Vec<Term> = (0..3)
                .flat_map(|round| (0..4).map(move |i| (round, i)))
                .map(|(round, i)| atom("r", &format!("c{n}r{round}k{i}"), "v"))
                .collect();
            assert_eq!(rows(&clone, "r"), expected, "clone {n}");
        }
    }
}
