//! Mutation fuzz of the payload decoders: valid payloads from
//! [`encode_batch`] and the segment and manifest writers, truncated
//! at every length, with bytes flipped, and with a `u32` of 0, `u32::MAX`
//! or a large value written at every offset.  Every decoder must answer
//! `Ok` or a typed error — no panic, and no allocation sized by a corrupt
//! count (which aborts the process).
//!
//! The write-ahead log's framing the same way, one level up: logs written
//! by [`Wal::append`], cut, flipped, with frame lengths and checksums
//! overwritten and a checksummed payload that does not decode spliced in.
//! [`Wal::open`] must recover a prefix of the appended batches and cut the
//! file to it, or answer a typed error.
//!
//! The seeds are pinned; `HILOG_CODEC_CASES` scales the case count (CI's
//! recovery job runs 256).

use crate::error::StoreError;
use crate::io::{IoStats, OpenMode, StoreFile, StoreIo};
use crate::manifest::{
    decode_manifest, decode_segment, encode_manifest, encode_segment, rel_key, Manifest,
    SegmentEntry,
};
use crate::ops::{decode_batch, encode_batch, Op};
use crate::wal::{FsyncPolicy, Wal, MAX_RECORD_BYTES};
use hilog_core::{crc32, PayloadReader, Rule, Term};
use hilog_engine::Semantics;
use hilog_syntax::{parse_program, parse_term};
use std::collections::HashMap;
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn cases() -> u64 {
    std::env::var("HILOG_CODEC_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// SplitMix64: a pinned seed gives the same case on every platform.
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
}

const RULES: [&str; 4] = [
    "tc(G)(X, Y) :- graph(G), G(X, Y), not blocked(X).",
    "total(W, N) :- whole(W), N = sum(Q, parts(W, P, Q)).",
    "big(X) :- size(X, N), N > 10, T is N * 2.",
    "p(X) :- q(X, f(X, X)), not r(g(X)).",
];

fn random_fact(rng: &mut Rng) -> Term {
    let node = |rng: &mut Rng| format!("n{}", rng.below(6));
    let text = match rng.below(4) {
        0 => format!("edge({}, {})", node(rng), node(rng)),
        1 => format!("tc(e{})({}, {})", rng.below(2), node(rng), node(rng)),
        2 => format!(
            "cost(f({}, {}), {})",
            node(rng),
            node(rng),
            rng.next() as i64
        ),
        _ => format!(
            "wide({})",
            (0..9)
                .map(|i| (i * rng.below(3)).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    parse_term(&text).unwrap()
}

fn random_rule(rng: &mut Rng) -> Rule {
    parse_program(RULES[rng.below(RULES.len())])
        .unwrap()
        .rules
        .remove(0)
}

/// Feeds every mutation of `payload` to `decode`.  A panic fails the test;
/// an abort kills it.
fn mutate_and_decode(payload: &[u8], rng: &mut Rng, decode: &dyn Fn(&[u8])) {
    decode(payload);
    for cut in 0..payload.len() {
        decode(&payload[..cut]);
    }
    let mut bytes = payload.to_vec();
    for at in 0..bytes.len() {
        let original = bytes[at];
        bytes[at] ^= 1 + rng.below(255) as u8;
        decode(&bytes);
        bytes[at] = original;
    }
    let large = [0, u32::MAX, 0x7fff_ffff, 1 << 24, payload.len() as u32];
    for at in 0..bytes.len().saturating_sub(3) {
        let original: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
        for value in large {
            bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            decode(&bytes);
        }
        bytes[at..at + 4].copy_from_slice(&original);
    }
}

/// A typed error is the only failure a decoder may report.
fn typed<T>(result: Result<T, StoreError>) {
    if let Err(e) = result {
        assert!(
            matches!(e, StoreError::Corrupt(_) | StoreError::Codec(_)),
            "untyped decode failure {e:?}"
        );
    }
}

#[test]
fn every_decoder_survives_mutated_payloads() {
    for case in 0..cases() {
        let mut rng = Rng(0xdec0_de00 ^ case);
        let facts: Vec<Term> = (0..1 + rng.below(5))
            .map(|_| random_fact(&mut rng))
            .collect();
        let rules: Vec<Rule> = (0..rng.below(3)).map(|_| random_rule(&mut rng)).collect();

        let ops: Vec<Op> = facts
            .iter()
            .map(|f| Op::AssertFact(f.clone()))
            .chain(rules.iter().map(|r| Op::RetractRule(r.clone())))
            .collect();
        let batch = encode_batch(case, &ops);
        assert_eq!(decode_batch(&batch).unwrap(), (case, ops));

        // One relation's facts, as a checkpoint groups them.
        let key = rel_key(&facts[0]);
        let relation: Vec<Term> = facts
            .iter()
            .filter(|f| rel_key(f) == key)
            .cloned()
            .collect();
        let entry = SegmentEntry {
            key: key.clone(),
            hash: rng.next(),
            epoch: case,
            facts: relation.len() as u32,
            bytes: 0,
        };
        let segment = encode_segment(&key, &relation);
        let path = Path::new("fuzz.hseg");
        assert_eq!(decode_segment(&segment, path, &entry).unwrap(), relation);

        let manifest = Manifest {
            epoch: case,
            semantics: Semantics::WellFounded,
            rules: rules.clone(),
            entries: vec![entry.clone()],
        };
        let mut manifest_payload = encode_manifest(&manifest);
        // The last byte is the model flag: directories written before models
        // left the recovery point carry a 1 there.
        *manifest_payload.last_mut().unwrap() = rng.below(2) as u8;
        assert_eq!(decode_manifest(&manifest_payload).unwrap(), manifest);

        let reader = |bytes: &[u8]| {
            if let Ok(mut reader) = PayloadReader::new(bytes) {
                while reader.read_term().is_ok() {}
            }
        };
        for payload in [&batch, &segment, &manifest_payload] {
            mutate_and_decode(payload, &mut rng, &reader);
        }
        mutate_and_decode(&batch, &mut rng, &|b| typed(decode_batch(b)));
        mutate_and_decode(&segment, &mut rng, &|b| {
            typed(decode_segment(b, path, &entry))
        });
        mutate_and_decode(&manifest_payload, &mut rng, &|b| typed(decode_manifest(b)));
    }
}

/// Files in memory: the log fuzz opens a log a thousand times a case, and
/// none of it needs a disk.
#[derive(Debug, Default)]
struct MemIo {
    files: Mutex<HashMap<PathBuf, Arc<Mutex<Vec<u8>>>>>,
}

impl MemIo {
    fn file(&self, path: &Path) -> Arc<Mutex<Vec<u8>>> {
        let mut files = self.files.lock().unwrap();
        Arc::clone(files.entry(path.to_path_buf()).or_default())
    }

    fn bytes(&self, path: &Path) -> Vec<u8> {
        self.file(path).lock().unwrap().clone()
    }

    fn put(&self, path: &Path, bytes: &[u8]) {
        *self.file(path).lock().unwrap() = bytes.to_vec();
    }
}

#[derive(Debug)]
struct MemFile {
    data: Arc<Mutex<Vec<u8>>>,
    at: usize,
}

impl StoreFile for MemFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let data = self.data.lock().unwrap();
        let rest = &data[self.at.min(data.len())..];
        buf.extend_from_slice(rest);
        self.at = data.len();
        Ok(rest.len())
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut data = self.data.lock().unwrap();
        if data.len() < self.at + buf.len() {
            data.resize(self.at + buf.len(), 0);
        }
        data[self.at..self.at + buf.len()].copy_from_slice(buf);
        self.at += buf.len();
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.data.lock().unwrap().resize(len as usize, 0);
        Ok(())
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let len = self.data.lock().unwrap().len() as i64;
        let at = match pos {
            SeekFrom::Start(at) => at as i64,
            SeekFrom::End(delta) => len + delta,
            SeekFrom::Current(delta) => self.at as i64 + delta,
        };
        self.at = usize::try_from(at).map_err(|_| io::Error::other("seek before start"))?;
        Ok(self.at as u64)
    }
}

impl StoreIo for MemIo {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StoreFile>> {
        let data = self.file(path);
        if mode == OpenMode::Truncate {
            data.lock().unwrap().clear();
        }
        Ok(Box::new(MemFile { data, at: 0 }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        Ok(self.bytes(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files.lock().unwrap();
        let data = files
            .remove(from)
            .ok_or_else(|| io::Error::other("no such file"))?;
        files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.files.lock().unwrap().remove(path);
        Ok(())
    }

    fn create_dir_all(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list_dir(&self, _: &Path) -> io::Result<Vec<String>> {
        Ok(Vec::new())
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(self.bytes(path).len() as u64)
    }

    fn sync_dir(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }

    fn io_stats(&self) -> IoStats {
        IoStats::default()
    }
}

#[test]
fn wal_framing_survives_mutated_logs() {
    let path = Path::new("wal.log");
    for case in 0..cases() {
        let mut rng = Rng(0x0a1f_00d0 ^ case);
        let io = MemIo::default();
        let batches: Vec<(u64, Vec<Op>)> = (1..=1 + rng.below(4) as u64)
            .map(|epoch| {
                let ops = (0..1 + rng.below(3))
                    .map(|_| Op::AssertFact(random_fact(&mut rng)))
                    .collect();
                (epoch, ops)
            })
            .collect();
        let (mut wal, recovered) = Wal::open(&io, path, FsyncPolicy::Never).unwrap();
        assert!(recovered.is_empty());
        for (epoch, ops) in &batches {
            wal.append(*epoch, ops).unwrap();
        }
        drop(wal);
        let log = io.bytes(path);
        // Where each frame starts, and where the log ends after it.
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        while ends.last().copied().unwrap_or(0) < log.len() {
            let start = ends.last().copied().unwrap_or(0);
            let len = u32::from_le_bytes(log[start..start + 4].try_into().unwrap());
            starts.push(start);
            ends.push(start + 8 + len as usize);
        }
        assert_eq!(ends.len(), batches.len());

        // `Ok` with the batches of a prefix and the file cut to it (how
        // many), or a typed error (`None`).
        let reopen = |bytes: &[u8]| -> Option<usize> {
            io.put(path, bytes);
            match Wal::open(&io, path, FsyncPolicy::Never) {
                Ok((wal, records)) => {
                    assert!(records.len() <= batches.len());
                    for (record, (epoch, ops)) in records.iter().zip(&batches) {
                        assert_eq!((&record.epoch, &record.ops), (epoch, ops));
                    }
                    let kept = records.len().checked_sub(1).map_or(0, |last| ends[last]);
                    assert_eq!(wal.bytes(), kept as u64);
                    assert_eq!(io.bytes(path), log[..kept]);
                    Some(records.len())
                }
                Err(e) => {
                    assert!(
                        matches!(e, StoreError::Corrupt(_) | StoreError::Codec(_)),
                        "untyped recovery failure {e:?}"
                    );
                    None
                }
            }
        };
        assert_eq!(reopen(&log), Some(batches.len()));
        for cut in 0..log.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(reopen(&log[..cut]), Some(whole), "cut at {cut}");
        }
        let mut bytes = log.clone();
        for at in 0..bytes.len() {
            let original = bytes[at];
            bytes[at] ^= 1 + rng.below(255) as u8;
            let _ = reopen(&bytes);
            bytes[at] = original;
        }
        for (frame, &start) in starts.iter().enumerate() {
            let mut bytes = log.clone();
            for len in [0, MAX_RECORD_BYTES, MAX_RECORD_BYTES + 1, u32::MAX] {
                bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
                assert_eq!(reopen(&bytes), Some(frame), "length {len} at frame {frame}");
            }
            let mut bytes = log.clone();
            bytes[start + 4] ^= 1 << rng.below(8);
            assert_eq!(reopen(&bytes), Some(frame), "checksum of frame {frame}");
            // A payload the checksum vouches for that is not a batch.
            let mut bytes = log.clone();
            let payload = start + 8..ends[frame];
            for byte in &mut bytes[payload.clone()] {
                *byte = 0xff;
            }
            let crc = crc32(&bytes[payload]);
            bytes[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(reopen(&bytes), None, "undecodable frame {frame}");
        }
    }
}
