//! Mutation fuzz of the payload decoders: valid payloads from
//! [`encode_batch`] and the segment, model and manifest writers, truncated
//! at every length, with bytes flipped, and with a `u32` of 0, `u32::MAX`
//! or a large value written at every offset.  Every decoder must answer
//! `Ok` or a typed error — no panic, and no allocation sized by a corrupt
//! count (which aborts the process).
//!
//! The seeds are pinned; `HILOG_CODEC_CASES` scales the case count (CI's
//! recovery job runs 256).

use crate::error::StoreError;
use crate::manifest::{
    decode_manifest, decode_model, decode_segment, encode_manifest, encode_model, encode_segment,
    rel_key, Manifest, SegmentEntry,
};
use crate::ops::{decode_batch, encode_batch, Op};
use hilog_core::codec::PayloadReader;
use hilog_core::{Model, Rule, Term};
use hilog_engine::Semantics;
use hilog_syntax::{parse_program, parse_term};
use std::path::Path;

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

        let split = rng.below(facts.len() + 1);
        let model = Model::new(
            facts[split..].iter().cloned(),
            facts[..split].iter().cloned(),
            facts.iter().rev().take(1).cloned(),
        );
        let model_payload = encode_model(&model);
        assert_eq!(decode_model(&model_payload).unwrap(), model);

        let manifest = Manifest {
            epoch: case,
            semantics: Semantics::WellFounded,
            rules: rules.clone(),
            entries: vec![entry.clone()],
            has_model: rng.below(2) == 0,
        };
        let manifest_payload = encode_manifest(&manifest);
        assert_eq!(decode_manifest(&manifest_payload).unwrap(), manifest);

        let reader = |bytes: &[u8]| {
            if let Ok(mut reader) = PayloadReader::new(bytes) {
                while reader.read_term().is_ok() {}
            }
        };
        for payload in [&batch, &segment, &model_payload, &manifest_payload] {
            mutate_and_decode(payload, &mut rng, &reader);
        }
        mutate_and_decode(&batch, &mut rng, &|b| typed(decode_batch(b)));
        mutate_and_decode(&segment, &mut rng, &|b| {
            typed(decode_segment(b, path, &entry))
        });
        mutate_and_decode(&model_payload, &mut rng, &|b| typed(decode_model(b)));
        mutate_and_decode(&manifest_payload, &mut rng, &|b| typed(decode_manifest(b)));
    }
}
