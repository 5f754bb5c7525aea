//! The one hasher behind every term-keyed map.
//!
//! Every join probe, subgoal-table lookup, interner hit and codec id in the
//! engine hashes a [`Term`](crate::term::Term) built from
//! [`Symbol`](crate::symbol::Symbol)s, and a symbol hashes one machine word:
//! its interned pointer.  What the table needs from the hasher is therefore
//! a few cycles per word, not a keyed PRF over text.  [`TermHasher`] works a
//! word at a time like rustc's `FxHasher`, one multiply per word, but folds
//! each full 128-bit product (`lo ^ hi`) instead of rotating the state:
//!
//! * Fx's step `(h.rotate_left(5) ^ w) * K` maps a flip of bit 63 of a word
//!   to a flip of bit 63 of the state (`K` is odd), and the next word can
//!   cancel it by flipping bit 4 — `(a, b)` and `(a ^ 1 << 63, b ^ 16)`
//!   collide *whatever the seed*, and a term with `n` integer arguments has
//!   `2^(n-1)` such twins.  The high half of a folded product depends on
//!   the carries out of the whole (seeded) state, so no flip cancels that
//!   way.
//! * A product's low bits depend only on its input's low bits, and
//!   `HashMap` picks buckets by the low bits of the hash; the fold brings
//!   the high half down, so keys differing only in high bits spread.
//!
//! The starting state is a per-process seed drawn once from the standard
//! library's [`RandomState`], so bucket placement differs from run to run.
//! Nothing durable may depend on a value hashed here: pointers and the seed
//! change with the process (on-disk names are derived from codec bytes
//! instead — see `crates/hilog-store/src/manifest.rs`).
//!
//! Use the aliases: [`TermMap`] / [`TermSet`] for maps and sets, and
//! [`hash_one`] where a bare `u64` is wanted (hash partitioning, the spill
//! store's membership buckets).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// The multiplier of rustc-hash's `FxHasher` (v2): odd, with its bits spread
/// so a product mixes every input bit into the high half.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The process-wide seed, drawn once from `RandomState` — the only use of
/// it in the engine crates.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// A seeded word-at-a-time multiply-fold [`Hasher`]; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct TermHasher {
    hash: u64,
}

impl TermHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let full = u128::from(self.hash ^ word) * u128::from(K);
        self.hash = (full as u64) ^ ((full >> 64) as u64);
    }
}

impl Hasher for TermHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
        // The zero padding of the tail would let `b"ab"` alias `b"ab\0"`.
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`BuildHasher`] of [`TermMap`] / [`TermSet`]: hands out
/// [`TermHasher`]s started at the process seed.
#[derive(Debug, Clone, Copy)]
pub struct TermHashBuilder {
    seed: u64,
}

impl Default for TermHashBuilder {
    #[inline]
    fn default() -> Self {
        TermHashBuilder { seed: seed() }
    }
}

impl BuildHasher for TermHashBuilder {
    type Hasher = TermHasher;

    #[inline]
    fn build_hasher(&self) -> TermHasher {
        TermHasher { hash: self.seed }
    }
}

/// A `HashMap` hashed by [`TermHasher`].  Build with `TermMap::default()`.
pub type TermMap<K, V> = HashMap<K, V, TermHashBuilder>;

/// A `HashSet` hashed by [`TermHasher`].  Build with `TermSet::default()`.
pub type TermSet<T> = HashSet<T, TermHashBuilder>;

/// Hashes one value with [`TermHasher`]: the value a [`TermMap`] in this
/// process computes for it.
#[inline]
pub fn hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    TermHashBuilder::default().hash_one(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn equal_values_hash_equal_under_one_seed() {
        let a = Term::apps("edge", vec![Term::sym("a"), Term::int(7)]);
        let b = Term::apps("edge", vec![Term::sym("a"), Term::int(7)]);
        assert_eq!(hash_one(&a), hash_one(&b));
        assert_eq!(TermHashBuilder::default().seed, seed());
        assert_ne!(
            hash_one(&a),
            hash_one(&Term::apps("edge", vec![Term::sym("a")]))
        );
    }

    #[test]
    fn byte_tails_are_distinguished() {
        // A tail padded with zeroes cannot alias a longer string.
        assert_ne!(hash_one("ab"), hash_one("ab\0"));
        assert_ne!(hash_one("abcdefg"), hash_one("abcdefg\x07"));
        assert_ne!(hash_one("abcdefgh"), hash_one("abcdefg"));
    }

    #[test]
    fn no_top_bit_flip_is_cancelled_by_the_next_word() {
        // Each pair collides under Fx's rotate step for every seed.
        let top = i64::MIN;
        for (a, b) in [(0i64, 0i64), (7, -3), (i64::MAX / 3, 1 << 40)] {
            assert_ne!(hash_one(&(a, b)), hash_one(&(a ^ top, b ^ 16)));
            let pair = |a, b| Term::apps("p", vec![Term::int(a), Term::int(b)]);
            assert_ne!(hash_one(&pair(a, b)), hash_one(&pair(a ^ top, b ^ 16)));
        }
    }

    #[test]
    fn high_bits_reach_the_bucket_bits() {
        // Keys that differ only in their top bits must not pile into one
        // bucket (the low bits `HashMap` masks).  Without the fold each set
        // is one bucket.
        let buckets: TermSet<u64> = (0..256u64).map(|i| hash_one(&(i << 56)) & 0xff).collect();
        assert!(buckets.len() > 64, "{} distinct buckets", buckets.len());
        let terms: TermSet<u64> = (0..256i64)
            .map(|i| hash_one(&Term::apps("p", vec![Term::sym("a"), Term::int(i << 55)])) & 0xff)
            .collect();
        assert!(terms.len() > 64, "{} distinct buckets", terms.len());
    }
}
