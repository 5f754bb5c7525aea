//! Order statistics, the sliced throughput estimate, and the small
//! deterministic helpers (FNV digest, SplitMix64) the workloads share.

/// The `p`-quantile (0 ≤ p ≤ 1) of `values` by linear interpolation between
/// the two nearest ranks.  Sorts a copy; 0.0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The Hodges–Lehmann pseudo-median: the median of the averages of every
/// pair of values (each value with itself included).  Equal to the median
/// where the values lie symmetrically about it — a flat profile, a linear
/// ramp — but drawn from all of them, not from the few next to the middle.
pub fn pseudo_median(values: &[f64]) -> f64 {
    let mut averages = Vec::with_capacity(values.len() * (values.len() + 1) / 2);
    for (i, a) in values.iter().enumerate() {
        averages.extend(values[i..].iter().map(|b| (a + b) / 2.0));
    }
    median(&averages)
}

/// Interquartile range as a share of the median (0.0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

/// Throughput as the median rate of `slices` equal-count slices of the
/// window.  `completions` are the completion times (seconds since the window
/// opened) of every item, in completion order; `ops_per_item` scales an item
/// to operations (a round of 17, a burst of 248 requests).
///
/// The median of slice rates, not the rate of the whole window, so that a
/// stall of the shared machine costs the slice it fell in and not the
/// result; and slices of many items, not single items, so that every slice
/// holds items of every kind and a slowdown of the slow ones shows.
/// Returns `(median rate, IQR share of the rates)`.
pub fn sliced_rate(completions: &[f64], ops_per_item: f64, slices: usize) -> (f64, f64) {
    let n = completions.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let slices = slices.clamp(1, n);
    let mut rates = Vec::with_capacity(slices);
    let mut start_time = 0.0;
    let mut start_index = 0usize;
    for s in 1..=slices {
        let end_index = n * s / slices;
        let end_time = completions[end_index - 1];
        let elapsed = (end_time - start_time).max(1e-9);
        rates.push((end_index - start_index) as f64 * ops_per_item / elapsed);
        start_time = end_time;
        start_index = end_index;
    }
    (median(&rates), iqr_share(&rates))
}

/// 64-bit FNV-1a over a stream of byte strings; pins generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so ("ab", "c") and ("a", "bc") digest differently.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 — the benchmark's own choices (which node a probe names, which
/// query a caller sends next) must not depend on the vendored `rand` stub.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these
    /// sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((iqr_share(&values) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn pseudo_median_of_a_ramp_is_its_middle_whatever_the_middle_reads() {
        let mut ramp: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(pseudo_median(&ramp), 11.0);
        assert_eq!(pseudo_median(&[5.0; 7]), 5.0);
        // A stall in the middle batch moves the median by its full size...
        ramp[10] = 40.0;
        assert_eq!(median(&ramp), 12.0);
        // ...and the pseudo-median by a fraction of it.
        assert!((pseudo_median(&ramp) - 11.0).abs() <= 0.5);
        assert_eq!(pseudo_median(&[]), 0.0);
    }

    #[test]
    fn a_stalled_slice_does_not_move_the_rate() {
        // Ten items a second, one item per slice; then the same with a one
        // second stall inside the fourth item.
        let steady: Vec<f64> = (1..=20).map(|i| i as f64 * 0.1).collect();
        let stalled: Vec<f64> = steady
            .iter()
            .enumerate()
            .map(|(i, t)| if i >= 3 { t + 1.0 } else { *t })
            .collect();
        let (rate, _) = sliced_rate(&steady, 1.0, 20);
        let (with_stall, _) = sliced_rate(&stalled, 1.0, 20);
        assert!((rate - 10.0).abs() < 1e-9);
        assert!((with_stall - 10.0).abs() < 1e-9);
        // A batch of 100 facts is 100 operations.
        assert!((sliced_rate(&steady, 100.0, 4).0 - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn digest_separates_its_parts_and_generator_repeats() {
        let digest = |parts: &[&str]| {
            let mut fnv = Fnv::new();
            for part in parts {
                fnv.write(part.as_bytes());
            }
            fnv.finish()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_eq!(digest(&["ab", "c"]), digest(&["ab", "c"]));
        let (mut a, mut b) = (SplitMix::new(7), SplitMix::new(7));
        assert!((0..100).all(|_| a.below(10) == b.below(10)));
    }
}
