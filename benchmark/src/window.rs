//! The measured window of an untraced run, on a clock corrected for the
//! machine's speed.
//!
//! The machine this runs on is a small virtual machine on a shared host, and
//! its speed is not constant: a fixed piece of single-threaded work read
//! 1.22 ms in one minute and 1.63 ms five minutes later on the processor
//! time of its own thread, between 1.07 and 2.23 ms from one half second to
//! the next, and the hypervisor took the processor away for 0–28% of a
//! window on top of that.  The same 100 cold probes therefore read 63 ms at
//! one hour and 90 ms at another, and ten runs of one workload spread by up
//! to 43% of their median — wider than any bound worth fixing.
//!
//! So the window carries its own yardstick.  Between operations it runs a
//! fixed kernel of the benchmark's own ([`Kernel`]: hash lookups, small
//! allocations, a sort — nothing of the program under test) and times it on
//! the same clock.  Every measured duration is then divided by how much
//! longer than [`NOMINAL_KERNEL_MS`] the kernel samples taken just before and
//! just after it were: durations are reported as they would read on a
//! machine on which the kernel takes its nominal time.  A change to the
//! program cannot move the kernel, so it moves the corrected numbers exactly
//! as it moves the raw ones; the machine moves both and cancels.  The raw
//! medians and the speed the machine ran at are printed beside the result.

use crate::report::{Outcome, RunConfig};
use crate::stats::{median, quantile, sliced_rate, SplitMix};
use std::collections::HashMap;
use std::time::Instant;

/// Set-ups an untraced run performs; `setup_s` is their median.  (A traced
/// run reports no `setup_s` and sets up once.)
const SETUPS: usize = 15;

/// What the kernel takes on the recording machine in a quiet minute, right
/// after a workload has had the caches.  Only fixes the scale of the
/// corrected numbers: both sides of a comparison divide by it.
const NOMINAL_KERNEL_MS: f64 = 3.0;

/// Measured time after which [`Window::pace`] takes a kernel sample.
const PACE_S: f64 = 0.025;
/// Most samples one call of [`Window::pace`] takes, however long the
/// operation before it was.
const PACE_MOST: usize = 3;
/// A duration is corrected by this many samples before it and this many
/// after it.
const NEIGHBOURS: usize = 3;

/// The yardstick: a fixed amount of work shaped like the program's (hashing,
/// pointer chasing over a few megabytes, small allocations, string
/// comparison) but sharing no code with it.
struct Kernel {
    map: HashMap<u64, u32>,
    keys: Vec<u64>,
    round: u64,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = SplitMix::new(1);
        let keys: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
        let map = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        Kernel {
            map,
            keys,
            round: 0,
        }
    }

    /// Runs the kernel once; milliseconds it took.
    fn sample(&mut self) -> f64 {
        let start = Instant::now();
        self.round += 1;
        let mut rng = SplitMix::new(self.round);
        let mut sum = 0u64;
        for _ in 0..20_000 {
            let key = self.keys[rng.below(self.keys.len())];
            sum = sum.wrapping_add(u64::from(self.map[&key]));
        }
        let mut names: Vec<String> = (0..2_000)
            .map(|_| format!("p{}", rng.below(100_000)))
            .collect();
        names.sort_unstable();
        std::hint::black_box((sum, names));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// A measured duration and how many kernel samples had been taken when it
/// ended: the samples around that position are its neighbours.
#[derive(Debug, Clone, Copy)]
struct Timed {
    raw: f64,
    at: usize,
}

/// What a workload's latency samples are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyOf {
    /// Items: one each (a probe, a batch, a burst), or several in a row (the
    /// seven family evaluations of a round, see [`Window::latency_of_last`]).
    Items,
    /// Operations inside the items, far shorter than the kernel (a request,
    /// a read), handed to [`Window::operation`] one by one.
    Operations,
}

/// How a duration's neighbours are combined.  The hypervisor takes the
/// processor away for milliseconds at a time.  An item, as long as several
/// kernels or longer, holds its share of those pauses, and so does the mean
/// of its neighbours.  An operation shorter than the kernel mostly holds
/// none, and the median of its operations ignores the few that do; so does
/// the median of the neighbours.  (Corrected by the mean, the median request
/// of `http_point_reads` read 0.53 ms in a busy minute and 0.62–0.71 ms in
/// quiet ones.  Divided by the median of the run's samples, `cold_eval`'s
/// median round spread by 27% over ten seeds in an hour of many pauses; by
/// their mean, 8%.)
#[derive(Debug, Clone, Copy)]
enum Combine {
    Mean,
    Median,
}

pub struct Window {
    /// Operations one item stands for in `throughput_ops_s`.
    pub ops_per_item: f64,
    /// Equal-count slices the throughput is the median rate of.
    pub slices: usize,
    latency_of: LatencyOf,
    /// A traced run reports no end-to-end metric and takes no sample.
    sampling: bool,
    kernel: Kernel,
    samples_ms: Vec<f64>,
    /// Measured seconds since the last kernel sample.
    unsampled_s: f64,
    setups_s: Vec<Timed>,
    /// Every interval of the window, in order.
    items_s: Vec<Timed>,
    /// [`LatencyOf::Items`]: the ranges of `items_s` that are one latency
    /// sample each.
    item_latencies: Vec<std::ops::Range<usize>>,
    /// [`LatencyOf::Operations`]: the operations.
    operations_ms: Vec<Timed>,
}

impl Window {
    pub fn new(cfg: &RunConfig, ops_per_item: f64, slices: usize, latency_of: LatencyOf) -> Window {
        Window {
            ops_per_item,
            slices,
            latency_of,
            sampling: !cfg.trace,
            kernel: Kernel::new(),
            samples_ms: Vec::new(),
            unsampled_s: 0.0,
            setups_s: Vec::new(),
            items_s: Vec::new(),
            item_latencies: Vec::new(),
            operations_ms: Vec::new(),
        }
    }

    /// Takes `n` kernel samples now.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..if self.sampling { n } else { 0 } {
            let ms = self.kernel.sample();
            self.samples_ms.push(ms);
        }
        self.unsampled_s = 0.0;
    }

    /// Called between operations: one kernel sample for every [`PACE_S`] of
    /// measured time since the last, so short operations are interrupted
    /// rarely and long ones are bracketed closely.
    pub fn pace(&mut self) {
        let due = (self.unsampled_s / PACE_S) as usize;
        if due > 0 {
            self.sample(due.min(PACE_MOST));
        }
    }

    /// Performs the workload's set-up — `setup(attempt)` — as often as the
    /// run calls for, timing each; the previous state is handed to `discard`
    /// before the next is built, so two never coexist.  Returns the last.
    pub fn set_up<T>(
        &mut self,
        cfg: &RunConfig,
        setup: impl FnMut(usize) -> T,
        discard: impl FnMut(T),
    ) -> T {
        self.set_up_less(cfg, setup, |_| 0.0, discard)
    }

    /// [`Window::set_up`] for a set-up that waits for a device: the seconds
    /// `waited(&state)` reports are left out of its time.
    pub fn set_up_less<T>(
        &mut self,
        cfg: &RunConfig,
        mut setup: impl FnMut(usize) -> T,
        waited: impl Fn(&T) -> f64,
        mut discard: impl FnMut(T),
    ) -> T {
        let mut state = None;
        for attempt in 0..if cfg.trace { 1 } else { SETUPS } {
            if let Some(previous) = state.take() {
                discard(previous);
            }
            self.sample(NEIGHBOURS);
            let start = Instant::now();
            let built = setup(attempt);
            self.setups_s.push(Timed {
                raw: (start.elapsed().as_secs_f64() - waited(&built)).max(0.0),
                at: self.samples_ms.len(),
            });
            state = Some(built);
        }
        self.sample(NEIGHBOURS);
        state.expect("at least one set-up")
    }

    /// One item of the window took `seconds`; where items are the latency
    /// samples, this is one.
    pub fn item(&mut self, seconds: f64) {
        self.interval(seconds);
        if self.latency_of == LatencyOf::Items {
            self.latency_of_last(1);
        }
    }

    /// `seconds` of the window that are no latency sample by themselves (a
    /// checkpoint, a recovery, one family evaluation of a round): they count
    /// towards the window's time.
    pub fn interval(&mut self, seconds: f64) {
        self.items_s.push(Timed {
            raw: seconds,
            at: self.samples_ms.len(),
        });
        self.unsampled_s += seconds;
    }

    /// The last `n` intervals together are one latency sample, each
    /// corrected where it ran.
    pub fn latency_of_last(&mut self, n: usize) {
        debug_assert_eq!(self.latency_of, LatencyOf::Items);
        let end = self.items_s.len();
        self.item_latencies.push(end - n..end);
    }

    /// One operation inside the current item took `ms`.
    pub fn operation(&mut self, ms: f64) {
        debug_assert_eq!(self.latency_of, LatencyOf::Operations);
        self.operations_ms.push(Timed {
            raw: ms,
            at: self.samples_ms.len(),
        });
    }

    pub fn latency_samples(&self) -> usize {
        self.item_latencies.len() + self.operations_ms.len()
    }

    /// How much slower than nominal the machine ran around sample position
    /// `at` (1.0 when no sample was taken, as in a traced run).
    fn slowdown(&self, at: usize, combine: Combine) -> f64 {
        let hi = (at + NEIGHBOURS).min(self.samples_ms.len());
        let lo = at.saturating_sub(NEIGHBOURS).min(hi);
        if lo == hi {
            return 1.0;
        }
        let near = &self.samples_ms[lo..hi];
        let kernel_ms = match combine {
            Combine::Mean => near.iter().sum::<f64>() / near.len() as f64,
            Combine::Median => median(near),
        };
        kernel_ms / NOMINAL_KERNEL_MS
    }

    fn corrected(&self, timed: &[Timed], combine: Combine) -> Vec<f64> {
        timed
            .iter()
            .map(|t| t.raw / self.slowdown(t.at, combine))
            .collect()
    }

    /// Seconds the window's items took, corrected.
    pub fn total_s(&self) -> f64 {
        self.corrected(&self.items_s, Combine::Mean).iter().sum()
    }

    /// The latency samples (ms) given every interval's duration and every
    /// operation's.
    fn latencies_ms(&self, items_s: &[f64], operations_ms: Vec<f64>) -> Vec<f64> {
        match self.latency_of {
            LatencyOf::Items => self
                .item_latencies
                .iter()
                .map(|range| items_s[range.clone()].iter().sum::<f64>() * 1e3)
                .collect(),
            LatencyOf::Operations => operations_ms,
        }
    }

    /// The corrected latency samples (ms); complete once
    /// [`Window::end_to_end`] has taken the last kernel samples.
    pub fn corrected_latencies_ms(&self) -> Vec<f64> {
        self.latencies_ms(
            &self.corrected(&self.items_s, Combine::Mean),
            self.corrected(&self.operations_ms, Combine::Median),
        )
    }

    /// The end-to-end metrics every workload reports, from the corrected
    /// durations; the raw medians beside them as notes.
    pub fn end_to_end(&mut self, outcome: &mut Outcome) {
        // The last items need neighbours after them too.
        self.sample(NEIGHBOURS);
        let clock = |durations: &[f64]| -> Vec<f64> {
            durations
                .iter()
                .scan(0.0, |clock, seconds| {
                    *clock += seconds;
                    Some(*clock)
                })
                .collect()
        };
        let raw = |timed: &[Timed]| timed.iter().map(|t| t.raw).collect::<Vec<f64>>();

        let items = self.corrected(&self.items_s, Combine::Mean);
        let latencies =
            self.latencies_ms(&items, self.corrected(&self.operations_ms, Combine::Median));
        let (rate, _) = sliced_rate(&clock(&items), self.ops_per_item, self.slices);
        outcome.set(
            "setup_s",
            median(&self.corrected(&self.setups_s, Combine::Mean)),
        );
        outcome.set("throughput_ops_s", rate);
        outcome.set("latency_p50_ms", quantile(&latencies, 0.50));
        outcome.note("latency_p90_ms", quantile(&latencies, 0.90));
        outcome.note("latency_samples", latencies.len());
        outcome.note("setups", self.setups_s.len());

        let raw_items = raw(&self.items_s);
        outcome.note("raw_setup_s", median(&raw(&self.setups_s)));
        outcome.note(
            "raw_throughput_ops_s",
            sliced_rate(&clock(&raw_items), self.ops_per_item, self.slices).0,
        );
        outcome.note(
            "raw_latency_p50_ms",
            median(&self.latencies_ms(&raw_items, raw(&self.operations_ms))),
        );
        outcome.note("kernel_samples", self.samples_ms.len());
        outcome.note("kernel_p50_ms", median(&self.samples_ms));
        outcome.note(
            "machine_slowdown",
            median(&self.samples_ms) / NOMINAL_KERNEL_MS,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_machine_stretches_kernel_and_item_alike() {
        let cfg = RunConfig {
            seed: 0,
            scale: 1.0,
            trace: false,
            scratch: std::path::PathBuf::new(),
            trace_dir: std::path::PathBuf::new(),
        };
        let mut window = Window::new(&cfg, 1.0, 1, LatencyOf::Items);
        // Three samples at nominal speed, then three on a machine half as fast.
        window.samples_ms = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
            .map(|x| x * NOMINAL_KERNEL_MS)
            .to_vec();
        let timed = |raw, at| Timed { raw, at };
        // The same work, measured before, between and after.
        let items = [timed(1.0, 0), timed(1.5, 3), timed(2.0, 6)];
        assert_eq!(window.corrected(&items, Combine::Mean), [1.0, 1.0, 1.0]);
        // A pause in one neighbour moves the mean and not the median.
        window.samples_ms[1] *= 10.0;
        assert_eq!(window.corrected(&items[..1], Combine::Median), [1.0]);
        assert_eq!(window.corrected(&items[..1], Combine::Mean), [0.25]);
        // A traced run takes no samples and corrects nothing.
        window.samples_ms.clear();
        assert_eq!(window.corrected(&items, Combine::Mean), [1.0, 1.5, 2.0]);
    }
}
