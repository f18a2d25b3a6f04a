//! The one histogram layout and the one quantile rule of `dlhub-obs`.
//!
//! Every histogram in the crate buckets its samples with one
//! log-linear [`Layout`] and reads quantiles through one walk
//! ([`Layout::quantile`]) under one nearest-rank rule
//! ([`nearest_rank`]). The layout keeps values below `2^sub_bits`
//! exact and splits every higher power-of-two range into
//! `2^(sub_bits-1)` linear slots, the way HdrHistogram does. Each call
//! site fixes one of two precisions:
//!
//! * [`COARSE`] (1 sub-bucket bit) is the classic log2 layout: slot
//!   `i` holds the values of bit length `i`, so its inclusive upper
//!   bound is `2^i − 1`. Recording is one relaxed `fetch_add` into 65
//!   slots plus count and sum, cheap enough for always-on hot-path
//!   instrumentation: the metrics registry's
//!   [`crate::metrics::Histogram`]s, the telemetry ring slots behind
//!   [`crate::WindowHistogram`], and [`crate::ContentionSite`] waits.
//!   Its in-slot interpolation error can reach a power of two.
//! * [`FINE`] (6 sub-bucket bits) bounds the typical relative quantile
//!   error at `1/64` (~1.6 %), so p999/p9999 agree with an exact sort
//!   of the raw samples to within noise. The open-loop recorder's
//!   [`HdrHistogram`]s use it.
//!
//! Exact quantiles of raw sample sets ([`exact_quantile`],
//! [`p5_p50_p95`]) use the same rank rule, so a histogram quantile and
//! an exact-sort quantile of the same samples target the same sample.
//! Recording stays lock-free (relaxed atomics), so one histogram can
//! be shared across threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde_json::{json, Value};

/// Log-linear bucket layout over `u64`, parameterised by its number
/// of sub-bucket bits. Only the [`COARSE`] and [`FINE`] precisions
/// exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    sub_bits: u32,
}

/// The log2 layout: slot index = bit length, upper bound `2^i − 1`.
pub const COARSE: Layout = Layout { sub_bits: 1 };

/// 64 linear sub-buckets per power-of-two range, ~1.6 % resolution.
pub const FINE: Layout = Layout { sub_bits: 6 };

impl Layout {
    /// Linear sub-buckets per power-of-two range; also the width of
    /// the exact range `0..sub_buckets` at the bottom of the scale.
    pub const fn sub_buckets(self) -> u64 {
        1 << self.sub_bits
    }

    /// Slots each power-of-two range above the exact bottom block
    /// contributes.
    const fn half(self) -> u64 {
        self.sub_buckets() / 2
    }

    /// Total slots: the exact bottom block plus one half-block per
    /// power-of-two range up to 2^64.
    pub const fn slots(self) -> usize {
        (self.sub_buckets() + (64 - self.sub_bits as u64) * self.half()) as usize
    }

    /// Typical relative quantile error: half the widest slot's width
    /// over its lower bound. A quantile interpolated inside a slot its
    /// samples spread through stays within it; the worst case (every
    /// sample on one slot edge) is twice this.
    pub fn resolution(self) -> f64 {
        1.0 / self.sub_buckets() as f64
    }

    /// Slot of `v`: exact below [`sub_buckets`](Self::sub_buckets),
    /// then the top `sub_bits` bits of the value select a linear slot
    /// inside its power-of-two range.
    pub fn index(self, v: u64) -> usize {
        if v < self.sub_buckets() {
            return v as usize;
        }
        let bits = 64 - v.leading_zeros() as u64; // > sub_bits
        let shift = bits - self.sub_bits as u64;
        let top = v >> shift; // in [half, 2 * half)
        (self.sub_buckets() + (shift - 1) * self.half() + (top - self.half())) as usize
    }

    /// Inclusive `(low, high)` value bounds of slot `idx`.
    pub fn bounds(self, idx: usize) -> (u64, u64) {
        let idx = idx as u64;
        if idx < self.sub_buckets() {
            return (idx, idx);
        }
        let rest = idx - self.sub_buckets();
        let shift = rest / self.half() + 1;
        let low = (self.half() + rest % self.half()) << shift;
        (low, low | ((1u64 << shift) - 1))
    }

    /// Inclusive upper bound of slot `idx` (`u64::MAX` for the last).
    pub fn high(self, idx: usize) -> u64 {
        self.bounds(idx).1
    }

    /// The one quantile walk: the sample at [`nearest_rank`] among the
    /// per-slot `counts`, rank-interpolated inside its slot as if the
    /// slot's samples spread uniformly across its value range. `None`
    /// when every count is zero.
    pub fn quantile(self, counts: &[u64], q: f64) -> Option<u64> {
        let target = nearest_rank(q, counts.iter().sum());
        let mut seen = 0u64;
        counts.iter().enumerate().find_map(|(idx, &n)| {
            seen += n;
            (seen >= target).then(|| {
                let (lo, hi) = self.bounds(idx);
                let frac = (target + n - seen) as f64 / n as f64;
                lo + (((hi - lo) as f64 * frac) as u64).min(hi - lo)
            })
        })
    }
}

/// The one rank rule: the 1-based nearest rank `max(1, ceil(q·n))` of
/// quantile `q` (clamped to `0.0 ..= 1.0`) among `n` samples.
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n.max(1))
}

fn ranked<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    sorted
        .get(nearest_rank(q, sorted.len() as u64) as usize - 1)
        .copied()
}

/// Exact nearest-rank quantile of a raw sample set. `None` when empty.
pub fn exact_quantile<T: Ord + Copy>(values: &[T], q: f64) -> Option<T> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    ranked(&sorted, q)
}

/// `(p5, median, p95)` of a raw sample set by exact sort — the
/// statistics the paper's error bars show. `None` when empty.
pub fn p5_p50_p95<T: Ord + Copy>(values: &[T]) -> Option<(T, T, T)> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    Some((
        ranked(&sorted, 0.05)?,
        ranked(&sorted, 0.5)?,
        ranked(&sorted, 0.95)?,
    ))
}

/// Slot-wise activity between two cumulative count snapshots of one
/// layout, saturating at zero where the baseline ran ahead. A missing
/// baseline slot counts as zero.
pub fn counts_since(current: &[u64], baseline: &[u64]) -> Vec<u64> {
    current
        .iter()
        .enumerate()
        .map(|(i, &c)| c.saturating_sub(baseline.get(i).copied().unwrap_or(0)))
        .collect()
}

/// Live per-slot counts under one [`Layout`] plus the running sample
/// count and sum: the storage every recording histogram shares.
#[derive(Debug)]
pub(crate) struct Buckets {
    layout: Layout,
    slots: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Buckets {
    pub(crate) fn new(layout: Layout) -> Self {
        Buckets {
            layout,
            slots: (0..layout.slots()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record `v`: one slot add plus count and sum. Returns the slot
    /// and its count before this sample.
    pub(crate) fn record(&self, v: u64) -> (usize, u64) {
        let idx = self.layout.index(v);
        let seen = self.slots[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        (idx, seen)
    }

    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Every slot's count, empty ones included.
    pub(crate) fn counts(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }
}

/// Histogram that also tracks the exact min and max, so quantiles
/// clamp to them and p0/p100 are exact.
pub struct HdrHistogram {
    buckets: Buckets,
    min: AtomicU64,
    max: AtomicU64,
}

impl HdrHistogram {
    /// Empty histogram over `layout`.
    pub fn new(layout: Layout) -> Self {
        HdrHistogram {
            buckets: Buckets::new(layout),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Min/max only take a read-modify-write when
    /// the sample actually moves them.
    pub fn record(&self, v: u64) {
        self.buckets.record(v);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.count()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.buckets.sum()
    }

    /// Largest recorded sample, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, 0 when empty.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    fn clamped(&self, counts: &[u64], q: f64) -> Option<u64> {
        let v = self.buckets.layout.quantile(counts, q)?;
        Some(v.max(self.min()).min(self.max()))
    }

    /// Estimated quantile (`0.0 ..= 1.0`) by the layout's walk,
    /// clamped to the recorded min/max. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.clamped(&self.buckets.counts(), q)
    }

    /// Point-in-time summary; `None` when no samples were recorded.
    pub fn summary(&self) -> Option<HdrSummary> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let sum = self.sum();
        let counts = self.buckets.counts();
        let at = |q: f64| self.clamped(&counts, q).unwrap_or(0);
        Some(HdrSummary {
            count,
            sum,
            mean: sum / count,
            min: self.min(),
            max: self.max(),
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            p999: at(0.999),
            p9999: at(0.9999),
        })
    }
}

/// Quantile summary of an [`HdrHistogram`]; units are whatever was
/// recorded (nanoseconds for latencies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HdrSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Integer mean.
    pub mean: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// 99.99th percentile.
    pub p9999: u64,
}

impl HdrSummary {
    /// JSON form used in bench artifacts.
    pub fn to_json(&self) -> Value {
        json!({
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
            "p9999": self.p9999,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_bounds_partition_the_value_axis() {
        // Every slot's range is contiguous with its neighbour's, and
        // the index function maps both bounds back to the slot.
        for layout in [COARSE, FINE] {
            for idx in 0..layout.slots() - 1 {
                let (low, high) = layout.bounds(idx);
                assert_eq!(layout.index(low), idx, "{layout:?} low of {idx}");
                assert_eq!(layout.index(high), idx, "{layout:?} high of {idx}");
                assert_eq!(
                    high + 1,
                    layout.bounds(idx + 1).0,
                    "{layout:?} gap at {idx}"
                );
            }
            assert_eq!(layout.index(u64::MAX), layout.slots() - 1);
            assert_eq!(layout.high(layout.slots() - 1), u64::MAX);
        }
    }

    #[test]
    fn coarse_is_the_log2_layout() {
        // Slot index = bit length, inclusive upper bound 2^i − 1.
        assert_eq!(COARSE.slots(), 65);
        assert_eq!(COARSE.index(0), 0);
        assert_eq!(COARSE.high(0), 0);
        for i in 1..64usize {
            assert_eq!(COARSE.index(1 << (i - 1)), i);
            assert_eq!(COARSE.index((1 << i) - 1), i);
            assert_eq!(COARSE.high(i), (1u64 << i) - 1);
        }
        for v in [0u64, 1, 2, 3, 17, 1024, 1 << 40, u64::MAX] {
            assert_eq!(COARSE.index(v), (u64::BITS - v.leading_zeros()) as usize);
            assert!(v <= COARSE.high(COARSE.index(v)));
        }
    }

    #[test]
    fn relative_slot_width_is_bounded() {
        // Above the exact range the slot width over its lower bound
        // never exceeds twice the advertised resolution.
        for layout in [COARSE, FINE] {
            for v in [100u64, 1_000, 65_535, 1 << 20, (1 << 40) + 12345] {
                let (low, high) = layout.bounds(layout.index(v));
                assert!(
                    ((high - low) as f64) / (low as f64) <= 2.0 * layout.resolution() + 1e-12,
                    "{layout:?} v={v} low={low} high={high}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_is_ceil_q_n_at_least_one() {
        assert_eq!(nearest_rank(0.05, 100), 5);
        assert_eq!(nearest_rank(0.5, 100), 50);
        assert_eq!(nearest_rank(0.95, 100), 95);
        assert_eq!(nearest_rank(0.0, 100), 1);
        assert_eq!(nearest_rank(1.0, 100), 100);
        assert_eq!(nearest_rank(0.5, 3), 2);
        assert_eq!(nearest_rank(0.5, 0), 1);
        assert_eq!(exact_quantile::<u64>(&[], 0.5), None);
        assert_eq!(exact_quantile(&[3u64, 1, 2], 0.5), Some(2));
        assert_eq!(p5_p50_p95(&[7u64]), Some((7, 7, 7)));
    }

    #[test]
    fn quantiles_match_an_exact_sort_oracle_within_resolution() {
        // A deterministic spread over four decades: quantiles up to
        // p9999 must track the exact sorted ranks within each layout's
        // resolution (~1.6 % FINE, 50 % COARSE).
        for layout in [COARSE, FINE] {
            let h = HdrHistogram::new(layout);
            let mut values = Vec::new();
            let mut x = 88172645463325252u64;
            for _ in 0..200_000 {
                // xorshift64 for a seeded spread over several decades.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = 1_000 + x % 10_000_000;
                h.record(v);
                values.push(v);
            }
            for q in [0.5, 0.9, 0.99, 0.999, 0.9999] {
                let exact = exact_quantile(&values, q).unwrap();
                let got = h.quantile(q).unwrap();
                let err = (got as f64 - exact as f64).abs() / exact as f64;
                assert!(
                    err <= layout.resolution(),
                    "{layout:?} q={q} exact={exact} got={got} err={err}"
                );
            }
            let s = h.summary().unwrap();
            assert_eq!(s.count, 200_000);
            assert_eq!(s.max, *values.iter().max().unwrap());
            assert_eq!(s.min, *values.iter().min().unwrap());
        }
    }

    #[test]
    fn counts_since_subtracts_slot_wise_and_saturates() {
        assert_eq!(counts_since(&[5, 3, 9], &[2, 4]), vec![3, 0, 9]);
        assert_eq!(counts_since(&[1, 2], &[]), vec![1, 2]);
    }

    #[test]
    fn empty_and_single_sample_edges() {
        let h = HdrHistogram::new(FINE);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.summary().is_none());
        assert_eq!(h.min(), 0);
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
        h.record(42);
        assert_eq!(h.quantile(1.0), Some(42));
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 42);
        assert_eq!(COARSE.quantile(&[0; 65], 0.5), None);
    }
}
