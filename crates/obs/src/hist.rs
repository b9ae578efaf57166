//! Fixed-bucket log₂ latency histogram.
//!
//! Bucket `0` holds the value `0`; bucket `i` (1..=64) holds values in
//! `[2^(i-1), 2^i - 1]` — i.e. a value lands in the bucket equal to its bit
//! width. Alongside each bucket count we keep the bucket's running *sum*,
//! so a percentile query can return the mean of the selected bucket: exact
//! when every sample in that bucket is equal (typical for modeled costs and
//! test fixtures), and within the bucket's 2× width otherwise. Global
//! min/max are tracked exactly and clamp the result.
//!
//! Everything is relaxed atomics — recording is lock-free and wait-free;
//! concurrent snapshots are monitoring-grade, not linearizable.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bucket `0` for the value zero plus one bucket per possible bit width.
pub const NUM_BUCKETS: usize = 65;

/// Index of the bucket that holds `v`: its bit width.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Lock-free log₂ histogram of `u64` samples (by convention: nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; NUM_BUCKETS],
    sums: [AtomicU64; NUM_BUCKETS],
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sums: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let b = bucket_of(v);
        self.counts[b].fetch_add(1, Relaxed);
        self.sums[b].fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Record a duration as whole nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sums.iter().map(|s| s.load(Relaxed)).sum()
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Mean sample, or 0 if empty.
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// The `p`-th percentile (`p` in `0..=100`), as the mean of the bucket
    /// holding the rank-`⌈p/100·n⌉` sample, clamped to the observed
    /// `[min, max]`. Exact when that bucket's samples are all equal.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    /// A consistent-enough copy for offline inspection.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; NUM_BUCKETS];
        let mut sums = [0u64; NUM_BUCKETS];
        for i in 0..NUM_BUCKETS {
            counts[i] = self.counts[i].load(Relaxed);
            sums[i] = self.sums[i].load(Relaxed);
        }
        HistogramSnapshot {
            counts,
            sums,
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub counts: [u64; NUM_BUCKETS],
    pub sums: [u64; NUM_BUCKETS],
    pub min: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold another snapshot in — the same metric read off another node's
    /// registry — as if every sample had been recorded into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count() == 0 {
            return;
        }
        self.min = if self.count() == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        for b in 0..NUM_BUCKETS {
            self.counts[b] += other.counts[b];
            self.sums[b] += other.sums[b];
        }
    }

    /// See [`Histogram::percentile`].
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let rank = rank.min(n);
        let mut seen = 0u64;
        for b in 0..NUM_BUCKETS {
            seen += self.counts[b];
            if seen >= rank {
                let mean = self.sums[b] / self.counts[b];
                return mean.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_bit_widths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn powers_of_two_land_in_distinct_buckets() {
        let h = Histogram::new();
        for i in 0..64 {
            h.record(1u64 << i);
        }
        let s = h.snapshot();
        assert_eq!(s.counts[0], 0);
        for b in 1..NUM_BUCKETS {
            assert_eq!(s.counts[b], 1, "bucket {b}");
            assert_eq!(s.sums[b], 1u64 << (b - 1));
        }
    }

    #[test]
    fn merged_snapshots_read_as_one_histogram() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [40, 900, 70_000] {
            a.record(v);
            both.record(v);
        }
        for v in [7, 1_000, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        let mut merged = Histogram::new().snapshot();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        merged.merge(&Histogram::new().snapshot());
        let want = both.snapshot();
        assert_eq!((merged.counts, merged.sums), (want.counts, want.sums));
        assert_eq!((merged.min, merged.max), (7, 1_000_000));
        assert_eq!(merged.percentile(50.0), want.percentile(50.0));
    }

    #[test]
    fn percentiles_are_exact_for_uniform_buckets() {
        let h = Histogram::new();
        // 90 fast samples, 9 medium, 1 slow — each group shares a bucket.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..9 {
            h.record(64_000);
        }
        h.record(1_000_000);
        assert_eq!(h.percentile(50.0), 1_000);
        assert_eq!(h.percentile(90.0), 1_000);
        assert_eq!(h.percentile(95.0), 64_000);
        assert_eq!(h.percentile(99.0), 64_000);
        assert_eq!(h.percentile(100.0), 1_000_000);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let h = Histogram::new();
        h.record(12_345);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 12_345);
        }
    }

    #[test]
    fn percentile_clamps_to_observed_extremes() {
        let h = Histogram::new();
        // 5 and 7 share bucket 3 (mean 6 — never observed); clamping keeps
        // the answer inside [min, max] but cannot invent unseen precision.
        h.record(5);
        h.record(7);
        let p50 = h.percentile(50.0);
        assert!((5..=7).contains(&p50));
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(50.0), 0);
    }

    #[test]
    fn zero_samples_use_the_zero_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.snapshot().counts[0], 2);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn concurrent_records_are_not_lost() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        h.record(256);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        assert_eq!(h.sum(), 8000 * 256);
        assert_eq!(h.percentile(99.0), 256);
    }
}
