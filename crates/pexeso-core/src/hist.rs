//! Lock-free, log-bucketed latency histograms.
//!
//! [`AtomicHistogram`] is the serving plane's replacement for the old
//! mutex-guarded latency ring: recording is a handful of relaxed atomic
//! adds (safe on any hot path), reading is a consistent-enough
//! [`HistSnapshot`] that can be merged across histograms and summarised
//! into quantiles. The bucket layout is HDR-style: exact buckets for
//! small values, then eight linear sub-buckets per power-of-two octave,
//! so relative error is bounded (~12.5%) across the whole range instead
//! of degrading with magnitude. Values are unit-agnostic `u64`s; every
//! user in this workspace records microseconds.
//!
//! The module also hosts the process-global histograms for subsystems
//! without a natural owner object (WAL append/fsync latency, recorded by
//! `pexeso-delta` wherever the log is written), so the serving daemon's
//! `METRICS` verb can expose them without plumbing a registry through
//! every call site.
//!
//! Data distributions (the JSD partitioner's column summaries, the cost
//! model's PDFs) are [`crate::pdf::Pdf`]s; this module only counts events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per power-of-two octave (3 bits of mantissa kept).
const SUB: usize = 8;
/// Total bucket count. The first `SUB` buckets hold the values
/// `0..SUB` exactly; each later group of `SUB` buckets covers one
/// octave. 192 buckets span `0..2^26` (≈ 67 seconds in microseconds);
/// larger values saturate into the top bucket.
pub const NUM_BUCKETS: usize = 192;

/// The bucket a value lands in.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 3
    let sub = ((v >> (msb - 3)) & 0x7) as usize;
    (SUB * (msb - 2) + sub).min(NUM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` — what quantile estimates report,
/// so they are conservative (never below the true quantile).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let msb = i / SUB + 2;
    let sub = (i % SUB) as u64;
    let lower = (SUB as u64 + sub) << (msb - 3);
    lower + (1u64 << (msb - 3)) - 1
}

/// Inclusive lower bound of bucket `i`.
pub(crate) fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let msb = i / SUB + 2;
    let sub = (i % SUB) as u64;
    (SUB as u64 + sub) << (msb - 3)
}

/// Width of bucket `i` — the resolution bound every quantile estimate
/// carries ("within one bucket width of exact").
pub fn bucket_width(i: usize) -> u64 {
    bucket_upper_bound(i) - bucket_lower_bound(i) + 1
}

/// A fixed-size, mergeable, lock-free histogram. Recording is wait-free
/// (three relaxed `fetch_add`s); concurrent recorders never lose samples
/// — the regression the old sampling ring could not make.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one value. Values past the top bucket's range saturate
    /// into it (still counted, still summed).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration in microseconds (the workspace convention).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain-data copy of the current state. Concurrent recorders may
    /// land between the bucket reads and the sum/count reads, so the
    /// snapshot is only guaranteed internally consistent once recording
    /// has quiesced — fine for metrics, not for invariants.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data histogram state: mergeable, quantile-queryable, and what
/// the Prometheus exposition renders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts, `NUM_BUCKETS` long.
    pub buckets: Vec<u64>,
    /// Sum of every recorded value.
    pub sum: u64,
    /// Total recorded values.
    pub count: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistSnapshot {
    /// Add another snapshot's mass into this one. Merging is commutative
    /// and associative (pinned by the proptests), so partition- or
    /// replica-level histograms aggregate in any order.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The `q`-quantile (0 < q ≤ 1), reported as the upper bound of the
    /// bucket holding the target rank — conservative by at most one
    /// bucket width. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }

    /// Mean of the recorded values (exact — the sum is kept, not
    /// bucketed). Zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Process-global histograms for subsystems without an owning object.
/// `pexeso-delta` records WAL latencies here; the serving daemon's
/// `METRICS` verb renders whatever this process has seen.
pub mod global {
    use super::AtomicHistogram;

    /// WAL record-append latency (encode + write + flush), microseconds.
    pub static WAL_APPEND: AtomicHistogram = AtomicHistogram::new();
    /// WAL fsync latency, microseconds.
    pub static WAL_FSYNC: AtomicHistogram = AtomicHistogram::new();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_buckets_are_exact() {
        for v in 0..SUB as u64 {
            let i = bucket_index(v);
            assert_eq!(i as u64, v);
            assert_eq!(bucket_lower_bound(i), v);
            assert_eq!(bucket_upper_bound(i), v);
        }
    }

    #[test]
    fn buckets_tile_the_range() {
        // Every bucket starts right after the previous one ends, and
        // every value maps into a bucket whose bounds contain it.
        for i in 1..NUM_BUCKETS {
            assert_eq!(
                bucket_lower_bound(i),
                bucket_upper_bound(i - 1) + 1,
                "gap or overlap at bucket {i}"
            );
        }
        for v in [0, 1, 7, 8, 9, 15, 16, 100, 1000, 123_456, 60_000_000] {
            let i = bucket_index(v);
            assert!(
                bucket_lower_bound(i) <= v && v <= bucket_upper_bound(i),
                "v={v}"
            );
        }
    }

    #[test]
    fn oversized_values_saturate_into_the_top_bucket() {
        let h = AtomicHistogram::new();
        h.record(u64::MAX);
        h.record(bucket_upper_bound(NUM_BUCKETS - 1) + 1);
        let s = h.snapshot();
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 2);
        assert_eq!(s.count, 2);
        assert_eq!(s.quantile(0.5), bucket_upper_bound(NUM_BUCKETS - 1));
    }

    #[test]
    fn quantiles_are_conservative_within_one_bucket() {
        let h = AtomicHistogram::new();
        // 98% fast, 2% slow — p50 must stay fast, p99 must go slow.
        for _ in 0..980 {
            h.record(100);
        }
        for _ in 0..20 {
            h.record(10_000);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        assert!(
            p50 >= 100 && p50 <= 100 + bucket_width(bucket_index(100)),
            "p50={p50}"
        );
        assert!(p99 >= 10_000, "p99={p99}");
        assert!(
            p99 <= 10_000 + bucket_width(bucket_index(10_000)),
            "p99={p99}"
        );
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 980 * 100 + 20 * 10_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = AtomicHistogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_adds_mass() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record(10);
        b.record(1000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 1010);
        assert!(s.quantile(1.0) >= 1000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 40_000);
    }
}
