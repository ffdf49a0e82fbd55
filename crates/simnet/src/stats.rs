//! Measurement utilities: latency recording and throughput accounting.
//!
//! These are used by the benchmark harness to report the same quantities the
//! paper plots (mean latency in µs, requests per second).

use serde::{Deserialize, Serialize};

use crate::time::Nanos;

/// Collects latency samples and computes summary statistics.
///
/// The recorder keeps one count per distinct value, not every sample: the
/// distinct values in ascending order, a parallel `u32` count for each, the
/// total count and a `u128` sum. Recording is a binary search that bumps a
/// count or inserts a new value (O(distinct) in the worst case, when every
/// sample is new); every statistic comes out exact from the counts, with
/// nothing cloned or sorted.
///
/// # Examples
///
/// ```
/// use simnet::{LatencyRecorder, Nanos};
///
/// let mut rec = LatencyRecorder::new();
/// for us in [10, 20, 30] {
///     rec.record(Nanos::from_micros(us));
/// }
/// assert_eq!(rec.len(), 3);
/// assert_eq!(rec.mean().as_micros(), 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    /// Distinct sample values, ascending.
    values: Vec<u64>,
    /// How often each of `values` was recorded.
    counts: Vec<u32>,
    /// Number of samples recorded.
    len: u64,
    /// Sum of every sample.
    sum: u128,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Adds one latency sample.
    ///
    /// # Panics
    ///
    /// Panics if one value is recorded 2^32 times.
    pub fn record(&mut self, latency: Nanos) {
        let value = latency.as_nanos();
        match self.values.binary_search(&value) {
            Ok(i) => {
                self.counts[i] = self.counts[i]
                    .checked_add(1)
                    .expect("a latency value was recorded 2^32 times");
            }
            Err(i) => {
                self.values.insert(i, value);
                self.counts.insert(i, 1);
            }
        }
        self.len += 1;
        self.sum += u128::from(value);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arithmetic mean, rounded down. Returns zero when empty.
    pub fn mean(&self) -> Nanos {
        if self.is_empty() {
            return Nanos::ZERO;
        }
        Nanos::from_nanos((self.sum / u128::from(self.len)) as u64)
    }

    /// The `p`-th percentile (0.0..=100.0), nearest-rank method: the
    /// sample at index `round(p/100 · (n−1))` of the sorted samples.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or the recorder is empty.
    pub fn percentile(&self, p: f64) -> Nanos {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        assert!(!self.is_empty(), "no samples recorded");
        let rank = ((p / 100.0) * (self.len as f64 - 1.0)).round() as u64;
        let mut below = 0u64;
        for (&value, &count) in self.values.iter().zip(&self.counts) {
            below += u64::from(count);
            if rank < below {
                return Nanos::from_nanos(value);
            }
        }
        unreachable!("rank {rank} lies below the count {}", self.len)
    }

    /// Minimum sample. Zero when empty.
    pub fn min(&self) -> Nanos {
        Nanos::from_nanos(self.values.first().copied().unwrap_or(0))
    }

    /// Maximum sample. Zero when empty.
    pub fn max(&self) -> Nanos {
        Nanos::from_nanos(self.values.last().copied().unwrap_or(0))
    }
}

/// Computes closed-loop throughput: `ops` completed over `elapsed`.
///
/// Returns operations per second. Zero if `elapsed` is zero.
///
/// # Examples
///
/// ```
/// use simnet::{throughput_ops_per_sec, Nanos};
///
/// let rps = throughput_ops_per_sec(1_000, Nanos::from_secs(2));
/// assert!((rps - 500.0).abs() < 1e-9);
/// ```
pub fn throughput_ops_per_sec(ops: u64, elapsed: Nanos) -> f64 {
    if elapsed == Nanos::ZERO {
        return 0.0;
    }
    ops as f64 / elapsed.as_secs_f64()
}

/// One measured point in a figure series: payload size and a value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Measured value (µs for latency figures, ops/s for throughput).
    pub value: f64,
}

/// A named series of points (one line in a paper figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label, e.g. `"RDMA Send/Recv"`.
    pub label: String,
    /// Points in sweep order.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, payload_bytes: usize, value: f64) {
        self.points.push(SeriesPoint {
            payload_bytes,
            value,
        });
    }

    /// The value at a given payload size, if present.
    pub fn value_at(&self, payload_bytes: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.payload_bytes == payload_bytes)
            .map(|p| p.value)
    }
}

/// Renders a set of series as an aligned text table (one row per payload).
///
/// All series must cover the same payload sweep; missing values print as `-`.
pub fn render_table(title: &str, unit: &str, series: &[Series]) -> String {
    use std::collections::BTreeSet;
    let mut out = String::new();
    out.push_str(&format!("# {title} ({unit})\n"));
    let payloads: BTreeSet<usize> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.payload_bytes))
        .collect();
    out.push_str(&format!("{:>12}", "payload"));
    for s in series {
        out.push_str(&format!("  {:>18}", s.label));
    }
    out.push('\n');
    for p in payloads {
        let label = if p % 1024 == 0 {
            format!("{}KB", p / 1024)
        } else {
            format!("{p}B")
        };
        out.push_str(&format!("{label:>12}"));
        for s in series {
            match s.value_at(p) {
                Some(v) => out.push_str(&format!("  {v:>18.1}")),
                None => out.push_str(&format!("  {:>18}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_is_safe() {
        let rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.mean(), Nanos::ZERO);
        assert_eq!(rec.min(), Nanos::ZERO);
        assert_eq!(rec.max(), Nanos::ZERO);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut rec = LatencyRecorder::new();
        for n in 1..=100u64 {
            rec.record(Nanos::from_nanos(n));
        }
        assert_eq!(rec.percentile(0.0).as_nanos(), 1);
        assert_eq!(rec.percentile(100.0).as_nanos(), 100);
        let p50 = rec.percentile(50.0).as_nanos();
        assert!((50..=51).contains(&p50));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_empty_panics() {
        LatencyRecorder::new().percentile(50.0);
    }

    #[test]
    fn repeated_values_keep_one_count_each() {
        let mut rec = LatencyRecorder::new();
        for n in [5u64, 1, 5, 3, 5, 1, u64::MAX, u64::MAX] {
            rec.record(Nanos::from_nanos(n));
        }
        assert_eq!(rec.values, [1, 3, 5, u64::MAX]);
        assert_eq!(rec.counts, [2, 1, 3, 2]);
        assert_eq!(rec.len(), 8);
        // Sorted: 1 1 3 5 5 5 MAX MAX; rank round(p/100 · 7).
        assert_eq!(rec.percentile(0.0).as_nanos(), 1);
        assert_eq!(rec.percentile(30.0).as_nanos(), 3);
        assert_eq!(rec.percentile(50.0).as_nanos(), 5);
        assert_eq!(rec.percentile(90.0).as_nanos(), u64::MAX);
        assert_eq!(
            rec.mean().as_nanos(),
            ((2 * u128::from(u64::MAX) + 20) / 8) as u64
        );
    }

    #[test]
    #[should_panic(expected = "recorded 2^32 times")]
    fn a_count_that_would_overflow_panics() {
        let mut rec = LatencyRecorder::new();
        rec.record(Nanos::from_nanos(7));
        rec.counts[0] = u32::MAX;
        rec.record(Nanos::from_nanos(7));
    }

    #[test]
    fn throughput_division() {
        assert_eq!(throughput_ops_per_sec(0, Nanos::from_secs(1)), 0.0);
        assert_eq!(throughput_ops_per_sec(10, Nanos::ZERO), 0.0);
        let rps = throughput_ops_per_sec(2_000, Nanos::from_millis(500));
        assert!((rps - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn series_lookup() {
        let mut s = Series::new("TCP");
        s.push(1024, 250.0);
        s.push(2048, 260.0);
        assert_eq!(s.value_at(1024), Some(250.0));
        assert_eq!(s.value_at(4096), None);
    }

    #[test]
    fn table_rendering_includes_all_series() {
        let mut a = Series::new("TCP");
        a.push(1024, 250.0);
        let mut b = Series::new("RDMA");
        b.push(1024, 120.0);
        b.push(2048, 130.0);
        let t = render_table("Fig 3a", "us", &[a, b]);
        assert!(t.contains("Fig 3a"));
        assert!(t.contains("TCP"));
        assert!(t.contains("RDMA"));
        assert!(t.contains("1KB"));
        assert!(t.contains("2KB"));
        assert!(t.contains('-'));
    }
}
