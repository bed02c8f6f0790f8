//! A fixed-bucket histogram: the decision-latency and queue-wait
//! distributions of a [`crate::ServeReport`], kept on the serve loop's
//! hot path and carried whole through the crash snapshot.

use crate::metrics::push_f64;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`, and one extra overflow bucket catches everything above the
/// last bound (including non-finite observations, which have no
/// meaningful position on the axis).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    counts: Vec<u64>,
    /// Total observations, including overflow.
    count: u64,
    /// Sum of the *finite* observations (NaN would poison the sum).
    sum: f64,
}

impl Histogram {
    /// A histogram with the given ascending, finite bucket upper edges.
    pub fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be ascending and finite"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation. Non-finite values land in the overflow
    /// bucket and are kept out of the running sum.
    pub fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) estimated by linear interpolation
    /// inside the bucket holding the target rank — the Prometheus
    /// `histogram_quantile` convention. The first bucket interpolates
    /// from 0 (or from its upper edge when that edge is negative: these
    /// histograms carry non-negative metrics). A rank landing in the
    /// overflow bucket is clamped to the last finite edge — the estimate
    /// is then a lower bound, which is the honest answer for "p99 of a
    /// tail we stopped resolving". `None` when the histogram is empty or
    /// has no finite buckets.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 || self.bounds.is_empty() {
            return None;
        }
        // Target rank in [1, count]; q = 0 means the first observation.
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            if cum < target {
                continue;
            }
            if i == self.bounds.len() {
                // Overflow: clamp to the last finite edge.
                return Some(self.bounds[self.bounds.len() - 1]);
            }
            let hi = self.bounds[i];
            let lo = if i == 0 {
                hi.min(0.0)
            } else {
                self.bounds[i - 1]
            };
            // Position of the target rank inside this bucket, in (0, 1].
            let into = (target - (cum - n)) as f64 / n as f64;
            return Some(lo + (hi - lo) * into);
        }
        None
    }

    /// Per-bucket counts (`bounds.len() + 1` entries, overflow last) —
    /// the serve snapshot's raw view of the histogram.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuild a histogram from `bounds`, per-bucket `counts`, and the
    /// finite-observation `sum` (the inverse of [`Histogram::counts`] +
    /// [`Histogram::sum`]; the total count is implied by the buckets).
    /// `None` when the counts length does not match the bounds or the
    /// counts' total overflows.
    pub fn from_parts(bounds: &[f64], counts: Vec<u64>, sum: f64) -> Option<Histogram> {
        if counts.len() != bounds.len() + 1 {
            return None;
        }
        let count = counts
            .iter()
            .try_fold(0u64, |total, &n| total.checked_add(n))?;
        Some(Histogram {
            bounds: bounds.to_vec(),
            counts,
            count,
            sum,
        })
    }

    /// `(upper_bound, count)` pairs; the final pair has `None` as its
    /// bound — the overflow bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (Option<f64>, u64)> + '_ {
        self.bounds
            .iter()
            .map(|&b| Some(b))
            .chain(std::iter::once(None))
            .zip(self.counts.iter().copied())
    }

    /// Append `{"count":..,"sum":..,"buckets":[{"le":..,"count":..},..]}`.
    /// The sum and the edges go through the report's total float writer,
    /// and the overflow bucket's `le` is `null`.
    pub(crate) fn push_json(&self, s: &mut String) {
        let _ = write!(s, "{{\"count\":{},\"sum\":", self.count);
        push_f64(s, self.sum);
        s.push_str(",\"buckets\":[");
        for (i, (bound, count)) in self.buckets().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"le\":");
            match bound {
                Some(b) => push_f64(s, b),
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"count\":{count}}}");
        }
        s.push_str("]}");
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 100.0, f64::NAN, f64::INFINITY] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(Some(1.0), 2), (Some(10.0), 1), (None, 3)]);
        assert!((h.sum() - 106.4).abs() < 1e-9, "NaN/inf stay out of sum");
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert_eq!(h.quantile(0.5), None);
        let no_buckets = Histogram::new(&[]);
        assert_eq!(no_buckets.quantile(0.5), None);
    }

    #[test]
    fn quantile_interpolates_inside_a_single_bucket() {
        // 4 observations, all in the (0, 10] bucket: ranks sit at
        // 2.5, 5, 7.5, 10 under linear interpolation from the 0 edge.
        let mut h = Histogram::new(&[10.0]);
        for _ in 0..4 {
            h.record(3.0);
        }
        assert_eq!(h.quantile(0.0), Some(2.5), "q=0 is the first rank");
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn quantile_interpolates_across_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // 2 in (0,1], 6 in (1,2], 2 in (2,4].
        for v in [0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 3.0, 3.0] {
            h.record(v);
        }
        // p50: rank 5 is the 3rd of 6 in (1,2] -> 1 + 3/6.
        assert_eq!(h.quantile(0.5), Some(1.5));
        // p90: rank 9 is the 1st of 2 in (2,4] -> 2 + 1/2 * 2.
        assert_eq!(h.quantile(0.9), Some(3.0));
        // p10: rank 1 is the 1st of 2 in (0,1].
        assert_eq!(h.quantile(0.1), Some(0.5));
    }

    #[test]
    fn quantile_clamps_overflow_to_the_last_edge() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(1e9);
        h.record(f64::INFINITY);
        assert_eq!(h.quantile(0.99), Some(10.0), "overflow clamps");
        // Rank 1 is the only observation of (0, 1]: interpolation puts
        // a bucket's last rank at its upper edge.
        assert_eq!(h.quantile(0.1), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_bad_q() {
        let _ = Histogram::new(&[1.0]).quantile(1.5);
    }
}
