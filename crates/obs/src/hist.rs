//! Log-bucketed latency histograms (HDR-style, power-of-two buckets).
//!
//! A [`Histogram`] is a fixed array of 65 relaxed-atomic buckets: bucket 0
//! holds exact zeros and bucket `i >= 1` covers `[2^(i-1), 2^i - 1]`. All
//! mutation is `fetch_add` with `Ordering::Relaxed`, so any number of rayon
//! workers can record into one histogram through a shared `Arc`, and two
//! histograms [`merge`](Histogram::merge_from) by summing buckets — merging
//! is associative and commutative by construction (it is vector addition).
//!
//! Percentile queries run on an immutable [`HistSnapshot`]: the reported
//! value is the *upper bound* of the bucket holding the requested rank,
//! clamped to the exact observed maximum, which guarantees
//! `true_quantile <= reported <= max(2 * true_quantile - 1, true_quantile)`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::json::{Json, JsonError};

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// Bucket index for `value`: 0 for 0, otherwise `64 - leading_zeros`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `idx` (`0` for bucket 0, else
/// `2^idx - 1`, saturating at `u64::MAX`).
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// A mergeable, thread-safe latency histogram with power-of-two buckets.
///
/// Values are whatever unit the caller records — kernel code records
/// microseconds for per-source / per-level / per-round timings, and the
/// workspace pool records per-checkout traversal counts.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Fold another histogram into this one (bucket-wise sum; the merged
    /// max is the max of the two maxima).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if v != 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Immutable snapshot for rendering / serialization.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let v = b.load(Ordering::Relaxed);
                    (v != 0).then_some((i as u8, v))
                })
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable, sparse snapshot of a [`Histogram`]: only non-empty buckets
/// are kept, as `(bucket_index, count)` pairs in index order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistSnapshot {
    pub buckets: Vec<(u8, u64)>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistSnapshot {
    /// Value at quantile `q` in `(0, 1]`: the upper bound of the bucket
    /// containing rank `ceil(q * count)`, clamped to the observed max.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx as usize).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`HistSnapshot::percentile`] for bounds).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Mean of the recorded values (exact: from the true sum, not buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".to_string(), Json::Num(self.count as f64)),
            ("sum".to_string(), Json::Num(self.sum as f64)),
            ("max".to_string(), Json::Num(self.max as f64)),
            (
                "buckets".to_string(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| Json::Arr(vec![Json::Num(i as f64), Json::Num(n as f64)]))
                        .collect(),
                ),
            ),
        ])
    }

    pub(crate) fn from_json(value: &Json) -> Result<HistSnapshot, JsonError> {
        let missing = |what: &str| JsonError {
            offset: 0,
            message: format!("histogram missing or malformed field: {what}"),
        };
        Ok(HistSnapshot {
            count: value
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| missing("count"))?,
            sum: value
                .get("sum")
                .and_then(Json::as_u64)
                .ok_or_else(|| missing("sum"))?,
            max: value
                .get("max")
                .and_then(Json::as_u64)
                .ok_or_else(|| missing("max"))?,
            buckets: value
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| missing("buckets"))?
                .iter()
                .map(|pair| {
                    let arr = pair.as_arr().ok_or_else(|| missing("bucket pair"))?;
                    match arr {
                        [i, n] => Ok((
                            i.as_u64().ok_or_else(|| missing("bucket index"))? as u8,
                            n.as_u64().ok_or_else(|| missing("bucket count"))?,
                        )),
                        _ => Err(missing("bucket pair")),
                    }
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Cheap cloneable handle to a [`Histogram`] on a report node, or a no-op
/// when collection is disabled. Capture one on the coordinating thread and
/// share it with workers; [`start`](HistHandle::start) /
/// [`stop_us`](HistHandle::stop_us) time a section without ever calling
/// `Instant::now` on the disabled path.
#[derive(Clone, Debug, Default)]
pub struct HistHandle(pub(crate) Option<Arc<Histogram>>);

impl HistHandle {
    /// Record one observation (no-op without a live context).
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Begin timing a section: `Some(Instant)` only when the handle is
    /// live, so disabled runs never touch the clock.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// Finish timing a section started with [`HistHandle::start`],
    /// recording the elapsed microseconds.
    #[inline]
    pub fn stop_us(&self, started: Option<Instant>) {
        if let (Some(h), Some(t)) = (&self.0, started) {
            h.record(t.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        for idx in 1..64 {
            // Every bucket's upper bound maps back into the bucket.
            assert_eq!(bucket_of(bucket_upper(idx)), idx);
        }
    }

    #[test]
    fn percentiles_are_upper_bounds_clamped_to_max() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 1000);
        // Rank 3 of 5 lands in the bucket of 3 → upper bound 3.
        assert_eq!(s.p50(), 3);
        // p99 → rank 5 → bucket of 1000 is [512, 1023], clamped to 1000.
        assert_eq!(s.p99(), 1000);
        assert!((s.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn merge_sums_buckets_and_keeps_max() {
        let a = Histogram::default();
        let b = Histogram::default();
        for v in 0..100 {
            a.record(v);
            b.record(v * 7);
        }
        let merged = Histogram::default();
        merged.merge_from(&a);
        merged.merge_from(&b);
        let s = merged.snapshot();
        assert_eq!(s.count, 200);
        assert_eq!(s.max, 99 * 7);
        assert_eq!(
            s.sum,
            (0..100).sum::<u64>() + (0..100).map(|v| v * 7).sum::<u64>()
        );
    }

    #[test]
    fn snapshot_json_round_trip() {
        let h = Histogram::default();
        for v in [0u64, 5, 5, 80, 4096] {
            h.record(v);
        }
        let s = h.snapshot();
        let back = HistSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = Arc::new(Histogram::default());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().max, 3999);
    }
}
