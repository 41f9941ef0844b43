//! Log-bucketed duration histograms (HDR-style).
//!
//! A [`Histogram`] keeps a sparse map of logarithmic buckets — eight
//! sub-buckets per power of two, so every recorded value lands in a
//! bucket whose width is at most 12.5% of its magnitude — plus exact
//! `count`/`sum`/`min`/`max`. That is enough to answer percentile
//! queries (p50/p90/p99) with bounded relative error while staying
//! cheap to record (one `BTreeMap` bump) and cheap to merge
//! (bucket-wise addition, which is associative and commutative — the
//! property the orchestrator's fleet fold relies on).
//!
//! Values are plain `u64`s; the sink records span durations in
//! microseconds, but nothing here assumes a unit.

use std::collections::BTreeMap;

/// log2 of the sub-buckets per octave: 8 sub-buckets ⇒ bucket width ≤
/// 1/8th of the value's magnitude (≤ 12.5% relative error).
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave; values below this are bucketed exactly.
const SUB: u64 = 1 << SUB_BITS;

/// Sparse bucket index of `value`: identity below [`SUB`], then
/// `(exponent, mantissa)` packed so indices stay contiguous and
/// monotone in `value`.
fn bucket_index(value: u64) -> u32 {
    if value < SUB {
        return value as u32;
    }
    let exp = 63 - value.leading_zeros();
    let mantissa = (value >> (exp - SUB_BITS)) as u32; // in [SUB, 2·SUB)
    ((exp - SUB_BITS) << SUB_BITS) + mantissa
}

/// Largest value mapping to bucket `index` (inverse of
/// [`bucket_index`]; used as the percentile's reported value, in the
/// HDR "highest equivalent value" convention).
fn bucket_high(index: u32) -> u64 {
    if u64::from(index) < SUB {
        return u64::from(index);
    }
    let e = (index - SUB as u32) >> SUB_BITS;
    let m = u128::from((index - SUB as u32) & (SUB as u32 - 1)) + u128::from(SUB);
    // The top bucket's high edge is 2^64, one past u64::MAX: saturate.
    u64::try_from(((m + 1) << e) - 1).unwrap_or(u64::MAX)
}

/// A mergeable log-bucketed histogram; see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Sparse `bucket index → sample count`.
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        *self.buckets.entry(bucket_index(value)).or_insert(0) += 1;
    }

    /// Folds `other` into `self` bucket-wise. Associative and
    /// commutative: any merge order over a set of histograms produces
    /// the same result, so shard/worker rollups are order-independent.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, rounded down; `None` when empty.
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// The `p`-th percentile (`p` clamped to 0..=100): the highest value
    /// equivalent to the bucket holding the `⌈count·p/100⌉`-th smallest
    /// sample, clamped into `[min, max]` so every answer is a value the
    /// histogram could actually have seen. `None` when empty.
    pub fn percentile(&self, p: u8) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = u64::from(p.min(100));
        let rank = (self.count * p).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (&index, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_high(index).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median ([`Histogram::percentile`] at 50).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99)
    }

    /// Writes the histogram as a JSON object:
    /// `{"count":N,"sum":N,"min":N,"max":N,"buckets":[[i,n],...]}`.
    /// Empty histograms write zero min/max so the form is stable.
    pub(crate) fn write_json(&self, w: &mut crate::json::Writer) {
        w.begin_object().key("count").uint(self.count);
        w.key("sum").uint(self.sum).key("min").uint(self.min);
        w.key("max").uint(self.max);
        w.key("buckets").begin_array();
        for (&index, &n) in &self.buckets {
            w.begin_array().uint(u64::from(index)).uint(n).end_array();
        }
        w.end_array().end_object();
    }

    /// Rebuilds a histogram from a parsed [`crate::json::Value`]
    /// produced by [`Histogram::write_json`]; `None` on shape mismatch or
    /// a field that is not an exact non-negative integer.
    pub(crate) fn from_json(value: &crate::json::Value) -> Option<Histogram> {
        let obj = value.as_object()?;
        let field = |name: &str| obj.get(name)?.as_u64();
        let mut hist = Histogram {
            count: field("count")?,
            sum: field("sum")?,
            min: field("min")?,
            max: field("max")?,
            buckets: BTreeMap::new(),
        };
        for pair in obj.get("buckets")?.as_array()? {
            let [index, n] = pair.as_array()? else {
                return None;
            };
            let index = u32::try_from(index.as_u64()?).ok()?;
            hist.buckets.insert(index, n.as_u64()?);
        }
        Some(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0u32;
        for v in (0u64..4096).chain([1 << 20, 1 << 40, u64::MAX / 2, u64::MAX]) {
            let index = bucket_index(v);
            assert!(index >= last, "index must not decrease at {v}");
            last = index;
            let high = bucket_high(index);
            assert!(high >= v, "bucket high {high} must cover {v}");
            // Relative error of reporting the bucket's high edge.
            if v >= SUB && high != u64::MAX {
                assert!(
                    (high - v) as f64 <= v as f64 / SUB as f64,
                    "error bound at {v} (high {high})"
                );
            }
        }
    }

    #[test]
    fn small_values_bucket_exactly() {
        for v in 0..SUB {
            assert_eq!(bucket_high(bucket_index(v)), v);
        }
    }

    #[test]
    fn percentiles_track_known_distributions() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        let p50 = h.p50().unwrap();
        assert!((45..=56).contains(&p50), "p50 {p50}");
        let p99 = h.p99().unwrap();
        assert!((90..=100).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile(0), Some(1));
        assert_eq!(h.percentile(100), Some(100));
    }

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.p50(), None);
    }
}
