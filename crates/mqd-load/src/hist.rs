//! Log-bucketed latency histogram (HdrHistogram-style, std-only).
//!
//! Values are recorded in whatever unit the caller picks (the harness uses
//! microseconds). The first `SUB` values get exact linear buckets; above
//! that, each power-of-two octave is split into `SUB` linear sub-buckets,
//! which bounds the relative quantization error at `1/SUB` (< 1%) while
//! keeping the whole table a few kilobytes — constant-time record, no
//! allocation after construction, safe to share across recorder threads by
//! merging per-thread instances at the end.
//!
//! Percentile lookups report the *upper edge* of the matched bucket, so a
//! reported p99 never understates the true quantile.

/// Linear sub-buckets per octave (and the size of the exact linear region).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range.
const NBUCKETS: usize = (SUB as usize) * (65 - SUB_BITS as usize);

/// A fixed-size log-bucketed histogram of `u64` samples.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS since v >= SUB
    let shift = top - SUB_BITS;
    let sub = (v >> shift) - SUB; // in [0, SUB)
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// Upper edge of the bucket holding `v`-class values: the largest value
/// that lands in the same bucket as the bucket's lower bound.
fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let shift = (idx / SUB) - 1;
    let sub = idx % SUB;
    let lower = (SUB + sub) << shift;
    lower + ((1u64 << shift) - 1)
}

impl Hist {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        Hist {
            counts: vec![0; NBUCKETS],
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if let Some(c) = self.counts.get_mut(bucket_index(v)) {
            *c += 1;
        }
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Folds another histogram into this one (per-thread recorder merge).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample, exact (not bucket-quantized).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded sample, exact; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of the recorded samples, rounded down; 0 when empty.
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            return 0;
        }
        (self.sum / self.total as u128) as u64
    }

    /// The value at percentile `p` (0.0–100.0): the upper edge of the first
    /// bucket whose cumulative count reaches `ceil(p/100 * total)`, clamped
    /// to the exact observed max. 0 when empty.
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Renders the standard percentile block as byte-stable JSON:
    /// `{"p50":..,"p95":..,"p99":..,"p999":..,"max":..,"mean":..,"count":..}`
    /// (integer sample units throughout, so the bytes are reproducible).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"p50":{},"p95":{},"p99":{},"p999":{},"max":{},"mean":{},"count":{}}}"#,
            self.value_at_percentile(50.0),
            self.value_at_percentile(95.0),
            self.value_at_percentile(99.0),
            self.value_at_percentile(99.9),
            self.max(),
            self.mean(),
            self.count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        let mut h = Hist::new();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.count(), SUB);
        assert_eq!(h.value_at_percentile(50.0), SUB / 2 - 1);
        assert_eq!(h.value_at_percentile(100.0), SUB - 1);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index must be monotone");
            assert!(idx < NBUCKETS);
            prev = idx;
            // The representative upper edge never understates the value.
            assert!(bucket_upper(idx) >= v);
        }
        assert!(bucket_index(u64::MAX) < NBUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[1_000u64, 123_456, 9_999_999, 1 << 40] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            // Upper edge within 1/SUB of the true value.
            assert!(
                (upper - v) as f64 <= v as f64 / SUB as f64 + 1.0,
                "v={v} upper={upper}"
            );
        }
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let mut h = Hist::new();
        // 1..=1000 microseconds, uniform.
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.value_at_percentile(50.0);
        let p99 = h.value_at_percentile(99.0);
        assert!((495..=512).contains(&p50), "p50={p50}");
        assert!((985..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.value_at_percentile(100.0), 1000);
        assert_eq!(h.mean(), 500);
    }

    #[test]
    fn merge_matches_single_recorder() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut one = Hist::new();
        for v in 0..4096u64 {
            let x = v * 37 % 100_000;
            one.record(x);
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.to_json(), one.to_json());
    }

    #[test]
    fn empty_histogram_renders_zeros() {
        let h = Hist::new();
        assert_eq!(
            h.to_json(),
            r#"{"p50":0,"p95":0,"p99":0,"p999":0,"max":0,"mean":0,"count":0}"#
        );
    }
}
