//! The benchmark's own percentile and spread math. Deliberately not
//! `mqd_load::Hist`: that type is log-bucketed (lossy) and ROADMAP item 1
//! will move it; these are exact, over the raw samples of one run.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentile of unsorted samples (sorts a copy).
pub fn percentile_of(samples: &[u64], p: f64) -> Option<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, p)
}

/// Median of unsorted floats; the mean of the two middle values when even.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A percentile that survives host stalls: split the run into `windows`
/// send-time windows of `width_us`, take percentile `p` of each window, and
/// report the median of those. `samples` are `(scheduled send µs, latency
/// ns)`. A stall inflates the windows it touches and leaves the median of
/// windows alone — as long as it touches fewer than half — where a
/// whole-run figure moves with every disturbed sample.
pub fn windowed_percentile(
    samples: &[(u64, u64)],
    width_us: u64,
    windows: usize,
    p: f64,
) -> Option<f64> {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); windows.max(1)];
    for &(at_us, lat) in samples {
        let w = ((at_us / width_us.max(1)) as usize).min(buckets.len() - 1);
        buckets[w].push(lat);
    }
    let per_window: Vec<f64> = buckets
        .iter()
        .filter_map(|b| percentile_of(b, p))
        .map(|v| v as f64)
        .collect();
    median(&per_window)
}

/// The highest percentile worth reporting as a tail: p99 when at least ten
/// samples lie beyond it, otherwise the highest rank that still has ten
/// beyond. Returns `(percentile, value)`; `None` under eleven samples.
pub fn supported_tail(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let p = 0.99f64.min((n - 10) as f64 / n as f64);
    percentile(sorted, p).map(|v| (p, v))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method) — the builder contract measures spread this way,
/// so the committed spread table must too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the contract's spread.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentiles_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.90), Some(90));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // Unsorted input goes through percentile_of.
        assert_eq!(percentile_of(&[5, 1, 4, 2, 3], 0.5), Some(3));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn windowed_percentiles_ignore_stalled_windows() {
        // Ten 1-second windows of ten samples each at latency 100, except
        // windows 3 and 4, which stall at 10_000: whole-run p50 of a run
        // with 40 % stalled samples would already be creeping, p95 is gone;
        // the median of per-window percentiles does not move.
        let mut samples = Vec::new();
        for w in 0..10u64 {
            for i in 0..10u64 {
                let lat = if w == 3 || w == 4 { 10_000 } else { 100 + i };
                samples.push((w * 1_000_000 + i * 100_000, lat));
            }
        }
        assert_eq!(
            windowed_percentile(&samples, 1_000_000, 10, 0.90),
            Some(108.0)
        );
        assert_eq!(
            windowed_percentile(&samples, 1_000_000, 10, 0.50),
            Some(104.0)
        );
        let all: Vec<u64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile_of(&all, 0.95), Some(10_000));
        // A sample scheduled exactly at the end lands in the last window;
        // windows without samples do not vote.
        assert_eq!(
            windowed_percentile(&[(10_000_000, 5)], 1_000_000, 10, 0.9),
            Some(5.0)
        );
        assert_eq!(windowed_percentile(&[], 1_000_000, 10, 0.9), None);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        // 100 samples: p99 has one beyond, so fall back to rank 90.
        assert_eq!(supported_tail(&v), Some((0.90, 90)));
        let big: Vec<u64> = (1..=2000).collect();
        assert_eq!(supported_tail(&big), Some((0.99, 1980)));
        assert_eq!(supported_tail(&v[..10]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        assert_eq!(relative_spread(&v), Some(1.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }
}
