//! Workload construction shared by the experiments.

use mqd_core::{Instance, MqdError};
use mqd_datagen::{generate_labeled_posts, LabeledStreamConfig, DAY_MS, MINUTE_MS};

/// Matching rate calibrated against the paper's Table 2 (~59–68 matching
/// posts per label per minute on the 2013 Twitter 1% sample).
pub const CALIBRATED_PER_LABEL_PER_MIN: f64 = 68.0;

/// Reduced matching rate used in the experiments that need the exact OPT
/// baseline (Figures 6, 7, 9, 10): OPT's end-pattern DP is exponential in
/// |L| with a base given by the posts-per-lambda-window density, so the
/// rate is scaled down until the DP is comfortably feasible. Relative
/// errors compare algorithms on the *same* instance, so the shape of the
/// curves is preserved (documented in EXPERIMENTS.md).
pub const OPT_FEASIBLE_PER_LABEL_PER_MIN: f64 = 12.0;

/// Seconds to milliseconds for the experiment grids; saturating, so a
/// grid value can never wrap into a negative lambda or tau.
pub fn secs(s: i64) -> i64 {
    s.saturating_mul(1000)
}

/// Minutes to milliseconds; saturating like [`secs`].
pub fn mins(m: i64) -> i64 {
    m.saturating_mul(MINUTE_MS)
}

/// Generates the labeled stream `cfg` describes and indexes it as an
/// [`Instance`]. The generator only emits labels below `cfg.num_labels`,
/// so the error is never expected; it is returned rather than unwrapped
/// so an experiment reports it and exits instead of panicking.
pub fn stream_instance(cfg: &LabeledStreamConfig) -> Result<Instance, MqdError> {
    Instance::from_posts(generate_labeled_posts(cfg), cfg.num_labels)
}

/// A 10-minute evaluation slice (the paper's unit for exact-baseline
/// experiments, "starting at 12pm on Jun 13").
pub fn ten_minute_instance(
    num_labels: usize,
    per_label_per_min: f64,
    overlap: f64,
    seed: u64,
) -> Result<Instance, MqdError> {
    stream_instance(&LabeledStreamConfig {
        num_labels,
        per_label_per_minute: per_label_per_min,
        overlap,
        duration_ms: mins(10),
        seed,
        ..LabeledStreamConfig::default()
    })
}

/// A one-day stream (Figures 8, 12, 13, 14, 15) at the calibrated rate and
/// overlap 1.15, with a diurnal rate curve like real Twitter traffic.
/// `scale` shrinks the duration (e.g. `--quick` runs 1/10th of a day), but
/// never below ten minutes.
pub fn day_instance(num_labels: usize, seed: u64, scale: f64) -> Result<Instance, MqdError> {
    stream_instance(&LabeledStreamConfig {
        num_labels,
        per_label_per_minute: CALIBRATED_PER_LABEL_PER_MIN,
        overlap: 1.15,
        duration_ms: ((DAY_MS as f64 * scale) as i64).max(mins(10)),
        diurnal_amplitude: 0.3,
        seed,
        ..LabeledStreamConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_minute_slice_has_expected_span() {
        let inst = ten_minute_instance(2, 20.0, 1.2, 1).unwrap();
        assert!(!inst.is_empty());
        let span = inst.value(inst.len() as u32 - 1) - inst.value(0);
        assert!(span <= 10 * MINUTE_MS);
        assert_eq!(inst.num_labels(), 2);
    }

    #[test]
    fn day_scale_shrinks_duration() {
        let small = day_instance(2, 1, 0.02).unwrap();
        let span = small.value(small.len() as u32 - 1) - small.value(0);
        assert!(span <= (DAY_MS as f64 * 0.02) as i64 + MINUTE_MS);
    }
}
