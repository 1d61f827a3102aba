//! Arrival-rate shapes for composing load scenarios.
//!
//! A [`RateShape`] maps elapsed run time to an instantaneous request rate
//! multiplier, letting a scenario compose any datagen stream with a
//! traffic envelope: flat baseline, a diurnal tide, or a breaking-news
//! flash crowd. Shapes use only IEEE-exact arithmetic (+, −, ×, ÷) — no
//! transcendental calls — so a schedule derived from a shape is
//! bit-identical across platforms, which the load harness's byte-stable
//! report contract depends on.

/// A deterministic rate envelope over a run of `duration_us`.
#[derive(Clone, PartialEq, Debug)]
pub enum RateShape {
    /// Flat: multiplier 1 for the whole run.
    Constant,
    /// A smooth tide with one trough→peak→trough cycle per `period_us`:
    /// the multiplier swings between `1 - amplitude` and `1 + amplitude`
    /// on the parabola `8x(1-x) - 1` (a sine-like hump without libm).
    Diurnal {
        /// Cycle length in microseconds.
        period_us: u64,
        /// Swing around the baseline, clamped to `[0, 1)`.
        amplitude: f64,
    },
    /// Breaking news: baseline until `start_us`, an instant spike to
    /// `peak` (e.g. 100×) held for `hold_us`, then rational decay
    /// `peak / (1 + k·t)` back toward baseline (arithmetic-only stand-in
    /// for exponential decay), reaching ~1 after `decay_us`.
    FlashCrowd {
        /// Spike onset, microseconds from run start.
        start_us: u64,
        /// Peak multiplier at onset.
        peak: f64,
        /// How long the peak holds before decaying.
        hold_us: u64,
        /// Decay horizon: the multiplier is back within ~2× baseline here.
        decay_us: u64,
    },
}

impl RateShape {
    /// The rate multiplier at elapsed time `t_us` (≥ 0; a constant shape
    /// everywhere, and every shape is ≥ a small positive floor so
    /// inter-arrival gaps stay finite).
    pub fn multiplier_at(&self, t_us: u64) -> f64 {
        let m = match *self {
            RateShape::Constant => 1.0,
            RateShape::Diurnal {
                period_us,
                amplitude,
            } => {
                let period = period_us.max(1);
                let x = (t_us % period) as f64 / period as f64;
                let tide = 8.0 * x * (1.0 - x) - 1.0; // -1 at edges, +1 mid
                let amp = amplitude.clamp(0.0, 0.99);
                1.0 + amp * tide
            }
            RateShape::FlashCrowd {
                start_us,
                peak,
                hold_us,
                decay_us,
            } => {
                if t_us < start_us {
                    1.0
                } else {
                    let since = t_us - start_us;
                    let peak = peak.max(1.0);
                    if since <= hold_us {
                        peak
                    } else {
                        // peak/(1+k·t) with k chosen so the multiplier is
                        // ~2 at the decay horizon.
                        let t = (since - hold_us) as f64;
                        let horizon = decay_us.max(1) as f64;
                        let k = (peak / 2.0 - 1.0).max(0.0) / horizon;
                        (peak / (1.0 + k * t)).max(1.0)
                    }
                }
            }
        };
        m.max(0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        let s = RateShape::Constant;
        assert_eq!(s.multiplier_at(0), 1.0);
        assert_eq!(s.multiplier_at(1_000_000), 1.0);
    }

    #[test]
    fn diurnal_tide_peaks_mid_cycle() {
        let s = RateShape::Diurnal {
            period_us: 1_000_000,
            amplitude: 0.5,
        };
        let trough = s.multiplier_at(0);
        let peak = s.multiplier_at(500_000);
        assert!((trough - 0.5).abs() < 1e-9, "trough = {trough}");
        assert!((peak - 1.5).abs() < 1e-9, "peak = {peak}");
        // Smooth: quarter-cycle sits strictly between trough and peak.
        let quarter = s.multiplier_at(250_000);
        assert!(trough < quarter && quarter < peak);
        // Periodic.
        assert!((s.multiplier_at(1_500_000) - peak).abs() < 1e-9);
    }

    #[test]
    fn flash_crowd_spikes_then_decays() {
        let s = RateShape::FlashCrowd {
            start_us: 100_000,
            peak: 100.0,
            hold_us: 50_000,
            decay_us: 400_000,
        };
        assert_eq!(s.multiplier_at(0), 1.0);
        assert_eq!(s.multiplier_at(99_999), 1.0);
        assert_eq!(s.multiplier_at(100_000), 100.0);
        assert_eq!(s.multiplier_at(150_000), 100.0); // still holding
        let mid = s.multiplier_at(350_000);
        assert!(mid < 100.0 && mid > 1.0, "decaying, got {mid}");
        let late = s.multiplier_at(550_000);
        assert!(late <= 2.0 + 1e-9, "back near baseline, got {late}");
        assert!(
            s.multiplier_at(350_000) > s.multiplier_at(450_000),
            "monotone decay"
        );
    }

    #[test]
    fn multiplier_never_hits_zero() {
        let s = RateShape::Diurnal {
            period_us: 100,
            amplitude: 5.0, // out-of-range amplitude is clamped
        };
        for t in 0..200 {
            assert!(s.multiplier_at(t) > 0.0);
        }
    }
}
