//! Time source abstraction for the open-loop scheduler.
//!
//! The pacer fires requests at precomputed deadlines. Behind a [`Clock`]
//! it runs against wall time ([`RealClock`], every run); the pacer's unit
//! tests substitute a virtual clock whose `sleep_until_us` simply advances
//! "now" to the deadline, so they can prove the schedule is honored at
//! exact microsecond deadlines without waiting out the run.

use std::time::{Duration, Instant};

/// Monotonic microsecond time source with deadline sleeps.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since the clock's epoch (its construction).
    fn now_us(&self) -> u64;
    /// Blocks (or advances virtual time) until `now_us() >= t`.
    fn sleep_until_us(&self, t: u64);
}

/// Wall-clock time, epoch = construction.
pub struct RealClock {
    start: Instant,
}

impl RealClock {
    /// Starts the epoch now.
    pub fn new() -> Self {
        RealClock {
            start: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn sleep_until_us(&self, t: u64) {
        loop {
            let now = self.now_us();
            if now >= t {
                return;
            }
            // One bounded sleep per loop turn; re-check for oversleep
            // tolerance on coarse-timer hosts.
            std::thread::sleep(Duration::from_micros(t - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_reaches_deadlines() {
        let c = RealClock::new();
        c.sleep_until_us(2_000);
        assert!(c.now_us() >= 2_000);
    }
}
