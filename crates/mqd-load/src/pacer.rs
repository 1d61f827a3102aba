//! The open-loop scheduler: fire at the deadline, full stop.
//!
//! A closed-loop generator waits for a response before sending the next
//! request, so a slow server quietly throttles its own measurement —
//! coordinated omission. [`pace`] never looks at completions: it sleeps to
//! each deadline and fires, and the caller measures latency from the
//! *scheduled* deadline, so queueing delay the server causes shows up in
//! the recorded numbers instead of vanishing from them.

use crate::clock::Clock;

/// Fires `f(index, deadline_us)` for each deadline in order, at (never
/// before) the deadline, regardless of what earlier firings are still
/// waiting on. `f` must not block on server responses — hand the work to
/// a writer/reader pair and return.
pub fn pace<C: Clock>(clock: &C, deadlines: &[u64], mut f: impl FnMut(usize, u64)) {
    for (i, &d) in deadlines.iter().enumerate() {
        clock.sleep_until_us(d);
        f(i, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Simulated time: `sleep_until_us` jumps "now" forward, never blocks,
    /// and "now" never rewinds (fetch_max).
    struct VirtualClock {
        now: AtomicU64,
    }

    impl VirtualClock {
        fn new() -> Self {
            VirtualClock {
                now: AtomicU64::new(0),
            }
        }

        /// Models a run that started late.
        fn advance_to(&self, t: u64) {
            self.now.fetch_max(t, Ordering::SeqCst);
        }
    }

    impl Clock for VirtualClock {
        fn now_us(&self) -> u64 {
            self.now.load(Ordering::SeqCst)
        }

        fn sleep_until_us(&self, t: u64) {
            self.now.fetch_max(t, Ordering::SeqCst);
        }
    }

    #[test]
    fn virtual_clock_advances_on_sleep() {
        let c = VirtualClock::new();
        assert_eq!(c.now_us(), 0);
        c.sleep_until_us(1_000);
        assert_eq!(c.now_us(), 1_000);
        // Sleeping until the past is a no-op, not a rewind.
        c.sleep_until_us(10);
        assert_eq!(c.now_us(), 1_000);
    }

    /// The satellite pacing contract: with a responder lagging 10 s behind
    /// (simulated by completions that trail far after each fire), every op
    /// still fires exactly at its deadline — the schedule is independent
    /// of response latency.
    #[test]
    fn fires_at_deadlines_independent_of_response_latency() {
        let clock = VirtualClock::new();
        let deadlines: Vec<u64> = (0..100).map(|i| i * 10_000).collect();
        let mut fired_at = Vec::new();
        let mut completions = Vec::new();
        pace(&clock, &deadlines, |i, d| {
            fired_at.push((i, clock.now_us()));
            // Model a badly lagging server: this op's response would land
            // 10 s after the fire. A closed-loop generator would stall
            // here; the pacer must not.
            completions.push(d + 10_000_000);
        });
        assert_eq!(fired_at.len(), deadlines.len());
        for (i, (idx, t)) in fired_at.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(
                *t, deadlines[i],
                "op {i} fired at {t}, deadline {}",
                deadlines[i]
            );
        }
        // Sanity: the simulated completions all trail the last fire, i.e.
        // the pacer really did run ahead of the responses.
        let last_fire = fired_at.last().map(|(_, t)| *t).unwrap_or(0);
        assert!(completions.iter().all(|&c| c > last_fire));
    }

    #[test]
    fn late_start_fires_immediately_without_skipping() {
        let clock = VirtualClock::new();
        clock.advance_to(50_000); // the run started late / a hiccup
        let deadlines = [10_000u64, 20_000, 60_000];
        let mut fired = Vec::new();
        pace(&clock, &deadlines, |i, _| fired.push((i, clock.now_us())));
        // Past-due ops fire immediately at current time (send-at-deadline
        // degrades to send-asap, never to drop); future ops on schedule.
        assert_eq!(fired, vec![(0, 50_000), (1, 50_000), (2, 60_000)]);
    }
}
