//! Timing helpers: the paper reports *execution time per post*
//! (Section 7.3), since that determines the post throughput a deployment
//! can sustain.

use std::time::{Duration, Instant};

/// Runs `f`, returning its result and wall time.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Microseconds per post for a run over `posts` posts.
pub fn micros_per_post(posts: usize, d: Duration) -> f64 {
    if posts == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e6 / posts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_basics() {
        let (v, d) = time_it(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(micros_per_post(0, d) == 0.0);
        assert!(micros_per_post(10, Duration::from_micros(100)) - 10.0 < 1e-9);
    }
}
