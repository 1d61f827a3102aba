//! Timing helpers: the paper reports *execution time per post*
//! (Section 7.3), since that determines the post throughput a deployment
//! can sustain.

use std::time::{Duration, Instant};

/// Unwraps a harness result, aborting the process (status 2) with a
/// message on stderr instead of panicking. In a measurement driver any
/// failure must end the run loudly — a silently-degraded run reports wrong
/// numbers, which is worse than no run — and a clean exit beats unwinding
/// a panic through scoped worker threads. Nothing outlives the process.
pub fn must<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {what}: {e}");
            std::process::exit(2);
        }
    }
}

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

/// Streaming engines by name, so binaries can iterate uniformly.
pub const STREAM_ENGINES: &[&str] = &[
    "StreamScan",
    "StreamScan+",
    "StreamGreedySC",
    "StreamGreedySC+",
];

/// Runs the named streaming engine over an instance, aborting the process
/// on an unknown name — every caller is a figure driver whose engine list
/// comes from [`STREAM_ENGINES`]. [`try_run_stream_by_name`] is the
/// fallible variant.
pub fn run_stream_by_name(
    name: &str,
    inst: &mqd_core::Instance,
    lambda: &mqd_core::FixedLambda,
    tau: i64,
) -> mqd_stream::StreamRunResult {
    match try_run_stream_by_name(name, inst, lambda, tau) {
        Some(r) => r,
        None => {
            eprintln!("error: unknown streaming engine {name}");
            std::process::exit(2);
        }
    }
}

/// Runs the named streaming engine over an instance; `None` for a name
/// outside [`STREAM_ENGINES`] + `"Instant"`.
pub fn try_run_stream_by_name(
    name: &str,
    inst: &mqd_core::Instance,
    lambda: &mqd_core::FixedLambda,
    tau: i64,
) -> Option<mqd_stream::StreamRunResult> {
    let l = inst.num_labels();
    let n = inst.len();
    Some(match name {
        "StreamScan" => {
            mqd_stream::run_stream(inst, lambda, tau, &mut mqd_stream::StreamScan::new(l, n))
        }
        "StreamScan+" => mqd_stream::run_stream(
            inst,
            lambda,
            tau,
            &mut mqd_stream::StreamScan::new_plus(l, n),
        ),
        "StreamGreedySC" => {
            mqd_stream::run_stream(inst, lambda, tau, &mut mqd_stream::StreamGreedy::new(l, n))
        }
        "StreamGreedySC+" => mqd_stream::run_stream(
            inst,
            lambda,
            tau,
            &mut mqd_stream::StreamGreedy::new_plus(l, n),
        ),
        "Instant" => mqd_stream::run_stream(inst, lambda, 0, &mut mqd_stream::InstantScan::new(l)),
        _ => return None,
    })
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

    #[test]
    fn engines_run_by_name() {
        let inst =
            mqd_core::Instance::from_values(vec![(0, vec![0]), (10, vec![0]), (20, vec![1])], 2)
                .unwrap();
        let f = mqd_core::FixedLambda(5);
        for name in STREAM_ENGINES.iter().chain(["Instant"].iter()) {
            let res = run_stream_by_name(name, &inst, &f, 5);
            assert!(res.is_cover(&inst, &f), "{name} failed to produce a cover");
        }
    }

    #[test]
    fn unknown_engine_is_refused() {
        let inst = mqd_core::Instance::from_values(vec![(0, vec![0])], 1).unwrap();
        assert!(try_run_stream_by_name("nope", &inst, &mqd_core::FixedLambda(1), 1).is_none());
    }
}
