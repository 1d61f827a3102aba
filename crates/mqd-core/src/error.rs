//! Error type for the core library.

use std::fmt;

/// Errors produced by instance construction and the exact solvers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MqdError {
    /// A post references a label `>= num_labels`.
    LabelOutOfRange {
        /// The offending label.
        label: u16,
        /// The declared number of labels.
        num_labels: usize,
    },
    /// The distance threshold lambda must be non-negative.
    NegativeLambda(i64),
    /// The exact DP exceeded its configured state budget; the instance is too
    /// large for OPT (use GreedySC or Scan instead).
    OptBudgetExceeded {
        /// Number of end-patterns at the step that blew the budget.
        patterns: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The brute-force solver was asked to handle more posts than its cap.
    BruteTooLarge {
        /// Number of posts in the instance.
        posts: usize,
        /// The configured cap.
        limit: usize,
    },
    /// A line-oriented input (TSV) failed to parse.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// What went wrong on that line.
        msg: String,
    },
    /// A binary input (binlog, checkpoint) is corrupt or truncated.
    Corrupt {
        /// Byte offset where decoding failed (0 for whole-file checks such
        /// as a checksum or footer mismatch).
        offset: usize,
        /// What the decoder expected.
        reason: String,
    },
    /// A stream input violated the arrival-order contract: timestamps must
    /// be non-decreasing.
    NonMonotoneTimestamp {
        /// 1-based row number of the out-of-order post.
        row: usize,
        /// The previous (larger) timestamp.
        prev: i64,
        /// The offending (smaller) timestamp.
        got: i64,
    },
    /// A stream input row carries no labels; such a post matches no query
    /// and a streaming pipeline must reject it rather than silently drop it.
    EmptyLabelSet {
        /// 1-based row number of the unlabeled post.
        row: usize,
    },
    /// An underlying I/O operation failed (message of the `std::io::Error`).
    Io(String),
    /// A shard thread panicked and exhausted its restart budget.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// Number of restarts attempted before giving up.
        restarts: usize,
    },
    /// A checkpoint does not match the stream it is being applied to.
    CheckpointMismatch {
        /// What differed (lambda, tau, shard count, input digest, ...).
        what: String,
    },
    /// A client spoke the serving protocol incorrectly (unknown command,
    /// missing argument, oversized request, ...). Servers answer these with
    /// a typed error response instead of dropping the connection.
    Protocol {
        /// What the server expected.
        msg: String,
    },
    /// A shared mutex was poisoned: another thread panicked while holding
    /// it. The lock holder's state may be torn, so the operation is
    /// refused rather than served from suspect data.
    Poisoned {
        /// Which lock (store, cache, ...).
        what: &'static str,
    },
    /// A peer exhausted its idle budget (half-open socket or byte
    /// dribbling); the server reclaims the worker with a typed response
    /// instead of starving.
    Timeout {
        /// What timed out (request line, body, ...).
        msg: String,
    },
}

impl MqdError {
    /// A [`MqdError::Protocol`] with the given message.
    pub fn protocol(msg: impl Into<String>) -> Self {
        MqdError::Protocol { msg: msg.into() }
    }
}

impl fmt::Display for MqdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MqdError::LabelOutOfRange { label, num_labels } => {
                write!(f, "label {label} out of range (num_labels = {num_labels})")
            }
            MqdError::NegativeLambda(l) => write!(f, "lambda must be >= 0, got {l}"),
            MqdError::OptBudgetExceeded { patterns, limit } => write!(
                f,
                "OPT state budget exceeded: {patterns} end-patterns > limit {limit}"
            ),
            MqdError::BruteTooLarge { posts, limit } => {
                write!(
                    f,
                    "brute-force solver limited to {limit} posts, got {posts}"
                )
            }
            MqdError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            MqdError::Corrupt { offset, reason } => {
                write!(f, "corrupt input at byte {offset}: {reason}")
            }
            MqdError::NonMonotoneTimestamp { row, prev, got } => write!(
                f,
                "row {row}: timestamp {got} is earlier than the previous row's {prev} \
                 (stream input must be time-sorted)"
            ),
            MqdError::EmptyLabelSet { row } => {
                write!(f, "row {row}: empty label set (post matches no query)")
            }
            MqdError::Io(msg) => write!(f, "I/O error: {msg}"),
            MqdError::ShardFailed { shard, restarts } => write!(
                f,
                "shard {shard} failed after {restarts} restart(s); giving up"
            ),
            MqdError::CheckpointMismatch { what } => {
                write!(f, "checkpoint does not match this stream: {what}")
            }
            MqdError::Protocol { msg } => write!(f, "protocol error: {msg}"),
            MqdError::Poisoned { what } => write!(
                f,
                "{what} lock poisoned by a panicking thread; refusing to serve from it"
            ),
            MqdError::Timeout { msg } => write!(f, "idle timeout: {msg}"),
        }
    }
}

impl std::error::Error for MqdError {}

impl From<std::io::Error> for MqdError {
    fn from(e: std::io::Error) -> Self {
        MqdError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MqdError::LabelOutOfRange {
            label: 9,
            num_labels: 3,
        };
        assert!(e.to_string().contains("label 9"));
        let e = MqdError::OptBudgetExceeded {
            patterns: 100,
            limit: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(MqdError::NegativeLambda(-5).to_string().contains("-5"));
        let e = MqdError::BruteTooLarge {
            posts: 40,
            limit: 24,
        };
        assert!(e.to_string().contains("40"));
    }

    #[test]
    fn robustness_variants_carry_location() {
        let e = MqdError::Parse {
            line: 7,
            msg: "bad id".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = MqdError::Corrupt {
            offset: 12,
            reason: "truncated varint".into(),
        };
        assert!(e.to_string().contains("byte 12"));
        let e = MqdError::NonMonotoneTimestamp {
            row: 3,
            prev: 100,
            got: 50,
        };
        let s = e.to_string();
        assert!(s.contains("row 3") && s.contains("100") && s.contains("50"));
        assert!(MqdError::EmptyLabelSet { row: 9 }
            .to_string()
            .contains("row 9"));
        let e = MqdError::ShardFailed {
            shard: 2,
            restarts: 3,
        };
        assert!(e.to_string().contains("shard 2"));
        let e = MqdError::CheckpointMismatch {
            what: "lambda 5 != 7".into(),
        };
        assert!(e.to_string().contains("lambda 5 != 7"));
        let e = MqdError::protocol("unknown command FROB");
        assert!(e.to_string().contains("unknown command FROB"));
        let e = MqdError::Poisoned { what: "store" };
        assert!(e.to_string().contains("store lock poisoned"));
        let e = MqdError::Timeout {
            msg: "request line stalled".into(),
        };
        assert!(e.to_string().contains("idle timeout"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read");
        let e: MqdError = io.into();
        assert!(e.to_string().contains("short read"));
    }
}
