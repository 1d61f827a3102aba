//! The benchmark's own wire client: response framing, a blocking
//! request/response call for set-up, and the open-loop lane that drives the
//! timed phase. One lane is one thread and one connection; it both sends on
//! schedule and reads responses, so the generator never needs more threads
//! than connections.

use std::collections::VecDeque;
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long before a deadline the lane stops sleeping in `ppoll` and spins.
/// Even with the timer slack turned down (see [`Conn::run_lane`]) a sleeping
/// vCPU takes tens of µs to wake (a bare sleep measured ~100 µs late at
/// p50); spinning the last stretch sends on time for under 2 % of one CPU
/// at the highest rate any workload uses.
const SPIN: Duration = Duration::from_micros(80);

/// How long after its scheduled send an op may stay unanswered before the
/// lane gives up on it and everything behind it.
const PATIENCE: Duration = Duration::from_secs(10);

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    // std has no way to wait on a socket with a sub-millisecond timeout:
    // SO_RCVTIMEO is rounded up to scheduler ticks (4 ms here), which would
    // make every send behind an outstanding response that late.
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Asks the kernel to fire this thread's timers on time instead of up to
/// 50 µs late (the default slack, which exists to batch wake-ups).
fn minimal_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (the slack in
    // ns) and touches nothing but the calling thread's timer slack value.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

/// Waits until `stream` is readable or `timeout` passes. True if readable
/// (or on error — the following `read` then reports it).
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are live, properly initialised `repr(C)` values
    // matching `struct pollfd` / `struct timespec` on Linux; `nfds` is 1,
    // the length of the array `&mut fd` points to; a null sigmask is
    // allowed and means "leave the signal mask alone". The descriptor is
    // borrowed from `stream`, which outlives the call.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n != 0
}

/// One framed response: the status line, the payload bytes (each payload
/// line with its newline), and the frame's total size on the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frame {
    pub status: String,
    pub payload: Vec<u8>,
    pub wire_bytes: usize,
}

impl Frame {
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("+OK")
    }

    pub fn rows(&self) -> usize {
        self.payload.iter().filter(|&&b| b == b'\n').count()
    }

    pub fn flag(&self, key: &str) -> bool {
        self.status.contains(&format!("\"{key}\":true"))
    }
}

/// `"key":<digits>` anywhere in `json` (first occurrence).
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let digits: &str = &json[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Incremental response framing over a byte stream: a frame is a status
/// line, payload lines, and a line holding only `.`.
#[derive(Default)]
struct Framer {
    buf: Vec<u8>,
    /// Where the next search for the terminator resumes.
    scanned: usize,
}

impl Framer {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if the buffer holds one.
    fn pop(&mut self) -> Option<Frame> {
        const END: &[u8] = b"\n.\n";
        let from = self.scanned.saturating_sub(END.len() - 1);
        let Some(hit) = self.buf[from..].windows(END.len()).position(|w| w == END) else {
            self.scanned = self.buf.len();
            return None;
        };
        let end = from + hit + END.len();
        let status_end = self.buf[..end].iter().position(|&b| b == b'\n')?;
        let frame = Frame {
            status: String::from_utf8_lossy(&self.buf[..status_end]).into_owned(),
            payload: self.buf[status_end + 1..end - 2].to_vec(),
            wire_bytes: end,
        };
        self.buf.drain(..end);
        self.scanned = 0;
        Some(frame)
    }
}

/// What became of one scheduled op.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// When the send began, ns after the phase start (0 = never).
    pub sent_ns: u64,
    /// When the terminator arrived, ns after the phase start (0 = never).
    pub done_ns: u64,
    pub status: String,
    pub rows: u32,
    pub wire_bytes: u32,
    /// The payload, kept only for ops the caller sampled.
    pub payload: Option<Vec<u8>>,
}

impl Outcome {
    pub fn answered(&self) -> bool {
        self.done_ns != 0
    }

    pub fn is_ok(&self) -> bool {
        self.status.starts_with("+OK")
    }
}

/// One op of a lane's schedule.
pub struct LaneOp {
    pub at_us: u64,
    pub bytes: Vec<u8>,
    pub keep_payload: bool,
}

/// A connection to a server or router.
pub struct Conn {
    stream: TcpStream,
    framer: Framer,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A write may block on backpressure (that delay is charged to the
        // system, by design) but not forever.
        stream
            .set_write_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            framer: Framer::default(),
        })
    }

    /// Closed-loop: send `bytes`, wait for the framed response.
    pub fn request(&mut self, bytes: &[u8]) -> Result<Frame, String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.framer.pop() {
                return Ok(frame);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed before a response".into()),
                Ok(n) => self.framer.push(&chunk[..n]),
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// Closed-loop request of one line.
    pub fn line(&mut self, line: &str) -> Result<Frame, String> {
        self.request(format!("{line}\n").as_bytes())
    }

    /// Open loop: sends each op at `start + at_us` whether or not earlier
    /// ops were answered, reads responses as they arrive, and stamps each
    /// with the time its terminator was read. Responses come back in
    /// request order, so they are matched first-in first-out.
    pub fn run_lane(&mut self, start: Instant, ops: &[LaneOp]) -> Vec<Outcome> {
        minimal_timer_slack();
        let mut out: Vec<Outcome> = vec![Outcome::default(); ops.len()];
        let mut inflight: VecDeque<usize> = VecDeque::new();
        let mut next = 0;
        let mut chunk = vec![0u8; 256 * 1024];
        let mut down = false;
        while !down && (next < ops.len() || !inflight.is_empty()) {
            let now = start.elapsed();
            let due = ops.get(next).map(|op| Duration::from_micros(op.at_us));
            if due.is_some_and(|d| d <= now) {
                // Stamped before the write: how late the generator was, not
                // how long the kernel took to take the bytes.
                out[next].sent_ns = now.as_nanos().max(1) as u64;
                if self.stream.write_all(&ops[next].bytes).is_err() {
                    break;
                }
                inflight.push_back(next);
                next += 1;
                continue;
            }
            // Nothing to send yet: wait for bytes, but never past the next
            // send or past the oldest outstanding op's patience.
            let give_up = inflight
                .front()
                .map(|&i| Duration::from_micros(ops[i].at_us) + PATIENCE);
            if give_up.is_some_and(|g| g <= now) {
                break;
            }
            let wake = match (due, give_up) {
                (Some(d), Some(g)) => d.min(g),
                (Some(d), None) => d,
                (None, Some(g)) => g,
                (None, None) => break,
            };
            let wait = wake - now;
            if due == Some(wake) && wait <= SPIN {
                while start.elapsed() < wake {
                    std::hint::spin_loop();
                }
                continue;
            }
            let sleep = if due == Some(wake) { wait - SPIN } else { wait };
            if !wait_readable(&self.stream, sleep) {
                continue;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => down = true,
                Ok(n) => {
                    let done_ns = start.elapsed().as_nanos() as u64;
                    self.framer.push(&chunk[..n]);
                    while let Some(frame) = self.framer.pop() {
                        let Some(i) = inflight.pop_front() else {
                            down = true; // a response nobody asked for
                            break;
                        };
                        let o = &mut out[i];
                        o.done_ns = done_ns;
                        o.rows = frame.rows() as u32;
                        o.wire_bytes = frame.wire_bytes as u32;
                        o.status = frame.status;
                        if ops[i].keep_payload {
                            o.payload = Some(frame.payload);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_splits_frames_across_arbitrary_reads() {
        let wire = b"+OK {\"count\":2,\"generation\":7,\"cached\":true}\n1\t5\t0\n2\t9\t0,1\n.\n-ERR Protocol nope\n.\n+OK {}\n.\n";
        for step in 1..wire.len() {
            let mut f = Framer::default();
            let mut frames = Vec::new();
            for piece in wire.chunks(step) {
                f.push(piece);
                while let Some(frame) = f.pop() {
                    frames.push(frame);
                }
            }
            assert_eq!(frames.len(), 3, "step {step}");
            assert!(frames[0].is_ok());
            assert_eq!(frames[0].payload, b"1\t5\t0\n2\t9\t0,1\n");
            assert_eq!(
                (frames[0].rows(), json_u64(&frames[0].status, "generation")),
                (2, Some(7))
            );
            assert!(frames[0].flag("cached") && !frames[0].flag("stale"));
            assert_eq!(frames[1].status, "-ERR Protocol nope");
            assert_eq!((frames[1].rows(), frames[2].rows()), (0, 0));
            assert_eq!(
                frames.iter().map(|f| f.wire_bytes).sum::<usize>(),
                wire.len()
            );
        }
    }

    #[test]
    fn json_fields_parse() {
        let s = r#"+OK {"rows":12,"cache":{"hits":3,"misses":40},"generation":12}"#;
        assert_eq!(json_u64(s, "rows"), Some(12));
        assert_eq!(json_u64(s, "misses"), Some(40));
        assert_eq!(json_u64(s, "absent"), None);
    }
}
