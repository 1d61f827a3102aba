//! Bounded, timeout-tolerant socket line reading for the connection
//! engine ([`crate::conn`]).
//!
//! The engine reads request lines off sockets with a short read
//! timeout so a blocked read can observe the drain flag; [`LineReader`]
//! wraps that loop, enforces the request-line size limit, and keeps
//! partial bytes across timeouts so slow writers are never corrupted.

use std::io::{BufRead, Read};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::protocol::MAX_LINE_BYTES;

/// How often a blocked read wakes up to check the drain flag.
pub const READ_TICK: Duration = Duration::from_millis(100);

/// Converts an idle-timeout duration to a [`READ_TICK`] budget for
/// [`LineReader::set_idle_ticks`], rounding up so short timeouts still
/// get at least one full tick. `None` stays `None`: no budget.
pub fn idle_ticks_for(timeout: Option<Duration>) -> Option<u32> {
    timeout.map(|t| {
        let tick = READ_TICK.as_millis().max(1);
        t.as_millis().div_ceil(tick).clamp(1, u32::MAX as u128) as u32
    })
}

/// Bounded, timeout-tolerant line reader. A read timeout between requests
/// just re-checks the drain flag; a timeout mid-line keeps the partial
/// bytes, so slow writers are never corrupted.
pub struct LineReader<R: BufRead> {
    inner: R,
    partial: Vec<u8>,
    idle_ticks: Option<u32>,
}

/// One read outcome from [`LineReader::next_line`].
pub enum LineEvent {
    /// A complete request line (lossy UTF-8; garbage parses to a typed
    /// protocol error downstream, never a panic).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line outgrew [`MAX_LINE_BYTES`]; the connection cannot resync.
    Oversized,
    /// The server is draining and the connection was idle.
    Drained,
    /// The idle-tick budget ran out before a line completed: the peer is
    /// half-open or dribbling slower than [`READ_TICK`]. The worker is
    /// reclaimed with a typed error instead of starving.
    IdleTimeout,
}

/// One read outcome from [`LineReader::read_exact_body`].
pub enum BodyEvent {
    /// The full body arrived.
    Body(Vec<u8>),
    /// The peer closed (or the server drained) after this many bytes — a
    /// typed protocol error for the caller, not an I/O failure.
    Truncated(usize),
    /// The idle-tick budget ran out mid-body after this many bytes.
    IdleTimeout(usize),
}

/// Whether an I/O error is a transient read-timeout-style condition the
/// read loop should retry rather than surface.
pub fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

impl<R: BufRead> LineReader<R> {
    /// Wraps a buffered reader (the socket should have a [`READ_TICK`]
    /// read timeout set so drain checks happen).
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            partial: Vec::new(),
            idle_ticks: None,
        }
    }

    /// Arms the idle budget: a single request (line or body) may block for
    /// at most `ticks` read-timeout ticks (~`ticks` × [`READ_TICK`]) in
    /// total before the read reports a timeout event. `None` (the default)
    /// waits forever, preserving pre-timeout behavior. Only *blocked*
    /// ticks count, so bulk transfers that keep making progress are never
    /// penalized; a dribbler pacing bytes faster than the tick evades this
    /// budget but is bounded by [`MAX_LINE_BYTES`] instead.
    pub fn set_idle_ticks(&mut self, ticks: Option<u32>) {
        self.idle_ticks = ticks;
    }

    fn take_line(&mut self) -> LineEvent {
        let mut bytes = std::mem::take(&mut self.partial);
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
        }
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        LineEvent::Line(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Reads the next request line, waking on read timeouts to observe
    /// `draining`.
    pub fn next_line(&mut self, draining: &AtomicBool) -> std::io::Result<LineEvent> {
        let mut stalled: u32 = 0;
        loop {
            if self.partial.len() > MAX_LINE_BYTES {
                return Ok(LineEvent::Oversized);
            }
            let budget = (MAX_LINE_BYTES + 1 - self.partial.len()) as u64;
            match self
                .inner
                .by_ref()
                .take(budget)
                .read_until(b'\n', &mut self.partial)
            {
                Ok(0) => {
                    // Peer EOF (possibly a half-closed socket mid-line).
                    if self.partial.is_empty() {
                        return Ok(LineEvent::Eof);
                    }
                    return Ok(self.take_line());
                }
                Ok(_) => {
                    if self.partial.last() == Some(&b'\n') {
                        return Ok(self.take_line());
                    }
                    // Hit the take budget without a newline: either the
                    // line is oversized (caught at loop top) or more bytes
                    // are coming.
                }
                Err(e) if retryable(&e) => {
                    if draining.load(Ordering::SeqCst) {
                        return Ok(LineEvent::Drained);
                    }
                    stalled = stalled.saturating_add(1);
                    if let Some(budget) = self.idle_ticks {
                        if stalled >= budget.max(1) {
                            return Ok(LineEvent::IdleTimeout);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Swallows remaining peer input (briefly, bounded) before the caller
    /// abandons an unsyncable connection. Closing a socket with unread
    /// bytes makes the kernel send RST, which can destroy a typed error
    /// response the peer has not read yet; draining until the peer closes
    /// lets the `-ERR` frame arrive intact.
    pub fn drain_peer(&mut self) {
        let mut scratch = [0u8; 16 * 1024];
        // ~20 read-timeout ticks bounds a stalling peer to ~2 s.
        for _ in 0..20 {
            match self.inner.read(&mut scratch) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if retryable(&e) => {}
                Err(_) => return,
            }
        }
    }

    /// Reads exactly `n` body bytes. Truncation (peer closed or server
    /// drained mid-body) and idle timeout are typed [`BodyEvent`]s for the
    /// caller, not I/O failures.
    pub fn read_exact_body(
        &mut self,
        n: usize,
        draining: &AtomicBool,
    ) -> std::io::Result<BodyEvent> {
        let mut buf = Vec::with_capacity(n.min(1 << 20));
        let mut chunk = [0u8; 16 * 1024];
        let mut stalled: u32 = 0;
        while buf.len() < n {
            let want = (n - buf.len()).min(chunk.len());
            // lint:allow(panic-path): want is clamped to chunk.len() on the line above
            match self.inner.read(&mut chunk[..want]) {
                Ok(0) => return Ok(BodyEvent::Truncated(buf.len())),
                // lint:allow(panic-path): read contract gives k <= want <= chunk.len()
                Ok(k) => buf.extend_from_slice(&chunk[..k]),
                Err(e) if retryable(&e) => {
                    if draining.load(Ordering::SeqCst) {
                        return Ok(BodyEvent::Truncated(buf.len()));
                    }
                    stalled = stalled.saturating_add(1);
                    if let Some(budget) = self.idle_ticks {
                        if stalled >= budget.max(1) {
                            return Ok(BodyEvent::IdleTimeout(buf.len()));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(BodyEvent::Body(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yields queued chunks, then endless WouldBlock — a socket whose peer
    /// went quiet.
    struct StallReader {
        chunks: Vec<Vec<u8>>,
    }

    impl Read for StallReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.chunks.first_mut() {
                Some(chunk) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.chunks.remove(0);
                    }
                    Ok(n)
                }
                None => Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "stall")),
            }
        }
    }

    fn reader(chunks: &[&[u8]], ticks: Option<u32>) -> LineReader<std::io::BufReader<StallReader>> {
        let mut r = LineReader::new(std::io::BufReader::new(StallReader {
            chunks: chunks.iter().map(|c| c.to_vec()).collect(),
        }));
        r.set_idle_ticks(ticks);
        r
    }

    #[test]
    fn idle_ticks_round_up_and_preserve_none() {
        assert_eq!(idle_ticks_for(None), None);
        assert_eq!(idle_ticks_for(Some(Duration::from_millis(1))), Some(1));
        assert_eq!(idle_ticks_for(Some(Duration::from_millis(100))), Some(1));
        assert_eq!(idle_ticks_for(Some(Duration::from_millis(101))), Some(2));
        assert_eq!(idle_ticks_for(Some(Duration::from_millis(2000))), Some(20));
    }

    #[test]
    fn unbudgeted_reader_is_the_pre_timeout_loop() {
        // Without a budget a stall never times out; with data queued the
        // line completes regardless.
        let draining = AtomicBool::new(false);
        let mut r = reader(&[b"PING\n"], None);
        assert!(matches!(
            r.next_line(&draining).unwrap(),
            LineEvent::Line(l) if l == "PING"
        ));
    }

    #[test]
    fn stalled_line_hits_the_budget() {
        let draining = AtomicBool::new(false);
        // Half-open: no bytes at all.
        let mut r = reader(&[], Some(3));
        assert!(matches!(
            r.next_line(&draining).unwrap(),
            LineEvent::IdleTimeout
        ));
        // Mid-line stall: partial bytes then silence.
        let mut r = reader(&[b"QUERY 0,1"], Some(3));
        assert!(matches!(
            r.next_line(&draining).unwrap(),
            LineEvent::IdleTimeout
        ));
    }

    #[test]
    fn stalled_body_reports_progress() {
        let draining = AtomicBool::new(false);
        let mut r = reader(&[b"MQDL"], Some(2));
        match r.read_exact_body(4096, &draining).unwrap() {
            BodyEvent::IdleTimeout(got) => assert_eq!(got, 4),
            _ => panic!("expected an idle timeout"),
        }
        // A body that fully arrives is unaffected by the budget.
        let mut r = reader(&[b"abcd"], Some(2));
        match r.read_exact_body(4, &draining).unwrap() {
            BodyEvent::Body(b) => assert_eq!(b, b"abcd"),
            _ => panic!("expected the body"),
        }
    }

    #[test]
    fn drain_still_wins_over_the_budget() {
        let draining = AtomicBool::new(true);
        let mut r = reader(&[], Some(1000));
        assert!(matches!(
            r.next_line(&draining).unwrap(),
            LineEvent::Drained
        ));
    }
}
