//! The connection engine: the one accept/admit/frame/dispatch loop behind
//! both `mqdiv serve` and `mqdiv route` (DESIGN.md §12).
//!
//! An [`Engine`] owns everything about a client connection that does not
//! depend on what the process serves; what a request *means* is a
//! [`Handler`]: the server's store-backed verb table or the router's
//! scatter-gather one.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::Mutex;
use std::time::Duration;

use mqd_core::MqdError;

use crate::lineio::{idle_ticks_for, retryable, BodyEvent, LineEvent, LineReader, READ_TICK};
use crate::protocol::{
    parse_request, write_err, write_ok, write_overloaded, Request, MAX_LINE_BYTES,
};

/// The serving counters every `STATS` payload reports. The engine bumps
/// `connections`, `overloads`, `timeouts` and (for every typed rejection)
/// `errors`; handlers bump `queries`, `ingested_rows`, `subscribes`, and
/// `errors` only where they abort inside an already-started response.
#[derive(Default)]
pub struct Counters {
    /// Connections accepted (admitted or rejected for load).
    pub connections: AtomicU64,
    /// `QUERY` requests dispatched.
    pub queries: AtomicU64,
    /// Rows acknowledged by `INGEST` / `INGESTB`.
    pub ingested_rows: AtomicU64,
    /// `SUBSCRIBE` sessions started.
    pub subscribes: AtomicU64,
    /// Requests answered with a typed error.
    pub errors: AtomicU64,
    /// Connections answered `-OVERLOADED`.
    pub overloads: AtomicU64,
    /// Connections closed for exhausting the idle budget.
    pub timeouts: AtomicU64,
}

impl Counters {
    /// The `"served":{…}` member both `STATS` renderers embed. Its key
    /// order is wire contract (clients parse it, the oracle diffs it).
    pub fn served_json(&self) -> String {
        let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            r#""served":{{"connections":{},"queries":{},"ingested_rows":{},"subscribes":{},"errors":{},"overloads":{},"timeouts":{}}}"#,
            n(&self.connections),
            n(&self.queries),
            n(&self.ingested_rows),
            n(&self.subscribes),
            n(&self.errors),
            n(&self.overloads),
            n(&self.timeouts),
        )
    }
}

/// Why a handler did not answer `+OK`.
pub enum Fail {
    /// A typed rejection: the engine counts it in `errors`, answers
    /// `-ERR <Kind> <msg>`, and the connection carries on.
    Typed(MqdError),
    /// The client socket failed mid-response; the connection is gone.
    Io(std::io::Error),
}

impl From<MqdError> for Fail {
    fn from(e: MqdError) -> Self {
        Fail::Typed(e)
    }
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Self {
        Fail::Io(e)
    }
}

/// What a serving process does with a request once the engine has framed
/// it. Statically dispatched: one engine instantiation per handler type.
pub trait Handler: Sync {
    /// Per-connection state, created when a worker picks the connection up
    /// (`()` for the server, the router's lazy backend sessions).
    type Session<'a>
    where
        Self: 'a;

    /// Opens the per-connection state.
    fn open(&self) -> Self::Session<'_>;

    /// Answers one request on `w`. `body` is the pre-read frame of an
    /// `INGESTB` / `HELLO` request and empty for every other verb. `PING`,
    /// `QUIT` and `DRAIN` never get here; the engine answers them.
    fn execute(
        &self,
        engine: &Engine,
        session: &mut Self::Session<'_>,
        req: &Request,
        body: &[u8],
        w: &mut impl Write,
    ) -> Result<(), Fail>;

    /// `DRAIN` side effect that must happen *before* the drain flag goes up
    /// (the router's backend `DRAIN` cascade).
    fn before_drain(&self, _session: &mut Self::Session<'_>) {}
}

enum Flow {
    Continue,
    Close,
}

/// A bound listen socket plus the transport state shared by its workers.
pub struct Engine {
    listener: TcpListener,
    addr: SocketAddr,
    threads: usize,
    max_queue: usize,
    /// Idle budget in [`READ_TICK`]s for every connection's reads.
    idle_ticks: Option<u32>,
    /// What the process calls itself in the `-OVERLOADED` message.
    noun: &'static str,
    counters: Counters,
    draining: AtomicBool,
}

impl Engine {
    /// Binds `addr` and resolves the pool shape: `threads == 0` sizes off
    /// [`mqd_par::configured_threads`], floored at 4 (workers block on I/O;
    /// see `ServerConfig::threads`), and the queue holds at least one.
    pub fn bind(
        noun: &'static str,
        addr: &str,
        threads: usize,
        max_queue: usize,
        idle_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Engine {
            addr: listener.local_addr()?,
            listener,
            threads: if threads == 0 {
                mqd_par::configured_threads().max(4)
            } else {
                threads
            },
            max_queue: max_queue.max(1),
            idle_ticks: idle_ticks_for(idle_timeout),
            noun,
            counters: Counters::default(),
            draining: AtomicBool::new(false),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The resolved worker-pool size.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The serving counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Whether a `DRAIN` has been honored.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Serves until drained: the acceptor feeds a bounded channel, workers
    /// drain it, and a full channel is answered with a typed `-OVERLOADED`
    /// response — admission control, not a dropped connection. Returns once
    /// a `DRAIN` request has been honored and all in-flight work finished.
    /// Takes `&self` so the caller's own threads can watch
    /// [`Engine::draining`] beside it.
    pub fn serve<H: Handler>(&self, handler: &H) {
        let (tx, rx) = sync_channel::<TcpStream>(self.max_queue);
        let rx = Mutex::new(rx);
        std::thread::scope(|s| {
            for _ in 0..self.threads {
                s.spawn(|| self.worker_loop(&rx, handler));
            }
            for conn in self.listener.incoming() {
                if self.draining() {
                    break;
                }
                let Ok(conn) = conn else { continue };
                self.counters.connections.fetch_add(1, Ordering::Relaxed);
                match tx.try_send(conn) {
                    Ok(()) => {}
                    Err(TrySendError::Full(conn)) => {
                        self.counters.overloads.fetch_add(1, Ordering::Relaxed);
                        let mut w = BufWriter::new(conn);
                        let msg = format!("{} at capacity, retry later", self.noun);
                        let _ = write_overloaded(&mut w, &msg);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            drop(tx);
        });
    }

    fn worker_loop<H: Handler>(&self, rx: &Mutex<Receiver<TcpStream>>, handler: &H) {
        loop {
            // Take the lock only to wait for the next connection; holding it
            // while serving would serialize the pool.
            let conn = {
                // A poisoned receiver mutex means a sibling worker panicked
                // mid-recv; the pool is already compromised, so this worker
                // retires instead of panicking too.
                let Ok(guard) = rx.lock() else { return };
                // lint:allow(guard-held-blocking): bounded by the acceptor — dropping the sender disconnects recv with Err; the lock exists only to serialize waiters on this recv
                guard.recv()
            };
            match conn {
                Ok(c) => {
                    // Reads never surface a timeout (the line reader turns
                    // them into events), so a timed-out I/O error here is a
                    // write that blocked past the idle budget: the peer
                    // stopped reading. Count it and reclaim the worker.
                    if self.handle_conn(c, handler).is_err_and(|e| retryable(&e)) {
                        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => return, // acceptor dropped the sender: drain complete
            }
        }
    }

    /// Counts a typed rejection and answers it: the one error arm.
    fn reject(&self, w: &mut impl Write, e: &MqdError) -> std::io::Result<()> {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        write_err(w, e)
    }

    /// Answers a stalled peer with a typed timeout before its connection
    /// is closed (no peer drain: it is not sending anything).
    fn time_out(&self, w: &mut impl Write, msg: String) {
        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        let _ = write_err(w, &MqdError::Timeout { msg });
    }

    fn handle_conn<H: Handler>(&self, conn: TcpStream, handler: &H) -> std::io::Result<()> {
        conn.set_read_timeout(Some(READ_TICK))?;
        // The idle budget bounds writes too, or a peer that pipelines
        // requests and never reads pins the worker in a blocked write.
        conn.set_write_timeout(self.idle_ticks.map(|ticks| READ_TICK * ticks))?;
        let _ = conn.set_nodelay(true);
        let write_half = conn.try_clone()?;
        let mut reader = LineReader::new(BufReader::new(conn));
        reader.set_idle_ticks(self.idle_ticks);
        let mut w = BufWriter::new(write_half);
        let mut session = handler.open();

        loop {
            let line = match reader.next_line(&self.draining)? {
                LineEvent::Line(line) => line,
                LineEvent::Eof | LineEvent::Drained => return Ok(()),
                LineEvent::IdleTimeout => {
                    let msg = "request line stalled; closing idle connection";
                    self.time_out(&mut w, msg.into());
                    return Ok(());
                }
                LineEvent::Oversized => {
                    let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    let _ = self.reject(&mut w, &MqdError::protocol(msg));
                    reader.drain_peer();
                    return Ok(()); // cannot find the next request boundary
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let req = match parse_request(&line) {
                Ok(r) => r,
                Err(e) => {
                    self.reject(&mut w, &e)?;
                    continue;
                }
            };

            // INGESTB/HELLO: pull the raw body before dispatch, so the
            // stream stays framed even when the payload turns out to be
            // invalid or the handler rejects the verb outright.
            let mut body = Vec::new();
            if let Request::IngestBatch { bytes } | Request::Hello { bytes } = req {
                body = match reader.read_exact_body(bytes, &self.draining)? {
                    BodyEvent::Body(body) => body,
                    BodyEvent::Truncated(got) => {
                        let msg = format!("truncated body: got {got} of {bytes} bytes");
                        let _ = self.reject(&mut w, &MqdError::protocol(msg));
                        reader.drain_peer();
                        return Ok(()); // body boundary lost
                    }
                    BodyEvent::IdleTimeout(got) => {
                        self.time_out(&mut w, format!("body stalled at {got} of {bytes} bytes"));
                        return Ok(()); // body boundary lost
                    }
                };
            }

            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.dispatch(handler, &mut session, &req, &body, &mut w)
            }));
            match outcome {
                Ok(Ok(Flow::Continue)) => {}
                Ok(Ok(Flow::Close)) => return Ok(()),
                Ok(Err(Fail::Typed(e))) => self.reject(&mut w, &e)?,
                Ok(Err(Fail::Io(e))) => return Err(e),
                Err(_) => {
                    // Backstop: a handler panic answers as a typed error and
                    // closes this connection; the worker and process live on.
                    let e = MqdError::protocol("internal error (request handler panicked)");
                    let _ = self.reject(&mut w, &e);
                    reader.drain_peer();
                    return Ok(());
                }
            }
        }
    }

    fn dispatch<H: Handler>(
        &self,
        handler: &H,
        session: &mut H::Session<'_>,
        req: &Request,
        body: &[u8],
        w: &mut impl Write,
    ) -> Result<Flow, Fail> {
        match req {
            Request::Ping => write_ok(w, r#"{"pong":true}"#, &[])?,
            Request::Quit => {
                write_ok(w, r#"{"bye":true}"#, &[])?;
                return Ok(Flow::Close);
            }
            Request::Drain => {
                handler.before_drain(session);
                self.draining.store(true, Ordering::SeqCst);
                write_ok(w, r#"{"draining":true}"#, &[])?;
                // Kick the acceptor out of its blocking accept so it observes
                // the flag; the connection itself is discarded there.
                let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
                return Ok(Flow::Close);
            }
            _ => handler.execute(self, session, req, body, w)?,
        }
        Ok(Flow::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::io::Read;
    use std::sync::mpsc::{channel, Sender};

    /// `SLICE` panics; `STATS` reports in on `parked` and then holds its
    /// worker until `release` yields; everything else answers `+OK {}`.
    struct Fake {
        parked: Sender<()>,
        release: Mutex<Receiver<()>>,
    }

    fn fake() -> (Fake, Receiver<()>, Sender<()>) {
        let (parked, parked_rx) = channel();
        let (release_tx, release) = channel();
        let release = Mutex::new(release);
        (Fake { parked, release }, parked_rx, release_tx)
    }

    impl Handler for Fake {
        type Session<'a> = ();

        fn open(&self) {}

        fn execute(
            &self,
            _engine: &Engine,
            _session: &mut (),
            req: &Request,
            _body: &[u8],
            w: &mut impl Write,
        ) -> Result<(), Fail> {
            match req {
                Request::Slice { .. } => panic!("fake handler bug"),
                Request::Stats => {
                    self.parked.send(()).unwrap();
                    self.release.lock().unwrap().recv().unwrap();
                }
                _ => {}
            }
            Ok(write_ok(w, "{}", &[])?)
        }
    }

    #[test]
    fn a_panicking_handler_answers_typed_and_the_pool_survives() {
        let (fake, _parked, _release) = fake();
        let engine = Engine::bind("fake", "127.0.0.1:0", 1, 4, None).unwrap();
        let addr = engine.local_addr();
        // The scope joins `serve`, so leaving it proves DRAIN ended it.
        std::thread::scope(|s| {
            s.spawn(|| engine.serve(&fake));
            let mut c = Client::connect(addr).unwrap();
            let r = c.request("SLICE 0").unwrap();
            assert!(r.status.starts_with("-ERR Protocol "), "{}", r.status);
            assert!(
                r.status.contains("request handler panicked"),
                "{}",
                r.status
            );
            // That connection is closed without another answer...
            c.shutdown_write().unwrap();
            assert!(c.read_response().is_err());
            assert_eq!(engine.counters().errors.load(Ordering::Relaxed), 1);
            // ...and the pool's only worker serves the next one.
            let mut c = Client::connect(addr).unwrap();
            assert!(c.request("PING").unwrap().is_ok());
            assert!(c.request("DRAIN").unwrap().is_ok());
        });
    }

    #[test]
    fn overload_is_typed_and_drain_does_not_wait_for_a_queued_connection() {
        let (fake, parked, release) = fake();
        let engine = Engine::bind("fake", "127.0.0.1:0", 1, 1, None).unwrap();
        let addr = engine.local_addr();
        std::thread::scope(|s| {
            s.spawn(|| engine.serve(&fake));
            // A holds the only worker...
            let mut a = Client::connect(addr).unwrap();
            a.send_line("STATS").unwrap();
            parked.recv().unwrap();
            // ...so B fills the queue of one and C is turned away, typed.
            let mut b = TcpStream::connect(addr).unwrap();
            let r = Client::connect(addr).unwrap().read_response().unwrap();
            assert_eq!(r.status, "-OVERLOADED fake at capacity, retry later");
            assert_eq!(engine.counters().overloads.load(Ordering::Relaxed), 1);
            // A's DRAIN ends `serve` (the scope joins it) with B still in
            // the queue: B is closed unanswered, never parked on.
            release.send(()).unwrap();
            assert!(a.read_response().unwrap().is_ok());
            assert!(a.request("DRAIN").unwrap().is_ok());
            let mut got = String::new();
            b.read_to_string(&mut got).unwrap();
            assert_eq!(got, "");
        });
        assert_eq!(engine.counters().connections.load(Ordering::Relaxed), 3);
    }
}
