//! The line/JSON wire protocol: request grammar, limits, response framing.
//!
//! Requests are single lines of whitespace-separated tokens (`INGESTB`
//! additionally carries a raw MQDL body after its header line):
//!
//! ```text
//! PING
//! STATS
//! HELLO <nbytes>\n<nbytes of router handshake frame>
//! INGEST <id> <value> <label,label,...>
//! INGESTB <nbytes>\n<nbytes of MQDL binary log>
//! QUERY <label,...> <lambda> <opt|greedysc|scan|scanplus> [FROM v] [TO v] [PROP]
//!       [COVER label,...]
//! SLICE <label,...> [FROM v] [TO v]
//! SUBSCRIBE <label,...> <lambda> <tau> <scan|scanplus|greedy|greedyplus>
//!           [FROM v] [TO v] [SHARDS n] [NAME id] [AFTER n]
//! DRAIN
//! QUIT
//! ```
//!
//! `HELLO`, `COVER`, and `SLICE` are the cluster verbs (`mqd-router`):
//! the handshake pins the backend's shard map, `COVER` restricts a
//! fixed-lambda Scan query to the labels a shard owns, and `SLICE`
//! returns the raw slice rows so the router can solve non-decomposable
//! algorithms over the merged slice.
//!
//! Responses are a status line — `+OK <json>`, `-ERR <Kind> <msg>` (the
//! kind is the [`MqdError`] variant name), or `-OVERLOADED <msg>` — then
//! zero or more payload lines, then a lone `.`.
//!
//! This module is the one place the grammar is written down in both
//! directions: [`parse_request`] reads a request line and [`Request`]'s
//! `Display` writes the canonical one back ([`Request::frame`] adds the
//! newline and an announced body), so the router, `mqd-load` and the
//! command-line client send nothing they render themselves. The same
//! goes for frames that are read and written back out: [`write_response`]
//! echoes a [`Response`], and [`write_abort`] ends a stream whose `+OK`
//! header is already out.

use std::fmt;
use std::io::Write;

use mqd_core::record::{decode_rows, Record, Rows, TsvRows};
use mqd_core::MqdError;
use mqd_store::{Algorithm, QuerySpec};
use mqd_stream::ShardEngineKind;

/// Longest accepted request line (bytes, incl. newline). Longer lines get a
/// typed Protocol error and the connection is closed (no way to resync).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Largest accepted `INGESTB` body.
pub const MAX_BATCH_BYTES: usize = 64 * 1024 * 1024;

/// Most rows accepted in one `INGESTB` batch.
pub const MAX_BATCH_ROWS: usize = 1 << 20;

/// Largest accepted `HELLO` handshake frame (a shard-map frame is a few
/// dozen bytes; anything bigger is not a handshake).
pub const MAX_HELLO_BYTES: usize = 256;

/// The response terminator line.
pub const TERMINATOR: &str = ".";

/// One parsed request line. `IngestBatch` carries only the announced body
/// size — the raw bytes follow the line and are read by the server.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Store + cache + serving counters.
    Stats,
    /// Append one post.
    Ingest(Record),
    /// Append a binary batch of `bytes` MQDL bytes (body follows the line).
    IngestBatch {
        /// Announced body size in bytes.
        bytes: usize,
    },
    /// Solve a cover over a label/range slice.
    Query(QuerySpec),
    /// Solve only the per-label covers of `cover` (a subset of the spec's
    /// labels) — the shard-side half of the router's scatter-gather merge.
    QueryCover {
        /// The full query, labels included.
        spec: QuerySpec,
        /// The label subset this shard must cover.
        cover: Vec<u16>,
    },
    /// Return the raw slice rows for a label/range slice, in `(value, id)`
    /// order — the router merges shard slices and solves locally for
    /// algorithms that do not decompose per label.
    Slice {
        /// Global label ids sliced on.
        labels: Vec<u16>,
        /// Inclusive lower bound on the dimension value.
        from: i64,
        /// Inclusive upper bound on the dimension value.
        to: i64,
    },
    /// Router handshake: `bytes` of shard-map frame follow the line.
    Hello {
        /// Announced frame size in bytes.
        bytes: usize,
    },
    /// Replay the slice through a supervised streaming engine.
    Subscribe(SubscribeSpec),
    /// Stop accepting connections, finish in-flight work, shut down.
    Drain,
    /// Close this connection.
    Quit,
}

/// Parameters of a `SUBSCRIBE` session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubscribeSpec {
    /// Global label ids subscribed to.
    pub labels: Vec<u16>,
    /// Fixed coverage threshold.
    pub lambda: i64,
    /// Delay budget per emission.
    pub tau: i64,
    /// Which streaming engine runs the session.
    pub engine: ShardEngineKind,
    /// Inclusive lower bound on the dimension value.
    pub from: i64,
    /// Inclusive upper bound on the dimension value.
    pub to: i64,
    /// Number of shards for the supervised run.
    pub shards: usize,
    /// Durable session name: the server checkpoints the run under this
    /// name in its data dir and resumes it on a later `SUBSCRIBE` with the
    /// same name and parameters.
    pub name: Option<String>,
    /// Number of leading emissions to skip on the wire (a resuming client
    /// passes the count it already received; the run itself is not
    /// shortened, so `DONE` totals stay identical to an uninterrupted
    /// session).
    pub after: u64,
}

/// The next token, or a typed error saying what is `missing`.
fn need<'a>(toks: &mut impl Iterator<Item = &'a str>, missing: &str) -> Result<&'a str, MqdError> {
    toks.next().ok_or_else(|| MqdError::protocol(missing))
}

fn parse_labels(s: &str) -> Result<Vec<u16>, MqdError> {
    let mut labels = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        labels.push(
            part.parse::<u16>()
                .map_err(|e| MqdError::protocol(format!("bad label '{part}': {e}")))?,
        );
    }
    if labels.is_empty() {
        return Err(MqdError::protocol("need at least one label"));
    }
    Ok(labels)
}

fn parse_i64(tok: &str, what: &str) -> Result<i64, MqdError> {
    tok.parse::<i64>()
        .map_err(|e| MqdError::protocol(format!("bad {what} '{tok}': {e}")))
}

/// Range/option tail shared by QUERY, SLICE, and SUBSCRIBE.
struct Tail {
    from: i64,
    to: i64,
    prop: bool,
    shards: usize,
    name: Option<String>,
    after: u64,
    cover: Option<Vec<u16>>,
}

/// Longest accepted `NAME` token (it becomes a checkpoint file name).
const MAX_NAME_BYTES: usize = 64;

fn parse_name(s: &str) -> Result<String, MqdError> {
    if s.is_empty() || s.len() > MAX_NAME_BYTES {
        return Err(MqdError::protocol(format!(
            "NAME must be 1..={MAX_NAME_BYTES} bytes, got {}",
            s.len()
        )));
    }
    if !s
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
    {
        return Err(MqdError::protocol(format!(
            "NAME '{s}' may only use letters, digits, '.', '_', '-'"
        )));
    }
    if s.starts_with('.') {
        return Err(MqdError::protocol(format!(
            "NAME '{s}' must not start with '.'"
        )));
    }
    // Reserved for the atomic-write tempfiles next to the checkpoints: a
    // session literally named '*.tmp' would be swept at boot and skipped
    // by the lease scan.
    if s.ends_with(".tmp") {
        return Err(MqdError::protocol(format!(
            "NAME '{s}' must not end with '.tmp'"
        )));
    }
    Ok(s.to_string())
}

fn parse_tail<'a>(
    mut toks: impl Iterator<Item = &'a str>,
    allow_prop: bool,
    allow_subscribe: bool,
    allow_cover: bool,
) -> Result<Tail, MqdError> {
    let mut tail = Tail {
        from: i64::MIN,
        to: i64::MAX,
        prop: false,
        shards: 1,
        name: None,
        after: 0,
        cover: None,
    };
    while let Some(tok) = toks.next() {
        match tok.to_ascii_uppercase().as_str() {
            "FROM" => {
                let v = need(&mut toks, "FROM needs a value")?;
                tail.from = parse_i64(v, "FROM value")?;
            }
            "TO" => {
                let v = need(&mut toks, "TO needs a value")?;
                tail.to = parse_i64(v, "TO value")?;
            }
            "PROP" if allow_prop => tail.prop = true,
            "SHARDS" if allow_subscribe => {
                let v = need(&mut toks, "SHARDS needs a value")?;
                tail.shards = v
                    .parse::<usize>()
                    .map_err(|e| MqdError::protocol(format!("bad SHARDS value '{v}': {e}")))?
                    .clamp(1, 64);
            }
            "NAME" if allow_subscribe => {
                let v = need(&mut toks, "NAME needs a value")?;
                tail.name = Some(parse_name(v)?);
            }
            "AFTER" if allow_subscribe => {
                let v = need(&mut toks, "AFTER needs a value")?;
                tail.after = v
                    .parse::<u64>()
                    .map_err(|e| MqdError::protocol(format!("bad AFTER value '{v}': {e}")))?;
            }
            "COVER" if allow_cover => {
                let v = need(&mut toks, "COVER needs labels")?;
                tail.cover = Some(parse_labels(v)?);
            }
            other => return Err(MqdError::protocol(format!("unexpected token '{other}'"))),
        }
    }
    if tail.from > tail.to {
        return Err(MqdError::protocol(format!(
            "empty range: FROM {} > TO {}",
            tail.from, tail.to
        )));
    }
    Ok(tail)
}

/// Parses one request line. All failures are typed [`MqdError::Protocol`].
pub fn parse_request(line: &str) -> Result<Request, MqdError> {
    let mut toks = line.split_whitespace();
    let cmd = need(&mut toks, "empty request")?;
    match cmd.to_ascii_uppercase().as_str() {
        "PING" => Ok(Request::Ping),
        "STATS" => Ok(Request::Stats),
        "DRAIN" => Ok(Request::Drain),
        "QUIT" => Ok(Request::Quit),
        "INGEST" => {
            let id = need(&mut toks, "INGEST needs <id>")?;
            let id = id
                .parse::<u64>()
                .map_err(|e| MqdError::protocol(format!("bad id '{id}': {e}")))?;
            let value = need(&mut toks, "INGEST needs <value>")?;
            let value = parse_i64(value, "value")?;
            let labels = need(&mut toks, "INGEST needs <labels>")?;
            let labels = parse_labels(labels)?;
            if let Some(extra) = toks.next() {
                return Err(MqdError::protocol(format!("unexpected token '{extra}'")));
            }
            Ok(Request::Ingest(Record { id, value, labels }))
        }
        "INGESTB" => {
            let n = need(&mut toks, "INGESTB needs <nbytes>")?;
            let bytes = n
                .parse::<usize>()
                .map_err(|e| MqdError::protocol(format!("bad byte count '{n}': {e}")))?;
            if bytes > MAX_BATCH_BYTES {
                return Err(MqdError::protocol(format!(
                    "batch of {bytes} bytes exceeds limit {MAX_BATCH_BYTES}"
                )));
            }
            if let Some(extra) = toks.next() {
                return Err(MqdError::protocol(format!("unexpected token '{extra}'")));
            }
            Ok(Request::IngestBatch { bytes })
        }
        "QUERY" => {
            let labels = need(&mut toks, "QUERY needs <labels>")?;
            let labels = parse_labels(labels)?;
            let lambda = need(&mut toks, "QUERY needs <lambda>")?;
            let lambda = parse_i64(lambda, "lambda")?;
            let alg = need(&mut toks, "QUERY needs <algorithm>")?;
            let algorithm = Algorithm::parse(alg)?;
            let tail = parse_tail(toks, true, false, true)?;
            let spec = QuerySpec {
                labels,
                lambda,
                proportional: tail.prop,
                algorithm,
                from: tail.from,
                to: tail.to,
            };
            Ok(match tail.cover {
                Some(cover) => Request::QueryCover { spec, cover },
                None => Request::Query(spec),
            })
        }
        "SLICE" => {
            let labels = need(&mut toks, "SLICE needs <labels>")?;
            let labels = parse_labels(labels)?;
            let tail = parse_tail(toks, false, false, false)?;
            Ok(Request::Slice {
                labels,
                from: tail.from,
                to: tail.to,
            })
        }
        "HELLO" => {
            let n = need(&mut toks, "HELLO needs <nbytes>")?;
            let bytes = n
                .parse::<usize>()
                .map_err(|e| MqdError::protocol(format!("bad byte count '{n}': {e}")))?;
            if bytes == 0 || bytes > MAX_HELLO_BYTES {
                return Err(MqdError::protocol(format!(
                    "handshake of {bytes} bytes outside 1..={MAX_HELLO_BYTES}"
                )));
            }
            if let Some(extra) = toks.next() {
                return Err(MqdError::protocol(format!("unexpected token '{extra}'")));
            }
            Ok(Request::Hello { bytes })
        }
        "SUBSCRIBE" => {
            let labels = need(&mut toks, "SUBSCRIBE needs <labels>")?;
            let labels = parse_labels(labels)?;
            let lambda = need(&mut toks, "SUBSCRIBE needs <lambda>")?;
            let lambda = parse_i64(lambda, "lambda")?;
            let tau = need(&mut toks, "SUBSCRIBE needs <tau>")?;
            let tau = parse_i64(tau, "tau")?;
            let engine = need(&mut toks, "SUBSCRIBE needs <engine>")?;
            let engine = ShardEngineKind::parse(engine)?;
            let tail = parse_tail(toks, false, true, false)?;
            Ok(Request::Subscribe(SubscribeSpec {
                labels,
                lambda,
                tau,
                engine,
                from: tail.from,
                to: tail.to,
                shards: tail.shards,
                name: tail.name,
                after: tail.after,
            }))
        }
        other => Err(MqdError::protocol(format!("unknown command '{other}'"))),
    }
}

/// Writes `labels` comma-separated, the form `parse_labels` reads.
fn put_labels(out: &mut impl fmt::Write, labels: &[u16]) -> fmt::Result {
    for (i, l) in labels.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{l}")?;
    }
    Ok(())
}

/// Writes the `FROM` / `TO` options that narrow the full range.
fn put_range(out: &mut impl fmt::Write, from: i64, to: i64) -> fmt::Result {
    if from != i64::MIN {
        write!(out, " FROM {from}")?;
    }
    if to != i64::MAX {
        write!(out, " TO {to}")?;
    }
    Ok(())
}

fn put_query(out: &mut impl fmt::Write, spec: &QuerySpec) -> fmt::Result {
    out.write_str("QUERY ")?;
    put_labels(out, &spec.labels)?;
    write!(out, " {} {}", spec.lambda, spec.algorithm.as_str())?;
    put_range(out, spec.from, spec.to)?;
    if spec.proportional {
        out.write_str(" PROP")?;
    }
    Ok(())
}

/// The canonical `QUERY` line of `spec` (no newline): the
/// [`Request::Query`] rendering, without building the request.
pub fn format_query(spec: &QuerySpec) -> String {
    let mut line = String::new();
    // Writing into a `String` cannot fail.
    let _ = put_query(&mut line, spec);
    line
}

/// The canonical request line, without its newline: [`parse_request`]
/// reads it back to an equal [`Request`]. An option at its default value
/// (the full range, `SHARDS 1`, `AFTER 0`, no `PROP`, no `NAME`) stays
/// off the wire.
impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Ping => f.write_str("PING"),
            Request::Stats => f.write_str("STATS"),
            Request::Drain => f.write_str("DRAIN"),
            Request::Quit => f.write_str("QUIT"),
            Request::Ingest(r) => {
                write!(f, "INGEST {} {} ", r.id, r.value)?;
                put_labels(f, &r.labels)
            }
            Request::IngestBatch { bytes } => write!(f, "INGESTB {bytes}"),
            Request::Hello { bytes } => write!(f, "HELLO {bytes}"),
            Request::Query(spec) => put_query(f, spec),
            Request::QueryCover { spec, cover } => {
                put_query(f, spec)?;
                f.write_str(" COVER ")?;
                put_labels(f, cover)
            }
            Request::Slice { labels, from, to } => {
                f.write_str("SLICE ")?;
                put_labels(f, labels)?;
                put_range(f, *from, *to)
            }
            Request::Subscribe(s) => {
                f.write_str("SUBSCRIBE ")?;
                put_labels(f, &s.labels)?;
                write!(f, " {} {} {}", s.lambda, s.tau, s.engine.as_str())?;
                put_range(f, s.from, s.to)?;
                if s.shards != 1 {
                    write!(f, " SHARDS {}", s.shards)?;
                }
                if let Some(name) = &s.name {
                    write!(f, " NAME {name}")?;
                }
                if s.after != 0 {
                    write!(f, " AFTER {}", s.after)?;
                }
                Ok(())
            }
        }
    }
}

impl Request {
    /// The request's wire bytes as one buffer, so they go out in one
    /// write: the canonical line, a newline, then `body` — the bytes an
    /// `INGESTB` or `HELLO` line announces, empty for every other verb.
    pub fn frame(&self, body: &[u8]) -> Vec<u8> {
        let mut frame = format!("{self}\n").into_bytes();
        frame.extend_from_slice(body);
        frame
    }
}

/// Decodes a whole `INGESTB` body into columns, or fails with nothing
/// decoded. The [`MAX_BATCH_ROWS`] limit is checked on the body's row
/// count, before anything is reserved for the rows.
pub fn decode_batch(body: &[u8]) -> Result<Rows, MqdError> {
    decode_rows(body, MAX_BATCH_ROWS)
}

/// The wire name of an error: its [`MqdError`] variant name.
pub fn error_kind(e: &MqdError) -> &'static str {
    match e {
        MqdError::LabelOutOfRange { .. } => "LabelOutOfRange",
        MqdError::NegativeLambda(_) => "NegativeLambda",
        MqdError::OptBudgetExceeded { .. } => "OptBudgetExceeded",
        MqdError::BruteTooLarge { .. } => "BruteTooLarge",
        MqdError::Parse { .. } => "Parse",
        MqdError::Corrupt { .. } => "Corrupt",
        MqdError::NonMonotoneTimestamp { .. } => "NonMonotoneTimestamp",
        MqdError::EmptyLabelSet { .. } => "EmptyLabelSet",
        MqdError::Io(_) => "Io",
        MqdError::ShardFailed { .. } => "ShardFailed",
        MqdError::CheckpointMismatch { .. } => "CheckpointMismatch",
        MqdError::Protocol { .. } => "Protocol",
        MqdError::Poisoned { .. } => "Poisoned",
        MqdError::Timeout { .. } => "Timeout",
    }
}

/// Writes `head`, then `s` with every line break turned into a space,
/// then `\n`: whatever a message or a payload line holds, it stays one
/// line on the wire.
fn write_line<W: Write>(w: &mut W, head: &str, s: &str) -> std::io::Result<()> {
    w.write_all(head.as_bytes())?;
    for (i, part) in s.split(['\n', '\r']).enumerate() {
        if i > 0 {
            w.write_all(b" ")?;
        }
        w.write_all(part.as_bytes())?;
    }
    w.write_all(b"\n")
}

/// Writes the terminator line and flushes: the end of every response.
fn finish<W: Write>(w: &mut W) -> std::io::Result<()> {
    writeln!(w, "{TERMINATOR}")?;
    w.flush()
}

/// Writes `+OK <json>`, the payload lines, and the terminator.
pub fn write_ok<W: Write>(w: &mut W, json: &str, payload: &[String]) -> std::io::Result<()> {
    write_line(w, "+OK ", json)?;
    for line in payload {
        write_line(w, "", line)?;
    }
    finish(w)
}

/// [`write_ok`] for a payload that is already rendered: `+OK <json>`, the
/// rows' bytes as they stand, and the terminator. [`TsvRows`] lines cannot
/// break the framing (digits, `-`, tabs and commas; `mqd_core::record`
/// pins that), so they are written, not examined.
pub fn write_ok_rows<W: Write>(w: &mut W, json: &str, rows: &TsvRows) -> std::io::Result<()> {
    write_line(w, "+OK ", json)?;
    w.write_all(rows.as_bytes())?;
    finish(w)
}

/// Writes the `INGEST` / `INGESTB` acknowledgement — one function, so the
/// router's ack is the single node's byte for byte.
pub fn write_ingested<W: Write>(w: &mut W, n: usize, generation: u64) -> std::io::Result<()> {
    let json = format!(r#"{{"ingested":{n},"generation":{generation}}}"#);
    write_ok(w, &json, &[])
}

/// Writes `-ERR <Kind> <msg>` and the terminator.
pub fn write_err<W: Write>(w: &mut W, e: &MqdError) -> std::io::Result<()> {
    write!(w, "-ERR {}", error_kind(e))?;
    write_line(w, " ", &e.to_string())?;
    finish(w)
}

/// Writes `-OVERLOADED <msg>` and the terminator — the typed admission-
/// control rejection.
pub fn write_overloaded<W: Write>(w: &mut W, msg: &str) -> std::io::Result<()> {
    write_line(w, "-OVERLOADED ", msg)?;
    finish(w)
}

/// Writes `ABORT <kind> <msg>` and the terminator: the end of a streamed
/// response (`SUBSCRIBE`) that fails after its `+OK` header went out, so
/// the failure travels inside the payload framing.
pub fn write_abort<W: Write>(w: &mut W, kind: &str, msg: &str) -> std::io::Result<()> {
    write_line(w, &format!("ABORT {kind} "), msg)?;
    finish(w)
}

/// One framed response: the status line and the payload lines
/// (everything between the status and the `.` terminator).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Response {
    /// The status line (`+OK ...`, `-ERR ...`, or `-OVERLOADED ...`).
    pub status: String,
    /// Payload lines, terminator excluded.
    pub lines: Vec<String>,
}

impl Response {
    /// Whether the status line is `+OK`.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("+OK")
    }

    /// Whether the server rejected the request for load (`-OVERLOADED`).
    pub fn is_overloaded(&self) -> bool {
        self.status.starts_with("-OVERLOADED")
    }
}

/// Writes a read [`Response`] back out as it was framed: the status line,
/// the payload lines and the terminator. The router relays a backend's
/// answer with it, and `mqdiv client` echoes each answer.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> std::io::Result<()> {
    write_line(w, "", &resp.status)?;
    for line in &resp.lines {
        write_line(w, "", line)?;
    }
    finish(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_commands_parse() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("  DRAIN  ").unwrap(), Request::Drain);
        assert_eq!(parse_request("quit").unwrap(), Request::Quit);
    }

    #[test]
    fn ingest_parses_a_record() {
        let r = parse_request("INGEST 42 1000 0,3,3").unwrap();
        assert_eq!(
            r,
            Request::Ingest(Record {
                id: 42,
                value: 1000,
                labels: vec![0, 3, 3],
            })
        );
        assert!(parse_request("INGEST 42 1000").is_err());
        assert!(parse_request("INGEST x 1000 0").is_err());
        assert!(parse_request("INGEST 42 1000 0 extra").is_err());
        assert!(parse_request("INGEST 1 2 ,").is_err()); // no labels
    }

    #[test]
    fn ingestb_enforces_the_byte_limit() {
        assert_eq!(
            parse_request("INGESTB 128").unwrap(),
            Request::IngestBatch { bytes: 128 }
        );
        let too_big = format!("INGESTB {}", MAX_BATCH_BYTES + 1);
        assert!(matches!(
            parse_request(&too_big).unwrap_err(),
            MqdError::Protocol { .. }
        ));
    }

    #[test]
    fn query_parses_full_form() {
        let r = parse_request("QUERY 0,2 50 scanplus FROM -10 TO 99 PROP").unwrap();
        let Request::Query(q) = r else {
            panic!("not a query")
        };
        assert_eq!(q.labels, vec![0, 2]);
        assert_eq!(q.lambda, 50);
        assert_eq!(q.algorithm, Algorithm::ScanPlus);
        assert_eq!((q.from, q.to, q.proportional), (-10, 99, true));
    }

    #[test]
    fn query_defaults_to_the_full_range() {
        let Request::Query(q) = parse_request("QUERY 1 5 opt").unwrap() else {
            panic!()
        };
        assert_eq!((q.from, q.to, q.proportional), (i64::MIN, i64::MAX, false));
    }

    #[test]
    fn query_rejects_garbage() {
        for bad in [
            "QUERY",
            "QUERY 0",
            "QUERY 0 5",
            "QUERY 0 5 sort",
            "QUERY 0 x scan",
            "QUERY 0 5 scan FROM",
            "QUERY 0 5 scan FROM x",
            "QUERY 0 5 scan WAT 3",
            "QUERY 0 5 scan FROM 9 TO 1",
            "QUERY 0 5 scan SHARDS 2", // SHARDS is subscribe-only
            "FROB 1 2 3",
            "",
        ] {
            assert!(
                matches!(parse_request(bad), Err(MqdError::Protocol { .. })),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn cluster_verbs_parse() {
        let r = parse_request("QUERY 0,2,4 50 scan TO 99 COVER 0,4").unwrap();
        let Request::QueryCover { spec, cover } = r else {
            panic!("not a cover query")
        };
        assert_eq!(spec.labels, vec![0, 2, 4]);
        assert_eq!((spec.lambda, spec.to), (50, 99));
        assert_eq!(cover, vec![0, 4]);

        let r = parse_request("SLICE 1,3 FROM -5 TO 10").unwrap();
        assert_eq!(
            r,
            Request::Slice {
                labels: vec![1, 3],
                from: -5,
                to: 10,
            }
        );
        let Request::Slice { from, to, .. } = parse_request("SLICE 0").unwrap() else {
            panic!()
        };
        assert_eq!((from, to), (i64::MIN, i64::MAX));

        assert_eq!(
            parse_request("HELLO 32").unwrap(),
            Request::Hello { bytes: 32 }
        );

        for bad in [
            "QUERY 0 5 scan COVER",           // COVER needs labels
            "QUERY 0 5 scan COVER ,",         // empty label list
            "SLICE",                          // labels required
            "SLICE 0 PROP",                   // PROP is query-only
            "SLICE 0 COVER 0",                // COVER is query-only
            "SUBSCRIBE 0 10 20 scan COVER 0", // not a subscribe option
            "HELLO",
            "HELLO 0",
            "HELLO 257",
            "HELLO 32 extra",
        ] {
            assert!(
                matches!(parse_request(bad), Err(MqdError::Protocol { .. })),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn subscribe_parses() {
        let r = parse_request("SUBSCRIBE 0,1 10 20 greedy FROM 0 TO 100 SHARDS 2").unwrap();
        let Request::Subscribe(s) = r else { panic!() };
        assert_eq!(s.labels, vec![0, 1]);
        assert_eq!((s.lambda, s.tau), (10, 20));
        assert_eq!(s.engine, ShardEngineKind::Greedy);
        assert_eq!((s.from, s.to, s.shards), (0, 100, 2));
        assert_eq!((s.name, s.after), (None, 0));
        // PROP is query-only.
        assert!(parse_request("SUBSCRIBE 0 10 20 scan PROP").is_err());
        assert!(parse_request("SUBSCRIBE 0 10 20 turbo").is_err());
    }

    #[test]
    fn subscribe_parses_durable_sessions() {
        let r = parse_request("SUBSCRIBE 0 10 20 scan NAME feed-1 AFTER 7").unwrap();
        let Request::Subscribe(s) = r else { panic!() };
        assert_eq!(s.name.as_deref(), Some("feed-1"));
        assert_eq!(s.after, 7);
        // NAME becomes a file name: path-ish or oversized tokens are typed
        // protocol errors, not filesystem surprises.
        for bad in [
            "SUBSCRIBE 0 10 20 scan NAME ../escape",
            "SUBSCRIBE 0 10 20 scan NAME a/b",
            "SUBSCRIBE 0 10 20 scan NAME .hidden",
            "SUBSCRIBE 0 10 20 scan NAME",
            "SUBSCRIBE 0 10 20 scan AFTER x",
            // NAME/AFTER are subscribe-only.
            "QUERY 0 5 scan NAME q",
            "QUERY 0 5 scan AFTER 3",
        ] {
            assert!(
                matches!(parse_request(bad), Err(MqdError::Protocol { .. })),
                "should reject {bad:?}"
            );
        }
        let long = format!("SUBSCRIBE 0 10 20 scan NAME {}", "x".repeat(65));
        assert!(parse_request(&long).is_err());
    }

    #[test]
    fn responses_frame_with_a_terminator() {
        let mut buf = Vec::new();
        write_ok(&mut buf, r#"{"n":1}"#, &["1\t2\t0".into()]).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "+OK {\"n\":1}\n1\t2\t0\n.\n"
        );
        // The rendered-rows writer frames the same bytes.
        let rows = TsvRows::from_records(&[Record {
            id: 1,
            value: 2,
            labels: vec![0],
        }]);
        let mut buf = Vec::new();
        write_ok_rows(&mut buf, "{\"n\":1}\r\n", &rows).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "+OK {\"n\":1}  \n1\t2\t0\n.\n"
        );
        let mut buf = Vec::new();
        write_ok(&mut buf, "a\nb", &["x\ry\n".into()]).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "+OK a b\nx y \n.\n");
        let mut buf = Vec::new();
        write_err(
            &mut buf,
            &MqdError::Protocol {
                msg: "bad\nthing".into(),
            },
        )
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("-ERR Protocol "));
        assert!(!s.contains("bad\nthing"), "newlines must be flattened");
        assert!(s.ends_with(".\n"));
        let mut buf = Vec::new();
        write_overloaded(&mut buf, "queue full").unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "-OVERLOADED queue full\n.\n"
        );
    }

    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            (self.next() >> 33) % n
        }

        /// An extreme, a small value or any word, one time in three each.
        fn value(&mut self) -> i64 {
            match self.below(3) {
                0 => [i64::MIN, i64::MAX, 0, -1][self.below(4) as usize],
                1 => self.below(2000) as i64 - 1000,
                _ => self.next() as i64,
            }
        }

        fn labels(&mut self) -> Vec<u16> {
            (0..1 + self.below(4))
                .map(|_| [0, u16::MAX, self.below(70) as u16][self.below(3) as usize])
                .collect()
        }

        /// `(from, to)` with `from <= to`, the only ranges the parser takes.
        fn range(&mut self) -> (i64, i64) {
            let (a, b) = (self.value(), self.value());
            (a.min(b), a.max(b))
        }

        /// A valid `NAME`, 1 to 64 bytes.
        fn name(&mut self) -> String {
            const CHARS: &[u8] = b"abcXYZ019._-";
            loop {
                let len = [1, MAX_NAME_BYTES as u64, 1 + self.below(64)][self.below(3) as usize];
                let name: String = (0..len)
                    .map(|_| CHARS[self.below(CHARS.len() as u64) as usize] as char)
                    .collect();
                if parse_name(&name).is_ok() {
                    return name;
                }
            }
        }

        fn spec(&mut self) -> QuerySpec {
            let (from, to) = self.range();
            QuerySpec {
                labels: self.labels(),
                lambda: self.value(),
                proportional: self.below(2) == 0,
                algorithm: Algorithm::ALL[self.below(4) as usize],
                from,
                to,
            }
        }

        /// One request of the `verb`th [`Request`] variant, in declaration
        /// order (0..11).
        fn request(&mut self, verb: u64) -> Request {
            match verb {
                0 => Request::Ping,
                1 => Request::Stats,
                2 => Request::Ingest(Record {
                    id: [0, u64::MAX, self.next()][self.below(3) as usize],
                    value: self.value(),
                    labels: self.labels(),
                }),
                3 => Request::IngestBatch {
                    bytes: [0, MAX_BATCH_BYTES, self.below(1 << 20) as usize]
                        [self.below(3) as usize],
                },
                4 => Request::Query(self.spec()),
                5 => Request::QueryCover {
                    spec: self.spec(),
                    cover: self.labels(),
                },
                6 => {
                    let (from, to) = self.range();
                    Request::Slice {
                        labels: self.labels(),
                        from,
                        to,
                    }
                }
                7 => Request::Hello {
                    bytes: [1, MAX_HELLO_BYTES, 1 + self.below(256) as usize]
                        [self.below(3) as usize],
                },
                8 => {
                    let (from, to) = self.range();
                    let engines = [
                        ShardEngineKind::Scan,
                        ShardEngineKind::ScanPlus,
                        ShardEngineKind::Greedy,
                        ShardEngineKind::GreedyPlus,
                    ];
                    Request::Subscribe(SubscribeSpec {
                        labels: self.labels(),
                        lambda: self.value(),
                        tau: self.value(),
                        engine: engines[self.below(4) as usize],
                        from,
                        to,
                        shards: [1, 64, 1 + self.below(64) as usize][self.below(3) as usize],
                        name: (self.below(2) == 0).then(|| self.name()),
                        after: [0, u64::MAX, self.next()][self.below(3) as usize],
                    })
                }
                9 => Request::Drain,
                _ => Request::Quit,
            }
        }
    }

    #[test]
    fn every_request_renders_canonically_and_parses_back() {
        let mut rng = Lcg(0x5eed_2043);
        for i in 0..4000u64 {
            let r = rng.request(i % 11);
            let line = r.to_string();
            assert_eq!(parse_request(&line), Ok(r.clone()), "{line}");
            // The framed form is the line, a newline and the body.
            let framed = r.frame(b"xy");
            assert_eq!(framed, format!("{line}\nxy").into_bytes());
        }
        // Defaults stay off the wire.
        let plain = Request::Subscribe(SubscribeSpec {
            labels: vec![1],
            lambda: 5,
            tau: 0,
            engine: ShardEngineKind::Scan,
            from: i64::MIN,
            to: i64::MAX,
            shards: 1,
            name: None,
            after: 0,
        });
        assert_eq!(plain.to_string(), "SUBSCRIBE 1 5 0 scan");
        let slice = Request::Slice {
            labels: vec![3],
            from: i64::MIN,
            to: i64::MAX,
        };
        assert_eq!(slice.to_string(), "SLICE 3");
        // Every option, in the order the router has always sent them.
        let full = Request::Subscribe(SubscribeSpec {
            labels: vec![0, 2],
            lambda: 10,
            tau: 20,
            engine: ShardEngineKind::GreedyPlus,
            from: -5,
            to: 99,
            shards: 3,
            name: Some("feed-1".into()),
            after: 7,
        });
        assert_eq!(
            full.to_string(),
            "SUBSCRIBE 0,2 10 20 greedyplus FROM -5 TO 99 SHARDS 3 NAME feed-1 AFTER 7"
        );
        let Ok(cover) = parse_request("QUERY 0,2,4 50 scan TO 99 COVER 0,4") else {
            panic!("cover query did not parse")
        };
        assert_eq!(cover.to_string(), "QUERY 0,2,4 50 scan TO 99 COVER 0,4");
        assert_eq!(Request::IngestBatch { bytes: 12 }.to_string(), "INGESTB 12");
        assert_eq!(Request::Hello { bytes: 7 }.to_string(), "HELLO 7");
    }

    #[test]
    fn aborts_and_echoes_frame_like_the_writers_they_replace() {
        let mut buf = Vec::new();
        write_abort(&mut buf, "Protocol", "shard 1/2 has no live backend").unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "ABORT Protocol shard 1/2 has no live backend\n.\n"
        );
        let resp = Response {
            status: "-ERR Protocol nope".into(),
            lines: vec!["a".into(), String::new(), "b\tc".into()],
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "-ERR Protocol nope\na\n\nb\tc\n.\n"
        );
    }

    #[test]
    fn error_kinds_name_every_variant() {
        assert_eq!(error_kind(&MqdError::NegativeLambda(-1)), "NegativeLambda");
        assert_eq!(
            error_kind(&MqdError::Protocol { msg: String::new() }),
            "Protocol"
        );
        assert_eq!(
            error_kind(&MqdError::EmptyLabelSet { row: 1 }),
            "EmptyLabelSet"
        );
        assert_eq!(
            error_kind(&MqdError::Timeout { msg: String::new() }),
            "Timeout"
        );
    }
}
