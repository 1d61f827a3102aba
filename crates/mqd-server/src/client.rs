//! Minimal blocking client for the serving protocol, used by `mqdiv
//! client`, the router's backend sessions, `mqd-load`, the oracle's
//! loopback agreement check and the end-to-end tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use mqd_core::record::{encode_records, parse_tsv_line, Record};
use mqd_core::wire::{encode_hello, ShardIdentity};
use mqd_core::MqdError;
use mqd_store::QuerySpec;

use crate::protocol::{format_query, Request, Response, TERMINATOR};

/// Extracts the first `"key":<uint>` occurrence from a status line or
/// `STATS` blob. The wire format nests objects but never repeats, across
/// sections, a key any caller reads, so first-occurrence is exact.
pub fn json_u64(s: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = s.find(&needle)? + needle.len();
    let rest = s.get(at..)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// A blocking connection to an mqd server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, MqdError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads the framed response.
    pub fn request(&mut self, line: &str) -> Result<Response, MqdError> {
        self.send_line(line)?;
        self.read_response()
    }

    /// Sends raw bytes verbatim (test hook for malformed traffic) and reads
    /// one framed response.
    pub fn request_raw(&mut self, bytes: &[u8]) -> Result<Response, MqdError> {
        self.send(bytes)?;
        self.read_response()
    }

    /// Performs the router handshake: sends the shard-map frame and reads
    /// the backend's verdict.
    pub fn hello(&mut self, identity: &ShardIdentity) -> Result<Response, MqdError> {
        let frame = encode_hello(identity);
        self.send(&Request::Hello { bytes: frame.len() }.frame(&frame))?;
        self.read_response()
    }

    /// The send half: writes `frame` — one or more whole requests, or any
    /// bytes at all from a test of malformed traffic — in one `write_all`
    /// and reads nothing. Pair it with [`Client::read_response`] (the
    /// router sends to every shard before it reads any reply) or with
    /// [`Client::next_line`] (a streamed `SUBSCRIBE`).
    pub fn send(&mut self, frame: &[u8]) -> Result<(), MqdError> {
        self.writer.write_all(frame)?;
        Ok(())
    }

    /// Sends one request line, newline-terminated, without reading a
    /// response.
    pub fn send_line(&mut self, line: &str) -> Result<(), MqdError> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.send(frame.as_bytes())
    }

    /// Reads one raw response line: the reader under
    /// [`Client::read_response`], and the line-granular half of a
    /// streaming relay, where waiting for the `.` terminator before
    /// forwarding would defeat the stream. Returns `None` on EOF *and* on
    /// a torn trailing fragment (bytes with no newline from a peer that
    /// died mid-write): a healthy response always ends with a terminated
    /// `.` line, so an unterminated fragment is by definition an
    /// interrupted stream and must not be taken for a complete line.
    pub fn next_line(&mut self) -> Result<Option<String>, MqdError> {
        let mut buf = Vec::new();
        // Blocks by design: a request is outstanding, or the caller opted
        // into line-granular streaming.
        let n = self.reader.by_ref().read_until(b'\n', &mut buf)?;
        if n == 0 || buf.last() != Some(&b'\n') {
            return Ok(None);
        }
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        Ok(Some(utf8_line(buf)))
    }

    /// Ingests a batch of rows as one MQDL-framed `INGESTB` request.
    pub fn ingest_batch(&mut self, rows: &[Record]) -> Result<Response, MqdError> {
        self.ingest_body(&encode_records(rows))
    }

    /// Sends an already-encoded MQDL body as one `INGESTB` request.
    pub fn ingest_body(&mut self, body: &[u8]) -> Result<Response, MqdError> {
        self.send(&Request::IngestBatch { bytes: body.len() }.frame(body))?;
        self.read_response()
    }

    /// Runs a query and parses the payload back into records. A non-OK
    /// status is returned as-is with an empty row list.
    pub fn query(&mut self, spec: &QuerySpec) -> Result<(Response, Vec<Record>), MqdError> {
        let resp = self.request(&format_query(spec))?;
        if !resp.is_ok() {
            return Ok((resp, Vec::new()));
        }
        let mut rows = Vec::new();
        for (i, line) in resp.lines.iter().enumerate() {
            if let Some(r) = parse_tsv_line(line, i + 1)? {
                rows.push(r);
            }
        }
        Ok((resp, rows))
    }

    /// Reads one framed response: status line, payload lines, `.`.
    pub fn read_response(&mut self) -> Result<Response, MqdError> {
        let status = self
            .next_line()?
            .ok_or_else(|| MqdError::protocol("connection closed before a response"))?;
        let mut lines = Vec::new();
        loop {
            // Mid-response read: the server frames every response with a
            // terminator line, so this ends.
            match self.next_line()? {
                Some(l) if l == TERMINATOR => break,
                Some(l) => lines.push(l),
                None => {
                    return Err(MqdError::protocol("connection closed mid-response"));
                }
            }
        }
        Ok(Response { status, lines })
    }

    /// Half-closes the write side (test hook for half-closed sockets).
    pub fn shutdown_write(&mut self) -> Result<(), MqdError> {
        self.writer.shutdown(std::net::Shutdown::Write)?;
        Ok(())
    }
}

/// A read line as a `String`: the buffer itself when it is valid UTF-8,
/// else a lossy copy with U+FFFD for each invalid sequence.
fn utf8_line(buf: Vec<u8>) -> String {
    String::from_utf8(buf).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_store::Algorithm;

    #[test]
    fn read_lines_decode_as_the_lossy_copy_did() {
        for bytes in [
            &b"+OK {\"count\":2}"[..],
            "1\t5\t0,1 caf\u{e9}".as_bytes(),
            b"bad \xff\xfe byte",
            b"torn \xe2\x82",
            b"",
        ] {
            assert_eq!(
                utf8_line(bytes.to_vec()),
                String::from_utf8_lossy(bytes).into_owned()
            );
        }
    }

    #[test]
    fn json_u64_extracts_first_occurrence() {
        let s = r#"{"cache":{"repairs":12},"served":{"errors":3,"overloads":0}}"#;
        assert_eq!(json_u64(s, "repairs"), Some(12));
        assert_eq!(json_u64(s, "errors"), Some(3));
        assert_eq!(json_u64(s, "missing"), None);
    }

    #[test]
    fn query_lines_serialize_canonically() {
        let spec = QuerySpec {
            labels: vec![0, 2],
            lambda: 50,
            proportional: false,
            algorithm: Algorithm::Scan,
            from: i64::MIN,
            to: i64::MAX,
        };
        assert_eq!(format_query(&spec), "QUERY 0,2 50 scan");
        let spec = QuerySpec {
            labels: vec![1],
            lambda: 9,
            proportional: true,
            algorithm: Algorithm::GreedySc,
            from: -5,
            to: 77,
        };
        assert_eq!(format_query(&spec), "QUERY 1 9 greedysc FROM -5 TO 77 PROP");
    }

    #[test]
    fn formatted_queries_parse_back() {
        use crate::protocol::{parse_request, Request};
        let spec = QuerySpec {
            labels: vec![3, 1],
            lambda: 0,
            proportional: true,
            algorithm: Algorithm::ScanPlus,
            from: i64::MIN + 1,
            to: i64::MAX - 1,
        };
        match parse_request(&format_query(&spec)).unwrap() {
            Request::Query(q) => assert_eq!(q, spec),
            other => panic!("expected query, got {other:?}"),
        }
    }
}
