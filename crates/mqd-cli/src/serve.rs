//! `mqdiv serve`, `mqdiv route`, and `mqdiv client`: wire the TCP serving
//! layer ([`mqd_server`]) and the cluster router ([`mqd_router`]) into the
//! command-line tool.
//!
//! `serve` binds, prints `listening on <addr>` (the one stdout line, so
//! scripts can grab an ephemeral port), and blocks until a client sends
//! `DRAIN`; `--shard-id I --shard-count N` pins it as shard `I` of an
//! `N`-shard cluster. `route` binds the router frontend over `--backends`
//! with the same announcement line. `client` forwards a request script —
//! one request per line, blank lines and `#` comments skipped, `INGESTB
//! <n>` followed by `n` raw body bytes — and echoes each framed response
//! verbatim.

use std::io::{BufRead, Write};

use mqd_router::{Router, RouterConfig};
use mqd_server::protocol::{parse_request, write_response, Request};
use mqd_server::{Client, Server, ServerConfig};

/// Binds the server, announces the bound address on `out`, and serves
/// until drained.
pub fn serve(mut out: impl Write, log: &mut impl Write, cfg: &ServerConfig) -> Result<(), String> {
    let server = Server::bind(cfg).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    writeln!(out, "listening on {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    writeln!(
        log,
        "serving with {} worker thread(s), queue bound {}",
        server.threads(),
        cfg.max_queue
    )
    .map_err(|e| e.to_string())?;
    if let Some(shard) = &cfg.shard {
        writeln!(log, "shard {}/{}", shard.shard_id, shard.shard_count)
            .map_err(|e| e.to_string())?;
    }
    if let Some(dir) = &cfg.data_dir {
        writeln!(
            log,
            "durable store at {} (fsync {}, retain {})",
            dir.display(),
            if cfg.fsync { "on" } else { "off" },
            cfg.retain.map_or("off".to_string(), |r| r.to_string()),
        )
        .map_err(|e| e.to_string())?;
    }
    server.run().map_err(|e| e.to_string())
}

/// Binds the router, announces the frontend address on `out` (same
/// `listening on <addr>` line as `serve`), and routes until drained.
pub fn route(mut out: impl Write, log: &mut impl Write, cfg: &RouterConfig) -> Result<(), String> {
    let router = Router::bind(cfg).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    writeln!(out, "listening on {}", router.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    writeln!(
        log,
        "routing {} shard(s) over {} backend(s): {}",
        cfg.shards,
        cfg.backends.len(),
        cfg.backends.join(", ")
    )
    .map_err(|e| e.to_string())?;
    router.run().map_err(|e| e.to_string())
}

/// Options for `mqdiv client`.
pub struct ClientOpts {
    /// Server address to connect to.
    pub addr: String,
    /// Exit with an error if any request gets a non-`+OK` response.
    pub check: bool,
}

/// Forwards a request script from `input` and echoes every framed response
/// (status line, payload lines, `.` terminator) to `out`.
pub fn client_script(
    mut input: impl BufRead,
    mut out: impl Write,
    log: &mut impl Write,
    opts: &ClientOpts,
) -> Result<(), String> {
    let mut client =
        Client::connect(&opts.addr).map_err(|e| format!("connect {}: {e}", opts.addr))?;
    let mut sent = 0usize;
    let mut failed = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        // Reads the local script/stdin the operator controls, not a
        // network peer.
        if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            break;
        }
        let request = line.trim();
        if request.is_empty() || request.starts_with('#') {
            continue;
        }
        // A well-formed `INGESTB` header is followed by its body; any
        // other line, a malformed header included, goes out as it is and
        // the server answers it.
        let parsed = parse_request(request);
        let resp = if let Ok(Request::IngestBatch { bytes: nbytes }) = parsed {
            let mut raw = request.as_bytes().to_vec();
            raw.push(b'\n');
            let at = raw.len();
            raw.resize(at + nbytes, 0);
            input
                // lint:allow(panic-path): at == the pre-resize length, so at <= raw.len() always
                .read_exact(&mut raw[at..])
                .map_err(|e| format!("body of '{request}': {e}"))?;
            client.request_raw(&raw)
        } else {
            client.request(request)
        }
        .map_err(|e| format!("request '{request}': {e}"))?;
        sent += 1;
        if !resp.is_ok() {
            failed += 1;
        }
        write_response(&mut out, &resp).map_err(|e| e.to_string())?;
        // The server closes the connection after these; stop forwarding
        // instead of erroring on the next line of a longer script.
        if matches!(parsed, Ok(Request::Quit | Request::Drain)) {
            break;
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    writeln!(log, "{sent} request(s), {failed} failed").map_err(|e| e.to_string())?;
    if opts.check && failed > 0 {
        return Err(format!("{failed} request(s) failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqd_core::wire::ShardIdentity;
    use std::io::Cursor;

    fn spawn_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            max_queue: 8,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    #[test]
    fn script_round_trips_and_drains() {
        let (addr, handle) = spawn_server();
        let script = "# warm-up\n\
                      PING\n\
                      INGEST 1 10 0\n\
                      INGEST 2 20 0,1\n\
                      QUERY 0,1 15 greedysc\n\
                      DRAIN\n";
        let mut out = Vec::new();
        let mut log = Vec::new();
        client_script(
            Cursor::new(script),
            &mut out,
            &mut log,
            &ClientOpts {
                addr: addr.to_string(),
                check: true,
            },
        )
        .unwrap();
        handle.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(r#"+OK {"pong":true}"#), "{text}");
        assert!(text.contains("2\t20\t0,1"), "{text}");
        assert!(text.contains(r#"+OK {"draining":true}"#), "{text}");
        assert_eq!(String::from_utf8(log).unwrap(), "5 request(s), 0 failed\n");
    }

    #[test]
    fn check_mode_fails_on_typed_errors() {
        let (addr, handle) = spawn_server();
        let script = "FROB\nQUIT\n";
        let mut out = Vec::new();
        let mut log = Vec::new();
        let err = client_script(
            Cursor::new(script),
            &mut out,
            &mut log,
            &ClientOpts {
                addr: addr.to_string(),
                check: true,
            },
        )
        .unwrap_err();
        assert_eq!(err, "1 request(s) failed");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("-ERR Protocol"), "{text}");
        // Drain separately so the server thread exits.
        let mut drain = Client::connect(addr).unwrap();
        drain.request("DRAIN").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn ingestb_bodies_pass_through_uninterpreted() {
        let (addr, handle) = spawn_server();
        let rows = vec![
            mqd_core::record::Record {
                id: 7,
                value: 5,
                labels: vec![0],
            },
            mqd_core::record::Record {
                id: 8,
                value: 6,
                labels: vec![1],
            },
        ];
        let body = mqd_core::record::encode_records(&rows);
        let mut script = format!("INGESTB {}\n", body.len()).into_bytes();
        script.extend_from_slice(&body);
        script.extend_from_slice(b"STATS\nDRAIN\n");
        let mut out = Vec::new();
        let mut log = Vec::new();
        client_script(
            Cursor::new(script),
            &mut out,
            &mut log,
            &ClientOpts {
                addr: addr.to_string(),
                check: true,
            },
        )
        .unwrap();
        handle.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(r#""ingested":2"#), "{text}");
        assert!(text.contains(r#""rows":2"#), "{text}");
    }

    /// A `Write` the test can read back while `route` still owns it — the
    /// announce line carries the router's ephemeral port.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn route_fronts_a_sharded_cluster_for_client_scripts() {
        let spawn_shard = |shard_id: u32| {
            let server = Server::bind(&ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 2,
                max_queue: 8,
                shard: Some(ShardIdentity {
                    shard_id,
                    shard_count: 2,
                }),
                ..ServerConfig::default()
            })
            .unwrap();
            let addr = server.local_addr();
            let handle = std::thread::spawn(move || server.run().unwrap());
            (addr, handle)
        };
        let (b0, h0) = spawn_shard(0);
        let (b1, h1) = spawn_shard(1);

        let announce = SharedBuf::default();
        let opts = RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: vec![b0.to_string(), b1.to_string()],
            shards: 2,
            max_queue: 8,
            ..RouterConfig::default()
        };
        let hr = {
            let mut out = announce.clone();
            std::thread::spawn(move || route(&mut out, &mut Vec::new(), &opts).unwrap())
        };
        let addr = loop {
            let snapshot = String::from_utf8(announce.0.lock().unwrap().clone()).unwrap();
            if let Some(rest) = snapshot.strip_prefix("listening on ") {
                break rest.trim().to_string();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        let script = "INGEST 1 10 0\n\
                      INGEST 2 20 1\n\
                      INGEST 3 30 0,1\n\
                      QUERY 0,1 15 greedysc\n\
                      DRAIN\n";
        let mut out = Vec::new();
        let mut log = Vec::new();
        client_script(
            Cursor::new(script),
            &mut out,
            &mut log,
            &ClientOpts { addr, check: true },
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(r#""ingested":1,"generation":3"#), "{text}");
        assert!(text.contains("3\t30\t0,1"), "{text}");
        assert!(text.contains(r#""generations":["#), "{text}");

        // The router's DRAIN forwarded DRAIN to both backends before
        // shutting its own acceptor down.
        hr.join().unwrap();
        h0.join().unwrap();
        h1.join().unwrap();
    }

    #[test]
    fn malformed_ingestb_header_is_forwarded_verbatim() {
        // The body size `client_script` reads after a header line.
        let ingestb_size = |line: &str| match parse_request(line) {
            Ok(Request::IngestBatch { bytes }) => Some(bytes),
            _ => None,
        };
        assert_eq!(ingestb_size("INGESTB 12"), Some(12));
        assert_eq!(ingestb_size("ingestb 0"), Some(0));
        assert_eq!(ingestb_size("INGESTB twelve"), None);
        assert_eq!(ingestb_size("INGESTB 1 2"), None);
        assert_eq!(ingestb_size("INGEST 1 2 0"), None);
        assert_eq!(ingestb_size(&format!("INGESTB {}", usize::MAX)), None);
    }
}
