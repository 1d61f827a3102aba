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

use mqd_core::wire::ShardIdentity;
use mqd_router::{Router, RouterConfig};
use mqd_server::{Client, Server, ServerConfig};

/// Options for `mqdiv serve`.
pub struct ServeOpts {
    /// Listen address, e.g. `127.0.0.1:7744` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Admission-control bound: connections queued beyond the worker pool.
    pub max_queue: usize,
    /// Data directory for WAL + sealed segments (`--data-dir`); `None`
    /// serves memory-only.
    pub data_dir: Option<std::path::PathBuf>,
    /// `--no-fsync` clears this: skip fsync on the durability points.
    pub fsync: bool,
    /// `--retain <span>`: GC sealed windows older than this value span.
    pub retain: Option<i64>,
    /// `--shard-id I --shard-count N`: serve as shard `I` of an `N`-shard
    /// cluster — reject rows owning none of the shard's labels and pin
    /// router `HELLO` handshakes to this map. `None` serves standalone.
    pub shard: Option<ShardIdentity>,
    /// `--idle-timeout-ms N`: close connections whose request line or body
    /// stalls longer than this with a typed `-ERR Timeout`, reclaiming the
    /// worker (slowloris defense). `None` waits forever.
    pub idle_timeout_ms: Option<u64>,
}

/// Binds the server, announces the bound address on `out`, and serves
/// until drained.
pub fn serve(mut out: impl Write, log: &mut impl Write, opts: &ServeOpts) -> Result<(), String> {
    let cfg = ServerConfig {
        addr: opts.addr.clone(),
        threads: 0, // resolved from --threads / MQD_THREADS via mqd-par
        max_queue: opts.max_queue,
        data_dir: opts.data_dir.clone(),
        fsync: opts.fsync,
        retain: opts.retain,
        shard: opts.shard,
        idle_timeout: opts.idle_timeout_ms.map(std::time::Duration::from_millis),
    };
    let server = Server::bind(&cfg).map_err(|e| format!("bind {}: {e}", opts.addr))?;
    writeln!(out, "listening on {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    writeln!(
        log,
        "serving with {} worker thread(s), queue bound {}",
        server.threads(),
        opts.max_queue
    )
    .map_err(|e| e.to_string())?;
    if let Some(shard) = &opts.shard {
        writeln!(log, "shard {}/{}", shard.shard_id, shard.shard_count)
            .map_err(|e| e.to_string())?;
    }
    if let Some(dir) = &opts.data_dir {
        writeln!(
            log,
            "durable store at {} (fsync {}, retain {})",
            dir.display(),
            if opts.fsync { "on" } else { "off" },
            opts.retain.map_or("off".to_string(), |r| r.to_string()),
        )
        .map_err(|e| e.to_string())?;
    }
    server.run().map_err(|e| e.to_string())
}

/// Options for `mqdiv route`.
pub struct RouteOpts {
    /// Frontend listen address (`:0` picks an ephemeral port).
    pub addr: String,
    /// Ordered backend addresses (repeatable `--backends a --backends b`,
    /// or comma-separated); backend `j` serves shard `j mod --shards`.
    pub backends: Vec<String>,
    /// Number of label shards.
    pub shards: u32,
    /// Admission-control bound, as on `serve`.
    pub max_queue: usize,
    /// `--idle-timeout-ms N`, as on `serve`: typed-timeout stalled
    /// frontend connections instead of parking workers.
    pub idle_timeout_ms: Option<u64>,
}

/// Binds the router, announces the frontend address on `out` (same
/// `listening on <addr>` line as `serve`), and routes until drained.
pub fn route(mut out: impl Write, log: &mut impl Write, opts: &RouteOpts) -> Result<(), String> {
    let cfg = RouterConfig {
        addr: opts.addr.clone(),
        backends: opts.backends.clone(),
        shards: opts.shards,
        threads: 0,
        max_queue: opts.max_queue,
        idle_timeout: opts.idle_timeout_ms.map(std::time::Duration::from_millis),
    };
    let router = Router::bind(&cfg).map_err(|e| format!("bind {}: {e}", opts.addr))?;
    writeln!(out, "listening on {}", router.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    writeln!(
        log,
        "routing {} shard(s) over {} backend(s): {}",
        opts.shards,
        opts.backends.len(),
        opts.backends.join(", ")
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

/// Returns the announced body size iff `line` is a well-formed `INGESTB`
/// header. Malformed headers are forwarded as-is so the server can answer
/// with its typed protocol error.
fn ingestb_size(line: &str) -> Option<usize> {
    let mut it = line.split_ascii_whitespace();
    if !it.next()?.eq_ignore_ascii_case("INGESTB") {
        return None;
    }
    let n: usize = it.next()?.parse().ok()?;
    if it.next().is_some() || n > mqd_server::protocol::MAX_BATCH_BYTES {
        return None;
    }
    Some(n)
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
        let resp = if let Some(nbytes) = ingestb_size(request) {
            let mut raw = request.as_bytes().to_vec();
            raw.push(b'\n');
            let at = raw.len();
            raw.resize(at + nbytes, 0);
            input
                // lint:allow(panic-path): at == the pre-resize length, so at <= raw.len() always
                .read_exact(&mut raw[at..])
                .map_err(|e| format!("INGESTB body ({nbytes} bytes): {e}"))?;
            client.request_raw(&raw)
        } else {
            client.request(request)
        }
        .map_err(|e| format!("request '{request}': {e}"))?;
        sent += 1;
        if !resp.is_ok() {
            failed += 1;
        }
        writeln!(out, "{}", resp.status).map_err(|e| e.to_string())?;
        for l in &resp.lines {
            writeln!(out, "{l}").map_err(|e| e.to_string())?;
        }
        writeln!(out, "{}", mqd_server::protocol::TERMINATOR).map_err(|e| e.to_string())?;
        // The server closes the connection after these; stop forwarding
        // instead of erroring on the next line of a longer script.
        let cmd = request.split_ascii_whitespace().next().unwrap_or("");
        if cmd.eq_ignore_ascii_case("QUIT") || cmd.eq_ignore_ascii_case("DRAIN") {
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
        let opts = RouteOpts {
            addr: "127.0.0.1:0".into(),
            backends: vec![b0.to_string(), b1.to_string()],
            shards: 2,
            max_queue: 8,
            idle_timeout_ms: None,
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
        assert_eq!(ingestb_size("INGESTB 12"), Some(12));
        assert_eq!(ingestb_size("ingestb 0"), Some(0));
        assert_eq!(ingestb_size("INGESTB twelve"), None);
        assert_eq!(ingestb_size("INGESTB 1 2"), None);
        assert_eq!(ingestb_size("INGEST 1 2 0"), None);
        assert_eq!(ingestb_size(&format!("INGESTB {}", usize::MAX)), None);
    }
}
