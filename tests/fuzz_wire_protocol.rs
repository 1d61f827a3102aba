//! Seeded fuzzing of the serving protocol: malformed frames, oversized
//! requests, corrupt and truncated `INGESTB` bodies, half-closed sockets,
//! and concurrent ingest+query traffic. The contract under test: every
//! bad input maps to a typed error response — the server never panics and
//! never silently drops a connection it could have answered.

use std::net::SocketAddr;

use mqd_core::record::{encode_records, Record};
use mqd_rng::{RngExt, SeedableRng, StdRng};
use mqd_router::{Router, RouterConfig};
use mqd_server::{Client, Server, ServerConfig};

fn start(threads: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        max_queue: 64,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run().unwrap()))
}

/// A router over one standalone backend: the same transport engine behind
/// a different handler. `DRAIN` cascades, so the handle joins both.
fn start_routed(threads: usize) -> Started {
    let (backend, server) = start(threads);
    let router = Router::bind(&RouterConfig {
        backends: vec![backend.to_string()],
        threads,
        ..RouterConfig::default()
    })
    .unwrap();
    let addr = router.local_addr();
    let handle = std::thread::spawn(move || {
        router.run().unwrap();
        server.join().unwrap();
    });
    (addr, handle)
}

type Started = (SocketAddr, std::thread::JoinHandle<()>);

/// The frontends the transport-level cases run against.
const FRONTS: [fn(usize) -> Started; 2] = [start, start_routed];

fn drain(addr: SocketAddr) {
    let mut c = Client::connect(addr).unwrap();
    assert!(c.request("DRAIN").unwrap().is_ok());
}

/// The server is still healthy: a fresh connection round-trips a PING.
fn assert_alive(addr: SocketAddr) {
    let mut c = Client::connect(addr).unwrap();
    let resp = c.request("PING").unwrap();
    assert!(resp.is_ok(), "{}", resp.status);
    assert!(c.request("QUIT").unwrap().is_ok());
}

#[test]
fn garbage_lines_get_typed_errors_and_keep_the_connection() {
    for start in FRONTS {
        let (addr, server) = start(2);
        let mut rng = StdRng::seed_from_u64(0xF0220);
        let mut client = Client::connect(addr).unwrap();
        for round in 0..200 {
            let len = rng.random_range(0..120usize);
            let mut line: String = (0..len)
                .map(|_| (rng.random_range(0x20..0x7fu8)) as char)
                .collect();
            // `INGESTB <n>` is the one prefix that legitimately consumes raw
            // bytes after the line; exclude it so the stream stays line-framed
            // (dedicated body tests below cover that path).
            if line.to_ascii_uppercase().starts_with("INGESTB") {
                line.insert(0, '#');
            }
            if line.trim().is_empty() {
                continue;
            }
            let resp = client
                .request(&line)
                .unwrap_or_else(|e| panic!("round {round}: no response to {line:?}: {e}"));
            assert!(
                resp.status.starts_with("-ERR ") || resp.is_ok(),
                "round {round}: unframed status {:?} for {line:?}",
                resp.status
            );
            assert!(
                !resp.status.contains("panicked"),
                "round {round}: handler panicked on {line:?}"
            );
        }
        // A framed verb the frontend rejects (bad handshake on the server,
        // backend-only verb on the router) still has its body consumed.
        let resp = client.request_raw(b"HELLO 7\n0123456").unwrap();
        assert!(resp.status.starts_with("-ERR "), "{}", resp.status);
        // Same connection still serves real requests.
        let resp = client.request("PING").unwrap();
        assert!(resp.is_ok());
        drop(client);
        drain(addr);
        server.join().unwrap();
    }
}

#[test]
fn corrupt_ingestb_bodies_are_typed_and_consume_the_frame() {
    let (addr, server) = start(2);
    let rows: Vec<Record> = (0..50)
        .map(|i| Record {
            id: i,
            value: i as i64 * 10,
            labels: vec![(i % 3) as u16],
        })
        .collect();
    let good = encode_records(&rows);
    let mut rng = StdRng::seed_from_u64(0xBADB0D);
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..50 {
        let mut body = good.clone();
        let flips = rng.random_range(1..8usize);
        for _ in 0..flips {
            let at = rng.random_range(0..body.len());
            body[at] ^= 1 << rng.random_range(0..8u8);
        }
        let mut raw = format!("INGESTB {}\n", body.len()).into_bytes();
        raw.extend_from_slice(&body);
        let resp = client.request_raw(&raw).unwrap();
        // A flip the checksum can detect must be a typed error; a flip
        // that keeps the log valid may ingest. Either way the connection
        // stays framed: the next request must round-trip.
        assert!(
            resp.is_ok() || resp.status.starts_with("-ERR "),
            "{}",
            resp.status
        );
        let ping = client.request("PING").unwrap();
        assert!(ping.is_ok(), "connection lost framing: {}", ping.status);
    }
    drop(client);
    drain(addr);
    server.join().unwrap();
}

#[test]
fn truncated_body_and_half_close_is_a_typed_error() {
    for start in FRONTS {
        let (addr, server) = start(2);
        let mut client = Client::connect(addr).unwrap();
        // Announce 100 bytes, deliver 10, half-close: the server cannot
        // recover the frame but must still answer with the typed error.
        let mut raw = b"INGESTB 100\n".to_vec();
        raw.extend_from_slice(&[0u8; 10]);
        client.send(&raw).unwrap();
        client.shutdown_write().unwrap();
        let resp = client.read_response().unwrap();
        assert!(resp.status.starts_with("-ERR Protocol"), "{}", resp.status);
        assert!(resp.status.contains("truncated body"), "{}", resp.status);
        assert_alive(addr);
        drain(addr);
        server.join().unwrap();
    }
}

#[test]
fn half_closed_mid_line_still_gets_an_answer() {
    for start in FRONTS {
        let (addr, server) = start(2);
        // Write a fragment with no trailing newline, then half-close: the
        // fragment is treated as a complete request line and answered.
        let mut c = Client::connect(addr).unwrap();
        c.send(b"PI").unwrap();
        c.shutdown_write().unwrap();
        let resp = c.read_response().unwrap();
        assert!(resp.status.starts_with("-ERR Protocol"), "{}", resp.status);
        assert_alive(addr);
        drain(addr);
        server.join().unwrap();
    }
}

#[test]
fn oversized_requests_are_rejected_typed() {
    for start in FRONTS {
        let (addr, server) = start(2);

        // Oversized request line (> 64 KiB): typed error, then close.
        let mut client = Client::connect(addr).unwrap();
        let big = "QUERY ".to_string() + &"1,".repeat(40_000) + "1 5 scan";
        let resp = client.request(&big).unwrap();
        assert!(resp.status.starts_with("-ERR Protocol"), "{}", resp.status);

        // Oversized batch announcement: typed error without reading a body.
        let mut client = Client::connect(addr).unwrap();
        let resp = client.request("INGESTB 999999999999").unwrap();
        assert!(resp.status.starts_with("-ERR "), "{}", resp.status);
        let ping = client.request("PING").unwrap();
        assert!(ping.is_ok(), "{}", ping.status);

        assert_alive(addr);
        drain(addr);
        server.join().unwrap();
    }
}

#[test]
fn hello_frame_attacks_are_typed_and_keep_the_connection() {
    use mqd_core::wire::{encode_hello, seal_framed, ShardIdentity, FRAME_FOOTER};

    let (addr, server) = start(2);
    let mut client = Client::connect(addr).unwrap();

    // Announced sizes the server must refuse before reading a frame:
    // zero, past the cap, and absurd (a pre-clamp decoder would have
    // preallocated the announced size).
    for bad in ["HELLO 0", "HELLO 257", "HELLO 999999999999", "HELLO -1"] {
        let resp = client.request(bad).unwrap();
        assert!(resp.status.starts_with("-ERR "), "{bad}: {}", resp.status);
        let ping = client.request("PING").unwrap();
        assert!(ping.is_ok(), "{bad} lost framing: {}", ping.status);
    }

    // A body shorter than announced, then half-close: typed, not hung.
    let mut torn = Client::connect(addr).unwrap();
    let good = encode_hello(&ShardIdentity {
        shard_id: 0,
        shard_count: 2,
    });
    let mut raw = format!("HELLO {}\n", good.len()).into_bytes();
    raw.extend_from_slice(&good[..good.len() / 2]);
    torn.send(&raw).unwrap();
    torn.shutdown_write().unwrap();
    let resp = torn.read_response().unwrap();
    assert!(resp.status.contains("truncated body"), "{}", resp.status);

    // Structurally hostile frames of the correct announced size: bad
    // magic, bad version, out-of-range shard coordinates, truncated
    // varints, trailing bytes — every one resealed so the checksum is
    // valid and the *decoder* does the rejecting.
    let reseal = |mutate: &dyn Fn(&mut Vec<u8>)| -> Vec<u8> {
        let mut body = good[..good.len() - 12].to_vec(); // strip footer
        mutate(&mut body);
        let mut frame = body;
        seal_framed(&mut frame, FRAME_FOOTER);
        frame
    };
    let hostile: Vec<(&str, Vec<u8>)> = vec![
        ("flipped magic", reseal(&|b| b[0] ^= 0xFF)),
        ("future version", reseal(&|b| b[4] = 99)),
        ("shard id >= count", {
            let mut b = good[..good.len() - 12].to_vec();
            b.truncate(5);
            b.push(7); // shard_id 7
            b.push(2); // shard_count 2
            let mut f = b;
            seal_framed(&mut f, FRAME_FOOTER);
            f
        }),
        ("shard count 0", {
            let mut b = good[..good.len() - 12].to_vec();
            b.truncate(5);
            b.push(0);
            b.push(0);
            let mut f = b;
            seal_framed(&mut f, FRAME_FOOTER);
            f
        }),
        ("shard count past the cap", {
            let mut b = good[..good.len() - 12].to_vec();
            b.truncate(5);
            b.push(1);
            b.extend_from_slice(&[0xFF, 0x7F]); // varint 16383
            let mut f = b;
            seal_framed(&mut f, FRAME_FOOTER);
            f
        }),
        ("unterminated varint", {
            let mut b = good[..good.len() - 12].to_vec();
            b.truncate(5);
            b.extend_from_slice(&[0x80, 0x80, 0x80]); // all continuation bits
            let mut f = b;
            seal_framed(&mut f, FRAME_FOOTER);
            f
        }),
        (
            "trailing bytes",
            reseal(&|b| b.extend_from_slice(&[0xEE; 3])),
        ),
        ("corrupt checksum", {
            let mut f = good.clone();
            let at = f.len() - 1;
            f[at] ^= 0xFF;
            f
        }),
    ];
    for (what, frame) in &hostile {
        let mut raw = format!("HELLO {}\n", frame.len()).into_bytes();
        raw.extend_from_slice(frame);
        let resp = client.request_raw(&raw).unwrap();
        assert!(
            resp.status.starts_with("-ERR "),
            "{what}: accepted hostile frame: {}",
            resp.status
        );
        assert!(!resp.status.contains("panicked"), "{what}: {}", resp.status);
        let ping = client.request("PING").unwrap();
        assert!(ping.is_ok(), "{what} lost framing: {}", ping.status);
    }

    // Random mutation sweep over the sealed frame, resealed each time so
    // every mutation reaches the decoder with a valid checksum.
    let mut rng = StdRng::seed_from_u64(0x4E110);
    for case in 0..64 {
        let mut body = good[..good.len() - 12].to_vec();
        for _ in 0..rng.random_range(1..4usize) {
            let at = rng.random_range(0..body.len());
            body[at] = rng.random::<u64>() as u8;
        }
        let mut frame = body;
        seal_framed(&mut frame, FRAME_FOOTER);
        let mut raw = format!("HELLO {}\n", frame.len()).into_bytes();
        raw.extend_from_slice(&frame);
        let resp = client.request_raw(&raw).unwrap();
        // A mutation may reconstruct a *valid* frame (magic+version intact,
        // small coordinates) — the standalone server accepts any map. What
        // it must never do is panic or lose line framing.
        assert!(
            resp.is_ok() || resp.status.starts_with("-ERR "),
            "case {case}: {}",
            resp.status
        );
        assert!(!resp.status.contains("panicked"), "case {case}");
        let ping = client.request("PING").unwrap();
        assert!(ping.is_ok(), "case {case} lost framing: {}", ping.status);
    }

    drop(client);
    assert_alive(addr);
    drain(addr);
    server.join().unwrap();
}

#[test]
fn sharded_backend_rejects_misrouted_rows_under_fuzz() {
    use mqd_core::wire::{shard_of_label, ShardIdentity};

    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        max_queue: 64,
        shard: Some(ShardIdentity {
            shard_id: 1,
            shard_count: 2,
        }),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut rng = StdRng::seed_from_u64(0x5A4D);
    let mut client = Client::connect(addr).unwrap();
    let mut value = 0i64;
    let mut accepted = 0u64;
    for i in 0..200u64 {
        value += rng.random_range(0..50i64);
        let k = rng.random_range(1..4usize);
        let labels: Vec<u16> = (0..k).map(|_| rng.random_range(0..8u32) as u16).collect();
        let owned = labels.iter().any(|&l| shard_of_label(l, 2) == 1);
        let line = format!(
            "INGEST {} {} {}",
            i + 1,
            value,
            labels
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let resp = client.request(&line).unwrap();
        if owned {
            assert!(resp.is_ok(), "{line}: {}", resp.status);
            accepted += 1;
        } else {
            assert!(
                resp.status.starts_with("-ERR Protocol"),
                "{line}: misrouted row accepted: {}",
                resp.status
            );
            assert!(resp.status.contains("shard"), "{}", resp.status);
        }
    }
    let stats = client.request("STATS").unwrap();
    assert!(
        stats.status.contains(&format!("\"rows\":{accepted}")),
        "rejected rows must not count: {}",
        stats.status
    );
    drop(client);
    drain(addr);
    handle.join().unwrap();
}

#[test]
fn concurrent_ingest_and_query_stay_typed() {
    let (addr, server) = start(4);
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            // Monotone with ties; interleaved with the reader under load.
            for i in 0..300u64 {
                let resp = c
                    .request(&format!("INGEST {i} {} {}", (i / 2) * 5, i % 4))
                    .unwrap();
                assert!(resp.is_ok(), "{}", resp.status);
            }
        });
        let reader = scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut rng = StdRng::seed_from_u64(0x9EAD);
            for _ in 0..150 {
                let alg = ["greedysc", "scan", "scanplus"][rng.random_range(0..3usize)];
                let resp = c.request(&format!("QUERY 0,1,2,3 25 {alg}")).unwrap();
                assert!(
                    resp.is_ok() || resp.status.starts_with("-ERR "),
                    "{}",
                    resp.status
                );
                assert!(!resp.status.contains("panicked"), "{}", resp.status);
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    });
    // Post-contention, a full-range query answers and the store is intact.
    let mut c = Client::connect(addr).unwrap();
    let stats = c.request("STATS").unwrap();
    assert!(stats.status.contains(r#""rows":300"#), "{}", stats.status);
    drop(c);
    drain(addr);
    server.join().unwrap();
}
