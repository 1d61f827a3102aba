//! Covers whose range can no longer grow, through a live server. The store
//! only appends values at or above its newest, so a fixed-λ Scan spec
//! whose `TO` lies below the newest row is cached with no repair state:
//! later ingests never enter its footprint, and it must stay fresh and
//! byte-identical to a cold solve. A spec whose `TO` is the newest value
//! can still gain a tie, so it keeps its fold, and a tie carrying one of
//! its labels is repaired in place.

use std::thread::JoinHandle;

use mqd_core::record::{format_tsv, Record};
use mqd_server::{json_u64, Client, Server, ServerConfig};
use mqd_store::{run_query, Algorithm, QuerySpec, Store};

fn start() -> (Client, JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        threads: 2,
        max_queue: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    (client, std::thread::spawn(move || server.run().unwrap()))
}

/// `n` rows from id `first`, values rising from `value` with ties, one to
/// three of labels 0..4 each.
fn rows(first: u64, value: i64, n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let id = first + i;
            Record {
                id,
                value: value + (i as i64 / 2) * 9,
                labels: (0..=(id % 3) as u16).map(|k| (id as u16 + k) % 4).collect(),
            }
        })
        .collect()
}

fn scan(to: i64) -> QuerySpec {
    QuerySpec {
        labels: vec![0, 1, 2],
        lambda: 25,
        proportional: false,
        algorithm: Algorithm::Scan,
        from: i64::MIN,
        to,
    }
}

/// The cover a cold solve over `rows` renders, line for line.
fn cold(rows: &[Record], spec: &QuerySpec) -> Vec<String> {
    let mut store = Store::new();
    for r in rows {
        store.append(r.clone()).unwrap();
    }
    run_query(&store, spec)
        .unwrap()
        .iter()
        .map(format_tsv)
        .collect()
}

fn ingest(c: &mut Client, all: &mut Vec<Record>, batch: Vec<Record>) -> u64 {
    let r = c.ingest_batch(&batch).unwrap();
    assert!(r.is_ok(), "{}", r.status);
    all.extend(batch);
    json_u64(&r.status, "generation").unwrap()
}

fn repairs(c: &mut Client) -> u64 {
    json_u64(&c.request("STATS").unwrap().status, "repairs").unwrap()
}

#[test]
fn a_range_closed_below_the_newest_row_stays_fresh_and_exact() {
    let (mut c, server) = start();
    let mut all = Vec::new();
    ingest(&mut c, &mut all, rows(1, 0, 200));
    let newest = all.last().unwrap().value;
    let spec = scan(newest / 2);
    assert!(spec.to < newest);
    let line = mqd_server::format_query(&spec);

    let first = c.request(&line).unwrap();
    assert!(
        first.status.contains(r#""cached":false"#),
        "{}",
        first.status
    );
    assert_eq!(first.lines, cold(&all, &spec));
    for batch in 0..3 {
        let value = all.last().unwrap().value;
        let generation = ingest(&mut c, &mut all, rows(1_000 * (batch + 1), value, 40));
        let r = c.request(&line).unwrap();
        assert!(r.status.contains(r#""cached":true"#), "{}", r.status);
        assert!(r.status.contains(r#""stale":false"#), "{}", r.status);
        assert_eq!(json_u64(&r.status, "generation"), Some(generation));
        assert_eq!(r.lines, cold(&all, &spec), "after batch {batch}");
        assert_eq!(r.lines, first.lines, "no later row joins the slice");
    }
    assert_eq!(repairs(&mut c), 0);
    assert!(c.request("DRAIN").unwrap().is_ok());
    server.join().unwrap();
}

#[test]
fn a_range_ending_at_the_newest_value_repairs_a_tie() {
    let (mut c, server) = start();
    let mut all = Vec::new();
    ingest(&mut c, &mut all, rows(1, 0, 200));
    let newest = all.last().unwrap().value;
    let spec = scan(newest);
    let line = mqd_server::format_query(&spec);

    let first = c.request(&line).unwrap();
    assert!(
        first.status.contains(r#""cached":false"#),
        "{}",
        first.status
    );
    assert_eq!(first.lines, cold(&all, &spec));
    let before = repairs(&mut c);
    let tie = Record {
        id: 9_999,
        value: newest,
        labels: vec![1],
    };
    let generation = ingest(&mut c, &mut all, vec![tie]);
    let r = c.request(&line).unwrap();
    assert!(r.status.contains(r#""cached":true"#), "{}", r.status);
    assert!(r.status.contains(r#""stale":false"#), "{}", r.status);
    assert_eq!(json_u64(&r.status, "generation"), Some(generation));
    assert_eq!(r.lines, cold(&all, &spec));
    assert_eq!(repairs(&mut c), before + 1, "the tie was folded in");
    assert!(c.request("DRAIN").unwrap().is_ok());
    server.join().unwrap();
}
