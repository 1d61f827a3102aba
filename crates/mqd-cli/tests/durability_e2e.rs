//! Kill-and-restore acceptance: SIGKILL the real `mqdiv serve --data-dir`
//! process at seed-determined points mid-ingest, restart from the same
//! data dir, and require byte-identical responses — for every QUERY
//! algorithm (plus PROP) and the STATS core — against a reference server
//! that ingested the same recovered prefix uninterrupted. A second pass
//! kills the server mid-SUBSCRIBE and proves the resumed named session
//! reassembles the exact emission stream with zero duplicates.
//!
//! The base seed matrix extends via `MQD_CHAOS_SEED` (the CI durability
//! job's lever). `--no-fsync` is sound here: acked frames are written
//! with plain `write_all` syscalls, so they survive process death — only
//! power loss needs the fsync, and SIGKILL is not a power cut.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use mqd_server::protocol::TERMINATOR;

/// Deterministic per-seed parameters without an RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![1, 7];
    if let Ok(s) = std::env::var("MQD_CHAOS_SEED") {
        if let Ok(extra) = s.parse() {
            if !seeds.contains(&extra) {
                seeds.push(extra);
            }
        }
    }
    seeds
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mqdiv-durable-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Spawns `mqdiv serve --data-dir <dir> --no-fsync` and returns the child
/// plus the announced ephemeral address.
fn spawn_serve(dir: &Path) -> (Child, String) {
    spawn_serve_with(dir, &[])
}

fn spawn_serve_with(dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mqdiv"))
        .args(["serve", "--addr", "127.0.0.1:0", "--no-fsync"])
        .args(["--data-dir", dir.to_str().expect("utf8 path")])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mqdiv serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read announce line");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
        .trim()
        .to_string();
    (child, addr)
}

/// Minimal framed-protocol client over a raw socket (raw so the
/// subscription test can stop mid-stream and kill the server).
struct Conn {
    r: BufReader<TcpStream>,
    w: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let s = TcpStream::connect(addr).expect("connect");
        Conn {
            r: BufReader::new(s.try_clone().expect("clone stream")),
            w: s,
        }
    }

    fn send(&mut self, line: &str) {
        self.w
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
    }

    fn read_line(&mut self) -> String {
        let mut l = String::new();
        assert!(
            self.r.read_line(&mut l).expect("read line") > 0,
            "peer closed"
        );
        l.trim_end_matches('\n').to_string()
    }

    /// Full framed response: status line plus payload lines, terminator
    /// stripped.
    fn request(&mut self, line: &str) -> Vec<String> {
        self.send(line);
        let mut lines = Vec::new();
        loop {
            let l = self.read_line();
            if l == TERMINATOR {
                return lines;
            }
            lines.push(l);
        }
    }
}

/// Seeded monotone ingest rows as INGEST request lines.
fn ingest_lines(seed: u64, n: usize) -> Vec<String> {
    let mut s = seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
    let mut value = 0i64;
    (0..n)
        .map(|i| {
            value += 1 + (splitmix64(&mut s) % 50) as i64;
            let k = 1 + (splitmix64(&mut s) % 3) as usize;
            let labels: Vec<String> = (0..k)
                .map(|_| (splitmix64(&mut s) % 5).to_string())
                .collect();
            format!("INGEST {} {} {}", i + 1, value, labels.join(","))
        })
        .collect()
}

fn stats_core(stats_line: &str) -> &str {
    let cut = stats_line
        .find(r#","cache""#)
        .unwrap_or_else(|| panic!("unexpected STATS shape: {stats_line}"));
    &stats_line[..cut]
}

fn field_of(stats_line: &str, key: &str) -> usize {
    let tail = stats_line
        .split(&format!(r#""{key}":"#))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} field: {stats_line}"));
    tail.split(',')
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad {key} field: {stats_line}"))
}

fn drain(addr: &str, child: &mut Child) {
    let mut c = Conn::connect(addr);
    let resp = c.request("DRAIN");
    assert!(resp[0].starts_with("+OK"), "{resp:?}");
    child.wait().expect("reap drained server");
}

#[test]
fn kill_and_restore_answers_byte_identically() {
    let queries = [
        "QUERY 0,1,2,3,4 300 opt",
        "QUERY 0,1,2,3,4 300 greedysc",
        "QUERY 0,1,2,3,4 300 scan",
        "QUERY 0,1,2,3,4 300 scanplus",
        "QUERY 0,1,2,3,4 300 greedysc PROP",
    ];
    for seed in chaos_seeds() {
        let mut s = seed;
        let acked_n = 80 + (splitmix64(&mut s) % 80) as usize;
        let burst_n = 40 + (splitmix64(&mut s) % 60) as usize;
        let rows = ingest_lines(seed, acked_n + burst_n);

        let dir = tmpdir(&format!("kill-{seed}"));
        let (mut victim, addr) = spawn_serve(&dir);
        let mut c = Conn::connect(&addr);
        for line in &rows[..acked_n] {
            let resp = c.request(line);
            assert!(resp[0].starts_with("+OK"), "seed {seed}: {resp:?}");
        }
        // Pipeline the unacked burst and kill mid-flight: the server may
        // have applied any prefix of it, none of it acknowledged.
        let mut burst = String::new();
        for line in &rows[acked_n..] {
            burst.push_str(line);
            burst.push('\n');
        }
        c.w.write_all(burst.as_bytes()).expect("pipeline burst");
        std::thread::sleep(std::time::Duration::from_millis(splitmix64(&mut s) % 40));
        victim.kill().expect("SIGKILL victim");
        victim.wait().expect("reap victim");

        // Restart from the data dir: recovered rows = every acked row plus
        // some unacked prefix, never more, never reordered.
        let (mut restored, addr_b) = spawn_serve(&dir);
        let mut b = Conn::connect(&addr_b);
        let stats_b = b.request("STATS");
        let recovered = field_of(&stats_b[0], "rows");
        assert!(
            (acked_n..=acked_n + burst_n).contains(&recovered),
            "seed {seed}: recovered {recovered} outside [{acked_n}, {}]",
            acked_n + burst_n
        );

        // Reference: a never-killed server fed exactly the recovered prefix.
        let ref_dir = tmpdir(&format!("ref-{seed}"));
        let (mut reference, addr_c) = spawn_serve(&ref_dir);
        let mut r = Conn::connect(&addr_c);
        for line in &rows[..recovered] {
            let resp = r.request(line);
            assert!(resp[0].starts_with("+OK"), "seed {seed}: {resp:?}");
        }
        let stats_r = r.request("STATS");
        assert_eq!(
            stats_core(&stats_b[0]),
            stats_core(&stats_r[0]),
            "seed {seed}: STATS core must match the uninterrupted run"
        );
        let mut answers = Vec::new();
        for q in queries {
            let answer = b.request(q);
            assert_eq!(
                answer,
                r.request(q),
                "seed {seed}: {q} diverged after restore"
            );
            answers.push(answer);
        }

        drain(&addr_b, &mut restored);
        drain(&addr_c, &mut reference);

        // Graceful restart: DRAIN does not touch the store, so the
        // unfinished window is still in the WAL and a third server on the
        // same dir replays all of it and answers the same.
        let (mut again, addr_d) = spawn_serve(&dir);
        let mut d = Conn::connect(&addr_d);
        let stats_d = d.request("STATS");
        assert_eq!(
            stats_core(&stats_d[0]),
            stats_core(&stats_b[0]),
            "seed {seed}: STATS core must survive DRAIN and restart"
        );
        assert_eq!(
            field_of(&stats_d[0], "recovered_rows"),
            recovered,
            "seed {seed}: a drained store recovers every row"
        );
        for (q, answer) in queries.iter().zip(&answers) {
            assert_eq!(
                &d.request(q),
                answer,
                "seed {seed}: {q} diverged after DRAIN and restart"
            );
        }
        drain(&addr_d, &mut again);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    // The same graceful restart under `--retain`: one full window, then one
    // row after a quiet gap longer than the retention span. GC finds the
    // only sealed block below the horizon and must keep it all the same,
    // because its `first_seq` is how the next open places the WAL tail.
    const WINDOW: usize = mqd_store::SEGMENT_TARGET_ROWS;
    let dir = tmpdir("retain");
    let (mut first, addr) = spawn_serve_with(&dir, &["--retain", "100"]);
    let mut c = Conn::connect(&addr);
    for i in 1..=WINDOW {
        let resp = c.request(&format!("INGEST {i} {i} {}", i % 5));
        assert!(resp[0].starts_with("+OK"), "{resp:?}");
    }
    let resp = c.request(&format!("INGEST {} 1000000 0", WINDOW + 1));
    assert!(resp[0].starts_with("+OK"), "{resp:?}");
    let stats_a = c.request("STATS");
    assert_eq!(field_of(&stats_a[0], "rows"), WINDOW + 1);
    drain(&addr, &mut first);
    let (mut second, addr) = spawn_serve_with(&dir, &["--retain", "100"]);
    let stats_b = Conn::connect(&addr).request("STATS");
    assert_eq!(
        stats_core(&stats_b[0]),
        stats_core(&stats_a[0]),
        "STATS core must survive GC, DRAIN and restart"
    );
    assert_eq!(field_of(&stats_b[0], "recovered_rows"), WINDOW + 1);
    drain(&addr, &mut second);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_subscriber_resumes_byte_identically() {
    const ROWS: usize = 600;
    const SUB: &str = "SUBSCRIBE 0,1,2,3,4 10 120 scan";
    const CUT: usize = 300;
    let rows = ingest_lines(42, ROWS);

    // Reference stream: one uninterrupted anonymous run.
    let ref_dir = tmpdir("sub-ref");
    let (mut reference, addr_r) = spawn_serve(&ref_dir);
    let mut r = Conn::connect(&addr_r);
    for line in &rows {
        assert!(r.request(line)[0].starts_with("+OK"));
    }
    let full = r.request(SUB);
    assert!(full[0].starts_with("+OK"), "{full:?}");
    let full_emits: Vec<&String> = full.iter().filter(|l| l.starts_with("EMIT ")).collect();
    let done = full.last().expect("DONE line");
    assert!(done.starts_with("DONE "), "{done}");
    assert!(
        full_emits.len() > CUT + 20,
        "profile must emit well past the cut: {}",
        full_emits.len()
    );

    // Victim: same ingest, named subscription, killed after CUT emissions.
    let dir = tmpdir("sub-kill");
    let (mut victim, addr_a) = spawn_serve(&dir);
    let mut a = Conn::connect(&addr_a);
    for line in &rows {
        assert!(a.request(line)[0].starts_with("+OK"));
    }
    let mut sub = Conn::connect(&addr_a);
    sub.send(&format!("{SUB} NAME feed-1"));
    let status = sub.read_line();
    assert!(status.starts_with("+OK"), "{status}");
    let mut first: Vec<String> = Vec::new();
    while first.len() < CUT {
        let l = sub.read_line();
        assert!(
            !l.starts_with("DONE "),
            "stream finished before the cut — raise ROWS or lower CUT"
        );
        if l.starts_with("EMIT ") {
            first.push(l);
        }
    }
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");
    drop(sub);

    // Restart and resume: the reassembled stream must be byte-identical
    // to the uninterrupted run — every emission exactly once.
    let (mut restored, addr_b) = spawn_serve(&dir);
    let mut b = Conn::connect(&addr_b);
    let resumed = b.request(&format!("{SUB} NAME feed-1 AFTER {CUT}"));
    assert!(resumed[0].starts_with("+OK"), "{resumed:?}");
    let rest: Vec<&String> = resumed.iter().filter(|l| l.starts_with("EMIT ")).collect();
    let reassembled: Vec<&String> = first.iter().chain(rest.iter().copied()).collect();
    assert_eq!(
        reassembled, full_emits,
        "resumed stream must reassemble the uninterrupted emission sequence"
    );
    assert_eq!(
        resumed.last(),
        Some(done),
        "DONE totals must be skip-independent"
    );
    // Completion released the session: its checkpoint file is gone.
    assert!(!dir.join("subs").join("feed-1").exists());

    drain(&addr_r, &mut reference);
    drain(&addr_b, &mut restored);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
