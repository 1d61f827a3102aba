//! `mqdiv` — diversify microblog post streams from the command line.
//!
//! ```text
//! mqdiv gen        [--text] [--labels N] [--rate R] [--overlap O] [--minutes M] [--seed S] [--out FILE]
//! mqdiv match      --input FILE --query kw1,kw2 [--query ...] [--dedup] [--sentiment] [--out FILE]
//! mqdiv diversify  --input FILE --lambda MS [--algorithm scan|scan+|greedy|opt] [--proportional] [--out FILE]
//! mqdiv stream     --input FILE --lambda MS --tau MS [--engine scan|scan+|greedy|greedy+|instant] [--out FILE]
//!                  [--shards N] [--chaos-seed S] [--checkpoint FILE] [--checkpoint-every N]
//!                  [--resume FILE] [--fault-report FILE]   (supervised fault-tolerant mode)
//! mqdiv pack       --input FILE.tsv --out FILE.mqdl   (TSV -> binary log)
//! mqdiv unpack     --input FILE.mqdl --out FILE.tsv   (binary log -> TSV)
//! mqdiv ingest     --store DIR --input FILE.tsv         (append to a durable store, fsync'd)
//! mqdiv query      --store DIR [--from MS] [--to MS] [--lambda MS] [--out FILE]
//! mqdiv oracle     [--seeds N] [--first-seed S] [--profile NAME] [--report-dir DIR]
//! mqdiv serve      [--addr HOST:PORT] [--max-queue N] [--data-dir DIR]
//!                  [--no-fsync] [--retain SPAN]         (:0 picks an ephemeral port)
//!                  [--shard-id I --shard-count N]       (serve as shard I of an N-shard cluster)
//!                  [--idle-timeout-ms N]                (typed-timeout stalled connections)
//! mqdiv route      --backends HOST:PORT[,HOST:PORT...] --shards N
//!                  [--addr HOST:PORT] [--max-queue N] [--idle-timeout-ms N]
//! mqdiv client     --addr HOST:PORT [--input SCRIPT] [--check]
//! mqdiv load       --scenario NAME --addr HOST:PORT [--seed S] [--rate R]
//!                  [--duration-ms N] [--lanes N] [--out FILE] [--check]
//! mqdiv lint       [--deny] [--json] [--rules a,b] [--out FILE]   (workspace static analysis)
//! ```
//!
//! Every subcommand also accepts `--threads N`, setting the worker count
//! for the parallel solver paths (default: the `MQD_THREADS` environment
//! variable, then the machine's available parallelism).

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};

use std::path::{Path, PathBuf};
use std::time::Duration;

use mqd_cli::commands::{
    self, DiversifyOpts, GenOpts, MatchOpts, OracleOpts, StreamOpts, SupervisedStreamOpts,
};
use mqd_core::record::{read_tsv_records, write_tsv_records, Record};
use mqd_router::RouterConfig;
use mqd_server::ServerConfig;
use mqd_store::{solve_slice, Algorithm, QuerySpec};
use mqd_wal::{DurableOptions, DurableStore};

struct Flags {
    map: Vec<(String, String)>,
    bools: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = Vec::new();
        let mut bools = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                return Err(format!("unexpected argument '{a}'"));
            }
            let key = a.trim_start_matches("--").to_string();
            if matches!(it.peek(), Some(v) if !v.starts_with("--")) {
                if let Some(v) = it.next() {
                    map.push((key, v.clone()));
                }
            } else {
                bools.push(key);
            }
        }
        Ok(Flags { map, bools })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<String> {
        self.map
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .collect()
    }

    fn has(&self, key: &str) -> bool {
        self.bools.iter().any(|k| k == key)
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    fn require_num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.get(key).ok_or(format!("--{key} is required"))?;
        v.parse().map_err(|e| format!("--{key}: {e}"))
    }
}

fn open_input(flags: &Flags) -> Result<Box<dyn BufRead>, String> {
    match flags.get("input") {
        Some(path) => Ok(Box::new(BufReader::new(
            File::open(path).map_err(|e| format!("--input {path}: {e}"))?,
        ))),
        None => Ok(Box::new(BufReader::new(io::stdin()))),
    }
}

fn open_output(flags: &Flags) -> Result<Box<dyn Write>, String> {
    match flags.get("out") {
        Some(path) => Ok(Box::new(BufWriter::new(
            File::create(path).map_err(|e| format!("--out {path}: {e}"))?,
        ))),
        None => Ok(Box::new(BufWriter::new(io::stdout()))),
    }
}

/// `--idle-timeout-ms N` of `serve` and `route`; absent waits forever.
fn idle_timeout(flags: &Flags) -> Result<Option<Duration>, String> {
    match flags.get("idle-timeout-ms") {
        Some(_) => Ok(Some(Duration::from_millis(
            flags.require_num("idle-timeout-ms")?,
        ))),
        None => Ok(None),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err("usage: mqdiv <gen|match|diversify|stream|pack|unpack|ingest|query|oracle|serve|route|client|load|lint> [flags]; see --help".into());
    };
    if cmd == "--help" || cmd == "help" {
        println!(
            "mqdiv — Multi-Query Diversification (EDBT 2014 reproduction)\n\
             \n\
             subcommands:\n\
             \x20 gen        generate a synthetic stream (TSV)\n\
             \x20 match      match raw text posts to queries -> labeled TSV\n\
             \x20 diversify  offline MQDP on a labeled TSV\n\
             \x20 stream     streaming MQDP on a labeled TSV\n\
             \x20 pack       convert labeled TSV to the compact binary log\n\
             \x20 unpack     convert a binary log back to TSV\n\
             \x20 ingest     append a labeled TSV to a durable store directory\n\
             \x20 query      range-scan a durable store (optionally diversified)\n\
             \x20 oracle     differential/metamorphic correctness sweep over all solvers\n\
             \x20 serve      run the TCP query server (--data-dir makes it durable,\n\
             \x20            --shard-id/--shard-count pin it as one cluster shard)\n\
             \x20 route      front a sharded cluster: one endpoint over N shard backends\n\
             \x20 client     forward a request script to a running server or router\n\
             \x20 load       open-loop scenario driver: run a scenario against a live\n\
             \x20            endpoint and write a BENCH_load_<scenario>.json artifact\n\
             \x20 lint       static-analysis pass over the workspace's own sources\n\
             \n\
             see the crate docs / README for the full flag reference"
        );
        return Ok(());
    }
    let flags = Flags::parse(args.get(1..).unwrap_or(&[]))?;
    if flags.get("threads").is_some() {
        let n: usize = flags.require_num("threads")?;
        if n == 0 {
            return Err("--threads must be at least 1".into());
        }
        mqd_par::set_threads(Some(n));
    }
    let mut log = io::stderr();

    match cmd.as_str() {
        "gen" => {
            let opts = GenOpts {
                text: flags.has("text"),
                labels: flags.parse_num("labels", 2usize)?,
                rate: flags.parse_num("rate", 60.0f64)?,
                overlap: flags.parse_num("overlap", 1.15f64)?,
                minutes: flags.parse_num("minutes", 10i64)?,
                seed: flags.parse_num("seed", 42u64)?,
            };
            commands::generate(open_output(&flags)?, &mut log, &opts)
        }
        "match" => {
            let opts = MatchOpts {
                queries: flags.get_all("query"),
                dedup: flags.has("dedup"),
                sentiment: flags.has("sentiment"),
            };
            commands::match_posts(open_input(&flags)?, open_output(&flags)?, &mut log, &opts)
        }
        "diversify" => {
            let opts = DiversifyOpts {
                lambda: flags.require_num("lambda")?,
                algorithm: flags.get("algorithm").unwrap_or("greedy").to_string(),
                proportional: flags.has("proportional"),
            };
            commands::diversify(open_input(&flags)?, open_output(&flags)?, &mut log, &opts)
        }
        "stream" => {
            // Any supervision flag switches to the fault-tolerant sharded
            // runner (shard restarts, chaos injection, checkpoint/resume).
            let supervised = [
                "shards",
                "chaos-seed",
                "checkpoint",
                "resume",
                "fault-report",
            ]
            .iter()
            .any(|k| flags.get(k).is_some());
            if supervised {
                let opts = SupervisedStreamOpts {
                    lambda: flags.require_num("lambda")?,
                    tau: flags.parse_num("tau", 0i64)?,
                    engine: flags.get("engine").unwrap_or("scan+").to_string(),
                    shards: flags.parse_num("shards", 4usize)?,
                    chaos_seed: match flags.get("chaos-seed") {
                        Some(_) => Some(flags.require_num("chaos-seed")?),
                        None => None,
                    },
                    checkpoint: flags.get("checkpoint").map(PathBuf::from),
                    checkpoint_every: flags.parse_num("checkpoint-every", 512u64)?,
                    resume: flags.get("resume").map(PathBuf::from),
                    fault_report: flags.get("fault-report").map(PathBuf::from),
                };
                commands::stream_supervised(
                    open_input(&flags)?,
                    open_output(&flags)?,
                    &mut log,
                    &opts,
                )
            } else {
                let opts = StreamOpts {
                    lambda: flags.require_num("lambda")?,
                    tau: flags.parse_num("tau", 0i64)?,
                    engine: flags.get("engine").unwrap_or("scan+").to_string(),
                };
                commands::stream(open_input(&flags)?, open_output(&flags)?, &mut log, &opts)
            }
        }
        "pack" => {
            let rows = read_tsv_records(open_input(&flags)?).map_err(|e| e.to_string())?;
            mqd_core::record::write_records(open_output(&flags)?, &rows)
                .map_err(|e| e.to_string())?;
            eprintln!("packed {} posts", rows.len());
            Ok(())
        }
        "unpack" => {
            let rows =
                mqd_core::record::read_records(open_input(&flags)?).map_err(|e| e.to_string())?;
            write_tsv_records(open_output(&flags)?, &rows).map_err(|e| e.to_string())?;
            eprintln!("unpacked {} posts", rows.len());
            Ok(())
        }
        "ingest" => {
            let dir = flags.get("store").ok_or("--store is required")?;
            let rows = read_tsv_records(open_input(&flags)?).map_err(|e| e.to_string())?;
            let mut store = DurableStore::open(Path::new(dir), &DurableOptions::default())
                .map_err(|e| e.to_string())?;
            let mut kept = 0usize;
            let appended = rows
                .iter()
                .try_for_each(|row| store.append(row).map(|()| kept += 1));
            // The ack barrier, as for a served INGEST: whatever prefix was
            // appended is durable before the command reports on it.
            store.sync().map_err(|e| e.to_string())?;
            appended.map_err(|e| {
                format!(
                    "{e}; the first {kept} of this file's {} rows were kept (store generation {})",
                    rows.len(),
                    store.generation()
                )
            })?;
            eprintln!(
                "ingested {} posts (store generation {})",
                rows.len(),
                store.generation()
            );
            Ok(())
        }
        "query" => {
            let dir = Path::new(flags.get("store").ok_or("--store is required")?);
            let from: i64 = flags.parse_num("from", i64::MIN)?;
            let to: i64 = flags.parse_num("to", i64::MAX)?;
            // `open` creates what is missing; a read must not, so only a
            // dir that already holds a store's WAL is opened.
            if !dir.join("wal").is_file() {
                return Err(format!("--store {}: no such store", dir.display()));
            }
            let durable =
                DurableStore::open(dir, &DurableOptions::default()).map_err(|e| e.to_string())?;
            let store = durable.store();
            let labels = store.labels();
            let slice = store.slice(&labels, from, to);
            let rows: Vec<Record> = match flags.get("lambda") {
                None => (0..slice.instance.len() as u32)
                    .map(|i| slice.record_for(i))
                    .collect(),
                // Optional on-the-fly diversification of the range.
                Some(_) => {
                    let spec = QuerySpec {
                        labels,
                        lambda: flags.require_num("lambda")?,
                        proportional: false,
                        algorithm: Algorithm::GreedySc,
                        from,
                        to,
                    };
                    solve_slice(&slice, &spec).map_err(|e| e.to_string())?
                }
            };
            let n = rows.len();
            write_tsv_records(open_output(&flags)?, &rows).map_err(|e| e.to_string())?;
            eprintln!("{n} posts");
            Ok(())
        }
        "oracle" => {
            let opts = OracleOpts {
                seeds: flags.parse_num("seeds", 50u64)?,
                first_seed: flags.parse_num("first-seed", 0u64)?,
                profile: flags.get("profile").map(String::from),
                report_dir: PathBuf::from(flags.get("report-dir").unwrap_or("reports/oracle")),
            };
            commands::oracle(&mut log, &opts)
        }
        "serve" => {
            let retain = match flags.get("retain") {
                Some(_) => Some(flags.require_num::<i64>("retain")?),
                None => None,
            };
            let shard = match (flags.get("shard-id"), flags.get("shard-count")) {
                (None, None) => None,
                (Some(_), Some(_)) => Some(mqd_core::wire::ShardIdentity {
                    shard_id: flags.require_num("shard-id")?,
                    shard_count: flags.require_num("shard-count")?,
                }),
                _ => return Err("--shard-id and --shard-count go together".into()),
            };
            let cfg = ServerConfig {
                addr: flags.get("addr").unwrap_or("127.0.0.1:7744").to_string(),
                threads: 0, // resolved from --threads / MQD_THREADS via mqd-par
                max_queue: flags.parse_num("max-queue", 64usize)?,
                data_dir: flags.get("data-dir").map(PathBuf::from),
                fsync: !flags.has("no-fsync"),
                retain,
                shard,
                idle_timeout: idle_timeout(&flags)?,
            };
            mqd_cli::serve::serve(io::stdout(), &mut log, &cfg)
        }
        "route" => {
            let mut backends = Vec::new();
            for chunk in flags.get_all("backends") {
                backends.extend(
                    chunk
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
            }
            if backends.is_empty() {
                return Err("--backends is required (comma-separated or repeated)".into());
            }
            let cfg = RouterConfig {
                addr: flags.get("addr").unwrap_or("127.0.0.1:7745").to_string(),
                backends,
                shards: flags.require_num("shards")?,
                threads: 0,
                max_queue: flags.parse_num("max-queue", 64usize)?,
                idle_timeout: idle_timeout(&flags)?,
            };
            mqd_cli::serve::route(io::stdout(), &mut log, &cfg)
        }
        "load" => {
            let defaults = mqd_cli::load::LoadOpts::default();
            let opts = mqd_cli::load::LoadOpts {
                scenario: flags
                    .get("scenario")
                    .ok_or("--scenario is required")?
                    .to_string(),
                addr: flags.get("addr").map(String::from),
                seed: flags.parse_num("seed", defaults.seed)?,
                rate: flags.parse_num("rate", defaults.rate)?,
                duration_ms: flags.parse_num("duration-ms", defaults.duration_ms)?,
                lanes: flags.parse_num("lanes", defaults.lanes)?,
                out: flags.get("out").map(PathBuf::from),
                check: flags.has("check"),
            };
            mqd_cli::load::load(&mut log, &opts).map(|_| ())
        }
        "client" => {
            let opts = mqd_cli::serve::ClientOpts {
                addr: flags.get("addr").ok_or("--addr is required")?.to_string(),
                check: flags.has("check"),
            };
            mqd_cli::serve::client_script(
                open_input(&flags)?,
                open_output(&flags)?,
                &mut log,
                &opts,
            )
        }
        "lint" => {
            let opts = mqd_cli::lint::LintOpts {
                deny: flags.has("deny"),
                json: flags.has("json"),
                rules: flags
                    .get("rules")
                    .map(|r| r.split(',').map(str::to_string).collect()),
                root: None,
            };
            mqd_cli::lint::run(open_output(&flags)?, &mut log, &opts)
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
