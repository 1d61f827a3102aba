//! End-to-end tests of the `mqdiv` binary: spawn the real executable and
//! drive the full gen → match → diversify → stream → pack → unpack surface.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn mqdiv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mqdiv"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mqdiv_cli_tests");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_diversify_stream_pipeline() {
    let posts = tmp("pipeline_posts.tsv");
    let digest = tmp("pipeline_digest.tsv");

    let out = mqdiv()
        .args(["gen", "--labels", "2", "--rate", "20", "--minutes", "5"])
        .args(["--seed", "9", "--out", posts.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = mqdiv()
        .args(["diversify", "--input", posts.to_str().unwrap()])
        .args(["--lambda", "30000", "--algorithm", "greedy"])
        .args(["--out", digest.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("kept"), "summary missing: {stderr}");

    let n_posts = fs::read_to_string(&posts).unwrap().lines().count();
    let n_digest = fs::read_to_string(&digest).unwrap().lines().count();
    assert!(n_digest > 0 && n_digest < n_posts);

    let out = mqdiv()
        .args(["stream", "--input", posts.to_str().unwrap()])
        .args(["--lambda", "30000", "--tau", "5000", "--engine", "scan+"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let emitted = String::from_utf8_lossy(&out.stdout);
    for line in emitted.lines() {
        let delay: i64 = line.split('\t').nth(4).unwrap().parse().unwrap();
        assert!(delay <= 5000, "delay budget violated: {line}");
    }
}

#[test]
fn pack_unpack_round_trip() {
    let posts = tmp("pack_posts.tsv");
    let packed = tmp("pack_posts.mqdl");
    let unpacked = tmp("pack_posts_rt.tsv");

    mqdiv()
        .args(["gen", "--labels", "3", "--rate", "10", "--minutes", "3"])
        .args(["--out", posts.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(mqdiv()
        .args(["pack", "--input", posts.to_str().unwrap()])
        .args(["--out", packed.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(mqdiv()
        .args(["unpack", "--input", packed.to_str().unwrap()])
        .args(["--out", unpacked.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert_eq!(
        fs::read_to_string(&posts).unwrap(),
        fs::read_to_string(&unpacked).unwrap()
    );
    assert!(
        fs::metadata(&packed).unwrap().len() < fs::metadata(&posts).unwrap().len(),
        "binary log should be smaller"
    );
}

#[test]
fn match_command_extracts_labels() {
    let texts = tmp("match_texts.tsv");
    fs::write(
        &texts,
        "0\t100\tobama speaks to the senate\n1\t200\tnothing to see here\n2\t300\tgolf masters update\n",
    )
    .unwrap();
    let out = mqdiv()
        .args(["match", "--input", texts.to_str().unwrap()])
        .args(["--query", "obama,senate", "--query", "golf"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let rows = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = rows.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("0\t100\t0"));
    assert!(lines[1].starts_with("2\t300\t1"));
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = mqdiv().args(["diversify"]).output().unwrap(); // missing --lambda
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--lambda"));

    let out = mqdiv().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = mqdiv()
        .args(["unpack", "--input", "/nonexistent/file.mqdl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_lists_subcommands() {
    let out = mqdiv().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for sub in ["gen", "match", "diversify", "stream", "pack", "unpack"] {
        assert!(text.contains(sub), "help missing {sub}");
    }
}

#[test]
fn ingest_query_store_workflow() {
    let store = tmp("store_dir");
    let _ = fs::remove_dir_all(&store);
    let posts_a = tmp("store_a.tsv");
    let posts_b = tmp("store_b.tsv");
    fs::write(&posts_a, "0\t100\t0\n1\t200\t0,1\n").unwrap();
    fs::write(&posts_b, "2\t5000\t1\n3\t5100\t0\n").unwrap();

    for p in [&posts_a, &posts_b] {
        assert!(mqdiv()
            .args(["ingest", "--store", store.to_str().unwrap()])
            .args(["--input", p.to_str().unwrap()])
            .status()
            .unwrap()
            .success());
    }

    // Range query touches only the second segment.
    let out = mqdiv()
        .args(["query", "--store", store.to_str().unwrap()])
        .args(["--from", "4000", "--to", "6000"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 2);
    assert!(text.contains("2\t5000"));

    // Full scan with on-the-fly diversification compresses the burst.
    let out = mqdiv()
        .args(["query", "--store", store.to_str().unwrap()])
        .args(["--lambda", "10000"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().count() < 4, "diversified scan: {text}");

    // The store holds the contract every other ingest and query path
    // holds: these four are errors, not empty successes.
    let posts_c = tmp("store_c.tsv");
    fs::write(&posts_c, "4\t5200\t0\n5\t50\t0\n").unwrap(); // 50 precedes the stored 5200
    let missing = tmp("store_dir_typo");
    let _ = fs::remove_dir_all(&missing);
    let not_a_store = tmp("store_dir_other");
    let _ = fs::remove_dir_all(&not_a_store);
    fs::create_dir_all(&not_a_store).unwrap();
    let store_arg = store.to_str().unwrap();
    for (what, args, says) in [
        (
            // A failed ingest keeps the rows before the bad one, like a
            // served INGEST, and says how many.
            "out-of-order ingest",
            vec![
                "ingest",
                "--store",
                store_arg,
                "--input",
                posts_c.to_str().unwrap(),
            ],
            "first 1 of this file's 2 rows were kept (store generation 5)",
        ),
        (
            "negative lambda",
            vec!["query", "--store", store_arg, "--lambda", "-5"],
            "lambda must be >= 0",
        ),
        (
            "missing store",
            vec!["query", "--store", missing.to_str().unwrap()],
            "no such store",
        ),
        (
            "a directory that is not a store",
            vec!["query", "--store", not_a_store.to_str().unwrap()],
            "no such store",
        ),
    ] {
        let out = mqdiv().args(&args).output().unwrap();
        assert!(!out.status.success(), "{what} exited 0");
        assert!(out.stdout.is_empty(), "{what} printed rows");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(says), "{what}: {err}");
    }
    assert!(
        !missing.exists() && fs::read_dir(&not_a_store).unwrap().next().is_none(),
        "query must not create the store it was asked to read"
    );
    let _ = fs::remove_dir_all(&not_a_store);
    let _ = fs::remove_dir_all(&store);
}

#[test]
fn serve_logs_the_worker_pool_it_runs() {
    // A thread budget of 1 still runs 4 workers (the pool's floor); the
    // log must say what runs, not what was asked for.
    let mut child = mqdiv()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .env("MQD_THREADS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line.strip_prefix("listening on ").unwrap().trim();
    let mut c = mqd_server::Client::connect(addr).unwrap();
    assert!(c.request("DRAIN").unwrap().is_ok());
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(
        log.contains("serving with 4 worker thread(s), queue bound"),
        "{log}"
    );
}
