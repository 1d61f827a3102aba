//! Fixture-based self-tests: every rule must fire on its known-bad
//! fixture and stay silent on the known-good one.
//!
//! Fixtures live in `crates/mqd-lint/fixtures/` as real `.rs` files (so
//! they stay readable and greppable) but are linted under *virtual*
//! workspace-relative paths — both because the walker excludes the
//! fixtures directory from real scans, and because path-scoped rules
//! need the file to appear inside their critical module.

use std::path::Path;

use mqd_lint::{lint_source, Finding, LintConfig};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture under a virtual path with ALL rules enabled — bad
/// fixtures must trip exactly their own rule, proving the rules do not
/// bleed into each other.
fn lint_fixture(name: &str, virtual_path: &str) -> Vec<Finding> {
    lint_source(virtual_path, &fixture(name), &LintConfig::all())
}

/// Lints two fixtures together under virtual paths — the cross-file rules
/// only mean anything over a multi-file workspace.
fn lint_fixture_pair(a: (&str, &str), b: (&str, &str)) -> Vec<Finding> {
    let (src_a, src_b) = (fixture(a.0), fixture(b.0));
    mqd_lint::lint_files(
        &[(a.1, src_a.as_str()), (b.1, src_b.as_str())],
        &LintConfig::all(),
    )
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn nondet_bad_fires() {
    let out = lint_fixture("nondet_bad.rs", "crates/mqd-store/src/store.rs");
    assert_eq!(lines_of(&out, "nondet-iter"), [8, 15, 20], "{out:?}");
    assert_eq!(out.len(), 3, "no other rule may fire: {out:?}");
}

#[test]
fn nondet_good_is_clean() {
    let out = lint_fixture("nondet_good.rs", "crates/mqd-store/src/store.rs");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn opt_regression_fixture_always_fires() {
    // The PR 4 OPT tie-break bug, reduced: iterating the DP layer's
    // pattern->slot HashMap to pick a parent. If this fixture ever lints
    // clean, nondet-iter has regressed below the bug that motivated it.
    let out = lint_fixture("opt_regression.rs", "crates/mqd-core/src/algorithms/opt.rs");
    let nondet = lines_of(&out, "nondet-iter");
    assert_eq!(nondet.len(), 1, "{out:?}");
    let f = out.iter().find(|f| f.rule == "nondet-iter").unwrap();
    assert!(
        f.snippet.contains("self.index.iter()"),
        "must anchor on the map iteration: {f:?}"
    );
}

#[test]
fn panic_bad_fires() {
    let out = lint_fixture("panic_bad.rs", "crates/mqd-server/src/server.rs");
    assert_eq!(
        lines_of(&out, "panic-path"),
        [5, 6, 7, 8, 10, 19],
        "{out:?}"
    );
    assert_eq!(out.len(), 6, "no other rule may fire: {out:?}");
}

#[test]
fn panic_good_is_clean() {
    let out = lint_fixture("panic_good.rs", "crates/mqd-server/src/server.rs");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn overflow_bad_fires() {
    let out = lint_fixture("overflow_bad.rs", "crates/mqd-stream/src/engine.rs");
    assert_eq!(lines_of(&out, "overflow-arith"), [11, 16, 20], "{out:?}");
    assert_eq!(out.len(), 3, "no other rule may fire: {out:?}");
}

#[test]
fn overflow_good_is_clean() {
    let out = lint_fixture("overflow_good.rs", "crates/mqd-stream/src/engine.rs");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn durability_bad_fires() {
    let out = lint_fixture("durability_bad.rs", "crates/mqd-wal/src/segment.rs");
    assert_eq!(
        lines_of(&out, "durability-path"),
        [7, 8, 13, 14, 19, 21],
        "{out:?}"
    );
    assert_eq!(out.len(), 6, "no other rule may fire: {out:?}");
}

#[test]
fn durability_good_is_clean() {
    let out = lint_fixture("durability_good.rs", "crates/mqd-wal/src/segment.rs");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn durability_rule_is_scoped_to_mqd_wal() {
    // The same raw mutations are fine elsewhere — e.g. the CLI writing a
    // report file — and inside fsio.rs itself, which implements the pairing.
    for path in ["crates/mqd-cli/src/report.rs", "crates/mqd-wal/src/fsio.rs"] {
        let out = lint_fixture("durability_bad.rs", path);
        assert!(
            lines_of(&out, "durability-path").is_empty(),
            "{path}: {out:?}"
        );
    }
}

#[test]
fn lock_order_bad_pair_fires_across_files() {
    let out = lint_fixture_pair(
        ("lock_order_bad_a.rs", "crates/mqd-server/src/publish.rs"),
        ("lock_order_bad_b.rs", "crates/mqd-server/src/reconcile.rs"),
    );
    assert_eq!(out.len(), 1, "one deduped cycle, nothing else: {out:?}");
    let f = &out[0];
    assert_eq!(f.rule, "lock-order");
    assert_eq!(f.file, "crates/mqd-server/src/publish.rs");
    assert_eq!(f.line, 8, "anchored on the first participating edge");
    assert!(f.message.contains("the ABBA class"), "{}", f.message);
    assert!(
        f.message.contains("via `record_entry`"),
        "must name the callee the acquisition hides behind: {}",
        f.message
    );
    assert!(
        f.message.contains("crates/mqd-server/src/reconcile.rs:13"),
        "must print the reverse path's site in the other file: {}",
        f.message
    );
}

#[test]
fn lock_order_halves_are_clean_alone() {
    // The whole point of the workspace pass: neither file is wrong by
    // itself, so a per-file scan of either half must stay silent.
    for (name, path) in [
        ("lock_order_bad_a.rs", "crates/mqd-server/src/publish.rs"),
        ("lock_order_bad_b.rs", "crates/mqd-server/src/reconcile.rs"),
    ] {
        let out = lint_fixture(name, path);
        assert!(out.is_empty(), "{name} alone must be clean: {out:?}");
    }
}

#[test]
fn lock_order_good_is_clean() {
    let out = lint_fixture("lock_order_good.rs", "crates/mqd-server/src/publish.rs");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn guard_blocking_bad_fires() {
    let out = lint_fixture("guard_blocking_bad.rs", "crates/mqd-server/src/server.rs");
    assert_eq!(lines_of(&out, "guard-held-blocking"), [8, 14], "{out:?}");
    assert_eq!(out.len(), 2, "no other rule may fire: {out:?}");
    assert!(
        out[0]
            .message
            .contains("`sync_all (fsync)` while the guard on `segment` (acquired line 6)"),
        "direct finding names the op, the lock and the acquisition: {}",
        out[0].message
    );
    assert!(
        out[1].message.contains("call to `persist_segment`")
            && out[1].message.contains("one frame down"),
        "propagated finding names the callee that blocks: {}",
        out[1].message
    );
}

#[test]
fn guard_blocking_good_is_clean() {
    let out = lint_fixture("guard_blocking_good.rs", "crates/mqd-server/src/server.rs");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn unchecked_len_bad_fires() {
    let out = lint_fixture("unchecked_len_bad.rs", "crates/mqd-server/src/conn.rs");
    assert_eq!(lines_of(&out, "unchecked-len"), [6, 16, 25], "{out:?}");
    assert_eq!(out.len(), 3, "no other rule may fire: {out:?}");
    assert!(
        out[0]
            .message
            .contains("wire-decoded length `count` (decoded at line 5)"),
        "must trace the taint back to the decode: {}",
        out[0].message
    );
    for (f, sink) in out
        .iter()
        .zip(["Vec::with_capacity", ".reserve", "vec![_; n]"])
    {
        assert!(f.message.contains(sink), "wrong sink label: {}", f.message);
    }
}

#[test]
fn unchecked_len_good_is_clean() {
    let out = lint_fixture("unchecked_len_good.rs", "crates/mqd-server/src/conn.rs");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn unchecked_len_exempts_wire_rs() {
    // wire.rs implements plausible_len itself — the same raw allocations
    // there are the sanctioned primitives, not missed clamps.
    let out = lint_fixture("unchecked_len_bad.rs", "crates/mqd-core/src/wire.rs");
    assert!(
        lines_of(&out, "unchecked-len").is_empty(),
        "wire.rs is the rule's one exemption: {out:?}"
    );
}

#[test]
fn suppression_semantics() {
    let out = lint_fixture("suppression.rs", "crates/mqd-server/src/server.rs");
    // Reasoned suppressions (trailing or line-above) silence their site;
    // a reasonless one still suppresses but is itself a finding; an
    // unknown rule id is a finding AND fails to suppress.
    assert_eq!(lines_of(&out, "bad-suppression"), [15, 20], "{out:?}");
    assert_eq!(lines_of(&out, "panic-path"), [21], "{out:?}");
    assert_eq!(out.len(), 3, "{out:?}");
}

#[test]
fn repair_hot_loop_is_clean() {
    // Not a fixture: the *real* incremental-repair module, linted under
    // its own workspace path with every rule armed. `CoverRepair::observe`
    // runs on the ingest path for every cached Scan entry, so a panic in
    // here is an outage, not a bug — the full
    // workspace gate would catch it too, but this test names the contract
    // so a regression fails with "the repair hot loop" in the test name
    // rather than inside a 40-file sweep.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("mqd-stream")
        .join("src")
        .join("repair.rs");
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let out = lint_source("crates/mqd-stream/src/repair.rs", &src, &LintConfig::all());
    assert!(
        lines_of(&out, "panic-path").is_empty(),
        "repair hot loop must be panic-free: {out:?}"
    );
    assert!(out.is_empty(), "repair module must lint clean: {out:?}");
}

#[test]
fn fixtures_are_excluded_from_real_scans() {
    let root =
        mqd_lint::walk::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let files = mqd_lint::walk::rust_sources(&root).expect("walk");
    assert!(
        !files
            .iter()
            .any(|f| f.starts_with("crates/mqd-lint/fixtures/")),
        "known-bad fixtures must never reach the workspace gate"
    );
}
