//! The rule-catalog self-test: every rule in the catalog must ship at
//! least one known-good and one known-bad fixture, and each bad fixture
//! must fire on exactly the lines annotated with `//~ <rule-id>` markers
//! in its source. Adding a rule without fixtures, or letting a fixture's
//! firing lines drift from its annotations, fails here by rule name
//! instead of deep inside a sweep.

use std::path::Path;

use mqd_lint::{lint_files, Finding, LintConfig};

/// One fixture group: `(fixture file, virtual workspace path)` pairs
/// linted *together*, so cross-file rules (whose bad case spans two
/// fixtures by design) are exercised over their whole workspace.
type Group = &'static [(&'static str, &'static str)];

/// `(rule id, bad fixture group, good fixture group)`.
const CATALOG: &[(&str, Group, Group)] = &[
    (
        "nondet-iter",
        &[("nondet_bad.rs", "crates/mqd-store/src/store.rs")],
        &[("nondet_good.rs", "crates/mqd-store/src/store.rs")],
    ),
    (
        "panic-path",
        &[("panic_bad.rs", "crates/mqd-server/src/server.rs")],
        &[("panic_good.rs", "crates/mqd-server/src/server.rs")],
    ),
    (
        "overflow-arith",
        &[("overflow_bad.rs", "crates/mqd-stream/src/engine.rs")],
        &[("overflow_good.rs", "crates/mqd-stream/src/engine.rs")],
    ),
    (
        "durability-path",
        &[("durability_bad.rs", "crates/mqd-wal/src/segment.rs")],
        &[("durability_good.rs", "crates/mqd-wal/src/segment.rs")],
    ),
    (
        "lock-order",
        &[
            ("lock_order_bad_a.rs", "crates/mqd-server/src/publish.rs"),
            ("lock_order_bad_b.rs", "crates/mqd-server/src/reconcile.rs"),
        ],
        &[("lock_order_good.rs", "crates/mqd-server/src/publish.rs")],
    ),
    (
        "guard-held-blocking",
        &[("guard_blocking_bad.rs", "crates/mqd-server/src/server.rs")],
        &[("guard_blocking_good.rs", "crates/mqd-server/src/server.rs")],
    ),
    (
        "unchecked-len",
        &[("unchecked_len_bad.rs", "crates/mqd-server/src/conn.rs")],
        &[("unchecked_len_good.rs", "crates/mqd-server/src/conn.rs")],
    ),
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// 1-based lines of `src` carrying a `//~ <rule>` end-of-line marker.
fn marker_lines(src: &str, rule: &str) -> Vec<u32> {
    let tag = format!("//~ {rule}");
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.trim_end().ends_with(tag.as_str()))
        .map(|(i, _)| i as u32 + 1)
        .collect()
}

fn lint_group(group: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<String> = group.iter().map(|(name, _)| fixture(name)).collect();
    let pairs: Vec<(&str, &str)> = group
        .iter()
        .zip(&sources)
        .map(|((_, vpath), src)| (*vpath, src.as_str()))
        .collect();
    lint_files(&pairs, &LintConfig::all())
}

#[test]
fn catalog_covers_every_rule() {
    let ids: Vec<&str> = mqd_lint::rule_catalog().iter().map(|(id, _)| *id).collect();
    let covered: Vec<&str> = CATALOG.iter().map(|(id, _, _)| *id).collect();
    assert_eq!(
        ids, covered,
        "this table must track the rule catalog exactly (same order): \
         a new rule ships with fixtures or fails here"
    );
}

/// The scope table is the only place a path-scoped rule's membership is
/// written down, so it is checked as data: a row for a rule that does not
/// exist, or a prefix whose crate or file was deleted, would otherwise
/// shrink the rule's scope without a sound. Each row is also exercised:
/// the rule's bad fixture, placed under the prefix, must fire.
#[test]
fn scope_table_names_real_rules_and_real_paths() {
    let root = mqd_lint::walk::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the mqd-lint manifest");
    let ids: Vec<&str> = mqd_lint::rule_catalog().iter().map(|(id, _)| *id).collect();
    for (rule, prefixes) in mqd_lint::rules::SCOPES {
        assert!(ids.contains(rule), "SCOPES names unknown rule {rule}");
        let (_, bad, _) = CATALOG
            .iter()
            .find(|(id, _, _)| id == rule)
            .unwrap_or_else(|| panic!("{rule}: no fixtures"));
        assert!(!prefixes.is_empty(), "{rule}: empty scope");
        let bad_src = fixture(bad[0].0);
        for prefix in *prefixes {
            assert!(
                root.join(prefix).exists(),
                "{rule}: scope prefix {prefix} names no path under {}",
                root.display()
            );
            let vpath = if prefix.ends_with(".rs") {
                prefix.to_string()
            } else {
                format!("{prefix}/scoped.rs")
            };
            let out = lint_files(&[(&vpath, &bad_src)], &LintConfig::all());
            assert!(
                out.iter().any(|f| f.rule == *rule),
                "{rule}: bad fixture is silent under in-scope path {vpath}"
            );
        }
    }
}

#[test]
fn bad_fixtures_fire_exactly_on_annotated_lines() {
    for (rule, bad, _) in CATALOG {
        let mut expected: Vec<(String, u32)> = Vec::new();
        for (name, vpath) in *bad {
            for line in marker_lines(&fixture(name), rule) {
                expected.push((vpath.to_string(), line));
            }
        }
        assert!(
            !expected.is_empty(),
            "{rule}: bad fixture group carries no `//~ {rule}` markers"
        );
        let out = lint_group(bad);
        let got: Vec<(String, u32)> = out
            .iter()
            .filter(|f| f.rule == *rule)
            .map(|f| (f.file.clone(), f.line))
            .collect();
        assert_eq!(
            got, expected,
            "{rule}: firing sites drifted from the //~ annotations: {out:?}"
        );
    }
}

#[test]
fn good_fixtures_are_silent_for_their_rule() {
    for (rule, _, good) in CATALOG {
        assert!(!good.is_empty(), "{rule}: no known-good fixture");
        let out = lint_group(good);
        assert!(
            !out.iter().any(|f| f.rule == *rule),
            "{rule}: known-good fixture fired: {out:?}"
        );
    }
}
