//! `mqdiv lint` — run the workspace's own static-analysis pass
//! (`mqd-lint`) from the CLI.
//!
//! The linter enforces the overflow and panic invariants the serving
//! guarantees depend on, plus the cross-file workspace rules (lock-order
//! cycles, blocking under a live guard, unclamped wire lengths); the
//! determinism and durability invariants are clippy configuration
//! (`clippy.toml`). The rule catalog and the incidents behind each rule
//! are in DESIGN.md §13. `--deny` (the CI gate) exits nonzero on any finding;
//! `--json` emits the byte-stable versioned report object for artifact
//! upload; `--rules a,b` restricts the pass.
//!
//! Ordering contract for `--deny --json`: the full JSON report is written
//! and flushed to `out` *before* the deny error returns — a CI consumer
//! that sees the nonzero exit can always parse the report it captured.

use std::io::Write;
use std::path::PathBuf;

use mqd_lint::{render_human, render_json, walk, LintConfig};

/// Options for `mqdiv lint`.
pub struct LintOpts {
    /// Exit nonzero when there is any finding (the CI gate).
    pub deny: bool,
    /// Emit the JSON findings array instead of human-readable lines.
    pub json: bool,
    /// Comma-separated rule subset from `--rules`; `None` runs everything.
    pub rules: Option<Vec<String>>,
    /// Workspace root override; `None` discovers it from the current
    /// directory (tests point this at synthetic trees).
    pub root: Option<PathBuf>,
}

/// Runs the lint pass. Findings go to `out`; the summary goes to `log`
/// when findings are rendered as JSON (so the artifact stays parseable).
pub fn run(mut out: impl Write, mut log: impl Write, opts: &LintOpts) -> Result<(), String> {
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
            walk::find_root(&cwd)
                .ok_or("no workspace root (Cargo.toml + crates/) above the current directory")?
        }
    };
    let cfg = match &opts.rules {
        None => LintConfig::all(),
        Some(names) => {
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            LintConfig::subset(&refs)?
        }
    };
    let (findings, files_scanned) = mqd_lint::lint_workspace(&root, &cfg)
        .map_err(|e| format!("scan {}: {e}", root.display()))?;

    if opts.json {
        // Write AND flush the complete report before the deny check below
        // can error out: a nonzero exit must never truncate the JSON a CI
        // pipeline is capturing.
        write!(out, "{}", render_json(&findings, files_scanned)).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        writeln!(
            log,
            "{} finding(s) in {} file(s) scanned",
            findings.len(),
            files_scanned
        )
        .map_err(|e| e.to_string())?;
    } else {
        write!(out, "{}", render_human(&findings, files_scanned)).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }

    if opts.deny && !findings.is_empty() {
        return Err(format!(
            "lint: {} finding(s) under --deny (fix the site or annotate it with \
             `// lint:allow(<rule>): <reason>`)",
            findings.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    /// Builds a throwaway one-crate workspace containing `files` and
    /// returns its root.
    fn synth_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("mqd-lint-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates")).unwrap();
        fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        for (rel, src) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, src).unwrap();
        }
        root
    }

    const BAD: &str = "pub fn f(slot: Option<u8>) -> u8 { slot.unwrap() }\n";

    fn opts(root: &Path, deny: bool, json: bool, rules: Option<&str>) -> LintOpts {
        LintOpts {
            deny,
            json,
            rules: rules.map(|r| r.split(',').map(str::to_string).collect()),
            root: Some(root.to_path_buf()),
        }
    }

    #[test]
    fn clean_tree_passes_deny() {
        let root = synth_workspace(
            "clean",
            &[("crates/mqd-server/src/ok.rs", "pub fn f() -> u8 { 1 }\n")],
        );
        let mut out = Vec::new();
        run(&mut out, io::sink(), &opts(&root, true, false, None)).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("0 findings in 1 file scanned"), "{text}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn deny_fails_on_findings_but_plain_run_reports_them() {
        let root = synth_workspace("deny", &[("crates/mqd-server/src/server.rs", BAD)]);
        let mut out = Vec::new();
        run(&mut out, io::sink(), &opts(&root, false, false, None)).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("[panic-path]"), "{text}");

        let err = run(io::sink(), io::sink(), &opts(&root, true, false, None)).unwrap_err();
        assert!(err.contains("1 finding(s) under --deny"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn json_output_is_machine_parseable() {
        let root = synth_workspace("json", &[("crates/mqd-server/src/server.rs", BAD)]);
        let mut out = Vec::new();
        run(&mut out, io::sink(), &opts(&root, false, true, None)).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"schema_version\":2,"), "{text}");
        assert!(
            text.contains(r#""file":"crates/mqd-server/src/server.rs""#),
            "{text}"
        );
        assert!(text.contains(r#""rule":"panic-path""#), "{text}");
        assert!(text.contains(r#""col":"#), "{text}");
        let _ = fs::remove_dir_all(&root);
    }

    /// The `--deny --json` contract: even when run() errors, the sink
    /// already holds the complete, parseable report — balanced braces,
    /// version field, trailing newline.
    #[test]
    fn deny_json_writes_full_report_before_failing() {
        let root = synth_workspace("denyjson", &[("crates/mqd-server/src/server.rs", BAD)]);
        let mut out = Vec::new();
        let err = run(&mut out, io::sink(), &opts(&root, true, true, None)).unwrap_err();
        assert!(err.contains("under --deny"), "{err}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"schema_version\":2,"), "{text}");
        assert!(text.ends_with("]}\n"), "report truncated: {text:?}");
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes, "unbalanced JSON: {text}");
        assert!(text.contains(r#""rule":"panic-path""#), "{text}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn rule_subset_restricts_the_pass() {
        let root = synth_workspace("subset", &[("crates/mqd-server/src/server.rs", BAD)]);
        // panic-path disabled -> the unwrap() finding disappears.
        run(
            io::sink(),
            io::sink(),
            &opts(&root, true, false, Some("lock-order,overflow-arith")),
        )
        .unwrap();
        let err = run(
            io::sink(),
            io::sink(),
            &opts(&root, true, false, Some("lock-order,panic-path")),
        )
        .unwrap_err();
        assert!(err.contains("1 finding(s) under --deny"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_rule_name_is_an_error_listing_valid_ids() {
        let root = synth_workspace("unknown", &[]);
        // Retired rule ids are unknown like any typo.
        for name in [
            "no-such-rule",
            "blocking-call",
            "wire-drift",
            "nondet-iter",
            "durability-path",
        ] {
            let err = run(
                io::sink(),
                io::sink(),
                &opts(&root, false, false, Some(name)),
            )
            .unwrap_err();
            assert!(err.contains(&format!("unknown rule '{name}'")), "{err}");
            let (_, valid) = err.split_once("valid:").expect("listing");
            assert!(valid.contains("panic-path"), "{err}");
            assert!(!valid.contains(name), "{err}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    use std::io;
}
