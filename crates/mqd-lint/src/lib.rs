//! `mqd-lint` — a zero-dependency static-analysis pass over the
//! workspace's own Rust sources.
//!
//! Three of the four early PRs fixed the same bug classes by hand:
//! i64 overflow in coverage math (PR 3), HashMap-iteration-order
//! nondeterminism in the OPT DP, and a blocking-I/O pool deadlock (both
//! PR 4). The serving north-star — byte-identical answers from
//! `mqd-server`, enforced by the oracle's `server-agreement` check —
//! depends on exactly these invariants, so they are enforced by a tool
//! instead of reviewer memory. The rules and the incidents behind them
//! are cataloged in DESIGN.md §13.
//!
//! The engine is two-pass. Pass 1 is per file: a lightweight tokenizer
//! (comments/strings/attributes aware — deliberately not a parser), the
//! token-pattern file rules — `nondet-iter`, `panic-path`,
//! `overflow-arith`, `durability-path` — plus a brace-matched item tree and
//! per-function facts (lock-guard liveness, blocking operations,
//! outgoing calls). Pass 2 runs the workspace rules — `lock-order`,
//! `guard-held-blocking`, `unchecked-len` — over the cross-file call
//! graph those facts form. Findings carry `file:line:col`, rule id and
//! snippet; per-site suppression is `// lint:allow(<rule>): <reason>`
//! with the reason mandatory. Run it as
//! `mqdiv lint [--deny] [--json] [--rules]`.
//!
//! A rule stays only while it guards a bug class that no compiler error,
//! clippy lint or named test covers. Blocking with no lock held and wire
//! constants copied out of `mqd_core::wire` have no rule: the first never
//! caused a defect here (a block under a lock is `guard-held-blocking`),
//! and literal-bytes tests of each format catch the second (DESIGN.md §13).
//!
//! ```
//! use mqd_lint::{lint_source, LintConfig};
//! let findings = lint_source(
//!     "crates/mqd-store/src/store.rs",
//!     "fn f(m: &std::collections::HashMap<u16, u32>) { for k in m.keys() { drop(k); } }",
//!     &LintConfig::all(),
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "nondet-iter");
//! ```
//!
//! The cross-file rules need more than one file to mean anything:
//!
//! ```
//! use mqd_lint::{lint_files, LintConfig};
//! let a = "pub fn publish(s: &S) { let g = s.index.lock().unwrap(); record(s); }";
//! let b = "pub fn record(s: &S) { let g = s.ledger.lock().unwrap(); \
//!          let h = s.index.lock().unwrap(); }";
//! let findings = lint_files(
//!     &[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)],
//!     &LintConfig::subset(&["lock-order"]).unwrap(),
//! );
//! assert_eq!(findings.len(), 1, "{findings:?}");
//! assert_eq!(findings[0].rule, "lock-order");
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod engine;
pub mod facts;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod walk;

pub use engine::{lint_files, lint_source, LintConfig};
pub use report::{render_human, render_json, Finding, SCHEMA_VERSION};

use std::io;
use std::path::Path;

/// Lints every Rust source under `root` with the given config — both
/// passes: per-file rules and the cross-file workspace rules. Returns the
/// findings (sorted by file, line, col, rule) and the number of files
/// scanned.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> io::Result<(Vec<Finding>, usize)> {
    let files = walk::rust_sources(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        sources.push(std::fs::read_to_string(root.join(rel))?);
    }
    let pairs: Vec<(&str, &str)> = files
        .iter()
        .map(String::as_str)
        .zip(sources.iter().map(String::as_str))
        .collect();
    Ok((lint_files(&pairs, cfg), files.len()))
}

/// The rule catalog as `(id, summary)` pairs, for CLI listings.
pub fn rule_catalog() -> Vec<(&'static str, &'static str)> {
    rules::ALL.iter().map(|r| (r.id, r.summary)).collect()
}
