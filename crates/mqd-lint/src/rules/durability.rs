//! `durability-path`: filesystem mutation outside the sanctioned module.
//!
//! The bug class: a bare `std::fs::rename` or `File::create` in the
//! persistence layer works every time on the developer's laptop and loses
//! data on the first power cut — durability needs the tempfile dance and
//! the *directory* fsync, and those live in `mqd_wal::fsio`, paired
//! correctly, once. A later edit that reaches for `fs::rename` directly
//! re-introduces the torn-write window that `fsio::write_atomic` exists to
//! close, and nothing in the type system objects.
//!
//! Flagged in non-test code of `crates/mqd-wal/src` outside `fsio.rs`:
//! `fs::rename`/`fs::write`/`fs::remove_file`/`fs::remove_dir_all`/
//! `fs::create_dir_all` calls, `File::create`/`OpenOptions::new`, and the
//! `.set_len(..)` method. Reads (`fs::read`, `fs::read_dir`) are fine —
//! the rule polices mutation, not access. The fix is calling the `fsio`
//! wrapper; a deliberate exception documents itself with
//! `// lint:allow(durability-path): <why this needs no fsync pairing>`.
//!
//! The rule has never fired, and it stays anyway: a lost power-cut
//! guarantee is invisible to every test (no test pulls the plug between
//! a rename and its directory fsync), and CI's grep guard pins only
//! `fs::rename`, not the other mutations listed above.

use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::report::Finding;
use crate::rules::method_call;

pub const ID: &str = "durability-path";

/// `fs::<name>(...)` mutation entry points.
const FS_MUTATIONS: &[&str] = &[
    "rename",
    "write",
    "remove_file",
    "remove_dir_all",
    "create_dir_all",
];

fn applies(rel: &str) -> bool {
    rel.starts_with("crates/mqd-wal/src") && rel != "crates/mqd-wal/src/fsio.rs"
}

/// `code[i]` is the ident `name` called as `<qualifier>::name(` — returns
/// true when the token right before the `::` is `qualifier`.
fn qualified_call(ctx: &FileCtx, i: usize, qualifier: &str) -> bool {
    i >= 2
        && ctx.code[i - 1].is_punct(':')
        && ctx.code[i - 2].is_punct(':')
        && i >= 3
        && ctx.code[i - 3].is_ident(qualifier)
        && ctx.code.get(i + 1).is_some_and(|t| t.is_punct('('))
}

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !applies(ctx.rel) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] || ctx.code[i].kind != TokKind::Ident {
            continue;
        }
        let t = &ctx.code[i];
        if FS_MUTATIONS.iter().any(|m| t.is_ident(m)) && qualified_call(ctx, i, "fs") {
            out.push(ctx.finding(
                t.line,
                ID,
                format!(
                    "`fs::{}` outside mqd_wal::fsio — raw filesystem mutation skips the \
                     fsync pairing that makes it durable; call the fsio wrapper instead",
                    t.text
                ),
            ));
        } else if (t.is_ident("create") && qualified_call(ctx, i, "File"))
            || (t.is_ident("new") && qualified_call(ctx, i, "OpenOptions"))
        {
            out.push(
                ctx.finding(
                    t.line,
                    ID,
                    "opening files for writing outside mqd_wal::fsio — use fsio::write_atomic \
                 or fsio::open_rw so the create/truncate semantics stay crash-safe"
                        .into(),
                ),
            );
        } else if i > 0 && method_call(ctx, i - 1, "set_len").is_some() {
            out.push(
                ctx.finding(
                    t.line,
                    ID,
                    "`.set_len(..)` outside mqd_wal::fsio — a truncation without its paired \
                 sync can resurrect a dropped WAL tail after a crash; use fsio::truncate_file"
                        .into(),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{lint_source, LintConfig};

    const PATH: &str = "crates/mqd-wal/src/wal.rs";

    fn lint(src: &str) -> Vec<crate::report::Finding> {
        lint_source(PATH, src, &LintConfig::subset(&[super::ID]).unwrap())
    }

    #[test]
    fn flags_raw_fs_mutations() {
        let src = "\
fn f(p: &Path) {
    std::fs::rename(p, p).ok();
    std::fs::write(p, b\"x\").ok();
    std::fs::remove_file(p).ok();
    let f = File::create(p);
    let o = OpenOptions::new().write(true).open(p);
    f.set_len(0).ok();
}
";
        let lines: Vec<u32> = lint(src).iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn reads_and_fsio_wrappers_are_clean() {
        let src = "\
fn f(p: &Path) -> Result<(), MqdError> {
    let bytes = std::fs::read(p)?;
    for entry in std::fs::read_dir(p)? {}
    crate::fsio::write_atomic(p, &bytes, true)?;
    crate::fsio::remove_durable(p, true)?;
    fsio::truncate_file(&file, 0, true)?;
    Ok(())
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn fsio_itself_is_exempt() {
        let out = lint_source(
            "crates/mqd-wal/src/fsio.rs",
            "fn f(p: &Path) { std::fs::rename(p, p).ok(); }",
            &LintConfig::subset(&[super::ID]).unwrap(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let out = lint_source(
            "crates/mqd-cli/src/store.rs",
            "fn f(p: &Path) { std::fs::write(p, b\"x\").ok(); }",
            &LintConfig::subset(&[super::ID]).unwrap(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "\
fn f(p: &Path) {
    std::fs::rename(p, p).ok(); // lint:allow(durability-path): same-dir swap synced by caller
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(p: &Path) { std::fs::write(p, b\"x\").unwrap(); }
}
";
        assert!(lint(src).is_empty());
    }
}
