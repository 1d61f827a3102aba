//! `nondet-iter`: iteration over `HashMap`/`HashSet` in a
//! determinism-critical module.
//!
//! The bug class: PR 4 found the OPT DP resolving equal-count tie-breaks
//! in `HashMap` iteration order, which made `mqdiv serve` return different
//! (all individually correct) covers from different processes — breaking
//! the oracle's `server-agreement` byte-identity check. Hash iteration
//! order is randomized per process by SipHash seeding, so any output that
//! depends on it is nondeterministic across runs by construction.
//!
//! Keyed access (`map.get(..)`, `map[&k]`, `entry(..)`) is fine — only
//! *iteration* is flagged: `for _ in &map`, `.iter()`, `.keys()`,
//! `.values()`, `.drain()`, `.retain()` and friends. The fix is a sorted
//! key vector, insertion-order side list (what OPT now does), or `BTreeMap`.
//!
//! Scope ([`crate::rules::SCOPES`]): the modules whose outputs must be
//! byte-identical across processes — serving answers, checkpoint replay,
//! solver tie-breaks, `mqd-load`'s seed-replayable plans and byte-stable
//! reports, and the offline tools (CLI command output, generated corpora,
//! bench reports), which the oracle and CI diff byte-for-byte.

use crate::engine::FileCtx;
use crate::report::Finding;
use crate::rules::in_scope;

pub const ID: &str = "nondet-iter";

/// Methods whose results expose hash-iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !in_scope(ID, ctx.rel) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &ctx.code[i];
        // `map.iter()` and friends, where `map` was declared hash-typed.
        if t.kind == crate::lexer::TokKind::Ident && ctx.hash_idents.contains(&t.text) {
            if let Some(m) = ctx.code.get(i + 2) {
                if ctx.code[i + 1].is_punct('.')
                    && ITER_METHODS.iter().any(|im| m.is_ident(im))
                    && ctx.code.get(i + 3).is_some_and(|p| p.is_punct('('))
                {
                    out.push(ctx.finding(
                        t.line,
                        ID,
                        format!(
                            "`{}.{}()` iterates a HashMap/HashSet — order is nondeterministic \
                             across processes (the PR 4 OPT tie-break bug class); use sorted \
                             keys, an insertion-order list, or BTreeMap",
                            t.text, m.text
                        ),
                    ));
                }
            }
        }
        // `for _ in [&[mut]] map { ... }` — IntoIterator on the map itself.
        if t.is_ident("for") {
            if let Some(f) = for_header_hash_ident(ctx, i) {
                out.push(f);
            }
        }
    }
}

/// Scans a `for <pat> in <expr> {` header; flags a hash-typed identifier
/// iterated directly (not via `.method(...)` — those are caught above —
/// and not keyed via `[...]`).
fn for_header_hash_ident(ctx: &FileCtx, for_idx: usize) -> Option<Finding> {
    // Find the `in` that terminates the pattern (skip parenthesized or
    // bracketed patterns).
    let mut depth = 0i32;
    let mut j = for_idx + 1;
    let in_idx = loop {
        let t = ctx.code.get(j)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("in") {
            break j;
        } else if t.is_punct('{') || t.is_punct(';') {
            return None; // malformed header; bail quietly
        }
        j += 1;
    };
    // Scan the iterated expression up to the body `{`.
    let mut depth = 0i32;
    let mut j = in_idx + 1;
    while let Some(t) = ctx.code.get(j) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            return None;
        } else if t.kind == crate::lexer::TokKind::Ident
            && ctx.hash_idents.contains(&t.text)
            && !ctx
                .code
                .get(j + 1)
                .is_some_and(|n| n.is_punct('.') || n.is_punct('['))
        {
            return Some(ctx.finding(
                t.line,
                ID,
                format!(
                    "`for .. in {}` iterates a HashMap/HashSet — order is nondeterministic \
                     across processes (the PR 4 OPT tie-break bug class); use sorted keys, \
                     an insertion-order list, or BTreeMap",
                    t.text
                ),
            ));
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::engine::{lint_source, LintConfig};

    const PATH: &str = "crates/mqd-store/src/store.rs";

    fn lint(src: &str) -> Vec<crate::report::Finding> {
        lint_source(PATH, src, &LintConfig::subset(&[super::ID]).unwrap())
    }

    #[test]
    fn flags_iter_on_declared_map() {
        let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u16, u32>) {
    for (k, v) in m.iter() { use_it(k, v); }
}
";
        let out = lint(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("m.iter()"));
    }

    #[test]
    fn flags_for_over_map_reference() {
        let src = "\
fn f() {
    let mut seen: HashSet<u32> = HashSet::new();
    for v in &seen { go(v); }
}
";
        let out = lint(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn keyed_access_is_clean() {
        let src = "\
fn f(m: &HashMap<u16, u32>, keys: &[u16]) {
    for k in keys { let _ = m.get(k); }
    let direct = m[&3];
    m.entry(7).or_default();
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn vec_iteration_is_clean() {
        let src = "\
fn f(rows: &Vec<u32>) {
    for r in rows.iter() { go(r); }
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn out_of_scope_module_is_clean() {
        let src = "\
fn f(m: &HashMap<u16, u32>) {
    for (k, v) in m.iter() { use_it(k, v); }
}
";
        let out = lint_source(
            "crates/mqd-text/src/index.rs",
            src,
            &LintConfig::subset(&[super::ID]).unwrap(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f(m: &HashMap<u16, u32>) {
        for (k, v) in m.iter() { use_it(k, v); }
    }
}
";
        assert!(lint(src).is_empty());
    }
}
