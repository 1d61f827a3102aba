//! `panic-path`: code that can abort a serving hot path.
//!
//! The bug class: a panic inside `mqd-server`'s worker pool or a stream
//! shard either kills a worker (capacity silently halves until the pool is
//! gone) or poisons a shared mutex so every later request panics too. PR 2
//! and PR 4 swept these by hand; this rule keeps them out.
//!
//! Flagged in non-test code of `mqd-server`/`mqd-stream`/`mqd-store`/
//! `mqd-wal` (the durability layer serves recovery — a panic there turns a
//! survivable torn write into a server that cannot boot), `mqd-router`
//! (one routing worker serves many clients; same blast radius), and
//! `mqd-load` (a panicked lane thread silently truncates the offered
//! schedule, so the report under-counts drops — evidence corruption):
//! `.unwrap()`, `.expect(..)`, the `panic!`/`unreachable!`/`todo!`/
//! `unimplemented!` macros, range slicing (`&buf[..n]` — panics when `n`
//! exceeds the buffer) and fixed-index access (`buf[0]` — panics when
//! empty). Dense-id indexing (`rows[idx as usize]`) is deliberately NOT
//! flagged: dense local ids are the workspace's core data layout and
//! flagging every use would bury the signal (see DESIGN.md §13).
//!
//! The fix is a typed `MqdError` return; a deliberate invariant keeps the
//! call and documents itself with `// lint:allow(panic-path): <invariant>`.

use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::report::Finding;
use crate::rules::{after_value, in_scope, method_call};

pub const ID: &str = "panic-path";

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !in_scope(ID, ctx.rel) {
        return;
    }
    let arrays = array_lens(ctx);
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &ctx.code[i];
        if method_call(ctx, i, "unwrap").is_some()
            && ctx.code.get(i + 3).is_some_and(|p| p.is_punct(')'))
        {
            out.push(
                ctx.finding(
                    t.line,
                    ID,
                    "`.unwrap()` on a hot path — a panic here kills a worker or poisons a \
                 shared mutex; return a typed MqdError instead"
                        .into(),
                ),
            );
        } else if method_call(ctx, i, "expect").is_some() {
            out.push(
                ctx.finding(
                    t.line,
                    ID,
                    "`.expect(..)` on a hot path — a panic here kills a worker or poisons a \
                 shared mutex; return a typed MqdError instead"
                        .into(),
                ),
            );
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.iter().any(|m| t.is_ident(m))
            && ctx.code.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(ctx.finding(
                t.line,
                ID,
                format!(
                    "`{}!` on a hot path — a panic here kills a worker or poisons a shared \
                     mutex; return a typed MqdError instead",
                    t.text
                ),
            ));
        } else if t.is_punct('[') && after_value(ctx, i) {
            if let Some(f) = risky_index(ctx, i, &arrays) {
                out.push(f);
            }
        }
    }
}

/// Identifiers bound to fixed-size array literals (`let mut sums = [0.0; 4]`)
/// or carrying an array type ascription (`sums: [f64; 4]`), mapped to their
/// length. Indexing one with a literal below its length cannot panic, so
/// [`risky_index`] exempts it.
fn array_lens(ctx: &FileCtx) -> std::collections::HashMap<String, u64> {
    let mut out = std::collections::HashMap::new();
    let code = &ctx.code;
    for i in 0..code.len() {
        // `NAME = [ <fill>; N ]` or `NAME : [ <ty>; N ]`.
        if code[i].kind != TokKind::Ident {
            continue;
        }
        let Some(sep) = code.get(i + 1) else { continue };
        if !(sep.is_punct('=') || sep.is_punct(':'))
            || !code.get(i + 2).is_some_and(|b| b.is_punct('['))
        {
            continue;
        }
        // Find the matching `]`; the pattern is `[ .. ; N ]` with N a
        // literal right before the close and the `;` at bracket depth 1.
        let open = i + 2;
        let mut depth = 0i32;
        let mut j = open;
        let close = loop {
            match code.get(j) {
                Some(t) if t.is_punct('[') => depth += 1,
                Some(t) if t.is_punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break j;
                    }
                }
                Some(_) => {}
                None => break usize::MAX,
            }
            j += 1;
        };
        if close == usize::MAX || close < open + 3 {
            continue;
        }
        let n_tok = &code[close - 1];
        if n_tok.kind != TokKind::Num || !code[close - 2].is_punct(';') {
            continue;
        }
        let digits: String = n_tok
            .text
            .chars()
            .filter(|c| *c != '_')
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(n) = digits.parse::<u64>() {
            out.insert(code[i].text.clone(), n);
        }
    }
    out
}

/// Classifies the index expression starting at `code[open] == '['`. Range
/// slicing and fixed literal indices panic on short inputs; anything else
/// (dense-id indexing) is exempt by design.
fn risky_index(
    ctx: &FileCtx,
    open: usize,
    arrays: &std::collections::HashMap<String, u64>,
) -> Option<Finding> {
    let mut depth = 0i32;
    let mut parens = 0i32;
    let mut j = open;
    let mut content: Vec<usize> = Vec::new();
    loop {
        let t = ctx.code.get(j)?;
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct('(') {
            parens += 1;
        } else if t.is_punct(')') {
            parens -= 1;
        } else if depth == 1 && parens == 0 {
            // Only top-level index tokens classify the expression: a `..`
            // inside a nested call (`v[rng.random_range(0..v.len())]`) is
            // an argument to that call, not a slice of `v`.
            content.push(j);
        }
        j += 1;
    }
    let is_range = content
        .windows(2)
        .any(|w| ctx.code[w[0]].is_punct('.') && ctx.code[w[1]].is_punct('.'))
        || (content.len() == 2
            && ctx.code[content[0]].is_punct('.')
            && ctx.code[content[1]].is_punct('.'))
        || (content.len() == 1 && ctx.code[content[0]].is_punct('.'));
    if is_range {
        return Some(
            ctx.finding(
                ctx.code[open].line,
                ID,
                "range slicing panics when the bounds exceed the buffer; use `.get(..)` or \
             prove the bound and annotate"
                    .into(),
            ),
        );
    }
    if content.len() == 1 && ctx.code[content[0]].kind == TokKind::Num {
        // `sums[2]` where `sums` was declared `[_; 4]` in this file is a
        // proven in-bounds access, not a short-buffer hazard.
        if open > 0 && ctx.code[open - 1].kind == TokKind::Ident {
            let idx: String = ctx.code[content[0]]
                .text
                .chars()
                .filter(|c| *c != '_')
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let (Some(&n), Ok(i)) = (arrays.get(&ctx.code[open - 1].text), idx.parse::<u64>()) {
                if i < n {
                    return None;
                }
            }
        }
        return Some(ctx.finding(
            ctx.code[open].line,
            ID,
            format!(
                "fixed index `[{}]` panics on a short buffer; use `.first()`/`.get({})` or \
                 prove non-emptiness and annotate",
                ctx.code[content[0]].text, ctx.code[content[0]].text
            ),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::engine::{lint_source, LintConfig};

    const PATH: &str = "crates/mqd-server/src/server.rs";

    fn lint(src: &str) -> Vec<crate::report::Finding> {
        lint_source(PATH, src, &LintConfig::subset(&[super::ID]).unwrap())
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let src = "\
fn f(m: &Mutex<u32>) {
    let a = m.lock().unwrap();
    let b = m.lock().expect(\"mutex\");
    if bad { panic!(\"boom\"); }
    match x { _ => unreachable!(\"nope\") }
}
";
        let out = lint(src);
        let rules: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(rules, [2, 3, 4, 5]);
    }

    #[test]
    fn unwrap_or_variants_are_clean() {
        let src = "\
fn f(o: Option<u32>) -> u32 {
    o.unwrap_or(0) + o.unwrap_or_else(|| 1) + o.unwrap_or_default()
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn range_slice_and_fixed_index_flagged_dense_id_clean() {
        let src = "\
fn f(buf: &[u8], rows: &[Row], idx: u32, want: usize) {
    let head = &buf[..want];
    let first = buf[0];
    let row = &rows[idx as usize];
    let ranged = &buf[4..want];
}
";
        let out = lint(src);
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 3, 5]);
    }

    #[test]
    fn literal_index_into_declared_array_is_in_bounds() {
        let src = "\
fn f(buf: &[u8]) -> f64 {
    let mut sums = [0.0f64; 4];
    sums[0] += 1.0;
    sums[3] += 2.0;
    sums[4] += 3.0;
    let first = buf[0];
    sums[1] + first as f64
}
";
        let out = lint(src);
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        // sums[4] overruns the declared [_; 4]; buf is a slice of unknown
        // length — both stay flagged, in-bounds array indexing does not.
        assert_eq!(lines, [5, 6], "{out:?}");
    }

    #[test]
    fn range_inside_nested_call_is_not_range_slicing() {
        // The `..` is an argument to random_range, not a slice of `pool`;
        // the index itself is a computed in-bounds value (dense-id class).
        let src = "\
fn pick(pool: &[u32], rng: &mut Rng) -> u32 {
    pool[rng.random_range(0..pool.len())]
}
fn still_flagged(buf: &[u8], n: usize) -> &[u8] {
    &buf[..mix(n)]
}
";
        let out = lint(src);
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, [5], "{out:?}");
    }

    #[test]
    fn array_types_and_macros_not_confused_with_indexing() {
        let src = "\
const M: [u8; 4] = *b\"ABCD\";
fn f() -> [u8; 2] {
    let v = vec![0u8; 8];
    let arr = [1, 2];
    arr
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "\
fn f(buf: &[u8]) {
    let head = &buf[..4]; // lint:allow(panic-path): caller guarantees >= 4 bytes
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { build().unwrap(); }
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn out_of_scope_crate_is_clean() {
        let out = lint_source(
            "crates/mqd-text/src/tokenize.rs",
            "fn f(o: Option<u8>) { o.unwrap(); }",
            &LintConfig::subset(&[super::ID]).unwrap(),
        );
        assert!(out.is_empty());
    }
}
