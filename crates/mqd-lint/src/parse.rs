//! Pass 1 of the workspace engine: a lightweight item tree over the token
//! stream. The only structure the cross-file rules need that token patterns
//! cannot express is *extent* — which tokens belong to which function — so
//! this module finds `fn` items and brace-matches their bodies. `impl` and
//! `mod` blocks need no explicit representation: their contents are just
//! more `fn` items at a deeper brace depth, and the function name alone is
//! the call-graph key (see `callgraph` for why that approximation is the
//! right trade).

use crate::lexer::{Tok, TokKind};

/// One `fn` item: its name and the index range of its body tokens.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's bare name (`ingest_rows`, not `Server::ingest_rows`).
    pub name: String,
    /// Index of the body's opening `{` in the code token slice.
    pub body_open: usize,
    /// Index of the matching closing `}` (or the last token if unclosed).
    pub body_close: usize,
    /// Line of the `fn` keyword, for diagnostics.
    pub line: u32,
    /// Column of the `fn` keyword.
    pub col: u32,
}

/// Finds every `fn` item with a body in `code` (comment-free token slice).
/// Trait-method declarations (`fn f(..);`) have no body and are skipped.
/// Nested functions are returned as their own items; callers that walk a
/// body should skip the ranges of nested items to avoid double-attributing
/// their events (see [`FnItem::contains`]).
pub fn functions(code: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is_ident("fn") && code.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            if let Some((open, close)) = body_span(code, i + 2) {
                out.push(FnItem {
                    name: code[i + 1].text.clone(),
                    body_open: open,
                    body_close: close,
                    line: code[i].line,
                    col: code[i].col,
                });
            }
        }
        i += 1;
    }
    out
}

impl FnItem {
    /// Whether `other`'s body lies strictly inside this item's body — i.e.
    /// `other` is a nested `fn` whose tokens must not count as ours.
    pub fn contains(&self, other: &FnItem) -> bool {
        self.body_open < other.body_open && other.body_close <= self.body_close
    }
}

/// Scans a signature starting just after `fn name`, returning the body's
/// `{`..`}` token-index span, or `None` for a bodiless declaration. The
/// signature itself never contains braces (generics use angle brackets,
/// return types are paths), so the first `{` outside parens/brackets opens
/// the body and the first such `;` means there is none.
fn body_span(code: &[Tok], from: usize) -> Option<(usize, usize)> {
    let mut j = from;
    let mut inner = 0i32; // () and [] nesting inside the signature
    let open = loop {
        let t = code.get(j)?;
        if t.is_punct('(') || t.is_punct('[') {
            inner += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            inner -= 1;
        } else if inner == 0 && t.is_punct('{') {
            break j;
        } else if inner == 0 && t.is_punct(';') {
            return None;
        }
        j += 1;
    };
    // Brace-match the body; tolerate truncation by closing at the end.
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = code.get(j) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((open, j));
            }
        }
        j += 1;
    }
    Some((open, code.len().saturating_sub(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn code(src: &str) -> Vec<Tok> {
        tokenize(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect()
    }

    #[test]
    fn finds_free_impl_and_mod_functions() {
        let src = "\
fn free() { a(); }
impl Server {
    pub fn method(&self) -> u32 { self.n }
}
mod inner {
    fn nested_in_mod() {}
}
";
        let c = code(src);
        let fns = functions(&c);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["free", "method", "nested_in_mod"]);
    }

    #[test]
    fn body_spans_are_brace_matched() {
        let src = "fn f() { if x { y(); } z(); } fn g() {}";
        let c = code(src);
        let fns = functions(&c);
        assert_eq!(fns.len(), 2);
        let f = &fns[0];
        assert!(c[f.body_open].is_punct('{'));
        assert!(c[f.body_close].is_punct('}'));
        // g's body starts after f's ends.
        assert!(fns[1].body_open > f.body_close);
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let src = "trait T { fn decl(&self) -> u32; fn with_default(&self) { x(); } }";
        let fns = functions(&code(src));
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["with_default"]);
    }

    #[test]
    fn signature_brackets_do_not_confuse_the_scan() {
        let src = "fn f(xs: [u8; 4], g: impl Fn(u32) -> u32) -> Vec<u8> { body(); }";
        let fns = functions(&code(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "f");
    }

    #[test]
    fn nested_fn_containment() {
        let src = "fn outer() { fn inner() { q(); } inner(); }";
        let fns = functions(&code(src));
        assert_eq!(fns.len(), 2);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.contains(inner));
        assert!(!inner.contains(outer));
    }
}
