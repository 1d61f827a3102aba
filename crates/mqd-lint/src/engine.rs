//! The lint pipeline. Per file: tokenize, compute test scopes, collect
//! typed identifier facts, run the file rules. Across files: build the
//! two-pass workspace context (item tree → function facts → call graph)
//! and run the workspace rules. Then apply `lint:allow` suppressions and
//! emit `bad-suppression` findings for annotations that are missing their
//! mandatory reason.

use std::collections::HashSet;

use crate::callgraph::WorkspaceCtx;
use crate::lexer::{tokenize, Tok, TokKind};
use crate::report::Finding;
use crate::rules;

/// Rule id of the meta-rule guarding the suppression mechanism itself: a
/// `lint:allow` with no reason or an unknown rule id. Cannot be suppressed.
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// Which rules run. Build with [`LintConfig::all`] or [`LintConfig::subset`].
#[derive(Clone, Debug)]
pub struct LintConfig {
    enabled: Vec<&'static str>,
}

impl LintConfig {
    /// Every rule enabled — the CI gate configuration.
    pub fn all() -> Self {
        LintConfig {
            enabled: rules::ALL.iter().map(|r| r.id).collect(),
        }
    }

    /// Only the named rules. Unknown names are an error listing the valid
    /// ids, so a typo in `--rules` can never silently lint nothing.
    pub fn subset(names: &[&str]) -> Result<Self, String> {
        let mut enabled = Vec::new();
        for n in names {
            match rules::ALL.iter().find(|r| r.id == *n) {
                Some(r) => enabled.push(r.id),
                None => {
                    return Err(format!(
                        "unknown rule '{n}' (valid: {})",
                        rules::ALL
                            .iter()
                            .map(|r| r.id)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                }
            }
        }
        Ok(LintConfig { enabled })
    }

    fn on(&self, id: &str) -> bool {
        self.enabled.contains(&id)
    }
}

/// One parsed `// lint:allow(rule-a,rule-b): reason` annotation.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Line the comment sits on.
    pub line: u32,
    /// Rule ids named in the parentheses.
    pub rules: Vec<String>,
    /// Justification text after the colon (trimmed; may be empty — which
    /// is itself a finding).
    pub reason: String,
}

impl Suppression {
    /// A suppression covers findings of one of its rules on its own line
    /// (trailing comment) or the line directly below (comment above the
    /// offending statement).
    fn covers(&self, line: u32, rule: &str) -> bool {
        (line == self.line || line == self.line + 1) && self.rules.iter().any(|r| r == rule)
    }
}

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel: &'a str,
    /// Source split into lines (for snippets).
    pub lines: Vec<&'a str>,
    /// Code tokens: comments stripped, order preserved.
    pub code: Vec<Tok>,
    /// `in_test[i]` — whether `code[i]` sits in test-only code: under
    /// `#[cfg(test)]` / `#[test]`, or in a `tests/`, `examples/` or
    /// `benches/` directory.
    pub in_test: Vec<bool>,
    /// Identifiers bound with `i128` in their type or initializer —
    /// arithmetic on these is already overflow-safe.
    pub i128_idents: HashSet<String>,
    /// Parsed `lint:allow` annotations.
    pub suppressions: Vec<Suppression>,
}

impl<'a> FileCtx<'a> {
    /// The trimmed source line, for finding snippets.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Column of the first code token on `line` — the anchor for rules
    /// that reason line-wise rather than token-wise.
    pub fn line_col(&self, line: u32) -> u32 {
        self.code
            .iter()
            .find(|t| t.line == line)
            .map(|t| t.col)
            .unwrap_or(1)
    }

    /// Shorthand for building a [`Finding`] anchored at `line` (column of
    /// the line's first code token).
    pub fn finding(&self, line: u32, rule: &'static str, message: String) -> Finding {
        Finding {
            file: self.rel.to_string(),
            line,
            col: self.line_col(line),
            rule,
            message,
            snippet: self.snippet(line),
        }
    }
}

/// Lints one file's source. `rel` is the workspace-relative path (forward
/// slashes) — several rules are scoped by path, so virtual paths let the
/// fixture tests exercise path-gated rules on synthetic files. Workspace
/// rules run too, over a one-file "workspace".
pub fn lint_source(rel: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    lint_files(&[(rel, src)], cfg)
}

/// Lints a set of files as one workspace: file rules per file, then the
/// workspace rules over the cross-file context, then suppressions. This is
/// the engine's real entry point — `lint_source` and `lint_workspace` both
/// come here.
pub fn lint_files(files: &[(&str, &str)], cfg: &LintConfig) -> Vec<Finding> {
    let toks: Vec<Vec<Tok>> = files.iter().map(|(_, src)| tokenize(src)).collect();
    let ctxs: Vec<FileCtx> = files
        .iter()
        .zip(&toks)
        .map(|((rel, src), t)| build_file_ctx(rel, src, t))
        .collect();

    let mut raw = Vec::new();
    for ctx in &ctxs {
        for rule in rules::ALL {
            if let (true, rules::Check::File(check)) = (cfg.on(rule.id), &rule.check) {
                check(ctx, &mut raw);
            }
        }
    }

    let run_workspace = rules::ALL
        .iter()
        .any(|r| cfg.on(r.id) && matches!(r.check, rules::Check::Workspace(_)));
    let ctxs = if run_workspace {
        let ws = WorkspaceCtx::build(ctxs);
        for rule in rules::ALL {
            if let (true, rules::Check::Workspace(check)) = (cfg.on(rule.id), &rule.check) {
                check(&ws, &mut raw);
            }
        }
        ws.files
    } else {
        ctxs
    };

    let mut out = Vec::new();
    for f in raw {
        let suppressed = ctxs
            .iter()
            .find(|c| c.rel == f.file)
            .is_some_and(|c| c.suppressions.iter().any(|s| s.covers(f.line, f.rule)));
        if !suppressed {
            out.push(f);
        }
    }

    // The suppression mechanism polices itself: a reason is mandatory and
    // the rule id must exist (otherwise the annotation silences nothing
    // and rots). These findings cannot be suppressed.
    for ctx in &ctxs {
        for s in &ctx.suppressions {
            if s.reason.is_empty() {
                out.push(ctx.finding(
                    s.line,
                    BAD_SUPPRESSION,
                    format!(
                        "lint:allow({}) has no reason — write `// lint:allow({}): <why this site is safe>`",
                        s.rules.join(","),
                        s.rules.join(",")
                    ),
                ));
            }
            for r in &s.rules {
                if !rules::ALL.iter().any(|rule| rule.id == r.as_str()) {
                    out.push(ctx.finding(
                        s.line,
                        BAD_SUPPRESSION,
                        format!(
                            "lint:allow names unknown rule '{r}' (valid: {})",
                            rules::ALL
                                .iter()
                                .map(|rule| rule.id)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    ));
                }
            }
        }
    }

    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    out
}

pub(crate) fn build_file_ctx<'a>(rel: &'a str, src: &'a str, toks: &[Tok]) -> FileCtx<'a> {
    let code: Vec<Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .cloned()
        .collect();
    let in_test = test_flags(rel, &code);
    let i128_idents = typed_idents(&code);
    let suppressions = parse_suppressions(toks);
    FileCtx {
        rel,
        lines: src.lines().collect(),
        code,
        in_test,
        i128_idents,
        suppressions,
    }
}

/// Whether every token of this file counts as test code by location alone.
fn path_is_test(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts
        .iter()
        .take(parts.len().saturating_sub(1))
        .any(|p| matches!(*p, "tests" | "benches" | "examples" | "fixtures"))
}

/// Computes the per-token test flag by tracking `#[cfg(test)]` / `#[test]`
/// attributes and the brace depth of the item they decorate.
fn test_flags(rel: &str, code: &[Tok]) -> Vec<bool> {
    if path_is_test(rel) {
        return vec![true; code.len()];
    }
    let mut flags = vec![false; code.len()];
    let mut depth = 0usize;
    // Depth of `(`/`[` nesting, so the `;` inside `[u8; 4]` or a signature
    // never clears a pending attribute.
    let mut inner = 0usize;
    let mut pending_test = false;
    let mut file_test = false;
    // Brace depths at which a test region was opened.
    let mut regions: Vec<usize> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct('#') {
            // `#[...]` outer or `#![...]` inner attribute.
            let mut j = i + 1;
            let inner_attr = code.get(j).is_some_and(|t| t.is_punct('!'));
            if inner_attr {
                j += 1;
            }
            if code.get(j).is_some_and(|t| t.is_punct('[')) {
                let (is_test, end) = scan_attribute(code, j);
                if is_test {
                    if inner_attr && depth == 0 {
                        file_test = true; // #![cfg(test)] at file scope
                    } else {
                        pending_test = true;
                    }
                }
                flags[i..=end.min(code.len() - 1)]
                    .iter_mut()
                    .for_each(|f| *f = file_test || !regions.is_empty());
                i = end + 1;
                continue;
            }
        }
        flags[i] = file_test || !regions.is_empty() || pending_test;
        if t.kind == TokKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'{') => {
                    depth += 1;
                    if pending_test {
                        regions.push(depth);
                        pending_test = false;
                    }
                }
                Some(b'}') => {
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                Some(b'(') | Some(b'[') => inner += 1,
                Some(b')') | Some(b']') => inner = inner.saturating_sub(1),
                Some(b';') if inner == 0 => pending_test = false,
                _ => {}
            }
        }
        i += 1;
    }
    flags
}

/// Parses the attribute starting at `code[open]` (the `[`). Returns
/// whether it marks test-only code and the index of the closing `]`.
/// "Marks test" = mentions the `test` ident without a `not(...)` — so
/// `#[test]`, `#[cfg(test)]` and `#[cfg(any(test, ...))]` count while
/// `#[cfg(not(test))]` does not.
fn scan_attribute(code: &[Tok], open: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut j = open;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_ident("test") {
            saw_test = true;
        } else if t.is_ident("not") {
            saw_not = true;
        }
        j += 1;
    }
    (saw_test && !saw_not, j.min(code.len().saturating_sub(1)))
}

/// Collects identifiers declared with `i128` anywhere in their type
/// ascription or `let` initializer. Token-level type inference: good
/// enough to anchor the overflow-arith rule without a real parser.
fn typed_idents(code: &[Tok]) -> HashSet<String> {
    let mut i128s = HashSet::new();
    for i in 0..code.len() {
        // `name : Type` (field, param or annotated let) — scan the type.
        if code[i].kind == TokKind::Ident
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && !code.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct(':'))
        {
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < code.len() && j < i + 40 {
                let t = &code[j];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                    if angle < 0 {
                        break;
                    }
                } else if angle == 0
                    && (t.is_punct(',')
                        || t.is_punct(';')
                        || t.is_punct('=')
                        || t.is_punct('{')
                        || t.is_punct('}')
                        || t.is_punct(')'))
                {
                    break;
                } else if t.is_ident("i128") {
                    i128s.insert(code[i].text.clone());
                }
                j += 1;
            }
        }
        // `let [mut] name = <init>;` — scan the initializer.
        if code[i].is_ident("let") {
            let mut k = i + 1;
            if code.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let Some(name) = code.get(k).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            // Find the `=` of this let (skip a type ascription).
            let mut j = k + 1;
            let mut angle = 0i32;
            let mut eq = None;
            while j < code.len() && j < k + 40 {
                let t = &code[j];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                } else if t.is_punct(';') && angle <= 0 {
                    break;
                } else if t.is_punct('=') && angle <= 0 {
                    // `==`, `>=` etc. never follow a type; plain `=` does.
                    if !code.get(j + 1).is_some_and(|n| n.is_punct('=')) {
                        eq = Some(j);
                        break;
                    }
                }
                j += 1;
            }
            let Some(eq) = eq else { continue };
            let mut depth = 0i32;
            let mut j = eq + 1;
            while j < code.len() {
                let t = &code[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    break;
                } else if t.is_ident("i128") {
                    i128s.insert(name.text.clone());
                }
                j += 1;
            }
        }
    }
    i128s
}

/// Extracts `lint:allow(rule-a,rule-b): reason` annotations from comments.
/// Doc comments (`///`, `//!`, `/**`, `/*!`) are prose attached to an item
/// — mentioning the syntax there must neither suppress anything nor trip
/// `bad-suppression`, so they are skipped.
fn parse_suppressions(toks: &[Tok]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = t.text.find("lint:allow(") else {
            continue;
        };
        let rest = &t.text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let after = &rest[close + 1..];
        let reason = after
            .strip_prefix(':')
            .map(|r| r.trim_end_matches("*/").trim().to_string())
            .unwrap_or_default();
        out.push(Suppression {
            line: t.line,
            rules,
            reason,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_scope_tracking() {
        let src = "\
fn prod() { body(); }
#[cfg(test)]
mod tests {
    fn helper() { x(); }
}
fn prod2() { y(); }
";
        let toks = tokenize(src);
        let ctx = build_file_ctx("crates/x/src/lib.rs", src, &toks);
        let flag_of = |name: &str| {
            let i = ctx.code.iter().position(|t| t.is_ident(name)).unwrap();
            ctx.in_test[i]
        };
        assert!(!flag_of("body"));
        assert!(flag_of("helper"));
        assert!(flag_of("x"));
        assert!(!flag_of("y"));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "#[cfg(not(test))]\nfn release_only() { z(); }\n";
        let toks = tokenize(src);
        let ctx = build_file_ctx("crates/x/src/lib.rs", src, &toks);
        let i = ctx.code.iter().position(|t| t.is_ident("z")).unwrap();
        assert!(!ctx.in_test[i]);
    }

    #[test]
    fn cfg_test_use_does_not_leak() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() { q(); }\n";
        let toks = tokenize(src);
        let ctx = build_file_ctx("crates/x/src/lib.rs", src, &toks);
        let i = ctx.code.iter().position(|t| t.is_ident("q")).unwrap();
        assert!(!ctx.in_test[i]);
    }

    #[test]
    fn tests_directory_is_all_test() {
        let src = "fn anything() { a.unwrap(); }\n";
        let toks = tokenize(src);
        let ctx = build_file_ctx("crates/x/tests/it.rs", src, &toks);
        assert!(ctx.in_test.iter().all(|&f| f));
    }

    #[test]
    fn typed_ident_collection() {
        let src = "\
struct S { lo: i128, names: Vec<String> }
fn f(seen: &mut HashSet<u32>) {
    let lam = lp.lambda(inst, z, a) as i128;
    let ivals: Vec<(i128, i128)> = Vec::new();
    let plain = 3;
}
";
        let toks = tokenize(src);
        let ctx = build_file_ctx("crates/x/src/lib.rs", src, &toks);
        assert!(ctx.i128_idents.contains("lo"));
        assert!(!ctx.i128_idents.contains("names"));
        assert!(!ctx.i128_idents.contains("seen"));
        assert!(ctx.i128_idents.contains("lam"));
        assert!(ctx.i128_idents.contains("ivals"));
        assert!(!ctx.i128_idents.contains("plain"));
    }

    #[test]
    fn suppression_parsing() {
        let src = "\
let a = 1; // lint:allow(panic-path): buffer is non-empty by construction
// lint:allow(panic-path,overflow-arith): widened to i128 first
// lint:allow(panic-path)
";
        let toks = tokenize(src);
        let sups = parse_suppressions(&toks);
        assert_eq!(sups.len(), 3);
        assert_eq!(sups[0].rules, ["panic-path"]);
        assert!(sups[0].reason.starts_with("buffer is non-empty"));
        assert_eq!(sups[1].rules, ["panic-path", "overflow-arith"]);
        assert!(sups[2].reason.is_empty());
    }

    #[test]
    fn doc_comments_are_not_suppressions() {
        let src = "\
/// Write `// lint:allow(panic-path): <why>` to suppress.
//! The syntax is lint:allow(overflow-arith): reason.
fn f() {}
";
        let toks = tokenize(src);
        assert!(parse_suppressions(&toks).is_empty());
    }

    #[test]
    fn missing_reason_is_a_finding() {
        let src = "fn f() {} // lint:allow(panic-path)\n";
        let out = lint_source("crates/x/src/lib.rs", src, &LintConfig::all());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, BAD_SUPPRESSION);
    }

    #[test]
    fn unknown_rule_in_allow_is_a_finding() {
        let src = "fn f() {} // lint:allow(no-such-rule): because\n";
        let out = lint_source("crates/x/src/lib.rs", src, &LintConfig::all());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, BAD_SUPPRESSION);
        assert!(out[0].message.contains("no-such-rule"));
    }

    #[test]
    fn subset_rejects_unknown_rule_names() {
        assert!(LintConfig::subset(&["panic-path"]).is_ok());
        let err = LintConfig::subset(&["panics"]).unwrap_err();
        assert!(err.contains("unknown rule 'panics'"));
    }
}
