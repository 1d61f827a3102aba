//! Findings and their two renderings: human-readable lines for terminals
//! and a stable JSON report for CI artifacts. No serde — the shape is a
//! handful of flat fields, written with a hand-rolled escaper so key order
//! (and therefore the bytes) can never drift with a library upgrade.

use std::fmt::Write as _;

/// Version of the JSON report shape. Bump when a key is added, removed or
/// reordered so downstream consumers can dispatch instead of guessing.
/// History: v1 was a bare findings array with no columns; v2 wraps it in
/// an object, adds `schema_version`/`files_scanned` and per-finding `col`.
pub const SCHEMA_VERSION: u32 = 2;

/// One lint finding, anchored to a file, line and column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes on every platform).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (chars) of the offending token.
    pub col: u32,
    /// Rule id (`panic-path`, `lock-order`, ...).
    pub rule: &'static str,
    /// What is wrong and why it matters.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Renders findings as `file:line:col: [rule] message` blocks with the
/// offending line indented underneath — the format grep and editors
/// understand.
pub fn render_human(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}",
            f.file, f.line, f.col, f.rule, f.message
        );
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "    {}", f.snippet);
        }
    }
    let _ = writeln!(
        out,
        "{} finding{} in {} file{} scanned",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        files_scanned,
        if files_scanned == 1 { "" } else { "s" },
    );
    out
}

/// Renders the JSON report: a single object with `schema_version`,
/// `files_scanned` and a `findings` array, one object per finding, keys
/// always in the order `file, line, col, rule, message, snippet`.
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"schema_version\":{SCHEMA_VERSION},");
    let _ = write!(out, "\"files_scanned\":{files_scanned},");
    out.push_str("\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        let _ = write!(out, "\"file\":{},", json_str(&f.file));
        let _ = write!(out, "\"line\":{},", f.line);
        let _ = write!(out, "\"col\":{},", f.col);
        let _ = write!(out, "\"rule\":{},", json_str(f.rule));
        let _ = write!(out, "\"message\":{},", json_str(&f.message));
        let _ = write!(out, "\"snippet\":{}", json_str(&f.snippet));
        out.push('}');
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> Finding {
        Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 13,
            rule: "panic-path",
            message: "`.unwrap()` on a hot path".into(),
            snippet: "let v = m.get(&k).unwrap();".into(),
        }
    }

    #[test]
    fn human_format_is_grepable() {
        let s = render_human(&[f()], 3);
        assert!(s.starts_with("crates/x/src/lib.rs:7:13: [panic-path] "));
        assert!(s.contains("1 finding in 3 files scanned"));
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut bad = f();
        bad.message = "quote \" backslash \\ tab\t".into();
        let s = render_json(&[bad], 3);
        assert!(s.contains(r#""rule":"panic-path""#));
        assert!(s.contains(r#"quote \" backslash \\ tab\t"#));
        // Key order is part of the byte-stable contract.
        let file_at = s.find("\"file\"").unwrap();
        let line_at = s.find("\"line\"").unwrap();
        let col_at = s.find("\"col\"").unwrap();
        let rule_at = s.find("\"rule\"").unwrap();
        assert!(file_at < line_at && line_at < col_at && col_at < rule_at);
    }

    #[test]
    fn empty_json_is_a_versioned_envelope() {
        assert_eq!(
            render_json(&[], 212),
            "{\"schema_version\":2,\"files_scanned\":212,\"findings\":[]}\n"
        );
    }

    /// Golden test: the exact bytes of a one-finding report. Any change to
    /// key order, separators or escaping must be deliberate enough to edit
    /// this string and bump [`SCHEMA_VERSION`].
    #[test]
    fn json_golden_bytes() {
        let got = render_json(&[f()], 5);
        let want = concat!(
            "{\"schema_version\":2,\"files_scanned\":5,\"findings\":[\n",
            "  {\"file\":\"crates/x/src/lib.rs\",\"line\":7,\"col\":13,",
            "\"rule\":\"panic-path\",\"message\":\"`.unwrap()` on a hot path\",",
            "\"snippet\":\"let v = m.get(&k).unwrap();\"}\n",
            "]}\n"
        );
        assert_eq!(got, want);
    }
}
