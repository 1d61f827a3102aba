//! A lightweight Rust tokenizer — just enough lexical structure for the
//! lint rules: comments and string/char literals are recognized (so rule
//! patterns never fire inside them), identifiers and punctuation come out
//! as individual tokens, and every token carries its 1-based source line
//! and column.
//!
//! This is deliberately **not** a parser. The rules in [`crate::rules`]
//! match short token sequences (`. unwrap ( )`, `. iter ( )`, ...),
//! which is exactly the granularity a tokenizer provides; building a full
//! grammar would buy nothing for these checks and cost a dependency or a
//! thousand lines of tree plumbing. The workspace pass in [`crate::parse`]
//! adds the one structural fact token patterns cannot express — brace-matched
//! function bodies — without changing that bargain.

/// Lexical class of a [`Tok`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `for`, `HashMap`).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal (`42`, `0x7f`, `1_000i64`, `2.5`).
    Num,
    /// String or byte-string literal: `"..."`, `r#"..."#`, `b"..."`,
    /// `br"..."`. `text` keeps the raw source form including the prefix
    /// and quotes.
    Str,
    /// Char or byte literal: `'x'`, `b'\n'`.
    Char,
    /// A single punctuation character (`.`, `(`, `+`, ...). Multi-char
    /// operators appear as consecutive `Punct` tokens.
    Punct,
    /// `// ...` comment (doc comments included); `text` keeps the slashes.
    LineComment,
    /// `/* ... */` comment (nesting handled); may span lines.
    BlockComment,
}

/// One token: kind, verbatim source text, and the 1-based line and column
/// it starts on.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Lexical class.
    pub kind: TokKind,
    /// Verbatim source text of the token.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
    /// 1-based column (in chars) of the token's first character.
    pub col: u32,
}

impl Tok {
    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// Tokenizes Rust source. Unterminated literals or comments are tolerated
/// (the remainder becomes one token): a linter must keep going on files the
/// compiler would reject.
pub fn tokenize(src: &str) -> Vec<Tok> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            src,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, tracking newlines and columns.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Vec<Tok> {
        let _ = self.src; // lifetime anchor; tokens own their text
        let mut out = Vec::new();
        while let Some(c) = self.peek(0) {
            let line = self.line;
            let col = self.col;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => out.push(self.line_comment(line, col)),
                '/' if self.peek(1) == Some('*') => out.push(self.block_comment(line, col)),
                '"' => out.push(self.string(line, col, String::new())),
                'r' if matches!(self.peek(1), Some('"') | Some('#')) && self.raw_ahead(1) => {
                    self.bump();
                    out.push(self.raw_string(line, col, "r".into()));
                }
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    out.push(self.string(line, col, "b".into()));
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.bump();
                    out.push(self.char_lit(line, col, "b'".into()));
                }
                'b' if self.peek(1) == Some('r') && self.raw_ahead(2) => {
                    self.bump();
                    self.bump();
                    out.push(self.raw_string(line, col, "br".into()));
                }
                '\'' => out.push(self.quote(line, col)),
                c if c.is_ascii_digit() => out.push(self.number(line, col)),
                c if c.is_alphabetic() || c == '_' => out.push(self.ident(line, col)),
                _ => {
                    self.bump();
                    out.push(Tok {
                        kind: TokKind::Punct,
                        text: c.to_string(),
                        line,
                        col,
                    });
                }
            }
        }
        out
    }

    /// Whether `r`/`br` at the current position starts a raw string: the
    /// prefix is followed by zero or more `#` and then a quote.
    fn raw_ahead(&self, from: usize) -> bool {
        let mut i = from;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn line_comment(&mut self, line: u32, col: u32) -> Tok {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        Tok {
            kind: TokKind::LineComment,
            text,
            line,
            col,
        }
    }

    fn block_comment(&mut self, line: u32, col: u32) -> Tok {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.bump() {
            text.push(c);
            let n = text.len();
            if n >= 2 && text.ends_with("/*") {
                depth += 1;
            } else if n >= 2 && text.ends_with("*/") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        Tok {
            kind: TokKind::BlockComment,
            text,
            line,
            col,
        }
    }

    /// Regular (escaped) string; `prefix` is `""` or `"b"`. Consumes the
    /// opening quote itself.
    fn string(&mut self, line: u32, col: u32, prefix: String) -> Tok {
        let mut text = prefix;
        text.push('"');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if c == '"' {
                break;
            }
        }
        Tok {
            kind: TokKind::Str,
            text,
            line,
            col,
        }
    }

    /// Raw string starting at the `#`-or-quote position; `prefix` is the
    /// already-consumed `r`/`br`.
    fn raw_string(&mut self, line: u32, col: u32, prefix: String) -> Tok {
        let mut text = prefix;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        text.push('"');
        self.bump(); // opening quote
        let closer: String = std::iter::once('"')
            .chain("#".repeat(hashes).chars())
            .collect();
        while let Some(c) = self.bump() {
            text.push(c);
            if text.ends_with(&closer) {
                break;
            }
        }
        Tok {
            kind: TokKind::Str,
            text,
            line,
            col,
        }
    }

    /// `'` at the current position: lifetime or char literal.
    fn quote(&mut self, line: u32, col: u32) -> Tok {
        // Lifetime: 'ident not followed by a closing quote ('a, 'static).
        if let Some(c1) = self.peek(1) {
            if (c1.is_alphabetic() || c1 == '_') && self.peek(2) != Some('\'') {
                self.bump(); // '
                let mut text = String::from("'");
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                return Tok {
                    kind: TokKind::Lifetime,
                    text,
                    line,
                    col,
                };
            }
        }
        self.bump(); // opening '
        self.char_lit(line, col, "'".into())
    }

    /// Char literal body after the opening quote(s) in `text`.
    fn char_lit(&mut self, line: u32, col: u32, mut text: String) -> Tok {
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if c == '\'' {
                break;
            }
        }
        Tok {
            kind: TokKind::Char,
            text,
            line,
            col,
        }
    }

    fn number(&mut self, line: u32, col: u32) -> Tok {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.'
                && self.peek(1) != Some('.')
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                // Float dot — but never eat the `..` of a range.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        Tok {
            kind: TokKind::Num,
            text,
            line,
            col,
        }
    }

    fn ident(&mut self, line: u32, col: u32) -> Tok {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        Tok {
            kind: TokKind::Ident,
            text,
            line,
            col,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let t = kinds("let x = m.iter();");
        let texts: Vec<&str> = t.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "m", ".", "iter", "(", ")", ";"]);
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let t = kinds("a // m.iter()\nb /* x.unwrap() */ c");
        let code: Vec<&str> = t
            .iter()
            .filter(|(k, _)| !matches!(k, TokKind::LineComment | TokKind::BlockComment))
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(code, ["a", "b", "c"]);
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokKind::LineComment && s.contains("m.iter()")));
    }

    #[test]
    fn nested_block_comment() {
        let t = kinds("/* outer /* inner */ still */ x");
        assert_eq!(t.len(), 2);
        assert_eq!(t[1].1, "x");
    }

    #[test]
    fn strings_swallow_their_content() {
        let t = kinds(r#"let s = "no .unwrap() here"; t"#);
        assert!(t.iter().all(|(_, s)| s != "unwrap"));
        assert!(t.iter().any(|(k, _)| *k == TokKind::Str));
    }

    #[test]
    fn raw_and_byte_strings() {
        let t = kinds(r##"let a = r#"raw "x" body"#; let b = b"MQDC"; let c = br"rb";"##);
        let strs: Vec<_> = t.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 3);
        assert_eq!(strs[1].1, "b\"MQDC\"");
        assert_eq!(strs[2].1, "br\"rb\"");
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let t = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = t.iter().filter(|(k, _)| *k == TokKind::Lifetime).count();
        let chars = t.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let t = kinds("for i in 0..10 {}");
        let texts: Vec<&str> = t.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(texts, ["for", "i", "in", "0", ".", ".", "10", "{", "}"]);
    }

    #[test]
    fn float_and_suffixed_numbers() {
        let t = kinds("let x = 2.5 + 1_000i64;");
        let nums: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(nums, ["2.5", "1_000i64"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let t = tokenize("a\nb\n\nc /* x\ny */ d");
        let find = |s: &str| t.iter().find(|tok| tok.text == s).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 2);
        assert_eq!(find("c"), 4);
        assert_eq!(find("d"), 5);
    }

    #[test]
    fn columns_track_token_starts() {
        let t = tokenize("let x = m.iter();\n    y.recv()");
        let find = |s: &str| {
            let tok = t.iter().find(|tok| tok.text == s).unwrap();
            (tok.line, tok.col)
        };
        assert_eq!(find("let"), (1, 1));
        assert_eq!(find("x"), (1, 5));
        assert_eq!(find("iter"), (1, 11));
        assert_eq!(find("y"), (2, 5));
        assert_eq!(find("recv"), (2, 7));
    }

    #[test]
    fn columns_reset_after_multiline_tokens() {
        let t = tokenize("/* a\nb */ x");
        let x = t.iter().find(|tok| tok.text == "x").unwrap();
        assert_eq!((x.line, x.col), (2, 6));
    }

    #[test]
    fn byte_char_literal() {
        let t = kinds("if buf.last() == Some(&b'\\n') { }");
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokKind::Char && s.starts_with("b'")));
    }
}
