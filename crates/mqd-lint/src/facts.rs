//! Intraprocedural facts for the workspace pass: per function, which lock
//! guards are created (and where they die), which blocking operations run,
//! and which calls go out — each annotated with the set of guards live at
//! that point. The cross-file rules (`lock-order`, `guard-held-blocking`)
//! are then pure graph walks over these facts.
//!
//! Guard model, in token terms:
//! - `let [mut] g = <expr>;` where `<expr>` acquires (argless `.lock()`,
//!   `.read()`, `.write()`, or the workspace's `lock_or_poisoned` /
//!   `read_or_poisoned` / `write_or_poisoned` helpers) binds guard `g`,
//!   live until its enclosing brace scope closes or an explicit `drop(g)`.
//! - An acquisition with no `let` (a temporary, e.g.
//!   `m.lock().unwrap().push(x)`) is live to the end of its statement.
//! - The *lock name* is the last path segment of the receiver
//!   (`state.cache.lock()` → `cache`) or of the helper's first argument
//!   (`lock_or_poisoned(&state.subs, "subs")` → `subs`). Names are global:
//!   two files locking `cache` refer to the same lock as far as the order
//!   graph is concerned — a deliberate over-approximation that trades rare
//!   false aliasing for zero type-resolution machinery.
//! - `stdout`/`stderr`/`stdin` receivers are exempt: `io::stdout().lock()`
//!   is a reentrant stream handle, not an app mutex.

use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::parse::FnItem;

/// A source position (1-based line and column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One guard live at some point: which lock it holds and where it was
/// acquired.
#[derive(Clone, Debug)]
pub struct HeldGuard {
    /// Lock name (last path segment of the receiver).
    pub lock: String,
    /// Where the guard was acquired.
    pub site: Site,
}

/// One lock acquisition, with the guards already live when it happened —
/// each pair (held, acquired) is an edge in the global lock-order graph.
#[derive(Clone, Debug)]
pub struct Acquire {
    /// Lock being acquired.
    pub lock: String,
    /// Acquisition site.
    pub site: Site,
    /// Guards live at the moment of acquisition.
    pub held: Vec<HeldGuard>,
}

/// One blocking operation (unbounded recv/join, line-buffered socket read,
/// or fsync) and the guards live across it.
#[derive(Clone, Debug)]
pub struct Blocking {
    /// Human label: `recv()`, `join()`, `read_line`, `sync_all (fsync)`...
    pub what: &'static str,
    /// Where the blocking operation runs.
    pub site: Site,
    /// Guards live across the block.
    pub held: Vec<HeldGuard>,
}

/// One outgoing call, by bare callee name, with the guards live at the
/// call site. All calls are recorded (not just guarded ones): lock
/// acquisitions propagate through unguarded intermediate frames too.
#[derive(Clone, Debug)]
pub struct Call {
    /// Bare callee name.
    pub callee: String,
    /// Call site.
    pub site: Site,
    /// Guards live at the call.
    pub held: Vec<HeldGuard>,
}

/// Everything the workspace rules need to know about one function.
#[derive(Clone, Debug)]
pub struct FnFacts {
    /// Bare function name.
    pub name: String,
    /// Index of the defining file in `WorkspaceCtx::files`.
    pub file: usize,
    /// Site of the `fn` keyword.
    pub site: Site,
    /// Every lock acquisition, in token order.
    pub acquires: Vec<Acquire>,
    /// Every direct blocking operation, in token order.
    pub blocking: Vec<Blocking>,
    /// Every outgoing call, in token order.
    pub calls: Vec<Call>,
}

/// Acquisition method names (argless method form).
const ACQ_METHODS: &[&str] = &["lock", "read", "write"];
/// The workspace's poison-tolerant acquisition helpers (free-fn form).
const ACQ_HELPERS: &[&str] = &["lock_or_poisoned", "read_or_poisoned", "write_or_poisoned"];
/// Std stream handles whose `.lock()` is not an app mutex.
const STREAM_RECEIVERS: &[&str] = &["stdout", "stderr", "stdin"];
/// Identifiers that never name an outgoing workspace call.
const NON_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "drop", "Some", "Ok", "Err",
];

/// Extracts facts for every non-test function of one file. `file` is the
/// file's index in the workspace context.
pub fn extract(ctx: &FileCtx, items: &[FnItem], file: usize) -> Vec<FnFacts> {
    let mut out = Vec::new();
    for (k, item) in items.iter().enumerate() {
        if ctx.in_test.get(item.body_open).copied().unwrap_or(false) {
            continue; // test-only fn — workspace rules skip test code
        }
        // Token ranges of fns nested inside this one, to skip.
        let nested: Vec<(usize, usize)> = items
            .iter()
            .enumerate()
            .filter(|(j, other)| *j != k && item.contains(other))
            .map(|(_, other)| (other.body_open, other.body_close))
            .collect();
        out.push(walk_body(ctx, item, &nested, file));
    }
    out
}

/// A guard currently live during the body walk.
struct Guard {
    /// Binding name, or `None` for a statement temporary.
    name: Option<String>,
    lock: String,
    /// Brace depth (relative to the body) the binding lives at.
    depth: u32,
    site: Site,
}

fn snapshot(live: &[Guard]) -> Vec<HeldGuard> {
    live.iter()
        .map(|g| HeldGuard {
            lock: g.lock.clone(),
            site: g.site,
        })
        .collect()
}

fn walk_body(ctx: &FileCtx, item: &FnItem, nested: &[(usize, usize)], file: usize) -> FnFacts {
    let code = &ctx.code;
    let mut facts = FnFacts {
        name: item.name.clone(),
        file,
        site: Site {
            line: item.line,
            col: item.col,
        },
        acquires: Vec::new(),
        blocking: Vec::new(),
        calls: Vec::new(),
    };
    let mut live: Vec<Guard> = Vec::new();
    let mut depth = 0u32;
    let mut i = item.body_open;
    while i <= item.body_close && i < code.len() {
        if let Some(&(_, close)) = nested.iter().find(|&&(open, _)| open == i) {
            i = close + 1; // nested fn body: its own FnFacts covers it
            continue;
        }
        let t = &code[i];
        let site = Site {
            line: t.line,
            col: t.col,
        };
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            live.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
        } else if t.is_punct(';') {
            // Statement temporaries die at their statement's semicolon.
            live.retain(|g| !(g.name.is_none() && g.depth == depth));
        } else if t.is_ident("drop")
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(name) = code.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                live.retain(|g| g.name.as_deref() != Some(name.text.as_str()));
            }
        } else if let Some(lock) = acquisition(code, i) {
            facts.acquires.push(Acquire {
                lock: lock.clone(),
                site,
                held: snapshot(&live),
            });
            match let_binding(code, item.body_open, i, depth) {
                Some((name, bind_depth)) => live.push(Guard {
                    name: Some(name),
                    lock,
                    depth: bind_depth,
                    site,
                }),
                None => live.push(Guard {
                    name: None,
                    lock,
                    depth,
                    site,
                }),
            }
        } else if let Some(what) = blocking_op(code, i) {
            facts.blocking.push(Blocking {
                what,
                site,
                held: snapshot(&live),
            });
        } else if t.kind == TokKind::Ident
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !NON_CALLS.iter().any(|n| t.is_ident(n))
            && !ACQ_METHODS.iter().any(|n| t.is_ident(n))
            && !ACQ_HELPERS.iter().any(|n| t.is_ident(n))
            && !i
                .checked_sub(1)
                .and_then(|p| code.get(p))
                .is_some_and(|p| p.is_ident("fn"))
        {
            facts.calls.push(Call {
                callee: t.text.clone(),
                site,
                held: snapshot(&live),
            });
        }
        i += 1;
    }
    facts
}

/// If `code[i]` is an acquisition, returns the lock name.
fn acquisition(code: &[crate::lexer::Tok], i: usize) -> Option<String> {
    let t = &code[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    // Method form: `<recv>.lock()` / argless `.read()` / argless `.write()`.
    if ACQ_METHODS.iter().any(|m| t.is_ident(m))
        && i >= 2
        && code[i - 1].is_punct('.')
        && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        && code.get(i + 2).is_some_and(|n| n.is_punct(')'))
    {
        let recv = receiver_name(code, i - 2)?;
        if STREAM_RECEIVERS.iter().any(|s| recv == *s) {
            return None;
        }
        return Some(recv);
    }
    // Helper form: `lock_or_poisoned(&state.cache, "cache")` — the lock is
    // the last path segment of the first argument.
    if ACQ_HELPERS.iter().any(|h| t.is_ident(h)) && code.get(i + 1).is_some_and(|n| n.is_punct('('))
    {
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut last_ident: Option<String> = None;
        while let Some(a) = code.get(j) {
            if a.is_punct('(') || a.is_punct('[') {
                depth += 1;
            } else if a.is_punct(')') || a.is_punct(']') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if a.is_punct(',') && depth == 0 {
                break;
            } else if a.kind == TokKind::Ident {
                last_ident = Some(a.text.clone());
            }
            j += 1;
        }
        return last_ident;
    }
    None
}

/// The last path segment of the receiver ending at `code[end]`:
/// `state.cache` → `cache`; `stdout()` → `stdout` (so the stream exemption
/// can see through the call parens).
fn receiver_name(code: &[crate::lexer::Tok], end: usize) -> Option<String> {
    let t = code.get(end)?;
    if t.kind == TokKind::Ident {
        return Some(t.text.clone());
    }
    if t.is_punct(')') {
        // Walk back over the balanced parens, then take the ident before.
        let mut depth = 0i32;
        let mut j = end;
        loop {
            let c = code.get(j)?;
            if c.is_punct(')') {
                depth += 1;
            } else if c.is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        let before = code.get(j.checked_sub(1)?)?;
        if before.kind == TokKind::Ident {
            return Some(before.text.clone());
        }
    }
    None
}

/// If the acquisition at `code[i]` sits in a `let` statement, returns the
/// bound name and the brace depth the binding lives at (`if let`/`while let`
/// bindings live in the block the condition opens, one level deeper).
fn let_binding(
    code: &[crate::lexer::Tok],
    floor: usize,
    i: usize,
    depth: u32,
) -> Option<(String, u32)> {
    // Scan back to the start of this statement.
    let mut j = i;
    let let_idx = loop {
        if j == floor {
            return None;
        }
        j -= 1;
        let t = &code[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if t.is_ident("let") {
            break j;
        }
    };
    let conditional = let_idx
        .checked_sub(1)
        .and_then(|p| code.get(p))
        .is_some_and(|p| p.is_ident("if") || p.is_ident("while"));
    // Pattern idents between `let` and `=`; the binding is the last one
    // that is not a pattern keyword or constructor.
    let mut name: Option<String> = None;
    let mut j = let_idx + 1;
    while j < i {
        let t = &code[j];
        if t.is_punct('=') {
            break;
        }
        if t.kind == TokKind::Ident
            && !t.is_ident("mut")
            && !t.is_ident("ref")
            && !t.is_ident("Ok")
            && !t.is_ident("Some")
            && !t.is_ident("Err")
        {
            name = Some(t.text.clone());
        }
        j += 1;
    }
    name.map(|n| (n, if conditional { depth + 1 } else { depth }))
}

/// If `code[i]` is a blocking operation, returns its label: unbounded
/// channel recv, thread join, line-buffered socket reads, plus fsync,
/// which is bounded but milliseconds-slow — exactly what must not run
/// under a guard.
fn blocking_op(code: &[crate::lexer::Tok], i: usize) -> Option<&'static str> {
    let t = &code[i];
    if t.kind != TokKind::Ident || i == 0 || !code[i - 1].is_punct('.') {
        return None;
    }
    let open = code.get(i + 1).is_some_and(|n| n.is_punct('('));
    if !open {
        return None;
    }
    let argless = code.get(i + 2).is_some_and(|n| n.is_punct(')'));
    match t.text.as_str() {
        "recv" if argless => Some("recv()"),
        "join" if argless => Some("join()"),
        "read_line" => Some("read_line"),
        "sync_all" if argless => Some("sync_all (fsync)"),
        "sync_data" if argless => Some("sync_data (fsync)"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_file_ctx;
    use crate::parse;

    fn facts_of(src: &str) -> Vec<FnFacts> {
        let toks = crate::lexer::tokenize(src);
        let ctx = build_file_ctx("crates/x/src/lib.rs", src, &toks);
        let items = parse::functions(&ctx.code);
        extract(&ctx, &items, 0)
    }

    #[test]
    fn guard_binding_and_scope_end() {
        let src = "\
fn f(state: &State) {
    let cache = state.cache.lock().unwrap();
    {
        let subs = state.subs.lock().unwrap();
        use_both(&cache, &subs);
    }
    after(&cache);
}
";
        let f = &facts_of(src)[0];
        assert_eq!(f.acquires.len(), 2);
        assert_eq!(f.acquires[0].lock, "cache");
        assert!(f.acquires[0].held.is_empty());
        assert_eq!(f.acquires[1].lock, "subs");
        assert_eq!(f.acquires[1].held.len(), 1);
        assert_eq!(f.acquires[1].held[0].lock, "cache");
        // `after` runs with only `cache` held — `subs` died at its brace.
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert_eq!(after.held.len(), 1);
        assert_eq!(after.held[0].lock, "cache");
    }

    #[test]
    fn helper_form_and_explicit_drop() {
        let src = "\
fn f(state: &State) {
    let store = read_or_poisoned(&state.store);
    let cache = lock_or_poisoned(&state.cache, \"cache\");
    drop(store);
    tail(&cache);
}
";
        let f = &facts_of(src)[0];
        assert_eq!(f.acquires[0].lock, "store");
        assert_eq!(f.acquires[1].lock, "cache");
        assert_eq!(f.acquires[1].held[0].lock, "store");
        let tail = f.calls.iter().find(|c| c.callee == "tail").unwrap();
        assert_eq!(tail.held.len(), 1, "store was dropped explicitly");
        assert_eq!(tail.held[0].lock, "cache");
    }

    #[test]
    fn statement_temporary_dies_at_semicolon() {
        let src = "\
fn f(m: &Mutex<Vec<u32>>) {
    m.lock().unwrap().push(1);
    tail();
}
";
        let f = &facts_of(src)[0];
        assert_eq!(f.acquires.len(), 1);
        let tail = f.calls.iter().find(|c| c.callee == "tail").unwrap();
        assert!(tail.held.is_empty());
    }

    #[test]
    fn blocking_under_guard_is_seen() {
        let src = "\
fn worker(rx: &Mutex<Receiver<u8>>) {
    let guard = rx.lock().unwrap();
    let item = guard.recv();
}
";
        let f = &facts_of(src)[0];
        assert_eq!(f.blocking.len(), 1);
        assert_eq!(f.blocking[0].what, "recv()");
        assert_eq!(f.blocking[0].held.len(), 1);
        assert_eq!(f.blocking[0].held[0].lock, "rx");
    }

    #[test]
    fn recv_timeout_and_argful_read_are_not_acquisitions_or_blocking() {
        let src = "\
fn f(rx: &Receiver<u8>, file: &mut File, buf: &mut [u8]) {
    let x = rx.recv_timeout(d);
    let n = file.read(buf);
}
";
        let f = &facts_of(src)[0];
        assert!(f.blocking.is_empty());
        assert!(f.acquires.is_empty(), "argful read() is io, not RwLock");
    }

    #[test]
    fn stdout_lock_is_exempt() {
        let src = "fn f() { let out = std::io::stdout().lock(); }\n";
        let f = &facts_of(src)[0];
        assert!(f.acquires.is_empty());
    }

    #[test]
    fn if_let_guard_dies_with_its_block() {
        let src = "\
fn f(m: &Mutex<u32>) {
    if let Ok(g) = m.lock() {
        inside(&g);
    }
    outside();
}
";
        let f = &facts_of(src)[0];
        let inside = f.calls.iter().find(|c| c.callee == "inside").unwrap();
        assert_eq!(inside.held.len(), 1);
        let outside = f.calls.iter().find(|c| c.callee == "outside").unwrap();
        assert!(outside.held.is_empty());
    }

    #[test]
    fn test_functions_are_excluded() {
        let src = "\
#[test]
fn t() { let g = m.lock().unwrap(); }
fn prod() { work(); }
";
        let fs = facts_of(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].name, "prod");
    }
}
