//! `blocking-call`: unbounded blocking inside worker/supervisor code.
//!
//! The bug class: PR 4's worker pool deadlocked a 1-CPU host because
//! connection handling blocked inside a pool sized below the number of
//! simultaneously-blocked tasks. `recv()` with no timeout, `join()` on a
//! thread that never exits, or `read_line` on a socket with no read
//! timeout are all invisible until the one deployment where they wedge.
//!
//! Every such call in `mqd-server`/`mqd-stream`/`mqd-par`/`mqd-load` (a
//! wedged lane thread stalls the whole paced run past its deadline — the
//! harness must outlive any server misbehavior it provokes), the CLI, and
//! the offline tools (`mqd-datagen`, `mqd-bench` — a hung generator wedges
//! a CI job just as surely) must either use the `_timeout` variant or
//! carry a `// lint:allow(blocking-call): <why this blocks only boundedly>`
//! justification — the annotation IS the documentation the next reader
//! needs.

use crate::engine::FileCtx;
use crate::report::Finding;
use crate::rules::{in_scope, method_call};

pub const ID: &str = "blocking-call";

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !in_scope(ID, ctx.rel) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &ctx.code[i];
        // `.recv()` — the channel variant with no timeout. (`recv_timeout`
        // is a different identifier and never matches.)
        if method_call(ctx, i, "recv").is_some()
            && ctx.code.get(i + 3).is_some_and(|p| p.is_punct(')'))
        {
            out.push(
                ctx.finding(
                    t.line,
                    ID,
                    "`recv()` with no timeout blocks a worker forever if the sender wedges \
                 (the PR 4 pool-deadlock class); use recv_timeout, or justify the bound \
                 with lint:allow"
                        .into(),
                ),
            );
        }
        // `.join()` — thread join (argument-less; `Path::join(..)` and
        // `slice::join(sep)` take arguments and never match).
        if method_call(ctx, i, "join").is_some()
            && ctx.code.get(i + 3).is_some_and(|p| p.is_punct(')'))
        {
            out.push(
                ctx.finding(
                    t.line,
                    ID,
                    "`join()` blocks until the thread exits — unbounded if the worker loops; \
                 justify why the joined thread terminates with lint:allow"
                        .into(),
                ),
            );
        }
        // `.read_line(..)` — unbounded if the peer stalls mid-line.
        if method_call(ctx, i, "read_line").is_some() {
            out.push(
                ctx.finding(
                    t.line,
                    ID,
                    "`read_line` blocks until a newline arrives — unbounded on a socket with \
                 no read timeout; set a timeout or justify with lint:allow"
                        .into(),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{lint_source, LintConfig};

    const PATH: &str = "crates/mqd-server/src/server.rs";

    fn lint(src: &str) -> Vec<crate::report::Finding> {
        lint_source(PATH, src, &LintConfig::subset(&[super::ID]).unwrap())
    }

    #[test]
    fn flags_bare_recv_join_read_line() {
        let src = "\
fn worker(rx: &Receiver<Conn>, h: JoinHandle<()>, r: &mut BufReader<TcpStream>) {
    let conn = rx.recv();
    h.join();
    let mut line = String::new();
    r.read_line(&mut line);
}
";
        let out = lint(src);
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 3, 5]);
    }

    #[test]
    fn timeout_variants_are_clean() {
        let src = "\
fn worker(rx: &Receiver<Conn>) {
    let conn = rx.recv_timeout(Duration::from_millis(100));
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn join_with_arguments_is_not_thread_join() {
        let src = "\
fn f(dir: &Path, parts: &[String]) -> PathBuf {
    let s = parts.join(\", \");
    dir.join(s)
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn annotated_site_is_clean() {
        let src = "\
fn worker(rx: &Receiver<Conn>) {
    // lint:allow(blocking-call): acceptor drop closes the channel; recv returns Err
    let conn = rx.recv();
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn out_of_scope_crate_is_clean() {
        let out = lint_source(
            "crates/mqd-text/src/tokenize.rs",
            "fn f(rx: &Receiver<u8>) { rx.recv(); }",
            &LintConfig::subset(&[super::ID]).unwrap(),
        );
        assert!(out.is_empty());
    }
}
