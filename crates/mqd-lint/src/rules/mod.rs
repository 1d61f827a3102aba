//! The rule catalog. File rules are token-pattern checks over one file,
//! scoped by workspace path to the modules where their bug class actually
//! bites; workspace rules run over the two-pass cross-file context —
//! item tree, per-function facts, call graph (see DESIGN.md §13 for the
//! incident history behind each rule).

use crate::callgraph::WorkspaceCtx;
use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::report::Finding;

mod durability;
mod guard_blocking;
mod lock_order;
mod nondet;
mod overflow;
mod panics;
mod unchecked_len;

/// A rule's check: per-file token patterns, or a workspace-level analysis
/// over the call-graph context.
pub enum Check {
    /// Runs once per file.
    File(fn(&FileCtx, &mut Vec<Finding>)),
    /// Runs once over the whole scanned set.
    Workspace(fn(&WorkspaceCtx, &mut Vec<Finding>)),
}

/// One lint rule: stable id, one-line summary, and the check.
pub struct Rule {
    /// Stable rule id — what `--rules` and `lint:allow(...)` name.
    pub id: &'static str,
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
    /// The check itself.
    pub check: Check,
}

/// Every rule, in reporting order.
pub const ALL: &[Rule] = &[
    Rule {
        id: nondet::ID,
        summary: "HashMap/HashSet iteration in determinism-critical modules",
        check: Check::File(nondet::check),
    },
    Rule {
        id: panics::ID,
        summary: "unwrap/expect/panic!/risky indexing on serving hot paths",
        check: Check::File(panics::check),
    },
    Rule {
        id: overflow::ID,
        summary: "raw i64 arithmetic on F/lambda values outside the i128 helpers",
        check: Check::File(overflow::check),
    },
    Rule {
        id: durability::ID,
        summary: "raw filesystem mutation in mqd-wal outside the fsio module",
        check: Check::File(durability::check),
    },
    Rule {
        id: lock_order::ID,
        summary: "lock-acquisition-order cycles across the call graph (ABBA deadlocks)",
        check: Check::Workspace(lock_order::check),
    },
    Rule {
        id: guard_blocking::ID,
        summary: "blocking I/O, recv/join or fsync while a lock guard is live",
        check: Check::Workspace(guard_blocking::check),
    },
    Rule {
        id: unchecked_len::ID,
        summary: "wire-decoded lengths reaching allocations without plausible_len",
        check: Check::Workspace(unchecked_len::check),
    },
];

/// Where each path-scoped rule runs: a file is in a rule's scope when its
/// workspace-relative path starts with one of the rule's prefixes (a
/// source directory, or a single file). The reasons are in each rule's
/// module docs; `tests/catalog.rs` checks that every id is in [`ALL`] and
/// every prefix still names a path on disk, so deleting a crate fails the
/// catalog instead of silently shrinking a rule's scope. Rules absent
/// from this table run everywhere but their sanctioned home module.
pub const SCOPES: &[(&str, &[&str])] = &[
    (
        nondet::ID,
        &[
            "crates/mqd-core/src/algorithms",
            "crates/mqd-store/src",
            "crates/mqd-server/src/protocol.rs",
            // Renders the byte-compared `"served"` STATS fragment.
            "crates/mqd-server/src/conn.rs",
            "crates/mqd-stream/src",
            "crates/mqd-router/src",
            "crates/mqd-load/src",
            "crates/mqd-cli/src",
            "crates/mqd-datagen/src",
            "crates/mqd-bench/src",
        ],
    ),
    (
        panics::ID,
        &[
            "crates/mqd-server/src",
            "crates/mqd-stream/src",
            "crates/mqd-store/src",
            "crates/mqd-wal/src",
            "crates/mqd-router/src",
            "crates/mqd-load/src",
            "crates/mqd-cli/src",
            "crates/mqd-datagen/src",
            "crates/mqd-bench/src",
        ],
    ),
];

/// Whether `rel` is in `rule`'s [`SCOPES`] row.
pub(crate) fn in_scope(rule: &str, rel: &str) -> bool {
    SCOPES
        .iter()
        .any(|(id, prefixes)| *id == rule && prefixes.iter().any(|p| rel.starts_with(p)))
}

/// `code[i..]` starts the method call `.name(` — returns the index of the
/// opening paren.
pub(crate) fn method_call(ctx: &FileCtx, i: usize, name: &str) -> Option<usize> {
    if ctx.code[i].is_punct('.')
        && ctx.code.get(i + 1).is_some_and(|t| t.is_ident(name))
        && ctx.code.get(i + 2).is_some_and(|t| t.is_punct('('))
    {
        Some(i + 2)
    } else {
        None
    }
}

/// Whether `code[i]` sits in an expression position where a preceding
/// value exists — i.e. a following `[` is indexing and a following
/// `+`/`-`/`*` is a binary operator.
pub(crate) fn after_value(ctx: &FileCtx, i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| ctx.code.get(p)) else {
        return false;
    };
    matches!(prev.kind, TokKind::Ident | TokKind::Num) || prev.is_punct(')') || prev.is_punct(']')
}
