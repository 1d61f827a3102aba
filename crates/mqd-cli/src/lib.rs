//! Library backing the `mqdiv` command-line tool: the subcommand
//! implementations (`gen`, `match`, `diversify`, `stream`).
//! Everything operates on generic readers/writers so the behaviour is
//! covered by unit tests; `main.rs` only parses flags and wires files.

#![warn(missing_docs)]

pub mod commands;
pub mod lint;
pub mod load;
pub mod serve;
