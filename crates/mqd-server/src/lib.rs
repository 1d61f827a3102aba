//! Zero-dependency TCP serving layer for MQDP queries.
//!
//! The offline pipeline answers one query per process; this crate turns the
//! workspace into a long-lived service: a multi-threaded TCP server that
//! holds an [`mqd_store::Store`], answers `QUERY` requests through the
//! canonical [`mqd_store::run_query`] path (with the generation-invalidated
//! cover cache in front), ingests posts one at a time (`INGEST`) or as MQDL
//! binary batches (`INGESTB`), replays `SUBSCRIBE` sessions through the
//! supervised `mqd-stream` engines, and reports `STATS`.
//!
//! Consistent with the workspace's offline-build policy, the server uses
//! only `std`. The transport half is the connection engine ([`conn`]), the
//! workspace's only accept/worker/framing loop, which `mqd-router` runs
//! too: an acceptor thread feeds a bounded [`std::sync::mpsc`] channel
//! drained by a worker pool sized via [`mqd_par::configured_threads`]. The
//! bounded channel **is** the admission controller — when it is full the
//! acceptor answers `-OVERLOADED` and closes, a typed response rather than a
//! dropped connection, mirroring the graceful-degradation philosophy of the
//! streaming supervisor. What a request means is a [`conn::Handler`]; this
//! crate's is the store-backed verb table behind [`Server`].
//!
//! The wire protocol ([`protocol`]) is line-oriented: one request line
//! (plus a raw binary body for `INGESTB`), one response of a status line
//! (`+OK <json>`, `-ERR <Kind> <msg>`, or `-OVERLOADED <msg>`), optional
//! payload lines, and a lone `.` terminator. Every malformed input maps to
//! a typed [`mqd_core::MqdError`] response, and a handler panic is caught
//! by the engine and answered typed on that one connection.
//!
//! [`protocol`] is also the only writer of the grammar: a request line is a
//! [`protocol::Request`] rendered by its `Display`, and a frame that is
//! read and written back out goes through [`protocol::write_response`] or
//! [`protocol::write_abort`], so the router, `mqd-load` and `mqdiv client`
//! speak the grammar the server parses. The read side is shared the same
//! way: [`Client`] is the blocking client, and [`LineReader`], the
//! engine's timeout-tolerant line reader, is exported for `mqd-load`'s
//! lane readers.

#![warn(missing_docs)]

mod client;
pub mod conn;
mod lineio;
pub mod protocol;
mod server;
pub mod subs;

pub use client::{json_u64, Client};
pub use lineio::{retryable, LineEvent, LineReader};
pub use protocol::{format_query, Response};
pub use server::{stats_object, Server, ServerConfig};
