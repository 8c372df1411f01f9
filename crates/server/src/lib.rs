//! # pgq-server
//!
//! The front door (PR 8; ROADMAP open item 2): a threaded TCP
//! line-protocol server over the concurrent snapshot store, serving
//! the statement grammar of [`engine`] to any number of simultaneous
//! sessions.
//!
//! * [`Engine`] — the one statement dispatcher, shared with the
//!   `sqlpgq_shell` example: parser catalog + live rows behind a
//!   mutex, staged view graphs inside a
//!   [`pgq_store::ConcurrentStore`], reads pinned to published
//!   [`pgq_store::StoreSnapshot`]s and evaluated lock-free on the
//!   morsel-parallel coded pipeline;
//! * [`Server`] — the accept loop + per-connection session threads;
//! * [`Client`] — a blocking client for tests and the `pgq-bench`
//!   load generator.
//!
//! Concurrency contract (held by `tests/protocol.rs` here and the
//! snapshot-isolation suite in the workspace `tests/prop_store.rs`):
//! every query answers against exactly one published snapshot —
//! byte-identical to single-threaded evaluation of that snapshot — and
//! a writer batch either publishes completely or not at all. Malformed
//! input (bad statements, oversized lines, invalid UTF-8, mid-line
//! disconnects) produces typed `!! ` responses or a clean session end,
//! never a dead server or a poisoned store lock.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod server;

pub use engine::{Engine, SessionState};
pub use server::{Client, Server, MAX_LINE, TERMINATOR};
