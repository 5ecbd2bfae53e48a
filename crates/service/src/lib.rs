//! The resident sweep service (ROADMAP item: "serving" the simulator).
//!
//! A daemon (`repro serve`) accepts sweep-plan submissions over a local
//! TCP socket speaking line-delimited JSON (reusing the repo's
//! hand-rolled [`commsense_core::json`] — no serde), validates them
//! against the same plan builders the `repro` binary uses, and shards
//! the resolved [`RunRequest`](commsense_core::engine::RunRequest)s
//! across a worker pool writing through the shared
//! [`ResultStore`](commsense_core::store::ResultStore). Concurrent
//! clients deduplicate at the canonical-request-hash level: a second
//! client asking for a point that is already being simulated subscribes
//! to the in-flight run instead of re-running it.
//!
//! The crate is layered so all policy is pure and table-testable:
//!
//! - [`protocol`] — the wire codec, both directions, no IO;
//! - [`machine`] — the event→action state machine (submission, dedup,
//!   progress fan-out, cancellation, drain), no IO;
//! - [`shell`] — the only IO: sockets, threads, the worker pool;
//! - [`client`] — the reference client `repro submit` is built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod machine;
pub mod protocol;
/// The figure planner the daemon resolves submissions with. It lives in
/// core, where `repro` plans through it too; the re-export keeps the
/// `benchmark/` package's `commsense_service::plan` imports working.
pub use commsense_core::plan;
pub mod shell;
