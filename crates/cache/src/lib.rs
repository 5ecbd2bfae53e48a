//! Shared-memory substrate: caches, LimitLESS directory, coherence protocol.
//!
//! Alewife provides hardware-based, sequentially-consistent shared memory
//! using the LimitLESS cache-coherence protocol: each directory entry tracks
//! up to five cached copies in hardware and traps to software for more
//! widely shared lines. This crate models that machinery:
//!
//! * [`Heap`] / [`LineId`] — a shared address space of 16-byte cache lines
//!   (two `f64` words each, like Alewife's 16-byte lines) with per-line home
//!   nodes, so irregular data structures can be distributed exactly as the
//!   applications distribute their graphs.
//! * [`Cache`] — a 64 KB direct-mapped cache (4096 lines) per node.
//! * [`Protocol`] — the directory-based MSI protocol with LimitLESS
//!   overflow: it consumes protocol messages and produces the messages,
//!   completions and controller-occupancy costs that the machine layer
//!   schedules onto the simulated network.
//! * [`PrefetchBuffer`] — Alewife's non-binding software prefetch support
//!   (read and read-exclusive prefetch into a buffer, transferred to the
//!   cache on first reference).
//!
//! Data values are *not* carried in protocol messages: the machine keeps a
//! single master copy of every word and reads/writes it at the instant an
//! access completes. Because the protocol enforces the usual single-writer /
//! multiple-reader invariant and orders conflicting accesses through the
//! home directory, the observable values equal those of a sequentially
//! consistent execution while the messages retain their true sizes for
//! bandwidth accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cachearray;
mod prefetch;
mod protocol;

pub use addr::{Heap, LineHandle, LineId, Word};
pub use cachearray::{Cache, LineState};
pub use prefetch::{PrefetchBuffer, PrefetchKind};
pub use protocol::{
    AccessKind, AccessOutcome, MsgClass, ProtoConfig, ProtoMsg, ProtoOut, ProtoStats, Protocol,
    TxnToken,
};
