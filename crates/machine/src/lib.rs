//! The Alewife-class machine emulator.
//!
//! This crate ties the substrates together into a runnable 32-node (by
//! default) multiprocessor model:
//!
//! * Each node executes a [`Program`]: an abstract
//!   instruction stream of [`Step`]s — compute blocks,
//!   shared-memory accesses, prefetches, active-message sends, polls,
//!   barriers — which the machine charges to the paper's four time buckets
//!   (Synchronization, Message Overhead, Memory + NI Wait, Compute;
//!   Figure 4).
//! * Shared-memory accesses run the LimitLESS directory protocol from
//!   `commsense-cache` over the contention-aware mesh from
//!   `commsense-mesh`; message sends travel the same mesh and are received
//!   by interrupts or polling with `commsense-msgpass` costs.
//! * The machine implements both barrier styles (shared-memory counter +
//!   flag with real coherence traffic; message-passing combining tree) and
//!   both sensitivity knobs of §5: background cross-traffic that consumes
//!   bisection bandwidth, and processor-clock scaling against the
//!   fixed-wall-clock network. A third mode emulates arbitrary uniform
//!   remote-miss latencies on an ideal network (the paper's context-switch
//!   experiment, Figure 10).
//! * An optional observability layer (see [`ObserveConfig`]) records an
//!   epoch-sampled metric time series, a full execution trace, and the
//!   network packet lifecycle, exportable as a Perfetto/Chrome trace via
//!   [`perfetto::export_trace`] — with bit-identical simulated cycle
//!   counts whether recording is on or off.
//! * An optional correctness harness (see [`CheckConfig`]) asserts the
//!   coherence-protocol invariants after every transition, tracks message
//!   conservation against the network recorder, and can replay the applied
//!   load/store stream against a sequential-consistency oracle — also
//!   without perturbing simulated cycles. A failed run returns a typed
//!   [`SimError`] from [`Machine::run`].
//!
//! See `commsense-apps` for complete programs and the crate tests for
//! minimal ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod critpath;
pub mod error;
pub mod invariants;
pub mod json;
pub mod machine;
pub mod metrics;
pub mod oracle;
pub mod perfetto;
pub mod program;
pub mod stats;
pub mod trace;

pub use config::{
    CheckConfig, CostModel, MachineConfig, Mechanism, ObserveConfig, ProtoVariant, ReceiveMode,
};
pub use critpath::{analyze, CritPath, Stage};
pub use error::{panic_message, ConfigError, SimError};
pub use machine::{DispatchKindProfile, DispatchProfile, Machine, MachineSpec};
pub use metrics::{MetricsSeries, Observation, RunState};
pub use program::{HandlerCtx, NodeCtx, Program, RmwOp, Step, Until};
pub use stats::{Bucket, LatencyHistogram, NodeStats, RunStats};
pub use trace::{Trace, TraceEvent, TraceKind};
