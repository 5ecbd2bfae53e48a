//! # commsense
//!
//! A reproduction of *"The Sensitivity of Communication Mechanisms to
//! Bandwidth and Latency"* (Chong, Barua, Dahlgren, Kubiatowicz, Agarwal —
//! HPCA 1998) as a Rust library.
//!
//! The paper compares five communication mechanisms — shared memory with and
//! without prefetching, message passing with interrupts and with polling,
//! and bulk transfer via DMA — on four irregular applications running on the
//! 32-node MIT Alewife multiprocessor, then sweeps bisection bandwidth (via
//! I/O cross-traffic) and network latency (via processor clock scaling and
//! context-switch emulation) to map out where each mechanism wins.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`des`] — deterministic discrete-event engine (time, queue, RNG).
//! * [`mesh`] — 2-D mesh interconnect with contention and cross-traffic.
//! * [`cache`] — caches, LimitLESS directory, coherence protocol tables.
//! * [`msgpass`] — active messages, remote queues, DMA bulk transfer.
//! * [`machine`] — the Alewife-class machine emulator tying it together.
//! * [`workloads`] — synthetic EM3D / UNSTRUC / ICCG / MOLDYN inputs.
//! * [`apps`] — the four applications, each in all five mechanism variants.
//! * [`core`] — experiment runners and reporting for every table and figure.
//!
//! # Quickstart
//!
//! ```
//! use commsense::prelude::*;
//!
//! // Build a small EM3D instance and run it under two mechanisms.
//! let params = Em3dParams { nodes: 200, degree: 4, pct_nonlocal: 0.2, span: 3,
//!                           iterations: 2, seed: 1 };
//! let cfg = MachineConfig::alewife();
//! let sm = run_app(&AppSpec::Em3d(params.clone()), Mechanism::SharedMem, &cfg);
//! let mp = run_app(&AppSpec::Em3d(params), Mechanism::MsgPoll, &cfg);
//! assert!(sm.verified && mp.verified);
//! println!("shared memory: {} cycles, message passing: {} cycles",
//!          sm.runtime_cycles, mp.runtime_cycles);
//! ```

pub use commsense_apps as apps;
pub use commsense_cache as cache;
pub use commsense_core as core;
pub use commsense_des as des;
pub use commsense_machine as machine;
pub use commsense_mesh as mesh;
pub use commsense_msgpass as msgpass;
pub use commsense_workloads as workloads;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use commsense_apps::{run_app, run_prepared, AppSpec, PreparedWorkload, RunResult};
    pub use commsense_core::engine::{ExperimentPlan, RunRequest, Runner, WorkloadCache};
    pub use commsense_core::experiment;
    pub use commsense_core::figures::{self, Figure};
    pub use commsense_core::machines;
    pub use commsense_core::regions;
    pub use commsense_core::report;
    pub use commsense_machine::{Bucket, MachineConfig, Mechanism};
    pub use commsense_workloads::bipartite::Em3dParams;
    pub use commsense_workloads::moldyn::MoldynParams;
    pub use commsense_workloads::sparse::IccgParams;
    pub use commsense_workloads::unstruct::UnstrucParams;
}
