//! The four irregular applications of the HPCA'98 study, each implemented
//! under all five communication mechanisms.
//!
//! | App | Structure | Comm/compute | Paper section |
//! |-----|-----------|--------------|---------------|
//! | [`em3d`]    | bipartite red/black graph    | low compute per edge (2 FLOPs)   | §4.1 |
//! | [`unstruc`] | undirected unstructured mesh | high compute per edge (75 FLOPs) | §4.2 |
//! | [`iccg`]    | directed acyclic graph       | very fine-grained (2 FLOPs/edge) | §4.3 |
//! | [`moldyn`]  | molecular pair lists (RCB)   | very high compute per pair       | §4.4 |
//!
//! Every variant executes the same floating-point operations as the
//! sequential reference from `commsense-workloads`, so results are
//! verified after each run ([`RunResult::verified`]): exactly where the
//! accumulation order is deterministic, within a small tolerance where the
//! parallel accumulation order differs (force accumulation, ICCG
//! producer-computes).
//!
//! # Examples
//!
//! ```
//! use commsense_apps::{run_app, run_prepared, AppSpec};
//! use commsense_machine::{MachineConfig, Mechanism};
//! use commsense_workloads::bipartite::Em3dParams;
//!
//! let cfg = MachineConfig::tiny();
//! let spec = AppSpec::Em3d(Em3dParams::small());
//! let result = run_app(&spec, Mechanism::MsgPoll, &cfg);
//! assert!(result.verified);
//! // Generate the graph and reference once, then run every mechanism
//! // against the shared preparation.
//! let prepared = spec.prepare(cfg.nodes);
//! let sm = run_prepared(&prepared, Mechanism::SharedMem, &cfg);
//! assert!(sm.verified);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod em3d;
pub mod iccg;
pub mod meshforce;
pub mod microbench;
pub mod moldyn;
pub mod unstruc;

use std::sync::Arc;

use commsense_machine::{MachineConfig, Mechanism, RunStats, SimError};
use commsense_workloads::bipartite::Em3dParams;
use commsense_workloads::moldyn::MoldynParams;
use commsense_workloads::sparse::IccgParams;
use commsense_workloads::unstruct::UnstrucParams;

/// Workload scale for harnesses that sweep the whole application suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-per-figure profiles (default for `repro`).
    Bench,
    /// The paper's workload sizes (minutes for the full set).
    Paper,
    /// Unit-test sizes (used by the harnesses' own tests).
    Small,
}

impl Scale {
    /// The scale's lower-case protocol label.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Paper => "paper",
            Scale::Small => "small",
        }
    }

    /// Parses a protocol label back into a scale.
    pub fn from_label(label: &str) -> Option<Scale> {
        match label {
            "bench" => Some(Scale::Bench),
            "paper" => Some(Scale::Paper),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }
}

/// The four applications at the chosen scale.
pub fn suite(scale: Scale) -> Vec<AppSpec> {
    match scale {
        Scale::Paper => AppSpec::paper_suite(),
        Scale::Small => AppSpec::small_suite(),
        Scale::Bench => vec![
            AppSpec::Em3d(Em3dParams {
                nodes: 2000,
                degree: 10,
                pct_nonlocal: 0.2,
                span: 3,
                iterations: 5,
                seed: 0x3d,
            }),
            AppSpec::Unstruc(UnstrucParams {
                nodes: 1500,
                avg_degree: 7,
                flops_per_edge: 75,
                iterations: 5,
                seed: 0x05,
            }),
            AppSpec::Iccg(IccgParams {
                rows: 3000,
                avg_band: 8,
                far_fraction: 0.08,
                chunk_rows: 48,
                seed: 0x1cc6,
            }),
            AppSpec::Moldyn(MoldynParams {
                molecules: 1024,
                box_size: 16.0,
                cutoff: 1.2,
                iterations: 5,
                rebuild_every: 20,
                seed: 0x01d,
            }),
        ],
    }
}

/// The EM3D spec of a suite (the paper's running example for the
/// sensitivity sweeps).
pub fn em3d_spec(scale: Scale) -> AppSpec {
    suite(scale).remove(0)
}

/// Which application to run, with its workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum AppSpec {
    /// EM3D electromagnetic propagation.
    Em3d(Em3dParams),
    /// UNSTRUC fluid flow on an unstructured mesh.
    Unstruc(UnstrucParams),
    /// ICCG sparse triangular solve.
    Iccg(IccgParams),
    /// MOLDYN molecular dynamics.
    Moldyn(MoldynParams),
}

impl AppSpec {
    /// The application's short name.
    pub fn name(&self) -> &'static str {
        match self {
            AppSpec::Em3d(_) => "EM3D",
            AppSpec::Unstruc(_) => "UNSTRUC",
            AppSpec::Iccg(_) => "ICCG",
            AppSpec::Moldyn(_) => "MOLDYN",
        }
    }

    /// All four applications at paper-flavoured scale.
    pub fn paper_suite() -> Vec<AppSpec> {
        vec![
            AppSpec::Em3d(Em3dParams::paper()),
            AppSpec::Unstruc(UnstrucParams::paper()),
            AppSpec::Iccg(IccgParams::paper()),
            AppSpec::Moldyn(MoldynParams::paper()),
        ]
    }

    /// All four applications at fast-test scale.
    pub fn small_suite() -> Vec<AppSpec> {
        vec![
            AppSpec::Em3d(Em3dParams::small()),
            AppSpec::Unstruc(UnstrucParams::small()),
            AppSpec::Iccg(IccgParams::small()),
            AppSpec::Moldyn(MoldynParams::small()),
        ]
    }

    /// Canonical field encoding for content-addressed result caching (see
    /// `commsense_des::stable`): the app name plus every workload
    /// parameter, so two specs hash equal exactly when they generate the
    /// same workload.
    pub fn stable_encode(&self, enc: &mut commsense_des::StableEncoder) {
        enc.put("app.name", self.name());
        match self {
            AppSpec::Em3d(p) => {
                enc.put("app.nodes", p.nodes);
                enc.put("app.degree", p.degree);
                enc.put_f64("app.pct_nonlocal", p.pct_nonlocal);
                enc.put("app.span", p.span);
                enc.put("app.iterations", p.iterations);
                enc.put("app.seed", p.seed);
            }
            AppSpec::Unstruc(p) => {
                enc.put("app.nodes", p.nodes);
                enc.put("app.avg_degree", p.avg_degree);
                enc.put("app.flops_per_edge", p.flops_per_edge);
                enc.put("app.iterations", p.iterations);
                enc.put("app.seed", p.seed);
            }
            AppSpec::Iccg(p) => {
                enc.put("app.rows", p.rows);
                enc.put("app.avg_band", p.avg_band);
                enc.put_f64("app.far_fraction", p.far_fraction);
                enc.put("app.chunk_rows", p.chunk_rows);
                enc.put("app.seed", p.seed);
            }
            AppSpec::Moldyn(p) => {
                enc.put("app.molecules", p.molecules);
                enc.put_f64("app.box_size", p.box_size);
                enc.put_f64("app.cutoff", p.cutoff);
                enc.put("app.iterations", p.iterations);
                enc.put("app.rebuild_every", p.rebuild_every);
                enc.put("app.seed", p.seed);
            }
        }
    }

    /// Performs the expensive mechanism-independent work once: generates
    /// the workload for `nprocs` processors, solves the sequential
    /// reference, and builds the communication plans. The result is
    /// cheaply cloneable (`Arc`-backed) and can be shared across every
    /// mechanism and machine variation via [`run_prepared`].
    pub fn prepare(&self, nprocs: usize) -> PreparedWorkload {
        match self {
            AppSpec::Em3d(p) => PreparedWorkload::Em3d(Arc::new(em3d::prepare(p, nprocs))),
            AppSpec::Unstruc(p) => PreparedWorkload::Mesh(Arc::new(unstruc::prepare(p, nprocs))),
            AppSpec::Iccg(p) => PreparedWorkload::Iccg(Arc::new(iccg::prepare(p, nprocs))),
            AppSpec::Moldyn(p) => PreparedWorkload::Mesh(Arc::new(moldyn::prepare(p, nprocs))),
        }
    }
}

/// A workload whose mechanism-independent preparation — graph/system
/// generation, the sequential reference solution, and ghost-exchange
/// plans — has been done once for a fixed processor count.
///
/// Cloning is cheap (the payload is behind an `Arc`), and the preparation
/// is read-only, so one value can feed many concurrent [`run_prepared`]
/// calls.
#[derive(Debug, Clone)]
pub enum PreparedWorkload {
    /// A prepared EM3D graph (graph, references, both exchange plans).
    Em3d(Arc<em3d::Em3dPrepared>),
    /// A prepared force model — UNSTRUC or MOLDYN (model, reference,
    /// exchange plan).
    Mesh(Arc<meshforce::PreparedModel>),
    /// A prepared ICCG system (system, reference solve).
    Iccg(Arc<iccg::IccgPrepared>),
}

impl PreparedWorkload {
    /// The application's short name.
    pub fn name(&self) -> &'static str {
        match self {
            PreparedWorkload::Em3d(_) => "EM3D",
            PreparedWorkload::Mesh(w) => w.model.app,
            PreparedWorkload::Iccg(_) => "ICCG",
        }
    }

    /// The processor count the workload was prepared for.
    pub fn nprocs(&self) -> usize {
        match self {
            PreparedWorkload::Em3d(w) => w.nprocs,
            PreparedWorkload::Mesh(w) => w.nprocs,
            PreparedWorkload::Iccg(w) => w.nprocs,
        }
    }
}

/// Result of one application run under one mechanism.
#[derive(Clone)]
pub struct RunResult {
    /// Application name.
    pub app: &'static str,
    /// Mechanism used.
    pub mechanism: Mechanism,
    /// Total runtime in processor cycles.
    pub runtime_cycles: u64,
    /// Whether the computed values matched the sequential reference.
    pub verified: bool,
    /// Largest absolute deviation from the reference.
    pub max_abs_err: f64,
    /// Full machine statistics.
    pub stats: RunStats,
    /// Host wall-clock time spent simulating this run (set by
    /// [`run_prepared`]). Measurement metadata, not a simulation output.
    pub wall: std::time::Duration,
    /// Observability recording, present when the config enabled
    /// [`commsense_machine::ObserveConfig`]. Shared via `Arc` so cloning a
    /// result (plans cache run outputs) does not duplicate the series.
    pub observation: Option<std::sync::Arc<commsense_machine::Observation>>,
    /// Host-side dispatch profile, present when the config enabled
    /// [`commsense_machine::MachineConfig::profile_dispatch`]. Measurement
    /// metadata, not a simulation output.
    pub profile: Option<commsense_machine::DispatchProfile>,
}

/// `Debug` deliberately omits [`RunResult::wall`], [`RunResult::observation`]
/// and [`RunResult::profile`]: every rendered field is a pure function of
/// the request, and the engine's determinism tests compare runs via their
/// `Debug` rendering. Wall time and the dispatch profile are host noise, and
/// the observation is a bulky recording of the same run, not an extra output.
impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunResult")
            .field("app", &self.app)
            .field("mechanism", &self.mechanism)
            .field("runtime_cycles", &self.runtime_cycles)
            .field("verified", &self.verified)
            .field("max_abs_err", &self.max_abs_err)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl RunResult {
    /// Simulation events processed per host wall-clock second, if the wall
    /// time was measured and nonzero.
    pub fn events_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            Some(self.stats.events as f64 / secs)
        } else {
            None
        }
    }
}

/// Runs an application under a mechanism on the given machine
/// configuration and verifies its output against the sequential
/// reference.
///
/// This is a thin wrapper that prepares the workload and runs it once; use
/// [`AppSpec::prepare`] plus [`run_prepared`] to share the preparation
/// across many runs.
pub fn run_app(spec: &AppSpec, mech: Mechanism, cfg: &MachineConfig) -> RunResult {
    run_prepared(&spec.prepare(cfg.nodes), mech, cfg)
}

/// Runs a prepared workload under a mechanism. The preparation is
/// read-only, so concurrent calls may share one [`PreparedWorkload`].
///
/// # Panics
///
/// Raises a failed run ([`SimError::raise`]), including a `cfg.nodes`
/// that differs from the processor count the workload was prepared for
/// or from the topology ([`SimError::Config`]); [`try_run_prepared`]
/// returns the failure instead.
pub fn run_prepared(w: &PreparedWorkload, mech: Mechanism, cfg: &MachineConfig) -> RunResult {
    try_run_prepared(w, mech, cfg).unwrap_or_else(|e| e.raise())
}

/// [`run_prepared`], returning a failed run's [`SimError`] instead of
/// raising it.
pub fn try_run_prepared(
    w: &PreparedWorkload,
    mech: Mechanism,
    cfg: &MachineConfig,
) -> Result<RunResult, SimError> {
    let started = std::time::Instant::now();
    let mut result = match w {
        PreparedWorkload::Em3d(w) => em3d::run_prepared(w, mech, cfg),
        PreparedWorkload::Mesh(w) => w.run(mech, cfg),
        PreparedWorkload::Iccg(w) => iccg::run_prepared(w, mech, cfg),
    }?;
    result.wall = started.elapsed();
    Ok(result)
}
