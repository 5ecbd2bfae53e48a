//! The sensitivity-analysis framework: the paper's primary contribution as
//! a reusable library.
//!
//! The paper's insight is that the *relative* performance of communication
//! mechanisms depends on two machine ratios — bisection bandwidth per
//! processor cycle, and network latency in processor cycles — and that a
//! single flexible machine can be used as an emulator to sweep both. This
//! crate packages those sweeps over the `commsense` machine emulator:
//!
//! * [`engine`] — the experiment engine: [`engine::ExperimentPlan`]s of
//!   indexed run requests, a [`engine::Runner`] executing them on a scoped
//!   thread pool with bit-identical-to-serial results, and a
//!   [`engine::WorkloadCache`] sharing each prepared workload (graph,
//!   reference solution, exchange plans) across all points and mechanisms.
//! * [`experiment`] — the three parametric experiments of §5 as plan
//!   builders: bisection emulation via cross-traffic (Figures 7 and 8),
//!   latency emulation via clock scaling (Figure 9), and uniform-latency
//!   emulation via context-switching (Figure 10), plus the
//!   communication-volume study (Figure 5) and the base-machine comparison
//!   (Figure 4).
//! * [`figures`] — the registry of the paper's CSV figures (4, 7–10):
//!   each figure's axes, plotted apps and mechanisms, plan, CSV name and
//!   rendering, shared by `repro` and the sweep daemon.
//! * [`plan`] — the planner `repro` and the sweep daemon share: a figure
//!   named in a [`plan::PlanSpec`] resolved into requests and CSVs.
//! * [`machines`] — the Table 1 dataset of 32-processor machine parameters
//!   and its Table 2 recalculation in local-cache-miss units.
//! * [`regions`] — classification of measured curves into the paper's
//!   Latency Hiding / Latency Dominated / Congestion Dominated regions
//!   (Figures 1 and 2), and crossover detection between mechanisms.
//! * [`report`] — ASCII tables and CSV output for every figure and table.
//! * [`manifest`] — self-describing JSON run manifests (versioned by
//!   [`manifest::MANIFEST_SCHEMA_VERSION`]) for observability artifacts,
//!   validated with the dependency-free parser in [`json`].
//! * [`table`] — summary tables of named columns and typed cells, written
//!   as CSV and as a JSON manifest from the same cells.
//! * [`store`] — a persistent, content-addressed [`store::ResultStore`]:
//!   finished runs are durable units of work keyed by a stable hash of
//!   their request, so interrupted sweeps resume instead of restarting
//!   and a poisoned point is quarantined instead of killing the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod figures;
pub use commsense_machine::json;
pub mod machines;
pub mod manifest;
pub mod model;
pub mod plan;
pub mod regions;
pub mod report;
pub mod store;
pub mod survey;
pub mod table;
