//! Shared pieces of the benchmark harness: bench-scale workload profiles,
//! the Figure 3 miss-penalty microbenchmarks, and the design-choice
//! ablations `repro ablate` runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

use commsense_apps::AppSpec;
use commsense_cache::{Heap, LineHandle};
use commsense_core::engine::{RunOutcome, RunRequest};
use commsense_machine::program::{HandlerCtx, NodeCtx, Program, Step};
use commsense_machine::{Machine, MachineConfig, MachineSpec, Mechanism, SimError};
use commsense_workloads::bipartite::Em3dParams;
use commsense_workloads::sparse::IccgParams;

// The suite definitions moved to `commsense-apps` (the service daemon
// resolves sweep plans from protocol labels and must not depend on the
// bench harness); re-exported here so harness call sites keep reading
// `commsense_bench::{suite, Scale}`.
pub use commsense_apps::{em3d_spec, suite, Scale};

// ---------------------------------------------------------------------
// Figure 3: shared-memory miss penalties
// ---------------------------------------------------------------------

/// A measured miss-penalty case.
#[derive(Debug, Clone)]
pub struct MissPenalty {
    /// Case name (matches the Figure 3 cost-table rows).
    pub case: &'static str,
    /// The paper's measured value in cycles.
    pub paper_cycles: f64,
    /// Our measured value in cycles.
    pub measured_cycles: f64,
}

/// Step scripts for the penalty probe.
struct Probe {
    steps: Vec<Step>,
    pc: usize,
}

impl Probe {
    fn boxed(steps: Vec<Step>) -> Box<dyn Program> {
        Box::new(Probe { steps, pc: 0 })
    }
}

impl Program for Probe {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        let s = self.steps.get(self.pc).cloned().unwrap_or(Step::Done);
        self.pc += 1;
        s
    }

    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
}

/// One Figure 3 case: its name, the paper's cycles, the home node of the
/// probed lines, the nodes that touch every line before the barrier (and
/// whether they write it), and whether node 0 then writes instead of
/// reads.
type Case = (&'static str, f64, usize, Range<usize>, bool, bool);

/// The Figure 3 cost-table rows, each reproducing the cache/directory
/// state the row names.
const CASES: [Case; 6] = [
    // Node 0 reads its own uncached lines.
    ("local clean read", 11.0, 0, 0..0, false, false),
    // Home is node 0, but node 1 holds them dirty.
    ("local dirty read", 38.0, 0, 1..2, true, false),
    // Node 0 reads node 1's uncached lines.
    ("remote clean read", 42.0, 1, 0..0, false, false),
    // Two-party: home node 2, dirty at node 1.
    ("remote dirty read", 63.0, 2, 1..2, true, false),
    // Node 0 writes node 1's clean lines.
    ("remote clean write", 43.0, 1, 0..0, false, true),
    // Six sharers before node 0's read overflow the five hardware
    // pointers, trapping the home into software.
    ("LimitLESS sw read", 425.0, 1, 2..8, false, false),
];

/// Regenerates the Figure 3 miss-penalty table on the live machine model.
///
/// Each case runs a two-phase probe on a 32-node machine: the case's
/// nodes touch every line, a barrier, then node 0 accesses `k` lines. The
/// penalty is the steady-state difference between `k` and `2k` accesses.
pub fn miss_penalties(cfg: &MachineConfig) -> Vec<MissPenalty> {
    let n = 64; // lines per probe (node 0 touches each once)
    let k = 32;
    let touch = |l: &LineHandle, i: usize, write: bool, v: f64| {
        if write {
            Step::Store(l.word(i, 0), v)
        } else {
            Step::Load(l.word(i, 0))
        }
    };
    CASES
        .into_iter()
        .map(|(case, paper_cycles, home, before, dirty, write)| {
            let run = |accesses: usize| {
                let mut heap = Heap::new(cfg.nodes);
                let lines = heap.alloc(n, |_| home);
                let programs = (0..cfg.nodes)
                    .map(|p| {
                        let touches = if before.contains(&p) { n } else { 0 };
                        let mut steps: Vec<Step> =
                            (0..touches).map(|i| touch(&lines, i, dirty, 1.0)).collect();
                        steps.push(Step::Barrier);
                        if p == 0 {
                            steps.extend((0..accesses).map(|i| touch(&lines, i, write, 2.0)));
                        }
                        Probe::boxed(steps)
                    })
                    .collect();
                let initial = vec![0.0; heap.total_words()];
                let spec = MachineSpec {
                    heap,
                    initial,
                    programs,
                    mechanism: Mechanism::SharedMem,
                };
                Machine::new(cfg.clone(), spec)
                    .map_err(SimError::from)
                    .and_then(|mut m| m.run())
                    .unwrap_or_else(|e| e.raise())
                    .runtime_cycles as f64
            };
            MissPenalty {
                case,
                paper_cycles,
                measured_cycles: (run(2 * k) - run(k)) / k as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §7): design-choice sensitivity studies
// ---------------------------------------------------------------------

/// An ablation's labelled runs, in display order. The ablation builders
/// only plan; `repro ablate` runs every ablation's requests in one pass.
pub type Ablation = Vec<(String, RunRequest)>;

fn em3d_small_spec() -> AppSpec {
    let mut p = Em3dParams::small();
    p.nodes = 1000;
    p.iterations = 3;
    AppSpec::Em3d(p)
}

/// `spec` under each labelled `(mechanism, config)` point.
fn ablation(
    spec: AppSpec,
    points: impl IntoIterator<Item = (String, Mechanism, MachineConfig)>,
) -> Ablation {
    let request = |(label, mechanism, cfg)| {
        let spec = spec.clone();
        (
            label,
            RunRequest {
                spec,
                mechanism,
                cfg,
            },
        )
    };
    points.into_iter().map(request).collect()
}

/// LimitLESS directory width: hardware pointers before the software trap.
/// Narrow directories trap constantly on shared data; wide ones never do.
pub fn ablate_limitless(cfg: &MachineConfig) -> Ablation {
    let points = [1usize, 2, 5, 8, 32].map(|ptrs| {
        let mut cfg = cfg.clone();
        cfg.proto.hw_ptrs = ptrs;
        (format!("{ptrs} hw pointers"), Mechanism::SharedMem, cfg)
    });
    ablation(em3d_small_spec(), points)
}

/// Mesh aspect ratio at a fixed 32 nodes: the bisection (and thus the
/// shared-memory story) is set by the number of rows crossing the cut.
pub fn ablate_topology(cfg: &MachineConfig) -> Ablation {
    let mut points = Vec::new();
    for (w, h) in [(16u16, 2u16), (8, 4), (4, 8)] {
        for mech in [Mechanism::SharedMem, Mechanism::MsgPoll] {
            let mut cfg = cfg.clone();
            cfg.net.topo = commsense_mesh::Topo::mesh(w, h);
            let bpc = cfg.net.bisection_bytes_per_cycle(cfg.clock());
            points.push((
                format!("{w}x{h} ({bpc:.0} B/cyc) {}", mech.label()),
                mech,
                cfg,
            ));
        }
    }
    ablation(em3d_small_spec(), points)
}

/// Interrupt entry cost: how expensive traps must get before polling's
/// advantage dominates (ICCG, the most message-bound application).
pub fn ablate_interrupt_cost(cfg: &MachineConfig) -> Ablation {
    let points = [20u64, 40, 74, 120, 200].map(|c| {
        let mut cfg = cfg.clone();
        cfg.msg.interrupt_base = c;
        (
            format!("interrupt {c} cycles"),
            Mechanism::MsgInterrupt,
            cfg,
        )
    });
    ablation(AppSpec::Iccg(IccgParams::small()), points)
}

/// Prefetch (transaction) buffer depth under prefetching EM3D.
pub fn ablate_prefetch_buffer(cfg: &MachineConfig) -> Ablation {
    let points = [1usize, 2, 4, 16].map(|n| {
        let mut cfg = cfg.clone();
        cfg.proto.prefetch_entries = n;
        (
            format!("{n} prefetch entries"),
            Mechanism::SharedMemPrefetch,
            cfg,
        )
    });
    ablation(em3d_small_spec(), points)
}

/// Cache associativity under capacity pressure: Alewife's full-size
/// direct-mapped cache has no conflicts on these working sets, so the
/// ablation shrinks the cache to 64 lines where the irregular access
/// stream collides, then varies the ways.
pub fn ablate_associativity(cfg: &MachineConfig) -> Ablation {
    let alewife = ("4096 lines, 1-way (Alewife)".to_string(), cfg.clone());
    let shrunk = [1usize, 2, 4].map(|ways| {
        let mut cfg = cfg.clone();
        cfg.proto.cache_lines = 64;
        cfg.proto.cache_ways = ways;
        (format!("64 lines, {ways}-way"), cfg)
    });
    let points = std::iter::once(alewife).chain(shrunk);
    let points = points.map(|(label, cfg)| (label, Mechanism::SharedMem, cfg));
    ablation(em3d_small_spec(), points)
}

/// Relaxed writes (release consistency) vs. sequential consistency under
/// emulated latency — the §2 latency-tolerance technique the paper
/// contrasts with SC.
pub fn ablate_write_buffer(cfg: &MachineConfig) -> Ablation {
    let mut points = Vec::new();
    for lat in [0u64, 200] {
        for wb in [0usize, 4] {
            let mut cfg = cfg.clone();
            cfg.write_buffer = wb;
            if lat > 0 {
                cfg = cfg.with_latency_emulation(Mechanism::SharedMem, lat);
            }
            let model = if wb == 0 { "SC" } else { "RC(4)" };
            let net = if lat == 0 {
                "base net".to_string()
            } else {
                format!("{lat}-cyc misses")
            };
            points.push((format!("{model}, {net}"), Mechanism::SharedMem, cfg));
        }
    }
    ablation(em3d_small_spec(), points)
}

/// Partition strategy: blocked index ranges vs. Chaco-style graph
/// growing, on UNSTRUC under shared memory (partition quality drives the
/// remote fraction that everything else amplifies). Unlike the other
/// ablations it runs here, directly: no [`AppSpec`] names a re-partitioned
/// mesh, so there is no request to plan.
pub fn ablate_partition(cfg: &MachineConfig) -> Vec<(String, RunOutcome)> {
    use commsense_apps::unstruc::run_mesh;
    use commsense_workloads::unstruct::{PartitionStrategy, UnstrucMesh, UnstrucParams};
    let params = UnstrucParams::small();
    [PartitionStrategy::Blocked, PartitionStrategy::GraphGrown]
        .iter()
        .map(|&st| {
            let mesh = UnstrucMesh::generate_with_partition(&params, cfg.nodes, st);
            let result = run_mesh(&mesh, Mechanism::SharedMem, cfg).unwrap_or_else(|e| e.raise());
            let label = format!("{st:?} (cut {:.0}%)", 100.0 * mesh.cut_fraction());
            (
                label,
                RunOutcome::Done {
                    result,
                    cached: false,
                },
            )
        })
        .collect()
}

/// Renders an ablation's labelled outcomes as an aligned text table.
pub fn ablation_table<'a>(
    title: &str,
    points: impl IntoIterator<Item = (&'a String, &'a RunOutcome)>,
) -> String {
    let mut out = format!("{title}\n");
    for (label, outcome) in points {
        out.push_str(&match outcome {
            RunOutcome::Done { result: r, .. } => format!(
                "  {label:<28} {:>10} cycles  verified={}\n",
                r.runtime_cycles, r.verified
            ),
            RunOutcome::Failed { attempts, message } => {
                format!("  {label:<28} FAILED after {attempts} attempts: {message}\n")
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_scales() {
        assert_eq!(suite(Scale::Bench).len(), 4);
        assert_eq!(suite(Scale::Paper).len(), 4);
        assert_eq!(em3d_spec(Scale::Small).name(), "EM3D");
    }

    #[test]
    fn miss_penalties_track_figure3() {
        let cfg = MachineConfig::alewife();
        let cases = miss_penalties(&cfg);
        assert_eq!(cases.len(), 6);
        for c in &cases {
            let ratio = c.measured_cycles / c.paper_cycles;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: measured {:.1} vs paper {:.1}",
                c.case,
                c.measured_cycles,
                c.paper_cycles
            );
        }
        // Orderings that define the cost structure.
        let by_name = |n: &str| cases.iter().find(|c| c.case == n).unwrap().measured_cycles;
        assert!(by_name("local clean read") < by_name("remote clean read"));
        assert!(by_name("remote clean read") < by_name("remote dirty read"));
        assert!(by_name("remote dirty read") < by_name("LimitLESS sw read"));
    }
}
