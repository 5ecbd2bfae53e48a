//! Shared pieces of the benchmark harness: bench-scale workload profiles
//! and the Figure 3 miss-penalty microbenchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use std::any::Any;

use commsense_apps::AppSpec;
use commsense_cache::{Heap, LineHandle};
use commsense_core::engine::{RunRequest, Runner};
use commsense_machine::program::{HandlerCtx, NodeCtx, Program, Step};
use commsense_machine::{Machine, MachineConfig, MachineSpec, Mechanism};
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

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Runs a two-phase probe: `setup` steps per node, a barrier, then node 0
/// performs `k` accesses built by `access(i)`. Returns total runtime in
/// cycles.
fn probe_runtime(
    cfg: &MachineConfig,
    lines: LineHandle,
    heap: Heap,
    setup: impl Fn(usize) -> Vec<Step>,
    k: usize,
    access: impl Fn(usize) -> Step,
) -> u64 {
    let initial = vec![0.0; heap.total_words()];
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|p| {
            let mut steps = setup(p);
            steps.push(Step::Barrier);
            if p == 0 {
                for i in 0..k {
                    steps.push(access(i));
                }
            }
            Probe::boxed(steps)
        })
        .collect();
    let _ = lines;
    let mut m = Machine::new(
        cfg.clone(),
        MachineSpec {
            heap,
            initial,
            programs,
        },
    );
    m.run().runtime_cycles
}

/// Measures one case by differencing runs with `k` and `2k` accesses.
fn measure(
    cfg: &MachineConfig,
    build: impl Fn() -> (Heap, LineHandle),
    setup: impl Fn(&LineHandle, usize) -> Vec<Step> + Copy,
    access: impl Fn(&LineHandle, usize) -> Step + Copy,
    k: usize,
) -> f64 {
    let run = |n: usize| {
        let (heap, lines) = build();
        let l2 = lines;
        probe_runtime(cfg, lines, heap, |p| setup(&l2, p), n, |i| access(&l2, i))
    };
    let t1 = run(k);
    let t2 = run(2 * k);
    (t2 as f64 - t1 as f64) / k as f64
}

/// Regenerates the Figure 3 miss-penalty table on the live machine model.
///
/// Measurements come from steady-state pointer-chase probes on a 32-node
/// machine; each case reproduces the cache/directory state named by the
/// Figure 3 cost table before timing node 0's accesses.
pub fn miss_penalties(cfg: &MachineConfig) -> Vec<MissPenalty> {
    let n = 64; // lines per probe (node 0 touches each once)
    let k = 32;
    let mut out = Vec::new();

    // Local clean read miss: node 0 reads its own uncached lines.
    let local_clean = measure(
        cfg,
        || {
            let mut heap = Heap::new(cfg.nodes);
            let lines = heap.alloc(n, |_| 0);
            (heap, lines)
        },
        |_, _| Vec::new(),
        |l, i| Step::Load(l.word(i, 0)),
        k,
    );
    out.push(MissPenalty {
        case: "local clean read",
        paper_cycles: 11.0,
        measured_cycles: local_clean,
    });

    // Local dirty read miss: home is node 0, but node 1 holds them dirty.
    let local_dirty = measure(
        cfg,
        || {
            let mut heap = Heap::new(cfg.nodes);
            let lines = heap.alloc(n, |_| 0);
            (heap, lines)
        },
        |l, p| {
            if p == 1 {
                (0..n).map(|i| Step::Store(l.word(i, 0), 1.0)).collect()
            } else {
                Vec::new()
            }
        },
        |l, i| Step::Load(l.word(i, 0)),
        k,
    );
    out.push(MissPenalty {
        case: "local dirty read",
        paper_cycles: 38.0,
        measured_cycles: local_dirty,
    });

    // Remote clean read miss: node 0 reads node 1's uncached lines.
    let remote_clean = measure(
        cfg,
        || {
            let mut heap = Heap::new(cfg.nodes);
            let lines = heap.alloc(n, |_| 1);
            (heap, lines)
        },
        |_, _| Vec::new(),
        |l, i| Step::Load(l.word(i, 0)),
        k,
    );
    out.push(MissPenalty {
        case: "remote clean read",
        paper_cycles: 42.0,
        measured_cycles: remote_clean,
    });

    // Remote dirty (two-party) read miss: home node 2, dirty at node 1.
    let remote_dirty = measure(
        cfg,
        || {
            let mut heap = Heap::new(cfg.nodes);
            let lines = heap.alloc(n, |_| 2);
            (heap, lines)
        },
        |l, p| {
            if p == 1 {
                (0..n).map(|i| Step::Store(l.word(i, 0), 1.0)).collect()
            } else {
                Vec::new()
            }
        },
        |l, i| Step::Load(l.word(i, 0)),
        k,
    );
    out.push(MissPenalty {
        case: "remote dirty read",
        paper_cycles: 63.0,
        measured_cycles: remote_dirty,
    });

    // Remote write miss (clean): node 0 writes node 1's lines.
    let remote_write = measure(
        cfg,
        || {
            let mut heap = Heap::new(cfg.nodes);
            let lines = heap.alloc(n, |_| 1);
            (heap, lines)
        },
        |_, _| Vec::new(),
        |l, i| Step::Store(l.word(i, 0), 2.0),
        k,
    );
    out.push(MissPenalty {
        case: "remote clean write",
        paper_cycles: 43.0,
        measured_cycles: remote_write,
    });

    // LimitLESS read: six sharers before node 0's read overflow the five
    // hardware pointers, trapping the home into software.
    let limitless = measure(
        cfg,
        || {
            let mut heap = Heap::new(cfg.nodes);
            let lines = heap.alloc(n, |_| 1);
            (heap, lines)
        },
        |l, p| {
            if (2..8).contains(&p) {
                (0..n).map(|i| Step::Load(l.word(i, 0))).collect()
            } else {
                Vec::new()
            }
        },
        |l, i| Step::Load(l.word(i, 0)),
        k,
    );
    out.push(MissPenalty {
        case: "LimitLESS sw read",
        paper_cycles: 425.0,
        measured_cycles: limitless,
    });

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

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §7): design-choice sensitivity studies
// ---------------------------------------------------------------------

/// One ablation measurement: a labeled parameter value and the runtime.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Parameter setting label.
    pub label: String,
    /// Runtime in processor cycles.
    pub runtime_cycles: u64,
    /// Whether the run verified.
    pub verified: bool,
}

fn em3d_small_spec() -> AppSpec {
    let mut p = Em3dParams::small();
    p.nodes = 1000;
    p.iterations = 3;
    AppSpec::Em3d(p)
}

/// Executes labeled requests on an environment-sized [`Runner`] — one
/// shared workload preparation per distinct spec, points possibly in
/// parallel — and folds the results into ablation points in label order.
fn run_points(labeled: Vec<(String, RunRequest)>) -> Vec<AblationPoint> {
    let (labels, requests): (Vec<String>, Vec<RunRequest>) = labeled.into_iter().unzip();
    let results = Runner::from_env().run(&requests);
    labels
        .into_iter()
        .zip(results)
        .map(|(label, r)| AblationPoint {
            label,
            runtime_cycles: r.runtime_cycles,
            verified: r.verified,
        })
        .collect()
}

/// LimitLESS directory width: hardware pointers before the software trap.
/// Narrow directories trap constantly on shared data; wide ones never do.
pub fn ablate_limitless(cfg: &MachineConfig) -> Vec<AblationPoint> {
    let spec = em3d_small_spec();
    run_points(
        [1usize, 2, 5, 8, 32]
            .iter()
            .map(|&ptrs| {
                let mut cfg = cfg.clone();
                cfg.proto.hw_ptrs = ptrs;
                (
                    format!("{ptrs} hw pointers"),
                    RunRequest {
                        spec: spec.clone(),
                        mechanism: Mechanism::SharedMem,
                        cfg,
                    },
                )
            })
            .collect(),
    )
}

/// Mesh aspect ratio at a fixed 32 nodes: the bisection (and thus the
/// shared-memory story) is set by the number of rows crossing the cut.
pub fn ablate_topology(cfg: &MachineConfig) -> Vec<AblationPoint> {
    let spec = em3d_small_spec();
    let mut labeled = Vec::new();
    for (w, h) in [(16u16, 2u16), (8, 4), (4, 8)] {
        for mech in [Mechanism::SharedMem, Mechanism::MsgPoll] {
            let mut cfg = cfg.clone().with_mechanism(mech);
            cfg.net.topo = commsense_mesh::TopoSpec::mesh(w, h);
            let bpc = cfg.net.bisection_bytes_per_cycle(cfg.clock());
            labeled.push((
                format!("{w}x{h} ({bpc:.0} B/cyc) {}", mech.label()),
                RunRequest {
                    spec: spec.clone(),
                    mechanism: mech,
                    cfg,
                },
            ));
        }
    }
    run_points(labeled)
}

/// Interrupt entry cost: how expensive traps must get before polling's
/// advantage dominates (ICCG, the most message-bound application).
pub fn ablate_interrupt_cost(cfg: &MachineConfig) -> Vec<AblationPoint> {
    let spec = AppSpec::Iccg(IccgParams::small());
    run_points(
        [20u64, 40, 74, 120, 200]
            .iter()
            .map(|&c| {
                let mut cfg = cfg.clone().with_mechanism(Mechanism::MsgInterrupt);
                cfg.msg.interrupt_base = c;
                (
                    format!("interrupt {c} cycles"),
                    RunRequest {
                        spec: spec.clone(),
                        mechanism: Mechanism::MsgInterrupt,
                        cfg,
                    },
                )
            })
            .collect(),
    )
}

/// Prefetch (transaction) buffer depth under prefetching EM3D.
pub fn ablate_prefetch_buffer(cfg: &MachineConfig) -> Vec<AblationPoint> {
    let spec = em3d_small_spec();
    run_points(
        [1usize, 2, 4, 16]
            .iter()
            .map(|&n| {
                let mut cfg = cfg.clone().with_mechanism(Mechanism::SharedMemPrefetch);
                cfg.proto.prefetch_entries = n;
                (
                    format!("{n} prefetch entries"),
                    RunRequest {
                        spec: spec.clone(),
                        mechanism: Mechanism::SharedMemPrefetch,
                        cfg,
                    },
                )
            })
            .collect(),
    )
}

/// Cache associativity under capacity pressure: Alewife's full-size
/// direct-mapped cache has no conflicts on these working sets, so the
/// ablation shrinks the cache to 64 lines where the irregular access
/// stream collides, then varies the ways.
pub fn ablate_associativity(cfg: &MachineConfig) -> Vec<AblationPoint> {
    let spec = em3d_small_spec();
    let mut labeled = vec![(
        "4096 lines, 1-way (Alewife)".to_string(),
        RunRequest {
            spec: spec.clone(),
            mechanism: Mechanism::SharedMem,
            cfg: cfg.clone(),
        },
    )];
    for ways in [1usize, 2, 4] {
        let mut cfg = cfg.clone();
        cfg.proto.cache_lines = 64;
        cfg.proto.cache_ways = ways;
        labeled.push((
            format!("64 lines, {ways}-way"),
            RunRequest {
                spec: spec.clone(),
                mechanism: Mechanism::SharedMem,
                cfg,
            },
        ));
    }
    run_points(labeled)
}

/// Relaxed writes (release consistency) vs. sequential consistency under
/// emulated latency — the §2 latency-tolerance technique the paper
/// contrasts with SC.
pub fn ablate_write_buffer(cfg: &MachineConfig) -> Vec<AblationPoint> {
    use commsense_machine::LatencyEmulation;
    let spec = em3d_small_spec();
    let mut labeled = Vec::new();
    for lat in [0u64, 200] {
        for wb in [0usize, 4] {
            let mut cfg = cfg.clone().with_mechanism(Mechanism::SharedMem);
            cfg.write_buffer = wb;
            if lat > 0 {
                cfg.latency_emulation = Some(LatencyEmulation::uniform(lat));
            }
            let model = if wb == 0 { "SC" } else { "RC(4)" };
            let net = if lat == 0 {
                "base net".to_string()
            } else {
                format!("{lat}-cyc misses")
            };
            labeled.push((
                format!("{model}, {net}"),
                RunRequest {
                    spec: spec.clone(),
                    mechanism: Mechanism::SharedMem,
                    cfg,
                },
            ));
        }
    }
    run_points(labeled)
}

/// Partition strategy: blocked index ranges vs. Chaco-style graph
/// growing, on UNSTRUC under shared memory (partition quality drives the
/// remote fraction that everything else amplifies).
pub fn ablate_partition(cfg: &MachineConfig) -> Vec<AblationPoint> {
    use commsense_apps::unstruc::run_mesh;
    use commsense_machine::Mechanism;
    use commsense_workloads::unstruct::{PartitionStrategy, UnstrucMesh, UnstrucParams};
    let params = UnstrucParams::small();
    [PartitionStrategy::Blocked, PartitionStrategy::GraphGrown]
        .iter()
        .map(|&st| {
            let mesh = UnstrucMesh::generate_with_partition(&params, cfg.nodes, st);
            let r = run_mesh(&mesh, Mechanism::SharedMem, cfg);
            AblationPoint {
                label: format!("{st:?} (cut {:.0}%)", 100.0 * mesh.cut_fraction()),
                runtime_cycles: r.runtime_cycles,
                verified: r.verified,
            }
        })
        .collect()
}

/// Renders an ablation as an aligned text table.
pub fn ablation_table(title: &str, points: &[AblationPoint]) -> String {
    let mut out = format!("{title}\n");
    for p in points {
        out.push_str(&format!(
            "  {:<28} {:>10} cycles  verified={}\n",
            p.label, p.runtime_cycles, p.verified
        ));
    }
    out
}
