//! Shared engine for the two "force accumulation on a partitioned graph"
//! applications, UNSTRUC (§4.2) and MOLDYN (§4.4).
//!
//! Both applications iterate: an *edge phase* computes a pairwise kernel
//! for every edge/interaction and accumulates equal-and-opposite
//! contributions into the two endpoints' force slots, then a *node phase*
//! integrates forces into values. The phases are barrier-separated.
//!
//! Mechanism mapping (per the paper):
//!
//! * **Shared memory** — endpoint values are loaded through the protocol;
//!   force accumulation uses atomic RMWs (spin-locks protecting shared
//!   updates — the "locking overhead" of §4.2.3, cheap under MOLDYN's low
//!   contention, §4.4.3).
//! * **Message passing** — boundary values are pushed into ghost buffers
//!   before the edge phase; remote force contributions are sent as they
//!   are produced and applied by non-interruptible handlers, which
//!   "automatically provide mutual exclusion of writes" (§4.2.3).
//! * **Bulk** — ghost values and force deltas travel as per-destination
//!   DMA transfers with gather/scatter copy costs.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use commsense_cache::{Heap, LineHandle};
use commsense_machine::program::{bits_f64, f64_bits, HandlerCtx, NodeCtx, Program, RmwOp, Step};
use commsense_machine::{ConfigError, MachineConfig, MachineSpec, Mechanism, SimError};
use commsense_msgpass::{ActiveMessage, HandlerId};

use crate::common::{
    apply_ghost, bulk_message, ghost_message, run_machine, verify, Chunk, GhostPlan, PackedArray,
    GHOST_WRITE_CYCLES,
};
use crate::RunResult;

/// Handler id: fine-grained ghost values.
const GHOST: u16 = 1;
/// Handler id: bulk ghost values.
const GHOST_BULK: u16 = 2;
/// Handler id: one force delta (args: `[node, delta_bits]`).
const DELTA: u16 = 3;
/// Handler id: bulk force deltas (`bulk = [node, delta_bits]*`).
const DELTA_BULK: u16 = 4;
/// Verification tolerance (parallel force-accumulation order differs from
/// the sequential reference).
const TOL: f64 = 1e-9;

/// The pairwise kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// UNSTRUC: `flux = (val[u] - val[v]) * weight[e]`.
    LinearFlux,
    /// MOLDYN: soft-sphere force on the coordinate surrogate with squared
    /// cutoff `r2`.
    SoftSphere {
        /// Squared cutoff radius.
        r2: f64,
    },
}

/// A force-accumulation workload instance, adapted from either
/// `UnstrucMesh` or `MoldynSystem` (the adapters live in the `unstruc` and
/// `moldyn` modules and are tested to reproduce the workloads' own
/// sequential references exactly).
#[derive(Debug, Clone)]
pub struct ForceModel {
    /// Application name for reports.
    pub app: &'static str,
    /// Owning processor per graph node.
    pub owner: Vec<u16>,
    /// Edges / interaction pairs; the owner of `.0` computes the edge.
    pub edges: Vec<(u32, u32)>,
    /// Per-edge weights (unused by [`Kernel::SoftSphere`]).
    pub weights: Vec<f64>,
    /// The pairwise kernel.
    pub kernel: Kernel,
    /// Initial node values.
    pub init: Vec<f64>,
    /// Iterations.
    pub iterations: usize,
    /// Compute cycles per edge kernel (UNSTRUC: 75 single-precision FLOPs;
    /// MOLDYN: a longer interaction computation).
    pub edge_cycles: u64,
    /// Compute cycles per node integration.
    pub node_cycles: u64,
    /// Interaction-list rebuild period in iterations (0 = never). MOLDYN
    /// rebuilds its pair list every 20 iterations (§4.4); the rebuild is a
    /// local scan over the node's own elements plus a barrier. The list
    /// itself is unchanged in our surrogate dynamics (molecule cells do
    /// not migrate), so the rebuild contributes cost, not new structure.
    pub rebuild_every: usize,
    /// Compute cycles per owned element during a rebuild scan.
    pub rebuild_cycles_per_node: u64,
}

impl ForceModel {
    /// Node count.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// The kernel value for edge `e` under `vals`.
    pub fn flux(&self, e: usize, vals: &[f64]) -> f64 {
        let (u, v) = self.edges[e];
        let a = vals[u as usize];
        let b = vals[v as usize];
        match self.kernel {
            Kernel::LinearFlux => (a - b) * self.weights[e],
            Kernel::SoftSphere { r2 } => {
                let d = a - b;
                d * (r2 - (d * d).min(r2)) * 1e-3
            }
        }
    }

    /// Sequential reference: values after all iterations.
    pub fn reference(&self) -> Vec<f64> {
        let mut vals = self.init.clone();
        for _ in 0..self.iterations {
            let old = vals.clone();
            let mut force = vec![0.0; self.len()];
            for e in 0..self.edges.len() {
                let f = self.flux(e, &old);
                let (u, v) = self.edges[e];
                force[u as usize] += f;
                force[v as usize] -= f;
            }
            for i in 0..self.len() {
                vals[i] = old[i] + force[i];
            }
        }
        vals
    }

    /// Nodes owned by `p`.
    pub fn nodes_of(&self, p: usize) -> Vec<u32> {
        (0..self.len())
            .filter(|&i| self.owner[i] as usize == p)
            .map(|i| i as u32)
            .collect()
    }

    /// Edges computed by `p` (owner of the lower endpoint).
    pub fn edges_of(&self, p: usize) -> Vec<u32> {
        (0..self.edges.len())
            .filter(|&e| self.owner[self.edges[e].0 as usize] as usize == p)
            .map(|e| e as u32)
            .collect()
    }
}

/// A force model plus everything mechanism-independent computed from it —
/// the sequential reference, the ghost-exchange plan, and the expected
/// cross-edge delta counts — built once and shared across mechanisms and
/// machine variations.
#[derive(Debug)]
pub struct PreparedModel {
    /// The underlying model.
    pub model: Arc<ForceModel>,
    /// Processor count the plan was built for.
    pub nprocs: usize,
    want: Vec<f64>,
    plan: Arc<GhostPlan>,
    // Expected force deltas per consumer: cross edges pointing at it.
    expected_deltas: Vec<usize>,
}

impl PreparedModel {
    /// Computes the reference solution and exchange plan for `nprocs`
    /// processors.
    pub fn new(model: Arc<ForceModel>, nprocs: usize) -> Self {
        let want = model.reference();
        // Ghost demands: edge computers need the remote endpoint's value.
        let mut demands = Vec::new();
        let mut expected_deltas = vec![0usize; nprocs];
        for &(u, v) in &model.edges {
            let p = model.owner[u as usize] as usize;
            let q = model.owner[v as usize] as usize;
            if p != q {
                demands.push((p, q, v));
                expected_deltas[q] += 1;
            }
        }
        let plan = Arc::new(GhostPlan::build(nprocs, demands.into_iter()));
        PreparedModel {
            model,
            nprocs,
            want,
            plan,
            expected_deltas,
        }
    }

    /// Runs the prepared model under `mech`. The preparation is read-only
    /// and can be shared across concurrent runs.
    pub fn run(&self, mech: Mechanism, cfg: &MachineConfig) -> Result<RunResult, SimError> {
        if self.nprocs != cfg.nodes {
            return Err(ConfigError::PreparedNodes {
                prepared_nodes: self.nprocs,
                nodes: cfg.nodes,
            }
            .into());
        }
        if mech.is_shared_memory() {
            run_sm(self, mech, cfg)
        } else {
            run_mp(self, mech, cfg)
        }
    }
}

// ---------------------------------------------------------------------
// Shared memory
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum SmSt {
    /// Interaction-list rebuild scan (periodic).
    Rebuild,
    /// Barrier after the rebuild scan.
    RebuildBarrier,
    EdgeBegin,
    ValPrefetched,
    ForcePrefetched,
    ULoaded,
    VLoaded,
    Computed,
    URmwDone,
    VRmwDone,
    EdgeBarrier,
    NodeBegin,
    ForceLoaded,
    ValLoaded,
    ValStored,
    ForceCleared,
    NodeBarrier,
}

struct MeshSm {
    m: Arc<ForceModel>,
    vals: PackedArray,
    force: LineHandle,
    my_nodes: Vec<u32>,
    my_edges: Vec<u32>,
    prefetch: bool,
    iter: usize,
    pos: usize,
    f: f64,
    val_u: f64,
    st: SmSt,
}

impl MeshSm {
    fn edge(&self) -> (usize, usize, usize) {
        let e = self.my_edges[self.pos] as usize;
        let (u, v) = self.m.edges[e];
        (e, u as usize, v as usize)
    }
}

impl Program for MeshSm {
    fn resume(&mut self, ctx: &mut NodeCtx) -> Step {
        loop {
            match self.st {
                SmSt::EdgeBegin => {
                    if self.pos == self.my_edges.len() {
                        self.st = SmSt::EdgeBarrier;
                        return Step::Barrier;
                    }
                    if self.prefetch && self.pos + 2 < self.my_edges.len() {
                        // Read-prefetch the remote endpoint value and
                        // write-prefetch its force slot, two
                        // edge-computations ahead (§4.2.2, §4.4.2).
                        let ea = self.my_edges[self.pos + 2] as usize;
                        let (_, va) = self.m.edges[ea];
                        self.st = SmSt::ValPrefetched;
                        return Step::Prefetch {
                            line: self.vals.line(va as usize),
                            exclusive: false,
                        };
                    }
                    let (_, u, _) = self.edge();
                    self.st = SmSt::ULoaded;
                    return Step::Load(self.vals.word(u));
                }
                SmSt::ValPrefetched => {
                    let ea = self.my_edges[self.pos + 2] as usize;
                    let (_, va) = self.m.edges[ea];
                    self.st = SmSt::ForcePrefetched;
                    return Step::Prefetch {
                        line: self.force.line(va as usize),
                        exclusive: true,
                    };
                }
                SmSt::ForcePrefetched => {
                    let (_, u, _) = self.edge();
                    self.st = SmSt::ULoaded;
                    return Step::Load(self.vals.word(u));
                }
                SmSt::ULoaded => {
                    self.val_u = ctx.loaded;
                    let (_, _, v) = self.edge();
                    self.st = SmSt::VLoaded;
                    return Step::Load(self.vals.word(v));
                }
                SmSt::VLoaded => {
                    let (e, _, _) = self.edge();
                    // Kernel on the two endpoint values.
                    let vals_pair = (self.val_u, ctx.loaded);
                    self.f = match self.m.kernel {
                        Kernel::LinearFlux => (vals_pair.0 - vals_pair.1) * self.m.weights[e],
                        Kernel::SoftSphere { r2 } => {
                            let d = vals_pair.0 - vals_pair.1;
                            d * (r2 - (d * d).min(r2)) * 1e-3
                        }
                    };
                    self.st = SmSt::Computed;
                    return Step::Compute(self.m.edge_cycles);
                }
                SmSt::Computed => {
                    let (_, u, _) = self.edge();
                    self.st = SmSt::URmwDone;
                    return Step::Rmw(self.force.line(u), RmwOp::AddW0(self.f));
                }
                SmSt::URmwDone => {
                    let (_, _, v) = self.edge();
                    self.st = SmSt::VRmwDone;
                    return Step::Rmw(self.force.line(v), RmwOp::AddW0(-self.f));
                }
                SmSt::VRmwDone => {
                    self.pos += 1;
                    self.st = SmSt::EdgeBegin;
                }
                SmSt::EdgeBarrier => {
                    self.pos = 0;
                    self.st = SmSt::NodeBegin;
                }
                SmSt::NodeBegin => {
                    if self.pos == self.my_nodes.len() {
                        self.st = SmSt::NodeBarrier;
                        return Step::Barrier;
                    }
                    let i = self.my_nodes[self.pos] as usize;
                    self.st = SmSt::ForceLoaded;
                    return Step::Load(self.force.word(i, 0));
                }
                SmSt::ForceLoaded => {
                    self.f = ctx.loaded;
                    let i = self.my_nodes[self.pos] as usize;
                    self.st = SmSt::ValLoaded;
                    return Step::Load(self.vals.word(i));
                }
                SmSt::ValLoaded => {
                    let i = self.my_nodes[self.pos] as usize;
                    let new = ctx.loaded + self.f;
                    self.st = SmSt::ValStored;
                    return Step::Store(self.vals.word(i), new);
                }
                SmSt::ValStored => {
                    let i = self.my_nodes[self.pos] as usize;
                    self.st = SmSt::ForceCleared;
                    return Step::Store(self.force.word(i, 0), 0.0);
                }
                SmSt::ForceCleared => {
                    self.pos += 1;
                    self.st = SmSt::NodeBegin;
                    return Step::Compute(self.m.node_cycles);
                }
                SmSt::NodeBarrier => {
                    self.pos = 0;
                    self.iter += 1;
                    if self.iter == self.m.iterations {
                        return Step::Done;
                    }
                    let r = self.m.rebuild_every;
                    self.st = if r > 0 && self.iter.is_multiple_of(r) {
                        SmSt::Rebuild
                    } else {
                        SmSt::EdgeBegin
                    };
                }
                SmSt::Rebuild => {
                    let scan = self.m.rebuild_cycles_per_node * self.my_nodes.len().max(1) as u64;
                    self.st = SmSt::RebuildBarrier;
                    return Step::Compute(scan);
                }
                SmSt::RebuildBarrier => {
                    self.st = SmSt::EdgeBegin;
                    return Step::Barrier;
                }
            }
        }
    }

    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {
        unreachable!("shared-memory variant receives no user messages");
    }
}

// ---------------------------------------------------------------------
// Message passing
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum MpSt {
    /// Interaction-list rebuild scan (periodic).
    Rebuild,
    /// Barrier after the rebuild scan.
    RebuildBarrier,
    SendGhost,
    WaitGhosts,
    GhostPolled,
    EdgeLoop,
    FlushDeltas,
    WaitDeltas,
    DeltaPolled,
    EdgeBarrier,
    NodePhase,
    NodeBarrier,
}

struct MeshMp {
    m: Arc<ForceModel>,
    me: usize,
    poll: bool,
    bulk: bool,
    plan: Arc<GhostPlan>,
    vals: Vec<f64>,
    force: Vec<f64>,
    my_nodes: Vec<u32>,
    my_edges: Vec<u32>,
    expected_deltas: usize,
    received_vals: usize,
    received_deltas: usize,
    iter: usize,
    send_idx: usize,
    pos: usize,
    poll_gap: usize,
    pending_send: Option<ActiveMessage>,
    buffers: Vec<Vec<u64>>,
    flushing: VecDeque<usize>,
    st: MpSt,
}

impl MeshMp {
    fn chunks(&self) -> &[Chunk] {
        if self.bulk {
            &self.plan.bulk_sends[self.me]
        } else {
            &self.plan.sends[self.me]
        }
    }

    fn flush_step(&mut self) -> Option<Step> {
        let dst = self.flushing.pop_front()?;
        let words = std::mem::take(&mut self.buffers[dst]);
        let bytes = 8 * words.len() as u32;
        let lines = bytes.div_ceil(16);
        let am = ActiveMessage::with_bulk(dst, HandlerId(DELTA_BULK), vec![], bytes)
            .data(words)
            .gather(lines)
            .scatter(lines);
        Some(Step::Send(am))
    }
}

impl Program for MeshMp {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        loop {
            match self.st {
                MpSt::SendGhost => {
                    if self.send_idx < self.chunks().len() {
                        let chunk = self.chunks()[self.send_idx].clone();
                        self.send_idx += 1;
                        let vals = &self.vals;
                        let am = if self.bulk {
                            bulk_message(GHOST_BULK, &chunk, |id| vals[id as usize], false)
                        } else {
                            ghost_message(GHOST, &chunk, |id| vals[id as usize])
                        };
                        return Step::Send(am);
                    }
                    self.st = MpSt::WaitGhosts;
                }
                MpSt::WaitGhosts => {
                    if self.received_vals >= self.plan.expected_values(self.me) * (self.iter + 1) {
                        self.pos = 0;
                        self.poll_gap = 0;
                        self.st = MpSt::EdgeLoop;
                        continue;
                    }
                    if self.poll {
                        self.st = MpSt::GhostPolled;
                        return Step::Poll;
                    }
                    return Step::WaitMsg;
                }
                MpSt::GhostPolled => {
                    self.st = MpSt::WaitGhosts;
                    if self.received_vals >= self.plan.expected_values(self.me) * (self.iter + 1) {
                        continue;
                    }
                    return Step::WaitMsg;
                }
                MpSt::EdgeLoop => {
                    // A send queued by the previous edge's kernel.
                    if let Some(am) = self.pending_send.take() {
                        return Step::Send(am);
                    }
                    if self.pos == self.my_edges.len() {
                        self.st = MpSt::FlushDeltas;
                        continue;
                    }
                    if self.poll && self.poll_gap >= 16 {
                        self.poll_gap = 0;
                        return Step::Poll;
                    }
                    self.poll_gap += 1;
                    let e = self.my_edges[self.pos] as usize;
                    self.pos += 1;
                    let (u, v) = self.m.edges[e];
                    let (u, v) = (u as usize, v as usize);
                    let f = self.m.flux(e, &self.vals);
                    self.force[u] += f;
                    let owner_v = self.m.owner[v] as usize;
                    if owner_v == self.me {
                        self.force[v] -= f;
                        return Step::Compute(self.m.edge_cycles);
                    }
                    if self.bulk {
                        let buf = &mut self.buffers[owner_v];
                        buf.push(v as u64);
                        buf.push(f64_bits(-f));
                        if buf.len() >= 16 && !self.flushing.contains(&owner_v) {
                            self.flushing.push_back(owner_v);
                        }
                        return Step::Compute(self.m.edge_cycles + 4);
                    }
                    // Remote write as soon as produced (§4.2.1): the
                    // kernel compute happens now, the send right after.
                    self.pending_send = Some(ActiveMessage::new(
                        owner_v,
                        HandlerId(DELTA),
                        vec![v as u64, f64_bits(-f)],
                    ));
                    return Step::Compute(self.m.edge_cycles);
                }
                MpSt::FlushDeltas => {
                    if self.bulk {
                        for d in 0..self.buffers.len() {
                            if !self.buffers[d].is_empty() && !self.flushing.contains(&d) {
                                self.flushing.push_back(d);
                            }
                        }
                        if let Some(step) = self.flush_step() {
                            return step;
                        }
                    }
                    self.st = MpSt::WaitDeltas;
                }
                MpSt::WaitDeltas => {
                    if self.received_deltas >= self.expected_deltas * (self.iter + 1) {
                        self.st = MpSt::EdgeBarrier;
                        return Step::Barrier;
                    }
                    if self.poll {
                        self.st = MpSt::DeltaPolled;
                        return Step::Poll;
                    }
                    return Step::WaitMsg;
                }
                MpSt::DeltaPolled => {
                    self.st = MpSt::WaitDeltas;
                    if self.received_deltas >= self.expected_deltas * (self.iter + 1) {
                        self.st = MpSt::EdgeBarrier;
                        return Step::Barrier;
                    }
                    return Step::WaitMsg;
                }
                MpSt::EdgeBarrier => {
                    self.st = MpSt::NodePhase;
                }
                MpSt::NodePhase => {
                    // Purely local: integrate and clear forces.
                    for &i in &self.my_nodes {
                        let i = i as usize;
                        self.vals[i] += self.force[i];
                        self.force[i] = 0.0;
                    }
                    self.st = MpSt::NodeBarrier;
                    return Step::Compute(self.m.node_cycles * self.my_nodes.len().max(1) as u64);
                }
                MpSt::NodeBarrier => {
                    self.send_idx = 0;
                    self.iter += 1;
                    if self.iter == self.m.iterations {
                        return Step::Done;
                    }
                    let r = self.m.rebuild_every;
                    self.st = if r > 0 && self.iter.is_multiple_of(r) {
                        MpSt::Rebuild
                    } else {
                        MpSt::SendGhost
                    };
                    return Step::Barrier;
                }
                MpSt::Rebuild => {
                    let scan = self.m.rebuild_cycles_per_node * self.my_nodes.len().max(1) as u64;
                    self.st = MpSt::RebuildBarrier;
                    return Step::Compute(scan);
                }
                MpSt::RebuildBarrier => {
                    self.st = MpSt::SendGhost;
                    return Step::Barrier;
                }
            }
        }
    }

    fn on_message(&mut self, handler: u16, args: &[u64], bulk: &[u64], ctx: &mut HandlerCtx) {
        match handler {
            GHOST => {
                let n = apply_ghost(
                    &self.plan.ghost_ids[self.me],
                    args[0] as usize,
                    &args[1..],
                    &mut self.vals,
                );
                self.received_vals += n;
                ctx.charge(GHOST_WRITE_CYCLES * n as u64);
            }
            GHOST_BULK => {
                let n = apply_ghost(
                    &self.plan.ghost_ids[self.me],
                    args[0] as usize,
                    bulk,
                    &mut self.vals,
                );
                self.received_vals += n;
                ctx.charge(GHOST_WRITE_CYCLES * n as u64);
            }
            DELTA => {
                self.force[args[0] as usize] += bits_f64(args[1]);
                self.received_deltas += 1;
                ctx.charge(6);
            }
            DELTA_BULK => {
                for pair in bulk.chunks_exact(2) {
                    self.force[pair[0] as usize] += bits_f64(pair[1]);
                    self.received_deltas += 1;
                }
                ctx.charge(6 * (bulk.len() as u64 / 2));
            }
            other => unreachable!("unknown handler {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Builders and verification
// ---------------------------------------------------------------------

fn run_sm(w: &PreparedModel, mech: Mechanism, cfg: &MachineConfig) -> Result<RunResult, SimError> {
    let m = Arc::clone(&w.model);
    let mut heap = Heap::new(cfg.nodes);
    let owner = m.owner.clone();
    let vals = PackedArray::alloc(&mut heap, m.len(), |i| owner[i] as usize);
    let force = heap.alloc(m.len(), |i| owner[i] as usize);
    let mut initial = vec![0.0; heap.total_words()];
    for i in 0..m.len() {
        initial[vals.word(i).flat_index()] = m.init[i];
    }
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|p| {
            Box::new(MeshSm {
                m: Arc::clone(&m),
                vals,
                force,
                my_nodes: m.nodes_of(p),
                my_edges: m.edges_of(p),
                prefetch: mech.uses_prefetch(),
                iter: 0,
                pos: 0,
                f: 0.0,
                val_u: 0.0,
                st: SmSt::EdgeBegin,
            }) as Box<dyn Program>
        })
        .collect();
    let spec = MachineSpec {
        heap,
        initial,
        programs,
    };
    run_machine(m.app, mech, cfg, spec, |machine| {
        let got: Vec<f64> = (0..m.len())
            .map(|i| machine.master_word(vals.word(i)))
            .collect();
        verify(&got, &w.want, TOL)
    })
}

fn run_mp(w: &PreparedModel, mech: Mechanism, cfg: &MachineConfig) -> Result<RunResult, SimError> {
    let m = Arc::clone(&w.model);
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|p| {
            Box::new(MeshMp {
                m: Arc::clone(&m),
                me: p,
                poll: mech == Mechanism::MsgPoll,
                bulk: mech == Mechanism::Bulk,
                plan: Arc::clone(&w.plan),
                vals: m.init.clone(),
                force: vec![0.0; m.len()],
                my_nodes: m.nodes_of(p),
                my_edges: m.edges_of(p),
                expected_deltas: w.expected_deltas[p],
                received_vals: 0,
                received_deltas: 0,
                iter: 0,
                send_idx: 0,
                pos: 0,
                poll_gap: 0,
                pending_send: None,
                buffers: vec![Vec::new(); cfg.nodes],
                flushing: VecDeque::new(),
                st: MpSt::SendGhost,
            }) as Box<dyn Program>
        })
        .collect();
    let spec = MachineSpec {
        heap: Heap::new(cfg.nodes),
        initial: Vec::new(),
        programs,
    };
    run_machine(m.app, mech, cfg, spec, |machine| {
        let mut got = vec![0.0; m.len()];
        for prog in machine.into_programs() {
            let p = (&*prog as &dyn Any)
                .downcast_ref::<MeshMp>()
                .expect("mesh MP program");
            for &i in &p.my_nodes {
                got[i as usize] = p.vals[i as usize];
            }
        }
        verify(&got, &w.want, TOL)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_workloads::unstruct::{UnstrucMesh, UnstrucParams};

    fn model() -> Arc<ForceModel> {
        let mesh = UnstrucMesh::generate(&UnstrucParams::small(), 8);
        Arc::new(crate::unstruc::model(&mesh))
    }

    #[test]
    fn partitions_cover_everything() {
        let m = model();
        let nodes: usize = (0..8).map(|p| m.nodes_of(p).len()).sum();
        let edges: usize = (0..8).map(|p| m.edges_of(p).len()).sum();
        assert_eq!(nodes, m.len());
        assert_eq!(edges, m.edges.len());
    }

    #[test]
    fn kernel_is_antisymmetric_in_effect() {
        // Total value is conserved because every flux is applied with
        // opposite signs; the reference must preserve the invariant.
        let m = model();
        let before: f64 = m.init.iter().sum();
        let after: f64 = m.reference().iter().sum();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn soft_sphere_kernel_cuts_off() {
        let m = ForceModel {
            app: "T",
            owner: vec![0, 0],
            edges: vec![(0, 1)],
            weights: vec![0.0],
            kernel: Kernel::SoftSphere { r2: 1.0 },
            init: vec![0.0, 10.0], // separation far beyond the cutoff
            iterations: 1,
            edge_cycles: 1,
            node_cycles: 1,
            rebuild_every: 0,
            rebuild_cycles_per_node: 0,
        };
        assert_eq!(
            m.flux(0, &m.init),
            0.0,
            "beyond-cutoff pairs exert no force"
        );
        let near = [0.0, 0.5];
        assert!(m.flux(0, &near) != 0.0, "in-range pairs do");
    }

    #[test]
    fn prefetch_statistics_flow_through() {
        use commsense_machine::MachineConfig;
        let cfg = MachineConfig::alewife();
        let r = PreparedModel::new(model(), cfg.nodes)
            .run(Mechanism::SharedMemPrefetch, &cfg)
            .unwrap();
        assert!(r.verified);
        assert!(
            r.stats.useless_prefetches + r.stats.useful_prefetches > 0,
            "prefetch variant must issue prefetches"
        );
    }
}
