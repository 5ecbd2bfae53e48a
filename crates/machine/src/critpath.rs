//! Critical-path analysis over lifecycle traces.
//!
//! The observe layer records what happened (per-node block/resume/send/
//! handler events, packet lifecycles with hop-level queue-vs-wire splits);
//! this module explains *why the run took as long as it did*. It rebuilds
//! the program activity graph — per-node compute segments linked by message
//! send→receive edges and barrier joins — walks the critical path backward
//! from the last-retiring node, and attributes every picosecond on that
//! path to a communication stage, Breaking-Band-style.
//!
//! On top of the attribution sits an LLAMP-style latency predictor: each
//! latency-clamped remote-miss stall on the critical path contributes
//! exactly one cycle of runtime per cycle of added network latency (under
//! the Figure-10 uniform-latency emulation the resume time is
//! `max(fill, since + L)`, so a clamped stall grows 1:1 with `L`). Counting
//! those stalls therefore yields a predicted slope `d(runtime)/d(latency)`
//! from a *single* base-latency trace, which `repro analyze` validates
//! against the simulated Figure-10 sweeps.
//!
//! # Graph construction rules
//!
//! * Per-node timelines come from the execution trace, sorted by node
//!   logical time.
//! * A `Resume` that ends a message wait (`BlockMsg`, or a message-tree
//!   barrier) is caused by the *last* handler that ran during the block;
//!   the path crosses to that message's `Send` on the sender, and the
//!   network edge in between is split into queueing (hop enqueue→departure)
//!   and transit (wire serialization + router/ejection remainder) using the
//!   recorder's hop records.
//! * A `Resume` that ends a shared-memory barrier follows the last-arrival
//!   rule: the path crosses to the node whose `BarrierEnter` was latest
//!   (the release cannot begin before it), and only the release
//!   propagation `[last-arrival, resume]` lands on the path.
//! * A `Resume` that ends a memory or send stall stays on-node: coherence
//!   traffic is not individually traced, so the stall is attributed as
//!   protocol residency (minus any handler time that overlapped it).
//! * Everything else is compute, except a `send_base`-cycle slice before
//!   each `Send` (message-build overhead) and traced handler durations
//!   (receive occupancy).
//!
//! The walk tiles `[0, finish]` exactly: blocked waits that the path
//! bypasses (the receiver idling while the sender computes) are slack and
//! deliberately never attributed.

use std::collections::HashMap;

use commsense_des::{Clock, Time};
use commsense_mesh::NO_RECORD;

use crate::config::MachineConfig;
use crate::metrics::Observation;
use crate::trace::{TraceEvent, TraceKind};

/// Remote-stall threshold (cycles) used to count latency-critical
/// traversals when no latency emulation is configured: roughly one
/// round trip on the unloaded Alewife mesh.
const FALLBACK_REMOTE_CYCLES: u64 = 30;

/// Where a cycle on the critical path went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Application computation (including startup).
    Compute,
    /// Send-side software overhead (message build, NI backpressure).
    Overhead,
    /// Receive-side occupancy: handler execution and message drain.
    Occupancy,
    /// Time on the wire plus router/ejection latency.
    Transit,
    /// Time queued behind other traffic at busy links.
    Queueing,
    /// Coherence-protocol residency: memory stalls on the path.
    Protocol,
    /// Barrier release propagation (and last-arrival residency).
    Barrier,
    /// Message waits the path could not cross (untraced or truncated).
    MsgWait,
}

/// Number of [`Stage`] variants (the breakdown array length).
pub const N_STAGES: usize = 8;

impl Stage {
    /// Every stage, in rendering order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::Compute,
        Stage::Overhead,
        Stage::Occupancy,
        Stage::Transit,
        Stage::Queueing,
        Stage::Protocol,
        Stage::Barrier,
        Stage::MsgWait,
    ];

    /// Short label for tables and CSVs.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Compute => "compute",
            Stage::Overhead => "overhead",
            Stage::Occupancy => "occupancy",
            Stage::Transit => "transit",
            Stage::Queueing => "queueing",
            Stage::Protocol => "protocol",
            Stage::Barrier => "barrier",
            Stage::MsgWait => "msg-wait",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Compute => 0,
            Stage::Overhead => 1,
            Stage::Occupancy => 2,
            Stage::Transit => 3,
            Stage::Queueing => 4,
            Stage::Protocol => 5,
            Stage::Barrier => 6,
            Stage::MsgWait => 7,
        }
    }
}

/// The extracted critical path with its stage attribution and predictor
/// inputs. Produced by [`analyze`].
#[derive(Debug, Clone)]
pub struct CritPath {
    /// Finish time of the run (the latest traced event), in picoseconds.
    /// The path spans `[0, total_ps]`.
    pub total_ps: u64,
    /// Sum of the stage buckets; equals `total_ps` when the walk tiled the
    /// whole run (it always does unless the trace was truncated).
    pub attributed_ps: u64,
    /// Picoseconds attributed to each stage, indexed per [`Stage::ALL`].
    pub stage_ps: [u64; N_STAGES],
    /// Latency-clamped remote-miss stalls on the path: the predicted
    /// Figure-10 slope in cycles of runtime per cycle of added latency.
    pub traversals: u64,
    /// Message send→receive edges the path crossed.
    pub messages: u64,
    /// Shared-memory barrier joins the path crossed (last-arrival rule).
    pub barrier_joins: u64,
    /// Packet-record ids of messages on the path, sorted ascending
    /// (feeds the Perfetto exporter's `critical` flow flags).
    pub critical_records: Vec<u32>,
    /// The node whose retirement ends the path.
    pub end_node: u16,
    /// Whether the walk reached time zero without hitting the step cap or
    /// a truncated-trace dead end.
    pub complete: bool,
    /// Clock of the analyzed run, for cycle conversions.
    pub clock: Clock,
}

impl CritPath {
    /// Path length in processor cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_ps / self.clock.cycle_ps()
    }

    /// Cycles attributed to `stage`.
    pub fn stage_cycles(&self, stage: Stage) -> u64 {
        self.stage_ps[stage.index()] / self.clock.cycle_ps()
    }

    /// Fraction of the attributed path spent in `stage`, in `[0, 1]`.
    pub fn stage_share(&self, stage: Stage) -> f64 {
        if self.attributed_ps == 0 {
            return 0.0;
        }
        self.stage_ps[stage.index()] as f64 / self.attributed_ps as f64
    }

    /// Predicted `d(runtime)/d(latency)` in cycles per cycle: one per
    /// serialized latency-critical traversal on the path.
    pub fn predicted_slope(&self) -> f64 {
        self.traversals as f64
    }

    /// Predicted runtime (cycles) at emulated latency `lat`, extrapolating
    /// from a measured runtime at `base_lat` along the predicted slope.
    pub fn predict_runtime_cycles(&self, base_runtime: u64, base_lat: u64, lat: u64) -> f64 {
        base_runtime as f64 + self.predicted_slope() * (lat as f64 - base_lat as f64)
    }

    /// Whether packet-record `rec` lies on the critical path.
    pub fn is_critical(&self, rec: u32) -> bool {
        self.critical_records.binary_search(&rec).is_ok()
    }

    /// Renders the breakdown as an ASCII table.
    pub fn render_table(&self, title: &str) -> String {
        let mut out = format!(
            "critical path: {title} — {} cycles on path (node {})\n",
            self.total_cycles(),
            self.end_node
        );
        out.push_str("  stage       cycles         share\n");
        for stage in Stage::ALL {
            out.push_str(&format!(
                "  {:<10} {:>12}  {:>7.1}%\n",
                stage.label(),
                self.stage_cycles(stage),
                100.0 * self.stage_share(stage)
            ));
        }
        out.push_str(&format!(
            "  messages crossed: {}  barrier joins: {}  latency-critical traversals: {}\n",
            self.messages, self.barrier_joins, self.traversals
        ));
        out.push_str(&format!(
            "  predicted slope: {:.1} cycles per cycle of added latency\n",
            self.predicted_slope()
        ));
        if !self.complete {
            out.push_str("  (trace truncated: attribution covers part of the run)\n");
        }
        out
    }

    /// Renders the breakdown as CSV (`stage,cycles,share`).
    pub fn breakdown_csv(&self) -> String {
        let mut out = String::from("stage,cycles,share\n");
        for stage in Stage::ALL {
            out.push_str(&format!(
                "{},{},{:.6}\n",
                stage.label(),
                self.stage_cycles(stage),
                self.stage_share(stage)
            ));
        }
        out
    }
}

/// Per-message network-edge detail summed from hop records.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeDetail {
    queue_ps: u64,
    wire_ps: u64,
}

/// The in-progress backward walk.
struct Walker<'a> {
    timelines: &'a [Vec<TraceEvent>],
    send_index: &'a HashMap<u32, (usize, usize)>,
    edges: &'a HashMap<u32, EdgeDetail>,
    barrier_enters: &'a [Vec<usize>],
    clock: Clock,
    send_base_ps: u64,
    remote_stall_ps: u64,
    out: CritPath,
}

impl Walker<'_> {
    fn add(&mut self, stage: Stage, dt: Time) {
        self.out.stage_ps[stage.index()] += dt.as_ps();
        self.out.attributed_ps += dt.as_ps();
    }

    /// Attributes a segment that ends at `cur`: a `send_base` slice before
    /// a `Send` is message-build overhead, the rest is compute.
    fn tail_attr(&mut self, cur: &TraceEvent, dt: Time) {
        if let TraceKind::Send { .. } = cur.kind {
            let oh = Time::from_ps(self.send_base_ps.min(dt.as_ps()));
            self.add(Stage::Overhead, oh);
            self.add(Stage::Compute, dt.saturating_sub(oh));
        } else {
            self.add(Stage::Compute, dt);
        }
    }

    /// Attributes an ordinary (non-resume) segment `[prev, cur]`.
    fn segment_attr(&mut self, prev: &TraceEvent, cur: &TraceEvent, dt: Time) {
        if let TraceKind::Handler { cycles, .. } = prev.kind {
            let occ = Time::from_ps(self.clock.cycles(cycles as u64).as_ps().min(dt.as_ps()));
            self.add(Stage::Occupancy, occ);
            self.tail_attr(cur, dt.saturating_sub(occ));
        } else {
            self.tail_attr(cur, dt);
        }
    }

    /// Handles a `Resume` at `ir` on `node`: finds the matching block
    /// start, decides whether the path crosses a message edge or a barrier
    /// join, attributes accordingly, and returns the next position.
    fn handle_resume(&mut self, node: usize, ir: usize) -> (usize, usize) {
        let tl = &self.timelines[node];
        let resume = tl[ir];

        // Scan back over handler/send activity to the block that this
        // resume ends. A malformed pairing (sorted ties, truncation) falls
        // through to a plain compute segment.
        let mut ib = ir;
        let block = loop {
            if ib == 0 {
                break None;
            }
            ib -= 1;
            match tl[ib].kind {
                TraceKind::Handler { .. } | TraceKind::Send { .. } => continue,
                TraceKind::BlockMem { .. }
                | TraceKind::BlockSend
                | TraceKind::BlockMsg
                | TraceKind::BarrierEnter => break Some(tl[ib]),
                _ => break None,
            }
        };
        let Some(block) = block else {
            let prev = tl[ir - 1];
            self.segment_attr(&prev, &resume, resume.at.saturating_sub(prev.at));
            return (node, ir - 1);
        };

        // The causal handler: the last one in the block interval whose
        // message we can trace back to its sender. Only message waits and
        // barriers are message-caused; handlers that interrupt a memory or
        // send stall are incidental.
        let jumpable = matches!(block.kind, TraceKind::BlockMsg | TraceKind::BarrierEnter);
        let causal = jumpable
            .then(|| {
                (ib + 1..ir).rev().find(|&i| {
                    matches!(tl[i].kind, TraceKind::Handler { msg, .. }
                        if msg != NO_RECORD && self.send_index.contains_key(&msg))
                })
            })
            .flatten();

        if let Some(ih) = causal {
            let h = tl[ih];
            let msg = match h.kind {
                TraceKind::Handler { msg, .. } => msg,
                _ => unreachable!("causal index points at a handler"),
            };
            // Handler execution (including its sends) ends the block.
            self.add(Stage::Occupancy, resume.at.saturating_sub(h.at));
            // Network edge back to the sender, split queue vs transit.
            let &(snode, sidx) = &self.send_index[&msg];
            let send = self.timelines[snode][sidx];
            let edge = h.at.saturating_sub(send.at).as_ps();
            let detail = self.edges.get(&msg).copied().unwrap_or_default();
            let queue = detail.queue_ps.min(edge);
            self.add(Stage::Queueing, Time::from_ps(queue));
            self.add(Stage::Transit, Time::from_ps(edge - queue));
            self.out.messages += 1;
            self.out.critical_records.push(msg);
            return (snode, sidx);
        }

        if block.kind == TraceKind::BarrierEnter {
            // Shared-memory barrier: the release cannot begin before the
            // last arrival, so the path crosses to that node. Ties resolve
            // to the lowest node id for determinism.
            let round = self.barrier_enters[node]
                .iter()
                .filter(|&&i| i <= ib)
                .count()
                - 1;
            let mut latest = (node, ib, block.at);
            for (onode, enters) in self.barrier_enters.iter().enumerate() {
                if let Some(&oi) = enters.get(round) {
                    let oat = self.timelines[onode][oi].at;
                    if oat > latest.2 {
                        latest = (onode, oi, oat);
                    }
                }
            }
            self.out.barrier_joins += 1;
            if latest.0 == node {
                // We arrived last: the whole interval is barrier residency.
                self.add(Stage::Barrier, resume.at.saturating_sub(block.at));
                return (node, ib);
            }
            self.add(Stage::Barrier, resume.at.saturating_sub(latest.2));
            return (latest.0, latest.1);
        }

        // On-node stall: attribute handler time that overlapped it as
        // occupancy, the remainder to the block's stage.
        let total = resume.at.saturating_sub(block.at);
        let mut occ_ps = 0u64;
        for ev in &tl[ib + 1..ir] {
            if let TraceKind::Handler { cycles, .. } = ev.kind {
                occ_ps += self.clock.cycles(cycles as u64).as_ps();
            }
        }
        let occ = Time::from_ps(occ_ps.min(total.as_ps()));
        self.add(Stage::Occupancy, occ);
        let stall = total.saturating_sub(occ);
        match block.kind {
            TraceKind::BlockMem { .. } => {
                self.add(Stage::Protocol, stall);
                // Under the uniform-latency emulation a clamped remote miss
                // resumes at `since + L` or later, so the full block
                // duration meeting `L` identifies a latency-critical
                // traversal exactly.
                if total.as_ps() >= self.remote_stall_ps {
                    self.out.traversals += 1;
                }
            }
            TraceKind::BlockSend => self.add(Stage::Overhead, stall),
            TraceKind::BlockMsg => self.add(Stage::MsgWait, stall),
            _ => self.add(Stage::Compute, stall),
        }
        (node, ib)
    }
}

/// Builds the activity graph from `obs` and extracts the critical path.
///
/// `cfg` supplies the latency-emulation threshold for traversal counting
/// and the message-build overhead estimate; the analysis itself is pure
/// post-processing and never touches the simulator.
pub fn analyze(obs: &Observation, cfg: &MachineConfig) -> CritPath {
    let clock = obs.clock;
    let mut timelines: Vec<Vec<TraceEvent>> = vec![Vec::new(); obs.nodes];
    for e in obs.trace.events() {
        if (e.node as usize) < obs.nodes {
            timelines[e.node as usize].push(*e);
        }
    }
    for tl in &mut timelines {
        tl.sort_by_key(|e| e.at);
    }

    let mut send_index: HashMap<u32, (usize, usize)> = HashMap::new();
    let mut barrier_enters: Vec<Vec<usize>> = vec![Vec::new(); obs.nodes];
    for (node, tl) in timelines.iter().enumerate() {
        for (i, e) in tl.iter().enumerate() {
            match e.kind {
                TraceKind::Send { msg, .. } if msg != NO_RECORD => {
                    send_index.entry(msg).or_insert((node, i));
                }
                TraceKind::BarrierEnter => barrier_enters[node].push(i),
                _ => {}
            }
        }
    }

    let mut edges: HashMap<u32, EdgeDetail> = HashMap::new();
    for hop in &obs.net.hops {
        let d = edges.entry(hop.packet).or_default();
        d.queue_ps += hop.queue_time().as_ps();
        d.wire_ps += hop.wire_time().as_ps();
    }

    let remote_stall_cycles = cfg.latency_emulation.unwrap_or(FALLBACK_REMOTE_CYCLES);

    let mut walker = Walker {
        timelines: &timelines,
        send_index: &send_index,
        edges: &edges,
        barrier_enters: &barrier_enters,
        clock,
        send_base_ps: clock.cycles(cfg.msg.send_base).as_ps(),
        remote_stall_ps: clock.cycles(remote_stall_cycles).as_ps(),
        out: CritPath {
            total_ps: 0,
            attributed_ps: 0,
            stage_ps: [0; N_STAGES],
            traversals: 0,
            messages: 0,
            barrier_joins: 0,
            critical_records: Vec::new(),
            end_node: 0,
            complete: true,
            clock,
        },
    };

    // The path ends at the globally latest traced event (ties resolve to
    // the lowest node id for determinism).
    let mut end: Option<(usize, usize, Time)> = None;
    for (node, tl) in timelines.iter().enumerate() {
        if let Some(last) = tl.last() {
            if end.is_none_or(|(_, _, at)| last.at > at) {
                end = Some((node, tl.len() - 1, last.at));
            }
        }
    }
    let Some((mut node, mut idx, finish)) = end else {
        walker.out.complete = false;
        return walker.out;
    };
    walker.out.total_ps = finish.as_ps();
    walker.out.end_node = node as u16;
    if obs.trace.truncated() {
        walker.out.complete = false;
    }

    let cap = obs.trace.events().len() * 4 + 64;
    let mut steps = 0usize;
    loop {
        steps += 1;
        if steps > cap {
            walker.out.complete = false;
            break;
        }
        if idx == 0 {
            let first = timelines[node][0];
            walker.tail_attr(&first, first.at);
            break;
        }
        let cur = timelines[node][idx];
        if cur.kind == TraceKind::Resume {
            (node, idx) = walker.handle_resume(node, idx);
        } else {
            let prev = timelines[node][idx - 1];
            walker.segment_attr(&prev, &cur, cur.at.saturating_sub(prev.at));
            idx -= 1;
        }
    }

    walker.out.critical_records.sort_unstable();
    walker.out.critical_records.dedup();
    walker.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSeries;
    use crate::trace::Trace;
    use commsense_mesh::{Endpoint, HopRecord, NetRecording, PacketClass, PacketRecord};
    use proptest::prelude::*;

    const CYC: u64 = 1000; // ps per cycle at 1 GHz

    fn clock() -> Clock {
        Clock::from_mhz(1000.0)
    }

    fn t(cycles: u64) -> Time {
        Time::from_ps(cycles * CYC)
    }

    fn obs(nodes: usize, trace: Trace, net: NetRecording) -> Observation {
        Observation {
            series: MetricsSeries::new((0..nodes as u32).collect(), Vec::new(), nodes, 1_000_000),
            trace,
            net,
            clock: clock(),
            nodes,
            link_labels: Vec::new(),
        }
    }

    fn cfg() -> MachineConfig {
        MachineConfig::alewife()
    }

    fn rec(node: &mut Trace, at: u64, n: usize, kind: TraceKind) {
        node.record(t(at), t(at), n, kind);
    }

    fn packet(injected: u64, delivered: u64) -> PacketRecord {
        PacketRecord {
            src: Endpoint::node(0),
            dst: Endpoint::node(1),
            class: PacketClass::Data,
            bytes: 24,
            injected_at: t(injected),
            delivered_at: Some(t(delivered)),
        }
    }

    /// Linear chain: node 0 computes, sends; node 1 waits, handles, runs to
    /// done. The path crosses the one message with a known queue/wire
    /// split, and every stage total is exact.
    #[test]
    fn linear_chain_exact_breakdown() {
        let mut tr = Trace::new(64);
        rec(&mut tr, 0, 1, TraceKind::BlockMsg);
        rec(
            &mut tr,
            100,
            0,
            TraceKind::Send {
                dst: 1,
                bytes: 24,
                msg: 0,
            },
        );
        rec(&mut tr, 110, 0, TraceKind::Done);
        rec(
            &mut tr,
            150,
            1,
            TraceKind::Handler {
                handler: 1,
                cycles: 10,
                msg: 0,
            },
        );
        rec(&mut tr, 160, 1, TraceKind::Resume);
        rec(&mut tr, 200, 1, TraceKind::Done);

        let net = NetRecording {
            packets: vec![packet(100, 148)],
            hops: vec![HopRecord {
                packet: 0,
                link: 0,
                enqueued: t(100),
                start: t(110),
                end: t(140),
            }],
            dropped_packets: 0,
            link_busy: Vec::new(),
        };

        let cp = analyze(&obs(2, tr, net), &cfg());
        assert!(cp.complete);
        assert_eq!(cp.end_node, 1);
        assert_eq!(cp.total_cycles(), 200);
        assert_eq!(cp.attributed_ps, cp.total_ps, "walk tiles the whole run");
        assert_eq!(cp.messages, 1);
        assert_eq!(cp.critical_records, vec![0]);
        assert!(cp.is_critical(0));
        assert!(!cp.is_critical(7));
        // Done←resume 40 compute; handler 10 occupancy; edge 150-100=50
        // splits 10 queue + 40 transit; before the send: 20 cycles of
        // send_base overhead, 80 startup compute.
        assert_eq!(cp.stage_cycles(Stage::Compute), 120);
        assert_eq!(cp.stage_cycles(Stage::Overhead), 20);
        assert_eq!(cp.stage_cycles(Stage::Occupancy), 10);
        assert_eq!(cp.stage_cycles(Stage::Queueing), 10);
        assert_eq!(cp.stage_cycles(Stage::Transit), 40);
        assert_eq!(cp.traversals, 0);
        assert_eq!(cp.predicted_slope(), 0.0);
        let table = cp.render_table("chain");
        assert!(table.contains("compute"));
        assert!(table.contains("200 cycles on path"));
        let csv = cp.breakdown_csv();
        assert!(csv.starts_with("stage,cycles,share\n"));
        assert!(csv.contains("queueing,10,"));
    }

    /// Fan-in: two senders, one slow — the path must run through the slow
    /// sender (the last handler before the resume), not the fast one.
    #[test]
    fn fan_in_follows_slow_sender() {
        let mut tr = Trace::new(64);
        rec(&mut tr, 0, 0, TraceKind::BlockMsg);
        rec(
            &mut tr,
            20,
            1,
            TraceKind::Send {
                dst: 0,
                bytes: 24,
                msg: 0,
            },
        );
        rec(&mut tr, 25, 1, TraceKind::Done);
        rec(
            &mut tr,
            100,
            2,
            TraceKind::Send {
                dst: 0,
                bytes: 24,
                msg: 1,
            },
        );
        rec(&mut tr, 105, 2, TraceKind::Done);
        rec(
            &mut tr,
            50,
            0,
            TraceKind::Handler {
                handler: 1,
                cycles: 5,
                msg: 0,
            },
        );
        rec(
            &mut tr,
            120,
            0,
            TraceKind::Handler {
                handler: 1,
                cycles: 5,
                msg: 1,
            },
        );
        rec(&mut tr, 125, 0, TraceKind::Resume);
        rec(&mut tr, 130, 0, TraceKind::Done);

        let net = NetRecording {
            packets: vec![packet(20, 48), packet(100, 118)],
            hops: vec![
                HopRecord {
                    packet: 0,
                    link: 0,
                    enqueued: t(20),
                    start: t(20),
                    end: t(30),
                },
                HopRecord {
                    packet: 1,
                    link: 0,
                    enqueued: t(100),
                    start: t(100),
                    end: t(110),
                },
            ],
            dropped_packets: 0,
            link_busy: Vec::new(),
        };

        let cp = analyze(&obs(3, tr, net), &cfg());
        assert!(cp.complete);
        assert_eq!(cp.total_cycles(), 130);
        assert_eq!(cp.attributed_ps, cp.total_ps);
        // Only the slow sender's message is critical.
        assert_eq!(cp.critical_records, vec![1]);
        assert_eq!(cp.messages, 1);
        // 5 done-tail + 80 sender compute = 85; send_base 20 overhead;
        // handler 5 occupancy; edge 120-100=20 transit, no queueing.
        assert_eq!(cp.stage_cycles(Stage::Compute), 85);
        assert_eq!(cp.stage_cycles(Stage::Overhead), 20);
        assert_eq!(cp.stage_cycles(Stage::Occupancy), 5);
        assert_eq!(cp.stage_cycles(Stage::Transit), 20);
        assert_eq!(cp.stage_cycles(Stage::Queueing), 0);
        assert_eq!(cp.predicted_slope(), 0.0);
    }

    /// Shared-memory barrier round: no traced release messages, so the
    /// last-arrival rule routes the path through the latest
    /// `BarrierEnter`, and only the release propagation is barrier time.
    #[test]
    fn barrier_round_crosses_last_arrival() {
        let mut tr = Trace::new(64);
        rec(&mut tr, 10, 0, TraceKind::BarrierEnter);
        rec(&mut tr, 40, 1, TraceKind::BarrierEnter);
        rec(&mut tr, 25, 2, TraceKind::BarrierEnter);
        for n in 0..3 {
            rec(&mut tr, 60, n, TraceKind::Resume);
        }
        rec(&mut tr, 70, 0, TraceKind::Done);
        rec(&mut tr, 65, 1, TraceKind::Done);
        rec(&mut tr, 62, 2, TraceKind::Done);

        let cp = analyze(&obs(3, tr, NetRecording::default()), &cfg());
        assert!(cp.complete);
        assert_eq!(cp.end_node, 0);
        assert_eq!(cp.total_cycles(), 70);
        assert_eq!(cp.attributed_ps, cp.total_ps);
        assert_eq!(cp.barrier_joins, 1);
        // 10 tail compute + release propagation 60-40=20 barrier + the
        // last arrival's 40 cycles of pre-barrier compute.
        assert_eq!(cp.stage_cycles(Stage::Barrier), 20);
        assert_eq!(cp.stage_cycles(Stage::Compute), 50);
        assert_eq!(cp.predicted_slope(), 0.0);
    }

    /// Under latency emulation, stalls meeting the emulated latency are
    /// latency-critical traversals; shorter (local) stalls are not.
    #[test]
    fn emulated_remote_stalls_counted() {
        let mut tr = Trace::new(64);
        rec(&mut tr, 0, 0, TraceKind::BlockMem { line: 1 });
        rec(&mut tr, 100, 0, TraceKind::Resume);
        rec(&mut tr, 150, 0, TraceKind::BlockMem { line: 2 });
        rec(&mut tr, 250, 0, TraceKind::Resume);
        rec(&mut tr, 250, 0, TraceKind::BlockMem { line: 3 });
        rec(&mut tr, 280, 0, TraceKind::Resume);
        rec(&mut tr, 290, 0, TraceKind::Done);

        let mut config = cfg();
        config.latency_emulation = Some(100);
        let cp = analyze(&obs(1, tr, NetRecording::default()), &config);
        assert!(cp.complete);
        assert_eq!(cp.total_cycles(), 290);
        assert_eq!(cp.attributed_ps, cp.total_ps);
        assert_eq!(cp.traversals, 2, "two stalls meet the 100-cycle latency");
        assert_eq!(cp.predicted_slope(), 2.0);
        assert_eq!(cp.stage_cycles(Stage::Protocol), 230);
        assert_eq!(cp.stage_cycles(Stage::Compute), 60);
        // Doubling the latency doubles only the slope-scaled part.
        assert_eq!(cp.predict_runtime_cycles(290, 100, 200), 490.0);
    }

    /// An empty trace yields an empty (incomplete) path, not a panic.
    #[test]
    fn empty_trace_is_incomplete() {
        let cp = analyze(&obs(2, Trace::new(8), NetRecording::default()), &cfg());
        assert!(!cp.complete);
        assert_eq!(cp.total_cycles(), 0);
        assert_eq!(cp.messages, 0);
    }

    proptest! {
        /// Random single-node stall/compute programs: the predicted slope
        /// is non-negative and bounded by the total number of memory
        /// stalls, and the walk always tiles the full run exactly.
        #[test]
        fn slope_bounded_by_path_traversals(
            segs in proptest::collection::vec((0u8..3, 1u64..200), 1..20)
        ) {
            let mut tr = Trace::new(1024);
            let mut now = 0u64;
            let mut stalls = 0u64;
            for (kind, dur) in &segs {
                match kind {
                    0 => now += dur, // compute
                    1 => {
                        rec(&mut tr, now, 0, TraceKind::BlockMem { line: 7 });
                        now += dur;
                        rec(&mut tr, now, 0, TraceKind::Resume);
                        stalls += 1;
                    }
                    _ => {
                        rec(&mut tr, now, 0, TraceKind::BlockSend);
                        now += dur;
                        rec(&mut tr, now, 0, TraceKind::Resume);
                    }
                }
            }
            now += 1;
            rec(&mut tr, now, 0, TraceKind::Done);

            let mut config = cfg();
            config.latency_emulation = Some(100);
            let cp = analyze(&obs(1, tr, NetRecording::default()), &config);
            prop_assert!(cp.complete);
            prop_assert_eq!(cp.attributed_ps, cp.total_ps);
            prop_assert!(cp.predicted_slope() >= 0.0);
            prop_assert!(cp.traversals <= stalls);
            prop_assert_eq!(cp.total_cycles(), now);
        }
    }
}
