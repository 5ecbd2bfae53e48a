//! The machine: event loop, node driver, and mechanism orchestration.

use std::collections::VecDeque;

use commsense_cache::{
    AccessKind, AccessOutcome, Heap, LineId, MsgClass, ProtoMsg, ProtoOut, Protocol, TxnToken, Word,
};
use commsense_des::{Clock, EventQueue, Time};
use commsense_mesh::{
    CrossTraffic, Endpoint, NetEvent, Network, Packet, PacketClass, Priority, NO_RECORD,
};
use commsense_msgpass::{ActiveMessage, BarrierTree, HandlerId, RemoteQueue};

use crate::config::{BarrierStyle, MachineConfig, ProtoVariant, ReceiveMode};
use crate::error::{ConfigError, SimError};
use crate::invariants::Checker;
use crate::metrics::{MetricsSeries, Observation, RunState};
use crate::oracle::{OracleLog, OracleOp};
use crate::program::{HandlerCtx, NodeCtx, Program, RmwOp, Step, Until};
use crate::stats::{Bucket, LatencyHistogram, NodeStats, RunStats};
use crate::trace::{Trace, TraceKind};

/// System handler id: message-passing barrier arrival.
const SYS_BAR_ARRIVE: u16 = HandlerId::SYSTEM_BASE;
/// System handler id: message-passing barrier release.
const SYS_BAR_RELEASE: u16 = HandlerId::SYSTEM_BASE + 1;

/// Maximum cycles a node executes inline before yielding to the event loop.
/// Keeps event counts low without letting interrupt timing drift far.
const BATCH_CYCLES: u64 = 120;

/// Everything an application hands to the machine: the shared heap it
/// allocated, initial master-memory contents, and one program per node.
pub struct MachineSpec {
    /// Shared-memory layout (may be empty for pure message-passing apps).
    pub heap: Heap,
    /// Initial values of all shared words (`heap.total_words()` entries).
    pub initial: Vec<f64>,
    /// One program per node.
    pub programs: Vec<Box<dyn Program>>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MemOp {
    Read { word: Word, sync: bool },
    Write { word: Word, val: f64 },
    Rmw { line: LineId, op: RmwOp },
}

impl MemOp {
    fn line(self) -> LineId {
        match self {
            MemOp::Read { word, .. } | MemOp::Write { word, .. } => word.line,
            MemOp::Rmw { line, .. } => line,
        }
    }

    fn kind(self) -> AccessKind {
        match self {
            MemOp::Read { .. } => AccessKind::Read,
            MemOp::Write { .. } => AccessKind::Write,
            MemOp::Rmw { .. } => AccessKind::Rmw,
        }
    }

    fn block_bucket(self) -> Bucket {
        match self {
            MemOp::Read { sync: true, .. } | MemOp::Rmw { .. } => Bucket::Sync,
            _ => Bucket::MemWait,
        }
    }
}

/// Result of posting a relaxed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PostOutcome {
    /// Issued (hit, or posted to the buffer); cost in cycles.
    Inline(u64),
    /// Another transaction is in flight for the same line.
    Conflict,
    /// The write buffer is full; the store must stall.
    BufferFull,
}

/// Stages of the shared-memory combining-tree barrier. Each node owns a
/// counter line and a release-flag line (both homed locally), so arrival
/// combining climbs the tree with one remote RMW per hop and waiters spin
/// on their *local* flag — the standard software tree barrier for
/// Alewife-class machines (no wide sharing, no LimitLESS hot spot).
#[derive(Debug, Clone, Copy)]
enum BarStage {
    /// RMW on our own counter (counts our own arrival).
    Arrive,
    /// RMW on the parent's counter (our subtree is complete).
    Notify,
    /// Read of our own flag; we then spin until released.
    WaitFlag,
    /// Write of a child's flag (release propagating downward).
    ReleaseWrite {
        /// The child being released.
        child: u16,
    },
    /// Re-read of our own flag after the release invalidation.
    ResumeRead,
}

#[derive(Debug, Clone, Copy)]
enum Purpose {
    Demand {
        node: usize,
        op: MemOp,
        /// Oracle issue-order sequence number (0 when the oracle is off).
        seq: u64,
    },
    Prefetch {
        node: usize,
        merged: Option<(MemOp, u64)>,
        issued: Time,
    },
    /// A relaxed (release-consistent) store posted to the write buffer:
    /// the processor continues; the value applies at completion.
    Posted {
        node: usize,
        op: MemOp,
        seq: u64,
        merged: Option<(MemOp, u64)>,
    },
    Bar {
        node: usize,
        stage: BarStage,
        parity: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum OutKind {
    Demand,
    Prefetch,
    Posted,
    Sys,
}

#[derive(Debug, Clone, Copy)]
struct OutstandingEntry {
    token: u64,
    kind: OutKind,
}

/// Slab of live transaction purposes, indexed directly by token value.
///
/// Tokens are minted from a free list, so values stay small and every
/// lookup is an array index instead of a hash. Values are unique among
/// *live* tokens only (slots are recycled); the protocol treats tokens as
/// opaque completion handles and never orders or arithmetizes them, so
/// recycling cannot change simulated behavior.
#[derive(Debug)]
struct TokenTable {
    slots: Vec<Option<Purpose>>,
    free: Vec<u32>,
}

impl TokenTable {
    fn new() -> Self {
        TokenTable {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Allocates a token for a transaction with the given purpose.
    fn mint(&mut self, purpose: Purpose) -> u64 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(purpose);
                i as u64
            }
            None => {
                self.slots.push(Some(purpose));
                (self.slots.len() - 1) as u64
            }
        }
    }

    fn get(&self, token: u64) -> Option<Purpose> {
        self.slots.get(token as usize).copied().flatten()
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Purpose> {
        self.slots.get_mut(token as usize).and_then(|s| s.as_mut())
    }

    /// Frees a token, returning its purpose (slot goes back on the free
    /// list for the next mint).
    fn remove(&mut self, token: u64) -> Option<Purpose> {
        let p = self.slots.get_mut(token as usize).and_then(Option::take);
        if p.is_some() {
            self.free.push(token as u32);
        }
        p
    }

    /// Live entries, for the deadlock diagnostic.
    fn live(&self) -> impl Iterator<Item = (u64, &Purpose)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|p| (i as u64, p)))
    }
}

/// Outstanding coherence transactions, keyed by `(node, line)`.
///
/// A node has at most a handful outstanding at once (one blocked demand
/// plus the prefetch/write-buffer depth), so a per-node linear vector beats
/// a hash map: lookups are a short scan of a cache-resident array.
#[derive(Debug)]
struct OutstandingTable {
    per_node: Vec<Vec<(u64, OutstandingEntry)>>,
}

impl OutstandingTable {
    fn new(nodes: usize) -> Self {
        OutstandingTable {
            per_node: vec![Vec::new(); nodes],
        }
    }

    fn get(&self, node: usize, line: u64) -> Option<OutstandingEntry> {
        self.per_node[node]
            .iter()
            .find(|(l, _)| *l == line)
            .map(|&(_, e)| e)
    }

    fn contains(&self, node: usize, line: u64) -> bool {
        self.per_node[node].iter().any(|(l, _)| *l == line)
    }

    fn insert(&mut self, node: usize, line: u64, entry: OutstandingEntry) {
        debug_assert!(
            !self.contains(node, line),
            "duplicate outstanding entry for node {node} line {line}"
        );
        self.per_node[node].push((line, entry));
    }

    fn remove(&mut self, node: usize, line: u64) {
        let v = &mut self.per_node[node];
        if let Some(i) = v.iter().position(|(l, _)| *l == line) {
            v.swap_remove(i);
        }
    }

    /// Live entries, for the deadlock diagnostic.
    fn live(&self) -> impl Iterator<Item = (usize, u64, &OutstandingEntry)> {
        self.per_node
            .iter()
            .enumerate()
            .flat_map(|(n, v)| v.iter().map(move |(l, e)| (n, *l, e)))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    /// A wake event is scheduled (or the node is mid-batch).
    Running,
    /// Waiting for a coherence transaction; `bucket` says where the stall
    /// is charged.
    BlockedMem { since: Time, bucket: Bucket },
    /// Stalled on a full network-output port.
    BlockedSend { since: Time },
    /// Blocked in `Step::WaitMsg`.
    BlockedMsg { since: Time },
    /// Inside the barrier.
    InBarrier { since: Time },
    /// Program complete.
    Done,
}

impl Status {
    /// The logical block start, for blocked states.
    fn since(self) -> Option<Time> {
        match self {
            Status::BlockedMem { since, .. }
            | Status::BlockedSend { since }
            | Status::BlockedMsg { since }
            | Status::InBarrier { since } => Some(since),
            Status::Running | Status::Done => None,
        }
    }
}

/// Per-node machine state, struct-of-arrays: one flat `Vec` per field,
/// indexed by node id. Event handlers touch only the fields they need, so
/// each access walks one dense array instead of striding over a fat
/// per-node struct; whole-machine scans (metrics sampling, stat
/// collection) stream a single column.
#[derive(Debug)]
struct Nodes {
    status: Vec<Status>,
    gen: Vec<u64>,
    pending_delay: Vec<Time>,
    handler_in_block: Vec<Time>,
    rq: Vec<RemoteQueue>,
    stats: Vec<NodeStats>,
    waitmsg_handled: Vec<bool>,
    finish: Vec<Option<Time>>,
    ctrl_free_at: Vec<Time>,
    loaded: Vec<f64>,
    rmw: Vec<(f64, f64)>,
    /// Outstanding posted (relaxed) stores.
    posted: Vec<usize>,
    /// A store stalled on a full write buffer, to retry when a slot frees.
    stalled_store: Vec<Option<MemOp>>,
    /// Pending release fence: what to do once `posted` drains to zero.
    fence: Vec<Option<FenceTarget>>,
    /// When the node's current handler activity finishes; a blocked node
    /// cannot resume earlier (handlers occupy the processor).
    handler_busy_until: Vec<Time>,
    /// Packet-record ids parallel to `rq`, correlating queued messages
    /// with their network lifecycle for the trace. Only populated while
    /// tracing (empty otherwise; drains fall back to [`NO_RECORD`]).
    rq_ids: Vec<VecDeque<u32>>,
    /// The node's [`Step::SpinUntil`] loop in progress, if any. It survives
    /// a batch end and a miss: the next batch continues the loop before
    /// the program is resumed.
    spin: Vec<Option<Spin>>,
}

/// A [`Step::SpinUntil`] loop in progress on a node.
#[derive(Debug, Clone, Copy)]
struct Spin {
    word: Word,
    /// Backoff cycles, already clamped to at least one.
    backoff: u64,
    until: Until,
    /// The next sub-step: load the word (`true`) or test the value just
    /// loaded (`false`).
    load_next: bool,
}

/// What a node does after its write buffer drains.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FenceTarget {
    /// Enter the barrier (barriers are release fences).
    Barrier,
    /// Retire the program.
    Done,
}

impl Nodes {
    fn new(n: usize) -> Self {
        Nodes {
            status: vec![Status::Running; n],
            gen: vec![0; n],
            pending_delay: vec![Time::ZERO; n],
            handler_in_block: vec![Time::ZERO; n],
            rq: (0..n).map(|_| RemoteQueue::new()).collect(),
            stats: vec![NodeStats::default(); n],
            waitmsg_handled: vec![false; n],
            finish: vec![None; n],
            ctrl_free_at: vec![Time::ZERO; n],
            loaded: vec![0.0; n],
            rmw: vec![(0.0, 0.0); n],
            posted: vec![0; n],
            stalled_store: vec![None; n],
            fence: vec![None; n],
            handler_busy_until: vec![Time::ZERO; n],
            rq_ids: (0..n).map(|_| VecDeque::new()).collect(),
            spin: vec![None; n],
        }
    }
}

/// Per-node, per-parity bookkeeping of the shared-memory tree barrier.
#[derive(Debug, Default, Clone, Copy)]
struct SmBar {
    /// Arrivals observed (self + completed child subtrees).
    count: usize,
    /// Our flag read completed before the release reached us.
    waiting: bool,
    /// The release write for this epoch has reached our flag.
    released: bool,
    /// Release writes to children still outstanding.
    pending_writes: usize,
}

#[derive(Debug)]
struct BarrierCtl {
    tree: BarrierTree,
    /// `lines[parity][node]` = `[counter, flag]` lines homed at `node`.
    lines: [Vec<[LineId; 2]>; 2],
    sm: Vec<[SmBar; 2]>,
    node_epoch: Vec<u64>,
    mp_counts: Vec<[usize; 2]>,
}

/// A protocol message in flight (over the network, or on the local /
/// emulated fast path), parked in the [`Machine::penvs`] arena while a
/// 16-byte [`Ev`] handle circulates through the event queue.
#[derive(Debug, Clone, Copy)]
struct PEnv {
    from: u32,
    /// Network priority the message travelled (or would travel) at; protocol
    /// messages emitted while handling this one inherit it, so criticality
    /// propagates through forwarded invalidations, acks, and grants.
    pri: Priority,
    msg: ProtoMsg,
}

/// Packet-tag bit marking an active-message arena handle (clear = a
/// protocol-message handle into [`Machine::penvs`]).
const TAG_AM: u64 = 1 << 63;

/// Event-kind tag: one flat byte per kind, so the pop site dispatches
/// through a single-level jump table — no nested `NetEvent` match, no
/// enum payload wider than the [`Ev`] scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum EvKind {
    /// Resume a node's execution batch: `a` = node, `b` = wake generation.
    Wake,
    /// Network: a packet attempts its next hop; `a` = packet slot.
    NetTryHop,
    /// Network: a link frees; `a` = link id.
    NetLinkFree,
    /// Network: a packet reached its ejection port; `a` = packet slot.
    NetDeliver,
    /// Protocol message arrival: `a` = handling node, `b` = penv slot.
    Proto,
    /// Deferred shared-mode prefetch fill: `a` = token, `b` = line.
    FillPrefetchRd,
    /// Deferred exclusive-mode prefetch fill: `a` = token, `b` = line.
    FillPrefetchEx,
    /// Cross-traffic injector tick.
    CrossTick,
}

/// A queue entry: 16 bytes, `Copy`, cache-dense. Payloads wider than two
/// scalars (protocol messages, active messages) live in arenas and are
/// carried here by slot handle.
#[derive(Debug, Clone, Copy)]
struct Ev {
    kind: EvKind,
    a: u32,
    b: u64,
}

impl Ev {
    fn wake(node: usize, gen: u64) -> Ev {
        Ev {
            kind: EvKind::Wake,
            a: node as u32,
            b: gen,
        }
    }

    fn net(e: NetEvent) -> Ev {
        let (kind, a) = match e {
            NetEvent::TryHop { pkt } => (EvKind::NetTryHop, pkt),
            NetEvent::LinkFree { link } => (EvKind::NetLinkFree, link),
            NetEvent::Deliver { pkt } => (EvKind::NetDeliver, pkt),
        };
        Ev { kind, a, b: 0 }
    }

    fn proto(at: usize, slot: u32) -> Ev {
        Ev {
            kind: EvKind::Proto,
            a: at as u32,
            b: slot as u64,
        }
    }

    /// Token values are slab indices (see [`TokenTable`]), so they fit
    /// `u32` structurally.
    fn fill_prefetch(token: u64, line: LineId, exclusive: bool) -> Ev {
        Ev {
            kind: if exclusive {
                EvKind::FillPrefetchEx
            } else {
                EvKind::FillPrefetchRd
            },
            a: token as u32,
            b: line.0,
        }
    }

    const CROSS_TICK: Ev = Ev {
        kind: EvKind::CrossTick,
        a: 0,
        b: 0,
    };
}

/// The emulated machine. Construct with [`Machine::new`], drive with
/// [`Machine::run`], then inspect [`RunStats`], the master memory, or the
/// final program states.
///
/// # Examples
///
/// A two-node producer/consumer over shared memory:
///
/// ```
/// use commsense_cache::{Heap, Word};
/// use commsense_machine::program::{HandlerCtx, NodeCtx, Program, Step};
/// use commsense_machine::{Machine, MachineConfig, MachineSpec};
///
/// struct OneShot(Vec<Step>, usize);
/// impl Program for OneShot {
///     fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
///         let s = self.0.get(self.1).cloned().unwrap_or(Step::Done);
///         self.1 += 1;
///         s
///     }
///     fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
/// }
///
/// let cfg = MachineConfig::tiny(); // 2x2 mesh
/// let mut heap = Heap::new(cfg.nodes);
/// let line = heap.alloc(1, |_| 0);
/// let w = line.word(0, 0);
/// let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
///     .map(|n| Box::new(OneShot(match n {
///         0 => vec![Step::Store(w, 6.5), Step::Barrier],
///         1 => vec![Step::Barrier, Step::Load(w)],
///         _ => vec![Step::Barrier],
///     }, 0)) as Box<dyn Program>)
///     .collect();
/// let initial = vec![0.0; heap.total_words()];
/// let mut machine = Machine::new(cfg, MachineSpec { heap, initial, programs })?;
/// let stats = machine.run()?;
/// assert!(stats.runtime_cycles > 0);
/// assert_eq!(machine.master_word(w), 6.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Machine {
    cfg: MachineConfig,
    clock: Clock,
    queue: EventQueue<Ev>,
    now: Time,
    net: Network,
    proto: Protocol,
    master: Vec<f64>,
    programs: Vec<Box<dyn Program>>,
    nodes: Nodes,
    /// Arena of in-flight protocol messages; events and packet tags carry
    /// `u32` slots into it. No occupancy flag: slots are minted exactly
    /// once per message and freed exactly once when handled.
    penvs: Vec<PEnv>,
    free_penvs: Vec<u32>,
    /// Arena of in-flight active messages (packet tags carry the slot
    /// with [`TAG_AM`] set).
    ams: Vec<Option<ActiveMessage>>,
    free_ams: Vec<u32>,
    /// Machine packets injected into the network and not yet delivered
    /// (the message-conservation in-flight count; local fast-path
    /// messages mint penv slots but never touch the network).
    net_live: usize,
    tokens: TokenTable,
    outstanding: OutstandingTable,
    /// Pool of scratch buffers for protocol outputs. A pool (not a single
    /// buffer) because processing one batch of outputs can re-enter the
    /// protocol (a grant completes, its fill emits more outputs).
    outs_pool: Vec<Vec<ProtoOut>>,
    barrier: BarrierCtl,
    cross: Option<CrossTraffic>,
    /// Scratch buffer for cross-traffic tick packet batches (reused so the
    /// stateful generators allocate nothing per tick).
    cross_buf: Vec<Packet>,
    /// Criticality of the transaction currently being advanced: set when a
    /// processor issues an access ([`Machine::try_access`]) and when a
    /// controller picks up a message ([`Machine::ev_proto`]), read by
    /// [`Machine::dispatch_proto`] under the criticality-aware variant.
    /// Dead state (always `Low`) under the baseline variant.
    cur_pri: Priority,
    /// Armed priority-inversion fault: the next high-priority invalidation
    /// acknowledgement delivered over the network bypasses the checker's
    /// consumption accounting (see
    /// [`Machine::fault_smuggle_next_priority_ack`]).
    fault_smuggle_ack: bool,
    finished: usize,
    /// The loop's one stop test: the last program retired or a check failed.
    halted: bool,
    /// The first check failure, returned once its dispatch ends.
    failure: Option<SimError>,
    events: u64,
    messages_sent: u64,
    useless_prefetches: u64,
    miss_latency: LatencyHistogram,
    trace: Option<Trace>,
    /// Epoch-sampled metric series (observation mode only).
    metrics: Option<Box<MetricsSeries>>,
    /// Next epoch boundary to sample; [`Time::MAX`] when observation is
    /// off, so the hot loop pays one never-taken comparison.
    metrics_next: Time,
    /// Sampling period (picoseconds).
    metrics_epoch: Time,
    /// Runtime protocol-invariant checker (check mode only).
    checker: Option<Box<Checker>>,
    /// Applied memory-access log for the SC oracle (check mode with
    /// [`crate::CheckConfig::oracle`] only).
    oracle: Option<Box<OracleLog>>,
    /// Per-kind dispatch self-time accumulator (profiled runs only).
    profile: Option<Box<ProfileAccum>>,
}

/// Per-kind counters of a profiled run, accumulated inside the event
/// loop. `EvKind` is `repr(u8)`, so each array is indexed by kind tag.
#[derive(Debug, Default)]
struct ProfileAccum {
    count: [u64; 8],
    nanos: [u64; 8],
    batches: u64,
}

/// Human label per event kind, indexed like [`ProfileAccum`].
const EV_KIND_LABELS: [&str; 8] = [
    "wake",
    "net-try-hop",
    "net-link-free",
    "net-deliver",
    "proto",
    "fill-prefetch-rd",
    "fill-prefetch-ex",
    "cross-tick",
];

/// Self-time per event kind measured by a profiled run (see
/// [`MachineConfig::profile_dispatch`]): how the event loop's wall time
/// splits across dispatch targets, for the benchmark's per-kind `*.self_s` metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DispatchProfile {
    /// One row per event kind that fired.
    pub kinds: Vec<DispatchKindProfile>,
    /// Same-instant batches drained.
    pub batches: u64,
}

/// One event kind's share of a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchKindProfile {
    /// Stable kind label (e.g. `"proto"`, `"net-try-hop"`).
    pub kind: &'static str,
    /// Events of this kind dispatched.
    pub events: u64,
    /// Total self time spent in this kind's dispatch target, in seconds
    /// (excludes queue pop/push bookkeeping between events).
    pub self_secs: f64,
}

impl Machine {
    /// Builds a machine from a configuration and an application spec.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] if the config is inconsistent or asks for an
    /// impossible observation ([`MachineConfig::validate`]), if `spec.initial` does not cover the
    /// heap, or if the program count or the heap's node count differs from
    /// the machine's node count.
    pub fn new(cfg: MachineConfig, spec: MachineSpec) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let MachineSpec {
            mut heap,
            mut initial,
            programs,
        } = spec;
        if initial.len() != heap.total_words() {
            return Err(ConfigError::InitialValues {
                values: initial.len(),
                heap_words: heap.total_words(),
            });
        }
        if programs.len() != cfg.nodes {
            return Err(ConfigError::Programs {
                programs: programs.len(),
                nodes: cfg.nodes,
            });
        }
        if heap.nodes() != cfg.nodes {
            return Err(ConfigError::HeapNodes {
                heap_nodes: heap.nodes(),
                nodes: cfg.nodes,
            });
        }

        // Machine-internal barrier lines: per node, [counter, flag] x 2
        // parities, homed at the owning node (combining-tree layout).
        let n_nodes = cfg.nodes;
        let bar = heap.alloc(4 * n_nodes, |i| i / 4);
        initial.extend(std::iter::repeat_n(0.0, 8 * n_nodes));
        let lines = [
            (0..n_nodes)
                .map(|i| [bar.line(4 * i), bar.line(4 * i + 1)])
                .collect::<Vec<_>>(),
            (0..n_nodes)
                .map(|i| [bar.line(4 * i + 2), bar.line(4 * i + 3)])
                .collect::<Vec<_>>(),
        ];

        let clock = cfg.clock();
        let n = cfg.nodes;
        let proto = Protocol::new(heap, cfg.proto.clone());
        let net = Network::new(cfg.net.clone());
        let cross = cfg.cross_traffic.clone().map(CrossTraffic::new);
        let mut m = Machine {
            cfg,
            clock,
            queue: EventQueue::new(),
            now: Time::ZERO,
            net,
            proto,
            master: initial,
            programs,
            nodes: Nodes::new(n),
            penvs: Vec::new(),
            free_penvs: Vec::new(),
            ams: Vec::new(),
            free_ams: Vec::new(),
            net_live: 0,
            tokens: TokenTable::new(),
            outstanding: OutstandingTable::new(n),
            outs_pool: Vec::new(),
            barrier: BarrierCtl {
                tree: BarrierTree::new(n),
                lines,
                sm: vec![[SmBar::default(); 2]; n],
                node_epoch: vec![0; n],
                mp_counts: vec![[0, 0]; n],
            },
            cross,
            cross_buf: Vec::new(),
            cur_pri: Priority::Low,
            fault_smuggle_ack: false,
            finished: 0,
            halted: false,
            failure: None,
            events: 0,
            messages_sent: 0,
            useless_prefetches: 0,
            miss_latency: LatencyHistogram::default(),
            trace: None,
            metrics: None,
            metrics_next: Time::MAX,
            metrics_epoch: Time::ZERO,
            checker: None,
            oracle: None,
            profile: None,
        };
        if m.cfg.profile_dispatch {
            m.profile = Some(Box::default());
        }
        if let Some(o) = m.cfg.observe {
            m.trace = Some(Trace::new(o.trace_capacity));
            let epoch = clock.cycles(o.epoch_cycles);
            // At or below the threshold every node and link gets a column
            // (the seed behavior); above it, a deterministic evenly spaced
            // sample keeps the series size bounded at 1024 nodes.
            let node_ids = MetricsSeries::sample_ids(n, o.sparse_threshold);
            let link_ids = MetricsSeries::sample_ids(m.net.num_links(), 2 * o.sparse_threshold);
            m.metrics = Some(Box::new(MetricsSeries::new(
                node_ids,
                link_ids,
                n,
                epoch.as_ps(),
            )));
            m.metrics_epoch = epoch;
            m.metrics_next = epoch;
        }
        if let Some(c) = m.cfg.check {
            m.checker = Some(Box::new(Checker::new(c)));
            if c.oracle {
                // The master copy already includes the machine-internal
                // barrier words appended above.
                m.oracle = Some(Box::new(OracleLog::new(n, m.master.clone())));
            }
        }
        // Observation and checking share the network recorder; size it for
        // whichever needs more.
        let record_packets = match (m.cfg.observe, m.cfg.check) {
            (Some(o), Some(c)) => Some(o.max_packets.max(c.max_packets)),
            (Some(o), None) => Some(o.max_packets),
            (None, Some(c)) => Some(c.max_packets),
            (None, None) => None,
        };
        if let Some(cap) = record_packets {
            m.net.enable_recording(cap);
        }
        for node in 0..n {
            m.schedule_wake(node, Time::ZERO);
        }
        if let Some(iv) = m.cross.as_ref().and_then(|c| c.interval()) {
            m.queue.schedule(iv, Ev::CROSS_TICK);
        }
        Ok(m)
    }

    /// Runs the machine until every program is done.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the event queue drains while programs are
    /// still blocked; [`SimError::Invariant`] / [`SimError::Oracle`] when a
    /// checked run (see [`MachineConfig::check`]) violates the protocol or
    /// the SC oracle; [`SimError::InjectedFault`] before simulating
    /// anything when [`MachineConfig::inject_panic`] is set.
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        if self.cfg.profile_dispatch {
            self.run_loop::<true, true>()?;
        } else {
            self.run_loop::<false, true>()?;
        }
        self.finish_run()
    }

    /// Runs the machine popping one event at a time instead of draining
    /// same-instant batches. The reference loop batching is measured
    /// against: simulated cycles and event counts must match
    /// [`Machine::run`] exactly (pinned by the batching identity test).
    #[doc(hidden)]
    pub fn run_unbatched(&mut self) -> Result<RunStats, SimError> {
        self.run_loop::<false, false>()?;
        self.finish_run()
    }

    /// The event loop. `BATCHED` drains every event of the current instant
    /// into a reusable batch buffer in one O(1) bucket swap; events
    /// scheduled *at* that instant during the batch form the next batch,
    /// exactly the order a one-at-a-time pop (`BATCHED = false`) produces
    /// (same-instant FIFO — pinned by the des property suite and the
    /// batching identity test). The per-event `halted` test stops mid-batch
    /// the moment the last program retires or a check fails, so event
    /// counts match the unbatched loop bit for bit. `PROFILE` adds
    /// per-kind self-time accounting ([`MachineConfig::profile_dispatch`]);
    /// without it the loop carries no timing calls at all.
    fn run_loop<const PROFILE: bool, const BATCHED: bool>(&mut self) -> Result<(), SimError> {
        if self.cfg.inject_panic {
            return Err(SimError::InjectedFault);
        }
        let mut batch: VecDeque<Ev> = VecDeque::new();
        while !self.halted {
            let popped = if BATCHED {
                self.queue.pop_instant_into(&mut batch)
            } else {
                self.queue.pop().map(|(t, ev)| {
                    batch.push_back(ev);
                    t
                })
            };
            let Some(t) = popped else {
                return Err(self.deadlock());
            };
            // One comparison against a Time::MAX sentinel when observation
            // is off; sampling happens between events, so it can never
            // change dispatch order or any simulated time. The depth the
            // sampler sees is computed as if exactly one event had been
            // popped, matching the unbatched loop's series.
            if t >= self.metrics_next {
                let depth = self.queue.len() + batch.len() - 1;
                self.metrics_tick(t, depth);
            }
            self.now = t;
            if PROFILE {
                self.profile.as_mut().expect("profiled loop").batches += 1;
            }
            while let Some(ev) = batch.pop_front() {
                self.events += 1;
                let kind = ev.kind as usize;
                let start = PROFILE.then(std::time::Instant::now);
                self.dispatch(ev);
                if let Some(start) = start {
                    let p = self.profile.as_mut().expect("profiled loop");
                    p.count[kind] += 1;
                    p.nanos[kind] += start.elapsed().as_nanos() as u64;
                }
                if self.halted {
                    batch.clear();
                    break;
                }
            }
        }
        self.failure.take().map_or(Ok(()), Err)
    }

    /// End-of-run verification (check mode only) and the stats of a
    /// finished run.
    fn finish_run(&mut self) -> Result<RunStats, SimError> {
        if self.checker.is_some() {
            self.final_run_checks()?;
        }
        Ok(self.collect_stats())
    }

    /// The per-kind dispatch self-time breakdown of a profiled run, or
    /// `None` unless [`MachineConfig::profile_dispatch`] was set. Call
    /// after [`Machine::run`].
    pub fn take_dispatch_profile(&mut self) -> Option<DispatchProfile> {
        let p = self.profile.take()?;
        let kinds = (0..EV_KIND_LABELS.len())
            .filter(|&k| p.count[k] > 0)
            .map(|k| DispatchKindProfile {
                kind: EV_KIND_LABELS[k],
                events: p.count[k],
                self_secs: p.nanos[k] as f64 / 1e9,
            })
            .collect();
        Some(DispatchProfile {
            kinds,
            batches: p.batches,
        })
    }

    /// End-of-run verification (check mode only): whole-heap protocol
    /// invariants, link capacity and message conservation against the
    /// recorder, and the SC oracle replay.
    #[cold]
    #[inline(never)]
    fn final_run_checks(&self) -> Result<(), SimError> {
        self.proto
            .verify_invariants((0..self.proto.num_lines()).map(LineId))
            .map_err(|e| SimError::Invariant(format!("violated at end of run: {e}")))?;
        if let Some(ch) = self.checker.as_ref() {
            ch.final_check(
                self.net.link_overlap(),
                self.net_live,
                self.net.peek_recording(),
            )?;
        }
        if let Some(o) = self.oracle.as_ref() {
            crate::oracle::verify(o, self.cfg.write_buffer > 0)
                .map_err(|e| SimError::Oracle(format!("violated: {e}")))?;
        }
        Ok(())
    }

    /// Records the first failure a check finds mid-dispatch and halts the
    /// loop at the end of the current dispatch.
    #[cold]
    #[inline(never)]
    fn fail(&mut self, e: SimError) {
        self.failure.get_or_insert(e);
        self.halted = true;
    }

    /// Builds the application-deadlock diagnostic. Kept out of line so the
    /// hot loop carries no formatting machinery: `run` stays a
    /// pop/dispatch kernel and this never-taken path costs one cold call.
    #[cold]
    #[inline(never)]
    fn deadlock(&self) -> SimError {
        let blocked: Vec<usize> = (0..self.cfg.nodes)
            .filter(|&i| self.nodes.status[i] != Status::Done)
            .collect();
        let stuck: Vec<String> = blocked
            .iter()
            .map(|&i| format!("{i}:{:?}", self.nodes.status[i]))
            .collect();
        let outstanding: Vec<String> = self
            .outstanding
            .live()
            .map(|(node, line, e)| format!("({node},{line}): {e:?}"))
            .collect();
        let tokens: Vec<String> = self
            .tokens
            .live()
            .map(|(t, p)| format!("{t}: {p:?}"))
            .collect();
        SimError::Deadlock {
            blocked,
            detail: format!(
                "nodes blocked with no pending events: {stuck:?}; \
                 outstanding={outstanding:?} tokens={tokens:?} barrier={:?}",
                self.barrier.sm
            ),
        }
    }

    /// Samples every epoch boundary in `(previous boundary, t]`. Kept cold
    /// and out of line: with observation off the call never happens, and
    /// with it on the cost is bounded by one snapshot per epoch regardless
    /// of event rate. Sampling only reads machine state — it must never
    /// schedule events or mutate anything the simulation consults.
    #[cold]
    #[inline(never)]
    fn metrics_tick(&mut self, t: Time, queue_depth: usize) {
        let Some(mut m) = self.metrics.take() else {
            return;
        };
        while self.metrics_next <= t {
            let at = self.metrics_next;
            m.at_ps.push(at.as_ps());
            let mut in_barrier = 0u32;
            // Exact state counts over every node; per-node columns only for
            // the sampled ids (identity when dense).
            let mut counts = [0u32; RunState::ALL.len()];
            let mut states = vec![0u8; 0];
            states.reserve(self.cfg.nodes);
            for i in 0..self.cfg.nodes {
                let status = self.nodes.status[i];
                if matches!(status, Status::InBarrier { .. }) {
                    in_barrier += 1;
                }
                let state = match status {
                    Status::Done => RunState::Done,
                    // A handler (or send/receive overhead) occupies the
                    // processor past this instant.
                    _ if self.nodes.handler_busy_until[i] > at => RunState::MsgOverhead,
                    Status::BlockedMem { bucket, .. } => {
                        if bucket == Bucket::Sync {
                            RunState::Sync
                        } else {
                            RunState::MemWait
                        }
                    }
                    Status::BlockedSend { .. } => RunState::MemWait,
                    Status::BlockedMsg { .. } | Status::InBarrier { .. } => RunState::Sync,
                    Status::Running => RunState::Compute,
                };
                counts[state as usize] += 1;
                states.push(state as u8);
            }
            for &i in &m.node_ids {
                let i = i as usize;
                m.node_state.push(states[i]);
                let out = self.outstanding.per_node[i].len();
                m.outstanding.push(out.min(u16::MAX as usize) as u16);
            }
            m.state_counts.extend(counts);
            for &l in &m.link_ids {
                let l = l as usize;
                m.link_busy_ps.push(self.net.link_busy(l).as_ps());
                let q = self.net.link_queue_len(l);
                m.link_queue.push(q.min(u16::MAX as usize) as u16);
            }
            m.event_queue_depth
                .push(queue_depth.min(u32::MAX as usize) as u32);
            m.barrier_occupancy.push(in_barrier);
            self.metrics_next += self.metrics_epoch;
        }
        self.metrics = Some(m);
    }

    /// Detaches everything the observability layer collected (metric
    /// series, trace, network recording), or `None` if the machine was not
    /// configured with [`crate::ObserveConfig`]. Call after [`Machine::run`]
    /// and before [`Machine::into_programs`].
    pub fn take_observation(&mut self) -> Option<Observation> {
        let series = *self.metrics.take()?;
        self.metrics_next = Time::MAX;
        let trace = self.trace.take().unwrap_or_else(|| Trace::new(0));
        let net = self.net.take_recording().unwrap_or_default();
        let topo = self.net.topo();
        let link_labels = series
            .link_ids
            .iter()
            .map(|&l| topo.link_label(l as usize))
            .collect();
        Some(Observation {
            series,
            trace,
            net,
            clock: self.clock,
            nodes: self.cfg.nodes,
            link_labels,
        })
    }

    /// The master copy of shared memory (valid after [`Machine::run`]).
    pub fn master(&self) -> &[f64] {
        &self.master
    }

    /// Reads one shared word from the master copy.
    pub fn master_word(&self, w: Word) -> f64 {
        self.master[w.flat_index()]
    }

    /// Consumes the machine, returning the final program states for
    /// downcasting.
    pub fn into_programs(self) -> Vec<Box<dyn Program>> {
        self.programs
    }

    /// The protocol engine (for invariant checks in tests).
    pub fn protocol(&self) -> &Protocol {
        &self.proto
    }

    /// Enables execution tracing with the given event capacity (call
    /// before [`Machine::run`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    fn trace_event(&mut self, at: Time, node: usize, kind: TraceKind) {
        let now = self.now;
        if let Some(t) = self.trace.as_mut() {
            t.record(at, now, node, kind);
        }
    }

    fn collect_stats(&self) -> RunStats {
        let runtime = self
            .nodes
            .finish
            .iter()
            .filter_map(|&f| f)
            .fold(Time::ZERO, Time::max);
        RunStats {
            runtime,
            runtime_cycles: self.clock.cycles_at(runtime),
            nodes: self.nodes.stats.clone(),
            volume: self.net.stats().injected,
            bisection: self.net.stats().bisection,
            proto: self.proto.stats(),
            messages_sent: self.messages_sent,
            events: self.events,
            mean_packet_latency: self.net.stats().mean_latency(),
            useless_prefetches: self.useless_prefetches,
            useful_prefetches: (0..self.cfg.nodes)
                .map(|n| self.proto.prefetch_stats(n).0)
                .sum(),
            cache_hit_miss: (0..self.cfg.nodes).fold((0, 0), |(h, m), n| {
                let (nh, nm) = self.proto.cache_hit_miss(n);
                (h + nh, m + nm)
            }),
            miss_latency: self.miss_latency,
            priority_bypasses: self.net.stats().priority_bypasses,
            low_bypassed: self.net.stats().low_bypassed,
        }
    }

    // ---- time helpers -------------------------------------------------

    fn cycles(&self, c: u64) -> Time {
        self.clock.cycles(c)
    }

    fn charge(&mut self, node: usize, bucket: Bucket, d: Time) {
        self.nodes.stats[node].charge(bucket, d);
    }

    fn schedule_wake(&mut self, node: usize, at: Time) {
        self.nodes.gen[node] += 1;
        let gen = self.nodes.gen[node];
        self.nodes.status[node] = Status::Running;
        self.queue.schedule(at, Ev::wake(node, gen));
    }

    // ---- event dispatch -----------------------------------------------

    /// One flat 8-way branch on the kind byte — rustc lowers this to a
    /// jump table; payloads are two scalars, so no wide enum is moved and
    /// no nested `NetEvent` match runs at the pop site.
    fn dispatch(&mut self, ev: Ev) {
        match ev.kind {
            EvKind::Wake => self.ev_wake(ev.a as usize, ev.b),
            EvKind::NetTryHop => self.ev_net(NetEvent::TryHop { pkt: ev.a }),
            EvKind::NetLinkFree => self.ev_net(NetEvent::LinkFree { link: ev.a }),
            EvKind::NetDeliver => self.ev_net(NetEvent::Deliver { pkt: ev.a }),
            EvKind::Proto => self.ev_proto(ev.a as usize, ev.b as u32),
            EvKind::FillPrefetchRd => {
                self.finish_prefetch(ev.a as u64, LineId(ev.b), false, self.now)
            }
            EvKind::FillPrefetchEx => {
                self.finish_prefetch(ev.a as u64, LineId(ev.b), true, self.now)
            }
            EvKind::CrossTick => self.ev_cross_tick(),
        }
    }

    fn ev_wake(&mut self, node: usize, gen: u64) {
        if self.nodes.gen[node] != gen || self.nodes.status[node] != Status::Running {
            return;
        }
        if self.nodes.pending_delay[node] > Time::ZERO {
            let d = std::mem::take(&mut self.nodes.pending_delay[node]);
            let at = self.now + d;
            self.schedule_wake(node, at);
            return;
        }
        self.run_node(node);
    }

    fn ev_net(&mut self, nev: NetEvent) {
        // Follow-up hops go straight into the event queue: the closure
        // captures only `self.queue`, disjoint from the `self.net`
        // receiver, so no intermediate buffer is needed.
        let now = self.now;
        let queue = &mut self.queue;
        let delivery = self
            .net
            .handle(now, nev, &mut |t, e| queue.schedule(t, Ev::net(e)));
        if let Some(d) = delivery {
            self.deliver(d.packet, d.record);
        }
    }

    fn ev_proto(&mut self, at: usize, slot: u32) {
        if self.now < self.nodes.ctrl_free_at[at] {
            // Controller busy: requeue the handle, message stays parked.
            let t = self.nodes.ctrl_free_at[at];
            self.queue.schedule(t, Ev::proto(at, slot));
            return;
        }
        let PEnv { from, pri, msg } = self.penvs[slot as usize];
        self.free_penvs.push(slot);
        let from = from as usize;
        // Messages sent while this one is handled inherit its criticality.
        self.cur_pri = pri;
        let occ = self.proto_msg_occupancy(at, from, &msg);
        let line = msg.line();
        let mut outs = self.take_outs();
        self.proto.handle_into(at, from, msg, &mut outs);
        self.process_controller_outs(at, occ, &mut outs);
        self.put_outs(outs);
        self.check_line(line);
    }

    fn ev_cross_tick(&mut self) {
        // Move the injector out for the duration of the tick so its
        // packet stream can be drained while `self` is mutably borrowed
        // (no per-tick clone).
        let Some(mut cross) = self.cross.take() else {
            return;
        };
        let mut buf = std::mem::take(&mut self.cross_buf);
        cross.tick_packets_into(&mut buf);
        for pkt in buf.drain(..) {
            self.inject(pkt, self.now);
        }
        self.cross_buf = buf;
        if self.finished < self.cfg.nodes {
            if let Some(iv) = cross.interval() {
                self.queue.schedule(self.now + iv, Ev::CROSS_TICK);
            }
        }
        self.cross = Some(cross);
    }

    /// Controller occupancy to process `msg` at `at` (sent by `from`):
    /// Alewife services local misses through a fast hardware path, while
    /// network requests pay the full directory walk and DRAM access.
    fn proto_msg_occupancy(&self, at: usize, from: usize, msg: &ProtoMsg) -> u64 {
        let c = &self.cfg.costs;
        let local = at == from;
        match msg {
            ProtoMsg::ReadReq { .. } | ProtoMsg::WriteReq { .. } => {
                if local {
                    c.dir_request_occ_local
                } else {
                    c.dir_request_occ
                }
            }
            ProtoMsg::Grant { .. } => {
                if local {
                    c.grant_occ_local
                } else {
                    c.grant_occ
                }
            }
            ProtoMsg::Writeback { .. } => 1,
            _ => c.snoop_occ,
        }
    }

    /// Handles protocol outputs produced at `at`'s controller: applies
    /// occupancy, dispatches sends, and completes grants. Occupancy
    /// entries for `at` itself are folded into this message's processing
    /// time (and must not be re-applied downstream).
    /// Grabs a scratch output buffer from the pool (empty, capacity
    /// retained from earlier use).
    fn take_outs(&mut self) -> Vec<ProtoOut> {
        self.outs_pool.pop().unwrap_or_default()
    }

    /// Returns a scratch output buffer to the pool.
    fn put_outs(&mut self, mut outs: Vec<ProtoOut>) {
        outs.clear();
        self.outs_pool.push(outs);
    }

    fn process_controller_outs(&mut self, at: usize, base_occ: u64, outs: &mut Vec<ProtoOut>) {
        let mut extra = 0u64;
        outs.retain(|o| match o {
            ProtoOut::HomeOccupancy { node, cycles } if *node == at => {
                extra += *cycles as u64;
                false
            }
            _ => true,
        });
        let done = self.now + self.cycles(base_occ + extra);
        self.nodes.ctrl_free_at[at] = done;
        self.process_aux_outs(outs, done);
    }

    /// Dispatches sends/grants at time `t` (occupancy entries bump the
    /// controller availability of their node but do not delay `t`).
    fn process_aux_outs(&mut self, outs: &mut Vec<ProtoOut>, t: Time) {
        for out in outs.drain(..) {
            match out {
                ProtoOut::Send { from, to, msg } => self.dispatch_proto(from, to, msg, t),
                ProtoOut::Granted {
                    node,
                    line,
                    exclusive,
                    token,
                } => {
                    self.granted(node, line, exclusive, token.0, t);
                }
                ProtoOut::HomeOccupancy { node, cycles } => {
                    let free = t + self.cycles(cycles as u64);
                    self.nodes.ctrl_free_at[node] = self.nodes.ctrl_free_at[node].max(free);
                }
            }
        }
    }

    fn dispatch_proto(&mut self, from: usize, to: usize, msg: ProtoMsg, t: Time) {
        // The baseline variant sends everything low: the network's priority
        // channel degenerates to the original single FIFO bit-identically.
        let pri = match self.cfg.variant {
            ProtoVariant::Baseline => Priority::Low,
            ProtoVariant::CriticalityAware => self.cur_pri,
        };
        if self.cfg.latency_emulation.is_some() {
            let at = t + self.cycles(self.cfg.costs.emu_ideal_msg);
            let slot = self.push_penv(from, pri, msg);
            self.queue.schedule(at, Ev::proto(to, slot));
            return;
        }
        if from == to {
            let at = t + self.cycles(self.cfg.costs.local_msg);
            let slot = self.push_penv(from, pri, msg);
            self.queue.schedule(at, Ev::proto(to, slot));
            return;
        }
        let class = match msg.class() {
            MsgClass::Request => PacketClass::Request,
            MsgClass::Invalidate => PacketClass::Invalidate,
            MsgClass::Data => PacketClass::Data,
        };
        // The packet tag *is* the penv slot: the payload is written to
        // the arena once here and read once at the destination
        // controller — nothing is copied through the network layer.
        let slot = self.push_penv(from, pri, msg);
        let pkt = Packet::protocol(
            Endpoint::node(from),
            Endpoint::node(to),
            msg.bytes(),
            class,
            slot as u64,
        )
        .with_priority(pri);
        self.net_live += 1;
        self.inject(pkt, t);
    }

    fn push_penv(&mut self, from: usize, pri: Priority, msg: ProtoMsg) -> u32 {
        let env = PEnv {
            from: from as u32,
            pri,
            msg,
        };
        match self.free_penvs.pop() {
            Some(i) => {
                self.penvs[i as usize] = env;
                i
            }
            None => {
                self.penvs.push(env);
                (self.penvs.len() - 1) as u32
            }
        }
    }

    fn push_am(&mut self, am: ActiveMessage) -> u32 {
        match self.free_ams.pop() {
            Some(i) => {
                self.ams[i as usize] = Some(am);
                i
            }
            None => {
                self.ams.push(Some(am));
                (self.ams.len() - 1) as u32
            }
        }
    }

    fn inject(&mut self, pkt: Packet, t: Time) {
        // Conservation accounting covers machine traffic only: packets
        // destined for a compute node (cross-traffic — whether absorbed at
        // the mesh edge or aimed at a compute node by a hostile pattern —
        // is never consumed by the machine layer).
        let node_dst =
            matches!(pkt.dst, Endpoint::Node(_)) && pkt.class != PacketClass::CrossTraffic;
        let queue = &mut self.queue;
        self.net
            .inject(t, pkt, &mut |t2, e| queue.schedule(t2, Ev::net(e)));
        if node_dst {
            let rec = self.net.last_record_id();
            if let Some(ch) = self.checker.as_mut() {
                ch.on_inject(rec);
            }
        }
    }

    fn deliver(&mut self, pkt: Packet, rec: u32) {
        if pkt.class == PacketClass::CrossTraffic {
            // Hostile background traffic addressed at a compute node: it
            // loaded the victim's links and ejection port (that is its
            // job), but carries no machine payload — absorbed here.
            return;
        }
        let Endpoint::Node(dst) = pkt.dst else { return };
        let dst = dst as usize;
        self.net_live -= 1;
        let smuggled = self.fault_smuggle_ack
            && pkt.priority == Priority::High
            && pkt.tag & TAG_AM == 0
            && self.penvs[pkt.tag as usize].msg.is_invalidation_ack();
        if smuggled {
            // Armed fault: the ack slips past the tracked consumption path
            // (the protocol still processes it, so the run completes); the
            // checker's end-of-run conservation must flag the discrepancy.
            self.fault_smuggle_ack = false;
        } else if let Some(ch) = self.checker.as_mut() {
            if let Err(e) = ch.on_deliver(rec) {
                self.fail(e);
            }
        }
        if pkt.tag & TAG_AM == 0 {
            // Protocol message: the tag is already a penv slot — hand the
            // handle straight to the destination controller's event.
            self.queue
                .schedule(self.now, Ev::proto(dst, pkt.tag as u32));
            return;
        }
        let slot = (pkt.tag & !TAG_AM) as u32;
        let am = self.ams[slot as usize].take().expect("live active message");
        self.free_ams.push(slot);
        let polled = self.cfg.receive == ReceiveMode::Poll && !am.handler.is_system();
        let drain = self
            .cfg
            .msg
            .drain_occupancy_cycles(&am, polled, self.nodes.rq[dst].len());
        let until = self.now + self.cycles(drain);
        self.net.stall_ejection(dst, until);
        if am.handler.is_system() {
            self.sys_am(dst, &am, rec);
        } else if polled {
            self.nodes.rq[dst].push(am);
            if self.trace.is_some() {
                self.nodes.rq_ids[dst].push_back(rec);
            }
            if let Status::BlockedMsg { since } = self.nodes.status[dst] {
                // The node may have blocked at a batched time ahead
                // of the event clock; the handler runs at the later
                // of block start, now, and any in-flight handler.
                let start = self.now.max(since).max(self.nodes.handler_busy_until[dst]);
                let am = self.nodes.rq[dst].pop().expect("just pushed");
                let rid = self.nodes.rq_ids[dst].pop_front().unwrap_or(NO_RECORD);
                let d = self.run_handler(dst, &am, true, start, rid);
                self.charge(dst, Bucket::MsgOverhead, d);
                self.nodes.handler_in_block[dst] += d;
                self.nodes.handler_busy_until[dst] = start + d;
                self.resume_from_block(dst, start + d);
            }
        } else {
            self.interrupt_delivery(dst, &am, rec);
        }
    }

    fn interrupt_delivery(&mut self, dst: usize, am: &ActiveMessage, rec: u32) {
        let status = self.nodes.status[dst];
        match status {
            Status::Running => {
                let d = self.run_handler(dst, am, false, self.now, rec);
                self.charge(dst, Bucket::MsgOverhead, d);
                self.nodes.pending_delay[dst] += d;
            }
            Status::BlockedMem { since, .. }
            | Status::BlockedSend { since }
            | Status::InBarrier { since }
            | Status::BlockedMsg { since } => {
                // Handlers on a blocked node run no earlier than the block
                // start and serialize after any in-flight handler; the
                // block cannot resume before they finish.
                let start = self.now.max(since).max(self.nodes.handler_busy_until[dst]);
                let d = self.run_handler(dst, am, false, start, rec);
                self.charge(dst, Bucket::MsgOverhead, d);
                self.nodes.handler_in_block[dst] += d;
                self.nodes.handler_busy_until[dst] = start + d;
                if matches!(status, Status::BlockedMsg { .. }) {
                    self.resume_from_block(dst, start + d);
                }
            }
            Status::Done => {
                // A retired program still fields interrupts (its handlers
                // may carry replies others wait on); the time is not
                // charged — the node's lifetime already ended.
                let _ = self.run_handler(dst, am, false, self.now, rec);
            }
        }
    }

    /// Runs an application handler, returning its total duration (receive
    /// overhead + handler work + sends it issued). `rec` is the packet
    /// record of the triggering message, for trace correlation.
    fn run_handler(
        &mut self,
        node: usize,
        am: &ActiveMessage,
        polled: bool,
        t: Time,
        rec: u32,
    ) -> Time {
        let mut ctx = HandlerCtx::new(node, self.cfg.nodes);
        self.programs[node].on_message(am.handler.0, &am.args, &am.bulk_data, &mut ctx);
        let mut dur = self.cycles(self.cfg.msg.receive_cycles(am, polled) + ctx.extra_cycles);
        self.trace_event(
            t,
            node,
            TraceKind::Handler {
                handler: am.handler.0,
                cycles: self.clock.cycles_at(dur) as u32,
                msg: rec,
            },
        );
        let sends = std::mem::take(&mut ctx.sends);
        for send in sends {
            dur += self.cycles(self.cfg.msg.send_cycles(&send));
            self.send_am(node, send, t + dur);
        }
        self.nodes.waitmsg_handled[node] = true;
        dur
    }

    fn send_am(&mut self, from: usize, am: ActiveMessage, t: Time) {
        assert_ne!(from, am.dst, "active message to self");
        self.messages_sent += 1;
        let bytes = am.wire_bytes();
        let dst = am.dst;
        // Criticality-aware: system messages (barrier arrivals/releases)
        // ride the priority channel — everything stalls until they land.
        // User-level sends stay low: promoting all of them would promote
        // the entire message-passing workload and prioritize nothing.
        let pri = if self.cfg.variant == ProtoVariant::CriticalityAware && am.handler.is_system() {
            Priority::High
        } else {
            Priority::Low
        };
        let slot = self.push_am(am);
        let pkt = Packet::protocol(
            Endpoint::node(from),
            Endpoint::node(dst),
            bytes,
            PacketClass::Data,
            slot as u64 | TAG_AM,
        )
        .with_priority(pri);
        self.net_live += 1;
        // Inject first so the trace event can carry the packet's record id
        // (assigned at injection); the event time is unchanged.
        self.inject(pkt, t);
        if self.trace.is_some() {
            let msg = self.net.last_record_id();
            self.trace_event(
                t,
                from,
                TraceKind::Send {
                    dst: dst as u16,
                    bytes,
                    msg,
                },
            );
        }
    }

    fn resume_from_block(&mut self, node: usize, at: Time) {
        let (since, bucket) = match self.nodes.status[node] {
            Status::BlockedMem { since, bucket } => (since, bucket),
            Status::BlockedSend { since } => (since, Bucket::MemWait),
            Status::BlockedMsg { since } => (since, Bucket::Sync),
            Status::InBarrier { since } => (since, Bucket::Sync),
            other => panic!("resume_from_block in status {other:?}"),
        };
        // A block cannot end before it logically began (a transaction the
        // node merged into may complete at an earlier event time), nor
        // before an in-flight handler finishes.
        let at = at.max(since).max(self.nodes.handler_busy_until[node]);
        self.nodes.handler_busy_until[node] = Time::ZERO;
        let handler = std::mem::take(&mut self.nodes.handler_in_block[node]);
        let blocked = at.saturating_sub(since).saturating_sub(handler);
        self.charge(node, bucket, blocked);
        self.trace_event(at, node, TraceKind::Resume);
        self.schedule_wake(node, at);
    }

    // ---- memory access ------------------------------------------------

    fn apply_mem_op(&mut self, node: usize, op: MemOp) {
        match op {
            MemOp::Read { word, .. } => self.nodes.loaded[node] = self.master[word.flat_index()],
            MemOp::Write { word, val } => self.master[word.flat_index()] = val,
            MemOp::Rmw { line, op } => {
                let i = (line.0 * 2) as usize;
                let (a, b) = op.apply(self.master[i], self.master[i + 1]);
                self.master[i] = a;
                self.master[i + 1] = b;
                self.nodes.rmw[node] = (a, b);
            }
        }
    }

    /// Applies a user-level access and, when the oracle is on, logs it with
    /// its issue-order `seq` and the node's current barrier epoch. Demand
    /// accesses block the node and posted stores drain before any barrier
    /// fence completes, so the epoch at apply time equals the epoch at
    /// issue time.
    fn apply_user_op(&mut self, node: usize, op: MemOp, seq: u64) {
        self.apply_mem_op(node, op);
        if let Some(o) = self.oracle.as_mut() {
            let epoch = self.barrier.node_epoch[node];
            let oop = match op {
                MemOp::Read { word, .. } => OracleOp::Read {
                    word: word.flat_index() as u64,
                    value: self.nodes.loaded[node],
                },
                MemOp::Write { word, val } => OracleOp::Write {
                    word: word.flat_index() as u64,
                    value: val,
                },
                MemOp::Rmw { line, op } => OracleOp::Rmw {
                    line: line.0,
                    op,
                    result: self.nodes.rmw[node],
                },
            };
            o.record(node, epoch, seq, oop);
        }
    }

    /// Applies the access carried by a completed transaction, routing
    /// user-level purposes through the oracle log. Prefetches never reach
    /// here (they carry no access of their own).
    fn apply_purpose_op(&mut self, node: usize, op: MemOp, purpose: Purpose) {
        match purpose {
            Purpose::Demand { seq, .. } | Purpose::Posted { seq, .. } => {
                self.apply_user_op(node, op, seq);
            }
            Purpose::Bar { .. } => self.apply_mem_op(node, op),
            Purpose::Prefetch { .. } => unreachable!("prefetches carry no memory op"),
        }
    }

    /// Mints the next oracle issue-sequence number for `node` (0 when the
    /// oracle is off; real seqs start at 1).
    fn next_seq(&mut self, node: usize) -> u64 {
        match self.oracle.as_mut() {
            Some(o) => o.next_seq(node),
            None => 0,
        }
    }

    /// Verifies the coherence invariants on `line` after a protocol
    /// transition (no-op unless checking is on).
    #[inline]
    fn check_line(&mut self, line: LineId) {
        if let Some(ch) = self.checker.as_mut() {
            if let Err(e) = ch.check_line(&self.proto, line) {
                self.fail(e);
            }
        }
    }

    /// Number of coherence transitions the invariant checker has verified
    /// so far, or `None` when checking is off.
    pub fn checked_transitions(&self) -> Option<u64> {
        self.checker.as_ref().map(|c| c.transitions())
    }

    /// The applied memory-access log, when the SC oracle is enabled.
    pub fn oracle_log(&self) -> Option<&OracleLog> {
        self.oracle.as_deref()
    }

    /// Test hook: makes the protocol skip the cache invalidation for the
    /// next `Inv` message it processes (the ack is still sent), seeding the
    /// exact stale-copy fault the invariant checker must catch.
    #[doc(hidden)]
    pub fn fault_ignore_next_invalidation(&mut self) {
        self.proto.fault_ignore_next_invalidation();
    }

    /// Test hook: the next high-priority invalidation acknowledgement
    /// delivered over the network bypasses the checker's consumption
    /// accounting — a priority-inversion bug where the fast channel
    /// smuggles a message past the tracked queue. The protocol still
    /// processes the ack (the run completes normally); the
    /// message-conservation final check must then fail loudly. Only
    /// meaningful under [`ProtoVariant::CriticalityAware`] — the baseline
    /// variant sends no high-priority packets, so the fault stays dormant.
    #[doc(hidden)]
    pub fn fault_smuggle_next_priority_ack(&mut self) {
        self.fault_smuggle_ack = true;
    }

    fn hit_cost(&self, op: MemOp) -> u64 {
        match op {
            MemOp::Rmw { .. } => self.cfg.costs.rmw_hit,
            _ => self.cfg.costs.cache_hit,
        }
    }

    /// Attempts a memory access for `purpose`. Returns `Some(cycles)` if it
    /// completed inline (value already applied), `None` if the node must
    /// block for a transaction.
    fn try_access(&mut self, node: usize, op: MemOp, purpose: Purpose, t: Time) -> Option<u64> {
        // Criticality at the source: a demand miss (or a barrier access —
        // every participant waits on it) stalls the processor, so its
        // request chain is critical; prefetches and posted stores overlap
        // computation and ride the low channel.
        self.cur_pri = match purpose {
            Purpose::Demand { .. } | Purpose::Bar { .. } => Priority::High,
            Purpose::Prefetch { .. } | Purpose::Posted { .. } => Priority::Low,
        };
        let line = op.line();
        if let Some(entry) = self.outstanding.get(node, line.0) {
            match entry.kind {
                OutKind::Prefetch | OutKind::Posted => {
                    // Merge the demand into the outstanding transaction:
                    // retried when it completes.
                    let Purpose::Demand { seq, .. } = purpose else {
                        panic!("only demand accesses can merge into outstanding lines");
                    };
                    match self.tokens.get_mut(entry.token) {
                        Some(Purpose::Prefetch { merged, .. })
                        | Some(Purpose::Posted { merged, .. }) => *merged = Some((op, seq)),
                        other => panic!("outstanding token mismatch: {other:?}"),
                    }
                    return None;
                }
                _ => panic!("duplicate outstanding access to line {line:?} by node {node}"),
            }
        }
        if self.proto.try_hit(node, line, op.kind()) {
            self.apply_purpose_op(node, op, purpose);
            return Some(self.hit_cost(op));
        }
        // A miss: only now is a token minted and an output buffer taken.
        // Token values match minting on every access, because a hit's
        // token would go straight back onto the LIFO free list.
        let token = self.tokens.mint(purpose);
        let mut outs = self.take_outs();
        let outcome = self
            .proto
            .start_miss_into(node, line, op.kind(), TxnToken(token), &mut outs);
        let result = match outcome {
            AccessOutcome::PrefetchHit => {
                self.tokens.remove(token);
                self.process_aux_outs(&mut outs, t);
                self.apply_purpose_op(node, op, purpose);
                // Promotion moved the line from the prefetch buffer into
                // the cache: a transition worth checking.
                self.check_line(line);
                Some(self.cfg.costs.prefetch_promote)
            }
            AccessOutcome::Miss => {
                let kind = match purpose {
                    Purpose::Prefetch { .. } => OutKind::Prefetch,
                    Purpose::Posted { .. } => OutKind::Posted,
                    Purpose::Demand { .. } => OutKind::Demand,
                    Purpose::Bar { .. } => OutKind::Sys,
                };
                self.outstanding
                    .insert(node, line.0, OutstandingEntry { token, kind });
                let at = t + self.cycles(self.cfg.costs.miss_issue);
                self.process_aux_outs(&mut outs, at);
                None
            }
        };
        self.put_outs(outs);
        result
    }

    /// A coherence grant arrived for `token` at `node`'s controller.
    fn granted(&mut self, node: usize, line: LineId, exclusive: bool, token: u64, t: Time) {
        let purpose = self.tokens.get(token).expect("live token");
        match purpose {
            Purpose::Demand { node: n, op, seq } => {
                debug_assert_eq!(n, node);
                self.tokens.remove(token);
                self.outstanding.remove(node, line.0);
                let mut outs = self.take_outs();
                self.proto.fill_cache_into(node, line, exclusive, &mut outs);
                self.process_aux_outs(&mut outs, t);
                self.put_outs(outs);
                self.check_line(line);
                self.apply_user_op(node, op, seq);
                let resume_at = self.demand_resume_time(node, line, t);
                if self.proto.home(line) != node {
                    if let Status::BlockedMem { since, .. } = self.nodes.status[node] {
                        let lat = resume_at.saturating_sub(since);
                        self.miss_latency.record(self.clock.cycles_at(lat));
                    }
                }
                self.resume_from_block(node, resume_at);
            }
            Purpose::Prefetch { issued, .. } => {
                let fill_at = match self.cfg.latency_emulation {
                    Some(emu) => (issued + self.cycles(emu.prefetch_cycles)).max(t),
                    None => t,
                };
                if fill_at > t {
                    self.queue
                        .schedule(fill_at, Ev::fill_prefetch(token, line, exclusive));
                } else {
                    self.finish_prefetch(token, line, exclusive, t);
                }
            }
            Purpose::Posted {
                node: n,
                op,
                seq,
                merged,
            } => {
                debug_assert_eq!(n, node);
                self.tokens.remove(token);
                self.outstanding.remove(node, line.0);
                let mut outs = self.take_outs();
                self.proto.fill_cache_into(node, line, exclusive, &mut outs);
                self.process_aux_outs(&mut outs, t);
                self.put_outs(outs);
                self.check_line(line);
                self.apply_user_op(node, op, seq);
                self.nodes.posted[node] -= 1;
                if let Some((m, mseq)) = merged {
                    // A demand access was waiting behind this posted store.
                    if let Some(cycles) = self.try_access(
                        node,
                        m,
                        Purpose::Demand {
                            node,
                            op: m,
                            seq: mseq,
                        },
                        t,
                    ) {
                        let at = t + self.cycles(cycles);
                        self.resume_from_block(node, at);
                    }
                } else {
                    self.write_slot_freed(node, t);
                }
            }
            Purpose::Bar {
                node: n,
                stage,
                parity,
            } => {
                debug_assert_eq!(n, node);
                self.tokens.remove(token);
                self.outstanding.remove(node, line.0);
                let mut outs = self.take_outs();
                self.proto.fill_cache_into(node, line, exclusive, &mut outs);
                self.process_aux_outs(&mut outs, t);
                self.put_outs(outs);
                self.check_line(line);
                let at = t + self.cycles(self.cfg.costs.grant_fill);
                self.barrier_transition(node, stage, parity, at);
            }
        }
    }

    fn demand_resume_time(&mut self, node: usize, line: LineId, t: Time) -> Time {
        let fill = t + self.cycles(self.cfg.costs.grant_fill);
        match self.cfg.latency_emulation {
            Some(emu) if self.proto.home(line) != node => {
                let since = match self.nodes.status[node] {
                    Status::BlockedMem { since, .. } => since,
                    _ => t,
                };
                fill.max(since + self.cycles(emu.remote_miss_cycles))
            }
            _ => fill,
        }
    }

    fn finish_prefetch(&mut self, token: u64, line: LineId, exclusive: bool, t: Time) {
        let Some(Purpose::Prefetch { node, merged, .. }) = self.tokens.remove(token) else {
            panic!("prefetch token vanished");
        };
        self.outstanding.remove(node, line.0);
        let mut outs = self.take_outs();
        self.proto
            .fill_prefetch_into(node, line, exclusive, &mut outs);
        self.process_aux_outs(&mut outs, t);
        self.put_outs(outs);
        self.check_line(line);
        if let Some((op, seq)) = merged {
            // A demand access was waiting on this prefetch: retry it now.
            if let Some(cycles) = self.try_access(node, op, Purpose::Demand { node, op, seq }, t) {
                let at = t + self.cycles(cycles);
                self.resume_from_block(node, at);
            }
            // Otherwise the node re-blocked on a fresh transaction.
        }
    }

    // ---- the node driver ----------------------------------------------

    fn run_node(&mut self, node: usize) {
        let mut t = self.now;
        let budget_end = t + self.cycles(BATCH_CYCLES);
        loop {
            if self.nodes.spin[node].is_some() && !self.spin(node, &mut t, budget_end) {
                return;
            }
            let mut ctx = NodeCtx {
                node,
                nodes: self.cfg.nodes,
                loaded: self.nodes.loaded[node],
                rmw: self.nodes.rmw[node],
            };
            let step = self.programs[node].resume(&mut ctx);
            match step {
                Step::Compute(c) => {
                    let c = c.max(1);
                    self.charge(node, Bucket::Compute, self.cycles(c));
                    t += self.cycles(c);
                }
                Step::SpinWait(c) => {
                    let c = c.max(1);
                    self.charge(node, Bucket::Sync, self.cycles(c));
                    t += self.cycles(c);
                }
                Step::Load(word) => {
                    let op = MemOp::Read { word, sync: false };
                    if !self.demand_step(node, op, &mut t) {
                        return;
                    }
                }
                Step::SpinLoad(word) => {
                    let op = MemOp::Read { word, sync: true };
                    if !self.demand_step_bucketed(node, op, &mut t, Bucket::Sync) {
                        return;
                    }
                }
                Step::SpinUntil {
                    word,
                    backoff,
                    until,
                } => {
                    // The loop starts with a load, which `spin` runs at the
                    // top of the next iteration; no time has passed.
                    self.nodes.spin[node] = Some(Spin {
                        word,
                        backoff: backoff.max(1),
                        until,
                        load_next: true,
                    });
                    continue;
                }
                Step::Store(word, val) => {
                    let op = MemOp::Write { word, val };
                    if self.cfg.write_buffer > 0 {
                        match self.posted_store(node, op, t) {
                            PostOutcome::Inline(c) => {
                                self.charge(node, Bucket::Compute, self.cycles(c));
                                t += self.cycles(c);
                            }
                            PostOutcome::Conflict => {
                                // A transaction is already in flight for
                                // this line: take the blocking path, which
                                // merges into it.
                                if !self.demand_step(node, op, &mut t) {
                                    return;
                                }
                            }
                            PostOutcome::BufferFull => {
                                // Stall until a slot frees (Memory + NI wait).
                                self.nodes.stalled_store[node] = Some(op);
                                self.nodes.status[node] = Status::BlockedMem {
                                    since: t,
                                    bucket: Bucket::MemWait,
                                };
                                return;
                            }
                        }
                    } else if !self.demand_step(node, op, &mut t) {
                        return;
                    }
                }
                Step::Rmw(line, rop) => {
                    let op = MemOp::Rmw { line, op: rop };
                    if !self.demand_step_bucketed(node, op, &mut t, Bucket::Sync) {
                        return;
                    }
                }
                Step::Prefetch { line, exclusive } => {
                    let c = self.cfg.costs.prefetch_issue;
                    self.charge(node, Bucket::Compute, self.cycles(c));
                    t += self.cycles(c);
                    let outstanding = self.outstanding.contains(node, line.0);
                    if self.proto.is_local(node, line) || outstanding {
                        self.useless_prefetches += 1;
                    } else {
                        let kind = if exclusive {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        // The line is in neither the cache nor the
                        // prefetch buffer, so the lookup (which counts the
                        // cache miss) misses and a transaction starts.
                        let hit = self.proto.try_hit(node, line, kind);
                        debug_assert!(!hit, "prefetch of a cached line");
                        let token = self.tokens.mint(Purpose::Prefetch {
                            node,
                            merged: None,
                            issued: t,
                        });
                        let mut outs = self.take_outs();
                        let outcome = self.proto.start_miss_into(
                            node,
                            line,
                            kind,
                            TxnToken(token),
                            &mut outs,
                        );
                        debug_assert_eq!(outcome, AccessOutcome::Miss);
                        self.outstanding.insert(
                            node,
                            line.0,
                            OutstandingEntry {
                                token,
                                kind: OutKind::Prefetch,
                            },
                        );
                        self.process_aux_outs(&mut outs, t);
                        self.put_outs(outs);
                    }
                }
                Step::Send(am) => {
                    let cost = self.cycles(self.cfg.msg.send_cycles(&am));
                    self.charge(node, Bucket::MsgOverhead, cost);
                    let launch = t + cost;
                    let ready = self.net.inject_ready_at(node);
                    if ready > launch {
                        // Network interface full: stall (Memory + NI Wait).
                        self.send_am(node, am, ready);
                        self.trace_event(launch, node, TraceKind::BlockSend);
                        self.nodes.status[node] = Status::BlockedSend { since: launch };
                        self.resume_from_block(node, ready);
                        return;
                    }
                    self.send_am(node, am, launch);
                    t = launch;
                }
                Step::Poll => {
                    let mut cost = Time::ZERO;
                    if self.nodes.rq[node].is_empty() {
                        cost += self.cycles(self.cfg.msg.poll_empty);
                    } else {
                        while let Some(am) = self.nodes.rq[node].pop() {
                            let rid = self.nodes.rq_ids[node].pop_front().unwrap_or(NO_RECORD);
                            cost += self.run_handler(node, &am, true, t + cost, rid);
                        }
                    }
                    self.charge(node, Bucket::MsgOverhead, cost);
                    t += cost;
                }
                Step::WaitMsg => {
                    if !self.nodes.rq[node].is_empty() {
                        // Messages queued (poll mode) while we were
                        // running: drain them as an implicit poll rather
                        // than sleeping past a non-empty queue.
                        let mut cost = Time::ZERO;
                        while let Some(am) = self.nodes.rq[node].pop() {
                            let rid = self.nodes.rq_ids[node].pop_front().unwrap_or(NO_RECORD);
                            cost += self.run_handler(node, &am, true, t + cost, rid);
                        }
                        self.charge(node, Bucket::MsgOverhead, cost);
                        t += cost;
                    } else if self.nodes.waitmsg_handled[node] {
                        self.nodes.waitmsg_handled[node] = false;
                        self.charge(node, Bucket::Sync, self.cycles(1));
                        t += self.cycles(1);
                    } else {
                        self.trace_event(t, node, TraceKind::BlockMsg);
                        self.nodes.status[node] = Status::BlockedMsg { since: t };
                        return;
                    }
                }
                Step::Barrier => {
                    if self.nodes.posted[node] > 0 {
                        // Release fence: drain the write buffer first.
                        self.nodes.fence[node] = Some(FenceTarget::Barrier);
                        self.nodes.status[node] = Status::BlockedMem {
                            since: t,
                            bucket: Bucket::MemWait,
                        };
                        return;
                    }
                    self.barrier_arrive(node, t);
                    return;
                }
                Step::Done => {
                    if self.nodes.posted[node] > 0 {
                        self.nodes.fence[node] = Some(FenceTarget::Done);
                        self.nodes.status[node] = Status::BlockedMem {
                            since: t,
                            bucket: Bucket::MemWait,
                        };
                        return;
                    }
                    self.retire(node, t);
                    return;
                }
            }
            if t >= budget_end {
                self.schedule_wake(node, t);
                return;
            }
        }
    }

    /// Runs the node's [`Step::SpinUntil`] loop inside the batch: exactly
    /// the steps `SpinLoad`, test, `SpinWait`, ... with the batch budget
    /// checked after every load and every backoff. Returns `true` once a
    /// loaded value passes the test (the loop is over and the program
    /// resumes), `false` when the batch ends on the budget (a wake is
    /// scheduled) or on a miss (the node blocked); the loop state
    /// survives both.
    ///
    /// Once a load in this batch has hit the cache, the rest of the batch
    /// is known: no event runs until the batch ends, so every later poll
    /// hits the same resident line and reads the same value. Those
    /// (backoff, load) rounds are applied in one step. The first load of
    /// every batch stays a real access, because events between batches
    /// may invalidate or evict the line.
    fn spin(&mut self, node: usize, t: &mut Time, budget_end: Time) -> bool {
        let mut s = self.nodes.spin[node].expect("spinning node");
        let op = MemOp::Read {
            word: s.word,
            sync: true,
        };
        let backoff = self.cycles(s.backoff);
        let mut hit = false;
        loop {
            if s.load_next {
                if hit {
                    self.spin_rest_of_batch(node, s, t, budget_end);
                    return false;
                }
                s.load_next = false;
                if !self.demand_step_bucketed(node, op, t, Bucket::Sync) {
                    self.nodes.spin[node] = Some(s);
                    return false;
                }
                // The line is cached now: a plain hit found it there, and
                // a promotion from the prefetch buffer installed it (no
                // intruder is deferred behind a line with no grant in
                // flight). `touch_hits` panics if that ever fails.
                hit = true;
            } else {
                if s.until.holds(self.nodes.loaded[node]) {
                    self.nodes.spin[node] = None;
                    return true;
                }
                self.charge(node, Bucket::Sync, backoff);
                *t += backoff;
                s.load_next = true;
            }
            if *t >= budget_end {
                self.nodes.spin[node] = Some(s);
                self.schedule_wake(node, *t);
                return false;
            }
        }
    }

    /// Applies the rest of a batch's spin polls in one step, from a load
    /// that must hit (see [`Machine::spin`]) to the budget check that ends
    /// the batch: `n` loads and `m` backoffs, their Sync time, the cache
    /// state of `n` hits and, with the oracle on, the `n` reads.
    fn spin_rest_of_batch(&mut self, node: usize, mut s: Spin, t: &mut Time, budget_end: Time) {
        let hit = self.cycles(self.cfg.costs.cache_hit).as_ps();
        let backoff = self.cycles(s.backoff).as_ps();
        let left = (budget_end - *t).as_ps();
        // `full` whole (load, backoff) rounds end before the budget does;
        // the next round's load or its backoff reaches it.
        let full = (left - 1) / (hit + backoff);
        let n = full + 1;
        let m = if full * (hit + backoff) + hit >= left {
            full
        } else {
            full + 1
        };
        let d = Time::from_ps(n * hit + m * backoff);
        self.charge(node, Bucket::Sync, d);
        *t += d;
        self.proto.touch_hits(node, s.word.line, n);
        if self.oracle.is_some() {
            let op = MemOp::Read {
                word: s.word,
                sync: true,
            };
            for _ in 0..n {
                let seq = self.next_seq(node);
                self.apply_user_op(node, op, seq);
            }
        }
        // A batch that ended on a backoff polls first in the next one.
        s.load_next = m == n;
        self.nodes.spin[node] = Some(s);
        self.schedule_wake(node, *t);
    }

    /// Executes a demand access inside the batch. Returns `false` if the
    /// node blocked (the batch ends).
    fn demand_step(&mut self, node: usize, op: MemOp, t: &mut Time) -> bool {
        self.demand_step_bucketed(node, op, t, Bucket::Compute)
    }

    fn demand_step_bucketed(
        &mut self,
        node: usize,
        op: MemOp,
        t: &mut Time,
        hit_bucket: Bucket,
    ) -> bool {
        let seq = self.next_seq(node);
        match self.try_access(node, op, Purpose::Demand { node, op, seq }, *t) {
            Some(cycles) => {
                self.charge(node, hit_bucket, self.cycles(cycles));
                *t += self.cycles(cycles);
                true
            }
            None => {
                self.trace_event(*t, node, TraceKind::BlockMem { line: op.line().0 });
                self.nodes.status[node] = Status::BlockedMem {
                    since: *t,
                    bucket: op.block_bucket(),
                };
                false
            }
        }
    }

    /// Retires a finished program. Any handler time still pending (an
    /// interrupt that arrived during the final batch) extends the node's
    /// lifetime so accounting stays consistent.
    fn retire(&mut self, node: usize, t: Time) {
        let t = t + std::mem::take(&mut self.nodes.pending_delay[node]);
        let t = t.max(self.nodes.handler_busy_until[node]);
        self.trace_event(t, node, TraceKind::Done);
        self.nodes.status[node] = Status::Done;
        self.nodes.finish[node] = Some(t);
        self.finished += 1;
        self.halted |= self.finished == self.cfg.nodes;
    }

    /// Posts a relaxed store. Returns the inline cost, a line conflict, or
    /// `BufferFull`.
    fn posted_store(&mut self, node: usize, op: MemOp, t: Time) -> PostOutcome {
        if self.outstanding.contains(node, op.line().0) {
            return PostOutcome::Conflict;
        }
        if self.nodes.posted[node] >= self.cfg.write_buffer {
            return PostOutcome::BufferFull;
        }
        let purpose = Purpose::Posted {
            node,
            op,
            seq: self.next_seq(node),
            merged: None,
        };
        match self.try_access(node, op, purpose, t) {
            Some(cycles) => PostOutcome::Inline(cycles),
            None => {
                self.nodes.posted[node] += 1;
                PostOutcome::Inline(self.cfg.costs.miss_issue)
            }
        }
    }

    /// A posted store completed: wake anything waiting on buffer space or
    /// a release fence.
    fn write_slot_freed(&mut self, node: usize, t: Time) {
        if let Some(op) = self.nodes.stalled_store[node].take() {
            // Retry the stalled store; the node is blocked in MemWait.
            match self.posted_store(node, op, t) {
                PostOutcome::Inline(c) => {
                    self.resume_from_block(node, t + self.cycles(c));
                }
                PostOutcome::Conflict | PostOutcome::BufferFull => {
                    self.nodes.stalled_store[node] = Some(op);
                }
            }
            return;
        }
        if self.nodes.posted[node] == 0 {
            if let Some(target) = self.nodes.fence[node].take() {
                let at = self.settle_block(node, t);
                match target {
                    FenceTarget::Barrier => self.barrier_arrive(node, at),
                    FenceTarget::Done => self.retire(node, at),
                }
            }
        }
    }

    /// Charges a blocked interval (like [`Machine::resume_from_block`])
    /// without scheduling a wake, for transitions into other blocked
    /// states (fence -> barrier). Returns the effective end of the block
    /// (clamped past any in-flight handler), which the follow-on state
    /// must start from.
    fn settle_block(&mut self, node: usize, at: Time) -> Time {
        let (since, bucket) = match self.nodes.status[node] {
            Status::BlockedMem { since, bucket } => (since, bucket),
            other => panic!("settle_block in status {other:?}"),
        };
        let at = at.max(since).max(self.nodes.handler_busy_until[node]);
        self.nodes.handler_busy_until[node] = Time::ZERO;
        let handler = std::mem::take(&mut self.nodes.handler_in_block[node]);
        let blocked = at.saturating_sub(since).saturating_sub(handler);
        self.charge(node, bucket, blocked);
        at
    }

    // ---- barriers -------------------------------------------------------

    fn barrier_arrive(&mut self, node: usize, t: Time) {
        self.trace_event(t, node, TraceKind::BarrierEnter);
        self.nodes.status[node] = Status::InBarrier { since: t };
        if self.cfg.nodes == 1 {
            // Trivial barrier.
            self.barrier.node_epoch[node] += 1;
            self.resume_from_block(node, t + self.cycles(1));
            return;
        }
        let parity = (self.barrier.node_epoch[node] % 2) as usize;
        match self.cfg.barrier {
            BarrierStyle::SharedMemory => {
                let counter = self.barrier.lines[parity][node][0];
                self.sys_access(
                    node,
                    MemOp::Rmw {
                        line: counter,
                        op: RmwOp::IncW0,
                    },
                    BarStage::Arrive,
                    parity,
                    t,
                );
            }
            BarrierStyle::MessageTree => self.mp_note_arrival(node, parity, t),
        }
    }

    /// Starts a barrier-internal shared-memory access; completions feed
    /// [`Machine::barrier_transition`].
    fn sys_access(&mut self, node: usize, op: MemOp, stage: BarStage, parity: usize, t: Time) {
        let purpose = Purpose::Bar {
            node,
            stage,
            parity,
        };
        if let Some(cycles) = self.try_access(node, op, purpose, t) {
            let at = t + self.cycles(cycles);
            self.barrier_transition(node, stage, parity, at);
        }
    }

    fn barrier_transition(&mut self, node: usize, stage: BarStage, parity: usize, t: Time) {
        match stage {
            BarStage::Arrive => self.sm_note_arrival(node, parity, t),
            BarStage::Notify => {
                // Our RMW on the parent's counter completed: credit the
                // parent, then spin on our own (local) flag.
                let parent = self
                    .barrier
                    .tree
                    .parent(node)
                    .expect("notify from non-root");
                let flag = self.barrier.lines[parity][node][1];
                self.sys_access(
                    node,
                    MemOp::Read {
                        word: Word::new(flag, 0),
                        sync: true,
                    },
                    BarStage::WaitFlag,
                    parity,
                    t,
                );
                self.sm_note_arrival(parent, parity, t);
            }
            BarStage::WaitFlag => {
                if self.barrier.sm[node][parity].released {
                    // The release write was ordered before our read: the
                    // value we just read is fresh.
                    self.sm_release_children(node, parity, t);
                } else {
                    self.barrier.sm[node][parity].waiting = true;
                }
            }
            BarStage::ReleaseWrite { child } => {
                let child = child as usize;
                let cs = &mut self.barrier.sm[child][parity];
                cs.released = true;
                if cs.waiting {
                    cs.waiting = false;
                    // The child's spin copy was invalidated by our write;
                    // it re-reads its flag and resumes when it returns.
                    let flag = self.barrier.lines[parity][child][1];
                    self.sys_access(
                        child,
                        MemOp::Read {
                            word: Word::new(flag, 0),
                            sync: true,
                        },
                        BarStage::ResumeRead,
                        parity,
                        t,
                    );
                }
                let s = &mut self.barrier.sm[node][parity];
                s.pending_writes -= 1;
                if s.pending_writes == 0 {
                    self.sm_finish(node, parity, t);
                }
            }
            BarStage::ResumeRead => self.sm_release_children(node, parity, t),
        }
    }

    /// Credits an arrival at `node`'s combining-tree slot; when the subtree
    /// is complete, climbs to the parent (or starts the release at the
    /// root).
    fn sm_note_arrival(&mut self, node: usize, parity: usize, t: Time) {
        self.barrier.sm[node][parity].count += 1;
        if self.barrier.sm[node][parity].count < self.barrier.tree.expected_arrivals(node) {
            return;
        }
        match self.barrier.tree.parent(node) {
            Some(parent) => {
                let counter = self.barrier.lines[parity][parent][0];
                self.sys_access(
                    node,
                    MemOp::Rmw {
                        line: counter,
                        op: RmwOp::IncW0,
                    },
                    BarStage::Notify,
                    parity,
                    t,
                );
            }
            None => self.sm_release_children(node, parity, t),
        }
    }

    /// Propagates the release: writes each child's flag, then finishes
    /// this node once the writes complete.
    fn sm_release_children(&mut self, node: usize, parity: usize, t: Time) {
        let children = self.barrier.tree.children(node);
        if children.is_empty() {
            self.sm_finish(node, parity, t);
            return;
        }
        let epoch = self.barrier.node_epoch[node] as f64;
        self.barrier.sm[node][parity].pending_writes = children.len();
        for child in children {
            let flag = self.barrier.lines[parity][child][1];
            self.sys_access(
                node,
                MemOp::Write {
                    word: Word::new(flag, 0),
                    val: epoch,
                },
                BarStage::ReleaseWrite {
                    child: child as u16,
                },
                parity,
                t,
            );
        }
    }

    fn sm_finish(&mut self, node: usize, parity: usize, t: Time) {
        self.barrier.sm[node][parity] = SmBar::default();
        self.barrier.node_epoch[node] += 1;
        self.resume_from_block(node, t);
    }

    // ---- message-passing barrier ---------------------------------------

    /// Charges system (barrier) message-handling time to sync and folds it
    /// into the node's busy accounting so wall time and bucket sums agree:
    /// running nodes extend their current batch; blocked nodes record
    /// handler-in-block time that the eventual unblock subtracts.
    fn charge_sys(&mut self, node: usize, cost: Time) {
        match self.nodes.status[node] {
            Status::Running => {
                self.nodes.pending_delay[node] += cost;
                self.charge(node, Bucket::Sync, cost);
            }
            Status::Done => {}
            s => {
                let since = s.since().expect("blocked state");
                let start = self.now.max(since).max(self.nodes.handler_busy_until[node]);
                self.nodes.handler_in_block[node] += cost;
                self.nodes.handler_busy_until[node] = start + cost;
                self.charge(node, Bucket::Sync, cost);
            }
        }
    }

    fn mp_note_arrival(&mut self, node: usize, parity: usize, t: Time) {
        self.barrier.mp_counts[node][parity] += 1;
        if self.barrier.mp_counts[node][parity] < self.barrier.tree.expected_arrivals(node) {
            return;
        }
        // Subtree complete.
        match self.barrier.tree.parent(node) {
            Some(parent) => {
                let cost = self.cycles(self.cfg.msg.system_msg);
                self.charge_sys(node, cost);
                let am = ActiveMessage::new(parent, HandlerId(SYS_BAR_ARRIVE), vec![parity as u64]);
                self.send_am(node, am, t + cost);
            }
            None => self.mp_release(node, parity, t),
        }
    }

    fn mp_release(&mut self, node: usize, parity: usize, t: Time) {
        self.barrier.mp_counts[node][parity] = 0;
        let mut t2 = t;
        for child in self.barrier.tree.children(node) {
            let cost = self.cycles(self.cfg.msg.system_msg);
            self.charge_sys(node, cost);
            t2 += cost;
            let am = ActiveMessage::new(child, HandlerId(SYS_BAR_RELEASE), vec![parity as u64]);
            self.send_am(node, am, t2);
        }
        self.barrier.node_epoch[node] += 1;
        self.resume_from_block(node, t2 + self.cycles(1));
    }

    fn sys_am(&mut self, dst: usize, am: &ActiveMessage, rec: u32) {
        let cost = self.cycles(self.cfg.msg.system_msg);
        let parity = am.args[0] as usize;
        self.trace_event(
            self.now,
            dst,
            TraceKind::Handler {
                handler: am.handler.0,
                cycles: self.clock.cycles_at(cost) as u32,
                msg: rec,
            },
        );
        match am.handler.0 {
            SYS_BAR_ARRIVE => {
                // Count the subtree arrival; charge the receive to sync.
                self.charge_sys(dst, cost);
                self.mp_note_arrival(dst, parity, self.now + cost);
            }
            SYS_BAR_RELEASE => {
                debug_assert!(
                    matches!(self.nodes.status[dst], Status::InBarrier { .. }),
                    "release must find node {dst} in the barrier"
                );
                self.charge_sys(dst, cost);
                self.mp_release(dst, parity, self.now + cost);
            }
            other => panic!("unknown system handler {other}"),
        }
    }
}

#[cfg(test)]
mod tests;
