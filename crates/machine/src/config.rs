//! Machine configuration: mechanisms, cost model, sensitivity knobs.

use commsense_cache::ProtoConfig;
use commsense_mesh::{CrossTrafficConfig, NetConfig, Topo};
use commsense_msgpass::MsgCosts;

use crate::error::ConfigError;

/// The five communication mechanisms compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Sequentially consistent shared memory (LimitLESS protocol).
    SharedMem,
    /// Shared memory plus non-binding software prefetch.
    SharedMemPrefetch,
    /// Fine-grained active messages received via interrupts.
    MsgInterrupt,
    /// Fine-grained active messages received via polling (Remote Queues).
    MsgPoll,
    /// Bulk transfer via DMA appended to active messages.
    Bulk,
}

impl Mechanism {
    /// All five mechanisms, in the paper's plotting order.
    pub const ALL: [Mechanism; 5] = [
        Mechanism::SharedMem,
        Mechanism::SharedMemPrefetch,
        Mechanism::MsgInterrupt,
        Mechanism::MsgPoll,
        Mechanism::Bulk,
    ];

    /// Short label used in tables and plots.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::SharedMem => "sm",
            Mechanism::SharedMemPrefetch => "sm+pf",
            Mechanism::MsgInterrupt => "mp-int",
            Mechanism::MsgPoll => "mp-poll",
            Mechanism::Bulk => "bulk",
        }
    }

    /// Inverse of [`Mechanism::label`], for decoding stored run records.
    pub fn from_label(label: &str) -> Option<Mechanism> {
        Mechanism::ALL.into_iter().find(|m| m.label() == label)
    }

    /// Whether programs of this mechanism communicate via shared memory.
    pub fn is_shared_memory(self) -> bool {
        matches!(self, Mechanism::SharedMem | Mechanism::SharedMemPrefetch)
    }

    /// Whether shared-memory programs should issue prefetches.
    pub fn uses_prefetch(self) -> bool {
        self == Mechanism::SharedMemPrefetch
    }

    /// How user messages are received under this mechanism.
    pub fn receive_mode(self) -> ReceiveMode {
        match self {
            Mechanism::MsgPoll => ReceiveMode::Poll,
            _ => ReceiveMode::Interrupt,
        }
    }

    /// Which barrier implementation matches this programming style.
    pub fn barrier_style(self) -> BarrierStyle {
        if self.is_shared_memory() {
            BarrierStyle::SharedMemory
        } else {
            BarrierStyle::MessageTree
        }
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Coherence-protocol personality: how the machine maps traffic onto the
/// network's priority virtual channels.
///
/// Under [`ProtoVariant::Baseline`] every packet rides the low-priority
/// channel — byte-identical to the pre-variant machine. Under
/// [`ProtoVariant::CriticalityAware`] (after *Criticality Aware
/// Multiprocessors*), traffic on the demand path — demand-miss requests,
/// everything sent while servicing a demand-tagged protocol message
/// (grants, invalidations, acks), barrier traffic, and system active
/// messages — is tagged high priority and bypasses queued low-priority
/// packets (prefetches, posted writes, background cross-traffic) at every
/// link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtoVariant {
    /// One FIFO per link; every packet low priority (the paper's machine).
    #[default]
    Baseline,
    /// Demand-path traffic jumps queues via the priority virtual channel.
    CriticalityAware,
}

impl ProtoVariant {
    /// Both variants, baseline first.
    pub const ALL: [ProtoVariant; 2] = [ProtoVariant::Baseline, ProtoVariant::CriticalityAware];

    /// Short label used in tables and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            ProtoVariant::Baseline => "base",
            ProtoVariant::CriticalityAware => "crit",
        }
    }

    /// Inverse of [`ProtoVariant::label`].
    pub fn from_label(label: &str) -> Option<ProtoVariant> {
        ProtoVariant::ALL.into_iter().find(|v| v.label() == label)
    }
}

impl std::fmt::Display for ProtoVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How arriving user-level messages reach their handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveMode {
    /// The message interrupts the processor on arrival.
    Interrupt,
    /// Messages queue until the program issues a poll step; system messages
    /// still arrive via selective interrupts (Remote Queues).
    Poll,
}

/// Which barrier implementation the machine provides for `Step::Barrier`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierStyle {
    /// Counter + release flag in shared memory, generating real coherence
    /// traffic (read-modify-writes, an invalidation sweep, re-reads).
    SharedMemory,
    /// Binary combining tree of active messages.
    MessageTree,
}

/// Uniform remote-miss latency emulation (the paper's context-switch
/// experiment, §5.3 / Figure 10): protocol messages travel an ideal
/// (contention-free, near-zero-latency) network, and every remote demand
/// miss instead costs a fixed number of processor cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyEmulation {
    /// Cycles charged per remote demand miss (the emulated round trip).
    pub remote_miss_cycles: u64,
    /// Cycles charged per prefetch completion. The paper notes prefetch is
    /// "not precisely modeled" under this emulation; we charge the full
    /// emulated latency so prefetches must be issued far enough ahead.
    pub prefetch_cycles: u64,
}

impl LatencyEmulation {
    /// Emulates a uniform `cycles`-per-remote-miss machine.
    pub fn uniform(cycles: u64) -> Self {
        LatencyEmulation {
            remote_miss_cycles: cycles,
            prefetch_cycles: cycles,
        }
    }
}

/// Processor-side cost constants of the shared-memory system, in cycles.
///
/// Calibrated against the Figure 3 cost table: local clean miss 11 cycles,
/// remote clean ≈ 42, remote dirty ≈ 63 (plus 1.6 cycles/hop supplied by
/// the network model), LimitLESS software handling in the several-hundred
/// range (see `ProtoConfig`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Cache hit (load or store).
    pub cache_hit: u64,
    /// Atomic read-modify-write on an owned line.
    pub rmw_hit: u64,
    /// Detecting a miss and issuing the request to the CMMU.
    pub miss_issue: u64,
    /// Transit of a protocol message between the processor and its own
    /// local directory (no network involved).
    pub local_msg: u64,
    /// Directory occupancy for a read/write request arriving over the
    /// network (directory walk + DRAM access).
    pub dir_request_occ: u64,
    /// Directory occupancy for a request from the local processor
    /// (Alewife's fast local-miss path).
    pub dir_request_occ_local: u64,
    /// Controller occupancy to receive a grant from the network.
    pub grant_occ: u64,
    /// Controller occupancy to receive a locally produced grant.
    pub grant_occ_local: u64,
    /// Occupancy to service an intervention (Fetch/Recall/Inv) at a cache,
    /// or an acknowledgement (InvAck/WbData) at the home.
    pub snoop_occ: u64,
    /// Filling the cache and restarting the processor after a grant.
    pub grant_fill: u64,
    /// Issuing a prefetch instruction (also the cost of a useless one; the
    /// paper notes a runtime remoteness check costs the same).
    pub prefetch_issue: u64,
    /// Promoting a line from the prefetch buffer into the cache.
    pub prefetch_promote: u64,
    /// Protocol-message transit on the ideal network of the latency
    /// emulation mode.
    pub emu_ideal_msg: u64,
}

impl CostModel {
    /// The Alewife calibration.
    pub fn alewife() -> Self {
        CostModel {
            cache_hit: 1,
            rmw_hit: 3,
            miss_issue: 2,
            local_msg: 1,
            dir_request_occ: 8,
            dir_request_occ_local: 2,
            grant_occ: 5,
            grant_occ_local: 2,
            snoop_occ: 3,
            grant_fill: 3,
            prefetch_issue: 3,
            prefetch_promote: 4,
            emu_ideal_msg: 1,
        }
    }

    /// Canonical field encoding for content-addressed result caching (see
    /// `commsense_des::stable`).
    pub fn stable_encode(&self, enc: &mut commsense_des::StableEncoder) {
        enc.put("cache_hit", self.cache_hit);
        enc.put("rmw_hit", self.rmw_hit);
        enc.put("miss_issue", self.miss_issue);
        enc.put("local_msg", self.local_msg);
        enc.put("dir_request_occ", self.dir_request_occ);
        enc.put("dir_request_occ_local", self.dir_request_occ_local);
        enc.put("grant_occ", self.grant_occ);
        enc.put("grant_occ_local", self.grant_occ_local);
        enc.put("snoop_occ", self.snoop_occ);
        enc.put("grant_fill", self.grant_fill);
        enc.put("prefetch_issue", self.prefetch_issue);
        enc.put("prefetch_promote", self.prefetch_promote);
        enc.put("emu_ideal_msg", self.emu_ideal_msg);
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::alewife()
    }
}

/// Configuration of the time-resolved observability layer.
///
/// When present on a [`MachineConfig`], the machine records an epoch-sampled
/// metric series, a full execution trace, and the network packet lifecycle,
/// all retrievable after the run via `Machine::take_observation`. Observation
/// is pure bookkeeping: it never schedules events, so simulated cycle counts
/// are bit-identical with and without it.
///
/// # Examples
///
/// ```
/// use commsense_machine::{MachineConfig, ObserveConfig};
///
/// let mut cfg = MachineConfig::tiny();
/// cfg.observe = Some(ObserveConfig::default());
/// assert_eq!(cfg.observe.unwrap().epoch_cycles, 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObserveConfig {
    /// Sampling period of the metric series, in processor cycles.
    pub epoch_cycles: u64,
    /// Capacity of the per-node execution trace (events beyond this are
    /// counted but not stored).
    pub trace_capacity: usize,
    /// Maximum number of network packets whose lifecycle is recorded
    /// individually (link utilization still counts every packet).
    pub max_packets: usize,
    /// Above this node count, per-node and per-link metric series are
    /// *sampled*: `sparse_threshold` evenly spaced nodes (and twice that
    /// many links) get individual columns, while aggregate run-state counts
    /// stay exact over all nodes. At or below it, every node and link gets
    /// a column — the seed behavior for the 32-node machine.
    pub sparse_threshold: usize,
}

impl Default for ObserveConfig {
    /// 1000-cycle epochs, 1M trace events, 1M packet records — enough for
    /// the paper's kernels at full problem size. Dense series up to 64
    /// nodes; sampled above.
    fn default() -> Self {
        ObserveConfig {
            epoch_cycles: 1_000,
            trace_capacity: 1 << 20,
            max_packets: 1 << 20,
            sparse_threshold: 64,
        }
    }
}

/// Configuration of the runtime correctness checker.
///
/// When present on a [`MachineConfig`], the machine verifies protocol
/// invariants after every coherence transition (single writer / multiple
/// readers, directory/cache consistency, no lost invalidations), tracks
/// message-channel conservation against the network recorder's packet ids,
/// and — when [`CheckConfig::oracle`] is set — records the applied
/// load/store stream and verifies it against a sequential-consistency
/// oracle at the end of the run. Checking is pure bookkeeping plus
/// assertions: it never schedules events, so simulated cycle counts are
/// bit-identical with and without it. A violation makes
/// [`crate::Machine::run`] return [`crate::SimError::Invariant`] or
/// [`crate::SimError::Oracle`], whose text starts with the
/// `PROTOCOL-INVARIANT` / `SC-ORACLE` marker.
///
/// # Examples
///
/// ```
/// use commsense_machine::{CheckConfig, MachineConfig};
///
/// let mut cfg = MachineConfig::tiny();
/// cfg.check = Some(CheckConfig::default());
/// assert!(!cfg.check.unwrap().oracle);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CheckConfig {
    /// Record the applied memory-access stream and verify it against the
    /// sequential-consistency oracle when the run finishes. Off by default:
    /// the log grows with every access, which is fine for litmus programs
    /// but heavy for full application runs.
    pub oracle: bool,
    /// Maximum number of network packets tracked individually for the
    /// conservation check (shared with the observability recorder; packets
    /// beyond this are counted but not id-checked).
    pub max_packets: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            oracle: false,
            max_packets: 1 << 20,
        }
    }
}

impl CheckConfig {
    /// The full harness: invariants, conservation, and the SC oracle.
    pub fn full() -> Self {
        CheckConfig {
            oracle: true,
            ..CheckConfig::default()
        }
    }
}

/// Full configuration of an emulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of compute nodes (must equal `net.topo.num_nodes()`).
    pub nodes: usize,
    /// Network parameters.
    pub net: NetConfig,
    /// Processor clock in MHz (Alewife: 20; scalable down to 14 for the
    /// Figure 9 experiment).
    pub cpu_mhz: f64,
    /// Shared-memory cost constants.
    pub costs: CostModel,
    /// Message-passing cost constants.
    pub msg: MsgCosts,
    /// Coherence protocol parameters.
    pub proto: ProtoConfig,
    /// Protocol personality: baseline or criticality-aware request
    /// prioritization over the network's priority virtual channel.
    pub variant: ProtoVariant,
    /// How user messages are received.
    pub receive: ReceiveMode,
    /// Barrier implementation.
    pub barrier: BarrierStyle,
    /// Optional background cross-traffic (bisection emulation, Figure 8).
    pub cross_traffic: Option<CrossTrafficConfig>,
    /// Optional uniform-latency emulation (Figure 10).
    pub latency_emulation: Option<LatencyEmulation>,
    /// Store-buffer depth for relaxed (release-consistent) writes: 0 means
    /// sequential consistency (stores stall, the Alewife model of the
    /// paper); `n > 0` lets up to `n` store misses stay outstanding, with
    /// barriers acting as release fences — the §2 technique for tolerating
    /// latency that the paper contrasts with SC.
    pub write_buffer: usize,
    /// Optional observability recording (epoch metrics, trace, packet
    /// lifecycle). `None` (the default) costs nothing on the hot path.
    pub observe: Option<ObserveConfig>,
    /// Optional runtime correctness checking (protocol invariants, message
    /// conservation, SC oracle). `None` (the default) costs nothing on the
    /// hot path; `Some` never changes simulated cycles.
    pub check: Option<CheckConfig>,
    /// Deterministic fault injection: when set, [`crate::Machine::run`]
    /// returns [`crate::SimError::InjectedFault`] before simulating
    /// anything. Exists so the runner's retry/quarantine path can be
    /// tested (and demonstrated) without a genuinely broken model; follows
    /// the `Protocol::fault_ignore_next_invalidation` precedent.
    pub inject_panic: bool,
    /// Measure per-event-kind dispatch self time during the run (the
    /// benchmark's per-kind `*.self_s` metrics; see
    /// `Machine::take_dispatch_profile`). Pure host-side bookkeeping: the
    /// profiled loop dispatches the same events at the same simulated
    /// times, so cycle counts are unchanged — but the timing calls make
    /// the run slower in wall-clock terms, so it is off everywhere except
    /// explicit profiling.
    pub profile_dispatch: bool,
}

impl MachineConfig {
    /// The 32-node MIT Alewife machine of the paper.
    pub fn alewife() -> Self {
        MachineConfig {
            nodes: 32,
            net: NetConfig::alewife(),
            cpu_mhz: 20.0,
            costs: CostModel::alewife(),
            msg: MsgCosts::alewife(),
            proto: ProtoConfig::default(),
            variant: ProtoVariant::Baseline,
            receive: ReceiveMode::Interrupt,
            barrier: BarrierStyle::SharedMemory,
            cross_traffic: None,
            latency_emulation: None,
            write_buffer: 0,
            observe: None,
            check: None,
            inject_panic: false,
            profile_dispatch: false,
        }
    }

    /// A small 2×2 machine for fast tests.
    pub fn tiny() -> Self {
        let mut cfg = MachineConfig::alewife();
        cfg.nodes = 4;
        cfg.net.topo = Topo::mesh(2, 2);
        cfg
    }

    /// An Alewife-style machine scaled to `nodes` nodes on the given
    /// topology kind (see `Topo::with_nodes`), for node-count sweeps.
    /// Per-channel network timing is unchanged, so bisection bandwidth
    /// scales with the topology's channel count.
    pub fn scaled(kind: &str, nodes: usize) -> Self {
        let mut cfg = MachineConfig::alewife();
        cfg.net.topo = Topo::with_nodes(kind, nodes);
        cfg.nodes = cfg.net.topo.num_nodes();
        cfg
    }

    /// Applies the receive mode and barrier style implied by `mech`
    /// (builder style).
    pub fn with_mechanism(mut self, mech: Mechanism) -> Self {
        self.receive = mech.receive_mode();
        self.barrier = mech.barrier_style();
        self
    }

    /// Sets the processor clock (builder style).
    pub fn with_cpu_mhz(mut self, mhz: f64) -> Self {
        self.cpu_mhz = mhz;
        self
    }

    /// The processor clock object.
    pub fn clock(&self) -> commsense_des::Clock {
        commsense_des::Clock::from_mhz(self.cpu_mhz)
    }

    /// Canonical field encoding of everything that can change simulated
    /// cycles, for content-addressed result caching (see
    /// `commsense_des::stable`).
    ///
    /// Deliberately excluded: `observe`, `check`, and `profile_dispatch`.
    /// All three are pure bookkeeping — they never schedule events, so
    /// simulated cycle counts are bit-identical with and without them
    /// (pinned by the machine crate's identity tests) — and including
    /// them would make an observed, checked, or profiled run miss the
    /// store for no reason. `inject_panic` *is* included: a faulting
    /// request must never alias a healthy one.
    pub fn stable_encode(&self, enc: &mut commsense_des::StableEncoder) {
        enc.put("cfg.nodes", self.nodes);
        enc.put_f64("cfg.cpu_mhz", self.cpu_mhz);
        enc.put("cfg.receive", format_args!("{:?}", self.receive));
        enc.put("cfg.barrier", format_args!("{:?}", self.barrier));
        enc.put("cfg.write_buffer", self.write_buffer);
        enc.put("cfg.inject_panic", self.inject_panic);
        // Encoded only when non-baseline so every pre-variant config keeps
        // its store key (baseline is pinned bit-identical to the
        // pre-variant machine).
        if self.variant != ProtoVariant::Baseline {
            enc.put("cfg.variant", self.variant.label());
        }
        enc.scope("cfg.net", |enc| self.net.stable_encode(enc));
        enc.scope("cfg.costs", |enc| self.costs.stable_encode(enc));
        enc.scope("cfg.msg", |enc| self.msg.stable_encode(enc));
        enc.scope("cfg.proto", |enc| self.proto.stable_encode(enc));
        match &self.cross_traffic {
            Some(ct) => {
                enc.put("cfg.cross_traffic", "some");
                enc.scope("cfg.cross_traffic", |enc| ct.stable_encode(enc));
            }
            None => enc.put("cfg.cross_traffic", "none"),
        }
        match &self.latency_emulation {
            Some(emu) => {
                enc.put("cfg.latency_emulation", "some");
                enc.put(
                    "cfg.latency_emulation.remote_miss_cycles",
                    emu.remote_miss_cycles,
                );
                enc.put("cfg.latency_emulation.prefetch_cycles", emu.prefetch_cycles);
            }
            None => enc.put("cfg.latency_emulation", "none"),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TopologyNodes`], naming the topology shape, if
    /// `nodes` does not match it; [`ConfigError::ObserveEpoch`] or
    /// [`ConfigError::SparseThreshold`] if an observation asks for a zero
    /// epoch or a zero sampling threshold.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let topology_nodes = self.net.topo.num_nodes();
        if self.nodes != topology_nodes {
            return Err(ConfigError::TopologyNodes {
                nodes: self.nodes,
                topology: self.net.topo.shape(),
                topology_nodes,
            });
        }
        if let Some(o) = self.observe {
            if o.epoch_cycles == 0 {
                return Err(ConfigError::ObserveEpoch);
            }
            if o.sparse_threshold == 0 {
                return Err(ConfigError::SparseThreshold);
            }
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::alewife()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_properties() {
        assert!(Mechanism::SharedMem.is_shared_memory());
        assert!(Mechanism::SharedMemPrefetch.uses_prefetch());
        assert!(!Mechanism::SharedMem.uses_prefetch());
        assert_eq!(Mechanism::MsgPoll.receive_mode(), ReceiveMode::Poll);
        assert_eq!(
            Mechanism::MsgInterrupt.receive_mode(),
            ReceiveMode::Interrupt
        );
        assert_eq!(Mechanism::Bulk.barrier_style(), BarrierStyle::MessageTree);
        assert_eq!(
            Mechanism::SharedMem.barrier_style(),
            BarrierStyle::SharedMemory
        );
        assert_eq!(Mechanism::ALL.len(), 5);
        assert_eq!(format!("{}", Mechanism::MsgPoll), "mp-poll");
    }

    #[test]
    fn alewife_config_is_consistent() {
        let cfg = MachineConfig::alewife();
        cfg.validate().unwrap();
        assert_eq!(cfg.clock().cycle_ps(), 50_000);
    }

    #[test]
    fn with_mechanism_sets_modes() {
        let cfg = MachineConfig::alewife().with_mechanism(Mechanism::MsgPoll);
        assert_eq!(cfg.receive, ReceiveMode::Poll);
        assert_eq!(cfg.barrier, BarrierStyle::MessageTree);
    }

    #[test]
    fn validate_catches_mismatch() {
        let mut cfg = MachineConfig::alewife();
        cfg.nodes = 16;
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::TopologyNodes {
                    nodes: 16,
                    topology_nodes: 32,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err
            .to_string()
            .contains("16 nodes but its network is a mesh 8x4"));
    }

    #[test]
    fn scaled_configs_are_consistent() {
        for kind in Topo::KINDS {
            let cfg = MachineConfig::scaled(kind, 1024);
            cfg.validate().unwrap();
            assert_eq!(cfg.nodes, 1024, "{kind}");
            assert_eq!(cfg.net.topo.kind(), kind);
        }
    }

    #[test]
    fn observe_defaults_are_sane() {
        let o = ObserveConfig::default();
        assert!(o.epoch_cycles > 0);
        assert!(o.trace_capacity > 0);
        assert!(o.max_packets > 0);
        assert_eq!(MachineConfig::alewife().observe, None);
    }

    #[test]
    fn check_defaults_are_sane() {
        let c = CheckConfig::default();
        assert!(!c.oracle);
        assert!(c.max_packets > 0);
        assert!(CheckConfig::full().oracle);
        assert_eq!(MachineConfig::alewife().check, None);
    }

    #[test]
    fn latency_emulation_uniform() {
        let emu = LatencyEmulation::uniform(100);
        assert_eq!(emu.remote_miss_cycles, 100);
        assert_eq!(emu.prefetch_cycles, 100);
    }

    #[test]
    fn from_label_round_trips() {
        for m in Mechanism::ALL {
            assert_eq!(Mechanism::from_label(m.label()), Some(m));
        }
        assert_eq!(Mechanism::from_label("nope"), None);
    }

    fn cfg_hash(cfg: &MachineConfig) -> u128 {
        let mut enc = commsense_des::StableEncoder::new();
        cfg.stable_encode(&mut enc);
        enc.finish_hash()
    }

    #[test]
    fn stable_encode_ignores_bookkeeping_but_sees_model_fields() {
        let base = MachineConfig::alewife();
        let h = cfg_hash(&base);
        // Observation and checking never change simulated cycles, so they
        // must not change the store key either.
        let mut observed = base.clone();
        observed.observe = Some(ObserveConfig::default());
        observed.check = Some(CheckConfig::full());
        observed.profile_dispatch = true;
        assert_eq!(cfg_hash(&observed), h);
        // Every model-affecting knob must change the hash.
        let mut c = base.clone();
        c.cpu_mhz = 14.0;
        assert_ne!(cfg_hash(&c), h);
        let mut c = base.clone();
        c.write_buffer = 4;
        assert_ne!(cfg_hash(&c), h);
        let mut c = base.clone();
        c.inject_panic = true;
        assert_ne!(cfg_hash(&c), h);
        let mut c = base.clone();
        c.latency_emulation = Some(LatencyEmulation::uniform(100));
        assert_ne!(cfg_hash(&c), h);
        let mut c = base.clone();
        c.proto.hw_ptrs = 64;
        assert_ne!(cfg_hash(&c), h);
        let mut c = base.clone();
        c.msg.poll_per_msg += 1;
        assert_ne!(cfg_hash(&c), h);
        let mut c = base.clone();
        c.net.ps_per_byte /= 2;
        assert_ne!(cfg_hash(&c), h);
        let mut c = base.clone();
        c.net.topo = Topo::torus(8, 4);
        assert_ne!(cfg_hash(&c), h);
        let mut c = base.clone();
        c.net.topo = Topo::mesh(4, 8);
        assert_ne!(cfg_hash(&c), h);
        let with_mech = base.clone().with_mechanism(Mechanism::MsgPoll);
        assert_ne!(cfg_hash(&with_mech), h);
    }

    #[test]
    fn variant_labels_round_trip() {
        for v in ProtoVariant::ALL {
            assert_eq!(ProtoVariant::from_label(v.label()), Some(v));
        }
        assert_eq!(ProtoVariant::from_label("nope"), None);
        assert_eq!(ProtoVariant::default(), ProtoVariant::Baseline);
        assert_eq!(format!("{}", ProtoVariant::CriticalityAware), "crit");
    }

    #[test]
    fn stable_encode_sees_variant_and_pattern_only_when_hostile() {
        use commsense_mesh::TrafficPattern;
        let base = MachineConfig::alewife();
        let h = cfg_hash(&base);
        // An explicit baseline variant is the default: same key.
        let mut c = base.clone();
        c.variant = ProtoVariant::Baseline;
        assert_eq!(cfg_hash(&c), h);
        // Criticality-aware is a different machine: different key.
        let mut c = base.clone();
        c.variant = ProtoVariant::CriticalityAware;
        assert_ne!(cfg_hash(&c), h);
        // A uniform-pattern cross-traffic config keys exactly as before the
        // pattern fields existed (the fields are skipped when uniform)...
        let ct = CrossTrafficConfig::consuming(8.0, base.clock(), 64, 4);
        let mut uniform = base.clone();
        uniform.cross_traffic = Some(ct.clone());
        let hu = cfg_hash(&uniform);
        assert_ne!(hu, h);
        let mut explicit = base.clone();
        explicit.cross_traffic = Some(ct.clone().with_pattern(TrafficPattern::Uniform, 32, 7));
        assert_eq!(cfg_hash(&explicit), hu);
        // ...while each hostile pattern (and its parameters) changes it.
        let hot = |frac| {
            let mut c = base.clone();
            c.cross_traffic = Some(ct.clone().with_pattern(
                TrafficPattern::Hotspot {
                    node: 0,
                    fraction: frac,
                },
                32,
                7,
            ));
            cfg_hash(&c)
        };
        assert_ne!(hot(0.5), hu);
        assert_ne!(hot(0.5), hot(0.25));
        let mut c = base.clone();
        c.cross_traffic = Some(ct.clone().with_pattern(
            TrafficPattern::Bursty { on: 2, off: 6 },
            32,
            7,
        ));
        assert_ne!(cfg_hash(&c), hu);
        let mut c = base.clone();
        c.cross_traffic = Some(ct.with_pattern(TrafficPattern::Incast { targets: 4 }, 32, 7));
        assert_ne!(cfg_hash(&c), hu);
    }
}
