//! Deterministic litmus-test generator and fuzzer for the correctness
//! harness.
//!
//! A [`Litmus`] is a small, seed-reproducible multiprocessor program built
//! from the communication patterns most likely to expose protocol bugs:
//! false sharing (several nodes hammering the two words of the same line),
//! producer/consumer races across barriers, stores adjacent to barrier
//! entry, and bulk-DMA messages overlapping lines that are simultaneously
//! kept coherent by the directory protocol. Programs are organised in
//! barrier-separated *rounds*; within a round each node runs a short
//! random memory-op prelude, then launches all of its active messages,
//! then (if it is a receiver this round) waits for message arrival. That
//! send-before-wait discipline makes every generated program deadlock-free
//! by construction, so any deadlock the machine reports is a real bug.
//!
//! [`run_litmus`] executes one program on one mechanism under a sweep
//! [`Extreme`] with the full correctness harness enabled
//! ([`CheckConfig::full`]): the runtime invariant checker, message
//! conservation, and the SC oracle. Failures are classified by the
//! [`SimError`] variant the run returns (any other panic is caught as
//! [`FailureClass::Other`]); [`shrink`] then greedily minimises a failing
//! program while preserving its [`FailureClass`], and [`fuzz`] drives the
//! whole loop over many seeds, mechanisms, and extremes. The `litmus`
//! binary in `commsense-bench` wraps this into the CI entry point with
//! seed-replay support.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use commsense_cache::Heap;
use commsense_des::Rng;
use commsense_machine::{
    panic_message, CheckConfig, HandlerCtx, Machine, MachineConfig, MachineSpec, Mechanism,
    NodeCtx, Program, ProtoVariant, RmwOp, SimError, Step,
};
use commsense_mesh::{CrossTrafficConfig, TrafficPattern};
use commsense_msgpass::{ActiveMessage, HandlerId};

/// Application handler id used by litmus messages (any non-system id).
const LITMUS_HANDLER: u16 = 7;

/// One abstract memory-side instruction of a litmus program. Line and word
/// indices refer to the program's own small shared allocation; they are
/// resolved to real addresses at materialisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LitmusOp {
    /// Load one word.
    Load {
        /// Line index within the litmus allocation.
        line: u32,
        /// Word offset (0 or 1).
        off: u8,
    },
    /// Load one word, charged as synchronization (spin) time.
    SpinLoad {
        /// Line index within the litmus allocation.
        line: u32,
        /// Word offset (0 or 1).
        off: u8,
    },
    /// Store a value to one word.
    Store {
        /// Line index within the litmus allocation.
        line: u32,
        /// Word offset (0 or 1).
        off: u8,
        /// The stored value (unique per generated store).
        val: f64,
    },
    /// Atomic read-modify-write on a line.
    Rmw {
        /// Line index within the litmus allocation.
        line: u32,
        /// The operation.
        op: RmwOp,
    },
    /// Non-binding prefetch of a line.
    Prefetch {
        /// Line index within the litmus allocation.
        line: u32,
        /// Request ownership?
        exclusive: bool,
    },
    /// Local computation.
    Compute(u64),
    /// Drain the receive queue (meaningful under polling).
    Poll,
}

/// One active message sent during a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LitmusMsg {
    /// Sending node.
    pub from: u8,
    /// Receiving node (never equal to `from`).
    pub to: u8,
    /// DMA payload bytes (0 for a short message).
    pub bulk_bytes: u32,
    /// Gather/scatter copy lines charged at each end — models DMA staging
    /// that overlaps the coherently shared lines.
    pub dma_lines: u32,
}

/// One barrier-separated phase of a litmus program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Round {
    /// Per-node memory-op preludes (`ops[node]`).
    pub ops: Vec<Vec<LitmusOp>>,
    /// Messages exchanged this round (all sends precede all waits).
    pub msgs: Vec<LitmusMsg>,
}

/// A generated litmus program: a few shared lines and a few rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Litmus {
    /// Node count (must match the machine configuration).
    pub nodes: usize,
    /// Shared lines in the litmus allocation.
    pub lines: usize,
    /// The rounds, each ending in a machine-wide barrier.
    pub rounds: Vec<Round>,
}

impl Litmus {
    /// Generates a random program for `nodes` nodes from `rng`.
    ///
    /// Knobs are chosen to maximise protocol stress per simulated cycle:
    /// 2–4 lines shared by all nodes (false sharing on both words), 1–3
    /// rounds, up to 6 ops per node per round, and up to 3 message pairs
    /// per round with occasional bulk payloads and DMA copy overlap.
    pub fn generate(rng: &mut Rng, nodes: usize) -> Litmus {
        assert!(nodes >= 2, "litmus programs need at least two nodes");
        let lines = rng.gen_range(2, 5) as usize;
        let n_rounds = rng.gen_range(1, 4) as usize;
        // Stored values are globally unique so the SC oracle can attribute
        // every observed load to exactly one writer.
        let mut next_val = 1.0_f64;
        let mut uniq = |rng: &mut Rng| {
            let v = next_val + rng.gen_range(0, 3) as f64 * 0.25;
            next_val += 1.0;
            v
        };
        let rounds = (0..n_rounds)
            .map(|_| {
                let ops = (0..nodes)
                    .map(|_| {
                        let n_ops = rng.index(7);
                        (0..n_ops)
                            .map(|_| {
                                let line = rng.index(lines) as u32;
                                let off = rng.index(2) as u8;
                                match rng.index(10) {
                                    0..=2 => LitmusOp::Load { line, off },
                                    3..=5 => LitmusOp::Store {
                                        line,
                                        off,
                                        val: uniq(rng),
                                    },
                                    6 => LitmusOp::Rmw {
                                        line,
                                        op: match rng.index(4) {
                                            0 => RmwOp::IncW0,
                                            1 => RmwOp::AddW0(uniq(rng)),
                                            2 => RmwOp::SetW0(uniq(rng)),
                                            _ => RmwOp::SubW0DecW1(uniq(rng)),
                                        },
                                    },
                                    7 => LitmusOp::SpinLoad { line, off },
                                    8 => LitmusOp::Prefetch {
                                        line,
                                        exclusive: rng.chance(0.5),
                                    },
                                    _ => {
                                        if rng.chance(0.3) {
                                            LitmusOp::Poll
                                        } else {
                                            LitmusOp::Compute(rng.gen_range(1, 20))
                                        }
                                    }
                                }
                            })
                            .collect()
                    })
                    .collect();
                let n_msgs = rng.index(4);
                let msgs = (0..n_msgs)
                    .map(|_| {
                        let from = rng.index(nodes);
                        let mut to = rng.index(nodes - 1);
                        if to >= from {
                            to += 1;
                        }
                        let bulk = rng.chance(0.4);
                        LitmusMsg {
                            from: from as u8,
                            to: to as u8,
                            bulk_bytes: if bulk {
                                rng.gen_range(1, 9) as u32 * 64
                            } else {
                                0
                            },
                            dma_lines: if bulk && rng.chance(0.5) {
                                rng.gen_range(1, 4) as u32
                            } else {
                                0
                            },
                        }
                    })
                    .collect();
                Round { ops, msgs }
            })
            .collect();
        Litmus {
            nodes,
            lines,
            rounds,
        }
    }

    /// A directed producer/consumer race: every node reads line 0 in
    /// round one (building a wide sharer set), then node 0 overwrites it
    /// in round two, forcing an invalidation to every sharer, then
    /// everyone re-reads.
    ///
    /// This is the canonical detection witness for the seeded
    /// dropped-invalidation mutation
    /// (`Machine::fault_ignore_next_invalidation`): with the fault armed
    /// the run must die with [`FailureClass::Invariant`]; unmutated it
    /// must pass. The `litmus --mutation-smoke` CI gate runs exactly this
    /// program both ways.
    pub fn directed_invalidation(nodes: usize) -> Litmus {
        let all_read = |lines: &[u32]| {
            (0..nodes)
                .map(|_| {
                    lines
                        .iter()
                        .map(|&l| LitmusOp::Load { line: l, off: 0 })
                        .collect()
                })
                .collect::<Vec<Vec<LitmusOp>>>()
        };
        let mut write_round = Round {
            ops: all_read(&[0]),
            msgs: Vec::new(),
        };
        write_round.ops[0].push(LitmusOp::Store {
            line: 0,
            off: 0,
            val: 99.5,
        });
        Litmus {
            nodes,
            lines: 2,
            rounds: vec![
                Round {
                    ops: all_read(&[0, 1]),
                    msgs: Vec::new(),
                },
                write_round,
            ],
        }
    }

    /// Total memory ops across all rounds and nodes.
    pub fn total_ops(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.ops.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Total messages across all rounds.
    pub fn total_msgs(&self) -> usize {
        self.rounds.iter().map(|r| r.msgs.len()).sum()
    }

    /// Builds the runnable machine spec: a heap with the litmus lines
    /// homed round-robin, distinct initial word values, and one replay
    /// program per node following the send-before-wait discipline, run
    /// under `mechanism`.
    pub fn materialize(&self, mechanism: Mechanism) -> MachineSpec {
        let mut heap = Heap::new(self.nodes);
        let shared = heap.alloc(self.lines, |i| i % self.nodes);
        let initial: Vec<f64> = (0..heap.total_words())
            .map(|i| -((i + 1) as f64) * 0.125)
            .collect();
        let programs = (0..self.nodes)
            .map(|node| {
                let mut steps = Vec::new();
                for (r, round) in self.rounds.iter().enumerate() {
                    for op in &round.ops[node] {
                        steps.push(match *op {
                            LitmusOp::Load { line, off } => {
                                Step::Load(shared.word(line as usize, off))
                            }
                            LitmusOp::SpinLoad { line, off } => {
                                Step::SpinLoad(shared.word(line as usize, off))
                            }
                            LitmusOp::Store { line, off, val } => {
                                Step::Store(shared.word(line as usize, off), val)
                            }
                            LitmusOp::Rmw { line, op } => Step::Rmw(shared.line(line as usize), op),
                            LitmusOp::Prefetch { line, exclusive } => Step::Prefetch {
                                line: shared.line(line as usize),
                                exclusive,
                            },
                            LitmusOp::Compute(c) => Step::Compute(c),
                            LitmusOp::Poll => Step::Poll,
                        });
                    }
                    // All sends launch before any wait, so a receiver
                    // blocked in WaitMsg always has its message in flight.
                    for msg in round.msgs.iter().filter(|m| m.from as usize == node) {
                        let args = vec![node as u64, r as u64];
                        let mut am = if msg.bulk_bytes > 0 {
                            ActiveMessage::with_bulk(
                                msg.to as usize,
                                HandlerId(LITMUS_HANDLER),
                                args,
                                msg.bulk_bytes,
                            )
                        } else {
                            ActiveMessage::new(msg.to as usize, HandlerId(LITMUS_HANDLER), args)
                        };
                        if msg.dma_lines > 0 {
                            am = am.gather(msg.dma_lines).scatter(msg.dma_lines);
                        }
                        steps.push(Step::Send(am));
                    }
                    // One wait per receiving node per round: `WaitMsg` is
                    // satisfied by *any* handled message, so waiting once
                    // per incoming message could deadlock when two arrive
                    // back-to-back before the first wait begins.
                    if round.msgs.iter().any(|m| m.to as usize == node) {
                        steps.push(Step::WaitMsg);
                    }
                    steps.push(Step::Barrier);
                }
                Box::new(ReplayProgram { steps, pc: 0 }) as Box<dyn Program>
            })
            .collect();
        MachineSpec {
            heap,
            initial,
            programs,
            mechanism,
        }
    }
}

impl fmt::Display for Litmus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "litmus: {} nodes, {} lines, {} rounds, {} ops, {} msgs",
            self.nodes,
            self.lines,
            self.rounds.len(),
            self.total_ops(),
            self.total_msgs()
        )?;
        for (r, round) in self.rounds.iter().enumerate() {
            writeln!(f, "round {r}:")?;
            for (node, ops) in round.ops.iter().enumerate() {
                if ops.is_empty() {
                    continue;
                }
                let rendered: Vec<String> = ops
                    .iter()
                    .map(|op| match *op {
                        LitmusOp::Load { line, off } => format!("Ld L{line}.{off}"),
                        LitmusOp::SpinLoad { line, off } => format!("SpinLd L{line}.{off}"),
                        LitmusOp::Store { line, off, val } => format!("St L{line}.{off}={val}"),
                        LitmusOp::Rmw { line, op } => format!("Rmw L{line} {op:?}"),
                        LitmusOp::Prefetch { line, exclusive } => {
                            format!("Pf{} L{line}", if exclusive { "X" } else { "" })
                        }
                        LitmusOp::Compute(c) => format!("C{c}"),
                        LitmusOp::Poll => "Poll".to_string(),
                    })
                    .collect();
                writeln!(f, "  node {node}: {}", rendered.join("; "))?;
            }
            for m in &round.msgs {
                writeln!(
                    f,
                    "  msg {}->{} bulk={} dma={}",
                    m.from, m.to, m.bulk_bytes, m.dma_lines
                )?;
            }
        }
        Ok(())
    }
}

/// A trivial program that replays a fixed step list, then finishes.
struct ReplayProgram {
    steps: Vec<Step>,
    pc: usize,
}

impl Program for ReplayProgram {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        let step = self.steps.get(self.pc).cloned().unwrap_or(Step::Done);
        self.pc += 1;
        step
    }

    fn on_message(&mut self, _handler: u16, args: &[u64], _bulk: &[u64], ctx: &mut HandlerCtx) {
        ctx.charge(2 + args.len() as u64);
    }
}

/// One point of the sweep-extreme grid a litmus program is run under.
///
/// These are the corners of the paper's sensitivity sweeps, where protocol
/// timing is most unusual: a cache small enough to force evictions
/// mid-transaction, cross-traffic consuming bisection bandwidth, uniform
/// high-latency emulation, and a relaxed (buffered) store model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extreme {
    /// The unmodified tiny machine.
    Base,
    /// An 8-line cache: constant conflict evictions.
    TinyCache,
    /// Background cross-traffic eating bisection bandwidth.
    CrossTraffic,
    /// Uniform 400-cycle remote-miss emulation on an ideal network.
    HighLatency,
    /// A 4-entry write buffer (release-consistent stores).
    Relaxed,
    /// The criticality-aware protocol variant under uniform cross-traffic:
    /// demand chains ride the priority channel while background bandwidth
    /// is being consumed.
    Critical,
    /// Criticality-aware variant with hotspot cross-traffic concentrated
    /// on node 0 — the home of the most-contended litmus line.
    Hotspot,
    /// Baseline variant with bursty cross-traffic (congestion arrives in
    /// phases, so protocol timing swings between idle and saturated).
    Bursty,
    /// Criticality-aware variant with incast cross-traffic: several
    /// senders converge on the low-numbered nodes' ejection ports.
    Incast,
}

impl Extreme {
    /// Every extreme, in sweep order.
    pub const ALL: [Extreme; 9] = [
        Extreme::Base,
        Extreme::TinyCache,
        Extreme::CrossTraffic,
        Extreme::HighLatency,
        Extreme::Relaxed,
        Extreme::Critical,
        Extreme::Hotspot,
        Extreme::Bursty,
        Extreme::Incast,
    ];

    /// Short label used on the command line and in failure summaries.
    pub fn label(self) -> &'static str {
        match self {
            Extreme::Base => "base",
            Extreme::TinyCache => "tinycache",
            Extreme::CrossTraffic => "cross",
            Extreme::HighLatency => "lat",
            Extreme::Relaxed => "relaxed",
            Extreme::Critical => "crit",
            Extreme::Hotspot => "hotspot",
            Extreme::Bursty => "bursty",
            Extreme::Incast => "incast",
        }
    }

    /// Parses a label produced by [`Extreme::label`].
    pub fn from_label(s: &str) -> Option<Extreme> {
        Extreme::ALL.into_iter().find(|e| e.label() == s)
    }

    /// How the fuzzer thins the program stream under this extreme: a
    /// stride of `k` runs every `k`-th program. The hostile-traffic
    /// extremes cost several times a base run (the mesh carries the
    /// background load for the whole run), so they take a sparser sample
    /// to hold fuzzing wall-clock; every program still runs under every
    /// original extreme.
    pub fn stride(self) -> usize {
        match self {
            Extreme::Base
            | Extreme::TinyCache
            | Extreme::CrossTraffic
            | Extreme::HighLatency
            | Extreme::Relaxed => 1,
            Extreme::Critical => 2,
            Extreme::Hotspot | Extreme::Bursty | Extreme::Incast => 3,
        }
    }

    /// The machine configuration for this extreme under `mech` (checking
    /// not yet enabled; the runner adds it).
    pub fn config(self, mech: Mechanism) -> MachineConfig {
        let mut cfg = MachineConfig::tiny();
        let consuming = |cfg: &MachineConfig| {
            CrossTrafficConfig::consuming(0.1, cfg.clock(), 64, cfg.net.topo.io_streams())
        };
        let nodes = cfg.nodes as u16;
        match self {
            Extreme::Base => {}
            Extreme::TinyCache => cfg.proto.cache_lines = 8,
            Extreme::CrossTraffic => cfg.cross_traffic = Some(consuming(&cfg)),
            Extreme::HighLatency => cfg = cfg.with_latency_emulation(mech, 400),
            Extreme::Relaxed => cfg.write_buffer = 4,
            Extreme::Critical => {
                cfg.variant = ProtoVariant::CriticalityAware;
                cfg.cross_traffic = Some(consuming(&cfg));
            }
            Extreme::Hotspot => {
                cfg.variant = ProtoVariant::CriticalityAware;
                cfg.cross_traffic = Some(consuming(&cfg).with_pattern(
                    TrafficPattern::Hotspot {
                        node: 0,
                        fraction: 0.5,
                    },
                    nodes,
                    11,
                ));
            }
            Extreme::Bursty => {
                cfg.cross_traffic = Some(consuming(&cfg).with_pattern(
                    TrafficPattern::Bursty { on: 2, off: 6 },
                    nodes,
                    11,
                ));
            }
            Extreme::Incast => {
                cfg.variant = ProtoVariant::CriticalityAware;
                cfg.cross_traffic = Some(consuming(&cfg).with_pattern(
                    TrafficPattern::Incast { targets: 2 },
                    nodes,
                    11,
                ));
            }
        }
        cfg
    }
}

impl fmt::Display for Extreme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Coarse classification of a failed litmus run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// A protocol-invariant or conservation violation
    /// ([`SimError::Invariant`]).
    Invariant,
    /// An SC-oracle violation ([`SimError::Oracle`]).
    Oracle,
    /// The machine deadlocked (event queue drained with blocked nodes).
    Deadlock,
    /// Any other failure: a panic, an injected fault, or a machine that
    /// could not be built.
    Other,
}

impl From<&SimError> for FailureClass {
    fn from(e: &SimError) -> FailureClass {
        match e {
            SimError::Invariant(_) => FailureClass::Invariant,
            SimError::Oracle(_) => FailureClass::Oracle,
            SimError::Deadlock { .. } => FailureClass::Deadlock,
            SimError::InjectedFault | SimError::Config(_) => FailureClass::Other,
        }
    }
}

impl FailureClass {
    /// Short label for failure summaries.
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::Invariant => "invariant",
            FailureClass::Oracle => "oracle",
            FailureClass::Deadlock => "deadlock",
            FailureClass::Other => "panic",
        }
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A caught and classified litmus failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What kind of violation the run died with.
    pub class: FailureClass,
    /// The full failure message.
    pub detail: String,
}

/// A seeded protocol mutation for the harness's own mutation tests: each
/// arms a deliberate bug the correctness harness must catch loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No mutation: the run must pass.
    #[default]
    None,
    /// Silently drop the next cache invalidation (while still
    /// acknowledging it) — the stale copy trips the directory/cache
    /// consistency invariant when the write completes.
    DropInvalidation,
    /// Smuggle the next high-priority invalidation ack past the tracked
    /// consumption path (a priority-inversion bug in the fast channel) —
    /// end-of-run message conservation must flag it. Dormant under the
    /// baseline variant, which sends no high-priority packets.
    SmugglePriorityAck,
}

/// Runs one litmus program on one mechanism under one extreme with the
/// full correctness harness. Returns the classified failure if the run
/// failed (invariant/oracle violation, deadlock, or any other panic).
pub fn run_litmus(lit: &Litmus, mech: Mechanism, extreme: Extreme) -> Result<(), Failure> {
    run_litmus_with(lit, mech, extreme, Fault::None)
}

/// [`run_litmus`] with an optional seeded protocol mutation (see
/// [`Fault`]); the checker must catch every armed fault.
pub fn run_litmus_with(
    lit: &Litmus,
    mech: Mechanism,
    extreme: Extreme,
    fault: Fault,
) -> Result<(), Failure> {
    let mut cfg = extreme.config(mech);
    assert_eq!(lit.nodes, cfg.nodes, "litmus node count must match machine");
    cfg.check = Some(CheckConfig::full());
    let spec = lit.materialize(mech);
    let run = catch_unwind(AssertUnwindSafe(move || {
        let mut m = Machine::new(cfg, spec)?;
        match fault {
            Fault::None => {}
            Fault::DropInvalidation => m.fault_ignore_next_invalidation(),
            Fault::SmugglePriorityAck => m.fault_smuggle_next_priority_ack(),
        }
        m.run().map(drop)
    }));
    let (class, detail) = match run {
        Ok(Ok(())) => return Ok(()),
        Ok(Err(e)) => (FailureClass::from(&e), e.to_string()),
        Err(payload) => (FailureClass::Other, panic_message(payload.as_ref())),
    };
    Err(Failure { class, detail })
}

/// Upper bound on candidate executions during [`shrink`].
const SHRINK_BUDGET: usize = 2_000;

/// Greedily minimises a failing program while preserving its failure
/// class.
///
/// `reproduces` runs a candidate and returns the failure class it dies
/// with (or `None` if it passes); only candidates reproducing `class` are
/// accepted. The pass alternates removing whole rounds, message pairs,
/// and single ops until a fixpoint (or the candidate budget) is reached.
pub fn shrink(
    lit: &Litmus,
    class: FailureClass,
    mut reproduces: impl FnMut(&Litmus) -> Option<FailureClass>,
) -> Litmus {
    let mut cur = lit.clone();
    let mut budget = SHRINK_BUDGET;
    let mut try_accept = |cur: &mut Litmus, cand: Litmus, budget: &mut usize| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        if reproduces(&cand) == Some(class) {
            *cur = cand;
            true
        } else {
            false
        }
    };
    loop {
        let mut changed = false;
        // Whole rounds (keep at least one).
        let mut i = 0;
        while i < cur.rounds.len() && cur.rounds.len() > 1 {
            let mut cand = cur.clone();
            cand.rounds.remove(i);
            if try_accept(&mut cur, cand, &mut budget) {
                changed = true;
            } else {
                i += 1;
            }
        }
        // Message pairs.
        for r in 0..cur.rounds.len() {
            let mut j = 0;
            while j < cur.rounds[r].msgs.len() {
                let mut cand = cur.clone();
                cand.rounds[r].msgs.remove(j);
                if try_accept(&mut cur, cand, &mut budget) {
                    changed = true;
                } else {
                    j += 1;
                }
            }
        }
        // Individual ops.
        for r in 0..cur.rounds.len() {
            for node in 0..cur.nodes {
                let mut k = 0;
                while k < cur.rounds[r].ops[node].len() {
                    let mut cand = cur.clone();
                    cand.rounds[r].ops[node].remove(k);
                    if try_accept(&mut cur, cand, &mut budget) {
                        changed = true;
                    } else {
                        k += 1;
                    }
                }
            }
        }
        if !changed || budget == 0 {
            break;
        }
    }
    cur
}

/// The litmus program for `(seed, program_index)` — the reproducible unit
/// the fuzzer iterates over and the `--program` replay flag selects.
pub fn litmus_for(seed: u64, program: usize, nodes: usize) -> Litmus {
    // Distinct stream per program index, stable under changes to the
    // number of programs fuzzed.
    let mut rng =
        Rng::new(seed.wrapping_add((program as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    Litmus::generate(&mut rng, nodes)
}

/// One failure found by [`fuzz`], with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The fuzzer seed.
    pub seed: u64,
    /// The program index under that seed.
    pub program: usize,
    /// The mechanism the failure occurred under.
    pub mech: Mechanism,
    /// The sweep extreme the failure occurred under.
    pub extreme: Extreme,
    /// The failure classification.
    pub class: FailureClass,
    /// The panic message.
    pub detail: String,
    /// The generated program.
    pub litmus: Litmus,
    /// The class-preserving minimised program.
    pub minimized: Litmus,
}

/// Result of a [`fuzz`] sweep.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Total `(program, mechanism, extreme)` executions.
    pub runs: u64,
    /// Programs generated.
    pub programs: u64,
    /// All failures found (at most one per `(program, mech, extreme)`).
    pub failures: Vec<FuzzFailure>,
}

/// Fuzzes `programs` generated litmus tests across `mechs` × `extremes`,
/// shrinking every failure to a minimal reproducer of the same class.
pub fn fuzz(
    seed: u64,
    programs: usize,
    nodes: usize,
    mechs: &[Mechanism],
    extremes: &[Extreme],
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for p in 0..programs {
        let lit = litmus_for(seed, p, nodes);
        report.programs += 1;
        for &mech in mechs {
            for &extreme in extremes {
                if p % extreme.stride() != 0 {
                    continue;
                }
                report.runs += 1;
                if let Err(fail) = run_litmus(&lit, mech, extreme) {
                    let minimized = shrink(&lit, fail.class, |cand| {
                        run_litmus(cand, mech, extreme).err().map(|f| f.class)
                    });
                    report.failures.push(FuzzFailure {
                        seed,
                        program: p,
                        mech,
                        extreme,
                        class: fail.class,
                        detail: fail.detail,
                        litmus: lit.clone(),
                        minimized,
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = litmus_for(42, 3, 4);
        let b = litmus_for(42, 3, 4);
        assert_eq!(a, b);
        let c = litmus_for(43, 3, 4);
        assert_ne!(a, c, "different seeds should give different programs");
    }

    #[test]
    fn generated_programs_pass_on_every_mechanism_and_extreme() {
        let report = fuzz(7, 4, 4, &Mechanism::ALL, &Extreme::ALL);
        assert_eq!(report.programs, 4);
        let expected_runs: u64 = Extreme::ALL
            .iter()
            .map(|e| (0..4).filter(|p| p % e.stride() == 0).count() as u64)
            .sum::<u64>()
            * Mechanism::ALL.len() as u64;
        assert_eq!(report.runs, expected_runs);
        assert!(
            report.failures.is_empty(),
            "unexpected failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.program, f.mech.label(), f.extreme.label(), f.class))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeded_mutation_is_caught_and_classified() {
        let lit = Litmus::directed_invalidation(4);
        assert!(run_litmus(&lit, Mechanism::SharedMem, Extreme::Base).is_ok());
        let fail = run_litmus_with(
            &lit,
            Mechanism::SharedMem,
            Extreme::Base,
            Fault::DropInvalidation,
        )
        .expect_err("dropped invalidation must be caught");
        assert_eq!(fail.class, FailureClass::Invariant, "{}", fail.detail);
        assert!(fail.detail.starts_with("PROTOCOL-INVARIANT violated: "));
    }

    #[test]
    fn smuggled_priority_ack_is_caught_by_conservation() {
        let lit = Litmus::directed_invalidation(4);
        // Unmutated, the criticality-aware extreme passes the full harness.
        assert!(run_litmus(&lit, Mechanism::SharedMem, Extreme::Critical).is_ok());
        let fail = run_litmus_with(
            &lit,
            Mechanism::SharedMem,
            Extreme::Critical,
            Fault::SmugglePriorityAck,
        )
        .expect_err("smuggled priority ack must be caught");
        assert_eq!(fail.class, FailureClass::Invariant, "{}", fail.detail);
        assert!(
            fail.detail.contains("conservation") || fail.detail.contains("cross-check"),
            "expected a message-conservation violation, got: {}",
            fail.detail
        );
        // The same fault stays dormant under the baseline variant: no
        // high-priority packets exist for it to trigger on.
        assert!(run_litmus_with(
            &lit,
            Mechanism::SharedMem,
            Extreme::Base,
            Fault::SmugglePriorityAck,
        )
        .is_ok());
    }

    #[test]
    fn shrink_preserves_failure_class_and_reduces() {
        let lit = Litmus::directed_invalidation(4);
        let runner = |cand: &Litmus| {
            run_litmus_with(
                cand,
                Mechanism::SharedMem,
                Extreme::Base,
                Fault::DropInvalidation,
            )
            .err()
            .map(|f| f.class)
        };
        let fail = run_litmus_with(
            &lit,
            Mechanism::SharedMem,
            Extreme::Base,
            Fault::DropInvalidation,
        )
        .expect_err("must fail");
        let min = shrink(&lit, fail.class, runner);
        assert!(
            min.total_ops() <= lit.total_ops(),
            "shrinking must not grow the program"
        );
        assert_eq!(
            runner(&min),
            Some(fail.class),
            "minimised program must reproduce the failure class"
        );
    }

    #[test]
    fn classes_follow_sim_error_variants() {
        let class = |e: SimError| FailureClass::from(&e);
        assert_eq!(
            class(SimError::Invariant("violated: x".into())),
            FailureClass::Invariant
        );
        assert_eq!(
            class(SimError::Oracle("violated: y".into())),
            FailureClass::Oracle
        );
        let deadlock = SimError::Deadlock {
            blocked: vec![1],
            detail: String::new(),
        };
        assert_eq!(class(deadlock), FailureClass::Deadlock);
        assert_eq!(class(SimError::InjectedFault), FailureClass::Other);
    }

    #[test]
    fn extreme_labels_round_trip() {
        for e in Extreme::ALL {
            assert_eq!(Extreme::from_label(e.label()), Some(e));
        }
        assert_eq!(Extreme::from_label("nope"), None);
    }

    #[test]
    fn display_renders_every_op_kind() {
        let lit = litmus_for(1, 0, 4);
        let text = format!("{lit}");
        assert!(text.contains("litmus: 4 nodes"), "{text}");
    }
}
