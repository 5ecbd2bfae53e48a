//! Machine-level tests: tiny hand-written programs exercising every step
//! kind, both receive modes, both barrier styles, and the sensitivity knobs.

use std::any::Any;

use commsense_cache::{Heap, Word};
use commsense_des::Time;
use commsense_mesh::CrossTrafficConfig;
use commsense_msgpass::{ActiveMessage, HandlerId};

use crate::config::{CheckConfig, MachineConfig, Mechanism, ObserveConfig};
use crate::program::{bits_f64, f64_bits, HandlerCtx, NodeCtx, Program, RmwOp, Step, Until};

use super::{Machine, MachineSpec};
use crate::error::SimError;

/// A program that replays a fixed list of steps and records messages.
struct Script {
    steps: Vec<Step>,
    pc: usize,
    received: Vec<(u16, Vec<u64>)>,
    last_loaded: f64,
}

impl Script {
    fn new(steps: Vec<Step>) -> Box<Self> {
        Box::new(Script {
            steps,
            pc: 0,
            received: Vec::new(),
            last_loaded: 0.0,
        })
    }
}

impl Program for Script {
    fn resume(&mut self, ctx: &mut NodeCtx) -> Step {
        self.last_loaded = ctx.loaded;
        let step = self.steps.get(self.pc).cloned().unwrap_or(Step::Done);
        self.pc += 1;
        step
    }

    fn on_message(&mut self, handler: u16, args: &[u64], _bulk: &[u64], _ctx: &mut HandlerCtx) {
        self.received.push((handler, args.to_vec()));
    }
}

fn empty_spec(
    cfg: &MachineConfig,
    mechanism: Mechanism,
    programs: Vec<Box<dyn Program>>,
) -> MachineSpec {
    MachineSpec {
        heap: Heap::new(cfg.nodes),
        initial: Vec::new(),
        programs,
        mechanism,
    }
}

#[test]
fn compute_only_runtime() {
    let cfg = MachineConfig::tiny();
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|_| Script::new(vec![Step::Compute(100)]) as Box<dyn Program>)
        .collect();
    let spec = empty_spec(&cfg, Mechanism::SharedMem, programs);
    let mut m = Machine::new(cfg.clone(), spec).unwrap();
    let stats = m.run().unwrap();
    assert_eq!(stats.runtime_cycles, 100);
    for n in &stats.nodes {
        assert_eq!(cfg.clock().cycles_at(n.compute), 100);
        assert_eq!(n.sync, Time::ZERO);
    }
}

#[test]
fn buckets_sum_to_finish_time() {
    // Mixed workload: every charged interval must be accounted exactly.
    let mut heap = Heap::new(4);
    let arr = heap.alloc(8, |i| i % 4);
    let w = |i: usize| Word::new(arr.line(i), 0);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            Script::new(vec![
                Step::Compute(50),
                Step::Load(w(n)),           // local
                Step::Load(w((n + 1) % 4)), // remote
                Step::Store(w(n), n as f64),
                Step::Barrier,
                Step::Compute(10 * n as u64 + 1),
            ]) as Box<dyn Program>
        })
        .collect();
    let cfg = MachineConfig::tiny();
    let mut m = Machine::new(
        cfg.clone(),
        MachineSpec {
            heap,
            initial: vec![0.0; 16],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    m.run().unwrap();
    for i in 0..m.cfg.nodes {
        let finish = m.nodes.finish[i].expect("finished");
        let total = m.nodes.stats[i].total();
        assert_eq!(
            total.as_ps(),
            finish.as_ps(),
            "node {i}: buckets {:?} must sum to finish {finish}",
            m.nodes.stats[i]
        );
    }
}

#[test]
fn local_miss_penalty_near_alewife() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(4, |_| 0);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            let steps = if n == 0 {
                vec![Step::Load(Word::new(arr.line(0), 0))]
            } else {
                vec![]
            };
            Script::new(steps) as Box<dyn Program>
        })
        .collect();
    let cfg = MachineConfig::tiny();
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 8],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    let stats = m.run().unwrap();
    // Figure 3: local clean read miss = 11 cycles.
    assert!(
        (8..=20).contains(&stats.runtime_cycles),
        "local clean miss {} cycles",
        stats.runtime_cycles
    );
}

#[test]
fn remote_miss_penalty_near_alewife() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(4, |_| 1);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            let steps = if n == 0 {
                vec![Step::Load(Word::new(arr.line(0), 0))]
            } else {
                vec![]
            };
            Script::new(steps) as Box<dyn Program>
        })
        .collect();
    let cfg = MachineConfig::tiny();
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 8],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    let stats = m.run().unwrap();
    // Figure 3: remote clean read miss = 42 cycles + 1.6/hop.
    assert!(
        (30..=60).contains(&stats.runtime_cycles),
        "remote clean miss {} cycles",
        stats.runtime_cycles
    );
    assert!(stats.volume.requests > 0);
    assert!(stats.volume.data > 0);
}

#[test]
fn store_then_load_transfers_value() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(2, |_| 2);
    let w = Word::new(arr.line(0), 1);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| match n {
            0 => Script::new(vec![Step::Store(w, 42.5), Step::Barrier]),
            1 => Script::new(vec![Step::Barrier, Step::Load(w), Step::Compute(1)]),
            _ => Script::new(vec![Step::Barrier]),
        } as Box<dyn Program>)
        .collect();
    let cfg = MachineConfig::tiny();
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 4],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    m.run().unwrap();
    assert_eq!(m.master_word(w), 42.5);
    let progs = m.into_programs();
    let p1 = (&*progs[1] as &dyn Any).downcast_ref::<Script>().unwrap();
    assert_eq!(p1.last_loaded, 42.5, "node 1 observed node 0's store");
}

#[test]
fn active_message_delivery_interrupt_mode() {
    let cfg = MachineConfig::tiny();
    let am = ActiveMessage::new(1, HandlerId(7), vec![f64_bits(2.5), 9]);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| match n {
            0 => Script::new(vec![Step::Compute(5), Step::Send(am.clone())]),
            1 => Script::new(vec![Step::WaitMsg]),
            _ => Script::new(vec![]),
        } as Box<dyn Program>)
        .collect();
    let spec = empty_spec(&cfg, Mechanism::MsgInterrupt, programs);
    let mut m = Machine::new(cfg, spec).unwrap();
    let stats = m.run().unwrap();
    assert_eq!(stats.messages_sent, 1);
    let progs = m.into_programs();
    let p1 = (&*progs[1] as &dyn Any).downcast_ref::<Script>().unwrap();
    assert_eq!(p1.received.len(), 1);
    assert_eq!(p1.received[0].0, 7);
    assert_eq!(bits_f64(p1.received[0].1[0]), 2.5);
    assert_eq!(p1.received[0].1[1], 9);
}

#[test]
fn poll_mode_defers_until_poll() {
    let cfg = MachineConfig::tiny();
    let am = ActiveMessage::new(1, HandlerId(3), vec![1]);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| match n {
            0 => Script::new(vec![Step::Send(am.clone())]),
            // Long compute, then poll: message must be handled at the poll.
            1 => Script::new(vec![Step::Compute(5000), Step::Poll]),
            _ => Script::new(vec![]),
        } as Box<dyn Program>)
        .collect();
    let spec = empty_spec(&cfg, Mechanism::MsgPoll, programs);
    let mut m = Machine::new(cfg.clone(), spec).unwrap();
    let stats = m.run().unwrap();
    let progs = m.into_programs();
    let p1 = (&*progs[1] as &dyn Any).downcast_ref::<Script>().unwrap();
    assert_eq!(p1.received.len(), 1);
    // Node 1 ran at least its 5000 compute cycles before finishing.
    assert!(stats.runtime_cycles >= 5000);
    // Receive overhead was charged at node 1.
    assert!(stats.nodes[1].overhead > Time::ZERO);
}

#[test]
fn handlers_can_reply() {
    /// Replies to any message by sending an ack back to node 0.
    struct Replier {
        acked: bool,
    }
    impl Program for Replier {
        fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
            Step::Done
        }
        fn on_message(&mut self, handler: u16, _args: &[u64], _bulk: &[u64], ctx: &mut HandlerCtx) {
            if handler == 1 {
                ctx.charge(20);
                ctx.send(ActiveMessage::new(0, HandlerId(2), vec![77]));
            }
        }
    }
    let cfg = MachineConfig::tiny();
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| match n {
            0 => Script::new(vec![
                Step::Send(ActiveMessage::new(1, HandlerId(1), vec![])),
                Step::WaitMsg,
            ]) as Box<dyn Program>,
            1 => Box::new(Replier { acked: false }) as Box<dyn Program>,
            _ => Script::new(vec![]) as Box<dyn Program>,
        })
        .collect();
    let spec = empty_spec(&cfg, Mechanism::MsgInterrupt, programs);
    let mut m = Machine::new(cfg, spec).unwrap();
    m.run().unwrap();
    let progs = m.into_programs();
    let p0 = (&*progs[0] as &dyn Any).downcast_ref::<Script>().unwrap();
    assert_eq!(p0.received, vec![(2, vec![77])]);
    let _ = Replier { acked: true }.acked;
}

#[test]
fn barrier_synchronizes_shared_memory_style() {
    barrier_synchronizes(Mechanism::SharedMem);
}

#[test]
fn barrier_synchronizes_message_tree_style() {
    barrier_synchronizes(Mechanism::MsgPoll);
}

fn barrier_synchronizes(mech: Mechanism) {
    let cfg = MachineConfig::tiny();
    // Node n computes n*1000 cycles then barriers; afterwards each stores a
    // flag observed... we verify via sync times: fast nodes wait for slow.
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            Script::new(vec![Step::Compute(1 + 1000 * n as u64), Step::Barrier]) as Box<dyn Program>
        })
        .collect();
    let spec = empty_spec(&cfg, mech, programs);
    let mut m = Machine::new(cfg.clone(), spec).unwrap();
    let stats = m.run().unwrap();
    // All nodes finish at/after the slowest node's compute.
    assert!(
        stats.runtime_cycles >= 3001,
        "runtime {}",
        stats.runtime_cycles
    );
    // The fastest node spent most of the run synchronizing.
    let sync0 = cfg.clock().cycles_at(stats.nodes[0].sync);
    assert!(sync0 >= 2500, "node 0 sync {sync0}");
    let sync3 = cfg.clock().cycles_at(stats.nodes[3].sync);
    assert!(sync3 < 2500, "node 3 sync {sync3}");
}

#[test]
fn repeated_barriers_do_not_deadlock() {
    for mech in [Mechanism::SharedMem, Mechanism::MsgInterrupt] {
        let cfg = MachineConfig::tiny();
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|n| {
                let mut steps = Vec::new();
                for it in 0..10 {
                    steps.push(Step::Compute(1 + (n as u64 * 13 + it) % 50));
                    steps.push(Step::Barrier);
                }
                Script::new(steps) as Box<dyn Program>
            })
            .collect();
        let spec = empty_spec(&cfg, mech, programs);
        let mut m = Machine::new(cfg, spec).unwrap();
        m.run().unwrap();
    }
}

#[test]
fn rmw_is_atomic_under_contention() {
    // All four nodes increment the same counter 25 times: final value 100.
    let mut heap = Heap::new(4);
    let arr = heap.alloc(1, |_| 0);
    let line = arr.line(0);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|_| {
            let mut steps = Vec::new();
            for _ in 0..25 {
                steps.push(Step::Rmw(line, crate::program::RmwOp::IncW0));
            }
            Script::new(steps) as Box<dyn Program>
        })
        .collect();
    let cfg = MachineConfig::tiny();
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 2],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    m.run().unwrap();
    assert_eq!(m.master_word(Word::new(line, 0)), 100.0);
}

#[test]
fn prefetch_hides_remote_latency() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(4, |_| 3);
    let run = |prefetch: bool| {
        let mut heap = Heap::new(4);
        let arr2 = heap.alloc(4, |_| 3);
        assert_eq!(arr2.line(0), arr.line(0));
        let mut steps = Vec::new();
        if prefetch {
            steps.push(Step::Prefetch {
                line: arr2.line(0),
                exclusive: false,
            });
        }
        steps.push(Step::Compute(200));
        steps.push(Step::Load(Word::new(arr2.line(0), 0)));
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|n| {
                if n == 0 {
                    Script::new(steps.clone()) as Box<dyn Program>
                } else {
                    Script::new(vec![]) as Box<dyn Program>
                }
            })
            .collect();
        let cfg = MachineConfig::tiny();
        let mut m = Machine::new(
            cfg,
            MachineSpec {
                heap,
                initial: vec![0.0; 8],
                programs,
                mechanism: Mechanism::SharedMem,
            },
        )
        .unwrap();
        m.run().unwrap().runtime_cycles
    };
    let with = run(true);
    let without = run(false);
    assert!(with < without, "prefetch {with} must beat demand {without}");
}

#[test]
fn useless_prefetch_only_costs_issue() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(2, |_| 0); // local to node 0
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            if n == 0 {
                Script::new(vec![
                    Step::Load(Word::new(arr.line(0), 0)),
                    Step::Prefetch {
                        line: arr.line(0),
                        exclusive: false,
                    },
                    Step::Compute(10),
                ]) as Box<dyn Program>
            } else {
                Script::new(vec![]) as Box<dyn Program>
            }
        })
        .collect();
    let cfg = MachineConfig::tiny();
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 4],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    m.run().unwrap();
    assert_eq!(m.useless_prefetches, 1);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let cfg = MachineConfig::tiny();
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|n| {
                Script::new(vec![
                    Step::Compute(10 + n as u64),
                    Step::Send(ActiveMessage::new(
                        (n + 1) % 4,
                        HandlerId(1),
                        vec![n as u64],
                    )),
                    Step::WaitMsg,
                    Step::Barrier,
                ]) as Box<dyn Program>
            })
            .collect();
        let spec = empty_spec(&cfg, Mechanism::MsgInterrupt, programs);
        let mut m = Machine::new(cfg, spec).unwrap();
        let s = m.run().unwrap();
        (s.runtime_cycles, s.events, s.messages_sent)
    };
    assert_eq!(run(), run());
}

#[test]
fn observation_does_not_change_simulated_cycles() {
    // The observability layer must be pure bookkeeping: every stat the
    // simulation produces (cycle counts, event counts, per-node buckets)
    // has to be bit-identical with recording on and off.
    let run = |observe: bool| {
        let mut cfg = MachineConfig::tiny();
        if observe {
            cfg.observe = Some(ObserveConfig {
                epoch_cycles: 50,
                trace_capacity: 1 << 16,
                max_packets: 1 << 16,
                ..Default::default()
            });
        }
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|n| {
                Script::new(vec![
                    Step::Compute(10 + n as u64),
                    Step::Send(ActiveMessage::new(
                        (n + 1) % 4,
                        HandlerId(1),
                        vec![n as u64],
                    )),
                    Step::WaitMsg,
                    Step::Barrier,
                    Step::Compute(5),
                ]) as Box<dyn Program>
            })
            .collect();
        let spec = empty_spec(&cfg, Mechanism::MsgPoll, programs);
        let mut m = Machine::new(cfg, spec).unwrap();
        let s = m.run().unwrap();
        format!(
            "{:?}",
            (s.runtime_cycles, s.events, s.messages_sent, s.nodes)
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn observation_collects_series_trace_and_packets() {
    let mut cfg = MachineConfig::tiny();
    cfg.observe = Some(ObserveConfig {
        epoch_cycles: 20,
        trace_capacity: 4096,
        max_packets: 4096,
        ..Default::default()
    });
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            Script::new(vec![
                Step::Compute(10 + n as u64),
                Step::Send(ActiveMessage::new(
                    (n + 1) % 4,
                    HandlerId(1),
                    vec![n as u64],
                )),
                Step::WaitMsg,
                Step::Barrier,
            ]) as Box<dyn Program>
        })
        .collect();
    let spec = empty_spec(&cfg, Mechanism::MsgInterrupt, programs);
    let mut m = Machine::new(cfg, spec).unwrap();
    m.run().unwrap();
    let obs = m.take_observation().expect("observation enabled");
    assert!(m.take_observation().is_none(), "observation is taken once");

    let s = &obs.series;
    assert!(s.samples() > 0, "run spans at least one epoch");
    assert_eq!(s.nodes, 4);
    assert_eq!(s.node_state.len(), s.samples() * s.nodes);
    assert_eq!(s.outstanding.len(), s.samples() * s.nodes);
    assert_eq!(s.link_busy_ps.len(), s.samples() * s.links);
    assert_eq!(s.link_queue.len(), s.samples() * s.links);
    assert_eq!(s.event_queue_depth.len(), s.samples());
    assert_eq!(obs.link_labels.len(), s.links);
    // Cumulative link busy time never decreases, and utilization is sane.
    for l in 0..s.links {
        for i in 1..s.samples() {
            assert!(s.link_busy_ps[i * s.links + l] >= s.link_busy_ps[(i - 1) * s.links + l]);
            let u = s.link_utilization(i, l);
            assert!((0.0..=1.0).contains(&u));
        }
    }

    assert!(!obs.trace.events().is_empty());
    assert!(!obs.net.packets.is_empty());
    for p in &obs.net.packets {
        if let Some(d) = p.delivered_at {
            assert!(d >= p.injected_at);
        }
    }
    // Every barrier message and user message got a Send trace event with a
    // live record id, and the matching handler saw the same id.
    use crate::trace::TraceKind;
    use commsense_mesh::NO_RECORD;
    let mut send_ids = Vec::new();
    let mut handler_ids = Vec::new();
    for e in obs.trace.events() {
        match e.kind {
            TraceKind::Send { msg, .. } => send_ids.push(msg),
            TraceKind::Handler { msg, .. } => handler_ids.push(msg),
            _ => {}
        }
    }
    assert!(send_ids.iter().any(|&m| m != NO_RECORD));
    for &m in &send_ids {
        if m != NO_RECORD {
            assert!(
                handler_ids.contains(&m),
                "send record {m} must reach a handler"
            );
        }
    }
}

/// A small mixed workload (sharing, RMW contention, barriers) that feeds
/// the checking tests: `wb` selects the write-buffer depth.
fn checked_run(
    mech: Mechanism,
    wb: usize,
    check: Option<CheckConfig>,
    fault: bool,
) -> Result<String, SimError> {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(8, |i| i % 4);
    let ctr = heap.alloc(1, |_| 0);
    let w = |i: usize| Word::new(arr.line(i), 0);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            let mut steps = vec![
                Step::Load(w(4)), // everyone shares line 4...
                Step::Compute(5),
                Step::Rmw(ctr.line(0), crate::program::RmwOp::IncW0),
                Step::Barrier,
            ];
            if n == 0 {
                steps.push(Step::Store(w(4), 9.0)); // ...then node 0 invalidates them
            }
            steps.extend([
                Step::Store(w(n), n as f64),
                Step::Load(w((n + 1) % 4)),
                Step::Barrier,
                Step::Load(w(4)),
                Step::Compute(1),
            ]);
            Script::new(steps) as Box<dyn Program>
        })
        .collect();
    let mut cfg = MachineConfig::tiny();
    cfg.write_buffer = wb;
    cfg.check = check;
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 18],
            programs,
            mechanism: mech,
        },
    )
    .unwrap();
    if fault {
        m.fault_ignore_next_invalidation();
    }
    let s = m.run()?;
    if check.is_some() {
        assert!(
            m.checked_transitions().unwrap() > 0,
            "checker saw no transitions"
        );
    }
    Ok(format!(
        "{:?}",
        (s.runtime_cycles, s.events, s.messages_sent, s.nodes)
    ))
}

#[test]
fn checked_run_is_clean_across_mechanisms_and_buffers() {
    for mech in [Mechanism::SharedMem, Mechanism::MsgPoll] {
        for wb in [0, 4] {
            checked_run(mech, wb, Some(CheckConfig::full()), false).unwrap();
        }
    }
}

#[test]
fn checking_does_not_change_simulated_cycles() {
    // The harness invariant: the full checker (invariants + conservation +
    // oracle) is pure bookkeeping, so every simulated stat is bit-identical
    // with checking on and off.
    for wb in [0, 4] {
        assert_eq!(
            checked_run(Mechanism::SharedMem, wb, None, false).unwrap(),
            checked_run(Mechanism::SharedMem, wb, Some(CheckConfig::full()), false).unwrap(),
            "wb={wb}: checking changed simulation results"
        );
    }
}

#[test]
fn seeded_dropped_invalidation_is_caught() {
    // Mutation test for the checker itself: skip one cache invalidation
    // (the ack still flows, so the protocol does not hang) and the
    // single-writer check must trip when the write completes. The clean
    // variant of this exact run passes in
    // `checked_run_is_clean_across_mechanisms_and_buffers`.
    let err = checked_run(Mechanism::SharedMem, 0, Some(CheckConfig::full()), true).unwrap_err();
    let SimError::Invariant(text) = &err else {
        panic!("expected an invariant violation, got {err:?}");
    };
    assert!(text.starts_with("violated: after transition: "), "{text}");
    assert!(err.to_string().starts_with("PROTOCOL-INVARIANT violated: "));
}

#[test]
fn seeded_fault_without_checker_goes_unnoticed() {
    // The same mutated run with checking off completes silently — the
    // checker, not the machine, is what catches the corruption.
    checked_run(Mechanism::SharedMem, 0, None, true).unwrap();
}

#[test]
fn oracle_log_records_the_applied_stream() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(2, |_| 2);
    let w = Word::new(arr.line(0), 1);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| match n {
            0 => Script::new(vec![Step::Store(w, 42.5), Step::Barrier]),
            1 => Script::new(vec![Step::Barrier, Step::Load(w), Step::Compute(1)]),
            _ => Script::new(vec![Step::Barrier]),
        } as Box<dyn Program>)
        .collect();
    let mut cfg = MachineConfig::tiny();
    cfg.check = Some(CheckConfig::full());
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 4],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    m.run().unwrap();
    let log = m.oracle_log().expect("oracle on");
    use crate::oracle::OracleOp;
    let flat = w.flat_index() as u64;
    let store = log
        .events()
        .iter()
        .position(|e| {
            e.node == 0
                && e.op
                    == OracleOp::Write {
                        word: flat,
                        value: 42.5,
                    }
        })
        .expect("store logged");
    let load = log
        .events()
        .iter()
        .position(|e| {
            e.node == 1
                && e.op
                    == OracleOp::Read {
                        word: flat,
                        value: 42.5,
                    }
        })
        .expect("load logged with the stored value");
    assert!(store < load, "store applies before the dependent load");
    // The load is on the far side of the barrier from the store.
    assert!(log.events()[load].epoch > log.events()[store].epoch);
}

#[test]
fn cross_traffic_slows_shared_memory() {
    // Each node reads lines owned by its partner across the bisection, so
    // every miss crosses the contended cut (and no line is shared widely,
    // keeping LimitLESS software handling out of the picture).
    let partner = |n: usize| {
        let (x, y) = (n % 8, n / 8);
        y * 8 + (x + 4) % 8
    };
    let run = |consumed: f64| {
        let mut heap = Heap::new(32);
        // 8 private lines per node, line i homed on node i % 32.
        let arr = heap.alloc(256, |i| i % 32);
        let programs: Vec<Box<dyn Program>> = (0..32)
            .map(|n| {
                let p = partner(n);
                let mut steps = Vec::new();
                for i in 0..128 {
                    steps.push(Step::Load(Word::new(arr.line(p + 32 * (i % 8)), 0)));
                    steps.push(Step::Compute(2));
                }
                Script::new(steps) as Box<dyn Program>
            })
            .collect();
        let mut cfg = MachineConfig::alewife();
        if consumed > 0.0 {
            cfg.cross_traffic = Some(CrossTrafficConfig::consuming(
                consumed,
                cfg.clock(),
                64,
                cfg.net.topo.io_streams(),
            ));
        }
        let mut m = Machine::new(
            cfg,
            MachineSpec {
                heap,
                initial: vec![0.0; 512],
                programs,
                mechanism: Mechanism::SharedMem,
            },
        )
        .unwrap();
        m.run().unwrap().runtime_cycles
    };
    let clear = run(0.0);
    let congested = run(16.0); // consume most of the 18 B/cycle bisection
    assert!(
        congested as f64 > 1.2 * clear as f64,
        "cross traffic must slow the run: {congested} vs {clear}"
    );
}

#[test]
fn slower_clock_reduces_relative_network_cost() {
    // A remote-miss-bound program costs fewer *cycles* on a slower clock
    // because the wall-clock network latency converts to fewer cycles.
    let run = |mhz: f64| {
        let mut heap = Heap::new(4);
        let arr = heap.alloc(16, |_| 3);
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|n| {
                if n == 0 {
                    let steps = (0..16)
                        .map(|i| Step::Load(Word::new(arr.line(i), 0)))
                        .collect();
                    Script::new(steps) as Box<dyn Program>
                } else {
                    Script::new(vec![]) as Box<dyn Program>
                }
            })
            .collect();
        let cfg = MachineConfig::tiny().with_cpu_mhz(mhz);
        let mut m = Machine::new(
            cfg,
            MachineSpec {
                heap,
                initial: vec![0.0; 32],
                programs,
                mechanism: Mechanism::SharedMem,
            },
        )
        .unwrap();
        m.run().unwrap().runtime_cycles
    };
    let fast_clock = run(20.0);
    let slow_clock = run(14.0);
    assert!(
        slow_clock < fast_clock,
        "slower clock: {slow_clock} cycles vs {fast_clock}"
    );
}

#[test]
fn latency_emulation_scales_remote_misses() {
    let run = |emu: Option<u64>| {
        let mut heap = Heap::new(4);
        let arr = heap.alloc(16, |_| 3);
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|n| {
                if n == 0 {
                    let steps = (0..16)
                        .map(|i| Step::Load(Word::new(arr.line(i), 0)))
                        .collect();
                    Script::new(steps) as Box<dyn Program>
                } else {
                    Script::new(vec![]) as Box<dyn Program>
                }
            })
            .collect();
        let mut cfg = MachineConfig::tiny();
        cfg.latency_emulation = emu;
        let mut m = Machine::new(
            cfg,
            MachineSpec {
                heap,
                initial: vec![0.0; 32],
                programs,
                mechanism: Mechanism::SharedMem,
            },
        )
        .unwrap();
        m.run().unwrap().runtime_cycles
    };
    let base = run(Some(50));
    let slow = run(Some(500));
    // 16 remote misses at +450 cycles each.
    assert!(
        slow > base + 16 * 400,
        "emulated latency must dominate: {base} -> {slow}"
    );
}

#[test]
fn ni_backpressure_stalls_sender() {
    // Flood the network interface with large back-to-back bulk messages:
    // the sender must accumulate Memory+NI wait time.
    let cfg = MachineConfig::tiny();
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            if n == 0 {
                let steps = (0..20)
                    .map(|_| Step::Send(ActiveMessage::with_bulk(1, HandlerId(1), vec![], 4096)))
                    .collect();
                Script::new(steps) as Box<dyn Program>
            } else {
                Script::new(vec![]) as Box<dyn Program>
            }
        })
        .collect();
    let spec = empty_spec(&cfg, Mechanism::Bulk, programs);
    let mut m = Machine::new(cfg, spec).unwrap();
    let stats = m.run().unwrap();
    assert!(
        stats.nodes[0].mem > Time::ZERO,
        "NI backpressure must appear as mem+NI wait"
    );
}

#[test]
fn deadlock_is_detected() {
    let cfg = MachineConfig::tiny();
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            if n == 0 {
                Script::new(vec![Step::WaitMsg]) as Box<dyn Program> // never satisfied
            } else {
                Script::new(vec![]) as Box<dyn Program>
            }
        })
        .collect();
    let spec = empty_spec(&cfg, Mechanism::SharedMem, programs);
    let mut m = Machine::new(cfg, spec).unwrap();
    let err = m.run().unwrap_err();
    let SimError::Deadlock { blocked, .. } = &err else {
        panic!("expected a deadlock, got {err:?}");
    };
    assert_eq!(blocked, &[0]);
    assert!(err
        .to_string()
        .starts_with("deadlock: nodes blocked with no pending events: [\"0:BlockedMsg"));
}

#[test]
fn volume_accounting_separates_classes() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(2, |_| 1);
    let w = Word::new(arr.line(0), 0);
    // Node 0 writes (gets exclusive), nodes 2,3 read (share), then node 0
    // writes again (invalidations!).
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| match n {
            0 => Script::new(vec![
                Step::Store(w, 1.0),
                Step::Barrier,
                Step::Barrier,
                Step::Store(w, 2.0),
            ]),
            2 | 3 => Script::new(vec![Step::Barrier, Step::Load(w), Step::Barrier]),
            _ => Script::new(vec![Step::Barrier, Step::Barrier]),
        } as Box<dyn Program>)
        .collect();
    let cfg = MachineConfig::tiny();
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 4],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    let stats = m.run().unwrap();
    assert!(
        stats.volume.invalidates > 0,
        "second write must invalidate sharers"
    );
    assert!(stats.volume.requests > 0);
    assert!(stats.volume.data > 0);
    assert!(stats.volume.headers > 0);
    assert_eq!(m.master_word(w), 2.0);
}

#[test]
fn write_buffer_overlaps_store_latency() {
    // Relaxed stores to remote lines overlap; sequential consistency
    // stalls on each one.
    let run = |wb: usize| {
        let mut heap = Heap::new(4);
        let arr = heap.alloc(16, |_| 3);
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|n| {
                if n == 0 {
                    let steps = (0..16)
                        .map(|i| Step::Store(Word::new(arr.line(i), 0), i as f64))
                        .collect();
                    Script::new(steps) as Box<dyn Program>
                } else {
                    Script::new(vec![]) as Box<dyn Program>
                }
            })
            .collect();
        let mut cfg = MachineConfig::tiny();
        cfg.write_buffer = wb;
        let mut m = Machine::new(
            cfg,
            MachineSpec {
                heap,
                initial: vec![0.0; 32],
                programs,
                mechanism: Mechanism::SharedMem,
            },
        )
        .unwrap();
        let stats = m.run().unwrap();
        // All values must land in master memory before retirement.
        for i in 0..16 {
            assert_eq!(
                m.master_word(Word::new(arr.line(i), 0)),
                i as f64,
                "wb={wb}"
            );
        }
        stats.runtime_cycles
    };
    let sc = run(0);
    let rc = run(4);
    assert!(
        (rc as f64) < 0.5 * sc as f64,
        "write buffer must overlap stores: rc {rc} vs sc {sc}"
    );
}

#[test]
fn write_buffer_fence_at_barrier() {
    // A store posted just before a barrier must be visible to readers
    // after the barrier (barriers are release fences).
    let mut heap = Heap::new(4);
    let arr = heap.alloc(2, |_| 2);
    let w = Word::new(arr.line(0), 0);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| match n {
            0 => Script::new(vec![Step::Store(w, 7.5), Step::Barrier]),
            1 => Script::new(vec![Step::Barrier, Step::Load(w), Step::Compute(1)]),
            _ => Script::new(vec![Step::Barrier]),
        } as Box<dyn Program>)
        .collect();
    let mut cfg = MachineConfig::tiny();
    cfg.write_buffer = 4;
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 4],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    m.run().unwrap();
    let progs = m.into_programs();
    let p1 = (&*progs[1] as &dyn Any).downcast_ref::<Script>().unwrap();
    assert_eq!(
        p1.last_loaded, 7.5,
        "fence must order the posted store before the barrier"
    );
}

#[test]
fn write_buffer_read_after_posted_write_merges() {
    // A load of a line with a posted store in flight must return the new
    // value (it merges into the outstanding transaction).
    let mut heap = Heap::new(4);
    let arr = heap.alloc(2, |_| 3);
    let w = Word::new(arr.line(0), 0);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            if n == 0 {
                Script::new(vec![Step::Store(w, 3.25), Step::Load(w), Step::Compute(1)])
                    as Box<dyn Program>
            } else {
                Script::new(vec![]) as Box<dyn Program>
            }
        })
        .collect();
    let mut cfg = MachineConfig::tiny();
    cfg.write_buffer = 4;
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 4],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    m.run().unwrap();
    let progs = m.into_programs();
    let p0 = (&*progs[0] as &dyn Any).downcast_ref::<Script>().unwrap();
    assert_eq!(p0.last_loaded, 3.25);
}

#[test]
fn write_buffer_full_stalls() {
    // With a 1-deep buffer, back-to-back remote stores stall, but all
    // values still land.
    let mut heap = Heap::new(4);
    let arr = heap.alloc(8, |_| 1);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            if n == 0 {
                let steps = (0..8)
                    .map(|i| Step::Store(Word::new(arr.line(i), 0), 1.0 + i as f64))
                    .collect();
                Script::new(steps) as Box<dyn Program>
            } else {
                Script::new(vec![]) as Box<dyn Program>
            }
        })
        .collect();
    let mut cfg = MachineConfig::tiny();
    cfg.write_buffer = 1;
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 16],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    let stats = m.run().unwrap();
    for i in 0..8 {
        assert_eq!(m.master_word(Word::new(arr.line(i), 0)), 1.0 + i as f64);
    }
    assert!(stats.nodes[0].mem > Time::ZERO, "full buffer must stall");
}

#[test]
fn spin_loads_charge_sync_not_memory() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(2, |_| 1);
    let w = Word::new(arr.line(0), 0);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            if n == 0 {
                Script::new(vec![
                    Step::SpinLoad(w),
                    Step::SpinWait(50),
                    Step::SpinLoad(w),
                ]) as Box<dyn Program>
            } else {
                Script::new(vec![]) as Box<dyn Program>
            }
        })
        .collect();
    let cfg = MachineConfig::tiny();
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 4],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    let stats = m.run().unwrap();
    assert!(
        stats.nodes[0].sync > Time::ZERO,
        "spin activity is synchronization time"
    );
    assert_eq!(
        stats.nodes[0].mem,
        Time::ZERO,
        "spin misses charge sync, not mem"
    );
}

#[test]
fn congestion_grows_superlinearly() {
    // Halving bandwidth twice (via cross-traffic) must cost more the
    // second time: queueing is nonlinear (the Congestion Dominated region
    // of Figure 1).
    let partner = |n: usize| {
        let (x, y) = (n % 8, n / 8);
        y * 8 + (x + 4) % 8
    };
    let run = |consumed: f64| {
        let mut heap = Heap::new(32);
        let arr = heap.alloc(256, |i| i % 32);
        let programs: Vec<Box<dyn Program>> = (0..32)
            .map(|n| {
                let p = partner(n);
                let mut steps = Vec::new();
                for i in 0..96 {
                    steps.push(Step::Load(Word::new(arr.line(p + 32 * (i % 8)), 0)));
                    steps.push(Step::Compute(2));
                }
                Script::new(steps) as Box<dyn Program>
            })
            .collect();
        let mut cfg = MachineConfig::alewife();
        if consumed > 0.0 {
            cfg.cross_traffic = Some(CrossTrafficConfig::consuming(
                consumed,
                cfg.clock(),
                64,
                cfg.net.topo.io_streams(),
            ));
        }
        let mut m = Machine::new(
            cfg,
            MachineSpec {
                heap,
                initial: vec![0.0; 512],
                programs,
                mechanism: Mechanism::SharedMem,
            },
        )
        .unwrap();
        m.run().unwrap().runtime_cycles as f64
    };
    let t0 = run(0.0);
    let t1 = run(9.0); // 18 -> 9 B/cycle
    let t2 = run(13.5); // 9 -> 4.5 B/cycle
    let first_step = t1 - t0;
    let second_step = t2 - t1;
    assert!(
        second_step > first_step,
        "second halving must cost more: +{first_step:.0} then +{second_step:.0}"
    );
}

#[test]
fn trace_records_scheduling_events() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(2, |_| 1);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| match n {
            0 => Script::new(vec![
                Step::Load(Word::new(arr.line(0), 0)),
                Step::Send(ActiveMessage::new(1, HandlerId(3), vec![7])),
                Step::Barrier,
            ]),
            1 => Script::new(vec![Step::WaitMsg, Step::Barrier]),
            _ => Script::new(vec![Step::Barrier]),
        } as Box<dyn Program>)
        .collect();
    let mut cfg = MachineConfig::tiny();
    cfg.observe = Some(ObserveConfig {
        trace_capacity: 10_000,
        ..ObserveConfig::default()
    });
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 4],
            programs,
            mechanism: Mechanism::MsgInterrupt,
        },
    )
    .unwrap();
    m.run().unwrap();
    let trace = m.trace().expect("enabled");
    assert!(!trace.truncated());
    let kinds: Vec<&str> = trace.of_node(0).map(|e| e.kind.label()).collect();
    assert!(
        kinds.contains(&"block-mem"),
        "node 0 missed remotely: {kinds:?}"
    );
    assert!(kinds.contains(&"send"));
    assert!(kinds.contains(&"barrier"));
    assert!(kinds.contains(&"done"));
    let n1: Vec<&str> = trace.of_node(1).map(|e| e.kind.label()).collect();
    assert!(n1.contains(&"handler"), "node 1 ran the handler: {n1:?}");
    // Rendering works and mentions the send.
    let text = trace.render_node(0, MachineConfig::tiny().clock());
    assert!(text.contains("send dst=1"));
}

#[test]
fn miss_latency_histogram_captures_remote_misses() {
    let mut heap = Heap::new(4);
    let arr = heap.alloc(8, |_| 3);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|n| {
            if n == 0 {
                let steps = (0..8)
                    .map(|i| Step::Load(Word::new(arr.line(i), 0)))
                    .collect();
                Script::new(steps) as Box<dyn Program>
            } else {
                Script::new(vec![]) as Box<dyn Program>
            }
        })
        .collect();
    let cfg = MachineConfig::tiny();
    let mut m = Machine::new(
        cfg,
        MachineSpec {
            heap,
            initial: vec![0.0; 16],
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    let stats = m.run().unwrap();
    assert_eq!(stats.miss_latency.count, 8, "eight remote demand misses");
    let mean = stats.miss_latency.mean().expect("misses recorded");
    assert!(
        (25.0..90.0).contains(&mean),
        "mean remote miss {mean:.0} cycles"
    );
    assert!(stats.miss_latency.quantile_upper_bound(0.9).unwrap() <= 128);
}

#[test]
fn latency_emulation_delays_prefetch_fills() {
    // In emulation mode a prefetch completes no sooner than the emulated
    // latency after issue, so shallow lookahead cannot hide deep latency.
    let run = |emu_cycles: u64| {
        let mut heap = Heap::new(4);
        let arr = heap.alloc(4, |_| 3);
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|n| {
                if n == 0 {
                    Script::new(vec![
                        Step::Prefetch {
                            line: arr.line(0),
                            exclusive: false,
                        },
                        Step::Compute(20), // shallow lookahead
                        Step::Load(Word::new(arr.line(0), 0)),
                    ]) as Box<dyn Program>
                } else {
                    Script::new(vec![]) as Box<dyn Program>
                }
            })
            .collect();
        let mut cfg = MachineConfig::tiny();
        cfg.latency_emulation = Some(emu_cycles);
        let mut m = Machine::new(
            cfg,
            MachineSpec {
                heap,
                initial: vec![0.0; 8],
                programs,
                mechanism: Mechanism::SharedMem,
            },
        )
        .unwrap();
        m.run().unwrap().runtime_cycles
    };
    let short = run(30);
    let long = run(400);
    assert!(
        long > short + 300,
        "a 400-cycle emulated miss must defeat a 20-cycle lookahead: {short} -> {long}"
    );
}

#[test]
fn ejection_backpressure_under_message_burst() {
    // 31 nodes flood node 0 under interrupts: drain occupancy must
    // serialize deliveries, so total time far exceeds one message's cost.
    let cfg = {
        let mut c = MachineConfig::alewife();
        c.nodes = 32;
        c
    };
    struct Sink {
        need: usize,
        got: usize,
    }
    impl Program for Sink {
        fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
            if self.got >= self.need {
                Step::Done
            } else {
                Step::WaitMsg
            }
        }
        fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {
            self.got += 1;
        }
    }
    let programs: Vec<Box<dyn Program>> = (0..32)
        .map(|n| {
            if n == 0 {
                Box::new(Sink { need: 124, got: 0 }) as Box<dyn Program>
            } else {
                let steps = (0..4)
                    .map(|i| Step::Send(ActiveMessage::new(0, HandlerId(1), vec![i])))
                    .collect();
                Script::new(steps) as Box<dyn Program>
            }
        })
        .collect();
    let spec = empty_spec(&cfg, Mechanism::MsgInterrupt, programs);
    let mut m = Machine::new(cfg, spec).unwrap();
    let stats = m.run().unwrap();
    // 124 messages x ~(interrupt+dispatch) serialized at node 0's receive
    // side: thousands of cycles, not the ~100 of a single message.
    assert!(
        stats.runtime_cycles > 2_000,
        "receive-side occupancy must serialize the burst: {}",
        stats.runtime_cycles
    );
    let progs = m.into_programs();
    let p0 = (&*progs[0] as &dyn Any).downcast_ref::<Sink>().unwrap();
    assert_eq!(p0.got, 124, "no message lost in the burst");
}

/// A mixed workload for the batching identity pin: every node computes,
/// stores to its own slot, barriers, reads a neighbour's slot, and
/// contends on an Rmw counter; message mechanisms additionally exchange
/// an active-message ring. Heavy same-instant traffic, so the batched
/// loop actually coalesces multi-event instants.
fn batching_identity_spec(cfg: &MachineConfig, mech: Mechanism) -> MachineSpec {
    let n = cfg.nodes;
    let mut heap = Heap::new(n);
    let arr = heap.alloc(n, |i| i % n);
    let counter = heap.alloc(1, |_| 0);
    let programs: Vec<Box<dyn Program>> = (0..n)
        .map(|p| {
            let w = Word::new(arr.line(p), 0);
            let neighbour = Word::new(arr.line((p + 1) % n), 0);
            let mut steps = vec![
                Step::Compute(1 + 37 * p as u64),
                Step::Store(w, p as f64),
                Step::Barrier,
                Step::Load(neighbour),
                Step::Rmw(counter.line(0), RmwOp::IncW0),
            ];
            match mech {
                Mechanism::SharedMem | Mechanism::SharedMemPrefetch => {
                    steps.push(Step::Prefetch {
                        line: arr.line((p + 2) % n),
                        exclusive: false,
                    });
                }
                Mechanism::MsgInterrupt | Mechanism::MsgPoll | Mechanism::Bulk => {
                    steps.push(Step::Send(ActiveMessage::new(
                        (p + 1) % n,
                        HandlerId(1),
                        vec![p as u64],
                    )));
                    if mech == Mechanism::MsgPoll {
                        steps.push(Step::Poll);
                    }
                    steps.push(Step::WaitMsg);
                }
            }
            steps.push(Step::Barrier);
            Script::new(steps) as Box<dyn Program>
        })
        .collect();
    let initial = vec![0.0; heap.total_words()];
    MachineSpec {
        heap,
        initial,
        programs,
        mechanism: mech,
    }
}

/// Same-cycle batch draining and dispatch profiling must be invisible in
/// simulated time: for every mechanism, `Machine::run` (batched),
/// `Machine::run` with `profile_dispatch` (batched and timed) and
/// `Machine::run_unbatched` (one event per pop) produce bit-identical
/// `RunStats` — cycles, event counts, per-node buckets, everything in the
/// Debug rendering — and the same master memory.
#[test]
fn batched_and_unbatched_runs_are_identical() {
    for mech in Mechanism::ALL {
        let cfg = MachineConfig::tiny();
        let mut profiled_cfg = cfg.clone();
        profiled_cfg.profile_dispatch = true;
        let mut batched = Machine::new(cfg.clone(), batching_identity_spec(&cfg, mech)).unwrap();
        let stats_batched = batched.run().unwrap();
        let mut profiled = Machine::new(profiled_cfg, batching_identity_spec(&cfg, mech)).unwrap();
        let stats_profiled = profiled.run().unwrap();
        let mut unbatched = Machine::new(cfg.clone(), batching_identity_spec(&cfg, mech)).unwrap();
        let stats_unbatched = unbatched.run_unbatched().unwrap();
        assert!(
            stats_batched.events > 0 && stats_batched.runtime_cycles > 0,
            "{mech:?}: workload must actually run"
        );
        let profile = profiled.take_dispatch_profile().expect("profiled run");
        assert_eq!(
            profile.kinds.iter().map(|k| k.events).sum::<u64>(),
            stats_profiled.events,
            "{mech:?}: the profile must count every dispatched event"
        );
        for (form, stats, m) in [
            ("profiled", &stats_profiled, &profiled),
            ("unbatched", &stats_unbatched, &unbatched),
        ] {
            assert_eq!(
                format!("{stats_batched:?}"),
                format!("{stats:?}"),
                "{mech:?}: batched and {form} stats diverge"
            );
            assert_eq!(
                batched.master(),
                m.master(),
                "{mech:?}: batched and {form} master memory diverge"
            );
        }
    }
}

/// Each shape check of `Machine::new` turns its mismatched input into a
/// typed `ConfigError` instead of a panic.
#[test]
fn new_rejects_each_mismatched_shape() {
    use crate::error::ConfigError;
    let cfg = MachineConfig::tiny();
    let idle = |n: usize| -> Vec<Box<dyn Program>> {
        (0..n)
            .map(|_| Script::new(vec![]) as Box<dyn Program>)
            .collect()
    };
    let err = |cfg: &MachineConfig, spec| Machine::new(cfg.clone(), spec).err();

    let mut wrong_nodes = cfg.clone();
    wrong_nodes.nodes = 8;
    assert_eq!(
        err(
            &wrong_nodes,
            empty_spec(&wrong_nodes, Mechanism::SharedMem, idle(8))
        ),
        Some(ConfigError::TopologyNodes {
            nodes: 8,
            topology: "mesh 2x2".into(),
            topology_nodes: 4,
        })
    );

    let mut heap = Heap::new(cfg.nodes);
    heap.alloc(1, |_| 0);
    let words = heap.total_words();
    let spec = MachineSpec {
        heap,
        initial: vec![0.0; words + 1],
        programs: idle(4),
        mechanism: Mechanism::SharedMem,
    };
    assert_eq!(
        err(&cfg, spec),
        Some(ConfigError::InitialValues {
            values: words + 1,
            heap_words: words,
        })
    );

    assert_eq!(
        err(&cfg, empty_spec(&cfg, Mechanism::SharedMem, idle(3))),
        Some(ConfigError::Programs {
            programs: 3,
            nodes: 4,
        })
    );

    let spec = MachineSpec {
        heap: Heap::new(2),
        initial: Vec::new(),
        programs: idle(4),
        mechanism: Mechanism::SharedMem,
    };
    assert_eq!(
        err(&cfg, spec),
        Some(ConfigError::HeapNodes {
            heap_nodes: 2,
            nodes: 4,
        })
    );

    assert!(err(&cfg, empty_spec(&cfg, Mechanism::SharedMem, idle(4))).is_none());
}

/// Node 0's program in the spin identity tests: `before`, then a poll loop
/// on `word`, then `after`. The loop is one [`Step::SpinUntil`], or the
/// same loop written out with `SpinLoad`, a test, and `SpinWait`.
struct Spinner {
    before: Vec<Step>,
    word: Word,
    backoff: u64,
    until: Until,
    after: Vec<Step>,
    hand_rolled: bool,
    pc: usize,
    /// Hand-rolled only: the last step was the `SpinLoad`.
    loaded: bool,
}

impl Program for Spinner {
    fn resume(&mut self, ctx: &mut NodeCtx) -> Step {
        let spin_at = self.before.len();
        if self.pc < spin_at {
            self.pc += 1;
            return self.before[self.pc - 1].clone();
        }
        if self.pc == spin_at {
            if !self.hand_rolled {
                self.pc += 1;
                return Step::SpinUntil {
                    word: self.word,
                    backoff: self.backoff,
                    until: self.until,
                };
            }
            if !self.loaded {
                self.loaded = true;
                return Step::SpinLoad(self.word);
            }
            self.loaded = false;
            if !self.until.holds(ctx.loaded) {
                return Step::SpinWait(self.backoff);
            }
            self.pc += 1;
        }
        self.pc += 1;
        self.after
            .get(self.pc - spin_at - 2)
            .cloned()
            .unwrap_or(Step::Done)
    }

    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
}

/// One spin scenario. Node 0 spins on word 1 of line 0 of an 8-line array
/// (line 0 homed at `home`; lines 0 and 4 share a set in a 4-line cache)
/// after running `before`; node 1 runs `producer`.
struct SpinScenario<'a> {
    home: usize,
    /// The spun word's initial value.
    initial: f64,
    before: &'a [Step],
    backoff: u64,
    until: Until,
    producer: &'a [Step],
}

/// Runs a [`SpinScenario`] and returns everything it simulated: the
/// stats, the oracle log length, node 0's final loaded value, and the
/// master copy.
fn spin_case(cfg: &MachineConfig, sc: &SpinScenario, hand_rolled: bool) -> String {
    let SpinScenario {
        home,
        initial,
        before,
        backoff,
        until,
        producer,
    } = *sc;
    let mut heap = Heap::new(cfg.nodes);
    let arr = heap.alloc(8, |i| if i == 0 { home } else { 3 });
    let word = arr.word(0, 1);
    let mut values = vec![0.0; heap.total_words()];
    values[word.flat_index()] = initial;
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|n| match n {
            0 => Box::new(Spinner {
                before: before.to_vec(),
                word,
                backoff,
                until,
                after: vec![Step::Load(arr.word(0, 0)), Step::Compute(3)],
                hand_rolled,
                pc: 0,
                loaded: false,
            }) as Box<dyn Program>,
            1 => Script::new(producer.to_vec()) as Box<dyn Program>,
            _ => Script::new(vec![]) as Box<dyn Program>,
        })
        .collect();
    let mut m = Machine::new(
        cfg.clone(),
        MachineSpec {
            heap,
            initial: values,
            programs,
            mechanism: Mechanism::SharedMem,
        },
    )
    .unwrap();
    let stats = m.run().unwrap();
    let oracle = m.oracle_log().map(|l| l.events().len());
    format!(
        "{stats:?} oracle={oracle:?} loaded={} master={:?}",
        m.nodes.loaded[0],
        m.master()
    )
}

/// `SpinUntil` is the hand-written poll loop, bit for bit: every stat
/// (cycles, events, per-node buckets, cache hits and misses, protocol
/// counters), the oracle log and the final memory agree. The sweep covers
/// batches that end after a backoff and after a load (backoffs from 0 to
/// past the batch budget), a first poll that misses (remote home), a line
/// invalidated by producer stores after several batches, a poll merged
/// into an outstanding prefetch or promoted from the prefetch buffer, the
/// spun line evicted by a posted store's fill in a small cache, latency
/// emulation, and the checker with the oracle on.
#[test]
fn spin_until_equals_the_hand_rolled_loop() {
    let arr_line = |i: u64| commsense_cache::LineId(i);
    let mut small_cache = MachineConfig::tiny();
    small_cache.proto.cache_lines = 4;
    small_cache.write_buffer = 2;
    let mut two_way = small_cache.clone();
    two_way.proto.cache_ways = 2;
    let mut emulated = MachineConfig::tiny();
    emulated.latency_emulation = Some(300);
    let mut checked = MachineConfig::tiny();
    checked.check = Some(CheckConfig::full());
    let configs = [
        ("tiny", MachineConfig::tiny()),
        ("small cache", small_cache),
        ("two-way", two_way),
        ("emulated", emulated),
        ("checked", checked),
    ];
    // Stores 1, 2, 3 to the spun word (line 0, word 1), far apart.
    let stores: Vec<Step> = (1..=3)
        .flat_map(|v| {
            [
                Step::Compute(900),
                Step::Store(Word::new(arr_line(0), 1), v as f64),
            ]
        })
        .collect();
    // Two ICCG-style decrements of the counter in w1.
    let decrements: Vec<Step> = (0..2)
        .flat_map(|_| {
            [
                Step::Compute(700),
                Step::Rmw(arr_line(0), RmwOp::SubW0DecW1(0.5)),
            ]
        })
        .collect();
    let befores: [Vec<Step>; 5] = [
        vec![],
        vec![Step::Compute(1)],
        vec![
            Step::Prefetch {
                line: arr_line(0),
                exclusive: false,
            },
            Step::Compute(2),
        ],
        vec![
            Step::Prefetch {
                line: arr_line(0),
                exclusive: false,
            },
            Step::Compute(400),
        ],
        // A posted store to line 4 (same set as line 0 in a 4-line cache):
        // its fill can land mid-spin and evict the spun line.
        vec![Step::Store(Word::new(arr_line(4), 0), 7.0)],
    ];
    let mut cases = 0;
    for (label, cfg) in &configs {
        for home in [0, 1, 3] {
            for (b, before) in befores.iter().enumerate() {
                for backoff in [0, 1, 3, 7, 20, 50, 119, 120, 200] {
                    for (initial, until, producer) in [
                        (0.0, Until::Equals(3.0), &stores),
                        (2.0, Until::AtMost(0.0), &decrements),
                    ] {
                        let sc = SpinScenario {
                            home,
                            initial,
                            before,
                            backoff,
                            until,
                            producer,
                        };
                        let run = |hand_rolled| spin_case(cfg, &sc, hand_rolled);
                        assert_eq!(
                            run(true),
                            run(false),
                            "{label}, home {home}, before #{b}, backoff {backoff}, {until:?}"
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 5 * 3 * 5 * 9 * 2);
}
