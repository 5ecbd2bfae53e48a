//! Microbenchmarks of the raw mechanisms: round-trip exchange, barrier
//! episodes, and hot-spot contention.
//!
//! The related work the paper builds on compared mechanisms with exactly
//! such kernels ("a comparison of shared memory and message passing
//! barriers in terms of speeds of the barriers themselves", §1). These
//! are library functions so tests and downstream studies can use them
//! directly; `examples/custom_app.rs` shows how to write the equivalent
//! programs by hand.

use commsense_cache::{Heap, Word};
use commsense_machine::program::{HandlerCtx, NodeCtx, Program, Step, Until};
use commsense_machine::{Machine, MachineConfig, MachineSpec, SimError};
use commsense_msgpass::{ActiveMessage, HandlerId};

/// Which flavor of round trip [`ping_pong`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingKind {
    /// Two shared words bounced via stores and spin loads.
    SharedMem,
    /// An active-message request/reply pair.
    Messages,
}

struct Idle;

impl Program for Idle {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        Step::Done
    }
    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
}

enum PingSt {
    Put,
    Spin,
    Seen,
}

struct SmPing {
    me: usize,
    ping: Word,
    pong: Word,
    round: usize,
    rounds: usize,
    st: PingSt,
}

impl Program for SmPing {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        loop {
            if self.round > self.rounds {
                return Step::Done;
            }
            match self.st {
                PingSt::Put => {
                    let word = if self.me == 0 { self.ping } else { self.pong };
                    let val = self.round as f64;
                    self.st = PingSt::Spin;
                    if self.me == 1 {
                        self.round += 1;
                    }
                    return Step::Store(word, val);
                }
                PingSt::Spin => {
                    let word = if self.me == 0 { self.pong } else { self.ping };
                    self.st = PingSt::Seen;
                    return Step::SpinUntil {
                        word,
                        backoff: 8,
                        until: Until::Equals(self.round as f64),
                    };
                }
                PingSt::Seen => {
                    if self.me == 0 {
                        self.round += 1;
                    }
                    self.st = PingSt::Put;
                }
            }
        }
    }

    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
}

struct MpPing {
    me: usize,
    sent: usize,
    acked: usize,
    rounds: usize,
}

impl Program for MpPing {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        if self.acked >= self.rounds {
            return Step::Done;
        }
        if self.me == 0 && self.sent == self.acked {
            self.sent += 1;
            return Step::Send(ActiveMessage::new(1, HandlerId(1), vec![self.sent as u64]));
        }
        Step::WaitMsg
    }

    fn on_message(&mut self, _h: u16, args: &[u64], _b: &[u64], ctx: &mut HandlerCtx) {
        self.acked = args[0] as usize;
        if self.me == 1 {
            ctx.send(ActiveMessage::new(0, HandlerId(1), vec![self.acked as u64]));
        }
    }
}

/// Measures the per-exchange cost (cycles) of `rounds` round trips between
/// adjacent nodes 0 and 1.
///
/// # Panics
///
/// Panics if the machine has fewer than two nodes or `rounds == 0`.
pub fn ping_pong(cfg: &MachineConfig, rounds: usize, kind: PingKind) -> f64 {
    assert!(cfg.nodes >= 2 && rounds > 0, "need two nodes and rounds");
    let mut heap = Heap::new(cfg.nodes);
    let ping = heap.alloc(1, |_| 0).word(0, 0);
    let pong = heap.alloc(1, |_| 1).word(0, 0);
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|me| match (kind, me) {
            (PingKind::SharedMem, 0 | 1) => Box::new(SmPing {
                me,
                ping,
                pong,
                round: 1,
                rounds,
                st: if me == 0 { PingSt::Put } else { PingSt::Spin },
            }) as Box<dyn Program>,
            (PingKind::Messages, 0 | 1) => Box::new(MpPing {
                me,
                sent: 0,
                acked: 0,
                rounds,
            }) as Box<dyn Program>,
            _ => Box::new(Idle) as Box<dyn Program>,
        })
        .collect();
    let initial = vec![0.0; heap.total_words()];
    let cycles = Machine::new(
        cfg.clone(),
        MachineSpec {
            heap,
            initial,
            programs,
        },
    )
    .map_err(SimError::from)
    .and_then(|mut m| m.run())
    .unwrap_or_else(|e| e.raise())
    .runtime_cycles;
    cycles as f64 / rounds as f64
}

struct BarrierOnly {
    remaining: usize,
}

impl Program for BarrierOnly {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        if self.remaining == 0 {
            return Step::Done;
        }
        self.remaining -= 1;
        Step::Barrier
    }
    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
}

/// Measures the per-episode cost (cycles) of `episodes` machine-wide
/// barriers under the config's barrier style.
///
/// # Panics
///
/// Panics if `episodes == 0`.
pub fn barrier_episode(cfg: &MachineConfig, episodes: usize) -> f64 {
    assert!(episodes > 0, "need episodes");
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|_| {
            Box::new(BarrierOnly {
                remaining: episodes,
            }) as Box<dyn Program>
        })
        .collect();
    let heap = Heap::new(cfg.nodes);
    let cycles = Machine::new(
        cfg.clone(),
        MachineSpec {
            heap,
            initial: Vec::new(),
            programs,
        },
    )
    .map_err(SimError::from)
    .and_then(|mut m| m.run())
    .unwrap_or_else(|e| e.raise())
    .runtime_cycles;
    cycles as f64 / episodes as f64
}

struct HotspotRmw {
    line: commsense_cache::LineId,
    remaining: usize,
}

impl Program for HotspotRmw {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        if self.remaining == 0 {
            return Step::Done;
        }
        self.remaining -= 1;
        Step::Rmw(self.line, commsense_machine::RmwOp::IncW0)
    }
    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
}

/// All nodes hammer one line with atomic increments (`ops` each); returns
/// cycles per operation — the lock-contention cost UNSTRUC pays and MOLDYN
/// mostly avoids (§4.2.3, §4.4.3).
///
/// # Panics
///
/// Panics if `ops == 0`.
pub fn hotspot_rmw(cfg: &MachineConfig, ops: usize) -> f64 {
    assert!(ops > 0, "need ops");
    let mut heap = Heap::new(cfg.nodes);
    let line = heap.alloc(1, |_| 0).line(0);
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|_| {
            Box::new(HotspotRmw {
                line,
                remaining: ops,
            }) as Box<dyn Program>
        })
        .collect();
    let initial = vec![0.0; heap.total_words()];
    let mut machine = Machine::new(
        cfg.clone(),
        MachineSpec {
            heap,
            initial,
            programs,
        },
    )
    .unwrap_or_else(|e| SimError::from(e).raise());
    let cycles = machine.run().unwrap_or_else(|e| e.raise()).runtime_cycles;
    let total = machine.master_word(Word::new(line, 0));
    assert_eq!(total as usize, ops * cfg.nodes, "atomicity");
    cycles as f64 / (ops * cfg.nodes) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_machine::Mechanism;

    fn cfg() -> MachineConfig {
        MachineConfig::alewife()
    }

    #[test]
    fn message_round_trip_beats_shared_memory_round_trip() {
        // One AM each way vs. two coherence round trips per exchange.
        let sm = ping_pong(&cfg(), 100, PingKind::SharedMem);
        let mp = ping_pong(&cfg(), 100, PingKind::Messages);
        assert!(mp < sm, "mp {mp:.0} vs sm {sm:.0} cycles/exchange");
        assert!((100.0..600.0).contains(&sm), "sm {sm:.0}");
        assert!((100.0..400.0).contains(&mp), "mp {mp:.0}");
    }

    #[test]
    fn barrier_episodes_cost_hundreds_of_cycles() {
        let sm = barrier_episode(&cfg().with_mechanism(Mechanism::SharedMem), 20);
        let mp = barrier_episode(&cfg().with_mechanism(Mechanism::MsgPoll), 20);
        assert!((200.0..3_000.0).contains(&sm), "sm barrier {sm:.0}");
        assert!((200.0..3_000.0).contains(&mp), "mp barrier {mp:.0}");
    }

    #[test]
    fn hotspot_rmw_is_contended() {
        let per_op = hotspot_rmw(&cfg(), 8);
        // Each op needs the line recalled from the previous owner, through
        // one home: far above an uncontended remote RMW.
        assert!(per_op > 30.0, "hot-spot RMW {per_op:.0} cycles/op");
    }

    #[test]
    fn hotspot_scales_with_contention() {
        let mut small = MachineConfig::tiny();
        small.nodes = 4;
        let four = hotspot_rmw(&small, 8);
        let thirty_two = hotspot_rmw(&cfg(), 8);
        assert!(
            thirty_two > four,
            "more contenders must cost more per op: {four:.0} -> {thirty_two:.0}"
        );
    }
}
