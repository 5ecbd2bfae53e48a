//! Writing a custom program against the machine's public API: a ping-pong
//! microbenchmark comparing shared-memory round trips against
//! active-message round trips — the cost asymmetry that drives the whole
//! paper.
//!
//! ```text
//! cargo run --release --example custom_app
//! ```

use commsense::cache::{Heap, Word};
use commsense::machine::program::{HandlerCtx, NodeCtx, Program, Step, Until};
use commsense::machine::{Machine, MachineSpec};
use commsense::msgpass::{ActiveMessage, HandlerId};
use commsense::prelude::*;

const ROUNDS: usize = 200;

/// Classic two-word shared-memory ping-pong: node 0 stores round `r` into
/// `ping` and spins on `pong`; node 1 spins on `ping` and echoes into
/// `pong`.
#[derive(PartialEq)]
enum PingSt {
    /// Store this round's value.
    Put,
    /// Spin until the other node's word holds this round.
    Spin,
    /// The awaited value arrived.
    Seen,
}

struct SmPing {
    me: usize,
    ping: Word,
    pong: Word,
    round: usize,
    st: PingSt,
}

impl Program for SmPing {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        loop {
            if self.round > ROUNDS {
                return Step::Done;
            }
            match self.st {
                PingSt::Put => {
                    let (word, next) = if self.me == 0 {
                        (self.ping, PingSt::Spin) // now await the echo
                    } else {
                        (self.pong, PingSt::Spin) // echoed; await next round
                    };
                    let val = self.round as f64;
                    self.st = next;
                    if self.me == 1 {
                        self.round += 1;
                    }
                    return Step::Store(word, val);
                }
                PingSt::Spin => {
                    // The machine polls the word, backing off 8 cycles
                    // between loads, and resumes us once it holds.
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
                        // Echo observed: next round.
                        self.round += 1;
                    }
                    // Node 1: ping observed, echo it.
                    self.st = PingSt::Put;
                }
            }
        }
    }

    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
}

/// Active-message ping-pong: node 0 sends PING(r) and waits for PONG(r);
/// node 1's handler echoes.
struct MpPing {
    me: usize,
    sent: usize,
    acked: usize,
}

impl Program for MpPing {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        if self.acked >= ROUNDS {
            return Step::Done;
        }
        if self.me == 0 && self.sent == self.acked {
            self.sent += 1;
            return Step::Send(ActiveMessage::new(1, HandlerId(1), vec![self.sent as u64]));
        }
        Step::WaitMsg
    }

    fn on_message(&mut self, _h: u16, args: &[u64], _b: &[u64], ctx: &mut HandlerCtx) {
        let r = args[0] as usize;
        self.acked = r;
        if self.me == 1 {
            ctx.send(ActiveMessage::new(0, HandlerId(1), vec![r as u64]));
        }
    }
}

/// Idles immediately (the other 30 nodes).
struct Idle;

impl Program for Idle {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        Step::Done
    }
    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
}

fn run_sm(cfg: &MachineConfig) -> u64 {
    let mut heap = Heap::new(cfg.nodes);
    let ping = heap.alloc(1, |_| 0).word(0, 0);
    let pong = heap.alloc(1, |_| 1).word(0, 0);
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|me| match me {
            0 | 1 => Box::new(SmPing {
                me,
                ping,
                pong,
                round: 1,
                st: if me == 0 { PingSt::Put } else { PingSt::Spin },
            }) as Box<dyn Program>,
            _ => Box::new(Idle) as Box<dyn Program>,
        })
        .collect();
    let initial = vec![0.0; heap.total_words()];
    Machine::new(
        cfg.clone(),
        MachineSpec {
            heap,
            initial,
            programs,
        },
    )
    .expect("machine matches its config")
    .run()
    .expect("ping-pong finishes")
    .runtime_cycles
}

fn run_mp(cfg: &MachineConfig) -> u64 {
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|me| match me {
            0 | 1 => Box::new(MpPing {
                me,
                sent: 0,
                acked: 0,
            }) as Box<dyn Program>,
            _ => Box::new(Idle) as Box<dyn Program>,
        })
        .collect();
    let heap = Heap::new(cfg.nodes);
    Machine::new(
        cfg.clone(),
        MachineSpec {
            heap,
            initial: Vec::new(),
            programs,
        },
    )
    .expect("machine matches its config")
    .run()
    .expect("ping-pong finishes")
    .runtime_cycles
}

fn main() {
    let cfg = MachineConfig::alewife();
    let sm = run_sm(&cfg);
    let mp = run_mp(&cfg);
    println!("ping-pong between adjacent nodes, {ROUNDS} exchanges:");
    println!(
        "  shared memory:   {sm:>7} cycles ({:.1} cycles/exchange)",
        sm as f64 / ROUNDS as f64
    );
    println!(
        "  active messages: {mp:>7} cycles ({:.1} cycles/exchange)",
        mp as f64 / ROUNDS as f64
    );
    println!(
        "\nShared memory pays coherence-protocol round trips through the home\n\
         directory; message passing pays software send/receive overhead — the\n\
         tradeoff the paper sweeps across bandwidth and latency."
    );
}
