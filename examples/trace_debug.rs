//! Execution tracing: watch one node's scheduling timeline while EM3D
//! runs — where it blocks, what it sends, which handlers interrupt it.
//!
//! ```text
//! cargo run --release --example trace_debug [node]
//! ```

use commsense::cache::Heap;
use commsense::machine::program::{HandlerCtx, NodeCtx, Program, Step};
use commsense::machine::{Machine, MachineSpec, ObserveConfig, TraceKind};
use commsense::msgpass::{ActiveMessage, HandlerId};
use commsense::prelude::*;

/// A small exchange: each node sends a token around a ring, loads a remote
/// word, and barriers — enough to exercise every trace kind.
struct Ring {
    me: usize,
    n: usize,
    word: commsense::cache::Word,
    step: usize,
    got_token: bool,
}

impl Program for Ring {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        self.step += 1;
        match self.step {
            1 => Step::Compute(50 + 13 * self.me as u64),
            2 => Step::Send(ActiveMessage::new(
                (self.me + 1) % self.n,
                HandlerId(1),
                vec![self.me as u64],
            )),
            3 => {
                if self.got_token {
                    Step::Compute(1)
                } else {
                    Step::WaitMsg
                }
            }
            4 => Step::Load(self.word),
            5 => Step::Barrier,
            _ => Step::Done,
        }
    }

    fn on_message(&mut self, _h: u16, _args: &[u64], _b: &[u64], ctx: &mut HandlerCtx) {
        self.got_token = true;
        ctx.charge(8);
    }
}

fn main() {
    let focus: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut cfg = MachineConfig::alewife();
    cfg.observe = Some(ObserveConfig {
        trace_capacity: 100_000,
        ..ObserveConfig::default()
    });
    let mut heap = Heap::new(cfg.nodes);
    let lines = heap.alloc(cfg.nodes, |i| i);
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|me| {
            Box::new(Ring {
                me,
                n: cfg.nodes,
                // Everyone loads a word homed on the opposite node.
                word: lines.word((me + cfg.nodes / 2) % cfg.nodes, 0),
                step: 0,
                got_token: false,
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
            mechanism: Mechanism::SharedMem,
        },
    )
    .expect("machine matches its config");
    let stats = machine.run().expect("the ring exchange finishes");

    println!(
        "ring exchange on 32 nodes: {} cycles, {} messages, {} events\n",
        stats.runtime_cycles, stats.messages_sent, stats.events
    );
    let trace = machine.trace().expect("tracing enabled");
    print!("{}", trace.render_node(focus, cfg.clock()));

    // Summary across all nodes: how often each event kind occurred.
    let mut blocks = 0;
    let mut handlers = 0;
    let mut sends = 0;
    for e in trace.events() {
        match e.kind {
            TraceKind::BlockMem { .. } | TraceKind::BlockSend | TraceKind::BlockMsg => blocks += 1,
            TraceKind::Handler { .. } => handlers += 1,
            TraceKind::Send { .. } => sends += 1,
            _ => {}
        }
    }
    println!("\nmachine-wide: {blocks} blocks, {handlers} handler runs, {sends} sends");
}
