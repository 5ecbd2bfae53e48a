//! Property test: randomly generated programs (with matched barrier
//! counts) always terminate, keep per-node accounting consistent with
//! wall time, and leave the protocol coherent.

use commsense_cache::{Heap, Word};
use commsense_machine::program::{HandlerCtx, NodeCtx, Program, Step};
use commsense_machine::{Machine, MachineConfig, MachineSpec, Mechanism};
use commsense_msgpass::{ActiveMessage, HandlerId};
use proptest::prelude::*;

struct Script(Vec<Step>, usize);

impl Program for Script {
    fn resume(&mut self, _ctx: &mut NodeCtx) -> Step {
        let s = self.0.get(self.1).cloned().unwrap_or(Step::Done);
        self.1 += 1;
        s
    }
    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
}

/// A step chosen from the non-blocking-on-others subset (no WaitMsg, so a
/// random program cannot deadlock on a message that never comes).
#[derive(Debug, Clone, Copy)]
enum GenStep {
    Compute(u8),
    Load(u8),
    Store(u8),
    Rmw(u8),
    Prefetch(u8, bool),
    SpinWait(u8),
    Send(u8),
    Poll,
}

fn gen_step() -> impl Strategy<Value = GenStep> {
    prop_oneof![
        any::<u8>().prop_map(GenStep::Compute),
        any::<u8>().prop_map(GenStep::Load),
        any::<u8>().prop_map(GenStep::Store),
        any::<u8>().prop_map(GenStep::Rmw),
        (any::<u8>(), any::<bool>()).prop_map(|(l, e)| GenStep::Prefetch(l, e)),
        any::<u8>().prop_map(GenStep::SpinWait),
        any::<u8>().prop_map(GenStep::Send),
        Just(GenStep::Poll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_terminate_with_consistent_accounting(
        per_node in proptest::collection::vec(
            proptest::collection::vec(gen_step(), 0..25), 4),
        barriers in 0usize..3,
        mech_idx in 0usize..5,
        write_buffer in 0usize..3,
    ) {
        let mech = Mechanism::ALL[mech_idx];
        let mut cfg = MachineConfig::tiny().with_mechanism(mech);
        cfg.write_buffer = write_buffer * 2;
        let lines = 32;
        let mut heap = Heap::new(cfg.nodes);
        let arr = heap.alloc(lines, |i| i % 4);
        let programs: Vec<Box<dyn Program>> = per_node
            .iter()
            .enumerate()
            .map(|(me, steps)| {
                let mut prog: Vec<Step> = Vec::new();
                let chunk = steps.len() / (barriers + 1);
                for (k, gs) in steps.iter().enumerate() {
                    if barriers > 0 && chunk > 0 && k % chunk == 0 && k > 0
                        && prog.iter().filter(|s| matches!(s, Step::Barrier)).count() < barriers
                    {
                        prog.push(Step::Barrier);
                    }
                    prog.push(match *gs {
                        GenStep::Compute(c) => Step::Compute(1 + c as u64 % 40),
                        GenStep::Load(l) => Step::Load(Word::new(arr.line(l as usize % lines), 0)),
                        GenStep::Store(l) => {
                            Step::Store(Word::new(arr.line(l as usize % lines), 0), l as f64)
                        }
                        GenStep::Rmw(l) => Step::Rmw(
                            arr.line(l as usize % lines),
                            commsense_machine::RmwOp::IncW0,
                        ),
                        GenStep::Prefetch(l, e) => Step::Prefetch {
                            line: arr.line(l as usize % lines),
                            exclusive: e,
                        },
                        GenStep::SpinWait(c) => Step::SpinWait(1 + c as u64 % 30),
                        GenStep::Send(d) => {
                            let dst = (me + 1 + d as usize % 3) % 4;
                            Step::Send(ActiveMessage::new(dst, HandlerId(1), vec![d as u64]))
                        }
                        GenStep::Poll => Step::Poll,
                    });
                }
                // Pad missing barriers so all nodes arrive the same number
                // of times.
                while prog.iter().filter(|s| matches!(s, Step::Barrier)).count() < barriers {
                    prog.push(Step::Barrier);
                }
                Box::new(Script(prog, 0)) as Box<dyn Program>
            })
            .collect();
        let initial = vec![0.0; heap.total_words()];
        let mut m = Machine::new(cfg.clone(), MachineSpec { heap, initial, programs }).unwrap();
        m.enable_trace(100_000);
        let stats = m.run().expect("must terminate without deadlock");
        let clock = cfg.clock();
        // Accounting: no node accounts more than the run lasted.
        for (i, n) in stats.nodes.iter().enumerate() {
            let total = clock.cycles_at_f64(n.total());
            if total > stats.runtime_cycles as f64 + 1.0 {
                eprintln!("mech={mech:?} wb={} node {i}: sync={:?} ovh={:?} mem={:?} cmp={:?}",
                    cfg.write_buffer, n.sync, n.overhead, n.mem, n.compute);
                eprintln!("{}", m.trace().unwrap().render_node(i, clock));
            }
            prop_assert!(
                total <= stats.runtime_cycles as f64 + 1.0,
                "node {i} accounted {total} > runtime {}",
                stats.runtime_cycles
            );
        }
        // The protocol ends coherent.
        m.protocol().check_invariants((0..lines).map(|i| arr.line(i)));
    }
}
