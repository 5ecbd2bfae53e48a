//! The abstract per-node program interface.
//!
//! Applications are expressed as one [`Program`] per node. The machine
//! repeatedly calls [`Program::resume`] to obtain the next [`Step`] —
//! an abstract instruction — and charges its cost to the appropriate time
//! bucket. Incoming active messages invoke [`Program::on_message`] (by
//! interrupt or at poll points, depending on the configured receive mode).
//!
//! The instruction stream carries *real data*: loads deliver the actual
//! shared-memory values, message arguments carry application values as raw
//! `u64` bits, and stores/RMWs update the machine's master copy. This lets
//! every application variant be verified against a sequential reference.

use std::any::Any;

use commsense_cache::{LineId, Word};
use commsense_msgpass::ActiveMessage;

/// An atomic read-modify-write operation on the two 64-bit words of a line.
///
/// Alewife applications piggy-back lock acquisition on the write-ownership
/// request (§4.3.2), so an RMW costs one exclusive acquisition; the op codes
/// here cover the patterns the four applications need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RmwOp {
    /// `w0 += x` — accumulate into a remote value (UNSTRUC/MOLDYN force
    /// updates under a lock).
    AddW0(f64),
    /// `w0 -= x; w1 -= 1` — ICCG producer-computes: accumulate an edge
    /// contribution and decrement the presence counter in one line.
    SubW0DecW1(f64),
    /// `w0 += 1` — fetch-and-increment (barrier counters).
    IncW0,
    /// `w0 = x` — atomic store.
    SetW0(f64),
}

impl RmwOp {
    /// Applies the operation to `(w0, w1)`, returning the new values.
    pub fn apply(self, w0: f64, w1: f64) -> (f64, f64) {
        match self {
            RmwOp::AddW0(x) => (w0 + x, w1),
            RmwOp::SubW0DecW1(x) => (w0 - x, w1 - 1.0),
            RmwOp::IncW0 => (w0 + 1.0, w1),
            RmwOp::SetW0(x) => (x, w1),
        }
    }
}

/// One abstract instruction of a node program.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Execute `cycles` of local computation (private data accesses are
    /// folded in). Zero is clamped to one cycle.
    Compute(u64),
    /// Load a shared word; the value is available as
    /// [`NodeCtx::loaded`] at the next resume.
    Load(Word),
    /// Load a shared word while spin-waiting: identical semantics to
    /// [`Step::Load`] but charged to synchronization time. A primitive:
    /// poll loops use [`Step::SpinUntil`].
    SpinLoad(Word),
    /// Spin-wait backoff cycles, charged to synchronization time. A
    /// primitive: poll loops use [`Step::SpinUntil`].
    SpinWait(u64),
    /// Spin on a shared word until its value satisfies `until`; the value
    /// that did is available as [`NodeCtx::loaded`] at the next resume.
    ///
    /// Exactly the hand-written loop "[`Step::SpinLoad`]`(word)`; if
    /// `until` holds, stop; else [`Step::SpinWait`]`(backoff)`; repeat",
    /// run by the machine without resuming the program between polls:
    /// the same loads, the same synchronization time, the same batch
    /// boundaries, the same cache and oracle state.
    SpinUntil {
        /// The word to poll.
        word: Word,
        /// Backoff cycles between polls (zero is clamped to one cycle).
        backoff: u64,
        /// The exit test, applied to each loaded value.
        until: Until,
    },
    /// Store a value to a shared word.
    Store(Word, f64),
    /// Atomic read-modify-write on a line; results are available as
    /// [`NodeCtx::rmw`] at the next resume.
    Rmw(LineId, RmwOp),
    /// Issue a non-binding prefetch for a line (read or read-exclusive).
    Prefetch {
        /// Line to fetch.
        line: LineId,
        /// Request ownership (write prefetch)?
        exclusive: bool,
    },
    /// Construct and launch an active message.
    Send(ActiveMessage),
    /// Drain the remote queue, running handlers for all queued messages
    /// (meaningful under polling receive mode; a cheap no-op when empty).
    Poll,
    /// Block until at least one application message has been handled since
    /// this step began; blocked time is synchronization time.
    WaitMsg,
    /// Enter the machine-wide barrier.
    Barrier,
    /// The node's program is complete.
    Done,
}

/// The exit test of a [`Step::SpinUntil`] loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Until {
    /// The word is at most `x` (ICCG's presence counter reaching zero).
    AtMost(f64),
    /// The word equals `x` (a ping-pong round's flag).
    Equals(f64),
}

impl Until {
    /// Whether a loaded value ends the spin.
    pub fn holds(self, v: f64) -> bool {
        match self {
            Until::AtMost(x) => v <= x,
            Until::Equals(x) => v == x,
        }
    }
}

/// Read-only execution context handed to [`Program::resume`].
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx {
    /// This node's id.
    pub node: usize,
    /// Total nodes in the machine.
    pub nodes: usize,
    /// Value delivered by the last completed [`Step::Load`],
    /// [`Step::SpinLoad`] or [`Step::SpinUntil`].
    pub loaded: f64,
    /// `(w0, w1)` after the last completed [`Step::Rmw`].
    pub rmw: (f64, f64),
}

/// Context handed to [`Program::on_message`] handlers.
///
/// Handlers run atomically (Alewife handlers are non-interruptible, which
/// is what lets message-passing UNSTRUC skip locks). They may update program
/// state, send further messages, and charge cycles for their work.
#[derive(Debug)]
pub struct HandlerCtx {
    /// This node's id.
    pub node: usize,
    /// Total nodes in the machine.
    pub nodes: usize,
    pub(crate) sends: Vec<ActiveMessage>,
    pub(crate) extra_cycles: u64,
}

impl HandlerCtx {
    pub(crate) fn new(node: usize, nodes: usize) -> Self {
        HandlerCtx {
            node,
            nodes,
            sends: Vec::new(),
            extra_cycles: 0,
        }
    }

    /// Sends an active message from within the handler (charged to message
    /// overhead at this node).
    pub fn send(&mut self, am: ActiveMessage) {
        self.sends.push(am);
    }

    /// Charges `cycles` of handler work (ghost-node writes, counter
    /// bookkeeping, …) to message overhead.
    pub fn charge(&mut self, cycles: u64) {
        self.extra_cycles += cycles;
    }
}

/// A per-node application program.
///
/// Programs are state machines: `resume` returns the next step given the
/// results of the previous one (in `ctx`), and `on_message` reacts to
/// arriving active messages. See `commsense-apps` for full implementations.
///
/// Every program is [`Any`], so a caller can recover a finished program's
/// state from `machine.into_programs()` by upcasting and downcasting:
/// `(&*prog as &dyn Any).downcast_ref::<T>()`. (Writing `&prog` instead
/// would upcast the `Box` itself, and the downcast would return `None`.)
pub trait Program: Any {
    /// Produces the next step. Called again after the previous step's cost
    /// (and any blocking) has elapsed.
    fn resume(&mut self, ctx: &mut NodeCtx) -> Step;

    /// Handles an arriving active message (interrupt or poll delivery).
    /// `bulk` is the modeled content of any DMA-appended payload.
    fn on_message(&mut self, handler: u16, args: &[u64], bulk: &[u64], ctx: &mut HandlerCtx);
}

/// Reinterprets an `f64` as message-argument bits.
pub fn f64_bits(x: f64) -> u64 {
    x.to_bits()
}

/// Reinterprets message-argument bits as an `f64`.
pub fn bits_f64(b: u64) -> f64 {
    f64::from_bits(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_ops_apply() {
        assert_eq!(RmwOp::AddW0(2.0).apply(1.0, 9.0), (3.0, 9.0));
        assert_eq!(RmwOp::SubW0DecW1(2.0).apply(10.0, 3.0), (8.0, 2.0));
        assert_eq!(RmwOp::IncW0.apply(4.0, 0.0), (5.0, 0.0));
        assert_eq!(RmwOp::SetW0(7.0).apply(1.0, 1.0), (7.0, 1.0));
    }

    #[test]
    fn until_tests_the_loaded_value() {
        assert!(Until::AtMost(0.0).holds(0.0));
        assert!(Until::AtMost(0.0).holds(-1.0));
        assert!(!Until::AtMost(0.0).holds(1.0));
        assert!(Until::Equals(3.0).holds(3.0));
        assert!(!Until::Equals(3.0).holds(2.0));
    }

    #[test]
    fn f64_bits_roundtrip() {
        for x in [0.0, -1.5, std::f64::consts::PI, 1e300] {
            assert_eq!(bits_f64(f64_bits(x)), x);
        }
    }

    #[test]
    fn handler_ctx_accumulates() {
        use commsense_msgpass::{ActiveMessage, HandlerId};
        let mut ctx = HandlerCtx::new(1, 4);
        ctx.charge(5);
        ctx.charge(7);
        ctx.send(ActiveMessage::new(2, HandlerId(0), vec![]));
        assert_eq!(ctx.extra_cycles, 12);
        assert_eq!(ctx.sends.len(), 1);
    }
}
