//! Optional execution tracing: a bounded log of per-node scheduling
//! events (blocks, resumes, sends, handlers, barriers) for debugging
//! programs and understanding where time goes beyond the four-bucket
//! summary.
//!
//! Tracing is off by default (zero overhead beyond an `Option` check);
//! enable it with [`crate::MachineConfig::observe`], whose
//! [`crate::ObserveConfig::trace_capacity`] bounds the log.

use commsense_des::{Clock, Time};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The node blocked on a coherence transaction for `line`.
    BlockMem {
        /// The missing line id.
        line: u64,
    },
    /// The node stalled on a full network-output port.
    BlockSend,
    /// The node blocked waiting for a message.
    BlockMsg,
    /// The node entered the barrier.
    BarrierEnter,
    /// The node resumed execution.
    Resume,
    /// The node launched an active message to `dst`.
    Send {
        /// Destination node.
        dst: u16,
        /// Wire bytes.
        bytes: u32,
        /// Network packet-record id correlating this send with its hops
        /// and handler ([`commsense_mesh::NO_RECORD`] when unrecorded).
        msg: u32,
    },
    /// A handler ran for `cycles` processor cycles.
    Handler {
        /// Application handler id.
        handler: u16,
        /// Duration in cycles.
        cycles: u32,
        /// Packet-record id of the message that triggered the handler
        /// ([`commsense_mesh::NO_RECORD`] when unrecorded).
        msg: u32,
    },
    /// The node's program retired.
    Done,
}

impl TraceKind {
    /// Short label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::BlockMem { .. } => "block-mem",
            TraceKind::BlockSend => "block-send",
            TraceKind::BlockMsg => "block-msg",
            TraceKind::BarrierEnter => "barrier",
            TraceKind::Resume => "resume",
            TraceKind::Send { .. } => "send",
            TraceKind::Handler { .. } => "handler",
            TraceKind::Done => "done",
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When (the node's logical time — may run ahead of the event clock
    /// within a batch).
    pub at: Time,
    /// The event clock when the record was made.
    pub recorded_at: Time,
    /// Which node.
    pub node: u16,
    /// What.
    pub kind: TraceKind,
}

/// A bounded, in-order event log.
///
/// Recording stops silently once `capacity` events have been collected
/// ([`Trace::truncated`] reports whether that happened), so tracing a long
/// run cannot exhaust memory.
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates an empty trace holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event (drops it if the trace is full).
    pub fn record(&mut self, at: Time, recorded_at: Time, node: usize, kind: TraceKind) {
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent {
                at,
                recorded_at,
                node: node as u16,
                kind,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// All recorded events, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of a single node.
    pub fn of_node(&self, node: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.node as usize == node)
    }

    /// Whether the capacity bound dropped events.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// How many events were dropped after the trace filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders one node's timeline as text (for debugging sessions).
    pub fn render_node(&self, node: usize, clock: Clock) -> String {
        let mut out = format!("node {node} timeline (cycles):\n");
        for e in self.of_node(node) {
            out.push_str(&format!(
                "  {:>10} (ev {:>10}) {}",
                clock.cycles_at(e.at),
                clock.cycles_at(e.recorded_at),
                e.kind.label()
            ));
            match e.kind {
                TraceKind::BlockMem { line } => out.push_str(&format!(" line={line}")),
                TraceKind::Send { dst, bytes, .. } => {
                    out.push_str(&format!(" dst={dst} bytes={bytes}"))
                }
                TraceKind::Handler {
                    handler, cycles, ..
                } => out.push_str(&format!(" id={handler} cycles={cycles}")),
                _ => {}
            }
            out.push('\n');
        }
        if self.truncated() {
            out.push_str(&format!(
                "  ... (trace truncated at capacity; {} events dropped)\n",
                self.dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_truncates() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            t.record(
                Time::from_ns(i * 10),
                Time::from_ns(i * 10),
                0,
                TraceKind::Resume,
            );
        }
        assert_eq!(t.events().len(), 3);
        assert!(t.truncated());
        assert_eq!(t.dropped(), 2);
        assert!(t.events().windows(2).all(|w| w[0].at <= w[1].at));
        let rendered = t.render_node(0, Clock::from_mhz(20.0));
        assert!(rendered.contains("2 events dropped"));
    }

    #[test]
    fn per_node_filter() {
        let mut t = Trace::new(10);
        t.record(Time::ZERO, Time::ZERO, 0, TraceKind::Done);
        t.record(Time::ZERO, Time::ZERO, 1, TraceKind::Done);
        t.record(Time::ZERO, Time::ZERO, 0, TraceKind::Resume);
        assert_eq!(t.of_node(0).count(), 2);
        assert_eq!(t.of_node(1).count(), 1);
    }

    #[test]
    fn render_includes_details() {
        let mut t = Trace::new(10);
        t.record(
            Time::from_us(1),
            Time::from_us(1),
            2,
            TraceKind::Send {
                dst: 5,
                bytes: 24,
                msg: 0,
            },
        );
        t.record(
            Time::from_us(2),
            Time::from_us(2),
            2,
            TraceKind::BlockMem { line: 77 },
        );
        let s = t.render_node(2, Clock::from_mhz(20.0));
        assert!(s.contains("send dst=5 bytes=24"));
        assert!(s.contains("block-mem line=77"));
        assert!(s.contains("20 ")); // 1us at 20MHz = 20 cycles
    }
}
