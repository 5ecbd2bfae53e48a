//! Chrome/Perfetto trace-event export.
//!
//! Converts an [`Observation`] (execution trace, network packet lifecycle,
//! and metric series) into the Trace Event JSON format that
//! <https://ui.perfetto.dev> and `chrome://tracing` open directly:
//!
//! * **pid 1 — nodes**: one thread track per node, with duration slices for
//!   blocked intervals (`block-mem`, `block-send`, `block-msg`, `barrier`)
//!   and message handlers, and short slices for sends.
//! * **pid 2 — links**: one thread track per sampled link (named `E(2,1)`
//!   etc.), with a slice for every recorded packet serialization.
//! * **pid 3 — counters**: DES event-queue depth, barrier occupancy, and
//!   mean link utilization sampled per epoch.
//! * **Flow arrows** connect each send slice to its link hops and the
//!   receiving handler (same packet-record id), so a message's journey is
//!   clickable end to end.
//!
//! The export is deterministic: events are stably sorted per track by
//! timestamp, so identical runs produce byte-identical files.

use commsense_mesh::NO_RECORD;

use crate::json::{self, Arr, Obj};
use crate::metrics::Observation;
use crate::trace::TraceKind;

/// Schema version stamped into the trace's `otherData` (bumped whenever the
/// track or flow layout changes incompatibly).
///
/// v2: flows on the extracted critical path carry the `msg-critical`
/// category and a `critical: true` arg (see [`export_trace_critical`]).
pub const TRACE_SCHEMA_VERSION: u32 = 2;

const PID_NODES: u32 = 1;
const PID_LINKS: u32 = 2;
const PID_COUNTERS: u32 = 3;

/// One pending trace event plus its sort key.
struct Entry {
    pid: u32,
    tid: u32,
    ts_ps: u64,
    event: Event,
}

/// What an [`Entry`] draws, beyond the `ph`/`pid`/`tid`/`ts` every
/// event carries.
enum Event {
    /// A duration slice (`ph: X`).
    Slice { dur_ps: u64, name: String },
    /// The thread-scoped `done` instant (`ph: i`) ending a node's track.
    Done,
    /// A flow step: `ph` is `s` (start), `t` (step) or `f` (finish).
    Flow {
        ph: &'static str,
        id: u32,
        bind_end: bool,
        critical: bool,
    },
    /// A counter sample (`ph: C`).
    Counter { name: &'static str, value: f64 },
}

/// Picoseconds as trace microseconds; the writer's shortest round-trip
/// form keeps every picosecond and is deterministic.
fn ts_us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

impl Entry {
    fn new(pid: u32, tid: u32, ts_ps: u64, event: Event) -> Entry {
        Entry {
            pid,
            tid,
            ts_ps,
            event,
        }
    }

    fn slice(pid: u32, tid: u32, ts_ps: u64, dur_ps: u64, name: String) -> Entry {
        Entry::new(pid, tid, ts_ps, Event::Slice { dur_ps, name })
    }

    fn write(&self, o: &mut Obj<'_>) {
        let ph = match self.event {
            Event::Slice { .. } => "X",
            Event::Done => "i",
            Event::Flow { ph, .. } => ph,
            Event::Counter { .. } => "C",
        };
        o.field("ph", ph)
            .field("pid", self.pid)
            .field("tid", self.tid)
            .field("ts", ts_us(self.ts_ps));
        match &self.event {
            Event::Slice { dur_ps, name } => {
                o.field("dur", ts_us(*dur_ps)).field("name", name);
            }
            Event::Done => {
                o.field("s", "t").field("name", "done");
            }
            &Event::Flow {
                id,
                bind_end,
                critical,
                ..
            } => {
                // Critical-path flows get their own category (so they can
                // be toggled/colored separately in the Perfetto UI) and an
                // explicit arg for queries.
                let cat = if critical { "msg-critical" } else { "msg" };
                o.field("id", id).field("cat", cat).field("name", cat);
                if critical {
                    o.object("args", |a| {
                        a.field("critical", true);
                    });
                }
                if bind_end {
                    o.field("bp", "e");
                }
            }
            Event::Counter { name, value } => {
                o.field("name", name).object("args", |a| {
                    a.field("value", value);
                });
            }
        }
    }
}

/// A `ph: M` metadata event naming a process (`tid` absent) or thread.
fn metadata(events: &mut Arr<'_>, pid: u32, tid: Option<u32>, what: &str, name: &str) {
    events.object(|o| {
        o.field("ph", "M").field("pid", pid);
        if let Some(tid) = tid {
            o.field("tid", tid);
        }
        o.field("name", what).object("args", |a| {
            a.field("name", name);
        });
    });
}

/// Renders an [`Observation`] as a Chrome trace-event JSON document.
///
/// The returned string is a complete `.json` file ready for
/// <https://ui.perfetto.dev>. Byte-identical for identical observations.
///
/// # Examples
///
/// ```
/// use commsense_machine::perfetto::export_trace;
/// # use commsense_machine::{Machine, MachineConfig, MachineSpec, Mechanism, ObserveConfig};
/// # use commsense_machine::program::{HandlerCtx, NodeCtx, Program, Step};
/// # use commsense_cache::Heap;
/// # struct Idle;
/// # impl Program for Idle {
/// #     fn resume(&mut self, _ctx: &mut NodeCtx) -> Step { Step::Done }
/// #     fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
/// # }
/// let mut cfg = MachineConfig::tiny();
/// cfg.observe = Some(ObserveConfig::default());
/// let heap = Heap::new(cfg.nodes);
/// let programs: Vec<Box<dyn Program>> =
///     (0..cfg.nodes).map(|_| Box::new(Idle) as Box<dyn Program>).collect();
/// let mechanism = Mechanism::SharedMem;
/// let spec = MachineSpec { heap, initial: vec![], programs, mechanism };
/// let mut m = Machine::new(cfg, spec).unwrap();
/// m.run().unwrap();
/// let obs = m.take_observation().unwrap();
/// let json = export_trace(&obs);
/// assert!(json.starts_with("{\"traceEvents\":["));
/// ```
pub fn export_trace(obs: &Observation) -> String {
    export_trace_critical(obs, &[])
}

/// Like [`export_trace`], but flags message flows whose packet-record id
/// appears in `critical` (sorted ascending — pass
/// [`crate::critpath::CritPath::critical_records`]) with the
/// `msg-critical` category and a `critical: true` arg, making the
/// extracted critical path visually traceable in the Perfetto UI.
pub fn export_trace_critical(obs: &Observation, critical: &[u32]) -> String {
    let is_critical = |id: u32| critical.binary_search(&id).is_ok();
    let mut entries: Vec<Entry> = Vec::new();
    let cycle_ps = obs.clock.cycle_ps();

    // Flow arrows only make sense when both endpoints survived trace and
    // packet-table truncation: collect the ids seen on each side first.
    let mut sent = std::collections::HashSet::new();
    let mut received = std::collections::HashSet::new();
    for e in obs.trace.events() {
        match e.kind {
            TraceKind::Send { msg, .. } if msg != NO_RECORD => {
                sent.insert(msg);
            }
            TraceKind::Handler { msg, .. } if msg != NO_RECORD => {
                received.insert(msg);
            }
            _ => {}
        }
    }
    let paired = |id: u32| id != NO_RECORD && sent.contains(&id) && received.contains(&id);
    let flow = |ph, id, bind_end| Event::Flow {
        ph,
        id,
        bind_end,
        critical: is_critical(id),
    };

    // Node tracks: block intervals (open at a Block*/Barrier event, closed
    // by the next Resume), handler slices, send slices, done markers.
    let mut open_block: Vec<Option<(u64, &'static str)>> = vec![None; obs.nodes];
    for e in obs.trace.events() {
        let node = e.node as u32;
        let at = e.at.as_ps();
        match e.kind {
            TraceKind::BlockMem { .. }
            | TraceKind::BlockSend
            | TraceKind::BlockMsg
            | TraceKind::BarrierEnter => {
                open_block[e.node as usize] = Some((at, e.kind.label()));
            }
            TraceKind::Resume => {
                if let Some((start, label)) = open_block[e.node as usize].take() {
                    let dur = at.saturating_sub(start);
                    entries.push(Entry::slice(PID_NODES, node, start, dur, label.into()));
                }
            }
            TraceKind::Send { dst, bytes, msg } => {
                let name = format!("send->n{dst} {bytes}B");
                entries.push(Entry::slice(PID_NODES, node, at, cycle_ps, name));
                if paired(msg) {
                    entries.push(Entry::new(PID_NODES, node, at, flow("s", msg, false)));
                }
            }
            TraceKind::Handler {
                handler,
                cycles,
                msg,
            } => {
                let dur = cycles as u64 * cycle_ps;
                let name = format!("handler {handler}");
                entries.push(Entry::slice(PID_NODES, node, at, dur, name));
                if paired(msg) {
                    entries.push(Entry::new(PID_NODES, node, at, flow("f", msg, true)));
                }
            }
            TraceKind::Done => {
                entries.push(Entry::new(PID_NODES, node, at, Event::Done));
            }
        }
    }

    // Link tracks: one slice per recorded hop, flow steps for paired ids.
    for h in &obs.net.hops {
        let p = &obs.net.packets[h.packet as usize];
        let name = format!("{:?} {}B", p.class, p.bytes);
        let start = h.start.as_ps();
        let dur = h.end.as_ps().saturating_sub(start);
        entries.push(Entry::slice(PID_LINKS, h.link, start, dur, name));
        if paired(h.packet) {
            let step = flow("t", h.packet, false);
            entries.push(Entry::new(PID_LINKS, h.link, start, step));
        }
    }

    // Counter track: per-epoch series.
    let s = &obs.series;
    let counter = |name, value| Event::Counter { name, value };
    for i in 0..s.samples() {
        let at = s.at_ps[i];
        let depth = counter("event-queue depth", s.event_queue_depth[i] as f64);
        entries.push(Entry::new(PID_COUNTERS, 0, at, depth));
        let occupancy = counter("barrier occupancy", s.barrier_occupancy[i] as f64);
        entries.push(Entry::new(PID_COUNTERS, 1, at, occupancy));
        if s.links > 0 {
            let mean: f64 =
                (0..s.links).map(|l| s.link_utilization(i, l)).sum::<f64>() / s.links as f64;
            let mean = counter("mean link utilization", (mean * 1000.0).round() / 1000.0);
            entries.push(Entry::new(PID_COUNTERS, 2, at, mean));
        }
    }

    // Stable sort per track by timestamp: viewers require non-decreasing
    // `ts` within a track, and ties keep insertion order so the output is
    // deterministic.
    entries.sort_by_key(|e| (e.pid, e.tid, e.ts_ps));

    let mut out = String::with_capacity(64 * (entries.len() + 8));
    json::object(&mut out, |o| {
        o.array("traceEvents", |events| {
            metadata(events, PID_NODES, None, "process_name", "nodes");
            metadata(events, PID_LINKS, None, "process_name", "links");
            metadata(events, PID_COUNTERS, None, "process_name", "counters");
            for n in 0..obs.nodes {
                let name = format!("node {n}");
                metadata(events, PID_NODES, Some(n as u32), "thread_name", &name);
            }
            // Link tracks are keyed by dense link id (hop records carry
            // it); when the metric series is sampled, only the sampled
            // links get names, but ids still line up.
            for (label, &l) in obs.link_labels.iter().zip(&obs.series.link_ids) {
                let name = format!("link {label}");
                metadata(events, PID_LINKS, Some(l), "thread_name", &name);
            }
            for e in &entries {
                events.object(|o| e.write(o));
            }
        })
        .field("displayTimeUnit", "ns")
        .object("otherData", |o| {
            o.field("schema_version", TRACE_SCHEMA_VERSION)
                .field("trace_dropped_events", obs.trace.dropped())
                .field("net_dropped_packets", obs.net.dropped_packets);
        });
    });
    out
}
