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

/// One pending trace-event JSON object plus its sort key.
struct Entry {
    pid: u32,
    tid: u32,
    ts_ps: u64,
    body: String,
}

/// `s` as a JSON string literal, quotes included.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::error::push_escaped(&mut out, s);
    out
}

fn ts_us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Formats a microsecond timestamp with fixed precision so output is
/// deterministic and sub-nanosecond resolution survives.
fn fmt_us(v: f64) -> String {
    let s = format!("{v:.6}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

impl Entry {
    fn slice(pid: u32, tid: u32, ts_ps: u64, dur_ps: u64, name: &str, extra: &str) -> Entry {
        Entry {
            pid,
            tid,
            ts_ps,
            body: format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":{}{extra}}}",
                fmt_us(ts_us(ts_ps)),
                fmt_us(ts_us(dur_ps)),
                esc(name),
            ),
        }
    }

    fn instant(pid: u32, tid: u32, ts_ps: u64, name: &str) -> Entry {
        Entry {
            pid,
            tid,
            ts_ps,
            body: format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\"name\":{}}}",
                fmt_us(ts_us(ts_ps)),
                esc(name),
            ),
        }
    }

    fn flow(
        pid: u32,
        tid: u32,
        ts_ps: u64,
        ph: char,
        id: u32,
        bind_end: bool,
        critical: bool,
    ) -> Entry {
        let bp = if bind_end { ",\"bp\":\"e\"" } else { "" };
        // Critical-path flows get their own category (so they can be
        // toggled/colored separately in the Perfetto UI) and an explicit
        // arg for queries.
        let (cat, args) = if critical {
            ("msg-critical", ",\"args\":{\"critical\":true}")
        } else {
            ("msg", "")
        };
        Entry {
            pid,
            tid,
            ts_ps,
            body: format!(
                "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"id\":{id},\
                 \"cat\":\"{cat}\",\"name\":\"{cat}\"{args}{bp}}}",
                fmt_us(ts_us(ts_ps)),
            ),
        }
    }

    fn counter(pid: u32, tid: u32, ts_ps: u64, name: &str, value: f64) -> Entry {
        Entry {
            pid,
            tid,
            ts_ps,
            body: format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":{},\
                 \"args\":{{\"value\":{}}}}}",
                fmt_us(ts_us(ts_ps)),
                esc(name),
                value,
            ),
        }
    }
}

fn metadata(out: &mut Vec<String>, pid: u32, tid: Option<u32>, what: &str, name: &str) {
    let tid_field = tid.map_or(String::new(), |t| format!(",\"tid\":{t}"));
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":{pid}{tid_field},\"name\":\"{what}\",\
         \"args\":{{\"name\":{}}}}}",
        esc(name)
    ));
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
/// # use commsense_machine::{Machine, MachineConfig, MachineSpec, ObserveConfig};
/// # use commsense_machine::program::{HandlerCtx, NodeCtx, Program, Step};
/// # use commsense_cache::Heap;
/// # struct Idle;
/// # impl Program for Idle {
/// #     fn resume(&mut self, _ctx: &mut NodeCtx) -> Step { Step::Done }
/// #     fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], _c: &mut HandlerCtx) {}
/// #     fn as_any(&self) -> &dyn std::any::Any { self }
/// # }
/// let mut cfg = MachineConfig::tiny();
/// cfg.observe = Some(ObserveConfig::default());
/// let heap = Heap::new(cfg.nodes);
/// let programs: Vec<Box<dyn Program>> =
///     (0..cfg.nodes).map(|_| Box::new(Idle) as Box<dyn Program>).collect();
/// let mut m = Machine::new(cfg, MachineSpec { heap, initial: vec![], programs });
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
                    entries.push(Entry::slice(PID_NODES, node, start, dur, label, ""));
                }
            }
            TraceKind::Send { dst, bytes, msg } => {
                let name = format!("send->n{dst} {bytes}B");
                entries.push(Entry::slice(PID_NODES, node, at, cycle_ps, &name, ""));
                if paired(msg) {
                    entries.push(Entry::flow(
                        PID_NODES,
                        node,
                        at,
                        's',
                        msg,
                        false,
                        is_critical(msg),
                    ));
                }
            }
            TraceKind::Handler {
                handler,
                cycles,
                msg,
            } => {
                let dur = cycles as u64 * cycle_ps;
                let name = format!("handler {handler}");
                entries.push(Entry::slice(PID_NODES, node, at, dur, &name, ""));
                if paired(msg) {
                    entries.push(Entry::flow(
                        PID_NODES,
                        node,
                        at,
                        'f',
                        msg,
                        true,
                        is_critical(msg),
                    ));
                }
            }
            TraceKind::Done => {
                entries.push(Entry::instant(PID_NODES, node, at, "done"));
            }
        }
    }

    // Link tracks: one slice per recorded hop, flow steps for paired ids.
    for h in &obs.net.hops {
        let p = &obs.net.packets[h.packet as usize];
        let name = format!("{:?} {}B", p.class, p.bytes);
        let start = h.start.as_ps();
        let dur = h.end.as_ps().saturating_sub(start);
        entries.push(Entry::slice(PID_LINKS, h.link, start, dur, &name, ""));
        if paired(h.packet) {
            entries.push(Entry::flow(
                PID_LINKS,
                h.link,
                start,
                't',
                h.packet,
                false,
                is_critical(h.packet),
            ));
        }
    }

    // Counter track: per-epoch series.
    let s = &obs.series;
    for i in 0..s.samples() {
        let at = s.at_ps[i];
        entries.push(Entry::counter(
            PID_COUNTERS,
            0,
            at,
            "event-queue depth",
            s.event_queue_depth[i] as f64,
        ));
        entries.push(Entry::counter(
            PID_COUNTERS,
            1,
            at,
            "barrier occupancy",
            s.barrier_occupancy[i] as f64,
        ));
        if s.links > 0 {
            let mean: f64 =
                (0..s.links).map(|l| s.link_utilization(i, l)).sum::<f64>() / s.links as f64;
            entries.push(Entry::counter(
                PID_COUNTERS,
                2,
                at,
                "mean link utilization",
                (mean * 1000.0).round() / 1000.0,
            ));
        }
    }

    // Stable sort per track by timestamp: viewers require non-decreasing
    // `ts` within a track, and ties keep insertion order so the output is
    // deterministic.
    entries.sort_by(|a, b| {
        (a.pid, a.tid, a.ts_ps)
            .partial_cmp(&(b.pid, b.tid, b.ts_ps))
            .unwrap()
    });

    let mut events: Vec<String> = Vec::with_capacity(entries.len() + 8);
    metadata(&mut events, PID_NODES, None, "process_name", "nodes");
    metadata(&mut events, PID_LINKS, None, "process_name", "links");
    metadata(&mut events, PID_COUNTERS, None, "process_name", "counters");
    for n in 0..obs.nodes {
        metadata(
            &mut events,
            PID_NODES,
            Some(n as u32),
            "thread_name",
            &format!("node {n}"),
        );
    }
    // Link tracks are keyed by dense link id (hop records carry it); when
    // the metric series is sampled, only the sampled links get names, but
    // ids still line up.
    for (label, &l) in obs.link_labels.iter().zip(&obs.series.link_ids) {
        metadata(
            &mut events,
            PID_LINKS,
            Some(l),
            "thread_name",
            &format!("link {label}"),
        );
    }
    events.extend(entries.into_iter().map(|e| e.body));

    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\",\"otherData\":{{\
         \"schema_version\":{TRACE_SCHEMA_VERSION},\
         \"trace_dropped_events\":{},\
         \"net_dropped_packets\":{}}}}}",
        events.join(","),
        obs.trace.dropped(),
        obs.net.dropped_packets,
    )
}
