//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, written out as Chrome-trace JSON that Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` open.
//!
//! Spans are recorded from the benchmark's own code, never from inside the
//! program, so the trace shows where a pass's wall time went between the
//! public calls it made.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use commsense_core::json::push_escaped;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within its tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary name (e.g. `core.store.load`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// The request or job the span belongs to; spans of one request share it.
    pub req: Option<u64>,
    /// Small per-thread number, stable for the life of the process.
    pub tid: u32,
    /// Numeric annotations (dispatch-profile rows, byte counts).
    pub args: Vec<(String, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn thread_number() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, for a span whose children are recorded before it
    /// closes.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a closed span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
        args: Vec<(String, f64)>,
    ) {
        let span = Span {
            id,
            parent,
            name,
            start: self.nanos(start),
            end: self.nanos(end),
            req,
            tid: thread_number(),
            args,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a new span; `f` receives the span's id so it can
    /// parent further spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.reserve();
        let start = Instant::now();
        let r = f(id);
        self.record(id, name, parent, req, start, Instant::now(), Vec::new());
        r
    }

    /// Every span recorded, in recording order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list poisoned")
    }
}

/// Self time of every span, in nanoseconds and parallel to `spans`: the
/// span's duration minus the part of it that its children cover. Children
/// on different threads may overlap each other, so their union is taken.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Formats nanoseconds as the microseconds Chrome traces use, exactly.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// The spans as a Chrome-trace document (complete `X` events, one process,
/// one track per benchmark thread). Each event's `args` carry the span id,
/// its parent, its request, its self time and the span's own annotations.
pub fn chrome_json(spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\":");
        push_escaped(&mut out, s.name);
        out.push_str(&format!(
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{}",
            s.tid,
            micros(s.start),
            micros(s.end - s.start),
            s.id
        ));
        if let Some(p) = s.parent {
            out.push_str(&format!(",\"parent\":{p}"));
        }
        if let Some(r) = s.req {
            out.push_str(&format!(",\"req\":{r}"));
        }
        out.push_str(&format!(",\"self_us\":{}", micros(*own)));
        for (k, v) in &s.args {
            out.push(',');
            push_escaped(&mut out, k);
            out.push_str(&format!(":{}", finite(*v)));
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// `v`, or 0 when it is not a finite number (JSON has no NaN or infinity).
pub fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start, end| Span {
            id,
            parent,
            name: "x",
            start,
            end,
            req: None,
            tid: 1,
            args: Vec::new(),
        };
        // Two overlapping children cover 10..40 of the parent's 0..100.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            span(4, Some(2), 10, 15),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 20, 5]);
    }

    #[test]
    fn spans_nest_and_serialize() {
        let t = Tracer::new();
        t.span("outer", None, Some(7), |outer| {
            std::thread::sleep(Duration::from_millis(1));
            t.span("inner", Some(outer), Some(7), |_| {});
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let json = chrome_json(&spans);
        let doc = commsense_core::json::Json::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
    }
}
