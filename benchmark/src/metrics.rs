//! What one workload run measured, and how it becomes the end-to-end and
//! per-layer metrics the benchmark prints.
//!
//! Host time is wall time on this machine (`_s`, `ns`); simulated
//! quantities (`cache.*`, `msgpass.*`, `mesh.bytes_*`) are outputs of the
//! model and repeat exactly for a given seed.

use commsense_apps::RunResult;
use commsense_core::engine::RunOutcome;
use commsense_des::fnv1a_64;
use commsense_machine::{DispatchProfile, RunStats};
use commsense_service::protocol::JobStats;

use crate::trace::{self, Span};

/// One printed metric.
#[derive(Debug)]
pub struct Metric {
    /// Dotted name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        value: trace::finite(value) + 0.0,
        unit,
    }
}

/// The `q` quantile of `values` (linear interpolation between closest
/// ranks, as Python's `statistics.quantiles(..., method="inclusive")`);
/// 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Counts checked outcomes and output checks; anything failed makes the
/// run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    /// Outcomes and checks made.
    pub attempted: u64,
    /// Outcomes that failed or did not verify, plus checks that failed.
    pub failed: u64,
    /// What failed (the first few are printed).
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Counts one engine outcome: it must have finished and verified
    /// against the sequential reference.
    pub fn outcome(&mut self, o: &RunOutcome) {
        match o {
            RunOutcome::Done { result, .. } => self.verified(result),
            RunOutcome::Failed { message, .. } => self.check(false, || message.clone()),
        }
    }

    fn verified(&mut self, r: &RunResult) {
        self.check(r.verified, || {
            format!(
                "{} {} did not verify (err {})",
                r.app, r.mechanism, r.max_abs_err
            )
        });
    }
}

/// Digest of the simulated runtime cycles and event counts of a sequence of
/// results: equal digests mean the model did identical work.
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    /// Folds in one result (a failed one as a marker).
    pub fn add(&mut self, r: Option<&RunResult>) {
        match r {
            Some(r) => {
                self.0.extend(r.runtime_cycles.to_le_bytes());
                self.0.extend(r.stats.events.to_le_bytes());
            }
            None => self.0.extend([0xff; 16]),
        }
    }

    /// Folds in raw bytes (`served-warm` digests its CSV artifacts).
    pub fn add_bytes(&mut self, b: &[u8]) {
        self.0.extend(b);
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        fnv1a_64(&self.0)
    }
}

/// Simulated counters summed over a pass's results.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimCounters {
    read_misses: u64,
    write_misses: u64,
    invalidations: u64,
    limitless_traps: u64,
    cache_hits: u64,
    cache_misses: u64,
    messages_sent: u64,
    bytes_injected: u64,
    bisection_bytes: u64,
}

impl SimCounters {
    /// Adds one run's statistics.
    pub fn add(&mut self, s: &RunStats) {
        self.read_misses += s.proto.read_misses;
        self.write_misses += s.proto.write_misses;
        self.invalidations += s.proto.invalidations;
        self.limitless_traps += s.proto.limitless_traps;
        self.cache_hits += s.cache_hit_miss.0;
        self.cache_misses += s.cache_hit_miss.1;
        self.messages_sent += s.messages_sent;
        self.bytes_injected += s.volume.app_total();
        self.bisection_bytes += s.bisection.app_total();
    }
}

/// Everything one traced pass recorded.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Traced pass wall time, comparable with an untraced pass.
    pub wall: f64,
    /// The spans.
    pub spans: Vec<Span>,
    /// Simulations run in this process: (wall seconds, dispatch profile).
    pub sims: Vec<(f64, DispatchProfile)>,
    /// Simulated counters of every result the pass produced or replayed.
    pub counters: SimCounters,
    /// Store payload bytes read during the pass.
    pub bytes_read: u64,
    /// Store payload bytes written during the pass.
    pub bytes_written: u64,
    /// Completion statistics of served jobs.
    pub jobs: Vec<JobStats>,
}

/// Span names: one per layer boundary the benchmark crosses.
pub mod span {
    /// A whole traced pass.
    pub const PASS: &str = "pass";
    /// One figure's CSV: its requests and its render.
    pub const FIGURE: &str = "figure";
    /// `WorkloadCache::get` calls that prepared a workload.
    pub const PREPARE: &str = "apps.prepare";
    /// Executing one figure's requests on the benchmark's workers.
    pub const EXECUTE: &str = "core.engine.execute";
    /// One request, from store lookup to store write.
    pub const REQUEST: &str = "core.engine.request";
    /// `ResultStore::load`.
    pub const LOAD: &str = "core.store.load";
    /// `ResultStore::save`.
    pub const SAVE: &str = "core.store.save";
    /// `apps::run_prepared`.
    pub const RUN: &str = "apps.run_prepared";
    /// `report::*_csv`.
    pub const RENDER: &str = "core.report.render";
    /// A served job, from the client's connect to its `done` line.
    pub const JOB: &str = "service.job";
    /// Connect and submit until the `accepted` line.
    pub const ACCEPT: &str = "service.accept";
    /// `accepted` until the first progress line.
    pub const FIRST_POINT: &str = "service.first_point";
    /// First progress line until the `done` line.
    pub const STREAM: &str = "service.stream";
    /// `ServerMsg::parse` of the job's `done` line.
    pub const CODEC: &str = "service.codec";
}

/// Dispatch-profile event kinds, mapped to the layer that handles them:
/// (kind labels, events metric, self-time metric).
const KINDS: [(&[&str], &str, &str); 7] = [
    (&["wake"], "machine.wake.events", "machine.wake.self_s"),
    (&["net-try-hop"], "mesh.hop.events", "mesh.hop.self_s"),
    (
        &["net-link-free"],
        "mesh.link_free.events",
        "mesh.link_free.self_s",
    ),
    (
        &["net-deliver"],
        "mesh.deliver.events",
        "mesh.deliver.self_s",
    ),
    (&["proto"], "cache.proto.events", "cache.proto.self_s"),
    (
        &["fill-prefetch-rd", "fill-prefetch-ex"],
        "cache.prefetch_fill.events",
        "cache.prefetch_fill.self_s",
    ),
    (
        &["cross-tick"],
        "mesh.cross_tick.events",
        "mesh.cross_tick.self_s",
    ),
];

/// The end-to-end metrics of one workload run (host time, tracing off):
/// the median set-up, and [`pass_time`].
pub fn end_to_end(setup: &[f64], passes: &[Vec<f64>]) -> Vec<Metric> {
    vec![
        metric("setup_s", median(setup), "s"),
        metric("pass_s", pass_time(passes), "s"),
    ]
}

/// The time of one pass: the sum over its parts of each part's median over
/// the passes. Host noise comes in episodes shorter than a pass; one that
/// slows a few parts of one pass moves one sample of each of those parts
/// only, where it would move that pass's whole total.
pub fn pass_time(passes: &[Vec<f64>]) -> f64 {
    let parts = passes.first().map_or(0, Vec::len);
    (0..parts)
        .map(|k| median(&passes.iter().map(|p| p[k]).collect::<Vec<f64>>()))
        .sum()
}

/// The per-layer metrics of a traced pass, plus the median peak resident
/// set of the timed passes (`rss_mib`). `passes` are the untraced pass
/// totals, for the tracing overhead. A layer the workload does not cross
/// reads 0.
pub fn per_layer(t: &TracedPass, passes: &[f64], rss_mib: &[f64]) -> Vec<Metric> {
    let durations = |name: &str| -> Vec<f64> {
        t.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    };
    let total = |name: &str| durations(name).iter().sum::<f64>();

    let mut out = Vec::new();

    // Simulator, from the dispatch profiles of simulations this process ran.
    let run_s: f64 = t.sims.iter().map(|(wall, _)| wall).sum();
    let events: u64 = t
        .sims
        .iter()
        .flat_map(|(_, p)| &p.kinds)
        .map(|k| k.events)
        .sum();
    let batches: u64 = t.sims.iter().map(|(_, p)| p.batches).sum();
    let kind_self: f64 = t
        .sims
        .iter()
        .flat_map(|(_, p)| &p.kinds)
        .map(|k| k.self_secs)
        .sum();
    out.push(metric("machine.events", events as f64, "count"));
    out.push(metric("machine.run_s", run_s, "s"));
    out.push(metric(
        "machine.ns_per_event",
        run_s * 1e9 / events as f64,
        "ns",
    ));
    out.push(metric("des.batches", batches as f64, "count"));
    out.push(metric(
        "des.events_per_batch",
        events as f64 / batches as f64,
        "ratio",
    ));
    // Queue schedule/pop and loop bookkeeping: what dispatch targets do not
    // account for.
    out.push(metric("des.gap_s", run_s - kind_self, "s"));
    for (labels, events_name, self_name) in KINDS {
        let rows = || {
            t.sims
                .iter()
                .flat_map(|(_, p)| &p.kinds)
                .filter(|k| labels.contains(&k.kind))
        };
        let n: u64 = rows().map(|k| k.events).sum();
        let s: f64 = rows().map(|k| k.self_secs).sum();
        out.push(metric(events_name, n as f64, "count"));
        out.push(metric(self_name, s, "s"));
    }

    // Simulated counters: identical for any speed-only change.
    let c = &t.counters;
    out.push(metric("cache.read_misses", c.read_misses as f64, "count"));
    out.push(metric("cache.write_misses", c.write_misses as f64, "count"));
    out.push(metric(
        "cache.invalidations",
        c.invalidations as f64,
        "count",
    ));
    out.push(metric(
        "cache.limitless_traps",
        c.limitless_traps as f64,
        "count",
    ));
    out.push(metric(
        "cache.hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses) as f64,
        "ratio",
    ));
    out.push(metric(
        "msgpass.messages_sent",
        c.messages_sent as f64,
        "count",
    ));
    out.push(metric("mesh.bytes_injected", c.bytes_injected as f64, "B"));
    out.push(metric(
        "mesh.bisection_bytes",
        c.bisection_bytes as f64,
        "B",
    ));

    // Host-side layers, from the spans.
    out.push(metric("apps.prepare_s", total(span::PREPARE), "s"));
    let (busy, tail) = engine_busy_and_tail(&t.spans);
    out.push(metric("core.engine.busy_frac", busy, "ratio"));
    out.push(metric("core.engine.tail_s", tail, "s"));
    let points = durations(span::REQUEST);
    out.push(metric(
        "core.engine.point_s_p50",
        quantile(&points, 0.5),
        "s",
    ));
    out.push(metric(
        "core.engine.point_s_p95",
        quantile(&points, 0.95),
        "s",
    ));
    let saves = durations(span::SAVE);
    out.push(metric("core.store.save_s_p50", quantile(&saves, 0.5), "s"));
    out.push(metric("core.store.save_s_p95", quantile(&saves, 0.95), "s"));
    out.push(metric(
        "core.store.bytes_written",
        t.bytes_written as f64,
        "B",
    ));
    let loads = durations(span::LOAD);
    out.push(metric("core.store.load_s_p50", quantile(&loads, 0.5), "s"));
    out.push(metric("core.store.load_s_p95", quantile(&loads, 0.95), "s"));
    out.push(metric("core.store.bytes_read", t.bytes_read as f64, "B"));
    out.push(metric("core.report.render_s", total(span::RENDER), "s"));

    // Service, from the client side of served jobs.
    out.push(metric(
        "service.accept_s",
        median(&durations(span::ACCEPT)),
        "s",
    ));
    out.push(metric(
        "service.first_point_s",
        median(&durations(span::FIRST_POINT)),
        "s",
    ));
    out.push(metric(
        "service.stream_s",
        median(&durations(span::STREAM)),
        "s",
    ));
    out.push(metric(
        "service.codec_s",
        median(&durations(span::CODEC)),
        "s",
    ));
    let done_bytes: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| s.name == span::CODEC)
        .flat_map(|s| s.args.iter().filter(|(k, _)| k == "bytes").map(|(_, v)| *v))
        .collect();
    out.push(metric("service.done_bytes", median(&done_bytes), "B"));
    let sum = |f: fn(&JobStats) -> usize| t.jobs.iter().map(f).sum::<usize>() as f64;
    let job_points = sum(|j| j.total);
    out.push(metric("service.simulated", sum(|j| j.simulated), "count"));
    out.push(metric(
        "service.inflight_hits",
        sum(|j| j.inflight_hits),
        "count",
    ));
    out.push(metric("service.store_hits", sum(|j| j.store_hits), "count"));
    out.push(metric(
        "service.dedup_ratio",
        sum(|j| j.inflight_hits) / job_points,
        "ratio",
    ));

    // Allocator retention across threads moves this by 10-30% between
    // identical runs, so it is reported here rather than gated.
    out.push(metric("host.peak_rss_mb", median(rss_mib), "MiB"));
    out.push(metric(
        "trace.overhead_frac",
        t.wall / median(passes) - 1.0,
        "ratio",
    ));
    out.push(metric("trace.spans", t.spans.len() as f64, "count"));
    out
}

/// Worker utilisation and tail of the engine phases: busy is request time
/// over workers × execute time; the tail sums, per execute span, the time
/// from the first worker running dry to the phase's end.
fn engine_busy_and_tail(spans: &[Span]) -> (f64, f64) {
    let mut busy = 0.0;
    let mut capacity = 0.0;
    let mut tail = 0.0;
    for exec in spans.iter().filter(|s| s.name == span::EXECUTE) {
        let workers = exec
            .args
            .iter()
            .find(|(k, _)| k == "workers")
            .map_or(1.0, |(_, v)| *v);
        let mut last_end: Vec<(u32, u64)> = Vec::new();
        for r in spans
            .iter()
            .filter(|s| s.name == span::REQUEST && s.parent == Some(exec.id))
        {
            busy += r.secs();
            match last_end.iter_mut().find(|(tid, _)| *tid == r.tid) {
                Some((_, end)) => *end = (*end).max(r.end),
                None => last_end.push((r.tid, r.end)),
            }
        }
        capacity += workers * exec.secs();
        // A worker that took no request ran dry at the phase's start.
        let dry = if (last_end.len() as f64) < workers {
            exec.start
        } else {
            last_end.iter().map(|(_, e)| *e).min().unwrap_or(exec.start)
        };
        tail += exec.end.saturating_sub(dry) as f64 / 1e9;
    }
    (busy / capacity, tail)
}

/// Names of every per-layer metric, in print order.
#[cfg(test)]
pub fn per_layer_names() -> Vec<&'static str> {
    per_layer(&TracedPass::default(), &[], &[])
        .into_iter()
        .map(|m| m.name)
        .collect()
}

/// Resets the process's peak resident set size (Linux `clear_refs` = 5).
pub fn reset_peak_rss() {
    // Best effort: without it the peak covers the process's lifetime.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set size since the last reset, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn pass_time_sums_the_median_of_each_part() {
        let passes = [vec![1.0, 10.0], vec![2.0, 30.0], vec![9.0, 20.0]];
        assert_eq!(pass_time(&passes), 2.0 + 20.0);
        assert_eq!(pass_time(&[]), 0.0);
    }

    #[test]
    fn empty_traced_pass_reads_zero_not_nan() {
        for m in per_layer(&TracedPass::default(), &[], &[]) {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
        }
    }

    #[test]
    fn peak_rss_is_measured() {
        reset_peak_rss();
        assert!(peak_rss_mib() > 0.0);
    }
}
