//! The workloads: their frozen inputs, their set-up, a timed pass, a traced
//! pass, and the checks on their outputs.
//!
//! | workload | one pass | its parts |
//! |---|---|---|
//! | `figures-cold` | the 292 requests `repro all` issues, on 2 workers into a fresh store, every CSV rendered | the 17 figures |
//! | `figures-warm` | the same requests replayed from a warm store (fresh workload cache), every CSV rendered | the 17 figures |
//! | `served-warm` | one resubmit of a Figure 8 job to a daemon that already ran it | the resubmit |

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use commsense_apps::{run_prepared, suite, AppSpec, PreparedWorkload, RunResult, Scale};
use commsense_core::engine::{ExperimentPlan, RunOutcome, RunRequest, Runner, WorkloadCache};
use commsense_core::experiment::{
    base_comparison_requests, bisection_plan, clock_plan, ctx_switch_plan, msg_len_plan,
};
use commsense_core::report;
use commsense_core::store::ResultStore;
use commsense_des::Rng;
use commsense_machine::{DispatchProfile, MachineConfig, Mechanism};
use commsense_service::client::{self, SubmitOutcome};
use commsense_service::plan::resolve;
use commsense_service::protocol::{Figure, PlanSpec, ServerMsg};
use commsense_service::shell::{ServeConfig, Server};

use crate::metrics::{
    median, peak_rss_mib, reset_peak_rss, span, Digest, SimCounters, Tally, TracedPass,
};
use crate::trace::Tracer;

/// Worker threads, and client connections of the daemon's first round. Pinned
/// so that numbers compare across commits; hosts with fewer cores
/// time-slice them.
pub const WORKERS: usize = 2;

/// A timed run makes at least this many passes, however long they take.
const MIN_PASSES: usize = 3;

/// Fresh preparations (`setup_s`) take this share of a timed run, in blocks
/// of at least [`SETUP_BLOCK_SECONDS`] between passes, so that their median
/// spans the whole run rather than its first moments. One preparation takes
/// milliseconds, and the host's speed changes over seconds.
const SETUP_SHARE: f64 = 0.1;
const SETUP_BLOCK_SECONDS: f64 = 0.25;

/// Traced resubmits of `served-warm` (quick mode: 5).
const TRACED_RESUBMITS: usize = 20;

// The axes `repro all` sweeps, frozen here so that a later change to
// `repro` cannot silently change the workload.
const FIG7_LENS: [u32; 6] = [16, 32, 64, 128, 256, 512];
const FIG7_CONSUMED: f64 = 10.0;
const FIG8_CONSUMED: [f64; 6] = [0.0, 4.0, 8.0, 12.0, 14.0, 16.0];
const FIG8_MSG_BYTES: u32 = 64;
const FIG9_MHZ: [f64; 4] = [20.0, 18.0, 16.0, 14.0];
const FIG10_LATENCIES: [u64; 6] = [30, 50, 100, 200, 400, 800];

/// Client-chosen ids of the two served jobs.
const JOB_IDS: [&str; 2] = ["job-a", "job-b"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro all` into an empty store.
    FiguresCold,
    /// `repro all` replayed from a full store.
    FiguresWarm,
    /// Resubmits of a served job the daemon already ran.
    ServedWarm,
}

impl Workload {
    /// Every workload, in the order a full run takes them.
    pub const ALL: [Workload; 3] = [
        Workload::FiguresCold,
        Workload::FiguresWarm,
        Workload::ServedWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresCold => "figures-cold",
            Workload::FiguresWarm => "figures-warm",
            Workload::ServedWarm => "served-warm",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings shared by the workloads of a run.
#[derive(Debug)]
pub struct Ctx {
    /// XORed into every application seed.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Small scale, a fixed handful of passes (the self-test).
    pub quick: bool,
    /// Run a traced pass after the timed ones.
    pub trace: bool,
    /// Scratch directory for result stores; the caller removes it.
    pub work: PathBuf,
}

/// What the timed passes of a run measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Seconds of each fresh preparation of the workload's inputs.
    pub setup: Vec<f64>,
    /// Seconds of each part of each timed pass; every pass has the same
    /// parts, in the same order.
    pub passes: Vec<Vec<f64>>,
    /// Peak resident set of each timed pass, in MiB.
    pub rss_mib: Vec<f64>,
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Measured {
    /// The timed passes and the set-up sampled between them.
    pub timed: Timed,
    /// Digest of the simulated output (see [`Digest`]).
    pub digest: u64,
    /// Outcomes and output checks.
    pub tally: Tally,
    /// The traced pass, when tracing was on.
    pub traced: Option<TracedPass>,
}

/// Seconds of one fresh preparation of `specs`, as every `repro`
/// invocation and every fresh daemon pays it.
fn prepare_once(specs: &[AppSpec], nodes: usize) -> f64 {
    let started = Instant::now();
    let mut cache = WorkloadCache::new();
    for s in specs {
        std::hint::black_box(cache.get(s, nodes));
    }
    started.elapsed().as_secs_f64()
}

impl Ctx {
    fn scale(&self) -> Scale {
        if self.quick {
            Scale::Small
        } else {
            Scale::Bench
        }
    }

    /// The application suite at `scale` with the run's seed XORed into
    /// every workload generator seed (seed 0 is the suite itself).
    fn seeded_suite(&self, scale: Scale) -> Vec<AppSpec> {
        let mut specs = suite(scale);
        for s in &mut specs {
            match s {
                AppSpec::Em3d(p) => p.seed ^= self.seed,
                AppSpec::Unstruc(p) => p.seed ^= self.seed,
                AppSpec::Iccg(p) => p.seed ^= self.seed,
                AppSpec::Moldyn(p) => p.seed ^= self.seed,
            }
        }
        specs
    }

    /// Runs `pass` for about `seconds` and at least [`MIN_PASSES`] times
    /// (quick mode: exactly `quick_passes`), with blocks of `setup` between
    /// passes that take [`SETUP_SHARE`] of the run (quick mode: one).
    /// `pass` returns the seconds of each of its parts, so set-up and
    /// checks around the measured regions stay out of them; `setup` returns
    /// the seconds of one preparation. No pass starts that would, at the
    /// run's pace so far, end after `seconds`.
    fn timed(
        &self,
        quick_passes: usize,
        mut setup: impl FnMut() -> f64,
        mut pass: impl FnMut() -> Vec<f64>,
    ) -> Timed {
        let started = Instant::now();
        let mut t = Timed::default();
        let mut setup_wall = 0.0;
        loop {
            let elapsed = started.elapsed().as_secs_f64();
            let n = t.passes.len();
            if self.quick {
                if t.setup.is_empty() {
                    t.setup.push(setup());
                }
                if n >= quick_passes {
                    return t;
                }
            } else if t.setup.is_empty() || setup_wall < SETUP_SHARE * elapsed {
                let block = Instant::now();
                while block.elapsed().as_secs_f64() < SETUP_BLOCK_SECONDS {
                    t.setup.push(setup());
                }
                setup_wall += block.elapsed().as_secs_f64();
                continue;
            } else if n >= MIN_PASSES && elapsed * (n + 1) as f64 / n as f64 > self.seconds {
                return t;
            }
            reset_peak_rss();
            t.passes.push(pass());
            t.rss_mib.push(peak_rss_mib());
        }
    }

    fn store(&self, name: &str) -> Arc<ResultStore> {
        Arc::new(ResultStore::open(self.work.join(name)).expect("create a result store in --out"))
    }
}

/// Runs one workload: set-up, timed passes, then the traced pass.
pub fn run(w: Workload, ctx: &Ctx) -> Measured {
    match w {
        Workload::FiguresCold => figures(ctx, false),
        Workload::FiguresWarm => figures(ctx, true),
        Workload::ServedWarm => served_warm(ctx),
    }
}

fn remove_dir(dir: &Path) {
    // Best effort: the caller removes the whole work directory at the end.
    let _ = std::fs::remove_dir_all(dir);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `apps::run_prepared`, with a panic reported as an error.
fn run_caught(
    w: &PreparedWorkload,
    req: &RunRequest,
    cfg: &MachineConfig,
) -> Result<RunResult, String> {
    catch_unwind(AssertUnwindSafe(|| run_prepared(w, req.mechanism, cfg)))
        .map_err(|p| panic_message(p.as_ref()))
}

// ---------------------------------------------------------------------------
// figures-cold / figures-warm

/// One CSV `repro all --csv` writes, with the plan it is rendered from.
#[derive(Debug)]
pub struct FigureCsv {
    /// File stem (`fig8_em3d`).
    pub name: String,
    app: &'static str,
    plan: ExperimentPlan,
    /// The sweep's x-axis label; `None` for a Figure 4 breakdown.
    x_label: Option<&'static str>,
}

impl FigureCsv {
    /// The requests the CSV needs, in plan order.
    pub fn requests(&self) -> &[RunRequest] {
        self.plan.requests()
    }

    fn render(&self, outcomes: &[RunOutcome], cfg: &MachineConfig) -> String {
        match self.x_label {
            None => {
                let results: Vec<RunResult> = outcomes
                    .iter()
                    .filter_map(|o| o.result().cloned())
                    .collect();
                report::breakdown_csv(self.app, &results, cfg)
            }
            Some(x) => report::sweep_csv(x, &self.plan.assemble_outcomes(outcomes).sweeps),
        }
    }
}

/// The CSVs `repro all --csv` writes (Figures 4/5, 7, 8, 9, 10), in its
/// order. `specs` starts with EM3D, the subject of Figure 7.
pub fn figure_csvs(specs: &[AppSpec], cfg: &MachineConfig) -> Vec<FigureCsv> {
    let csv = |prefix: &str, s: &AppSpec, plan, x_label| FigureCsv {
        name: format!("{prefix}_{}", s.name().to_lowercase()),
        app: s.name(),
        plan,
        x_label,
    };
    let mut out = Vec::new();
    for s in specs {
        let mut plan = ExperimentPlan::new(s.name());
        for r in base_comparison_requests(s, cfg) {
            plan.add_request(r);
        }
        out.push(csv("fig4", s, plan, None));
    }
    let em3d = &specs[0];
    let sm_mp = [Mechanism::SharedMem, Mechanism::MsgPoll];
    out.push(FigureCsv {
        name: "fig7".to_string(),
        app: em3d.name(),
        plan: msg_len_plan(em3d, &sm_mp, cfg, FIG7_CONSUMED, &FIG7_LENS),
        x_label: Some("msg_bytes"),
    });
    for s in specs {
        let plan = bisection_plan(s, &Mechanism::ALL, cfg, &FIG8_CONSUMED, FIG8_MSG_BYTES);
        out.push(csv("fig8", s, plan, Some("bytes_per_cycle")));
    }
    for s in specs {
        let plan = clock_plan(s, &Mechanism::ALL, cfg, &FIG9_MHZ);
        out.push(csv("fig9", s, plan, Some("latency_cycles")));
    }
    for s in specs {
        let plan = ctx_switch_plan(s, &Mechanism::ALL, cfg, &FIG10_LATENCIES);
        out.push(csv("fig10", s, plan, Some("miss_cycles")));
    }
    out
}

/// What a figures pass produced.
#[derive(Debug, Default)]
struct PassOut {
    csvs: Vec<String>,
    digest: u64,
    simulated: usize,
    /// Seconds of each figure: its requests and its CSV.
    figure_s: Vec<f64>,
}

fn fold_outcomes(
    outcomes: &[RunOutcome],
    tally: &mut Tally,
    digest: &mut Digest,
    out: &mut PassOut,
) {
    for o in outcomes {
        tally.outcome(o);
        digest.add(o.result());
        if !o.is_cached() {
            out.simulated += 1;
        }
    }
}

/// One untraced figures pass, as `repro all --csv` runs it: each figure's
/// requests on `runner` with one workload cache for the whole pass, then
/// its CSV.
fn figures_pass(
    csvs: &[FigureCsv],
    runner: &Runner,
    cfg: &MachineConfig,
    tally: &mut Tally,
) -> PassOut {
    let mut cache = WorkloadCache::new();
    let mut out = PassOut::default();
    let mut digest = Digest::default();
    for f in csvs {
        let started = Instant::now();
        let outcomes = runner.run_outcomes(f.requests(), &mut cache);
        let csv = f.render(&outcomes, cfg);
        out.figure_s.push(started.elapsed().as_secs_f64());
        fold_outcomes(&outcomes, tally, &mut digest, &mut out);
        out.csvs.push(csv);
    }
    out.digest = digest.finish();
    out
}

/// Checks a figures pass against the reference (the first pass; for
/// `figures-warm` the cold pass that filled the store), which it becomes
/// if there is none yet.
fn check_figures_pass(
    tally: &mut Tally,
    reference: &mut Option<PassOut>,
    out: PassOut,
    warm: bool,
) {
    if warm {
        tally.check(out.simulated == 0, || {
            format!("a warm pass simulated {} requests", out.simulated)
        });
    }
    match reference {
        None => *reference = Some(out),
        Some(r) => {
            tally.check(out.digest == r.digest, || {
                "simulated cycles or events differ between passes".to_string()
            });
            tally.check(out.csvs == r.csvs, || {
                "CSVs differ from the reference pass".to_string()
            });
        }
    }
}

fn figures(ctx: &Ctx, warm: bool) -> Measured {
    let cfg = MachineConfig::alewife();
    let specs = ctx.seeded_suite(ctx.scale());
    let csvs = figure_csvs(&specs, &cfg);
    let mut tally = Tally::default();
    let runner = |store| Runner::new(WORKERS).with_store(store);
    let warm_store = warm.then(|| ctx.store("warm"));
    let mut reference = warm_store
        .as_ref()
        .map(|s| figures_pass(&csvs, &runner(s.clone()), &cfg, &mut tally));
    let mut n = 0;
    let setup = || prepare_once(&specs, cfg.nodes);
    let timed = ctx.timed(if warm { 5 } else { 1 }, setup, || {
        let store = match &warm_store {
            Some(s) => s.clone(),
            None => ctx.store(&format!("cold-{n}")),
        };
        let mut out = figures_pass(&csvs, &runner(store), &cfg, &mut tally);
        let figure_s = std::mem::take(&mut out.figure_s);
        check_figures_pass(&mut tally, &mut reference, out, warm);
        if !warm {
            remove_dir(&ctx.work.join(format!("cold-{n}")));
        }
        n += 1;
        figure_s
    });
    let traced = ctx.trace.then(|| {
        let store = warm_store
            .clone()
            .unwrap_or_else(|| ctx.store("cold-traced"));
        let (out, traced) = figures_traced(&csvs, &store, &cfg, &mut tally);
        check_figures_pass(&mut tally, &mut reference, out, warm);
        traced
    });
    Measured {
        timed,
        digest: reference.map_or(0, |r| r.digest),
        tally,
        traced,
    }
}

/// A traced request's result.
struct TracedRequest {
    outcome: RunOutcome,
    profile: Option<(f64, DispatchProfile)>,
    saved: bool,
}

/// `cache.get`, with a span when it prepared a workload.
fn traced_prepare(
    tracer: &Tracer,
    parent: u64,
    cache: &mut WorkloadCache,
    r: &RunRequest,
) -> PreparedWorkload {
    let before = cache.len();
    let started = Instant::now();
    let w = cache.get(&r.spec, r.cfg.nodes);
    if cache.len() > before {
        let id = tracer.reserve();
        tracer.record(
            id,
            span::PREPARE,
            Some(parent),
            None,
            started,
            Instant::now(),
            Vec::new(),
        );
    }
    w
}

/// `apps::run_prepared` with the dispatch profiler on (it is excluded from
/// store keys); the profile rides on the span.
fn traced_run(
    tracer: &Tracer,
    parent: u64,
    rid: u64,
    w: &PreparedWorkload,
    req: &RunRequest,
) -> Result<(RunResult, (f64, DispatchProfile)), String> {
    let mut cfg = req.cfg.clone();
    cfg.profile_dispatch = true;
    let id = tracer.reserve();
    let started = Instant::now();
    let run = run_caught(w, req, &cfg);
    let ended = Instant::now();
    let mut args = Vec::new();
    let run = run.map(|mut result| {
        let profile = result.profile.take().unwrap_or_default();
        args.push(("batches".to_string(), profile.batches as f64));
        for k in &profile.kinds {
            args.push((format!("{}.events", k.kind), k.events as f64));
            args.push((format!("{}.self_s", k.kind), k.self_secs));
        }
        let wall = result.wall.as_secs_f64();
        (result, (wall, profile))
    });
    tracer.record(id, span::RUN, Some(parent), Some(rid), started, ended, args);
    run
}

/// One request as the engine executes it (store read-through, simulation,
/// write-through), with a span around each layer call.
fn traced_request(
    tracer: &Tracer,
    parent: u64,
    rid: u64,
    store: &ResultStore,
    req: &RunRequest,
    w: &PreparedWorkload,
) -> TracedRequest {
    tracer.span(span::REQUEST, Some(parent), Some(rid), |rq| {
        if let Some(result) = tracer.span(span::LOAD, Some(rq), Some(rid), |_| store.load(req)) {
            return TracedRequest {
                outcome: RunOutcome::Done {
                    result,
                    cached: true,
                },
                profile: None,
                saved: true,
            };
        }
        match traced_run(tracer, rq, rid, w, req) {
            Ok((result, profile)) => {
                let saved = tracer
                    .span(span::SAVE, Some(rq), Some(rid), |_| {
                        store.save(req, &result)
                    })
                    .is_ok();
                TracedRequest {
                    outcome: RunOutcome::Done {
                        result,
                        cached: false,
                    },
                    profile: Some(profile),
                    saved,
                }
            }
            Err(message) => TracedRequest {
                outcome: RunOutcome::Failed {
                    attempts: 1,
                    message,
                },
                profile: None,
                saved: true,
            },
        }
    })
}

/// A figures pass driven through the public pieces on [`WORKERS`] benchmark
/// threads (`store.load` -> `apps::run_prepared` -> `store.save`), with
/// spans at each layer boundary.
fn figures_traced(
    csvs: &[FigureCsv],
    store: &ResultStore,
    cfg: &MachineConfig,
    tally: &mut Tally,
) -> (PassOut, TracedPass) {
    let tracer = Tracer::new();
    let before = store.stats();
    let root = tracer.reserve();
    let started = Instant::now();
    let mut cache = WorkloadCache::new();
    let mut out = PassOut::default();
    let mut digest = Digest::default();
    let mut traced = TracedPass::default();
    let mut next_rid = 0u64;
    for f in csvs {
        tracer.span(span::FIGURE, Some(root), None, |fig| {
            let reqs = f.requests();
            let prepared: Vec<PreparedWorkload> = reqs
                .iter()
                .map(|r| traced_prepare(&tracer, fig, &mut cache, r))
                .collect();
            let first = next_rid;
            next_rid += reqs.len() as u64;
            let slots: Vec<Mutex<Option<TracedRequest>>> =
                reqs.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let exec = tracer.reserve();
            let exec_started = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..WORKERS {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() {
                            break;
                        }
                        let r = traced_request(
                            &tracer,
                            exec,
                            first + i as u64,
                            store,
                            &reqs[i],
                            &prepared[i],
                        );
                        *slots[i].lock().expect("request slot poisoned") = Some(r);
                    });
                }
            });
            let workers = vec![("workers".to_string(), WORKERS as f64)];
            tracer.record(
                exec,
                span::EXECUTE,
                Some(fig),
                None,
                exec_started,
                Instant::now(),
                workers,
            );
            let mut outcomes = Vec::with_capacity(reqs.len());
            for slot in slots {
                let r = slot
                    .into_inner()
                    .expect("request slot poisoned")
                    .expect("every request ran");
                tally.check(r.saved, || "a store write failed".to_string());
                traced.sims.extend(r.profile);
                if let Some(result) = r.outcome.result() {
                    traced.counters.add(&result.stats);
                }
                outcomes.push(r.outcome);
            }
            fold_outcomes(&outcomes, tally, &mut digest, &mut out);
            out.csvs
                .push(tracer.span(span::RENDER, Some(fig), None, |_| f.render(&outcomes, cfg)));
        });
    }
    let ended = Instant::now();
    tracer.record(root, span::PASS, None, None, started, ended, Vec::new());
    out.digest = digest.finish();
    let after = store.stats();
    traced.wall = (ended - started).as_secs_f64();
    traced.spans = tracer.into_spans();
    traced.bytes_read = after.bytes_read - before.bytes_read;
    traced.bytes_written = after.bytes_written - before.bytes_written;
    (out, traced)
}

// ---------------------------------------------------------------------------
// served-warm

/// The two served jobs: Figure 8 for EM3D plus one other application each,
/// so the 30 EM3D points are shared. The wire protocol names suite
/// workloads and carries no workload seed, so here the seed only decides
/// which client submits which application.
fn served_plans(scale: Scale, seed: u64) -> [PlanSpec; 2] {
    let mut others = ["ICCG", "UNSTRUC"];
    if seed % 2 == 1 {
        others.swap(0, 1);
    }
    others.map(|other| PlanSpec {
        figure: Figure::Fig8,
        scale,
        apps: vec!["EM3D".to_string(), other.to_string()],
        mechanisms: Vec::new(),
    })
}

/// The served jobs' CSVs as a direct `repro fig8 --csv` renders them:
/// simulated here, without the store or the service.
fn direct_fig8(specs: &[AppSpec], tally: &mut Tally) -> Vec<(String, String)> {
    let cfg = MachineConfig::alewife();
    let runner = Runner::new(WORKERS);
    let mut cache = WorkloadCache::new();
    figure_csvs(specs, &cfg)
        .into_iter()
        .filter(|f| f.name.starts_with("fig8_"))
        .map(|f| {
            let outcomes = runner.run_outcomes(f.requests(), &mut cache);
            for o in &outcomes {
                tally.outcome(o);
            }
            (format!("{}.csv", f.name), f.render(&outcomes, &cfg))
        })
        .collect()
}

/// Whether `got` holds exactly `count` CSVs, each byte-identical to the
/// expected CSV of the same name.
pub fn csvs_match(expected: &[(String, String)], got: &[(String, String)], count: usize) -> bool {
    got.len() == count
        && got
            .iter()
            .all(|(name, body)| expected.iter().any(|(n, b)| n == name && b == body))
}

/// Requests in both jobs, and distinct requests among them, from the
/// resolved plans: a fresh daemon simulates each distinct request once and
/// serves the rest as in-flight hits.
fn dedup_expectation(plans: &[PlanSpec; 2]) -> Result<(usize, usize), String> {
    let mut keys = HashSet::new();
    let mut total = 0;
    for p in plans {
        let plan = resolve(p)?;
        total += plan.requests.len();
        keys.extend(plan.requests.iter().map(ResultStore::request_key));
    }
    Ok((total, keys.len()))
}

/// A daemon in this process, on an ephemeral localhost port.
struct Daemon {
    addr: String,
    store: Arc<ResultStore>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(store: Arc<ResultStore>) -> Result<Daemon, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            store: Some(store.clone()),
            retries: 1,
            quiet: true,
        })
        .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("no daemon address: {e}"))?
            .to_string();
        Ok(Daemon {
            addr,
            store,
            thread: std::thread::spawn(move || server.run()),
        })
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(self) -> Result<(), String> {
        client::request_shutdown(&self.addr)?;
        match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// A served job as its client saw it.
struct Job {
    /// Which of the two plans.
    plan: usize,
    out: SubmitOutcome,
    submitted: Instant,
    accepted: Instant,
    first_point: Instant,
    done: Instant,
}

/// Submits `plans[plan]` and waits for it (a closed loop), noting when each
/// stage's first line arrived.
fn submit(addr: &str, plans: &[PlanSpec; 2], plan: usize) -> Result<Job, String> {
    let submitted = Instant::now();
    let (mut accepted, mut first_point, mut done) = (None, None, None);
    let out = client::submit(addr, JOB_IDS[plan], &plans[plan], |m| {
        let now = Instant::now();
        match m {
            ServerMsg::Accepted { .. } => accepted = Some(now),
            ServerMsg::Progress { .. } | ServerMsg::PointFailed { .. } => {
                first_point.get_or_insert(now);
            }
            ServerMsg::Done { .. } => done = Some(now),
            _ => {}
        }
    })?;
    let done = done.unwrap_or_else(Instant::now);
    let accepted = accepted.unwrap_or(submitted);
    Ok(Job {
        plan,
        out,
        submitted,
        accepted,
        first_point: first_point.unwrap_or(accepted),
        done,
    })
}

/// Records a job's stage spans under `parent`, then times `ServerMsg::parse`
/// of the `done` line the client received (re-serialized from what it
/// decoded).
fn record_job(tracer: &Tracer, parent: u64, seq: u64, job: &Job) {
    let id = tracer.reserve();
    let req = Some(seq);
    let stages = [
        (span::ACCEPT, job.submitted, job.accepted),
        (span::FIRST_POINT, job.accepted, job.first_point),
        (span::STREAM, job.first_point, job.done),
    ];
    for (name, start, end) in stages {
        tracer.record(
            tracer.reserve(),
            name,
            Some(id),
            req,
            start,
            end,
            Vec::new(),
        );
    }
    tracer.record(
        id,
        span::JOB,
        Some(parent),
        req,
        job.submitted,
        job.done,
        Vec::new(),
    );
    let line = ServerMsg::Done {
        id: JOB_IDS[job.plan].to_string(),
        stats: job.out.stats,
        csvs: job.out.csvs.clone(),
    }
    .line();
    let started = Instant::now();
    let parsed = ServerMsg::parse(&line);
    let ended = Instant::now();
    std::hint::black_box(parsed.is_ok());
    let bytes = vec![("bytes".to_string(), line.len() as f64)];
    tracer.record(
        tracer.reserve(),
        span::CODEC,
        Some(parent),
        req,
        started,
        ended,
        bytes,
    );
}

/// Both clients submit at once, each on its own thread and connection, and
/// wait for their job. Returns the jobs, in plan order.
fn overlapped_round(addr: &str, plans: &[PlanSpec; 2]) -> Vec<Result<Job, String>> {
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|plan| s.spawn(move || submit(addr, plans, plan)))
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    })
}

/// Checks one job: every point succeeded and its CSVs are byte-identical to
/// the direct render.
fn check_job<'a>(
    tally: &mut Tally,
    job: &'a Result<Job, String>,
    plans: &[PlanSpec; 2],
    expected: &[(String, String)],
) -> Option<&'a Job> {
    match job {
        Err(e) => {
            tally.check(false, || format!("served job failed: {e}"));
            None
        }
        Ok(j) => {
            let o = &j.out;
            tally.check(
                o.failures.is_empty() && o.stats.failed == 0 && o.progress == o.total,
                || format!("{}: {} points failed", JOB_IDS[j.plan], o.failures.len()),
            );
            tally.check(
                csvs_match(expected, &o.csvs, plans[j.plan].apps.len()),
                || format!("{}: CSVs differ from a direct render", JOB_IDS[j.plan]),
            );
            Some(j)
        }
    }
}

/// Checks a round on a fresh daemon and store: both jobs correct, and the
/// dedup conserved work (each distinct request simulated once, every
/// repeat an in-flight hit, nothing from the store).
fn check_round(
    tally: &mut Tally,
    jobs: &[Result<Job, String>],
    plans: &[PlanSpec; 2],
    expected: &[(String, String)],
    (total, distinct): (usize, usize),
) {
    let ok: Vec<&Job> = jobs
        .iter()
        .filter_map(|j| check_job(tally, j, plans, expected))
        .collect();
    let sum = |f: fn(&Job) -> usize| ok.iter().map(|j| f(j)).sum::<usize>();
    let (simulated, inflight, stored) = (
        sum(|j| j.out.stats.simulated),
        sum(|j| j.out.stats.inflight_hits),
        sum(|j| j.out.stats.store_hits),
    );
    tally.check(
        simulated == distinct && inflight == total - distinct && stored == 0,
        || {
            format!(
                "dedup: simulated {simulated} (want {distinct}), in-flight {inflight} \
                 (want {}), store {stored} (want 0)",
                total - distinct
            )
        },
    );
}

/// Simulated counters of the jobs' results, read back from the daemon's store.
fn served_counters(store: &ResultStore, jobs: &[&Job], plans: &[PlanSpec; 2]) -> SimCounters {
    let mut c = SimCounters::default();
    for j in jobs {
        for req in resolve(&plans[j.plan])
            .map(|p| p.requests)
            .unwrap_or_default()
        {
            if let Some(r) = store.load(&req) {
                c.add(&r.stats);
            }
        }
    }
    c
}

/// What `served-warm` sets up: the two plans, the applications a daemon
/// prepares for them, the CSVs the jobs must reproduce, and the work a
/// fresh daemon must do for them.
struct Served {
    plans: [PlanSpec; 2],
    specs: Vec<AppSpec>,
    expected: Vec<(String, String)>,
    /// Requests in both jobs, and distinct requests among them.
    dedup: (usize, usize),
}

impl Served {
    /// Resolves the plans and renders the expected CSVs directly.
    fn new(ctx: &Ctx, tally: &mut Tally) -> Served {
        let scale = ctx.scale();
        let plans = served_plans(scale, ctx.seed);
        let specs: Vec<AppSpec> = suite(scale)
            .into_iter()
            .filter(|s| plans.iter().any(|p| p.apps.iter().any(|a| a == s.name())))
            .collect();
        let expected = direct_fig8(&specs, tally);
        let dedup = dedup_expectation(&plans).unwrap_or_else(|e| {
            tally.check(false, || format!("plans do not resolve: {e}"));
            (0, 0)
        });
        Served {
            plans,
            specs,
            expected,
            dedup,
        }
    }

    /// Digest of the expected CSVs, which every served job must reproduce.
    fn digest(&self) -> u64 {
        let mut digest = Digest::default();
        for (_, body) in &self.expected {
            digest.add_bytes(body.as_bytes());
        }
        digest.finish()
    }
}

fn served_warm(ctx: &Ctx) -> Measured {
    let mut tally = Tally::default();
    let s = Served::new(ctx, &mut tally);
    let d = match Daemon::start(ctx.store("served-warm")) {
        Ok(d) => d,
        Err(e) => {
            tally.check(false, move || e);
            return Measured {
                timed: Timed::default(),
                digest: s.digest(),
                tally,
                traced: None,
            };
        }
    };
    // The daemon's first round, untimed: both jobs at once on a fresh
    // daemon, so the shared points must be in-flight hits.
    let jobs = overlapped_round(&d.addr, &s.plans);
    check_round(&mut tally, &jobs, &s.plans, &s.expected, s.dedup);
    // The seed also orders the resubmits.
    let mut rng = Rng::new(ctx.seed);
    let mut resubmit = || {
        let started = Instant::now();
        let job = submit(&d.addr, &s.plans, rng.index(2));
        (started.elapsed().as_secs_f64(), job)
    };
    let check_resubmit = |tally: &mut Tally, job: Result<Job, String>| {
        if let Some(j) = check_job(tally, &job, &s.plans, &s.expected) {
            let st = j.out.stats;
            tally.check(st.inflight_hits == st.total && st.simulated == 0, || {
                format!("a resubmit was not served from the daemon's runs: {st:?}")
            });
        }
        job.ok()
    };
    let nodes = MachineConfig::alewife().nodes;
    let timed = ctx.timed(
        5,
        || prepare_once(&s.specs, nodes),
        || {
            let (secs, job) = resubmit();
            check_resubmit(&mut tally, job);
            vec![secs]
        },
    );
    let traced = ctx.trace.then(|| {
        let tracer = Tracer::new();
        let root = tracer.reserve();
        let started = Instant::now();
        let before = d.store.stats();
        let mut jobs = Vec::new();
        let mut walls = Vec::new();
        for seq in 0..if ctx.quick { 5 } else { TRACED_RESUBMITS } {
            let (secs, job) = resubmit();
            if let Some(job) = check_resubmit(&mut tally, job) {
                walls.push(secs);
                record_job(&tracer, root, seq as u64, &job);
                jobs.push(job);
            }
        }
        let after = d.store.stats();
        tracer.record(
            root,
            span::PASS,
            None,
            None,
            started,
            Instant::now(),
            Vec::new(),
        );
        let ok: Vec<&Job> = jobs.iter().collect();
        TracedPass {
            wall: median(&walls),
            counters: served_counters(&d.store, &ok, &s.plans),
            jobs: jobs.iter().map(|j| j.out.stats).collect(),
            spans: tracer.into_spans(),
            bytes_read: after.bytes_read - before.bytes_read,
            bytes_written: after.bytes_written - before.bytes_written,
            ..TracedPass::default()
        }
    });
    let stopped = d.stop();
    tally.check(stopped.is_ok(), || format!("{stopped:?}"));
    Measured {
        timed,
        digest: s.digest(),
        tally,
        traced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_issue_the_292_requests_of_repro_all() {
        let cfg = MachineConfig::alewife();
        let csvs = figure_csvs(&suite(Scale::Bench), &cfg);
        assert_eq!(csvs.len(), 17);
        let requests: usize = csvs.iter().map(|f| f.requests().len()).sum();
        assert_eq!(requests, 292);
    }

    #[test]
    fn seed_zero_is_the_suite_and_other_seeds_differ() {
        let ctx = |seed| Ctx {
            seed,
            seconds: 0.0,
            quick: false,
            trace: false,
            work: PathBuf::new(),
        };
        assert_eq!(ctx(0).seeded_suite(Scale::Bench), suite(Scale::Bench));
        let other = ctx(7).seeded_suite(Scale::Bench);
        for (a, b) in other.iter().zip(suite(Scale::Bench)) {
            assert_eq!(a.name(), b.name());
            assert_ne!(*a, b);
        }
    }

    #[test]
    fn a_perturbed_expected_csv_fails_the_check() {
        let expected = vec![
            ("fig8_em3d.csv".to_string(), "x,sm\n1,10\n".to_string()),
            ("fig8_iccg.csv".to_string(), "x,sm\n1,20\n".to_string()),
        ];
        let got = expected.clone();
        assert!(csvs_match(&expected, &got, 2));
        let mut perturbed = expected.clone();
        perturbed[1].1.push(' ');
        assert!(!csvs_match(&perturbed, &got, 2));
        assert!(!csvs_match(&expected, &got[..1], 2));

        let mut tally = Tally::default();
        tally.check(csvs_match(&perturbed, &got, 2), || "perturbed".to_string());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn served_jobs_share_the_em3d_points() {
        let plans = served_plans(Scale::Small, 0);
        let (total, distinct) = dedup_expectation(&plans).unwrap();
        // Two jobs of 2 apps x 5 mechanisms x 6 points; EM3D's 30 are shared.
        assert_eq!((total, distinct), (120, 90));
        assert_eq!(served_plans(Scale::Small, 1)[0], plans[1]);
    }
}
