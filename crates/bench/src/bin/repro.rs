//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [all|tab1|tab2|fig1|fig2|fig3|fig4|fig5|fig7|fig8|fig9|fig10] [--paper|--small] [--csv DIR]
//! ```
//!
//! Default scale is `bench` (seconds per figure); `--paper` uses the
//! paper's workload sizes. With `--csv DIR`, each sweep also lands as a
//! CSV for external plotting. Each command takes only its own flags (see
//! `repro/cli.rs`).
//!
//! The figure commands make one pass: parse → plan → run → render. The
//! selected CSV figures resolve into one request list through the same
//! planner the sweep daemon uses (`commsense_core::plan`); fig1, fig2
//! and fig5 are views of fig8, fig10 and fig4. Each distinct run goes
//! once through `Runner::run_groups` on one [`Session`] — the store, a
//! runner sized by `--jobs` (default: `COMMSENSE_JOBS` or all cores) and
//! the workload cache — and each figure then renders from its own slice
//! of the outcomes. Only `serve` and `submit` use the sweep daemon's
//! crate.
//!
//! `repro observe` instruments a single run instead: it enables the
//! observability layer, writes a Perfetto/Chrome trace and a validated run
//! manifest, and prints the per-link utilization heatmap.
//!
//! `repro analyze` goes one level deeper: it runs each mechanism once
//! under the observability layer with Figure-10 latency emulation, walks
//! the packet-lifecycle trace backward to extract the critical path,
//! prints the per-stage communication breakdown, and predicts each
//! mechanism's latency sensitivity from the traversal count — validated
//! against the simulated Figure-10 sweep with `--latency-sweep`.

use std::sync::Arc;

use commsense_apps::{AppSpec, RunResult};
use commsense_bench::{
    ablate_associativity, ablate_interrupt_cost, ablate_limitless, ablate_partition,
    ablate_prefetch_buffer, ablate_topology, ablate_write_buffer, ablation_table, miss_penalties,
    suite, Ablation, Scale,
};
use commsense_core::engine::{
    ExperimentPlan, PlanRun, RunOutcome, RunRequest, Runner, WorkloadCache,
};
use commsense_core::experiment::{bisection_plan, ctx_switch_plan, one_way_latency_cycles, Sweep};
use commsense_core::figures::{self, Figure, Figure::*};
use commsense_core::machines::table1;
use commsense_core::manifest;
use commsense_core::model::{fit_bandwidth, fit_latency, BandwidthModel, LatencyModel};
use commsense_core::plan::{resolve_on, JobPlan, PlanSpec};
use commsense_core::regions::{classify, crossover};
use commsense_core::report;
use commsense_core::store::ResultStore;
use commsense_core::table::{Cell, Table};
use commsense_machine::{MachineConfig, Mechanism, Observation, ProtoVariant};
use commsense_mesh::{CrossTrafficConfig, Topo, TrafficPattern};

#[path = "repro/cli.rs"]
mod cli;

use cli::{
    AblateArgs, AnalyzeArgs, Command, FigureArgs, HostileArgs, ModelArgs, ObserveArgs, ProbeArgs,
    ScaleArgs, ServeArgs, SessionArgs, StoreArgs, SubmitArgs,
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = cli::parse(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", cli::USAGE);
        std::process::exit(2);
    });
    match command {
        Command::Help => println!("{}", cli::USAGE),
        Command::Fig6 => println!(
            "Figure 6 is the cross-traffic diagram; it is structural — see \
             commsense-mesh's crosstraffic module and its tests."
        ),
        Command::Figures(a) => run_figures(&a),
        Command::Model(a) => run_model(&a),
        Command::Ablate(a) => run_ablate(&a),
        Command::Observe(a) => run_observe(&a),
        Command::Analyze(a) => run_analyze(&a),
        Command::Scale(a) => run_scale(&a),
        Command::Hostile(a) => run_hostile(&a),
        Command::Store(a) => run_store_admin(&a),
        Command::Serve(a) => run_serve(&a),
        Command::Submit(a) => run_submit(&a),
    }
}

/// The base machine, under the correctness harness with `check`.
fn base_cfg(check: bool) -> MachineConfig {
    let mut cfg = MachineConfig::alewife();
    if check {
        cfg.check = Some(commsense_machine::CheckConfig::full());
    }
    cfg
}

/// Resolves `--store` / `COMMSENSE_STORE` (see [`SessionArgs::store`]),
/// or `None` when neither enables the store.
fn open_store(arg: Option<&str>) -> Option<Arc<ResultStore>> {
    let env = std::env::var("COMMSENSE_STORE")
        .ok()
        .filter(|s| !s.is_empty());
    let dir = match arg {
        Some(dir) if !dir.is_empty() => dir.to_string(),
        Some(_) => env.unwrap_or_else(|| ".commsense-store".to_string()),
        None => env?,
    };
    let store = ResultStore::open(&dir).unwrap_or_else(|e| {
        eprintln!("cannot open store {dir}: {e}");
        std::process::exit(2);
    });
    Some(Arc::new(store))
}

/// What one invocation simulates with: the store, a runner sized by
/// `--jobs`, and the workload cache, so each workload is prepared once.
struct Session {
    runner: Runner,
    cache: WorkloadCache,
}

impl Session {
    fn open(args: &SessionArgs) -> Session {
        let mut runner = args.jobs.map_or_else(Runner::from_env, Runner::new);
        if let Some(store) = open_store(args.store.as_deref()) {
            println!("(persistent store: {})", store.root().display());
            runner = runner.with_store(store);
        }
        Session {
            runner,
            cache: WorkloadCache::new(),
        }
    }

    /// Runs every plan in one [`Runner::run_groups`] batch and folds each
    /// plan's outcomes into its [`PlanRun`], warning about failed points.
    fn run_plans<'a>(
        &mut self,
        plans: impl IntoIterator<Item = &'a ExperimentPlan>,
    ) -> Vec<PlanRun> {
        let plans: Vec<&ExperimentPlan> = plans.into_iter().collect();
        let groups = plans.iter().map(|p| p.requests());
        let outcomes = self.runner.run_groups(groups, &mut self.cache);
        let fold = |(plan, outcomes): (&&ExperimentPlan, Vec<RunOutcome>)| {
            let run = plan.assemble_outcomes(&outcomes);
            warn_failed(plan.app(), &run);
            run
        };
        plans.iter().zip(outcomes).map(fold).collect()
    }

    /// Prints `label`'s store traffic: how many of its `outcomes` were
    /// replayed from the store (hits) and how many were not (misses).
    fn store_line(&self, label: &str, outcomes: &[RunOutcome]) {
        if self.runner.store().is_some() {
            let hits = outcomes.iter().filter(|o| o.is_cached()).count();
            let misses = outcomes.len() - hits;
            println!("store[{label}]: hits={hits} misses={misses}");
        }
    }

    /// Prints the end-of-run store summary.
    fn finish(&self) {
        if let Some(s) = self.runner.store() {
            let st = s.stats();
            println!(
                "store summary: hits={} misses={} corrupt={} evicted={} read={}B written={}B",
                st.hits, st.misses, st.corrupt, st.evictions, st.bytes_read, st.bytes_written
            );
        }
    }
}

/// Prints warnings for the failed points of a fault-tolerant plan run.
fn warn_failed(app: &str, run: &PlanRun) {
    for f in &run.failed {
        let (mech, x, attempts) = (f.mechanism, f.x, f.attempts);
        eprintln!(
            "  FAILED {app}/{mech} at x={x} after {attempts} attempts: {}",
            f.message
        );
    }
}

/// `figure` resolved for every app and the given mechanisms (empty: all
/// the figure plots) on `cfg`, exactly as the daemon resolves it.
fn job(figure: Figure, scale: Scale, mechanisms: &[&str], cfg: &MachineConfig) -> JobPlan {
    let spec = PlanSpec {
        figure,
        scale,
        apps: Vec::new(),
        mechanisms: mechanisms.iter().map(|m| m.to_string()).collect(),
    };
    resolve_on(&spec, cfg.clone()).expect("the figure's own names resolve")
}

/// One block of the figure commands' output.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Section {
    Tab1,
    Tab2,
    Fig3,
    /// Figure 5: the volume view of Figure 4's runs.
    Fig5,
    /// A CSV figure.
    Csv(Figure),
}

/// `repro all`'s sections in order, each with the commands that print it
/// (fig1 and fig2 add their region and model lines to fig8 and fig10).
const SECTIONS: [(Section, &[&str]); 9] = [
    (Section::Tab1, &["tab1"]),
    (Section::Tab2, &["tab2"]),
    (Section::Fig3, &["fig3"]),
    (Section::Csv(Fig4), &["fig4"]),
    (Section::Fig5, &["fig5"]),
    (Section::Csv(Fig7), &["fig7"]),
    (Section::Csv(Fig8), &["fig8", "fig1"]),
    (Section::Csv(Fig9), &["fig9"]),
    (Section::Csv(Fig10), &["fig10", "fig2"]),
];

impl Section {
    /// The CSV figure whose runs the section shows.
    fn figure(self) -> Option<Figure> {
        match self {
            Section::Fig5 => Some(Fig4),
            Section::Csv(f) => Some(f),
            _ => None,
        }
    }

    fn heading(self) -> &'static str {
        match self {
            Section::Tab1 => "Table 1: 32-processor machine parameters",
            Section::Tab2 => "Table 2: parameters in local-miss units",
            Section::Fig3 => "Figure 3 cost table: shared-memory miss penalties",
            Section::Fig5 => "Figure 5: communication volume breakdown",
            Section::Csv(Fig4) => "Figure 4: per-application breakdown, all mechanisms",
            Section::Csv(Fig7) => "Figure 7: sensitivity to cross-traffic message length",
            Section::Csv(Fig8) => "Figure 8: execution time vs bisection bandwidth",
            Section::Csv(Fig9) => {
                "Figure 9: execution time vs relative network latency (clock scaling)"
            }
            Section::Csv(Fig10) => "Figure 10: latency emulation via context switching",
        }
    }
}

/// The figure commands: plan every selected CSV figure, run each unique
/// request once, then render each section from its figure's outcomes.
fn run_figures(a: &FigureArgs) {
    let picked = |cmds: &[&str]| a.what == "all" || cmds.contains(&a.what);
    let sections: Vec<Section> = SECTIONS
        .iter()
        .filter(|(_, cmds)| picked(cmds))
        .map(|(s, _)| *s)
        .collect();
    let cfg = base_cfg(a.check);

    // Plan.
    let figures: Vec<Figure> = Figure::ALL
        .into_iter()
        .filter(|f| sections.iter().any(|s| s.figure() == Some(*f)))
        .collect();
    let jobs: Vec<JobPlan> = figures
        .iter()
        .map(|&f| job(f, a.scale.unwrap_or(Scale::Bench), &[], &cfg))
        .collect();

    // Run.
    let mut session = Session::open(&a.session);
    let groups = jobs.iter().map(|j| &j.requests);
    let outcomes = session.runner.run_groups(groups, &mut session.cache);

    // Render.
    for section in sections {
        println!("== {} ==", section.heading());
        let Some(fig) = section.figure() else {
            match section {
                Section::Tab1 => print!("{}", report::table1_text(&table1())),
                Section::Tab2 => print!("{}", report::table2_text(&table1())),
                _ => {
                    println!("{:<22} {:>8} {:>10}", "case", "paper", "measured");
                    for m in miss_penalties(&cfg) {
                        println!(
                            "{:<22} {:>8.0} {:>10.1}",
                            m.case, m.paper_cycles, m.measured_cycles
                        );
                    }
                }
            }
            println!();
            continue;
        };
        let i = figures.iter().position(|f| *f == fig).expect("planned");
        render_figure(section, a, &jobs[i], &outcomes[i]);
        let label = if section == Section::Fig5 {
            "fig5"
        } else {
            fig.label()
        };
        session.store_line(label, &outcomes[i]);
        match fig {
            Fig7 => println!(),
            Fig9 => println!(
                "(base machine one-way 24B latency: {:.1} cycles)\n",
                one_way_latency_cycles(&cfg, 24)
            ),
            _ => {}
        }
    }
    session.finish();
}

/// Prints one figure section, app by app, from its job's outcomes, and
/// writes the figure's CSVs with `--csv`.
fn render_figure(section: Section, a: &FigureArgs, job: &JobPlan, outcomes: &[RunOutcome]) {
    let views = |cmd: &str| a.what == "all" || a.what == cmd;
    for (app, run) in job.fold(outcomes) {
        warn_failed(app, &run);
        let sweeps = &run.sweeps;
        match section {
            Section::Tab1 | Section::Tab2 | Section::Fig3 => unreachable!("tables run nothing"),
            Section::Fig5 => {
                print!("{}", report::volume_table(app, &results(sweeps)));
                println!();
                continue;
            }
            Section::Csv(Fig4) => {
                let results = results(sweeps);
                print!("{}", report::breakdown_table(app, &results, &job.cfg));
                print!("{}", report::breakdown_bars(app, &results, &job.cfg, 48));
                print!("{}", report::sim_rate_table(app, &results));
            }
            Section::Csv(Fig7) => {
                let title = format!("{app} runtime at 8 B/cycle emulated bisection");
                print!("{}", report::sweep_table(&title, "msg bytes", sweeps));
            }
            Section::Csv(Fig8) => {
                print!("{}", report::sweep_table(app, "B/cycle", sweeps));
                for s in sweeps {
                    s.assert_verified();
                }
                print_crossovers(sweeps);
                if views("fig1") && app == "EM3D" {
                    let stress: Vec<f64> = figures::FIG8_CONSUMED
                        .iter()
                        .map(|c| 1.0 / (18.0 - c))
                        .collect();
                    for s in sweeps {
                        print_regions("fig1", s, &stress);
                        if let Some(BandwidthModel { c0, c1, c2, r2 }) = fit_bandwidth(s) {
                            let mech = s.mechanism;
                            println!(
                                "  fig1 {mech} model: T(b) = {c0:.0} + {c1:.0}/b + {c2:.0}/b^2 (R2 {r2:.3})"
                            );
                        }
                    }
                }
            }
            Section::Csv(Fig9) => {
                print!("{}", report::sweep_table(app, "lat (cyc)", sweeps));
            }
            Section::Csv(Fig10) => {
                print!("{}", report::sweep_table(app, "miss (cyc)", sweeps));
                if views("fig2") && app == "EM3D" {
                    let stress: Vec<f64> = figures::FIG10_LATENCIES.map(|l| l as f64).to_vec();
                    for s in sweeps.iter().take(2) {
                        print_regions("fig2", s, &stress);
                        if let Some(LatencyModel { d0, d1, r2 }) = fit_latency(s) {
                            let mech = s.mechanism;
                            println!(
                                "  fig2 {mech} model: T(L) = {d0:.0} + {d1:.2}*L (R2 {r2:.3})"
                            );
                        }
                    }
                }
                // The Chandra et al. comparison point (§6): at ~100-cycle
                // latency, message passing ran EM3D about twice as fast.
                if app == "EM3D" {
                    let sm_100 = sweeps.first().and_then(|s| s.point_at(100.0));
                    let mp_100 = sweeps.get(3).and_then(|s| s.point_at(100.0));
                    if let (Some(sm), Some(mp)) = (sm_100, mp_100) {
                        println!(
                            "  EM3D at 100-cycle latency: sm/mp = {:.2} (Chandra et al. saw ~2x)",
                            sm.result.runtime_cycles as f64 / mp.result.runtime_cycles as f64
                        );
                    }
                }
            }
        }
        if let Some(dir) = &a.csv {
            let (name, csv) = job.csv(app, &run);
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{name}");
            std::fs::write(&path, csv).expect("write csv");
            println!("  (wrote {path})");
        }
        if section != Section::Csv(Fig7) {
            println!();
        }
    }
}

/// Every point's result, curve by curve.
fn results(sweeps: &[Sweep]) -> Vec<RunResult> {
    let points = sweeps.iter().flat_map(|s| &s.points);
    points.map(|p| p.result.clone()).collect()
}

/// Figure 8's crossovers of both shared-memory curves against both
/// fine-grained message-passing curves.
fn print_crossovers(sweeps: &[Sweep]) {
    for (a, label_a) in [(0usize, "sm"), (1, "sm+pf")] {
        for (b, label_b) in [(2usize, "mp-int"), (3, "mp-poll")] {
            let (sa, sb) = (&sweeps[a], &sweeps[b]);
            match crossover(sa, sb) {
                Some(x) => println!("  {label_a} crosses above {label_b} at ~{x:.1} B/cycle"),
                None => match (sa.points.first(), sb.points.first()) {
                    (Some(pa), Some(pb)) => println!(
                        "  no {label_a}/{label_b} crossover in range (starts at {:.2}x)",
                        pa.result.runtime_cycles as f64 / pb.result.runtime_cycles as f64
                    ),
                    _ => println!("  no {label_a}/{label_b} crossover in range"),
                },
            }
        }
    }
}

/// Prints `s`'s region labels against `stress` (one value per full-sweep
/// point); a ragged sweep, missing failed points, is skipped.
fn print_regions(fig: &str, s: &Sweep, stress: &[f64]) {
    if s.points.len() != stress.len() {
        return;
    }
    let regs: Vec<&str> = classify(s, stress, 0.05, 1.5)
        .iter()
        .map(|seg| seg.region.label())
        .collect();
    println!("  {fig} {} regions: {regs:?}", s.mechanism);
}

/// `repro model`: Section 2 model fits over the sm and mp-poll curves of
/// Figures 8 and 10, run as one pass.
fn run_model(a: &ModelArgs) {
    let cfg = base_cfg(a.check);
    let scale = a.scale.unwrap_or(Scale::Bench);
    let jobs = [Fig8, Fig10].map(|f| job(f, scale, &["sm", "mp-poll"], &cfg));
    let mut session = Session::open(&a.session);
    let groups = jobs.iter().map(|j| &j.requests);
    let outcomes = session.runner.run_groups(groups, &mut session.cache);
    println!("== Section 2 model fits over measured sweeps ==\n");
    let bandwidth = jobs[0].fold(&outcomes[0]);
    let latency = jobs[1].fold(&outcomes[1]);
    for ((app, bw), (_, lt)) in bandwidth.zip(latency) {
        warn_failed(app, &bw);
        warn_failed(app, &lt);
        println!("{app}:");
        for s in &bw.sweeps {
            if let Some(BandwidthModel { c0, c1, c2, r2 }) = fit_bandwidth(s) {
                let mech = s.mechanism.label();
                println!(
                    "  bandwidth {mech:<8} T(b) = {c0:>9.0} + {c1:>9.0}/b + {c2:>9.0}/b^2  (R2 {r2:.3})"
                );
            }
        }
        for s in &lt.sweeps {
            if let Some(LatencyModel { d0, d1, r2 }) = fit_latency(s) {
                let mech = s.mechanism.label();
                println!(
                    "  latency   {mech:<8} T(L) = {d0:>9.0} + {d1:>7.2}*L             (R2 {r2:.3})"
                );
            }
        }
        println!();
    }
    session.finish();
}

/// `repro ablate`: the design-choice ablations, planned first and run in
/// one pass. The partition ablation, which has no request to plan, runs
/// directly and shows before the cache-organization one.
fn run_ablate(a: &AblateArgs) {
    let cfg = base_cfg(a.check);
    let planned = [
        (
            "LimitLESS directory width (EM3D, sm):",
            ablate_limitless(&cfg),
        ),
        (
            "Mesh aspect ratio at 32 nodes (EM3D):",
            ablate_topology(&cfg),
        ),
        (
            "Interrupt entry cost (ICCG, mp-int):",
            ablate_interrupt_cost(&cfg),
        ),
        (
            "Prefetch buffer depth (EM3D, sm+pf):",
            ablate_prefetch_buffer(&cfg),
        ),
        (
            "Consistency model under latency (EM3D):",
            ablate_write_buffer(&cfg),
        ),
    ];
    let associativity = ablate_associativity(&cfg);
    let mut session = Session::open(&a.session);
    let ablations = planned.iter().map(|(_, ab)| ab).chain([&associativity]);
    let groups = ablations.map(|ab| ab.iter().map(|(_, r)| r));
    let mut outcomes = session.runner.run_groups(groups, &mut session.cache);
    let show = |title: &str, ab: &Ablation, outcomes: &[RunOutcome]| {
        let labels = ab.iter().map(|(label, _)| label);
        println!("{}", ablation_table(title, labels.zip(outcomes)));
    };
    println!("== Ablations (design-choice sensitivity; not paper figures) ==\n");
    let associativity_outcomes = outcomes.pop().expect("one group per ablation");
    for ((title, ab), outcomes) in planned.iter().zip(&outcomes) {
        show(title, ab, outcomes);
    }
    let partition = ablate_partition(&cfg);
    println!(
        "{}",
        ablation_table(
            "Partition strategy (UNSTRUC, sm) — lower cut can lose to worse edge balance:",
            partition.iter().map(|(l, o)| (l, o)),
        )
    );
    show(
        "Cache organization (EM3D, sm) — flat by design: the paper's irregular apps have \
little data re-use, so misses are coherence misses, not capacity/conflict misses:",
        &associativity,
        &associativity_outcomes,
    );
    session.finish();
}

/// Resolves `--app` against the suite at the selected scale.
fn resolve_spec(p: &ProbeArgs) -> AppSpec {
    let app = p.app.as_deref().unwrap_or("EM3D");
    suite(p.scale.unwrap_or(Scale::Bench))
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(app))
        .unwrap_or_else(|| {
            eprintln!("unknown --app {app:?} (EM3D|UNSTRUC|ICCG|MOLDYN)");
            std::process::exit(2);
        })
}

/// Resolves a `--mech` label against the five mechanisms.
fn resolve_mech(label: &str) -> Mechanism {
    Mechanism::from_label(label).unwrap_or_else(|| {
        eprintln!("unknown --mech {label:?} (sm|sm+pf|mp-int|mp-poll|bulk)");
        std::process::exit(2);
    })
}

/// One run of `spec` under `mechanism` on `cfg` with the observability
/// layer on, sampling every `epoch` cycles: its request and result.
fn observed_run(
    spec: AppSpec,
    mechanism: Mechanism,
    mut cfg: MachineConfig,
    epoch: u64,
) -> (RunRequest, RunResult) {
    cfg.observe = Some(commsense_machine::ObserveConfig {
        epoch_cycles: epoch,
        ..Default::default()
    });
    let req = RunRequest {
        spec,
        mechanism,
        cfg,
    };
    let result = commsense_apps::run_app(&req.spec, req.mechanism, &req.cfg);
    (req, result)
}

/// An observed run's recording.
fn observation(result: &RunResult) -> &Observation {
    result
        .observation
        .as_ref()
        .expect("observe config implies an observation")
}

/// `{dir}/{kind}_{app}_{mech}`: where an observed run's artifacts go.
fn artifact_stem(dir: &str, kind: &str, spec: &AppSpec, mech: Mechanism) -> String {
    format!(
        "{dir}/{kind}_{}_{}",
        spec.name().to_lowercase(),
        mech.label().replace('+', "p"),
    )
}

/// Validates `manifest` and writes it and `trace` next to `stem`,
/// returning the trace and manifest paths.
fn write_trace_and_manifest(stem: &str, trace: String, manifest: String) -> (String, String) {
    manifest::validate_manifest(&manifest).expect("fresh manifest must validate");
    let trace_path = format!("{stem}.perfetto.json");
    std::fs::write(&trace_path, trace).expect("write perfetto trace");
    let manifest_path = format!("{stem}.manifest.json");
    std::fs::write(&manifest_path, manifest).expect("write manifest");
    (trace_path, manifest_path)
}

/// `repro observe`: one deeply-instrumented run — writes a Perfetto trace
/// and a run manifest, and prints the per-link utilization heatmap.
fn run_observe(a: &ObserveArgs) {
    let p = &a.probe;
    let spec = resolve_spec(p);
    let mech = resolve_mech(p.mech.as_deref().unwrap_or("mp-poll"));
    let mut cfg = base_cfg(p.check);
    if let Some(c) = a.cross {
        cfg.cross_traffic = Some(commsense_mesh::CrossTrafficConfig::consuming(
            c,
            cfg.clock(),
            64,
            cfg.net.topo.io_streams(),
        ));
    }
    if let Some(l) = p.latency {
        cfg = cfg.with_latency_emulation(mech, l);
    }

    println!(
        "== observe: {} under {} ({} cross, {} latency emulation) ==",
        spec.name(),
        mech.label(),
        a.cross.map_or("no".to_string(), |c| format!("{c} B/cycle")),
        p.latency.map_or("no".to_string(), |l| format!("{l}-cycle")),
    );
    let (req, result) = observed_run(spec, mech, cfg, p.epoch.unwrap_or(1_000));
    let obs = observation(&result);
    println!(
        "runtime {} cycles, verified: {}, {} samples, {} trace events \
         ({} dropped), {} packets recorded ({} dropped)",
        result.runtime_cycles,
        result.verified,
        obs.series.samples(),
        obs.trace.events().len(),
        obs.trace.dropped(),
        obs.net.packets.len(),
        obs.net.dropped_packets,
    );
    print!("{}", report::link_heatmap(obs, 64));

    let dir = p.dir.as_deref().unwrap_or(".");
    std::fs::create_dir_all(dir).expect("create output dir");
    let (trace_path, manifest_path) = write_trace_and_manifest(
        &artifact_stem(dir, "observe", &req.spec, mech),
        commsense_machine::perfetto::export_trace(obs),
        manifest::manifest_json(&req, a.cross, &result),
    );
    println!("(wrote {trace_path})");
    println!("(wrote {manifest_path} — open the trace at https://ui.perfetto.dev)");
}

/// The header of `repro analyze`'s `critpath_summary.csv`: per latency
/// point, the simulated runtime next to the one predicted from the
/// instrumented run.
const CRITPATH_HEADER: &str = "app,mechanism,latency_cycles,simulated_cycles,\
    predicted_cycles,rel_err,predicted_slope,fitted_slope";

/// `repro analyze`: critical-path extraction and latency-sensitivity
/// prediction. Runs each selected mechanism once under the observability
/// layer with Figure-10 latency emulation at the base latency, walks the
/// lifecycle trace backward into a per-stage breakdown, and writes per
/// mechanism a breakdown CSV, a Perfetto trace with the on-path message
/// flows flagged, and a manifest embedding the analysis. With
/// `--latency-sweep` it also runs the simulated Figure-10 sweep and
/// writes `critpath_summary.csv` comparing predicted against simulated
/// runtime at every latency point (`--gate PCT` fails on excessive
/// relative error).
fn run_analyze(a: &AnalyzeArgs) {
    let p = &a.probe;
    let spec = resolve_spec(p);
    let mechs: Vec<Mechanism> = match p.mech.as_deref() {
        Some(label) => vec![resolve_mech(label)],
        None => Mechanism::ALL.to_vec(),
    };
    let base_lat = p.latency.unwrap_or(30);
    let dir = p.dir.as_deref().unwrap_or(".");
    std::fs::create_dir_all(dir).expect("create output dir");
    println!(
        "== analyze: {} critical path ({base_lat}-cycle emulated remote misses) ==",
        spec.name()
    );

    // Per mechanism: the instrumented base-latency runtime and critical path.
    let mut analyzed = Vec::new();
    for &mech in &mechs {
        // Emulation at the base latency makes traversal counting exact:
        // every latency-clamped remote stall on the path lasts >= L, and
        // everything else stays far below it on the ideal protocol
        // network. The mp mechanisms see (nearly) no such stalls, so
        // their predicted curves come out flat — as the paper plots them.
        let cfg = base_cfg(p.check).with_latency_emulation(mech, base_lat);
        let (req, result) = observed_run(spec.clone(), mech, cfg, p.epoch.unwrap_or(1_000));
        let obs = observation(&result);
        let cp = commsense_machine::analyze(obs, &req.cfg);
        println!("{}", cp.render_table(&format!("{} / {mech}", spec.name())));

        let breakdown_path = artifact_stem(dir, "critpath_breakdown", &spec, mech) + ".csv";
        std::fs::write(&breakdown_path, cp.breakdown_csv()).expect("write breakdown csv");
        let (trace_path, manifest_path) = write_trace_and_manifest(
            &artifact_stem(dir, "analyze", &spec, mech),
            commsense_machine::perfetto::export_trace_critical(obs, &cp.critical_records),
            manifest::manifest_json_with_analysis(&req, None, &result, Some(&cp)),
        );
        println!("(wrote {breakdown_path}, {trace_path}, {manifest_path})");
        analyzed.push((mech, result.runtime_cycles, cp));
    }
    if !a.latency_sweep {
        return;
    }

    // Validation: the simulated Figure-10 sweep next to the predicted
    // curves. The prediction extrapolates the single instrumented run:
    // T(L) = T(base) + slope * (L - base).
    println!("== analyze: predicted vs simulated Figure-10 curves ==");
    let mut session = Session::open(&a.session);
    let plan = Fig10.plan(&spec, &mechs, &base_cfg(p.check));
    let run = session.run_plans([&plan]).remove(0);
    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;
    for (mech, base_runtime, cp) in &analyzed {
        let Some(sweep) = run.sweeps.iter().find(|s| s.mechanism == *mech) else {
            eprintln!("  no simulated sweep for {mech} (all points failed)");
            continue;
        };
        let fitted = fit_latency(sweep).map(|m| m.d1);
        println!(
            "{} / {}: predicted slope {:.2}, fitted simulated slope {}",
            spec.name(),
            mech.label(),
            cp.predicted_slope(),
            fitted.map_or("n/a".to_string(), |d| format!("{d:.2}")),
        );
        println!(
            "  {:>10} {:>12} {:>12} {:>8}",
            "lat (cyc)", "simulated", "predicted", "err"
        );
        for pt in &sweep.points {
            let sim = pt.result.runtime_cycles as f64;
            let predicted = cp.predict_runtime_cycles(*base_runtime, base_lat, pt.x as u64);
            let rel = (predicted - sim).abs() / sim;
            worst = worst.max(rel);
            println!(
                "  {:>10.0} {:>12.0} {:>12.0} {:>7.1}%",
                pt.x,
                sim,
                predicted,
                rel * 100.0
            );
            rows.push(vec![
                Cell::text(spec.name()),
                Cell::text(mech.label()),
                Cell::fixed(pt.x, 0),
                Cell::int(pt.result.runtime_cycles),
                Cell::fixed(predicted, 0),
                Cell::fixed(rel, 4),
                Cell::fixed(cp.predicted_slope(), 2),
                Cell::fixed(fitted, 2),
            ]);
        }
    }
    let summary = Table::new(CRITPATH_HEADER, rows);
    let summary_path = format!("{dir}/critpath_summary.csv");
    std::fs::write(&summary_path, summary.csv()).expect("write critpath summary");
    println!("(wrote {summary_path})");
    session.finish();
    if let Some(pct) = a.gate {
        let line = format!(
            "analyze gate: worst predicted-vs-simulated error {:.1}% vs allowed {pct:.1}%",
            worst * 100.0
        );
        if worst * 100.0 > pct {
            eprintln!("{line} — FAIL");
            std::process::exit(1);
        }
        println!("{line} — PASS");
    }
}

/// Prints `run`'s sweeps as a table (`title`, x column `x`) and writes
/// them as CSV (x column `csv_x`) to `path`.
fn render_shape(run: &PlanRun, (title, x): (&str, &str), (csv_x, path): (&str, String)) {
    print!("{}", report::sweep_table(title, x, &run.sweeps));
    std::fs::write(path, report::sweep_csv(csv_x, &run.sweeps)).expect("write sweep csv");
}

/// Writes `table` as `{dir}/{name}_summary.csv` and, once it validates
/// against that CSV's header, as `{dir}/{name}_manifest.json` (kind
/// `commsense-{name}-manifest`).
fn write_summary(dir: &str, name: &str, table: &Table) {
    let kind = format!("commsense-{name}-manifest");
    let manifest = table.manifest(&kind);
    manifest::validate_table_manifest(&manifest, &kind, table.header())
        .expect("fresh table manifest must validate");
    for (file, text) in [("summary.csv", table.csv()), ("manifest.json", manifest)] {
        let path = format!("{dir}/{name}_{file}");
        std::fs::write(&path, text).expect("write summary");
        println!("(wrote {path})");
    }
}

/// Shared memory against polled message passing: the two curves `scale`
/// and `hostile` compare.
const SM_MP: [Mechanism; 2] = [Mechanism::SharedMem, Mechanism::MsgPoll];

/// The result at `x` on `run`'s `mechanism` curve, if that point ran.
fn result_at(run: &PlanRun, mechanism: Mechanism, x: f64) -> Option<&RunResult> {
    let curve = run.sweeps.iter().find(|s| s.mechanism == mechanism)?;
    Some(&curve.point_at(x)?.result)
}

/// The ratio of two results' runtimes.
fn runtime_ratio(a: &RunResult, b: &RunResult) -> f64 {
    a.runtime_cycles as f64 / b.runtime_cycles as f64
}

/// Where `run`'s shared-memory curve crosses above its mp-poll curve.
fn sm_mp_crossover(run: &PlanRun) -> Option<f64> {
    let [sm, mp] = SM_MP.map(|m| run.sweeps.iter().find(|s| s.mechanism == m));
    crossover(sm?, mp?)
}

/// One line of the `repro scale` summary: a (topology, node count)
/// machine and what its Figure 8 and Figure 10 shapes measured.
struct ScaleRow {
    topo: Topo,
    bisection_bpc: f64,
    mean_hops: f64,
    sm_over_mp: Option<f64>,
    fig8_crossover_bpc: Option<f64>,
    fig10_crossover_cycles: Option<f64>,
}

/// The header of `scale_summary.csv`, in [`ScaleRow::cells`] order.
const SCALE_HEADER: &str = "topology,kind,nodes,bisection_bytes_per_cycle,\
    mean_hops,sm_over_mp_base,fig8_crossover_bpc,fig10_crossover_cycles";

impl ScaleRow {
    /// The row of the machine `cfg` from its folded Figure 8 and Figure
    /// 10 runs; a measurement whose points failed is `None`.
    fn measured(cfg: &MachineConfig, run8: &PlanRun, run10: &PlanRun) -> ScaleRow {
        let bisection_bpc = cfg.net.bisection_bytes_per_cycle(cfg.clock());
        let at = |m| result_at(run8, m, bisection_bpc);
        ScaleRow {
            topo: cfg.net.topo,
            bisection_bpc,
            mean_hops: cfg.net.topo.mean_hops(),
            sm_over_mp: at(SM_MP[0])
                .zip(at(SM_MP[1]))
                .map(|(sm, mp)| runtime_ratio(sm, mp)),
            fig8_crossover_bpc: sm_mp_crossover(run8),
            fig10_crossover_cycles: sm_mp_crossover(run10),
        }
    }

    fn cells(&self) -> Vec<Cell> {
        vec![
            Cell::text(self.topo.shape()),
            Cell::text(self.topo.kind()),
            Cell::int(self.topo.num_nodes() as u64),
            Cell::fixed(self.bisection_bpc, 3),
            Cell::fixed(self.mean_hops, 3),
            Cell::fixed(self.sm_over_mp, 3),
            Cell::fixed(self.fig8_crossover_bpc, 3),
            Cell::fixed(self.fig10_crossover_cycles, 3),
        ]
    }
}

/// `repro scale`: sweeps node count × topology through the Figure 4/8/10
/// experiment shapes and summarizes how the mechanism crossovers move with
/// machine size. Every machine's plans are built first and run in one
/// pass. The fig10-shape sweep runs under the full correctness harness,
/// so the protocol invariants are exercised at every scale.
fn run_scale(a: &ScaleArgs) {
    let (kinds, node_counts): (Vec<&str>, Vec<usize>) = if a.small {
        (vec!["mesh", "torus"], vec![64, 256])
    } else {
        (Topo::KINDS.to_vec(), vec![32, 256, 1024])
    };
    let out_dir = a.csv.as_deref().or(a.dir.as_deref()).unwrap_or(".");
    std::fs::create_dir_all(out_dir).expect("create scale output dir");

    // Plan: per machine, the Figure 8 shape, then the Figure 10 shape.
    let (mut machines, mut plans) = (Vec::new(), Vec::new());
    for &nodes in &node_counts {
        // EM3D grows with the machine so each node keeps real work; the
        // workload is shared across topologies of the same size.
        let spec = {
            let mut p = commsense_workloads::bipartite::Em3dParams::small();
            p.nodes = (4 * nodes).max(2000);
            p.iterations = 3;
            AppSpec::Em3d(p)
        };
        for kind in &kinds {
            let cfg = MachineConfig::scaled(kind, nodes);
            let bpc = cfg.net.bisection_bytes_per_cycle(cfg.clock());
            // Figure 8 shape: consume none, half, and three quarters of
            // this machine's own bisection. The zero-consumption points
            // double as the Figure 4-shape base comparison.
            let consumed = [0.0, bpc * 0.5, bpc * 0.75];
            plans.push(bisection_plan(&spec, &SM_MP, &cfg, &consumed, 64));
            // Figure 10 shape: latency emulation under the correctness
            // harness — the invariant checker must hold at every scale.
            let mut cfg10 = cfg.clone();
            cfg10.check = Some(commsense_machine::CheckConfig::full());
            plans.push(ctx_switch_plan(&spec, &SM_MP, &cfg10, &[50, 200, 800]));
            machines.push(cfg);
        }
    }

    // Run.
    let mut session = Session::open(&a.session);
    let runs = session.run_plans(&plans);

    // Render.
    println!("== scale: mechanism crossovers vs machine size ==");
    println!("(topologies {kinds:?} at {node_counts:?} nodes)");
    let mut rows: Vec<ScaleRow> = Vec::new();
    for (cfg, runs) in machines.iter().zip(runs.chunks(2)) {
        let row = ScaleRow::measured(cfg, &runs[0], &runs[1]);
        let (topo, nodes) = (row.topo, row.topo.num_nodes());
        println!(
            "-- {} ({nodes} nodes, {:.1} B/cycle bisection, mean hops {:.2}) --",
            topo.shape(),
            row.bisection_bpc,
            row.mean_hops,
        );
        let tag = format!("{}_{nodes}", topo.kind().replace('-', ""));
        render_shape(
            &runs[0],
            ("fig8 shape (vs emulated bisection)", "B/cycle"),
            ("bytes_per_cycle", format!("{out_dir}/scale_fig8_{tag}.csv")),
        );
        if let Some(r) = row.sm_over_mp {
            println!("  fig4 shape at full bisection: sm/mp-poll = {r:.2}");
        }
        if let Some(x) = row.fig8_crossover_bpc {
            println!("  sm crosses above mp-poll at ~{x:.1} B/cycle");
        }
        render_shape(
            &runs[1],
            (
                "fig10 shape (vs emulated miss latency, checker on)",
                "miss (cyc)",
            ),
            ("miss_cycles", format!("{out_dir}/scale_fig10_{tag}.csv")),
        );
        if let Some(x) = row.fig10_crossover_cycles {
            println!("  sm crosses above mp-poll at ~{x:.0}-cycle misses");
        }
        println!();
        rows.push(row);
    }

    // Crossover-vs-scale summary: the headline table of the sweep.
    println!("== crossover vs scale ==");
    println!(
        "{:<16} {:>6} {:>8} {:>6} {:>8} {:>10} {:>12}",
        "topology", "nodes", "bis B/c", "hops", "sm/mp", "x8 (B/c)", "x10 (cyc)"
    );
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>8.1} {:>6.2} {:>6} {:>10} {:>12}",
            r.topo.shape(),
            r.topo.num_nodes(),
            r.bisection_bpc,
            r.mean_hops,
            Cell::fixed(r.sm_over_mp, 2),
            Cell::fixed(r.fig8_crossover_bpc, 2),
            Cell::fixed(r.fig10_crossover_cycles, 2),
        );
    }
    let table = Table::new(SCALE_HEADER, rows.iter().map(ScaleRow::cells));
    write_summary(out_dir, "scale", &table);
    session.finish();
}

/// One line of the `repro hostile` summary: a (variant, pattern)
/// combination and what its Figure 4 and Figure 10 shapes measured. A
/// measurement whose run failed is `None`.
struct HostileRow {
    variant: ProtoVariant,
    pattern: TrafficPattern,
    sm_runtime: Option<u64>,
    mp_runtime: Option<u64>,
    fig10_growth: Option<f64>,
    priority_bypasses: Option<u64>,
    low_bypassed: Option<u64>,
}

/// The header of `hostile_summary.csv`, in [`HostileRow::cells`] order.
const HOSTILE_HEADER: &str = "variant,pattern,app,sm_runtime_cycles,\
    mp_poll_runtime_cycles,sm_over_mp,fig10_sm_growth,priority_bypasses,low_bypassed";

/// The header of each combination's `hostile_fig4_*.csv`.
const HOSTILE_FIG4_HEADER: &str = "app,mech,runtime_cycles,priority_bypasses,verified";

impl HostileRow {
    /// The row of `(variant, pattern)` from its folded Figure 4 run and
    /// its Figure 10 run over `lats`. The growth is the shared-memory
    /// runtime at the last latency over the one at the first.
    fn measured(
        (variant, pattern): (ProtoVariant, TrafficPattern),
        lats: &[u64],
        fig4: &PlanRun,
        fig10: &PlanRun,
    ) -> HostileRow {
        let [sm, mp] = SM_MP.map(|m| result_at(fig4, m, 0.0));
        let growth = || {
            let at = |lat: &u64| result_at(fig10, SM_MP[0], *lat as f64);
            Some(runtime_ratio(at(lats.last()?)?, at(lats.first()?)?))
        };
        HostileRow {
            variant,
            pattern,
            sm_runtime: sm.map(|r| r.runtime_cycles),
            mp_runtime: mp.map(|r| r.runtime_cycles),
            fig10_growth: growth(),
            priority_bypasses: sm.map(|r| r.stats.priority_bypasses),
            low_bypassed: sm.map(|r| r.stats.low_bypassed),
        }
    }

    fn sm_over_mp(&self) -> Option<f64> {
        Some(self.sm_runtime? as f64 / self.mp_runtime? as f64)
    }

    fn cells(&self, app: &str) -> Vec<Cell> {
        vec![
            Cell::text(self.variant.label()),
            Cell::text(self.pattern.label()),
            Cell::text(app),
            Cell::int(self.sm_runtime),
            Cell::int(self.mp_runtime),
            Cell::fixed(self.sm_over_mp(), 3),
            Cell::fixed(self.fig10_growth, 3),
            Cell::int(self.priority_bypasses),
            Cell::int(self.low_bypassed),
        ]
    }
}

/// `repro hostile`: sweeps protocol variant × hostile traffic pattern ×
/// mechanism on EM3D. Each combination gets a fig4-shaped base-machine
/// comparison (the real network carries the hostile streams) and a
/// fig10-shaped latency sweep; every combination's plans are built first
/// and run in one pass. The summary table shows where the
/// criticality-aware variant recovers the baseline's performance under
/// hostile load.
fn run_hostile(a: &HostileArgs) {
    let out_dir = a.csv.as_deref().or(a.dir.as_deref()).unwrap_or(".");
    std::fs::create_dir_all(out_dir).expect("create hostile output dir");

    // Hostile sweeps default to the small workload scale: the *baseline*
    // variant under hotspot/incast is intentionally pathological, and at
    // the bench scale the victim's backlog grows into tens of gigabytes
    // of in-flight packets before the app finishes. `--full` opts into
    // that grind deliberately (combine with `--paper` for paper scale).
    let scale = if a.full {
        a.scale.unwrap_or(Scale::Bench)
    } else {
        Scale::Small
    };
    let spec = commsense_bench::em3d_spec(scale);
    let mechs: Vec<Mechanism> = match scale {
        Scale::Small => SM_MP.to_vec(),
        _ => Mechanism::ALL.to_vec(),
    };
    let lats: &[u64] = match scale {
        Scale::Small => &[30, 800],
        _ => &[30, 200, 800],
    };
    let base_cfg = base_cfg(a.check);
    let nodes = base_cfg.nodes as u16;
    let patterns = [
        TrafficPattern::Uniform,
        TrafficPattern::Hotspot {
            node: 0,
            fraction: 0.5,
        },
        TrafficPattern::Bursty { on: 2, off: 6 },
        TrafficPattern::Incast {
            targets: nodes.min(2),
        },
    ];
    let variants = [ProtoVariant::Baseline, ProtoVariant::CriticalityAware];
    let combos: Vec<_> = variants
        .into_iter()
        .flat_map(|v| patterns.map(|p| (v, p)))
        .collect();

    // Plan: per combination, the Figure 4 shape (every mechanism once on
    // the base machine, the hostile streams flowing through the real
    // mesh), then the Figure 10 shape (sm sweeps the emulated miss
    // latency; mp-poll rides along flat as the paper plots it, the same
    // request as its Figure 4 point).
    let mut plans = Vec::new();
    for &(variant, pattern) in &combos {
        let mut hcfg = base_cfg.clone();
        hcfg.variant = variant;
        let streams = hcfg.net.topo.io_streams();
        let cross = CrossTrafficConfig::consuming(8.0, hcfg.clock(), 64, streams);
        hcfg.cross_traffic = Some(cross.with_pattern(pattern, nodes, 7));
        plans.push(Fig4.plan(&spec, &mechs, &hcfg));
        plans.push(ctx_switch_plan(&spec, &SM_MP, &hcfg, lats));
    }

    // Run.
    let mut session = Session::open(&a.session);
    let runs = session.run_plans(&plans);

    // Render.
    println!("== hostile: protocol variant x traffic pattern x mechanism ==");
    println!(
        "({} at {} scale, {} mechanisms, 8 B/cycle hostile consumption)",
        spec.name(),
        scale.label(),
        mechs.len()
    );
    let mut rows: Vec<HostileRow> = Vec::new();
    for (&(variant, pattern), runs) in combos.iter().zip(runs.chunks(2)) {
        let (fig4, fig10) = (&runs[0], &runs[1]);
        let tag = format!("{}_{}", variant.label(), pattern.label());
        println!("-- {variant} variant, {} traffic --", pattern.label());
        let results = results(&fig4.sweeps);
        for r in &results {
            println!(
                "  {:<8} {:>12} cycles  ({} bypasses{})",
                r.mechanism.label(),
                r.runtime_cycles,
                r.stats.priority_bypasses,
                if r.verified { "" } else { ", UNVERIFIED" }
            );
        }
        let cells = |r: &RunResult| {
            vec![
                Cell::text(r.app),
                Cell::text(r.mechanism.label()),
                Cell::int(r.runtime_cycles),
                Cell::int(r.stats.priority_bypasses),
                Cell::Bool(r.verified),
            ]
        };
        let table = Table::new(HOSTILE_FIG4_HEADER, results.iter().map(cells));
        std::fs::write(format!("{out_dir}/hostile_fig4_{tag}.csv"), table.csv())
            .expect("write hostile fig4-shape csv");
        render_shape(
            fig10,
            ("fig10 shape (vs emulated miss latency)", "miss (cyc)"),
            ("miss_cycles", format!("{out_dir}/hostile_fig10_{tag}.csv")),
        );
        rows.push(HostileRow::measured((variant, pattern), lats, fig4, fig10));
    }

    // Summary: per combination, then the baseline-recovery headline.
    println!("== hostile summary ({}) ==", spec.name());
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>7} {:>10} {:>10}",
        "variant", "pattern", "sm (cyc)", "mp-poll", "sm/mp", "x10 slope", "bypasses"
    );
    for r in &rows {
        println!(
            "{:<10} {:>8} {:>12} {:>12} {:>7} {:>10} {:>10}",
            r.variant.label(),
            r.pattern.label(),
            Cell::int(r.sm_runtime),
            Cell::int(r.mp_runtime),
            Cell::fixed(r.sm_over_mp(), 2),
            Cell::fixed(r.fig10_growth, 2),
            Cell::int(r.priority_bypasses),
        );
    }

    // The headline: how much of the baseline's clean-traffic shared-memory
    // runtime the criticality-aware variant recovers under each pattern.
    println!("== criticality-aware recovery vs baseline ==");
    for pattern in patterns {
        let sm_of = |v| {
            let row = rows
                .iter()
                .find(|r| r.variant == v && r.pattern == pattern)?;
            Some((row.sm_runtime?, row))
        };
        let [Some((base_sm, _)), Some((crit_sm, crit))] = variants.map(sm_of) else {
            continue;
        };
        println!(
            "  {:<8} sm {base_sm} -> {crit_sm} cycles ({:.2}x{}), {} bypasses",
            pattern.label(),
            base_sm as f64 / crit_sm as f64,
            if crit_sm <= base_sm { " faster" } else { "" },
            Cell::int(crit.priority_bypasses),
        );
    }
    let table = Table::new(HOSTILE_HEADER, rows.iter().map(|r| r.cells(spec.name())));
    write_summary(out_dir, "hostile", &table);
    session.finish();
}

/// `repro store stats|gc|verify`: inspect or maintain the store.
fn run_store_admin(a: &StoreArgs) {
    let action = a.action;
    let store = open_store(a.store.as_deref()).unwrap_or_else(|| {
        eprintln!(
            "repro store {action}: pass --store DIR or set COMMSENSE_STORE\n{}",
            cli::USAGE
        );
        std::process::exit(2);
    });
    let report = match action {
        "gc" => store.gc(),
        _ => store.verify(),
    }
    .unwrap_or_else(|e| {
        eprintln!("store scan failed: {e}");
        std::process::exit(1);
    });
    let quarantined = std::fs::read_dir(store.root().join("quarantine"))
        .map(|d| d.count())
        .unwrap_or(0);
    println!("store {} ({action})", store.root().display());
    println!(
        "  records: {} ok ({} bytes), {} stale, {} corrupt, {} quarantined",
        report.ok, report.live_bytes, report.stale, report.corrupt, quarantined
    );
    if action == "gc" {
        println!("  removed: {}", report.removed);
        if let Some(max) = a.max_bytes {
            let ev = store.gc_max_bytes(max).unwrap_or_else(|e| {
                eprintln!("store eviction failed: {e}");
                std::process::exit(1);
            });
            println!(
                "  evicted: {} records ({} bytes); kept {} ({} bytes, cap {max})",
                ev.removed, ev.removed_bytes, ev.kept, ev.kept_bytes
            );
        }
    }
    if action == "verify" && report.corrupt > 0 {
        std::process::exit(1);
    }
}

/// Where `serve` listens and `submit` connects by default.
const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// `repro serve`: the resident sweep daemon (see `commsense-service`).
fn run_serve(a: &ServeArgs) {
    let session = Session::open(&a.session);
    let workers = session.runner.jobs();
    let cfg = commsense_service::shell::ServeConfig {
        addr: a.addr.as_deref().unwrap_or(DEFAULT_ADDR).to_string(),
        workers,
        store: session.runner.store().cloned(),
        retries: 1,
        quiet: a.quiet,
    };
    let server = commsense_service::shell::Server::bind(cfg).unwrap_or_else(|e| {
        eprintln!("cannot bind: {e}");
        std::process::exit(2);
    });
    let addr = server.local_addr().expect("bound socket has an address");
    println!("listening on {addr} ({workers} workers)");
    if let Some(path) = &a.port_file {
        // Write-then-rename so a watcher never reads a half-written file.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{addr}\n")).expect("write port file");
        std::fs::rename(&tmp, path).expect("publish port file");
    }
    if let Err(e) = server.run() {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    }
}

/// `repro submit`: the reference client — submit a plan, stream progress,
/// fetch the CSV artifacts (or query/stop the daemon).
fn run_submit(a: &SubmitArgs) {
    use commsense_service::client;
    use commsense_service::protocol::ServerMsg;
    let addr = match (&a.addr, &a.port_file) {
        (Some(addr), _) => addr.clone(),
        (None, Some(f)) => std::fs::read_to_string(f)
            .unwrap_or_else(|e| {
                eprintln!("cannot read port file {f}: {e}");
                std::process::exit(2);
            })
            .trim()
            .to_string(),
        (None, None) => DEFAULT_ADDR.to_string(),
    };
    let fail = |message: String| -> ! {
        eprintln!("submit: {message}");
        std::process::exit(1);
    };
    if a.stats {
        match client::fetch_stats(&addr) {
            Ok(st) => println!(
                "daemon {addr}: clients={} jobs_active={} jobs_done={} unique_runs={} \
                 running={} simulated={} store_hits={} inflight_hits={}",
                st.clients,
                st.jobs_active,
                st.jobs_done,
                st.unique_runs,
                st.runs_running,
                st.simulated,
                st.store_hits,
                st.inflight_hits
            ),
            Err(e) => fail(e),
        }
        return;
    }
    if a.shutdown {
        match client::request_shutdown(&addr) {
            Ok(()) => println!("daemon {addr} draining"),
            Err(e) => fail(e),
        }
        return;
    }
    let plan = PlanSpec {
        figure: a.figure.unwrap_or(Fig4),
        scale: a.scale.unwrap_or(Scale::Bench),
        apps: a.apps.clone(),
        mechanisms: a.mechs.clone(),
    };
    let id =
        a.id.clone()
            .unwrap_or_else(|| format!("job-{}", std::process::id()));
    let outcome = client::submit(&addr, &id, &plan, |msg| match msg {
        ServerMsg::Accepted { id, total } => println!("accepted {id}: {total} points"),
        ServerMsg::Progress {
            done,
            total,
            app,
            mech,
            x,
            runtime_cycles,
            source,
            ..
        } => println!(
            "[{done}/{total}] {app} {mech} x={x}: {runtime_cycles} cycles ({})",
            source.label()
        ),
        ServerMsg::PointFailed {
            done,
            total,
            app,
            mech,
            x,
            message,
            ..
        } => eprintln!("[{done}/{total}] {app} {mech} x={x}: FAILED: {message}"),
        _ => {}
    })
    .unwrap_or_else(|e| fail(e));
    let st = outcome.stats;
    println!(
        "done: {} points ({} simulated, {} store hits, {} inflight hits, {} failed)",
        st.total, st.simulated, st.store_hits, st.inflight_hits, st.failed
    );
    if let Some(dir) = &a.csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for (name, data) in &outcome.csvs {
            let path = format!("{dir}/{name}");
            std::fs::write(&path, data).expect("write csv");
            println!("  (wrote {path})");
        }
    }
    if st.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_core::experiment::SweepPoint;

    /// A fold of curves `(mechanism, [(x, runtime)])`, each point carried
    /// on one cheap real result.
    fn folded(curves: &[(Mechanism, &[(f64, u64)])]) -> PlanRun {
        let mut p = commsense_workloads::bipartite::Em3dParams::small();
        p.nodes = 64;
        p.degree = 2;
        p.iterations = 1;
        let carrier = commsense_apps::run_app(
            &AppSpec::Em3d(p),
            Mechanism::MsgPoll,
            &MachineConfig::tiny(),
        );
        let sweeps = curves
            .iter()
            .map(|&(mechanism, points)| Sweep {
                app: "EM3D",
                mechanism,
                points: points
                    .iter()
                    .map(|&(x, runtime_cycles)| SweepPoint {
                        x,
                        result: RunResult {
                            mechanism,
                            runtime_cycles,
                            ..carrier.clone()
                        },
                    })
                    .collect(),
            })
            .collect();
        PlanRun {
            sweeps,
            failed: Vec::new(),
            simulated: 0,
            cached: 0,
        }
    }

    const SM: Mechanism = Mechanism::SharedMem;
    const MP: Mechanism = Mechanism::MsgPoll;

    #[test]
    fn hostile_row_with_an_empty_sm_sweep_leaves_its_cells_empty() {
        let combo = (ProtoVariant::Baseline, TrafficPattern::Uniform);
        let fig4 = folded(&[(SM, &[]), (MP, &[(0.0, 7052)])]);
        let fig10 = folded(&[(SM, &[]), (MP, &[(30.0, 7052), (800.0, 7052)])]);
        let row = HostileRow::measured(combo, &[30, 800], &fig4, &fig10);
        assert_eq!(row.sm_runtime, None);
        assert_eq!(row.mp_runtime, Some(7052));
        assert_eq!((row.fig10_growth, row.sm_over_mp()), (None, None));
        assert_eq!((row.priority_bypasses, row.low_bypassed), (None, None));

        let table = Table::new(HOSTILE_HEADER, [row.cells("EM3D")]);
        assert_eq!(
            table.csv().lines().nth(1),
            Some("base,uniform,EM3D,,7052,,,,")
        );
        let manifest = table.manifest("commsense-hostile-manifest");
        manifest::validate_table_manifest(&manifest, "commsense-hostile-manifest", table.header())
            .unwrap();
        assert!(manifest.contains(
            r#""sm_runtime_cycles":null,"mp_poll_runtime_cycles":7052,"sm_over_mp":null"#
        ));
    }

    #[test]
    fn hostile_growth_needs_both_ends_of_the_latency_sweep() {
        let combo = (ProtoVariant::CriticalityAware, TrafficPattern::Uniform);
        let fig4 = folded(&[(SM, &[(0.0, 12000)]), (MP, &[(0.0, 6000)])]);
        let full = folded(&[(SM, &[(30.0, 6000), (800.0, 39000)]), (MP, &[])]);
        let row = HostileRow::measured(combo, &[30, 800], &fig4, &full);
        assert_eq!(row.fig10_growth, Some(6.5));
        assert_eq!(row.sm_over_mp(), Some(2.0));
        // A failed 30-cycle point leaves no honest growth to report.
        let ragged = folded(&[(SM, &[(800.0, 39000)]), (MP, &[])]);
        let row = HostileRow::measured(combo, &[30, 800], &fig4, &ragged);
        assert_eq!(row.fig10_growth, None);
        assert_eq!(row.sm_runtime, Some(12000));
    }

    #[test]
    fn scale_row_with_empty_sweeps_has_no_ratio_or_crossover() {
        let cfg = MachineConfig::scaled("mesh", 64);
        let row = ScaleRow::measured(&cfg, &folded(&[(SM, &[]), (MP, &[])]), &folded(&[]));
        assert_eq!(
            (
                row.sm_over_mp,
                row.fig8_crossover_bpc,
                row.fig10_crossover_cycles
            ),
            (None, None, None)
        );
        let csv = Table::new(SCALE_HEADER, [row.cells()]).csv();
        assert_eq!(csv.lines().nth(1), Some("mesh 8x8,mesh,64,36.000,5.333,,,"));
    }
}
