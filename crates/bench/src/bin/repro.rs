//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [fig1|fig2|fig3|fig4|fig5|fig7|fig8|fig9|fig10|tab1|tab2|all] [--paper] [--csv DIR]
//! ```
//!
//! Default scale is `bench` (seconds per figure); `--paper` uses the
//! paper's workload sizes. With `--csv DIR`, each sweep also lands as a
//! CSV for external plotting. All figures run through one
//! [`Runner`]/[`WorkloadCache`] pair, so each application's workload is
//! generated and solved once, and points run on `--jobs` worker threads
//! (default: `COMMSENSE_JOBS` or all cores).
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
    suite, Scale,
};
use commsense_core::engine::{PlanRun, RunRequest, Runner, WorkloadCache};
use commsense_core::experiment::{bisection_plan, ctx_switch_plan, one_way_latency_cycles, Sweep};
use commsense_core::figures::{self, Figure};
use commsense_core::machines::table1;
use commsense_core::manifest;
use commsense_core::model::{fit_bandwidth, fit_latency};
use commsense_core::regions::{classify, crossover};
use commsense_core::report;
use commsense_core::store::ResultStore;
use commsense_machine::{MachineConfig, Mechanism};

struct Opts {
    what: String,
    store_action: Option<String>,
    scale: Scale,
    csv_dir: Option<String>,
    jobs: Option<usize>,
    gate: Option<f64>,
    app: String,
    mech: Option<String>,
    latency_sweep: bool,
    cross: Option<f64>,
    latency: Option<u64>,
    epoch: u64,
    dir: String,
    check: bool,
    /// `Some("")` = enabled with the directory resolved from
    /// `COMMSENSE_STORE` (or the default); `Some(dir)` = explicit.
    store: Option<String>,
    addr: Option<String>,
    port_file: Option<String>,
    figure: Figure,
    job_id: String,
    apps: Option<String>,
    mechs: Option<String>,
    stats: bool,
    shutdown: bool,
    quiet: bool,
    max_bytes: Option<u64>,
    /// `repro hostile` only: run at the selected (bench/paper) scale
    /// instead of the small default.
    full: bool,
}

const USAGE: &str = "\
usage: repro [WHAT] [--paper|--small] [--csv DIR] [--jobs N] [--check] [--store [DIR]]
       repro store stats|gc|verify [--store [DIR]] [--max-bytes N]
       repro serve [--addr HOST:PORT] [--port-file F] [--jobs N]
                   [--store [DIR]] [--quiet]
       repro submit [--addr HOST:PORT | --port-file F] [--figure FIG]
                    [--apps A[,A..]] [--mechs M[,M..]] [--small|--paper]
                    [--csv DIR] [--id NAME]
       repro submit (--stats | --shutdown) [--addr HOST:PORT | --port-file F]
       repro observe [--app NAME] [--mech LABEL] [--small|--paper]
                     [--cross B_PER_CYCLE] [--latency CYCLES] [--epoch N] [--dir DIR]
       repro analyze [--app NAME] [--mech LABEL] [--latency CYCLES]
                     [--latency-sweep] [--gate PCT] [--small|--paper] [--dir DIR]
       repro scale [--small] [--csv DIR] [--jobs N] [--store [DIR]] [--dir DIR]
       repro hostile [--full] [--csv DIR] [--jobs N] [--check] [--store [DIR]]
                     [--dir DIR]
  WHAT: all (default) | tab1 | tab2 | fig1 | fig2 | fig3 | fig4 | fig5 |
        fig7 | fig8 | fig9 | fig10 | ablate | model | observe | analyze |
        scale | hostile | store | serve | submit
  --paper    use the paper's workload sizes (minutes)
  --small    use unit-test sizes (seconds)
  --csv      also write each sweep as CSV into DIR
  --jobs     worker threads per sweep (default: COMMSENSE_JOBS or all cores)
  --store    persist results in DIR (default: $COMMSENSE_STORE, then
             .commsense-store); warm re-runs replay from the store and an
             interrupted sweep resumes where it stopped. The COMMSENSE_STORE
             environment variable alone also enables it.
  --check    run every machine with the correctness harness (protocol
             invariants, message conservation, SC oracle); on a violation
             the process prints one CHECK-FAIL line and exits non-zero
  --gate     analyze: fail (exit 1) if the worst predicted-vs-simulated
             relative error exceeds PCT percent (needs --latency-sweep)
  --app      observe/analyze: application (EM3D|UNSTRUC|ICCG|MOLDYN; default EM3D)
  --mech     observe/analyze: mechanism label (sm|sm+pf|mp-int|mp-poll|bulk;
             observe default mp-poll; analyze default all five)
  --cross    observe: consume N bytes/cycle of bisection with cross-traffic
  --latency  observe: emulate a uniform remote-miss latency of N cycles;
             analyze: base emulated latency of the traced run (default 30)
  --epoch    observe/analyze: metric sampling period in cycles (default 1000)
  --dir      observe/analyze/scale: output directory for artifacts (default .)
  --latency-sweep  analyze: also run the simulated Figure-10 sweep and
             write critpath_summary.csv with predicted-vs-simulated
             runtime and per-point relative error
  scale      sweep node count x topology through the fig4/8/10 shapes
             (mesh/torus/fat-tree/dragonfly at 32/256/1024 nodes; --small:
             mesh+torus at 64/256); the fig10 shape runs under the
             correctness harness. Writes per-sweep CSVs, scale_summary.csv
             and scale_manifest.json into --csv DIR (default --dir)
  hostile    sweep protocol variant (baseline, criticality-aware) x hostile
             traffic pattern (uniform, hotspot, bursty, incast) x mechanism
             on EM3D: fig4-shaped base runs plus fig10-shaped latency
             sweeps, per-combination CSVs, hostile_summary.csv and
             hostile_manifest.json into --csv DIR (default --dir). Runs at
             the small scale unless --full: baseline-variant runs under
             hotspot/incast are intentionally pathological at full scale
  store stats   print store record/quarantine counts and sizes
  store verify  validate every record's framing and checksum (read-only)
  store gc      delete corrupt and stale-model-version records; with
                --max-bytes N, also evict least-recently-used records
                until the store fits in N bytes
  serve      run the resident sweep daemon: accepts submissions over a
             local TCP socket, dedups points across clients (in flight
             and through the store), streams progress per point
  submit     submit a sweep plan to a running daemon and stream results
  --addr     serve: address to bind (default 127.0.0.1:7171; port 0 picks
             an ephemeral port); submit: daemon address to connect to
  --port-file  serve: write the bound address here once listening;
             submit: read the daemon address from this file
  --figure   submit: fig4 | fig7 | fig8 | fig9 | fig10 (default fig4)
  --apps     submit: comma-separated app names (default: all the figure plots)
  --mechs    submit: comma-separated mechanism labels (default: all the
             figure plots)
  --id       submit: job id echoed in every response line (default job-PID)
  --stats    submit: print a daemon statistics snapshot and exit
  --shutdown submit: ask the daemon to drain and exit
  --quiet    serve: suppress per-connection log lines
  --max-bytes  store gc: evict LRU records beyond this size";

const KNOWN: [&str; 22] = [
    "all", "tab1", "tab2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10",
    "ablate", "model", "fig6", "observe", "analyze", "scale", "hostile", "store", "serve",
    "submit",
];

const STORE_ACTIONS: [&str; 3] = ["stats", "gc", "verify"];

/// The operand of the valued flag `flag`, taken from `argv[*i]` and
/// converted by `parse`. Exits 2 with "`flag` needs `what`" when the operand
/// is missing, is itself a flag, or does not convert.
fn operand<T>(
    argv: &[String],
    i: &mut usize,
    flag: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    match argv
        .get(*i)
        .filter(|v| !v.starts_with("--"))
        .and_then(|v| parse(v))
    {
        Some(v) => {
            *i += 1;
            v
        }
        None => {
            eprintln!("{flag} needs {what}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// [`operand`]'s conversion for free-form text.
fn text(v: &str) -> Option<String> {
    Some(v.to_string())
}

fn parse_args() -> Opts {
    let mut what = "all".to_string();
    let mut store_action = None;
    let mut scale = Scale::Bench;
    let mut csv_dir = None;
    let mut jobs = None;
    let mut gate = None;
    let mut app = "EM3D".to_string();
    let mut mech = None;
    let mut latency_sweep = false;
    let mut cross = None;
    let mut latency = None;
    let mut epoch = 1_000u64;
    let mut dir = ".".to_string();
    let mut check = false;
    let mut store = None;
    let mut addr = None;
    let mut port_file = None;
    let mut figure = Figure::Fig4;
    let mut job_id = format!("job-{}", std::process::id());
    let mut apps = None;
    let mut mechs = None;
    let mut stats = false;
    let mut shutdown = false;
    let mut quiet = false;
    let mut max_bytes = None;
    let mut full = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let a = argv[i].clone();
        i += 1;
        let (argv, i, flag) = (&argv, &mut i, a.as_str());
        match flag {
            "--paper" => scale = Scale::Paper,
            "--full" => full = true,
            "--small" => scale = Scale::Small,
            "--check" => check = true,
            "--csv" => csv_dir = Some(operand(argv, i, flag, "a directory", text)),
            "--store" => {
                // The directory operand is optional: a following token
                // that is a command or another flag belongs to the rest of
                // the line, and the directory comes from COMMSENSE_STORE
                // (or the default) instead.
                match argv.get(*i) {
                    Some(v) if !v.starts_with('-') && !KNOWN.contains(&v.as_str()) => {
                        store = Some(v.clone());
                        *i += 1;
                    }
                    _ => store = Some(String::new()),
                }
            }
            "--app" => app = operand(argv, i, flag, "an application name", text),
            "--mech" => mech = Some(operand(argv, i, flag, "a mechanism label", text)),
            "--latency-sweep" => latency_sweep = true,
            "--addr" => addr = Some(operand(argv, i, flag, "HOST:PORT", text)),
            "--port-file" => port_file = Some(operand(argv, i, flag, "a file path", text)),
            "--figure" => figure = operand(argv, i, flag, &Figure::choices(), Figure::from_label),
            "--id" => job_id = operand(argv, i, flag, "a job id", text),
            "--apps" => apps = Some(operand(argv, i, flag, "a comma-separated list", text)),
            "--mechs" => mechs = Some(operand(argv, i, flag, "a comma-separated list", text)),
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--quiet" => quiet = true,
            "--max-bytes" => {
                max_bytes = Some(operand(argv, i, flag, "a byte count", |v| v.parse().ok()))
            }
            "--dir" => dir = operand(argv, i, flag, "a directory", text),
            "--gate" => {
                gate = Some(operand(argv, i, flag, "a percentage in (0, 100)", |v| {
                    v.parse().ok().filter(|p| *p > 0.0 && *p < 100.0)
                }))
            }
            "--cross" => {
                cross = Some(operand(argv, i, flag, "a non-negative number", |v| {
                    v.parse().ok().filter(|c| *c >= 0.0)
                }))
            }
            "--latency" => {
                latency = Some(operand(argv, i, flag, "a cycle count", |v| v.parse().ok()))
            }
            "--epoch" => {
                epoch = operand(argv, i, flag, "a positive cycle count", |v| {
                    v.parse().ok().filter(|n| *n > 0)
                })
            }
            "--jobs" => {
                jobs = Some(operand(argv, i, flag, "a positive integer", |v| {
                    v.parse().ok().filter(|n| *n > 0)
                }))
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            action if what == "store" && STORE_ACTIONS.contains(&action) => {
                store_action = Some(action.to_string())
            }
            other if KNOWN.contains(&other) => what = other.to_string(),
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if what == "fig6" {
        println!(
            "Figure 6 is the cross-traffic diagram; it is structural — see \
             commsense-mesh's crosstraffic module and its tests."
        );
        std::process::exit(0);
    }
    Opts {
        what,
        store_action,
        scale,
        csv_dir,
        jobs,
        gate,
        app,
        mech,
        latency_sweep,
        cross,
        latency,
        epoch,
        dir,
        check,
        store,
        addr,
        port_file,
        figure,
        job_id,
        apps,
        mechs,
        stats,
        shutdown,
        quiet,
        max_bytes,
        full,
    }
}

/// Resolves the persistent store from `--store` / `COMMSENSE_STORE`, or
/// `None` when neither enables it.
fn open_store(opts: &Opts) -> Option<Arc<ResultStore>> {
    let env_dir = std::env::var("COMMSENSE_STORE")
        .ok()
        .filter(|s| !s.is_empty());
    let dir = match (&opts.store, env_dir) {
        (Some(d), _) if !d.is_empty() => d.clone(),
        (Some(_), Some(env)) => env,
        (Some(_), None) => ".commsense-store".to_string(),
        (None, Some(env)) => env,
        (None, None) => return None,
    };
    match ResultStore::open(&dir) {
        Ok(s) => Some(Arc::new(s)),
        Err(e) => {
            eprintln!("cannot open store {dir}: {e}");
            std::process::exit(2);
        }
    }
}

/// `repro store stats|gc|verify`: inspect or maintain the store.
fn run_store_admin(opts: &Opts) {
    let action = opts.store_action.as_deref().unwrap_or("stats");
    let store = open_store(opts).unwrap_or_else(|| {
        eprintln!("repro store {action}: pass --store DIR or set COMMSENSE_STORE\n{USAGE}");
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
        if let Some(max) = opts.max_bytes {
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

/// `repro serve`: the resident sweep daemon (see `commsense-service`).
fn run_serve(opts: &Opts) {
    let store = open_store(opts);
    if let Some(s) = &store {
        println!("(persistent store: {})", s.root().display());
    }
    let workers = opts.jobs.unwrap_or_else(|| Runner::from_env().jobs());
    let cfg = commsense_service::shell::ServeConfig {
        addr: opts
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:7171".to_string()),
        workers,
        store,
        retries: 1,
        quiet: opts.quiet,
    };
    let server = commsense_service::shell::Server::bind(cfg).unwrap_or_else(|e| {
        eprintln!("cannot bind: {e}");
        std::process::exit(2);
    });
    let addr = server.local_addr().expect("bound socket has an address");
    println!("listening on {addr} ({workers} workers)");
    if let Some(path) = &opts.port_file {
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
fn run_submit(opts: &Opts) {
    use commsense_service::client;
    use commsense_service::protocol::{PlanSpec, ServerMsg};
    let addr = match (&opts.addr, &opts.port_file) {
        (Some(a), _) => a.clone(),
        (None, Some(f)) => std::fs::read_to_string(f)
            .unwrap_or_else(|e| {
                eprintln!("cannot read port file {f}: {e}");
                std::process::exit(2);
            })
            .trim()
            .to_string(),
        (None, None) => "127.0.0.1:7171".to_string(),
    };
    let fail = |message: String| -> ! {
        eprintln!("submit: {message}");
        std::process::exit(1);
    };
    if opts.stats {
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
    if opts.shutdown {
        match client::request_shutdown(&addr) {
            Ok(()) => println!("daemon {addr} draining"),
            Err(e) => fail(e),
        }
        return;
    }
    let split = |s: &Option<String>| -> Vec<String> {
        s.as_deref()
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    let plan = PlanSpec {
        figure: opts.figure,
        scale: opts.scale,
        apps: split(&opts.apps),
        mechanisms: split(&opts.mechs),
    };
    let outcome = client::submit(&addr, &opts.job_id, &plan, |msg| match msg {
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
    if let Some(dir) = &opts.csv_dir {
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

/// Prints one figure's store traffic as the delta against the counters
/// captured when the figure started.
fn report_figure_store(
    store: Option<&Arc<ResultStore>>,
    figure: &str,
    before: commsense_core::store::StoreStats,
) -> commsense_core::store::StoreStats {
    let Some(store) = store else {
        return before;
    };
    let now = store.stats();
    println!(
        "store[{figure}]: hits={} misses={}",
        now.hits - before.hits,
        now.misses - before.misses
    );
    now
}

/// Prints warnings for the failed points of a fault-tolerant plan run.
fn warn_failed(app: &str, run: &PlanRun) {
    for f in &run.failed {
        eprintln!(
            "  FAILED {app}/{} at x={} after {} attempts: {}",
            f.mechanism.label(),
            f.x,
            f.attempts,
            f.message
        );
    }
}

/// Runs `fig`'s plan for `spec` (every mechanism the figure plots) on the
/// shared runner and workload cache, warning about failed points.
fn run_figure(
    fig: Figure,
    spec: &AppSpec,
    runner: &Runner,
    cache: &mut WorkloadCache,
    cfg: &MachineConfig,
) -> PlanRun {
    let run = fig
        .plan(spec, fig.mechanisms(), cfg)
        .run_reported(runner, cache);
    warn_failed(spec.name(), &run);
    run
}

/// A Figure 4 run's surviving results, in mechanism order.
fn base_results(run: &PlanRun) -> Vec<RunResult> {
    run.sweeps
        .iter()
        .flat_map(|s| &s.points)
        .map(|p| p.result.clone())
        .collect()
}

/// With `--csv DIR`, writes `fig`'s CSV for `app` into DIR.
fn write_csv(opts: &Opts, fig: Figure, app: &str, sweeps: &[Sweep], cfg: &MachineConfig) {
    let Some(dir) = &opts.csv_dir else { return };
    std::fs::create_dir_all(dir).expect("create csv dir");
    let path = format!("{dir}/{}", fig.csv_name(app));
    std::fs::write(&path, fig.render(app, sweeps, cfg)).expect("write csv");
    println!("  (wrote {path})");
}

/// Resolves `--app` against the suite at the selected scale.
fn resolve_spec(opts: &Opts) -> AppSpec {
    suite(opts.scale)
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(&opts.app))
        .unwrap_or_else(|| {
            eprintln!("unknown --app {:?} (EM3D|UNSTRUC|ICCG|MOLDYN)", opts.app);
            std::process::exit(2);
        })
}

/// Resolves a `--mech` label against the five mechanisms.
fn resolve_mech(label: &str) -> Mechanism {
    Mechanism::ALL
        .into_iter()
        .find(|m| m.label() == label)
        .unwrap_or_else(|| {
            eprintln!("unknown --mech {label:?} (sm|sm+pf|mp-int|mp-poll|bulk)");
            std::process::exit(2);
        })
}

/// `repro observe`: one deeply-instrumented run — writes a Perfetto trace
/// and a run manifest, and prints the per-link utilization heatmap.
fn run_observe(opts: &Opts) {
    let spec = resolve_spec(opts);
    let mech = resolve_mech(opts.mech.as_deref().unwrap_or("mp-poll"));
    let mut cfg = cfg(opts.check).with_mechanism(mech);
    if let Some(c) = opts.cross {
        cfg.cross_traffic = Some(commsense_mesh::CrossTrafficConfig::consuming(
            c,
            cfg.clock(),
            64,
            cfg.net.topo.build().io_streams(),
        ));
    }
    if let Some(l) = opts.latency {
        cfg.latency_emulation = Some(commsense_machine::LatencyEmulation::uniform(l));
    }
    cfg.observe = Some(commsense_machine::ObserveConfig {
        epoch_cycles: opts.epoch,
        ..Default::default()
    });

    println!(
        "== observe: {} under {} ({} cross, {} latency emulation) ==",
        spec.name(),
        mech.label(),
        opts.cross
            .map_or("no".to_string(), |c| format!("{c} B/cycle")),
        opts.latency
            .map_or("no".to_string(), |l| format!("{l}-cycle")),
    );
    let req = commsense_core::engine::RunRequest {
        spec,
        mechanism: mech,
        cfg,
    };
    let result = commsense_apps::run_app(&req.spec, req.mechanism, &req.cfg);
    let obs = result
        .observation
        .as_ref()
        .expect("observe config implies an observation");

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

    std::fs::create_dir_all(&opts.dir).expect("create output dir");
    let stem = format!(
        "{}/observe_{}_{}",
        opts.dir,
        req.spec.name().to_lowercase(),
        mech.label().replace('+', "p"),
    );
    let trace_path = format!("{stem}.perfetto.json");
    std::fs::write(&trace_path, commsense_machine::perfetto::export_trace(obs))
        .expect("write perfetto trace");
    let manifest = manifest::manifest_json(&req, opts.cross, &result);
    manifest::validate_manifest(&manifest).expect("fresh manifest must validate");
    let manifest_path = format!("{stem}.manifest.json");
    std::fs::write(&manifest_path, manifest).expect("write manifest");
    println!("(wrote {trace_path})");
    println!("(wrote {manifest_path} — open the trace at https://ui.perfetto.dev)");
}

/// One mechanism's analyzed run: the instrumented base-latency runtime
/// plus its extracted critical path.
struct Analyzed {
    mech: Mechanism,
    base_runtime: u64,
    cp: commsense_machine::CritPath,
}

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
fn run_analyze(opts: &Opts) {
    let spec = resolve_spec(opts);
    let mechs: Vec<Mechanism> = match opts.mech.as_deref() {
        Some(label) => vec![resolve_mech(label)],
        None => Mechanism::ALL.to_vec(),
    };
    let base_lat = opts.latency.unwrap_or(30);
    std::fs::create_dir_all(&opts.dir).expect("create output dir");
    println!(
        "== analyze: {} critical path ({base_lat}-cycle emulated remote misses) ==",
        spec.name()
    );

    let mut analyzed: Vec<Analyzed> = Vec::new();
    for &mech in &mechs {
        let mut cfg = cfg(opts.check).with_mechanism(mech);
        // Emulation at the base latency makes traversal counting exact:
        // every latency-clamped remote stall on the path lasts >= L, and
        // everything else stays far below it on the ideal protocol
        // network. The mp mechanisms see (nearly) no such stalls, so
        // their predicted curves come out flat — as the paper plots them.
        cfg.latency_emulation = Some(commsense_machine::LatencyEmulation::uniform(base_lat));
        cfg.observe = Some(commsense_machine::ObserveConfig {
            epoch_cycles: opts.epoch,
            ..Default::default()
        });
        let req = commsense_core::engine::RunRequest {
            spec: spec.clone(),
            mechanism: mech,
            cfg,
        };
        let result = commsense_apps::run_app(&req.spec, req.mechanism, &req.cfg);
        let obs = result
            .observation
            .as_ref()
            .expect("observe config implies an observation");
        let cp = commsense_machine::analyze(obs, &req.cfg);
        print!(
            "{}",
            cp.render_table(&format!("{} / {}", spec.name(), mech.label()))
        );
        println!();

        let stem = format!(
            "{}/analyze_{}_{}",
            opts.dir,
            spec.name().to_lowercase(),
            mech.label().replace('+', "p"),
        );
        let breakdown_path = format!(
            "{}/critpath_breakdown_{}_{}.csv",
            opts.dir,
            spec.name().to_lowercase(),
            mech.label().replace('+', "p"),
        );
        std::fs::write(&breakdown_path, cp.breakdown_csv()).expect("write breakdown csv");
        std::fs::write(
            format!("{stem}.perfetto.json"),
            commsense_machine::perfetto::export_trace_critical(obs, &cp.critical_records),
        )
        .expect("write perfetto trace");
        let manifest = manifest::manifest_json_with_analysis(&req, None, &result, Some(&cp));
        manifest::validate_manifest(&manifest).expect("fresh manifest must validate");
        std::fs::write(format!("{stem}.manifest.json"), manifest).expect("write manifest");
        println!("(wrote {breakdown_path}, {stem}.perfetto.json, {stem}.manifest.json)");
        analyzed.push(Analyzed {
            mech,
            base_runtime: result.runtime_cycles,
            cp,
        });
    }

    if !opts.latency_sweep {
        if opts.gate.is_some() {
            eprintln!("--gate needs --latency-sweep under analyze\n{USAGE}");
            std::process::exit(2);
        }
        return;
    }

    // Validation: the simulated Figure-10 sweep next to the predicted
    // curves. The prediction extrapolates the single instrumented run:
    // T(L) = T(base) + slope * (L - base).
    println!("== analyze: predicted vs simulated Figure-10 curves ==");
    let run = Figure::Fig10
        .plan(&spec, &mechs, &cfg(opts.check))
        .run_reported(&Runner::from_env(), &mut WorkloadCache::new());
    warn_failed(spec.name(), &run);
    let mut summary = String::from(
        "app,mechanism,latency_cycles,simulated_cycles,predicted_cycles,rel_err,\
         predicted_slope,fitted_slope\n",
    );
    let mut worst: f64 = 0.0;
    for a in &analyzed {
        let Some(sweep) = run.sweeps.iter().find(|s| s.mechanism == a.mech) else {
            eprintln!(
                "  no simulated sweep for {} (all points failed)",
                a.mech.label()
            );
            continue;
        };
        let fitted = fit_latency(sweep).map(|m| m.d1);
        println!(
            "{} / {}: predicted slope {:.2}, fitted simulated slope {}",
            spec.name(),
            a.mech.label(),
            a.cp.predicted_slope(),
            fitted.map_or("n/a".to_string(), |d| format!("{d:.2}")),
        );
        println!(
            "  {:>10} {:>12} {:>12} {:>8}",
            "lat (cyc)", "simulated", "predicted", "err"
        );
        for p in &sweep.points {
            let sim = p.result.runtime_cycles as f64;
            let predicted =
                a.cp.predict_runtime_cycles(a.base_runtime, base_lat, p.x as u64);
            let rel = (predicted - sim).abs() / sim;
            worst = worst.max(rel);
            println!(
                "  {:>10.0} {:>12.0} {:>12.0} {:>7.1}%",
                p.x,
                sim,
                predicted,
                rel * 100.0
            );
            summary.push_str(&format!(
                "{},{},{:.0},{:.0},{:.0},{:.4},{:.2},{}\n",
                spec.name(),
                a.mech.label(),
                p.x,
                sim,
                predicted,
                rel,
                a.cp.predicted_slope(),
                fitted.map_or(String::new(), |d| format!("{d:.2}")),
            ));
        }
    }
    let summary_path = format!("{}/critpath_summary.csv", opts.dir);
    std::fs::write(&summary_path, summary).expect("write critpath summary");
    println!("(wrote {summary_path})");
    if let Some(pct) = opts.gate {
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

/// One (topology, node count) line of the `repro scale` summary.
struct ScaleRow {
    topo: commsense_mesh::TopoSpec,
    bisection_bpc: f64,
    mean_hops: f64,
    sm_over_mp: Option<f64>,
    fig8_crossover_bpc: Option<f64>,
    fig10_crossover_cycles: Option<f64>,
}

/// [`crossover`] that tolerates fault-tolerant sweeps with dropped points
/// (misaligned sweeps cannot be interpolated and report no crossover).
fn safe_crossover(a: &Sweep, b: &Sweep) -> Option<f64> {
    let aligned = a.points.len() == b.points.len()
        && a.points
            .iter()
            .zip(&b.points)
            .all(|(pa, pb)| (pa.x - pb.x).abs() < 1e-9);
    if aligned {
        crossover(a, b)
    } else {
        None
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or(String::new(), |x| format!("{x:.2}"))
}

/// `repro scale`: sweeps node count × topology through the Figure 4/8/10
/// experiment shapes and summarizes how the mechanism crossovers move with
/// machine size. The fig10-shape sweep runs under the full correctness
/// harness, so the protocol invariants are exercised at every scale.
fn run_scale(opts: &Opts) {
    let (kinds, node_counts): (Vec<&str>, Vec<usize>) = match opts.scale {
        Scale::Small => (vec!["mesh", "torus"], vec![64, 256]),
        _ => (
            commsense_mesh::TopoSpec::KINDS.to_vec(),
            vec![32, 256, 1024],
        ),
    };
    let out_dir = opts.csv_dir.clone().unwrap_or_else(|| opts.dir.clone());
    std::fs::create_dir_all(&out_dir).expect("create scale output dir");

    let store = open_store(opts);
    let mut runner = Runner::from_env();
    if let Some(s) = &store {
        println!("(persistent store: {})", s.root().display());
        runner = runner.with_store(s.clone());
    }
    let mut cache = WorkloadCache::new();
    let sm_mp = [Mechanism::SharedMem, Mechanism::MsgPoll];
    let lats = [50u64, 200, 800];

    println!("== scale: mechanism crossovers vs machine size ==");
    println!("(topologies {kinds:?} at {node_counts:?} nodes)");
    let mut rows: Vec<ScaleRow> = Vec::new();
    for &nodes in &node_counts {
        // EM3D grows with the machine so each node keeps real work; the
        // workload is shared across topologies of the same size.
        let spec = {
            let mut p = commsense_workloads::bipartite::Em3dParams::small();
            p.nodes = (4 * nodes).max(2000);
            p.iterations = 3;
            commsense_apps::AppSpec::Em3d(p)
        };
        for kind in &kinds {
            let cfg = MachineConfig::scaled(kind, nodes);
            let topo = cfg.net.topo;
            let built = topo.build();
            let bpc = cfg.net.bisection_bytes_per_cycle(cfg.clock());
            let mean_hops = built.mean_hops();
            println!(
                "-- {} ({} nodes, {bpc:.1} B/cycle bisection, mean hops {mean_hops:.2}) --",
                topo.describe(),
                cfg.nodes,
            );
            let tag = format!("{}_{}", kind.replace('-', ""), cfg.nodes);

            // Figure 8 shape: consume none, half, and three quarters of
            // this machine's own bisection. The zero-consumption points
            // double as the Figure 4-shape base comparison.
            let consumed = [0.0, bpc * 0.5, bpc * 0.75];
            let run8 = bisection_plan(&spec, &sm_mp, &cfg, &consumed, 64)
                .run_reported(&runner, &mut cache);
            warn_failed(spec.name(), &run8);
            print!(
                "{}",
                report::sweep_table(
                    "fig8 shape (vs emulated bisection)",
                    "B/cycle",
                    &run8.sweeps
                )
            );
            let sm_over_mp = match (run8.sweeps[0].point_at(bpc), run8.sweeps[1].point_at(bpc)) {
                (Some(sm), Some(mp)) => {
                    let r = sm.result.runtime_cycles as f64 / mp.result.runtime_cycles as f64;
                    println!("  fig4 shape at full bisection: sm/mp-poll = {r:.2}");
                    Some(r)
                }
                _ => None,
            };
            let fig8_crossover_bpc = safe_crossover(&run8.sweeps[0], &run8.sweeps[1]);
            if let Some(x) = fig8_crossover_bpc {
                println!("  sm crosses above mp-poll at ~{x:.1} B/cycle");
            }
            std::fs::write(
                format!("{out_dir}/scale_fig8_{tag}.csv"),
                report::sweep_csv("bytes_per_cycle", &run8.sweeps),
            )
            .expect("write fig8-shape csv");

            // Figure 10 shape: latency emulation under the correctness
            // harness — the invariant checker must hold at every scale.
            let mut cfg10 = cfg.clone();
            cfg10.check = Some(commsense_machine::CheckConfig::full());
            let run10 =
                ctx_switch_plan(&spec, &sm_mp, &cfg10, &lats).run_reported(&runner, &mut cache);
            warn_failed(spec.name(), &run10);
            print!(
                "{}",
                report::sweep_table(
                    "fig10 shape (vs emulated miss latency, checker on)",
                    "miss (cyc)",
                    &run10.sweeps
                )
            );
            let fig10_crossover_cycles = safe_crossover(&run10.sweeps[0], &run10.sweeps[1]);
            if let Some(x) = fig10_crossover_cycles {
                println!("  sm crosses above mp-poll at ~{x:.0}-cycle misses");
            }
            std::fs::write(
                format!("{out_dir}/scale_fig10_{tag}.csv"),
                report::sweep_csv("miss_cycles", &run10.sweeps),
            )
            .expect("write fig10-shape csv");
            println!();

            rows.push(ScaleRow {
                topo,
                bisection_bpc: bpc,
                mean_hops,
                sm_over_mp,
                fig8_crossover_bpc,
                fig10_crossover_cycles,
            });
        }
    }

    // Crossover-vs-scale summary: the headline table of the sweep.
    println!("== crossover vs scale ==");
    println!(
        "{:<16} {:>6} {:>8} {:>6} {:>8} {:>10} {:>12}",
        "topology", "nodes", "bis B/c", "hops", "sm/mp", "x8 (B/c)", "x10 (cyc)"
    );
    let mut summary = String::from(
        "topology,kind,nodes,bisection_bytes_per_cycle,mean_hops,\
         sm_over_mp_base,fig8_crossover_bpc,fig10_crossover_cycles\n",
    );
    let mut manifest = String::from(
        "{\n  \"kind\": \"commsense-scale-manifest\",\n  \"schema_version\": 1,\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:<16} {:>6} {:>8.1} {:>6.2} {:>6} {:>10} {:>12}",
            r.topo.describe(),
            r.topo.num_nodes(),
            r.bisection_bpc,
            r.mean_hops,
            fmt_opt(r.sm_over_mp),
            fmt_opt(r.fig8_crossover_bpc),
            fmt_opt(r.fig10_crossover_cycles),
        );
        summary.push_str(&format!(
            "{},{},{},{:.3},{:.3},{},{},{}\n",
            r.topo.describe(),
            r.topo.kind(),
            r.topo.num_nodes(),
            r.bisection_bpc,
            r.mean_hops,
            fmt_opt(r.sm_over_mp),
            fmt_opt(r.fig8_crossover_bpc),
            fmt_opt(r.fig10_crossover_cycles),
        ));
        let json_opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{:.3}", x));
        manifest.push_str(&format!(
            "    {{\"topology\": \"{}\", \"kind\": \"{}\", \"nodes\": {}, \
             \"bisection_bytes_per_cycle\": {:.3}, \"mean_hops\": {:.3}, \
             \"sm_over_mp_base\": {}, \"fig8_crossover_bpc\": {}, \
             \"fig10_crossover_cycles\": {}}}{}\n",
            r.topo.describe(),
            r.topo.kind(),
            r.topo.num_nodes(),
            r.bisection_bpc,
            r.mean_hops,
            json_opt(r.sm_over_mp),
            json_opt(r.fig8_crossover_bpc),
            json_opt(r.fig10_crossover_cycles),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    manifest.push_str("  ]\n}\n");
    let summary_path = format!("{out_dir}/scale_summary.csv");
    std::fs::write(&summary_path, summary).expect("write scale summary");
    let manifest_path = format!("{out_dir}/scale_manifest.json");
    std::fs::write(&manifest_path, manifest).expect("write scale manifest");
    println!("(wrote {summary_path})");
    println!("(wrote {manifest_path})");
    if let Some(s) = &store {
        let st = s.stats();
        println!("store summary: hits={} misses={}", st.hits, st.misses);
    }
}

/// One (variant, pattern) combination's summary measurements.
struct HostileRow {
    variant: commsense_machine::ProtoVariant,
    pattern: commsense_mesh::TrafficPattern,
    sm_runtime: u64,
    mp_runtime: u64,
    fig10_growth: f64,
    priority_bypasses: u64,
    low_bypassed: u64,
}

/// `repro hostile`: sweeps protocol variant × hostile traffic pattern ×
/// mechanism on EM3D. Each combination gets a fig4-shaped base-machine
/// comparison (the real network carries the hostile streams) and a
/// fig10-shaped latency sweep; the summary table shows where the
/// criticality-aware variant recovers the baseline's performance under
/// hostile load.
fn run_hostile(opts: &Opts) {
    use commsense_machine::ProtoVariant;
    use commsense_mesh::{CrossTrafficConfig, TrafficPattern};

    let out_dir = opts.csv_dir.clone().unwrap_or_else(|| opts.dir.clone());
    std::fs::create_dir_all(&out_dir).expect("create hostile output dir");
    let store = open_store(opts);
    let mut runner = Runner::from_env();
    if let Some(s) = &store {
        println!("(persistent store: {})", s.root().display());
        runner = runner.with_store(s.clone());
    }
    let mut cache = WorkloadCache::new();

    // Hostile sweeps default to the small workload scale: the *baseline*
    // variant under hotspot/incast is intentionally pathological, and at
    // the bench scale the victim's backlog grows into tens of gigabytes
    // of in-flight packets before the app finishes. `--full` opts into
    // that grind deliberately (combine with `--paper` for paper scale).
    let scale = if opts.full { opts.scale } else { Scale::Small };
    let spec = commsense_bench::em3d_spec(scale);
    let mechs: Vec<Mechanism> = match scale {
        Scale::Small => vec![Mechanism::SharedMem, Mechanism::MsgPoll],
        _ => Mechanism::ALL.to_vec(),
    };
    let lats: &[u64] = match scale {
        Scale::Small => &[30, 800],
        _ => &[30, 200, 800],
    };
    let base_cfg = cfg(opts.check);
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

    println!("== hostile: protocol variant x traffic pattern x mechanism ==");
    println!(
        "({} at {} scale, {} mechanisms, 8 B/cycle hostile consumption)",
        spec.name(),
        scale.label(),
        mechs.len()
    );
    let mut rows: Vec<HostileRow> = Vec::new();
    for &variant in &variants {
        for &pattern in &patterns {
            let mut hcfg = base_cfg.clone();
            hcfg.variant = variant;
            hcfg.cross_traffic = Some(
                CrossTrafficConfig::consuming(
                    8.0,
                    hcfg.clock(),
                    64,
                    hcfg.net.topo.build().io_streams(),
                )
                .with_pattern(pattern, nodes, 7),
            );
            let tag = format!("{}_{}", variant.label(), pattern.label());
            println!(
                "-- {} variant, {} traffic --",
                variant.label(),
                pattern.label()
            );

            // Fig4 shape: every mechanism once on the base machine, the
            // hostile streams flowing through the real mesh.
            let requests: Vec<RunRequest> = mechs
                .iter()
                .map(|&mech| RunRequest {
                    spec: spec.clone(),
                    mechanism: mech,
                    cfg: hcfg.clone().with_mechanism(mech),
                })
                .collect();
            let results = runner.run_cached(&requests, &mut cache);
            let mut fig4_csv = String::from("app,mech,runtime_cycles,priority_bypasses,verified\n");
            for r in &results {
                println!(
                    "  {:<8} {:>12} cycles  ({} bypasses{})",
                    r.mechanism.label(),
                    r.runtime_cycles,
                    r.stats.priority_bypasses,
                    if r.verified { "" } else { ", UNVERIFIED" }
                );
                fig4_csv.push_str(&format!(
                    "{},{},{},{},{}\n",
                    r.app,
                    r.mechanism.label(),
                    r.runtime_cycles,
                    r.stats.priority_bypasses,
                    r.verified
                ));
            }
            std::fs::write(format!("{out_dir}/hostile_fig4_{tag}.csv"), fig4_csv)
                .expect("write hostile fig4-shape csv");

            // Fig10 shape: sm sweeps the emulated miss latency; mp-poll
            // rides along flat as the paper plots it.
            let sweep_mechs = [Mechanism::SharedMem, Mechanism::MsgPoll];
            let run10 =
                ctx_switch_plan(&spec, &sweep_mechs, &hcfg, lats).run_reported(&runner, &mut cache);
            warn_failed(spec.name(), &run10);
            print!(
                "{}",
                report::sweep_table(
                    "fig10 shape (vs emulated miss latency)",
                    "miss (cyc)",
                    &run10.sweeps
                )
            );
            std::fs::write(
                format!("{out_dir}/hostile_fig10_{tag}.csv"),
                report::sweep_csv("miss_cycles", &run10.sweeps),
            )
            .expect("write hostile fig10-shape csv");

            let sm = results
                .iter()
                .find(|r| r.mechanism == Mechanism::SharedMem)
                .expect("sm measured");
            let mp = results
                .iter()
                .find(|r| r.mechanism == Mechanism::MsgPoll)
                .expect("mp-poll measured");
            let r10 = run10.sweeps[0].runtimes();
            rows.push(HostileRow {
                variant,
                pattern,
                sm_runtime: sm.runtime_cycles,
                mp_runtime: mp.runtime_cycles,
                fig10_growth: *r10.last().unwrap() as f64 / r10[0] as f64,
                priority_bypasses: sm.stats.priority_bypasses,
                low_bypassed: sm.stats.low_bypassed,
            });
        }
    }

    // Summary: per combination, then the baseline-recovery headline.
    println!("== hostile summary ({}) ==", spec.name());
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>7} {:>10} {:>10}",
        "variant", "pattern", "sm (cyc)", "mp-poll", "sm/mp", "x10 slope", "bypasses"
    );
    let mut summary = String::from(
        "variant,pattern,app,sm_runtime_cycles,mp_poll_runtime_cycles,sm_over_mp,\
         fig10_sm_growth,priority_bypasses,low_bypassed\n",
    );
    let mut manifest = String::from(
        "{\n  \"kind\": \"commsense-hostile-manifest\",\n  \"schema_version\": 1,\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let ratio = r.sm_runtime as f64 / r.mp_runtime as f64;
        println!(
            "{:<10} {:>8} {:>12} {:>12} {:>7.2} {:>10.2} {:>10}",
            r.variant.label(),
            r.pattern.label(),
            r.sm_runtime,
            r.mp_runtime,
            ratio,
            r.fig10_growth,
            r.priority_bypasses,
        );
        summary.push_str(&format!(
            "{},{},{},{},{},{:.3},{:.3},{},{}\n",
            r.variant.label(),
            r.pattern.label(),
            spec.name(),
            r.sm_runtime,
            r.mp_runtime,
            ratio,
            r.fig10_growth,
            r.priority_bypasses,
            r.low_bypassed,
        ));
        manifest.push_str(&format!(
            "    {{\"variant\": \"{}\", \"pattern\": \"{}\", \"app\": \"{}\", \
             \"sm_runtime_cycles\": {}, \"mp_poll_runtime_cycles\": {}, \
             \"sm_over_mp\": {:.3}, \"fig10_sm_growth\": {:.3}, \
             \"priority_bypasses\": {}, \"low_bypassed\": {}}}{}\n",
            r.variant.label(),
            r.pattern.label(),
            spec.name(),
            r.sm_runtime,
            r.mp_runtime,
            ratio,
            r.fig10_growth,
            r.priority_bypasses,
            r.low_bypassed,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    manifest.push_str("  ]\n}\n");

    // The headline: how much of the baseline's clean-traffic shared-memory
    // runtime the criticality-aware variant recovers under each pattern.
    println!("== criticality-aware recovery vs baseline ==");
    for &pattern in &patterns {
        let of = |v: ProtoVariant| rows.iter().find(|r| r.variant == v && r.pattern == pattern);
        if let (Some(base), Some(crit)) = (
            of(ProtoVariant::Baseline),
            of(ProtoVariant::CriticalityAware),
        ) {
            println!(
                "  {:<8} sm {} -> {} cycles ({:.2}x{}), {} bypasses",
                pattern.label(),
                base.sm_runtime,
                crit.sm_runtime,
                base.sm_runtime as f64 / crit.sm_runtime as f64,
                if crit.sm_runtime <= base.sm_runtime {
                    " faster"
                } else {
                    ""
                },
                crit.priority_bypasses,
            );
        }
    }

    let summary_path = format!("{out_dir}/hostile_summary.csv");
    std::fs::write(&summary_path, summary).expect("write hostile summary");
    let manifest_path = format!("{out_dir}/hostile_manifest.json");
    std::fs::write(&manifest_path, manifest).expect("write hostile manifest");
    println!("(wrote {summary_path})");
    println!("(wrote {manifest_path})");
    if let Some(s) = &store {
        let st = s.stats();
        println!("store summary: hits={} misses={}", st.hits, st.misses);
    }
}

fn cfg(check: bool) -> MachineConfig {
    let mut cfg = MachineConfig::alewife();
    if check {
        cfg.check = Some(commsense_machine::CheckConfig::full());
    }
    cfg
}

fn want(opts: &Opts, key: &str) -> bool {
    opts.what == "all" || opts.what == key
}

fn main() {
    let opts = parse_args();
    // Export --jobs so library-internal runners (ablations) see it too.
    if let Some(n) = opts.jobs {
        std::env::set_var("COMMSENSE_JOBS", n.to_string());
    }
    if opts.check {
        commsense_bench::harness::install_check_fail_hook();
    }
    if opts.what == "observe" {
        run_observe(&opts);
        return;
    }
    if opts.what == "analyze" {
        run_analyze(&opts);
        return;
    }
    if opts.what == "store" {
        run_store_admin(&opts);
        return;
    }
    if opts.what == "serve" {
        run_serve(&opts);
        return;
    }
    if opts.what == "submit" {
        run_submit(&opts);
        return;
    }
    if opts.what == "hostile" {
        run_hostile(&opts);
        return;
    }
    if opts.what == "scale" {
        run_scale(&opts);
        return;
    }
    let store = open_store(&opts);
    let mut runner = Runner::from_env();
    if let Some(s) = &store {
        println!("(persistent store: {})", s.root().display());
        runner = runner.with_store(s.clone());
    }
    let mut cache = WorkloadCache::new();
    let cfg = cfg(opts.check);
    let sm_mp = [Mechanism::SharedMem, Mechanism::MsgPoll];

    if want(&opts, "tab1") {
        println!("== Table 1: 32-processor machine parameters ==");
        print!("{}", report::table1_text(&table1()));
        println!();
    }
    if want(&opts, "tab2") {
        println!("== Table 2: parameters in local-miss units ==");
        print!("{}", report::table2_text(&table1()));
        println!();
    }
    if want(&opts, "fig3") {
        println!("== Figure 3 cost table: shared-memory miss penalties ==");
        println!("{:<22} {:>8} {:>10}", "case", "paper", "measured");
        for m in miss_penalties(&cfg) {
            println!(
                "{:<22} {:>8.0} {:>10.1}",
                m.case, m.paper_cycles, m.measured_cycles
            );
        }
        println!();
    }
    if want(&opts, "fig4") {
        println!("== Figure 4: per-application breakdown, all mechanisms ==");
        let mark = store.as_ref().map(|s| s.stats()).unwrap_or_default();
        for spec in Figure::Fig4.apps(opts.scale) {
            let run = run_figure(Figure::Fig4, &spec, &runner, &mut cache, &cfg);
            let results = base_results(&run);
            print!("{}", report::breakdown_table(spec.name(), &results, &cfg));
            print!(
                "{}",
                report::breakdown_bars(spec.name(), &results, &cfg, 48)
            );
            print!("{}", report::sim_rate_table(spec.name(), &results));
            write_csv(&opts, Figure::Fig4, spec.name(), &run.sweeps, &cfg);
            println!();
        }
        report_figure_store(store.as_ref(), "fig4", mark);
    }
    if want(&opts, "fig5") {
        println!("== Figure 5: communication volume breakdown ==");
        let mark = store.as_ref().map(|s| s.stats()).unwrap_or_default();
        for spec in Figure::Fig4.apps(opts.scale) {
            let run = run_figure(Figure::Fig4, &spec, &runner, &mut cache, &cfg);
            print!("{}", report::volume_table(spec.name(), &base_results(&run)));
            println!();
        }
        report_figure_store(store.as_ref(), "fig5", mark);
    }
    if want(&opts, "fig7") {
        println!("== Figure 7: sensitivity to cross-traffic message length ==");
        let mark = store.as_ref().map(|s| s.stats()).unwrap_or_default();
        for spec in Figure::Fig7.apps(opts.scale) {
            let run = run_figure(Figure::Fig7, &spec, &runner, &mut cache, &cfg);
            let title = format!("{} runtime at 8 B/cycle emulated bisection", spec.name());
            print!("{}", report::sweep_table(&title, "msg bytes", &run.sweeps));
            write_csv(&opts, Figure::Fig7, spec.name(), &run.sweeps, &cfg);
        }
        report_figure_store(store.as_ref(), "fig7", mark);
        println!();
    }
    if want(&opts, "fig8") || want(&opts, "fig1") {
        println!("== Figure 8: execution time vs bisection bandwidth ==");
        let mark = store.as_ref().map(|s| s.stats()).unwrap_or_default();
        for spec in Figure::Fig8.apps(opts.scale) {
            let sweeps = run_figure(Figure::Fig8, &spec, &runner, &mut cache, &cfg).sweeps;
            print!("{}", report::sweep_table(spec.name(), "B/cycle", &sweeps));
            for s in &sweeps {
                s.assert_verified();
            }
            // Crossovers against both fine-grained message-passing curves.
            for (a, label_a) in [(0usize, "sm"), (1, "sm+pf")] {
                for (b, label_b) in [(2usize, "mp-int"), (3, "mp-poll")] {
                    match crossover(&sweeps[a], &sweeps[b]) {
                        Some(x) => {
                            println!("  {label_a} crosses above {label_b} at ~{x:.1} B/cycle")
                        }
                        None => {
                            let first =
                                sweeps[a].runtimes()[0] as f64 / sweeps[b].runtimes()[0] as f64;
                            println!(
                                "  no {label_a}/{label_b} crossover in range (starts at {first:.2}x)"
                            );
                        }
                    }
                }
            }
            if want(&opts, "fig1") && spec.name() == "EM3D" {
                let stress: Vec<f64> = figures::FIG8_CONSUMED
                    .iter()
                    .map(|c| 1.0 / (18.0 - c))
                    .collect();
                for s in sweeps.iter() {
                    let regs: Vec<&str> = classify(s, &stress, 0.05, 1.5)
                        .iter()
                        .map(|seg| seg.region.label())
                        .collect();
                    println!("  fig1 {} regions: {regs:?}", s.mechanism);
                    if let Some(m) = fit_bandwidth(s) {
                        println!(
                            "  fig1 {} model: T(b) = {:.0} + {:.0}/b + {:.0}/b^2 (R2 {:.3})",
                            s.mechanism, m.c0, m.c1, m.c2, m.r2
                        );
                    }
                }
            }
            write_csv(&opts, Figure::Fig8, spec.name(), &sweeps, &cfg);
            println!();
        }
        report_figure_store(store.as_ref(), "fig8", mark);
    }
    if opts.what == "model" {
        println!("== Section 2 model fits over measured sweeps ==\n");
        for spec in suite(opts.scale) {
            let bw = Figure::Fig8
                .plan(&spec, &sm_mp, &cfg)
                .run_with(&runner, &mut cache);
            let lt = Figure::Fig10
                .plan(&spec, &sm_mp, &cfg)
                .run_with(&runner, &mut cache);
            println!("{}:", spec.name());
            for s in &bw {
                if let Some(m) = fit_bandwidth(s) {
                    println!(
                        "  bandwidth {:<8} T(b) = {:>9.0} + {:>9.0}/b + {:>9.0}/b^2  (R2 {:.3})",
                        s.mechanism.label(),
                        m.c0,
                        m.c1,
                        m.c2,
                        m.r2
                    );
                }
            }
            for s in &lt {
                if let Some(m) = fit_latency(s) {
                    println!(
                        "  latency   {:<8} T(L) = {:>9.0} + {:>7.2}*L             (R2 {:.3})",
                        s.mechanism.label(),
                        m.d0,
                        m.d1,
                        m.r2
                    );
                }
            }
            println!();
        }
    }
    if opts.what == "ablate" {
        println!("== Ablations (design-choice sensitivity; not paper figures) ==\n");
        print!(
            "{}",
            ablation_table(
                "LimitLESS directory width (EM3D, sm):",
                &ablate_limitless(&cfg)
            )
        );
        println!();
        print!(
            "{}",
            ablation_table(
                "Mesh aspect ratio at 32 nodes (EM3D):",
                &ablate_topology(&cfg)
            )
        );
        println!();
        print!(
            "{}",
            ablation_table(
                "Interrupt entry cost (ICCG, mp-int):",
                &ablate_interrupt_cost(&cfg)
            )
        );
        println!();
        print!(
            "{}",
            ablation_table(
                "Prefetch buffer depth (EM3D, sm+pf):",
                &ablate_prefetch_buffer(&cfg)
            )
        );
        println!();
        print!(
            "{}",
            ablation_table(
                "Consistency model under latency (EM3D):",
                &ablate_write_buffer(&cfg)
            )
        );
        println!();
        print!(
            "{}",
            ablation_table(
                "Partition strategy (UNSTRUC, sm) — lower cut can lose to worse edge balance:",
                &ablate_partition(&cfg)
            )
        );
        println!();
        print!(
            "{}",
            ablation_table(
                "Cache organization (EM3D, sm) — flat by design: the paper's \
irregular apps have little data re-use, so misses are coherence misses, \
not capacity/conflict misses:",
                &ablate_associativity(&cfg)
            )
        );
        println!();
    }
    if want(&opts, "fig9") {
        println!("== Figure 9: execution time vs relative network latency (clock scaling) ==");
        let mark = store.as_ref().map(|s| s.stats()).unwrap_or_default();
        for spec in Figure::Fig9.apps(opts.scale) {
            let sweeps = run_figure(Figure::Fig9, &spec, &runner, &mut cache, &cfg).sweeps;
            print!("{}", report::sweep_table(spec.name(), "lat (cyc)", &sweeps));
            write_csv(&opts, Figure::Fig9, spec.name(), &sweeps, &cfg);
            println!();
        }
        report_figure_store(store.as_ref(), "fig9", mark);
        println!(
            "(base machine one-way 24B latency: {:.1} cycles)",
            one_way_latency_cycles(&cfg, 24)
        );
        println!();
    }
    if want(&opts, "fig10") || want(&opts, "fig2") {
        println!("== Figure 10: latency emulation via context switching ==");
        let mark = store.as_ref().map(|s| s.stats()).unwrap_or_default();
        for spec in Figure::Fig10.apps(opts.scale) {
            let sweeps = run_figure(Figure::Fig10, &spec, &runner, &mut cache, &cfg).sweeps;
            print!(
                "{}",
                report::sweep_table(spec.name(), "miss (cyc)", &sweeps)
            );
            if want(&opts, "fig2") && spec.name() == "EM3D" {
                let stress: Vec<f64> = figures::FIG10_LATENCIES.map(|l| l as f64).to_vec();
                for s in sweeps.iter().take(2) {
                    let regs: Vec<&str> = classify(s, &stress, 0.05, 1.5)
                        .iter()
                        .map(|seg| seg.region.label())
                        .collect();
                    println!("  fig2 {} regions: {regs:?}", s.mechanism);
                    if let Some(m) = fit_latency(s) {
                        println!(
                            "  fig2 {} model: T(L) = {:.0} + {:.2}*L (R2 {:.3})",
                            s.mechanism, m.d0, m.d1, m.r2
                        );
                    }
                }
            }
            // The Chandra et al. comparison point (§6): at ~100-cycle
            // latency, message passing ran EM3D about twice as fast.
            if spec.name() == "EM3D" {
                let sm_100 = sweeps.first().and_then(|s| s.point_at(100.0));
                let mp_100 = sweeps.get(3).and_then(|s| s.point_at(100.0));
                if let (Some(sm), Some(mp)) = (sm_100, mp_100) {
                    println!(
                        "  EM3D at 100-cycle latency: sm/mp = {:.2} (Chandra et al. saw ~2x)",
                        sm.result.runtime_cycles as f64 / mp.result.runtime_cycles as f64
                    );
                }
            }
            write_csv(&opts, Figure::Fig10, spec.name(), &sweeps, &cfg);
            println!();
        }
        report_figure_store(store.as_ref(), "fig10", mark);
    }
    if let Some(s) = &store {
        let st = s.stats();
        println!(
            "store summary: hits={} misses={} corrupt={} evicted={} read={}B written={}B",
            st.hits, st.misses, st.corrupt, st.evictions, st.bytes_read, st.bytes_written
        );
    }
}
