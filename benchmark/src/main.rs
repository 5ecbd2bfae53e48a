//! Same-host benchmark of commsense: the wall time a user waits to
//! regenerate the paper's figures (cold and warm result store) and to have a
//! finished sweep served again by the daemon, plus a traced per-layer
//! breakdown of each. See `README.md` beside this file's crate.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--repeat K] [--out DIR]
//! ```
//!
//! Every metric is printed as `workload metric value unit`; detail lines
//! start with `#`. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`, the default). `results.json` and
//! one Chrome trace per workload go under `--out`. The exit code is 1 when
//! any outcome or output check failed, after everything is printed.

mod metrics;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use commsense_core::json::{push_escaped, Json};

use metrics::{end_to_end, per_layer, quantile, Metric, Tally};
use workloads::{Ctx, Timed, Workload};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--quick] [--repeat K] [--out DIR]
  --workload  figures-cold | figures-warm | served-warm
              (default: every workload, in turn, each with its own set-up)
  --seed      XORed into every application seed (default 0: the suite as shipped)
  --seconds   how long each workload's timed passes run (default 30; at least 3 passes)
  --trace     1 (default): also run one traced pass and print the per-layer metrics
  --quick     small inputs and a fixed handful of passes (the self-test)
  --repeat    run the whole set K times and compare each set with the first
  --out       results.json and trace-<workload>.json go here (default target/benchmark)";

/// The benchmark's declaration of its metrics, units and bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: PathBuf,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        seconds: 30.0,
        trace: true,
        quick: false,
        repeat: 1,
        out: PathBuf::from("target/benchmark"),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                o.workloads = vec![Workload::from_name(&value).ok_or_else(bad)?];
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                o.repeat = value.parse().map_err(|_| bad())?;
                if o.repeat == 0 {
                    return Err(bad());
                }
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(o)
}

/// One workload's results within one set.
struct Outcome {
    workload: Workload,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    timed: Timed,
    digest: u64,
    tally: Tally,
}

/// Each pass's total, the sum of its parts.
fn totals(passes: &[Vec<f64>]) -> Vec<f64> {
    passes.iter().map(|p| p.iter().sum()).collect()
}

/// `min q1 median q3 p95 max` of a sample, for detail lines.
fn spread(values: &[f64]) -> String {
    let q = |p| quantile(values, p);
    format!(
        "n={} min={} q1={} median={} q3={} p95={} max={}",
        values.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.95),
        q(1.0)
    )
}

/// Runs every selected workload once, printing its lines as it finishes.
fn run_set(opts: &Opts, out: &mut impl Write) -> std::io::Result<Vec<Outcome>> {
    let mut set = Vec::new();
    for &w in &opts.workloads {
        let ctx = Ctx {
            seed: opts.seed,
            seconds: opts.seconds,
            quick: opts.quick,
            trace: opts.trace,
            work: opts.out.join(format!("work-{}", std::process::id())),
        };
        let m = workloads::run(w, &ctx);
        // Best effort: a leftover store only costs disk space under --out.
        let _ = std::fs::remove_dir_all(&ctx.work);
        let t = &m.timed;
        let layers = match &m.traced {
            Some(traced) => {
                let path = opts.out.join(format!("trace-{}.json", w.name()));
                std::fs::write(path, trace::chrome_json(&traced.spans))?;
                per_layer(traced, &totals(&t.passes), &t.rss_mib)
            }
            None => Vec::new(),
        };
        let o = Outcome {
            workload: w,
            end_to_end: end_to_end(&t.setup, &t.passes),
            per_layer: layers,
            timed: m.timed,
            digest: m.digest,
            tally: m.tally,
        };
        for x in o.end_to_end.iter().chain(&o.per_layer) {
            writeln!(out, "{} {} {} {}", w.name(), x.name, x.value, x.unit)?;
        }
        let t = &o.timed;
        writeln!(
            out,
            "# {} pass_total_s {}",
            w.name(),
            spread(&totals(&t.passes))
        )?;
        writeln!(out, "# {} setup_s {}", w.name(), spread(&t.setup))?;
        writeln!(out, "# {} peak_rss_mb {}", w.name(), spread(&t.rss_mib))?;
        writeln!(out, "# {} sim_digest {:016x}", w.name(), o.digest)?;
        writeln!(
            out,
            "# {} checks attempted={} failed={}",
            w.name(),
            o.tally.attempted,
            o.tally.failed
        )?;
        for note in o.tally.notes.iter().take(10) {
            eprintln!("benchmark: {}: FAILED: {note}", w.name());
        }
        set.push(o);
    }
    Ok(set)
}

/// `(name, bound)` of every end-to-end metric declared in `BENCHMARK.json`.
fn declared_bounds() -> Vec<(String, f64)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// For `--repeat`: each later set's relative difference from the first,
/// per (workload, end-to-end metric), next to the metric's bound.
fn print_repeat(sets: &[Vec<Outcome>], out: &mut impl Write) -> std::io::Result<()> {
    let bounds = declared_bounds();
    for (i, first) in sets[0].iter().enumerate() {
        for m in &first.end_to_end {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or(0.0, |(_, b)| *b);
            for (k, set) in sets.iter().enumerate().skip(1) {
                let Some(v) = set[i].end_to_end.iter().find(|x| x.name == m.name) else {
                    continue;
                };
                let diff = v.value / m.value - 1.0;
                writeln!(
                    out,
                    "# repeat {} {} set1={} set{}={} diff={:+.2}% bound={:.0}% {}",
                    first.workload.name(),
                    m.name,
                    m.value,
                    k + 1,
                    v.value,
                    diff * 100.0,
                    bound * 100.0,
                    if diff.abs() <= bound {
                        "within"
                    } else {
                        "OUTSIDE"
                    }
                )?;
            }
        }
    }
    Ok(())
}

fn push_metrics(out: &mut String, metrics: &[(String, &Metric)]) {
    out.push('{');
    for (i, (key, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_escaped(out, key);
        out.push_str(&format!(": {{\"value\": {}, \"unit\": ", m.value));
        push_escaped(out, m.unit);
        out.push('}');
    }
    out.push('}');
}

/// The closing JSON line. With one workload the metric keys are the
/// declared names; with several they are `workload/name`.
fn final_line(set: &[Outcome], trace: bool) -> String {
    let attempted: u64 = set.iter().map(|o| o.tally.attempted).sum();
    let failed: u64 = set.iter().map(|o| o.tally.failed).sum();
    let mut metrics = Vec::new();
    for o in set {
        for m in if trace { &o.per_layer } else { &o.end_to_end } {
            let key = if set.len() == 1 {
                m.name.to_string()
            } else {
                format!("{}/{}", o.workload.name(), m.name)
            };
            metrics.push((key, m));
        }
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": ",
        failed == 0
    );
    push_metrics(&mut out, &metrics);
    out.push('}');
    out
}

fn f64_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Every set's numbers, for later comparison.
fn results_json(opts: &Opts, sets: &[Vec<Outcome>]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\"schema\":\"commsense-benchmark/1\",\"seed\":{},\"seconds\":{},\"quick\":{},\
         \"trace\":{},\"threads\":{},\"available_parallelism\":{cores},\"sets\":[",
        opts.seed,
        opts.seconds,
        opts.quick,
        opts.trace,
        workloads::WORKERS
    );
    for (i, set) in sets.iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        for (j, o) in set.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n{\"workload\":");
            push_escaped(&mut out, o.workload.name());
            let parts: Vec<String> = o.timed.passes.iter().map(|p| f64_list(p)).collect();
            out.push_str(&format!(
                ",\"attempted\":{},\"failed\":{},\"sim_digest\":\"{:016x}\",\"setup_s\":{},\"pass_part_s\":[{}],\"rss_mib\":{},\"metrics\":",
                o.tally.attempted,
                o.tally.failed,
                o.digest,
                f64_list(&o.timed.setup),
                parts.join(","),
                f64_list(&o.timed.rss_mib)
            ));
            let all: Vec<(String, &Metric)> = o
                .end_to_end
                .iter()
                .chain(&o.per_layer)
                .map(|m| (m.name.to_string(), m))
                .collect();
            push_metrics(&mut out, &all);
            out.push('}');
        }
        out.push(']');
    }
    out.push_str("]}\n");
    out
}

/// Runs every set, prints every metric and the closing JSON line, and
/// writes `results.json` and the traces. Returns whether every outcome and
/// check passed.
fn run(opts: &Opts, out: &mut impl Write) -> std::io::Result<bool> {
    std::fs::create_dir_all(&opts.out)?;
    let mut sets = Vec::new();
    for _ in 0..opts.repeat {
        sets.push(run_set(opts, out)?);
    }
    if sets.len() > 1 {
        print_repeat(&sets, out)?;
    }
    std::fs::write(opts.out.join("results.json"), results_json(opts, &sets))?;
    let last = sets.last().expect("at least one set");
    writeln!(out, "{}", final_line(last, opts.trace))?;
    Ok(sets.iter().flatten().all(|o| o.tally.failed == 0))
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts, &mut std::io::stdout().lock()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = parse_args(args(
            "--workload served-warm --seed 3 --seconds 7 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.workloads, vec![Workload::ServedWarm]);
        assert_eq!((o.seed, o.seconds, o.trace), (3, 7.0, false));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--repeat 0",
            "--seed",
            "--frob 1",
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad}");
        }
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        Json::parse(BENCHMARK_JSON)
            .unwrap()
            .get(section)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn declared_per_layer_metrics_are_the_computed_ones() {
        let names: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, metrics::per_layer_names());
    }

    /// Checks a Chrome trace: it parses, and every span's parent exists
    /// and encloses it.
    fn check_trace(text: &str) {
        let doc = Json::parse(text).expect("trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());
        let ns = |e: &Json, k| (e.get(k).and_then(Json::as_f64).unwrap() * 1000.0).round() as u64;
        let arg = |e: &Json, k| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_u64);
        let spans: Vec<(u64, Option<u64>, u64, u64)> = events
            .iter()
            .map(|e| {
                let start = ns(e, "ts");
                (
                    arg(e, "id").unwrap(),
                    arg(e, "parent"),
                    start,
                    start + ns(e, "dur"),
                )
            })
            .collect();
        for &(id, parent, start, end) in &spans {
            let Some(p) = parent else { continue };
            let &(_, _, ps, pe) = spans
                .iter()
                .find(|s| s.0 == p)
                .unwrap_or_else(|| panic!("span {id}: parent {p} missing"));
            assert!(ps <= start && end <= pe, "span {id} escapes parent {p}");
        }
    }

    #[test]
    fn quick_run_prints_every_declared_metric_once() {
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/self-test");
        let opts = Opts {
            workloads: Workload::ALL.to_vec(),
            seed: 0,
            seconds: 0.0,
            trace: true,
            quick: true,
            repeat: 1,
            out: out_dir.clone(),
        };
        let mut buf = Vec::new();
        assert!(run(&opts, &mut buf).unwrap(), "a check failed");
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for w in Workload::ALL {
            for (name, unit) in declared("end_to_end")
                .into_iter()
                .chain(declared("per_layer"))
            {
                let printed: Vec<&&str> = lines
                    .iter()
                    .filter(|l| {
                        let f: Vec<&str> = l.split(' ').collect();
                        f.len() == 4 && f[0] == w.name() && f[1] == name
                    })
                    .collect();
                assert_eq!(printed.len(), 1, "{} {name}: {printed:?}", w.name());
                assert!(printed[0].ends_with(&format!(" {unit}")), "{}", printed[0]);
            }
            let trace = std::fs::read_to_string(out_dir.join(format!("trace-{}.json", w.name())));
            check_trace(&trace.unwrap());
        }
        let last = Json::parse(lines.last().unwrap()).expect("the last line is JSON");
        assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
        assert!(last.get("attempted").and_then(Json::as_u64).unwrap() > 0);
        Json::parse(&std::fs::read_to_string(out_dir.join("results.json")).unwrap())
            .expect("results.json parses");
    }
}
