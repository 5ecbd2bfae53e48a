//! Same-host A/B of the standalone benchmark: the CI performance gate.
//!
//! ```text
//! cargo build --release --offline --manifest-path PARENT_TREE/benchmark/Cargo.toml
//! cargo build --release --offline --manifest-path CHANGE_TREE/benchmark/Cargo.toml
//! perf_ab PARENT_TREE/benchmark/target/release/benchmark CHANGE_TREE/benchmark/target/release/benchmark
//! ```
//!
//! Runs both builds [`PAIRS`] times each with `--trace 0 --seconds 10`,
//! alternating which side goes first, and reads every run's closing JSON
//! line. Each end-to-end metric `BENCHMARK.json` declares is judged on
//! every workload by [`verdict`]: a *resolved* regression is a median more
//! than [`THRESHOLD`] worse that at least [`MIN_WORSE`] of the pairs agree
//! on. The exit code is 1 on a resolved regression, on a change run that
//! exits non-zero, or on a change run that fails more output checks than
//! the parent run of its pair; 2 when the gate cannot measure.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use commsense_core::json::Json;

/// The benchmark's declaration of its workloads and metrics.
const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// Runs per side.
const PAIRS: usize = 10;
/// `--seconds` of timed passes per workload and run.
const SECONDS: &str = "10";
/// How much worse the change's median may be before it counts.
const THRESHOLD: f64 = 0.10;
/// How many pairs must have the change worse for a regression to be
/// resolved rather than noise.
const MIN_WORSE: usize = 9;

/// One benchmark run's closing line.
#[derive(Debug)]
struct Run {
    /// The run's exit status was success.
    ok: bool,
    /// Output checks that failed.
    failed: u64,
    /// `workload/metric` → value.
    metrics: BTreeMap<String, f64>,
}

/// Parses the closing JSON line of a `benchmark` run's standard output.
fn parse_run(stdout: &str, ok: bool) -> Result<Run, String> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let doc = Json::parse(last.ok_or("no output")?)?;
    let failed = doc
        .get("failed")
        .and_then(Json::as_u64)
        .ok_or("closing line has no `failed`")?;
    let mut metrics = BTreeMap::new();
    for (key, m) in doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("closing line has no `metrics`")?
    {
        let value = m.get("value").and_then(Json::as_f64);
        metrics.insert(key.clone(), value.ok_or(format!("{key} has no value"))?);
    }
    Ok(Run {
        ok,
        failed,
        metrics,
    })
}

/// `(workload/metric, lower is better)` for every end-to-end metric on
/// every workload `BENCHMARK.json` declares.
fn declared() -> Vec<(String, bool)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let list = |k| doc.get(k).and_then(Json::as_arr).expect("declared list");
    fn field<'a>(j: &'a Json, k: &str) -> &'a str {
        j.get(k).and_then(Json::as_str).expect("declared field")
    }
    let mut out = Vec::new();
    for w in list("workloads") {
        for m in list("end_to_end") {
            let key = format!("{}/{}", field(w, "name"), field(m, "name"));
            out.push((key, field(m, "better") == "lower"));
        }
    }
    out
}

/// Judgement of one metric over the pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Within the threshold.
    Pass,
    /// The median is beyond the threshold but too few pairs agree.
    Unresolved,
    /// The median is beyond the threshold and the pairs agree.
    Regressed,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// How much worse the change's median is than the parent's, as a fraction
/// (negative when it is better).
fn worse_by(parent: &[f64], change: &[f64], lower_is_better: bool) -> f64 {
    let ratio = median(change) / median(parent);
    if lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    }
}

/// Pairs in which the change is worse than the parent.
fn worse_pairs(parent: &[f64], change: &[f64], lower_is_better: bool) -> usize {
    let worse = |p: f64, c: f64| if lower_is_better { c > p } else { c < p };
    parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| worse(p, c))
        .count()
}

/// The gate rule over one metric's paired samples (`parent[i]` and
/// `change[i]` ran back to back).
fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool) -> Verdict {
    if worse_by(parent, change, lower_is_better) <= THRESHOLD {
        Verdict::Pass
    } else if worse_pairs(parent, change, lower_is_better) >= MIN_WORSE {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// Why a pair fails the gate outright, if it does.
fn pair_failure(parent: &Run, change: &Run) -> Option<String> {
    if !change.ok {
        Some("the change run exited non-zero".into())
    } else if change.failed > parent.failed {
        Some(format!(
            "the change run failed {} checks, the parent run {}",
            change.failed, parent.failed
        ))
    } else {
        None
    }
}

/// Runs one benchmark binary once.
fn run(bin: &str, out: &Path) -> Result<Run, String> {
    let output = Command::new(bin)
        .args(["--trace", "0", "--seconds", SECONDS, "--out"])
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_run(&stdout, output.status.success()).map_err(|e| format!("{bin}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent_bin, change_bin] = args.as_slice() else {
        eprintln!("usage: perf_ab PARENT_BENCHMARK CHANGE_BENCHMARK");
        return ExitCode::from(2);
    };
    let tmp = std::env::temp_dir().join(format!("perf_ab-{}", std::process::id()));
    let start = Instant::now();
    let mut failed = false;
    let mut pairs: Vec<(Run, Run)> = Vec::new();
    for i in 0..PAIRS {
        // Alternate the order so drift in host speed hits both sides.
        let mut sides = [(0, "parent", parent_bin), (1, "change", change_bin)];
        if i % 2 == 1 {
            sides.reverse();
        }
        let mut runs = [None, None];
        for (slot, side, bin) in sides {
            match run(bin, &tmp.join(side)) {
                Ok(r) => {
                    let values: Vec<String> =
                        r.metrics.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    println!(
                        "pair {} {side}: failed={} {}",
                        i + 1,
                        r.failed,
                        values.join(" ")
                    );
                    runs[slot] = Some(r);
                }
                Err(e) => {
                    eprintln!("perf_ab: pair {} {side}: {e}", i + 1);
                    let _ = std::fs::remove_dir_all(&tmp);
                    return ExitCode::from(if side == "change" { 1 } else { 2 });
                }
            }
        }
        let [Some(parent), Some(change)] = runs else {
            unreachable!("both sides ran")
        };
        if let Some(why) = pair_failure(&parent, &change) {
            println!("pair {}: FAILED: {why}", i + 1);
            failed = true;
        }
        pairs.push((parent, change));
    }
    // Best effort: a leftover directory only costs disk space.
    let _ = std::fs::remove_dir_all(&tmp);
    for (key, lower_is_better) in declared() {
        let sample = |pick: fn(&(Run, Run)) -> &Run| -> Option<Vec<f64>> {
            pairs
                .iter()
                .map(|p| pick(p).metrics.get(&key).copied())
                .collect()
        };
        let (Some(parent), Some(change)) = (sample(|p| &p.0), sample(|p| &p.1)) else {
            println!("{key}: FAILED: missing from a closing line");
            failed = true;
            continue;
        };
        let v = verdict(&parent, &change, lower_is_better);
        let (p, c) = (median(&parent), median(&change));
        println!(
            "{key}: median parent {p:.6} change {c:.6} ({:+.1}%), change worse in {}/{PAIRS} pairs: {}",
            100.0 * (c / p - 1.0),
            worse_pairs(&parent, &change, lower_is_better),
            match v {
                Verdict::Pass => "pass",
                Verdict::Unresolved => "unresolved",
                Verdict::Regressed => "regressed",
            }
        );
        failed |= v == Verdict::Regressed;
    }
    println!(
        "perf_ab: {} runs in {:.0} s: {}",
        2 * PAIRS,
        start.elapsed().as_secs_f64(),
        if failed { "FAILED" } else { "passed" }
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; PAIRS] = [5.0, 5.2, 4.9, 5.1, 5.3, 4.8, 5.0, 5.2, 5.1, 4.9];

    fn scaled(by: f64) -> Vec<f64> {
        BASE.iter().map(|v| v * by).collect()
    }

    #[test]
    fn twenty_percent_slower_in_every_pair_regresses() {
        assert_eq!(verdict(&BASE, &scaled(1.2), true), Verdict::Regressed);
    }

    #[test]
    fn slower_median_with_six_of_ten_pairs_is_unresolved() {
        // Six pairs 40% slower, four 10% faster: the median is 20% worse.
        let change: Vec<f64> = BASE
            .iter()
            .enumerate()
            .map(|(i, v)| if i < 6 { v * 1.4 } else { v * 0.9 })
            .collect();
        assert_eq!(worse_pairs(&BASE, &change, true), 6);
        assert!(worse_by(&BASE, &change, true) > THRESHOLD);
        assert_eq!(verdict(&BASE, &change, true), Verdict::Unresolved);
    }

    #[test]
    fn five_percent_slower_in_every_pair_passes() {
        assert_eq!(worse_pairs(&BASE, &scaled(1.05), true), PAIRS);
        assert_eq!(verdict(&BASE, &scaled(1.05), true), Verdict::Pass);
    }

    #[test]
    fn identical_samples_pass() {
        assert_eq!(verdict(&BASE, &BASE, true), Verdict::Pass);
        assert_eq!(verdict(&BASE, &BASE, false), Verdict::Pass);
    }

    #[test]
    fn higher_is_better_is_judged_the_other_way_round() {
        assert_eq!(verdict(&BASE, &scaled(0.8), false), Verdict::Regressed);
        assert_eq!(verdict(&BASE, &scaled(1.2), false), Verdict::Pass);
        assert_eq!(verdict(&BASE, &scaled(0.8), true), Verdict::Pass);
    }

    fn run_with(ok: bool, failed: u64) -> Run {
        Run {
            ok,
            failed,
            metrics: BTreeMap::new(),
        }
    }

    #[test]
    fn more_failed_checks_than_the_parent_fails_the_pair() {
        assert!(pair_failure(&run_with(true, 0), &run_with(true, 1)).is_some());
        assert!(pair_failure(&run_with(false, 2), &run_with(true, 2)).is_none());
        assert!(pair_failure(&run_with(true, 0), &run_with(false, 0)).is_some());
        assert!(pair_failure(&run_with(true, 0), &run_with(true, 0)).is_none());
    }

    /// The closing line of `benchmark --trace 0 --quick --seconds 0`.
    const CLOSING: &str = "# served-warm checks attempted=111 failed=0
{\"correct\": true, \"attempted\": 2170, \"failed\": 0, \"metrics\": {\"figures-cold/setup_s\": {\"value\": 0.001245798, \"unit\": \"s\"}, \"figures-cold/pass_s\": {\"value\": 0.921825232, \"unit\": \"s\"}, \"figures-warm/setup_s\": {\"value\": 0.00127201, \"unit\": \"s\"}, \"figures-warm/pass_s\": {\"value\": 0.028507094, \"unit\": \"s\"}, \"served-warm/setup_s\": {\"value\": 0.000720963, \"unit\": \"s\"}, \"served-warm/pass_s\": {\"value\": 0.000525398, \"unit\": \"s\"}}}
";

    #[test]
    fn parses_every_declared_metric_from_a_closing_line() {
        let run = parse_run(CLOSING, true).unwrap();
        assert_eq!(run.failed, 0);
        let mut keys: Vec<String> = declared().into_iter().map(|(k, _)| k).collect();
        keys.sort();
        assert_eq!(keys.len(), 6);
        assert_eq!(run.metrics.keys().cloned().collect::<Vec<_>>(), keys);
        assert_eq!(run.metrics["figures-cold/pass_s"], 0.921825232);
        assert!(declared().iter().all(|&(_, lower)| lower));
        assert!(parse_run("", true).is_err());
        assert!(parse_run("not json\n", true).is_err());
    }
}
