//! Deterministic litmus fuzzer — the CI correctness gate.
//!
//! ```text
//! litmus [--programs N] [--seed S] [--mech LABEL|all] [--config NAME|all]
//!        [--nodes N] [--out DIR]
//! litmus --program IDX [--seed S] [--mech ...] [--config ...]   # replay
//! litmus --mutation-smoke                                       # detection gate
//! ```
//!
//! The default mode generates `--programs` seed-reproducible litmus tests
//! (see `commsense_workloads::litmus`) and runs each across the selected
//! mechanisms × sweep extremes with the full correctness harness enabled
//! (protocol invariants, message conservation, SC oracle). On any failure
//! it shrinks to a minimal reproducer of the same failure class and prints
//!
//! * one machine-readable `LITMUS-FAIL {json}` line,
//! * a copy-pastable `replay:` command that regenerates the exact program
//!   from its seed, and
//! * the minimized program listing,
//!
//! then exits 1 (exit 0 means every run was clean). `--out DIR`
//! additionally writes one reproducer file per failure for CI artifact
//! upload. `--mutation-smoke` proves the detection pipeline end to end:
//! it arms the seeded dropped-invalidation fault and fails unless the
//! checker catches it (and unless the unmutated program passes).

use commsense_core::json;
use commsense_machine::Mechanism;
use commsense_workloads::litmus::{self, Extreme, FailureClass, Fault, FuzzFailure, Litmus};

struct Opts {
    seed: u64,
    programs: usize,
    nodes: usize,
    mech: String,
    config: String,
    program: Option<usize>,
    out: Option<String>,
    mutation_smoke: bool,
}

const USAGE: &str = "\
usage: litmus [--programs N] [--seed S] [--mech LABEL|all] [--config NAME|all]
              [--nodes N] [--out DIR]
       litmus --program IDX [--seed S] [--mech LABEL|all] [--config NAME|all]
       litmus --mutation-smoke
  --programs  number of generated programs to fuzz (default 64)
  --seed      base seed; every program derives from (seed, index) (default 1)
  --mech      mechanism label (sm|sm+pf|mp-int|mp-poll|bulk) or all (default all)
  --config    sweep extreme (base|tinycache|cross|lat|relaxed|crit|hotspot|bursty|
              incast) or all (default all)
  --nodes     machine size; must keep the 2x2 mesh of the tiny config (default 4)
  --out       write one reproducer file per failure into DIR (for CI artifacts)
  --program   replay a single program index instead of fuzzing
  --mutation-smoke  verify the checker catches both seeded faults (a dropped
              invalidation and a smuggled high-priority ack)
exit status: 0 clean, 1 failures found (each preceded by a LITMUS-FAIL line), 2 bad usage";

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: 1,
        programs: 64,
        nodes: 4,
        mech: "all".to_string(),
        config: "all".to_string(),
        program: None,
        out: None,
        mutation_smoke: false,
    };
    let mut args = std::env::args().skip(1);
    let num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a non-negative integer\n{USAGE}");
                std::process::exit(2);
            })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => opts.seed = num(&mut args, "--seed"),
            "--programs" => opts.programs = num(&mut args, "--programs") as usize,
            "--nodes" => opts.nodes = num(&mut args, "--nodes") as usize,
            "--program" => opts.program = Some(num(&mut args, "--program") as usize),
            "--mech" => {
                opts.mech = args.next().unwrap_or_else(|| {
                    eprintln!("--mech needs a label\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--config" => {
                opts.config = args.next().unwrap_or_else(|| {
                    eprintln!("--config needs a name\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--out" => opts.out = args.next(),
            "--mutation-smoke" => opts.mutation_smoke = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn mechs_for(label: &str) -> Vec<Mechanism> {
    if label == "all" {
        return Mechanism::ALL.to_vec();
    }
    match Mechanism::ALL.into_iter().find(|m| m.label() == label) {
        Some(m) => vec![m],
        None => {
            eprintln!("unknown --mech {label:?} (sm|sm+pf|mp-int|mp-poll|bulk|all)");
            std::process::exit(2);
        }
    }
}

fn extremes_for(label: &str) -> Vec<Extreme> {
    if label == "all" {
        return Extreme::ALL.to_vec();
    }
    match Extreme::from_label(label) {
        Some(e) => vec![e],
        None => {
            eprintln!(
                "unknown --config {label:?} \
                 (base|tinycache|cross|lat|relaxed|crit|hotspot|bursty|incast|all)"
            );
            std::process::exit(2);
        }
    }
}

fn fail_line(f: &FuzzFailure) -> String {
    let mut line = String::from("LITMUS-FAIL ");
    json::object(&mut line, |o| {
        o.field("seed", f.seed)
            .field("program", f.program)
            .field("mech", f.mech.label())
            .field("config", f.extreme.label())
            .field("class", f.class.label())
            .field("detail", &f.detail);
    });
    line
}

/// Reports a failed detection gate as a `LITMUS-FAIL` line and exits 1.
fn smoke_failure(detail: String) -> ! {
    let mut line = String::from("LITMUS-FAIL ");
    json::object(&mut line, |o| {
        o.field("class", "mutation-smoke").field("detail", detail);
    });
    eprintln!("{line}");
    std::process::exit(1);
}

fn replay_cmd(f: &FuzzFailure) -> String {
    format!(
        "replay: litmus --seed {} --program {} --mech {} --config {}",
        f.seed,
        f.program,
        f.mech.label(),
        f.extreme.label()
    )
}

fn report_failure(f: &FuzzFailure, out: Option<&str>) {
    println!("{}", fail_line(f));
    println!("{}", replay_cmd(f));
    println!("minimized reproducer:\n{}", f.minimized);
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create --out dir");
        let path = format!(
            "{dir}/fail_seed{}_p{}_{}_{}.txt",
            f.seed,
            f.program,
            f.mech.label().replace('+', "p"),
            f.extreme.label()
        );
        let body = format!(
            "{}\n{}\n\noriginal:\n{}\nminimized:\n{}",
            fail_line(f),
            replay_cmd(f),
            f.litmus,
            f.minimized
        );
        std::fs::write(&path, body).expect("write reproducer");
        println!("(wrote {path})");
    }
}

/// One leg of the detection gate: under `extreme`, the unmutated witness
/// program must pass and the armed `fault` must die as an invariant
/// violation.
fn mutation_gate(extreme: Extreme, fault: Fault, what: &str) {
    let lit = Litmus::directed_invalidation(4);
    if let Err(f) = litmus::run_litmus(&lit, Mechanism::SharedMem, extreme) {
        smoke_failure(format!(
            "unmutated program failed under {}: {}",
            extreme.label(),
            f.detail
        ));
    }
    match litmus::run_litmus_with(&lit, Mechanism::SharedMem, extreme, fault) {
        Err(f) if f.class == FailureClass::Invariant => {
            println!("mutation-smoke: {what} caught by the checker");
            println!("  {}", f.detail.lines().next().unwrap_or(""));
        }
        Err(f) => smoke_failure(format!(
            "{what} died as {} instead of invariant: {}",
            f.class, f.detail
        )),
        Ok(()) => smoke_failure(format!("checker MISSED the seeded {what}")),
    }
}

/// End-to-end detection gate: both seeded mutations must be caught as
/// invariant violations, and the witness program must pass unmutated.
/// The dropped invalidation exercises the directory/cache consistency
/// check under the baseline variant; the smuggled high-priority ack
/// exercises message conservation under the criticality-aware variant.
fn mutation_smoke() {
    mutation_gate(
        Extreme::Base,
        Fault::DropInvalidation,
        "dropped invalidation",
    );
    mutation_gate(
        Extreme::Critical,
        Fault::SmugglePriorityAck,
        "smuggled priority ack",
    );
}

fn main() {
    let opts = parse_args();
    let mechs = mechs_for(&opts.mech);
    let extremes = extremes_for(&opts.config);
    // Every litmus panic is caught and re-reported in structured form;
    // the default hook's per-candidate backtraces (thousands during a
    // shrink) would drown the CI log.
    std::panic::set_hook(Box::new(|_| {}));

    if opts.mutation_smoke {
        mutation_smoke();
        return;
    }

    if let Some(idx) = opts.program {
        let lit = litmus::litmus_for(opts.seed, idx, opts.nodes);
        println!(
            "replaying seed {} program {} ({} nodes):\n{}",
            opts.seed, idx, opts.nodes, lit
        );
        let mut failed = false;
        for &mech in &mechs {
            for &extreme in &extremes {
                match litmus::run_litmus(&lit, mech, extreme) {
                    Ok(()) => println!("  {:<8} {:<10} ok", mech.label(), extreme.label()),
                    Err(f) => {
                        failed = true;
                        println!(
                            "  {:<8} {:<10} FAILED ({})",
                            mech.label(),
                            extreme.label(),
                            f.class
                        );
                        let minimized = litmus::shrink(&lit, f.class, |cand| {
                            litmus::run_litmus(cand, mech, extreme)
                                .err()
                                .map(|x| x.class)
                        });
                        report_failure(
                            &FuzzFailure {
                                seed: opts.seed,
                                program: idx,
                                mech,
                                extreme,
                                class: f.class,
                                detail: f.detail,
                                litmus: lit.clone(),
                                minimized,
                            },
                            opts.out.as_deref(),
                        );
                    }
                }
            }
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    let report = litmus::fuzz(opts.seed, opts.programs, opts.nodes, &mechs, &extremes);
    println!(
        "litmus: {} programs x {} mechanisms x {} configs = {} runs, {} failures \
         (seed {})",
        report.programs,
        mechs.len(),
        extremes.len(),
        report.runs,
        report.failures.len(),
        opts.seed
    );
    for f in &report.failures {
        report_failure(f, opts.out.as_deref());
    }
    std::process::exit(if report.failures.is_empty() { 0 } else { 1 });
}
