//! `repro` exits 2 on a command line it cannot honour: a valued flag
//! without its operand, a flag the command does not take, or an analyze
//! gate without the sweep it gates — before any work or output.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// Asserts that `args` exits 2 with `message` on stderr.
fn rejects(args: &[&str], message: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn valued_flags_need_an_operand() {
    for (args, flag) in [
        (&["fig4", "--csv"][..], "--csv"),
        (&["fig4", "--csv", "--small"][..], "--csv"),
        (&["observe", "--dir"][..], "--dir"),
        (&["observe", "--dir", "--small"][..], "--dir"),
    ] {
        rejects(args, &format!("{flag} needs"));
    }
}

#[test]
fn a_valued_flag_with_an_operand_still_runs() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    let out = repro(&[
        "store",
        "gc",
        "--store",
        dir.to_str().unwrap(),
        "--max-bytes",
        "0",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_foreign_flag_exits_2_and_names_the_flag() {
    let all_foreign = [
        "tab1",
        "--latency",
        "50",
        "--figure",
        "fig8",
        "--quiet",
        "--max-bytes",
        "3",
        "--app",
        "SPICE",
    ];
    rejects(&all_foreign, "repro tab1 does not take --latency");
    rejects(
        &["observe", "--csv", "d"],
        "repro observe does not take --csv",
    );
    rejects(
        &["store", "stats", "--jobs", "2"],
        "repro store stats does not take --jobs",
    );
}

#[test]
fn analyze_gate_without_latency_sweep_is_rejected_before_any_run() {
    let dir = std::env::temp_dir().join(format!("repro-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "analyze",
        "--small",
        "--gate",
        "25",
        "--dir",
        dir.to_str().unwrap(),
    ];
    rejects(&args, "--gate needs --latency-sweep");
    assert!(
        !dir.exists(),
        "analyze wrote into {} before failing",
        dir.display()
    );
}
