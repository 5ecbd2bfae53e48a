//! `repro`'s valued flags refuse a missing or flag-shaped operand instead
//! of taking the next flag as their value.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn valued_flags_need_an_operand() {
    for (args, flag) in [
        (&["tab1", "--csv"][..], "--csv"),
        (&["tab1", "--csv", "--small"][..], "--csv"),
        (&["tab1", "--dir"][..], "--dir"),
        (&["tab1", "--dir", "--small"][..], "--dir"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_valued_flag_with_an_operand_still_runs() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    let out = repro(&["tab1", "--csv", dir.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
