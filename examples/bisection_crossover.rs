//! The paper's headline experiment (Figure 8): sweep bisection bandwidth
//! with I/O cross-traffic and find where shared memory crosses above
//! message passing.
//!
//! ```text
//! cargo run --release --example bisection_crossover
//! ```

use commsense::prelude::*;

fn main() {
    let spec = AppSpec::Em3d(Em3dParams {
        nodes: 2000,
        degree: 10,
        pct_nonlocal: 0.2,
        span: 3,
        iterations: 5,
        seed: 0x3d,
    });
    let cfg = MachineConfig::alewife();

    // Figure 8's plan consumes 0..16 of Alewife's 18 bytes/cycle of
    // bisection with 64-byte cross-traffic messages from the mesh-edge I/O
    // nodes. The plan's 18 points share one prepared EM3D workload and run
    // on COMMSENSE_JOBS worker threads.
    let sweeps = Figure::Fig8
        .plan(
            &spec,
            &[
                Mechanism::SharedMem,
                Mechanism::SharedMemPrefetch,
                Mechanism::MsgInterrupt,
            ],
            &cfg,
        )
        .run(&Runner::from_env());
    for s in &sweeps {
        s.assert_verified();
    }
    print!(
        "{}",
        report::sweep_table(
            "EM3D runtime (cycles) vs emulated bisection bandwidth",
            "B/cycle",
            &sweeps
        )
    );

    for (idx, label) in [(0usize, "sm"), (1, "sm+pf")] {
        match regions::crossover(&sweeps[idx], &sweeps[2]) {
            Some(x) => println!(
                "\n{label} crosses above mp-int at ~{x:.1} bytes/cycle (Alewife sits at 18; \
                 Table 1 puts DASH at 14.5 and FLASH at 16 — 'approaching the cross-over')."
            ),
            None => println!("\nNo {label}/mp-int crossover in the measured range."),
        }
    }

    // Classify the shared-memory curve into the paper's Figure 1 regions.
    let stress: Vec<f64> = figures::FIG8_CONSUMED
        .iter()
        .map(|c| 1.0 / (18.0 - c))
        .collect();
    let segs = regions::classify(&sweeps[0], &stress, 0.05, 1.5);
    println!("\nShared-memory curve regions (Figure 1):");
    for seg in segs {
        println!(
            "  {:>5.1} -> {:>5.1} B/cycle: {}",
            seg.x_lo,
            seg.x_hi,
            seg.region.label()
        );
    }
}
