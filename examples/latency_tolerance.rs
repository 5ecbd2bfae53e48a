//! The latency experiments (Figures 9 and 10): scale the processor clock
//! against the fixed-wall-clock network, then emulate much larger uniform
//! remote-miss latencies on an ideal network.
//!
//! ```text
//! cargo run --release --example latency_tolerance
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
    let mechs = [
        Mechanism::SharedMem,
        Mechanism::SharedMemPrefetch,
        Mechanism::MsgPoll,
    ];

    // Both figures share one prepared workload (graph + reference solution)
    // and one runner; points execute on COMMSENSE_JOBS worker threads.
    let runner = Runner::from_env();
    let mut cache = WorkloadCache::new();

    // Figure 9: Alewife's clock generator runs 14..20 MHz; slowing the
    // processor makes the asynchronous network look faster.
    println!("Figure 9 — clock scaling (x = one-way 24-byte latency, processor cycles)\n");
    let sweeps = Figure::Fig9
        .plan(&spec, &mechs, &cfg)
        .run_with(&runner, &mut cache);
    for s in &sweeps {
        s.assert_verified();
    }
    print!(
        "{}",
        report::sweep_table("EM3D runtime (cycles)", "lat", &sweeps)
    );

    // Figure 10: context-switch emulation of 30..800-cycle remote misses.
    println!("\nFigure 10 — uniform remote-miss latency emulation\n");
    let sweeps = Figure::Fig10
        .plan(&spec, &mechs, &cfg)
        .run_with(&runner, &mut cache);
    print!(
        "{}",
        report::sweep_table("EM3D runtime (cycles)", "miss", &sweeps)
    );

    // The related-work cross-check (§6): Chandra, Rogers & Larus measured
    // message-passing EM3D about 2x faster than shared memory on a
    // CM5-like machine with ~100-cycle latency.
    let sm = sweeps[0].point_at(100.0).expect("100-cycle point");
    let mp = sweeps[2].point_at(100.0).expect("100-cycle point");
    let ratio = sm.result.runtime_cycles as f64 / mp.result.runtime_cycles as f64;
    println!("\nAt 100-cycle remote misses, sm/mp = {ratio:.2} (Chandra et al. observed ~2x).");
}
