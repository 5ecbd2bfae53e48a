//! Pins bench-scale ICCG under shared memory, the one workload whose
//! owners spin-wait (on each row's presence counter).
//!
//! `fig4_determinism` pins EM3D, which never spins, so a change to how the
//! machine executes a spin loop would slip past it. These constants were
//! recorded before spin loops moved into the machine (`Step::SpinUntil`
//! and its bulk application of repeated cache hits) and must hold after
//! it: every simulated quantity of a spin loop is bit-identical however
//! the loop is executed. Each run pins the runtime, the event count, the
//! synchronization time summed over nodes (picoseconds; spinning is
//! charged there) and the aggregate cache hits and misses (spin polls are
//! almost all hits).
//!
//! Ignored by default because it simulates bench-scale ICCG three times;
//! run it with `cargo test --release -p commsense-bench --test
//! iccg_spin_pin -- --ignored`.

use commsense_apps::{run_prepared, AppSpec};
use commsense_bench::{suite, Scale};
use commsense_machine::{Bucket, MachineConfig, Mechanism};

/// One pinned run: (label, runtime cycles, events, summed Sync ps,
/// cache hits, cache misses).
type Pin = (&'static str, u64, u64, u64, u64, u64);

const EXPECTED: [Pin; 3] = [
    ("sm", 468616, 169994, 738748708464, 567390, 6404),
    ("sm+pf", 452359, 168130, 713025554256, 549291, 7120),
    ("sm emu800", 2698123, 595671, 4306001250000, 3401668, 7067),
];

#[test]
#[ignore = "bench-scale ICCG simulation; run with --release -- --ignored"]
fn iccg_spin_runs_are_bit_identical() {
    let spec = suite(Scale::Bench)
        .into_iter()
        .find(|s| matches!(s, AppSpec::Iccg(_)))
        .expect("bench suite has ICCG");
    let alewife = MachineConfig::alewife();
    let mut emulated = alewife.clone();
    emulated.latency_emulation = Some(800);
    let prepared = spec.prepare(alewife.nodes);
    let runs = [
        (Mechanism::SharedMem, &alewife),
        (Mechanism::SharedMemPrefetch, &alewife),
        (Mechanism::SharedMem, &emulated),
    ];
    for ((mech, cfg), (label, cycles, events, sync_ps, hits, misses)) in
        runs.into_iter().zip(EXPECTED)
    {
        let run = run_prepared(&prepared, mech, cfg);
        assert!(run.verified, "{label} failed verification");
        let sync: u64 = run
            .stats
            .nodes
            .iter()
            .map(|n| n.bucket(Bucket::Sync).as_ps())
            .sum();
        let got = (
            label,
            run.runtime_cycles,
            run.stats.events,
            sync,
            run.stats.cache_hit_miss.0,
            run.stats.cache_hit_miss.1,
        );
        assert_eq!(
            got,
            (label, cycles, events, sync_ps, hits, misses),
            "{label}: drifted from the pinned capture"
        );
    }
}
