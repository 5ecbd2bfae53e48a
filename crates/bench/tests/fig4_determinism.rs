//! Pins the fig4-scale EM3D cycle counts for every mechanism.
//!
//! Determinism is a documented invariant of the simulator (DESIGN.md §4):
//! identical inputs must produce identical event interleavings and hence
//! identical cycle counts, no matter how the hot path is restructured.
//! These constants were captured before the PR 2 hot-path overhaul
//! (calendar queue, route table, slab tables, allocation elimination) and
//! verified unchanged after it. If a perf change moves any of these
//! numbers, it changed simulation *behaviour*, not just speed.
//!
//! Ignored by default because it simulates the full fig4-scale workload
//! (slow without optimizations); run it with
//! `cargo test --release -p commsense-bench -- --ignored`.

use commsense_apps::run_prepared;
use commsense_bench::{em3d_spec, Scale};
use commsense_machine::{MachineConfig, Mechanism};

/// (mechanism label, runtime cycles, simulation events) at fig4 scale.
const EXPECTED: [(&str, u64, u64); 5] = [
    ("sm", 88246, 355583),
    ("sm+pf", 82769, 352673),
    ("mp-int", 84467, 50453),
    ("mp-poll", 70974, 48425),
    ("bulk", 93943, 33121),
];

#[test]
#[ignore = "fig4-scale simulation; run with --release -- --ignored"]
fn fig4_scale_cycle_counts_are_bit_identical() {
    let cfg = MachineConfig::alewife();
    let prepared = em3d_spec(Scale::Bench).prepare(cfg.nodes);
    assert_eq!(Mechanism::ALL.len(), EXPECTED.len());
    for (&m, (mech, cycles, events)) in Mechanism::ALL.iter().zip(EXPECTED) {
        let run = run_prepared(&prepared, m, &cfg);
        assert_eq!(m.label(), mech);
        assert!(run.verified, "{mech} failed verification");
        assert_eq!(
            run.runtime_cycles, cycles,
            "{mech}: cycle count drifted from the pre-overhaul capture"
        );
        assert_eq!(
            run.stats.events, events,
            "{mech}: event count drifted from the pre-overhaul capture"
        );
    }
}
