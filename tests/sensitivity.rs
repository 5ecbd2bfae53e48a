//! Integration: the paper's sensitivity results hold in miniature.

use commsense::core::experiment::{bisection_plan, clock_plan, ctx_switch_plan};
use commsense::prelude::*;

fn em3d() -> AppSpec {
    let mut p = Em3dParams::small();
    p.nodes = 1000;
    p.iterations = 2;
    AppSpec::Em3d(p)
}

#[test]
fn shared_memory_is_bandwidth_sensitive_message_passing_is_not() {
    // The headline claim (§1.2): shared memory's performance is sensitive
    // to the bisection/processor ratio, message passing's is largely
    // insensitive.
    let cfg = MachineConfig::alewife();
    let sweeps = bisection_plan(
        &em3d(),
        &[Mechanism::SharedMem, Mechanism::MsgPoll],
        &cfg,
        &[0.0, 14.0],
        64,
    )
    .run(&Runner::from_env());
    for s in &sweeps {
        s.assert_verified();
    }
    let sm = sweeps[0].runtimes();
    let mp = sweeps[1].runtimes();
    let sm_growth = sm[1] as f64 / sm[0] as f64;
    let mp_growth = mp[1] as f64 / mp[0] as f64;
    assert!(
        sm_growth > 1.05,
        "shared memory must degrade: {sm_growth:.3}"
    );
    assert!(
        mp_growth < 1.10,
        "message passing must stay near-flat: {mp_growth:.3}"
    );
    assert!(
        sm_growth > mp_growth + 0.03,
        "sm {sm_growth:.3} vs mp {mp_growth:.3}"
    );
}

#[test]
fn clock_scaling_changes_relative_latency() {
    // Figure 9: slowing the processor against the fixed wall-clock network
    // reduces the network's relative cost, so shared memory improves (in
    // cycles) while message passing barely moves.
    let cfg = MachineConfig::alewife();
    let sweeps = clock_plan(
        &em3d(),
        &[Mechanism::SharedMem, Mechanism::MsgPoll],
        &cfg,
        &[20.0, 14.0],
    )
    .run(&Runner::from_env());
    let sm = sweeps[0].runtimes();
    let mp = sweeps[1].runtimes();
    assert!(
        sm[1] < sm[0],
        "sm gains from a relatively faster network: {sm:?}"
    );
    let sm_change = sm[0] as f64 / sm[1] as f64;
    let mp_change = (mp[0] as f64 / mp[1] as f64 - 1.0).abs();
    assert!(
        sm_change > 1.0 + mp_change,
        "sm must be more latency-sensitive than mp"
    );
}

#[test]
fn latency_emulation_reproduces_the_chandra_comparison() {
    // §6: at ~100-cycle network latency, Chandra, Rogers & Larus found
    // message-passing EM3D roughly 2x faster than shared memory. Our
    // emulation puts sm/mp in the 1.3-3x band at 100-200 cycles.
    let cfg = MachineConfig::alewife();
    let sweeps = ctx_switch_plan(
        &em3d(),
        &[Mechanism::SharedMem, Mechanism::MsgPoll],
        &cfg,
        &[100, 200],
    )
    .run(&Runner::from_env());
    let sm = sweeps[0].runtimes();
    let mp = sweeps[1].runtimes();
    let r100 = sm[0] as f64 / mp[0] as f64;
    let r200 = sm[1] as f64 / mp[1] as f64;
    assert!(r100 > 1.2, "sm must lose at 100-cycle latency: {r100:.2}");
    assert!(r200 > r100, "the gap must widen with latency");
    assert!(
        (1.2..4.0).contains(&r200),
        "factor in the published band: {r200:.2}"
    );
}

#[test]
fn shared_memory_volume_exceeds_message_passing_everywhere() {
    // Figure 5: shared memory's cache-line round trips cost several times
    // the communication volume of one-way messages, on every application.
    let cfg = MachineConfig::alewife();
    for spec in AppSpec::small_suite() {
        let sm = run_app(&spec, Mechanism::SharedMem, &cfg);
        let mp = run_app(&spec, Mechanism::MsgPoll, &cfg);
        let ratio = sm.stats.volume.app_total() as f64 / mp.stats.volume.app_total() as f64;
        assert!(
            ratio > 1.3,
            "{}: sm/mp volume ratio {ratio:.2} should exceed 1.3",
            spec.name()
        );
        // Invalidations exist only under shared memory.
        assert!(sm.stats.volume.invalidates > 0, "{}", spec.name());
        assert_eq!(mp.stats.volume.invalidates, 0, "{}", spec.name());
    }
}

#[test]
fn cross_traffic_actually_crosses_the_bisection() {
    let mut cfg = MachineConfig::alewife();
    cfg.cross_traffic = Some(commsense::mesh::CrossTrafficConfig::consuming(
        8.0,
        cfg.clock(),
        64,
        cfg.net.topo.io_streams(),
    ));
    let r = run_app(&em3d(), Mechanism::MsgPoll, &cfg);
    assert!(
        r.stats.bisection.cross_traffic > 0,
        "cross traffic must load the cut"
    );
    assert!(r.verified);
}

#[test]
fn polling_beats_interrupts_most_on_iccg() {
    // §4.3.3: ICCG shows the largest interrupt->polling improvement.
    let cfg = MachineConfig::alewife();
    let mut best: Option<(&'static str, f64)> = None;
    for spec in AppSpec::small_suite() {
        let int = run_app(&spec, Mechanism::MsgInterrupt, &cfg);
        let poll = run_app(&spec, Mechanism::MsgPoll, &cfg);
        let gain = int.runtime_cycles as f64 / poll.runtime_cycles as f64;
        if best.map(|(_, g)| gain > g).unwrap_or(true) {
            best = Some((spec.name(), gain));
        }
    }
    assert_eq!(best.expect("ran").0, "ICCG", "largest poll gain: {best:?}");
}
