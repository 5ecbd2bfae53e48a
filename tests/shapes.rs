//! Paper-shape regression suite: the qualitative claims of the paper
//! (and of EXPERIMENTS.md) pinned at the small workload scale, so any
//! model change that bends a curve the wrong way fails tier-1 instead
//! of silently shipping a different paper.
//!
//! The simulator is deterministic, so these are exact reruns; margins
//! exist only to leave room for deliberate cost-table recalibration,
//! not for noise. All margins were calibrated against the measured
//! small-scale numbers (see EXPERIMENTS.md for the bench-scale
//! versions of each claim).

use commsense::apps::{run_app, AppSpec, RunResult};
use commsense::core::engine::{Runner, WorkloadCache};
use commsense::core::experiment::{
    base_comparison_requests, bisection_plan, ctx_switch_plan, Sweep,
};
use commsense::machine::{MachineConfig, Mechanism, ProtoVariant};
use commsense::mesh::{CrossTrafficConfig, TrafficPattern};

fn runtime(results: &[RunResult], mech: Mechanism) -> f64 {
    let r = results
        .iter()
        .find(|r| r.mechanism == mech)
        .unwrap_or_else(|| panic!("no {} result", mech.label()));
    assert!(r.verified, "{} {} failed verification", r.app, r.mechanism);
    r.runtime_cycles as f64
}

fn sweep(sweeps: &[Sweep], mech: Mechanism) -> &Sweep {
    sweeps
        .iter()
        .find(|s| s.mechanism == mech)
        .unwrap_or_else(|| panic!("no {} sweep", mech.label()))
}

/// First-to-last growth of one mechanism's curve.
fn growth(sweeps: &[Sweep], mech: Mechanism) -> f64 {
    let r = sweep(sweeps, mech).runtimes();
    assert!(r.len() >= 2, "{} sweep too short", mech.label());
    *r.last().unwrap() as f64 / r[0] as f64
}

use Mechanism::{Bulk, MsgInterrupt, MsgPoll, SharedMem, SharedMemPrefetch};

/// Figure 4, base machine: shared memory is competitive on every
/// irregular app, polling beats interrupts everywhere (most on ICCG),
/// and bulk transfer wins nowhere.
#[test]
fn fig4_base_machine_orderings() {
    let cfg = MachineConfig::alewife();
    let runner = Runner::serial();
    let mut polling_gain = Vec::new();
    for spec in AppSpec::small_suite() {
        let results = runner.run(&base_comparison_requests(&spec, &cfg));
        let app = spec.name();
        let (sm, mp_int, mp_poll, bulk) = (
            runtime(&results, SharedMem),
            runtime(&results, MsgInterrupt),
            runtime(&results, MsgPoll),
            runtime(&results, Bulk),
        );

        // "Shared memory performs well on all four applications": never
        // more than 1.5x message passing with interrupts (measured worst
        // case is MOLDYN at 1.41x), and outright faster on ICCG.
        assert!(
            sm <= 1.5 * mp_int,
            "{app}: sm {sm} not competitive with mp-int {mp_int}"
        );
        if app == "ICCG" {
            assert!(sm < mp_int, "ICCG: sm must beat mp-int ({sm} vs {mp_int})");
        }

        // "Polling beats interrupts" on every app.
        assert!(
            mp_poll < mp_int,
            "{app}: polling {mp_poll} must beat interrupts {mp_int}"
        );
        polling_gain.push((app, (mp_int - mp_poll) / mp_int));

        // "Bulk transfer wins nowhere": never the fastest mechanism, and
        // always behind fine-grained polling in particular.
        let best = Mechanism::ALL
            .iter()
            .map(|&m| runtime(&results, m))
            .fold(f64::INFINITY, f64::min);
        assert!(bulk > best, "{app}: bulk {bulk} must not win (best {best})");
        assert!(
            bulk > mp_poll,
            "{app}: bulk {bulk} must trail mp-poll {mp_poll}"
        );
    }

    // The polling win is largest where messages are plentiful: ICCG's
    // fine-grained dataflow messages make it the extreme case.
    let iccg = polling_gain
        .iter()
        .find(|(app, _)| *app == "ICCG")
        .expect("ICCG measured")
        .1;
    for &(app, gain) in &polling_gain {
        assert!(
            gain <= iccg,
            "{app}: polling gain {gain:.3} exceeds ICCG's {iccg:.3}"
        );
    }
}

/// Figure 8 extremes: dropping the bisection from the full 18 B/cycle
/// to an emulated 2 B/cycle punishes shared memory on every app while
/// message passing barely moves, and produces the ICCG sm/mp-int
/// crossover the paper calls out.
#[test]
fn fig8_bisection_extremes() {
    let cfg = MachineConfig::alewife();
    let runner = Runner::serial();
    let mut cache = WorkloadCache::new();
    for spec in AppSpec::small_suite() {
        let app = spec.name();
        // Consume 0 and 16 of the 18 B/cycle: the sweep's two endpoints.
        let sweeps = bisection_plan(&spec, &Mechanism::ALL, &cfg, &[0.0, 16.0], 64)
            .run_with(&runner, &mut cache);
        for s in &sweeps {
            for p in &s.points {
                assert!(
                    p.result.verified,
                    "{app} {} failed at x={}",
                    s.mechanism, p.x
                );
            }
        }

        // Message passing is nearly flat; shared memory degrades, and by
        // at least twice message passing's relative movement.
        let (sm, mp_int) = (growth(&sweeps, SharedMem), growth(&sweeps, MsgInterrupt));
        assert!(
            mp_int < 1.10,
            "{app}: mp-int moved {mp_int:.3}x (nearly flat expected)"
        );
        assert!(
            sm > 1.10,
            "{app}: sm moved only {sm:.3}x under bisection loss"
        );
        assert!(
            sm - 1.0 > 2.0 * (mp_int - 1.0),
            "{app}: sm sensitivity {sm:.3}x must dwarf mp-int's {mp_int:.3}x"
        );

        // At the starved extreme, fine-grained polling is the fastest
        // mechanism outright.
        let at_min = |m: Mechanism| *sweep(&sweeps, m).runtimes().last().unwrap();
        let poll = at_min(MsgPoll);
        for &m in &[SharedMem, SharedMemPrefetch, MsgInterrupt, Bulk] {
            assert!(
                poll < at_min(m),
                "{app}: mp-poll {poll} must win at 2 B/cycle (vs {} {})",
                m.label(),
                at_min(m)
            );
        }

        // The ICCG crossover: shared memory beats mp-int on the full
        // machine but loses once the bisection is starved.
        if app == "ICCG" {
            let (sm, mp) = (sweep(&sweeps, SharedMem), sweep(&sweeps, MsgInterrupt));
            assert!(
                sm.runtimes()[0] < mp.runtimes()[0],
                "ICCG: sm wins at 18 B/cycle"
            );
            assert!(
                sm.runtimes().last() > mp.runtimes().last(),
                "ICCG: sm must cross above mp-int at 2 B/cycle"
            );
        }
    }
}

/// Hostile traffic at the paper's 8 B/cycle consumption, reshaped by
/// `pattern` across this machine's nodes.
fn hostile(cfg: &MachineConfig, pattern: TrafficPattern) -> CrossTrafficConfig {
    let cross = CrossTrafficConfig::consuming(8.0, cfg.clock(), 64, cfg.net.topo.io_streams());
    cross.with_pattern(pattern, cfg.nodes as u16, 7)
}

/// Incast under the Figure 10 extremes: shared memory still degrades
/// strictly faster with remote-miss latency than message passing on every
/// app — the adversarial pattern does not rescue shared memory, and the
/// message-passing base points absorb the incast without the mechanism
/// ordering collapsing.
#[test]
fn hostile_incast_latency_orderings() {
    let runner = Runner::serial();
    let mut cache = WorkloadCache::new();
    for spec in AppSpec::small_suite() {
        let app = spec.name();
        let mut cfg = MachineConfig::alewife();
        cfg.cross_traffic = Some(hostile(&cfg, TrafficPattern::Incast { targets: 2 }));
        let sweeps = ctx_switch_plan(&spec, &[SharedMem, MsgPoll, MsgInterrupt], &cfg, &[30, 800])
            .run_with(&runner, &mut cache);
        for s in &sweeps {
            s.assert_verified();
        }

        // sm degrades strictly faster with latency than both mp flavors
        // (which never see the emulated miss latency: their curves stay
        // exactly flat even with the incast saturating their links).
        let sm = growth(&sweeps, SharedMem);
        for &m in &[MsgPoll, MsgInterrupt] {
            let mp = growth(&sweeps, m);
            assert!(
                (mp - 1.0).abs() < 1e-9,
                "{app}: {} must stay flat under incast, moved {mp:.3}x",
                m.label()
            );
            assert!(
                sm > mp,
                "{app}: sm growth {sm:.2}x must strictly exceed {}'s {mp:.2}x",
                m.label()
            );
        }
        assert!(
            sm > 1.5,
            "{app}: sm grew only {sm:.2}x from 30 to 800 cycles under incast"
        );
    }
}

/// Hotspot under the criticality-aware variant. At the Figure 10
/// extremes the emulation's ideal network makes both variants' slopes
/// coincide, so criticality-aware is never steeper (the issue's "slope
/// <= baseline" bound, tight). On the real network the variant is where
/// the action is: demand misses jump the queued hotspot traffic, so
/// criticality-aware shared memory beats baseline outright on the
/// communication-bound apps and never loses more than noise elsewhere.
/// (MOLDYN is excluded from the real-network half: a 0.5-fraction
/// hotspot drives baseline sm there to ~107M cycles — the near-livelock
/// that motivates the variant, but far too slow for a debug-mode tier-1
/// test.)
#[test]
fn hostile_hotspot_criticality_slopes() {
    let runner = Runner::serial();
    let mut cache = WorkloadCache::new();
    let pattern = TrafficPattern::Hotspot {
        node: 0,
        fraction: 0.5,
    };
    for spec in AppSpec::small_suite() {
        let app = spec.name();
        let growth_of = |variant: ProtoVariant, cache: &mut WorkloadCache| {
            let mut cfg = MachineConfig::alewife();
            cfg.variant = variant;
            cfg.cross_traffic = Some(hostile(&cfg, pattern));
            let sweeps =
                ctx_switch_plan(&spec, &[SharedMem], &cfg, &[30, 800]).run_with(&runner, cache);
            sweeps[0].assert_verified();
            growth(&sweeps, SharedMem)
        };
        let base = growth_of(ProtoVariant::Baseline, &mut cache);
        let crit = growth_of(ProtoVariant::CriticalityAware, &mut cache);
        assert!(
            crit <= base + 1e-9,
            "{app}: criticality-aware sm slope {crit:.3}x exceeds baseline's {base:.3}x"
        );
    }

    // Real network, same hotspot: the priority channel must pay for
    // itself where shared memory is communication-bound and cost at most
    // noise where it is not (measured +0.3% on UNSTRUC).
    for spec in AppSpec::small_suite() {
        let app = spec.name();
        if app == "MOLDYN" {
            continue;
        }
        let runtime_of = |variant: ProtoVariant| {
            let mut cfg = MachineConfig::alewife();
            cfg.variant = variant;
            cfg.cross_traffic = Some(hostile(&cfg, pattern));
            let r = run_app(&spec, SharedMem, &cfg);
            assert!(r.verified, "{app} sm failed under hotspot ({variant:?})");
            r.runtime_cycles as f64
        };
        let base = runtime_of(ProtoVariant::Baseline);
        let crit = runtime_of(ProtoVariant::CriticalityAware);
        assert!(
            crit <= 1.02 * base,
            "{app}: criticality-aware sm {crit} worse than baseline {base} under hotspot"
        );
        // EM3D and ICCG are hotspot-bound: the bypass must win big
        // (measured 7.7x and 5.1x respectively).
        if app == "EM3D" || app == "ICCG" {
            assert!(
                crit < 0.5 * base,
                "{app}: criticality-aware sm {crit} must at least halve baseline {base}"
            );
        }
    }
}

/// Figure 10 extremes: under emulated uniform remote-miss latency,
/// shared memory degrades steeply while message passing is insensitive;
/// the Chandra et al. ~2x message-passing advantage appears in the
/// 100-200-cycle band on EM3D.
#[test]
fn fig10_latency_extremes() {
    let cfg = MachineConfig::alewife();
    let runner = Runner::serial();
    let mut cache = WorkloadCache::new();
    for spec in AppSpec::small_suite() {
        let app = spec.name();
        let lats: &[u64] = if app == "EM3D" {
            &[30, 100, 200, 800]
        } else {
            &[30, 800]
        };
        let sweeps =
            ctx_switch_plan(&spec, &Mechanism::ALL, &cfg, lats).run_with(&runner, &mut cache);

        // Message passing does not see remote-miss latency at all: its
        // curves are exactly flat (the paper plots them flat too).
        for &m in &[MsgInterrupt, MsgPoll, Bulk] {
            let r = sweep(&sweeps, m).runtimes();
            assert!(
                r.iter().all(|&v| v == r[0]),
                "{app}: {} must be flat, got {r:?}",
                m.label()
            );
        }

        // Shared memory pays for every added cycle of latency — steeply
        // on EM3D (measured 6.5x from 30 to 800 cycles; bench scale 5.0x).
        let sm = growth(&sweeps, SharedMem);
        assert!(
            sm > 1.5,
            "{app}: sm grew only {sm:.2}x from 30 to 800 cycles"
        );
        if app == "EM3D" {
            assert!(sm > 4.0, "EM3D: sm grew only {sm:.2}x (about 5x expected)");
        }

        // At the 800-cycle extreme every message-passing mechanism beats
        // every shared-memory mechanism, on every app.
        let at_max = |m: Mechanism| *sweep(&sweeps, m).runtimes().last().unwrap();
        let slowest_mp = [MsgInterrupt, MsgPoll, Bulk].map(at_max).into_iter().max();
        let fastest_sm = [SharedMem, SharedMemPrefetch].map(at_max).into_iter().min();
        assert!(
            slowest_mp < fastest_sm,
            "{app}: message passing must dominate at 800 cycles ({slowest_mp:?} vs {fastest_sm:?})"
        );

        // Prefetching has the shallower slope where it can overlap real
        // work (UNSTRUC's streaming reads, MOLDYN's force writebacks).
        if app == "UNSTRUC" || app == "MOLDYN" {
            let pf = growth(&sweeps, SharedMemPrefetch);
            assert!(
                pf < sm,
                "{app}: prefetch slope {pf:.2}x must be shallower than sm's {sm:.2}x"
            );
        }

        // The Chandra et al. comparison point (§6): message passing about
        // twice as fast on EM3D in the 100-200-cycle band (measured
        // sm/mp-poll 1.38 at 100 and 2.04 at 200 cycles).
        if app == "EM3D" {
            let sm_curve = sweep(&sweeps, SharedMem);
            let poll = sweep(&sweeps, MsgPoll).runtimes()[0] as f64;
            let ratio_at = |x: f64| {
                sm_curve
                    .point_at(x)
                    .unwrap_or_else(|| panic!("no sm point at {x}"))
                    .result
                    .runtime_cycles as f64
                    / poll
            };
            let (r100, r200) = (ratio_at(100.0), ratio_at(200.0));
            assert!(
                (1.2..1.7).contains(&r100),
                "EM3D sm/mp-poll at 100 cycles: {r100:.2} (expected ~1.4)"
            );
            assert!(
                (1.7..2.5).contains(&r200),
                "EM3D sm/mp-poll at 200 cycles: {r200:.2} (expected ~2)"
            );
        }
    }
}
