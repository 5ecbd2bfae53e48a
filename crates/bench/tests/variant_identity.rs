//! Differential identity pins for the protocol-variant layer.
//!
//! The criticality-aware variant and the hostile traffic patterns are
//! strictly additive: `ProtoVariant::Baseline` sends every packet at low
//! priority (the priority channel degenerates to the original FIFO) and
//! `TrafficPattern::Uniform` replays the original cross-traffic stream
//! byte for byte. These tests pin that contract three ways:
//!
//! * a fig4-style release pin of cycle and event counts under baseline +
//!   uniform cross-traffic, captured before the variant layer landed —
//!   any drift means the baseline path is no longer the pre-variant
//!   simulator;
//! * explicit-default identity: spelling out `Baseline`/`Uniform` must be
//!   `Debug`-identical to leaving both unset, at full fidelity;
//! * harness identity under hostility: the checker and observability
//!   layers stay invisible to the simulation even with the
//!   criticality-aware variant and every hostile pattern enabled.

use commsense_apps::{run_app, run_prepared, AppSpec};
use commsense_bench::{em3d_spec, Scale};
use commsense_machine::{CheckConfig, MachineConfig, Mechanism, ObserveConfig, ProtoVariant};
use commsense_mesh::{CrossTrafficConfig, TrafficPattern};

/// Uniform IO-stream cross-traffic at the paper's 8 B/cycle consumption —
/// the pre-variant hostile baseline.
fn uniform_cross(cfg: &MachineConfig) -> CrossTrafficConfig {
    CrossTrafficConfig::consuming(8.0, cfg.clock(), 64, cfg.net.topo.build().io_streams())
}

/// Every hostile pattern at the 4-node tiny scale used by the identity
/// suites (node 0 hotspot, 2-on/6-off bursts, 2-way incast).
fn hostile_patterns(nodes: u16) -> [TrafficPattern; 3] {
    [
        TrafficPattern::Hotspot {
            node: 0,
            fraction: 0.5,
        },
        TrafficPattern::Bursty { on: 2, off: 6 },
        TrafficPattern::Incast {
            targets: nodes.min(2),
        },
    ]
}

/// Baseline + uniform cross-traffic cycle/event counts, captured at the
/// commit immediately before the variant layer landed (verified identical
/// from a pre-variant worktree). Pinned in `Mechanism::ALL` order.
const EXPECTED: [(&str, u64, u64); 5] = [
    ("sm", 98_466, 541_962),
    ("sm+pf", 90_125, 524_376),
    ("mp-int", 84_556, 210_231),
    ("mp-poll", 72_322, 185_165),
    ("bulk", 94_469, 211_642),
];

/// Bench-scale pin: the baseline variant under uniform cross-traffic is
/// bit-identical to the pre-variant simulator for all five mechanisms.
#[test]
#[ignore = "fig4-scale simulation; run with --release -- --ignored"]
fn baseline_uniform_cross_pins() {
    let mut cfg = MachineConfig::alewife();
    cfg.cross_traffic = Some(uniform_cross(&cfg));
    assert_eq!(
        cfg.variant,
        ProtoVariant::Baseline,
        "baseline is the default"
    );
    let prepared = em3d_spec(Scale::Bench).prepare(cfg.nodes);
    assert_eq!(Mechanism::ALL.len(), EXPECTED.len());
    for (&m, (mech, cycles, events)) in Mechanism::ALL.iter().zip(EXPECTED) {
        let run = run_prepared(&prepared, m, &cfg);
        assert_eq!(m.label(), mech);
        assert!(run.verified, "{mech} failed verification");
        assert_eq!(
            run.runtime_cycles, cycles,
            "{mech}: runtime drifted from the pre-variant pin"
        );
        assert_eq!(
            run.stats.events, events,
            "{mech}: event count drifted from the pre-variant pin"
        );
    }
}

/// Spelling out the defaults — `ProtoVariant::Baseline` and
/// `TrafficPattern::Uniform` — is `Debug`-identical to not mentioning
/// them, for every app and mechanism of the identity suite.
#[test]
fn explicit_defaults_are_identical() {
    let mut cfg_implicit = MachineConfig::alewife();
    cfg_implicit.cross_traffic = Some(uniform_cross(&cfg_implicit));
    let mut cfg_explicit = cfg_implicit.clone();
    cfg_explicit.variant = ProtoVariant::Baseline;
    let streams = cfg_explicit
        .cross_traffic
        .as_ref()
        .expect("cross-traffic set")
        .streams;
    cfg_explicit.cross_traffic = Some(
        CrossTrafficConfig::consuming(8.0, cfg_explicit.clock(), 64, streams).with_pattern(
            TrafficPattern::Uniform,
            cfg_explicit.nodes as u16,
            7,
        ),
    );

    for spec in AppSpec::small_suite() {
        for mech in [Mechanism::SharedMem, Mechanism::MsgPoll, Mechanism::Bulk] {
            let implicit = run_app(&spec, mech, &cfg_implicit);
            let explicit = run_app(&spec, mech, &cfg_explicit);
            assert_eq!(
                format!("{implicit:?}"),
                format!("{explicit:?}"),
                "{} under {mech}: explicit baseline/uniform changed the run",
                spec.name()
            );
        }
    }
}

/// The correctness harness stays invisible with the criticality-aware
/// variant and every hostile traffic pattern enabled: checking on vs off
/// is `Debug`-identical, and every checked run still verifies.
#[test]
fn checking_is_invisible_under_hostile_traffic() {
    let base = MachineConfig::alewife();
    for pattern in hostile_patterns(base.nodes as u16) {
        let mut cfg_off = base.clone();
        cfg_off.variant = ProtoVariant::CriticalityAware;
        cfg_off.cross_traffic =
            Some(uniform_cross(&cfg_off).with_pattern(pattern, cfg_off.nodes as u16, 7));
        let mut cfg_on = cfg_off.clone();
        cfg_on.check = Some(CheckConfig::full());

        for spec in AppSpec::small_suite() {
            for mech in [Mechanism::SharedMem, Mechanism::MsgPoll, Mechanism::Bulk] {
                let off = run_app(&spec, mech, &cfg_off);
                let on = run_app(&spec, mech, &cfg_on);
                assert!(
                    on.verified,
                    "{} under {mech} failed checked under {}",
                    spec.name(),
                    pattern.label()
                );
                assert_eq!(
                    format!("{off:?}"),
                    format!("{on:?}"),
                    "{} under {mech}: checking changed a {} run",
                    spec.name(),
                    pattern.label()
                );
            }
        }
    }
}

/// The observability layer stays invisible to simulated time under the
/// criticality-aware variant with hostile traffic: runtime and stats are
/// identical with observation on, for every pattern.
#[test]
fn observation_is_invisible_under_hostile_traffic() {
    let base = MachineConfig::alewife();
    for pattern in hostile_patterns(base.nodes as u16) {
        let mut cfg_off = base.clone();
        cfg_off.variant = ProtoVariant::CriticalityAware;
        cfg_off.cross_traffic =
            Some(uniform_cross(&cfg_off).with_pattern(pattern, cfg_off.nodes as u16, 7));
        let mut cfg_on = cfg_off.clone();
        cfg_on.observe = Some(ObserveConfig {
            epoch_cycles: 250,
            trace_capacity: 1 << 12,
            max_packets: 1 << 12,
            ..Default::default()
        });

        for spec in AppSpec::small_suite() {
            for mech in [Mechanism::SharedMem, Mechanism::MsgPoll, Mechanism::Bulk] {
                let off = run_app(&spec, mech, &cfg_off);
                let mut on = run_app(&spec, mech, &cfg_on);
                assert!(
                    on.observation.take().is_some(),
                    "observe config implies an observation"
                );
                assert_eq!(
                    format!("{off:?}"),
                    format!("{on:?}"),
                    "{} under {mech}: observation changed a {} run",
                    spec.name(),
                    pattern.label()
                );
            }
        }
    }
}
