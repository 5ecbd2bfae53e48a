//! Proves that latency emulation leaves shared memory no network to use.
//!
//! Under Figure 10's emulation every protocol message skips the network,
//! so `MachineConfig::with_latency_emulation` resets a shared-memory
//! request's cross traffic, protocol variant and topology to the
//! canonical machine. This test runs every fig-10 shared-memory request
//! that `repro scale --small` and `repro hostile --small` plan twice: as
//! the config names it before the reset (the field set directly, with its
//! cross traffic, variant and topology), and as the plan builder now
//! issues it. Both must give the same runtime, verification and error.
//!
//! Bench-sized and checked at 256 nodes, so it is ignored by default;
//! run it with `cargo test --release -p commsense-bench --test
//! emulation_normalization -- --ignored`.

use std::collections::HashMap;

use commsense_apps::{run_app, AppSpec};
use commsense_bench::{em3d_spec, Scale};
use commsense_core::engine::RunRequest;
use commsense_core::experiment::ctx_switch_plan;
use commsense_core::store::ResultStore;
use commsense_machine::{CheckConfig, MachineConfig, Mechanism, ProtoVariant};
use commsense_mesh::{CrossTrafficConfig, TrafficPattern};

const SM_MP: [Mechanism; 2] = [Mechanism::SharedMem, Mechanism::MsgPoll];

/// One fig-10 plan's shared-memory requests, each paired with the
/// config it would run on if emulation were set on the field alone.
fn planned_and_normalized(
    spec: &AppSpec,
    cfg: &MachineConfig,
    lats: &[u64],
) -> Vec<(MachineConfig, RunRequest)> {
    let plan = ctx_switch_plan(spec, &SM_MP, cfg, lats);
    let sm = plan
        .requests()
        .iter()
        .filter(|r| r.mechanism == Mechanism::SharedMem);
    sm.zip(lats)
        .map(|(req, &lat)| {
            let mut planned = cfg.clone();
            planned.latency_emulation = Some(lat);
            (planned, req.clone())
        })
        .collect()
}

/// `repro scale --small`: mesh and torus at 64 and 256 nodes, checked.
fn scale_small() -> Vec<(MachineConfig, RunRequest)> {
    let mut out = Vec::new();
    for nodes in [64, 256] {
        let mut p = commsense_workloads::bipartite::Em3dParams::small();
        p.nodes = (4 * nodes).max(2000);
        p.iterations = 3;
        let spec = AppSpec::Em3d(p);
        for kind in ["mesh", "torus"] {
            let mut cfg = MachineConfig::scaled(kind, nodes);
            cfg.check = Some(CheckConfig::full());
            out.extend(planned_and_normalized(&spec, &cfg, &[50, 200, 800]));
        }
    }
    out
}

/// `repro hostile --small`: both variants under every traffic pattern.
fn hostile_small() -> Vec<(MachineConfig, RunRequest)> {
    let spec = em3d_spec(Scale::Small);
    let base = MachineConfig::alewife();
    let nodes = base.nodes as u16;
    let patterns = [
        TrafficPattern::Uniform,
        TrafficPattern::Hotspot {
            node: 0,
            fraction: 0.5,
        },
        TrafficPattern::Bursty { on: 2, off: 6 },
        TrafficPattern::Incast {
            targets: nodes.min(2),
        },
    ];
    let mut out = Vec::new();
    for variant in [ProtoVariant::Baseline, ProtoVariant::CriticalityAware] {
        for pattern in patterns {
            let mut cfg = base.clone();
            cfg.variant = variant;
            let streams = cfg.net.topo.io_streams();
            let cross = CrossTrafficConfig::consuming(8.0, cfg.clock(), 64, streams);
            cfg.cross_traffic = Some(cross.with_pattern(pattern, nodes, 7));
            out.extend(planned_and_normalized(&spec, &cfg, &[30, 800]));
        }
    }
    out
}

/// Runs every pair and checks that planned and normalized agree; returns
/// how many distinct normalized runs there were.
fn assert_equal_runs(pairs: &[(MachineConfig, RunRequest)]) -> usize {
    let mut normalized: HashMap<u128, (u64, bool, f64)> = HashMap::new();
    for (planned, req) in pairs {
        let outcome = |cfg: &MachineConfig| {
            let r = run_app(&req.spec, req.mechanism, cfg);
            (r.runtime_cycles, r.verified, r.max_abs_err)
        };
        let want = *normalized
            .entry(ResultStore::request_key(req))
            .or_insert_with(|| outcome(&req.cfg));
        assert_eq!(
            outcome(planned),
            want,
            "{} nodes on {}, {:?} emulated cycles",
            planned.nodes,
            planned.net.topo.describe(),
            planned.latency_emulation
        );
    }
    normalized.len()
}

#[test]
#[ignore = "bench-sized checked runs; run with --release -- --ignored"]
fn scale_small_fig10_sm_runs_equal_their_normalized_runs() {
    let pairs = scale_small();
    assert_eq!(pairs.len(), 12);
    assert_eq!(assert_equal_runs(&pairs), 6);
}

#[test]
#[ignore = "bench-sized hostile runs; run with --release -- --ignored"]
fn hostile_small_fig10_sm_runs_equal_their_normalized_runs() {
    let pairs = hostile_small();
    assert_eq!(pairs.len(), 16);
    assert_eq!(assert_equal_runs(&pairs), 2);
}
