//! Pins the result store's content address.
//!
//! A store filled by one build must replay fully warm in the next unless
//! the model changed, so the bytes `ResultStore::request_key` hashes must
//! not drift when the encoder behind it is rewritten. This test hashes
//! the keys of every `repro all --small` request, plus a few `hostile`
//! and `scale` requests that exercise the cross-traffic patterns, latency
//! emulation, the protocol variant and the topology, and compares the
//! result with a committed digest.

use commsense_bench::{em3d_spec, Scale};
use commsense_core::engine::RunRequest;
use commsense_core::experiment::{bisection_plan, ctx_switch_plan};
use commsense_core::figures::Figure;
use commsense_core::plan::{resolve, PlanSpec};
use commsense_core::store::ResultStore;
use commsense_des::fnv1a_128;
use commsense_machine::{CheckConfig, MachineConfig, Mechanism, ProtoVariant};
use commsense_mesh::{CrossTrafficConfig, TrafficPattern};

const SM_MP: [Mechanism; 2] = [Mechanism::SharedMem, Mechanism::MsgPoll];

/// Every request `repro all --small` plans, in plan order.
fn all_small() -> Vec<RunRequest> {
    Figure::ALL
        .into_iter()
        .flat_map(|figure| {
            let spec = PlanSpec {
                figure,
                scale: Scale::Small,
                apps: Vec::new(),
                mechanisms: Vec::new(),
            };
            resolve(&spec).expect("the figure resolves").requests
        })
        .collect()
}

/// `repro hostile`'s requests for three (variant, pattern) combinations.
fn hostile() -> Vec<RunRequest> {
    let spec = em3d_spec(Scale::Small);
    let base = MachineConfig::alewife();
    let nodes = base.nodes as u16;
    let combos = [
        (
            ProtoVariant::Baseline,
            TrafficPattern::Hotspot {
                node: 0,
                fraction: 0.5,
            },
        ),
        (
            ProtoVariant::CriticalityAware,
            TrafficPattern::Incast {
                targets: nodes.min(2),
            },
        ),
        (
            ProtoVariant::CriticalityAware,
            TrafficPattern::Bursty { on: 2, off: 6 },
        ),
    ];
    let mut reqs = Vec::new();
    for (variant, pattern) in combos {
        let mut cfg = base.clone();
        cfg.variant = variant;
        let streams = cfg.net.topo.io_streams();
        let cross = CrossTrafficConfig::consuming(8.0, cfg.clock(), 64, streams);
        cfg.cross_traffic = Some(cross.with_pattern(pattern, nodes, 7));
        reqs.extend_from_slice(Figure::Fig4.plan(&spec, &SM_MP, &cfg).requests());
        reqs.extend_from_slice(ctx_switch_plan(&spec, &SM_MP, &cfg, &[30, 800]).requests());
    }
    reqs
}

/// `repro scale`'s fig-8 and fig-10 requests for 64-node machines of
/// each topology kind in `kinds`.
fn scale(kinds: &[&str]) -> Vec<RunRequest> {
    let mut p = commsense_workloads::bipartite::Em3dParams::small();
    p.nodes = 2000;
    p.iterations = 3;
    let spec = commsense_apps::AppSpec::Em3d(p);
    let mut reqs = Vec::new();
    for &kind in kinds {
        let cfg = MachineConfig::scaled(kind, 64);
        let bpc = cfg.net.bisection_bytes_per_cycle(cfg.clock());
        let consumed = [0.0, bpc * 0.5];
        reqs.extend_from_slice(bisection_plan(&spec, &SM_MP, &cfg, &consumed, 64).requests());
        let mut cfg10 = cfg.clone();
        cfg10.check = Some(CheckConfig::full());
        reqs.extend_from_slice(ctx_switch_plan(&spec, &SM_MP, &cfg10, &[50, 800]).requests());
    }
    reqs
}

/// The FNV-1a hash of every request's key, little-endian, in order.
fn digest(reqs: &[RunRequest]) -> u128 {
    let bytes: Vec<u8> = reqs
        .iter()
        .flat_map(|r| ResultStore::request_key(r).to_le_bytes())
        .collect();
    fnv1a_128(&bytes)
}

/// Re-record the digests only when `MODEL_VERSION` or the fields a key
/// hashes change on purpose: any other drift would strand every store
/// filled before it.
#[test]
fn store_keys_match_the_recorded_digest() {
    let all = all_small();
    assert_eq!(all.len(), 292, "repro all --small plans 292 requests");
    let got = [
        digest(&all),
        digest(&hostile()),
        digest(&scale(&["mesh", "torus"])),
        digest(&scale(&["fat-tree", "dragonfly"])),
    ];
    let want: [u128; 4] = [
        0x31726bce8f0b31b3125154db68d53f1a,
        0x88f712f376e92d862e85637d8387c550,
        0x23bf64c6c05f27378f41347f8f300a98,
        0xda40d1e603dbcd45d7ab171bf7fd8625,
    ];
    assert_eq!(
        got.map(|d| format!("{d:032x}")),
        want.map(|d| format!("{d:032x}"))
    );
}
