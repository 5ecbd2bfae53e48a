//! The daemon's decoders never panic: every truncation and every
//! single-byte substitution that keeps the text valid UTF-8, applied to
//! each canonical protocol line and to one real run manifest, must make
//! the decoder return `Ok` or `Err`. A decoder panic on a client's line
//! would kill the reader thread it runs on instead of yielding an error
//! reply.

use std::panic::{catch_unwind, AssertUnwindSafe};

use commsense_apps::{run_prepared, AppSpec, Scale};
use commsense_core::engine::RunRequest;
use commsense_core::json::Json;
use commsense_core::manifest::{manifest_json, validate_manifest};
use commsense_machine::{MachineConfig, Mechanism};
use commsense_service::protocol::{
    ClientMsg, Figure, JobStats, PlanSpec, ServerMsg, ServiceStats, Source,
};
use commsense_workloads::bipartite::Em3dParams;

/// Every truncation of `good`, then every single-byte substitution of it,
/// skipping those that are not valid UTF-8. Returns how many variants
/// `decode` saw.
fn for_each_mutation(good: &str, mut decode: impl FnMut(&str)) -> usize {
    let bytes = good.as_bytes();
    let mut seen = 0;
    for end in 0..bytes.len() {
        if let Ok(text) = std::str::from_utf8(&bytes[..end]) {
            decode(text);
            seen += 1;
        }
    }
    let mut bad = bytes.to_vec();
    for i in 0..bytes.len() {
        for b in 0..=u8::MAX {
            if b == bytes[i] {
                continue;
            }
            bad[i] = b;
            if let Ok(text) = std::str::from_utf8(&bad) {
                decode(text);
                seen += 1;
            }
        }
        bad[i] = bytes[i];
    }
    seen
}

/// Runs `decode` on every mutation of `good`, failing with the offending
/// input if any call panics.
fn never_panics(what: &str, good: &str, decode: impl Fn(&str)) {
    let seen = for_each_mutation(good, |text| {
        if catch_unwind(AssertUnwindSafe(|| decode(text))).is_err() {
            panic!("{what}: decoder panicked on {text:?}");
        }
    });
    assert!(seen > good.len(), "{what}: too few mutations ({seen})");
}

fn client_lines() -> Vec<String> {
    [
        ClientMsg::Submit {
            id: "job-1".into(),
            plan: PlanSpec {
                figure: Figure::Fig8,
                scale: Scale::Small,
                apps: vec!["EM3D".into()],
                mechanisms: vec!["sm".into(), "mp-poll".into()],
            },
        },
        ClientMsg::Cancel {
            id: "j\"x\"".into(),
        },
        ClientMsg::Stats,
        ClientMsg::Shutdown,
    ]
    .iter()
    .map(ClientMsg::line)
    .collect()
}

fn server_lines() -> Vec<String> {
    [
        ServerMsg::Accepted {
            id: "j".into(),
            total: 20,
        },
        ServerMsg::Progress {
            id: "j".into(),
            done: 3,
            total: 20,
            app: "EM3D".into(),
            mech: "sm+pf".into(),
            x: 11.43,
            runtime_cycles: 123_456,
            source: Source::Inflight,
        },
        ServerMsg::PointFailed {
            id: "j".into(),
            done: 4,
            total: 20,
            app: "ICCG".into(),
            mech: "bulk".into(),
            x: 0.5,
            message: "deadlock: nodes blocked\n\"0:BlockedMsg\"".into(),
        },
        ServerMsg::Done {
            id: "j".into(),
            stats: JobStats {
                total: 20,
                simulated: 10,
                store_hits: 5,
                inflight_hits: 5,
                failed: 0,
            },
            csvs: vec![("fig4_em3d.csv".into(), "a,b\n1,2\n".into())],
        },
        ServerMsg::Cancelled { id: "j".into() },
        ServerMsg::Stats(ServiceStats {
            clients: 2,
            jobs_active: 1,
            jobs_done: 3,
            unique_runs: 40,
            runs_running: 2,
            simulated: 30,
            store_hits: 10,
            inflight_hits: 20,
        }),
        ServerMsg::Error {
            id: Some("j".into()),
            message: "unknown app".into(),
        },
        ServerMsg::Stopping,
    ]
    .iter()
    .map(ServerMsg::line)
    .collect()
}

#[test]
fn protocol_decoders_survive_every_byte_mutation() {
    for line in client_lines().iter().chain(&server_lines()) {
        never_panics(line, line, |text| {
            let _ = ClientMsg::parse(text);
            let _ = ServerMsg::parse(text);
            let _ = Json::parse(text);
        });
    }
}

#[test]
fn manifest_validation_survives_every_byte_mutation() {
    let mut p = Em3dParams::small();
    p.iterations = 1;
    let req = RunRequest {
        spec: AppSpec::Em3d(p),
        mechanism: Mechanism::MsgPoll,
        cfg: MachineConfig::tiny().with_mechanism(Mechanism::MsgPoll),
    };
    let result = run_prepared(&req.spec.prepare(req.cfg.nodes), req.mechanism, &req.cfg);
    let manifest = manifest_json(&req, Some(18.0), &result);
    validate_manifest(&manifest).expect("the pristine manifest validates");
    never_panics("manifest", &manifest, |text| {
        let _ = validate_manifest(text);
    });
}
