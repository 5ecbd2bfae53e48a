//! The daemon's decoders never panic: every truncation and every
//! single-byte substitution that keeps the text valid UTF-8, applied to
//! each canonical protocol line, to one real run manifest and to one
//! summary-table manifest, must make the decoder return `Ok` or `Err`. A decoder panic on a client's line
//! would kill the reader thread it runs on instead of yielding an error
//! reply.

use std::panic::{catch_unwind, AssertUnwindSafe};

use commsense_apps::{run_prepared, AppSpec, Scale};
use commsense_core::engine::RunRequest;
use commsense_core::json::Json;
use commsense_core::manifest::{manifest_json, validate_manifest, validate_table_manifest};
use commsense_core::table::{Cell, Table};
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
        ServerMsg::Progress {
            id: "tab\tquote\"\u{1}é😀".into(),
            done: 1,
            total: 1,
            app: "MOLDYN".into(),
            mech: "bulk".into(),
            x: 1e-7,
            runtime_cycles: (1 << 53) + 1,
            source: Source::Store,
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
        ServerMsg::Error {
            id: None,
            message: "bad line".into(),
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
        cfg: MachineConfig::tiny(),
    };
    let result = run_prepared(&req.spec.prepare(req.cfg.nodes), req.mechanism, &req.cfg);
    let manifest = manifest_json(&req, Some(18.0), &result);
    validate_manifest(&manifest).expect("the pristine manifest validates");
    never_panics("manifest", &manifest, |text| {
        let _ = validate_manifest(text);
    });
}

#[test]
fn table_manifest_validation_survives_every_byte_mutation() {
    let table = Table::new(
        "topology,nodes,ok,ratio,crossover",
        [
            vec![
                Cell::text("mesh 8x8"),
                Cell::Int(64),
                Cell::Bool(true),
                Cell::fixed(1.339, 3),
                Cell::Empty,
            ],
            vec![
                Cell::text("torus 8x8"),
                Cell::Int(64),
                Cell::Bool(false),
                Cell::fixed(0.5, 1),
                Cell::fixed(12.25, 2),
            ],
        ],
    );
    let kind = "commsense-scale-manifest";
    let header = table.header();
    let manifest = table.manifest(kind);
    validate_table_manifest(&manifest, kind, header).expect("the pristine manifest validates");
    never_panics("table manifest", &manifest, |text| {
        let _ = validate_table_manifest(text, kind, header);
    });
}

/// The exact bytes of every canonical line: the wire format is a contract
/// with clients built against older daemons, so any change in spacing,
/// key order, escaping or number format must show up here.
#[test]
fn canonical_lines_have_pinned_text() {
    let client = [
        r#"{"type":"submit","id":"job-1","figure":"fig8","scale":"small","apps":["EM3D"],"mechanisms":["sm","mp-poll"]}"#,
        r#"{"type":"cancel","id":"j\"x\""}"#,
        r#"{"type":"stats"}"#,
        r#"{"type":"shutdown"}"#,
    ];
    let server = [
        r#"{"type":"accepted","id":"j","total":20}"#,
        r#"{"type":"progress","id":"j","done":3,"total":20,"app":"EM3D","mech":"sm+pf","x":11.43,"runtime_cycles":123456,"source":"inflight"}"#,
        r#"{"type":"progress","id":"tab\tquote\"\u0001é😀","done":1,"total":1,"app":"MOLDYN","mech":"bulk","x":0.0000001,"runtime_cycles":9007199254740993,"source":"store"}"#,
        r#"{"type":"point-failed","id":"j","done":4,"total":20,"app":"ICCG","mech":"bulk","x":0.5,"message":"deadlock: nodes blocked\n\"0:BlockedMsg\""}"#,
        r#"{"type":"done","id":"j","total":20,"simulated":10,"store_hits":5,"inflight_hits":5,"failed":0,"csv":[{"name":"fig4_em3d.csv","data":"a,b\n1,2\n"}]}"#,
        r#"{"type":"cancelled","id":"j"}"#,
        r#"{"type":"stats","clients":2,"jobs_active":1,"jobs_done":3,"unique_runs":40,"runs_running":2,"simulated":30,"store_hits":10,"inflight_hits":20}"#,
        r#"{"type":"error","id":"j","message":"unknown app"}"#,
        r#"{"type":"error","message":"bad line"}"#,
        r#"{"type":"stopping"}"#,
    ];
    assert_eq!(client_lines(), client);
    assert_eq!(server_lines(), server);
}

/// A `done` line names the files `repro submit --csv DIR` writes, so a
/// name that is not a bare file name is refused rather than written
/// outside DIR; every name the figure registry produces still decodes.
#[test]
fn done_lines_with_unsafe_csv_names_are_rejected() {
    let done = |name: &str| ServerMsg::Done {
        id: "j".into(),
        stats: JobStats::default(),
        csvs: vec![
            ("fig4_em3d.csv".into(), "a\n".into()),
            (name.into(), "b\n".into()),
        ],
    };
    for bad in [
        "",
        ".",
        "..",
        "../x.csv",
        "/tmp/x",
        "a/b.csv",
        "..\\x.csv",
        "c:\\x",
        "x\0.csv",
    ] {
        let line = done(bad).line();
        assert!(ServerMsg::parse(&line).is_err(), "accepted {bad:?}: {line}");
    }
    for fig in Figure::ALL {
        for app in fig.apps(Scale::Small) {
            let msg = done(&fig.csv_name(app.name()));
            assert_eq!(ServerMsg::parse(&msg.line()).unwrap(), msg);
        }
    }
    for line in server_lines() {
        ServerMsg::parse(&line).unwrap();
    }
}
