//! Table-driven tests for the pure [`ServiceMachine`]: protocol events
//! in, actions out, no sockets and no worker threads. Run completions are
//! injected as [`Event::RunDone`] with a real (once-simulated) result, so
//! every scheduling path — submit, duplicate submit, cross-client dedup,
//! cancel, disconnect mid-stream, shutdown with in-flight jobs — is
//! exercised deterministically.

use std::sync::{Arc, Mutex, OnceLock};

use commsense_apps::{AppSpec, RunResult};
use commsense_core::engine::{RunOutcome, RunRequest, Runner};
use commsense_core::store::ResultStore;
use commsense_machine::{MachineConfig, Mechanism};
use commsense_service::machine::{Action, ClientId, Event, RunId, ServiceMachine};
use commsense_service::protocol::{ClientMsg, Figure, PlanSpec, ServerMsg, Source};
use commsense_workloads::bipartite::Em3dParams;

/// One successful outcome, cloned from a single tiny simulation. The
/// machine treats outcomes as opaque, so every injected completion can
/// share the same result.
fn sim_ok() -> Box<RunOutcome> {
    static RESULT: OnceLock<RunResult> = OnceLock::new();
    let result = RESULT.get_or_init(|| {
        let mut p = Em3dParams::small();
        p.iterations = 1;
        let spec = AppSpec::Em3d(p);
        let cfg = MachineConfig::alewife().with_mechanism(Mechanism::SharedMem);
        let req = RunRequest {
            spec,
            mechanism: Mechanism::SharedMem,
            cfg,
        };
        Runner::serial().run(&[req]).remove(0)
    });
    Box::new(RunOutcome::Done {
        result: result.clone(),
        cached: false,
    })
}

fn submit_line(id: &str, figure: Figure, apps: &[&str], mechs: &[&str]) -> String {
    ClientMsg::Submit {
        id: id.to_string(),
        plan: PlanSpec {
            figure,
            scale: commsense_apps::Scale::Small,
            apps: apps.iter().map(|s| s.to_string()).collect(),
            mechanisms: mechs.iter().map(|s| s.to_string()).collect(),
        },
    }
    .line()
}

/// The parsed messages sent to `client`, in order.
fn sent_to(actions: &[Action], client: ClientId) -> Vec<ServerMsg> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send(c, line) if *c == client => {
                Some(ServerMsg::parse(line).expect("server line parses"))
            }
            _ => None,
        })
        .collect()
}

/// The `(run, request, store key)` triples started by `actions`, in order.
fn started(actions: &[Action]) -> Vec<(RunId, RunRequest, u128)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Start { run, request, key } => Some((*run, RunRequest::clone(request), *key)),
            _ => None,
        })
        .collect()
}

fn has_stop(actions: &[Action]) -> bool {
    actions.iter().any(|a| matches!(a, Action::Stop))
}

#[test]
fn submit_schedules_points_and_streams_progress_to_done() {
    let mut m = ServiceMachine::new();
    m.handle(Event::Connected(1));
    let a = m.handle(Event::Line(
        1,
        submit_line("j1", Figure::Fig4, &["EM3D"], &["sm", "mp-poll"]),
    ));
    let starts = started(&a);
    assert_eq!(starts.len(), 2, "one Start per distinct point");
    assert!(matches!(
        sent_to(&a, 1).as_slice(),
        [ServerMsg::Accepted { total: 2, .. }]
    ));
    // First completion: one progress line, no done yet.
    let a = m.handle(Event::RunDone {
        run: starts[0].0,
        outcome: sim_ok(),
    });
    match sent_to(&a, 1).as_slice() {
        [ServerMsg::Progress {
            done: 1,
            total: 2,
            app,
            mech,
            source: Source::Simulated,
            ..
        }] => {
            assert_eq!(app, "EM3D");
            assert_eq!(mech, "sm");
        }
        other => panic!("expected one progress line, got {other:?}"),
    }
    // Second completion: progress then the done line with CSVs.
    let a = m.handle(Event::RunDone {
        run: starts[1].0,
        outcome: sim_ok(),
    });
    match sent_to(&a, 1).as_slice() {
        [ServerMsg::Progress { done: 2, .. }, ServerMsg::Done { id, stats, csvs }] => {
            assert_eq!(id, "j1");
            assert_eq!((stats.total, stats.simulated, stats.failed), (2, 2, 0));
            assert_eq!(csvs.len(), 1);
            assert_eq!(csvs[0].0, "fig4_em3d.csv");
            assert!(csvs[0].1.starts_with("app,mech,"));
        }
        other => panic!("expected progress + done, got {other:?}"),
    }
    assert_eq!(m.stats().jobs_done, 1);
    assert_eq!(m.stats().jobs_active, 0);
}

/// A started run carries the store key the daemon computed at resolve,
/// and a worker running it with that key files the record exactly where
/// the store looks the request up.
#[test]
fn a_started_run_carries_the_key_its_record_is_filed_under() {
    let dir = std::env::temp_dir().join(format!("commsense-start-key-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ResultStore::open(&dir).expect("open store"));
    let mut m = ServiceMachine::new();
    m.handle(Event::Connected(1));
    let a = m.handle(Event::Line(
        1,
        submit_line("j", Figure::Fig4, &["EM3D"], &["mp-poll"]),
    ));
    let [(_, request, key)] = <[_; 1]>::try_from(started(&a)).expect("one Start");
    let runner = Runner::serial().with_store(store.clone());
    let outcome = runner.run_one(&request, key, &Mutex::default());
    assert!(outcome.result().is_some() && !outcome.is_cached());
    let hex = format!("{key:032x}");
    let record = dir
        .join("records")
        .join(&hex[..2])
        .join(format!("{hex}.rec"));
    assert!(record.is_file(), "no record at {}", record.display());
    assert!(
        store.load(&request).is_some(),
        "the request's own key finds it"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_active_job_id_is_rejected_then_reusable() {
    let mut m = ServiceMachine::new();
    m.handle(Event::Connected(1));
    let line = submit_line("dup", Figure::Fig4, &["EM3D"], &["sm"]);
    let a = m.handle(Event::Line(1, line.clone()));
    let starts = started(&a);
    assert_eq!(starts.len(), 1);
    // Same id while the first is active: rejected, nothing scheduled.
    let a = m.handle(Event::Line(1, line.clone()));
    assert!(started(&a).is_empty());
    assert!(matches!(
        sent_to(&a, 1).as_slice(),
        [ServerMsg::Error { id: Some(_), .. }]
    ));
    // Finish the first; the id becomes reusable and the rerun resolves
    // entirely from the in-process run table (no new Start).
    m.handle(Event::RunDone {
        run: starts[0].0,
        outcome: sim_ok(),
    });
    let a = m.handle(Event::Line(1, line));
    assert!(started(&a).is_empty(), "rerun must not re-schedule");
    match sent_to(&a, 1).as_slice() {
        [ServerMsg::Accepted { .. }, ServerMsg::Progress {
            source: Source::Inflight,
            ..
        }, ServerMsg::Done { stats, .. }] => {
            assert_eq!(stats.inflight_hits, 1);
            assert_eq!(stats.simulated, 0);
        }
        other => panic!("expected instant replay, got {other:?}"),
    }
}

#[test]
fn overlapping_submissions_dedup_in_flight_across_clients() {
    let mut m = ServiceMachine::new();
    m.handle(Event::Connected(1));
    m.handle(Event::Connected(2));
    let a1 = m.handle(Event::Line(
        1,
        submit_line("a", Figure::Fig4, &["EM3D"], &["sm", "sm+pf"]),
    ));
    let starts = started(&a1);
    assert_eq!(starts.len(), 2);
    // Client 2 wants an overlapping plan: only the non-overlapping point
    // is scheduled; the shared one subscribes to client 1's run.
    let a2 = m.handle(Event::Line(
        2,
        submit_line("b", Figure::Fig4, &["EM3D"], &["sm", "bulk"]),
    ));
    let starts2 = started(&a2);
    assert_eq!(starts2.len(), 1, "only 'bulk' is new");
    assert_eq!(starts2[0].1.mechanism, Mechanism::Bulk);
    assert_eq!(m.stats().inflight_hits, 1);
    assert_eq!(m.stats().unique_runs, 3);
    // The shared run completes: both clients get a progress line, with
    // the subscriber marked inflight.
    let a = m.handle(Event::RunDone {
        run: starts[0].0,
        outcome: sim_ok(),
    });
    match (sent_to(&a, 1).as_slice(), sent_to(&a, 2).as_slice()) {
        (
            [ServerMsg::Progress {
                source: Source::Simulated,
                ..
            }],
            [ServerMsg::Progress {
                source: Source::Inflight,
                ..
            }],
        ) => {}
        other => panic!("expected fan-out to both clients, got {other:?}"),
    }
}

#[test]
fn cancel_silences_job_but_runs_stay_sharable() {
    let mut m = ServiceMachine::new();
    m.handle(Event::Connected(1));
    let a = m.handle(Event::Line(
        1,
        submit_line("c", Figure::Fig4, &["EM3D"], &["sm"]),
    ));
    let starts = started(&a);
    let a = m.handle(Event::Line(1, ClientMsg::Cancel { id: "c".into() }.line()));
    assert!(matches!(
        sent_to(&a, 1).as_slice(),
        [ServerMsg::Cancelled { .. }]
    ));
    assert_eq!(m.stats().jobs_active, 0);
    // The run still completes, silently for the cancelled job...
    let a = m.handle(Event::RunDone {
        run: starts[0].0,
        outcome: sim_ok(),
    });
    assert!(sent_to(&a, 1).is_empty(), "cancelled job must not report");
    assert_eq!(m.stats().jobs_done, 0, "cancelled jobs are not completions");
    // ...and a later job still shares it.
    let a = m.handle(Event::Line(
        1,
        submit_line("c2", Figure::Fig4, &["EM3D"], &["sm"]),
    ));
    assert!(started(&a).is_empty());
    assert!(sent_to(&a, 1)
        .iter()
        .any(|msg| matches!(msg, ServerMsg::Done { .. })));
    // Cancelling something unknown is an error, not a panic.
    let a = m.handle(Event::Line(
        1,
        ClientMsg::Cancel { id: "nope".into() }.line(),
    ));
    assert!(matches!(
        sent_to(&a, 1).as_slice(),
        [ServerMsg::Error { .. }]
    ));
}

#[test]
fn disconnect_mid_stream_cancels_and_is_idempotent() {
    let mut m = ServiceMachine::new();
    m.handle(Event::Connected(1));
    let a = m.handle(Event::Line(
        1,
        submit_line("d", Figure::Fig4, &["EM3D"], &["sm", "sm+pf"]),
    ));
    let starts = started(&a);
    // One point streams, then the client vanishes.
    let a = m.handle(Event::RunDone {
        run: starts[0].0,
        outcome: sim_ok(),
    });
    assert_eq!(sent_to(&a, 1).len(), 1);
    m.handle(Event::Disconnected(1));
    assert_eq!(m.stats().jobs_active, 0);
    assert_eq!(m.stats().clients, 0);
    // The writer-failure path can report the same disconnect again.
    m.handle(Event::Disconnected(1));
    // The orphaned run completes without any Send.
    let a = m.handle(Event::RunDone {
        run: starts[1].0,
        outcome: sim_ok(),
    });
    assert!(a.iter().all(|x| !matches!(x, Action::Send(..))));
}

#[test]
fn shutdown_with_inflight_jobs_drains_then_stops() {
    let mut m = ServiceMachine::new();
    m.handle(Event::Connected(1));
    m.handle(Event::Connected(2));
    let a = m.handle(Event::Line(
        1,
        submit_line("s", Figure::Fig4, &["EM3D"], &["sm", "sm+pf"]),
    ));
    let starts = started(&a);
    let a = m.handle(Event::Line(2, ClientMsg::Shutdown.line()));
    assert!(m.is_draining());
    assert!(!has_stop(&a), "must drain in-flight runs before stopping");
    assert!(matches!(sent_to(&a, 1).as_slice(), [ServerMsg::Stopping]));
    assert!(matches!(sent_to(&a, 2).as_slice(), [ServerMsg::Stopping]));
    // New submissions are refused while draining.
    let a = m.handle(Event::Line(
        2,
        submit_line("late", Figure::Fig4, &["EM3D"], &["sm"]),
    ));
    assert!(started(&a).is_empty());
    assert!(matches!(
        sent_to(&a, 2).as_slice(),
        [ServerMsg::Error { .. }]
    ));
    // Draining still delivers results to the submitted job.
    let a = m.handle(Event::RunDone {
        run: starts[0].0,
        outcome: sim_ok(),
    });
    assert!(!has_stop(&a));
    assert_eq!(sent_to(&a, 1).len(), 1);
    // The last completion finishes the job, then closes and stops — in
    // that order, so the client sees its done line.
    let a = m.handle(Event::RunDone {
        run: starts[1].0,
        outcome: sim_ok(),
    });
    assert!(sent_to(&a, 1)
        .iter()
        .any(|msg| matches!(msg, ServerMsg::Done { .. })));
    assert!(has_stop(&a));
    let stop_at = a
        .iter()
        .position(|x| matches!(x, Action::Stop))
        .expect("stop action");
    assert!(
        a.iter()
            .skip(stop_at)
            .all(|x| !matches!(x, Action::Send(..))),
        "no sends after Stop"
    );
    assert_eq!(
        a.iter().filter(|x| matches!(x, Action::Close(_))).count(),
        2,
        "both clients closed"
    );
}

#[test]
fn failed_runs_surface_as_point_failures() {
    let mut m = ServiceMachine::new();
    m.handle(Event::Connected(1));
    let a = m.handle(Event::Line(
        1,
        submit_line("f", Figure::Fig4, &["EM3D"], &["sm"]),
    ));
    let starts = started(&a);
    let a = m.handle(Event::RunDone {
        run: starts[0].0,
        outcome: Box::new(RunOutcome::Failed {
            attempts: 2,
            message: "panicked: deadline".into(),
        }),
    });
    match sent_to(&a, 1).as_slice() {
        [ServerMsg::PointFailed { message, .. }, ServerMsg::Done { stats, csvs, .. }] => {
            assert!(message.contains("deadline"));
            assert_eq!(stats.failed, 1);
            // The CSV is still assembled, just without the failed row.
            assert_eq!(csvs.len(), 1);
        }
        other => panic!("expected point-failed + done, got {other:?}"),
    }
}

#[test]
fn malformed_and_unknown_lines_yield_errors() {
    let mut m = ServiceMachine::new();
    m.handle(Event::Connected(1));
    for bad in [
        "not json at all",
        "{\"type\":\"warp\"}",
        "{\"type\":\"submit\",\"id\":\"x\",\"figure\":\"fig4\",\"apps\":[\"SPICE\"]}",
    ] {
        let a = m.handle(Event::Line(1, bad.to_string()));
        assert!(
            matches!(sent_to(&a, 1).as_slice(), [ServerMsg::Error { .. }]),
            "line {bad:?} must produce an error reply"
        );
        assert!(started(&a).is_empty());
    }
}
