//! Runner fault tolerance: a request that fails deterministically must
//! not kill its sweep. The poisoned point is retried a bounded number of
//! times, reported failed, and — with a store attached — quarantined so
//! warm re-runs skip it instead of failing again.

use std::sync::Arc;

use commsense_apps::AppSpec;
use commsense_core::engine::{ExperimentPlan, RunRequest, Runner, WorkloadCache};
use commsense_core::store::ResultStore;
use commsense_machine::{MachineConfig, Mechanism};
use commsense_workloads::bipartite::Em3dParams;

/// A two-mechanism, three-point plan (x = processor MHz, so every point
/// is a distinct machine and a distinct store key) whose mp-poll point
/// at x=16 fails deterministically via `MachineConfig::inject_panic`.
fn poisoned_plan(cfg: &MachineConfig) -> ExperimentPlan {
    let mut em = Em3dParams::small();
    em.iterations = 1;
    let spec = AppSpec::Em3d(em);
    let mut plan = ExperimentPlan::new("EM3D");
    for &mech in &[Mechanism::SharedMem, Mechanism::MsgPoll] {
        for (j, &x) in [14.0f64, 16.0, 20.0].iter().enumerate() {
            let mut cfg = cfg.clone().with_mechanism(mech);
            cfg.cpu_mhz = x;
            cfg.inject_panic = mech == Mechanism::MsgPoll && j == 1;
            let request = plan.add_request(RunRequest {
                spec: spec.clone(),
                mechanism: mech,
                cfg,
            });
            plan.add_point(mech, x, request);
        }
    }
    plan
}

#[test]
fn poisoned_point_fails_without_killing_the_sweep() {
    let cfg = MachineConfig::alewife();
    let plan = poisoned_plan(&cfg);
    let mut cache = WorkloadCache::new();
    let run = plan.run_reported(&Runner::serial(), &mut cache);

    // The sweep completed: both curves exist, only the poisoned point is
    // missing from the mp-poll curve.
    assert_eq!(run.sweeps.len(), 2);
    assert_eq!(run.sweeps[0].mechanism, Mechanism::SharedMem);
    assert_eq!(run.sweeps[0].points.len(), 3);
    assert_eq!(run.sweeps[1].mechanism, Mechanism::MsgPoll);
    assert_eq!(run.sweeps[1].points.len(), 2);
    assert!(run.sweeps[1].point_at(16.0).is_none());
    assert_eq!((run.simulated, run.cached), (5, 0));

    // The failure is reported, with the configured retry count honored:
    // the default one retry means two attempts.
    assert_eq!(run.failed.len(), 1);
    let f = &run.failed[0];
    assert_eq!(f.mechanism, Mechanism::MsgPoll);
    assert_eq!(f.x, 16.0);
    assert_eq!(f.attempts, 2);
    assert!(
        f.message.contains("INJECTED-FAULT"),
        "failure must carry the fault's message, got {:?}",
        f.message
    );

    // Raising the retry budget raises the attempt count.
    let run = plan.run_reported(&Runner::serial().with_retries(3), &mut cache);
    assert_eq!(run.failed[0].attempts, 4);
}

#[test]
fn serial_and_parallel_report_identical_outcomes() {
    let cfg = MachineConfig::alewife();
    let plan = poisoned_plan(&cfg);
    let mut cache = WorkloadCache::new();
    let serial = plan.run_reported(&Runner::serial(), &mut cache);
    let parallel = plan.run_reported(&Runner::new(4), &mut cache);
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "failure reporting must be deterministic across job counts"
    );
}

#[test]
fn quarantine_skips_the_poisoned_point_on_warm_reruns() {
    let dir = std::env::temp_dir().join(format!(
        "commsense-store-test-quarantine-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ResultStore::open(&dir).expect("open store"));
    let cfg = MachineConfig::alewife();
    let plan = poisoned_plan(&cfg);
    let mut cache = WorkloadCache::new();

    // Cold run: the poisoned point exhausts its attempts and lands in
    // quarantine; the five good points are written through.
    let runner = Runner::serial().with_store(store.clone());
    let cold = plan.run_reported(&runner, &mut cache);
    assert_eq!((cold.simulated, cold.cached), (5, 0));
    assert_eq!(cold.failed[0].attempts, 2);

    // Warm run, fresh runner: the good points replay from the store and
    // the poisoned point is skipped outright — zero attempts, sweep still
    // completes with the same shape.
    let warm = plan.run_reported(&Runner::serial().with_store(store.clone()), &mut cache);
    assert_eq!((warm.simulated, warm.cached), (0, 5));
    assert_eq!(warm.failed.len(), 1);
    assert_eq!(warm.failed[0].attempts, 0);
    assert!(warm.failed[0].message.contains("INJECTED-FAULT"));
    assert_eq!(warm.sweeps[1].points.len(), 2);

    // Lifting the quarantine makes the runner try again.
    let poisoned = plan
        .requests()
        .iter()
        .find(|r| r.cfg.inject_panic)
        .expect("plan has a poisoned request");
    store.clear_quarantine(poisoned);
    let retried = plan.run_reported(&Runner::serial().with_store(store.clone()), &mut cache);
    assert_eq!(retried.failed[0].attempts, 2);
    assert_eq!((retried.simulated, retried.cached), (0, 5));
}
