//! Critical-path predictor regression: the analyzer's predicted latency
//! sensitivity must order the mechanisms the same way the simulated
//! Figure-10 sweep does, and agree quantitatively where the model is
//! exact (unhidden shared-memory misses; flat message passing).
//!
//! The simulator is deterministic, so like `shapes.rs` these are exact
//! reruns; margins leave room for deliberate cost-table recalibration
//! only.

use commsense::apps::{run_app, AppSpec};
use commsense::core::engine::{Runner, WorkloadCache};
use commsense::core::experiment::ctx_switch_plan;
use commsense::core::model::fit_latency;
use commsense::machine::{analyze, MachineConfig, Mechanism, ObserveConfig};

const BASE_LAT: u64 = 30;

/// One instrumented run at the base emulated latency, analyzed.
fn predicted(spec: &AppSpec, mech: Mechanism) -> f64 {
    let mut cfg = MachineConfig::alewife().with_latency_emulation(mech, BASE_LAT);
    cfg.observe = Some(ObserveConfig::default());
    let result = run_app(spec, mech, &cfg);
    assert!(result.verified, "{} instrumented run failed", mech.label());
    let cp = analyze(result.observation.as_ref().unwrap(), &cfg);
    assert!(cp.complete, "{} walk must tile the whole run", mech.label());
    assert_eq!(
        cp.attributed_ps,
        cp.total_ps,
        "{} attribution must be exact",
        mech.label()
    );
    cp.predicted_slope()
}

/// The predicted mechanism ordering by latency sensitivity matches the
/// ordering of the simulated Figure-10 slopes (EM3D, small scale):
/// both shared-memory variants are steep, message passing is flat, and
/// every pairwise comparison agrees between prediction and simulation.
#[test]
fn predicted_sensitivity_ordering_matches_fig10() {
    let spec = AppSpec::small_suite().remove(0);
    assert_eq!(spec.name(), "EM3D");
    let mechs = [
        Mechanism::SharedMem,
        Mechanism::SharedMemPrefetch,
        Mechanism::MsgPoll,
    ];

    // Simulated slopes: linear fit over the fig10-shape sweep.
    let runner = Runner::serial();
    let mut cache = WorkloadCache::new();
    let cfg = MachineConfig::alewife();
    let sweeps =
        ctx_switch_plan(&spec, &mechs, &cfg, &[30, 200, 800]).run_with(&runner, &mut cache);
    let simulated: Vec<f64> = mechs
        .iter()
        .map(|&m| {
            let s = sweeps
                .iter()
                .find(|s| s.mechanism == m)
                .unwrap_or_else(|| panic!("no {} sweep", m.label()));
            fit_latency(s).expect("fit").d1
        })
        .collect();

    let slopes: Vec<f64> = mechs.iter().map(|&m| predicted(&spec, m)).collect();

    // Every pairwise order agrees. Ties (within one traversal) only
    // count as agreement when the simulated slopes are close too.
    for i in 0..mechs.len() {
        for j in (i + 1)..mechs.len() {
            let (pi, pj) = (slopes[i], slopes[j]);
            let (si, sj) = (simulated[i], simulated[j]);
            if (si - sj).abs() > 2.0 {
                assert_eq!(
                    pi > pj,
                    si > sj,
                    "{} vs {}: predicted {pi:.1}/{pj:.1} orders against simulated {si:.1}/{sj:.1}",
                    mechs[i].label(),
                    mechs[j].label()
                );
            }
        }
    }

    // Shared memory's unhidden misses make the prediction near-exact.
    let (sm_pred, sm_sim) = (slopes[0], simulated[0]);
    assert!(
        (sm_pred - sm_sim).abs() <= 0.25 * sm_sim,
        "sm predicted slope {sm_pred:.1} strays from simulated {sm_sim:.1}"
    );
    // Both shared-memory variants are steep; polling is flat both ways.
    assert!(sm_pred > 10.0, "sm predicted slope {sm_pred:.1} not steep");
    assert!(slopes[1] > 10.0, "sm+pf predicted slope not steep");
    assert!(
        slopes[2] < 1.0,
        "mp-poll predicted slope {:.1} not flat",
        slopes[2]
    );
    assert!(simulated[2].abs() < 1.0, "mp-poll simulated slope not flat");
}
