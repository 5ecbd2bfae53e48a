//! MOLDYN molecular dynamics (§4.4), via the shared force-accumulation
//! engine.
//!
//! MOLDYN's interaction computation is long relative to its communication,
//! which "tends to mask differences in our implementations" (§4.4.3); its
//! RCB partition keeps most pairs local, so the shared-memory locks see
//! low contention and perform much better than in UNSTRUC.

use std::sync::Arc;

use commsense_workloads::moldyn::{MoldynParams, MoldynSystem};

use crate::meshforce::{ForceModel, Kernel, PreparedModel};

/// Compute cycles per interaction pair: the distance/force evaluation is a
/// long double-precision sequence.
const PAIR_CYCLES: u64 = 320;
/// Compute cycles per molecule integration.
const NODE_CYCLES: u64 = 14;
/// Compute cycles per owned molecule during the periodic interaction-list
/// rebuild (cell binning + neighbor scan).
const REBUILD_CYCLES_PER_MOLECULE: u64 = 120;

/// Adapts a generated system into the force-accumulation engine.
pub fn model(sys: &MoldynSystem) -> ForceModel {
    ForceModel {
        app: "MOLDYN",
        owner: sys.owner.clone(),
        edges: sys.pairs.clone(),
        weights: vec![0.0; sys.pairs.len()],
        kernel: Kernel::SoftSphere {
            r2: sys.params.cutoff * sys.params.cutoff,
        },
        init: sys.init_coords(),
        iterations: sys.params.iterations,
        edge_cycles: PAIR_CYCLES,
        node_cycles: NODE_CYCLES,
        rebuild_every: sys.params.rebuild_every,
        rebuild_cycles_per_node: REBUILD_CYCLES_PER_MOLECULE,
    }
}

/// Generates the system and builds its prepared model (reference solution
/// and exchange plan) for `nprocs` processors.
pub fn prepare(params: &MoldynParams, nprocs: usize) -> PreparedModel {
    let sys = MoldynSystem::generate(params, nprocs);
    PreparedModel::new(Arc::new(model(&sys)), nprocs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_app, AppSpec, RunResult};
    use commsense_machine::{MachineConfig, Mechanism};

    pub(super) fn run(p: &MoldynParams, mech: Mechanism, cfg: &MachineConfig) -> RunResult {
        run_app(&AppSpec::Moldyn(p.clone()), mech, cfg)
    }

    #[test]
    fn model_reference_matches_workload_reference() {
        let sys = MoldynSystem::generate(&MoldynParams::small(), 8);
        let m = model(&sys);
        assert_eq!(
            m.reference(),
            sys.reference(),
            "adapter must preserve the computation"
        );
    }

    #[test]
    fn all_mechanisms_verify() {
        let p = MoldynParams::small();
        for mech in Mechanism::ALL {
            let r = run(&p, mech, &MachineConfig::alewife());
            assert!(r.verified, "{mech}: max err {}", r.max_abs_err);
        }
    }

    #[test]
    fn compute_dominates_all_mechanisms() {
        // §4.4.3: the high computation-to-communication ratio masks
        // mechanism differences — best and worst stay within a modest band.
        let p = MoldynParams::small();
        let times: Vec<u64> = Mechanism::ALL
            .iter()
            .map(|&m| run(&p, m, &MachineConfig::alewife()).runtime_cycles)
            .collect();
        let min = *times.iter().min().unwrap() as f64;
        let max = *times.iter().max().unwrap() as f64;
        assert!(max / min < 2.0, "mechanism spread too large: {times:?}");
    }
}

#[cfg(test)]
mod rebuild_tests {
    use super::tests::run;
    use super::*;
    use commsense_machine::{MachineConfig, Mechanism};

    #[test]
    fn periodic_rebuild_adds_cost_but_preserves_results() {
        let mut p = MoldynParams::small();
        p.molecules = 128;
        p.iterations = 25; // crosses the 20-iteration rebuild boundary
        let r = run(&p, Mechanism::MsgPoll, &MachineConfig::alewife());
        assert!(r.verified, "max err {}", r.max_abs_err);

        let mut no_rebuild = p.clone();
        no_rebuild.rebuild_every = 0;
        let r0 = run(&no_rebuild, Mechanism::MsgPoll, &MachineConfig::alewife());
        assert!(r0.verified);
        assert!(
            r.runtime_cycles > r0.runtime_cycles,
            "rebuild must cost time: {} vs {}",
            r.runtime_cycles,
            r0.runtime_cycles
        );
    }
}
