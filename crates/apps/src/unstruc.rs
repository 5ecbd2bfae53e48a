//! UNSTRUC fluid-flow mesh computation (§4.2), via the shared
//! force-accumulation engine.
//!
//! UNSTRUC performs 75 single-precision FLOPs per mesh edge — a high
//! computation-to-communication ratio. Its shared-memory versions pay
//! locking overhead on shared node updates; message passing avoids locks
//! because non-interruptible handlers serialize the writes (§4.2.3).

use std::sync::Arc;

use commsense_machine::{MachineConfig, Mechanism, SimError};
use commsense_workloads::unstruct::{UnstrucMesh, UnstrucParams};

use crate::meshforce::{ForceModel, Kernel, PreparedModel};
use crate::RunResult;

/// Compute cycles per edge: 75 single-precision FLOPs at ~1.3 cycles per
/// FLOP on Sparcle plus loop bookkeeping.
const EDGE_CYCLES: u64 = 100;
/// Compute cycles per node integration.
const NODE_CYCLES: u64 = 10;

/// Adapts a generated mesh into the force-accumulation engine.
pub fn model(mesh: &UnstrucMesh) -> ForceModel {
    ForceModel {
        app: "UNSTRUC",
        owner: mesh.owner.clone(),
        edges: mesh.edges.clone(),
        weights: mesh.weights.clone(),
        kernel: Kernel::LinearFlux,
        init: mesh.init.clone(),
        iterations: mesh.params.iterations,
        edge_cycles: EDGE_CYCLES,
        node_cycles: NODE_CYCLES,
        rebuild_every: 0,
        rebuild_cycles_per_node: 0,
    }
}

/// Generates the mesh and builds its prepared model (reference solution
/// and exchange plan) for `nprocs` processors.
pub fn prepare(params: &UnstrucParams, nprocs: usize) -> PreparedModel {
    let mesh = UnstrucMesh::generate(params, nprocs);
    PreparedModel::new(Arc::new(model(&mesh)), nprocs)
}

/// Runs an explicit mesh (e.g. one partitioned with an alternative
/// strategy) under `mech`.
pub fn run_mesh(
    mesh: &UnstrucMesh,
    mech: Mechanism,
    cfg: &MachineConfig,
) -> Result<RunResult, SimError> {
    PreparedModel::new(Arc::new(model(mesh)), cfg.nodes).run(mech, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_app, AppSpec};

    fn run(p: &UnstrucParams, mech: Mechanism, cfg: &MachineConfig) -> RunResult {
        run_app(&AppSpec::Unstruc(p.clone()), mech, cfg)
    }

    #[test]
    fn model_reference_matches_workload_reference() {
        let mesh = UnstrucMesh::generate(&UnstrucParams::small(), 8);
        let m = model(&mesh);
        assert_eq!(
            m.reference(),
            mesh.reference(),
            "adapter must preserve the computation"
        );
    }

    #[test]
    fn all_mechanisms_verify() {
        let p = UnstrucParams::small();
        for mech in Mechanism::ALL {
            let r = run(&p, mech, &MachineConfig::alewife());
            assert!(r.verified, "{mech}: max err {}", r.max_abs_err);
        }
    }

    #[test]
    fn locking_shows_up_as_sync_time() {
        // §4.2.3: shared-memory UNSTRUC incurs locking overhead protecting
        // shared node updates.
        let p = UnstrucParams::small();
        let r = run(&p, Mechanism::SharedMem, &MachineConfig::alewife());
        let clk = MachineConfig::alewife().clock();
        let sync: f64 = r
            .stats
            .mean_bucket_cycles(commsense_machine::Bucket::Sync, clk);
        assert!(sync > 0.0, "locking must register as synchronization time");
    }
}
