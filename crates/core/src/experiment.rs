//! The parametric experiments of §5, as pure plan builders.
//!
//! Each experiment (`bisection`, `msg_len`, `clock`, `ctx_switch`) is a
//! *plan builder* producing an [`ExperimentPlan`](crate::engine::ExperimentPlan):
//! an indexed list of run requests plus the recipe for folding results back
//! into per-mechanism [`Sweep`]s in deterministic order. Plans execute on a
//! [`Runner`](crate::engine::Runner) — serial or parallel, with identical
//! output — sharing one prepared workload (graph, reference solution,
//! exchange plans) across all points and mechanisms.
//!
//! # Examples
//!
//! ```
//! use commsense_core::engine::Runner;
//! use commsense_core::experiment::bisection_plan;
//! use commsense_machine::{MachineConfig, Mechanism};
//! use commsense_apps::AppSpec;
//! use commsense_workloads::bipartite::Em3dParams;
//!
//! let mut p = Em3dParams::small();
//! p.iterations = 1;
//! let sweeps = bisection_plan(
//!     &AppSpec::Em3d(p),
//!     &[Mechanism::MsgPoll],
//!     &MachineConfig::alewife(),
//!     &[0.0, 12.0],
//!     64,
//! )
//! .run(&Runner::from_env());
//! sweeps[0].assert_verified();
//! assert_eq!(sweeps[0].points.len(), 2);
//! ```

use commsense_apps::{AppSpec, RunResult};
use commsense_machine::{LatencyEmulation, MachineConfig, Mechanism};
use commsense_mesh::CrossTrafficConfig;

use crate::engine::{ExperimentPlan, RunRequest};

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter (meaning depends on the sweep).
    pub x: f64,
    /// The measurement.
    pub result: RunResult,
}

/// One mechanism's curve across a sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Application name.
    pub app: &'static str,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Measured points, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Runtime (cycles) at each point.
    pub fn runtimes(&self) -> Vec<u64> {
        self.points
            .iter()
            .map(|p| p.result.runtime_cycles)
            .collect()
    }

    /// The point whose x value matches `x` approximately (within a 1e-6
    /// relative tolerance, absolute near zero). Sweep x values come from
    /// floating-point arithmetic — clock ratios, bandwidth subtractions —
    /// so exact `==` lookups are brittle.
    pub fn point_at(&self, x: f64) -> Option<&SweepPoint> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() <= 1e-6 * x.abs().max(1.0))
    }

    /// Asserts every point verified against its reference.
    ///
    /// # Panics
    ///
    /// Panics if any point failed verification.
    pub fn assert_verified(&self) {
        for p in &self.points {
            assert!(
                p.result.verified,
                "{} {} at x={} failed verification (err {})",
                self.app, self.mechanism, p.x, p.result.max_abs_err
            );
        }
    }
}

/// Analytic one-way network latency for a `bytes`-byte packet at the mean
/// hop distance, in processor cycles — the x-axis of Figure 9 (Table 1's
/// "Network Latency" metric).
pub fn one_way_latency_cycles(cfg: &MachineConfig, bytes: u32) -> f64 {
    let ps = cfg.net.topo.mean_hops() * cfg.net.router_delay_ps as f64
        + bytes as f64 * cfg.net.ps_per_byte as f64;
    ps / cfg.clock().cycle_ps() as f64
}

/// Figure 4 / Figure 5: the base-machine requests for `spec` under every
/// mechanism, in [`Mechanism::ALL`] order.
pub fn base_comparison_requests(spec: &AppSpec, cfg: &MachineConfig) -> Vec<RunRequest> {
    Mechanism::ALL
        .iter()
        .map(|&mech| RunRequest {
            spec: spec.clone(),
            mechanism: mech,
            cfg: cfg.clone().with_mechanism(mech),
        })
        .collect()
}

/// Figure 8 (and Figure 1's measured analogue): plans a sweep of emulated
/// bisection bandwidth, consuming `consumed_bytes_per_cycle` of the base
/// machine's bisection with cross-traffic of `msg_bytes`-byte messages.
///
/// `x` of each point is the *emulated* bisection in bytes per processor
/// cycle (base bisection minus consumption), so curves read left-to-right
/// like the paper's Figure 8.
pub fn bisection_plan(
    spec: &AppSpec,
    mechanisms: &[Mechanism],
    cfg: &MachineConfig,
    consumed_bytes_per_cycle: &[f64],
    msg_bytes: u32,
) -> ExperimentPlan {
    let base = cfg.net.bisection_bytes_per_cycle(cfg.clock());
    let mut plan = ExperimentPlan::new(spec.name());
    for &mech in mechanisms {
        for &c in consumed_bytes_per_cycle {
            let mut cfg = cfg.clone().with_mechanism(mech);
            if c > 0.0 {
                cfg.cross_traffic = Some(CrossTrafficConfig::consuming(
                    c,
                    cfg.clock(),
                    msg_bytes,
                    cfg.net.topo.io_streams(),
                ));
            }
            let idx = plan.add_request(RunRequest {
                spec: spec.clone(),
                mechanism: mech,
                cfg,
            });
            plan.add_point(mech, base - c, idx);
        }
    }
    plan
}

/// Figure 7: plans a sweep of cross-traffic message length at a fixed
/// bisection consumption. `x` is the message length in bytes.
pub fn msg_len_plan(
    spec: &AppSpec,
    mechanisms: &[Mechanism],
    cfg: &MachineConfig,
    consumed_bytes_per_cycle: f64,
    msg_lens: &[u32],
) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new(spec.name());
    for &mech in mechanisms {
        for &len in msg_lens {
            let mut cfg = cfg.clone().with_mechanism(mech);
            cfg.cross_traffic = Some(CrossTrafficConfig::consuming(
                consumed_bytes_per_cycle,
                cfg.clock(),
                len,
                cfg.net.topo.io_streams(),
            ));
            let idx = plan.add_request(RunRequest {
                spec: spec.clone(),
                mechanism: mech,
                cfg,
            });
            plan.add_point(mech, len as f64, idx);
        }
    }
    plan
}

/// Figure 9 (and Figure 2's measured analogue): plans a sweep of relative
/// network latency by scaling the processor clock against the fixed
/// wall-clock network. `x` is the one-way 24-byte latency in processor
/// cycles.
pub fn clock_plan(
    spec: &AppSpec,
    mechanisms: &[Mechanism],
    cfg: &MachineConfig,
    mhz_values: &[f64],
) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new(spec.name());
    for &mech in mechanisms {
        for &mhz in mhz_values {
            let cfg = cfg.clone().with_mechanism(mech).with_cpu_mhz(mhz);
            let x = one_way_latency_cycles(&cfg, 24);
            let idx = plan.add_request(RunRequest {
                spec: spec.clone(),
                mechanism: mech,
                cfg,
            });
            plan.add_point(mech, x, idx);
        }
    }
    plan
}

/// Figure 10: plans uniform remote-miss latency emulation on an ideal
/// network (the paper's context-switch-to-delay-loop technique).
/// Shared-memory mechanisms sweep `latencies` (x = emulated remote-miss
/// cycles); message-passing mechanisms are run once at the base machine
/// and their single result is replicated flat across the x axis for
/// reference, exactly as the paper plots them.
pub fn ctx_switch_plan(
    spec: &AppSpec,
    mechanisms: &[Mechanism],
    cfg: &MachineConfig,
    latencies: &[u64],
) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new(spec.name());
    for &mech in mechanisms {
        if mech.is_shared_memory() {
            for &lat in latencies {
                let mut cfg = cfg.clone().with_mechanism(mech);
                cfg.latency_emulation = Some(LatencyEmulation::uniform(lat));
                let idx = plan.add_request(RunRequest {
                    spec: spec.clone(),
                    mechanism: mech,
                    cfg,
                });
                plan.add_point(mech, lat as f64, idx);
            }
        } else {
            let idx = plan.add_request(RunRequest {
                spec: spec.clone(),
                mechanism: mech,
                cfg: cfg.clone().with_mechanism(mech),
            });
            for &lat in latencies {
                plan.add_point(mech, lat as f64, idx);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Runner;

    fn tiny_spec() -> AppSpec {
        let mut p = commsense_workloads::bipartite::Em3dParams::small();
        p.iterations = 2;
        AppSpec::Em3d(p)
    }

    #[test]
    fn one_way_latency_matches_table1() {
        let cfg = MachineConfig::alewife();
        let lat = one_way_latency_cycles(&cfg, 24);
        assert!(
            (13.0..18.0).contains(&lat),
            "Alewife 24B latency {lat} cycles"
        );
    }

    #[test]
    fn base_comparison_covers_all_mechanisms() {
        let results = Runner::from_env().run(&base_comparison_requests(
            &tiny_spec(),
            &MachineConfig::alewife(),
        ));
        assert_eq!(results.len(), 5);
        for (r, mech) in results.iter().zip(Mechanism::ALL) {
            assert!(r.verified);
            assert_eq!(
                r.mechanism, mech,
                "results must stay in Mechanism::ALL order"
            );
        }
    }

    #[test]
    fn bisection_sweep_shapes() {
        let cfg = MachineConfig::alewife();
        let sweeps = bisection_plan(
            &tiny_spec(),
            &[Mechanism::SharedMem, Mechanism::MsgPoll],
            &cfg,
            &[0.0, 12.0],
            64,
        )
        .run(&Runner::from_env());
        assert_eq!(sweeps.len(), 2);
        for s in &sweeps {
            s.assert_verified();
            assert_eq!(s.points.len(), 2);
            assert!((s.points[0].x - 18.0).abs() < 0.1);
            assert!((s.points[1].x - 6.0).abs() < 0.1);
        }
        // Shared memory must degrade as bisection shrinks.
        let sm = &sweeps[0];
        assert!(sm.runtimes()[1] > sm.runtimes()[0]);
    }

    #[test]
    fn clock_sweep_scales_relative_latency() {
        let cfg = MachineConfig::alewife();
        let sweeps = clock_plan(&tiny_spec(), &[Mechanism::SharedMem], &cfg, &[20.0, 14.0])
            .run(&Runner::from_env());
        let s = &sweeps[0];
        s.assert_verified();
        // Slower clock => fewer cycles of relative network latency.
        assert!(s.points[1].x < s.points[0].x);
        assert!(s.runtimes()[1] < s.runtimes()[0]);
    }

    #[test]
    fn ctx_switch_sweep_flatlines_message_passing() {
        let cfg = MachineConfig::alewife();
        let sweeps = ctx_switch_plan(
            &tiny_spec(),
            &[Mechanism::SharedMem, Mechanism::MsgPoll],
            &cfg,
            &[50, 400],
        )
        .run(&Runner::from_env());
        let sm = &sweeps[0];
        let mp = &sweeps[1];
        assert!(
            sm.runtimes()[1] > sm.runtimes()[0],
            "sm must degrade with latency"
        );
        assert_eq!(
            mp.runtimes()[0],
            mp.runtimes()[1],
            "mp is plotted flat for reference"
        );
    }

    #[test]
    fn ctx_switch_plan_shares_the_flat_mp_request() {
        let plan = ctx_switch_plan(
            &tiny_spec(),
            &Mechanism::ALL,
            &MachineConfig::alewife(),
            &[50, 400],
        );
        // 2 shared-memory mechanisms x 2 latencies + 3 message-passing
        // mechanisms x 1 base run.
        assert_eq!(plan.len(), 7);
    }

    #[test]
    fn point_at_tolerates_float_noise() {
        let cfg = MachineConfig::alewife();
        let sweeps = ctx_switch_plan(&tiny_spec(), &[Mechanism::SharedMem], &cfg, &[100])
            .run(&Runner::from_env());
        let p = sweeps[0].point_at(100.0).expect("point exists");
        assert_eq!(p.x, 100.0);
        assert!(sweeps[0].point_at(100.0 + 1e-5).is_some(), "near match");
        assert!(
            sweeps[0].point_at(120.0).is_none(),
            "far x values do not match"
        );
    }
}
