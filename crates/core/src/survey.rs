//! Surveying Table 1's machine design points with the emulator.
//!
//! §5 closes by relating the Alewife measurements to other machines'
//! (bisection bytes/cycle, network latency) ratios. This module makes that
//! an operation: [`config_for`] retargets the emulated network to a
//! surveyed machine's ratios (topology and clock stay fixed — "using the
//! machine as an emulator", §1.1), and [`survey`] runs an application
//! across every Table 1 row that has a physical network.

use commsense_apps::{AppSpec, RunResult};
use commsense_machine::{MachineConfig, Mechanism};

use crate::engine::{RunRequest, Runner};
use crate::machines::MachineRow;

/// One surveyed design point.
#[derive(Debug, Clone)]
pub struct SurveyRow {
    /// Machine name (Table 1).
    pub machine: &'static str,
    /// Bisection bytes per processor cycle.
    pub bytes_per_cycle: f64,
    /// One-way 24-byte latency in processor cycles.
    pub latency_cycles: f64,
    /// Results in the order of the surveyed mechanisms.
    pub results: Vec<RunResult>,
    /// The latency target was below the serialization floor and was
    /// clamped (very low-bandwidth machines).
    pub approx: bool,
}

impl SurveyRow {
    /// Runtime ratio between two surveyed mechanisms (by index).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn ratio(&self, a: usize, b: usize) -> f64 {
        self.results[a].runtime_cycles as f64 / self.results[b].runtime_cycles as f64
    }
}

/// Builds a 32-node config matching `row`'s bisection bytes/cycle and
/// one-way 24-byte latency. Returns `None` for rows without a physical
/// network; the `bool` reports whether the latency target was clamped to
/// the serialization floor.
pub fn config_for(row: &MachineRow, base: &MachineConfig) -> Option<(MachineConfig, bool)> {
    let bpc = row.bytes_per_cycle()?;
    let lat = row.net_latency_cycles?;
    let mut cfg = base.clone();
    let cycle_ps = cfg.clock().cycle_ps() as f64;
    let channels = cfg.net.topo.bisection_channels() as f64;
    // bisection B/cycle = channels * cycle_ps / ps_per_byte.
    cfg.net.ps_per_byte = (channels * cycle_ps / bpc).round().max(1.0) as u64;
    let mean_hops = cfg.net.topo.mean_hops();
    let serial_ps = 24.0 * cfg.net.ps_per_byte as f64;
    let router = (lat * cycle_ps - serial_ps) / mean_hops;
    let approx = router < 1_000.0;
    cfg.net.router_delay_ps = router.max(1_000.0).round() as u64;
    Some((cfg, approx))
}

/// Runs `spec` under `mechanisms` at every surveyed design point that has
/// a physical network. All design points share one prepared workload and
/// execute on an environment-sized [`Runner`].
pub fn survey(
    spec: &AppSpec,
    mechanisms: &[Mechanism],
    rows: &[MachineRow],
    base: &MachineConfig,
) -> Vec<SurveyRow> {
    let networked: Vec<(&MachineRow, MachineConfig, bool)> = rows
        .iter()
        .filter_map(|row| {
            let (cfg, approx) = config_for(row, base)?;
            Some((row, cfg, approx))
        })
        .collect();
    let requests: Vec<RunRequest> = networked
        .iter()
        .flat_map(|(_, cfg, _)| {
            mechanisms.iter().map(|&mech| RunRequest {
                spec: spec.clone(),
                mechanism: mech,
                cfg: cfg.clone().with_mechanism(mech),
            })
        })
        .collect();
    let mut results = Runner::from_env().run(&requests).into_iter();
    networked
        .into_iter()
        .map(|(row, _, approx)| SurveyRow {
            machine: row.name,
            bytes_per_cycle: row.bytes_per_cycle().expect("filtered"),
            latency_cycles: row.net_latency_cycles.expect("filtered"),
            results: results
                .by_ref()
                .take(mechanisms.len())
                .collect::<Vec<RunResult>>(),
            approx,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::table1;
    use commsense_workloads::bipartite::Em3dParams;

    fn find(name: &str) -> MachineRow {
        table1()
            .into_iter()
            .find(|r| r.name == name)
            .expect("present")
    }

    fn tiny_spec() -> AppSpec {
        let mut p = Em3dParams::small();
        p.nodes = 1000;
        p.iterations = 2;
        AppSpec::Em3d(p)
    }

    #[test]
    fn alewife_maps_to_roughly_itself() {
        let base = MachineConfig::alewife();
        let (cfg, approx) = config_for(&find("MIT Alewife"), &base).expect("has a network");
        assert!(!approx);
        // Same bisection within rounding.
        let bpc = cfg.net.bisection_bytes_per_cycle(cfg.clock());
        assert!((bpc - 18.0).abs() < 0.2, "bisection {bpc}");
        // Latency within a cycle or two of the base machine's.
        let lat = crate::experiment::one_way_latency_cycles(&cfg, 24);
        let base_lat = crate::experiment::one_way_latency_cycles(&base, 24);
        assert!((lat - 15.0).abs() < 2.0, "latency {lat} (base {base_lat})");
    }

    #[test]
    fn simulated_machines_are_skipped() {
        let base = MachineConfig::alewife();
        assert!(config_for(&find("Wisconsin T0"), &base).is_none());
        let rows = table1();
        let surveyed = survey(&tiny_spec(), &[Mechanism::MsgPoll], &rows[..1], &base);
        assert_eq!(surveyed.len(), 1); // Alewife only
        assert!(surveyed[0].results[0].verified);
    }

    #[test]
    fn high_latency_points_disfavor_shared_memory() {
        let base = MachineConfig::alewife();
        let spec = tiny_spec();
        let mechs = [Mechanism::SharedMem, Mechanism::MsgPoll];
        let jm = survey(&spec, &mechs, &[find("MIT J-Machine")], &base).remove(0);
        let t3e = survey(&spec, &mechs, &[find("Cray T3E")], &base).remove(0);
        assert!(
            t3e.ratio(0, 1) > jm.ratio(0, 1) * 1.3,
            "T3E ratios must punish shared memory far more than the J-Machine: {} vs {}",
            t3e.ratio(0, 1),
            jm.ratio(0, 1)
        );
    }

    #[test]
    fn low_bandwidth_latency_floor_is_flagged() {
        let base = MachineConfig::alewife();
        let (_, approx) = config_for(&find("Intel Delta"), &base).expect("has a network");
        assert!(approx, "5.4 B/cycle cannot serialize 24 bytes in 15 cycles");
    }
}
