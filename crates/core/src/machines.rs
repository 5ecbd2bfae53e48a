//! Table 1 / Table 2: parameter estimates for 32-processor machines.
//!
//! The paper grounds its sweeps in a survey of contemporary machines:
//! Table 1 lists processor clock, bisection bandwidth, one-way network
//! latency for a 24-byte packet, and remote/local miss latencies; Table 2
//! recalculates bandwidth and latency in units of the local cache-miss
//! time, the right frame of reference for memory-bound applications
//! (§5.4).

use commsense_mesh::Topo;

/// One row of Table 1 (32-processor configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRow {
    /// Machine name.
    pub name: &'static str,
    /// Processor clock in MHz (projected/simulated entries flagged below).
    pub proc_mhz: f64,
    /// Network topology description.
    pub topology: &'static str,
    /// Bisection bandwidth in Mbytes/s (`None` where the study simulated
    /// no network).
    pub bisection_mb_s: Option<f64>,
    /// One-way network latency for a 24-byte packet, in processor cycles
    /// (`None` where unknown).
    pub net_latency_cycles: Option<f64>,
    /// Average remote-miss latency in cycles (`None` for machines without
    /// hardware shared memory).
    pub remote_miss_cycles: Option<f64>,
    /// Local cache-miss latency in cycles.
    pub local_miss_cycles: f64,
    /// Whether the clock is projected or simulated rather than shipped.
    pub estimated: bool,
}

impl MachineRow {
    /// Bisection bandwidth in bytes per processor cycle (Table 1's
    /// `bytes/cycle` column).
    pub fn bytes_per_cycle(&self) -> Option<f64> {
        self.bisection_mb_s.map(|mb| mb / self.proc_mhz)
    }

    /// The nearest emulatable [`Topo`] for this machine's interconnect
    /// at its 32-processor configuration: meshes and tori collapse to their
    /// 2-D equivalents, the CM-5's fat tree to an arity the leaf count
    /// supports. `None` for rings, clustered buses, hypercubes, and rows
    /// without a simulated network.
    pub fn native_topo(&self) -> Option<Topo> {
        let kind = if self.topology.contains("Mesh") {
            "mesh"
        } else if self.topology.contains("Torus") {
            "torus"
        } else if self.topology.contains("Fat-Tree") {
            "fat-tree"
        } else {
            return None;
        };
        Some(Topo::with_nodes(kind, 32))
    }

    /// Table 2: bisection bandwidth in bytes per local-miss time.
    pub fn bytes_per_local_miss(&self) -> Option<f64> {
        self.bytes_per_cycle().map(|b| b * self.local_miss_cycles)
    }

    /// Table 2: network latency in local-miss times.
    pub fn latency_in_local_misses(&self) -> Option<f64> {
        self.net_latency_cycles.map(|l| l / self.local_miss_cycles)
    }
}

/// The Table 1 dataset.
pub fn table1() -> Vec<MachineRow> {
    let row = |name,
               proc_mhz,
               topology,
               bisection_mb_s,
               net_latency_cycles,
               remote_miss_cycles,
               local_miss_cycles,
               estimated| MachineRow {
        name,
        proc_mhz,
        topology,
        bisection_mb_s,
        net_latency_cycles,
        remote_miss_cycles,
        local_miss_cycles,
        estimated,
    };
    vec![
        row(
            "MIT Alewife",
            20.0,
            "4x8 Mesh",
            Some(360.0),
            Some(15.0),
            Some(50.0),
            11.0,
            false,
        ),
        row(
            "TMC CM5",
            33.0,
            "4-ary Fat-Tree",
            Some(640.0),
            Some(50.0),
            None,
            16.0,
            false,
        ),
        row(
            "KSR-2",
            20.0,
            "Ring",
            Some(1000.0),
            None,
            Some(126.0),
            18.0,
            false,
        ),
        row(
            "MIT J-Machine",
            12.5,
            "4x4x2 Mesh",
            Some(3200.0),
            Some(7.0),
            None,
            7.0,
            false,
        ),
        row(
            "MIT M-Machine",
            100.0,
            "4x4x2 Mesh",
            Some(12800.0),
            Some(10.0),
            Some(154.0),
            21.0,
            true,
        ),
        row(
            "Intel Delta",
            40.0,
            "4x8 Mesh",
            Some(216.0),
            Some(15.0),
            None,
            10.0,
            false,
        ),
        row(
            "Intel Paragon",
            50.0,
            "4x8 Mesh",
            Some(2800.0),
            Some(12.0),
            None,
            10.0,
            false,
        ),
        row(
            "Stanford DASH",
            33.0,
            "2x4 clusters",
            Some(480.0),
            Some(31.0),
            Some(120.0),
            30.0,
            false,
        ),
        row(
            "Stanford FLASH",
            200.0,
            "4x8 Mesh",
            Some(3200.0),
            Some(62.0),
            Some(352.0),
            40.0,
            true,
        ),
        row(
            "Wisconsin T0",
            200.0,
            "none simulated",
            None,
            Some(200.0),
            Some(1461.0),
            40.0,
            true,
        ),
        row(
            "Wisconsin T1",
            200.0,
            "none simulated",
            None,
            Some(200.0),
            Some(401.0),
            40.0,
            true,
        ),
        row(
            "Cray T3D",
            150.0,
            "4x2x2 Torus",
            Some(4800.0),
            Some(15.0),
            Some(100.0),
            23.0,
            false,
        ),
        row(
            "Cray T3E",
            300.0,
            "4x4x2 Torus",
            Some(19200.0),
            Some(110.0),
            Some(450.0),
            80.0,
            false,
        ),
        row(
            "SGI Origin",
            200.0,
            "Hypercube",
            Some(10800.0),
            Some(60.0),
            Some(150.0),
            61.0,
            false,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(name: &str) -> MachineRow {
        table1()
            .into_iter()
            .find(|r| r.name == name)
            .expect("machine present")
    }

    #[test]
    fn fourteen_machines() {
        assert_eq!(table1().len(), 14);
    }

    #[test]
    fn alewife_bytes_per_cycle_is_18() {
        let a = find("MIT Alewife");
        assert!((a.bytes_per_cycle().unwrap() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn table2_alewife_matches_paper() {
        // Table 2: Alewife = 198 bytes/local-miss, 1.36 -> "1.3" miss times.
        let a = find("MIT Alewife");
        assert!((a.bytes_per_local_miss().unwrap() - 198.0).abs() < 1.0);
        assert!((a.latency_in_local_misses().unwrap() - 1.36).abs() < 0.1);
    }

    #[test]
    fn table2_jmachine_matches_paper() {
        // J-Machine: 256 bytes/cycle x 7-cycle local miss = 1792.
        let j = find("MIT J-Machine");
        assert!((j.bytes_per_cycle().unwrap() - 256.0).abs() < 1e-9);
        assert!((j.bytes_per_local_miss().unwrap() - 1792.0).abs() < 1.0);
        assert!((j.latency_in_local_misses().unwrap() - 1.0).abs() < 0.01);
    }

    #[test]
    fn simulated_machines_have_no_bisection() {
        assert_eq!(find("Wisconsin T0").bytes_per_cycle(), None);
        assert_eq!(find("Wisconsin T1").bytes_per_local_miss(), None);
    }

    #[test]
    fn delta_is_the_low_bisection_outlier() {
        // Table 1's lowest bytes/cycle among real networks is the Delta
        // at 5.4 — the region where the paper expects crossovers.
        let d = find("Intel Delta");
        assert!((d.bytes_per_cycle().unwrap() - 5.4).abs() < 0.01);
        let min = table1()
            .iter()
            .filter_map(|r| r.bytes_per_cycle())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, d.bytes_per_cycle().unwrap());
    }

    #[test]
    fn estimated_flags() {
        assert!(find("Stanford FLASH").estimated);
        assert!(!find("Cray T3D").estimated);
    }

    #[test]
    fn native_topologies_map_to_specs() {
        assert_eq!(find("MIT Alewife").native_topo(), Some(Topo::alewife()));
        let cm5 = find("TMC CM5").native_topo().expect("fat tree");
        assert_eq!(cm5.kind(), "fat-tree");
        assert_eq!(cm5.num_nodes(), 32);
        let t3d = find("Cray T3D").native_topo().expect("torus");
        assert_eq!(t3d.kind(), "torus");
        assert_eq!(t3d.num_nodes(), 32);
        assert_eq!(find("KSR-2").native_topo(), None);
        assert_eq!(find("Wisconsin T0").native_topo(), None);
    }
}
