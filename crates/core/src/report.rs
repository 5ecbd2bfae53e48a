//! ASCII-table and CSV reporting for the experiment harness.

use std::borrow::Borrow;

use commsense_apps::RunResult;
use commsense_machine::{Bucket, MachineConfig, Observation};
use commsense_mesh::PacketClass;

use crate::experiment::Sweep;
use crate::machines::MachineRow;

/// Formats an optional float to one decimal, or a placeholder.
fn opt(v: Option<f64>, width: usize) -> String {
    match v {
        Some(x) => format!("{x:>width$.1}"),
        None => format!("{:>width$}", "N/A"),
    }
}

/// Figure 4: the per-mechanism runtime breakdown table for one app.
pub fn breakdown_table(app: &str, results: &[RunResult], cfg: &MachineConfig) -> String {
    let clk = cfg.clock();
    let mut out = format!(
        "{app}: execution time breakdown (cycles, mean per node)\n{:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}\n",
        "mech", "runtime", "sync", "msg-ovhd", "mem+NI", "compute", "verified"
    );
    for r in results {
        out.push_str(&format!(
            "{:<8} {:>12} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>9}\n",
            r.mechanism.label(),
            r.runtime_cycles,
            r.stats.mean_bucket_cycles(Bucket::Sync, clk),
            r.stats.mean_bucket_cycles(Bucket::MsgOverhead, clk),
            r.stats.mean_bucket_cycles(Bucket::MemWait, clk),
            r.stats.mean_bucket_cycles(Bucket::Compute, clk),
            r.verified,
        ));
    }
    out
}

/// Host-side measurement footer for a set of runs: simulated events,
/// wall-clock seconds and events per second for each mechanism. This is
/// measurement metadata about the simulator itself (see `benchmark/`),
/// not a figure from the paper, so it is kept out of [`breakdown_table`].
pub fn sim_rate_table(app: &str, results: &[RunResult]) -> String {
    let mut out = format!(
        "{app}: simulator cost (host measurement)\n{:<8} {:>12} {:>9} {:>12}\n",
        "mech", "events", "wall(s)", "events/s"
    );
    for r in results {
        let rate = match r.events_per_sec() {
            Some(e) => format!("{e:>12.0}"),
            None => format!("{:>12}", "N/A"),
        };
        out.push_str(&format!(
            "{:<8} {:>12} {:>9.3} {rate}\n",
            r.mechanism.label(),
            r.stats.events,
            r.wall.as_secs_f64(),
        ));
    }
    out
}

/// Figure 4 as ASCII stacked bars: one row per mechanism, scaled to the
/// slowest, with the four buckets drawn as distinct glyphs
/// (`s` sync, `o` msg overhead, `m` memory+NI, `#` compute).
pub fn breakdown_bars(
    app: &str,
    results: &[RunResult],
    cfg: &MachineConfig,
    width: usize,
) -> String {
    let clk = cfg.clock();
    let max = results
        .iter()
        .map(|r| r.runtime_cycles)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let mut out = format!("{app}: relative runtime (s=sync o=overhead m=mem+NI #=compute)\n");
    for r in results {
        let glyphs = [
            ('s', r.stats.mean_bucket_cycles(Bucket::Sync, clk)),
            ('o', r.stats.mean_bucket_cycles(Bucket::MsgOverhead, clk)),
            ('m', r.stats.mean_bucket_cycles(Bucket::MemWait, clk)),
            ('#', r.stats.mean_bucket_cycles(Bucket::Compute, clk)),
        ];
        let mut bar = String::new();
        for (g, cycles) in glyphs {
            let n = (cycles / max * width as f64).round() as usize;
            bar.extend(std::iter::repeat_n(g, n));
        }
        out.push_str(&format!(
            "{:<8} |{:<width$}| {}\n",
            r.mechanism.label(),
            bar,
            r.runtime_cycles
        ));
    }
    out
}

/// Per-link utilization over time as an ASCII heatmap: one row per link
/// that carried traffic, epochs resampled down to at most `max_cols`
/// columns, shaded ` .:-=+*#%@` from idle to saturated, with the run-mean
/// utilization on the right. Links that never carried a packet are
/// summarized in a trailing count instead of printed as blank rows.
///
/// Above the sparse threshold the metric series covers a *sample* of the
/// machine's links: rows are the sampled columns (labelled with their
/// dense link ids when no human-readable label was recorded) and a
/// trailing note reports how many of the machine's links the sample
/// covers, instead of silently presenting the subset as the whole mesh.
pub fn link_heatmap(obs: &Observation, max_cols: usize) -> String {
    const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let series = &obs.series;
    let samples = series.samples();
    let max_cols = max_cols.max(1);
    let mut out =
        String::from("link utilization heatmap (rows: links, cols: time, ` `..`@` = 0..100%)\n");
    if samples == 0 {
        out.push_str("  (no samples recorded)\n");
        return out;
    }
    let cols = samples.min(max_cols);
    let mut idle = 0usize;
    for col in 0..series.links {
        let total_busy = series.link_busy_ps[(samples - 1) * series.links + col];
        if total_busy == 0 {
            idle += 1;
            continue;
        }
        let mut row = String::new();
        for c in 0..cols {
            // Each column averages the utilization of its sample bucket.
            let lo = c * samples / cols;
            let hi = ((c + 1) * samples / cols).max(lo + 1);
            let mean: f64 = (lo..hi)
                .map(|s| series.link_utilization(s, col))
                .sum::<f64>()
                / (hi - lo) as f64;
            let shade = ((mean * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
            row.push(SHADES[shade]);
        }
        let label = match obs.link_labels.get(col) {
            Some(l) => l.clone(),
            // Sparse series label gaps fall back to the dense link id the
            // column samples, never to column position.
            None => format!(
                "link{}",
                series.link_ids.get(col).copied().unwrap_or(col as u32)
            ),
        };
        out.push_str(&format!(
            "{label:>8} |{row}| mean {:5.1}%\n",
            obs.mean_link_utilization(col) * 100.0
        ));
    }
    if idle > 0 {
        out.push_str(&format!("  ({idle} sampled links carried no traffic)\n"));
    }
    // The recorder's busy table is dense (one slot per physical link), so
    // it tells us how much of the machine the sampled series covers.
    let total_links = obs.net.link_busy.len();
    if total_links > series.links {
        out.push_str(&format!(
            "  (showing {} sampled of {total_links} links)\n",
            series.links
        ));
    }
    out
}

/// Figure 5: the communication-volume breakdown table for one app.
pub fn volume_table(app: &str, results: &[RunResult]) -> String {
    let mut out = format!(
        "{app}: communication volume (bytes injected)\n{:<8} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "mech", "total", "invalidates", "requests", "headers", "data"
    );
    for r in results {
        let v = &r.stats.volume;
        out.push_str(&format!(
            "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            r.mechanism.label(),
            v.app_total(),
            v.class_bytes(PacketClass::Invalidate),
            v.class_bytes(PacketClass::Request),
            v.class_bytes(PacketClass::Header),
            v.class_bytes(PacketClass::Data),
        ));
    }
    out
}

/// The x values appearing across `sweeps`, in order of first appearance.
///
/// Sweeps are usually rectangular (every mechanism measured at every x),
/// but a fault-tolerant run may drop failed points, leaving curves ragged;
/// the union keeps every surviving point printable.
fn sweep_xs(sweeps: &[Sweep]) -> Vec<f64> {
    let mut xs: Vec<f64> = Vec::new();
    for s in sweeps {
        for p in &s.points {
            if !xs.iter().any(|x| x.to_bits() == p.x.to_bits()) {
                xs.push(p.x);
            }
        }
    }
    xs
}

/// The runtime measured by `s` at exactly `x`, if that point survived.
fn sweep_runtime_at(s: &Sweep, x: f64) -> Option<u64> {
    s.points
        .iter()
        .find(|p| p.x.to_bits() == x.to_bits())
        .map(|p| p.result.runtime_cycles)
}

/// Figures 7–10: one sweep as an x/runtime series table. Points missing
/// from a curve (dropped by a fault-tolerant run) render as `-`.
pub fn sweep_table(title: &str, x_label: &str, sweeps: &[Sweep]) -> String {
    let mut out = format!("{title}\n{x_label:>12}");
    for s in sweeps {
        out.push_str(&format!(" {:>12}", s.mechanism.label()));
    }
    out.push('\n');
    for x in sweep_xs(sweeps) {
        out.push_str(&format!("{x:>12.2}"));
        for s in sweeps {
            match sweep_runtime_at(s, x) {
                Some(cycles) => out.push_str(&format!(" {cycles:>12}")),
                None => out.push_str(&format!(" {:>12}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// CSV form of [`sweep_table`] (for external plotting). Missing points
/// render as empty cells.
pub fn sweep_csv(x_label: &str, sweeps: &[Sweep]) -> String {
    let mut out = String::from(x_label);
    for s in sweeps {
        out.push(',');
        out.push_str(s.mechanism.label());
    }
    out.push('\n');
    for x in sweep_xs(sweeps) {
        out.push_str(&format!("{x}"));
        for s in sweeps {
            match sweep_runtime_at(s, x) {
                Some(cycles) => out.push_str(&format!(",{cycles}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// CSV form of [`breakdown_table`] (Figure 4): one row per mechanism with
/// the runtime and the four-bucket breakdown. This is what the resume
/// smoke test diffs between cold and warm store runs, so every column is
/// a pure function of the request.
pub fn breakdown_csv<R: Borrow<RunResult>>(
    app: &str,
    results: &[R],
    cfg: &MachineConfig,
) -> String {
    let clk = cfg.clock();
    let mut out =
        String::from("app,mech,runtime_cycles,sync,msg_overhead,mem_ni_wait,compute,verified\n");
    for r in results {
        let r = r.borrow();
        out.push_str(&format!(
            "{app},{},{},{:.1},{:.1},{:.1},{:.1},{}\n",
            r.mechanism.label(),
            r.runtime_cycles,
            r.stats.mean_bucket_cycles(Bucket::Sync, clk),
            r.stats.mean_bucket_cycles(Bucket::MsgOverhead, clk),
            r.stats.mean_bucket_cycles(Bucket::MemWait, clk),
            r.stats.mean_bucket_cycles(Bucket::Compute, clk),
            r.verified,
        ));
    }
    out
}

/// Table 1 rendering.
pub fn table1_text(rows: &[MachineRow]) -> String {
    let mut out = format!(
        "{:<16} {:>7} {:<16} {:>10} {:>10} {:>8} {:>8} {:>7}\n",
        "Machine", "MHz", "Topology", "Bsctn MB/s", "B/cycle", "NetLat", "Remote", "Local"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>7.1} {:<16} {} {} {} {} {:>7.0}\n",
            format!("{}{}", r.name, if r.estimated { "*" } else { "" }),
            r.proc_mhz,
            r.topology,
            opt(r.bisection_mb_s, 10),
            opt(r.bytes_per_cycle(), 10),
            opt(r.net_latency_cycles, 8),
            opt(r.remote_miss_cycles, 8),
            r.local_miss_cycles,
        ));
    }
    out.push_str("* projected or simulated clock\n");
    out
}

/// Table 2 rendering (local-miss units).
pub fn table2_text(rows: &[MachineRow]) -> String {
    let mut out = format!(
        "{:<16} {:>16} {:>18}\n",
        "Machine", "B/local-miss", "NetLat (misses)"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {} {}\n",
            r.name,
            opt(r.bytes_per_local_miss(), 16),
            opt(r.latency_in_local_misses(), 18),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::table1;

    #[test]
    fn tables_render_every_machine() {
        let t1 = table1_text(&table1());
        let t2 = table2_text(&table1());
        for r in table1() {
            assert!(t1.contains(r.name), "table 1 missing {}", r.name);
            assert!(t2.contains(r.name), "table 2 missing {}", r.name);
        }
        assert!(t1.contains("18.0"), "Alewife bytes/cycle present");
        assert!(t2.contains("198.0"), "Alewife bytes/local-miss present");
    }

    #[test]
    fn opt_formats_missing_values() {
        assert_eq!(opt(None, 5), "  N/A");
        assert_eq!(opt(Some(1.25), 6), "   1.2");
    }

    #[test]
    fn breakdown_outputs_cover_all_mechanisms() {
        use crate::experiment::base_comparison;
        use commsense_apps::AppSpec;
        use commsense_machine::MachineConfig;
        let mut p = commsense_workloads::bipartite::Em3dParams::small();
        p.nodes = 200;
        p.iterations = 1;
        let cfg = MachineConfig::alewife();
        let results = base_comparison(&AppSpec::Em3d(p), &cfg);
        let table = breakdown_table("EM3D", &results, &cfg);
        let bars = breakdown_bars("EM3D", &results, &cfg, 40);
        let vols = volume_table("EM3D", &results);
        let rates = sim_rate_table("EM3D", &results);
        for mech in commsense_machine::Mechanism::ALL {
            assert!(table.contains(mech.label()), "table missing {mech}");
            assert!(bars.contains(mech.label()), "bars missing {mech}");
            assert!(vols.contains(mech.label()), "volumes missing {mech}");
            assert!(rates.contains(mech.label()), "rates missing {mech}");
        }
        // These runs were actually simulated, so the wall clock is nonzero
        // and every row reports a concrete event rate.
        assert!(!rates.contains("N/A"), "measured runs should have a rate");
        // The slowest mechanism's bar reaches (close to) full width.
        assert!(bars.lines().skip(1).any(|l| l.len() > 40));
    }

    #[test]
    fn heatmap_shades_busy_links() {
        use commsense_apps::{run_app, AppSpec};
        use commsense_machine::{MachineConfig, Mechanism, ObserveConfig};
        let mut p = commsense_workloads::bipartite::Em3dParams::small();
        p.iterations = 1;
        let mut cfg = MachineConfig::tiny();
        cfg.observe = Some(ObserveConfig {
            epoch_cycles: 100,
            trace_capacity: 1 << 14,
            max_packets: 1 << 14,
            ..Default::default()
        });
        let result = run_app(&AppSpec::Em3d(p), Mechanism::MsgPoll, &cfg);
        let obs = result.observation.expect("observation recorded");
        let map = link_heatmap(&obs, 40);
        // At least one link carried traffic, labelled with its mesh name.
        assert!(map.contains("| mean"), "no link rows rendered:\n{map}");
        assert!(map.contains('('), "link labels should name endpoints");
        // Column count is bounded by the requested width.
        for line in map.lines().filter(|l| l.contains('|')) {
            let row = line.split('|').nth(1).unwrap();
            assert!(row.len() <= 40, "row too wide: {line}");
        }
    }

    #[test]
    fn heatmap_discloses_sparse_link_sampling() {
        use commsense_apps::{run_app, AppSpec};
        use commsense_machine::{MachineConfig, Mechanism, ObserveConfig};
        let mut p = commsense_workloads::bipartite::Em3dParams::small();
        p.iterations = 1;
        let mut cfg = MachineConfig::tiny();
        // Force the sparse path on a tiny machine: sample 2 nodes (and 4
        // link columns) out of the full mesh.
        cfg.observe = Some(ObserveConfig {
            epoch_cycles: 100,
            trace_capacity: 1 << 14,
            max_packets: 1 << 14,
            sparse_threshold: 2,
            ..Default::default()
        });
        let result = run_app(&AppSpec::Em3d(p), Mechanism::MsgPoll, &cfg);
        let obs = result.observation.expect("observation recorded");
        let total_links = obs.net.link_busy.len();
        assert!(
            obs.series.links < total_links,
            "threshold 2 must sample a strict subset of {total_links} links"
        );
        let map = link_heatmap(&obs, 40);
        assert!(
            map.contains(&format!(
                "showing {} sampled of {total_links} links",
                obs.series.links
            )),
            "sparse heatmap must disclose sampling:\n{map}"
        );
    }

    #[test]
    fn sweep_csv_matches_table_data() {
        use crate::experiment::bisection_sweep;
        use commsense_apps::AppSpec;
        use commsense_machine::{MachineConfig, Mechanism};
        let mut p = commsense_workloads::bipartite::Em3dParams::small();
        p.nodes = 200;
        p.iterations = 1;
        let sweeps = bisection_sweep(
            &AppSpec::Em3d(p),
            &[Mechanism::MsgPoll],
            &MachineConfig::alewife(),
            &[0.0, 12.0],
            64,
        );
        let csv = sweep_csv("bpc", &sweeps);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("bpc,mp-poll"));
        let row: Vec<&str> = lines.next().expect("data row").split(',').collect();
        assert!((row[0].parse::<f64>().unwrap() - 18.0).abs() < 0.01);
        assert_eq!(
            row[1].parse::<u64>().unwrap(),
            sweeps[0].points[0].result.runtime_cycles
        );
        assert_eq!(csv.lines().count(), 3);
    }
}
