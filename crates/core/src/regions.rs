//! Region classification and crossover detection (Figures 1 and 2).
//!
//! The paper frames its results with two conceptual figures: as bandwidth
//! falls (or latency rises), an application's runtime curve passes through
//! a *Latency Hiding* region (flat — slack absorbs the change), a *Latency
//! Dominated* region (roughly linear growth), and — for bandwidth — a
//! *Congestion Dominated* region where queueing makes growth superlinear.
//! This module classifies measured curves into those regions and finds the
//! crossover points between two mechanisms' curves.

use crate::experiment::Sweep;

/// The paper's performance regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Performance is insensitive to the swept parameter.
    LatencyHiding,
    /// Performance degrades roughly linearly.
    LatencyDominated,
    /// Performance degrades superlinearly (queueing).
    CongestionDominated,
}

impl Region {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Region::LatencyHiding => "latency-hiding",
            Region::LatencyDominated => "latency-dominated",
            Region::CongestionDominated => "congestion-dominated",
        }
    }
}

/// A classified segment of a curve: between `x_lo` and `x_hi` (in sweep
/// order) the curve behaves as `region`.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Segment start (first point's x).
    pub x_lo: f64,
    /// Segment end (second point's x).
    pub x_hi: f64,
    /// Classification.
    pub region: Region,
}

/// Classifies each adjacent pair of sweep points by its *stress slope*.
///
/// The sweep must be ordered from least to most stressed (bandwidth sweeps
/// go from high to low bandwidth; latency sweeps from low to high
/// latency). For each segment the relative runtime growth is compared to
/// the relative stress growth: below `flat_tol` relative growth is
/// latency-hiding; growth up to `super_ratio` times the stress growth is
/// latency-dominated; beyond that, congestion-dominated.
///
/// # Panics
///
/// Panics if the sweep has fewer than two points.
pub fn classify(sweep: &Sweep, stress: &[f64], flat_tol: f64, super_ratio: f64) -> Vec<Segment> {
    let runtimes = sweep.runtimes();
    assert!(runtimes.len() >= 2, "need at least two points to classify");
    assert_eq!(runtimes.len(), stress.len(), "one stress value per point");
    let mut segments = Vec::new();
    for i in 1..runtimes.len() {
        let growth = runtimes[i] as f64 / runtimes[i - 1] as f64 - 1.0;
        let stress_growth = (stress[i] / stress[i - 1] - 1.0).max(1e-12);
        let region = if growth <= flat_tol {
            Region::LatencyHiding
        } else if growth <= super_ratio * stress_growth {
            Region::LatencyDominated
        } else {
            Region::CongestionDominated
        };
        segments.push(Segment {
            x_lo: sweep.points[i - 1].x,
            x_hi: sweep.points[i].x,
            region,
        });
    }
    segments
}

/// Finds the crossover `x` where curve `a` first becomes slower than curve
/// `b`, interpolating linearly between sweep points. Returns `None` if `a`
/// never crosses above `b` (or starts above it), and also when the two
/// sweeps are not measured at identical `x` values in identical order — a
/// fault-tolerant run drops failed points, so its sweeps may come back
/// ragged, and a ragged pair cannot be interpolated.
pub fn crossover(a: &Sweep, b: &Sweep) -> Option<f64> {
    let aligned = a.points.len() == b.points.len()
        && a.points
            .iter()
            .zip(&b.points)
            .all(|(pa, pb)| (pa.x - pb.x).abs() < 1e-9);
    if !aligned {
        return None;
    }
    let mut prev: Option<(f64, f64)> = None; // (x, diff)
    for (pa, pb) in a.points.iter().zip(&b.points) {
        let diff = pa.result.runtime_cycles as f64 - pb.result.runtime_cycles as f64;
        if let Some((px, pdiff)) = prev {
            if pdiff <= 0.0 && diff > 0.0 {
                // Linear interpolation of the zero crossing.
                let t = pdiff / (pdiff - diff);
                return Some(px + t * (pa.x - px));
            }
        } else if diff > 0.0 {
            return None; // starts above
        }
        prev = Some((pa.x, diff));
    }
    None
}

/// Test-support helpers shared with sibling modules' tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use crate::experiment::{Sweep, SweepPoint};
    use commsense_machine::Mechanism;

    /// Builds a sweep with synthetic runtimes `f(x)` carried on a cheap
    /// real run (only `x` and `runtime_cycles` matter to the consumers).
    pub fn synthetic_sweep(xs: &[f64], f: impl Fn(f64) -> u64) -> Sweep {
        let carrier = commsense_apps::run_app(
            &commsense_apps::AppSpec::Em3d({
                let mut p = commsense_workloads::bipartite::Em3dParams::small();
                p.nodes = 64;
                p.degree = 2;
                p.iterations = 1;
                p
            }),
            Mechanism::MsgPoll,
            &commsense_machine::MachineConfig::tiny(),
        );
        Sweep {
            app: "SYNTH",
            mechanism: Mechanism::MsgPoll,
            points: xs
                .iter()
                .map(|&x| {
                    let mut r = carrier.clone();
                    r.runtime_cycles = f(x);
                    SweepPoint { x, result: r }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_sweep(xs: &[f64], runtimes: &[u64]) -> Sweep {
        let i = std::cell::Cell::new(0usize);
        super::tests_support::synthetic_sweep(xs, |_| {
            let k = i.get();
            i.set(k + 1);
            runtimes[k.min(runtimes.len() - 1)]
        })
    }

    #[test]
    fn classify_three_regions() {
        // Stress doubles each step; runtime: flat, linear-ish, explosive.
        let s = fake_sweep(&[18.0, 9.0, 4.5, 2.25], &[100, 102, 160, 1000]);
        let stress = [1.0, 2.0, 4.0, 8.0];
        let segs = classify(&s, &stress, 0.05, 1.2);
        assert_eq!(segs[0].region, Region::LatencyHiding);
        assert_eq!(segs[1].region, Region::LatencyDominated);
        assert_eq!(segs[2].region, Region::CongestionDominated);
    }

    #[test]
    fn crossover_interpolates() {
        let a = fake_sweep(&[18.0, 12.0, 6.0], &[100, 100, 300]);
        let b = fake_sweep(&[18.0, 12.0, 6.0], &[150, 150, 150]);
        // a crosses b between 12 and 6: diff goes -50 -> +150 => t=0.25.
        let x = crossover(&a, &b).expect("crossover exists");
        assert!((x - 10.5).abs() < 1e-9, "crossover at {x}");
    }

    #[test]
    fn no_crossover_when_always_faster() {
        let a = fake_sweep(&[18.0, 6.0], &[100, 120]);
        let b = fake_sweep(&[18.0, 6.0], &[150, 150]);
        assert_eq!(crossover(&a, &b), None);
    }

    #[test]
    fn ragged_or_empty_sweeps_have_no_crossover() {
        // `a` crosses `b` between 12 and 6, but `b` lost its 12 point.
        let a = fake_sweep(&[18.0, 12.0, 6.0], &[100, 100, 300]);
        let b = fake_sweep(&[18.0, 6.0], &[150, 150]);
        assert_eq!(crossover(&a, &b), None);
        assert_eq!(crossover(&b, &a), None);
        // Same length, different x values.
        let c = fake_sweep(&[18.0, 10.0, 6.0], &[150, 150, 150]);
        assert_eq!(crossover(&a, &c), None);
        let empty = fake_sweep(&[], &[0]);
        assert_eq!(crossover(&empty, &b), None);
        assert_eq!(crossover(&empty, &empty), None);
    }

    #[test]
    fn region_labels() {
        assert_eq!(Region::CongestionDominated.label(), "congestion-dominated");
    }
}
