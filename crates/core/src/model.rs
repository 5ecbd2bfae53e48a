//! The §2 performance model, made quantitative.
//!
//! Section 2 of the paper sketches how runtime should respond to bandwidth
//! and latency: flat while slack hides communication (*Latency Hiding*),
//! growing with the reciprocal of bandwidth once stalls appear (*Latency
//! Dominated*), and growing superlinearly once queueing sets in
//! (*Congestion Dominated*); under a latency sweep, a mechanism's slope is
//! the product of its blocking-operation count and the fraction of latency
//! it cannot overlap.
//!
//! This module fits those functional forms to measured sweeps:
//!
//! * [`fit_bandwidth`] — `T(b) = c0 + c1/b + c2/b²`, whose three terms are
//!   exactly the three regions.
//! * [`fit_latency`] — `T(L) = d0 + d1·L`, whose slope `d1` estimates the
//!   number of unhidden round trips on the critical path.
//!
//! Both return goodness-of-fit so tests can assert the model actually
//! explains the measurements, and both predict held-out points.

use crate::experiment::Sweep;

/// Solves the 3×3 normal equations `A x = y` by Gaussian elimination with
/// partial pivoting. Returns `None` for singular systems.
fn solve3(mut a: [[f64; 3]; 3], mut y: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Pivot.
        let pivot = (col..3).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        y.swap(col, pivot);
        for row in (col + 1)..3 {
            let f = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (k, entry) in a[row].iter_mut().enumerate().skip(col) {
                *entry -= f * pivot_row[k];
            }
            y[row] -= f * y[col];
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut acc = y[row];
        for k in (row + 1)..3 {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// Least-squares fit of `y ≈ Σ c_i · basis_i(x)` for three basis functions.
fn lsq3(xs: &[f64], ys: &[f64], basis: impl Fn(f64) -> [f64; 3]) -> Option<([f64; 3], f64)> {
    assert_eq!(xs.len(), ys.len());
    let mut ata = [[0.0; 3]; 3];
    let mut aty = [0.0; 3];
    for (&x, &y) in xs.iter().zip(ys) {
        let b = basis(x);
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += b[i] * b[j];
            }
            aty[i] += b[i] * y;
        }
    }
    let c = solve3(ata, aty)?;
    // R² against the mean.
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let b = basis(x);
            let pred = c[0] * b[0] + c[1] * b[1] + c[2] * b[2];
            (y - pred).powi(2)
        })
        .sum();
    let r2 = if ss_tot < 1e-9 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some((c, r2))
}

/// Fitted bandwidth response `T(b) = c0 + c1/b + c2/b²` (Figure 1's
/// regions as terms: base, latency-dominated, congestion-dominated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Bandwidth-independent runtime (compute + hidden communication).
    pub c0: f64,
    /// Latency-dominated coefficient (cycles · bytes/cycle).
    pub c1: f64,
    /// Congestion-dominated coefficient.
    pub c2: f64,
    /// Coefficient of determination of the fit.
    pub r2: f64,
}

impl BandwidthModel {
    /// Predicted runtime at bisection `b` (bytes/cycle).
    ///
    /// # Panics
    ///
    /// Panics if `b <= 0`.
    pub fn predict(&self, b: f64) -> f64 {
        assert!(b > 0.0, "bandwidth must be positive");
        self.c0 + self.c1 / b + self.c2 / (b * b)
    }
}

/// Fits the bandwidth model to a sweep whose `x` is bisection bytes/cycle.
///
/// Returns `None` if the sweep has fewer than three points or the system
/// is degenerate.
pub fn fit_bandwidth(sweep: &Sweep) -> Option<BandwidthModel> {
    if sweep.points.len() < 3 {
        return None;
    }
    let xs: Vec<f64> = sweep.points.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = sweep
        .points
        .iter()
        .map(|p| p.result.runtime_cycles as f64)
        .collect();
    let (c, r2) = lsq3(&xs, &ys, |x| [1.0, 1.0 / x, 1.0 / (x * x)])?;
    Some(BandwidthModel {
        c0: c[0],
        c1: c[1],
        c2: c[2],
        r2,
    })
}

/// Fitted latency response `T(L) = d0 + d1·L` (Figure 2: the slope is the
/// unhidden round-trip count on the critical path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Latency-independent runtime.
    pub d0: f64,
    /// Cycles of runtime per cycle of remote-miss latency.
    pub d1: f64,
    /// Coefficient of determination of the fit.
    pub r2: f64,
}

impl LatencyModel {
    /// Predicted runtime at remote-miss latency `l` (cycles).
    pub fn predict(&self, l: f64) -> f64 {
        self.d0 + self.d1 * l
    }
}

/// Fits the latency model to a sweep whose `x` is remote-miss cycles.
pub fn fit_latency(sweep: &Sweep) -> Option<LatencyModel> {
    if sweep.points.len() < 2 {
        return None;
    }
    let xs: Vec<f64> = sweep.points.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = sweep
        .points
        .iter()
        .map(|p| p.result.runtime_cycles as f64)
        .collect();
    // Reuse the 3-parameter solver with a dead third basis.
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
    let det = n * sxx - sx * sx;
    if det.abs() < 1e-12 {
        return None;
    }
    let d1 = (n * sxy - sx * sy) / det;
    let d0 = (sy - d1 * sx) / n;
    let mean = sy / n;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (y - (d0 + d1 * x)).powi(2))
        .sum();
    let r2 = if ss_tot < 1e-9 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LatencyModel { d0, d1, r2 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Runner;
    use crate::experiment::{bisection_plan, ctx_switch_plan};
    use commsense_apps::AppSpec;
    use commsense_machine::{MachineConfig, Mechanism};
    use commsense_workloads::bipartite::Em3dParams;

    fn em3d() -> AppSpec {
        let mut p = Em3dParams::small();
        p.nodes = 1000;
        p.iterations = 2;
        AppSpec::Em3d(p)
    }

    #[test]
    fn solve3_inverts_a_known_system() {
        // x = [1, 2, 3] under A = identity-ish.
        let a = [[2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [1.0, 0.0, 1.0]];
        let y = [2.0, 8.0, 4.0];
        let x = solve3(a, y).expect("nonsingular");
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve3_rejects_singular() {
        let a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]];
        assert_eq!(solve3(a, [1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn bandwidth_model_recovers_synthetic_coefficients() {
        // Build a synthetic sweep T(b) = 100 + 200/b + 50/b^2 and refit.
        let sweep = crate::regions::tests_support::synthetic_sweep(
            &[18.0, 12.0, 8.0, 5.0, 3.0, 2.0],
            |b| (100.0 + 200.0 / b + 50.0 / (b * b)) as u64,
        );
        let m = fit_bandwidth(&sweep).expect("fit");
        assert!(m.r2 > 0.999, "r2 {}", m.r2);
        assert!((m.c0 - 100.0).abs() < 5.0, "c0 {}", m.c0);
        assert!((m.c1 - 200.0).abs() < 20.0, "c1 {}", m.c1);
    }

    #[test]
    fn latency_model_recovers_synthetic_line() {
        let sweep = crate::regions::tests_support::synthetic_sweep(&[30.0, 100.0, 400.0], |l| {
            (5_000.0 + 12.5 * l) as u64
        });
        let m = fit_latency(&sweep).expect("fit");
        assert!(m.r2 > 0.999);
        assert!((m.d1 - 12.5).abs() < 0.1, "slope {}", m.d1);
    }

    #[test]
    fn measured_latency_sweep_is_linear_for_sm_and_flat_for_mp() {
        let cfg = MachineConfig::alewife();
        let sweeps = ctx_switch_plan(
            &em3d(),
            &[Mechanism::SharedMem, Mechanism::MsgPoll],
            &cfg,
            &[50, 100, 200, 400],
        )
        .run(&Runner::from_env());
        let sm = fit_latency(&sweeps[0]).expect("sm fit");
        let mp = fit_latency(&sweeps[1]).expect("mp fit");
        assert!(
            sm.r2 > 0.98,
            "the Figure 2 sm curve is linear: r2 {}",
            sm.r2
        );
        assert!(sm.d1 > 1.0, "sm has unhidden round trips: slope {}", sm.d1);
        assert!(mp.d1.abs() < 0.01, "mp is flat: slope {}", mp.d1);
    }

    #[test]
    fn measured_bandwidth_sweep_fits_and_interpolates() {
        let cfg = MachineConfig::alewife();
        let sweeps = bisection_plan(
            &em3d(),
            &[Mechanism::SharedMem],
            &cfg,
            &[0.0, 6.0, 10.0, 14.0, 16.0],
            64,
        )
        .run(&Runner::from_env());
        let m = fit_bandwidth(&sweeps[0]).expect("fit");
        assert!(
            m.r2 > 0.85,
            "bandwidth model explains the sweep: r2 {}",
            m.r2
        );
        // Interpolate a held-out point (12 consumed = 6 B/cycle emulated).
        let held = bisection_plan(&em3d(), &[Mechanism::SharedMem], &cfg, &[12.0], 64)
            .run(&Runner::from_env());
        let got = held[0].points[0].result.runtime_cycles as f64;
        let pred = m.predict(held[0].points[0].x);
        let err = (pred - got).abs() / got;
        assert!(
            err < 0.10,
            "prediction off by {:.1}% (pred {pred:.0}, got {got:.0})",
            err * 100.0
        );
    }
}
