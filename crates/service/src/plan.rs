//! Resolving a wire-level [`PlanSpec`] into the exact run requests and
//! CSV recipes the `repro` binary would execute directly.
//!
//! The daemon's promise is byte-identical artifacts: a submitted `fig4`
//! plan must yield the same `fig4_em3d.csv` a direct `repro fig4 --csv`
//! run writes. That holds because both paths go through the same suite
//! ([`commsense_apps::suite`]), the same plan builders
//! ([`base_comparison_requests`], [`bisection_plan`], [`ctx_switch_plan`]
//! with the same default axes), and the same renderers
//! ([`report::breakdown_csv`] / [`report::sweep_csv`]) — the service adds
//! scheduling, not policy.

use commsense_apps::{suite, AppSpec};
use commsense_core::engine::{RunOutcome, RunRequest};
use commsense_core::experiment::{bisection_plan, ctx_switch_plan, Sweep, SweepPoint};
use commsense_core::report;
use commsense_machine::{MachineConfig, Mechanism};

use crate::protocol::{Figure, PlanSpec};

/// Figure 8's consumed-bandwidth axis (bytes/cycle), matching `repro fig8`.
pub const FIG8_CONSUMED: [f64; 6] = [0.0, 4.0, 8.0, 12.0, 14.0, 16.0];
/// Figure 8's cross-traffic message size in bytes, matching `repro fig8`.
pub const FIG8_MSG_BYTES: u32 = 64;
/// Figure 10's emulated-latency axis (cycles), matching `repro fig10`.
pub const FIG10_LATENCIES: [u64; 6] = [30, 50, 100, 200, 400, 800];

/// Descriptive metadata for one request, used for progress lines.
#[derive(Debug, Clone)]
pub struct PointMeta {
    /// Application name.
    pub app: &'static str,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// The request's swept x value (its first curve point; 0 for
    /// Figure 4, where nothing is swept).
    pub x: f64,
}

/// How to assemble one CSV artifact from per-request outcomes.
#[derive(Debug, Clone)]
pub enum CsvRecipe {
    /// [`report::breakdown_csv`] over the requests at `indices`, in order
    /// (failed points are skipped, as `repro fig4` skips them).
    Breakdown {
        /// Output file name (`fig4_em3d.csv`).
        name: String,
        /// Application name for the CSV's rows.
        app: &'static str,
        /// Request indices in [`Mechanism::ALL`] order.
        indices: Vec<usize>,
    },
    /// [`report::sweep_csv`] over per-mechanism curves of
    /// `(x, request index)` points (failed points are omitted from their
    /// curve, leaving empty cells, as `repro` does).
    Sweep {
        /// Output file name (`fig8_em3d.csv`).
        name: String,
        /// Application name for the sweeps.
        app: &'static str,
        /// The CSV's x-axis column label.
        x_label: &'static str,
        /// Per-mechanism `(x, request index)` curves, in plan order.
        curves: Vec<(Mechanism, Vec<(f64, usize)>)>,
    },
}

/// A fully resolved job: deduplicatable requests plus everything needed
/// to fold their outcomes back into byte-identical CSV artifacts.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// The figure this plan reproduces.
    pub figure: Figure,
    /// The base machine configuration (always the Alewife base machine,
    /// as `repro` uses without `--check`).
    pub cfg: MachineConfig,
    /// The requests to execute, in plan order.
    pub requests: Vec<RunRequest>,
    /// Per-request metadata, parallel to `requests`.
    pub meta: Vec<PointMeta>,
    /// The CSV artifacts to assemble once all requests complete.
    pub csvs: Vec<CsvRecipe>,
}

/// Resolves a wire-level spec against the suite and plan builders,
/// rejecting unknown names. The result lists every request the job needs;
/// the service machine deduplicates them against runs it already owns.
pub fn resolve(spec: &PlanSpec) -> Result<JobPlan, String> {
    let cfg = MachineConfig::alewife();
    let all = suite(spec.scale);
    let apps: Vec<AppSpec> = if spec.apps.is_empty() {
        all
    } else {
        spec.apps
            .iter()
            .map(|name| {
                all.iter()
                    .find(|s| s.name().eq_ignore_ascii_case(name))
                    .cloned()
                    .ok_or_else(|| format!("unknown app {name:?} (EM3D|UNSTRUC|ICCG|MOLDYN)"))
            })
            .collect::<Result<_, _>>()?
    };
    let mechanisms: Vec<Mechanism> = if spec.mechanisms.is_empty() {
        Mechanism::ALL.to_vec()
    } else {
        // Canonical Mechanism::ALL order regardless of the order submitted,
        // so equal plans resolve to equal request/curve orderings (and the
        // no-filter case matches `repro` exactly).
        let parsed: Vec<Mechanism> = spec
            .mechanisms
            .iter()
            .map(|l| {
                Mechanism::from_label(l).ok_or_else(|| {
                    format!("unknown mechanism {l:?} (sm|sm+pf|mp-int|mp-poll|bulk)")
                })
            })
            .collect::<Result<_, _>>()?;
        Mechanism::ALL
            .iter()
            .copied()
            .filter(|m| parsed.contains(m))
            .collect()
    };
    let mut plan = JobPlan {
        figure: spec.figure,
        cfg: cfg.clone(),
        requests: Vec::new(),
        meta: Vec::new(),
        csvs: Vec::new(),
    };
    for app in &apps {
        let csv_name = |prefix: &str| format!("{prefix}_{}.csv", app.name().to_lowercase());
        match spec.figure {
            Figure::Fig4 => {
                // Mirrors `base_comparison_requests` (restricted to the
                // mechanism filter): one base-machine request per
                // mechanism, in Mechanism::ALL order.
                let mut indices = Vec::with_capacity(mechanisms.len());
                for &mech in &mechanisms {
                    indices.push(plan.requests.len());
                    plan.requests.push(RunRequest {
                        spec: app.clone(),
                        mechanism: mech,
                        cfg: cfg.clone().with_mechanism(mech),
                    });
                    plan.meta.push(PointMeta {
                        app: app.name(),
                        mechanism: mech,
                        x: 0.0,
                    });
                }
                plan.csvs.push(CsvRecipe::Breakdown {
                    name: csv_name("fig4"),
                    app: app.name(),
                    indices,
                });
            }
            Figure::Fig8 | Figure::Fig10 => {
                let (sub, x_label, prefix) = match spec.figure {
                    Figure::Fig8 => (
                        bisection_plan(app, &mechanisms, &cfg, &FIG8_CONSUMED, FIG8_MSG_BYTES),
                        "bytes_per_cycle",
                        "fig8",
                    ),
                    _ => (
                        ctx_switch_plan(app, &mechanisms, &cfg, &FIG10_LATENCIES),
                        "miss_cycles",
                        "fig10",
                    ),
                };
                let base = plan.requests.len();
                let curves: Vec<(Mechanism, Vec<(f64, usize)>)> = sub
                    .curves()
                    .into_iter()
                    .map(|(m, pts)| (m, pts.into_iter().map(|(x, i)| (x, base + i)).collect()))
                    .collect();
                for (i, req) in sub.requests().iter().enumerate() {
                    // The request's x for progress reporting: the first
                    // curve point measured by it (Figure 10 replicates one
                    // message-passing request across the whole axis).
                    let x = curves
                        .iter()
                        .flat_map(|(_, pts)| pts.iter())
                        .find(|(_, idx)| *idx == base + i)
                        .map(|(x, _)| *x)
                        .unwrap_or(0.0);
                    plan.meta.push(PointMeta {
                        app: app.name(),
                        mechanism: req.mechanism,
                        x,
                    });
                }
                plan.requests.extend_from_slice(sub.requests());
                plan.csvs.push(CsvRecipe::Sweep {
                    name: csv_name(prefix),
                    app: app.name(),
                    x_label,
                    curves,
                });
            }
        }
    }
    if plan.requests.is_empty() {
        return Err("plan resolves to no requests".to_string());
    }
    Ok(plan)
}

/// Folds per-request outcomes back into the plan's CSV artifacts,
/// skipping failed points exactly as the direct `repro` path does.
/// `outcomes` is parallel to `plan.requests`; a `None` slot (a point
/// still pending) is treated as failed.
pub fn assemble_csvs(plan: &JobPlan, outcomes: &[Option<RunOutcome>]) -> Vec<(String, String)> {
    let result_at = |i: usize| {
        outcomes
            .get(i)
            .and_then(|o| o.as_ref())
            .and_then(|o| o.result())
    };
    plan.csvs
        .iter()
        .map(|recipe| match recipe {
            CsvRecipe::Breakdown { name, app, indices } => {
                let results: Vec<_> = indices
                    .iter()
                    .filter_map(|&i| result_at(i).cloned())
                    .collect();
                (
                    name.clone(),
                    report::breakdown_csv(app, &results, &plan.cfg),
                )
            }
            CsvRecipe::Sweep {
                name,
                app,
                x_label,
                curves,
            } => {
                let sweeps: Vec<Sweep> = curves
                    .iter()
                    .map(|(mech, pts)| Sweep {
                        app,
                        mechanism: *mech,
                        points: pts
                            .iter()
                            .filter_map(|&(x, i)| {
                                result_at(i).map(|r| SweepPoint {
                                    x,
                                    result: r.clone(),
                                })
                            })
                            .collect(),
                    })
                    .collect();
                (name.clone(), report::sweep_csv(x_label, &sweeps))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_apps::Scale;
    use commsense_core::experiment::base_comparison_requests;
    use commsense_core::store::ResultStore;

    fn spec(figure: Figure, apps: &[&str], mechs: &[&str]) -> PlanSpec {
        PlanSpec {
            figure,
            scale: Scale::Small,
            apps: apps.iter().map(|s| s.to_string()).collect(),
            mechanisms: mechs.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn fig4_matches_base_comparison_requests() {
        let plan = resolve(&spec(Figure::Fig4, &["em3d"], &[])).unwrap();
        let cfg = MachineConfig::alewife();
        let direct = base_comparison_requests(&suite(Scale::Small)[0], &cfg);
        assert_eq!(plan.requests.len(), direct.len());
        for (a, b) in plan.requests.iter().zip(&direct) {
            assert_eq!(
                ResultStore::request_key(a),
                ResultStore::request_key(b),
                "service and direct fig4 requests must hash identically"
            );
        }
    }

    #[test]
    fn fig8_matches_direct_plan() {
        let app = &suite(Scale::Small)[0];
        let cfg = MachineConfig::alewife();
        let direct = bisection_plan(app, &Mechanism::ALL, &cfg, &FIG8_CONSUMED, FIG8_MSG_BYTES);
        let plan = resolve(&spec(Figure::Fig8, &["EM3D"], &[])).unwrap();
        assert_eq!(plan.requests.len(), direct.requests().len());
        for (a, b) in plan.requests.iter().zip(direct.requests()) {
            assert_eq!(ResultStore::request_key(a), ResultStore::request_key(b));
        }
        match &plan.csvs[0] {
            CsvRecipe::Sweep {
                name,
                x_label,
                curves,
                ..
            } => {
                assert_eq!(name, "fig8_em3d.csv");
                assert_eq!(*x_label, "bytes_per_cycle");
                assert_eq!(curves.len(), Mechanism::ALL.len());
            }
            other => panic!("expected sweep recipe, got {other:?}"),
        }
    }

    #[test]
    fn mechanism_filter_is_canonicalized() {
        let a = resolve(&spec(Figure::Fig4, &["EM3D"], &["mp-poll", "sm"])).unwrap();
        let b = resolve(&spec(Figure::Fig4, &["EM3D"], &["sm", "mp-poll"])).unwrap();
        let keys = |p: &JobPlan| {
            p.requests
                .iter()
                .map(ResultStore::request_key)
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(a.meta[0].mechanism, Mechanism::SharedMem);
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(resolve(&spec(Figure::Fig4, &["SPICE"], &[])).is_err());
        assert!(resolve(&spec(Figure::Fig4, &[], &["rdma"])).is_err());
    }
}
