//! The paper's CSV figures, each defined once.
//!
//! Figures 4 and 7–10 are the files `repro all --csv` writes and the
//! sweep daemon serves. For each of them this registry owns everything
//! both paths must agree on for their bytes to match: the axis constants,
//! which suite applications and mechanisms the figure plots, the
//! [`ExperimentPlan`] built from the [`crate::experiment`] builders, and
//! the CSV's file name and rendering. Figure-specific analyses (regions,
//! crossovers, model fits) stay with their callers.
//!
//! # Examples
//!
//! ```
//! use commsense_apps::{suite, Scale};
//! use commsense_core::figures::Figure;
//! use commsense_machine::MachineConfig;
//!
//! let em3d = &suite(Scale::Small)[0];
//! let fig = Figure::Fig10;
//! let plan = fig.plan(em3d, fig.mechanisms(), &MachineConfig::alewife());
//! // 2 shared-memory mechanisms x 6 latencies + 3 flat message-passing runs.
//! assert_eq!(plan.len(), 15);
//! assert_eq!(fig.csv_name(em3d.name()), "fig10_em3d.csv");
//! ```

use commsense_apps::{suite, AppSpec, RunResult, Scale};
use commsense_machine::{MachineConfig, Mechanism};

use crate::engine::ExperimentPlan;
use crate::experiment::{
    base_comparison_requests, bisection_plan, clock_plan, ctx_switch_plan, msg_len_plan, Sweep,
};
use crate::report;

/// Figure 7's cross-traffic message lengths (bytes).
pub const FIG7_MSG_BYTES: [u32; 6] = [16, 32, 64, 128, 256, 512];
/// Figure 7's fixed bisection consumption (bytes/cycle): 8 of the base
/// machine's 18 bytes/cycle remain.
pub const FIG7_CONSUMED: f64 = 10.0;
/// Figure 8's consumed-bandwidth axis (bytes/cycle).
pub const FIG8_CONSUMED: [f64; 6] = [0.0, 4.0, 8.0, 12.0, 14.0, 16.0];
/// Figure 8's cross-traffic message size (bytes).
pub const FIG8_MSG_BYTES: u32 = 64;
/// Figure 9's processor clock axis (MHz).
pub const FIG9_MHZ: [f64; 4] = [20.0, 18.0, 16.0, 14.0];
/// Figure 10's emulated remote-miss latency axis (cycles).
pub const FIG10_LATENCIES: [u64; 6] = [30, 50, 100, 200, 400, 800];

/// One of the paper's CSV figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Figure {
    /// Figure 4: per-application mechanism breakdown on the base machine.
    Fig4,
    /// Figure 7: EM3D runtime vs cross-traffic message length.
    Fig7,
    /// Figure 8: execution time vs emulated bisection bandwidth.
    Fig8,
    /// Figure 9: execution time vs relative latency (clock scaling).
    Fig9,
    /// Figure 10: latency emulation via context switching.
    Fig10,
}

impl Figure {
    /// Every CSV figure, in the order `repro all` writes them.
    pub const ALL: [Figure; 5] = [
        Figure::Fig4,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Fig10,
    ];

    /// The figure's label (`fig4`, `fig7`, ...): its `repro` command and
    /// its name on the wire.
    pub fn label(self) -> &'static str {
        match self {
            Figure::Fig4 => "fig4",
            Figure::Fig7 => "fig7",
            Figure::Fig8 => "fig8",
            Figure::Fig9 => "fig9",
            Figure::Fig10 => "fig10",
        }
    }

    /// Inverse of [`Figure::label`].
    pub fn from_label(label: &str) -> Option<Figure> {
        Figure::ALL.into_iter().find(|f| f.label() == label)
    }

    /// Every label joined with `|`, for error messages.
    pub fn choices() -> String {
        Figure::ALL.map(Figure::label).join("|")
    }

    /// The suite applications the figure plots, in suite order: EM3D
    /// alone for Figure 7, the whole suite otherwise.
    pub fn apps(self, scale: Scale) -> Vec<AppSpec> {
        let mut apps = suite(scale);
        if self == Figure::Fig7 {
            apps.retain(|a| a.name() == "EM3D");
        }
        apps
    }

    /// The mechanisms the figure plots, in [`Mechanism::ALL`] order.
    pub fn mechanisms(self) -> &'static [Mechanism] {
        match self {
            Figure::Fig7 => &[Mechanism::SharedMem, Mechanism::MsgPoll],
            _ => &Mechanism::ALL,
        }
    }

    /// The figure's plan for `app` under `mechanisms` on `cfg`. Figure 4
    /// is a plan too: one base-machine request per mechanism, plotted at
    /// `x = 0`.
    pub fn plan(
        self,
        app: &AppSpec,
        mechanisms: &[Mechanism],
        cfg: &MachineConfig,
    ) -> ExperimentPlan {
        match self {
            Figure::Fig4 => {
                let mut plan = ExperimentPlan::new(app.name());
                for req in base_comparison_requests(app, cfg) {
                    if mechanisms.contains(&req.mechanism) {
                        let mech = req.mechanism;
                        let i = plan.add_request(req);
                        plan.add_point(mech, 0.0, i);
                    }
                }
                plan
            }
            Figure::Fig7 => msg_len_plan(app, mechanisms, cfg, FIG7_CONSUMED, &FIG7_MSG_BYTES),
            Figure::Fig8 => bisection_plan(app, mechanisms, cfg, &FIG8_CONSUMED, FIG8_MSG_BYTES),
            Figure::Fig9 => clock_plan(app, mechanisms, cfg, &FIG9_MHZ),
            Figure::Fig10 => ctx_switch_plan(app, mechanisms, cfg, &FIG10_LATENCIES),
        }
    }

    /// The CSV file name for `app` (`fig8_em3d.csv`; `fig7.csv` for the
    /// single-application Figure 7).
    pub fn csv_name(self, app: &str) -> String {
        match self {
            Figure::Fig7 => "fig7.csv".to_string(),
            _ => format!("{}_{}.csv", self.label(), app.to_lowercase()),
        }
    }

    /// Renders the CSV for `app` from the sweeps of the figure's plan
    /// (failed points already dropped): [`report::breakdown_csv`] for
    /// Figure 4, [`report::sweep_csv`] under the figure's x label otherwise.
    pub fn render(self, app: &str, sweeps: &[Sweep], cfg: &MachineConfig) -> String {
        let x_label = match self {
            Figure::Fig4 => {
                let results: Vec<&RunResult> = sweeps
                    .iter()
                    .flat_map(|s| &s.points)
                    .map(|p| &p.result)
                    .collect();
                return report::breakdown_csv(app, &results, cfg);
            }
            Figure::Fig7 => "msg_bytes",
            Figure::Fig8 => "bytes_per_cycle",
            Figure::Fig9 => "latency_cycles",
            Figure::Fig10 => "miss_cycles",
        };
        report::sweep_csv(x_label, sweeps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ResultStore;

    #[test]
    fn labels_round_trip() {
        for fig in Figure::ALL {
            assert_eq!(Figure::from_label(fig.label()), Some(fig));
        }
        assert_eq!(Figure::from_label("fig6"), None);
        assert_eq!(Figure::choices(), "fig4|fig7|fig8|fig9|fig10");
    }

    #[test]
    fn csv_names_are_the_seventeen_repro_files() {
        let names: Vec<String> = Figure::ALL
            .iter()
            .flat_map(|&fig| {
                fig.apps(Scale::Small)
                    .into_iter()
                    .map(move |app| fig.csv_name(app.name()))
            })
            .collect();
        let want = [
            "fig4_em3d.csv",
            "fig4_unstruc.csv",
            "fig4_iccg.csv",
            "fig4_moldyn.csv",
            "fig7.csv",
            "fig8_em3d.csv",
            "fig8_unstruc.csv",
            "fig8_iccg.csv",
            "fig8_moldyn.csv",
            "fig9_em3d.csv",
            "fig9_unstruc.csv",
            "fig9_iccg.csv",
            "fig9_moldyn.csv",
            "fig10_em3d.csv",
            "fig10_unstruc.csv",
            "fig10_iccg.csv",
            "fig10_moldyn.csv",
        ];
        assert_eq!(names, want);
    }

    #[test]
    fn fig4_plan_is_the_base_comparison() {
        let app = &suite(Scale::Small)[0];
        let cfg = MachineConfig::alewife();
        let plan = Figure::Fig4.plan(app, &Mechanism::ALL, &cfg);
        let direct = base_comparison_requests(app, &cfg);
        assert_eq!(plan.len(), direct.len());
        for (a, b) in plan.requests().iter().zip(&direct) {
            assert_eq!(ResultStore::request_key(a), ResultStore::request_key(b));
        }
        let curves = plan.curves();
        assert_eq!(curves.len(), Mechanism::ALL.len());
        for (i, (mech, points)) in curves.iter().enumerate() {
            assert_eq!(*mech, Mechanism::ALL[i]);
            assert_eq!(points, &[(0.0, i)]);
        }
    }
}
