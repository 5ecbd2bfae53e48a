//! Resolving a wire-level [`PlanSpec`] into the exact run requests and
//! CSVs the `repro` binary would produce directly.
//!
//! The daemon's promise is byte-identical artifacts: a submitted `fig8`
//! plan must yield the same `fig8_em3d.csv` a direct `repro fig8 --csv`
//! run writes. That holds because both paths take each figure's apps,
//! mechanisms, plan, CSV name and rendering from the one registry in
//! [`commsense_core::figures`] — the service adds scheduling, not policy.
//! `repro`'s figure commands resolve and fold through this module too.

use commsense_apps::AppSpec;
use commsense_core::engine::{ExperimentPlan, PlanRun, RunOutcome, RunRequest};
use commsense_machine::{MachineConfig, Mechanism};

use crate::protocol::PlanSpec;

/// A fully resolved job: deduplicatable requests plus everything needed
/// to fold their outcomes back into byte-identical CSV artifacts.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// The submitted spec in [`canonical`] form.
    pub spec: PlanSpec,
    /// The base machine configuration: the Alewife base machine for the
    /// daemon, with the correctness harness on under `repro --check`.
    pub cfg: MachineConfig,
    /// The requests to execute: each app's figure plan in turn.
    pub requests: Vec<RunRequest>,
    /// Each request's x for progress lines, parallel to `requests`: the
    /// first curve point it measures (Figure 10 replicates one
    /// message-passing request across the whole axis).
    pub xs: Vec<f64>,
    /// One `(app, figure plan)` per app, in request order.
    pub plans: Vec<(&'static str, ExperimentPlan)>,
}

/// `spec` with its names validated and put in canonical form: apps as the
/// suite spells them, in suite order and without repeats; mechanism
/// labels in [`Mechanism::ALL`] order; an empty list expanded to all the
/// figure plots. Specs asking for the same plan have equal canonical
/// forms, so a memo keyed on them is bounded by the suite.
pub fn canonical(spec: &PlanSpec) -> Result<PlanSpec, String> {
    let fig = spec.figure;
    let apps = fig.apps(spec.scale);
    let mechs = fig.mechanisms();
    if let Some(name) = spec
        .apps
        .iter()
        .find(|n| !apps.iter().any(|a| a.name().eq_ignore_ascii_case(n)))
    {
        let known: Vec<&str> = apps.iter().map(AppSpec::name).collect();
        return Err(format!(
            "unknown app {name:?} for {} ({})",
            fig.label(),
            known.join("|")
        ));
    }
    let mut wanted = Vec::new();
    for label in &spec.mechanisms {
        match Mechanism::from_label(label).filter(|m| mechs.contains(m)) {
            Some(m) => wanted.push(m),
            None => {
                let known: Vec<&str> = mechs.iter().map(|m| m.label()).collect();
                return Err(format!(
                    "unknown mechanism {label:?} for {} ({})",
                    fig.label(),
                    known.join("|")
                ));
            }
        }
    }
    Ok(PlanSpec {
        figure: fig,
        scale: spec.scale,
        apps: apps
            .iter()
            .map(AppSpec::name)
            .filter(|n| spec.apps.is_empty() || spec.apps.iter().any(|a| a.eq_ignore_ascii_case(n)))
            .map(str::to_string)
            .collect(),
        mechanisms: mechs
            .iter()
            .filter(|m| wanted.is_empty() || wanted.contains(m))
            .map(|m| m.label().to_string())
            .collect(),
    })
}

/// Resolves a wire-level spec: validates and canonicalizes its names,
/// then concatenates the figure's plan for each app. The result lists
/// every request the job needs; the service machine deduplicates them
/// against runs it already owns.
pub fn resolve(spec: &PlanSpec) -> Result<JobPlan, String> {
    resolve_on(spec, MachineConfig::alewife())
}

/// [`resolve`] on the base machine `cfg` instead of the Alewife default.
pub fn resolve_on(spec: &PlanSpec, cfg: MachineConfig) -> Result<JobPlan, String> {
    let spec = canonical(spec)?;
    let fig = spec.figure;
    let mechanisms: Vec<Mechanism> = spec
        .mechanisms
        .iter()
        .filter_map(|l| Mechanism::from_label(l))
        .collect();
    let mut job = JobPlan {
        cfg,
        requests: Vec::new(),
        xs: Vec::new(),
        plans: Vec::new(),
        spec,
    };
    for app in fig.apps(job.spec.scale) {
        if !job.spec.apps.iter().any(|n| n == app.name()) {
            continue;
        }
        let plan = fig.plan(&app, &mechanisms, &job.cfg);
        let base = job.requests.len();
        job.xs.resize(base + plan.len(), f64::NAN);
        for (_, points) in plan.curves() {
            for (x, i) in points {
                if job.xs[base + i].is_nan() {
                    job.xs[base + i] = x;
                }
            }
        }
        job.requests.extend_from_slice(plan.requests());
        job.plans.push((app.name(), plan));
    }
    Ok(job)
}

impl JobPlan {
    /// Folds a finished job's outcomes (parallel to `requests`) into one
    /// fault-tolerant [`PlanRun`] per app, in app order: failed points are
    /// dropped from their curves and listed separately.
    pub fn fold<'a>(
        &'a self,
        outcomes: &'a [RunOutcome],
    ) -> impl Iterator<Item = (&'static str, PlanRun)> + 'a {
        let mut rest = outcomes;
        self.plans.iter().map(move |(app, p)| {
            let (mine, tail) = rest.split_at(p.len());
            rest = tail;
            (*app, p.assemble_outcomes(mine))
        })
    }

    /// The CSV artifact `(file name, contents)` of one app's folded run.
    pub fn csv(&self, app: &str, run: &PlanRun) -> (String, String) {
        let fig = self.spec.figure;
        (fig.csv_name(app), fig.render(app, &run.sweeps, &self.cfg))
    }
}

/// Folds a finished job's outcomes (parallel to `plan.requests`) into its
/// CSV artifacts, dropping failed points exactly as the direct `repro`
/// path does.
pub fn assemble_csvs(plan: &JobPlan, outcomes: &[RunOutcome]) -> Vec<(String, String)> {
    plan.fold(outcomes)
        .map(|(app, run)| plan.csv(app, &run))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_apps::{suite, Scale};
    use commsense_core::experiment::{base_comparison_requests, bisection_plan};
    use commsense_core::store::ResultStore;

    use crate::protocol::Figure;

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
        assert_eq!(plan.xs, vec![0.0; direct.len()]);
    }

    #[test]
    fn fig8_matches_direct_plan() {
        let app = &suite(Scale::Small)[0];
        let cfg = MachineConfig::alewife();
        let consumed = [0.0, 4.0, 8.0, 12.0, 14.0, 16.0];
        let direct = bisection_plan(app, &Mechanism::ALL, &cfg, &consumed, 64);
        let plan = resolve(&spec(Figure::Fig8, &["EM3D"], &[])).unwrap();
        assert_eq!(plan.requests.len(), direct.requests().len());
        for (a, b) in plan.requests.iter().zip(direct.requests()) {
            assert_eq!(ResultStore::request_key(a), ResultStore::request_key(b));
        }
        assert_eq!(plan.plans.len(), 1);
        assert_eq!(plan.plans[0].0, "EM3D");
        assert_eq!(plan.plans[0].1.curves(), direct.curves());
        let base = cfg.net.bisection_bytes_per_cycle(cfg.clock());
        let first: Vec<f64> = consumed.iter().map(|c| base - c).collect();
        assert_eq!(plan.xs[..consumed.len()], first[..]);
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
        assert_eq!(a.requests[0].mechanism, Mechanism::SharedMem);
    }

    #[test]
    fn canonical_form_expands_orders_and_dedups() {
        let full = canonical(&spec(Figure::Fig8, &[], &[])).unwrap();
        assert_eq!(full.apps, ["EM3D", "UNSTRUC", "ICCG", "MOLDYN"]);
        assert_eq!(
            full.mechanisms,
            ["sm", "sm+pf", "mp-int", "mp-poll", "bulk"]
        );
        let messy = spec(
            Figure::Fig8,
            &["moldyn", "Em3d", "EM3D", "iccg", "unstruc"],
            &["bulk", "sm", "mp-poll", "sm+pf", "mp-int", "sm"],
        );
        assert_eq!(canonical(&messy).unwrap(), full);
        assert_eq!(canonical(&full).unwrap(), full);
    }

    #[test]
    fn fig7_plots_em3d_under_sm_and_mp_poll() {
        let plan = resolve(&spec(Figure::Fig7, &[], &[])).unwrap();
        assert_eq!(plan.spec.apps, ["EM3D"]);
        assert_eq!(plan.spec.mechanisms, ["sm", "mp-poll"]);
        assert_eq!(plan.requests.len(), 12);
        assert!(resolve(&spec(Figure::Fig7, &["ICCG"], &[])).is_err());
        assert!(resolve(&spec(Figure::Fig7, &[], &["bulk"])).is_err());
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(resolve(&spec(Figure::Fig4, &["SPICE"], &[])).is_err());
        assert!(resolve(&spec(Figure::Fig4, &[], &["rdma"])).is_err());
    }
}
