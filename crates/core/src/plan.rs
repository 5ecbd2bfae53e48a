//! Resolving a [`PlanSpec`] — a figure, a scale and apps and mechanisms
//! by name — into the exact run requests and CSVs of that figure.
//!
//! `repro`'s figure commands and the sweep daemon both plan through this
//! module, and a submitted `fig8` plan yields the same `fig8_em3d.csv` a
//! direct `repro fig8 --csv` run writes: both take each figure's apps,
//! mechanisms, plan, CSV name and rendering from the one registry in
//! [`crate::figures`].

use commsense_apps::{AppSpec, Scale};
use commsense_machine::{MachineConfig, Mechanism};

use crate::engine::{ExperimentPlan, PlanRun, RunOutcome, RunRequest};
use crate::figures::Figure;

/// A sweep-plan specification: everything is a name, resolved (and
/// validated) by [`resolve`] against the suite and the figure registry.
/// It is also what a client sends the sweep daemon.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanSpec {
    /// Which figure's plan to run.
    pub figure: Figure,
    /// Workload sizing.
    pub scale: Scale,
    /// Application names (`EM3D`, `UNSTRUC`, `ICCG`, `MOLDYN`,
    /// case-insensitive); empty means every app the figure plots.
    pub apps: Vec<String>,
    /// Mechanism labels (`sm`, `sm+pf`, `mp-int`, `mp-poll`, `bulk`);
    /// empty means every mechanism the figure plots.
    pub mechanisms: Vec<String>,
}

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
    let apps: Vec<&str> = fig.apps(spec.scale).iter().map(AppSpec::name).collect();
    let mechs: Vec<&str> = fig.mechanisms().iter().map(|m| m.label()).collect();
    // The `known` names that `wanted` asks for (all of them when it is
    // empty), in `known` order, or the first unknown wanted name.
    let pick = |kind, known: &[&str], wanted: &[String], same: fn(&str, &str) -> bool| {
        if let Some(name) = wanted.iter().find(|w| !known.iter().any(|k| same(k, w))) {
            let (fig, known) = (fig.label(), known.join("|"));
            return Err(format!("unknown {kind} {name:?} for {fig} ({known})"));
        }
        let asked = |k: &&str| wanted.is_empty() || wanted.iter().any(|w| same(k, w));
        let names = known.iter().copied().filter(asked);
        Ok(names.map(str::to_string).collect())
    };
    Ok(PlanSpec {
        figure: fig,
        scale: spec.scale,
        apps: pick("app", &apps, &spec.apps, |k, w| k.eq_ignore_ascii_case(w))?,
        mechanisms: pick("mechanism", &mechs, &spec.mechanisms, |k, w| k == w)?,
    })
}

/// Resolves a spec: validates and canonicalizes its names, then
/// concatenates the figure's plan for each app. The result lists every
/// request the job needs, repeats included; the caller runs each
/// distinct one once.
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

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_apps::suite;

    use crate::experiment::{base_comparison_requests, bisection_plan};
    use crate::store::ResultStore;

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
                "planned and direct fig4 requests must hash identically"
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
        let err = |s: PlanSpec| resolve(&s).map(|_| ()).unwrap_err();
        assert_eq!(
            err(spec(Figure::Fig4, &["SPICE"], &[])),
            r#"unknown app "SPICE" for fig4 (EM3D|UNSTRUC|ICCG|MOLDYN)"#
        );
        assert_eq!(
            err(spec(Figure::Fig4, &[], &["rdma"])),
            r#"unknown mechanism "rdma" for fig4 (sm|sm+pf|mp-int|mp-poll|bulk)"#
        );
        // Apps are checked first; app names ignore case, mechanism labels do not.
        assert!(err(spec(Figure::Fig7, &["MOLDYN"], &["SM"])).starts_with("unknown app"));
        assert!(err(spec(Figure::Fig7, &["em3d"], &["SM"])).starts_with("unknown mechanism"));
    }
}
