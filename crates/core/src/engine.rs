//! The experiment engine: plans, a parallel runner, and a prepared-workload
//! cache.
//!
//! The paper's experiments are embarrassingly parallel: every measured
//! point is a pure function of `(workload, mechanism, machine config)`.
//! This module splits experiment execution into three pieces that exploit
//! that:
//!
//! * [`ExperimentPlan`] — a pure description of an experiment: an indexed
//!   list of [`RunRequest`]s plus the mapping from request indices back to
//!   per-mechanism curves. Built by the plan builders in
//!   [`crate::experiment`]; contains no execution policy.
//! * [`Runner`] — executes a request list on a scoped thread pool,
//!   collecting results keyed by request index so the output is
//!   *bit-identical* to serial execution regardless of job count. A
//!   runner may carry a persistent [`ResultStore`] (read-through /
//!   write-through) and retries a failed run a bounded number of times,
//!   so one poisoned point yields a reported-failed [`RunOutcome`] and a
//!   completed sweep instead of a dead process. A failed run is the
//!   [`SimError`](commsense_machine::SimError) the machine returns;
//!   `catch_unwind` remains only as the last resort for any other panic.
//! * [`WorkloadCache`] — memoizes [`AppSpec::prepare`] per
//!   `(spec, nprocs)`, so a sweep generates each graph/system and
//!   sequential reference once and shares it (via `Arc`) across every
//!   point and mechanism. Only a request that simulates asks for its
//!   workload: a store hit prepares nothing.
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
//! let plan = bisection_plan(
//!     &AppSpec::Em3d(p),
//!     &[Mechanism::MsgPoll],
//!     &MachineConfig::alewife(),
//!     &[0.0, 12.0],
//!     64,
//! );
//! assert_eq!(plan.requests().len(), 2);
//! let sweeps = plan.run(&Runner::serial());
//! assert_eq!(sweeps[0].points.len(), 2);
//! ```

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use commsense_apps::{run_prepared, try_run_prepared, AppSpec, PreparedWorkload, RunResult};
use commsense_machine::{panic_message, CheckConfig, MachineConfig, Mechanism, ObserveConfig};

use crate::experiment::{Sweep, SweepPoint};
use crate::store::ResultStore;

/// One fully specified simulation: which workload, which mechanism, which
/// machine. Requests are pure data — executing one has no effect on any
/// other, which is what lets the [`Runner`] reorder them freely.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// The application workload.
    pub spec: AppSpec,
    /// The communication mechanism.
    pub mechanism: Mechanism,
    /// The machine configuration (already specialized for the point being
    /// measured; the runner applies it as-is).
    pub cfg: MachineConfig,
}

/// Which requests are the same run, for [`Runner::run_groups`] and the
/// sweep daemon's in-flight table: the store key, plus the `check` and
/// `observe` settings the key leaves out (they never change cycles, but a
/// checked or observed run must still happen, not merge into a plain one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// The request's [`ResultStore::request_key`].
    pub store: u128,
    check: Option<CheckConfig>,
    observe: Option<ObserveConfig>,
}

impl RunKey {
    /// `req`'s run key. It hashes the request, so compute it once and
    /// hand [`RunKey::store`] down to [`Runner::run_one`].
    pub fn of(req: &RunRequest) -> RunKey {
        RunKey {
            store: ResultStore::request_key(req),
            check: req.cfg.check,
            observe: req.cfg.observe,
        }
    }
}

/// Memoizes workload preparation per `(spec, nprocs)`.
///
/// `AppSpec` contains floating-point parameters and therefore implements
/// only `PartialEq`, so the cache is a linear scan over its entries; the
/// entry count is tiny (one per distinct workload in an experiment) while
/// each entry saves a graph generation plus a sequential reference solve.
#[derive(Debug, Default)]
pub struct WorkloadCache {
    entries: Vec<(AppSpec, usize, PreparedWorkload)>,
}

impl WorkloadCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The prepared workload for `(spec, nprocs)`, preparing it on first
    /// use. The returned value is an `Arc`-backed cheap clone of the
    /// cached entry.
    pub fn get(&mut self, spec: &AppSpec, nprocs: usize) -> PreparedWorkload {
        if let Some((_, _, w)) = self
            .entries
            .iter()
            .find(|(s, n, _)| *n == nprocs && s == spec)
        {
            return w.clone();
        }
        let w = spec.prepare(nprocs);
        self.entries.push((spec.clone(), nprocs, w.clone()));
        w
    }

    /// Number of distinct workloads prepared so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// How one request ended: a result (simulated or replayed from the
/// store), or a failure that exhausted its retries.
// The variants are deliberately unboxed: outcome vectors are short-lived
// (one slot per request, immediately folded into sweeps) and the `Done`
// payload is moved out by value in `Runner::run`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The request produced a result.
    Done {
        /// The run's result.
        result: RunResult,
        /// Whether it was replayed from the store rather than simulated.
        cached: bool,
    },
    /// Every attempt panicked (or the request was already quarantined).
    Failed {
        /// Simulation attempts made this invocation (0 when the request
        /// was skipped because the store had it quarantined).
        attempts: usize,
        /// The panic message of the last attempt (or the quarantine note).
        message: String,
    },
}

impl RunOutcome {
    /// The result, if the request succeeded.
    pub fn result(&self) -> Option<&RunResult> {
        match self {
            RunOutcome::Done { result, .. } => Some(result),
            RunOutcome::Failed { .. } => None,
        }
    }

    /// Whether the result came from the store.
    pub fn is_cached(&self) -> bool {
        matches!(self, RunOutcome::Done { cached: true, .. })
    }
}

/// Executes [`RunRequest`]s, optionally in parallel.
///
/// Results are keyed by request index, and each simulation is a pure
/// function of its request, so the output vector is bit-identical whatever
/// the job count: `Runner::new(8).run(reqs) == Runner::serial().run(reqs)`.
/// The same holds with a [`ResultStore`] attached: a replayed record is
/// the bit-identical serialization of what the simulation would produce.
#[derive(Debug, Clone)]
pub struct Runner {
    jobs: usize,
    store: Option<Arc<ResultStore>>,
    retries: usize,
}

impl Runner {
    /// A runner with a fixed worker count (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            store: None,
            retries: 1,
        }
    }

    /// A single-threaded runner.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// A runner sized from the environment: `COMMSENSE_JOBS` if set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        let jobs = std::env::var("COMMSENSE_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Runner::new(jobs)
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Attaches a persistent result store (builder style): requests are
    /// looked up before simulating and written through after.
    pub fn with_store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets how many times a panicking run is retried before being
    /// reported failed (builder style; default 1, i.e. two attempts).
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<ResultStore>> {
        self.store.as_ref()
    }

    /// Runs every request, sharing workload preparations through a private
    /// cache. Results are in request order.
    ///
    /// # Panics
    ///
    /// Re-raises a request's panic if it fails every retry: this is the
    /// all-or-nothing interface. Use [`Runner::run_outcomes`] (or
    /// [`ExperimentPlan::run_reported`]) to complete a sweep around
    /// failed points instead.
    pub fn run(&self, requests: &[RunRequest]) -> Vec<RunResult> {
        self.run_outcomes(requests, &mut WorkloadCache::new())
            .into_iter()
            .map(|o| match o {
                RunOutcome::Done { result, .. } => result,
                RunOutcome::Failed { message, .. } => panic!("{message}"),
            })
            .collect()
    }

    /// Runs every request, reporting per-request outcomes instead of
    /// panicking: a failed run (a returned `SimError`, or as a last
    /// resort a caught panic) is retried [`Runner::with_retries`] times,
    /// and a request that
    /// fails every attempt yields [`RunOutcome::Failed`] while the rest of
    /// the list completes. With a store attached, results are read through
    /// (hits skip simulation) and written through, and exhausted failures
    /// are quarantined so warm re-runs fail them fast.
    ///
    /// A request takes its workload from `cache` only when it simulates,
    /// so a store hit prepares nothing. Outcomes are in request order and
    /// identical for any job count. Repeated requests all run, and each
    /// worker hashes its own request's store key.
    pub fn run_outcomes(
        &self,
        requests: &[RunRequest],
        cache: &mut WorkloadCache,
    ) -> Vec<RunOutcome> {
        self.run_each(requests, cache, |r| (r, ResultStore::request_key(r)))
    }

    /// Runs every group's requests fault-tolerantly as one batch, each
    /// distinct run (by [`RunKey`], hashed once here) once, and returns
    /// each group's outcomes, parallel to its requests: the same outcomes
    /// [`Runner::run_outcomes`] gives each group on its own.
    pub fn run_groups<'a, G>(
        &self,
        groups: impl IntoIterator<Item = G>,
        cache: &mut WorkloadCache,
    ) -> Vec<Vec<RunOutcome>>
    where
        G: IntoIterator<Item = &'a RunRequest>,
    {
        let (unique, index) = distinct_runs(groups);
        let outcomes = self.run_each(&unique, cache, |&(r, key)| (r, key));
        let copy = |group: Vec<usize>| group.into_iter().map(|i| outcomes[i].clone()).collect();
        index.into_iter().map(copy).collect()
    }

    /// Runs the request and store key `run` gives each item through
    /// [`Runner::run_one`] on the runner's workers, sharing `cache` behind
    /// a lock, and returns the outcomes in item order.
    fn run_each<T: Sync>(
        &self,
        items: &[T],
        cache: &mut WorkloadCache,
        run: impl Fn(&T) -> (&RunRequest, u128) + Sync,
    ) -> Vec<RunOutcome> {
        let shared = Mutex::new(std::mem::take(cache));
        let one = |item| {
            let (req, key) = run(item);
            self.run_one(req, key, &shared)
        };
        let jobs = self.jobs.min(items.len());
        let outcomes = if jobs <= 1 {
            items.iter().map(one).collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<RunOutcome>>> =
                items.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..jobs {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let outcome = one(&items[i]);
                        *slots[i].lock().expect("outcome slot poisoned") = Some(outcome);
                    });
                }
            });
            slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .expect("outcome slot poisoned")
                        .expect("request ran")
                })
                .collect()
        };
        *cache = shared.into_inner().expect("workload cache poisoned");
        outcomes
    }

    /// Executes one request with the runner's full policy: store
    /// read-through, bounded-retry failure isolation, write-through,
    /// quarantine on exhaustion, under `key`, the request's
    /// [`ResultStore::request_key`] as its caller computed it. The
    /// request's workload is taken from `cache` (preparing it on first
    /// use, under the lock) only when it simulates: on a store miss, or
    /// for a checked or observed run. The batch interfaces run every
    /// request through here, and so does the sweep service's worker pool,
    /// which schedules requests one at a time and shares one cache across
    /// its workers.
    pub fn run_one(&self, req: &RunRequest, key: u128, cache: &Mutex<WorkloadCache>) -> RunOutcome {
        let prepare = || {
            cache
                .lock()
                .expect("workload cache poisoned")
                .get(&req.spec, req.cfg.nodes)
        };
        // Check-enabled runs bypass both the store and the retries: the
        // whole point of a checked run is to fail loudly, so a failure is
        // raised as its CHECK-FAIL line, not retried or replayed.
        if req.cfg.check.is_some() {
            return RunOutcome::Done {
                result: run_prepared(&prepare(), req.mechanism, &req.cfg),
                cached: false,
            };
        }
        // Observed runs bypass the store only: a cached record carries no
        // observation, so replaying one would silently drop the recording
        // the caller asked for.
        let store = self
            .store
            .as_deref()
            .filter(|_| req.cfg.observe.is_none())
            .map(|s| (s, key));
        if let Some((store, key)) = store {
            if let Some(message) = store.quarantined_keyed(key) {
                return RunOutcome::Failed {
                    attempts: 0,
                    message,
                };
            }
            if let Some(result) = store.load_keyed(key, req) {
                return RunOutcome::Done {
                    result,
                    cached: true,
                };
            }
        }
        let w = prepare();
        let attempts = self.retries + 1;
        let mut message = String::new();
        for _ in 0..attempts {
            let run = catch_unwind(AssertUnwindSafe(|| {
                try_run_prepared(&w, req.mechanism, &req.cfg).map_err(|e| e.to_string())
            }))
            .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
            match run {
                Ok(result) => {
                    if let Some((store, key)) = store {
                        if let Err(e) = store.save_keyed(key, req, &result) {
                            eprintln!("warning: store write failed: {e}");
                        }
                    }
                    return RunOutcome::Done {
                        result,
                        cached: false,
                    };
                }
                Err(m) => message = m,
            }
        }
        if let Some((store, key)) = store {
            store.quarantine_keyed(key, &message);
        }
        RunOutcome::Failed { attempts, message }
    }
}

/// The distinct runs of `groups` (by [`RunKey`]), each with its store
/// key, and each group's requests as indices into them.
fn distinct_runs<'a, G>(
    groups: impl IntoIterator<Item = G>,
) -> (Vec<(&'a RunRequest, u128)>, Vec<Vec<usize>>)
where
    G: IntoIterator<Item = &'a RunRequest>,
{
    let mut slots = HashMap::new();
    let mut unique = Vec::new();
    let index = groups
        .into_iter()
        .map(|group| {
            let slot = |req: &'a RunRequest| {
                let key = RunKey::of(req);
                *slots.entry(key).or_insert_with(|| {
                    unique.push((req, key.store));
                    unique.len() - 1
                })
            };
            group.into_iter().map(slot).collect()
        })
        .collect();
    (unique, index)
}

/// A point of one mechanism's curve: its x value and which request index
/// produces its measurement. Several points may reference the same request
/// (Figure 10 replicates each message-passing run flat across the x axis).
#[derive(Debug, Clone, Copy)]
struct PointRef {
    x: f64,
    request: usize,
}

/// A pure description of an experiment: the requests to execute, plus how
/// to fold their results back into per-mechanism [`Sweep`]s.
///
/// The assembly order is fixed by the plan, not by execution order, so the
/// resulting sweeps are deterministic and identical between serial and
/// parallel runs.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    app: &'static str,
    requests: Vec<RunRequest>,
    curves: Vec<(Mechanism, Vec<PointRef>)>,
}

impl ExperimentPlan {
    /// An empty plan for `app`.
    pub fn new(app: &'static str) -> Self {
        ExperimentPlan {
            app,
            requests: Vec::new(),
            curves: Vec::new(),
        }
    }

    /// Adds a request and returns its index (to pass to [`Self::add_point`]).
    pub fn add_request(&mut self, request: RunRequest) -> usize {
        self.requests.push(request);
        self.requests.len() - 1
    }

    /// Appends a point at `x` to `mechanism`'s curve, measured by the
    /// request at `request` (an index returned by [`Self::add_request`]).
    ///
    /// # Panics
    ///
    /// Panics if `request` is out of range.
    pub fn add_point(&mut self, mechanism: Mechanism, x: f64, request: usize) {
        assert!(
            request < self.requests.len(),
            "point references unknown request {request}"
        );
        match self.curves.iter_mut().find(|(m, _)| *m == mechanism) {
            Some((_, points)) => points.push(PointRef { x, request }),
            None => self.curves.push((mechanism, vec![PointRef { x, request }])),
        }
    }

    /// The application the plan measures.
    pub fn app(&self) -> &'static str {
        self.app
    }

    /// The requests, in index order.
    pub fn requests(&self) -> &[RunRequest] {
        &self.requests
    }

    /// The plan's curve structure: per mechanism (in first-added order),
    /// the `(x, request index)` pairs of its points. This is the recipe
    /// external executors (the sweep service) need to fold per-request
    /// outcomes back into [`Sweep`]s without re-deriving the plan.
    pub fn curves(&self) -> Vec<(Mechanism, Vec<(f64, usize)>)> {
        self.curves
            .iter()
            .map(|(m, points)| (*m, points.iter().map(|p| (p.x, p.request)).collect()))
            .collect()
    }

    /// Whether the plan contains no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Executes the plan on `runner`, sharing preparations through `cache`,
    /// and returns its per-mechanism sweeps, in the order mechanisms were
    /// first added.
    ///
    /// # Panics
    ///
    /// Re-raises the failure of the first point whose request failed
    /// every retry. Use [`ExperimentPlan::run_reported`] to complete the
    /// sweeps around failed points instead.
    pub fn run_with(&self, runner: &Runner, cache: &mut WorkloadCache) -> Vec<Sweep> {
        let run = self.run_reported(runner, cache);
        if let Some(failed) = run.failed.first() {
            panic!("{}", failed.message);
        }
        run.sweeps
    }

    /// Executes the plan on `runner` with a private workload cache.
    pub fn run(&self, runner: &Runner) -> Vec<Sweep> {
        self.run_with(runner, &mut WorkloadCache::new())
    }

    /// Folds per-request [`RunOutcome`]s into sweeps, dropping failed
    /// points from their curves (sweeps may come back ragged) and listing
    /// them separately, with store hit/miss tallies.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` does not have one entry per request.
    pub fn assemble_outcomes(&self, outcomes: &[RunOutcome]) -> PlanRun {
        assert_eq!(
            outcomes.len(),
            self.requests.len(),
            "outcome count must match request count"
        );
        let mut failed = Vec::new();
        let sweeps = self
            .curves
            .iter()
            .map(|(mech, points)| Sweep {
                app: self.app,
                mechanism: *mech,
                points: points
                    .iter()
                    .filter_map(|p| match &outcomes[p.request] {
                        RunOutcome::Done { result, .. } => Some(SweepPoint {
                            x: p.x,
                            result: result.clone(),
                        }),
                        RunOutcome::Failed { attempts, message } => {
                            failed.push(FailedPoint {
                                mechanism: *mech,
                                x: p.x,
                                attempts: *attempts,
                                message: message.clone(),
                            });
                            None
                        }
                    })
                    .collect(),
            })
            .collect();
        let simulated = outcomes
            .iter()
            .filter(|o| matches!(o, RunOutcome::Done { cached: false, .. }))
            .count();
        let cached = outcomes.iter().filter(|o| o.is_cached()).count();
        PlanRun {
            sweeps,
            failed,
            simulated,
            cached,
        }
    }

    /// Executes the plan with per-point fault tolerance: a panicking
    /// request costs its own point (after retries), not the sweep.
    pub fn run_reported(&self, runner: &Runner, cache: &mut WorkloadCache) -> PlanRun {
        self.assemble_outcomes(&runner.run_outcomes(&self.requests, cache))
    }
}

/// A point dropped from a [`PlanRun`] because its request failed.
#[derive(Debug, Clone)]
pub struct FailedPoint {
    /// The curve the point belonged to.
    pub mechanism: Mechanism,
    /// The point's x value.
    pub x: f64,
    /// Simulation attempts made (0 = skipped via quarantine).
    pub attempts: usize,
    /// The final panic message (or quarantine note).
    pub message: String,
}

/// A fault-tolerant plan execution: the completed (possibly ragged)
/// sweeps, the points that failed, and how the work split between fresh
/// simulation and store replay.
#[derive(Debug, Clone)]
pub struct PlanRun {
    /// Per-mechanism sweeps, with failed points omitted.
    pub sweeps: Vec<Sweep>,
    /// Points whose request failed every retry.
    pub failed: Vec<FailedPoint>,
    /// Requests that were freshly simulated.
    pub simulated: usize,
    /// Requests replayed from the store.
    pub cached: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_workloads::bipartite::Em3dParams;

    fn tiny_spec() -> AppSpec {
        let mut p = Em3dParams::small();
        p.iterations = 1;
        AppSpec::Em3d(p)
    }

    #[test]
    fn runner_clamps_jobs_to_one() {
        assert_eq!(Runner::new(0).jobs(), 1);
        assert_eq!(Runner::serial().jobs(), 1);
    }

    #[test]
    fn cache_prepares_each_workload_once() {
        let spec = tiny_spec();
        let mut cache = WorkloadCache::new();
        let a = cache.get(&spec, 32);
        let b = cache.get(&spec, 32);
        assert_eq!(cache.len(), 1);
        match (&a, &b) {
            (PreparedWorkload::Em3d(x), PreparedWorkload::Em3d(y)) => {
                assert!(
                    std::sync::Arc::ptr_eq(x, y),
                    "cache must share one preparation"
                );
            }
            _ => panic!("expected EM3D workloads"),
        }
        // A different machine size is a different preparation.
        cache.get(&spec, 16);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn assemble_replicates_shared_requests() {
        let spec = tiny_spec();
        let cfg = MachineConfig::alewife();
        let mut plan = ExperimentPlan::new(spec.name());
        let idx = plan.add_request(RunRequest {
            spec: spec.clone(),
            mechanism: Mechanism::MsgPoll,
            cfg,
        });
        plan.add_point(Mechanism::MsgPoll, 1.0, idx);
        plan.add_point(Mechanism::MsgPoll, 2.0, idx);
        let sweeps = plan.run(&Runner::serial());
        assert_eq!(sweeps.len(), 1);
        assert_eq!(sweeps[0].points.len(), 2);
        assert_eq!(
            sweeps[0].points[0].result.runtime_cycles,
            sweeps[0].points[1].result.runtime_cycles
        );
    }

    #[test]
    fn a_checked_request_is_never_folded_into_a_plain_one() {
        let plain = RunRequest {
            spec: tiny_spec(),
            mechanism: Mechanism::MsgPoll,
            cfg: MachineConfig::alewife(),
        };
        let mut checked = plain.clone();
        checked.cfg.check = Some(commsense_machine::CheckConfig::full());
        assert_eq!(
            ResultStore::request_key(&plain),
            ResultStore::request_key(&checked)
        );
        let (unique, index) = distinct_runs([vec![&plain, &checked], vec![&checked, &plain]]);
        assert_eq!(index, [[0, 1], [1, 0]]);
        assert_eq!(unique[0].0.cfg.check, None);
        assert_eq!(
            unique[1].0.cfg.check,
            Some(commsense_machine::CheckConfig::full())
        );
        assert_eq!(unique[0].1, unique[1].1, "one store key, two runs");
    }

    /// `repro all --small` plans the five CSV figures' jobs: 292
    /// requests, of which 240 are distinct runs. The other 52 repeat
    /// fig4's base-machine runs: fig8 at zero consumption (20), fig9 at
    /// the base clock (20) and fig10's message-passing runs (12).
    #[test]
    fn the_figure_jobs_of_repro_all_hold_240_distinct_runs() {
        use crate::figures::Figure;
        use crate::plan::{resolve_on, PlanSpec};
        let jobs: Vec<_> = Figure::ALL
            .into_iter()
            .map(|figure| {
                let spec = PlanSpec {
                    figure,
                    scale: commsense_apps::Scale::Small,
                    apps: Vec::new(),
                    mechanisms: Vec::new(),
                };
                resolve_on(&spec, MachineConfig::alewife()).expect("resolves")
            })
            .collect();
        let (unique, index) = distinct_runs(jobs.iter().map(|j| &j.requests));
        let planned: usize = index.iter().map(Vec::len).sum();
        assert_eq!((planned, unique.len()), (292, 240));
        for (req, key) in &unique {
            assert_eq!(*key, ResultStore::request_key(req), "{}", req.spec.name());
        }
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    fn dangling_point_is_rejected() {
        let mut plan = ExperimentPlan::new("EM3D");
        plan.add_point(Mechanism::MsgPoll, 1.0, 0);
    }
}
