//! The pure service state machine: protocol events in, IO actions out.
//!
//! All policy lives here — submission validation, request-level
//! deduplication (including in-flight dedup across concurrent clients),
//! progress fan-out, cancellation, drain-on-shutdown — with no sockets,
//! no threads, and no clocks, so every behaviour is table-testable (see
//! `tests/machine.rs`). The TCP shell ([`crate::shell`]) only moves bytes
//! and runs simulations; it makes no decisions.
//!
//! Deduplication is keyed on [`RunKey`], the engine's definition of the
//! same run, which `repro`'s batches key on too. A request is scheduled
//! at most once per daemon lifetime: a second job (from any client)
//! wanting a point that is already running simply subscribes to the
//! existing run and is reported `inflight` when it completes.
//!
//! A resubmitted plan costs one hash-map lookup per point: each plan's
//! resolution and run keys are computed once, keyed on the
//! [`plan::canonical`] spec so the memo is bounded by the suite, and
//! shared by every later job asking for the same plan; a started run
//! carries its store key to the worker, so no request is hashed twice. A
//! job leaves the job table as soon as it finishes, so the table holds
//! only active jobs.

use std::collections::HashMap;
use std::sync::Arc;

use commsense_core::engine::{RunKey, RunOutcome, RunRequest};
use commsense_core::plan::{self, JobPlan};

use crate::protocol::{ClientMsg, JobStats, PlanSpec, ServerMsg, ServiceStats, Source};

/// Identifies a client connection (assigned by the shell).
pub type ClientId = u64;
/// Identifies a scheduled run (an index into the machine's run table).
pub type RunId = usize;

/// An input to the machine, produced by the shell's IO threads.
#[derive(Debug)]
pub enum Event {
    /// A client connected.
    Connected(ClientId),
    /// A client sent one protocol line.
    Line(ClientId, String),
    /// A client's connection closed (EOF or error). Duplicate
    /// disconnects for the same client are tolerated.
    Disconnected(ClientId),
    /// A worker finished executing a run.
    RunDone {
        /// The run that completed.
        run: RunId,
        /// How it ended.
        outcome: Box<RunOutcome>,
    },
}

/// An output of the machine, executed by the shell.
#[derive(Debug)]
pub enum Action {
    /// Write one protocol line to a client.
    Send(ClientId, String),
    /// Hand a request to the worker pool; the shell must eventually feed
    /// back a matching [`Event::RunDone`].
    Start {
        /// The run id to echo back.
        run: RunId,
        /// The request to execute.
        request: Box<RunRequest>,
        /// The request's store key, computed at resolve.
        key: u128,
    },
    /// Close a client connection.
    Close(ClientId),
    /// Stop the daemon: every in-flight run has finished and the drain
    /// requested by a `shutdown` message is complete.
    Stop,
}

#[derive(Debug)]
enum RunState {
    Running,
    Done(Box<RunOutcome>),
}

#[derive(Debug)]
struct RunSlot {
    state: RunState,
}

/// A resolved plan and the [`RunKey`] of each of its requests, shared by
/// every job whose spec has the same canonical form.
type Resolved = Arc<(JobPlan, Vec<RunKey>)>;

#[derive(Debug)]
struct Job {
    client: ClientId,
    id: String,
    plan: Resolved,
    /// Per-request run ids, parallel to `plan.0.requests`.
    runs: Vec<RunId>,
    /// Whether this job created the run (false = in-flight dedup hit).
    started_here: Vec<bool>,
    outcomes: Vec<Option<RunOutcome>>,
    done: usize,
    /// Set when the last point is recorded; the job then leaves the table.
    finished: bool,
}

impl Job {
    fn stats(&self) -> JobStats {
        let mut s = JobStats {
            total: self.runs.len(),
            ..JobStats::default()
        };
        for i in 0..self.runs.len() {
            match (&self.outcomes[i], self.started_here[i]) {
                (Some(RunOutcome::Failed { .. }), _) | (None, _) => s.failed += 1,
                (Some(_), false) => s.inflight_hits += 1,
                (Some(o), true) if o.is_cached() => s.store_hits += 1,
                (Some(_), true) => s.simulated += 1,
            }
        }
        s
    }
}

/// The pure sweep-service state machine. Feed it [`Event`]s, execute the
/// [`Action`]s it returns; it never blocks and never performs IO.
#[derive(Debug, Default)]
pub struct ServiceMachine {
    clients: Vec<ClientId>,
    runs: Vec<RunSlot>,
    by_key: HashMap<RunKey, RunId>,
    /// Successful resolutions by canonical spec (rejected specs are not
    /// kept).
    resolved: HashMap<PlanSpec, Resolved>,
    /// Active jobs only: a job is removed once it finishes.
    jobs: Vec<Job>,
    draining: bool,
    stopped: bool,
    jobs_done: usize,
    simulated: usize,
    store_hits: usize,
    inflight_hits: usize,
}

impl ServiceMachine {
    /// A fresh machine with no clients, runs, or jobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a `shutdown` has been requested and the machine is
    /// refusing new submissions while in-flight runs drain.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// A statistics snapshot (what a `stats` request reports).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            clients: self.clients.len(),
            jobs_active: self.jobs.len(),
            jobs_done: self.jobs_done,
            unique_runs: self.runs.len(),
            runs_running: self
                .runs
                .iter()
                .filter(|r| matches!(r.state, RunState::Running))
                .count(),
            simulated: self.simulated,
            store_hits: self.store_hits,
            inflight_hits: self.inflight_hits,
        }
    }

    /// Processes one event, returning the actions the shell must execute
    /// (in order).
    pub fn handle(&mut self, event: Event) -> Vec<Action> {
        let mut actions = Vec::new();
        match event {
            Event::Connected(c) => {
                if !self.clients.contains(&c) {
                    self.clients.push(c);
                }
            }
            Event::Disconnected(c) => {
                self.clients.retain(|&x| x != c);
                // A vanished client can't receive progress or results:
                // drop its jobs. Runs it started keep executing — other
                // jobs may be subscribed, and the store keeps the result.
                self.jobs.retain(|j| j.client != c);
            }
            Event::Line(c, line) => match ClientMsg::parse(&line) {
                Ok(msg) => self.handle_msg(c, msg, &mut actions),
                Err(message) => actions.push(Action::Send(
                    c,
                    ServerMsg::Error { id: None, message }.line(),
                )),
            },
            Event::RunDone { run, outcome } => self.handle_run_done(run, outcome, &mut actions),
        }
        self.jobs.retain(|j| !j.finished);
        self.maybe_stop(&mut actions);
        actions
    }

    fn handle_msg(&mut self, c: ClientId, msg: ClientMsg, actions: &mut Vec<Action>) {
        match msg {
            ClientMsg::Submit { id, plan } => {
                let reject = |message: String| {
                    Action::Send(
                        c,
                        ServerMsg::Error {
                            id: Some(id.clone()),
                            message,
                        }
                        .line(),
                    )
                };
                if self.draining {
                    actions.push(reject("daemon is shutting down".to_string()));
                    return;
                }
                if self.jobs.iter().any(|j| j.client == c && j.id == id) {
                    actions.push(reject(format!("job id {id:?} is already active")));
                    return;
                }
                let key = match plan::canonical(&plan) {
                    Ok(key) => key,
                    Err(message) => {
                        actions.push(reject(message));
                        return;
                    }
                };
                let resolved = self
                    .resolved
                    .entry(key)
                    .or_insert_with_key(|key| {
                        let p = plan::resolve(key).expect("a canonical spec resolves");
                        let keys = p.requests.iter().map(RunKey::of).collect();
                        Arc::new((p, keys))
                    })
                    .clone();
                let (requests, keys) = (&resolved.0.requests, &resolved.1);
                let total = requests.len();
                let mut runs = Vec::with_capacity(total);
                let mut started_here = Vec::with_capacity(total);
                for (req, &key) in requests.iter().zip(keys) {
                    match self.by_key.get(&key) {
                        Some(&run) => {
                            self.inflight_hits += 1;
                            runs.push(run);
                            started_here.push(false);
                        }
                        None => {
                            let run = self.runs.len();
                            self.runs.push(RunSlot {
                                state: RunState::Running,
                            });
                            self.by_key.insert(key, run);
                            actions.push(Action::Start {
                                run,
                                request: Box::new(req.clone()),
                                key: key.store,
                            });
                            runs.push(run);
                            started_here.push(true);
                        }
                    }
                }
                self.jobs.push(Job {
                    client: c,
                    id: id.clone(),
                    plan: resolved,
                    runs,
                    started_here,
                    outcomes: vec![None; total],
                    done: 0,
                    finished: false,
                });
                actions.push(Action::Send(c, ServerMsg::Accepted { id, total }.line()));
                // Points whose run already completed (an earlier job ran
                // them) resolve immediately, in plan order.
                let job = self.jobs.len() - 1;
                for i in 0..total {
                    let run = self.jobs[job].runs[i];
                    if self.jobs[job].outcomes[i].is_none() {
                        if let RunState::Done(outcome) = &self.runs[run].state {
                            let outcome = RunOutcome::clone(outcome);
                            self.record_outcome(job, i, outcome, actions);
                        }
                    }
                }
            }
            ClientMsg::Cancel { id } => {
                match self.jobs.iter().position(|j| j.client == c && j.id == id) {
                    Some(job) => {
                        // The job stops reporting immediately; runs it
                        // started keep executing and stay sharable.
                        self.jobs.remove(job);
                        actions.push(Action::Send(c, ServerMsg::Cancelled { id }.line()));
                    }
                    None => actions.push(Action::Send(
                        c,
                        ServerMsg::Error {
                            id: Some(id.clone()),
                            message: format!("no active job {id:?}"),
                        }
                        .line(),
                    )),
                }
            }
            ClientMsg::Stats => {
                actions.push(Action::Send(c, ServerMsg::Stats(self.stats()).line()));
            }
            ClientMsg::Shutdown => {
                self.draining = true;
                for &client in &self.clients {
                    actions.push(Action::Send(client, ServerMsg::Stopping.line()));
                }
            }
        }
    }

    fn handle_run_done(&mut self, run: RunId, outcome: Box<RunOutcome>, actions: &mut Vec<Action>) {
        assert!(
            matches!(self.runs[run].state, RunState::Running),
            "run {run} completed twice"
        );
        match *outcome {
            RunOutcome::Done { cached: true, .. } => self.store_hits += 1,
            RunOutcome::Done { cached: false, .. } => self.simulated += 1,
            RunOutcome::Failed { .. } => {}
        }
        self.runs[run].state = RunState::Done(outcome.clone());
        for job in 0..self.jobs.len() {
            for i in 0..self.jobs[job].runs.len() {
                if self.jobs[job].runs[i] == run && self.jobs[job].outcomes[i].is_none() {
                    self.record_outcome(job, i, RunOutcome::clone(&outcome), actions);
                }
            }
        }
    }

    /// Records `outcome` for point `i` of `job`, emitting its progress
    /// line and, when it was the last point, the job's `done` line.
    fn record_outcome(
        &mut self,
        job: usize,
        i: usize,
        outcome: RunOutcome,
        actions: &mut Vec<Action>,
    ) {
        let j = &mut self.jobs[job];
        j.outcomes[i] = Some(outcome);
        j.done += 1;
        let total = j.runs.len();
        let last = j.done == total;
        let (req, x) = (&j.plan.0.requests[i], j.plan.0.xs[i]);
        let source = if !j.started_here[i] {
            Source::Inflight
        } else if j.outcomes[i].as_ref().is_some_and(|o| o.is_cached()) {
            Source::Store
        } else {
            Source::Simulated
        };
        let msg = match j.outcomes[i].as_ref().expect("just recorded") {
            RunOutcome::Done { result, .. } => ServerMsg::Progress {
                id: j.id.clone(),
                done: j.done,
                total,
                app: req.spec.name().to_string(),
                mech: req.mechanism.label().to_string(),
                x,
                runtime_cycles: result.runtime_cycles,
                source,
            },
            RunOutcome::Failed { message, .. } => ServerMsg::PointFailed {
                id: j.id.clone(),
                done: j.done,
                total,
                app: req.spec.name().to_string(),
                mech: req.mechanism.label().to_string(),
                x,
                message: message.clone(),
            },
        };
        actions.push(Action::Send(j.client, msg.line()));
        if last {
            // The job leaves the table at the end of this event, so its
            // outcomes move out rather than being cloned.
            let stats = j.stats();
            let outcomes: Vec<RunOutcome> = j
                .outcomes
                .iter_mut()
                .map(|o| o.take().expect("every point recorded"))
                .collect();
            let plan = &j.plan.0;
            let csvs = plan
                .fold(&outcomes)
                .map(|(app, run)| plan.csv(app, &run))
                .collect();
            actions.push(Action::Send(
                j.client,
                ServerMsg::Done {
                    id: j.id.clone(),
                    stats,
                    csvs,
                }
                .line(),
            ));
            j.finished = true;
            self.jobs_done += 1;
        }
    }

    fn maybe_stop(&mut self, actions: &mut Vec<Action>) {
        if self.stopped || !self.draining {
            return;
        }
        let running = self
            .runs
            .iter()
            .any(|r| matches!(r.state, RunState::Running));
        if running {
            return;
        }
        self.stopped = true;
        for &c in &self.clients {
            actions.push(Action::Close(c));
        }
        self.clients.clear();
        actions.push(Action::Stop);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use commsense_apps::{AppSpec, RunResult, Scale};
    use commsense_core::engine::Runner;
    use commsense_machine::{MachineConfig, Mechanism};
    use commsense_workloads::bipartite::Em3dParams;

    use super::*;
    use crate::protocol::Figure;

    /// One successful outcome from a single tiny simulation; the machine
    /// treats outcomes as opaque, so every completion can share it.
    fn sim_ok() -> Box<RunOutcome> {
        static RESULT: OnceLock<RunResult> = OnceLock::new();
        let result = RESULT.get_or_init(|| {
            let mut p = Em3dParams::small();
            p.iterations = 1;
            let spec = AppSpec::Em3d(p);
            let cfg = MachineConfig::alewife();
            let req = RunRequest {
                spec,
                mechanism: Mechanism::SharedMem,
                cfg,
            };
            Runner::serial().run(&[req]).remove(0)
        });
        Box::new(RunOutcome::Done {
            result: result.clone(),
            cached: false,
        })
    }

    fn spec(apps: &[&str]) -> PlanSpec {
        spec_mechs(apps, &[])
    }

    fn spec_mechs(apps: &[&str], mechs: &[&str]) -> PlanSpec {
        PlanSpec {
            figure: Figure::Fig4,
            scale: Scale::Small,
            apps: apps.iter().map(|s| s.to_string()).collect(),
            mechanisms: mechs.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn submit(m: &mut ServiceMachine, c: ClientId, id: &str, plan: &PlanSpec) -> Vec<Action> {
        let line = ClientMsg::Submit {
            id: id.to_string(),
            plan: plan.clone(),
        }
        .line();
        m.handle(Event::Line(c, line))
    }

    /// Completes every run `actions` started.
    fn finish_runs(m: &mut ServiceMachine, actions: &[Action]) -> Vec<Action> {
        let runs: Vec<RunId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Start { run, .. } => Some(*run),
                _ => None,
            })
            .collect();
        runs.into_iter()
            .flat_map(|run| {
                m.handle(Event::RunDone {
                    run,
                    outcome: sim_ok(),
                })
            })
            .collect()
    }

    fn lines_to(actions: &[Action], client: ClientId) -> Vec<String> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(c, line) if *c == client => Some(line.clone()),
                _ => None,
            })
            .collect()
    }

    fn is_error(line: &str, needle: &str) -> bool {
        matches!(ServerMsg::parse(line), Ok(ServerMsg::Error { message, .. }) if message.contains(needle))
    }

    #[test]
    fn finished_jobs_leave_the_job_table() {
        let mut m = ServiceMachine::new();
        let plan = spec(&["EM3D"]);
        for c in 1..=1000 {
            m.handle(Event::Connected(c));
            let a = submit(&mut m, c, "j", &plan);
            let mut lines = lines_to(&a, c);
            lines.extend(lines_to(&finish_runs(&mut m, &a), c));
            assert!(
                matches!(
                    ServerMsg::parse(lines.last().unwrap()),
                    Ok(ServerMsg::Done { .. })
                ),
                "cycle {c} ends with done"
            );
            m.handle(Event::Disconnected(c));
        }
        assert!(m.jobs.is_empty());
        let st = m.stats();
        assert_eq!((st.jobs_done, st.jobs_active), (1000, 0));

        // Duplicate ids are still rejected while the first is active...
        m.handle(Event::Connected(7));
        let fresh = spec(&["ICCG"]);
        let a = submit(&mut m, 7, "dup", &fresh);
        let again = submit(&mut m, 7, "dup", &fresh);
        assert!(is_error(&lines_to(&again, 7)[0], "already active"));
        // ...and a finished job can no longer be cancelled.
        finish_runs(&mut m, &a);
        let cancel = ClientMsg::Cancel {
            id: "dup".to_string(),
        };
        let a = m.handle(Event::Line(7, cancel.line()));
        assert!(is_error(&lines_to(&a, 7)[0], "no active job"));
        assert!(m.jobs.is_empty());
    }

    #[test]
    fn memoized_resubmit_matches_a_fresh_resolution() {
        // One app at a time warms the runs under two other memo entries,
        // without warming the memo for `plan`.
        let plan = spec(&["EM3D", "MOLDYN"]);
        let key = plan::canonical(&plan).unwrap();
        let mut fresh = ServiceMachine::new();
        for app in ["EM3D", "MOLDYN"] {
            let a = submit(&mut fresh, 1, "warmup", &spec(&[app]));
            finish_runs(&mut fresh, &a);
        }
        assert!(!fresh.resolved.contains_key(&key));
        let want = lines_to(&submit(&mut fresh, 1, "j", &plan), 1);

        let mut memo = ServiceMachine::new();
        let a = submit(&mut memo, 1, "j", &plan);
        finish_runs(&mut memo, &a);
        assert!(memo.resolved.contains_key(&key));
        let got = lines_to(&submit(&mut memo, 1, "j", &plan), 1);
        assert_eq!(got, want);

        let direct = plan::resolve(&plan).unwrap();
        let keys: Vec<RunKey> = direct.requests.iter().map(RunKey::of).collect();
        assert_eq!(memo.resolved[&key].1, keys);
    }

    #[test]
    fn equivalent_specs_share_one_memo_entry() {
        let variants = [
            spec_mechs(&["em3d"], &["sm", "mp-poll"]),
            spec_mechs(&["EM3D"], &["mp-poll", "sm"]),
            spec_mechs(&["Em3d", "EM3D", "em3d"], &["sm", "mp-poll", "sm"]),
        ];
        let mut m = ServiceMachine::new();
        let a = submit(&mut m, 1, "warmup", &variants[0]);
        finish_runs(&mut m, &a);
        let done: Vec<String> = variants
            .iter()
            .map(|v| {
                let lines = lines_to(&submit(&mut m, 1, "j", v), 1);
                lines.last().expect("a warm job finishes at once").clone()
            })
            .collect();
        assert!(matches!(
            ServerMsg::parse(&done[0]),
            Ok(ServerMsg::Done { .. })
        ));
        assert!(done.iter().all(|d| *d == done[0]), "{done:#?}");
        assert_eq!(m.resolved.len(), 1);
    }

    #[test]
    fn rejected_specs_are_rejected_every_time() {
        let mut m = ServiceMachine::new();
        let bad = spec(&["SPICE"]);
        for n in 0..2 {
            let a = submit(&mut m, 1, &format!("bad{n}"), &bad);
            assert!(is_error(&lines_to(&a, 1)[0], "unknown app"), "submit {n}");
        }
        assert!(m.resolved.is_empty());
    }
}
