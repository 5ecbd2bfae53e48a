//! The wire protocol: line-delimited JSON over a local TCP socket.
//!
//! Every message is a single line holding one `type`-tagged JSON object,
//! written and parsed with the workspace's own [`commsense_core::json`]
//! writer and parser, so the protocol has no dependency beyond
//! `commsense-core`. Both directions live here — [`ClientMsg`] is what
//! the daemon parses, [`ServerMsg`] is what the reference client parses —
//! which keeps the codec symmetric and testable without a socket.

use commsense_apps::Scale;
use commsense_core::json::{self, Json};

/// The figure whose sweep plan a submission requests: any figure of the
/// [`commsense_core::figures`] registry.
pub use commsense_core::figures::Figure;

/// Where a completed point's result came from, as reported in progress
/// lines: freshly simulated by this job, replayed from the persistent
/// store, or deduplicated against a run another in-process job already
/// started (or finished).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Simulated by a worker on behalf of this job.
    Simulated,
    /// Read through from the persistent result store.
    Store,
    /// Shared with a run some other job in this daemon owns.
    Inflight,
}

impl Source {
    /// The wire label (`simulated`, `store`, `inflight`).
    pub fn label(self) -> &'static str {
        match self {
            Source::Simulated => "simulated",
            Source::Store => "store",
            Source::Inflight => "inflight",
        }
    }

    /// Parses a wire label.
    pub fn from_label(label: &str) -> Option<Source> {
        match label {
            "simulated" => Some(Source::Simulated),
            "store" => Some(Source::Store),
            "inflight" => Some(Source::Inflight),
            _ => None,
        }
    }
}

/// The sweep-plan specification a submission carries: the
/// [`commsense_core::plan`] planner's input, re-exported like `Figure`.
pub use commsense_core::plan::PlanSpec;

/// A message from a client to the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Submit a sweep plan under a client-chosen job id.
    Submit {
        /// Client-chosen job id, echoed in every response line.
        id: String,
        /// The plan to resolve and run.
        plan: PlanSpec,
    },
    /// Cancel a previously submitted job (runs already started keep
    /// running — their results stay sharable — but the job stops
    /// reporting).
    Cancel {
        /// The job id to cancel.
        id: String,
    },
    /// Ask for a one-line daemon statistics snapshot.
    Stats,
    /// Ask the daemon to drain: no new submissions, finish in-flight
    /// runs, then exit.
    Shutdown,
}

impl ClientMsg {
    /// Serializes the message as one protocol line (no trailing newline).
    pub fn line(&self) -> String {
        let mut s = String::new();
        json::object(&mut s, |o| {
            match self {
                ClientMsg::Submit { id, plan } => o
                    .field("type", "submit")
                    .field("id", id)
                    .field("figure", plan.figure.label())
                    .field("scale", plan.scale.label())
                    .field("apps", plan.apps.as_slice())
                    .field("mechanisms", plan.mechanisms.as_slice()),
                ClientMsg::Cancel { id } => o.field("type", "cancel").field("id", id),
                ClientMsg::Stats => o.field("type", "stats"),
                ClientMsg::Shutdown => o.field("type", "shutdown"),
            };
        });
        s
    }

    /// Parses one protocol line.
    pub fn parse(line: &str) -> Result<ClientMsg, String> {
        let v = Json::parse(line)?;
        let ty = str_field(&v, "type")?;
        match ty.as_str() {
            "submit" => {
                let id = str_field(&v, "id")?;
                let figure = str_field(&v, "figure")?;
                let figure = Figure::from_label(&figure)
                    .ok_or_else(|| format!("unknown figure {figure:?} ({})", Figure::choices()))?;
                let scale = match v.get("scale") {
                    None => Scale::Bench,
                    Some(s) => {
                        let s = s.as_str().ok_or("field 'scale' must be a string")?;
                        Scale::from_label(s)
                            .ok_or_else(|| format!("unknown scale {s:?} (bench|paper|small)"))?
                    }
                };
                Ok(ClientMsg::Submit {
                    id,
                    plan: PlanSpec {
                        figure,
                        scale,
                        apps: str_list(&v, "apps")?,
                        mechanisms: str_list(&v, "mechanisms")?,
                    },
                })
            }
            "cancel" => Ok(ClientMsg::Cancel {
                id: str_field(&v, "id")?,
            }),
            "stats" => Ok(ClientMsg::Stats),
            "shutdown" => Ok(ClientMsg::Shutdown),
            other => Err(format!("unknown client message type {other:?}")),
        }
    }
}

/// Per-job completion statistics, carried on the final `done` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Points in the job.
    pub total: usize,
    /// Points simulated by workers on behalf of this job.
    pub simulated: usize,
    /// Points replayed from the persistent store.
    pub store_hits: usize,
    /// Points deduplicated against runs other jobs own.
    pub inflight_hits: usize,
    /// Points that failed (quarantined or exhausted retries).
    pub failed: usize,
}

/// A daemon-wide statistics snapshot, carried on a `stats` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Currently connected clients.
    pub clients: usize,
    /// Jobs accepted and not yet finished.
    pub jobs_active: usize,
    /// Jobs completed (cancelled jobs are not counted).
    pub jobs_done: usize,
    /// Distinct requests ever scheduled (the dedup denominator).
    pub unique_runs: usize,
    /// Requests currently executing or queued on the worker pool.
    pub runs_running: usize,
    /// Unique runs that were freshly simulated.
    pub simulated: usize,
    /// Unique runs replayed from the persistent store.
    pub store_hits: usize,
    /// Point-level dedup hits: a job referenced a run another job owns.
    pub inflight_hits: usize,
}

/// A message from the daemon to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// A submission was validated and enqueued.
    Accepted {
        /// The job id.
        id: String,
        /// Total points in the resolved plan.
        total: usize,
    },
    /// One point of a job completed successfully.
    Progress {
        /// The job id.
        id: String,
        /// Points completed so far (including failed ones).
        done: usize,
        /// Total points in the job.
        total: usize,
        /// Application name.
        app: String,
        /// Mechanism label.
        mech: String,
        /// The point's swept x value (0 for Figure 4).
        x: f64,
        /// Measured runtime in processor cycles.
        runtime_cycles: u64,
        /// Where the result came from.
        source: Source,
    },
    /// One point of a job failed (quarantined or exhausted retries).
    PointFailed {
        /// The job id.
        id: String,
        /// Points completed so far (including this one).
        done: usize,
        /// Total points in the job.
        total: usize,
        /// Application name.
        app: String,
        /// Mechanism label.
        mech: String,
        /// The point's swept x value.
        x: f64,
        /// The failure message.
        message: String,
    },
    /// A job finished: statistics plus the assembled CSV artifacts
    /// (byte-identical to what a direct `repro` run writes).
    Done {
        /// The job id.
        id: String,
        /// Per-job completion statistics.
        stats: JobStats,
        /// `(file name, contents)` pairs for each CSV of the plan.
        csvs: Vec<(String, String)>,
    },
    /// A job was cancelled.
    Cancelled {
        /// The job id.
        id: String,
    },
    /// A daemon statistics snapshot (response to a `stats` request).
    Stats(ServiceStats),
    /// A request was rejected, or a mid-job error occurred.
    Error {
        /// The job id, when the error concerns a specific job.
        id: Option<String>,
        /// What went wrong.
        message: String,
    },
    /// The daemon is draining and will exit once in-flight runs finish.
    Stopping,
}

impl ServerMsg {
    /// Serializes the message as one protocol line (no trailing newline).
    pub fn line(&self) -> String {
        let mut s = String::new();
        json::object(&mut s, |o| {
            match self {
                ServerMsg::Accepted { id, total } => o
                    .field("type", "accepted")
                    .field("id", id)
                    .field("total", total),
                ServerMsg::Progress {
                    id,
                    done,
                    total,
                    app,
                    mech,
                    x,
                    runtime_cycles,
                    source,
                } => o
                    .field("type", "progress")
                    .field("id", id)
                    .field("done", done)
                    .field("total", total)
                    .field("app", app)
                    .field("mech", mech)
                    .field("x", x)
                    .field("runtime_cycles", runtime_cycles)
                    .field("source", source.label()),
                ServerMsg::PointFailed {
                    id,
                    done,
                    total,
                    app,
                    mech,
                    x,
                    message,
                } => o
                    .field("type", "point-failed")
                    .field("id", id)
                    .field("done", done)
                    .field("total", total)
                    .field("app", app)
                    .field("mech", mech)
                    .field("x", x)
                    .field("message", message),
                ServerMsg::Done { id, stats, csvs } => o
                    .field("type", "done")
                    .field("id", id)
                    .field("total", stats.total)
                    .field("simulated", stats.simulated)
                    .field("store_hits", stats.store_hits)
                    .field("inflight_hits", stats.inflight_hits)
                    .field("failed", stats.failed)
                    .array("csv", |a| {
                        for (name, data) in csvs {
                            a.object(|o| {
                                o.field("name", name).field("data", data);
                            });
                        }
                    }),
                ServerMsg::Cancelled { id } => o.field("type", "cancelled").field("id", id),
                ServerMsg::Stats(st) => o
                    .field("type", "stats")
                    .field("clients", st.clients)
                    .field("jobs_active", st.jobs_active)
                    .field("jobs_done", st.jobs_done)
                    .field("unique_runs", st.unique_runs)
                    .field("runs_running", st.runs_running)
                    .field("simulated", st.simulated)
                    .field("store_hits", st.store_hits)
                    .field("inflight_hits", st.inflight_hits),
                ServerMsg::Error { id, message } => {
                    o.field("type", "error");
                    if let Some(id) = id {
                        o.field("id", id);
                    }
                    o.field("message", message)
                }
                ServerMsg::Stopping => o.field("type", "stopping"),
            };
        });
        s
    }

    /// Parses one protocol line.
    pub fn parse(line: &str) -> Result<ServerMsg, String> {
        let v = Json::parse(line)?;
        let ty = str_field(&v, "type")?;
        match ty.as_str() {
            "accepted" => Ok(ServerMsg::Accepted {
                id: str_field(&v, "id")?,
                total: usize_field(&v, "total")?,
            }),
            "progress" => {
                let source = str_field(&v, "source")?;
                Ok(ServerMsg::Progress {
                    id: str_field(&v, "id")?,
                    done: usize_field(&v, "done")?,
                    total: usize_field(&v, "total")?,
                    app: str_field(&v, "app")?,
                    mech: str_field(&v, "mech")?,
                    x: f64_field(&v, "x")?,
                    runtime_cycles: u64_field(&v, "runtime_cycles")?,
                    source: Source::from_label(&source)
                        .ok_or_else(|| format!("unknown source {source:?}"))?,
                })
            }
            "point-failed" => Ok(ServerMsg::PointFailed {
                id: str_field(&v, "id")?,
                done: usize_field(&v, "done")?,
                total: usize_field(&v, "total")?,
                app: str_field(&v, "app")?,
                mech: str_field(&v, "mech")?,
                x: f64_field(&v, "x")?,
                message: str_field(&v, "message")?,
            }),
            "done" => {
                let stats = JobStats {
                    total: usize_field(&v, "total")?,
                    simulated: usize_field(&v, "simulated")?,
                    store_hits: usize_field(&v, "store_hits")?,
                    inflight_hits: usize_field(&v, "inflight_hits")?,
                    failed: usize_field(&v, "failed")?,
                };
                let arr = v.get("csv").and_then(Json::as_arr).ok_or("missing 'csv'")?;
                let mut csvs = Vec::with_capacity(arr.len());
                for item in arr {
                    let name = str_field(item, "name")?;
                    if !is_bare_file_name(&name) {
                        return Err(format!("csv name {name:?} is not a bare file name"));
                    }
                    csvs.push((name, str_field(item, "data")?));
                }
                Ok(ServerMsg::Done {
                    id: str_field(&v, "id")?,
                    stats,
                    csvs,
                })
            }
            "cancelled" => Ok(ServerMsg::Cancelled {
                id: str_field(&v, "id")?,
            }),
            "stats" => Ok(ServerMsg::Stats(ServiceStats {
                clients: usize_field(&v, "clients")?,
                jobs_active: usize_field(&v, "jobs_active")?,
                jobs_done: usize_field(&v, "jobs_done")?,
                unique_runs: usize_field(&v, "unique_runs")?,
                runs_running: usize_field(&v, "runs_running")?,
                simulated: usize_field(&v, "simulated")?,
                store_hits: usize_field(&v, "store_hits")?,
                inflight_hits: usize_field(&v, "inflight_hits")?,
            })),
            "error" => Ok(ServerMsg::Error {
                id: v.get("id").and_then(Json::as_str).map(str::to_string),
                message: str_field(&v, "message")?,
            }),
            "stopping" => Ok(ServerMsg::Stopping),
            other => Err(format!("unknown server message type {other:?}")),
        }
    }
}

/// Whether `name` is safe to join onto a client's output directory: not
/// empty, not `.` or `..`, and free of `/`, `\` and NUL, so a `done` line
/// cannot make the client write outside that directory.
fn is_bare_file_name(name: &str) -> bool {
    !matches!(name, "" | "." | "..") && !name.contains(['/', '\\', '\0'])
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field '{key}'"))
}

fn str_list(v: &Json, key: &str) -> Result<Vec<String>, String> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(arr) => {
            let arr = arr
                .as_arr()
                .ok_or_else(|| format!("field '{key}' must be an array"))?;
            arr.iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("field '{key}' must hold strings"))
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_messages_round_trip() {
        let msgs = [
            ClientMsg::Submit {
                id: "job-1".into(),
                plan: PlanSpec {
                    figure: Figure::Fig8,
                    scale: Scale::Small,
                    apps: vec!["EM3D".into()],
                    mechanisms: vec!["sm".into(), "mp-poll".into()],
                },
            },
            ClientMsg::Cancel {
                id: "j\"x\"".into(),
            },
            ClientMsg::Stats,
            ClientMsg::Shutdown,
        ];
        for m in msgs {
            assert_eq!(ClientMsg::parse(&m.line()).unwrap(), m);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let msgs = [
            ServerMsg::Accepted {
                id: "j".into(),
                total: 20,
            },
            ServerMsg::Progress {
                id: "j".into(),
                done: 3,
                total: 20,
                app: "EM3D".into(),
                mech: "sm+pf".into(),
                x: 11.43,
                runtime_cycles: 123_456,
                source: Source::Inflight,
            },
            ServerMsg::PointFailed {
                id: "j".into(),
                done: 4,
                total: 20,
                app: "ICCG".into(),
                mech: "bulk".into(),
                x: 0.0,
                message: "panicked:\n\"deadline\"".into(),
            },
            ServerMsg::Done {
                id: "j".into(),
                stats: JobStats {
                    total: 20,
                    simulated: 10,
                    store_hits: 5,
                    inflight_hits: 5,
                    failed: 0,
                },
                csvs: vec![("fig4_em3d.csv".into(), "a,b\n1,2\n".into())],
            },
            ServerMsg::Cancelled { id: "j".into() },
            ServerMsg::Stats(ServiceStats {
                clients: 2,
                jobs_active: 1,
                jobs_done: 3,
                unique_runs: 40,
                runs_running: 2,
                simulated: 30,
                store_hits: 10,
                inflight_hits: 20,
            }),
            ServerMsg::Error {
                id: None,
                message: "bad line".into(),
            },
            ServerMsg::Error {
                id: Some("j".into()),
                message: "unknown app".into(),
            },
            ServerMsg::Stopping,
        ];
        for m in msgs {
            assert_eq!(
                ServerMsg::parse(&m.line()).unwrap(),
                m,
                "line: {}",
                m.line()
            );
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(ClientMsg::parse("not json").is_err());
        assert!(ClientMsg::parse("{\"type\":\"warp\"}").is_err());
        assert!(ClientMsg::parse("{\"type\":\"submit\",\"id\":\"x\"}").is_err());
        assert!(
            ClientMsg::parse("{\"type\":\"submit\",\"id\":\"x\",\"figure\":\"fig99\"}").is_err()
        );
        assert!(ServerMsg::parse("{\"type\":\"accepted\"}").is_err());
    }
}
