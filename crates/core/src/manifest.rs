//! Self-describing run manifests: one JSON record per executed
//! [`RunRequest`] capturing what was run (workload, mechanism, machine
//! configuration, sweep point), what came out ([`RunResult`] summary), and —
//! when observation was enabled — the epoch-sampled metric series.
//!
//! A manifest makes an artifact directory self-contained: a reader can
//! reconstruct the experimental point from the manifest alone, without the
//! command line that produced it. The format is versioned by
//! [`MANIFEST_SCHEMA_VERSION`] and checked by [`validate_manifest`], which
//! CI runs against freshly produced manifests.
//!
//! A summary [`Table`](crate::table::Table)'s manifest is the JSON twin
//! of its CSV; [`validate_table_manifest`] checks one against the CSV
//! header before `repro` writes it.
//!
//! # Examples
//!
//! ```
//! use commsense_core::engine::RunRequest;
//! use commsense_core::manifest::{manifest_json, validate_manifest};
//! use commsense_apps::{run_app, AppSpec};
//! use commsense_machine::{MachineConfig, Mechanism};
//! use commsense_workloads::sparse::IccgParams;
//!
//! let req = RunRequest {
//!     spec: AppSpec::Iccg(IccgParams::small()),
//!     mechanism: Mechanism::MsgPoll,
//!     cfg: MachineConfig::tiny(),
//! };
//! let result = run_app(&req.spec, req.mechanism, &req.cfg);
//! let text = manifest_json(&req, None, &result);
//! validate_manifest(&text).unwrap();
//! ```

use commsense_apps::RunResult;
use commsense_machine::critpath::{CritPath, Stage};
use commsense_machine::{Bucket, RunState};

use crate::engine::RunRequest;
use crate::json::{self, Fixed, Json};

/// Version stamp written into every manifest; bump on breaking layout
/// changes so downstream readers can dispatch. Version 2 replaced the
/// mesh-only `mesh_width`/`mesh_height` config fields with `topology`
/// (human-readable shape) and `topology_kind`. Version 3 added the
/// optional `critpath` block (critical-path stage breakdown and predicted
/// latency slope, see [`manifest_json_with_analysis`]).
pub const MANIFEST_SCHEMA_VERSION: u32 = 3;

/// Version stamp of the table manifests
/// ([`Table::manifest`](crate::table::Table::manifest)).
pub const TABLE_SCHEMA_VERSION: u32 = 1;

/// Renders the manifest for one executed request as a JSON document.
///
/// `sweep_x` is the x-coordinate of the sweep point the request measures
/// (bisection width, added latency cycles, ...), if the request came from a
/// sweep. The metric-series block is present exactly when the result
/// carries an observation.
pub fn manifest_json(req: &RunRequest, sweep_x: Option<f64>, result: &RunResult) -> String {
    manifest_json_with_analysis(req, sweep_x, result, None)
}

/// Like [`manifest_json`], with an optional critical-path analysis block
/// (`repro analyze` attaches it): per-stage cycle attribution, the message
/// and barrier edges crossed, and the predicted Figure-10 latency slope.
pub fn manifest_json_with_analysis(
    req: &RunRequest,
    sweep_x: Option<f64>,
    result: &RunResult,
    critpath: Option<&CritPath>,
) -> String {
    let cfg = &req.cfg;
    let clock = cfg.clock();
    let stats = &result.stats;
    let mut out = String::with_capacity(4096);
    json::object(&mut out, |o| {
        o.field("schema_version", MANIFEST_SCHEMA_VERSION)
            .field("kind", "commsense-run-manifest")
            // The request: workload, mechanism, sweep point.
            .field("app", result.app)
            .field("spec", format!("{:?}", req.spec))
            .field("mechanism", req.mechanism.label())
            .field("sweep_x", sweep_x);

        // The machine.
        o.object("config", |o| {
            o.field("nodes", cfg.nodes)
                .field("topology", cfg.net.topo.describe())
                .field("topology_kind", cfg.net.topo.kind())
                .field("cpu_mhz", cfg.cpu_mhz)
                .field("net_ps_per_byte", cfg.net.ps_per_byte)
                .field("net_router_delay_ps", cfg.net.router_delay_ps)
                .field("receive", format!("{:?}", req.mechanism.receive_mode()))
                .field("barrier", format!("{:?}", req.mechanism.barrier_style()))
                .field("write_buffer", cfg.write_buffer)
                .field("cross_traffic", cfg.cross_traffic.is_some())
                .field("latency_emulation_cycles", cfg.latency_emulation);
            match cfg.observe {
                Some(obs) => o.object("observe", |o| {
                    o.field("epoch_cycles", obs.epoch_cycles)
                        .field("trace_capacity", obs.trace_capacity)
                        .field("max_packets", obs.max_packets);
                }),
                None => o.field("observe", None::<u64>),
            };
        });

        // The result summary.
        o.object("result", |o| {
            o.field("runtime_cycles", result.runtime_cycles)
                .field("verified", result.verified)
                .field("max_abs_err", result.max_abs_err)
                .field("events", stats.events)
                .field("messages_sent", stats.messages_sent)
                .field("app_volume_bytes", stats.volume.app_total())
                .field("bisection_bytes", stats.bisection.app_total())
                .field("cache_hits", stats.cache_hit_miss.0)
                .field("cache_misses", stats.cache_hit_miss.1)
                .field(
                    "mean_packet_latency_cycles",
                    stats.mean_packet_latency.map(|t| clock.cycles_at_f64(t)),
                )
                .object("bucket_mean_cycles", |o| {
                    for b in Bucket::ALL {
                        o.field(b.label(), stats.mean_bucket_cycles(b, clock));
                    }
                });
        });

        // The metric series, when observation was on.
        if let Some(obs) = &result.observation {
            let series = &obs.series;
            o.object("series", |o| {
                o.field("epoch_ps", series.epoch_ps)
                    .field("samples", series.samples())
                    .field("at_ps", series.at_ps.as_slice())
                    .object("state_fraction", |o| {
                        for state in RunState::ALL {
                            o.array(state.label(), |a| {
                                for s in 0..series.samples() {
                                    a.item(Fixed(series.state_fraction(s, state), 4));
                                }
                            });
                        }
                    })
                    .field("event_queue_depth", series.event_queue_depth.as_slice())
                    .field("barrier_occupancy", series.barrier_occupancy.as_slice())
                    .array("mean_link_utilization", |a| {
                        for link in 0..series.links {
                            a.item(Fixed(obs.mean_link_utilization(link), 4));
                        }
                    })
                    .field("trace_events_dropped", obs.trace.dropped())
                    .field("net_packets_dropped", obs.net.dropped_packets);
            });
        }

        // The critical-path analysis, when one was run.
        if let Some(cp) = critpath {
            o.object("critpath", |o| {
                o.field("total_cycles", cp.total_cycles())
                    .field("predicted_slope", cp.predicted_slope())
                    .field("traversals", cp.traversals)
                    .field("messages", cp.messages)
                    .field("barrier_joins", cp.barrier_joins)
                    .field("complete", cp.complete)
                    .object("stage_cycles", |o| {
                        for stage in Stage::ALL {
                            o.field(stage.label(), cp.stage_cycles(stage));
                        }
                    });
            });
        }
    });
    out
}

/// `v[key]` read by `as_t`, or the error naming the missing field (`in_`
/// names the enclosing block, e.g. `"config "`).
fn field<'a, T>(
    v: &'a Json,
    in_: &str,
    key: &str,
    as_t: fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    v.get(key)
        .and_then(as_t)
        .ok_or_else(|| format!("missing {in_}field {key:?}"))
}

/// Checks `v`'s `schema_version` and `kind` stamp.
fn check_stamp(v: &Json, kind: &str, version: u32) -> Result<(), String> {
    let found = field(v, "", "schema_version", Json::as_u64)?;
    if found != version as u64 {
        return Err(format!("unknown schema_version {found}"));
    }
    if v.get("kind").and_then(Json::as_str) != Some(kind) {
        return Err(format!("kind is not {kind:?}"));
    }
    Ok(())
}

/// Checks that `text` parses as JSON and satisfies the manifest schema:
/// required keys present with the right types, the schema version known,
/// and (when present) every series array consistent with the advertised
/// sample count.
pub fn validate_manifest(text: &str) -> Result<(), String> {
    let v = Json::parse(text)?;
    check_stamp(&v, "commsense-run-manifest", MANIFEST_SCHEMA_VERSION)?;
    for key in ["app", "spec", "mechanism"] {
        field(&v, "", key, Json::as_str)?;
    }
    let cfg = v.get("config").ok_or("missing config")?;
    for key in ["nodes", "write_buffer"] {
        field(cfg, "config ", key, Json::as_u64)?;
    }
    for key in ["topology", "topology_kind"] {
        field(cfg, "config ", key, Json::as_str)?;
    }
    field(cfg, "config ", "cpu_mhz", Json::as_f64)?;
    let result = v.get("result").ok_or("missing result")?;
    for key in ["runtime_cycles", "events", "messages_sent"] {
        field(result, "result ", key, Json::as_u64)?;
    }
    field(result, "result ", "verified", Json::as_bool)?;
    if field(result, "result ", "bucket_mean_cycles", Json::as_obj)?.len() != Bucket::ALL.len() {
        return Err("bucket_mean_cycles must cover every bucket".to_string());
    }
    if let Some(series) = v.get("series") {
        let samples = field(series, "series ", "samples", Json::as_u64)? as usize;
        let fractions = field(series, "series ", "state_fraction", Json::as_obj)?;
        let arrays =
            ["at_ps", "event_queue_depth", "barrier_occupancy"].map(|k| (k, series.get(k)));
        let fractions = fractions.iter().map(|(k, arr)| (k.as_str(), Some(arr)));
        for (key, arr) in arrays.into_iter().chain(fractions) {
            let n = arr
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing series array {key:?}"))?
                .len();
            if n != samples {
                return Err(format!(
                    "series array {key:?} has {n} entries, expected {samples}"
                ));
            }
        }
        field(series, "series ", "mean_link_utilization", Json::as_arr)?;
    }
    if let Some(cp) = v.get("critpath") {
        for key in ["total_cycles", "traversals", "messages", "barrier_joins"] {
            field(cp, "critpath ", key, Json::as_u64)?;
        }
        field(cp, "critpath ", "predicted_slope", Json::as_f64)?;
        if field(cp, "critpath ", "stage_cycles", Json::as_obj)?.len() != Stage::ALL.len() {
            return Err("stage_cycles must cover every stage".to_string());
        }
    }
    Ok(())
}

/// Checks that `text` is the manifest of a table whose CSV starts with
/// the line `csv_header`: it parses, its `kind` is `kind`, its
/// `schema_version` is [`TABLE_SCHEMA_VERSION`], and every row is an
/// object of scalars keyed by the header's column names, in order.
pub fn validate_table_manifest(text: &str, kind: &str, csv_header: &str) -> Result<(), String> {
    let v = Json::parse(text)?;
    check_stamp(&v, kind, TABLE_SCHEMA_VERSION)?;
    let columns: Vec<&str> = csv_header.split(',').collect();
    for (i, row) in field(&v, "", "rows", Json::as_arr)?.iter().enumerate() {
        let fields = row
            .as_obj()
            .ok_or_else(|| format!("row {i} is not an object"))?;
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != columns {
            return Err(format!(
                "row {i} has keys {keys:?}, the CSV header {columns:?}"
            ));
        }
        if let Some((key, _)) = fields
            .iter()
            .find(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)))
        {
            return Err(format!("row {i}: {key:?} is not a scalar"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_apps::{run_app, AppSpec};
    use commsense_machine::{MachineConfig, Mechanism, ObserveConfig};
    use commsense_workloads::bipartite::Em3dParams;

    fn tiny_request(observe: bool) -> RunRequest {
        let mut p = Em3dParams::small();
        p.iterations = 1;
        let mut cfg = MachineConfig::tiny();
        if observe {
            cfg.observe = Some(ObserveConfig {
                epoch_cycles: 100,
                trace_capacity: 1 << 14,
                max_packets: 1 << 14,
                ..Default::default()
            });
        }
        RunRequest {
            spec: AppSpec::Em3d(p),
            mechanism: Mechanism::MsgInterrupt,
            cfg,
        }
    }

    #[test]
    fn manifest_without_observation_validates() {
        let req = tiny_request(false);
        let result = run_app(&req.spec, req.mechanism, &req.cfg);
        let text = manifest_json(&req, Some(12.0), &result);
        validate_manifest(&text).unwrap();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("mechanism").and_then(Json::as_str), Some("mp-int"));
        assert_eq!(v.get("sweep_x").and_then(Json::as_f64), Some(12.0));
        assert!(v.get("series").is_none());
    }

    #[test]
    fn manifest_with_observation_embeds_series() {
        let req = tiny_request(true);
        let result = run_app(&req.spec, req.mechanism, &req.cfg);
        assert!(result.observation.is_some());
        let text = manifest_json(&req, None, &result);
        validate_manifest(&text).unwrap();
        let v = Json::parse(&text).unwrap();
        let series = v.get("series").expect("series present");
        let samples = series.get("samples").and_then(Json::as_u64).unwrap();
        assert!(samples > 0);
        assert_eq!(
            series.get("at_ps").and_then(Json::as_arr).unwrap().len(),
            samples as usize
        );
    }

    #[test]
    fn manifest_with_analysis_embeds_critpath() {
        let req = tiny_request(true);
        let result = run_app(&req.spec, req.mechanism, &req.cfg);
        let obs = result.observation.as_ref().expect("observed run");
        let cp = commsense_machine::critpath::analyze(obs, &req.cfg);
        let text = manifest_json_with_analysis(&req, None, &result, Some(&cp));
        validate_manifest(&text).unwrap();
        let v = Json::parse(&text).unwrap();
        let block = v.get("critpath").expect("critpath present");
        assert_eq!(
            block.get("total_cycles").and_then(Json::as_u64),
            Some(cp.total_cycles())
        );
        let stages = block.get("stage_cycles").and_then(Json::as_obj).unwrap();
        assert_eq!(stages.len(), Stage::ALL.len());
        // Tampered critpath blocks must be rejected.
        let broken = text.replace("\"traversals\"", "\"traversalsx\"");
        assert!(validate_manifest(&broken).is_err());
    }

    #[test]
    fn validation_rejects_tampering() {
        let req = tiny_request(false);
        let result = run_app(&req.spec, req.mechanism, &req.cfg);
        let text = manifest_json(&req, None, &result);
        let wrong_version = text.replace(
            &format!("\"schema_version\":{MANIFEST_SCHEMA_VERSION}"),
            "\"schema_version\":99",
        );
        assert!(validate_manifest(&wrong_version).is_err());
        let no_result = text.replace("\"result\"", "\"resultx\"");
        assert!(validate_manifest(&no_result).is_err());
        assert!(validate_manifest("not json").is_err());
    }

    #[test]
    fn table_manifests_must_match_their_csv_header() {
        use crate::table::{Cell, Table};
        let table = Table::new("a,b", [vec![Cell::Int(1), Cell::Empty]]);
        let text = table.manifest("commsense-t-manifest");
        let check = |text: &str, kind: &str, header: &str| {
            validate_table_manifest(text, kind, header).map_err(|e| e.to_string())
        };
        assert_eq!(check(&text, "commsense-t-manifest", "a,b"), Ok(()));
        for (text, kind, header, err) in [
            (text.as_str(), "commsense-u-manifest", "a,b", "kind is not"),
            (&text, "commsense-t-manifest", "b,a", "has keys"),
            (&text, "commsense-t-manifest", "a,b,c", "has keys"),
            (
                &text.replace(":1,\"rows", ":2,\"rows"),
                "commsense-t-manifest",
                "a,b",
                "unknown schema_version",
            ),
            (
                &text.replace("\"b\":null", "\"b\":[]"),
                "commsense-t-manifest",
                "a,b",
                "not a scalar",
            ),
            (
                &text.replace("\"rows\"", "\"rowz\""),
                "commsense-t-manifest",
                "a,b",
                "missing field \"rows\"",
            ),
        ] {
            let got = check(text, kind, header).unwrap_err();
            assert!(got.contains(err), "{got:?} lacks {err:?} for {text}");
        }
    }
}
