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
                .field("topology", cfg.net.topo.build().describe())
                .field("topology_kind", cfg.net.topo.kind())
                .field("cpu_mhz", cfg.cpu_mhz)
                .field("net_ps_per_byte", cfg.net.ps_per_byte)
                .field("net_router_delay_ps", cfg.net.router_delay_ps)
                .field("receive", format!("{:?}", cfg.receive))
                .field("barrier", format!("{:?}", cfg.barrier))
                .field("write_buffer", cfg.write_buffer)
                .field("cross_traffic", cfg.cross_traffic.is_some())
                .field(
                    "latency_emulation_cycles",
                    cfg.latency_emulation.map(|emu| emu.remote_miss_cycles),
                );
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

/// Checks that `text` parses as JSON and satisfies the manifest schema:
/// required keys present with the right types, the schema version known,
/// and (when present) every series array consistent with the advertised
/// sample count.
pub fn validate_manifest(text: &str) -> Result<(), String> {
    let v = Json::parse(text)?;
    let version = v
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != MANIFEST_SCHEMA_VERSION as u64 {
        return Err(format!("unknown schema_version {version}"));
    }
    if v.get("kind").and_then(Json::as_str) != Some("commsense-run-manifest") {
        return Err("missing or wrong kind".to_string());
    }
    for key in ["app", "spec", "mechanism"] {
        v.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field {key:?}"))?;
    }
    let cfg = v.get("config").ok_or("missing config")?;
    for key in ["nodes", "write_buffer"] {
        cfg.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing config field {key:?}"))?;
    }
    for key in ["topology", "topology_kind"] {
        cfg.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing config field {key:?}"))?;
    }
    cfg.get("cpu_mhz")
        .and_then(Json::as_f64)
        .ok_or("missing config field \"cpu_mhz\"")?;
    let result = v.get("result").ok_or("missing result")?;
    for key in ["runtime_cycles", "events", "messages_sent"] {
        result
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing result field {key:?}"))?;
    }
    result
        .get("verified")
        .and_then(Json::as_bool)
        .ok_or("missing result field \"verified\"")?;
    let buckets = result
        .get("bucket_mean_cycles")
        .and_then(Json::as_obj)
        .ok_or("missing result field \"bucket_mean_cycles\"")?;
    if buckets.len() != Bucket::ALL.len() {
        return Err("bucket_mean_cycles must cover every bucket".to_string());
    }
    if let Some(series) = v.get("series") {
        let samples = series
            .get("samples")
            .and_then(Json::as_u64)
            .ok_or("missing series field \"samples\"")? as usize;
        for key in ["at_ps", "event_queue_depth", "barrier_occupancy"] {
            let arr = series
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing series array {key:?}"))?;
            if arr.len() != samples {
                return Err(format!(
                    "series array {key:?} has {} entries, expected {samples}",
                    arr.len()
                ));
            }
        }
        let fractions = series
            .get("state_fraction")
            .and_then(Json::as_obj)
            .ok_or("missing series field \"state_fraction\"")?;
        for (state, arr) in fractions {
            let arr = arr
                .as_arr()
                .ok_or_else(|| format!("state_fraction[{state:?}] is not an array"))?;
            if arr.len() != samples {
                return Err(format!(
                    "state_fraction[{state:?}] has {} entries, expected {samples}",
                    arr.len()
                ));
            }
        }
        series
            .get("mean_link_utilization")
            .and_then(Json::as_arr)
            .ok_or("missing series array \"mean_link_utilization\"")?;
    }
    if let Some(cp) = v.get("critpath") {
        for key in ["total_cycles", "traversals", "messages", "barrier_joins"] {
            cp.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing critpath field {key:?}"))?;
        }
        cp.get("predicted_slope")
            .and_then(Json::as_f64)
            .ok_or("missing critpath field \"predicted_slope\"")?;
        let stages = cp
            .get("stage_cycles")
            .and_then(Json::as_obj)
            .ok_or("missing critpath field \"stage_cycles\"")?;
        if stages.len() != Stage::ALL.len() {
            return Err("stage_cycles must cover every stage".to_string());
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
}
