//! Request execution: validated protocol requests mapped onto the
//! `experiments` harness.
//!
//! The mapping is deliberately thin and mirrors the CLI paths:
//!
//! * `simulate` evaluates one cell through [`experiments::eval_cell`],
//!   the path E1 and `rlpm-sim run` take, so it reports the metrics
//!   `rlpm-sim run` prints for the same arguments. Identical concurrent
//!   requests coalesce on the cache memo's in-flight entry (one
//!   computes, the others wait for its bytes), and repeat requests are
//!   answered from the memo or from disk.
//! * `train` calls [`experiments::train_rl_governor`] with the same
//!   arguments `rlpm-sim train` passes, so the returned artifact
//!   checksum matches a CLI-trained file byte for byte.
//! * `eval` runs the E1 sweep exactly as `regen-tables` does (same SoC
//!   preset, same quick config), so the returned CSV is byte-identical
//!   to `results/e1_energy_per_qos.csv` — pinned by an integration test.
//!   Warm, the sweep costs one render of the SoC config for its cell
//!   cache keys (built once per sweep, not per cell), one memo lookup
//!   per cell, and the table.
//! * `fleet` builds the same batched population as `rlpm-sim fleet`
//!   through [`experiments::build_fleet`]: per-lane seeds, one policy
//!   for every lane, and one shard per worker thread.
//!
//! The server calls [`Service::handle`] on each connection's request
//! thread, under the connection's [`experiments::JobCtx`]. Every request
//! runs under `catch_unwind` and under its own quarantine sink (a
//! context `handle` opens inside the caller's): a sweep whose cells the
//! scheduler quarantined becomes a typed `quarantined` error response
//! listing exactly this request's cells — the protocol twin of the
//! CLI's exit-4 convention — and any other panic becomes an `internal`
//! error instead of ending the request thread. Artifact fingerprints
//! use [`rlpm::persist::fnv1a64`], the checksum of the artifact's own
//! container format.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use experiments::e1_energy_per_qos::{run_e1, E1Config};
use experiments::{
    build_fleet, eval_cell, run_batch, train_rl_governor, JobCtx, PolicyKind, RunConfig,
    RunMetrics, TrainingProtocol,
};
use governors::GovernorKind;
use soc::SocConfig;
use workload::ScenarioKind;

use crate::json::Value;
use crate::proto::{
    ErrorCode, EvalSpec, FleetSpec, Request, RequestError, Response, SimulateSpec, TrainSpec,
    PROTOCOL_VERSION,
};

/// Upper bound on `fleet` lanes per request: enough for every benched
/// population, small enough that one request cannot exhaust memory.
pub const MAX_FLEET_LANES: u64 = 4096;

/// Shared per-server request state.
#[derive(Debug, Default)]
pub struct Service {
    requests: AtomicU64,
}

/// The outcome of serving one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Handled {
    /// The terminal response to write.
    pub response: Response,
    /// Whether the server should stop accepting connections.
    pub shutdown: bool,
}

impl Service {
    /// Creates a fresh service with zeroed counters.
    pub fn new() -> Service {
        Service::default()
    }

    /// Serves one validated request to completion, converting panics and
    /// scheduler quarantine into typed error responses.
    ///
    /// The request runs in the caller's [`JobCtx`] (so a progress sender
    /// the caller installed keeps receiving its events) with a quarantine
    /// sink of its own: a `quarantined` response lists the cells of this
    /// request's batches and no other's.
    pub fn handle(&self, request: &Request) -> Handled {
        self.requests.fetch_add(1, Ordering::Relaxed); // xtask-atomics: statistics counter surfaced by `status`; no ordering dependencies
        let shutdown = matches!(request, Request::Shutdown);
        let ctx = JobCtx::current().with_quarantine_sink();
        let outcome = ctx
            .clone()
            .enter(|| catch_unwind(AssertUnwindSafe(|| self.run(request))));
        let quarantined = ctx.quarantined();
        let response = if quarantined.is_empty() {
            match outcome {
                Ok(response) => response,
                Err(payload) => Response::Error {
                    code: ErrorCode::Internal,
                    message: panic_text(payload.as_ref()),
                    payload: None,
                },
            }
        } else {
            // The scheduler's summary panic (or a survived partial run)
            // with this request's quarantine records: report the cells,
            // typed.
            let records: Vec<Value> = quarantined
                .iter()
                .map(|r| {
                    Value::Obj(vec![
                        ("batch".into(), Value::str(r.batch)),
                        ("index".into(), Value::num_u64(r.index as u64)),
                        ("attempts".into(), Value::num_u64(u64::from(r.attempts))),
                        ("message".into(), Value::str(r.message.clone())),
                    ])
                })
                .collect();
            Response::Error {
                code: ErrorCode::Quarantined,
                message: experiments::QuarantineError {
                    cells: quarantined.len(),
                }
                .to_string(),
                payload: Some(Value::Obj(vec![
                    ("cells".into(), Value::num_u64(quarantined.len() as u64)),
                    ("records".into(), Value::Arr(records)),
                ])),
            }
        };
        Handled { response, shutdown }
    }

    fn run(&self, request: &Request) -> Response {
        match request {
            Request::Hello { version } => {
                if *version != PROTOCOL_VERSION {
                    return error_response(RequestError {
                        code: ErrorCode::UnsupportedVersion,
                        message: format!(
                            "this server speaks protocol version {PROTOCOL_VERSION}, not {version}"
                        ),
                    });
                }
                Response::HelloOk {
                    version: PROTOCOL_VERSION,
                }
            }
            Request::Simulate(spec) => match simulate(spec) {
                Ok(payload) => Response::Result { payload },
                Err(e) => error_response(e),
            },
            Request::Train(spec) => match train(spec) {
                Ok(payload) => Response::Result { payload },
                Err(e) => error_response(e),
            },
            Request::Eval(spec) => match eval(spec) {
                Ok(payload) => Response::Result { payload },
                Err(e) => error_response(e),
            },
            Request::Fleet(spec) => match fleet(spec) {
                Ok(payload) => Response::Result { payload },
                Err(e) => error_response(e),
            },
            Request::Status => Response::Result {
                payload: self.status_payload(),
            },
            Request::Shutdown => Response::Result {
                payload: Value::Obj(vec![("stopping".into(), Value::Bool(true))]),
            },
        }
    }

    fn status_payload(&self) -> Value {
        let stats = experiments::cache::stats();
        let cache = Value::Obj(vec![
            (
                "enabled".into(),
                Value::Bool(experiments::cache::is_enabled()),
            ),
            ("hits".into(), Value::num_u64(stats.hits)),
            ("misses".into(), Value::num_u64(stats.misses)),
            ("evictions".into(), Value::num_u64(stats.evictions)),
            ("stores".into(), Value::num_u64(stats.stores)),
            (
                "store-failures".into(),
                Value::num_u64(stats.store_failures),
            ),
        ]);
        Value::Obj(vec![
            ("version".into(), Value::num_u64(PROTOCOL_VERSION)),
            (
                "requests".into(),
                Value::num_u64(self.requests.load(Ordering::Relaxed)), // xtask-atomics: statistics counter; see fetch_add in handle
            ),
            ("cache".into(), cache),
            ("retries".into(), Value::num_u64(experiments::retry_count())),
            (
                "quarantined".into(),
                Value::num_u64(experiments::quarantine_report().len() as u64),
            ),
            (
                "max-retries".into(),
                Value::num_u64(u64::from(experiments::max_retries())),
            ),
        ])
    }
}

/// Resolves a SoC preset name: `xu3`, `xu3-cstates` or `symmetric`.
/// The CLI's `--soc` flag resolves through here too.
pub fn resolve_soc(name: &str) -> Result<SocConfig, RequestError> {
    let config = match name {
        "xu3" => SocConfig::odroid_xu3_like(),
        "xu3-cstates" => SocConfig::odroid_xu3_like_cstates(),
        "symmetric" => SocConfig::symmetric_quad(),
        other => {
            return Err(RequestError {
                code: ErrorCode::BadRequest,
                message: format!("unknown SoC preset {other:?} (xu3 | xu3-cstates | symmetric)"),
            })
        }
    };
    config.map_err(|e| RequestError {
        code: ErrorCode::Internal,
        message: format!("SoC preset failed validation: {e}"),
    })
}

/// Resolves a scenario name: the catalog plus `standby` (which sits
/// outside [`ScenarioKind::ALL`] because it delivers no QoS units). The
/// CLI's scenario arguments resolve through here too.
pub fn resolve_scenario(name: &str) -> Result<ScenarioKind, RequestError> {
    if name == ScenarioKind::Standby.name() {
        return Ok(ScenarioKind::Standby);
    }
    ScenarioKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            let mut names: Vec<&str> = ScenarioKind::ALL.iter().map(|k| k.name()).collect();
            names.push(ScenarioKind::Standby.name());
            RequestError {
                code: ErrorCode::BadRequest,
                message: format!("unknown scenario {name:?} (one of: {})", names.join(", ")),
            }
        })
}

/// Resolves a policy name (six baselines plus the RL variants). The
/// CLI's policy arguments resolve through here too.
pub fn resolve_policy(name: &str) -> Result<PolicyKind, RequestError> {
    if name == "rlpm" {
        return Ok(PolicyKind::Rl);
    }
    if name == "rlpm-hw" {
        return Ok(PolicyKind::RlHw);
    }
    GovernorKind::SIX_BASELINES
        .into_iter()
        .find(|k| k.name() == name)
        .map(PolicyKind::Baseline)
        .ok_or_else(|| RequestError {
            code: ErrorCode::BadRequest,
            message: format!(
                "unknown policy {name:?} (performance | powersave | ondemand | conservative | interactive | schedutil | rlpm | rlpm-hw)"
            ),
        })
}

fn error_response(e: RequestError) -> Response {
    Response::Error {
        code: e.code,
        message: e.message,
        payload: None,
    }
}

fn metrics_payload(m: &RunMetrics) -> Value {
    Value::Obj(vec![
        ("energy-j".into(), Value::Num(m.energy_j)),
        ("avg-power-w".into(), Value::Num(m.avg_power_w)),
        ("energy-per-qos".into(), Value::Num(m.energy_per_qos)),
        ("qos-ratio".into(), Value::Num(m.qos.qos_ratio())),
        ("violations".into(), Value::num_u64(m.qos.violations)),
        ("on-time".into(), Value::num_u64(m.qos.on_time)),
        ("completed".into(), Value::num_u64(m.qos.completed)),
        ("transitions".into(), Value::num_u64(m.transitions)),
        ("epochs".into(), Value::num_u64(m.epochs)),
    ])
}

fn simulate(spec: &SimulateSpec) -> Result<Value, RequestError> {
    let soc_cfg = resolve_soc(&spec.soc)?;
    let scenario = resolve_scenario(&spec.scenario)?;
    let policy = resolve_policy(&spec.policy)?;
    let Some(m) = eval_cell(
        &soc_cfg,
        scenario,
        policy,
        TrainingProtocol::default(),
        spec.seed,
        RunConfig::seconds(spec.secs),
    ) else {
        return Err(RequestError {
            code: ErrorCode::Internal,
            message: "simulation failed to run".into(),
        });
    };
    Ok(Value::Obj(vec![
        ("scenario".into(), Value::str(spec.scenario.clone())),
        ("policy".into(), Value::str(spec.policy.clone())),
        ("soc".into(), Value::str(spec.soc.clone())),
        ("secs".into(), Value::num_u64(spec.secs)),
        ("seed".into(), Value::num_u64(spec.seed)),
        ("metrics".into(), metrics_payload(&m)),
    ]))
}

fn train(spec: &TrainSpec) -> Result<Value, RequestError> {
    let soc_cfg = resolve_soc(&spec.soc)?;
    let scenario = resolve_scenario(&spec.scenario)?;
    let policy = train_rl_governor(
        &soc_cfg,
        scenario,
        TrainingProtocol {
            episodes: spec.episodes,
            episode_secs: spec.episode_secs,
        },
        spec.seed,
    );
    let bytes = rlpm::persist::save_policy(&policy);
    Ok(Value::Obj(vec![
        ("scenario".into(), Value::str(spec.scenario.clone())),
        ("soc".into(), Value::str(spec.soc.clone())),
        ("episodes".into(), Value::num_u64(u64::from(spec.episodes))),
        ("episode-secs".into(), Value::num_u64(spec.episode_secs)),
        ("seed".into(), Value::num_u64(spec.seed)),
        ("updates".into(), Value::num_u64(policy.agent().updates())),
        (
            "states".into(),
            Value::num_u64(policy.config().num_states() as u64),
        ),
        ("artifact-bytes".into(), Value::num_u64(bytes.len() as u64)),
        (
            "artifact-fnv".into(),
            Value::str(format!("{:016x}", rlpm::persist::fnv1a64(&bytes))),
        ),
    ]))
}

fn eval(spec: &EvalSpec) -> Result<Value, RequestError> {
    if spec.experiment != "e1" {
        return Err(RequestError {
            code: ErrorCode::BadRequest,
            message: format!(
                "unknown experiment {:?} (only \"e1\" is served)",
                spec.experiment
            ),
        });
    }
    // Same SoC and config as `regen-tables`' E1 section, so the CSV is
    // byte-identical to `results/e1_energy_per_qos.csv`.
    let soc_cfg = resolve_soc("xu3")?;
    let config = if spec.quick {
        E1Config::quick()
    } else {
        E1Config::default()
    };
    let result = run_e1(&soc_cfg, &config);
    Ok(Value::Obj(vec![
        ("experiment".into(), Value::str("e1")),
        ("quick".into(), Value::Bool(spec.quick)),
        (
            "csv".into(),
            Value::str(result.energy_per_qos_table().to_csv()),
        ),
    ]))
}

fn fleet(spec: &FleetSpec) -> Result<Value, RequestError> {
    if spec.lanes == 0 || spec.lanes > MAX_FLEET_LANES {
        return Err(RequestError {
            code: ErrorCode::BadRequest,
            message: format!("\"lanes\" must be in 1..={MAX_FLEET_LANES}"),
        });
    }
    let soc_cfg = resolve_soc(&spec.soc)?;
    let scenario = resolve_scenario(&spec.scenario)?;
    let policy = resolve_policy(&spec.policy)?;
    // Built by the same call as `rlpm-sim fleet`, so the lanes are the same.
    let (mut batch, mut lanes) = build_fleet(
        &soc_cfg,
        scenario,
        policy,
        TrainingProtocol::default(),
        spec.lanes as usize,
        spec.seed,
    )
    .map_err(|e| RequestError {
        code: ErrorCode::Internal,
        message: format!("fleet construction failed: {e}"),
    })?;
    let metrics = run_batch(&mut batch, &mut lanes, RunConfig::seconds(spec.secs));

    let total_energy: f64 = metrics.iter().map(|m| m.energy_j).sum();
    let total_violations: u64 = metrics.iter().map(|m| m.qos.violations).sum();
    let total_transitions: u64 = metrics.iter().map(|m| m.transitions).sum();
    let mean_qos =
        metrics.iter().map(|m| m.qos.qos_ratio()).sum::<f64>() / metrics.len().max(1) as f64;
    Ok(Value::Obj(vec![
        ("scenario".into(), Value::str(spec.scenario.clone())),
        ("policy".into(), Value::str(spec.policy.clone())),
        ("soc".into(), Value::str(spec.soc.clone())),
        ("lanes".into(), Value::num_u64(spec.lanes)),
        ("secs".into(), Value::num_u64(spec.secs)),
        ("seed".into(), Value::num_u64(spec.seed)),
        ("total-energy-j".into(), Value::Num(total_energy)),
        (
            "mean-energy-j".into(),
            Value::Num(total_energy / metrics.len().max(1) as f64),
        ),
        ("mean-qos-ratio".into(), Value::Num(mean_qos)),
        ("violations".into(), Value::num_u64(total_violations)),
        ("transitions".into(), Value::num_u64(total_transitions)),
    ]))
}

pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_resolution_matches_the_cli_catalogues() {
        assert!(resolve_scenario("video").is_ok());
        assert!(resolve_scenario("standby").is_ok());
        assert!(resolve_scenario("nope").is_err());
        assert!(resolve_policy("schedutil").is_ok());
        assert!(resolve_policy("rlpm").is_ok());
        assert!(resolve_policy("rlpm-hw").is_ok());
        assert!(resolve_policy("turbo").is_err());
        assert!(resolve_soc("xu3").is_ok());
        assert!(resolve_soc("xu3-cstates").is_ok());
        assert!(resolve_soc("symmetric").is_ok());
        assert!(resolve_soc("zen5").is_err());
    }

    #[test]
    fn hello_negotiates_and_rejects_future_versions() {
        let service = Service::new();
        let h = service.handle(&Request::Hello {
            version: PROTOCOL_VERSION,
        });
        assert_eq!(
            h.response,
            Response::HelloOk {
                version: PROTOCOL_VERSION
            }
        );
        assert!(!h.shutdown);
        let h = service.handle(&Request::Hello {
            version: PROTOCOL_VERSION + 1,
        });
        assert!(matches!(
            h.response,
            Response::Error {
                code: ErrorCode::UnsupportedVersion,
                ..
            }
        ));
    }

    #[test]
    fn shutdown_is_acknowledged_then_signalled() {
        let service = Service::new();
        let h = service.handle(&Request::Shutdown);
        assert!(h.shutdown);
        assert!(matches!(h.response, Response::Result { .. }));
    }

    #[test]
    fn status_reports_request_count_and_cache_state() {
        let service = Service::new();
        let _ = service.handle(&Request::Status);
        let h = service.handle(&Request::Status);
        let Response::Result { payload } = h.response else {
            panic!("status must succeed");
        };
        assert_eq!(
            payload.get("requests").and_then(Value::as_u64),
            Some(2),
            "both status requests counted"
        );
        assert!(payload
            .get("cache")
            .and_then(|c| c.get("enabled"))
            .is_some());
        assert_eq!(
            payload.get("version").and_then(Value::as_u64),
            Some(PROTOCOL_VERSION)
        );
    }

    #[test]
    fn oversized_fleet_is_rejected_typed() {
        let service = Service::new();
        let h = service.handle(&Request::Fleet(crate::proto::FleetSpec {
            scenario: "idle".into(),
            policy: "ondemand".into(),
            soc: "xu3".into(),
            lanes: MAX_FLEET_LANES + 1,
            secs: 1,
            seed: 42,
        }));
        assert!(matches!(
            h.response,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }
}
