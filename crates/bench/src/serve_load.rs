//! Serve-path load measurement: requests per wall-second against an
//! in-process `rlpm-serve` server, cold (empty result cache) versus warm
//! (every sweep cell answered from disk), plus warm-tail latency.
//!
//! The measured request is the cached E1 sweep (`eval` with the quick
//! configuration) — the protocol path heavy traffic actually exercises:
//! the first request prices the whole sweep, every later identical
//! request is a content-addressed cache hit. The `serve-bench` binary
//! writes the report to `BENCH_serve.json` through [`rlpm_serve::json`].

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use rlpm_serve::client::request_over_socket;
use rlpm_serve::json::Value;
use rlpm_serve::Server;

use crate::simrate::milli;

/// Shape of one serve-load measurement pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeLoadConfig {
    /// Concurrent client connections in the warm phase.
    pub connections: u32,
    /// Total warm-phase requests, spread across the connections.
    pub warm_requests: u32,
}

impl Default for ServeLoadConfig {
    fn default() -> Self {
        ServeLoadConfig {
            connections: 4,
            warm_requests: 32,
        }
    }
}

impl ServeLoadConfig {
    /// A reduced pass for CI smoke runs.
    pub fn quick() -> Self {
        ServeLoadConfig {
            connections: 2,
            warm_requests: 8,
        }
    }
}

/// One measured phase: request count, wall time, and derived rates.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Requests completed in the phase.
    pub requests: u32,
    /// Wall-clock seconds for the whole phase.
    pub wall_s: f64,
    /// Requests per wall-second.
    pub rps: f64,
    /// 99th-percentile per-request latency, milliseconds.
    pub p99_ms: f64,
}

impl PhaseStats {
    fn from_latencies(latencies: &mut [f64], wall_s: f64) -> PhaseStats {
        latencies.sort_by(|a, b| a.total_cmp(b));
        let n = latencies.len();
        let idx = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
        let p99_s = latencies.get(idx).copied().unwrap_or(0.0);
        let wall_s = wall_s.max(1e-9);
        PhaseStats {
            requests: n as u32,
            wall_s,
            rps: n as f64 / wall_s,
            p99_ms: p99_s * 1000.0,
        }
    }
}

/// The persisted report: cold and warm phases plus the headline ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Configuration of the measurement pass.
    pub config: ServeLoadConfig,
    /// The first request against an empty cache (prices the whole sweep).
    pub cold: PhaseStats,
    /// Identical requests once every cell is cached.
    pub warm: PhaseStats,
}

impl ServeReport {
    /// Warm-over-cold throughput ratio — the number the CI gate holds.
    pub fn warm_over_cold(&self) -> f64 {
        self.warm.rps / self.cold.rps.max(1e-12)
    }

    /// The report as a JSON value (schema 1). The file `serve-bench`
    /// writes is its [`Value::render_pretty`] plus a newline.
    pub fn to_value(&self) -> Value {
        let phase = |p: &PhaseStats| {
            Value::Obj(vec![
                ("requests".into(), Value::num_u64(u64::from(p.requests))),
                ("wall_s".into(), milli(p.wall_s)),
                ("rps".into(), milli(p.rps)),
                ("p99_ms".into(), milli(p.p99_ms)),
            ])
        };
        let config = Value::Obj(vec![
            (
                "connections".into(),
                Value::num_u64(u64::from(self.config.connections)),
            ),
            (
                "warm_requests".into(),
                Value::num_u64(u64::from(self.config.warm_requests)),
            ),
        ]);
        Value::Obj(vec![
            ("schema".into(), Value::num_u64(1)),
            (
                "unit".into(),
                Value::str("requests per wall-second, cached E1 eval"),
            ),
            ("config".into(), config),
            ("cold".into(), phase(&self.cold)),
            ("warm".into(), phase(&self.warm)),
            ("warm_over_cold".into(), milli(self.warm_over_cold())),
        ])
    }
}

/// The request every phase issues: the quick E1 sweep.
pub const EVAL_REQUEST: &str = "{\"type\":\"eval\",\"experiment\":\"e1\",\"quick\":true}";

fn eval_csv(path: &Path) -> Value {
    let response = request_over_socket(path, EVAL_REQUEST, |_| {}).expect("request round-trips");
    assert_eq!(
        response.get("type").and_then(Value::as_str),
        Some("result"),
        "eval request must succeed, got {response:?}"
    );
    response
        .get("payload")
        .and_then(|p| p.get("csv"))
        .cloned()
        .expect("eval payload carries a csv field")
}

/// Measures cold-versus-warm serve throughput against an in-process
/// server on `socket`.
///
/// The caller is responsible for pointing the result cache at a **fresh**
/// directory first (`experiments::cache::configure`); the cold number is
/// only honest when the first request computes every sweep cell. Every
/// warm response's CSV is asserted identical to the cold one — the
/// requests are priced only because they are provably the same work.
pub fn measure(config: &ServeLoadConfig, socket: &Path) -> ServeReport {
    let server = Server::bind(socket).expect("bind serve socket");
    let server_thread = std::thread::spawn(move || server.run());

    // Cold: one request against the empty cache.
    let start = Instant::now();
    let cold_csv = eval_csv(socket);
    let cold_wall = start.elapsed().as_secs_f64();
    let cold = PhaseStats::from_latencies(&mut [cold_wall], cold_wall);

    // Warm: the same request, spread over concurrent connections.
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let per_connection = config.warm_requests.div_ceil(config.connections.max(1));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.connections.max(1) {
            scope.spawn(|| {
                for _ in 0..per_connection {
                    let t = Instant::now();
                    let csv = eval_csv(socket);
                    let dt = t.elapsed().as_secs_f64();
                    assert_eq!(csv, cold_csv, "warm CSV diverged from the cold run");
                    latencies.lock().expect("latency vector lock").push(dt);
                }
            });
        }
    });
    let warm_wall = start.elapsed().as_secs_f64();
    let mut warm_latencies = latencies.into_inner().expect("latency vector lock");
    let warm = PhaseStats::from_latencies(&mut warm_latencies, warm_wall);

    let response = request_over_socket(socket, "{\"type\":\"shutdown\"}", |_| {})
        .expect("shutdown round-trips");
    assert_eq!(
        response.get("type").and_then(Value::as_str),
        Some("result"),
        "shutdown must be acknowledged"
    );
    let join = server_thread.join().expect("server thread exits cleanly");
    join.expect("server run loop exits without io errors");

    ServeReport {
        config: *config,
        cold,
        warm,
    }
}

/// A socket path under the system temp dir, unique to this process.
pub fn scratch_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rlpm-serve-{tag}-{}.sock", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeReport {
        ServeReport {
            config: ServeLoadConfig::default(),
            cold: PhaseStats {
                requests: 1,
                wall_s: 4.2,
                rps: 0.238,
                p99_ms: 4200.0,
            },
            warm: PhaseStats {
                requests: 32,
                wall_s: 1.6,
                rps: 20.0,
                p99_ms: 310.5,
            },
        }
    }

    #[test]
    fn json_round_trips() {
        let value = sample().to_value();
        let parsed = rlpm_serve::json::parse(&value.render_pretty());
        assert_eq!(parsed.as_ref(), Ok(&value));
        let warm_rps = value.get("warm").and_then(|w| w.get("rps"));
        assert_eq!(warm_rps.and_then(Value::as_f64), Some(20.0));
        let ratio = value.get("warm_over_cold").and_then(Value::as_f64);
        assert_eq!(ratio, Some(84.034), "ratios keep three decimals");
    }

    #[test]
    fn warm_over_cold_is_a_throughput_ratio() {
        let report = sample();
        assert!((report.warm_over_cold() - 20.0 / 0.238).abs() < 1e-9);
    }

    #[test]
    fn p99_is_the_tail_of_the_sorted_latencies() {
        let mut latencies: Vec<f64> = (1..=100).map(f64::from).collect();
        let stats = PhaseStats::from_latencies(&mut latencies, 10.0);
        assert_eq!(stats.requests, 100);
        assert!((stats.p99_ms - 99_000.0).abs() < 1e-6);
        assert!((stats.rps - 10.0).abs() < 1e-9);
        let mut one = vec![0.5];
        let stats = PhaseStats::from_latencies(&mut one, 0.5);
        assert!((stats.p99_ms - 500.0).abs() < 1e-9);
    }

    #[test]
    fn eval_request_line_is_valid_protocol() {
        let parsed = rlpm_serve::json::parse(EVAL_REQUEST).expect("request parses as JSON");
        assert!(rlpm_serve::proto::parse_request(&parsed).is_ok());
    }
}
