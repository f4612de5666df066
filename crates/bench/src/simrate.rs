//! Sim-rate measurement: simulated-seconds per wall-second for the
//! closed-loop simulator, cell by cell over the E1 matrix shape
//! (scenario × policy), plus per-scenario and whole-matrix aggregates —
//! and, since schema 2, device-seconds per wall-second for batched
//! multi-device (fleet) simulation against the looped single-device
//! equivalent. Both fleet sides run on one thread (the batched side at
//! one shard, `RLPM_THREADS=1`), so their ratio prices the batched
//! engine rather than the host's core count; the sharded rate at the
//! process's own thread budget is measured and printed beside it, but
//! not persisted.
//!
//! Results are persisted to `BENCH_simrate.json` so the performance
//! trajectory of the substrate is tracked across PRs: the
//! `single_device.baseline` section is recorded once (with `--baseline`)
//! and preserved verbatim by later runs, which only rewrite the
//! `current`, `speedup` and fleet sections. The JSON is emitted and
//! parsed by this module (the workspace builds offline, without serde),
//! so the format is deliberately rigid: nested objects, string or number
//! values, no escapes. Schema-1 files (flat single-device layout) are
//! still parsed, so regeneration migrates them in place.

use std::time::Instant;

use experiments::e1_energy_per_qos::E1Config;
use experiments::{
    build_fleet, fleet_lane_seed, run, run_batch, PolicyKind, RunConfig, TrainingProtocol,
};
use governors::GovernorKind;
use soc::{Soc, SocConfig};
use workload::ScenarioKind;

/// Shape of one sim-rate measurement pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRateConfig {
    /// Simulated seconds of frozen evaluation per cell.
    pub eval_secs: u64,
    /// Training protocol for the RL policies (training wall-time and
    /// simulated time are part of the cell, exactly as in the E1 matrix).
    pub training: TrainingProtocol,
    /// Seed for the single measured run per cell.
    pub seed: u64,
}

impl Default for SimRateConfig {
    fn default() -> Self {
        SimRateConfig {
            eval_secs: 120,
            training: TrainingProtocol::quick(),
            seed: 11,
        }
    }
}

impl SimRateConfig {
    /// A reduced pass for CI smoke runs.
    pub fn quick() -> Self {
        SimRateConfig {
            eval_secs: 10,
            ..SimRateConfig::default()
        }
    }
}

/// One measured section (baseline or current): sim-rate per cell, per
/// scenario and for the whole matrix, in simulated-seconds per
/// wall-second.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Free-form description of the code state that produced the numbers.
    pub label: String,
    /// Whole-matrix rate: total simulated seconds / total wall seconds.
    pub e1_matrix: f64,
    /// Per-scenario rates, in scenario catalog order.
    pub per_scenario: Vec<(String, f64)>,
    /// Per-cell rates (`scenario/policy`), scenario-major.
    pub per_cell: Vec<(String, f64)>,
    /// Whether the measuring binary was built with the `obs` feature
    /// ([`simkit::obs::enabled`]), whose instrumented build reads
    /// 30–50% slower. Files written before the field existed read as
    /// `false`.
    pub obs: bool,
}

/// Runs the measurement matrix sequentially (stable wall-clock numbers;
/// parallelism would measure scheduler contention instead of the
/// simulator).
///
/// `repeat` re-runs every cell that many times and keeps the **fastest**
/// wall time — the standard least-interference estimator for wall-clock
/// micro-benchmarks (every run does identical deterministic work, so any
/// excess over the minimum is scheduler/host noise, not simulator cost).
/// Use `1` for a single-shot pass on a quiet machine.
pub fn measure(
    soc_config: &SocConfig,
    config: &SimRateConfig,
    label: &str,
    repeat: u32,
) -> Measurement {
    let repeat = repeat.max(1);
    let scenarios = E1Config::default().scenarios;
    let policies = PolicyKind::evaluation_set();
    let mut per_cell = Vec::new();
    let mut per_scenario = Vec::new();
    let mut total_sim = 0.0;
    let mut total_wall = 0.0;
    for &scenario in &scenarios {
        let mut scenario_sim = 0.0;
        let mut scenario_wall = 0.0;
        for &policy in &policies {
            // Simulated seconds covered by the cell: online training (RL
            // variants only) plus the frozen evaluation, as in E1.
            let train_sim = match policy {
                PolicyKind::Baseline(_) => 0,
                _ => u64::from(config.training.episodes) * config.training.episode_secs,
            };
            let sim_s = (train_sim + config.eval_secs) as f64;

            let mut wall_s = f64::INFINITY;
            for _ in 0..repeat {
                let start = Instant::now();
                let mut soc = Soc::new(soc_config.clone()).expect("validated config");
                let mut governor =
                    policy.build_trained(soc_config, scenario, config.training, config.seed);
                let mut scenario_inst =
                    scenario.build(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
                let metrics = run(
                    &mut soc,
                    scenario_inst.as_mut(),
                    governor.as_mut(),
                    RunConfig::seconds(config.eval_secs),
                );
                assert!(metrics.epochs > 0, "measured run must simulate something");
                wall_s = wall_s.min(start.elapsed().as_secs_f64().max(1e-9));
            }

            per_cell.push((
                format!("{}/{}", scenario.name(), policy.name()),
                sim_s / wall_s,
            ));
            scenario_sim += sim_s;
            scenario_wall += wall_s;
        }
        per_scenario.push((scenario.name().to_owned(), scenario_sim / scenario_wall));
        total_sim += scenario_sim;
        total_wall += scenario_wall;
    }
    Measurement {
        label: label.to_owned(),
        e1_matrix: total_sim / total_wall,
        per_scenario,
        per_cell,
        obs: simkit::obs::enabled(),
    }
}

/// One fleet workload's throughput pair: device-seconds per wall-second
/// for N looped single-device runs and for the batched engine on the
/// identical lanes, both on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRate {
    /// Fleet workload name (the scenario driving every lane).
    pub name: String,
    /// Looped rate: N sequential [`run`] calls, device-seconds per wall-second.
    pub looped: f64,
    /// Batched rate: one [`run_batch`] over the same lanes at one shard
    /// (`RLPM_THREADS=1`), the looped side's thread budget.
    pub batched: f64,
    /// Sharded rate: the same [`run_batch`] at the process's thread
    /// budget. Printed beside the ratio but neither persisted nor gated,
    /// so `None` when read back from a file.
    pub sharded: Option<f64>,
}

impl FleetRate {
    /// Batched-over-looped speedup.
    pub fn speedup(&self) -> f64 {
        self.batched / self.looped
    }
}

/// The `device_seconds_per_wall_second` section: batched multi-device
/// simulation measured against the looped single-device equivalent, per
/// fleet workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMeasurement {
    /// Free-form description of the code state that produced the numbers.
    pub label: String,
    /// Devices stepped in lockstep (and looped, for the baseline side).
    pub lanes: u32,
    /// Simulated seconds per device.
    pub fleet_secs: u64,
    /// Per-workload rates, standby first (the headline row).
    pub fleets: Vec<FleetRate>,
    /// Whether the measuring binary was built with the `obs` feature, as
    /// [`Measurement::obs`].
    pub obs: bool,
}

/// The fleet workloads the batch section measures: the deep-idle regime
/// the batched engine exists for (`standby`), the near-idle catalog floor
/// with periodic wake-ups (`idle`), and a mostly-busy mixture (`mixed`)
/// as the honest worst case — batching cannot speed up lanes that are
/// actually executing work.
pub const FLEET_WORKLOADS: [ScenarioKind; 3] = [
    ScenarioKind::Standby,
    ScenarioKind::Idle,
    ScenarioKind::Mixed,
];

/// Measures device-seconds per wall-second for looped vs batched fleet
/// simulation over [`FLEET_WORKLOADS`], `lanes` devices per fleet, every
/// lane driven by the `ondemand` governor with its own scenario seed.
///
/// Both sides run the identical lane set — same seeds, same epochs — and
/// the per-lane total energies are asserted bit-identical, so the two
/// wall-clock times price exactly the same simulated work. They also get
/// the same thread budget: the looped runs go one after another on one
/// thread, and the batched side runs at one shard (`RLPM_THREADS=1`).
/// So the ratio measures the batched engine, not the host's core count;
/// the sharded rate, at the process's own budget, is measured on top
/// ([`FleetRate::sharded`]). The two gated sides run as `repeat`
/// interleaved pairs, the side that goes first flipping each pair, and
/// each side's rate is from its median wall time: a host that drifts
/// during the measurement moves both sides alike, so their ratio holds
/// where keeping each side's best of a block of runs would not.
pub fn measure_fleet(
    soc_config: &SocConfig,
    lanes: u32,
    fleet_secs: u64,
    seed: u64,
    label: &str,
    repeat: u32,
) -> BatchMeasurement {
    let device_secs = f64::from(lanes) * fleet_secs as f64;
    let mut fleets = Vec::new();
    for kind in FLEET_WORKLOADS {
        // One looped pass: its wall time and each lane's energy bits.
        let looped = || {
            let start = Instant::now();
            let energies: Vec<u64> = (0..lanes)
                .map(|i| {
                    let mut soc = Soc::new(soc_config.clone()).expect("validated config");
                    let mut scenario = kind.build(fleet_lane_seed(seed, u64::from(i)));
                    let mut governor = GovernorKind::Ondemand.build(soc_config);
                    let config = RunConfig::seconds(fleet_secs);
                    run(&mut soc, scenario.as_mut(), governor.as_mut(), config)
                        .energy_j
                        .to_bits()
                })
                .collect();
            (start.elapsed().as_secs_f64().max(1e-9), energies)
        };
        // One batched pass, every lane checked against its looped run.
        let batched = |looped_energy: &[u64]| {
            let start = Instant::now();
            let (mut batch, mut batch_lanes) = build_fleet(
                soc_config,
                kind,
                PolicyKind::Baseline(GovernorKind::Ondemand),
                TrainingProtocol::quick(),
                lanes as usize,
                seed,
            )
            .expect("validated config");
            let metrics = run_batch(&mut batch, &mut batch_lanes, RunConfig::seconds(fleet_secs));
            let wall = start.elapsed().as_secs_f64().max(1e-9);
            for (lane, m) in metrics.iter().enumerate() {
                assert_eq!(
                    m.energy_j.to_bits(),
                    looped_energy[lane],
                    "lane {lane} of {kind} diverged from its looped run"
                );
            }
            wall
        };
        let (mut looped_walls, mut batched_walls, mut energy) =
            (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..repeat.max(1) {
            // Pair 0 runs looped first, so the energies are there to check.
            let looped_first = pair.is_multiple_of(2);
            if looped_first {
                let (wall, energies) = looped();
                looped_walls.push(wall);
                energy = energies;
            }
            batched_walls.push(with_threads("1", || batched(&energy)));
            if !looped_first {
                looped_walls.push(looped().0);
            }
        }
        let sharded_walls: Vec<f64> = (0..repeat.max(1)).map(|_| batched(&energy)).collect();

        fleets.push(FleetRate {
            name: kind.name().to_owned(),
            looped: device_secs / median(looped_walls),
            batched: device_secs / median(batched_walls),
            sharded: Some(device_secs / median(sharded_walls)),
        });
    }
    BatchMeasurement {
        label: label.to_owned(),
        lanes,
        fleet_secs,
        fleets,
        obs: simkit::obs::enabled(),
    }
}

/// The median of `walls` (the mean of the middle two for an even count).
fn median(mut walls: Vec<f64>) -> f64 {
    walls.sort_by(f64::total_cmp);
    let mid = walls.len() / 2;
    if walls.len().is_multiple_of(2) {
        (walls[mid - 1] + walls[mid]) / 2.0
    } else {
        walls[mid]
    }
}

/// Runs `f` with `RLPM_THREADS` set to `threads`, then restores the
/// variable. The fleet measurement runs on one thread, so nothing reads
/// the variable concurrently.
fn with_threads<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    let saved = std::env::var_os("RLPM_THREADS");
    std::env::set_var("RLPM_THREADS", threads);
    let out = f();
    match saved {
        Some(value) => std::env::set_var("RLPM_THREADS", value),
        None => std::env::remove_var("RLPM_THREADS"),
    }
    out
}

/// The persisted report: a baseline section (recorded once, kept across
/// runs) and the current section, plus derived speedups.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Configuration of the measurement pass.
    pub config: SimRateConfig,
    /// The pinned pre-optimisation numbers.
    pub baseline: Option<Measurement>,
    /// The most recent numbers.
    pub current: Option<Measurement>,
    /// The most recent batched-fleet numbers (schema 2).
    pub batch: Option<BatchMeasurement>,
}

/// The speedup the batched engine is held to on the `standby` fleet at
/// 256 lanes, recorded next to the measured numbers.
pub const BATCH_TARGET_SPEEDUP: f64 = 5.0;

impl Report {
    /// An empty report for `config`.
    pub fn new(config: SimRateConfig) -> Self {
        Report {
            config,
            baseline: None,
            current: None,
            batch: None,
        }
    }

    /// Speedup of `current` over `baseline` for the whole matrix and per
    /// scenario; `None` until both sections exist.
    pub fn speedups(&self) -> Option<Vec<(String, f64)>> {
        let (base, cur) = (self.baseline.as_ref()?, self.current.as_ref()?);
        let mut out = vec![("e1_matrix".to_owned(), cur.e1_matrix / base.e1_matrix)];
        for (name, cur_rate) in &cur.per_scenario {
            if let Some((_, base_rate)) = base.per_scenario.iter().find(|(n, _)| n == name) {
                out.push((name.clone(), cur_rate / base_rate));
            }
        }
        Some(out)
    }

    /// Serialises the report as JSON (schema 2: single-device numbers
    /// under `single_device`, fleet numbers under
    /// `device_seconds_per_wall_second`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": 2,\n");
        s.push_str("  \"unit\": \"simulated-seconds per wall-second\",\n");
        s.push_str("  \"config\": {\n");
        s.push_str(&format!("    \"eval_secs\": {},\n", self.config.eval_secs));
        s.push_str(&format!(
            "    \"train_episodes\": {},\n",
            self.config.training.episodes
        ));
        s.push_str(&format!(
            "    \"train_episode_secs\": {},\n",
            self.config.training.episode_secs
        ));
        s.push_str(&format!("    \"seed\": {}\n", self.config.seed));
        s.push_str("  },\n");
        s.push_str("  \"single_device\": {");
        let mut first = true;
        for (name, section) in [("baseline", &self.baseline), ("current", &self.current)] {
            if let Some(m) = section {
                s.push_str(if first { "\n" } else { ",\n" });
                first = false;
                s.push_str(&format!("    \"{name}\": {}", json_measurement(m)));
            }
        }
        if let Some(speedups) = self.speedups() {
            s.push_str(if first { "\n" } else { ",\n" });
            first = false;
            s.push_str("    \"speedup\": {\n");
            let lines: Vec<String> = speedups
                .iter()
                .map(|(k, v)| format!("      \"{k}\": {}", json_num(*v)))
                .collect();
            s.push_str(&lines.join(",\n"));
            s.push_str("\n    }");
        }
        s.push_str(if first { "}" } else { "\n  }" });
        if let Some(b) = &self.batch {
            s.push_str(",\n  \"device_seconds_per_wall_second\": {\n");
            s.push_str(&format!("    \"label\": \"{}\",\n", b.label));
            s.push_str(&format!("    \"lanes\": {},\n", b.lanes));
            s.push_str(&format!("    \"fleet_secs\": {},\n", b.fleet_secs));
            s.push_str(&format!("    \"obs\": {},\n", b.obs));
            s.push_str(&format!(
                "    \"target_speedup\": {},\n",
                json_num(BATCH_TARGET_SPEEDUP)
            ));
            s.push_str("    \"fleets\": {\n");
            let lines: Vec<String> = b
                .fleets
                .iter()
                .map(|f| {
                    format!(
                        "      \"{}\": {{\n        \"looped\": {},\n        \"batched\": {},\n        \"speedup\": {}\n      }}",
                        f.name,
                        json_num(f.looped),
                        json_num(f.batched),
                        json_num(f.speedup())
                    )
                })
                .collect();
            s.push_str(&lines.join(",\n"));
            s.push_str("\n    }\n  }");
        }
        s.push_str("\n}\n");
        s
    }

    /// Parses a report previously written by [`Report::to_json`] —
    /// schema 2, or the flat schema-1 layout older files used (those
    /// migrate to schema 2 on the next write). Returns `None` when the
    /// text does not look like either (corrupt file, unknown schema):
    /// callers then start fresh.
    pub fn from_json(text: &str) -> Option<Report> {
        let schema = extract_number(text, "schema")?;
        if schema != 1.0 && schema != 2.0 {
            return None;
        }
        let config_block = extract_object(text, "config")?;
        let config = SimRateConfig {
            eval_secs: extract_number(&config_block, "eval_secs")? as u64,
            training: TrainingProtocol {
                episodes: extract_number(&config_block, "train_episodes")? as u32,
                episode_secs: extract_number(&config_block, "train_episode_secs")? as u64,
            },
            seed: extract_number(&config_block, "seed")? as u64,
        };
        // `extract_object` searches the whole text, so the measurement
        // sections parse identically whether they sit at the top level
        // (schema 1) or inside `single_device` (schema 2).
        let parse_section = |name: &str| -> Option<Measurement> {
            let block = extract_object(text, name)?;
            Some(Measurement {
                label: extract_string(&block, "label")?,
                e1_matrix: extract_number(&block, "e1_matrix")?,
                per_scenario: extract_pairs(&extract_object(&block, "per_scenario")?),
                per_cell: extract_pairs(&extract_object(&block, "per_cell")?),
                obs: extract_bool(&block, "obs").unwrap_or(false),
            })
        };
        let batch = extract_object(text, "device_seconds_per_wall_second").and_then(|block| {
            let fleets_block = extract_object(&block, "fleets")?;
            let fleets = FLEET_WORKLOADS
                .iter()
                .filter_map(|kind| {
                    let f = extract_object(&fleets_block, kind.name())?;
                    Some(FleetRate {
                        name: kind.name().to_owned(),
                        looped: extract_number(&f, "looped")?,
                        batched: extract_number(&f, "batched")?,
                        sharded: None,
                    })
                })
                .collect();
            Some(BatchMeasurement {
                label: extract_string(&block, "label")?,
                lanes: extract_number(&block, "lanes")? as u32,
                fleet_secs: extract_number(&block, "fleet_secs")? as u64,
                obs: extract_bool(&block, "obs").unwrap_or(false),
                fleets,
            })
        });
        Some(Report {
            config,
            baseline: parse_section("baseline"),
            current: parse_section("current"),
            batch,
        })
    }
}

pub(crate) fn json_num(v: f64) -> String {
    // Three decimals are plenty for rates; fixed formatting keeps diffs
    // readable.
    format!("{v:.3}")
}

fn json_measurement(m: &Measurement) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("    \"label\": \"{}\",\n", m.label));
    s.push_str(&format!("    \"obs\": {},\n", m.obs));
    s.push_str(&format!("    \"e1_matrix\": {},\n", json_num(m.e1_matrix)));
    for (name, pairs) in [("per_scenario", &m.per_scenario), ("per_cell", &m.per_cell)] {
        s.push_str(&format!("    \"{name}\": {{\n"));
        let lines: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("      \"{k}\": {}", json_num(*v)))
            .collect();
        s.push_str(&lines.join(",\n"));
        s.push_str("\n    }");
        s.push_str(if name == "per_scenario" { ",\n" } else { "\n" });
    }
    s.push_str("  }");
    s
}

/// The text of the `{...}` object bound to `"key"`, braces excluded.
/// Searches the outermost occurrence only (keys are unique per level in
/// the format we emit, and nested objects never repeat top-level keys).
pub(crate) fn extract_object(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": {{");
    let start = text.find(&pat)? + pat.len();
    let mut depth = 1usize;
    for (i, c) in text[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[start..start + i].to_owned());
                }
            }
            _ => {}
        }
    }
    None
}

/// The numeric value bound to `"key"` (first occurrence).
pub(crate) fn extract_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string value bound to `"key"` (no escape handling; labels we emit
/// contain none).
pub(crate) fn extract_string(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// The boolean value bound to `"key"`, searched like
/// [`extract_string`].
pub(crate) fn extract_bool(text: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\": ");
    let rest = &text[text.find(&pat)? + pat.len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// All `"key": number` pairs of a flat object body, in order.
pub(crate) fn extract_pairs(body: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, value)) = rest.split_once("\": ") else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            out.push((key.to_owned(), v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            config: SimRateConfig::default(),
            baseline: Some(Measurement {
                label: "pre-optimisation".into(),
                e1_matrix: 100.5,
                per_scenario: vec![("idle".into(), 400.25), ("video".into(), 80.125)],
                per_cell: vec![
                    ("idle/powersave".into(), 500.0),
                    ("video/rlpm".into(), 60.0),
                ],
                obs: false,
            }),
            current: Some(Measurement {
                label: "optimised".into(),
                e1_matrix: 350.0,
                per_scenario: vec![("idle".into(), 2100.0), ("video".into(), 250.0)],
                per_cell: vec![
                    ("idle/powersave".into(), 2800.0),
                    ("video/rlpm".into(), 200.0),
                ],
                obs: true,
            }),
            batch: Some(BatchMeasurement {
                label: "batched idle kernel".into(),
                lanes: 256,
                fleet_secs: 60,
                fleets: vec![
                    FleetRate {
                        name: "standby".into(),
                        looped: 22000.0,
                        batched: 132000.0,
                        sharded: None,
                    },
                    FleetRate {
                        name: "idle".into(),
                        looped: 21000.0,
                        batched: 73500.0,
                        sharded: None,
                    },
                ],
                obs: false,
            }),
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let parsed = Report::from_json(&report.to_json()).expect("own output parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn baseline_survives_a_current_rewrite() {
        let mut report = Report::from_json(&sample().to_json()).unwrap();
        let baseline = report.baseline.clone();
        report.current = Some(Measurement {
            label: "newer".into(),
            e1_matrix: 500.0,
            per_scenario: vec![("idle".into(), 3000.0)],
            per_cell: vec![("idle/powersave".into(), 4000.0)],
            obs: false,
        });
        let reparsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(reparsed.baseline, baseline);
        assert_eq!(reparsed.current.unwrap().label, "newer");
    }

    #[test]
    fn speedups_compare_current_to_baseline() {
        let report = sample();
        let speedups = report.speedups().unwrap();
        assert_eq!(speedups[0].0, "e1_matrix");
        assert!((speedups[0].1 - 350.0 / 100.5).abs() < 1e-9);
        let idle = speedups.iter().find(|(n, _)| n == "idle").unwrap();
        assert!((idle.1 - 2100.0 / 400.25).abs() < 1e-9);
    }

    #[test]
    fn partial_report_has_no_speedups() {
        let mut report = sample();
        report.baseline = None;
        assert!(report.speedups().is_none());
        // And still serialises/parses.
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert!(parsed.baseline.is_none());
        assert_eq!(parsed.current, report.current);
    }

    #[test]
    fn corrupt_text_is_rejected() {
        assert!(Report::from_json("not json").is_none());
        assert!(Report::from_json("{\"schema\": 3}").is_none());
        // A recognised schema but no config block: still rejected.
        assert!(Report::from_json("{\"schema\": 2}").is_none());
    }

    #[test]
    fn schema_1_files_migrate() {
        // The flat pre-fleet layout: sections at the top level. Parsing
        // must preserve the measurements so the next write nests them
        // under `single_device` without losing the pinned baseline.
        let mut report = sample();
        report.batch = None;
        let legacy = report
            .to_json()
            .replace("\"schema\": 2", "\"schema\": 1")
            .replace("  \"single_device\": {", "  \"legacy_wrapper\": {");
        let parsed = Report::from_json(&legacy).expect("schema 1 parses");
        assert_eq!(parsed.baseline, report.baseline);
        assert_eq!(parsed.current, report.current);
        assert!(parsed.batch.is_none());
        let migrated = Report::from_json(&parsed.to_json()).unwrap();
        assert_eq!(migrated, parsed);
    }

    #[test]
    fn obs_flag_round_trips_in_every_section() {
        let mut report = sample();
        if let Some(b) = report.batch.as_mut() {
            b.obs = true;
        }
        let text = report.to_json();
        assert_eq!(text.matches("\"obs\": true").count(), 2, "{text}");
        assert_eq!(text.matches("\"obs\": false").count(), 1, "{text}");
        let parsed = Report::from_json(&text).expect("own output parses");
        assert!(!parsed.baseline.unwrap().obs);
        assert!(parsed.current.unwrap().obs);
        assert!(parsed.batch.unwrap().obs);
        // A file written before the field existed reads as obs-free.
        let legacy = text.replace("    \"obs\": true,\n", "");
        assert!(!Report::from_json(&legacy).unwrap().current.unwrap().obs);
    }

    #[test]
    fn fleet_speedup_is_batched_over_looped() {
        let report = sample();
        let batch = report.batch.as_ref().unwrap();
        assert!((batch.fleets[0].speedup() - 6.0).abs() < 1e-9);
        // The fleet section round-trips with the rest of the report.
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.batch, report.batch);
    }
}
