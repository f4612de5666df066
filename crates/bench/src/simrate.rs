//! Fleet sim-rate: device-seconds per wall-second for batched
//! multi-device simulation against the looped single-device
//! equivalent, on the same lanes. Both sides run on one thread (the
//! batched side at one shard, `RLPM_THREADS=1`), so their ratio prices
//! the batched engine rather than the host's core count; the sharded
//! rate at the process's own thread budget is measured and printed
//! beside it, but not written.
//!
//! The ratios are self-relative, so they hold across hosts where
//! absolute rates do not; CI gates them. Absolute single-device and
//! fleet speed are perfbench's (`regen-e1-cold`, `fleet-mixed`,
//! `fleet-idle`). The `sim-rate` binary writes the report to
//! `BENCH_simrate.json` through [`rlpm_serve::json`].

use std::time::Instant;

use experiments::{
    build_fleet, fleet_lane_seed, run, run_batch, PolicyKind, RunConfig, TrainingProtocol,
};
use governors::GovernorKind;
use rlpm_serve::json::Value;
use soc::{Soc, SocConfig};
use workload::ScenarioKind;

/// The seed every fleet's lane seeds derive from ([`fleet_lane_seed`]),
/// as in perfbench's fleets.
const SEED: u64 = 11;

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
    /// budget. Printed beside the ratio, neither written nor gated.
    pub sharded: f64,
}

impl FleetRate {
    /// Batched-over-looped speedup.
    pub fn speedup(&self) -> f64 {
        self.batched / self.looped
    }
}

/// One sim-rate pass: batched fleet simulation measured against the
/// looped single-device equivalent, per fleet workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Devices stepped in lockstep (and looped, for the baseline side).
    pub lanes: u32,
    /// Simulated seconds per device.
    pub fleet_secs: u64,
    /// Interleaved looped/batched pairs each rate is the median of.
    pub repeat: u32,
    /// Per-workload rates, standby first (the headline row).
    pub fleets: Vec<FleetRate>,
    /// Whether the measuring binary was built with the `obs` feature
    /// ([`simkit::obs::enabled`]), whose instrumented build reads
    /// 30–50% slower.
    pub obs: bool,
}

/// The fleet workloads measured: the deep-idle regime the batched engine
/// exists for (`standby`), the near-idle catalog floor with periodic
/// wake-ups (`idle`), and a mostly-busy mixture (`mixed`) as the honest
/// worst case — batching cannot speed up lanes that are actually
/// executing work.
pub const FLEET_WORKLOADS: [ScenarioKind; 3] = [
    ScenarioKind::Standby,
    ScenarioKind::Idle,
    ScenarioKind::Mixed,
];

/// The speedup the batched engine is held to on the `standby` fleet at
/// 256 lanes, recorded next to the measured numbers.
pub const BATCH_TARGET_SPEEDUP: f64 = 5.0;

/// What the batched side runs, recorded in the report.
const LABEL: &str =
    "SoA steady kernel: two-pass live epochs, resident and sleeping parked lanes, ondemand per lane";

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
pub fn measure(soc_config: &SocConfig, lanes: u32, fleet_secs: u64, repeat: u32) -> Report {
    let repeat = repeat.max(1);
    let device_secs = f64::from(lanes) * fleet_secs as f64;
    let mut fleets = Vec::new();
    for kind in FLEET_WORKLOADS {
        // One looped pass: its wall time and each lane's energy bits.
        let looped = || {
            let start = Instant::now();
            let energies: Vec<u64> = (0..lanes)
                .map(|i| {
                    let mut soc = Soc::new(soc_config.clone()).expect("validated config");
                    let mut scenario = kind.build(fleet_lane_seed(SEED, u64::from(i)));
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
                SEED,
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
        for pair in 0..repeat {
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
        let sharded_walls: Vec<f64> = (0..repeat).map(|_| batched(&energy)).collect();

        fleets.push(FleetRate {
            name: kind.name().to_owned(),
            looped: device_secs / median(looped_walls),
            batched: device_secs / median(batched_walls),
            sharded: device_secs / median(sharded_walls),
        });
    }
    Report {
        lanes,
        fleet_secs,
        repeat,
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

/// `x` to three decimals: rates and ratios vary far more than that
/// between runs, and short numbers keep the file's diffs readable.
pub(crate) fn milli(x: f64) -> Value {
    Value::Num((x * 1000.0).round() / 1000.0)
}

impl Report {
    /// The report as a JSON value (schema 3). The file `sim-rate` writes
    /// is its [`Value::render_pretty`] plus a newline.
    pub fn to_value(&self) -> Value {
        let fleets = self.fleets.iter().map(|f| {
            let rates = [
                ("looped", f.looped),
                ("batched", f.batched),
                ("speedup", f.speedup()),
            ];
            let rates = rates.map(|(k, v)| (k.to_owned(), milli(v)));
            (f.name.clone(), Value::Obj(rates.into()))
        });
        Value::Obj(vec![
            ("schema".into(), Value::num_u64(3)),
            ("unit".into(), Value::str("device-seconds per wall-second")),
            ("label".into(), Value::str(LABEL)),
            ("seed".into(), Value::num_u64(SEED)),
            ("lanes".into(), Value::num_u64(u64::from(self.lanes))),
            ("fleet_secs".into(), Value::num_u64(self.fleet_secs)),
            ("repeat".into(), Value::num_u64(u64::from(self.repeat))),
            ("obs".into(), Value::Bool(self.obs)),
            ("target_speedup".into(), milli(BATCH_TARGET_SPEEDUP)),
            ("fleets".into(), Value::Obj(fleets.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpm_serve::json;

    fn sample() -> Report {
        Report {
            lanes: 256,
            fleet_secs: 60,
            repeat: 5,
            fleets: vec![
                FleetRate {
                    name: "standby".into(),
                    looped: 22000.0,
                    batched: 132000.0,
                    sharded: 250000.0,
                },
                FleetRate {
                    name: "idle".into(),
                    looped: 21_000.123_456,
                    batched: 73500.0,
                    sharded: 140000.0,
                },
            ],
            obs: false,
        }
    }

    #[test]
    fn json_round_trips() {
        let value = sample().to_value();
        assert_eq!(json::parse(&value.render_pretty()), Ok(value.clone()));
        let idle = value.get("fleets").and_then(|f| f.get("idle"));
        let looped = idle.and_then(|i| i.get("looped")).and_then(Value::as_f64);
        assert_eq!(looped, Some(21000.123), "rates keep three decimals");
        assert!(
            idle.and_then(|i| i.get("sharded")).is_none(),
            "the sharded rate is not written"
        );
    }

    #[test]
    fn obs_flag_round_trips_in_every_section() {
        let mut report = sample();
        for obs in [false, true] {
            report.obs = obs;
            let parsed = json::parse(&report.to_value().render_pretty()).unwrap();
            assert_eq!(parsed.get("obs").and_then(Value::as_bool), Some(obs));
        }
    }

    #[test]
    fn fleet_speedup_is_batched_over_looped() {
        let report = sample();
        assert!((report.fleets[0].speedup() - 6.0).abs() < 1e-9);
        let value = report.to_value();
        let standby = value.get("fleets").and_then(|f| f.get("standby"));
        let speedup = standby
            .and_then(|s| s.get("speedup"))
            .and_then(Value::as_f64);
        assert_eq!(speedup, Some(6.0));
    }
}
