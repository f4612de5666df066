//! `fleet-mixed` and `fleet-idle`: 256 lanes, `ondemand` on each, stepped
//! in one `DeviceBatch` through `run_batch`.
//!
//! On `mixed` about half the lane-epochs park, and the batch step's
//! scalar active path dominates. On `idle` almost all of them park, so
//! the SoA idle kernel and park/unpark dominate. Together they show a
//! `soc.batch` change that trades one path for the other. Their
//! operation, the one `latency_p50_ms` times, is one pass of the fleet.

use std::time::{Duration, Instant};

use experiments::{run_batch, BatchLane, RunConfig, RunMetrics};
use governors::GovernorKind;
use simkit::SimRng;
use soc::{DeviceBatch, Soc, SocConfig};
use workload::ScenarioKind;

use crate::measure::{at_reference_speed, median, secs, Pacer};
use crate::report::Report;
use crate::trace::{run_batch_traced, Layers};
use crate::Args;

/// One fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// The scenario every lane runs.
    pub scenario: ScenarioKind,
    /// Simulated seconds per lane in one pass.
    pub horizon_s: u64,
}

/// `fleet-mixed`.
pub const MIXED: Fleet = Fleet {
    scenario: ScenarioKind::Mixed,
    horizon_s: 60,
};

/// `fleet-idle`: a longer horizon, so that a pass of the cheaper idle
/// lanes takes about as long as a `fleet-mixed` pass.
pub const IDLE: Fleet = Fleet {
    scenario: ScenarioKind::Idle,
    horizon_s: 240,
};

/// Devices per fleet.
pub const LANES: usize = 256;
/// Lanes re-run alone through `experiments::run` as the output check.
const CHECKED_LANES: usize = 8;
/// Fewest measured passes, however short `--seconds` is.
const MIN_PASSES: usize = 5;

/// `sim-rate`'s lane seed derivation, so the default seed drives the
/// same lanes as `BENCH_simrate.json`.
fn lane_seed(seed: u64, lane: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(lane as u64)
}

fn build(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    seed: u64,
) -> Result<(DeviceBatch, Vec<BatchLane>), String> {
    let socs = (0..LANES)
        .map(|_| Soc::new(soc_config.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("SoC construction failed: {e}"))?;
    let batch = DeviceBatch::new(socs).map_err(|e| format!("batch construction failed: {e}"))?;
    let lanes = (0..LANES)
        .map(|i| BatchLane {
            scenario: scenario.build(lane_seed(seed, i)),
            governor: GovernorKind::Ondemand.build(soc_config),
            faults: None,
        })
        .collect();
    Ok((batch, lanes))
}

/// Bitwise rendering of a lane's metrics (f64 `Debug` round-trips).
fn bits(m: &RunMetrics) -> String {
    format!("{m:?}")
}

/// Checks one pass: every lane ran the whole horizon, and equals the
/// reference rendering where one is known.
fn check_pass(
    report: &mut Report,
    what: &str,
    got: &[RunMetrics],
    reference: &[Option<String>],
    epochs: u64,
) {
    report.check(got.len() == LANES, || {
        format!("{what}: {} lanes returned", got.len())
    });
    for (lane, (m, expected)) in got.iter().zip(reference).enumerate() {
        let full = m.epochs == epochs;
        let same = expected.as_ref().is_none_or(|e| *e == bits(m));
        report.check(full && same, || {
            format!(
                "{what}: lane {lane} ran {} of {epochs} epochs or differs from the reference",
                m.epochs
            )
        });
    }
}

/// Runs `fleet`.
pub fn run(args: &Args, report: &mut Report, fleet: Fleet) -> Result<(), String> {
    let soc_config = SocConfig::odroid_xu3_like().map_err(|e| format!("SoC preset: {e}"))?;
    let config = RunConfig::seconds(fleet.horizon_s);
    let epochs = (config.duration / soc_config.epoch).max(1);

    // The reference: a seed-chosen sample of lanes run alone.
    let mut reference: Vec<Option<String>> = vec![None; LANES];
    let mut rng = SimRng::seed_from(args.seed).split("checked-lanes");
    for _ in 0..CHECKED_LANES {
        let lane = rng.uniform_usize(LANES);
        let mut soc = Soc::new(soc_config.clone()).map_err(|e| format!("SoC: {e}"))?;
        let alone = experiments::run(
            &mut soc,
            fleet.scenario.build(lane_seed(args.seed, lane)).as_mut(),
            GovernorKind::Ondemand.build(&soc_config).as_mut(),
            config,
        );
        reference[lane] = Some(bits(&alone));
    }

    let (mut setups, mut passes, mut untraced, mut traced) = (vec![], vec![], vec![], vec![]);
    let mut probes = vec![];
    let mut layers = Layers::default();
    let mut first = true;
    let mut pacer = Pacer::new()?;
    let start = Instant::now();
    while setups.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(args.seconds) {
        // Set-up and pass share one probe bracket.
        let (built, probe) = pacer.run(|| {
            let t = Instant::now();
            let (mut batch, mut lanes) = build(&soc_config, fleet.scenario, args.seed)?;
            let setup = secs(t.elapsed());
            let t = Instant::now();
            let metrics = run_batch(&mut batch, &mut lanes, config);
            Ok::<_, String>((setup, secs(t.elapsed()), metrics))
        })?;
        let (setup, wall, metrics) = built?;
        setups.push(at_reference_speed(setup, probe));
        passes.push(at_reference_speed(wall, probe));
        probes.push(probe);
        untraced.push(wall);
        check_pass(report, "run_batch", &metrics, &reference, epochs);
        if first {
            // Later passes, traced ones included, must repeat the first.
            reference = metrics.iter().map(|m| Some(bits(m))).collect();
            first = false;
        }
        if args.trace {
            let (mut batch, mut lanes) = build(&soc_config, fleet.scenario, args.seed)?;
            let t = Instant::now();
            let metrics = run_batch_traced(&mut batch, &mut lanes, config, &mut layers)?;
            traced.push(secs(t.elapsed()));
            check_pass(report, "traced pass", &metrics, &reference, epochs);
        }
    }

    let (pass, host_pass) = (median(&passes), median(&untraced));
    report.metric("setup_s", median(&setups), setups.len());
    report.metric("latency_p50_ms", pass * 1e3, passes.len());
    let device_s = (LANES as u64 * fleet.horizon_s) as f64;
    report.note(format!(
        "host time: latency_p50_ms {:.3} ms unscaled, probe {:.6} s (n={}); \
         device_s_per_wall_s {:.1} at the reference speed, {:.1} unscaled",
        host_pass * 1e3,
        median(&probes),
        passes.len(),
        device_s / pass,
        device_s / host_pass,
    ));

    let passes = traced.len().max(1) as f64;
    let per_pass = |d: Duration| secs(d) / passes;
    let n = traced.len();
    report.metric("workload.arrivals_s", per_pass(layers.arrivals), n);
    report.metric("workload.qos_s", per_pass(layers.qos), n);
    report.metric("workload.jobs", layers.jobs as f64 / passes, n);
    report.metric("soc.step_s", per_pass(layers.step), n);
    report.metric("soc.observe_s", per_pass(layers.observe), n);
    report.metric(
        "soc.batch.parked_ratio",
        layers.parked_lane_epochs as f64 / layers.lane_epochs.max(1) as f64,
        n,
    );
    report.metric("governors.decide_s", per_pass(layers.gov_decide), n);
    report.metric("governors.decides", layers.gov_decides as f64 / passes, n);
    report.metric("experiments.runner.rest_s", per_pass(layers.rest), n);
    report.metric(
        "experiments.sched.retries",
        experiments::retry_count() as f64,
        1,
    );
    report.metric(
        "trace.overhead_ratio",
        median(&traced) / median(&untraced) - 1.0,
        n,
    );
    report.metric(
        "trace.unattributed_ratio",
        1.0 - secs(layers.covered()) / traced.iter().sum::<f64>().max(f64::MIN_POSITIVE),
        n,
    );
    // One batch on the calling thread: no single-device steps, no RL
    // policy, no scheduler, cache or server.
    report.not_measured(&[
        "soc.active_step_s",
        "soc.idle_step_s",
        "rlpm.train_s",
        "rlpm.decide_s",
        "rlpm.td_updates",
        "experiments.sched.busy_ratio",
        "experiments.cache.hits",
        "experiments.cache.misses",
        "experiments.cache.stores",
        "experiments.cache.bytes_stored",
        "experiments.cache.warm_pass_s",
        "rlpm-serve.service.handle_ms",
        "rlpm-serve.json.codec_us",
        "rlpm-serve.server.transport_ms",
        "rlpm-serve.events_per_request",
    ]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_check_fails_on_a_corrupted_reference() {
        let soc_config = SocConfig::odroid_xu3_like().expect("preset");
        let mut soc = Soc::new(soc_config.clone()).expect("soc");
        let m = experiments::run(
            &mut soc,
            ScenarioKind::Idle.build(lane_seed(11, 0)).as_mut(),
            GovernorKind::Ondemand.build(&soc_config).as_mut(),
            RunConfig::seconds(1),
        );
        let got = vec![m.clone(); LANES];
        let mut reference: Vec<Option<String>> = vec![Some(bits(&m)); LANES];
        let mut report = Report::new(false);
        check_pass(&mut report, "ok", &got, &reference, m.epochs);
        assert!(report.correct());

        let mut corrupted = m.clone();
        corrupted.energy_j = f64::from_bits(m.energy_j.to_bits() ^ 1);
        reference[3] = Some(bits(&corrupted));
        check_pass(&mut report, "corrupted", &got, &reference, m.epochs);
        assert!(
            !report.correct(),
            "one flipped bit in the reference fails the pass"
        );
    }

    #[test]
    fn lane_seeds_match_sim_rate() {
        assert_eq!(lane_seed(11, 0), 11 * 0x9E37_79B9);
        assert_eq!(lane_seed(11, 5), 11 * 0x9E37_79B9 + 5);
    }
}
