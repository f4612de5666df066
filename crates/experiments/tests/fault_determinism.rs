//! Determinism guarantees of the fault-injection layer.
//!
//! Two properties the resilience work must not weaken:
//!
//! 1. **Zero-rate transparency** — running through `run_with_faults`
//!    with an all-zero [`FaultRates`] plan is *bit-identical* to the
//!    plain `run` path. The fault layer may not perturb a single bit of
//!    any metric when it injects nothing.
//! 2. **Seeded replay** — the same fault-plan seed produces the exact
//!    same fault trace and therefore byte-identical metrics, run to
//!    run. Every fault experiment is replayable from `(seed, rates)`.
//!
//! Like `golden_bits.rs`, floats are compared as raw IEEE-754 bit
//! patterns so no rounding can hide drift.

use std::fmt::Write as _;

use experiments::e9_fault_resilience::default_base_rates;
use experiments::{
    run, run_with_faults, FaultHarness, PolicyKind, RunConfig, RunMetrics, TrainingProtocol,
    Watchdog,
};
use governors::GovernorKind;
use simkit::FaultRates;
use soc::{Soc, SocConfig};
use workload::ScenarioKind;

/// Every float as `to_bits()` hex, integers raw — stricter than
/// `PartialEq` (distinguishes `-0.0` from `0.0`, never equates `NaN`).
fn render_bits(m: &RunMetrics) -> String {
    let mut line = String::new();
    let floats: &[(&str, f64)] = &[
        ("energy_j", m.energy_j),
        ("energy_per_qos", m.energy_per_qos),
        ("avg_power_w", m.avg_power_w),
        ("qos_units", m.qos.units),
        ("qos_strict", m.qos.strict_units),
        ("qos_max", m.qos.max_units),
        ("idle_gated", m.idle_gated_core_s),
        ("idle_collapsed", m.idle_collapsed_core_s),
    ];
    for (name, v) in floats {
        let _ = write!(line, " {name}={:016x}", v.to_bits());
    }
    for (c, frac) in m.mean_level_frac.iter().enumerate() {
        let _ = write!(line, " lvl{c}={:016x}", frac.to_bits());
    }
    let _ = write!(
        line,
        " completed={} on_time={} late={} violations={} transitions={} epochs={} jobs={} \
         watchdog={} faults={} seus={} reloads={}",
        m.qos.completed,
        m.qos.on_time,
        m.qos.late,
        m.qos.violations,
        m.transitions,
        m.epochs,
        m.jobs_submitted,
        m.watchdog_engagements,
        m.fault_counts.total(),
        m.seus_detected,
        m.table_reloads,
    );
    line
}

fn eval_cell(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    policy: PolicyKind,
    seed: u64,
    harness: Option<&mut FaultHarness>,
) -> RunMetrics {
    let mut soc = Soc::new(soc_config.clone()).expect("validated config");
    let mut governor = policy.build_trained(soc_config, scenario, TrainingProtocol::quick(), seed);
    let mut scenario_inst = scenario.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    run_with_faults(
        &mut soc,
        scenario_inst.as_mut(),
        governor.as_mut(),
        RunConfig::seconds(10),
        harness,
    )
}

#[test]
fn zero_rate_plan_is_bit_identical_to_no_fault_path() {
    let soc_config = SocConfig::odroid_xu3_like().expect("preset is valid");
    let seed = 11u64;
    for policy in [
        PolicyKind::Baseline(GovernorKind::Schedutil),
        PolicyKind::Baseline(GovernorKind::Ondemand),
        PolicyKind::Rl,
    ] {
        for scenario in [ScenarioKind::Video, ScenarioKind::Idle] {
            let mut soc = Soc::new(soc_config.clone()).expect("validated config");
            let mut governor =
                policy.build_trained(&soc_config, scenario, TrainingProtocol::quick(), seed);
            let mut scenario_inst = scenario.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            let plain = run(
                &mut soc,
                scenario_inst.as_mut(),
                governor.as_mut(),
                RunConfig::seconds(10),
            );

            let mut harness = FaultHarness::new(&soc_config, seed, FaultRates::zero())
                .expect("zero rates are valid")
                .with_watchdog(Watchdog::fail_operational(&soc_config));
            let faulted = eval_cell(&soc_config, scenario, policy, seed, Some(&mut harness));

            assert_eq!(
                render_bits(&plain),
                render_bits(&faulted),
                "zero-rate fault plan must be a bit-exact no-op \
                 ({scenario:?}/{policy:?})"
            );
            assert_eq!(faulted.fault_counts.total(), 0);
            assert_eq!(faulted.watchdog_engagements, 0);
        }
    }
}

#[test]
fn seeded_fault_plan_replays_bit_identically() {
    let soc_config = SocConfig::odroid_xu3_like().expect("preset is valid");
    let rates = default_base_rates();
    let seed = 22u64;
    let fault_seed = 0xFA17u64;
    for policy in [PolicyKind::Baseline(GovernorKind::Ondemand), PolicyKind::Rl] {
        let run_once = || {
            let mut harness = FaultHarness::new(&soc_config, fault_seed, rates)
                .expect("valid rates")
                .with_watchdog(Watchdog::fail_operational(&soc_config));
            eval_cell(
                &soc_config,
                ScenarioKind::Video,
                policy,
                seed,
                Some(&mut harness),
            )
        };
        let first = run_once();
        let second = run_once();
        assert!(
            first.fault_counts.total() > 0,
            "default rates over 10 s should inject at least one fault"
        );
        assert_eq!(
            render_bits(&first),
            render_bits(&second),
            "same fault-plan seed must replay byte-identically ({policy:?})"
        );
    }
}

#[test]
fn zero_rate_fleet_batch_is_bit_identical() {
    use experiments::{run_batch, BatchLane};
    use soc::DeviceBatch;

    let soc_config = SocConfig::odroid_xu3_like().expect("preset is valid");
    let lanes_n = 3usize;
    let seed = 42u64;
    let run_fleet = |with_zero_plan: bool| -> Vec<RunMetrics> {
        let mut batch = DeviceBatch::new(
            (0..lanes_n)
                .map(|_| Soc::new(soc_config.clone()))
                .collect::<Result<Vec<_>, _>>()
                .expect("validated config"),
        )
        .expect("homogeneous batch");
        let mut lanes: Vec<BatchLane> = (0..lanes_n as u64)
            .map(|i| BatchLane {
                scenario: ScenarioKind::Video.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(i)),
                governor: PolicyKind::Baseline(GovernorKind::Schedutil).build_trained(
                    &soc_config,
                    ScenarioKind::Video,
                    TrainingProtocol::quick(),
                    seed,
                ),
                faults: with_zero_plan.then(|| {
                    FaultHarness::new(&soc_config, 7, FaultRates::zero())
                        .expect("zero rates are valid")
                }),
            })
            .collect();
        run_batch(&mut batch, &mut lanes, RunConfig::seconds(5))
    };

    let plain = run_fleet(false);
    let zero_plan = run_fleet(true);
    assert_eq!(plain.len(), lanes_n);
    for (i, (p, z)) in plain.iter().zip(&zero_plan).enumerate() {
        assert_eq!(
            render_bits(p),
            render_bits(z),
            "lane {i}: a zero-rate plan must be a bit-exact no-op on the fleet path"
        );
        assert_eq!(z.fault_counts.total(), 0);
    }
}

#[test]
fn different_fault_seeds_draw_different_traces() {
    let soc_config = SocConfig::odroid_xu3_like().expect("preset is valid");
    let rates = default_base_rates();
    let trace = |fault_seed: u64| {
        let mut harness = FaultHarness::new(&soc_config, fault_seed, rates).expect("valid rates");
        let m = eval_cell(
            &soc_config,
            ScenarioKind::Video,
            PolicyKind::Baseline(GovernorKind::Ondemand),
            33,
            Some(&mut harness),
        );
        m.fault_counts
    };
    // Not a tautology: with per-class seeded streams, changing the plan
    // seed must reshuffle which epochs draw faults.
    assert_ne!(trace(1), trace(2), "fault traces should depend on the seed");
}
