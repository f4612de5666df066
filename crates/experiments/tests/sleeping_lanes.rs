//! Sleeping parked lanes in `run_batch`.
//!
//! A batched lane that ran its epoch parked, has no fault harness, and
//! whose governor certifies the parked request as its fixed point
//! (`Governor::decide_parked`) skips its observation and decision. These
//! tests count the certificates through a forwarding governor, so they
//! show that lanes really sleep, that the sleeping lanes still equal
//! their looped runs bit for bit (traces included), that a faulted lane
//! never sleeps, and, in an obs build, that every skipped decision is
//! still counted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use experiments::e9_fault_resilience::default_base_rates;
use experiments::{run, run_batch, run_with_faults, BatchLane, FaultHarness, RunConfig};
use governors::{Governor, GovernorKind, SystemState, Userspace};
use simkit::SimDuration;
use soc::{DeviceBatch, LevelRequest, Soc, SocConfig};
use workload::{RecordedTrace, Scenario, ScenarioKind};

/// Serialises the tests of this file, so that the obs counter check sees
/// only its own decisions.
static SERIAL: Mutex<()> = Mutex::new(());

/// Forwards to `inner` and counts the certificates it grants.
struct Certifying {
    inner: Box<dyn Governor>,
    slept: Arc<AtomicU64>,
}

impl Governor for Certifying {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, state: &SystemState) -> LevelRequest {
        self.inner.decide(state)
    }

    fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
        self.inner.decide_into(state, request);
    }

    fn decide_parked(&mut self, request: &LevelRequest) -> bool {
        let fixed = self.inner.decide_parked(request);
        if fixed {
            self.slept.fetch_add(1, Ordering::Relaxed);
        }
        fixed
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// How often a lane of the mix must sleep.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sleeps {
    /// On most epochs.
    Mostly,
    /// On some epochs.
    Sometimes,
    /// On none.
    Never,
}

/// One lane of the mix: its SoC preset, scenario and governor.
struct Case {
    soc: fn() -> Result<SocConfig, soc::SocError>,
    scenario: Box<dyn Fn() -> Box<dyn Scenario>>,
    governor: fn(&SocConfig) -> Box<dyn Governor>,
    sleeps: Sleeps,
}

fn case(
    soc: fn() -> Result<SocConfig, soc::SocError>,
    kind: ScenarioKind,
    seed: u64,
    governor: fn(&SocConfig) -> Box<dyn Governor>,
    sleeps: Sleeps,
) -> Case {
    Case {
        soc,
        scenario: Box::new(move || kind.build(seed)),
        governor,
        sleeps,
    }
}

fn cases() -> Vec<Case> {
    let xu3 = SocConfig::odroid_xu3_like;
    let ondemand = |c: &SocConfig| GovernorKind::Ondemand.build(c);
    let powersave = |c: &SocConfig| GovernorKind::Powersave.build(c);
    let schedutil = |c: &SocConfig| GovernorKind::Schedutil.build(c);
    let pinned = |_: &SocConfig| -> Box<dyn Governor> { Box::new(Userspace::new(vec![3, 5])) };
    let recorded_idle = || -> Box<dyn Scenario> {
        let mut idle = ScenarioKind::Idle.build(41);
        Box::new(RecordedTrace::record(
            idle.as_mut(),
            SimDuration::from_secs(30),
        ))
    };
    vec![
        case(xu3, ScenarioKind::Idle, 31, ondemand, Sleeps::Mostly),
        case(xu3, ScenarioKind::Standby, 32, powersave, Sleeps::Mostly),
        case(xu3, ScenarioKind::Idle, 33, pinned, Sleeps::Mostly),
        case(
            SocConfig::symmetric_quad,
            ScenarioKind::Idle,
            34,
            ondemand,
            Sleeps::Mostly,
        ),
        Case {
            soc: xu3,
            scenario: Box::new(recorded_idle),
            governor: ondemand,
            sleeps: Sleeps::Mostly,
        },
        // Through its idle phases.
        case(xu3, ScenarioKind::Mixed, 35, ondemand, Sleeps::Sometimes),
        // Never certified: schedutil keeps the default.
        case(xu3, ScenarioKind::Idle, 36, schedutil, Sleeps::Never),
        // Never parked: cpuidle tables keep the lane live.
        case(
            SocConfig::odroid_xu3_like_cstates,
            ScenarioKind::Idle,
            37,
            ondemand,
            Sleeps::Never,
        ),
    ]
}

#[test]
fn parked_lanes_sleep_and_equal_their_looped_runs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cases = cases();
    let config = RunConfig::seconds(30).with_trace();
    let epochs = 1_500;

    let looped: Vec<String> = cases
        .iter()
        .map(|c| {
            let cfg = (c.soc)().unwrap();
            let mut governor = (c.governor)(&cfg);
            let mut soc = Soc::new(cfg).unwrap();
            format!(
                "{:?}",
                run(&mut soc, (c.scenario)().as_mut(), governor.as_mut(), config)
            )
        })
        .collect();

    let slept: Vec<Arc<AtomicU64>> = cases.iter().map(|_| Arc::default()).collect();
    let socs = cases
        .iter()
        .map(|c| Soc::new((c.soc)().unwrap()).unwrap())
        .collect();
    let mut batch = DeviceBatch::new(socs).unwrap();
    let mut lanes: Vec<BatchLane> = cases
        .iter()
        .zip(&slept)
        .map(|(c, slept)| BatchLane {
            scenario: (c.scenario)(),
            governor: Box::new(Certifying {
                inner: (c.governor)(&(c.soc)().unwrap()),
                slept: Arc::clone(slept),
            }),
            faults: None,
        })
        .collect();
    let batched = run_batch(&mut batch, &mut lanes, config);

    for (i, (c, slept)) in cases.iter().zip(&slept).enumerate() {
        let slept = slept.load(Ordering::Relaxed);
        assert_eq!(format!("{:?}", batched[i]), looped[i], "lane {i} diverged");
        assert_eq!(batched[i].epochs, epochs, "lane {i}");
        let enough = match c.sleeps {
            Sleeps::Mostly => slept > epochs / 2,
            Sleeps::Sometimes => slept > 0,
            Sleeps::Never => slept == 0,
        };
        assert!(
            enough,
            "lane {i} slept {slept} of {epochs} epochs, expected {:?}",
            c.sleeps
        );
    }
}

#[test]
fn a_faulted_parked_lane_never_sleeps() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SocConfig::odroid_xu3_like().unwrap();
    let config = RunConfig::seconds(20);
    let harness = || FaultHarness::new(&cfg, 5, default_base_rates()).unwrap();

    let looped = {
        let mut soc = Soc::new(cfg.clone()).unwrap();
        let mut governor = GovernorKind::Ondemand.build(&cfg);
        let mut h = harness();
        run_with_faults(
            &mut soc,
            ScenarioKind::Idle.build(51).as_mut(),
            governor.as_mut(),
            config,
            Some(&mut h),
        )
    };

    // The faulted lane, and its fault-free twin, which does sleep.
    let slept: Vec<Arc<AtomicU64>> = vec![Arc::default(), Arc::default()];
    let mut batch =
        DeviceBatch::new((0..2).map(|_| Soc::new(cfg.clone()).unwrap()).collect()).unwrap();
    let mut lanes: Vec<BatchLane> = slept
        .iter()
        .zip([Some(harness()), None])
        .map(|(slept, faults)| BatchLane {
            scenario: ScenarioKind::Idle.build(51),
            governor: Box::new(Certifying {
                inner: GovernorKind::Ondemand.build(&cfg),
                slept: Arc::clone(slept),
            }),
            faults,
        })
        .collect();
    let batched = run_batch(&mut batch, &mut lanes, config);

    assert_eq!(format!("{:?}", batched[0]), format!("{looped:?}"));
    assert_eq!(slept[0].load(Ordering::Relaxed), 0, "a faulted lane slept");
    assert!(slept[1].load(Ordering::Relaxed) > 500, "the twin sleeps");
}

/// Every skipped decision still counts in `governors.decisions`: a batch
/// of sleeping lanes counts exactly as many decisions as its looped runs,
/// one per lane-epoch.
#[cfg(feature = "obs")]
#[test]
fn skipped_decisions_still_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let decisions = || {
        simkit::obs::snapshot()
            .counters
            .get("governors.decisions")
            .copied()
            .unwrap_or(0)
    };
    let cfg = SocConfig::odroid_xu3_like().unwrap();
    let (lanes, config, epochs) = (6, RunConfig::seconds(10), 500);
    let kinds = [GovernorKind::Ondemand, GovernorKind::Powersave];

    let before = decisions();
    for lane in 0..lanes {
        let mut soc = Soc::new(cfg.clone()).unwrap();
        let mut governor = kinds[lane % 2].build(&cfg);
        let mut scenario = ScenarioKind::Idle.build(lane as u64);
        run(&mut soc, scenario.as_mut(), governor.as_mut(), config);
    }
    let looped = decisions() - before;

    let slept = Arc::new(AtomicU64::new(0));
    let mut batch =
        DeviceBatch::new((0..lanes).map(|_| Soc::new(cfg.clone()).unwrap()).collect()).unwrap();
    let mut batch_lanes: Vec<BatchLane> = (0..lanes)
        .map(|lane| BatchLane {
            scenario: ScenarioKind::Idle.build(lane as u64),
            governor: Box::new(Certifying {
                inner: kinds[lane % 2].build(&cfg),
                slept: Arc::clone(&slept),
            }),
            faults: None,
        })
        .collect();
    let before = decisions();
    let metrics = run_batch(&mut batch, &mut batch_lanes, config);
    let batched = decisions() - before;

    assert!(slept.load(Ordering::Relaxed) > 1_000, "lanes must sleep");
    assert_eq!(looped, lanes as u64 * epochs);
    assert_eq!(batched, looped, "skipped decisions must still count");
    assert!(metrics.iter().all(|m| m.epochs == epochs));
}
