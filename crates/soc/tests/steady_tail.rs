//! Steady tails must be invisible.
//!
//! From an epoch's last dispatch and last completion to its end, a
//! cluster's sub-steps differ only in its power and thermal chain: every
//! online core idle, or busy on a job that outlasts the epoch. The fast
//! paths run such a tail through the steady kernel — a lone [`Soc`] all
//! its tails in one call, a [`DeviceBatch`] every live lane's tails beside
//! its parked lanes — and replay the cores' updates afterwards. Each lane
//! here runs three ways, through the stepped reference, the fast paths of
//! a lone `Soc`, and a batch that holds it beside parked and live lanes,
//! and every report, observation and end state must agree bit for bit.
//!
//! The random lanes mix idle and busy cores in their tails, start those
//! tails anywhere in the epoch, hotplug a core, change levels under jobs
//! in flight (a tail must not start with a transition stall pending), and
//! half of them run cores of off-grid IPC, whose per-sub-step budgets
//! have a fraction (so a busy core's deferred updates must replay each
//! subtraction rather than fold them). Four more random lanes have clusters
//! wider than the kernel's per-core clock rows. Pinned lanes reach the
//! clamp: an all-idle tail whose clamp trips on the epoch's last sub-step,
//! arming the stall a job waits out in the next; the same on a parked
//! lane whose slots move before it unparks; and a busy tail above the
//! clamp target, which must stay with the busy kernel because the clamp
//! fires in it.

use proptest::prelude::*;
use simkit::{SimDuration, SimRng, SimTime};
use soc::{
    DeviceBatch, EpochObservation, EpochReport, Job, JobClass, LevelRequest, Soc, SocConfig,
    ThermalModel,
};

const EPOCH_US: u64 = 20_000;
const BIG: usize = 1;
/// The big cluster's top level and the levels its clamp removes.
const TOP: usize = 18;
const THROTTLE_LEVELS: usize = 4;

/// One lane: its SoC, a hotplug before the first epoch, per-epoch
/// levels, and jobs as (arrival µs, work, class).
#[derive(Debug, Clone)]
struct Lane {
    config: SocConfig,
    hotplug: Option<(usize, usize)>,
    levels: Vec<Vec<usize>>,
    jobs: Vec<(u64, u64, JobClass)>,
}

fn xu3() -> SocConfig {
    SocConfig::odroid_xu3_like().expect("preset is valid")
}

/// A lane that never works, so it parks in a batch.
fn idle_lane(epochs: usize) -> Lane {
    Lane {
        config: xu3(),
        hotplug: None,
        levels: vec![vec![0, 0]; epochs],
        jobs: Vec::new(),
    }
}

/// A random lane: levels mostly at or below the clamp targets (so busy
/// tails qualify) and changing under jobs in flight, jobs short enough
/// to finish mid-epoch or long enough to outlast several, some epochs
/// without arrivals.
fn random_lane(rng: &mut SimRng, epochs: usize) -> Lane {
    let hotplug = rng
        .chance(0.4)
        .then(|| (rng.uniform_usize(2), 1 + rng.uniform_usize(3)));
    let mut levels = Vec::with_capacity(epochs);
    let mut level = [rng.uniform_usize(11), rng.uniform_usize(15)];
    for _ in 0..epochs {
        if rng.chance(0.3) {
            level = [rng.uniform_usize(13), rng.uniform_usize(TOP + 1)];
        }
        levels.push(level.to_vec());
    }
    let mut jobs = Vec::new();
    for e in 0..epochs as u64 {
        if rng.chance(0.3) {
            continue;
        }
        for _ in 0..1 + rng.uniform_usize(4) {
            let at = e * EPOCH_US + rng.uniform_usize(EPOCH_US as usize) as u64;
            let work = if rng.chance(0.5) {
                100_000 + rng.uniform_usize(3_000_000) as u64
            } else {
                20_000_000 + rng.uniform_usize(300_000_000) as u64
            };
            let class = [JobClass::Light, JobClass::Normal, JobClass::Heavy][rng.uniform_usize(3)];
            jobs.push((at, work, class));
        }
    }
    // Off-grid IPCs give a budget with a fraction, so each replayed
    // `remaining -= budget` rounds as the stepped loop's does.
    let mut config = xu3();
    if rng.chance(0.5) {
        config.clusters[0].ipc = 1.1;
        config.clusters[BIG].ipc = 1.9;
    }
    Lane {
        config,
        hotplug,
        levels,
        jobs,
    }
}

/// `lane` with 9 LITTLE and 12 big cores: more than the steady kernel's
/// per-core clock rows, so busy cores past them stay with the busy kernel
/// and idle ones add the idle term.
fn wide(mut lane: Lane) -> Lane {
    lane.config.clusters[0].cores = 9;
    lane.config.clusters[BIG].cores = 12;
    lane
}

fn build(lane: &Lane, fast: bool) -> Soc {
    let mut soc = Soc::new(lane.config.clone()).expect("config is valid");
    soc.set_idle_fast_forward(fast);
    if let Some((cluster, online)) = lane.hotplug {
        soc.set_cores_online(cluster, online)
            .expect("online count in range");
    }
    soc
}

/// Schedules the lane's jobs arriving in epoch `e` (ids are job indices).
fn schedule(lane: &Lane, e: usize, mut submit: impl FnMut(SimTime, Job)) {
    let window = e as u64 * EPOCH_US..(e as u64 + 1) * EPOCH_US;
    for (id, &(at_us, work, class)) in lane.jobs.iter().enumerate() {
        if window.contains(&at_us) {
            let at = SimTime::from_micros(at_us);
            submit(
                at,
                Job::new(id as u64, work, at + SimDuration::from_millis(30), class),
            );
        }
    }
}

fn empty_report() -> EpochReport {
    EpochReport {
        started_at: SimTime::ZERO,
        ended_at: SimTime::ZERO,
        clusters: Vec::new(),
        energy_j: 0.0,
    }
}

fn empty_obs() -> EpochObservation {
    EpochObservation {
        at: SimTime::ZERO,
        clusters: Vec::new(),
        energy_j: 0.0,
    }
}

/// Every report and observation of a run, and its end state, rendered
/// bit for bit (`f64`'s `Debug` round-trips).
#[derive(Debug, PartialEq)]
struct Run {
    epochs: Vec<String>,
    end: String,
}

fn end_state(soc: &Soc) -> String {
    format!(
        "now={} epochs={} energy={:016x} queued={} pending={} clusters={:?}",
        soc.now().as_nanos(),
        soc.epochs_run(),
        soc.total_energy_j().to_bits(),
        soc.queued_jobs(),
        soc.pending_arrivals(),
        soc.clusters(),
    )
}

/// Runs one lane alone; returns its rendering, its reports and the SoC.
fn run_alone(lane: &Lane, fast: bool) -> (Run, Vec<EpochReport>, Soc) {
    let mut soc = build(lane, fast);
    let (mut epochs, mut reports) = (Vec::new(), Vec::new());
    for (e, levels) in lane.levels.iter().enumerate() {
        schedule(lane, e, |at, job| soc.schedule_job(at, job));
        let report = soc
            .run_epoch(&LevelRequest::new(levels.clone()))
            .expect("levels in range");
        epochs.push(format!("{report:?} {:?}", soc.observe(&report)));
        reports.push(report);
    }
    let end = end_state(&soc);
    (Run { epochs, end }, reports, soc)
}

/// Runs every lane in one batch; returns each lane's rendering and SoC.
fn run_batched(lanes: &[Lane]) -> (Vec<Run>, Vec<Soc>) {
    let n = lanes.len();
    let socs = lanes.iter().map(|lane| build(lane, true)).collect();
    let mut batch = DeviceBatch::new(socs).expect("one grid");
    let mut reports: Vec<EpochReport> = (0..n).map(|_| empty_report()).collect();
    let mut epochs = vec![Vec::new(); n];
    for e in 0..lanes[0].levels.len() {
        for (i, lane) in lanes.iter().enumerate() {
            schedule(lane, e, |at, job| batch.schedule_job(i, at, job));
        }
        let requests: Vec<LevelRequest> = lanes
            .iter()
            .map(|lane| LevelRequest::new(lane.levels[e].clone()))
            .collect();
        batch
            .run_epoch_into(&vec![true; n], &requests, &mut reports)
            .expect("slice lengths match");
        assert!(batch.lane_errors().iter().all(Option::is_none));
        for (i, out) in epochs.iter_mut().enumerate() {
            let mut obs = empty_obs();
            batch.observe_lane_into(i, &reports[i], &mut obs);
            out.push(format!("{:?} {obs:?}", reports[i]));
        }
    }
    let socs = batch.into_lanes();
    let runs = epochs
        .into_iter()
        .zip(&socs)
        .map(|(epochs, soc)| Run {
            epochs,
            end: end_state(soc),
        })
        .collect();
    (runs, socs)
}

/// Runs `lanes` alone through the stepped reference and the fast paths,
/// and together in one batch, and asserts the three agree on every lane.
/// Returns the reference runs' reports and SoCs.
fn assert_paths_agree(lanes: &[Lane]) -> Vec<(Vec<EpochReport>, Soc)> {
    let (batched, batched_socs) = run_batched(lanes);
    let mut reference = Vec::new();
    for (i, lane) in lanes.iter().enumerate() {
        let (stepped, reports, stepped_soc) = run_alone(lane, false);
        let (fast, _, fast_soc) = run_alone(lane, true);
        assert_eq!(fast, stepped, "lane {i}: fast Soc vs stepped reference");
        assert_eq!(batched[i], stepped, "lane {i}: batch vs stepped reference");
        assert_eq!(fast_soc.clusters(), stepped_soc.clusters(), "lane {i}");
        assert_eq!(
            batched_socs[i].clusters(),
            stepped_soc.clusters(),
            "lane {i}"
        );
        reference.push((reports, stepped_soc));
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random lanes, four of them wide, beside two that park agree on all
    /// three paths.
    #[test]
    fn prop_random_tails_match_the_stepped_reference(seed in proptest::arbitrary::any::<u64>()) {
        const EPOCHS: usize = 10;
        let mut rng = SimRng::seed_from(seed);
        let mut lanes: Vec<Lane> = (0..4).map(|_| random_lane(&mut rng, EPOCHS)).collect();
        lanes.insert(1, idle_lane(EPOCHS));
        lanes.push(idle_lane(EPOCHS));
        // Drawn last, so the lanes above stay as they were.
        lanes.extend((0..4).map(|_| wide(random_lane(&mut rng, EPOCHS))));
        assert_paths_agree(&lanes);
    }
}

/// A big cluster on a hot ambient whose idle top level heats towards
/// about 91 °C, tripping at `trip_c`.
fn hot(trip_c: f64) -> SocConfig {
    let mut config = xu3();
    config.clusters[BIG].thermal =
        ThermalModel::new(12.0, 0.02, 70.0, trip_c, trip_c - 5.0, THROTTLE_LEVELS);
    config
}

#[test]
fn idle_tail_clamps_on_its_last_substep_and_arms_the_stall() {
    // The idle big cluster's temperature after every sub-step at the top
    // level, read from one-sub-step epochs on a node that never trips.
    const EPOCH: usize = 3;
    let mut probe_config = hot(200.0);
    probe_config.epoch = probe_config.substep;
    let mut probe = Soc::new(probe_config).expect("config is valid");
    let temps: Vec<f64> = (0..20 * (EPOCH + 1))
        .map(|_| {
            probe
                .run_epoch(&LevelRequest::new(vec![0, TOP]))
                .expect("levels in range")
                .clusters[BIG]
                .temp_c
        })
        .collect();
    // Trip between the last two sub-steps of epoch `EPOCH`.
    let last = 20 * EPOCH + 19;
    assert!(temps[last - 1] < temps[last], "the node is still heating");
    let trip_c = (temps[last - 1] + temps[last]) / 2.0;
    // A light job keeps LITTLE busy early in the epoch, so the lane runs
    // live and the big cluster's whole epoch after that dispatch is an
    // all-idle tail; a small heavy job at the next epoch's start then
    // waits out the stall the clamp armed.
    let start_us = (EPOCH as u64 + 1) * EPOCH_US;
    let lane = Lane {
        config: hot(trip_c),
        hotplug: None,
        levels: vec![vec![0, TOP]; EPOCH + 3],
        jobs: vec![
            (EPOCH as u64 * EPOCH_US + 3_000, 300_000, JobClass::Light),
            (start_us, 200_000, JobClass::Heavy),
        ],
    };
    let lanes = vec![
        lane,
        idle_lane(EPOCH + 3),
        random_lane(&mut SimRng::seed_from(7), EPOCH + 3),
    ];
    let reference = assert_paths_agree(&lanes);
    let (reports, soc) = &reference[0];
    let (before, clamped) = (
        &reports[EPOCH - 1].clusters[BIG],
        &reports[EPOCH].clusters[BIG],
    );
    assert_eq!((before.level, before.transitions), (TOP, 0));
    assert_eq!(
        (clamped.level, clamped.transitions),
        (TOP - THROTTLE_LEVELS, 1)
    );
    assert!(clamped.completed.is_empty() && clamped.queued == 0);
    assert!(soc.clusters()[BIG].is_throttled());
    // 200 k instructions at 1.6 GHz × IPC 2 take 62.5 µs; the 100 µs
    // stall comes first.
    let done = reports[EPOCH + 1].clusters[BIG].completed[0].completed_at;
    assert!(
        done >= SimTime::from_micros(start_us + 100),
        "the job did not wait out the stall: {done}"
    );
}

/// The trip point a `hot` big cluster, idle at the top level from cold,
/// crosses on the last sub-step of epoch `epoch`: the midpoint of its
/// temperatures after the last two, read from one-sub-step epochs on a
/// node that never trips (the calibration of the test above).
fn trip_on_last_substep_of(epoch: usize) -> f64 {
    let mut probe_config = hot(200.0);
    probe_config.epoch = probe_config.substep;
    let mut probe = Soc::new(probe_config).expect("config is valid");
    let temps: Vec<f64> = (0..20 * (epoch + 1))
        .map(|_| {
            probe
                .run_epoch(&LevelRequest::new(vec![0, TOP]))
                .expect("levels in range")
                .clusters[BIG]
                .temp_c
        })
        .collect();
    let last = 20 * epoch + 19;
    assert!(temps[last - 1] < temps[last], "the node is still heating");
    (temps[last - 1] + temps[last]) / 2.0
}

/// `first` and a hot lane both park in epoch 0, the hot one second, so
/// its slots are the batch's tail chunk; its clamp trips on the last
/// sub-step of parked epoch 3. A job on each lane at the start of epoch 4
/// unparks `first`, which moves the hot lane's slots, and then the hot
/// lane, whose heavy job must wait out the stall the clamp armed.
fn assert_moved_slots_keep_the_stall(mut first: Lane) {
    const EPOCH: usize = 3;
    let start_us = (EPOCH as u64 + 1) * EPOCH_US;
    first.jobs = vec![(start_us, 300_000, JobClass::Light)];
    let hot_lane = Lane {
        config: hot(trip_on_last_substep_of(EPOCH)),
        hotplug: None,
        levels: vec![vec![0, TOP]; EPOCH + 3],
        jobs: vec![(start_us, 200_000, JobClass::Heavy)],
    };
    let reference = assert_paths_agree(&[first, hot_lane]);
    let (reports, _) = &reference[1];
    let clamped = &reports[EPOCH].clusters[BIG];
    assert_eq!(
        (clamped.level, clamped.transitions),
        (TOP - THROTTLE_LEVELS, 1)
    );
    // 200 k instructions at 1.6 GHz × IPC 2 take 62.5 µs; the 100 µs
    // stall comes first.
    let done = reports[EPOCH + 1].clusters[BIG].completed[0].completed_at;
    assert!(
        done >= SimTime::from_micros(start_us + 100),
        "the job did not wait out the stall: {done}"
    );
}

#[test]
fn parked_clamp_stall_survives_the_tail_chunk_move() {
    assert_moved_slots_keep_the_stall(idle_lane(6));
}

#[test]
fn parked_clamp_stall_survives_the_shift() {
    // One cluster against the hot lane's two: the chunks differ in width,
    // so the unpark shifts the hot lane's slots instead.
    let tiny = Lane {
        config: SocConfig::tiny_test().expect("preset is valid"),
        levels: vec![vec![0]; 6],
        ..idle_lane(6)
    };
    assert_moved_slots_keep_the_stall(tiny);
}

#[test]
fn busy_tail_above_the_clamp_target_stays_with_the_busy_kernel() {
    // One heavy job outlasts every epoch at the top level, so each epoch
    // after the first is a busy tail but for its level; the node trips
    // while it runs, lowering the level under the busy core.
    const EPOCHS: usize = 40;
    let lane = Lane {
        config: hot(85.0),
        hotplug: None,
        levels: vec![vec![0, TOP]; EPOCHS],
        jobs: vec![(0, 20_000_000_000, JobClass::Heavy)],
    };
    let lanes = vec![idle_lane(EPOCHS), lane];
    let reference = assert_paths_agree(&lanes);
    let (reports, _) = &reference[1];
    // An epoch that opened at the top level and ended clamped, its job
    // still running.
    let clamped = reports.windows(2).any(|w| {
        let (before, now) = (&w[0].clusters[BIG], &w[1].clusters[BIG]);
        before.level == TOP && now.level == TOP - THROTTLE_LEVELS && now.queued == 1
    });
    assert!(clamped, "the clamp never fired under the busy core");
}
