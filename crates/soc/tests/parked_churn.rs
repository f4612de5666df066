//! Parking and unparking out of order in a batch of mixed cluster counts.
//!
//! A [`DeviceBatch`] keeps its parked lanes' clusters in one dense run of
//! slots, each lane a contiguous chunk. When a lane unparks, the last
//! chunk moves into its gap if the two are as wide; otherwise (a one-
//! and a two-cluster lane) every later chunk shifts down and every later
//! lane is renumbered. Every other batch test builds its lanes from one
//! preset, so only this one reaches the shift.
//!
//! Each case mixes two-cluster `odroid_xu3_like` lanes with one-cluster
//! `symmetric_quad` and `tiny_test` lanes. Sparse random arrivals and
//! level changes make them park and unpark in random order, and the run
//! takes a lane out with `lane_mut`, splits the batch and rejoins it, and
//! unparks everything, mid-run. Every epoch's report and observation, and
//! each lane's end state, must equal the same lane stepped alone, bit for
//! bit (`f64`'s `Debug` round-trips).

use proptest::prelude::*;
use simkit::{SimDuration, SimRng, SimTime};
use soc::{
    DeviceBatch, EpochObservation, EpochReport, Job, JobClass, LevelRequest, Soc, SocConfig,
};

const EPOCHS: usize = 90;
const EPOCH_US: u64 = 20_000;

/// One lane: its SoC, per-epoch levels, and jobs as (arrival µs, work).
#[derive(Debug, Clone)]
struct Lane {
    config: SocConfig,
    levels: Vec<Vec<usize>>,
    jobs: Vec<(u64, u64)>,
}

fn random_lane(rng: &mut SimRng) -> Lane {
    let config = match rng.uniform_usize(3) {
        0 => SocConfig::odroid_xu3_like(),
        1 => SocConfig::symmetric_quad(),
        _ => SocConfig::tiny_test(),
    }
    .expect("preset is valid");
    let max: Vec<usize> = config.clusters.iter().map(|c| c.opps.max_level()).collect();
    let pick = |rng: &mut SimRng| -> Vec<usize> {
        max.iter()
            .map(|&m| {
                if rng.chance(0.5) {
                    0
                } else {
                    rng.uniform_usize(m + 1)
                }
            })
            .collect()
    };
    let mut level = pick(rng);
    let mut levels = Vec::with_capacity(EPOCHS);
    let mut jobs = Vec::new();
    for e in 0..EPOCHS as u64 {
        if rng.chance(0.08) {
            level = pick(rng);
        }
        levels.push(level.clone());
        if rng.chance(0.12) {
            let at = e * EPOCH_US + rng.uniform_usize(EPOCH_US as usize) as u64;
            jobs.push((at, 200_000 + rng.uniform_usize(40_000_000) as u64));
        }
    }
    Lane {
        config,
        levels,
        jobs,
    }
}

/// Schedules the lane's jobs arriving in epoch `e` (ids are job indices).
fn schedule(lane: &Lane, e: usize, mut submit: impl FnMut(SimTime, Job)) {
    let window = e as u64 * EPOCH_US..(e as u64 + 1) * EPOCH_US;
    for (id, &(at_us, work)) in lane.jobs.iter().enumerate() {
        if window.contains(&at_us) {
            let at = SimTime::from_micros(at_us);
            let deadline = at + SimDuration::from_millis(40);
            submit(at, Job::new(id as u64, work, deadline, JobClass::Normal));
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

/// Every epoch of one lane stepped alone, then its end state.
fn run_alone(lane: &Lane) -> Vec<String> {
    let mut soc = Soc::new(lane.config.clone()).expect("config is valid");
    let mut out = Vec::new();
    for (e, levels) in lane.levels.iter().enumerate() {
        schedule(lane, e, |at, job| soc.schedule_job(at, job));
        let report = soc
            .run_epoch(&LevelRequest::new(levels.clone()))
            .expect("levels in range");
        out.push(format!("{report:?} {:?}", soc.observe(&report)));
    }
    out.push(end_state(&soc));
    out
}

/// Steps `batch`, which holds `lanes[first..]`, through epoch `e`,
/// appending each lane's report and observation to its record.
fn step(batch: &mut DeviceBatch, lanes: &[Lane], first: usize, e: usize, out: &mut [Vec<String>]) {
    let lanes = &lanes[first..first + batch.len()];
    for (i, lane) in lanes.iter().enumerate() {
        schedule(lane, e, |at, job| batch.schedule_job(i, at, job));
    }
    let requests: Vec<LevelRequest> = lanes
        .iter()
        .map(|lane| LevelRequest::new(lane.levels[e].clone()))
        .collect();
    let n = lanes.len();
    let mut reports: Vec<EpochReport> = (0..n).map(|_| empty_report()).collect();
    batch
        .run_epoch_into(&vec![true; n], &requests, &mut reports)
        .expect("slice lengths match");
    assert!(batch.lane_errors().iter().all(Option::is_none));
    for (i, report) in reports.iter().enumerate() {
        let mut obs = EpochObservation {
            at: SimTime::ZERO,
            clusters: Vec::new(),
            energy_j: 0.0,
        };
        batch.observe_lane_into(i, report, &mut obs);
        out[first + i].push(format!("{report:?} {obs:?}"));
    }
}

/// Runs every lane in one batch with the mid-run interventions; returns
/// each lane's record and the most lanes parked at once.
fn run_churned(lanes: &[Lane], rng: &mut SimRng) -> (Vec<Vec<String>>, usize) {
    let n = lanes.len();
    let socs = lanes
        .iter()
        .map(|lane| Soc::new(lane.config.clone()).expect("config is valid"))
        .collect();
    let mut batch = DeviceBatch::new(socs).expect("one grid");
    let mut out = vec![Vec::new(); n];
    let (split_at, rejoin_at) = (30 + rng.uniform_usize(10), 50 + rng.uniform_usize(10));
    let at = 1 + rng.uniform_usize(n - 1);
    let mut tail: Option<DeviceBatch> = None;
    let mut most_parked = 0;
    for e in 0..EPOCHS {
        if e == split_at {
            tail = Some(batch.split_off(at));
        }
        if e == rejoin_at {
            if let Some(mut t) = tail.take() {
                batch.append(&mut t).expect("one grid");
            }
        }
        if e == 70 {
            batch.unpark_all();
        }
        if rng.chance(0.1) {
            // A mutable borrow unparks the lane; reading it must not move
            // anything.
            let lane = rng.uniform_usize(batch.len());
            assert_eq!(batch.lane_mut(lane).epochs_run(), e as u64);
        }
        step(&mut batch, lanes, 0, e, &mut out);
        most_parked = most_parked.max(batch.parked_lanes());
        if let Some(t) = tail.as_mut() {
            step(t, lanes, at, e, &mut out);
        }
    }
    for (record, soc) in out.iter_mut().zip(batch.into_lanes()) {
        record.push(end_state(&soc));
    }
    (out, most_parked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lanes of one and two clusters parking and unparking in random
    /// order agree with the same lanes stepped alone.
    #[test]
    fn prop_churned_mixed_lanes_match_their_lone_runs(seed in proptest::arbitrary::any::<u64>()) {
        let mut rng = SimRng::seed_from(seed);
        let lanes: Vec<Lane> = (0..9).map(|_| random_lane(&mut rng)).collect();
        let (batched, most_parked) = run_churned(&lanes, &mut rng);
        prop_assert!(most_parked >= 3, "too few lanes parked at once: {most_parked}");
        for (i, lane) in lanes.iter().enumerate() {
            let alone = run_alone(lane);
            for (e, (b, a)) in batched[i].iter().zip(&alone).enumerate() {
                prop_assert_eq!(b, a, "lane {} ({} clusters), epoch {}", i, lane.config.clusters.len(), e);
            }
            prop_assert_eq!(batched[i].len(), alone.len());
        }
    }
}
