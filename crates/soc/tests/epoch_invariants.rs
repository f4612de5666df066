//! Per-epoch conservation and physical bounds over random runs.
//!
//! Random lanes (one- and two-cluster presets, one with cpuidle tables,
//! some with trip points a few degrees over ambient so the thermal clamp
//! fires) get sparse random arrivals and random level requests, so some
//! epochs park in a [`DeviceBatch`] and some run live. Each lane runs
//! alone on a lone [`Soc`] and as a lane of one batch. After every
//! epoch, on both:
//!
//! - **Jobs are conserved.** Every job submitted so far has completed, is
//!   queued on a core, or waits in the arrival queue. A batch lane reads
//!   its queue through [`DeviceBatch::lane_queued_jobs`] and its arrival
//!   queue, which stays live while the lane is parked, through
//!   [`DeviceBatch::lane`].
//! - **Each cluster stays physical.** Its temperature lies between
//!   ambient and the steady state of its node at maximum power; its
//!   cumulative energy never decreases; and the level it reports is never
//!   above the level requested for the epoch, so a thermal clamp never
//!   raises a level.

use proptest::prelude::*;
use simkit::{SimDuration, SimRng, SimTime};
use soc::{
    ClusterConfig, DeviceBatch, EpochReport, Job, JobClass, LevelRequest, PowerModel, Soc,
    SocConfig, ThermalModel,
};

const EPOCHS: usize = 150;
const EPOCH_US: u64 = 20_000;
/// Rounding slack for the temperature bounds.
const EPS_C: f64 = 1e-9;

/// One lane: its SoC, per-epoch levels, and jobs as (arrival µs, work).
#[derive(Debug, Clone)]
struct Lane {
    config: SocConfig,
    levels: Vec<Vec<usize>>,
    jobs: Vec<(u64, u64)>,
}

fn random_lane(rng: &mut SimRng) -> Lane {
    let mut config = match rng.uniform_usize(4) {
        0 => SocConfig::symmetric_quad(),
        1 => SocConfig::tiny_test(),
        2 => SocConfig::odroid_xu3_like_cstates(),
        _ => SocConfig::odroid_xu3_like(),
    }
    .expect("preset is valid");
    for cluster in &mut config.clusters {
        if rng.chance(0.5) {
            let t = cluster.thermal;
            let trip = t.ambient_c + rng.uniform_in(0.1, 1.5);
            cluster.thermal = ThermalModel::new(
                t.r_th_c_per_w,
                t.c_th_j_per_c,
                t.ambient_c,
                trip,
                trip - 0.05,
                t.throttle_levels,
            );
        }
    }
    let max: Vec<usize> = config.clusters.iter().map(|c| c.opps.max_level()).collect();
    let pick = |rng: &mut SimRng| -> Vec<usize> {
        max.iter()
            .map(|&m| {
                if rng.chance(0.3) {
                    m
                } else {
                    rng.uniform_usize(m + 1)
                }
            })
            .collect()
    };
    let mut level = pick(rng);
    let mut levels = Vec::with_capacity(EPOCHS);
    let mut jobs = Vec::new();
    // Bursts of heavy work between quiet stretches, so clusters heat,
    // throttle and cool, and lanes park and unpark.
    let mut busy = false;
    for e in 0..EPOCHS as u64 {
        if rng.chance(0.06) {
            level = pick(rng);
        }
        if rng.chance(if busy { 0.3 } else { 0.04 }) {
            busy = !busy;
        }
        levels.push(level.clone());
        let arrivals = if busy {
            1 + rng.uniform_usize(6)
        } else {
            usize::from(rng.chance(0.08))
        };
        for _ in 0..arrivals {
            let at = e * EPOCH_US + rng.uniform_usize(EPOCH_US as usize) as u64;
            jobs.push((at, 200_000 + rng.uniform_usize(30_000_000) as u64));
        }
    }
    jobs.sort_unstable();
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

/// The steady state of a cluster's thermal node at its highest power:
/// every core busy at the most power-hungry level. Leakage grows with
/// temperature, so the bound is the fixed point of
/// `T = ambient + R · P(T)`, reached from ambient from below.
fn max_steady_c(cluster: &ClusterConfig) -> f64 {
    let (power, thermal) = (&cluster.power, &cluster.thermal);
    let p_max = |temp_c: f64| {
        cluster
            .opps
            .points()
            .iter()
            .map(|&opp| {
                let core = PowerModel::core_w(power, opp, 1.0, temp_c);
                cluster.cores as f64 * core + power.uncore_w(opp)
            })
            .fold(0.0, f64::max)
    };
    let mut temp_c = thermal.ambient_c;
    for _ in 0..10_000 {
        let next = thermal.steady_state_c(p_max(temp_c));
        if next - temp_c < 1e-12 {
            return next;
        }
        temp_c = next;
    }
    panic!("no thermal steady state for {}: runaway", cluster.name);
}

/// One lane's running account, checked after every epoch.
struct Account {
    completed: u64,
    /// Cluster-epochs that reported a level below the request.
    clamped: usize,
    cluster_energy_j: Vec<f64>,
    total_energy_j: f64,
    bounds_c: Vec<(f64, f64)>,
}

impl Account {
    fn new(config: &SocConfig) -> Account {
        Account {
            completed: 0,
            clamped: 0,
            cluster_energy_j: vec![0.0; config.clusters.len()],
            total_energy_j: 0.0,
            bounds_c: config
                .clusters
                .iter()
                .map(|c| (c.thermal.ambient_c, max_steady_c(c)))
                .collect(),
        }
    }

    /// Checks epoch `e`'s report against the request and the device's
    /// counts after it.
    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        what: &str,
        e: usize,
        request: &[usize],
        report: &EpochReport,
        submitted: u64,
        queued: usize,
        pending: usize,
        total_energy_j: f64,
    ) {
        self.completed += report.completed().count() as u64;
        assert_eq!(
            submitted,
            self.completed + (queued + pending) as u64,
            "{what}, epoch {e}: submitted = completed {} + queued {queued} + pending {pending}",
            self.completed
        );
        for (c, ((r, &(lo, hi)), energy)) in report
            .clusters
            .iter()
            .zip(&self.bounds_c)
            .zip(&mut self.cluster_energy_j)
            .enumerate()
        {
            let temp = r.temp_c;
            assert!(
                temp >= lo - EPS_C && temp <= hi + EPS_C,
                "{what}, epoch {e}, cluster {c}: {temp} °C outside [{lo}, {hi}]"
            );
            let cumulative = *energy + r.energy_j;
            assert!(
                cumulative >= *energy,
                "{what}, epoch {e}, cluster {c}: energy fell to {cumulative} J from {energy} J"
            );
            *energy = cumulative;
            self.clamped += usize::from(r.level < request[c]);
            assert!(
                r.level <= request[c],
                "{what}, epoch {e}, cluster {c}: level {} above the requested {}",
                r.level,
                request[c]
            );
        }
        assert!(
            total_energy_j >= self.total_energy_j,
            "{what}, epoch {e}: total energy fell to {total_energy_j} J from {} J",
            self.total_energy_j
        );
        self.total_energy_j = total_energy_j;
    }
}

/// Steps one lane alone, checking every epoch; returns its clamped
/// cluster-epochs.
fn run_alone(lane: &Lane, index: usize) -> usize {
    let mut soc = Soc::new(lane.config.clone()).expect("config is valid");
    let mut account = Account::new(&lane.config);
    let what = format!("lane {index} alone");
    for (e, levels) in lane.levels.iter().enumerate() {
        schedule(lane, e, |at, job| soc.schedule_job(at, job));
        let report = soc
            .run_epoch(&LevelRequest::new(levels.clone()))
            .expect("levels in range");
        account.check(
            &what,
            e,
            levels,
            &report,
            soc.jobs_submitted(),
            soc.queued_jobs(),
            soc.pending_arrivals(),
            soc.total_energy_j(),
        );
    }
    account.clamped
}

/// Steps every lane in one batch, checking every epoch; returns the
/// parked and the live lane-epochs, and the clamped cluster-epochs.
fn run_batched(lanes: &[Lane]) -> (usize, usize, usize) {
    let n = lanes.len();
    let socs = lanes
        .iter()
        .map(|lane| Soc::new(lane.config.clone()).expect("config is valid"))
        .collect();
    let mut batch = DeviceBatch::new(socs).expect("one grid");
    let mut accounts: Vec<Account> = lanes.iter().map(|l| Account::new(&l.config)).collect();
    let mut reports: Vec<EpochReport> = (0..n)
        .map(|_| EpochReport {
            started_at: SimTime::ZERO,
            ended_at: SimTime::ZERO,
            clusters: Vec::new(),
            energy_j: 0.0,
        })
        .collect();
    let (mut parked, mut live) = (0, 0);
    for e in 0..EPOCHS {
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
        for (i, (lane, (report, account))) in lanes
            .iter()
            .zip(reports.iter().zip(&mut accounts))
            .enumerate()
        {
            if batch.lane_parked(i) {
                parked += 1;
            } else {
                live += 1;
            }
            let soc = batch.lane(i);
            account.check(
                &format!("batch lane {i}"),
                e,
                &lane.levels[e],
                report,
                soc.jobs_submitted(),
                batch.lane_queued_jobs(i),
                soc.pending_arrivals(),
                soc.total_energy_j(),
            );
        }
    }
    (parked, live, accounts.iter().map(|a| a.clamped).sum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_jobs_are_conserved_and_clusters_stay_physical(seed in proptest::arbitrary::any::<u64>()) {
        let mut rng = SimRng::seed_from(seed);
        let lanes: Vec<Lane> = (0..8).map(|_| random_lane(&mut rng)).collect();
        let clamped_alone: usize = lanes.iter().enumerate().map(|(i, lane)| run_alone(lane, i)).sum();
        let (parked, live, clamped) = run_batched(&lanes);
        prop_assert!(parked > EPOCHS && live > EPOCHS, "{} parked and {} live lane-epochs", parked, live);
        prop_assert_eq!(clamped, clamped_alone);
        prop_assert!(clamped > 0, "the clamp never fired");
    }
}
