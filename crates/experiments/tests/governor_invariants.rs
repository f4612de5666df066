//! Per-epoch conservation and physical bounds under closed-loop
//! governors.
//!
//! `soc/tests/epoch_invariants.rs` checks these properties over random
//! fixed level schedules. Here the levels come from governors reading
//! each epoch's observation: `ondemand`, and the paper's RL policy,
//! quick-trained and then frozen. Each run drives catalog scenarios on the
//! xu3 preset, on xu3 with trip points 1.5 °C over ambient (so the clamp
//! fires), and on xu3 with cpuidle states. It runs on lone [`Soc`]s and as the lanes of
//! one [`DeviceBatch`], where quiet lanes park. After every epoch:
//!
//! - **Jobs are conserved.** Every job submitted so far has completed, is
//!   queued on a core, or waits in the arrival queue.
//! - **Each cluster stays physical.** Its temperature lies between
//!   ambient and the steady state of its node at maximum power; its
//!   cumulative energy never decreases; and its level is never above the
//!   level the governor requested.

use experiments::{PolicyKind, TrainingProtocol};
use governors::{Governor, GovernorKind, QosFeedback, SystemState};
use soc::{
    ClusterConfig, DeviceBatch, EpochObservation, EpochReport, LevelRequest, PowerModel, Soc,
    SocConfig, ThermalModel,
};
use workload::{Scenario, ScenarioKind};

const EPOCHS: usize = 120;
/// Rounding slack for the temperature bounds.
const EPS_C: f64 = 1e-9;

/// The xu3 preset with each cluster's trip point `rise` degrees over
/// ambient.
fn low_trip(rise: f64) -> SocConfig {
    let mut config = SocConfig::odroid_xu3_like().expect("preset is valid");
    for cluster in &mut config.clusters {
        let t = cluster.thermal;
        let trip = t.ambient_c + rise;
        cluster.thermal = ThermalModel::new(
            t.r_th_c_per_w,
            t.c_th_j_per_c,
            t.ambient_c,
            trip,
            trip - 0.2,
            t.throttle_levels,
        );
    }
    config
}

fn configs() -> Vec<SocConfig> {
    vec![
        SocConfig::odroid_xu3_like().expect("preset is valid"),
        low_trip(1.5),
        SocConfig::odroid_xu3_like_cstates().expect("preset is valid"),
    ]
}

/// The steady-state temperature of `cluster`'s node at maximum power:
/// every core busy at the most power-hungry level, leakage at the fixed
/// point of `T = ambient + R · P(T)`.
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

/// One device's running account, checked after every epoch.
struct Account {
    completed: u64,
    /// Cluster-epochs that reported a level below the request.
    clamped: usize,
    cluster_energy_j: Vec<f64>,
    bounds_c: Vec<(f64, f64)>,
}

impl Account {
    fn new(config: &SocConfig) -> Account {
        Account {
            completed: 0,
            clamped: 0,
            cluster_energy_j: vec![0.0; config.clusters.len()],
            bounds_c: config
                .clusters
                .iter()
                .map(|c| (c.thermal.ambient_c, max_steady_c(c)))
                .collect(),
        }
    }

    /// Checks epoch `e`'s report against the request and the device's job
    /// counts after it.
    fn check(
        &mut self,
        what: &str,
        e: usize,
        request: &LevelRequest,
        report: &EpochReport,
        (submitted, queued, pending): (u64, usize, usize),
    ) {
        self.completed += report.completed().count() as u64;
        assert_eq!(
            submitted,
            self.completed + (queued + pending) as u64,
            "{what}, epoch {e}: submitted = completed {} + queued {queued} + pending {pending}",
            self.completed
        );
        let clusters = report.clusters.iter().zip(&request.levels);
        for (c, ((r, &asked), (&(lo, hi), energy))) in clusters
            .zip(self.bounds_c.iter().zip(&mut self.cluster_energy_j))
            .enumerate()
        {
            assert!(
                r.temp_c >= lo - EPS_C && r.temp_c <= hi + EPS_C,
                "{what}, epoch {e}, cluster {c}: {} °C outside [{lo}, {hi}]",
                r.temp_c
            );
            let cumulative = *energy + r.energy_j;
            assert!(
                cumulative >= *energy,
                "{what}, epoch {e}, cluster {c}: energy fell to {cumulative} J from {energy} J"
            );
            *energy = cumulative;
            assert!(
                r.level <= asked,
                "{what}, epoch {e}, cluster {c}: level {} above the requested {asked}",
                r.level
            );
            self.clamped += usize::from(r.level < asked);
        }
    }
}

/// One closed-loop device: its scenario, governor and QoS-free state.
struct Device {
    scenario: Box<dyn Scenario>,
    governor: Box<dyn Governor>,
    request: LevelRequest,
    obs: EpochObservation,
    report: EpochReport,
    submitted: u64,
    account: Account,
}

impl Device {
    fn new(config: &SocConfig, kind: ScenarioKind, governor: Box<dyn Governor>, seed: u64) -> Self {
        Device {
            scenario: kind.build(seed),
            governor,
            request: LevelRequest::min(config),
            obs: EpochObservation {
                at: simkit::SimTime::ZERO,
                clusters: Vec::new(),
                energy_j: 0.0,
            },
            report: EpochReport {
                started_at: simkit::SimTime::ZERO,
                ended_at: simkit::SimTime::ZERO,
                clusters: Vec::new(),
                energy_j: 0.0,
            },
            submitted: 0,
            account: Account::new(config),
        }
    }

    /// The epoch's arrivals from `now`, each handed to `submit`.
    fn arrivals(
        &mut self,
        now: simkit::SimTime,
        epoch: simkit::SimDuration,
        mut submit: impl FnMut(simkit::SimTime, soc::Job),
    ) {
        for (at, job) in self.scenario.arrivals(now, now + epoch) {
            self.submitted += 1;
            submit(at, job);
        }
    }

    /// The governor's request for the next epoch, from the observation.
    fn decide(&mut self) {
        let state = SystemState::new(self.obs.clone(), QosFeedback::default());
        self.governor.decide_into(&state, &mut self.request);
    }
}

/// The governors each run uses on `config`: ondemand, and the RL policy
/// quick-trained on the scenario and frozen.
fn governor(config: &SocConfig, kind: ScenarioKind, rl: bool, seed: u64) -> Box<dyn Governor> {
    if rl {
        let protocol = TrainingProtocol {
            episodes: 2,
            episode_secs: 3,
        };
        PolicyKind::Rl.build_trained(config, kind, protocol, seed)
    } else {
        GovernorKind::Ondemand.build(config)
    }
}

/// Runs one device alone for [`EPOCHS`] epochs, checking every epoch;
/// returns its clamped cluster-epochs.
fn run_alone(config: &SocConfig, kind: ScenarioKind, rl: bool, seed: u64) -> usize {
    let mut soc = Soc::new(config.clone()).expect("preset is valid");
    let mut d = Device::new(config, kind, governor(config, kind, rl, seed), seed);
    let what = format!("alone {kind:?} rl={rl} seed {seed}");
    for e in 0..EPOCHS {
        d.arrivals(soc.now(), config.epoch, |at, job| soc.schedule_job(at, job));
        soc.run_epoch_into(&d.request, &mut d.report)
            .expect("governors request valid levels");
        let counts = (d.submitted, soc.queued_jobs(), soc.pending_arrivals());
        d.account.check(&what, e, &d.request, &d.report, counts);
        soc.observe_into(&d.report, &mut d.obs);
        d.decide();
    }
    d.account.clamped
}

/// Runs the devices as lanes of one batch, checking every lane's every
/// epoch; returns the clamped cluster-epochs and the parked lane-epochs.
fn run_batched(lanes: &[(SocConfig, ScenarioKind, bool, u64)]) -> (usize, usize) {
    let socs = lanes
        .iter()
        .map(|(config, ..)| Soc::new(config.clone()).expect("preset is valid"))
        .collect();
    let mut batch = DeviceBatch::new(socs).expect("one grid");
    let mut devices: Vec<Device> = lanes
        .iter()
        .map(|(config, kind, rl, seed)| {
            Device::new(config, *kind, governor(config, *kind, *rl, *seed), *seed)
        })
        .collect();
    let n = lanes.len();
    let active = vec![true; n];
    let mut reports: Vec<EpochReport> = devices.iter().map(|d| d.report.clone()).collect();
    let mut requests: Vec<LevelRequest> = devices.iter().map(|d| d.request.clone()).collect();
    let mut parked = 0;
    for e in 0..EPOCHS {
        for (i, (d, (config, ..))) in devices.iter_mut().zip(lanes).enumerate() {
            let now = batch.lane(i).now();
            d.arrivals(now, config.epoch, |at, job| batch.schedule_job(i, at, job));
            requests[i].clone_from(&d.request);
        }
        batch
            .run_epoch_into(&active, &requests, &mut reports)
            .expect("slices match the lanes");
        for (i, d) in devices.iter_mut().enumerate() {
            assert!(batch.lane_errors()[i].is_none(), "lane {i} failed");
            parked += usize::from(batch.lane_parked(i));
            let counts = (
                d.submitted,
                batch.lane_queued_jobs(i),
                batch.lane(i).pending_arrivals(),
            );
            let what = format!("batch lane {i}");
            d.account.check(&what, e, &requests[i], &reports[i], counts);
            batch.observe_lane_into(i, &reports[i], &mut d.obs);
            d.decide();
        }
    }
    (devices.iter().map(|d| d.account.clamped).sum(), parked)
}

#[test]
fn governed_runs_conserve_jobs_and_stay_physical() {
    let kinds = [
        ScenarioKind::Gaming,
        ScenarioKind::Mixed,
        ScenarioKind::Idle,
    ];
    let mut lanes = Vec::new();
    for (c, config) in configs().into_iter().enumerate() {
        for (k, &kind) in kinds.iter().enumerate() {
            for rl in [false, true] {
                // One RL run per preset keeps the training short.
                if rl && k > 0 {
                    continue;
                }
                lanes.push((config.clone(), kind, rl, (c * 10 + k) as u64 + 1));
            }
        }
    }
    let mut clamped = 0;
    for (config, kind, rl, seed) in &lanes {
        clamped += run_alone(config, *kind, *rl, *seed);
    }
    let (batch_clamped, parked) = run_batched(&lanes);
    assert!(clamped > 0, "no lone run reached the clamp");
    assert_eq!(batch_clamped, clamped, "a batch lane clamped differently");
    assert!(parked > 0, "no batch lane parked");
}
