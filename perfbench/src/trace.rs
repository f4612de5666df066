//! The traced pass's own copy of the control loop.
//!
//! The program has no per-layer spans yet, so the traced pass drives the
//! layers itself through their public APIs — the same calls, in the same
//! per-device order, as `experiments::run`, `run_batch` and
//! `train_rl_governor` — and times each phase. The tests below hold every
//! copy bit-identical to the program's own loop.
//!
//! The single-device loop wraps the scenario and governor in
//! [`TimedScenario`] / [`TimedGovernor`]; the batch loop instead runs each
//! phase as one pass over the lanes under one timer, because a timer per
//! lane per epoch costs more than an idle lane's whole epoch.

use std::time::{Duration, Instant};

use experiments::{BatchLane, RunConfig, RunMetrics, TrainingProtocol};
use governors::{Governor, QosFeedback, SystemState};
use rlpm::{persist, RlConfig, RlGovernor};
use simkit::{FaultCounts, SimTime};
use soc::{DeviceBatch, EpochObservation, EpochReport, Job, LevelRequest, Soc, SocConfig};
use workload::{QosReport, QosSpec, QosTracker, Scenario, ScenarioKind};

/// Time and work per layer, summed over everything a traced pass ran.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `Scenario::arrivals`.
    pub arrivals: Duration,
    /// Jobs the scenarios generated.
    pub jobs: u64,
    /// `QosTracker::observe_all` + `snapshot` and the per-epoch deltas.
    pub qos: Duration,
    /// `Soc::run_epoch_into` / `DeviceBatch::run_epoch_into`.
    pub step: Duration,
    /// Single-device steps of epochs that start with queued or pending jobs.
    pub step_active: Duration,
    /// Single-device steps of epochs that start with neither.
    pub step_idle: Duration,
    /// `Soc::observe_into` / `DeviceBatch::observe_lane_into`.
    pub observe: Duration,
    /// Baseline `Governor::decide_into`.
    pub gov_decide: Duration,
    /// Baseline decisions.
    pub gov_decides: u64,
    /// RL `decide_into` (with the TD update while training).
    pub rl_decide: Duration,
    /// Whole RL trainings (a parent of the loop timers they contain).
    pub rl_train: Duration,
    /// TD updates the trained agents performed.
    pub td_updates: u64,
    /// The loop's untimed segments: job scheduling, per-epoch
    /// bookkeeping and loop control.
    pub rest: Duration,
    /// Lane-epochs stepped by a batch.
    pub lane_epochs: u64,
    /// Of those, lane-epochs that ran parked in the idle kernel.
    pub parked_lane_epochs: u64,
}

impl Layers {
    /// Adds `other`'s totals to `self`.
    pub fn add(&mut self, o: &Layers) {
        self.arrivals += o.arrivals;
        self.jobs += o.jobs;
        self.qos += o.qos;
        self.step += o.step;
        self.step_active += o.step_active;
        self.step_idle += o.step_idle;
        self.observe += o.observe;
        self.gov_decide += o.gov_decide;
        self.gov_decides += o.gov_decides;
        self.rl_decide += o.rl_decide;
        self.rl_train += o.rl_train;
        self.td_updates += o.td_updates;
        self.rest += o.rest;
        self.lane_epochs += o.lane_epochs;
        self.parked_lane_epochs += o.parked_lane_epochs;
    }

    /// Time under the loop's leaf timers: the whole epoch loop, since
    /// `rest` is its remainder.
    pub fn covered(&self) -> Duration {
        self.arrivals
            + self.qos
            + self.step
            + self.observe
            + self.gov_decide
            + self.rl_decide
            + self.rest
    }

    /// The per-epoch timers in the loop itself (everything but `rest`,
    /// which is derived from them).
    fn timed(&self) -> Duration {
        self.arrivals + self.qos + self.step + self.observe + self.gov_decide + self.rl_decide
    }
}

/// Which layer a governor's decisions are charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decider {
    /// A baseline from `governors`.
    Baseline,
    /// The RL policy from `rlpm`.
    Rl,
}

/// Forwards every [`Governor`] method, timing and counting decisions.
pub struct TimedGovernor<'a> {
    inner: &'a mut dyn Governor,
    /// Time spent in `decide` / `decide_into`.
    pub busy: Duration,
    /// Decisions made.
    pub calls: u64,
}

impl<'a> TimedGovernor<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Governor) -> Self {
        TimedGovernor {
            inner,
            busy: Duration::ZERO,
            calls: 0,
        }
    }
}

impl Governor for TimedGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, state: &SystemState) -> LevelRequest {
        let start = Instant::now();
        let request = self.inner.decide(state);
        self.busy += start.elapsed();
        self.calls += 1;
        request
    }

    fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
        let start = Instant::now();
        self.inner.decide_into(state, request);
        self.busy += start.elapsed();
        self.calls += 1;
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn inject_table_seu(&mut self, entropy: u64) -> bool {
        self.inner.inject_table_seu(entropy)
    }

    fn seu_recovery_counts(&self) -> (u64, u64) {
        self.inner.seu_recovery_counts()
    }
}

/// Forwards every [`Scenario`] method, timing arrivals and counting jobs.
pub struct TimedScenario<'a> {
    inner: &'a mut dyn Scenario,
    /// Time spent in `arrivals`.
    pub busy: Duration,
    /// Jobs returned by `arrivals`.
    pub jobs: u64,
}

impl<'a> TimedScenario<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Scenario) -> Self {
        TimedScenario {
            inner,
            busy: Duration::ZERO,
            jobs: 0,
        }
    }
}

impl Scenario for TimedScenario<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn qos_spec(&self) -> QosSpec {
        self.inner.qos_spec()
    }

    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, Job)> {
        let start = Instant::now();
        let arrivals = self.inner.arrivals(from, to);
        self.busy += start.elapsed();
        self.jobs += arrivals.len() as u64;
        arrivals
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The locals of one device's closed-loop run.
struct Book {
    tracker: QosTracker,
    prev_snapshot: QosReport,
    state: SystemState,
    transitions: u64,
    level_frac_sum: Vec<f64>,
    max_levels: Vec<usize>,
    idle_gated_core_s: f64,
    idle_collapsed_core_s: f64,
    started_at: SimTime,
    start_energy: f64,
    start_jobs: u64,
    epochs_done: u64,
}

impl Book {
    fn new(soc: &Soc, spec: QosSpec) -> Book {
        let tracker = QosTracker::new(spec);
        Book {
            prev_snapshot: tracker.snapshot(),
            tracker,
            state: SystemState::new(
                EpochObservation {
                    at: soc.now(),
                    clusters: Vec::new(),
                    energy_j: 0.0,
                },
                QosFeedback::default(),
            ),
            transitions: 0,
            level_frac_sum: vec![0.0; soc.config().clusters.len()],
            max_levels: soc
                .config()
                .clusters
                .iter()
                .map(|c| c.opps.max_level().max(1))
                .collect(),
            idle_gated_core_s: 0.0,
            idle_collapsed_core_s: 0.0,
            started_at: soc.now(),
            start_energy: soc.total_energy_j(),
            start_jobs: soc.jobs_submitted(),
            epochs_done: 0,
        }
    }

    /// Accounts a finished epoch's completions; returns the epoch's
    /// `(units, violations, qos ratio)`.
    fn account_qos(&mut self, report: &EpochReport) -> (f64, u64, f64) {
        self.tracker.observe_all(report.completed());
        let snapshot = self.tracker.snapshot();
        let units = snapshot.units - self.prev_snapshot.units;
        let max_units = snapshot.max_units - self.prev_snapshot.max_units;
        let violations = snapshot.violations - self.prev_snapshot.violations;
        self.prev_snapshot = snapshot;
        let ratio = if max_units > 0.0 {
            (units / max_units).clamp(0.0, 1.0)
        } else {
            1.0
        };
        (units, violations, ratio)
    }

    /// Per-cluster tallies of a finished epoch.
    fn tally(&mut self, report: &EpochReport) {
        self.epochs_done += 1;
        for ((r, &max_level), frac) in report
            .clusters
            .iter()
            .zip(&self.max_levels)
            .zip(self.level_frac_sum.iter_mut())
        {
            self.transitions += u64::from(r.transitions);
            *frac += r.level as f64 / max_level as f64;
            self.idle_gated_core_s += r.idle_gated_s;
            self.idle_collapsed_core_s += r.idle_collapsed_s;
        }
    }

    fn feedback(&mut self, (units, violations, qos_ratio): (f64, u64, f64), pending_jobs: usize) {
        self.state.qos = QosFeedback {
            qos_ratio,
            units,
            violations,
            pending_jobs,
        };
    }

    fn finish(self, soc: &Soc, governor: &dyn Governor) -> RunMetrics {
        let energy_j = soc.total_energy_j() - self.start_energy;
        let unfinished = soc.queued_jobs() + soc.pending_arrivals();
        let qos = self.tracker.finalize(unfinished);
        let wall = (soc.now() - self.started_at).as_secs_f64();
        let (seus_detected, table_reloads) = governor.seu_recovery_counts();
        RunMetrics {
            energy_j,
            energy_per_qos: qos.energy_per_qos(energy_j),
            qos,
            avg_power_w: if wall > 0.0 { energy_j / wall } else { 0.0 },
            transitions: self.transitions,
            epochs: self.epochs_done,
            jobs_submitted: soc.jobs_submitted() - self.start_jobs,
            mean_level_frac: self
                .level_frac_sum
                .iter()
                .map(|s| s / self.epochs_done.max(1) as f64)
                .collect(),
            idle_gated_core_s: self.idle_gated_core_s,
            idle_collapsed_core_s: self.idle_collapsed_core_s,
            watchdog_engagements: 0,
            fault_counts: FaultCounts::default(),
            seus_detected,
            table_reloads,
            trace: None,
        }
    }
}

fn empty_report(soc: &Soc) -> EpochReport {
    EpochReport {
        started_at: soc.now(),
        ended_at: soc.now(),
        clusters: Vec::new(),
        energy_j: 0.0,
    }
}

fn initial_request(soc: &Soc) -> LevelRequest {
    LevelRequest::new(soc.clusters().iter().map(|c| c.level()).collect())
}

/// `experiments::run` (no faults, no per-epoch trace), timed per phase.
pub fn run_traced(
    soc: &mut Soc,
    scenario: &mut dyn Scenario,
    governor: &mut dyn Governor,
    config: RunConfig,
    decider: Decider,
    layers: &mut Layers,
) -> RunMetrics {
    let mut scenario = TimedScenario::new(scenario);
    let mut governor = TimedGovernor::new(governor);
    let epoch = soc.config().epoch;
    let epochs = (config.duration / epoch).max(1);
    let mut book = Book::new(soc, scenario.qos_spec());
    let mut request = initial_request(soc);
    let mut report = empty_report(soc);
    let mut own = Layers::default();
    let loop_start = Instant::now();
    for _ in 0..epochs {
        let from = soc.now();
        for (at, job) in scenario.arrivals(from, from + epoch) {
            soc.schedule_job(at, job);
        }
        let busy = soc.queued_jobs() + soc.pending_arrivals() > 0;
        let t0 = Instant::now();
        let stepped = soc.run_epoch_into(&request, &mut report);
        let t1 = Instant::now();
        if busy {
            own.step_active += t1 - t0;
        } else {
            own.step_idle += t1 - t0;
        }
        if stepped.is_err() {
            break;
        }
        let qos = book.account_qos(&report);
        let t2 = Instant::now();
        own.qos += t2 - t1;
        book.tally(&report);
        let t3 = Instant::now();
        soc.observe_into(&report, &mut book.state.soc);
        book.feedback(qos, soc.queued_jobs());
        own.observe += t3.elapsed();
        governor.decide_into(&book.state, &mut request);
    }
    let loop_wall = loop_start.elapsed();
    own.step = own.step_active + own.step_idle;
    own.arrivals = scenario.busy;
    own.jobs = scenario.jobs;
    match decider {
        Decider::Baseline => {
            own.gov_decide = governor.busy;
            own.gov_decides = governor.calls;
        }
        Decider::Rl => own.rl_decide = governor.busy,
    }
    own.rest = loop_wall.saturating_sub(own.timed());
    layers.add(&own);
    book.finish(soc, &governor)
}

/// `experiments::train_rl_governor`, with every episode run through
/// [`run_traced`].
pub fn train_traced(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    protocol: TrainingProtocol,
    seed: u64,
    layers: &mut Layers,
) -> RlGovernor {
    let start = Instant::now();
    let mut policy = RlGovernor::new(RlConfig::for_soc(soc_config), seed);
    let Ok(mut soc) = Soc::new(soc_config.clone()) else {
        return policy;
    };
    let mut scenario = scenario.build(seed.wrapping_add(0x5eed));
    for _ in 0..protocol.episodes {
        run_traced(
            &mut soc,
            scenario.as_mut(),
            &mut policy,
            RunConfig::seconds(protocol.episode_secs),
            Decider::Rl,
            layers,
        );
        soc.reset();
        scenario.reset();
        policy.reset();
    }
    layers.rl_train += start.elapsed();
    layers.td_updates += policy.agent().updates();
    policy
}

/// Restores a frozen policy from `trained`'s persisted table the way the
/// program's cache does, and checks that the restored merged table equals
/// the trained one bit for bit.
pub fn restore_frozen(
    trained: &RlGovernor,
    soc_config: &SocConfig,
    seed: u64,
) -> Result<RlGovernor, String> {
    let table = persist::parse_table(&persist::save_policy(trained))
        .map_err(|e| format!("persisted table does not parse: {e}"))?;
    let mut policy = RlGovernor::new(RlConfig::for_soc(soc_config), seed);
    if policy.agent().table().num_states() != table.num_states()
        || policy.agent().table().num_actions() != table.num_actions()
    {
        return Err("persisted table geometry differs".into());
    }
    policy.agent_mut().load_merged(table.values());
    policy.set_frozen(true);
    policy.reset();
    let bits = |p: &RlGovernor| -> Vec<u64> {
        let merged = p.agent().merged_table();
        merged.values().iter().map(|v| v.to_bits()).collect()
    };
    if bits(&policy) != bits(trained) {
        return Err("restored merged table differs from the trained one".into());
    }
    Ok(policy)
}

/// `experiments::run_batch` for fault-free lanes, each phase run as one
/// timed pass over the lanes.
pub fn run_batch_traced(
    batch: &mut DeviceBatch,
    lanes: &mut [BatchLane],
    config: RunConfig,
    layers: &mut Layers,
) -> Result<Vec<RunMetrics>, String> {
    let n = batch.len();
    if lanes.len() != n || lanes.iter().any(|l| l.faults.is_some()) {
        return Err("traced batch needs one fault-free lane per device".into());
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let epoch = batch.lane(0).config().epoch;
    let epochs = (config.duration / epoch).max(1);
    let mut active = vec![true; n];
    let mut live = vec![false; n];
    let mut requests: Vec<LevelRequest> = (0..n).map(|i| initial_request(batch.lane(i))).collect();
    let mut reports: Vec<EpochReport> = (0..n).map(|i| empty_report(batch.lane(i))).collect();
    let mut books: Vec<Book> = lanes
        .iter()
        .enumerate()
        .map(|(i, lane)| Book::new(batch.lane(i), lane.scenario.qos_spec()))
        .collect();
    let mut arrivals: Vec<Vec<(SimTime, Job)>> = vec![Vec::new(); n];
    let mut qos: Vec<(f64, u64, f64)> = vec![(0.0, 0, 1.0); n];
    let mut own = Layers::default();

    let loop_start = Instant::now();
    for _ in 0..epochs {
        let t0 = Instant::now();
        for (i, (lane, slot)) in lanes.iter_mut().zip(&mut arrivals).enumerate() {
            if active[i] {
                let from = batch.lane(i).now();
                *slot = lane.scenario.arrivals(from, from + epoch);
                own.jobs += slot.len() as u64;
            }
        }
        let t1 = Instant::now();
        own.arrivals += t1 - t0;
        for (i, slot) in arrivals.iter_mut().enumerate() {
            for (at, job) in slot.drain(..) {
                batch.schedule_job(i, at, job);
            }
        }

        let t2 = Instant::now();
        if batch
            .run_epoch_into(&active, &requests, &mut reports)
            .is_err()
        {
            break;
        }
        let t3 = Instant::now();
        own.step += t3 - t2;
        own.lane_epochs += active.iter().filter(|&&a| a).count() as u64;
        own.parked_lane_epochs += batch.parked_lanes() as u64;

        for (i, error) in batch.lane_errors().iter().enumerate() {
            live[i] = active[i] && error.is_none();
            active[i] = live[i];
        }
        let t4 = Instant::now();
        for (i, (book, report)) in books.iter_mut().zip(&reports).enumerate() {
            if live[i] {
                // A parked epoch completes no jobs: every snapshot delta
                // is zero and the ratio takes its no-demand branch, which
                // is why the program skips the tracker for it.
                qos[i] = if batch.lane_parked(i) {
                    (0.0, 0, 1.0)
                } else {
                    book.account_qos(report)
                };
            }
        }
        let t5 = Instant::now();
        own.qos += t5 - t4;
        for (i, (book, report)) in books.iter_mut().zip(&reports).enumerate() {
            if live[i] {
                book.tally(report);
            }
        }
        let t6 = Instant::now();
        for (i, (book, report)) in books.iter_mut().zip(&reports).enumerate() {
            if live[i] {
                batch.observe_lane_into(i, report, &mut book.state.soc);
                book.feedback(qos[i], batch.lane_queued_jobs(i));
            }
        }
        let t7 = Instant::now();
        own.observe += t7 - t6;
        for (i, ((lane, book), request)) in
            lanes.iter_mut().zip(&books).zip(&mut requests).enumerate()
        {
            if live[i] {
                lane.governor.decide_into(&book.state, request);
                own.gov_decides += 1;
            }
        }
        own.gov_decide += t7.elapsed();
    }
    own.rest = loop_start.elapsed().saturating_sub(own.timed());
    layers.add(&own);

    batch.unpark_all();
    Ok(books
        .into_iter()
        .zip(lanes.iter())
        .enumerate()
        .map(|(i, (book, lane))| book.finish(batch.lane(i), lane.governor.as_ref()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::{run, run_batch};
    use governors::GovernorKind;

    fn xu3() -> SocConfig {
        SocConfig::odroid_xu3_like().expect("preset validates")
    }

    /// Debug output of f64 round-trips, so equal renderings are equal bits.
    fn bits(m: &RunMetrics) -> String {
        format!("{m:?}")
    }

    /// A governor and scenario that count every trait call, to show the
    /// wrappers forward each method.
    #[derive(Default)]
    struct Probe {
        calls: [u32; 6],
    }

    impl Governor for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn decide(&mut self, state: &SystemState) -> LevelRequest {
            self.calls[0] += 1;
            LevelRequest::new(state.soc.clusters.iter().map(|c| c.level).collect())
        }
        fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
            self.calls[1] += 1;
            *request = LevelRequest::new(state.soc.clusters.iter().map(|c| c.level).collect());
        }
        fn reset(&mut self) {
            self.calls[2] += 1;
        }
        fn inject_table_seu(&mut self, entropy: u64) -> bool {
            self.calls[3] += 1;
            entropy == 7
        }
        fn seu_recovery_counts(&self) -> (u64, u64) {
            (3, 4)
        }
    }

    impl Scenario for Probe {
        fn name(&self) -> &str {
            "probe-scenario"
        }
        fn qos_spec(&self) -> QosSpec {
            QosSpec::with_tolerance(simkit::SimDuration::from_millis(5))
        }
        fn arrivals(&mut self, _: SimTime, _: SimTime) -> Vec<(SimTime, Job)> {
            self.calls[4] += 1;
            Vec::new()
        }
        fn reset(&mut self) {
            self.calls[5] += 1;
        }
    }

    #[test]
    fn wrappers_forward_every_method() {
        let soc = Soc::new(xu3()).expect("soc");
        let state = SystemState::new(soc.observe(&empty_report(&soc)), QosFeedback::default());
        let mut probe = Probe::default();
        {
            let mut g = TimedGovernor::new(&mut probe);
            assert_eq!(g.name(), "probe");
            let _ = g.decide(&state);
            let mut request = initial_request(&soc);
            g.decide_into(&state, &mut request);
            g.reset();
            assert!(g.inject_table_seu(7));
            assert_eq!(g.seu_recovery_counts(), (3, 4));
            assert_eq!(g.calls, 2);
        }
        {
            let mut s = TimedScenario::new(&mut probe);
            assert_eq!(s.name(), "probe-scenario");
            assert_eq!(
                s.qos_spec(),
                QosSpec::with_tolerance(simkit::SimDuration::from_millis(5))
            );
            let _ = s.arrivals(SimTime::ZERO, SimTime::from_millis(20));
            s.reset();
        }
        assert_eq!(probe.calls, [1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn wrapped_run_equals_unwrapped_run() {
        for (kind, gov) in [
            (ScenarioKind::Mixed, GovernorKind::Interactive),
            (ScenarioKind::Idle, GovernorKind::Ondemand),
        ] {
            let go = |wrap: bool| {
                let mut soc = Soc::new(xu3()).expect("soc");
                let mut scenario = kind.build(5);
                let mut governor = gov.build(soc.config());
                let config = RunConfig::seconds(4);
                if wrap {
                    let mut s = TimedScenario::new(scenario.as_mut());
                    let mut g = TimedGovernor::new(governor.as_mut());
                    run(&mut soc, &mut s, &mut g, config)
                } else {
                    run(&mut soc, scenario.as_mut(), governor.as_mut(), config)
                }
            };
            assert_eq!(bits(&go(true)), bits(&go(false)), "{kind}/{gov}");
        }
    }

    #[test]
    fn traced_loop_equals_run() {
        for (kind, gov) in [
            (ScenarioKind::Gaming, GovernorKind::Schedutil),
            (ScenarioKind::Idle, GovernorKind::Powersave),
        ] {
            let mut soc = Soc::new(xu3()).expect("soc");
            let program = run(
                &mut soc,
                kind.build(9).as_mut(),
                gov.build(&xu3()).as_mut(),
                RunConfig::seconds(5),
            );
            let mut soc = Soc::new(xu3()).expect("soc");
            let mut layers = Layers::default();
            let traced = run_traced(
                &mut soc,
                kind.build(9).as_mut(),
                gov.build(&xu3()).as_mut(),
                RunConfig::seconds(5),
                Decider::Baseline,
                &mut layers,
            );
            assert_eq!(bits(&traced), bits(&program), "{kind}/{gov}");
            assert_eq!(layers.gov_decides, program.epochs);
            assert_eq!(layers.jobs, program.jobs_submitted);
        }
    }

    #[test]
    fn traced_training_equals_program_training() {
        let protocol = TrainingProtocol {
            episodes: 2,
            episode_secs: 3,
        };
        let program = experiments::train_rl_governor(&xu3(), ScenarioKind::Video, protocol, 4);
        let mut layers = Layers::default();
        let traced = train_traced(&xu3(), ScenarioKind::Video, protocol, 4, &mut layers);
        let table = |p: &RlGovernor| -> Vec<u64> {
            let merged = p.agent().merged_table();
            merged.values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(table(&traced), table(&program));
        assert_eq!(layers.td_updates, program.agent().updates());
        assert!(restore_frozen(&traced, &xu3(), 4).is_ok());
    }

    #[test]
    fn traced_batch_equals_run_batch() {
        let lanes = |kind: ScenarioKind| -> (DeviceBatch, Vec<BatchLane>) {
            let socs = (0..9).map(|_| Soc::new(xu3()).expect("soc")).collect();
            let lanes = (0..9)
                .map(|i| BatchLane {
                    scenario: kind.build(100 + i),
                    governor: GovernorKind::Ondemand.build(&xu3()),
                    faults: None,
                })
                .collect();
            (DeviceBatch::new(socs).expect("batch"), lanes)
        };
        for kind in [ScenarioKind::Mixed, ScenarioKind::Idle] {
            let (mut batch, mut l) = lanes(kind);
            let program = run_batch(&mut batch, &mut l, RunConfig::seconds(6));
            let (mut batch, mut l) = lanes(kind);
            let mut layers = Layers::default();
            let traced = run_batch_traced(&mut batch, &mut l, RunConfig::seconds(6), &mut layers)
                .expect("fault-free lanes");
            let render = |v: &[RunMetrics]| v.iter().map(bits).collect::<Vec<_>>();
            assert_eq!(render(&traced), render(&program), "{kind}");
            assert_eq!(layers.lane_epochs, 9 * 300);
            assert!(layers.parked_lane_epochs <= layers.lane_epochs);
        }
    }
}
