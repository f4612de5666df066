//! The closed control loop: scenario → SoC → QoS accounting → governor.
//!
//! The loop's per-device bookkeeping is written once, in `LaneLoop`: the
//! QoS deltas, the per-cluster tallies, the trace row, the decision
//! dispatch and the final [`RunMetrics`]. Two thin steppers drive it.
//! [`run_with_faults`] (and so [`run`]) steps one [`Soc`]; [`run_batch`]
//! steps the lanes of a [`DeviceBatch`], sharded across the worker
//! threads, so that idle lanes share one kernel dispatch. Both make the
//! same calls in the same order for every device, which is why a
//! batched lane's metrics are bit-identical to the same device run
//! alone. Both skip the arrival call for a window that ends by the
//! scenario's quiet horizon ([`Scenario::quiet_until`]), where it would
//! return nothing and change nothing.
//!
//! One call differs: a batched lane that ran its epoch parked, has no
//! fault harness, and whose governor certifies the parked request as
//! its fixed point ([`Governor::decide_parked`]) *sleeps* for the epoch.
//! [`run_batch`] then skips its observation and decision, which would
//! rewrite the request unchanged and leave the governor unchanged, and
//! the observation is read by nothing else. The epoch's accounting still
//! runs, in order, so every sum and trace row is the same. A lone [`Soc`]
//! never parks, so [`run`] never sleeps.

use governors::{Governor, QosFeedback, SystemState};
use simkit::trace::Trace;
use simkit::{obs, FaultCounts, SimDuration, SimTime};
use soc::{DeviceBatch, EpochObservation, EpochReport, Job, LevelRequest, Soc};
use workload::{QosReport, QosTracker, Scenario};

use crate::resilience::FaultHarness;

/// Closed-loop runs completed in this process.
static RUNS: obs::Counter = obs::Counter::new("runner.runs");

/// Parameters of one closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Record a per-epoch trace (frequency levels, power, QoS) for
    /// figure regeneration. Costs memory proportional to epochs.
    pub record_trace: bool,
}

impl RunConfig {
    /// A run of the given number of simulated seconds, without tracing.
    /// A count past the nanosecond range (about 584 years) saturates to
    /// it rather than panicking.
    pub fn seconds(secs: u64) -> Self {
        RunConfig {
            duration: SimDuration::from_nanos(secs.saturating_mul(1_000_000_000)),
            record_trace: false,
        }
    }

    /// Enables trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// The number of `epoch`-long epochs the run steps. A duration
    /// shorter than one epoch saturates to a single epoch: the control
    /// loop's unit of progress is the epoch, so the shortest meaningful
    /// run is one of them.
    fn epochs(self, epoch: SimDuration) -> u64 {
        (self.duration / epoch).max(1)
    }
}

/// Everything measured during one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Total energy (J).
    pub energy_j: f64,
    /// Final QoS accounting.
    pub qos: QosReport,
    /// The headline metric: energy per delivered QoS unit (J/unit).
    pub energy_per_qos: f64,
    /// Mean power draw (W).
    pub avg_power_w: f64,
    /// DVFS transitions performed.
    pub transitions: u64,
    /// Epochs simulated.
    pub epochs: u64,
    /// Jobs submitted by the scenario.
    pub jobs_submitted: u64,
    /// Mean per-cluster frequency level over the run, normalised to
    /// `[0, 1]` of each table.
    pub mean_level_frac: Vec<f64>,
    /// Core-seconds spent clock-gated (zero unless the SoC has cpuidle).
    pub idle_gated_core_s: f64,
    /// Core-seconds spent power-collapsed.
    pub idle_collapsed_core_s: f64,
    /// Epochs a watchdog fallback decided instead of the primary policy
    /// (zero without a fault harness or watchdog).
    pub watchdog_engagements: u64,
    /// Fault events injected during the run (zero without a harness).
    pub fault_counts: FaultCounts,
    /// Q-table SEUs the governor's recovery machinery detected.
    pub seus_detected: u64,
    /// Q-table reloads performed to recover from detected SEUs.
    pub table_reloads: u64,
    /// Optional per-epoch trace: columns `level_<cluster>`,
    /// `util_<cluster>`, `power_w`, `qos_units`.
    pub trace: Option<Trace>,
}

/// One device's side of the closed loop, everything but the stepping:
/// the QoS tracker and its per-epoch deltas, the per-cluster tallies,
/// the optional trace, the governor's input state and the decision
/// dispatch.
///
/// A stepper opens one per device with [`LaneLoop::new`]. Each epoch it
/// feeds the arrivals through [`LaneLoop::feed_arrivals`], steps the
/// device into the report, writes the observation into `state.soc`, and
/// calls [`LaneLoop::finish_epoch`] then [`LaneLoop::decide`]. After the
/// last epoch, [`LaneLoop::finalize`] reads the metrics off the device.
struct LaneLoop {
    tracker: QosTracker,
    prev_snapshot: QosReport,
    /// The governor's input. The stepper writes the observation half,
    /// [`LaneLoop::finish_epoch`] the QoS half.
    state: SystemState,
    transitions: u64,
    level_frac_sum: Vec<f64>,
    /// Per-cluster `opps.max_level().max(1)`, cached so the per-epoch
    /// fold does not walk the SoC config.
    max_levels: Vec<usize>,
    idle_gated_core_s: f64,
    idle_collapsed_core_s: f64,
    /// Epoch length in seconds, the trace's energy-to-power divisor.
    epoch_s: f64,
    started_at: SimTime,
    start_energy: f64,
    start_jobs: u64,
    epochs_done: u64,
    trace: Option<Trace>,
    /// The scenario's quiet horizon as of its last arrival call; `ZERO`
    /// until the first, so the first window is always called.
    quiet_until: SimTime,
}

impl LaneLoop {
    /// Opens the loop on `soc` from its current state, with the request
    /// and report buffers the stepper steps it with. The request holds
    /// the SoC's current levels, so the first epoch runs at them (the
    /// lowest OPP on a fresh or reset SoC).
    fn new(
        soc: &Soc,
        scenario: &dyn Scenario,
        config: RunConfig,
    ) -> (LaneLoop, LevelRequest, EpochReport) {
        let clusters = &soc.config().clusters;
        let tracker = QosTracker::new(scenario.qos_spec());
        let lane = LaneLoop {
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
            level_frac_sum: vec![0.0; clusters.len()],
            max_levels: clusters.iter().map(|c| c.opps.max_level().max(1)).collect(),
            idle_gated_core_s: 0.0,
            idle_collapsed_core_s: 0.0,
            epoch_s: soc.config().epoch.as_secs_f64(),
            started_at: soc.now(),
            start_energy: soc.total_energy_j(),
            start_jobs: soc.jobs_submitted(),
            epochs_done: 0,
            trace: config.record_trace.then(|| {
                let n = clusters.len();
                let columns = (0..n)
                    .map(|c| format!("level_{c}"))
                    .chain((0..n).map(|c| format!("util_{c}")))
                    .chain(["power_w".to_owned(), "qos_units".to_owned()]);
                Trace::new("run", columns)
            }),
            quiet_until: SimTime::ZERO,
        };
        // The report's per-cluster slots (and their completed-job pools)
        // and the observation's cluster buffer are reused across epochs
        // and keep their capacity, so the steady-state loop does not
        // allocate.
        let request = LevelRequest::new(soc.clusters().iter().map(|c| c.level()).collect());
        let report = EpochReport {
            started_at: soc.now(),
            ended_at: soc.now(),
            clusters: Vec::new(),
            energy_j: 0.0,
        };
        (lane, request, report)
    }

    /// Hands `scenario`'s arrivals in `[from, from + epoch)` to
    /// `schedule`, unless the window ends by the scenario's quiet horizon,
    /// where the call would return nothing and change nothing.
    fn feed_arrivals(
        &mut self,
        scenario: &mut dyn Scenario,
        from: SimTime,
        epoch: SimDuration,
        mut schedule: impl FnMut(SimTime, Job),
    ) {
        let to = from + epoch;
        if to <= self.quiet_until {
            return;
        }
        for (at, job) in scenario.arrivals(from, to) {
            schedule(at, job);
        }
        self.quiet_until = scenario.quiet_until();
    }

    /// Accounts the epoch `report` describes and sets the QoS half of
    /// the next decision's input; `pending_jobs` is the device's queue
    /// after the epoch.
    ///
    /// `parked` marks an epoch that ran parked in the batch's steady
    /// kernel. Such an epoch completes no jobs, so the tracker would not
    /// move: every snapshot delta is exactly zero (`x - x` is `+0.0` for
    /// finite totals) and the ratio takes its no-demand branch. Skipping
    /// the snapshot round-trip is therefore bit-identical to the live
    /// path.
    fn finish_epoch(&mut self, report: &EpochReport, parked: bool, pending_jobs: usize) {
        self.epochs_done += 1;
        let (units, violations, qos_ratio) = if parked {
            (0.0, 0, 1.0)
        } else {
            self.tracker.observe_all(report.completed());
            let snapshot = self.tracker.snapshot();
            let units = snapshot.units - self.prev_snapshot.units;
            let max_units = snapshot.max_units - self.prev_snapshot.max_units;
            let violations = snapshot.violations - self.prev_snapshot.violations;
            self.prev_snapshot = snapshot;
            // Per-epoch QoS ratio: a cumulative ratio would let one bad
            // epoch poison the state signal for the rest of the episode.
            let ratio = if max_units > 0.0 {
                (units / max_units).clamp(0.0, 1.0)
            } else {
                1.0
            };
            (units, violations, ratio)
        };

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

        self.state.qos = QosFeedback {
            qos_ratio,
            units,
            violations,
            pending_jobs,
        };
        if let Some(trace) = self.trace.as_mut() {
            let levels = report.clusters.iter().map(|r| r.level as f64);
            let utils = report.clusters.iter().map(|r| r.util_max);
            let power_w = report.energy_j / self.epoch_s;
            trace.record(report.ended_at, levels.chain(utils).chain([power_w, units]));
        }
    }

    /// Lets `governor` set `request` for the next epoch, through the
    /// fault harness (watchdog, corrupted telemetry, SEUs) when the
    /// device has one.
    fn decide(
        &mut self,
        governor: &mut dyn Governor,
        faults: Option<&mut FaultHarness>,
        request: &mut LevelRequest,
    ) {
        // The guard drops on return, so the span times exactly the
        // dispatch below.
        let _decide_span = obs::span!("runner.decide");
        // xtask-hotpath: begin (per-epoch decision dispatch, no allocation)
        match faults {
            Some(harness) => {
                harness.decide(governor, &mut self.state, request);
            }
            None => governor.decide_into(&self.state, request),
        }
        // xtask-hotpath: end
    }

    /// The run's metrics, read off `soc` after its last epoch.
    fn finalize(
        self,
        soc: &Soc,
        governor: &dyn Governor,
        faults: Option<&FaultHarness>,
    ) -> RunMetrics {
        let energy_j = soc.total_energy_j() - self.start_energy;
        let unfinished = soc.queued_jobs() + soc.pending_arrivals();
        let qos = self.tracker.finalize(unfinished);
        let wall = (soc.now() - self.started_at).as_secs_f64();
        let (seus_detected, table_reloads) = governor.seu_recovery_counts();
        let (watchdog_engagements, fault_counts) = match faults {
            Some(harness) => (harness.watchdog_engagements(), *harness.counts()),
            None => (0, FaultCounts::default()),
        };
        RUNS.inc();
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
            watchdog_engagements,
            fault_counts,
            seus_detected,
            table_reloads,
            trace: self.trace,
        }
    }
}

/// Runs `governor` on `scenario` for `config.duration`, starting from the
/// SoC's current state (callers reset the SoC for independent runs; the
/// training loop deliberately does not).
///
/// The loop matches the paper's control structure: at each epoch boundary
/// the governor observes the epoch just finished (utilisation, energy,
/// QoS feedback) and sets levels for the next epoch. The first epoch runs
/// at the lowest OPP.
pub fn run(
    soc: &mut Soc,
    scenario: &mut dyn Scenario,
    governor: &mut dyn Governor,
    config: RunConfig,
) -> RunMetrics {
    run_with_faults(soc, scenario, governor, config, None)
}

/// [`run`], with an optional fault harness injecting the deterministic
/// fault schedule described in `DESIGN.md` ("Robustness & fault model").
///
/// `None` is exactly [`run`]: the fault dispatch is skipped entirely, so
/// the output is bit-identical to the fault-free path. A harness whose
/// rates are all zero also reproduces the fault-free run bit-for-bit
/// (its plan draws nothing — see [`simkit::FaultPlan`]).
///
/// This is the single-device stepper over the loop [`run_batch`] runs
/// per lane. It steps the `Soc` directly rather than as a one-lane
/// batch because it borrows its scenario and governor, which a
/// [`BatchLane`] owns; speed does not decide it. A lone `Soc` never
/// parks, so this stepper never sleeps a lane, and a one-lane
/// [`run_batch`], which does, took 0.76–0.85× this stepper's time on a
/// 120 s `idle` run, 0.92–0.96× on `mixed` and 1.02–1.07× on `audio`,
/// `video` and `gaming` (ondemand, median of 7 alternating pairs, two
/// runs, 2-vCPU VM).
pub fn run_with_faults(
    soc: &mut Soc,
    scenario: &mut dyn Scenario,
    governor: &mut dyn Governor,
    config: RunConfig,
    mut faults: Option<&mut FaultHarness>,
) -> RunMetrics {
    let epoch = soc.config().epoch;
    let (mut lane, mut request, mut report) = LaneLoop::new(soc, scenario, config);
    let _run_span = obs::span!("runner.run");
    for _ in 0..config.epochs(epoch) {
        // xtask-hotpath: begin (per-epoch fault application, no allocation)
        if let Some(harness) = faults.as_deref_mut() {
            harness.begin_epoch(soc, &mut request);
        }
        // xtask-hotpath: end

        // Feed the next epoch's arrivals before running it.
        lane.feed_arrivals(scenario, soc.now(), epoch, |at, job| {
            soc.schedule_job(at, job);
        });

        // The request is validated by construction (governors and the
        // fault harness only produce in-range levels); a rejection ends
        // the run with metrics covering the completed epochs.
        let Ok(()) = soc.run_epoch_into(&request, &mut report) else {
            break;
        };
        soc.observe_into(&report, &mut lane.state.soc);
        lane.finish_epoch(&report, false, soc.queued_jobs());
        lane.decide(governor, faults.as_deref_mut(), &mut request);
    }
    lane.finalize(soc, governor, faults.as_deref())
}

/// One device lane of a batched run: the workload feeding it, the policy
/// driving it, and an optional per-lane fault harness.
///
/// Lanes are fully independent — each owns its scenario RNG stream,
/// governor state and fault schedule, exactly as a standalone [`run`]
/// would.
pub struct BatchLane {
    /// Produces this lane's job arrivals and QoS spec.
    pub scenario: Box<dyn Scenario>,
    /// Decides this lane's per-epoch frequency levels.
    pub governor: Box<dyn Governor>,
    /// Optional deterministic fault injection for this lane.
    pub faults: Option<FaultHarness>,
}

impl std::fmt::Debug for BatchLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchLane")
            .field("scenario", &self.scenario.name())
            .field("governor", &self.governor.name())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

/// Runs every lane of `batch` for `config.duration` in lockstep,
/// returning one [`RunMetrics`] per lane, in lane order.
///
/// Each lane executes exactly the control loop of
/// [`run_with_faults`] — same arrival windows, same epoch sequence, same
/// accounting — so lane `i`'s metrics are **bit-identical** to running
/// `lanes[i]` alone against `batch.lane(i)`. The batch merely reorders
/// work across independent lanes so that fully-idle epochs from many
/// devices collapse into one interleaved kernel dispatch
/// (see [`DeviceBatch`]); `golden_bits` pins the equivalence end-to-end.
/// The one difference is that a lane sleeps through an epoch that ran
/// parked when it has no fault harness and its governor certifies the
/// request ([`Governor::decide_parked`]): its observation and decision
/// are skipped, since the decision would write the request back
/// unchanged and leave the governor as it was (the module docs say why
/// that keeps the bits).
///
/// The lanes are split into `min(threads, lanes)` contiguous shards,
/// `threads` being `RLPM_THREADS` or, unset, the machine's available
/// parallelism ([`DeviceBatch::split_off`]; the lanes move, nothing is
/// copied). The calling thread runs shard 0 and one scoped thread runs
/// each other shard, every shard to the horizon on its own, so a call
/// joins once. Lanes never read each other's state, so the bits are the
/// same at any thread count; with one thread no thread is spawned.
/// Scoped threads rather than the scheduler pool: a shard borrows
/// the caller's lanes, and must never be re-run after partial progress
/// as the pool's supervisor re-runs a failed job. On return `batch`
/// holds every lane again, in order.
///
/// A lane whose epoch is rejected (an out-of-range level request) stops
/// early with metrics covering its completed epochs, exactly as [`run`]
/// breaks; the other lanes keep going.
///
/// # Panics
///
/// Panics if `lanes` and `batch` disagree on lane count. A panic in any
/// shard (a governor or scenario that panics) resumes on the calling
/// thread with its own payload once every shard has stopped; `batch`
/// and `lanes` are then left part-way.
pub fn run_batch(
    batch: &mut DeviceBatch,
    lanes: &mut [BatchLane],
    config: RunConfig,
) -> Vec<RunMetrics> {
    let n = batch.len();
    assert_eq!(
        lanes.len(),
        n,
        "one BatchLane per device lane ({} lanes, {} BatchLanes)",
        n,
        lanes.len()
    );
    let shards = crate::sched::thread_count().min(n);
    if shards <= 1 {
        return run_shard(batch, lanes, config);
    }
    // Shard k holds lanes [k·n/shards, (k+1)·n/shards). Split from the
    // back so each split moves only its own lanes.
    let mut tails: Vec<DeviceBatch> = (1..shards)
        .rev()
        .map(|k| batch.split_off(k * n / shards))
        .collect();
    tails.reverse();
    let (head, mut rest) = lanes.split_at_mut(batch.len());
    let metrics = std::thread::scope(|scope| {
        let handles: Vec<_> = tails
            .iter_mut()
            .map(|tail| {
                let (shard, after) = std::mem::take(&mut rest).split_at_mut(tail.len());
                rest = after;
                scope.spawn(move || run_shard(tail, shard, config))
            })
            .collect();
        // A panic here resumes once the scope has joined every shard.
        let mut metrics = run_shard(batch, head, config);
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(shard) => metrics.extend(shard),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        metrics
    });
    for tail in &mut tails {
        // The shards were split off this batch, so they share its grid.
        let rejoined = batch.append(tail);
        debug_assert!(rejoined.is_ok(), "shard grid changed: {rejoined:?}");
    }
    metrics
}

/// One shard of [`run_batch`]: every lane of `batch` in lockstep on the
/// calling thread, one [`LaneLoop`] per lane.
fn run_shard(
    batch: &mut DeviceBatch,
    lanes: &mut [BatchLane],
    config: RunConfig,
) -> Vec<RunMetrics> {
    let Some(epoch) = batch.lanes().first().map(|soc| soc.config().epoch) else {
        return Vec::new();
    };
    let n = batch.len();
    let mut active = vec![true; n];
    let mut loops: Vec<LaneLoop> = Vec::with_capacity(n);
    let mut requests: Vec<LevelRequest> = Vec::with_capacity(n);
    let mut reports: Vec<EpochReport> = Vec::with_capacity(n);
    for (soc, lane) in batch.lanes().iter().zip(lanes.iter()) {
        let (lane_loop, request, report) = LaneLoop::new(soc, lane.scenario.as_ref(), config);
        loops.push(lane_loop);
        requests.push(request);
        reports.push(report);
    }

    let _run_span = obs::span!("runner.run_batch");
    for _ in 0..config.epochs(epoch) {
        // Pre-step pass: per-lane fault application and arrival feeding,
        // in lane order. Each lane sees the identical call sequence a
        // standalone run would make.
        for (i, (((lane, request), &is_active), lane_loop)) in lanes
            .iter_mut()
            .zip(&mut requests)
            .zip(&active)
            .zip(loops.iter_mut())
            .enumerate()
        {
            if !is_active {
                continue;
            }
            if let Some(harness) = lane.faults.as_mut() {
                // Fault injection needs the live simulator each epoch, so
                // a faulted lane effectively runs unparked (and unbatched).
                harness.begin_epoch(batch.lane_mut(i), request);
            }
            let from = batch.lane(i).now();
            lane_loop.feed_arrivals(lane.scenario.as_mut(), from, epoch, |at, job| {
                // Feeds the arrival queue without unparking the lane; the
                // batch re-checks parkability against it next step.
                batch.schedule_job(i, at, job);
            });
        }

        // Lockstep step: live lanes run their epochs' scalar parts, then
        // parked lanes and every live lane's steady tails share one
        // steady-kernel pass. Arity is correct by
        // construction, so an error here is unreachable; treat it as
        // "no lane stepped" and end the run with partial metrics.
        if batch
            .run_epoch_into(&active, &requests, &mut reports)
            .is_err()
        {
            break;
        }

        // Post-step pass: the loop's epoch accounting and the next
        // decision, in lane order. All batch calls below are `&self`, so
        // the error slice can stay borrowed across the loop.
        let errors = batch.lane_errors();
        for (i, ((((lane, request), is_active), lane_loop), (report, error))) in lanes
            .iter_mut()
            .zip(&mut requests)
            .zip(active.iter_mut())
            .zip(loops.iter_mut())
            .zip(reports.iter().zip(errors))
            .enumerate()
        {
            if !*is_active {
                continue;
            }
            if error.is_some() {
                *is_active = false;
                continue;
            }
            let parked = batch.lane_parked(i);
            // A sleeping lane: its next decision would rewrite the request
            // unchanged, so the observation it would read is skipped too.
            // A fault harness corrupts telemetry and flips table bits in
            // its decision, so a faulted lane always decides.
            if parked && lane.faults.is_none() && lane.governor.decide_parked(request) {
                lane_loop.finish_epoch(report, true, 0);
                continue;
            }
            batch.observe_lane_into(i, report, &mut lane_loop.state.soc);
            lane_loop.finish_epoch(report, parked, batch.lane_queued_jobs(i));
            lane_loop.decide(lane.governor.as_mut(), lane.faults.as_mut(), request);
        }
    }

    // Write resident domain state back so final energy/queue/time reads
    // see live lanes.
    batch.unpark_all();
    loops
        .into_iter()
        .zip(batch.lanes().iter().zip(lanes.iter()))
        .map(|(lane_loop, (soc, lane))| {
            lane_loop.finalize(soc, lane.governor.as_ref(), lane.faults.as_ref())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use governors::GovernorKind;
    use soc::SocConfig;
    use workload::ScenarioKind;

    fn soc() -> Soc {
        Soc::new(SocConfig::odroid_xu3_like().unwrap()).unwrap()
    }

    #[test]
    fn performance_beats_powersave_on_gaming_qos() {
        let run_with = |kind: GovernorKind| {
            let mut soc = soc();
            let mut scenario = ScenarioKind::Gaming.build(1);
            let mut governor = kind.build(soc.config());
            run(
                &mut soc,
                scenario.as_mut(),
                governor.as_mut(),
                RunConfig::seconds(10),
            )
        };
        let perf = run_with(GovernorKind::Performance);
        let save = run_with(GovernorKind::Powersave);
        assert!(
            perf.qos.qos_ratio() > 0.95,
            "performance delivers: {:?}",
            perf.qos
        );
        assert!(
            save.qos.qos_ratio() < 0.5,
            "powersave collapses: {:?}",
            save.qos
        );
        assert!(perf.energy_j > 2.0 * save.energy_j);
    }

    #[test]
    fn powersave_wins_energy_on_idle() {
        let run_with = |kind: GovernorKind| {
            let mut soc = soc();
            let mut scenario = ScenarioKind::Idle.build(2);
            let mut governor = kind.build(soc.config());
            run(
                &mut soc,
                scenario.as_mut(),
                governor.as_mut(),
                RunConfig::seconds(10),
            )
        };
        let perf = run_with(GovernorKind::Performance);
        let save = run_with(GovernorKind::Powersave);
        assert!(save.energy_j < perf.energy_j / 2.0);
        assert!(save.qos.qos_ratio() > 0.9, "idle is easy even at min OPP");
    }

    #[test]
    fn ondemand_lands_between_the_extremes_on_video() {
        let run_with = |kind: GovernorKind| {
            let mut soc = soc();
            let mut scenario = ScenarioKind::Video.build(3);
            let mut governor = kind.build(soc.config());
            run(
                &mut soc,
                scenario.as_mut(),
                governor.as_mut(),
                RunConfig::seconds(20),
            )
        };
        let perf = run_with(GovernorKind::Performance);
        let od = run_with(GovernorKind::Ondemand);
        assert!(
            od.energy_j < perf.energy_j,
            "ondemand saves energy vs performance"
        );
        assert!(
            od.qos.qos_ratio() > 0.85,
            "without giving up QoS: {:?}",
            od.qos
        );
    }

    #[test]
    fn metrics_are_internally_consistent() {
        let mut soc = soc();
        let mut scenario = ScenarioKind::Camera.build(4);
        let mut governor = GovernorKind::Schedutil.build(soc.config());
        let m = run(
            &mut soc,
            scenario.as_mut(),
            governor.as_mut(),
            RunConfig::seconds(5),
        );
        assert_eq!(m.epochs, 250);
        assert!(m.energy_j > 0.0);
        assert!((m.avg_power_w - m.energy_j / 5.0).abs() < 1e-9);
        assert!(m.energy_per_qos >= m.energy_j / m.qos.max_units.max(1.0));
        assert_eq!(m.mean_level_frac.len(), 2);
        assert!(m.mean_level_frac.iter().all(|f| (0.0..=1.0).contains(f)));
        assert!(m.trace.is_none());
    }

    #[test]
    fn trace_records_one_row_per_epoch() {
        let mut soc = soc();
        let mut scenario = ScenarioKind::Audio.build(5);
        let mut governor = GovernorKind::Conservative.build(soc.config());
        let m = run(
            &mut soc,
            scenario.as_mut(),
            governor.as_mut(),
            RunConfig::seconds(2).with_trace(),
        );
        let trace = m.trace.expect("trace requested");
        assert_eq!(trace.len(), 100);
        assert_eq!(trace.columns().len(), 6);
    }

    /// The trace's level and utilisation columns are each epoch's
    /// report: the level and the busiest core's utilisation (`util_max`,
    /// what the governors act on), checked against a twin SoC stepped by
    /// hand at the level powersave holds.
    #[test]
    fn trace_columns_record_each_epochs_level_and_util_max() {
        let mut soc = soc();
        let mut scenario = ScenarioKind::Gaming.build(6);
        let mut governor = GovernorKind::Powersave.build(soc.config());
        let config = RunConfig::seconds(1).with_trace();
        let m = run(&mut soc, scenario.as_mut(), governor.as_mut(), config);
        let trace = m.trace.expect("trace requested");

        let mut twin = self::soc();
        let mut scenario = ScenarioKind::Gaming.build(6);
        let request = LevelRequest::min(twin.config());
        let epoch = twin.config().epoch;
        let mut reports = Vec::new();
        for _ in 0..trace.len() {
            let from = twin.now();
            for (at, job) in scenario.arrivals(from, from + epoch) {
                twin.schedule_job(at, job);
            }
            reports.push(twin.run_epoch(&request).unwrap());
        }
        for c in 0..2 {
            let level: Vec<f64> = trace
                .series(&format!("level_{c}"))
                .iter()
                .map(|p| p.1)
                .collect();
            let util: Vec<f64> = trace
                .series(&format!("util_{c}"))
                .iter()
                .map(|p| p.1)
                .collect();
            let want_level: Vec<f64> = reports.iter().map(|r| r.clusters[c].level as f64).collect();
            let want_util: Vec<f64> = reports.iter().map(|r| r.clusters[c].util_max).collect();
            assert_eq!(level, want_level, "level_{c}");
            assert_eq!(util, want_util, "util_{c}");
        }
        assert!(
            reports
                .iter()
                .any(|r| r.clusters.iter().any(|c| c.util_max != c.util_avg)),
            "the scenario must tell util_max from util_avg"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            let mut soc = soc();
            let mut scenario = ScenarioKind::Mixed.build(7);
            let mut governor = GovernorKind::Interactive.build(soc.config());
            let m = run(
                &mut soc,
                scenario.as_mut(),
                governor.as_mut(),
                RunConfig::seconds(15),
            );
            (m.energy_j, m.qos, m.transitions)
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn batched_runs_match_looped_runs_bit_for_bit() {
        let combos = [
            (ScenarioKind::Idle, GovernorKind::Ondemand, 11u64),
            (ScenarioKind::Video, GovernorKind::Schedutil, 12),
            (ScenarioKind::Idle, GovernorKind::Powersave, 13),
            (ScenarioKind::Mixed, GovernorKind::Interactive, 14),
        ];
        let config = RunConfig::seconds(3);

        let looped: Vec<RunMetrics> = combos
            .iter()
            .map(|&(scenario, governor, seed)| {
                let mut soc = soc();
                let mut scenario = scenario.build(seed);
                let mut governor = governor.build(soc.config());
                run(&mut soc, scenario.as_mut(), governor.as_mut(), config)
            })
            .collect();

        let mut batch = DeviceBatch::new(combos.iter().map(|_| soc()).collect::<Vec<_>>()).unwrap();
        let mut lanes: Vec<BatchLane> = combos
            .iter()
            .map(|&(scenario, governor, seed)| BatchLane {
                scenario: scenario.build(seed),
                governor: governor.build(batch.lane(0).config()),
                faults: None,
            })
            .collect();
        let batched = run_batch(&mut batch, &mut lanes, config);

        for (lane, (b, l)) in batched.iter().zip(&looped).enumerate() {
            assert_eq!(
                b.energy_j.to_bits(),
                l.energy_j.to_bits(),
                "lane {lane} energy diverged"
            );
            assert_eq!(b, l, "lane {lane} metrics diverged");
        }
    }

    #[test]
    fn batched_runs_with_faults_match_looped() {
        let config = RunConfig::seconds(2);
        let cfg = SocConfig::odroid_xu3_like().unwrap();
        let harness = || {
            FaultHarness::new(&cfg, 99, crate::e9_fault_resilience::default_base_rates()).unwrap()
        };

        let looped = {
            let mut soc = soc();
            let mut scenario = ScenarioKind::Gaming.build(21);
            let mut governor = GovernorKind::Ondemand.build(soc.config());
            let mut h = harness();
            run_with_faults(
                &mut soc,
                scenario.as_mut(),
                governor.as_mut(),
                config,
                Some(&mut h),
            )
        };

        let mut batch = DeviceBatch::new(vec![soc()]).unwrap();
        let mut lanes = vec![BatchLane {
            scenario: ScenarioKind::Gaming.build(21),
            governor: GovernorKind::Ondemand.build(batch.lane(0).config()),
            faults: Some(harness()),
        }];
        let batched = run_batch(&mut batch, &mut lanes, config);
        assert_eq!(batched[0], looped);
    }

    /// Delegates to `inner` and counts each decision of lane `lane` in
    /// `decisions`; panics with `"lane {lane} failed"` instead of making
    /// decision number `panic_at`.
    struct Counted {
        inner: Box<dyn Governor>,
        lane: usize,
        panic_at: Option<u64>,
        decisions: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl Governor for Counted {
        fn name(&self) -> &str {
            "counted"
        }

        fn decide(&mut self, state: &SystemState) -> LevelRequest {
            let mut request = LevelRequest::new(Vec::new());
            self.decide_into(state, &mut request);
            request
        }

        fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
            let mut decisions = self.decisions.lock().unwrap();
            if Some(decisions[self.lane] + 1) == self.panic_at {
                drop(decisions);
                panic!("lane {} failed", self.lane);
            }
            decisions[self.lane] += 1;
            self.inner.decide_into(state, request);
        }

        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    #[test]
    fn a_panic_in_the_last_shard_resumes_on_the_caller_after_every_shard_joins() {
        let _env = crate::sched::lock(&crate::sched::ENV_LOCK);
        // Three shards: lanes [0, 2), [2, 4) and [4, 6).
        std::env::set_var("RLPM_THREADS", "3");
        let n = 6;
        let decisions = std::sync::Arc::new(std::sync::Mutex::new(vec![0u64; n]));
        let mut batch = DeviceBatch::new((0..n).map(|_| soc()).collect()).unwrap();
        let mut lanes: Vec<BatchLane> = (0..n)
            .map(|lane| BatchLane {
                scenario: ScenarioKind::Video.build(lane as u64),
                governor: Box::new(Counted {
                    inner: GovernorKind::Ondemand.build(batch.lane(0).config()),
                    lane,
                    panic_at: (lane == n - 1).then_some(10),
                    decisions: std::sync::Arc::clone(&decisions),
                }),
                faults: None,
            })
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(&mut batch, &mut lanes, RunConfig::seconds(1))
        }));
        std::env::remove_var("RLPM_THREADS");

        let payload = outcome.expect_err("the lane's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("lane 5 failed"),
            "the shard's own payload is resumed"
        );
        // The other shards ran to the horizon (50 epochs of 20 ms) before
        // the panic resumed; lane 4 shares the failing shard and stopped
        // with it, one decision ahead of lane 5.
        let decisions = decisions.lock().unwrap();
        assert_eq!(*decisions, [50, 50, 50, 50, 10, 9]);
    }

    #[test]
    fn run_seconds_saturate_instead_of_overflowing() {
        assert_eq!(RunConfig::seconds(60).duration, SimDuration::from_secs(60));
        assert_eq!(
            RunConfig::seconds(u64::MAX).duration,
            SimDuration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn sub_epoch_duration_saturates_to_one_epoch() {
        let mut soc = soc();
        let mut scenario = ScenarioKind::Idle.build(1);
        let mut governor = GovernorKind::Powersave.build(soc.config());
        let m = run(
            &mut soc,
            scenario.as_mut(),
            governor.as_mut(),
            RunConfig {
                duration: SimDuration::from_millis(1),
                record_trace: false,
            },
        );
        assert_eq!(m.epochs, 1, "shorter-than-epoch runs round up to one");
        assert_eq!(soc.now(), simkit::SimTime::ZERO + soc.config().epoch);
        assert!(m.energy_j > 0.0);
    }
}
