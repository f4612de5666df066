//! The top-level SoC: clusters + scheduler + arrival queue, advanced one
//! DVFS epoch at a time.
//!
//! With its fast paths on, an epoch runs in two passes (see the
//! `cluster` module docs). [`Soc::run_epoch_prefix`] applies the levels,
//! admits each cluster whose clamp certificate holds into a
//! [`LiveBlock`], and runs the execution pass: it dispatches each arrival
//! at its sub-step and, between dispatches, runs each admitted cluster on
//! its own — clusters interact only at dispatch, which reads backlog and
//! level — and any other cluster through the stepped reference.
//! [`LiveBlock::finish`] runs the thermal pass of every admitted cluster
//! in the steady kernel, and [`Soc::run_epoch_suffix`] closes the epoch.
//! A lone SoC runs its own block, two lanes wide on the xu3; a
//! [`crate::DeviceBatch`] shares one block among its live lanes.

use simkit::{obs, EventQueue, SimDuration, SimTime};

use crate::cluster::{ParkedLanes, ParkedObsConsts, SteadyLanes, STEADY_BLOCK};
use crate::{
    Cluster, ClusterObservation, ClusterReport, CompletedJob, Job, OppLevel, Scheduler, SocConfig,
    SocError,
};

/// Epochs simulated across all [`Soc`] instances in this process.
static EPOCHS: obs::Counter = obs::Counter::new("soc.epochs");
/// Sub-steps advanced (fast-forwarded idle sub-steps included).
static SUBSTEPS: obs::Counter = obs::Counter::new("soc.substeps");
/// Epoch wall energy (J), including the board-base term.
static EPOCH_ENERGY: obs::HistogramMetric =
    obs::HistogramMetric::new("soc.epoch_energy_j", 0.0, 0.5);

/// Per-cluster frequency levels requested by a governor for the next epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelRequest {
    /// One OPP level per cluster, indexed by [`crate::ClusterId`].
    pub levels: Vec<OppLevel>,
}

impl LevelRequest {
    /// A request with explicit levels.
    pub fn new(levels: Vec<OppLevel>) -> Self {
        LevelRequest { levels }
    }

    /// Every cluster at its highest OPP.
    pub fn max(config: &SocConfig) -> Self {
        LevelRequest {
            levels: config.clusters.iter().map(|c| c.opps.max_level()).collect(),
        }
    }

    /// Every cluster at its lowest OPP.
    pub fn min(config: &SocConfig) -> Self {
        LevelRequest {
            levels: vec![0; config.clusters.len()],
        }
    }
}

/// What happened during one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch start time.
    pub started_at: SimTime,
    /// Epoch end time (= start + epoch length).
    pub ended_at: SimTime,
    /// Per-cluster reports.
    pub clusters: Vec<ClusterReport>,
    /// Total energy including the board-base term (J).
    pub energy_j: f64,
}

impl EpochReport {
    /// Iterates over all jobs completed this epoch, across clusters.
    pub fn completed(&self) -> impl Iterator<Item = &CompletedJob> {
        self.clusters.iter().flat_map(|c| c.completed.iter())
    }

    /// Total jobs still queued at the end of the epoch.
    pub fn queued(&self) -> usize {
        self.clusters.iter().map(|c| c.queued).sum()
    }
}

/// Observation of the whole SoC at an epoch boundary, consumed by
/// governors.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochObservation {
    /// The instant of the boundary.
    pub at: SimTime,
    /// Per-cluster observations.
    pub clusters: Vec<ClusterObservation>,
    /// Energy consumed during the epoch just finished (J).
    pub energy_j: f64,
}

/// A simulated MPSoC.
///
/// See the [crate-level documentation](crate) for the execution model and
/// a usage example.
#[derive(Debug, Clone)]
pub struct Soc {
    config: SocConfig,
    clusters: Vec<Cluster>,
    scheduler: Scheduler,
    arrivals: EventQueue<Job>,
    now: SimTime,
    total_energy_j: f64,
    epochs_run: u64,
    jobs_submitted: u64,
    idle_fast_forward: bool,
    /// The live block [`Soc::run_epoch_into`] runs its clusters in.
    live: LoneBlock,
}

/// One block of live clusters in two passes (see the `cluster` module
/// docs): lane `j` of its kernel lanes holds the cluster the clamp
/// certificate admitted as `ids[j]`. Each SoC admits its clusters and runs
/// its execution pass ([`Soc::run_epoch_prefix`]); [`LiveBlock::finish`]
/// then runs the thermal pass of every lane and stores each back. Scratch
/// reused across epochs, empty between them.
#[derive(Debug)]
pub(crate) struct LiveBlock {
    lanes: SteadyLanes<STEADY_BLOCK>,
    ids: Vec<LiveId>,
    /// Whether a lane's rows may hold a busy sub-step, and whether a lane
    /// has cpuidle states: with neither, the thermal pass runs all-idle.
    busy: bool,
    scaled: bool,
}

/// A lane of a [`LiveBlock`]: cluster `cluster` of SoC `lane` (0 for a
/// lone SoC), and while that cluster [`Cluster::stays_idle`], the first
/// of its sub-steps the execution pass has yet to run.
#[derive(Debug, Clone, Copy)]
struct LiveId {
    lane: usize,
    cluster: usize,
    idle_from: Option<u64>,
}

impl LiveBlock {
    /// A block for the clusters of `socs`, which share one grid: rows for
    /// an epoch of its sub-steps, as wide as the widest cluster, with
    /// scale rows when some cluster has cpuidle states.
    pub(crate) fn new(socs: &[Soc]) -> Box<LiveBlock> {
        let clusters = || socs.iter().flat_map(|s| s.clusters.iter());
        let cores = clusters().map(Cluster::num_cores).max().unwrap_or(0);
        let cpuidle = clusters().any(|c| c.config().idle.is_some());
        let steps = socs.first().map_or(0, |s| s.config.substeps_per_epoch());
        Box::new(LiveBlock {
            lanes: SteadyLanes::with_rows(cores, steps, cpuidle),
            ids: Vec::with_capacity(STEADY_BLOCK),
            busy: false,
            scaled: false,
        })
    }

    /// Whether `clusters` more clusters fit in the block.
    pub(crate) fn has_room(&self, clusters: usize) -> bool {
        self.ids.len() + clusters <= STEADY_BLOCK
    }

    /// Runs the thermal pass of every lane through an epoch of `steps`
    /// sub-steps of length `dt`, stores each lane back into its cluster of
    /// `socs`, and empties the block.
    pub(crate) fn finish(&mut self, socs: &mut [Soc], dt: SimDuration, steps: u64) {
        if self.ids.is_empty() {
            return;
        }
        let n = self.ids.len();
        self.lanes
            .run_live(n, dt.as_secs_f64(), steps, self.busy, self.scaled);
        for (j, id) in self.ids.iter().enumerate() {
            let cluster = socs
                .get_mut(id.lane)
                .and_then(|s| s.clusters.get_mut(id.cluster));
            if let Some(cluster) = cluster {
                self.lanes.store(j, cluster);
            }
        }
        self.ids.clear();
        (self.busy, self.scaled) = (false, false);
    }
}

/// A lone SoC's [`LiveBlock`], built on its first fast epoch and reused;
/// a clone starts without one.
#[derive(Debug, Default)]
struct LoneBlock(Option<Box<LiveBlock>>);

impl Clone for LoneBlock {
    fn clone(&self) -> Self {
        LoneBlock(None)
    }
}

impl Soc {
    /// Builds a SoC from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SocError`] if the configuration is invalid.
    pub fn new(config: SocConfig) -> Result<Self, SocError> {
        config.validate()?;
        let clusters = config.clusters.iter().cloned().map(Cluster::new).collect();
        Ok(Soc {
            config,
            clusters,
            scheduler: Scheduler::new(),
            arrivals: EventQueue::new(),
            now: SimTime::ZERO,
            total_energy_j: 0.0,
            epochs_run: 0,
            jobs_submitted: 0,
            idle_fast_forward: true,
            live: LoneBlock::default(),
        })
    }

    /// Chooses between the fast paths (`true`, the default) and the
    /// stepped reference (`false`). The fast paths check each cluster's
    /// clamp certificate at the epoch's start (the clamp provably cannot
    /// fire in the epoch), and run a certified cluster-epoch in two passes:
    /// an execution pass that dispatches each arrival at its sub-step and
    /// runs each cluster from one dispatch to the next on its own,
    /// recording each core's busy fraction, then a thermal pass that runs
    /// the epoch's power and thermal chain as one lane of the batched
    /// steady kernel, all of the SoC's certified clusters in one call. An
    /// uncertified cluster-epoch steps the reference. A
    /// [`crate::DeviceBatch`] also parks idle lanes in the kernel across
    /// epochs and runs its live lanes' thermal passes in 32-lane blocks.
    /// The stepped reference advances every cluster one sub-step at a time
    /// through [`Cluster::advance_substep`], busy or idle. Both are
    /// bit-identical — this knob exists so tests can prove that claim by
    /// running both ways.
    pub fn set_idle_fast_forward(&mut self, enabled: bool) {
        self.idle_fast_forward = enabled;
    }

    /// The configuration the SoC was built from.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Current simulation time (always an epoch boundary).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The clusters, for inspection.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Total energy consumed since construction (J).
    pub fn total_energy_j(&self) -> f64 {
        self.total_energy_j
    }

    /// Number of epochs executed.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Number of jobs submitted.
    pub fn jobs_submitted(&self) -> u64 {
        self.jobs_submitted
    }

    /// Submits a job arriving now.
    pub fn push_job(&mut self, job: Job) {
        self.schedule_job(self.now, job);
    }

    /// Submits a job arriving at `at` (must not be in the past).
    ///
    /// # Panics
    ///
    /// Panics if `at < self.now()`.
    pub fn schedule_job(&mut self, at: SimTime, job: Job) {
        assert!(
            at >= self.now,
            "job scheduled in the past: {at} < {}",
            self.now
        );
        self.jobs_submitted += 1;
        self.arrivals.schedule(at, job);
    }

    /// Hotplugs cluster `cluster` to exactly `online` online cores
    /// (the online prefix model: cores `0..online` stay active, the tail
    /// is power-collapsed and its queued work migrates to the survivors).
    /// Returns the previous online count.
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchCluster`] for an out-of-range cluster index, or
    /// [`SocError::InvalidHotplug`] when `online` is zero or exceeds the
    /// cluster's physical core count.
    pub fn set_cores_online(&mut self, cluster: usize, online: usize) -> Result<usize, SocError> {
        let available = self.clusters.len();
        match self.clusters.get_mut(cluster) {
            Some(c) => c.set_online(online, cluster),
            None => Err(SocError::NoSuchCluster { cluster, available }),
        }
    }

    /// Jobs currently queued on cores (excluding future arrivals).
    pub fn queued_jobs(&self) -> usize {
        self.clusters.iter().map(Cluster::queued_jobs).sum()
    }

    /// Future arrivals not yet dispatched.
    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.len()
    }

    /// Runs one DVFS epoch with the requested per-cluster levels.
    ///
    /// Levels are applied at the epoch start (incurring transition stalls
    /// and energy where they change), arrivals due within the epoch are
    /// dispatched at sub-step granularity, and the report aggregates
    /// execution, energy and completions.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSocConfig`] if the request has the wrong
    /// arity or [`SocError::LevelOutOfRange`] for a level beyond a
    /// cluster's table.
    pub fn run_epoch(&mut self, request: &LevelRequest) -> Result<EpochReport, SocError> {
        let mut report = EpochReport {
            started_at: SimTime::ZERO,
            ended_at: SimTime::ZERO,
            clusters: Vec::new(),
            energy_j: 0.0,
        };
        self.run_epoch_into(request, &mut report)?;
        Ok(report)
    }

    /// [`Soc::run_epoch`] into a caller-owned report, reusing its buffers.
    ///
    /// In a steady-state epoch loop the per-cluster report slots and their
    /// completed-job pools retain their capacity across calls, so the hot
    /// path performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Same as [`Soc::run_epoch`]; on error the report contents are
    /// unspecified.
    pub fn run_epoch_into(
        &mut self,
        request: &LevelRequest,
        report: &mut EpochReport,
    ) -> Result<(), SocError> {
        let mut block = match self.live.0.take() {
            Some(block) => block,
            None => LiveBlock::new(std::slice::from_ref(self)),
        };
        let started = self.run_epoch_prefix(request, 0, &mut block);
        if let Ok(started_at) = started {
            let (substep, steps) = (self.config.substep, self.config.substeps_per_epoch());
            block.finish(std::slice::from_mut(self), substep, steps);
            self.run_epoch_suffix(started_at, report);
        }
        self.live.0 = Some(block);
        started.map(|_| ())
    }

    /// The execution part of an epoch: applies the request's levels,
    /// admits each cluster whose clamp certificate holds into `block` as
    /// a cluster of SoC `lane` (with the fast paths on and while the block
    /// has room), and advances every cluster to the epoch's end — an
    /// admitted one through its execution pass, any other through the
    /// stepped reference. Returns the epoch's start; the caller runs the
    /// block's thermal pass ([`LiveBlock::finish`]) and closes the epoch
    /// with [`Soc::run_epoch_suffix`].
    ///
    /// # Errors
    ///
    /// Same as [`Soc::run_epoch`], before anything but levels moved.
    pub(crate) fn run_epoch_prefix(
        &mut self,
        request: &LevelRequest,
        lane: usize,
        block: &mut LiveBlock,
    ) -> Result<SimTime, SocError> {
        self.apply_levels(request)?;

        let started_at = self.now;
        let substep = self.config.substep;
        let steps = self.config.substeps_per_epoch();
        let fast = self.idle_fast_forward;
        let _span = obs::span!("soc.run_epoch");

        // This SoC's lanes are `block.ids[first..]`, in cluster order.
        let first = block.ids.len();
        if fast {
            for (cluster, c) in self.clusters.iter_mut().enumerate() {
                let j = block.ids.len();
                if block.lanes.admit(j, c, substep, steps) {
                    let idle_from = c.stays_idle().then_some(0);
                    block.ids.push(LiveId {
                        lane,
                        cluster,
                        idle_from,
                    });
                    block.scaled |= c.config().idle.is_some();
                }
            }
        }

        // xtask-hotpath: begin
        let mut step = 0u64;
        while step < steps {
            // Dispatch arrivals due by the start of this sub-step. A
            // cluster left idle first runs its idle sub-steps up to now.
            while let Some((_, job)) = self.arrivals.pop_until(self.now) {
                let (cluster, core) = self.scheduler.place(&self.clusters, &job);
                if let Some(target) = self.clusters.get_mut(cluster) {
                    let mut ids = block.ids.iter_mut().enumerate().skip(first);
                    if let Some((j, id)) = ids.find(|(_, id)| id.cluster == cluster) {
                        if let Some(from) = id.idle_from.take() {
                            target.idle_through(&mut block.lanes, j, substep, (from, step - from));
                        }
                    }
                    target.enqueue_on(core, job);
                }
            }

            // Dispatch horizon: the sub-steps up to the next arrival
            // dispatch nothing, and clusters interact only at dispatch
            // (placement reads every cluster's backlog and level), so each
            // cluster runs the whole span on its own. The loop above
            // drained everything due by now, so the span is at least one
            // sub-step. The stepped reference dispatches every sub-step.
            let span = if fast {
                self.dispatch_horizon(steps - step)
            } else {
                1
            };
            let mut j = first;
            for (id, cluster) in self.clusters.iter_mut().enumerate() {
                if let Some(live) = block.ids.get_mut(j).filter(|l| l.cluster == id) {
                    if live.idle_from.is_none() {
                        let lanes = &mut block.lanes;
                        block.busy |= cluster.execute(lanes, j, self.now, substep, (step, span));
                        live.idle_from = cluster.stays_idle().then_some(step + span);
                    }
                    j += 1;
                } else {
                    let mut t = self.now;
                    for _ in 0..span {
                        cluster.advance_substep(t, substep);
                        t += substep;
                    }
                }
            }
            self.now += substep * span;
            step += span;
        }
        for (j, id) in block.ids.iter_mut().enumerate().skip(first) {
            if let (Some(from), Some(c)) = (id.idle_from.take(), self.clusters.get_mut(id.cluster))
            {
                c.idle_through(&mut block.lanes, j, substep, (from, steps - from));
            }
        }
        // xtask-hotpath: end
        Ok(started_at)
    }

    /// Closes an epoch that [`Soc::run_epoch_prefix`] began at
    /// `started_at`, once its block's thermal pass ran: the per-cluster
    /// epoch fold and [`Soc::commit_epoch`].
    pub(crate) fn run_epoch_suffix(&mut self, started_at: SimTime, report: &mut EpochReport) {
        let steps = self.config.substeps_per_epoch();
        report
            .clusters
            .resize_with(self.clusters.len(), ClusterReport::default);
        for (cluster, slot) in self.clusters.iter_mut().zip(report.clusters.iter_mut()) {
            cluster.end_epoch_into(slot);
        }
        self.commit_epoch(started_at, steps, report);
    }

    /// The epoch prologue shared by [`Soc::run_epoch_prefix`] and the
    /// batched parked path: validates the request arity and applies the
    /// per-cluster levels (incurring transition stalls and energy where
    /// they change).
    pub(crate) fn apply_levels(&mut self, request: &LevelRequest) -> Result<(), SocError> {
        if request.levels.len() != self.clusters.len() {
            return Err(SocError::InvalidSocConfig {
                reason: format!(
                    "level request has {} entries for {} clusters",
                    request.levels.len(),
                    self.clusters.len()
                ),
            });
        }
        for (id, (&level, cluster)) in request.levels.iter().zip(&mut self.clusters).enumerate() {
            cluster.set_level(level, id)?;
        }
        Ok(())
    }

    /// The epoch-close fold shared by [`Soc::run_epoch_suffix`] and
    /// [`Soc::parked_commit_epoch`], once the cluster slots are filled:
    /// stamps the report's span, sums the slots' energy in cluster order
    /// with the board-base term, and bumps the totals and counters.
    fn commit_epoch(&mut self, started_at: SimTime, steps: u64, report: &mut EpochReport) {
        report.started_at = started_at;
        report.ended_at = self.now;
        let clusters_j = report.clusters.iter().fold(0.0, |e, c| e + c.energy_j);
        let energy_j = clusters_j + self.config.board_base_w * self.config.epoch.as_secs_f64();
        self.total_energy_j += energy_j;
        self.epochs_run += 1;
        report.energy_j = energy_j;
        EPOCHS.inc();
        SUBSTEPS.add(steps);
        EPOCH_ENERGY.record(energy_j);
    }

    /// Whether the next epoch can take the batched idle fast path: every
    /// cluster quiescent with no cpuidle table, fast-forward enabled, and
    /// no arrival due before the epoch's last sub-step boundary — exactly
    /// the condition under which every cluster's epoch is all-idle, so
    /// parking only moves its power and thermal chain into the batch's
    /// resident lanes, where the kernel keeps the clamp.
    pub(crate) fn idle_epoch_parkable(&self) -> bool {
        self.idle_fast_forward
            && self.config.substeps_per_epoch() >= 2
            && self
                .clusters
                .iter()
                .all(|c| c.is_quiescent() && c.config().idle.is_none())
            && self.arrivals_clear_of_epoch()
    }

    /// Whether no arrival is due before the next epoch's last sub-step
    /// boundary — the arrival half of the parkable condition, cheap
    /// enough to re-check every epoch while a lane stays parked (the
    /// quiescence half is invariant there: a parked lane dispatches
    /// nothing).
    pub(crate) fn arrivals_clear_of_epoch(&self) -> bool {
        let steps = self.config.substeps_per_epoch();
        self.dispatch_horizon(steps) >= steps
    }

    /// How many sub-steps from now, at most `limit`, run before the next
    /// dispatch: sub-step `j` (0-based from now) dispatches the arrivals
    /// due by `now + j·substep`, so an arrival at `t > now` is first
    /// dispatched at `j = ⌊(t − now − 1 ns) / substep⌋ + 1`. Zero when an
    /// arrival is due now.
    fn dispatch_horizon(&self, limit: u64) -> u64 {
        match self.arrivals.peek_time() {
            None => limit,
            Some(t) if t > self.now => {
                let gap = t - self.now;
                ((gap - SimDuration::from_nanos(1)) / self.config.substep + 1).min(limit)
            }
            Some(_) => 0,
        }
    }

    /// Parks the SoC: loads every cluster into the next slot of the
    /// batch's resident `parked` lanes (in cluster order), and stages the
    /// observation constants. The slots stay resident across epochs until
    /// [`Soc::parked_exit`]; while parked, only
    /// [`Soc::parked_commit_epoch`] advances this SoC.
    pub(crate) fn parked_enter(
        &mut self,
        parked: &mut ParkedLanes,
        consts: &mut Vec<ParkedObsConsts>,
    ) {
        let substep = self.config.substep;
        for cluster in &mut self.clusters {
            consts.push(cluster.parked_obs_consts());
            parked.push(cluster, substep);
        }
    }

    /// Closes one parked epoch from the kernel-evolved slots from `first`
    /// on: the resident equivalent of [`Soc::run_epoch_suffix`] after an
    /// all-idle epoch of every cluster, with the cluster
    /// slots closed from the lanes (see [`ParkedLanes::close_epoch`])
    /// instead of from the untouched `Cluster` structs, and the same
    /// epoch-close fold.
    pub(crate) fn parked_commit_epoch(
        &mut self,
        parked: &mut ParkedLanes,
        first: usize,
        report: &mut EpochReport,
    ) {
        let steps = self.config.substeps_per_epoch();
        let started_at = self.now;
        self.now += self.config.substep * steps;
        report
            .clusters
            .resize_with(self.clusters.len(), ClusterReport::default);
        for (c, slot) in report.clusters.iter_mut().enumerate() {
            parked.close_epoch(first + c, slot);
        }
        self.commit_epoch(started_at, steps, report);
    }

    /// Unparks the SoC at an epoch boundary: stores its slots from `first`
    /// on back into the clusters, with the idle residency owed for the
    /// whole stay (`epochs_parked` epochs).
    pub(crate) fn parked_exit(&mut self, parked: &ParkedLanes, first: usize, epochs_parked: u64) {
        let (substep, steps) = (self.config.substep, self.config.substeps_per_epoch());
        for (c, cluster) in self.clusters.iter_mut().enumerate() {
            parked.store(first + c, cluster, substep, steps * epochs_parked);
        }
    }

    /// Moves the parked SoC's slots from `from` on to `to` on: stores each
    /// into its cluster and loads it at its new place. The residency owed
    /// stays owed until [`Soc::parked_exit`].
    pub(crate) fn parked_move(&mut self, parked: &mut ParkedLanes, from: usize, to: usize) {
        self.parked_exit(parked, from, 0);
        let substep = self.config.substep;
        for (c, cluster) in self.clusters.iter_mut().enumerate() {
            parked.load(to + c, cluster, substep);
        }
    }

    /// Builds the governor-facing observation from an epoch report.
    pub fn observe(&self, report: &EpochReport) -> EpochObservation {
        let mut obs = EpochObservation {
            at: report.ended_at,
            clusters: Vec::new(),
            energy_j: report.energy_j,
        };
        self.observe_into(report, &mut obs);
        obs
    }

    /// [`Soc::observe`] into a caller-owned observation, reusing its
    /// per-cluster buffer.
    pub fn observe_into(&self, report: &EpochReport, obs: &mut EpochObservation) {
        obs.at = report.ended_at;
        obs.energy_j = report.energy_j;
        obs.clusters.clear();
        obs.clusters.extend(
            self.clusters
                .iter()
                .zip(&report.clusters)
                .map(|(cluster, r)| cluster.observe(r.util_avg, r.util_max)),
        );
    }

    /// Resets to a cold, idle SoC at time zero (between training episodes).
    pub fn reset(&mut self) {
        for cluster in &mut self.clusters {
            cluster.reset();
        }
        self.arrivals.reset();
        self.now = SimTime::ZERO;
        self.total_energy_j = 0.0;
        self.epochs_run = 0;
        self.jobs_submitted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobClass;

    fn soc() -> Soc {
        Soc::new(SocConfig::tiny_test().unwrap()).unwrap()
    }

    fn xu3() -> Soc {
        Soc::new(SocConfig::odroid_xu3_like().unwrap()).unwrap()
    }

    #[test]
    fn idle_epoch_consumes_base_energy_and_advances_time() {
        let mut s = soc();
        let report = s.run_epoch(&LevelRequest::min(s.config())).unwrap();
        assert_eq!(report.started_at, SimTime::ZERO);
        assert_eq!(report.ended_at, SimTime::from_millis(20));
        assert_eq!(s.now(), SimTime::from_millis(20));
        assert!(report.energy_j > 0.0, "leakage + board base");
        assert_eq!(report.completed().count(), 0);
    }

    #[test]
    fn job_completes_within_deadline_at_max_level() {
        let mut s = soc();
        // 10M ref-instr at 1 GHz ≈ 10 ms < 16 ms deadline.
        s.push_job(Job::new(
            1,
            10_000_000,
            SimTime::from_millis(16),
            JobClass::Heavy,
        ));
        let report = s.run_epoch(&LevelRequest::max(s.config())).unwrap();
        let done: Vec<_> = report.completed().collect();
        assert_eq!(done.len(), 1);
        assert!(
            done[0].met_deadline(),
            "completed at {}",
            done[0].completed_at
        );
    }

    #[test]
    fn same_job_misses_deadline_at_min_level() {
        let mut s = soc();
        // 10M ref-instr at 200 MHz = 50 ms > 16 ms deadline.
        s.push_job(Job::new(
            1,
            10_000_000,
            SimTime::from_millis(16),
            JobClass::Heavy,
        ));
        let mut all = Vec::new();
        for _ in 0..5 {
            let report = s.run_epoch(&LevelRequest::min(s.config())).unwrap();
            all.extend(report.completed().cloned().collect::<Vec<_>>());
        }
        assert_eq!(all.len(), 1);
        assert!(!all[0].met_deadline());
    }

    #[test]
    fn future_arrivals_dispatch_at_their_time() {
        let mut s = soc();
        s.schedule_job(
            SimTime::from_millis(10),
            Job::new(1, 1_000_000, SimTime::from_millis(30), JobClass::Normal),
        );
        assert_eq!(s.pending_arrivals(), 1);
        let report = s.run_epoch(&LevelRequest::max(s.config())).unwrap();
        let done: Vec<_> = report.completed().collect();
        assert_eq!(done.len(), 1);
        assert!(
            done[0].completed_at >= SimTime::from_millis(10),
            "must not start before arrival"
        );
        assert_eq!(s.pending_arrivals(), 0);
    }

    #[test]
    fn arrivals_beyond_epoch_stay_pending() {
        let mut s = soc();
        s.schedule_job(
            SimTime::from_millis(25),
            Job::new(1, 1_000, SimTime::from_millis(50), JobClass::Normal),
        );
        let report = s.run_epoch(&LevelRequest::max(s.config())).unwrap();
        assert_eq!(report.completed().count(), 0);
        assert_eq!(s.pending_arrivals(), 1);
        let report2 = s.run_epoch(&LevelRequest::max(s.config())).unwrap();
        assert_eq!(report2.completed().count(), 1);
    }

    #[test]
    fn wrong_arity_request_is_rejected() {
        let mut s = xu3();
        let err = s.run_epoch(&LevelRequest::new(vec![0]));
        assert!(matches!(err, Err(SocError::InvalidSocConfig { .. })));
    }

    #[test]
    fn out_of_range_level_is_rejected() {
        let mut s = soc();
        let err = s.run_epoch(&LevelRequest::new(vec![99]));
        assert!(matches!(err, Err(SocError::LevelOutOfRange { .. })));
    }

    #[test]
    fn higher_level_finishes_work_sooner_but_costs_more_energy() {
        let run = |level: usize| {
            let mut s = soc();
            // Settle: one idle epoch at the target level so the transition
            // cost does not skew the comparison.
            s.run_epoch(&LevelRequest::new(vec![level])).unwrap();
            s.push_job(Job::new(
                1,
                20_000_000,
                SimTime::from_millis(120),
                JobClass::Heavy,
            ));
            let mut energy = 0.0;
            let mut finished = None;
            for _ in 0..10 {
                let r = s.run_epoch(&LevelRequest::new(vec![level])).unwrap();
                energy += r.energy_j;
                let first_done = r.completed().next().map(|c| c.completed_at);
                if first_done.is_some() {
                    finished = first_done;
                }
            }
            (
                energy,
                finished.expect("job finishes within 200 ms at any level"),
            )
        };
        let (e_low, t_low) = run(0);
        let (e_high, t_high) = run(2);
        assert!(t_high < t_low, "faster at high level");
        assert!(e_high > e_low, "more energy at high level");
    }

    #[test]
    fn observation_matches_report() {
        let mut s = xu3();
        s.push_job(Job::new(
            1,
            50_000_000,
            SimTime::from_millis(50),
            JobClass::Heavy,
        ));
        let report = s.run_epoch(&LevelRequest::max(s.config())).unwrap();
        let obs = s.observe(&report);
        assert_eq!(obs.clusters.len(), 2);
        assert_eq!(obs.at, report.ended_at);
        for (c_obs, c_rep) in obs.clusters.iter().zip(&report.clusters) {
            assert_eq!(c_obs.util_avg, c_rep.util_avg);
            assert_eq!(c_obs.util_max, c_rep.util_max);
            assert_eq!(c_obs.level, c_rep.level);
        }
        // Heavy job went to the big cluster.
        assert!(obs.clusters[1].util_max > 0.0);
        assert_eq!(obs.clusters[0].util_max, 0.0);
    }

    #[test]
    fn energy_accumulates_across_epochs() {
        let mut s = soc();
        let r1 = s.run_epoch(&LevelRequest::min(s.config())).unwrap();
        let r2 = s.run_epoch(&LevelRequest::min(s.config())).unwrap();
        assert!((s.total_energy_j() - r1.energy_j - r2.energy_j).abs() < 1e-12);
        assert_eq!(s.epochs_run(), 2);
    }

    #[test]
    fn reset_restores_time_zero() {
        let mut s = soc();
        s.push_job(Job::new(
            1,
            1_000_000_000,
            SimTime::from_secs(1),
            JobClass::Normal,
        ));
        s.run_epoch(&LevelRequest::max(s.config())).unwrap();
        s.reset();
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.total_energy_j(), 0.0);
        assert_eq!(s.queued_jobs(), 0);
        assert_eq!(s.pending_arrivals(), 0);
        // Fully functional after reset.
        s.push_job(Job::new(
            2,
            1_000,
            SimTime::from_millis(20),
            JobClass::Normal,
        ));
        assert!(s.run_epoch(&LevelRequest::min(s.config())).is_ok());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_arrival_panics() {
        let mut s = soc();
        s.run_epoch(&LevelRequest::min(s.config())).unwrap();
        s.schedule_job(
            SimTime::from_millis(1),
            Job::new(1, 1, SimTime::from_millis(2), JobClass::Light),
        );
    }

    #[test]
    fn hotplug_routes_errors_and_reduces_energy() {
        let mut s = xu3();
        assert!(matches!(
            s.set_cores_online(9, 1),
            Err(SocError::NoSuchCluster {
                cluster: 9,
                available: 2
            })
        ));
        assert!(matches!(
            s.set_cores_online(0, 0),
            Err(SocError::InvalidHotplug { .. })
        ));
        assert_eq!(s.set_cores_online(0, 1).unwrap(), 4);
        let r_half = s.run_epoch(&LevelRequest::min(s.config())).unwrap();
        s.reset();
        let r_full = s.run_epoch(&LevelRequest::min(s.config())).unwrap();
        assert!(
            r_half.energy_j < r_full.energy_j,
            "parked cores must not leak: {} vs {}",
            r_half.energy_j,
            r_full.energy_j
        );
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut s = xu3();
            for i in 0..50u64 {
                s.schedule_job(
                    SimTime::from_millis(i * 7),
                    Job::new(
                        i,
                        3_000_000 + i * 10_000,
                        SimTime::from_millis(i * 7 + 16),
                        JobClass::Heavy,
                    ),
                );
            }
            let mut energy = 0.0;
            for e in 0..25 {
                let level = (e % 19) as usize;
                let r = s
                    .run_epoch(&LevelRequest::new(vec![level.min(12), level]))
                    .unwrap();
                energy += r.energy_j;
            }
            energy
        };
        assert_eq!(run(), run());
    }
}
