//! Batched multi-device simulation: N independent [`Soc`] lanes advanced
//! epoch-by-epoch in lockstep.
//!
//! A fleet sweep (many devices × scenarios × seeds) re-runs the same
//! single-device epoch loop thousands of times, and most of those lanes
//! spend most epochs fully idle. [`DeviceBatch`] exploits that with a
//! **parked** mode: a lane whose clusters are all quiescent (no cpuidle
//! table, no arrival due within the epoch) loads each cluster's hot
//! state — thermal node, frequency level, epoch sums, power constants —
//! into a slot of the steady kernel's own structure-of-arrays lanes
//! ([`crate::cluster::ParkedLanes`], 32-lane blocks, one slot per
//! cluster), and *stays* there across epochs. Each epoch the kernel runs
//! every parked block in place, and the per-lane epoch report, governor
//! observation and next epoch's parked check are read straight from the
//! slots, without touching the parked `Cluster`/core structures or
//! moving any state in or out of the lanes. Lanes with queued work,
//! imminent arrivals, cpuidle tables, or a level-change request unpark
//! (the slots are stored back into their clusters) and run live, in two
//! passes block by block: each live lane applies its levels, admits the
//! clusters whose clamp certificate holds into the live block's lanes
//! (the clamp provably cannot fire this epoch), and runs its execution
//! pass, recording every core's busy fraction per sub-step; whenever the
//! next lane might not fit, and after the last, the block's thermal pass
//! runs every admitted cluster's whole power and thermal chain in the
//! kernel, 32 clusters a call, stores each back, and each lane in the
//! block closes its epoch as [`Soc::run_epoch_into`] does.
//!
//! Two effects make this fast. The interleaved kernel fills the FP
//! pipeline: a single cluster's thermal chain is one serial
//! floating-point recurrence (each sub-step's temperature feeds the
//! next), but across lanes the recurrences are independent. And resident
//! parking removes the per-epoch load and store: a parked lane's epoch
//! touches its own lane of a few dense rows instead of its whole
//! simulator object graph, and a park or unpark moves O(the lane's
//! clusters) slots.
//!
//! Batching is a pure scheduling optimisation: every lane produces
//! **bit-identical** state, reports and metrics to running it alone. The
//! parked path and the live thermal passes run the very kernel a lone
//! [`Soc`] runs its thermal pass through (two lanes wide there), and
//! close each epoch through the same fold as the scalar epilogue (whose
//! idle-epoch inputs are all exactly `+0.0`/empty); the live path *is*
//! the single-device path, with its thermal pass shared by a block. The
//! equivalence is pinned per-epoch by unit tests here, end-to-end by the
//! `golden_bits` batch-vs-looped cases, against golden bits with the
//! thermal clamp firing inside the kernel by `tests/thermal_clamp.rs`,
//! and for epoch ends beside parked and live lanes by
//! `tests/steady_tail.rs`.

use simkit::{obs, SimTime};

use simkit::SimDuration;

use crate::cluster::{ParkedLanes, ParkedObsConsts};
use crate::soc_impl::LiveBlock;
use crate::{EpochObservation, EpochReport, Job, LevelRequest, Soc, SocError};

/// Epochs that took the parked (batched steady kernel) fast path.
static PARKED_EPOCHS: obs::Counter = obs::Counter::new("soc.batch.parked_epochs");
/// Epochs that ran live: the execution pass, then a block's thermal pass.
static SCALAR_EPOCHS: obs::Counter = obs::Counter::new("soc.batch.scalar_epochs");

/// Per-lane batch bookkeeping: whether the lane is parked, where its
/// slots live, and the constants staged for observation synthesis.
#[derive(Debug, Default)]
struct LaneMeta {
    parked: bool,
    /// This lane's first slot in the parked lanes, one per cluster
    /// (valid while parked; maintained when other lanes unpark).
    first_slot: usize,
    /// This lane's position in `order` (valid while parked).
    order_pos: usize,
    /// Staged per-cluster observation constants (capacity reused across
    /// park/unpark cycles).
    obs: Vec<ParkedObsConsts>,
    /// Completed epochs in the current parked stay — the idle residency
    /// owed to the cores at unpark.
    epochs_parked: u64,
}

/// A set of independent [`Soc`] lanes stepped in lockstep.
///
/// All lanes must share the same epoch and sub-step durations (the
/// lockstep grid); cluster layouts, presets and per-lane state are free
/// to differ. Lanes never interact — the batch exists purely to amortise
/// per-sub-step and per-epoch overhead across devices.
///
/// While a lane is parked (see the module docs), its `Soc`'s cluster
/// state is stale — the live values sit in the batch's parked lanes.
/// [`DeviceBatch::lane_mut`], [`DeviceBatch::unpark_all`] and
/// [`DeviceBatch::into_lanes`] write the state back; [`DeviceBatch::lane`]
/// does not, and is only guaranteed consistent for time, energy and epoch
/// totals (which the batch keeps current every epoch) or after an
/// explicit unpark.
#[derive(Debug)]
pub struct DeviceBatch {
    lanes: Vec<Soc>,
    /// Every parked lane's clusters, resident in kernel layout; each lane
    /// owns one contiguous chunk of slots.
    parked: ParkedLanes,
    /// Parked lane indices, kept sorted by `first_slot` so the last entry
    /// always owns the tail chunk (which makes unparking O(clusters)).
    order: Vec<usize>,
    meta: Vec<LaneMeta>,
    /// Per-lane error from the most recent epoch (`None` = stepped OK).
    errors: Vec<Option<SocError>>,
    /// Scratch of one epoch step: the live block, built on the first live
    /// epoch for the lanes' widest cluster ...
    block: Option<Box<LiveBlock>>,
    /// ... and the index and epoch start of each lane in it.
    live: Vec<(usize, SimTime)>,
}

/// Checks that `lane` (batch index `i`) shares `first`'s epoch and
/// sub-step, the lockstep grid every lane of a batch must share.
fn check_grid(first: &Soc, lane: &Soc, i: usize) -> Result<(), SocError> {
    let (epoch, substep) = (first.config().epoch, first.config().substep);
    let c = lane.config();
    if c.epoch != epoch || c.substep != substep {
        return Err(SocError::InvalidSocConfig {
            reason: format!(
                "lane {i} has epoch {}/sub-step {}, lane 0 has {epoch}/{substep}: \
                 batched lanes must share the lockstep grid",
                c.epoch, c.substep
            ),
        });
    }
    Ok(())
}

impl DeviceBatch {
    /// Builds a batch over the given lanes.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSocConfig`] if the lanes disagree on
    /// epoch or sub-step duration — the lockstep grid must be shared.
    pub fn new(lanes: Vec<Soc>) -> Result<Self, SocError> {
        if let Some(first) = lanes.first() {
            for (i, lane) in lanes.iter().enumerate() {
                check_grid(first, lane, i)?;
            }
        }
        let n = lanes.len();
        Ok(DeviceBatch {
            lanes,
            parked: ParkedLanes::default(),
            order: Vec::new(),
            meta: (0..n).map(|_| LaneMeta::default()).collect(),
            errors: vec![None; n],
            block: None,
            live: Vec::new(),
        })
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The lanes, for inspection. Parked lanes' cluster state may be
    /// stale — call [`DeviceBatch::unpark_all`] first for a full view.
    pub fn lanes(&self) -> &[Soc] {
        &self.lanes
    }

    /// One lane, immutably (same staleness caveat as
    /// [`DeviceBatch::lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane(&self, lane: usize) -> &Soc {
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        &self.lanes[lane]
    }

    /// One lane, mutably — for per-lane knobs or direct inspection. The
    /// lane is unparked first so every field is live; it re-parks on its
    /// next eligible epoch.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_mut(&mut self, lane: usize) -> &mut Soc {
        self.unpark(lane);
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        &mut self.lanes[lane]
    }

    /// Schedules a job arrival on one lane without unparking it: the
    /// arrival queue lives outside the parked state, and the next epoch's
    /// pre-pass sees the new arrival when it re-checks the parked
    /// condition.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn schedule_job(&mut self, lane: usize, at: SimTime, job: Job) {
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        self.lanes[lane].schedule_job(at, job);
    }

    /// Jobs queued on one lane's cores. For a parked lane this is zero by
    /// the parked invariant (every cluster quiescent), without touching
    /// the per-core queues.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_queued_jobs(&self, lane: usize) -> usize {
        if self.lane_parked(lane) {
            0
        } else {
            // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
            self.lanes[lane].queued_jobs()
        }
    }

    /// Builds the governor-facing observation for one lane's epoch
    /// report: [`Soc::observe_into`] for live lanes, synthesised from the
    /// resident slots (bit-identically) for parked ones.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn observe_lane_into(&self, lane: usize, report: &EpochReport, obs: &mut EpochObservation) {
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        let (meta, soc) = (&self.meta[lane], &self.lanes[lane]);
        if !meta.parked {
            soc.observe_into(report, obs);
            return;
        }
        obs.at = report.ended_at;
        obs.energy_j = report.energy_j;
        obs.clusters.clear();
        obs.clusters
            .extend(
                meta.obs
                    .iter()
                    .zip(&report.clusters)
                    .enumerate()
                    .map(|(c, (consts, r))| {
                        self.parked
                            .observe(meta.first_slot + c, consts, r.util_avg, r.util_max)
                    }),
            );
    }

    /// Unparks every parked lane, writing the resident slots back into the
    /// `Soc` structures. Call before inspecting final lane state;
    /// [`DeviceBatch::into_lanes`] does it automatically.
    pub fn unpark_all(&mut self) {
        while let Some(&lane) = self.order.last() {
            self.unpark(lane);
        }
    }

    /// Consumes the batch, returning the (fully unparked) lanes.
    pub fn into_lanes(mut self) -> Vec<Soc> {
        self.unpark_all();
        self.lanes
    }

    /// Splits the batch in two at `at`, like [`Vec::split_off`]: `self`
    /// keeps lanes `[0, at)` and the returned batch holds `[at, len)`.
    /// Every lane is unparked first, and the lanes move rather than being
    /// copied. Both halves inherit the lockstep grid, so this cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> DeviceBatch {
        self.unpark_all();
        DeviceBatch {
            lanes: self.lanes.split_off(at),
            parked: ParkedLanes::default(),
            order: Vec::new(),
            meta: self.meta.split_off(at),
            errors: self.errors.split_off(at),
            block: None,
            live: Vec::new(),
        }
    }

    /// Moves every lane of `other` onto the end of this batch, leaving
    /// `other` empty, like [`Vec::append`]: the inverse of
    /// [`DeviceBatch::split_off`]. The moved lanes arrive unparked, with
    /// their [`DeviceBatch::lane_errors`] entries.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSocConfig`], and moves nothing, if the
    /// two batches do not share one lockstep grid.
    pub fn append(&mut self, other: &mut DeviceBatch) -> Result<(), SocError> {
        if let (Some(first), Some(theirs)) = (self.lanes.first(), other.lanes.first()) {
            check_grid(first, theirs, self.lanes.len())?;
        }
        other.unpark_all();
        // The moved lanes may have wider clusters: rebuild the block.
        self.block = None;
        self.lanes.append(&mut other.lanes);
        self.meta.append(&mut other.meta);
        self.errors.append(&mut other.errors);
        Ok(())
    }

    /// Per-lane outcome of the most recent [`DeviceBatch::run_epoch_into`]
    /// call: `None` means the lane stepped, `Some` carries the error that
    /// stopped it (its report slot is unspecified).
    pub fn lane_errors(&self) -> &[Option<SocError>] {
        &self.errors
    }

    /// Number of lanes currently parked on the batched steady path.
    pub fn parked_lanes(&self) -> usize {
        self.order.len()
    }

    /// Whether one lane is currently parked. After a
    /// [`DeviceBatch::run_epoch_into`] call this tells the caller the
    /// lane's whole epoch ran parked in the kernel (a live lane's thermal
    /// pass runs there too, but it is not parked) — which implies it completed
    /// no jobs and queued none, letting control loops skip QoS
    /// bookkeeping whose deltas are exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_parked(&self, lane: usize) -> bool {
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        self.meta[lane].parked
    }

    /// Parks `lane`: loads its clusters into slots at the end of the parked
    /// lanes. Caller guarantees the lane is parkable and its levels are
    /// applied.
    fn park(&mut self, lane: usize) {
        let Some(meta) = self.meta.get_mut(lane) else {
            debug_assert!(false, "park({lane}) out of range");
            return;
        };
        debug_assert!(!meta.parked);
        meta.parked = true;
        meta.first_slot = self.parked.len();
        meta.order_pos = self.order.len();
        meta.epochs_parked = 0;
        meta.obs.clear();
        if let Some(soc) = self.lanes.get_mut(lane) {
            soc.parked_enter(&mut self.parked, &mut meta.obs);
        }
        self.order.push(lane);
    }

    /// Unparks `lane` if parked: stores its slots back and closes the gap
    /// in the parked lanes by moving the tail chunk into it —
    /// O(clusters), not O(parked lanes), so a fleet-wide wake-up storm
    /// (every lane unparking for a synchronized arrival) stays linear in
    /// the fleet. Moving the tail chunk to the freed slots keeps `order`
    /// sorted by `first_slot`: entries before `pos` hold smaller slots,
    /// entries after hold larger ones, and the moved lane takes exactly
    /// the freed slots and position. Each move goes through the moved
    /// lane's own clusters ([`Soc::parked_move`]). No-op for live lanes.
    fn unpark(&mut self, lane: usize) {
        let Some(meta) = self.meta.get_mut(lane) else {
            return;
        };
        if !meta.parked {
            return;
        }
        meta.parked = false;
        let (clusters, start, pos, epochs) = (
            meta.obs.len(),
            meta.first_slot,
            meta.order_pos,
            meta.epochs_parked,
        );
        if let Some(soc) = self.lanes.get_mut(lane) {
            soc.parked_exit(&self.parked, start, epochs);
        }
        let Some(&last) = self.order.last() else {
            debug_assert!(false, "unpark({lane}): lane parked but `order` empty");
            return;
        };
        if last == lane {
            self.order.pop();
            self.parked.truncate(start);
            return;
        }
        let len = self.parked.len();
        if self.meta.get(last).is_some_and(|m| m.obs.len() == clusters) {
            if let (Some(m), Some(soc)) = (self.meta.get_mut(last), self.lanes.get_mut(last)) {
                soc.parked_move(&mut self.parked, m.first_slot, start);
                m.first_slot = start;
                m.order_pos = pos;
            }
            self.order.swap_remove(pos);
        } else {
            // Mixed cluster counts in one batch: chunk widths differ, so
            // fall back to a linear shift of everything after the gap, in
            // slot order, so no lane lands on slots not yet moved.
            self.order.remove(pos);
            for (p, &l) in self.order.iter().enumerate().skip(pos) {
                if let (Some(m), Some(soc)) = (self.meta.get_mut(l), self.lanes.get_mut(l)) {
                    soc.parked_move(&mut self.parked, m.first_slot, m.first_slot - clusters);
                    m.first_slot -= clusters;
                    m.order_pos = p;
                }
            }
        }
        self.parked.truncate(len - clusters);
    }

    /// Whether a parked lane can stay parked for the coming epoch: no
    /// arrival due within it, and the level request a no-op on every
    /// slot (the same clamp-then-compare `set_level` performs). The
    /// quiescence half of the parked condition is invariant while parked.
    fn still_parkable(&self, lane: usize, request: &LevelRequest) -> bool {
        let (Some(meta), Some(soc)) = (self.meta.get(lane), self.lanes.get(lane)) else {
            return false;
        };
        let clusters = meta.obs.len();
        if request.levels.len() != clusters || !soc.arrivals_clear_of_epoch() {
            return false;
        }
        request.levels.iter().enumerate().all(|(c, &level)| {
            self.parked
                .level_request_is_noop(meta.first_slot + c, level)
        })
    }

    /// Advances every active lane by one epoch in lockstep.
    ///
    /// `active[i]` gates lane `i` (callers clear it for lanes that ended
    /// early; an inactive lane is unparked and left untouched);
    /// `requests[i]` and `reports[i]` are that lane's level request and
    /// report slot. Per-lane failures (a request with the wrong arity or
    /// an out-of-range level) do not stop the batch: the lane is skipped,
    /// the error is recorded in [`DeviceBatch::lane_errors`], and every
    /// other lane still steps — exactly as independent looped runs would
    /// behave.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSocConfig`] if the slice lengths do not
    /// match the lane count (nothing is stepped).
    pub fn run_epoch_into(
        &mut self,
        active: &[bool],
        requests: &[LevelRequest],
        reports: &mut [EpochReport],
    ) -> Result<(), SocError> {
        let n = self.lanes.len();
        if active.len() != n || requests.len() != n || reports.len() != n {
            return Err(SocError::InvalidSocConfig {
                reason: format!(
                    "batch of {n} lanes stepped with {} active flags, {} requests, {} reports",
                    active.len(),
                    requests.len(),
                    reports.len()
                ),
            });
        }

        let Some(config) = self.lanes.first().map(Soc::config) else {
            return Ok(());
        };
        // All lanes share the grid (validated in `new`).
        let (substep, steps) = (config.substep, config.substeps_per_epoch());
        let mut block = match self.block.take() {
            Some(block) => block,
            None => LiveBlock::new(&self.lanes),
        };

        // Pre-pass: decide each lane's path for this epoch. Parked lanes
        // re-check the parked condition against the new request and
        // arrivals; live lanes either park (all-idle epoch ahead) or run
        // their execution pass right here into the live block, whose
        // thermal pass and epoch closes run whenever the next lane might
        // not fit, and after the last. The order change relative to
        // looped execution is immaterial — lanes never read each other's
        // state.
        self.live.clear();
        for (i, (request, &is_active)) in requests.iter().zip(active).enumerate() {
            if let Some(slot) = self.errors.get_mut(i) {
                *slot = None;
            }
            if self.meta.get(i).is_some_and(|m| m.parked) {
                if is_active && self.still_parkable(i, request) {
                    // Stays parked: the kernel itself opens the new epoch
                    // on the resident slots (discarding the previous
                    // epoch's stall flag).
                    continue;
                }
                self.unpark(i);
            }
            if !is_active {
                continue;
            }
            let Some(lane) = self.lanes.get_mut(i) else {
                continue;
            };
            let outcome = if lane.idle_epoch_parkable() {
                lane.apply_levels(request).map(|()| None)
            } else {
                SCALAR_EPOCHS.inc();
                if !block.has_room(lane.clusters().len()) {
                    close_block(
                        &mut block,
                        &mut self.lanes,
                        &mut self.live,
                        reports,
                        (substep, steps),
                    );
                }
                match self.lanes.get_mut(i) {
                    Some(lane) => lane.run_epoch_prefix(request, i, &mut block).map(Some),
                    None => continue,
                }
            };
            match outcome {
                Ok(None) => self.park(i),
                Ok(Some(started_at)) => self.live.push((i, started_at)),
                Err(e) => {
                    if let Some(slot) = self.errors.get_mut(i) {
                        *slot = Some(e);
                    }
                }
            }
        }
        close_block(
            &mut block,
            &mut self.lanes,
            &mut self.live,
            reports,
            (substep, steps),
        );
        self.block = Some(block);

        // One kernel pass advances every parked slot through the whole
        // epoch.
        // xtask-hotpath: begin (lockstep steady kernel dispatch, no allocation)
        self.parked.advance(substep, steps);
        for &i in &self.order {
            PARKED_EPOCHS.inc();
            let Some(meta) = self.meta.get_mut(i) else {
                continue;
            };
            meta.epochs_parked += 1;
            if let (Some(soc), Some(report)) = (self.lanes.get_mut(i), reports.get_mut(i)) {
                soc.parked_commit_epoch(&mut self.parked, meta.first_slot, report);
            }
        }
        // xtask-hotpath: end
        Ok(())
    }
}

/// Closes the live block: its thermal pass through an epoch of `steps`
/// sub-steps of length `substep`, then the epoch close of each lane in it
/// (`live`, which it empties) into its report.
fn close_block(
    block: &mut LiveBlock,
    lanes: &mut [Soc],
    live: &mut Vec<(usize, SimTime)>,
    reports: &mut [EpochReport],
    (substep, steps): (SimDuration, u64),
) {
    // xtask-hotpath: begin
    block.finish(lanes, substep, steps);
    for &(i, started_at) in live.iter() {
        if let (Some(soc), Some(report)) = (lanes.get_mut(i), reports.get_mut(i)) {
            soc.run_epoch_suffix(started_at, report);
        }
    }
    // xtask-hotpath: end
    live.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobClass, SocConfig};

    fn lane(config: SocConfig) -> Soc {
        Soc::new(config).unwrap()
    }

    fn empty_report() -> EpochReport {
        EpochReport {
            started_at: SimTime::ZERO,
            ended_at: SimTime::ZERO,
            clusters: Vec::new(),
            energy_j: 0.0,
        }
    }

    /// A deterministic, seed-dependent level pattern over the clusters.
    fn request_for(soc: &Soc, seed: u64, epoch: u64) -> LevelRequest {
        LevelRequest::new(
            soc.clusters()
                .iter()
                .enumerate()
                .map(|(c, cluster)| {
                    let max = cluster.config().opps.max_level();
                    ((seed as usize + epoch as usize * 3 + c * 5) % 7) * max / 6
                })
                .collect(),
        )
    }

    /// Sparse arrivals: a burst every few epochs, quiet otherwise, so the
    /// run mixes busy, partially-idle and fully-parked epochs.
    fn epoch_job(now: SimTime, seed: u64, epoch: u64) -> Option<(SimTime, Job)> {
        if (epoch + seed).is_multiple_of(5) {
            let at = now + SimDuration::from_millis((seed % 7) * 2);
            Some((
                at,
                Job::new(
                    epoch * 100 + seed,
                    2_000_000 + seed * 500_000,
                    at + SimDuration::from_millis(30),
                    if seed.is_multiple_of(2) {
                        JobClass::Heavy
                    } else {
                        JobClass::Light
                    },
                ),
            ))
        } else {
            None
        }
    }

    /// Steps `soc` through `epochs` epochs with the same level pattern
    /// and job schedule the batched tests use.
    fn drive_looped(soc: &mut Soc, seed: u64, epochs: u64) {
        let mut report = empty_report();
        for e in 0..epochs {
            if let Some((at, job)) = epoch_job(soc.now(), seed, e) {
                soc.schedule_job(at, job);
            }
            let request = request_for(soc, seed, e);
            soc.run_epoch_into(&request, &mut report).unwrap();
        }
    }

    fn assert_lanes_identical(batched: &Soc, looped: &Soc) {
        assert_eq!(
            batched.total_energy_j().to_bits(),
            looped.total_energy_j().to_bits(),
            "energy diverged"
        );
        assert_eq!(batched.now(), looped.now());
        assert_eq!(batched.epochs_run(), looped.epochs_run());
        assert_eq!(
            batched.clusters(),
            looped.clusters(),
            "cluster state diverged"
        );
    }

    #[test]
    fn batched_epochs_are_bit_identical_to_looped() {
        for preset in [
            SocConfig::odroid_xu3_like().unwrap(),
            SocConfig::odroid_xu3_like_cstates().unwrap(),
            SocConfig::tiny_test().unwrap(),
        ] {
            let lanes: Vec<Soc> = (0..5).map(|_| lane(preset.clone())).collect();
            let mut batch = DeviceBatch::new(lanes).unwrap();
            let epochs = 40;
            let n = batch.len();
            let active = vec![true; n];
            let mut reports: Vec<EpochReport> = (0..n).map(|_| empty_report()).collect();
            for e in 0..epochs {
                let requests: Vec<LevelRequest> = (0..n)
                    .map(|i| {
                        if let Some((at, job)) = epoch_job(batch.lane(i).now(), i as u64, e) {
                            batch.schedule_job(i, at, job);
                        }
                        request_for(batch.lane(i), i as u64, e)
                    })
                    .collect();
                batch
                    .run_epoch_into(&active, &requests, &mut reports)
                    .unwrap();
                assert!(batch.lane_errors().iter().all(Option::is_none));
            }

            batch.unpark_all();
            for (i, batched) in batch.lanes().iter().enumerate() {
                let mut looped = lane(preset.clone());
                drive_looped(&mut looped, i as u64, epochs);
                assert_lanes_identical(batched, &looped);
            }
        }
    }

    #[test]
    fn pure_idle_lane_parks_and_matches() {
        let mut batch =
            DeviceBatch::new(vec![lane(SocConfig::odroid_xu3_like().unwrap())]).unwrap();
        let mut looped = lane(SocConfig::odroid_xu3_like().unwrap());
        let request = LevelRequest::min(looped.config());
        let mut report = looped.run_epoch(&request).unwrap();
        for _ in 0..99 {
            looped.run_epoch_into(&request, &mut report).unwrap();
        }
        let mut reports = vec![empty_report()];
        for _ in 0..100 {
            batch
                .run_epoch_into(&[true], std::slice::from_ref(&request), &mut reports)
                .unwrap();
        }
        // The per-epoch reports agree bit-for-bit even while parked.
        assert_eq!(reports[0], report);
        batch.unpark_all();
        assert_lanes_identical(batch.lane(0), &looped);
    }

    #[test]
    fn parked_observations_match_live_ones() {
        let preset = SocConfig::odroid_xu3_like().unwrap();
        let mut batch = DeviceBatch::new(vec![lane(preset.clone())]).unwrap();
        let mut looped = lane(preset);
        let request = LevelRequest::min(looped.config());
        let mut looped_report = empty_report();
        let mut reports = vec![empty_report()];
        let mut batched_obs = EpochObservation {
            at: SimTime::ZERO,
            clusters: Vec::new(),
            energy_j: 0.0,
        };
        let mut looped_obs = batched_obs.clone();
        for _ in 0..25 {
            looped.run_epoch_into(&request, &mut looped_report).unwrap();
            looped.observe_into(&looped_report, &mut looped_obs);
            batch
                .run_epoch_into(&[true], std::slice::from_ref(&request), &mut reports)
                .unwrap();
            batch.observe_lane_into(0, &reports[0], &mut batched_obs);
            assert_eq!(batched_obs, looped_obs);
        }
    }

    #[test]
    fn unparking_mid_run_preserves_identity() {
        // Park for a while, then force an unpark via a level change, then
        // a job burst, then re-park — state must track looped throughout.
        let preset = SocConfig::odroid_xu3_like().unwrap();
        let mut batch = DeviceBatch::new(vec![lane(preset.clone())]).unwrap();
        let mut looped = lane(preset);
        let mut looped_report = empty_report();
        let mut reports = vec![empty_report()];
        for e in 0..60u64 {
            let level = if (20..24).contains(&e) { 3 } else { 0 };
            let request = LevelRequest::new(vec![level, level]);
            if e == 40 {
                let at = looped.now() + SimDuration::from_millis(3);
                let job = Job::new(
                    7,
                    5_000_000,
                    at + SimDuration::from_millis(30),
                    JobClass::Heavy,
                );
                looped.schedule_job(at, job);
                batch.schedule_job(0, at, job);
            }
            looped.run_epoch_into(&request, &mut looped_report).unwrap();
            batch
                .run_epoch_into(&[true], std::slice::from_ref(&request), &mut reports)
                .unwrap();
            assert_eq!(reports[0], looped_report, "epoch {e} diverged");
        }
        batch.unpark_all();
        assert_lanes_identical(batch.lane(0), &looped);
    }

    #[test]
    fn inactive_lanes_do_not_step() {
        let config = SocConfig::tiny_test().unwrap();
        let mut batch = DeviceBatch::new(vec![lane(config.clone()), lane(config.clone())]).unwrap();
        let request = LevelRequest::min(&config);
        let requests = vec![request.clone(), request];
        let mut reports: Vec<EpochReport> = (0..2).map(|_| empty_report()).collect();
        batch
            .run_epoch_into(&[true, false], &requests, &mut reports)
            .unwrap();
        batch.unpark_all();
        assert_eq!(batch.lane(0).epochs_run(), 1);
        assert_eq!(batch.lane(1).epochs_run(), 0);
        assert_eq!(batch.lane(1).now(), SimTime::ZERO);
    }

    #[test]
    fn per_lane_errors_do_not_stop_the_batch() {
        let config = SocConfig::tiny_test().unwrap();
        let mut batch = DeviceBatch::new(vec![lane(config.clone()), lane(config.clone())]).unwrap();
        let bad = LevelRequest::new(vec![99]);
        let good = LevelRequest::min(&config);
        let requests = vec![bad, good];
        let mut reports: Vec<EpochReport> = (0..2).map(|_| empty_report()).collect();
        batch
            .run_epoch_into(&[true, true], &requests, &mut reports)
            .unwrap();
        assert!(matches!(
            batch.lane_errors()[0],
            Some(SocError::LevelOutOfRange { .. })
        ));
        assert!(batch.lane_errors()[1].is_none());
        batch.unpark_all();
        assert_eq!(batch.lane(1).epochs_run(), 1);
    }

    #[test]
    fn mismatched_grids_are_rejected() {
        let a = SocConfig::odroid_xu3_like().unwrap();
        let mut b = SocConfig::odroid_xu3_like().unwrap();
        b.substep = SimDuration::from_millis(2);
        let err = DeviceBatch::new(vec![lane(a), lane(b)]);
        assert!(matches!(err, Err(SocError::InvalidSocConfig { .. })));
    }

    #[test]
    fn split_halves_step_on_and_rejoin_bit_identically() {
        let preset = SocConfig::odroid_xu3_like().unwrap();
        let request = LevelRequest::min(&preset);
        // One epoch of lanes `first..` of the fleet: the shared job
        // schedule at the lowest level, so quiet lanes park.
        let step = |batch: &mut DeviceBatch, first: usize, e: u64| {
            let n = batch.len();
            for i in 0..n {
                if let Some((at, job)) = epoch_job(batch.lane(i).now(), (first + i) as u64, e) {
                    batch.schedule_job(i, at, job);
                }
            }
            let mut reports: Vec<EpochReport> = (0..n).map(|_| empty_report()).collect();
            batch
                .run_epoch_into(&vec![true; n], &vec![request.clone(); n], &mut reports)
                .unwrap();
        };
        let mut batch = DeviceBatch::new((0..5).map(|_| lane(preset.clone())).collect()).unwrap();
        for e in 0..20 {
            step(&mut batch, 0, e);
        }
        assert!(batch.parked_lanes() > 0, "lanes are parked at the split");
        let mut tail = batch.split_off(2);
        assert_eq!((batch.len(), tail.len()), (2, 3));
        for e in 20..40 {
            step(&mut batch, 0, e);
            step(&mut tail, 2, e);
        }
        batch.append(&mut tail).unwrap();
        assert!(tail.is_empty());
        batch.unpark_all();
        for (i, batched) in batch.lanes().iter().enumerate() {
            let mut looped = lane(preset.clone());
            let mut report = empty_report();
            for e in 0..40 {
                if let Some((at, job)) = epoch_job(looped.now(), i as u64, e) {
                    looped.schedule_job(at, job);
                }
                looped.run_epoch_into(&request, &mut report).unwrap();
            }
            assert_lanes_identical(batched, &looped);
        }
    }

    #[test]
    fn appending_a_batch_on_another_grid_is_rejected() {
        let a = SocConfig::odroid_xu3_like().unwrap();
        let mut b = a.clone();
        b.substep = SimDuration::from_millis(2);
        let mut batch = DeviceBatch::new(vec![lane(a)]).unwrap();
        let mut other = DeviceBatch::new(vec![lane(b)]).unwrap();
        let err = batch.append(&mut other);
        assert!(matches!(err, Err(SocError::InvalidSocConfig { .. })));
        assert_eq!((batch.len(), other.len()), (1, 1), "nothing moved");
    }

    #[test]
    fn mismatched_slice_arity_is_rejected() {
        let mut batch = DeviceBatch::new(vec![lane(SocConfig::tiny_test().unwrap())]).unwrap();
        let err = batch.run_epoch_into(&[true, true], &[], &mut []);
        assert!(matches!(err, Err(SocError::InvalidSocConfig { .. })));
    }
}
