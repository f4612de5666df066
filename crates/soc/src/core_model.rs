//! A single CPU core: an instruction-retirement model over a FIFO run
//! queue.
//!
//! Within one sub-step a core retires `f · IPC · dt` reference
//! instructions from its queue, finishing zero or more jobs. Completion
//! timestamps are interpolated within the sub-step so deadline accounting
//! is not quantised to the sub-step size.

use std::collections::VecDeque;

use simkit::{SimDuration, SimTime};

use crate::{CompletedJob, Job};

/// Queued job with its remaining work.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueuedJob {
    job: Job,
    remaining: f64,
}

/// One CPU core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreModel {
    /// Instructions retired per cycle relative to the reference core.
    ipc: f64,
    queue: VecDeque<QueuedJob>,
    /// Total reference instructions retired since construction.
    retired: f64,
    /// How long the core has been continuously idle (cpuidle residency).
    idle_for: SimDuration,
    /// Pending wake-up stall charged by cpuidle on the next sub-step.
    wake_stall: SimDuration,
}

/// Per-sub-step execution report for one core.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoreReport {
    /// Fraction of the sub-step the core was busy, in `[0, 1]`.
    pub busy: f64,
    /// Jobs that finished during the sub-step.
    pub completed: Vec<CompletedJob>,
}

/// The execution constants of one OPP over one sub-step length, hoisted
/// out of the sub-step loop by the cluster's execution pass (see
/// [`CoreModel::advance_hoisted`]). Each is the expression
/// [`CoreModel::advance_into`] evaluates every sub-step, on the same
/// inputs, so reading it back is bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExecConsts {
    /// The sub-step length in seconds, `dt.as_secs_f64()`.
    dt_s: f64,
    /// Reference instructions per second, `freq_hz · ipc`.
    speed: f64,
    /// The budget of an unstalled sub-step, `speed · dt_s`.
    full_budget: f64,
    /// The busy fraction of an unstalled sub-step that spends the whole
    /// budget without finishing its job.
    full_busy: f64,
}

impl ExecConsts {
    /// The constants for a core of relative `ipc` at `freq_hz` over
    /// sub-steps of length `dt`.
    pub(crate) fn new(freq_hz: u64, ipc: f64, dt: SimDuration) -> Self {
        let dt_s = dt.as_secs_f64();
        let speed = freq_hz as f64 * ipc;
        let full_budget = speed * dt_s;
        // The execution loop's partial-job branch, from `busy_s = 0.0`.
        let mut busy_s = 0.0;
        busy_s += full_budget / speed;
        ExecConsts {
            dt_s,
            speed,
            full_budget,
            full_busy: busy_fraction(busy_s, dt_s),
        }
    }
}

/// The busy fraction of a sub-step of `dt_s` seconds that executed for
/// `busy_s` seconds.
fn busy_fraction(busy_s: f64, dt_s: f64) -> f64 {
    (busy_s / dt_s).clamp(0.0, 1.0)
}

impl CoreModel {
    /// Creates a core with the given relative IPC.
    ///
    /// # Panics
    ///
    /// Panics if `ipc` is not strictly positive and finite.
    pub fn new(ipc: f64) -> Self {
        assert!(
            ipc.is_finite() && ipc > 0.0,
            "IPC must be positive, got {ipc}"
        );
        CoreModel {
            ipc,
            queue: VecDeque::new(),
            retired: 0.0,
            idle_for: SimDuration::ZERO,
            wake_stall: SimDuration::ZERO,
        }
    }

    /// Continuous idle residency so far (cpuidle input).
    pub fn idle_for(&self) -> SimDuration {
        self.idle_for
    }

    /// Charges a wake-up stall to the next sub-step and ends the idle
    /// residency (the core is waking).
    pub fn wake(&mut self, stall: SimDuration) {
        self.wake_stall = self.wake_stall.max(stall);
        self.idle_for = SimDuration::ZERO;
    }

    /// The core's relative IPC.
    pub fn ipc(&self) -> f64 {
        self.ipc
    }

    /// Number of queued (incl. partially executed) jobs.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Remaining work in reference instructions across the queue.
    pub fn backlog(&self) -> f64 {
        self.queue.iter().map(|q| q.remaining).sum()
    }

    /// Estimated seconds to drain the backlog at frequency `freq_hz`.
    pub fn drain_time_s(&self, freq_hz: u64) -> f64 {
        self.backlog() / (freq_hz as f64 * self.ipc)
    }

    /// Total reference instructions retired so far.
    pub fn retired(&self) -> f64 {
        self.retired
    }

    /// Enqueues a job.
    pub fn enqueue(&mut self, job: Job) {
        self.queue.push_back(QueuedJob {
            job,
            remaining: job.work as f64,
        });
    }

    /// Executes for one sub-step starting at `start`, lasting `dt`, at
    /// `freq_hz`. Returns the busy fraction and completions.
    ///
    /// A `stall` prefix (e.g. a DVFS transition) consumes time at the start
    /// of the sub-step during which nothing retires; it does not count as
    /// busy time.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero or `stall > dt`.
    pub fn advance(
        &mut self,
        start: SimTime,
        dt: SimDuration,
        freq_hz: u64,
        stall: SimDuration,
    ) -> CoreReport {
        let mut completed = Vec::new();
        let busy = self.advance_into(start, dt, freq_hz, stall, &mut completed);
        CoreReport { busy, completed }
    }

    /// [`CoreModel::advance`] without the per-call report allocation:
    /// completions are appended to `completed` and the busy fraction is
    /// returned. The hot sub-step loop drains every core straight into
    /// the cluster's pooled epoch buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero or `stall > dt`.
    pub fn advance_into(
        &mut self,
        start: SimTime,
        dt: SimDuration,
        freq_hz: u64,
        stall: SimDuration,
        completed: &mut Vec<CompletedJob>,
    ) -> f64 {
        assert!(!dt.is_zero(), "sub-step must have positive duration");
        assert!(stall <= dt, "stall {stall} exceeds sub-step {dt}");
        let stall = (stall + std::mem::take(&mut self.wake_stall)).min(dt);

        let exec_window = dt - stall;
        let speed = freq_hz as f64 * self.ipc; // ref-instructions per second
        let budget = speed * exec_window.as_secs_f64();
        self.retire(
            start + stall,
            budget,
            speed,
            dt,
            dt.as_secs_f64(),
            completed,
        )
    }

    /// [`CoreModel::advance_into`] with the per-sub-step constants hoisted
    /// into `k` (built for this core's IPC, the current OPP and `dt`).
    ///
    /// An unstalled core whose front job outlasts the whole window spends
    /// `k.full_budget` on it and is busy `k.full_busy`: the branch the
    /// execution loop takes on such a sub-step, with every value computed
    /// once per span instead of once per sub-step. Any other sub-step — a
    /// stall, a completion, an empty queue — runs the loop itself.
    /// Bit-identical to [`CoreModel::advance_into`] at `k`'s frequency.
    pub(crate) fn advance_hoisted(
        &mut self,
        start: SimTime,
        dt: SimDuration,
        k: &ExecConsts,
        stall: SimDuration,
        completed: &mut Vec<CompletedJob>,
    ) -> f64 {
        let stall = (stall + std::mem::take(&mut self.wake_stall)).min(dt);
        if !stall.is_zero() {
            let budget = k.speed * (dt - stall).as_secs_f64();
            return self.retire(start + stall, budget, k.speed, dt, k.dt_s, completed);
        }
        match self.queue.front_mut() {
            Some(front) if front.remaining > k.full_budget => {
                front.remaining -= k.full_budget;
                self.retired += k.full_budget;
                self.note_busy(k.full_busy, dt);
                k.full_busy
            }
            _ => self.retire(start, k.full_budget, k.speed, dt, k.dt_s, completed),
        }
    }

    /// The execution loop shared by [`CoreModel::advance_into`] and
    /// [`CoreModel::advance_hoisted`]: spends `budget` reference
    /// instructions from the queue starting at `exec_start`, at `speed`
    /// instructions per second, and returns the busy fraction of the
    /// `dt`-long (`dt_s` seconds) sub-step.
    fn retire(
        &mut self,
        exec_start: SimTime,
        mut budget: f64,
        speed: f64,
        dt: SimDuration,
        dt_s: f64,
        completed: &mut Vec<CompletedJob>,
    ) -> f64 {
        let mut busy_s = 0.0;
        while budget > 0.0 {
            let Some(front) = self.queue.front_mut() else {
                break;
            };
            if front.remaining <= budget {
                // Job finishes inside this sub-step; interpolate the instant.
                let spent = front.remaining;
                budget -= spent;
                self.retired += spent;
                busy_s += spent / speed;
                let completed_at = exec_start + SimDuration::from_secs_f64(busy_s);
                let job = front.job;
                self.queue.pop_front();
                completed.push(CompletedJob {
                    id: job.id,
                    deadline: job.deadline,
                    completed_at,
                    class: job.class,
                    work: job.work,
                });
            } else {
                front.remaining -= budget;
                self.retired += budget;
                busy_s += budget / speed;
                budget = 0.0;
            }
        }

        let busy = busy_fraction(busy_s, dt_s);
        self.note_busy(busy, dt);
        busy
    }

    /// Runs the core ahead through the sub-steps whose busy fractions
    /// `busy` takes, one per sub-step from the next, for as long as each
    /// is idle or takes the full-budget branch of
    /// [`CoreModel::advance_hoisted`] unstalled at `k`, and returns how
    /// many it ran: the core's next event sub-step (a stall, a completion)
    /// is the one after them. An idle core (nothing queued, no wake-up
    /// stall) stays idle without a dispatch, so it runs every sub-step,
    /// busy `+0.0`, its residency in one integer add. A busy one replays
    /// each sub-step's compare, subtract and add on its front job and
    /// retired count — one at a time, so the bits are the ones the
    /// stepped loop leaves — and records `k.full_busy`.
    pub(crate) fn run_ahead(&mut self, k: &ExecConsts, dt: SimDuration, busy: &mut [f64]) -> u64 {
        let mut n = 0;
        if self.is_quiescent() {
            busy.fill(0.0);
            n = busy.len() as u64;
            self.idle_for += dt * n;
            return n;
        }
        if !self.wake_stall.is_zero() {
            return 0;
        }
        let Some(front) = self.queue.front_mut() else {
            return 0;
        };
        for b in busy {
            if front.remaining > k.full_budget {
                front.remaining -= k.full_budget;
                self.retired += k.full_budget;
                *b = k.full_busy;
                n += 1;
            } else {
                break;
            }
        }
        if n > 0 {
            self.note_busy(k.full_busy, dt * n);
        }
        n
    }

    /// Advances the cpuidle residency past a sub-step with busy fraction
    /// `busy`: any work ends the idle stretch.
    fn note_busy(&mut self, busy: f64, dt: SimDuration) {
        if busy == 0.0 {
            self.idle_for += dt;
        } else {
            self.idle_for = SimDuration::ZERO;
        }
    }

    /// Whether the core would be a no-op this sub-step: nothing queued and
    /// no pending wake-up stall. The idle fast-forward gates on this.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty() && self.wake_stall.is_zero()
    }

    /// Advances a quiescent core by `dt` without running the execution
    /// loop. Bit-identical to [`CoreModel::advance`] for an empty queue:
    /// the busy fraction is exactly `0.0`, so the only state change is the
    /// idle-residency bump.
    pub(crate) fn note_idle(&mut self, dt: SimDuration) {
        debug_assert!(self.is_quiescent(), "fast idle path on a busy core");
        self.idle_for += dt;
    }

    /// Drops all queued work (used when resetting between episodes).
    pub fn clear(&mut self) {
        self.queue.clear();
        self.idle_for = SimDuration::ZERO;
        self.wake_stall = SimDuration::ZERO;
    }

    /// Migrates every queued job — with its partially-executed remaining
    /// work — to `target`, preserving FIFO order. Used when a core goes
    /// offline so hotplug conserves work exactly.
    pub(crate) fn drain_queue_into(&mut self, target: &mut CoreModel) {
        while let Some(entry) = self.queue.pop_front() {
            target.queue.push_back(entry);
        }
    }

    /// Parks the core for hotplug: its queue must already be drained; any
    /// pending wake-up stall is cancelled (the wake never happens — the
    /// core is power-gated instead), leaving the core quiescent.
    pub(crate) fn park(&mut self) {
        debug_assert!(self.queue.is_empty(), "park with queued work");
        self.wake_stall = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobClass;
    use proptest::prelude::*;

    fn job(id: u64, work: u64) -> Job {
        Job::new(id, work, SimTime::from_millis(100), JobClass::Normal)
    }

    #[test]
    fn idle_core_reports_zero_busy() {
        let mut core = CoreModel::new(1.0);
        let r = core.advance(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            1_000_000_000,
            SimDuration::ZERO,
        );
        assert_eq!(r.busy, 0.0);
        assert!(r.completed.is_empty());
    }

    #[test]
    fn saturated_core_reports_full_busy() {
        let mut core = CoreModel::new(1.0);
        core.enqueue(job(1, u64::MAX / 2));
        let r = core.advance(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            1_000_000_000,
            SimDuration::ZERO,
        );
        assert!((r.busy - 1.0).abs() < 1e-9);
        assert!(r.completed.is_empty());
    }

    #[test]
    fn short_job_completes_with_interpolated_timestamp() {
        let mut core = CoreModel::new(1.0);
        // 500k instructions at 1 GHz = 0.5 ms.
        core.enqueue(job(1, 500_000));
        let r = core.advance(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            1_000_000_000,
            SimDuration::ZERO,
        );
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0].completed_at, SimTime::from_micros(500));
        assert!((r.busy - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multiple_jobs_complete_in_fifo_order() {
        let mut core = CoreModel::new(1.0);
        core.enqueue(job(1, 200_000));
        core.enqueue(job(2, 300_000));
        let r = core.advance(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            1_000_000_000,
            SimDuration::ZERO,
        );
        assert_eq!(r.completed.len(), 2);
        assert_eq!(r.completed[0].id.0, 1);
        assert_eq!(r.completed[1].id.0, 2);
        assert_eq!(r.completed[0].completed_at, SimTime::from_micros(200));
        assert_eq!(r.completed[1].completed_at, SimTime::from_micros(500));
    }

    #[test]
    fn job_spans_substeps() {
        let mut core = CoreModel::new(1.0);
        core.enqueue(job(1, 1_500_000)); // 1.5 ms at 1 GHz
        let r1 = core.advance(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            1_000_000_000,
            SimDuration::ZERO,
        );
        assert!(r1.completed.is_empty());
        assert_eq!(core.queue_len(), 1);
        let r2 = core.advance(
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
            1_000_000_000,
            SimDuration::ZERO,
        );
        assert_eq!(r2.completed.len(), 1);
        assert_eq!(r2.completed[0].completed_at, SimTime::from_micros(1_500));
    }

    #[test]
    fn ipc_scales_throughput() {
        let mut fast = CoreModel::new(2.0);
        let mut slow = CoreModel::new(0.5);
        fast.enqueue(job(1, 1_000_000));
        slow.enqueue(job(2, 1_000_000));
        let dt = SimDuration::from_millis(1);
        let rf = fast.advance(SimTime::ZERO, dt, 1_000_000_000, SimDuration::ZERO);
        let rs = slow.advance(SimTime::ZERO, dt, 1_000_000_000, SimDuration::ZERO);
        assert_eq!(
            rf.completed.len(),
            1,
            "2 GIPS core finishes 1M instr in 0.5ms"
        );
        assert!(rs.completed.is_empty(), "0.5 GIPS core needs 2ms");
        assert!((rs.busy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_scales_throughput() {
        let mut core = CoreModel::new(1.0);
        core.enqueue(job(1, 1_000_000));
        // At 500 MHz, 1M instructions take 2 ms.
        let r = core.advance(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            500_000_000,
            SimDuration::ZERO,
        );
        assert!(r.completed.is_empty());
        assert!((core.backlog() - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn stall_delays_execution_and_is_not_busy() {
        let mut core = CoreModel::new(1.0);
        core.enqueue(job(1, 250_000)); // 0.25 ms at 1 GHz
        let stall = SimDuration::from_micros(500);
        let r = core.advance(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            1_000_000_000,
            stall,
        );
        assert_eq!(r.completed.len(), 1);
        // Completion shifted by the stall prefix.
        assert_eq!(r.completed[0].completed_at, SimTime::from_micros(750));
        assert!((r.busy - 0.25).abs() < 1e-9, "stall time is not busy time");
    }

    #[test]
    fn full_stall_executes_nothing() {
        let mut core = CoreModel::new(1.0);
        core.enqueue(job(1, 1));
        let dt = SimDuration::from_millis(1);
        let r = core.advance(SimTime::ZERO, dt, 1_000_000_000, dt);
        assert!(r.completed.is_empty());
        assert_eq!(r.busy, 0.0);
    }

    #[test]
    fn backlog_and_drain_time() {
        let mut core = CoreModel::new(2.0);
        core.enqueue(job(1, 4_000_000));
        assert_eq!(core.backlog(), 4_000_000.0);
        // 4M ref-instr at 1 GHz × IPC 2 = 2 ms.
        assert!((core.drain_time_s(1_000_000_000) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn clear_empties_queue() {
        let mut core = CoreModel::new(1.0);
        core.enqueue(job(1, 100));
        core.clear();
        assert_eq!(core.queue_len(), 0);
        assert_eq!(core.backlog(), 0.0);
    }

    #[test]
    #[should_panic(expected = "IPC must be positive")]
    fn rejects_zero_ipc() {
        CoreModel::new(0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds sub-step")]
    fn rejects_stall_longer_than_substep() {
        let mut core = CoreModel::new(1.0);
        core.advance(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            1_000_000_000,
            SimDuration::from_millis(2),
        );
    }

    proptest! {
        /// Work is conserved: enqueued work = retired + backlog.
        #[test]
        fn prop_work_conservation(
            works in proptest::collection::vec(1u64..10_000_000, 1..20),
            freq_mhz in 100u64..2_000,
            steps in 1usize..50,
        ) {
            let mut core = CoreModel::new(1.5);
            let total: f64 = works.iter().map(|&w| w as f64).sum();
            for (i, &w) in works.iter().enumerate() {
                core.enqueue(job(i as u64, w));
            }
            let mut t = SimTime::ZERO;
            let dt = SimDuration::from_millis(1);
            for _ in 0..steps {
                core.advance(t, dt, freq_mhz * 1_000_000, SimDuration::ZERO);
                t += dt;
            }
            prop_assert!((core.retired() + core.backlog() - total).abs() < total.max(1.0) * 1e-9);
        }

        /// Completion timestamps are monotone and inside the executing
        /// window.
        #[test]
        fn prop_completions_monotone_and_in_window(
            works in proptest::collection::vec(1u64..2_000_000, 1..16),
        ) {
            let mut core = CoreModel::new(1.0);
            for (i, &w) in works.iter().enumerate() {
                core.enqueue(job(i as u64, w));
            }
            let mut t = SimTime::ZERO;
            let dt = SimDuration::from_millis(1);
            let mut last = SimTime::ZERO;
            for _ in 0..200 {
                let r = core.advance(t, dt, 1_000_000_000, SimDuration::ZERO);
                for c in &r.completed {
                    prop_assert!(c.completed_at >= t);
                    prop_assert!(c.completed_at <= t + dt);
                    prop_assert!(c.completed_at >= last);
                    last = c.completed_at;
                }
                t += dt;
                if core.queue_len() == 0 {
                    break;
                }
            }
            prop_assert_eq!(core.queue_len(), 0, "all jobs must eventually finish");
        }

        /// Busy fraction equals work retired / capacity for a saturated core.
        #[test]
        fn prop_busy_fraction_matches_retirement(freq_mhz in 100u64..3_000, ipc in 0.5f64..3.0) {
            let mut core = CoreModel::new(ipc);
            core.enqueue(job(0, u64::MAX / 4));
            let dt = SimDuration::from_millis(5);
            let before = core.retired();
            let r = core.advance(SimTime::ZERO, dt, freq_mhz * 1_000_000, SimDuration::ZERO);
            let speed = freq_mhz as f64 * 1e6 * ipc;
            let expected_busy = (core.retired() - before) / (speed * dt.as_secs_f64());
            prop_assert!((r.busy - expected_busy).abs() < 1e-9);
        }
    }
}
