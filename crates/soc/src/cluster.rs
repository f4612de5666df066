//! A DVFS cluster: a group of identical cores sharing one frequency /
//! voltage domain, a power model and a thermal node.
//!
//! Each sub-step update is written once. [`StepState::close`] ends a
//! sub-step — energy, thermal step, throttle clamp and its transition
//! charge — and `cpuidle_scales` is the per-core cpuidle term; the stepped
//! reference [`Cluster::advance_substep`] and the busy kernel both call
//! them.
//!
//! A run of sub-steps on a cluster without cpuidle states is *steady*
//! when nothing but its power and thermal chain moves: every online core
//! idle, or busy on a front job that outlasts the run at a level the clamp
//! cannot lower. Steady runs go through the batched steady kernel
//! ([`advance_steady_batch`]), one lane per cluster, each online core
//! adding one constant clock term to the leakage. A lone cluster's
//! mid-epoch idle run goes one lane wide; an epoch's tail (from its last
//! dispatch and last completion to its end) goes in one call with the
//! SoC's other tails, and in a batch with every live lane's tails. Each
//! of those calls loads its domains into lanes and stores them back; a
//! batch's parked clusters stay in lanes across epochs
//! ([`ParkedLanes`]). The kernel and [`crate::ThermalModel::step`] share
//! the thermal relax and hysteresis.

use std::ops::Range;

use simkit::{SimDuration, SimTime};

use crate::core_model::ExecConsts;
use crate::thermal::{hysteresis, relax};
use crate::{
    ClusterConfig, CompletedJob, CoreModel, IdleDepth, IdleStates, Job, OppLevel, PowerModel,
    SocError, ThermalModel,
};

/// Online cores a steady run can keep busy: the steady kernel carries a
/// clock term of its own for each of a lane's first eight cores, and
/// every later one is idle.
const STEADY_BUSY_CORES: usize = 8;

/// Per-epoch aggregate report for one cluster.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterReport {
    /// Mean busy fraction across cores and sub-steps.
    pub util_avg: f64,
    /// Busy fraction of the busiest core, averaged over sub-steps (what
    /// Linux cpufreq governors act on).
    pub util_max: f64,
    /// Energy consumed this epoch (J), including uncore and transitions.
    pub energy_j: f64,
    /// Junction temperature at the end of the epoch (°C).
    pub temp_c: f64,
    /// OPP level in effect at the end of the epoch.
    pub level: OppLevel,
    /// Number of DVFS transitions performed this epoch.
    pub transitions: u32,
    /// Jobs completed this epoch.
    pub completed: Vec<CompletedJob>,
    /// Queued jobs remaining at the end of the epoch.
    pub queued: usize,
    /// Core-seconds spent clock-gated this epoch (zero without cpuidle).
    pub idle_gated_s: f64,
    /// Core-seconds spent power-collapsed this epoch.
    pub idle_collapsed_s: f64,
}

/// Observation of one cluster handed to governors at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterObservation {
    /// Mean busy fraction across cores and sub-steps.
    pub util_avg: f64,
    /// Busiest-core busy fraction.
    pub util_max: f64,
    /// Current OPP level.
    pub level: OppLevel,
    /// Number of levels in the table.
    pub num_levels: usize,
    /// Current frequency (Hz).
    pub freq_hz: u64,
    /// Minimum and maximum frequency of the table (Hz).
    pub freq_range_hz: (u64, u64),
    /// Junction temperature (°C).
    pub temp_c: f64,
    /// Whether the thermal clamp is engaged.
    pub throttled: bool,
    /// Jobs queued (including in-flight) on the cluster.
    pub queued: usize,
}

/// A group of cores sharing a DVFS domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    config: ClusterConfig,
    cores: Vec<CoreModel>,
    /// Number of online cores: cores `[0, online)` execute and draw
    /// power; the tail `[online, len)` is hotplugged out (fully
    /// power-collapsed, zero dynamic and leakage power, queues drained).
    online: usize,
    /// Level, pending stall, thermal node and epoch sums.
    st: StepState,
    /// Jobs completed this epoch: the pooled buffer
    /// [`Cluster::end_epoch_into`] swaps into the report.
    completed: Vec<CompletedJob>,
    /// Per-OPP power constants hoisted out of the sub-step loop, indexed
    /// by level. Pure function of `config`; built once in
    /// [`Cluster::new`].
    power_lut: Vec<OppPowerLut>,
}

/// Power-model constants for one OPP, precomputed with exactly the
/// expressions [`PowerModel`] uses so reading them back is bit-identical
/// to evaluating per sub-step.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OppPowerLut {
    /// Frequency of the OPP (Hz).
    freq_hz: u64,
    /// `PowerModel::dynamic_w(opp)`.
    dyn_w: f64,
    /// `dyn_w · idle_frac` — the idle clock-tree coefficient.
    idle_coeff: f64,
    /// `PowerModel::uncore_w(opp)`.
    uncore_w: f64,
    /// `leak_w_per_v · V`, the voltage half of the leakage expression.
    leak_base: f64,
}

/// Sums over the epoch in progress.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct EpochAcc {
    substeps: u32,
    util_avg_sum: f64,
    util_max_sum: f64,
    energy_j: f64,
    transitions: u32,
    idle_gated_s: f64,
    idle_collapsed_s: f64,
}

impl EpochAcc {
    /// The epoch-close fold: writes the report of the epoch these sums
    /// cover, at the closing `temp_c`, `level` and `queued`, and resets
    /// the sums for the next. A live cluster closes through
    /// [`Cluster::end_epoch_into`], a parked one through
    /// [`ParkedLanes::close_epoch`].
    fn close_into(
        &mut self,
        temp_c: f64,
        level: OppLevel,
        queued: usize,
        report: &mut ClusterReport,
    ) {
        let n = self.substeps.max(1) as f64;
        report.util_avg = self.util_avg_sum / n;
        report.util_max = self.util_max_sum / n;
        report.energy_j = self.energy_j;
        report.temp_c = temp_c;
        report.level = level;
        report.transitions = self.transitions;
        report.queued = queued;
        report.idle_gated_s = self.idle_gated_s;
        report.idle_collapsed_s = self.idle_collapsed_s;
        *self = EpochAcc::default();
    }
}

/// Everything a sub-step updates in a cluster outside its cores, in one
/// `Copy` value: the busy kernel holds it in a local for a whole span and
/// writes it back once.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepState {
    level: OppLevel,
    /// Stall applied to the next sub-step because of an in-flight
    /// transition.
    pending_stall: SimDuration,
    /// The live thermal node; `config.thermal` keeps the node as the
    /// cluster was built.
    thermal: ThermalModel,
    acc: EpochAcc,
}

impl StepState {
    /// Moves to `level` with one DVFS transition charge: the stall on the
    /// next sub-step, the transition energy and the count. A level
    /// request and the thermal clamp both charge here.
    #[inline(always)]
    fn transition(&mut self, level: OppLevel, config: &ClusterConfig) {
        self.level = level;
        self.pending_stall = config.transition_latency;
        self.acc.energy_j += config.power.transition_energy_j;
        self.acc.transitions += 1;
    }

    /// Closes a sub-step of length `dt` (`dt_s` seconds) that drew
    /// `power_w`: integrates it into the epoch energy, steps the thermal
    /// node, and re-applies the throttle clamp in case the trip point was
    /// crossed, lowering a now-forbidden level with one
    /// [`StepState::transition`]. Returns whether the clamp fired.
    #[inline(always)]
    fn close(&mut self, config: &ClusterConfig, power_w: f64, dt: SimDuration, dt_s: f64) -> bool {
        self.acc.energy_j += power_w * dt_s;
        self.thermal.step(power_w, dt);
        let clamp = self.thermal.clamp_max_level(config.opps.max_level());
        let fire = self.level > clamp;
        if fire {
            self.transition(clamp, config);
        }
        fire
    }
}

/// The per-core cpuidle term of one online core for a sub-step of
/// `dt_s` seconds: the depth its idle residency at the sub-step's start
/// puts it in (waking resets the residency via `enqueue_on`), that
/// depth's power scales `(idle dynamic, leakage)`, and the sub-step
/// credited to the depth's residency in `acc`. Without a cpuidle table
/// every core is active: scales `(1.0, 1.0)`, no residency.
#[inline(always)]
fn cpuidle_scales(
    idle: Option<&IdleStates>,
    idle_for: SimDuration,
    dt_s: f64,
    acc: &mut EpochAcc,
) -> (f64, f64) {
    let Some(idle) = idle else {
        return (1.0, 1.0);
    };
    let depth = idle.depth(idle_for);
    match depth {
        IdleDepth::ClockGated => acc.idle_gated_s += dt_s,
        IdleDepth::Collapsed => acc.idle_collapsed_s += dt_s,
        IdleDepth::Active => {}
    }
    idle.power_scales(depth)
}

impl Cluster {
    /// Builds a cluster from its configuration, starting at the lowest OPP
    /// with all cores idle.
    pub fn new(config: ClusterConfig) -> Self {
        let cores = (0..config.cores)
            .map(|_| CoreModel::new(config.ipc))
            .collect();
        let power_lut = (0..=config.opps.max_level())
            .map(|level| {
                let opp = config.opps.opp(level);
                OppPowerLut {
                    freq_hz: opp.freq_hz,
                    dyn_w: config.power.dynamic_w(opp),
                    idle_coeff: config.power.dynamic_w(opp) * config.power.idle_frac,
                    uncore_w: config.power.uncore_w(opp),
                    leak_base: config.power.leak_w_per_v * opp.voltage_v,
                }
            })
            .collect();
        let online = config.cores;
        let st = StepState {
            level: 0,
            pending_stall: SimDuration::ZERO,
            thermal: config.thermal,
            acc: EpochAcc::default(),
        };
        Cluster {
            config,
            cores,
            online,
            st,
            completed: Vec::new(),
            power_lut,
        }
    }

    /// The precomputed power constants of `level`.
    fn lut(&self, level: OppLevel) -> OppPowerLut {
        // xtask-allow: no-panic-lib -- levels come range-checked from `set_level` or are clamp targets `<= max_level`
        self.power_lut[level]
    }

    /// The cluster's configuration, as built: its thermal node is the
    /// initial one, the live node is read through [`Cluster::temp_c`] and
    /// [`Cluster::is_throttled`].
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current OPP level.
    pub fn level(&self) -> OppLevel {
        self.st.level
    }

    /// Current frequency in Hz.
    pub fn freq_hz(&self) -> u64 {
        self.config.opps.opp(self.st.level).freq_hz
    }

    /// Current junction temperature.
    pub fn temp_c(&self) -> f64 {
        self.st.thermal.temp_c()
    }

    /// Whether the thermal clamp is engaged.
    pub fn is_throttled(&self) -> bool {
        self.st.thermal.is_throttled()
    }

    /// Number of cores (physically present, online or not).
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of cores currently online.
    pub fn num_online(&self) -> usize {
        self.online
    }

    /// Hotplugs the cluster to exactly `n` online cores. Queued work on a
    /// core going offline migrates (with its partially-executed remaining
    /// work) to the least-loaded surviving core, so hotplug conserves
    /// work; offline cores are fully power-collapsed (zero dynamic and
    /// leakage power) and their pending wake-up stalls are cancelled.
    /// Returns the previous online count.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidHotplug`] when `n` is zero or exceeds
    /// the physical core count — at least one core must stay online.
    pub fn set_online(&mut self, n: usize, cluster_id: usize) -> Result<usize, SocError> {
        if n == 0 || n > self.cores.len() {
            return Err(SocError::InvalidHotplug {
                cluster: cluster_id,
                requested: n,
                cores: self.cores.len(),
            });
        }
        if n < self.online {
            let (survivors, parked) = self.cores.split_at_mut(n);
            for core in parked.iter_mut() {
                if core.queue_len() > 0 {
                    // Re-pick the target per core: an earlier migration
                    // may have changed who is least loaded.
                    if let Some(target) = survivors
                        .iter_mut()
                        .min_by(|a, b| a.backlog().total_cmp(&b.backlog()))
                    {
                        core.drain_queue_into(target);
                    }
                }
                core.park();
            }
        }
        let prev = self.online;
        self.online = n;
        Ok(prev)
    }

    /// Total queued jobs across cores.
    pub fn queued_jobs(&self) -> usize {
        self.cores.iter().map(CoreModel::queue_len).sum()
    }

    /// Total backlog in reference instructions.
    pub fn backlog(&self) -> f64 {
        self.cores.iter().map(CoreModel::backlog).sum()
    }

    /// Effective capacity at the current OPP (reference instructions per
    /// second across the online cores).
    pub fn capacity_ips(&self) -> f64 {
        self.online as f64 * self.config.ipc * self.freq_hz() as f64
    }

    /// Index of the online core with the smallest backlog.
    pub fn least_loaded_core(&self) -> usize {
        self.cores
            .iter()
            .take(self.online)
            .enumerate()
            .min_by(|(_, a), (_, b)| a.backlog().total_cmp(&b.backlog()))
            .map_or(0, |(i, _)| i)
    }

    /// Enqueues a job on a specific core, charging the cpuidle wake-up
    /// stall if the core was in a deep idle state. An out-of-range or
    /// offline `core` falls back to the least-loaded online core rather
    /// than panicking.
    pub fn enqueue_on(&mut self, core: usize, job: Job) {
        let core = if core < self.online {
            core
        } else {
            self.least_loaded_core()
        };
        if let Some(idle) = &self.config.idle {
            let depth = idle.depth(
                self.cores
                    .get(core)
                    .map_or(SimDuration::ZERO, CoreModel::idle_for),
            );
            if depth != IdleDepth::Active {
                if let Some(c) = self.cores.get_mut(core) {
                    c.wake(idle.wake_latency(depth));
                }
            }
        }
        if let Some(c) = self.cores.get_mut(core) {
            c.enqueue(job);
        }
    }

    /// Requests a new OPP level, applying the thermal clamp. Returns the
    /// level actually set. A change incurs the configured transition
    /// stall and energy at the next sub-step.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::LevelOutOfRange`] if `level` is beyond the
    /// table (clamping to the thermal limit is silent, but a level the
    /// table never had is a caller bug worth surfacing).
    pub fn set_level(&mut self, level: OppLevel, cluster_id: usize) -> Result<OppLevel, SocError> {
        let max_level = self.config.opps.max_level();
        if level > max_level {
            return Err(SocError::LevelOutOfRange {
                cluster: cluster_id,
                requested: level,
                available: self.config.opps.len(),
            });
        }
        let clamped = level.min(self.st.thermal.clamp_max_level(max_level));
        if clamped != self.st.level {
            self.st.transition(clamped, &self.config);
        }
        Ok(self.st.level)
    }

    /// Advances all cores by one sub-step and integrates power and
    /// temperature.
    ///
    /// This is the stepped reference: the SoC runs it once per cluster per
    /// sub-step (1 000 times per simulated second with the presets' 1 ms
    /// sub-steps) when its fast paths are off, and the span kernels its
    /// fast paths run are proven against it. It must not
    /// allocate — completions drain into the pooled epoch buffer, busy
    /// fractions fold into scalars, and the per-OPP power constants come
    /// from the lookup table built at construction. Bit-identical to the
    /// pre-optimisation loop (pinned by the golden-output tests).
    pub fn advance_substep(&mut self, start: SimTime, dt: SimDuration) {
        let stall = self.st.pending_stall.min(dt);
        self.st.pending_stall = SimDuration::ZERO;
        let lut = self.lut(self.st.level);
        let dt_s = dt.as_secs_f64();
        // Every core shares (level, temp) this sub-step: evaluate leakage
        // once instead of once per core.
        let leak_w = self
            .config
            .power
            .leakage_w_from_base(lut.leak_base, self.st.thermal.temp_c());

        let mut busy_sum = 0.0;
        let mut busy_max = 0.0;
        let mut power_w = lut.uncore_w;
        // xtask-hotpath: begin
        // Offline cores (the tail past `online`) are power-collapsed:
        // they execute nothing, draw nothing, and only their idle
        // residency advances. With every core online the split yields an
        // empty tail and the loop is the pre-hotplug loop, bit for bit.
        let (online_cores, offline_cores) = self.cores.split_at_mut(self.online);
        let idle_cfg = self.config.idle.as_ref();
        for core in online_cores.iter_mut() {
            let (dyn_scale, leak_scale) =
                cpuidle_scales(idle_cfg, core.idle_for(), dt_s, &mut self.st.acc);
            let busy = core.advance_into(start, dt, lut.freq_hz, stall, &mut self.completed);
            power_w += PowerModel::core_w_from_parts(
                lut.dyn_w,
                lut.idle_coeff,
                leak_w,
                busy,
                dyn_scale,
                leak_scale,
            );
            // Same fold order as summing a per-core buffer afterwards.
            busy_sum += busy;
            busy_max = f64::max(busy_max, busy);
        }
        for core in offline_cores.iter_mut() {
            core.note_idle(dt);
        }
        // xtask-hotpath: end

        self.st.close(&self.config, power_w, dt, dt_s);
        // Average over *online* cores (offline cores are not schedulable,
        // so they would dilute the load signal governors act on).
        let n = self.online as f64;
        self.st.acc.util_avg_sum += busy_sum / n;
        self.st.acc.util_max_sum += busy_max;
        self.st.acc.substeps += 1;
    }

    /// Whether every core is quiescent: nothing queued anywhere and no
    /// pending wake-up stall, so a sub-step would execute no work. The
    /// SoC's idle fast-forward gates on this.
    pub fn is_quiescent(&self) -> bool {
        self.cores.iter().all(CoreModel::is_quiescent)
    }

    /// Advances `steps` sub-steps of length `dt` from `start` through the
    /// fast paths: sub-steps with work through the busy kernel, and the
    /// quiescent rest of a cluster without cpuidle states as one lane of
    /// the steady kernel. A cluster with cpuidle states runs the whole
    /// span in the busy kernel, since its cores' depths and residencies
    /// keep changing while idle.
    ///
    /// Callers guarantee that no job arrives on this cluster before the
    /// last of the `steps` sub-steps ends — the SoC's dispatch horizon.
    /// Under that condition this is **bit-identical** to calling
    /// [`Cluster::advance_substep`] `steps` times: a quiescent cluster
    /// cannot wake without a dispatch, and every value the kernels hoist
    /// is the expression the stepped loop evaluates, on the same inputs
    /// (property tests pin the equivalence). With an empty queue the busy
    /// fraction is exactly `+0.0`, so the idle lane drops the execution
    /// loop and the utilisation folds (`x += 0.0` on non-negative sums is
    /// a bitwise no-op).
    pub(crate) fn advance_span(&mut self, start: SimTime, dt: SimDuration, steps: u64) {
        let busy = self.advance_busy_substeps(start, dt, steps, false);
        let idle = steps - busy;
        if idle > 0 {
            let mut lane = [self.steady_begin(dt, 0, 0)];
            advance_steady_batch(&mut lane, dt, idle);
            let [domain] = &lane;
            self.steady_restore(domain, idle, dt);
        }
    }

    /// The last span of an epoch: `steps` sub-steps from `start`, sub-step
    /// `offset` of the epoch, to its end, under the same dispatch-horizon
    /// guarantee as [`Cluster::advance_span`]. Runs the busy kernel until
    /// the rest of the epoch is steady, then detaches that rest into a
    /// [`SteadyDomain`] on `tails` (as cluster `id` of its SoC), for the
    /// SoC to run with its other tails in one kernel call and write back
    /// through [`Cluster::steady_restore`].
    pub(crate) fn advance_to_epoch_end(
        &mut self,
        start: SimTime,
        dt: SimDuration,
        steps: u64,
        offset: u64,
        id: usize,
        tails: &mut Vec<SteadyDomain>,
    ) {
        let done = self.advance_busy_substeps(start, dt, steps, true);
        if done < steps {
            tails.push(self.tail_begin(dt, offset + done, id));
        }
    }

    /// The busy kernel of [`Cluster::advance_span`] and
    /// [`Cluster::advance_to_epoch_end`]: runs sub-steps from `start` until
    /// `steps` are done or, without a cpuidle table, the rest is for the
    /// steady kernel — from the first sub-step that starts with every
    /// core quiescent or, `until_steady`, with the rest of the span steady
    /// ([`Cluster::steady_for`]) — and returns how many it ran.
    ///
    /// Each sub-step is [`Cluster::advance_substep`] with its invariants
    /// hoisted: the OPP's power constants and the cores'
    /// [`ExecConsts`] are built once per span and refreshed only when the
    /// thermal clamp lowers the level, and the [`StepState`] lives in a
    /// local. Leakage is evaluated straight-line (the temperature moves
    /// every busy sub-step, so the one-entry memo would miss).
    fn advance_busy_substeps(
        &mut self,
        start: SimTime,
        dt: SimDuration,
        steps: u64,
        until_steady: bool,
    ) -> u64 {
        let idle_cfg = self.config.idle.as_ref();
        let mut quiescent = self.is_quiescent();
        if quiescent && idle_cfg.is_none() {
            return 0;
        }
        let mut s = self.st;
        let mut lut = self.lut(s.level);
        // Every core is built with the cluster's IPC (see `Cluster::new`).
        let mut exec = ExecConsts::new(lut.freq_hz, self.config.ipc, dt);
        let clamp_target = self.clamp_target();
        let dt_s = dt.as_secs_f64();
        let n = self.online as f64;
        let mut t = start;
        let mut done = 0;
        // Whether the last sub-step could have made the rest steady.
        let mut changed = true;
        // xtask-hotpath: begin
        while done < steps {
            if idle_cfg.is_none()
                && (quiescent
                    || (until_steady
                        && changed
                        && self.steady_for(&s, &exec, clamp_target, steps - done)))
            {
                break;
            }
            let completed = self.completed.len();
            let stall = s.pending_stall.min(dt);
            s.pending_stall = SimDuration::ZERO;
            let leak_w = self
                .config
                .power
                .leakage_w_from_base(lut.leak_base, s.thermal.temp_c());
            let mut busy_sum = 0.0;
            let mut busy_max = 0.0;
            let mut power_w = lut.uncore_w;
            quiescent = true;
            let (online_cores, offline_cores) = self.cores.split_at_mut(self.online);
            for core in online_cores.iter_mut() {
                let (dyn_scale, leak_scale) =
                    cpuidle_scales(idle_cfg, core.idle_for(), dt_s, &mut s.acc);
                if core.is_quiescent() {
                    // A quiescent core is busy exactly `+0.0`: its power
                    // folds to the idle term (see
                    // `PowerModel::idle_core_w_from_parts`), and folding
                    // `+0.0` into the non-negative utilisation sums is a
                    // bitwise no-op.
                    core.note_idle(dt);
                    power_w += PowerModel::idle_core_w_from_parts(
                        lut.idle_coeff,
                        leak_w,
                        dyn_scale,
                        leak_scale,
                    );
                } else {
                    let busy = core.advance_hoisted(t, dt, &exec, stall, &mut self.completed);
                    power_w += PowerModel::core_w_from_parts(
                        lut.dyn_w,
                        lut.idle_coeff,
                        leak_w,
                        busy,
                        dyn_scale,
                        leak_scale,
                    );
                    busy_sum += busy;
                    busy_max = f64::max(busy_max, busy);
                    quiescent &= core.is_quiescent();
                }
            }
            // Offline cores are parked, hence quiescent: they never hold
            // work, so `quiescent` covers the whole cluster.
            for core in offline_cores.iter_mut() {
                core.note_idle(dt);
            }

            let fired = s.close(&self.config, power_w, dt, dt_s);
            if fired {
                lut = self.lut(s.level);
                exec = ExecConsts::new(lut.freq_hz, self.config.ipc, dt);
            }
            // Only a sub-step that finished a job, spent a stall or
            // clamped can make the rest steady: after any other, each
            // front job is one budget closer to the same completion.
            changed = fired || !stall.is_zero() || self.completed.len() != completed;
            s.acc.util_avg_sum += busy_sum / n;
            s.acc.util_max_sum += busy_max;
            s.acc.substeps += 1;
            t += dt;
            done += 1;
        }
        // xtask-hotpath: end
        self.st = s;
        done
    }

    /// The level the throttle clamp lowers to: a level at or below it
    /// never clamps.
    fn clamp_target(&self) -> OppLevel {
        let max_level = self.config.opps.max_level();
        max_level.saturating_sub(self.st.thermal.throttle_levels)
    }

    /// Whether the `left` sub-steps from here to the end of the span are
    /// steady, each repeating the last but for the power and thermal
    /// chain: every online core idle, or — with no transition stall
    /// pending, at a level the clamp cannot lower, and among the first
    /// [`STEADY_BUSY_CORES`] — busy on a front job that outlasts all
    /// `left` sub-steps ([`CoreModel::outlasts`]). Offline cores are
    /// parked, hence idle.
    fn steady_for(&self, s: &StepState, k: &ExecConsts, clamp_target: OppLevel, left: u64) -> bool {
        let calm = s.pending_stall.is_zero() && s.level <= clamp_target;
        self.cores
            .iter()
            .take(self.online)
            .enumerate()
            .all(|(c, core)| {
                core.is_quiescent() || (calm && c < STEADY_BUSY_CORES && core.outlasts(k, left))
            })
    }

    /// Detaches the state the steady kernel needs into a flat
    /// [`SteadyDomain`] record for an all-idle run from sub-step `start`
    /// of the kernel call's span, as cluster `id` of its SoC: the thermal
    /// node, level and power constants, and the epoch accumulator,
    /// *moved* into the record (a parked lane's domain carries it across
    /// epochs, and the per-epoch synthesis closes it exactly where
    /// `end_epoch_into` would). Callers guarantee the cluster is
    /// quiescent with no cpuidle table ([`Cluster::tail_begin`] adds a
    /// tail's busy cores); [`Cluster::steady_restore`] writes the evolved
    /// state back.
    pub(crate) fn steady_begin(&mut self, dt: SimDuration, start: u64, id: usize) -> SteadyDomain {
        debug_assert!(self.config.idle.is_none(), "steady run with cpuidle");
        // The stepped loop zeroes the stall at the top of every sub-step;
        // an idle run never uses it (`stall = pending_stall.min(dt)` only
        // shrinks an execution window) and a busy run starts without one.
        // Only the thermal clamp re-arms it, so zeroing once up front and
        // re-arming on a final-sub-step clamp (tracked via `stall_armed`)
        // leaves the identical state.
        self.st.pending_stall = SimDuration::ZERO;
        let max_level = self.config.opps.max_level();
        // `level > clamp` fires at most once per run (the clamp never
        // lowers further), so the constants at the clamped level can be
        // staged up front. A busy run sits at or below the target and
        // never fires.
        let clamp_level = self.clamp_target();
        SteadyDomain {
            power: self.config.power,
            decay: self.st.thermal.decay_for(dt),
            thermal: self.st.thermal,
            acc: std::mem::take(&mut self.st.acc),
            stall_armed: false,
            online: self.online as u32,
            level: self.st.level,
            max_level,
            clamp_level,
            lut: self.lut(self.st.level),
            clamp_lut: self.lut(clamp_level),
            start: start as u32,
            cluster: id as u32,
            busy_cores: 0,
            busy_clock_w: 0.0,
            util_avg_step: 0.0,
            util_max_step: 0.0,
        }
    }

    /// [`Cluster::steady_begin`] for a tail (see [`Cluster::steady_for`]):
    /// also records which online cores are busy, with the clock term and
    /// the utilisation increments they add each sub-step.
    fn tail_begin(&mut self, dt: SimDuration, start: u64, id: usize) -> SteadyDomain {
        let mut d = self.steady_begin(dt, start, id);
        let mut full_busy = None;
        let (mut busy_sum, mut busy_max) = (0.0, 0.0);
        // The busy kernel's utilisation folds, in core order.
        for (c, core) in self.cores.iter().take(self.online).enumerate() {
            if !core.is_quiescent() {
                let busy = *full_busy.get_or_insert_with(|| {
                    ExecConsts::new(d.lut.freq_hz, self.config.ipc, dt).full_busy()
                });
                d.busy_cores |= 1 << c;
                busy_sum += busy;
                busy_max = f64::max(busy_max, busy);
            }
        }
        if let Some(busy) = full_busy {
            d.busy_clock_w = PowerModel::core_clock_w(d.lut.dyn_w, d.lut.idle_coeff, busy, 1.0);
            d.util_avg_step = busy_sum / self.online as f64;
            d.util_max_step = busy_max;
        }
        d
    }

    /// Reattaches a domain after the kernel ran it for `ran` sub-steps of
    /// length `dt`: thermal node, level, epoch accumulator, a stall armed
    /// by a final-sub-step clamp, and the cores' deferred updates — each
    /// busy core's `ran` full-budget sub-steps
    /// ([`CoreModel::run_full_substeps`]) and every other core's idle
    /// residency (integer nanoseconds, so one batched add equals the
    /// per-sub-step adds exactly). A parked lane restores at an epoch
    /// boundary, after the last epoch synthesis reset its accumulator.
    pub(crate) fn steady_restore(&mut self, d: &SteadyDomain, ran: u64, dt: SimDuration) {
        self.st.thermal = d.thermal;
        self.st.acc = d.acc;
        self.st.level = d.level;
        if d.stall_armed {
            self.st.pending_stall = self.config.transition_latency;
        }
        let idle_span = dt * ran;
        if d.busy_cores == 0 {
            for core in &mut self.cores {
                core.note_idle(idle_span);
            }
            return;
        }
        // A busy run never clamps, so it ran at the level it started at.
        let exec = ExecConsts::new(d.lut.freq_hz, self.config.ipc, dt);
        for (c, core) in self.cores.iter_mut().enumerate() {
            if c < STEADY_BUSY_CORES && (d.busy_cores >> c) & 1 != 0 {
                core.run_full_substeps(&exec, ran, dt);
            } else {
                core.note_idle(idle_span);
            }
        }
    }

    /// Stages the table constants needed to synthesise
    /// [`ClusterObservation`]s for a parked cluster without touching it:
    /// everything [`Cluster::observe`] reads that its parked slot does not
    /// carry.
    pub(crate) fn parked_obs_consts(&self) -> ParkedObsConsts {
        ParkedObsConsts {
            num_levels: self.config.opps.len(),
            freq_range_hz: (
                self.config.opps.min_freq_hz(),
                self.config.opps.max_freq_hz(),
            ),
            freq_hz: self.freq_hz(),
            clamp_freq_hz: self.lut(self.clamp_target()).freq_hz,
        }
    }

    /// Closes the epoch: returns the aggregate report and clears the
    /// accumulators.
    pub fn end_epoch(&mut self) -> ClusterReport {
        let mut report = ClusterReport::default();
        self.end_epoch_into(&mut report);
        report
    }

    /// [`Cluster::end_epoch`] into a caller-owned report. The
    /// completed-jobs buffer is swapped rather than reallocated, so in a
    /// steady-state epoch loop its capacity shuttles between the
    /// accumulator and the report and the epoch boundary allocates
    /// nothing.
    pub fn end_epoch_into(&mut self, report: &mut ClusterReport) {
        let queued = self.queued_jobs();
        let temp_c = self.st.thermal.temp_c();
        self.st
            .acc
            .close_into(temp_c, self.st.level, queued, report);
        report.completed.clear();
        std::mem::swap(&mut report.completed, &mut self.completed);
    }

    /// A snapshot observation for governors.
    pub fn observe(&self, util_avg: f64, util_max: f64) -> ClusterObservation {
        ClusterObservation {
            util_avg,
            util_max,
            level: self.st.level,
            num_levels: self.config.opps.len(),
            freq_hz: self.freq_hz(),
            freq_range_hz: (
                self.config.opps.min_freq_hz(),
                self.config.opps.max_freq_hz(),
            ),
            temp_c: self.temp_c(),
            throttled: self.is_throttled(),
            queued: self.queued_jobs(),
        }
    }

    /// Clears queues, resets thermal state, brings every core back
    /// online and returns to level 0.
    pub fn reset(&mut self) {
        for core in &mut self.cores {
            core.clear();
        }
        self.st.thermal.reset();
        self.online = self.cores.len();
        self.st.level = 0;
        self.st.pending_stall = SimDuration::ZERO;
        self.st.acc = EpochAcc::default();
        self.completed.clear();
    }
}

/// One cluster's state for a steady run of the batched steady kernel: its
/// thermal node, level and epoch sums, the constants its sub-steps read,
/// and which cores are busy, detached from the `Cluster` so many domains
/// can advance in one interleaved loop. Produced by
/// [`Cluster::steady_begin`], advanced by [`advance_steady_batch`] (or
/// [`advance_steady_tails`]), written back by [`Cluster::steady_restore`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SteadyDomain {
    /// The cluster's power model: the kernel routes leakage through
    /// [`PowerModel::leakage_w_from_parts`] so the expression cannot drift
    /// from the scalar path, and charges its transition energy.
    power: PowerModel,
    /// The thermal node. The kernel carries its temperature (the serial
    /// dependency chain) and throttle flag in lanes and writes them back.
    thermal: ThermalModel,
    /// `exp(−dt/τ)` of the node for the kernel's sub-step.
    decay: f64,
    /// The cluster's epoch accumulator: the kernel adds the run's energy,
    /// utilisation, sub-steps and the clamp's transitions.
    acc: EpochAcc,
    /// Whether a final-sub-step clamp left the transition stall armed.
    stall_armed: bool,
    /// Online cores: each adds its clock term and the leakage, in order.
    online: u32,
    level: OppLevel,
    max_level: OppLevel,
    /// The staged clamp target (see `steady_begin`).
    clamp_level: OppLevel,
    /// Power constants of `level` and of `clamp_level`.
    lut: OppPowerLut,
    clamp_lut: OppPowerLut,
    /// The sub-step of the kernel call's span the run starts at: 0 for a
    /// parked epoch or a mid-epoch idle run, the tail's offset in the
    /// epoch for a tail. Every run ends with the span.
    start: u32,
    /// The cluster's index in its SoC, for a tail's way back.
    cluster: u32,
    /// Bit `c` set: online core `c` is busy the whole run, by the
    /// full-budget fraction. Zero for an all-idle run.
    busy_cores: u8,
    /// A busy core's clock term, `core_clock_w` at that fraction.
    busy_clock_w: f64,
    /// What each sub-step adds to the utilisation sums: the busy cores'
    /// fractions summed in core order over the online count, and their
    /// maximum (`+0.0` for an all-idle run).
    util_avg_step: f64,
    util_max_step: f64,
}

impl SteadyDomain {
    /// The index of the domain's cluster in its SoC.
    pub(crate) fn cluster(&self) -> usize {
        self.cluster as usize
    }

    /// The sub-steps the domain runs in a kernel call over a span of
    /// `steps`.
    pub(crate) fn run_len(&self, steps: u64) -> u64 {
        steps - u64::from(self.start)
    }
}

/// Everything [`Cluster::observe`] reads that a parked slot of
/// [`ParkedLanes`] does not carry, staged once when a lane parks. See
/// [`Cluster::parked_obs_consts`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParkedObsConsts {
    num_levels: usize,
    freq_range_hz: (u64, u64),
    /// The frequencies of the level the cluster parked at and of its
    /// clamp target: while parked, only the clamp moves the level, and
    /// only to that target.
    freq_hz: u64,
    clamp_freq_hz: u64,
}

/// Advances every domain through a span of `steps` sub-steps of length
/// `dt`, each from its own start to the span's end, in lockstep. Each
/// domain opens with its stall flag clear: the previous epoch's flag has
/// been consumed by the unpark restore, or is discarded exactly as the
/// stepped loop zeroes the stall at the top of every sub-step. Per domain
/// this is **bit-identical** to stepped execution: each domain evaluates
/// the same straight-line sequence as the busy kernel's core loop and
/// [`StepState::close`] — leakage from the hoisted base, each online
/// core's clock term plus the leakage added in core order, energy, the
/// thermal relax and hysteresis [`crate::ThermalModel::step`] runs, the
/// clamp, and the constant utilisation increments — only the schedule
/// across (independent) domains changes.
///
/// The schedule is blocked: [`STEADY_BLOCK`] domains at a time are
/// loaded into structure-of-arrays lanes ([`SteadyLanes`]), stepped from
/// the block's earliest start through the span while the lanes sit in
/// L1, and stored back; a lane waits, unchanged, until its own start. One
/// or two domains (a lone SoC's runs) go one or two lanes wide instead of
/// padded. A batch's parked clusters skip the load and store: they stay
/// in lanes across epochs ([`ParkedLanes`]). The sub-step loops are
/// fixed-width and branch-free — every conditional update is a lane-wise
/// select that reproduces the branch outcome value exactly — so they
/// vectorise, and the serial per-domain thermal recurrence amortises its
/// latency across the block.
pub(crate) fn advance_steady_batch(domains: &mut [SteadyDomain], dt: SimDuration, steps: u64) {
    let dt_s = dt.as_secs_f64();
    match domains.len() {
        0 => {}
        1 => run_blocks::<1>(domains, |k| k, 1, dt_s, steps),
        2 => run_blocks::<2>(domains, |k| k, 2, dt_s, steps),
        n => run_blocks::<STEADY_BLOCK>(domains, |k| k, n, dt_s, steps),
    }
}

/// [`advance_steady_batch`] over epoch tails in order of their starts, so
/// that each block's lanes start close together and seldom wait. `order`
/// is scratch space, its contents discarded.
pub(crate) fn advance_steady_tails(
    domains: &mut [SteadyDomain],
    order: &mut Vec<u32>,
    dt: SimDuration,
    steps: u64,
) {
    // A counting sort by start, every start below `steps`: `next[s]`
    // counts the tails starting before `s`, then hands out their slots.
    let buckets = steps as usize + 1;
    order.clear();
    order.resize(buckets + domains.len(), 0);
    let (next, sorted) = order.split_at_mut(buckets);
    for d in domains.iter() {
        if let Some(count) = next.get_mut(d.start as usize + 1) {
            *count += 1;
        }
    }
    let mut before = 0;
    for count in next.iter_mut() {
        before += *count;
        *count = before;
    }
    for (i, d) in domains.iter().enumerate() {
        if let Some(slot) = next.get_mut(d.start as usize) {
            if let Some(lane) = sorted.get_mut(*slot as usize) {
                *lane = i as u32;
            }
            *slot += 1;
        }
    }
    let pick = |k: usize| sorted.get(k).map_or(usize::MAX, |&i| i as usize);
    run_blocks::<STEADY_BLOCK>(domains, pick, sorted.len(), dt.as_secs_f64(), steps);
}

/// SoA lane width of the steady kernel: wide enough that the vectorised
/// sub-step chain amortises its latency across many lanes, small enough
/// that the hot lanes stay in L1.
const STEADY_BLOCK: usize = 32;

/// Runs the `n` domains `pick(0..n)` through the kernel in blocks of `W`
/// lanes, one set of lanes reused by every block.
fn run_blocks<const W: usize>(
    domains: &mut [SteadyDomain],
    pick: impl Fn(usize) -> usize,
    n: usize,
    dt_s: f64,
    steps: u64,
) {
    let mut lanes = SteadyLanes::<W>::new();
    let mut from = 0;
    while from < n {
        let len = (n - from).min(W);
        advance_block(&mut lanes, domains, |k| pick(from + k), len, dt_s, steps);
        from += len;
    }
}

/// Structure-of-arrays lanes of one kernel block, `W` wide. Integer and
/// boolean domain state rides in `f64` lanes — the values are small
/// integers and 0.0/1.0 flags, all exactly representable — so every
/// select in the sub-step loop is over one element type and the loops
/// vectorise clean. The lanes from `start` on are read by steady blocks
/// only.
///
/// [`SteadyLanes::load`] and [`SteadyLanes::store`] are the one mapping
/// between a [`SteadyDomain`] and a lane: loading a domain, stepping, and
/// storing it back leaves the domain as the kernel ran it, and loading a
/// domain that a lane was stored into reproduces every value the kernel
/// reads of that lane.
#[derive(Debug)]
struct SteadyLanes<const W: usize> {
    // Mutable lane state.
    temp_c: [f64; W],
    energy_j: [f64; W],
    throttled: [f64; W],
    uncore_w: [f64; W],
    idle_coeff: [f64; W],
    leak_base: [f64; W],
    level: [f64; W],
    transitions: [f64; W],
    stall_armed: [f64; W],
    // Per-lane constants.
    leak_temp_coeff: [f64; W],
    leak_t_ref_c: [f64; W],
    transition_energy_j: [f64; W],
    ambient_c: [f64; W],
    r_th_c_per_w: [f64; W],
    decay: [f64; W],
    trip_c: [f64; W],
    release_c: [f64; W],
    online: [f64; W],
    max_level: [f64; W],
    clamp_level: [f64; W],
    clamp_uncore_w: [f64; W],
    clamp_idle_coeff: [f64; W],
    clamp_leak_base: [f64; W],
    // Steady blocks: each lane's start, utilisation sums and their
    // increments, and the clock term of each of its first
    // `STEADY_BUSY_CORES` cores (the clamp moves an idle one with
    // `idle_coeff`).
    start: [f64; W],
    util_avg: [f64; W],
    util_max: [f64; W],
    util_avg_step: [f64; W],
    util_max_step: [f64; W],
    clock: [[f64; W]; STEADY_BUSY_CORES],
}

impl<const W: usize> SteadyLanes<W> {
    fn new() -> Self {
        let z = [0.0; W];
        SteadyLanes {
            temp_c: z,
            energy_j: z,
            throttled: z,
            uncore_w: z,
            idle_coeff: z,
            leak_base: z,
            level: z,
            transitions: z,
            stall_armed: z,
            leak_temp_coeff: z,
            leak_t_ref_c: z,
            transition_energy_j: z,
            ambient_c: z,
            r_th_c_per_w: z,
            decay: z,
            trip_c: z,
            release_c: z,
            online: z,
            max_level: z,
            clamp_level: z,
            clamp_uncore_w: z,
            clamp_idle_coeff: z,
            clamp_leak_base: z,
            start: z,
            util_avg: z,
            util_max: z,
            util_avg_step: z,
            util_max_step: z,
            clock: [z; STEADY_BUSY_CORES],
        }
    }

    // xtask-allow-region: no-panic-lib -- every caller passes a lane `j < W` (a loop bound `k < n <= W`, or `i % STEADY_BLOCK` into a `STEADY_BLOCK`-wide block) into `[f64; W]` lanes: in bounds
    /// Loads domain `d` into lane `j`.
    #[inline(always)]
    fn load(&mut self, j: usize, d: &SteadyDomain) {
        self.temp_c[j] = d.thermal.temp_c();
        self.energy_j[j] = d.acc.energy_j;
        self.throttled[j] = f64::from(u8::from(d.thermal.is_throttled()));
        self.uncore_w[j] = d.lut.uncore_w;
        self.idle_coeff[j] = d.lut.idle_coeff;
        self.leak_base[j] = d.lut.leak_base;
        self.level[j] = d.level as f64;
        self.transitions[j] = f64::from(d.acc.transitions);
        self.stall_armed[j] = f64::from(u8::from(d.stall_armed));
        self.leak_temp_coeff[j] = d.power.leak_temp_coeff;
        self.leak_t_ref_c[j] = d.power.leak_t_ref_c;
        self.transition_energy_j[j] = d.power.transition_energy_j;
        self.ambient_c[j] = d.thermal.ambient_c;
        self.r_th_c_per_w[j] = d.thermal.r_th_c_per_w;
        self.decay[j] = d.decay;
        self.trip_c[j] = d.thermal.throttle_temp_c;
        self.release_c[j] = d.thermal.release_temp_c;
        self.online[j] = f64::from(d.online);
        self.max_level[j] = d.max_level as f64;
        self.clamp_level[j] = d.clamp_level as f64;
        self.clamp_uncore_w[j] = d.clamp_lut.uncore_w;
        self.clamp_idle_coeff[j] = d.clamp_lut.idle_coeff;
        self.clamp_leak_base[j] = d.clamp_lut.leak_base;
        self.start[j] = f64::from(d.start);
        self.util_avg[j] = d.acc.util_avg_sum;
        self.util_max[j] = d.acc.util_max_sum;
        self.util_avg_step[j] = d.util_avg_step;
        self.util_max_step[j] = d.util_max_step;
        // A busy core's clock term, or an idle one's: `idle_coeff · 1.0`,
        // the coefficient itself. Rows past the online count are never
        // read for this lane.
        for (c, clock) in self.clock.iter_mut().enumerate().take(d.online as usize) {
            clock[j] = if (d.busy_cores >> c) & 1 != 0 {
                d.busy_clock_w
            } else {
                d.lut.idle_coeff
            };
        }
    }

    /// Stores the state the kernel evolves in lane `j` back into `d`, the
    /// domain the lane was loaded from.
    #[inline(always)]
    fn store(&self, j: usize, d: &mut SteadyDomain) {
        d.thermal
            .restore_batched(self.temp_c[j], self.throttled[j] != 0.0);
        d.acc.energy_j = self.energy_j[j];
        // Lossless round-trips: levels and transition counts are small
        // integers, far below `f64`'s exact-integer range. A level the
        // clamp moved is the staged target, whose constants the lanes
        // switched to.
        if self.level[j] as OppLevel != d.level {
            d.level = self.level[j] as OppLevel;
            d.lut = d.clamp_lut;
        }
        d.acc.transitions = self.transitions[j] as u32;
        d.stall_armed = self.stall_armed[j] != 0.0;
        d.acc.util_avg_sum = self.util_avg[j];
        d.acc.util_max_sum = self.util_max[j];
    }

    /// Whether lane `j`'s clamp cannot fire in this run: its level is at
    /// or below both clamp targets (every busy run's is), or — in a wide
    /// block, where the test costs less than the fire block — it is an
    /// all-idle run whose node stays below its trip point. That holds
    /// when the temperature and the steady state of the most the run
    /// could draw below the trip point — every core's leakage at the trip
    /// point, leakage rising with temperature — both sit a degree below
    /// it, since each relax step lands between its start and that steady
    /// state, up to roundings far below the margin. A throttled node is
    /// left to the level test.
    #[inline(always)]
    fn cannot_fire(&self, j: usize) -> bool {
        if self.level[j] <= f64::min(self.clamp_level[j], self.max_level[j]) {
            return true;
        }
        if W <= 2 || self.util_max_step[j] != 0.0 || self.throttled[j] != 0.0 {
            return false;
        }
        let below = self.trip_c[j] - 1.0;
        let leak_at_trip = PowerModel::leakage_w_from_parts(
            self.leak_base[j],
            self.trip_c[j],
            self.leak_temp_coeff[j],
            self.leak_t_ref_c[j],
        );
        let most_w = self.uncore_w[j] + self.online[j] * (self.idle_coeff[j] + leak_at_trip);
        self.leak_temp_coeff[j] >= 0.0
            && self.leak_base[j] >= 0.0
            && self.temp_c[j] <= below
            && self.ambient_c[j] + most_w * self.r_th_c_per_w[j] <= below
    }

    /// Runs lanes `0..n` (`n <= W`) from a clear stall flag through
    /// sub-steps `from..steps`, `steady` or not (see [`steady_substeps`]),
    /// in the fastest variant that gives them the same values. Lanes from
    /// `n` on hold stale values: they are stepped, never read, and do not
    /// pick the variant.
    fn run(&mut self, n: usize, steady: bool, dt_s: f64, from: u64, steps: u64) {
        // Span open: see the kernel docs.
        self.stall_armed = [0.0; W];
        // Common-case specialisations, both value-preserving: with one
        // online count the add predicates are uniformly true, and when no
        // lane can clamp the fire block is select-only no-ops for the
        // whole span, so skipping it changes nothing.
        let (mut min_online, mut max_online) = (f64::INFINITY, 0.0);
        let mut no_fire = true;
        for j in 0..n.min(W) {
            min_online = f64::min(min_online, self.online[j]);
            max_online = f64::max(max_online, self.online[j]);
            no_fire = no_fire && self.cannot_fire(j);
        }
        let variant = (min_online == max_online, no_fire, steady);
        let span = (dt_s, from, steps, max_online as u32);
        // One or two runs in a wide block step only their own lanes, as a
        // lone SoC's one or two do: stepping the whole block costs more.
        if W > 2 && n <= 2 {
            self.run_variant::<2>(variant, span);
        } else {
            self.run_variant::<W>(variant, span);
        }
    }

    /// Runs lanes `0..V` (`V <= W`) through `span` — `(dt_s, from, steps,
    /// max_online)` — in the `variant` `(UNIFORM, NO_FIRE, STEADY)` of
    /// [`steady_substeps`].
    fn run_variant<const V: usize>(
        &mut self,
        variant: (bool, bool, bool),
        (dt_s, from, steps, cores): (f64, u64, u64, u32),
    ) {
        let l = self;
        match variant {
            (true, true, false) => {
                steady_substeps::<W, V, true, true, false>(l, dt_s, from, steps, cores)
            }
            (true, false, false) => {
                steady_substeps::<W, V, true, false, false>(l, dt_s, from, steps, cores)
            }
            (false, true, false) => {
                steady_substeps::<W, V, false, true, false>(l, dt_s, from, steps, cores)
            }
            (false, false, false) => {
                steady_substeps::<W, V, false, false, false>(l, dt_s, from, steps, cores)
            }
            (true, true, true) => {
                steady_substeps::<W, V, true, true, true>(l, dt_s, from, steps, cores)
            }
            (true, false, true) => {
                steady_substeps::<W, V, true, false, true>(l, dt_s, from, steps, cores)
            }
            (false, true, true) => {
                steady_substeps::<W, V, false, true, true>(l, dt_s, from, steps, cores)
            }
            (false, false, true) => {
                steady_substeps::<W, V, false, false, true>(l, dt_s, from, steps, cores)
            }
        }
    }
    // xtask-allow-region: end no-panic-lib
}

/// The parked clusters of a [`crate::DeviceBatch`], resident in the
/// steady kernel's own layout across epochs. Slot `i` is lane
/// `i % STEADY_BLOCK` of block `i / STEADY_BLOCK`; slots `0..len` are in
/// use. Every slot is an all-idle run from its epoch's start, so each
/// epoch runs the blocks in place ([`ParkedLanes::advance`]) and closes,
/// observes and re-checks each slot from its lanes: a parked epoch loads
/// and stores no domain.
///
/// Each slot keeps the [`SteadyDomain`] it was loaded from. Its constants
/// stay valid; the state the kernel evolves is stale there until the slot
/// is stored back into it, when the slot leaves ([`ParkedLanes::unload`])
/// or moves, which costs O(the slots moved).
#[derive(Debug, Default)]
pub(crate) struct ParkedLanes {
    blocks: Vec<SteadyLanes<STEADY_BLOCK>>,
    domains: Vec<SteadyDomain>,
}

impl ParkedLanes {
    /// Slots in use.
    pub(crate) fn len(&self) -> usize {
        self.domains.len()
    }

    /// Appends a slot loaded from `d`, a parked epoch's all-idle run from
    /// [`Cluster::steady_begin`].
    pub(crate) fn push(&mut self, d: SteadyDomain) {
        // A lane parks at an epoch boundary, whose close left no sub-steps
        // in the sums, and without cpuidle states it has no residency: a
        // parked epoch's sums are the slot's lanes and its own sub-steps
        // (see `close_epoch`).
        debug_assert!(d.acc.substeps == 0 && d.busy_cores == 0 && d.start == 0);
        let i = self.domains.len();
        if self.blocks.len() <= i / STEADY_BLOCK {
            self.blocks.push(SteadyLanes::new());
        }
        if let Some(l) = self.blocks.get_mut(i / STEADY_BLOCK) {
            l.load(i % STEADY_BLOCK, &d);
        }
        self.domains.push(d);
    }

    /// Stores slots `range` back into their domains.
    fn store(&mut self, range: Range<usize>) {
        for i in range {
            if let (Some(l), Some(d)) = (self.blocks.get(i / STEADY_BLOCK), self.domains.get_mut(i))
            {
                l.store(i % STEADY_BLOCK, d);
            }
        }
    }

    /// Loads slots `range` from their domains.
    fn load(&mut self, range: Range<usize>) {
        for i in range {
            if let (Some(l), Some(d)) = (self.blocks.get_mut(i / STEADY_BLOCK), self.domains.get(i))
            {
                l.load(i % STEADY_BLOCK, d);
            }
        }
    }

    /// Stores the `n` slots from `start` back into their domains and
    /// returns those, for a lane that unparks.
    pub(crate) fn unload(&mut self, start: usize, n: usize) -> &[SteadyDomain] {
        self.store(start..start + n);
        self.domains.get(start..start + n).unwrap_or(&[])
    }

    /// Moves the last `n` slots, from `from` on, down to `to`, the slots
    /// an unparked lane of as many clusters left.
    pub(crate) fn move_tail(&mut self, from: usize, to: usize, n: usize) {
        debug_assert_eq!(from + n, self.domains.len(), "not the tail chunk");
        self.store(from..from + n);
        self.domains.copy_within(from..from + n, to);
        self.domains.truncate(from);
        self.load(to..to + n);
    }

    /// Removes the `n` slots from `start`, shifting every later slot down.
    pub(crate) fn remove(&mut self, start: usize, n: usize) {
        let len = self.domains.len();
        self.store(start + n..len);
        self.domains.drain(start..start + n);
        self.load(start..len - n);
    }

    /// Runs every slot through one epoch of `steps` sub-steps of length
    /// `dt`, block by block in place.
    pub(crate) fn advance(&mut self, dt: SimDuration, steps: u64) {
        let dt_s = dt.as_secs_f64();
        let mut left = self.domains.len();
        for l in &mut self.blocks {
            if left == 0 {
                break;
            }
            let n = left.min(STEADY_BLOCK);
            l.run(n, false, dt_s, 0, steps);
            left -= n;
        }
    }

    // xtask-allow-region: no-panic-lib -- callers pass slots below `len`, which lie in blocks `push` added, and every lane index is `i % STEADY_BLOCK` into a `STEADY_BLOCK`-wide block: in bounds
    /// Slot `i`'s block and lane.
    fn slot(&self, i: usize) -> (&SteadyLanes<STEADY_BLOCK>, usize) {
        (&self.blocks[i / STEADY_BLOCK], i % STEADY_BLOCK)
    }

    /// Closes the epoch of slot `i`, which ran parked through all its
    /// `steps` sub-steps, through the fold [`Cluster::end_epoch_into`]
    /// uses, and resets the slot's sums. An all-idle epoch's utilisation
    /// sums are exactly `+0.0` (folding `+0.0` is a bitwise no-op),
    /// nothing is queued or completed on a quiescent cluster, and there is
    /// no cpuidle residency without a cpuidle table. The stall flag is NOT
    /// cleared: a final-sub-step clamp stays visible until the next
    /// epoch's pre-pass, which either restores it on unpark or lets the
    /// next [`ParkedLanes::advance`] drop it.
    pub(crate) fn close_epoch(&mut self, i: usize, steps: u64, report: &mut ClusterReport) {
        let (l, j) = (&mut self.blocks[i / STEADY_BLOCK], i % STEADY_BLOCK);
        let mut acc = EpochAcc {
            substeps: steps as u32,
            util_avg_sum: l.util_avg[j],
            util_max_sum: l.util_max[j],
            energy_j: l.energy_j[j],
            transitions: l.transitions[j] as u32,
            ..EpochAcc::default()
        };
        acc.close_into(l.temp_c[j], l.level[j] as OppLevel, 0, report);
        report.completed.clear();
        l.util_avg[j] = 0.0;
        l.util_max[j] = 0.0;
        l.energy_j[j] = 0.0;
        l.transitions[j] = 0.0;
    }

    /// The observation [`Cluster::observe`] would produce for slot `i`'s
    /// cluster: level, temperature and throttle state from the lanes, the
    /// table constants from `consts`, and an empty queue by the parked
    /// invariant.
    pub(crate) fn observe(
        &self,
        i: usize,
        consts: &ParkedObsConsts,
        util_avg: f64,
        util_max: f64,
    ) -> ClusterObservation {
        let (l, j) = self.slot(i);
        ClusterObservation {
            util_avg,
            util_max,
            level: l.level[j] as OppLevel,
            num_levels: consts.num_levels,
            freq_hz: if l.level[j] == l.clamp_level[j] {
                consts.clamp_freq_hz
            } else {
                consts.freq_hz
            },
            freq_range_hz: consts.freq_range_hz,
            temp_c: l.temp_c[j],
            throttled: l.throttled[j] != 0.0,
            queued: 0,
        }
    }

    /// Whether `set_level(requested)` on slot `i`'s cluster would change
    /// nothing — the same clamp-then-compare [`Cluster::set_level`]
    /// performs, on the slot's thermal state. A request beyond the table
    /// (an error in the scalar path) also reports `false`, so the lane
    /// unparks and surfaces the identical error.
    pub(crate) fn level_request_is_noop(&self, i: usize, requested: OppLevel) -> bool {
        let (l, j) = self.slot(i);
        let max_level = l.max_level[j] as OppLevel;
        let clamp_max = if l.throttled[j] != 0.0 {
            l.clamp_level[j] as OppLevel
        } else {
            max_level
        };
        requested <= max_level && requested.min(clamp_max) == l.level[j] as OppLevel
    }
    // xtask-allow-region: end no-panic-lib
}

/// One load → step → store block over the `n` (1..=`W`) domains
/// `pick(0..n)`; lanes from `n` on keep stale values, stepped and never
/// stored.
#[inline(always)]
fn advance_block<const W: usize>(
    l: &mut SteadyLanes<W>,
    domains: &mut [SteadyDomain],
    pick: impl Fn(usize) -> usize,
    n: usize,
    dt_s: f64,
    steps: u64,
) {
    // The block's span and kind, in the load pass.
    let (mut start, mut last_start, mut busy) = (u32::MAX, 0, false);
    for j in 0..n.min(W) {
        if let Some(d) = domains.get(pick(j)) {
            l.load(j, d);
            start = start.min(d.start);
            last_start = last_start.max(d.start);
            busy |= d.busy_cores != 0;
        }
    }
    // A block of idle runs that all start together runs the aligned
    // all-idle loop; a busy core or a staggered start needs the steady
    // one.
    l.run(
        n,
        busy || start != last_start,
        dt_s,
        u64::from(start),
        steps,
    );
    for k in 0..n.min(W) {
        if let Some(d) = domains.get_mut(pick(k)) {
            l.store(k, d);
            d.acc.substeps += d.run_len(steps) as u32;
        }
    }
}

/// The vectorised sub-step loop over the first `V` lanes of one
/// [`SteadyLanes`] block, from sub-step `from` to `steps`.
///
/// `UNIFORM` (every lane shares `max_online`) drops the per-core add
/// predicates; `NO_FIRE` (no lane's level exceeds a clamp target) drops
/// the clamp block. Both are pure specialisations — see
/// [`SteadyLanes::run`]. `STEADY` is off for a block of idle runs that all
/// start at `from`: every lane then runs every sub-step and every core
/// adds the one idle term. On, each lane holds its state until its own
/// start, each of its first cores adds its own clock term plus the
/// leakage, and it adds its utilisation increments; a busy lane never
/// fires the clamp (its level is at or below the target).
#[allow(clippy::needless_range_loop)] // fixed-width lane loops vectorise as written
#[inline(always)]
fn steady_substeps<
    const W: usize,
    const V: usize,
    const UNIFORM: bool,
    const NO_FIRE: bool,
    const STEADY: bool,
>(
    l: &mut SteadyLanes<W>,
    dt_s: f64,
    from: u64,
    steps: u64,
    max_online: u32,
) {
    // The cores with a clock term of their own; the rest add the idle term.
    let clocked = if STEADY {
        max_online.min(STEADY_BUSY_CORES as u32)
    } else {
        0
    };
    // The lanes stepped: `V`, within the block (a narrow variant of a
    // one-lane block is never called, but is still built).
    let lanes = V.min(W);
    // xtask-allow-region: no-panic-lib -- every index is `j < lanes = min(V, W)` into `[f64; W]` lanes (or a fixed `[_; V]` scratch) and `c < clocked <= STEADY_BUSY_CORES` into the clock rows: statically in bounds
    // xtask-hotpath: begin
    for i in from..steps {
        let last = if i + 1 == steps { 1.0f64 } else { 0.0 };
        let i_f = i as f64;
        let mut leak_w = [0.0; V];
        let mut idle_term = [0.0; V];
        let mut power_w = [0.0; V];
        for j in 0..lanes {
            leak_w[j] = PowerModel::leakage_w_from_parts(
                l.leak_base[j],
                l.temp_c[j],
                l.leak_temp_coeff[j],
                l.leak_t_ref_c[j],
            );
            idle_term[j] = PowerModel::idle_core_w_from_parts(l.idle_coeff[j], leak_w[j], 1.0, 1.0);
            power_w[j] = l.uncore_w[j];
        }
        // The scalar paths add one term per online core, in core order;
        // the predicated add replays that exact chain lane-wise (a
        // discarded `power + term` has no effect) with a uniform trip
        // count: first the cores with a clock term of their own, then the
        // rest with the idle term.
        for (c, clock) in l.clock.iter().enumerate().take(clocked as usize) {
            let c_f = c as f64;
            for j in 0..lanes {
                let term = PowerModel::core_w_from_clock(clock[j], leak_w[j], 1.0);
                power_w[j] = if UNIFORM || c_f < l.online[j] {
                    power_w[j] + term
                } else {
                    power_w[j]
                };
            }
        }
        for c in clocked..max_online {
            let c_f = f64::from(c);
            for j in 0..lanes {
                power_w[j] = if UNIFORM || c_f < l.online[j] {
                    power_w[j] + idle_term[j]
                } else {
                    power_w[j]
                };
            }
        }
        for j in 0..lanes {
            // A lane runs from its own start; before it, every update is
            // discarded by a select.
            let on = !STEADY || i_f >= l.start[j];
            let energy_j = l.energy_j[j] + power_w[j] * dt_s;
            l.energy_j[j] = if on { energy_j } else { l.energy_j[j] };
            // `ThermalModel::step` with the decay factor hoisted.
            let temp_c = relax(
                l.temp_c[j],
                power_w[j],
                l.ambient_c[j],
                l.r_th_c_per_w[j],
                l.decay[j],
            );
            let throttled = hysteresis(
                temp_c,
                l.trip_c[j],
                l.release_c[j],
                l.throttled[j],
                [0.0, 1.0],
            );
            l.temp_c[j] = if on { temp_c } else { l.temp_c[j] };
            l.throttled[j] = if on { throttled } else { l.throttled[j] };
            if STEADY {
                // An idle lane adds `+0.0`, a bitwise no-op on its
                // non-negative sums.
                let util_avg = l.util_avg[j] + l.util_avg_step[j];
                let util_max = l.util_max[j] + l.util_max_step[j];
                l.util_avg[j] = if on { util_avg } else { l.util_avg[j] };
                l.util_max[j] = if on { util_max } else { l.util_max[j] };
            }
        }
        if NO_FIRE {
            continue;
        }
        // Whether each lane's clamp fired, as `0.0`/`1.0`.
        let mut fired = [0.0; V];
        for j in 0..lanes {
            let clamp = if l.throttled[j] != 0.0 {
                l.clamp_level[j]
            } else {
                l.max_level[j]
            };
            let fire = (!STEADY || i_f >= l.start[j]) && l.level[j] > clamp;
            fired[j] = if fire { 1.0 } else { 0.0 };
            l.level[j] = if fire { clamp } else { l.level[j] };
            // The energy accumulator is a sum of non-negative terms, so
            // the discarded branch adds `+0.0` — exact — and the lane
            // stays select-only.
            l.energy_j[j] += if fire { l.transition_energy_j[j] } else { 0.0 };
            l.transitions[j] += if fire { 1.0 } else { 0.0 };
            l.uncore_w[j] = if fire {
                l.clamp_uncore_w[j]
            } else {
                l.uncore_w[j]
            };
            l.idle_coeff[j] = if fire {
                l.clamp_idle_coeff[j]
            } else {
                l.idle_coeff[j]
            };
            l.leak_base[j] = if fire {
                l.clamp_leak_base[j]
            } else {
                l.leak_base[j]
            };
            // Mid-span the stepped loop would zero the stall at the next
            // sub-step; only a final-sub-step clamp leaves it armed for
            // what follows.
            l.stall_armed[j] = if fire {
                last.max(l.stall_armed[j])
            } else {
                l.stall_armed[j]
            };
        }
        // Only an idle lane fires, so every clock term it has is idle.
        for clock in l.clock.iter_mut().take(clocked as usize) {
            for j in 0..lanes {
                clock[j] = if fired[j] != 0.0 {
                    l.clamp_idle_coeff[j]
                } else {
                    clock[j]
                };
            }
        }
    }
    // xtask-hotpath: end
    // xtask-allow-region: end no-panic-lib
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobClass, SocConfig};

    fn test_cluster() -> Cluster {
        Cluster::new(SocConfig::tiny_test().unwrap().clusters[0].clone())
    }

    fn job(id: u64, work: u64) -> Job {
        Job::new(id, work, SimTime::from_millis(50), JobClass::Normal)
    }

    #[test]
    fn starts_at_level_zero_idle() {
        let c = test_cluster();
        assert_eq!(c.level(), 0);
        assert_eq!(c.freq_hz(), 200_000_000);
        assert_eq!(c.queued_jobs(), 0);
        assert!(!c.is_throttled());
    }

    #[test]
    fn set_level_changes_frequency_and_counts_transition() {
        let mut c = test_cluster();
        let set = c.set_level(2, 0).unwrap();
        assert_eq!(set, 2);
        assert_eq!(c.freq_hz(), 1_000_000_000);
        c.advance_substep(SimTime::ZERO, SimDuration::from_millis(1));
        let report = c.end_epoch();
        assert_eq!(report.transitions, 1);
    }

    #[test]
    fn set_same_level_is_free() {
        let mut c = test_cluster();
        c.set_level(0, 0).unwrap();
        c.advance_substep(SimTime::ZERO, SimDuration::from_millis(1));
        let report = c.end_epoch();
        assert_eq!(report.transitions, 0);
    }

    #[test]
    fn set_level_out_of_range_errors() {
        let mut c = test_cluster();
        assert!(matches!(
            c.set_level(3, 7),
            Err(SocError::LevelOutOfRange {
                cluster: 7,
                requested: 3,
                available: 3
            })
        ));
    }

    #[test]
    fn executes_work_and_reports_utilization() {
        let mut c = test_cluster();
        c.set_level(2, 0).unwrap(); // 1 GHz
                                    // 0.5 ms of work on core 0 only.
        c.enqueue_on(0, job(1, 500_000));
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            c.advance_substep(t, SimDuration::from_millis(1));
            t += SimDuration::from_millis(1);
        }
        let report = c.end_epoch();
        assert_eq!(report.completed.len(), 1);
        // Busy 0.5ms of 20ms on one of two cores.
        assert!(
            (report.util_avg - 0.0125).abs() < 1e-3,
            "util_avg {}",
            report.util_avg
        );
        assert!(
            (report.util_max - 0.025).abs() < 2e-3,
            "util_max {}",
            report.util_max
        );
        assert!(report.energy_j > 0.0);
    }

    #[test]
    fn energy_grows_with_load_and_level() {
        let run = |level: OppLevel, with_work: bool| -> f64 {
            let mut c = test_cluster();
            c.set_level(level, 0).unwrap();
            let mut t = SimTime::ZERO;
            // Settle the transition before measuring.
            c.advance_substep(t, SimDuration::from_millis(1));
            t += SimDuration::from_millis(1);
            c.end_epoch();
            if with_work {
                c.enqueue_on(0, job(1, u64::MAX / 4));
                c.enqueue_on(1, job(2, u64::MAX / 4));
            }
            for _ in 0..20 {
                c.advance_substep(t, SimDuration::from_millis(1));
                t += SimDuration::from_millis(1);
            }
            c.end_epoch().energy_j
        };
        let idle_low = run(0, false);
        let idle_high = run(2, false);
        let busy_low = run(0, true);
        let busy_high = run(2, true);
        assert!(
            idle_low < idle_high,
            "higher OPP leaks/clocks more even idle"
        );
        assert!(busy_low > idle_low);
        assert!(
            busy_high > busy_low,
            "busy at high OPP is the most expensive"
        );
    }

    #[test]
    fn least_loaded_core_tracks_backlog() {
        let mut c = test_cluster();
        assert_eq!(c.least_loaded_core(), 0, "tie breaks to first core");
        c.enqueue_on(0, job(1, 1_000_000));
        assert_eq!(c.least_loaded_core(), 1);
        c.enqueue_on(1, job(2, 2_000_000));
        assert_eq!(c.least_loaded_core(), 0);
    }

    #[test]
    fn thermal_clamp_limits_level_mid_epoch() {
        let mut cfg = SocConfig::tiny_test().unwrap().clusters[0].clone();
        // A thermal model that trips almost immediately under load.
        cfg.thermal = crate::ThermalModel::new(50.0, 0.01, 25.0, 40.0, 35.0, 2);
        let mut c = Cluster::new(cfg);
        c.set_level(2, 0).unwrap();
        c.enqueue_on(0, job(1, u64::MAX / 4));
        c.enqueue_on(1, job(2, u64::MAX / 4));
        let mut t = SimTime::ZERO;
        for _ in 0..400 {
            c.advance_substep(t, SimDuration::from_millis(1));
            t += SimDuration::from_millis(1);
        }
        assert!(c.is_throttled());
        assert_eq!(c.level(), 0, "clamp removed 2 of 3 levels");
        // Requesting the top level while throttled silently clamps.
        let set = c.set_level(2, 0).unwrap();
        assert_eq!(set, 0);
    }

    #[test]
    fn reset_restores_cold_idle_state() {
        let mut c = test_cluster();
        c.set_level(2, 0).unwrap();
        c.enqueue_on(0, job(1, 1_000_000_000));
        for i in 0..100 {
            c.advance_substep(SimTime::from_millis(i), SimDuration::from_millis(1));
        }
        c.reset();
        assert_eq!(c.level(), 0);
        assert_eq!(c.queued_jobs(), 0);
        assert_eq!(c.temp_c(), c.config().thermal.ambient_c);
    }

    #[test]
    fn observation_reflects_state() {
        let mut c = test_cluster();
        c.set_level(1, 0).unwrap();
        c.enqueue_on(0, job(1, 10_000_000_000));
        let obs = c.observe(0.4, 0.8);
        assert_eq!(obs.level, 1);
        assert_eq!(obs.freq_hz, 600_000_000);
        assert_eq!(obs.num_levels, 3);
        assert_eq!(obs.queued, 1);
        assert_eq!(obs.util_avg, 0.4);
        assert_eq!(obs.util_max, 0.8);
        assert_eq!(obs.freq_range_hz, (200_000_000, 1_000_000_000));
    }

    #[test]
    fn cpuidle_cuts_idle_power_after_residency() {
        let mk = |idle: Option<crate::IdleStates>| {
            let mut cfg = SocConfig::tiny_test().unwrap().clusters[0].clone();
            cfg.idle = idle;
            Cluster::new(cfg)
        };
        let run_idle_epochs = |c: &mut Cluster, epochs: usize| -> f64 {
            let mut t = SimTime::ZERO;
            let mut total = 0.0;
            for _ in 0..epochs {
                for _ in 0..20 {
                    c.advance_substep(t, SimDuration::from_millis(1));
                    t += SimDuration::from_millis(1);
                }
                total += c.end_epoch().energy_j;
            }
            total
        };
        let mut plain = mk(None);
        let mut cstates = mk(Some(crate::IdleStates::mobile_cpuidle()));
        let e_plain = run_idle_epochs(&mut plain, 50);
        let e_cstates = run_idle_epochs(&mut cstates, 50);
        assert!(
            e_cstates < 0.7 * e_plain,
            "idle energy with C-states {e_cstates} vs without {e_plain}"
        );
    }

    #[test]
    fn cpuidle_reports_residency_and_charges_wakeup() {
        let mut cfg = SocConfig::tiny_test().unwrap().clusters[0].clone();
        cfg.idle = Some(crate::IdleStates::mobile_cpuidle());
        let mut c = Cluster::new(cfg);
        // Stay idle for 30 ms: both cores pass gate (1 ms) and collapse
        // (10 ms) thresholds.
        let mut t = SimTime::ZERO;
        for _ in 0..30 {
            c.advance_substep(t, SimDuration::from_millis(1));
            t += SimDuration::from_millis(1);
        }
        let report = c.end_epoch();
        assert!(report.idle_gated_s > 0.0, "gated residency recorded");
        assert!(
            report.idle_collapsed_s > 0.0,
            "collapsed residency recorded"
        );

        // Wake with a short job: the 150 us collapse wake-up delays its
        // completion relative to a cluster without C-states.
        c.enqueue_on(0, job(1, 200_000)); // 1 ms at 200 MHz
        c.advance_substep(t, SimDuration::from_millis(1));
        t += SimDuration::from_millis(1);
        c.advance_substep(t, SimDuration::from_millis(1));
        let report = c.end_epoch();
        let done = &report.completed[0];
        // 30 ms idle + 150 us wake + 1 ms execute.
        assert!(
            done.completed_at >= SimTime::from_micros(31_150),
            "completed at {} without the wake-up stall",
            done.completed_at
        );
    }

    #[test]
    fn cpuidle_active_cluster_pays_no_wake_penalty() {
        let mut cfg = SocConfig::tiny_test().unwrap().clusters[0].clone();
        cfg.idle = Some(crate::IdleStates::mobile_cpuidle());
        let mut c = Cluster::new(cfg);
        // Enqueue immediately: core never entered an idle state.
        c.enqueue_on(0, job(1, 200_000));
        c.advance_substep(SimTime::ZERO, SimDuration::from_millis(1));
        let report = c.end_epoch();
        assert_eq!(report.completed[0].completed_at, SimTime::from_millis(1));
        assert_eq!(report.idle_gated_s, 0.0);
    }

    #[test]
    fn hotplug_migrates_work_and_cuts_power() {
        let mut c = test_cluster();
        c.enqueue_on(1, job(1, 5_000_000));
        let backlog = c.backlog();
        c.set_online(1, 0).unwrap();
        assert_eq!(c.num_online(), 1);
        assert_eq!(c.backlog(), backlog, "hotplug conserves queued work");
        assert_eq!(c.queued_jobs(), 1, "job migrated to the survivor");
        // The offline core draws nothing: idle power halves (modulo
        // uncore, which is shared).
        let idle_power = |c: &mut Cluster| {
            let mut t = SimTime::ZERO;
            for _ in 0..20 {
                c.advance_substep(t, SimDuration::from_millis(1));
                t += SimDuration::from_millis(1);
            }
            c.end_epoch().energy_j
        };
        let mut full = test_cluster();
        let e_full = idle_power(&mut full);
        let mut half = test_cluster();
        half.set_online(1, 0).unwrap();
        let e_half = idle_power(&mut half);
        assert!(
            e_half < e_full,
            "offline core must not draw power: {e_half} vs {e_full}"
        );
    }

    #[test]
    fn hotplug_rejects_zero_and_overflow() {
        let mut c = test_cluster();
        assert!(matches!(
            c.set_online(0, 3),
            Err(SocError::InvalidHotplug {
                cluster: 3,
                requested: 0,
                cores: 2
            })
        ));
        assert!(c.set_online(5, 0).is_err());
        assert_eq!(c.num_online(), 2, "failed hotplug leaves state intact");
    }

    #[test]
    fn hotplug_redirects_enqueue_and_reset_reonlines() {
        let mut c = test_cluster();
        c.set_online(1, 0).unwrap();
        // Targeting the offline core lands on the online one.
        c.enqueue_on(1, job(1, 1_000));
        assert_eq!(c.least_loaded_core(), 0);
        assert_eq!(c.queued_jobs(), 1);
        let full_capacity = test_cluster().capacity_ips();
        assert_eq!(c.capacity_ips(), full_capacity / 2.0);
        c.reset();
        assert_eq!(c.num_online(), 2);
    }

    #[test]
    fn capacity_scales_with_level() {
        let mut c = test_cluster();
        let low = c.capacity_ips();
        c.set_level(2, 0).unwrap();
        assert_eq!(
            c.capacity_ips(),
            low * 5.0,
            "1 GHz vs 200 MHz, 2 cores, ipc 1"
        );
    }
}
