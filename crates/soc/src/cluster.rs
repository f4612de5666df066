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
//! ([`SteadyLanes`]), one lane per cluster, each online core adding one
//! constant clock term to the leakage. [`SteadyLanes::load`] and
//! [`SteadyLanes::store`] are the one mapping between a cluster and a
//! lane. A lone cluster's mid-epoch idle run goes one lane wide; an
//! epoch's tail (from its last dispatch and last completion to its end)
//! goes in one call with the SoC's other tails, and in a batch with every
//! live lane's tails (`Tails` in `soc_impl.rs`); a batch's parked
//! clusters stay in lanes across epochs ([`ParkedLanes`]). The kernel and
//! [`crate::ThermalModel::step`] share the thermal relax and hysteresis.

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
        let idle = steps - self.advance_busy_substeps(start, dt, steps, false);
        if idle > 0 {
            let mut lane = SteadyLanes::<1>::new();
            lane.load(0, self, dt, 0);
            lane.run(1, dt.as_secs_f64(), idle);
            lane.store(0, self, dt, idle);
        }
    }

    /// The busy kernel: runs sub-steps from `start` until `steps` are done
    /// or, without a cpuidle table, the rest is for the steady kernel —
    /// from the first sub-step that starts with every core quiescent or,
    /// `until_steady`, with the rest of the span steady
    /// ([`Cluster::steady_for`]) — and returns how many it ran. Under the
    /// dispatch-horizon guarantee of [`Cluster::advance_span`], which
    /// runs it first, the SoC runs the last span of an epoch through it
    /// `until_steady`: the rest of that span is the cluster's tail, which
    /// the SoC runs with its other tails in one kernel call.
    ///
    /// Each sub-step is [`Cluster::advance_substep`] with its invariants
    /// hoisted: the OPP's power constants and the cores'
    /// [`ExecConsts`] are built once per span and refreshed only when the
    /// thermal clamp lowers the level, and the [`StepState`] lives in a
    /// local. Leakage is evaluated straight-line (the temperature moves
    /// every busy sub-step, so the one-entry memo would miss).
    pub(crate) fn advance_busy_substeps(
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

/// SoA lane width of the steady kernel: wide enough that the vectorised
/// sub-step chain amortises its latency across many lanes, small enough
/// that the hot lanes stay in L1.
pub(crate) const STEADY_BLOCK: usize = 32;

/// Structure-of-arrays lanes of one kernel block, `W` wide. Integer and
/// boolean cluster state rides in `f64` lanes — the values are small
/// integers and 0.0/1.0 flags, all exactly representable — so every
/// select in the sub-step loop is over one element type and the loops
/// vectorise clean. The lanes from `start` on are read by steady blocks
/// only.
///
/// [`SteadyLanes::load`] and [`SteadyLanes::store`] are the one mapping
/// between a [`Cluster`] and a lane: loading a cluster, running the lane,
/// and storing it back leaves the cluster as the kernel ran it, and
/// loading a cluster that a lane was stored into reproduces every value
/// the kernel reads of that lane. Each pass over a lane's clusters is one
/// block call: load, [`SteadyLanes::run`], store.
#[derive(Debug)]
pub(crate) struct SteadyLanes<const W: usize> {
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
    // Each lane's start and epoch sub-step count (added per run, not per
    // sub-step); steady blocks: its utilisation sums and their increments,
    // and the clock term of each of its first `STEADY_BUSY_CORES` cores
    // (the clamp moves an idle one with `idle_coeff`).
    start: [f64; W],
    substeps: [f64; W],
    util_avg: [f64; W],
    util_max: [f64; W],
    util_avg_step: [f64; W],
    util_max_step: [f64; W],
    clock: [[f64; W]; STEADY_BUSY_CORES],
}

impl<const W: usize> SteadyLanes<W> {
    pub(crate) fn new() -> Self {
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
            substeps: z,
            util_avg: z,
            util_max: z,
            util_avg_step: z,
            util_max_step: z,
            clock: [z; STEADY_BUSY_CORES],
        }
    }

    // xtask-allow-region: no-panic-lib -- every caller passes a lane `j < W` (a block position below `W`, or `i % STEADY_BLOCK` into a `STEADY_BLOCK`-wide block) into `[f64; W]` lanes: in bounds
    /// Loads `c` into lane `j` for a steady run (see
    /// [`Cluster::steady_for`]) of sub-steps of length `dt`, from sub-step
    /// `start` of the span the lane runs in: the thermal node, level and
    /// epoch sums, the power constants of the level and of the clamp target
    /// (`level > clamp` fires at most once per run — the clamp never
    /// lowers further — so those of the clamped level can be staged up
    /// front; a busy run sits at or below the target and never fires), and
    /// each online core's clock term with the utilisation increments of
    /// the busy ones. A pending stall moves into the lane's stall flag: an
    /// idle run never uses it (`stall = pending_stall.min(dt)` only shrinks
    /// an execution window), a busy run starts without one, and
    /// [`SteadyLanes::run`] clears the flag when it opens a span, so only a
    /// final-sub-step clamp re-arms it for [`SteadyLanes::store`].
    #[inline(always)]
    pub(crate) fn load(&mut self, j: usize, c: &mut Cluster, dt: SimDuration, start: u64) {
        debug_assert!(c.config.idle.is_none(), "steady run with cpuidle");
        self.decay[j] = c.st.thermal.decay_for(dt);
        let (power, thermal, acc) = (&c.config.power, &c.st.thermal, &c.st.acc);
        let (lut, clamp_level) = (c.lut(c.st.level), c.clamp_target());
        let clamp_lut = c.lut(clamp_level);
        self.temp_c[j] = thermal.temp_c();
        self.energy_j[j] = acc.energy_j;
        self.throttled[j] = f64::from(u8::from(thermal.is_throttled()));
        self.uncore_w[j] = lut.uncore_w;
        self.idle_coeff[j] = lut.idle_coeff;
        self.leak_base[j] = lut.leak_base;
        self.level[j] = c.st.level as f64;
        self.transitions[j] = f64::from(acc.transitions);
        self.stall_armed[j] = f64::from(u8::from(!c.st.pending_stall.is_zero()));
        self.leak_temp_coeff[j] = power.leak_temp_coeff;
        self.leak_t_ref_c[j] = power.leak_t_ref_c;
        self.transition_energy_j[j] = power.transition_energy_j;
        self.ambient_c[j] = thermal.ambient_c;
        self.r_th_c_per_w[j] = thermal.r_th_c_per_w;
        self.trip_c[j] = thermal.throttle_temp_c;
        self.release_c[j] = thermal.release_temp_c;
        self.online[j] = c.online as f64;
        self.max_level[j] = c.config.opps.max_level() as f64;
        self.clamp_level[j] = clamp_level as f64;
        self.clamp_uncore_w[j] = clamp_lut.uncore_w;
        self.clamp_idle_coeff[j] = clamp_lut.idle_coeff;
        self.clamp_leak_base[j] = clamp_lut.leak_base;
        self.start[j] = start as f64;
        self.substeps[j] = f64::from(acc.substeps);
        self.util_avg[j] = acc.util_avg_sum;
        self.util_max[j] = acc.util_max_sum;
        // An idle core's clock term is `idle_coeff · 1.0`, the coefficient
        // itself; a busy one's is at the full-budget busy fraction, and the
        // increments are the busy kernel's utilisation folds, in core
        // order. Rows past the online count are never read for this lane.
        let mut full_busy = None;
        let (mut busy_sum, mut busy_max) = (0.0, 0.0);
        for (k, core) in c.cores.iter().take(c.online).enumerate() {
            let clock_w = if core.is_quiescent() {
                lut.idle_coeff
            } else {
                debug_assert!(k < STEADY_BUSY_CORES, "busy core {k} has no clock row");
                let (busy, clock_w) = *full_busy.get_or_insert_with(|| {
                    let busy = ExecConsts::new(lut.freq_hz, c.config.ipc, dt).full_busy();
                    (
                        busy,
                        PowerModel::core_clock_w(lut.dyn_w, lut.idle_coeff, busy, 1.0),
                    )
                });
                busy_sum += busy;
                busy_max = f64::max(busy_max, busy);
                clock_w
            };
            if let Some(row) = self.clock.get_mut(k) {
                row[j] = clock_w;
            }
        }
        self.util_avg_step[j] = busy_sum / c.online as f64;
        self.util_max_step[j] = busy_max;
        c.st.pending_stall = SimDuration::ZERO;
    }

    /// Stores lane `j` back into `c`, the cluster it was loaded from, after
    /// the lane ran `ran` sub-steps of length `dt`: thermal node, level,
    /// epoch sums, a stall armed by a final-sub-step clamp, and the cores'
    /// deferred updates — each busy core's `ran` full-budget sub-steps
    /// ([`CoreModel::run_full_substeps`]) and every other core's idle
    /// residency (integer nanoseconds, so one batched add equals the
    /// per-sub-step adds exactly).
    #[inline(always)]
    pub(crate) fn store(&self, j: usize, c: &mut Cluster, dt: SimDuration, ran: u64) {
        c.st.thermal
            .restore_batched(self.temp_c[j], self.throttled[j] != 0.0);
        // Lossless round-trips: levels and counts are small integers, far
        // below `f64`'s exact-integer range.
        c.st.level = self.level[j] as OppLevel;
        let acc = &mut c.st.acc;
        acc.energy_j = self.energy_j[j];
        acc.transitions = self.transitions[j] as u32;
        acc.substeps = self.substeps[j] as u32;
        acc.util_avg_sum = self.util_avg[j];
        acc.util_max_sum = self.util_max[j];
        if self.stall_armed[j] != 0.0 {
            c.st.pending_stall = c.config.transition_latency;
        }
        // A busy run never clamps, so it ran at the level it started at.
        let (freq_hz, ipc) = (c.lut(c.st.level).freq_hz, c.config.ipc);
        let (idle_span, mut exec) = (dt * ran, None);
        for core in &mut c.cores {
            if core.is_quiescent() {
                core.note_idle(idle_span);
            } else {
                let k = exec.get_or_insert_with(|| ExecConsts::new(freq_hz, ipc, dt));
                core.run_full_substeps(k, ran, dt);
            }
        }
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

    /// Runs lanes `0..n` (`n <= W`), each from its start to the end of a
    /// span of `steps` sub-steps of `dt_s` seconds, in the fastest variant
    /// of [`steady_substeps`] that gives them the same values, and adds
    /// the sub-steps each ran to its count. Each lane opens with its stall
    /// flag clear: a flag armed before has been consumed by a store, or is
    /// discarded exactly as the stepped loop zeroes the stall at the top of
    /// every sub-step. Lanes from `n` on hold stale values: they are
    /// stepped, never read, and do not pick the variant.
    ///
    /// Per lane this is **bit-identical** to stepped execution: each lane
    /// evaluates the same straight-line sequence as the busy kernel's core
    /// loop and [`StepState::close`] — leakage from the hoisted base, each
    /// online core's clock term plus the leakage added in core order,
    /// energy, the thermal relax and hysteresis
    /// [`crate::ThermalModel::step`] runs, the clamp, and the constant
    /// utilisation increments — only the schedule across (independent)
    /// lanes changes. A lane waits, unchanged, until its own start. The
    /// sub-step loops are fixed-width and branch-free — every conditional
    /// update is a lane-wise select that reproduces the branch outcome
    /// value exactly — so they vectorise, and the serial per-lane thermal
    /// recurrence amortises its latency across the block.
    pub(crate) fn run(&mut self, n: usize, dt_s: f64, steps: u64) {
        self.stall_armed = [0.0; W];
        // Common-case specialisations, all value-preserving: with one
        // online count the add predicates are uniformly true; when no lane
        // can clamp the fire block is select-only no-ops for the whole
        // span, so skipping it changes nothing; and lanes that all start
        // together without a utilisation increment (so every core's clock
        // term is bitwise the idle one) run the aligned all-idle loop.
        let (mut min_online, mut max_online) = (f64::INFINITY, 0.0);
        let (mut from, mut last_start) = (f64::INFINITY, 0.0);
        let (mut no_fire, mut busy) = (true, false);
        for j in 0..n.min(W) {
            min_online = f64::min(min_online, self.online[j]);
            max_online = f64::max(max_online, self.online[j]);
            from = f64::min(from, self.start[j]);
            last_start = f64::max(last_start, self.start[j]);
            no_fire = no_fire && self.cannot_fire(j);
            busy |= self.util_max_step[j] != 0.0;
            self.substeps[j] += steps as f64 - self.start[j];
        }
        let variant = (
            min_online == max_online,
            no_fire,
            busy || from != last_start,
        );
        let span = (dt_s, from as u64, steps, max_online as u32);
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
/// observes and re-checks each slot from its lanes: a parked epoch
/// touches no cluster.
///
/// A slot keeps no record of its cluster: it is loaded from the cluster
/// when its lane parks and stored back into it when the lane unparks, and
/// a move stores it into its cluster and loads it at the new slot, which
/// costs O(the slots moved).
#[derive(Debug, Default)]
pub(crate) struct ParkedLanes {
    blocks: Vec<SteadyLanes<STEADY_BLOCK>>,
    len: usize,
}

impl ParkedLanes {
    /// Slots in use.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends a slot loaded from `c`, a quiescent cluster at an epoch
    /// boundary, with sub-steps of length `dt`.
    pub(crate) fn push(&mut self, c: &mut Cluster, dt: SimDuration) {
        if self.blocks.len() <= self.len / STEADY_BLOCK {
            self.blocks.push(SteadyLanes::new());
        }
        self.len += 1;
        self.load(self.len - 1, c, dt);
    }

    /// Loads slot `i` from `c`, a quiescent cluster at an epoch boundary:
    /// its epoch sums are empty, and without cpuidle states it has no
    /// residency to add (see [`ParkedLanes::close_epoch`]).
    pub(crate) fn load(&mut self, i: usize, c: &mut Cluster, dt: SimDuration) {
        debug_assert!(c.is_quiescent() && c.st.acc.substeps == 0);
        if let Some(l) = self.blocks.get_mut(i / STEADY_BLOCK) {
            l.load(i % STEADY_BLOCK, c, dt, 0);
        }
    }

    /// Stores slot `i` back into `c`, the cluster it was loaded from, with
    /// the idle residency of `ran` sub-steps of length `dt`.
    pub(crate) fn store(&self, i: usize, c: &mut Cluster, dt: SimDuration, ran: u64) {
        if let Some(l) = self.blocks.get(i / STEADY_BLOCK) {
            l.store(i % STEADY_BLOCK, c, dt, ran);
        }
    }

    /// Drops the slots from `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Runs every slot through one epoch of `steps` sub-steps of length
    /// `dt`, block by block in place.
    pub(crate) fn advance(&mut self, dt: SimDuration, steps: u64) {
        let dt_s = dt.as_secs_f64();
        let mut left = self.len;
        for l in &mut self.blocks {
            if left == 0 {
                break;
            }
            let n = left.min(STEADY_BLOCK);
            l.run(n, dt_s, steps);
            left -= n;
        }
    }

    // xtask-allow-region: no-panic-lib -- callers pass slots below `len`, which lie in blocks `push` added, and every lane index is `i % STEADY_BLOCK` into a `STEADY_BLOCK`-wide block: in bounds
    /// Slot `i`'s block and lane.
    fn slot(&self, i: usize) -> (&SteadyLanes<STEADY_BLOCK>, usize) {
        (&self.blocks[i / STEADY_BLOCK], i % STEADY_BLOCK)
    }

    /// Closes the epoch of slot `i`, which ran parked through the whole
    /// epoch, through the fold [`Cluster::end_epoch_into`] uses, and resets
    /// the slot's sums. An all-idle epoch's utilisation sums are exactly
    /// `+0.0` (folding `+0.0` is a bitwise no-op), nothing is queued or
    /// completed on a quiescent cluster, and there is no cpuidle residency
    /// without a cpuidle table. The stall flag is NOT cleared: a
    /// final-sub-step clamp stays visible until the next epoch's pre-pass,
    /// which either stores it on unpark or lets the next
    /// [`ParkedLanes::advance`] drop it.
    pub(crate) fn close_epoch(&mut self, i: usize, report: &mut ClusterReport) {
        let (l, j) = (&mut self.blocks[i / STEADY_BLOCK], i % STEADY_BLOCK);
        let mut acc = EpochAcc {
            substeps: l.substeps[j] as u32,
            util_avg_sum: l.util_avg[j],
            util_max_sum: l.util_max[j],
            energy_j: l.energy_j[j],
            transitions: l.transitions[j] as u32,
            ..EpochAcc::default()
        };
        acc.close_into(l.temp_c[j], l.level[j] as OppLevel, 0, report);
        report.completed.clear();
        l.substeps[j] = 0.0;
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
