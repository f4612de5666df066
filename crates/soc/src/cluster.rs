//! A DVFS cluster: a group of identical cores sharing one frequency /
//! voltage domain, a power model and a thermal node.
//!
//! Each sub-step update is written once. [`StepState::close`] ends a
//! sub-step of the stepped reference [`Cluster::advance_substep`] —
//! energy, thermal step, throttle clamp and its transition charge — and
//! `cpuidle_scales` is the per-core cpuidle term the reference and the
//! execution pass share.
//!
//! **Two passes.** Temperature reaches back into execution only through
//! the throttle clamp: dispatch reads backlog and level, and a core's
//! execution reads its queue, its stall and the level. So an epoch whose
//! clamp provably cannot fire ([`Cluster::clamp_cannot_fire`], the *clamp
//! certificate*) keeps one level throughout, and runs as two passes: an
//! *execution pass* ([`Cluster::execute`]) dispatches and retires work
//! sub-step by sub-step exactly as the reference does, touching no power
//! or thermal state, and writes each online core's busy fraction (and on
//! a cluster with cpuidle states its two power scales) per sub-step into
//! [`SteadyLanes`]' rows; then a *thermal pass* runs the epoch's whole power
//! and thermal chain from sub-step 0 in the batched steady kernel
//! ([`SteadyLanes`]), one lane per cluster, evaluating per lane the
//! reference's expressions in the reference's order. An uncertified
//! cluster-epoch steps the reference.
//!
//! [`SteadyLanes::load`] and [`SteadyLanes::store`] are the one mapping
//! between a cluster's power and thermal state and a lane. A batch's
//! parked clusters stay in lanes across epochs ([`ParkedLanes`]), every
//! core idle. The kernel and [`crate::ThermalModel::step`] share the
//! thermal relax and hysteresis.

use simkit::{SimDuration, SimTime};

use crate::core_model::ExecConsts;
use crate::thermal::{hysteresis, relax};
use crate::{
    ClusterConfig, CompletedJob, CoreModel, IdleDepth, IdleStates, Job, OppLevel, PowerModel,
    SocError, ThermalModel,
};

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
/// `Copy` value.
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
    /// sub-steps) when its fast paths are off, and for a cluster-epoch the
    /// clamp certificate does not admit; the two passes its fast paths run
    /// are proven against it. It must not
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

    /// The clamp certificate: whether the throttle clamp provably cannot
    /// fire in the coming epoch of `steps` sub-steps of length `dt`,
    /// checked at the epoch's start once its levels are applied. Within an
    /// epoch only the clamp moves the level, and only down, so a certified
    /// epoch keeps one level throughout, and with it every input of its
    /// execution pass: it may run as two passes (see the module docs).
    ///
    /// It holds when the level is at or below the clamp target: the clamp
    /// lowers to the target, so it never fires there, and a node that
    /// starts throttled was clamped there by [`Cluster::set_level`].
    /// Otherwise it holds when the node is not throttled and stays below
    /// its trip point through the epoch by the horizon bound of
    /// [`stays_below_trip`]. Before a trip no sub-step draws more than
    /// `uncore + online · (max(dyn_w, idle_coeff) + leakage at the trip
    /// point)`: a core's clock term is a convex combination of `dyn_w` and
    /// `idle_coeff` scaled by at most 1, its leakage is scaled by at most
    /// 1, and leakage rises with temperature. A negative leakage
    /// coefficient, leakage base or idle coefficient, or a cpuidle saving
    /// below zero (a scale above 1), voids that argument, and leaves the
    /// cluster uncertified.
    pub(crate) fn clamp_cannot_fire(&mut self, dt: SimDuration, steps: u64) -> bool {
        if self.st.level <= self.clamp_target() {
            return true;
        }
        let lut = self.lut(self.st.level);
        let power = &self.config.power;
        let scales_at_most_one = self
            .config
            .idle
            .as_ref()
            .is_none_or(|i| i.gate_dynamic_saving >= 0.0 && i.collapse_leakage_saving >= 0.0);
        let sound = scales_at_most_one
            && power.leak_temp_coeff >= 0.0
            && lut.leak_base >= 0.0
            && lut.idle_coeff >= 0.0;
        if !sound || self.st.thermal.is_throttled() {
            return false;
        }
        let decay = self.st.thermal.decay_for(dt);
        let thermal = &self.st.thermal;
        let leak_at_trip = PowerModel::leakage_w_from_parts(
            lut.leak_base,
            thermal.throttle_temp_c,
            power.leak_temp_coeff,
            power.leak_t_ref_c,
        );
        let most_w = lut.uncore_w
            + self.online as f64 * (f64::max(lut.dyn_w, lut.idle_coeff) + leak_at_trip);
        stays_below_trip(
            thermal.temp_c(),
            thermal.steady_state_c(most_w),
            decay,
            thermal.throttle_temp_c,
            steps,
        )
    }

    /// The execution pass of sub-steps `from..from + span` of an epoch the
    /// clamp certificate admitted, this cluster in lane `j` of `lanes`:
    /// each sub-step of [`Cluster::advance_substep`] without its power and
    /// thermal chain, each online core's busy fraction written into its
    /// row for the thermal pass. Returns whether a row may hold a busy
    /// sub-step: `false` when every core was idle throughout.
    ///
    /// Callers guarantee that no job arrives on this cluster before the
    /// span's last sub-step ends (the SoC's dispatch horizon), and start
    /// with sub-step 0, which spends the pending transition stall; it is
    /// zeroed whether or not a core runs. With the level fixed, the pass
    /// keeps the reference's bits:
    ///
    /// - Each core runs ahead on its own ([`CoreModel::run_ahead`])
    ///   through its idle and full-budget sub-steps, which complete
    ///   nothing: one compare, subtract and add on its front job and
    ///   retired count per sub-step, in order, and a store of its busy
    ///   fraction; idle sub-steps store `+0.0` and add their residency
    ///   in one integer add.
    /// - Every other sub-step of a core is an *event* — a stall, a
    ///   completion — and runs [`CoreModel::advance_hoisted`] at the
    ///   level's [`ExecConsts`], bit-identical to the reference's
    ///   execution. Events run in (sub-step, core) order, so completions
    ///   enter the pooled buffer in the order the reference appends them.
    /// - A cluster with cpuidle states (or more than [`EXEC_CORES`]
    ///   online cores) runs every sub-step in that order instead, each
    ///   online core's depth scales written into its rows and its
    ///   residency credited as the reference credits it.
    /// - Offline cores take their idle residency in one integer add.
    pub(crate) fn execute<const W: usize>(
        &mut self,
        lanes: &mut SteadyLanes<W>,
        j: usize,
        start: SimTime,
        dt: SimDuration,
        (from, span): (u64, u64),
    ) -> bool {
        let quiescent = self.is_quiescent();
        let Cluster {
            config,
            cores,
            online,
            st,
            completed,
            ..
        } = self;
        let (online_cores, offline_cores) = cores.split_at_mut(*online);
        let stall = st.pending_stall.min(dt);
        st.pending_stall = SimDuration::ZERO;
        let k = lanes.exec_consts(j);
        // xtask-hotpath: begin
        for core in offline_cores.iter_mut() {
            core.note_idle(dt * span);
        }
        let n = online_cores.len();
        if config.idle.is_some() || n > EXEC_CORES {
            let dt_s = dt.as_secs_f64();
            let idle_cfg = config.idle.as_ref();
            let mut stall = stall;
            for i in 0..span {
                let t = start + dt * i;
                for (c, core) in online_cores.iter_mut().enumerate() {
                    let scales = cpuidle_scales(idle_cfg, core.idle_for(), dt_s, &mut st.acc);
                    let busy = core.advance_hoisted(t, dt, &k, stall, completed);
                    lanes.write_busy(j, from + i, c, busy);
                    lanes.write_scales(j, from + i, c, scales);
                }
                stall = SimDuration::ZERO;
            }
            return true;
        }
        // Each core's next sub-step of the span to run; a stall sends
        // every core through sub-step 0 as an event.
        let mut next = [0u64; EXEC_CORES];
        if stall.is_zero() {
            for (c, core) in online_cores.iter_mut().enumerate() {
                let ahead = lanes.busy_run(j, from, c, span);
                if let Some(next) = next.get_mut(c) {
                    *next = core.run_ahead(&k, dt, ahead);
                }
            }
        }
        loop {
            let e = next.iter().take(n).copied().min().unwrap_or(span);
            if e >= span {
                break;
            }
            let t = start + dt * e;
            let stall = if e == 0 { stall } else { SimDuration::ZERO };
            for (c, (core, next)) in online_cores.iter_mut().zip(next.iter_mut()).enumerate() {
                if *next != e {
                    continue;
                }
                let busy = core.advance_hoisted(t, dt, &k, stall, completed);
                lanes.write_busy(j, from + e, c, busy);
                let ahead = lanes.busy_run(j, from + e + 1, c, span - e - 1);
                *next = e + 1 + core.run_ahead(&k, dt, ahead);
            }
        }
        // xtask-hotpath: end
        !quiescent
    }

    /// Whether the execution pass may leave this cluster until its next
    /// dispatch: every core quiescent, so each sub-step until a job
    /// arrives is idle, and no cpuidle states, whose depths move while
    /// idle. Dispatch reads no state such a cluster's idle sub-steps
    /// change (its backlog stays zero and its level fixed), so
    /// [`Cluster::idle_through`] may run them late.
    pub(crate) fn stays_idle(&self) -> bool {
        self.config.idle.is_none() && self.is_quiescent()
    }

    /// The execution pass of sub-steps `from..from + span` on a cluster
    /// that [`Cluster::stays_idle`], this cluster in lane `j` of `lanes`:
    /// every online core's rows `+0.0`, every core's residency in one
    /// integer add, and the pending transition stall spent if the span
    /// holds sub-step 0 (a stall only shrinks an execution window).
    pub(crate) fn idle_through<const W: usize>(
        &mut self,
        lanes: &mut SteadyLanes<W>,
        j: usize,
        dt: SimDuration,
        (from, span): (u64, u64),
    ) {
        if span == 0 {
            return;
        }
        self.st.pending_stall = SimDuration::ZERO;
        for (c, core) in self.cores.iter_mut().enumerate() {
            if c < self.online {
                lanes.busy_run(j, from, c, span).fill(0.0);
            }
            core.note_idle(dt * span);
        }
    }

    /// The level the throttle clamp lowers to: a level at or below it
    /// never clamps.
    fn clamp_target(&self) -> OppLevel {
        let max_level = self.config.opps.max_level();
        max_level.saturating_sub(self.st.thermal.throttle_levels)
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

/// Online cores a cluster's execution pass runs core by core: each keeps
/// its next sub-step in a fixed array of this many. A wider cluster runs
/// sub-step by sub-step.
const EXEC_CORES: usize = 16;

/// SoA lane width of the steady kernel: wide enough that the vectorised
/// sub-step chain amortises its latency across many lanes, small enough
/// that the hot lanes stay in L1.
pub(crate) const STEADY_BLOCK: usize = 32;

/// The horizon bound both clamp certificates share
/// ([`Cluster::clamp_cannot_fire`] for live epochs, the parked lanes' own
/// for all-idle ones): whether a node at `temp_c`, not throttled, stays
/// below its trip point `trip_c` through `steps` sub-steps that each relax
/// it by `decay` towards a steady state of at most `t_inf_max`. Each relax
/// step lands between its start and its steady state, so by induction
/// every sub-step's temperature is at most `temp_c + max(0, t_inf_max −
/// temp_c) · (1 − decayⁿ)`.
///
/// That bound must clear the trip point by a margin above the epoch's
/// roundings. Each sub-step's power is a sum of about `6 · online + 2`
/// rounded non-negative terms and its relax rounds five times, so a
/// sub-step adds at most `(6 · online + 7) · 2⁻⁵³ · M` to the error, where
/// `M = |temp_c| + |t_inf_max| + |trip_c|` bounds every temperature in the
/// chain; the relax contracts earlier errors (`decay ≤ 1`), so `n`
/// sub-steps and the bound's own roundings stay below `(n + 1) · (6 ·
/// online + 16) · 2⁻⁵³ · M`. The margin `(n + 1) · 10⁻⁹ · M` exceeds that
/// for any cluster of fewer than a million cores.
fn stays_below_trip(temp_c: f64, t_inf_max: f64, decay: f64, trip_c: f64, steps: u64) -> bool {
    let n = i32::try_from(steps).unwrap_or(i32::MAX);
    let bound = temp_c + f64::max(0.0, t_inf_max - temp_c) * (1.0 - decay.powi(n));
    let margin = (steps as f64 + 1.0) * 1e-9 * (temp_c.abs() + t_inf_max.abs() + trip_c.abs());
    bound + margin < trip_c
}

/// Structure-of-arrays lanes of one kernel block, `W` wide. Integer and
/// boolean cluster state rides in `f64` lanes — the values are small
/// integers and 0.0/1.0 flags, all exactly representable — so every
/// select in the sub-step loop is over one element type and the loops
/// vectorise clean.
///
/// A live block also carries the rows its execution passes write
/// ([`Cluster::execute`]) and its thermal pass reads: online core `c`'s
/// busy fraction at sub-step `i`, and with cpuidle states its two power
/// scales, for each lane. They are lane-major — lane `j`'s value of core
/// `c` at sub-step `i` sits at `(j · stride + c) · steps + i` — so a
/// cluster's execution pass writes a few contiguous runs, and the thermal
/// pass gathers each (sub-step, core) row across the lanes. The rows are
/// bounded by one block, `W × sub-steps × cores`, and reused across
/// epochs; a parked block has none.
///
/// [`SteadyLanes::load`] and [`SteadyLanes::store`] are the one mapping
/// between a [`Cluster`]'s power and thermal state and a lane: loading a
/// cluster, running the lane, and storing it back leaves the cluster as
/// the kernel ran it, and loading a cluster that a lane was stored into
/// reproduces every value the kernel reads of that lane.
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
    dyn_w: [f64; W],
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
    /// Whether the lane's cluster has cpuidle states (its scale rows).
    scaled: [f64; W],
    // Each lane's epoch sub-step count (added per run, not per sub-step)
    // and utilisation sums.
    substeps: [f64; W],
    util_avg: [f64; W],
    util_max: [f64; W],
    /// Each live lane's execution constants at its level.
    exec: [ExecConsts; W],
    // A live block's rows: `stride` cores by `steps` sub-steps per lane.
    stride: usize,
    steps: usize,
    busy: Vec<f64>,
    dyn_scale: Vec<f64>,
    leak_scale: Vec<f64>,
}

impl<const W: usize> SteadyLanes<W> {
    /// Lanes without rows, for parked blocks.
    pub(crate) fn new() -> Self {
        Self::with_rows(0, 0, false)
    }

    /// Lanes with rows for a live block: epochs of `steps` sub-steps on
    /// clusters of at most `cores` cores, with scale rows when some cluster
    /// has cpuidle states (`cpuidle`).
    pub(crate) fn with_rows(cores: usize, steps: u64, cpuidle: bool) -> Self {
        let z = [0.0; W];
        let rows = W * cores * steps as usize;
        let scale_rows = if cpuidle { rows } else { 0 };
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
            dyn_w: z,
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
            scaled: z,
            substeps: z,
            util_avg: z,
            util_max: z,
            exec: [ExecConsts::default(); W],
            stride: cores,
            steps: steps as usize,
            busy: vec![0.0; rows],
            dyn_scale: vec![0.0; scale_rows],
            leak_scale: vec![0.0; scale_rows],
        }
    }

    /// Admits `c`, its levels applied at an epoch's start, into lane `j`
    /// for that epoch of `steps` sub-steps of length `dt` in two passes:
    /// when the clamp certificate holds and the lane and its rows fit the
    /// cluster, loads it, stages its execution constants and returns
    /// `true`; otherwise the caller steps the reference. The execution
    /// pass leaves every value [`SteadyLanes::load`] reads as it was.
    pub(crate) fn admit(&mut self, j: usize, c: &mut Cluster, dt: SimDuration, steps: u64) -> bool {
        let fits = j < W
            && c.online <= self.stride
            && self.steps as u64 == steps
            && self.busy.len() == W * self.stride * self.steps
            && (c.config.idle.is_none() || self.dyn_scale.len() == self.busy.len());
        if !fits || !c.clamp_cannot_fire(dt, steps) {
            return false;
        }
        self.load(j, c, dt);
        if let Some(k) = self.exec.get_mut(j) {
            // Every core is built with the cluster's IPC (see `Cluster::new`).
            *k = ExecConsts::new(c.lut(c.st.level).freq_hz, c.config.ipc, dt);
        }
        true
    }

    /// Lane `j`'s execution constants, staged by [`SteadyLanes::admit`].
    pub(crate) fn exec_consts(&self, j: usize) -> ExecConsts {
        self.exec.get(j).copied().unwrap_or_default()
    }

    /// Where lane `j`'s value of core `c` at sub-step `i` sits in the rows.
    #[inline(always)]
    fn row(&self, j: usize, c: usize, i: u64) -> usize {
        (j * self.stride + c) * self.steps + i as usize
    }

    /// Writes lane `j`'s busy fraction of core `c` at sub-step `i`.
    #[inline(always)]
    fn write_busy(&mut self, j: usize, i: u64, c: usize, busy: f64) {
        let at = self.row(j, c, i);
        if let Some(slot) = self.busy.get_mut(at) {
            *slot = busy;
        }
    }

    /// Writes lane `j`'s cpuidle power scales of core `c` at sub-step `i`.
    #[inline(always)]
    fn write_scales(&mut self, j: usize, i: u64, c: usize, (dyn_scale, leak_scale): (f64, f64)) {
        let at = self.row(j, c, i);
        if let (Some(d), Some(l)) = (self.dyn_scale.get_mut(at), self.leak_scale.get_mut(at)) {
            (*d, *l) = (dyn_scale, leak_scale);
        }
    }

    /// Lane `j`'s busy fractions of core `c` at sub-steps `i..i + len`.
    #[inline(always)]
    pub(crate) fn busy_run(&mut self, j: usize, i: u64, c: usize, len: u64) -> &mut [f64] {
        let at = self.row(j, c, i);
        self.busy.get_mut(at..at + len as usize).unwrap_or_default()
    }

    // xtask-allow-region: no-panic-lib -- every caller passes a lane `j < W` (a block position below `W`, or `i % STEADY_BLOCK` into a `STEADY_BLOCK`-wide block) into `[f64; W]` lanes: in bounds
    /// Loads `c` into lane `j` for a run of sub-steps of length `dt`: the
    /// thermal node, level and epoch sums, and the power constants of the
    /// level and of the clamp target (`level > clamp` fires at most once
    /// per run — the clamp never lowers further — so those of the clamped
    /// level can be staged up front). The pending stall stays with the
    /// cluster.
    #[inline(always)]
    pub(crate) fn load(&mut self, j: usize, c: &mut Cluster, dt: SimDuration) {
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
        self.dyn_w[j] = lut.dyn_w;
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
        self.scaled[j] = f64::from(u8::from(c.config.idle.is_some()));
        self.substeps[j] = f64::from(acc.substeps);
        self.util_avg[j] = acc.util_avg_sum;
        self.util_max[j] = acc.util_max_sum;
    }

    /// Stores lane `j` back into `c`, the cluster it was loaded from:
    /// thermal node, level, epoch sums, and a stall armed by a
    /// final-sub-step clamp. The cores are not touched: a live cluster's
    /// execution pass advanced them, and a parked one's owe only idle
    /// residency ([`ParkedLanes::store`]).
    #[inline(always)]
    pub(crate) fn store(&self, j: usize, c: &mut Cluster) {
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
    }

    /// Whether parked lane `j`'s clamp cannot fire in a run of `steps`
    /// sub-steps: its level is at or below both clamp targets, or its
    /// node, not throttled, stays below its trip point by the horizon
    /// bound of [`stays_below_trip`]. An all-idle lane draws `uncore +
    /// online · (idle_coeff + leakage)`, at most that with the leakage at
    /// the trip point before a trip, leakage rising with temperature.
    #[inline(always)]
    fn cannot_fire(&self, j: usize, steps: u64) -> bool {
        if self.level[j] <= f64::min(self.clamp_level[j], self.max_level[j]) {
            return true;
        }
        let sound = self.leak_temp_coeff[j] >= 0.0 && self.leak_base[j] >= 0.0;
        if !sound || self.throttled[j] != 0.0 {
            return false;
        }
        let leak_at_trip = PowerModel::leakage_w_from_parts(
            self.leak_base[j],
            self.trip_c[j],
            self.leak_temp_coeff[j],
            self.leak_t_ref_c[j],
        );
        let most_w = self.uncore_w[j] + self.online[j] * (self.idle_coeff[j] + leak_at_trip);
        stays_below_trip(
            self.temp_c[j],
            self.ambient_c[j] + most_w * self.r_th_c_per_w[j],
            self.decay[j],
            self.trip_c[j],
            steps,
        )
    }

    /// Opens a run of lanes `0..n` (`n <= W`) through an epoch of `steps`
    /// sub-steps: adds the sub-steps to each lane's count, and clears every
    /// stall flag — a flag armed before has been consumed by a store, or is
    /// discarded exactly as the stepped loop zeroes the stall at the top of
    /// every sub-step. Returns whether the lanes share one online count,
    /// and the largest. Lanes from `n` on hold stale values: they are
    /// stepped, never read, and do not pick the variant.
    fn open(&mut self, n: usize, steps: u64) -> (bool, u32) {
        self.stall_armed = [0.0; W];
        let (mut min_online, mut max_online) = (f64::INFINITY, 0.0);
        for j in 0..n.min(W) {
            min_online = f64::min(min_online, self.online[j]);
            max_online = f64::max(max_online, self.online[j]);
            self.substeps[j] += steps as f64;
        }
        (min_online == max_online, max_online as u32)
    }

    /// Runs parked lanes `0..n`, every core idle, through an epoch of
    /// `steps` sub-steps of `dt_s` seconds, in the fastest variant of
    /// [`steady_substeps`] that gives them the same values.
    pub(crate) fn run_parked(&mut self, n: usize, dt_s: f64, steps: u64) {
        let (uniform, cores) = self.open(n, steps);
        let no_fire = (0..n.min(W)).all(|j| self.cannot_fire(j, steps));
        self.run_variant::<false, false>(n, (uniform, no_fire), (dt_s, steps, cores));
    }

    /// The thermal pass of live lanes `0..n`, each admitted by the clamp
    /// certificate, so the clamp fires in none: runs their whole epoch of
    /// `steps` sub-steps of `dt_s` seconds from sub-step 0, reading the
    /// rows their execution passes wrote. Without a busy row (`busy`) or a
    /// scale row (`scaled`) the block runs the all-idle variant, whose
    /// idle term is bitwise the busy-row term at `+0.0`.
    pub(crate) fn run_live(&mut self, n: usize, dt_s: f64, steps: u64, busy: bool, scaled: bool) {
        let (uniform, cores) = self.open(n, steps);
        let variant = (uniform, true);
        let span = (dt_s, steps, cores);
        match (busy || scaled, scaled) {
            (false, _) => self.run_variant::<false, false>(n, variant, span),
            (true, false) => self.run_variant::<true, false>(n, variant, span),
            (true, true) => self.run_variant::<true, true>(n, variant, span),
        }
    }

    /// Runs lanes `0..n` through `span` — `(dt_s, steps, max_online)` — in
    /// the `variant` `(UNIFORM, NO_FIRE)` of [`steady_substeps`] with
    /// `LIVE` and `SCALED`. One or two lanes in a wide block step only
    /// their own lanes, as a lone SoC's one or two do: stepping the whole
    /// block costs more.
    fn run_variant<const LIVE: bool, const SCALED: bool>(
        &mut self,
        n: usize,
        variant: (bool, bool),
        span: (f64, u64, u32),
    ) {
        if W > 2 && n <= 2 {
            self.run_width::<2, LIVE, SCALED>(variant, span);
        } else {
            self.run_width::<W, LIVE, SCALED>(variant, span);
        }
    }

    /// [`SteadyLanes::run_variant`] over lanes `0..V` (`V <= W`).
    fn run_width<const V: usize, const LIVE: bool, const SCALED: bool>(
        &mut self,
        variant: (bool, bool),
        (dt_s, steps, cores): (f64, u64, u32),
    ) {
        let l = self;
        match variant {
            (true, true) => {
                steady_substeps::<W, V, true, true, LIVE, SCALED>(l, dt_s, steps, cores)
            }
            (true, false) => {
                steady_substeps::<W, V, true, false, LIVE, SCALED>(l, dt_s, steps, cores)
            }
            (false, true) => {
                steady_substeps::<W, V, false, true, LIVE, SCALED>(l, dt_s, steps, cores)
            }
            (false, false) => {
                steady_substeps::<W, V, false, false, LIVE, SCALED>(l, dt_s, steps, cores)
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
    /// residency to add (see [`ParkedLanes::close_epoch`]). A pending
    /// stall moves into the slot's stall flag: an idle run never uses it
    /// (`stall = pending_stall.min(dt)` only shrinks an execution window),
    /// and the next run clears the flag, so only a final-sub-step clamp
    /// re-arms it for [`ParkedLanes::store`].
    pub(crate) fn load(&mut self, i: usize, c: &mut Cluster, dt: SimDuration) {
        debug_assert!(c.is_quiescent() && c.st.acc.substeps == 0 && c.config.idle.is_none());
        if let Some(l) = self.blocks.get_mut(i / STEADY_BLOCK) {
            let j = i % STEADY_BLOCK;
            l.load(j, c, dt);
            if let Some(armed) = l.stall_armed.get_mut(j) {
                *armed = f64::from(u8::from(!c.st.pending_stall.is_zero()));
            }
            c.st.pending_stall = SimDuration::ZERO;
        }
    }

    /// Stores slot `i` back into `c`, the cluster it was loaded from, with
    /// the idle residency of `ran` sub-steps of length `dt` on every core
    /// (integer nanoseconds, so one add equals the per-sub-step adds
    /// exactly).
    pub(crate) fn store(&self, i: usize, c: &mut Cluster, dt: SimDuration, ran: u64) {
        if let Some(l) = self.blocks.get(i / STEADY_BLOCK) {
            l.store(i % STEADY_BLOCK, c);
            for core in &mut c.cores {
                core.note_idle(dt * ran);
            }
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
            l.run_parked(n, dt_s, steps);
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
/// [`SteadyLanes`] block, through an epoch of `steps` sub-steps from
/// sub-step 0.
///
/// Per lane this is **bit-identical** to stepped execution: each lane
/// evaluates the straight-line sequence of [`Cluster::advance_substep`]
/// and [`StepState::close`] — leakage from the hoisted base, each online
/// core's term added in core order, energy, the thermal relax and
/// hysteresis [`crate::ThermalModel::step`] runs, the clamp, and the
/// utilisation folds — only the schedule across (independent) lanes
/// changes. The loops are fixed-width and branch-free — every conditional
/// update is a lane-wise select that reproduces the branch outcome value
/// exactly — so they vectorise, and the serial per-lane thermal recurrence
/// amortises its latency across the block.
///
/// `LIVE` lanes read each core's busy fraction `b` from the rows and add
/// `core_w_from_clock(core_clock_w(dyn_w, idle_coeff, b, dyn_scale), leak,
/// leak_scale)`, the reference's per-core expression; their utilisation
/// sums fold `busy_sum / online` and `busy_max`, each folded from `+0.0`
/// in core order. `SCALED` reads the scales of lanes with cpuidle states
/// from their rows; every other lane's are `1.0`, as in the reference.
/// Otherwise every core is idle and adds the one idle term, which is
/// bitwise the busy-row term at `b = +0.0`, with the folds `+0.0` no-ops.
/// `UNIFORM` (every lane shares `max_online`) drops the per-core add
/// predicates; `NO_FIRE` (no lane's clamp can fire, as no live lane's can)
/// drops the clamp block. All are pure specialisations.
#[allow(clippy::needless_range_loop)] // fixed-width lane loops vectorise as written
#[inline(always)]
fn steady_substeps<
    const W: usize,
    const V: usize,
    const UNIFORM: bool,
    const NO_FIRE: bool,
    const LIVE: bool,
    const SCALED: bool,
>(
    l: &mut SteadyLanes<W>,
    dt_s: f64,
    steps: u64,
    max_online: u32,
) {
    // The lanes stepped: `V`, within the block (a narrow variant of a
    // one-lane block is never called, but is still built).
    let lanes = V.min(W);
    let cores = max_online as usize;
    // Lane `j`'s rows start at `j · lane_rows`.
    let lane_rows = l.stride * l.steps;
    // xtask-allow-region: no-panic-lib -- every lane index is `j < lanes = min(V, W)` into `[f64; W]` lanes or a fixed `[_; V]` scratch; a `LIVE` block's rows are `W × stride × steps` long with `max_online <= stride` and `steps` its epoch's (`SteadyLanes::admit`), so row `j · lane_rows + c · steps + i` with `i < steps`, `c < max_online` is in bounds
    // xtask-hotpath: begin
    for i in 0..steps {
        let last = if i + 1 == steps { 1.0f64 } else { 0.0 };
        let mut leak_w = [0.0; V];
        let mut idle_term = [0.0; V];
        let mut power_w = [0.0; V];
        let mut busy_sum = [0.0; V];
        let mut busy_max = [0.0; V];
        for j in 0..lanes {
            leak_w[j] = PowerModel::leakage_w_from_parts(
                l.leak_base[j],
                l.temp_c[j],
                l.leak_temp_coeff[j],
                l.leak_t_ref_c[j],
            );
            if !LIVE {
                idle_term[j] =
                    PowerModel::idle_core_w_from_parts(l.idle_coeff[j], leak_w[j], 1.0, 1.0);
            }
            power_w[j] = l.uncore_w[j];
        }
        // The scalar paths add one term per online core, in core order;
        // the predicated add replays that exact chain lane-wise (a
        // discarded `power + term` has no effect) with a uniform trip
        // count.
        for c in 0..cores {
            let c_f = c as f64;
            if !LIVE {
                for j in 0..lanes {
                    power_w[j] = if UNIFORM || c_f < l.online[j] {
                        power_w[j] + idle_term[j]
                    } else {
                        power_w[j]
                    };
                }
                continue;
            }
            // Gather the (sub-step, core) row across the lanes.
            let at = c * l.steps + i as usize;
            let (mut busy, mut dyn_scale, mut leak_scale) = ([0.0; V], [1.0; V], [1.0; V]);
            for j in 0..lanes {
                busy[j] = l.busy[j * lane_rows + at];
                if SCALED && l.scaled[j] != 0.0 {
                    dyn_scale[j] = l.dyn_scale[j * lane_rows + at];
                    leak_scale[j] = l.leak_scale[j * lane_rows + at];
                }
            }
            for j in 0..lanes {
                let (b, ds, ls) = (busy[j], dyn_scale[j], leak_scale[j]);
                let clock_w = PowerModel::core_clock_w(l.dyn_w[j], l.idle_coeff[j], b, ds);
                let term = PowerModel::core_w_from_clock(clock_w, leak_w[j], ls);
                let on = UNIFORM || c_f < l.online[j];
                power_w[j] = if on { power_w[j] + term } else { power_w[j] };
                busy_sum[j] = if on { busy_sum[j] + b } else { busy_sum[j] };
                busy_max[j] = if on {
                    f64::max(busy_max[j], b)
                } else {
                    busy_max[j]
                };
            }
        }
        for j in 0..lanes {
            l.energy_j[j] += power_w[j] * dt_s;
            // `ThermalModel::step` with the decay factor hoisted.
            let temp_c = relax(
                l.temp_c[j],
                power_w[j],
                l.ambient_c[j],
                l.r_th_c_per_w[j],
                l.decay[j],
            );
            l.throttled[j] = hysteresis(
                temp_c,
                l.trip_c[j],
                l.release_c[j],
                l.throttled[j],
                [0.0, 1.0],
            );
            l.temp_c[j] = temp_c;
            if LIVE {
                l.util_avg[j] += busy_sum[j] / l.online[j];
                l.util_max[j] += busy_max[j];
            }
        }
        if NO_FIRE {
            continue;
        }
        for j in 0..lanes {
            let clamp = if l.throttled[j] != 0.0 {
                l.clamp_level[j]
            } else {
                l.max_level[j]
            };
            let fire = l.level[j] > clamp;
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

    /// A random cluster for the clamp certificate: either cluster of the
    /// xu3 preset, or the `symmetric_quad` or `tiny_test` one, sometimes
    /// with cpuidle states, on a random thermal node whose trip point may
    /// sit a fraction of a degree over ambient and whose time constant may
    /// be a few epochs, so that the clamp fires often and the horizon bound
    /// (not only the level test) decides.
    fn random_cluster(rng: &mut simkit::SimRng) -> Cluster {
        let preset = match rng.uniform_usize(3) {
            0 => SocConfig::odroid_xu3_like(),
            1 => SocConfig::symmetric_quad(),
            _ => SocConfig::tiny_test(),
        }
        .unwrap();
        let n = preset.clusters.len();
        let mut cfg = preset.clusters[rng.uniform_usize(n)].clone();
        if rng.chance(0.25) {
            cfg.idle = Some(crate::IdleStates::mobile_cpuidle());
        }
        let ambient = rng.uniform_in(15.0, 35.0);
        let trip = ambient + rng.uniform_in(0.1, 10.0);
        cfg.thermal = crate::ThermalModel::new(
            rng.uniform_in(2.0, 20.0),
            rng.uniform_in(0.002, 0.08),
            ambient,
            trip,
            trip - rng.uniform_in(0.01, 0.5),
            1 + rng.uniform_usize(4),
        );
        Cluster::new(cfg)
    }

    /// Runs a random cluster for `epochs` epochs through the stepped
    /// reference — levels mostly above the clamp target, jobs of random
    /// size in some epochs and none in others, hotplug — checking the clamp certificate at each epoch's
    /// start against what the epoch did: wherever the certificate holds,
    /// the clamp must not fire. Returns the epochs the horizon bound
    /// certified above the clamp target, and the epochs whose clamp
    /// fired.
    fn check_certificate(seed: u64, epochs: usize) -> (usize, usize) {
        let mut rng = simkit::SimRng::seed_from(seed);
        let mut c = random_cluster(&mut rng);
        let (dt, steps) = (SimDuration::from_millis(1), 20);
        let (max, cores) = (c.config().opps.max_level(), c.num_cores());
        let mut t = SimTime::ZERO;
        let (mut by_bound, mut fired) = (0, 0);
        for e in 0..epochs as u64 {
            if rng.chance(0.05) {
                c.set_online(1 + rng.uniform_usize(cores), 0).unwrap();
            }
            let level = if rng.chance(0.8) {
                max - rng.uniform_usize(3).min(max)
            } else {
                rng.uniform_usize(max + 1)
            };
            c.set_level(level, 0).unwrap();
            let arrivals = if rng.chance(0.3) {
                0
            } else {
                1 + rng.uniform_usize(6)
            };
            for k in 0..arrivals {
                let work = rng.uniform_in(1e5, 8e7) as u64;
                c.enqueue_on(rng.uniform_usize(cores), job(e * 8 + k as u64, work));
            }
            let (start, above) = (c.level(), c.level() > c.clamp_target());
            let certified = c.clamp_cannot_fire(dt, steps);
            for _ in 0..steps {
                c.advance_substep(t, dt);
                t += dt;
            }
            let clamped = c.level() < start;
            assert!(
                !(certified && clamped),
                "seed {seed}, epoch {e}: certified, yet the clamp fired ({start} -> {})",
                c.level()
            );
            by_bound += usize::from(certified && above);
            fired += usize::from(clamped);
            c.end_epoch();
        }
        (by_bound, fired)
    }

    proptest::proptest! {
        /// The clamp certificate is sound: no cluster-epoch it admits
        /// clamps in the stepped reference.
        #[test]
        fn prop_clamp_certificate_is_sound(seed in proptest::arbitrary::any::<u64>()) {
            check_certificate(seed, 150);
        }
    }

    /// The certificate test reaches both of its sides: the horizon bound
    /// certifies epochs above the clamp target, and the clamp fires in
    /// many of the epochs it refused.
    #[test]
    fn clamp_certificate_cases_are_reached() {
        let (mut by_bound, mut fired) = (0, 0);
        for seed in 0..40 {
            let (b, f) = check_certificate(seed, 150);
            by_bound += b;
            fired += f;
        }
        assert!(by_bound > 500, "{by_bound} epochs certified by the bound");
        assert!(fired > 50, "{fired} epochs clamped");
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
