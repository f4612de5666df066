//! A DVFS cluster: a group of identical cores sharing one frequency /
//! voltage domain, a power model and a thermal node.
//!
//! Each sub-step update is written once. [`StepState::close`] ends a
//! sub-step — energy, thermal step, throttle clamp and its transition
//! charge — and `cpuidle_scales` is the per-core cpuidle term; the stepped
//! reference [`Cluster::advance_substep`] and the busy kernel both call
//! them. Every quiescent span of a cluster without cpuidle states runs
//! through the batched idle kernel ([`advance_idle_batch`]): a lone
//! cluster's as one lane, a parked fleet's as many. The kernel and
//! [`crate::ThermalModel::step`] share the thermal relax and hysteresis.

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
    /// [`synth_parked_report`].
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
    /// the batched idle kernel. A cluster with cpuidle states runs the
    /// whole span in the busy kernel, since its cores' depths and
    /// residencies keep changing while idle.
    ///
    /// Callers guarantee that no job arrives on this cluster before the
    /// last of the `steps` sub-steps ends — the SoC's dispatch horizon.
    /// Under that condition this is **bit-identical** to calling
    /// [`Cluster::advance_substep`] `steps` times: a quiescent cluster
    /// cannot wake without a dispatch, and every value the kernels hoist
    /// is the expression the stepped loop evaluates, on the same inputs
    /// (property tests pin the equivalence). With an empty queue the busy
    /// fraction is exactly `+0.0`, so the idle kernel drops the execution
    /// loop and the utilisation folds (`x += 0.0` on non-negative sums is
    /// a bitwise no-op).
    pub(crate) fn advance_span(&mut self, start: SimTime, dt: SimDuration, steps: u64) {
        let busy = if self.is_quiescent() && self.config.idle.is_none() {
            0
        } else {
            self.advance_busy_substeps(start, dt, steps)
        };
        let idle = steps - busy;
        if idle > 0 {
            let mut lane = [self.idle_batch_begin(dt)];
            advance_idle_batch(&mut lane, dt, idle);
            let [domain] = &lane;
            self.idle_batch_restore(domain, dt * idle);
            self.st.acc.substeps += idle as u32;
        }
    }

    /// The busy kernel of [`Cluster::advance_span`]: runs sub-steps from
    /// `start` until `steps` are done or, without a cpuidle table, one
    /// leaves every core quiescent, and returns how many it ran.
    ///
    /// Each sub-step is [`Cluster::advance_substep`] with its invariants
    /// hoisted: the OPP's power constants and the cores'
    /// [`ExecConsts`] are built once per span and refreshed only when the
    /// thermal clamp lowers the level, and the [`StepState`] lives in a
    /// local. Leakage is evaluated straight-line (the temperature moves
    /// every busy sub-step, so the one-entry memo would miss).
    fn advance_busy_substeps(&mut self, start: SimTime, dt: SimDuration, steps: u64) -> u64 {
        let mut s = self.st;
        let mut lut = self.lut(s.level);
        // Every core is built with the cluster's IPC (see `Cluster::new`).
        let mut exec = ExecConsts::new(lut.freq_hz, self.config.ipc, dt);
        let dt_s = dt.as_secs_f64();
        let n = self.online as f64;
        let idle_cfg = self.config.idle.as_ref();
        let mut t = start;
        let mut done = 0;
        // xtask-hotpath: begin
        while done < steps {
            let stall = s.pending_stall.min(dt);
            s.pending_stall = SimDuration::ZERO;
            let leak_w = self
                .config
                .power
                .leakage_w_from_base(lut.leak_base, s.thermal.temp_c());
            let mut busy_sum = 0.0;
            let mut busy_max = 0.0;
            let mut power_w = lut.uncore_w;
            let mut quiescent = true;
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

            if s.close(&self.config, power_w, dt, dt_s) {
                lut = self.lut(s.level);
                exec = ExecConsts::new(lut.freq_hz, self.config.ipc, dt);
            }
            s.acc.util_avg_sum += busy_sum / n;
            s.acc.util_max_sum += busy_max;
            s.acc.substeps += 1;
            t += dt;
            done += 1;
            if quiescent && idle_cfg.is_none() {
                break;
            }
        }
        // xtask-hotpath: end
        self.st = s;
        done
    }

    /// Detaches the state the batched idle kernel needs into a flat
    /// [`IdleDomain`] record, zeroing the pending stall and *moving* the
    /// epoch accumulator into the record (the domain carries it while the
    /// lane is parked — possibly across many epochs — and the per-epoch
    /// synthesis closes it exactly where `end_epoch_into` would). Callers
    /// guarantee the cluster is quiescent with no cpuidle table;
    /// [`Cluster::idle_batch_restore`] writes the evolved state back.
    pub(crate) fn idle_batch_begin(&mut self, dt: SimDuration) -> IdleDomain {
        debug_assert!(self.is_quiescent(), "idle batch on a busy cluster");
        debug_assert!(self.config.idle.is_none(), "idle batch with cpuidle");
        // The stepped loop zeroes the stall at the top of every sub-step
        // (`stall = pending_stall.min(dt)` only shrinks an execution
        // window no quiescent core uses). Only the thermal clamp re-arms
        // it, so zeroing once up front and re-arming on a final-sub-step
        // clamp (tracked via `stall_armed`) leaves the identical state.
        self.st.pending_stall = SimDuration::ZERO;
        let max_level = self.config.opps.max_level();
        // The clamp target while throttled; `level > clamp` fires at most
        // once per parked stay (the clamp never lowers further), so the
        // constants at the clamped level can be staged up front.
        let clamp_level = max_level.saturating_sub(self.st.thermal.throttle_levels);
        IdleDomain {
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
        }
    }

    /// Reattaches a domain after the kernel ran it: thermal node, level,
    /// a stall armed by a final-sub-step clamp, and the idle residency
    /// owed for `idle_span` (residency is integer nanoseconds, so one
    /// batched add equals the per-sub-step adds exactly), and the epoch
    /// accumulator the domain carried. A parked lane restores at an epoch
    /// boundary, after the last epoch synthesis reset it.
    pub(crate) fn idle_batch_restore(&mut self, d: &IdleDomain, idle_span: SimDuration) {
        self.st.thermal = d.thermal;
        self.st.acc = d.acc;
        self.st.level = d.level;
        if d.stall_armed {
            self.st.pending_stall = self.config.transition_latency;
        }
        for core in &mut self.cores {
            core.note_idle(idle_span);
        }
    }

    /// Stages the table constants needed to synthesise
    /// [`ClusterObservation`]s for a parked cluster without touching it:
    /// everything [`Cluster::observe`] reads that the [`IdleDomain`] does
    /// not carry.
    pub(crate) fn parked_obs_consts(&self) -> ParkedObsConsts {
        ParkedObsConsts {
            num_levels: self.config.opps.len(),
            freq_range_hz: (
                self.config.opps.min_freq_hz(),
                self.config.opps.max_freq_hz(),
            ),
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

/// One quiescent cluster's state for the batched idle kernel: its thermal
/// node, level and epoch energy, plus the constants its idle sub-steps
/// read, detached from the `Cluster` so many domains can advance in one
/// interleaved loop. Produced by [`Cluster::idle_batch_begin`], consumed
/// by [`advance_idle_batch`], written back by
/// [`Cluster::idle_batch_restore`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdleDomain {
    /// The cluster's power model: the kernel routes leakage through
    /// [`PowerModel::leakage_w_from_parts`] so the expression cannot drift
    /// from the scalar path, and charges its transition energy.
    power: PowerModel,
    /// The thermal node. The kernel carries its temperature (the serial
    /// dependency chain) and throttle flag in lanes and writes them back.
    thermal: ThermalModel,
    /// `exp(−dt/τ)` of the node for the kernel's sub-step.
    decay: f64,
    /// The cluster's epoch accumulator: the kernel adds the idle energy
    /// and the clamp's transitions.
    acc: EpochAcc,
    /// Whether a final-sub-step clamp left the transition stall armed.
    stall_armed: bool,
    /// Online cores: the per-core idle term is added this many times.
    online: u32,
    level: OppLevel,
    max_level: OppLevel,
    /// The staged clamp target (see `idle_batch_begin`).
    clamp_level: OppLevel,
    /// Power constants of `level` and of `clamp_level`.
    lut: OppPowerLut,
    clamp_lut: OppPowerLut,
}

impl IdleDomain {
    /// Whether `set_level(requested)` on the parked cluster would change
    /// nothing — the same clamp-then-compare [`Cluster::set_level`]
    /// performs, evaluated against the domain's thermal state. A request
    /// beyond the table (an error in the scalar path) also reports
    /// `false`, so the lane unparks and surfaces the identical error.
    pub(crate) fn level_request_is_noop(&self, requested: OppLevel) -> bool {
        let clamp_max = self.thermal.clamp_max_level(self.max_level);
        requested <= self.max_level && requested.min(clamp_max) == self.level
    }
}

/// Everything [`Cluster::observe`] reads that an [`IdleDomain`] does not
/// carry, staged once when a lane parks. See
/// [`Cluster::parked_obs_consts`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParkedObsConsts {
    num_levels: usize,
    freq_range_hz: (u64, u64),
}

impl ParkedObsConsts {
    /// Synthesises the observation [`Cluster::observe`] would produce for
    /// the parked cluster: level, frequency, temperature and throttle
    /// state come from the domain, the table constants from the staged
    /// copy, and the queue is empty by the parked invariant.
    pub(crate) fn observe(
        &self,
        d: &IdleDomain,
        util_avg: f64,
        util_max: f64,
    ) -> ClusterObservation {
        ClusterObservation {
            util_avg,
            util_max,
            level: d.level,
            num_levels: self.num_levels,
            freq_hz: d.lut.freq_hz,
            freq_range_hz: self.freq_range_hz,
            temp_c: d.thermal.temp_c(),
            throttled: d.thermal.is_throttled(),
            queued: 0,
        }
    }
}

/// Closes the epoch of a cluster whose whole epoch of `steps` sub-steps
/// ran parked in the idle kernel, through the fold
/// [`Cluster::end_epoch_into`] uses, which resets the domain's carried
/// accumulator. An all-idle epoch's utilisation sums are
/// exactly `+0.0` (folding `+0.0` is a bitwise no-op), nothing is queued
/// or completed on a quiescent cluster, and there is no cpuidle
/// residency without a cpuidle table. `stall_armed` is NOT cleared: a
/// final-sub-step clamp stays visible until the next epoch's pre-pass,
/// which either restores it on unpark or lets the kernel drop it at
/// gather.
pub(crate) fn synth_parked_report(d: &mut IdleDomain, steps: u32, report: &mut ClusterReport) {
    d.acc.substeps = steps;
    d.acc.close_into(d.thermal.temp_c(), d.level, 0, report);
    report.completed.clear();
}

/// Advances `steps` idle sub-steps on every domain in lockstep. Each
/// domain opens with its stall flag clear: the previous epoch's flag has
/// been consumed by the unpark restore, or is discarded exactly as the
/// stepped loop zeroes the stall at the top of every sub-step. Per domain
/// this is **bit-identical** to stepped execution: each domain evaluates
/// the same straight-line sequence — leakage from the hoisted base, the
/// per-online-core idle term added in order, energy, then the thermal
/// relax and hysteresis [`crate::ThermalModel::step`] runs, then the
/// clamp — only the schedule across (independent) domains changes.
///
/// The schedule is blocked: [`IDLE_BLOCK`] domains at a time are gathered
/// into structure-of-arrays lanes ([`IdleLanes`]), stepped through the
/// whole span while the lanes sit in L1, and scattered back; a lone
/// domain (a live cluster's idle span, or a batch's last) runs one lane
/// wide instead of padded. The sub-step loops are fixed-width and
/// branch-free — every conditional update is a lane-wise select that
/// reproduces the branch outcome value exactly — so they vectorise, and
/// the serial per-domain thermal recurrence amortises its latency across
/// the whole block.
pub(crate) fn advance_idle_batch(domains: &mut [IdleDomain], dt: SimDuration, steps: u64) {
    let dt_s = dt.as_secs_f64();
    for block in domains.chunks_mut(IDLE_BLOCK) {
        if block.len() == 1 {
            advance_idle_block::<1>(block, dt_s, steps);
        } else {
            advance_idle_block::<IDLE_BLOCK>(block, dt_s, steps);
        }
    }
}

/// SoA lane width of the batched idle kernel: wide enough that the
/// vectorised sub-step chain amortises its latency across many lanes,
/// small enough that the hot lanes stay in L1.
const IDLE_BLOCK: usize = 32;

/// Structure-of-arrays lanes of one kernel block, `W` wide. Integer and
/// boolean domain state rides in `f64` lanes — the values are small
/// integers and 0.0/1.0 flags, all exactly representable — so every
/// select in the sub-step loop is over one element type and the loops
/// vectorise clean.
struct IdleLanes<const W: usize> {
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
}

/// One gather → step → scatter block of [`advance_idle_batch`], `W`
/// lanes wide. `block` holds 1..=`W` domains; tail lanes are padded with
/// copies of the first domain, stepped like the rest and never written
/// back.
fn advance_idle_block<const W: usize>(block: &mut [IdleDomain], dt_s: f64, steps: u64) {
    use std::array::from_fn;
    let n = block.len();
    // xtask-allow: no-panic-lib -- padded gather index is `j < n` or 0, and `chunks_mut` blocks are non-empty
    let at = |j: usize| &block[if j < n { j } else { 0 }];
    let mut l = IdleLanes::<W> {
        temp_c: from_fn(|j| at(j).thermal.temp_c()),
        energy_j: from_fn(|j| at(j).acc.energy_j),
        throttled: from_fn(|j| f64::from(u8::from(at(j).thermal.is_throttled()))),
        uncore_w: from_fn(|j| at(j).lut.uncore_w),
        idle_coeff: from_fn(|j| at(j).lut.idle_coeff),
        leak_base: from_fn(|j| at(j).lut.leak_base),
        level: from_fn(|j| at(j).level as f64),
        transitions: from_fn(|j| f64::from(at(j).acc.transitions)),
        // Span open: every lane starts with its stall flag clear (see
        // the kernel docs).
        stall_armed: [0.0; W],
        leak_temp_coeff: from_fn(|j| at(j).power.leak_temp_coeff),
        leak_t_ref_c: from_fn(|j| at(j).power.leak_t_ref_c),
        transition_energy_j: from_fn(|j| at(j).power.transition_energy_j),
        ambient_c: from_fn(|j| at(j).thermal.ambient_c),
        r_th_c_per_w: from_fn(|j| at(j).thermal.r_th_c_per_w),
        decay: from_fn(|j| at(j).decay),
        trip_c: from_fn(|j| at(j).thermal.throttle_temp_c),
        release_c: from_fn(|j| at(j).thermal.release_temp_c),
        online: from_fn(|j| f64::from(at(j).online)),
        max_level: from_fn(|j| at(j).max_level as f64),
        clamp_level: from_fn(|j| at(j).clamp_level as f64),
        clamp_uncore_w: from_fn(|j| at(j).clamp_lut.uncore_w),
        clamp_idle_coeff: from_fn(|j| at(j).clamp_lut.idle_coeff),
        clamp_leak_base: from_fn(|j| at(j).clamp_lut.leak_base),
    };
    let max_online = block.iter().map(|d| d.online).max().unwrap_or(0);
    // Common-case specialisations, both value-preserving: with one online
    // count the add predicates are uniformly true, and with every lane's
    // level at or below both clamp targets the fire block is select-only
    // no-ops for the whole span (the clamp never raises a level), so
    // skipping it changes nothing.
    let uniform = block.iter().all(|d| d.online == max_online);
    let no_fire = l
        .level
        .iter()
        .zip(l.clamp_level.iter().zip(&l.max_level))
        .all(|(&level, (&clamp, &max))| level <= clamp.min(max));
    match (uniform, no_fire) {
        (true, true) => idle_substeps::<W, true, true>(&mut l, dt_s, steps, max_online),
        (true, false) => idle_substeps::<W, true, false>(&mut l, dt_s, steps, max_online),
        (false, true) => idle_substeps::<W, false, true>(&mut l, dt_s, steps, max_online),
        (false, false) => idle_substeps::<W, false, false>(&mut l, dt_s, steps, max_online),
    }
    // Scatter the mutable lane state back; `zip` stops at the real lanes,
    // so the padded tail is never written back.
    for ((d, &temp_c), &throttled) in block.iter_mut().zip(&l.temp_c).zip(&l.throttled) {
        d.thermal.restore_batched(temp_c, throttled != 0.0);
    }
    for (d, &v) in block.iter_mut().zip(&l.energy_j) {
        d.acc.energy_j = v;
    }
    // Lossless round-trips: levels and transition counts are small
    // integers, far below `f64`'s exact-integer range. A level the clamp
    // moved is the staged target, whose constants the lanes switched to.
    for (d, &v) in block.iter_mut().zip(&l.level) {
        if v as OppLevel != d.level {
            d.level = v as OppLevel;
            d.lut = d.clamp_lut;
        }
    }
    for (d, &v) in block.iter_mut().zip(&l.transitions) {
        d.acc.transitions = v as u32;
    }
    for (d, &v) in block.iter_mut().zip(&l.stall_armed) {
        d.stall_armed = v != 0.0;
    }
}

/// The vectorised sub-step loop over one [`IdleLanes`] block.
///
/// `UNIFORM` (every lane shares `max_online`) drops the per-core add
/// predicates; `NO_FIRE` (no lane's level exceeds a clamp target) drops
/// the clamp block. Both are pure specialisations — see
/// [`advance_idle_block`].
#[allow(clippy::needless_range_loop)] // fixed-width lane loops vectorise as written
fn idle_substeps<const W: usize, const UNIFORM: bool, const NO_FIRE: bool>(
    l: &mut IdleLanes<W>,
    dt_s: f64,
    steps: u64,
    max_online: u32,
) {
    // xtask-allow-region: no-panic-lib -- every index is `j < W` into `[f64; W]` lanes (or a fixed `[0.0; W]` scratch): statically in bounds
    // xtask-hotpath: begin
    for i in 0..steps {
        let last = if i + 1 == steps { 1.0f64 } else { 0.0 };
        let mut term = [0.0; W];
        let mut power_w = [0.0; W];
        for j in 0..W {
            let leak_w = PowerModel::leakage_w_from_parts(
                l.leak_base[j],
                l.temp_c[j],
                l.leak_temp_coeff[j],
                l.leak_t_ref_c[j],
            );
            term[j] = PowerModel::idle_core_w_from_parts(l.idle_coeff[j], leak_w, 1.0, 1.0);
            power_w[j] = l.uncore_w[j];
        }
        // The scalar path adds the idle term once per online core; the
        // predicated add replays that exact chain lane-wise (a discarded
        // `power + term` has no effect) with a uniform trip count.
        for c in 0..max_online {
            let c_f = f64::from(c);
            for j in 0..W {
                power_w[j] = if UNIFORM || c_f < l.online[j] {
                    power_w[j] + term[j]
                } else {
                    power_w[j]
                };
            }
        }
        for j in 0..W {
            l.energy_j[j] += power_w[j] * dt_s;
            // `ThermalModel::step` with the decay factor hoisted.
            l.temp_c[j] = relax(
                l.temp_c[j],
                power_w[j],
                l.ambient_c[j],
                l.r_th_c_per_w[j],
                l.decay[j],
            );
            l.throttled[j] = hysteresis(
                l.temp_c[j],
                l.trip_c[j],
                l.release_c[j],
                l.throttled[j],
                [0.0, 1.0],
            );
        }
        if NO_FIRE {
            continue;
        }
        for j in 0..W {
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
