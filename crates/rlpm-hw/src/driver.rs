//! The CPU-side driver: a [`Governor`] that makes its decisions by
//! talking to the policy engine over the register interface — the
//! closed-loop form of the paper's hardware-implemented policy.

use std::sync::Arc;

use governors::{Governor, SystemState};
use simkit::stats::Running;
use simkit::{obs, SimDuration};
use soc::LevelRequest;

use rlpm::reward::{EpochOutcome, RewardFn};
use rlpm::{Action, ActionSpace, Predictor, RlConfig, StateIndex, StateSpace};

use crate::mmio::{regs, CTRL_CLEAR_SEU, CTRL_START_DECIDE, CTRL_START_UPDATE, STATUS_SEU};
use crate::{AxiLiteBus, HwConfig, PolicyEngine, PolicyMmio};

/// Decisions the hardware policy engine produced across all drivers.
static HW_DECISIONS: obs::Counter = obs::Counter::new("hw.decisions");
/// Q-table SEUs the recovery machinery detected.
static HW_SEUS: obs::Counter = obs::Counter::new("hw.seus_detected");
/// Golden-copy table reloads performed over the bus.
static HW_RELOADS: obs::Counter = obs::Counter::new("hw.table_reloads");

/// Why a bulk Q-table load was rejected or rolled back.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TableLoadError {
    /// The software table's geometry does not match the engine's BRAMs.
    SizeMismatch {
        /// Entries the engine's table holds.
        expected: usize,
        /// Entries the software table supplied.
        got: usize,
    },
    /// The post-load parity scrub found a corrupted entry — the load
    /// itself was hit by an upset and must not be trusted.
    ParityMismatch {
        /// Linear address of the first failing entry.
        addr: usize,
    },
}

impl std::fmt::Display for TableLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableLoadError::SizeMismatch { expected, got } => write!(
                f,
                "table load size mismatch: engine holds {expected} entries, software supplied {got}"
            ),
            TableLoadError::ParityMismatch { addr } => {
                write!(f, "post-load parity scrub failed at entry {addr}")
            }
        }
    }
}

impl std::error::Error for TableLoadError {}

/// How the CPU learns that the engine finished.
///
/// Polling reads `STATUS` until `DONE`; each poll is a full bus read, and
/// the first one cannot observe completion earlier than the engine's own
/// compute time. An interrupt line skips the status traffic entirely at
/// the cost of the SoC's IRQ delivery latency — cheaper for this engine
/// only when the interrupt path is faster than one status read, which is
/// exactly the trade-off E4's distribution table shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverMode {
    /// Busy-poll `STATUS` over the bus.
    #[default]
    Polling,
    /// Wait for the completion interrupt (fixed delivery latency), then
    /// read the result.
    Interrupt {
        /// IRQ delivery + handler entry latency.
        irq_latency: SimDuration,
    },
}

/// A governor whose brain is the hardware engine.
#[derive(Debug, Clone)]
pub struct HwPolicyDriver {
    bus: AxiLiteBus<PolicyMmio>,
    mode: DriverMode,
    states: StateSpace,
    actions: ActionSpace,
    predictor: Predictor,
    reward_fn: RewardFn,
    prev: Option<(StateIndex, Action)>,
    training: bool,
    /// Per-epoch end-to-end decision latency (bus + fabric).
    latency: Running,
    engine_clock_hz: u64,
    /// Golden copy of the last successfully loaded table (raw Q16.16
    /// bits), replayed over the bus on SEU recovery. Empty until
    /// [`HwPolicyDriver::load_table`] succeeds. Clones of a driver share
    /// it: a load replaces it whole and nothing writes it in place.
    golden: Arc<[u32]>,
    seus_detected: u64,
    table_reloads: u64,
}

impl HwPolicyDriver {
    /// Builds the driver, engine and bus for a policy configuration.
    pub fn new(hw: HwConfig, rl: &RlConfig) -> Self {
        let engine = PolicyEngine::new(hw, rl);
        let engine_clock_hz = engine.config().clock_hz;
        HwPolicyDriver {
            bus: AxiLiteBus::new(PolicyMmio::new(engine)),
            mode: DriverMode::Polling,
            states: StateSpace::new(rl),
            actions: ActionSpace::new(rl),
            predictor: Predictor::new(rl),
            reward_fn: RewardFn::from_config(rl),
            prev: None,
            training: true,
            latency: Running::new(),
            engine_clock_hz,
            golden: Arc::default(),
            seus_detected: 0,
            table_reloads: 0,
        }
    }

    /// Enables/disables on-line training (update transactions).
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Selects how completion is detected (polling vs interrupt).
    pub fn set_mode(&mut self, mode: DriverMode) {
        self.mode = mode;
    }

    /// The completion-detection mode in use.
    pub fn mode(&self) -> DriverMode {
        self.mode
    }

    /// Time from issuing `CTRL` to knowing the engine is done, charged
    /// according to the driver mode, together with the `STATUS` bits
    /// observed at completion. The engine's compute time overlaps with
    /// the wait in either mode.
    ///
    /// Polling gets the status from the read it already performs (no
    /// extra traffic); interrupt mode models the SEU flag as the error
    /// IRQ line the handler samples — a wire level, not a bus
    /// transaction.
    fn completion_wait(&mut self, compute: SimDuration) -> (u32, SimDuration) {
        match self.mode {
            DriverMode::Polling => {
                // The status read cannot complete before the engine does.
                let (status, t) = self.bus.read(regs::STATUS);
                (status, compute.max(t))
            }
            DriverMode::Interrupt { irq_latency } => {
                let seu = u32::from(self.bus.device().engine().seu_detected());
                (crate::STATUS_DONE | (seu << 2), compute + irq_latency)
            }
        }
    }

    /// Loads a software-trained Q-table into the engine over the `QADDR`/
    /// `QDATA` port, exactly as the real driver would after offline
    /// training, then scrubs the device table against its parity bits.
    /// On success the driver keeps a golden copy for SEU recovery and
    /// returns the bus time the bulk load took.
    ///
    /// # Errors
    ///
    /// [`TableLoadError::SizeMismatch`] when the table's geometry differs
    /// from the engine's; [`TableLoadError::ParityMismatch`] when the
    /// post-load scrub finds a corrupted entry (the golden copy is left
    /// untouched so a retry or recovery path stays possible).
    pub fn load_table(&mut self, table: &rlpm::QTable) -> Result<SimDuration, TableLoadError> {
        let expected = self.bus.device().engine().agent().table().num_entries();
        let got = table.num_states() * table.num_actions();
        if expected != got {
            return Err(TableLoadError::SizeMismatch { expected, got });
        }
        let mut spent = SimDuration::ZERO;
        spent += self.bus.write(regs::QADDR, 0);
        let mut golden = Vec::with_capacity(got);
        for v in table.quantized() {
            let bits = v.to_bits() as u32;
            spent += self.bus.write(regs::QDATA, bits);
            golden.push(bits);
        }
        if let Some(addr) = self
            .bus
            .device()
            .engine()
            .agent()
            .table()
            .first_parity_error()
        {
            return Err(TableLoadError::ParityMismatch { addr });
        }
        self.golden = golden.into();
        Ok(spent)
    }

    /// Recovers from a detected SEU: replays the golden table over the
    /// bus (when one exists — an engine trained purely on-line has no
    /// clean copy to restore), acknowledges the error, and returns the
    /// bus time the whole recovery took.
    fn recover_from_seu(&mut self) -> SimDuration {
        self.seus_detected += 1;
        HW_SEUS.inc();
        let mut spent = SimDuration::ZERO;
        if !self.golden.is_empty() {
            self.table_reloads += 1;
            HW_RELOADS.inc();
            spent += self.bus.write(regs::QADDR, 0);
            for &bits in self.golden.iter() {
                spent += self.bus.write(regs::QDATA, bits);
            }
        }
        spent += self.bus.write(regs::CTRL, CTRL_CLEAR_SEU);
        spent
    }

    /// The engine behind the bus.
    pub fn engine(&self) -> &PolicyEngine {
        self.bus.device().engine()
    }

    /// Statistics over per-epoch end-to-end decision latency.
    pub fn latency_stats(&self) -> &Running {
        &self.latency
    }

    /// Bus transaction counters, with the driver's reload count merged in.
    pub fn bus_stats(&self) -> crate::BusStats {
        crate::BusStats {
            table_reloads: self.table_reloads,
            ..self.bus.stats()
        }
    }

    fn engine_op_latency(&self) -> SimDuration {
        // The CTRL write returns after the model ran the FSM; charge its
        // cycle count at the fabric clock explicitly.
        let cycles = self.bus.device().engine().cycles_of_last_op();
        SimDuration::from_cycles(cycles, self.engine_clock_hz)
    }
}

impl Governor for HwPolicyDriver {
    fn name(&self) -> &str {
        "rlpm-hw"
    }

    fn decide(&mut self, state: &SystemState) -> LevelRequest {
        let mut request = LevelRequest::new(Vec::new());
        self.decide_into(state, &mut request);
        request
    }

    fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
        self.predictor.observe(state);
        let s = self.states.encode(state, &self.predictor);
        let mut spent = SimDuration::ZERO;

        if self.training {
            if let Some((ps, pa)) = self.prev {
                // reward_fx quantises on the software side of the register
                // interface; this driver never touches f64 (fx-purity lint).
                let r = self.reward_fn.reward_fx(&EpochOutcome {
                    qos_units: state.qos.units,
                    energy_j: state.soc.energy_j,
                    violations: state.qos.violations,
                    pending_jobs: state.qos.pending_jobs,
                });
                spent += self.bus.write(regs::STATE, ps as u32);
                spent += self.bus.write(regs::PREV_ACTION, pa as u32);
                spent += self.bus.write(regs::NEXT_STATE, s as u32);
                spent += self.bus.write(regs::REWARD, r.to_bits() as u32);
                spent += self.bus.write(regs::CTRL, CTRL_START_UPDATE);
                let compute = self.engine_op_latency();
                // An SEU surfacing during the update is caught below by
                // the decision's status check — the flag is sticky.
                spent += self.completion_wait(compute).1;
            }
        }

        spent += self.bus.write(regs::STATE, s as u32);
        spent += self.bus.write(regs::CTRL, CTRL_START_DECIDE);
        let compute = self.engine_op_latency();
        let (status, wait) = self.completion_wait(compute);
        spent += wait;
        if status & STATUS_SEU != 0 {
            // The action register holds a result computed from corrupted
            // BRAM contents: restore the table, acknowledge, and decide
            // again — all charged to this epoch's decision latency.
            spent += self.recover_from_seu();
            spent += self.bus.write(regs::CTRL, CTRL_START_DECIDE);
            let compute = self.engine_op_latency();
            spent += self.completion_wait(compute).1;
        }
        let (action, t) = self.bus.read(regs::ACTION);
        spent += t;

        self.latency.add_duration(spent);
        HW_DECISIONS.inc();
        let action = action as Action;
        self.prev = Some((s, action));
        self.actions
            .apply_into(state.soc.clusters.iter().map(|c| c.level), action, request);
    }

    fn reset(&mut self) {
        self.prev = None;
        self.predictor.reset();
    }

    fn inject_table_seu(&mut self, entropy: u64) -> bool {
        let table = self.bus.device_mut().engine_mut().agent_mut().table_mut();
        let entries = table.num_entries();
        if entries == 0 {
            return false;
        }
        // Low 32 bits pick the entry, high bits pick the bit lane.
        let addr = ((entropy & 0xFFFF_FFFF) % entries as u64) as usize;
        let bit = ((entropy >> 32) % 32) as u32;
        table.corrupt_bit(addr, bit)
    }

    fn seu_recovery_counts(&self) -> (u64, u64) {
        (self.seus_detected, self.table_reloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use governors::state::synthetic_state;
    use soc::SocConfig;

    fn driver() -> HwPolicyDriver {
        let rl = RlConfig::for_soc(&SocConfig::symmetric_quad().unwrap());
        HwPolicyDriver::new(HwConfig::default(), &rl)
    }

    fn obs(util: f64, level: usize) -> SystemState {
        let mut s = synthetic_state(&[(
            util,
            level,
            11,
            300_000_000 + level as u64 * 150_000_000,
            (300_000_000, 1_800_000_000),
        )]);
        s.soc.energy_j = 0.03;
        s.qos.units = 0.8;
        s
    }

    #[test]
    fn decisions_are_valid_and_latency_is_tracked() {
        let mut d = driver();
        for i in 0..10 {
            let req = d.decide(&obs(0.5, i % 11));
            assert_eq!(req.levels.len(), 1);
            assert!(req.levels[0] < 11);
        }
        assert_eq!(d.latency_stats().count(), 10);
        // Every epoch costs on the order of a microsecond.
        let mean = d.latency_stats().mean();
        assert!(mean > 0.2e-6 && mean < 10e-6, "mean latency {mean}");
    }

    #[test]
    fn training_updates_the_engine_table() {
        let mut d = driver();
        let before: Vec<i32> = (0..20)
            .map(|i| d.engine().agent().table().get(i, 0).to_bits())
            .collect();
        for i in 0..200 {
            d.decide(&obs((i % 10) as f64 / 10.0, i % 11));
        }
        let after: Vec<i32> = (0..20)
            .map(|i| d.engine().agent().table().get(i, 0).to_bits())
            .collect();
        assert_ne!(before, after, "table must learn");
        let (decisions, updates) = d.engine().op_counts();
        assert_eq!(decisions, 200);
        assert_eq!(updates, 199, "first decision has no prior transition");
    }

    #[test]
    fn frozen_driver_performs_no_updates() {
        let mut d = driver();
        d.set_training(false);
        for i in 0..50 {
            d.decide(&obs(0.5, i % 11));
        }
        assert_eq!(d.engine().op_counts().1, 0);
        // Decision-only traffic: 2 writes + 2 reads per epoch.
        assert_eq!(d.bus_stats().writes, 100);
        assert_eq!(d.bus_stats().reads, 100);
    }

    #[test]
    fn interrupt_mode_trades_status_reads_for_irq_latency() {
        let mut polling = driver();
        polling.set_training(false);
        let mut irq_fast = driver();
        irq_fast.set_training(false);
        irq_fast.set_mode(DriverMode::Interrupt {
            irq_latency: SimDuration::from_nanos(40),
        });
        let mut irq_slow = driver();
        irq_slow.set_training(false);
        irq_slow.set_mode(DriverMode::Interrupt {
            irq_latency: SimDuration::from_micros(2),
        });
        for i in 0..50 {
            polling.decide(&obs(0.5, i % 11));
            irq_fast.decide(&obs(0.5, i % 11));
            irq_slow.decide(&obs(0.5, i % 11));
        }
        // A fast IRQ beats polling; a slow one loses to it.
        assert!(irq_fast.latency_stats().mean() < polling.latency_stats().mean());
        assert!(irq_slow.latency_stats().mean() > polling.latency_stats().mean());
        // Interrupt mode issues no STATUS reads: only the ACTION read.
        assert_eq!(irq_fast.bus_stats().reads, 50);
        assert_eq!(polling.bus_stats().reads, 100);
    }

    #[test]
    fn table_load_round_trips() {
        let rl = RlConfig::for_soc(&SocConfig::symmetric_quad().unwrap());
        let mut d = HwPolicyDriver::new(HwConfig::default(), &rl);
        let mut table = rlpm::QTable::new(rl.num_states(), rl.num_actions(), 0.0);
        table.set(3, 2, 1.5);
        table.set(7, 4, -2.25);
        let spent = d.load_table(&table).unwrap();
        assert!(spent > SimDuration::ZERO);
        assert_eq!(d.engine().agent().table().get(3, 2).to_f64(), 1.5);
        assert_eq!(d.engine().agent().table().get(7, 4).to_f64(), -2.25);
    }

    #[test]
    fn load_table_rejects_wrong_geometry() {
        let rl = RlConfig::for_soc(&SocConfig::symmetric_quad().unwrap());
        let mut d = HwPolicyDriver::new(HwConfig::default(), &rl);
        let wrong = rlpm::QTable::new(3, 2, 0.0);
        let err = d.load_table(&wrong).unwrap_err();
        assert!(matches!(
            err,
            TableLoadError::SizeMismatch { expected, got }
                if expected == rl.num_states() * rl.num_actions() && got == 6
        ));
        let msg = err.to_string();
        assert!(msg.contains("6"), "{msg}");
        // ParityMismatch renders its address too.
        let p = TableLoadError::ParityMismatch { addr: 42 }.to_string();
        assert!(p.contains("42"), "{p}");
    }

    #[test]
    fn seu_is_detected_recovered_and_counted() {
        let rl = RlConfig::for_soc(&SocConfig::symmetric_quad().unwrap());
        let mut d = HwPolicyDriver::new(HwConfig::default(), &rl);
        let mut table = rlpm::QTable::new(rl.num_states(), rl.num_actions(), 0.0);
        table.set(0, 1, 1.5);
        d.load_table(&table).unwrap();
        d.set_training(false);
        // Settle the predictor so the encoded state is stable, then learn
        // which row the next decision will fetch.
        for _ in 0..4 {
            d.decide(&obs(0.5, 3));
        }
        let (s, _) = d.prev.unwrap();
        // Flip a bit in that row without touching parity.
        let addr = s * rl.num_actions();
        let entropy = addr as u64 | (16u64 << 32);
        assert!(d.inject_table_seu(entropy));
        assert!(!d.engine().agent().table().row_parity_ok(s));

        d.decide(&obs(0.5, 3));
        assert_eq!(d.seu_recovery_counts(), (1, 1));
        assert_eq!(d.bus_stats().table_reloads, 1);
        assert!(!d.engine().seu_detected(), "flag acknowledged");
        assert!(
            d.engine().agent().table().all_parity_ok(),
            "golden reload restored the table"
        );
        assert_eq!(d.engine().agent().table().get(0, 1).to_f64(), 1.5);

        d.decide(&obs(0.5, 3));
        assert_eq!(d.seu_recovery_counts(), (1, 1), "no further recoveries");
    }

    #[test]
    fn latent_seu_without_golden_copy_is_acknowledged_without_reload() {
        let mut d = driver();
        d.set_training(false);
        for _ in 0..4 {
            d.decide(&obs(0.5, 3));
        }
        let (s, _) = d.prev.unwrap();
        let a_count = d.engine().agent().table().num_actions();
        assert!(d.inject_table_seu((s * a_count) as u64 | (3u64 << 32)));
        d.decide(&obs(0.5, 3));
        let (detected, reloads) = d.seu_recovery_counts();
        assert!(detected >= 1);
        assert_eq!(reloads, 0, "nothing clean to reload");
        assert_eq!(d.bus_stats().table_reloads, 0);
        // The corruption is latent: the row still fails parity, so the
        // next fetch re-detects it.
        d.decide(&obs(0.5, 3));
        assert!(d.seu_recovery_counts().0 > detected);
    }

    #[test]
    fn reset_clears_transition_but_keeps_table() {
        let mut d = driver();
        for i in 0..20 {
            d.decide(&obs(0.7, i % 11));
        }
        let table_before: Vec<i32> = (0..10)
            .map(|i| d.engine().agent().table().get(i, 0).to_bits())
            .collect();
        let updates = d.engine().op_counts().1;
        d.reset();
        d.decide(&obs(0.7, 0));
        assert_eq!(
            d.engine().op_counts().1,
            updates,
            "no update across episodes"
        );
        let table_after: Vec<i32> = (0..10)
            .map(|i| d.engine().agent().table().get(i, 0).to_bits())
            .collect();
        assert_eq!(table_before, table_after);
    }
}
