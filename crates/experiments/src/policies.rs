//! The policies under test, including the pre-trained RL policy.

use governors::{Governor, GovernorKind};
use rlpm::{persist, RlConfig, RlGovernor};
use rlpm_hw::{HwConfig, HwPolicyDriver};
use soc::{DeviceBatch, Soc, SocConfig, SocError};
use workload::ScenarioKind;

use crate::runner::{BatchLane, RunMetrics};
use crate::{cache, run, run_batch, RunConfig};

/// How the RL policy is trained before a frozen evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingProtocol {
    /// Number of training episodes.
    pub episodes: u32,
    /// Simulated seconds per episode.
    pub episode_secs: u64,
}

impl Default for TrainingProtocol {
    fn default() -> Self {
        TrainingProtocol {
            episodes: 100,
            episode_secs: 30,
        }
    }
}

impl TrainingProtocol {
    /// A short protocol for tests and smoke benches.
    pub fn quick() -> Self {
        TrainingProtocol {
            episodes: 6,
            episode_secs: 10,
        }
    }
}

/// Every policy the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// One of the Linux baselines.
    Baseline(GovernorKind),
    /// The paper's policy (software implementation), trained online on
    /// the evaluation scenario before a frozen measurement.
    Rl,
    /// The paper's policy behind the hardware engine and register bus.
    RlHw,
}

impl PolicyKind {
    /// The six baselines plus the proposed policy, in table order.
    pub fn evaluation_set() -> Vec<PolicyKind> {
        let mut v: Vec<PolicyKind> = GovernorKind::SIX_BASELINES
            .into_iter()
            .map(PolicyKind::Baseline)
            .collect();
        v.push(PolicyKind::Rl);
        v
    }

    /// Display name for result tables.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Baseline(kind) => kind.name(),
            PolicyKind::Rl => "rlpm",
            PolicyKind::RlHw => "rlpm-hw",
        }
    }

    /// Builds the governor ready for a frozen evaluation run: baselines
    /// as-is, RL variants trained on `scenario` with `protocol` and then
    /// frozen.
    pub fn build_trained(
        &self,
        soc_config: &SocConfig,
        scenario: ScenarioKind,
        protocol: TrainingProtocol,
        seed: u64,
    ) -> Box<dyn Governor> {
        match self {
            PolicyKind::Baseline(kind) => kind.build(soc_config),
            PolicyKind::Rl => Box::new(frozen_rl(soc_config, scenario, protocol, seed)),
            PolicyKind::RlHw => Box::new(deploy_to_hw(&frozen_rl(
                soc_config, scenario, protocol, seed,
            ))),
        }
    }
}

/// The RL policy trained on `scenario` with `protocol`, frozen for
/// evaluation.
///
/// `Rl` and `RlHw` share one cached table per (soc, config, scenario,
/// protocol, seed): training is by far the most expensive cacheable
/// unit, and a frozen policy's behavior depends only on its merged table
/// bits.
fn frozen_rl(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    protocol: TrainingProtocol,
    seed: u64,
) -> RlGovernor {
    if cache::is_enabled() {
        let rl_config = RlConfig::for_soc(soc_config);
        if let Some(policy) =
            cached_frozen_policy(soc_config, &rl_config, scenario, protocol, seed, || {
                train_rl_governor(soc_config, scenario, protocol, seed)
            })
        {
            return policy;
        }
    }
    let mut policy = train_rl_governor(soc_config, scenario, protocol, seed);
    policy.set_frozen(true);
    policy.reset();
    policy
}

/// Loads a frozen software policy's table into the hardware engine —
/// the deployment flow the paper describes.
fn deploy_to_hw(sw: &RlGovernor) -> HwPolicyDriver {
    let mut hw = HwPolicyDriver::new(HwConfig::default(), sw.config());
    let loaded = hw.load_table(&sw.agent().merged_table());
    debug_assert!(
        loaded.is_ok(),
        "engine geometry is derived from the same RlConfig: {loaded:?}"
    );
    hw.set_training(false);
    hw
}

/// The arrival-stream seed of lane `lane` in a fleet seeded `seed`.
pub fn fleet_lane_seed(seed: u64, lane: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(lane)
}

/// Builds a fleet of `lanes` identical `soc_config` devices for
/// [`run_batch`]: lane `i` runs `scenario` on its own arrival stream,
/// seeded [`fleet_lane_seed`]`(seed, i)`, under `policy`.
///
/// The fleet ships one policy. An RL variant trains (or is restored
/// from the cache) once, with `training` and `seed`, and every lane gets
/// a clone; clones of the frozen software policy share one Q-table.
/// Each lane is bit-identical to one built alone by
/// [`PolicyKind::build_trained`], since those inputs are the same for
/// every lane.
///
/// # Errors
///
/// Returns the [`SocError`] of an invalid `soc_config`.
pub fn build_fleet(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    policy: PolicyKind,
    training: TrainingProtocol,
    lanes: usize,
    seed: u64,
) -> Result<(DeviceBatch, Vec<BatchLane>), SocError> {
    let socs = (0..lanes)
        .map(|_| Soc::new(soc_config.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let batch = DeviceBatch::new(socs)?;
    let governor: Box<dyn Fn() -> Box<dyn Governor> + '_> = match policy {
        PolicyKind::Baseline(kind) => Box::new(move || kind.build(soc_config)),
        PolicyKind::Rl => {
            let rl = frozen_rl(soc_config, scenario, training, seed);
            Box::new(move || Box::new(rl.clone()))
        }
        PolicyKind::RlHw => {
            let hw = deploy_to_hw(&frozen_rl(soc_config, scenario, training, seed));
            Box::new(move || Box::new(hw.clone()))
        }
    };
    let lanes = (0..lanes as u64)
        .map(|i| BatchLane {
            scenario: scenario.build(fleet_lane_seed(seed, i)),
            governor: governor(),
            faults: None,
        })
        .collect();
    Ok((batch, lanes))
}

/// Trains a frozen policy through the content-addressed cache: on a hit
/// the persisted mean table is restored into a fresh governor, which
/// reproduces the trained policy's frozen behavior bit-for-bit (frozen
/// decisions are pure greedy over the merged table — no RNG, no
/// learning state — and the persisted mean preserves the merged bits
/// exactly; pinned by the `cache_identity` test). On a miss, `train`
/// runs and its table is persisted via the [`rlpm::persist`] container.
///
/// Any defect — unreadable entry, container parse failure, geometry
/// mismatch after a config change — yields `None` and the caller falls
/// back to direct training: cache trouble can cost time, never
/// correctness.
pub(crate) fn cached_frozen_policy(
    soc_config: &SocConfig,
    rl_config: &RlConfig,
    scenario: ScenarioKind,
    protocol: TrainingProtocol,
    seed: u64,
    train: impl FnOnce() -> RlGovernor,
) -> Option<RlGovernor> {
    let key = cache::Key::new("qtbl")
        .debug(soc_config)
        .debug(rl_config)
        .str(scenario.name())
        .debug(&protocol)
        .u64(seed)
        .finish();
    let bytes = cache::get_or_compute("qtbl", key, || {
        let trained = train();
        Some(persist::save_policy(&trained))
    })?;
    let table = persist::parse_table(&bytes).ok()?;
    let mut policy = RlGovernor::new(rl_config.clone(), seed);
    let expected = (
        policy.agent().table().num_states(),
        policy.agent().table().num_actions(),
    );
    if (table.num_states(), table.num_actions()) != expected {
        return None;
    }
    policy.agent_mut().load_merged(table.values());
    policy.set_frozen(true);
    policy.reset();
    Some(policy)
}

/// Runs one frozen evaluation cell — train (or restore) the policy,
/// then measure `run_config` worth of the scenario on a fresh SoC —
/// consulting the metrics cache when it is enabled. `sweep_key` is
/// [`cell_key_prefix`] of `soc_config`, built once by the calling sweep.
/// Traced runs bypass the cache (traces are bulky, figure-only output).
/// An invalid SoC config yields `None`, cached or not.
pub(crate) fn eval_cell(
    soc_config: &SocConfig,
    sweep_key: cache::Key,
    scenario: ScenarioKind,
    policy: PolicyKind,
    training: TrainingProtocol,
    seed: u64,
    run_config: RunConfig,
) -> Option<RunMetrics> {
    if !cache::is_enabled() || run_config.record_trace {
        return eval_cell_uncached(soc_config, scenario, policy, training, seed, run_config);
    }
    let key = cell_key(sweep_key, scenario, policy, training, seed, run_config);
    let bytes = cache::get_or_compute("cell", key, || {
        let metrics = eval_cell_uncached(soc_config, scenario, policy, training, seed, run_config)?;
        cache::encode_metrics(&metrics)
    })?;
    cache::decode_metrics(&bytes)
        .or_else(|| eval_cell_uncached(soc_config, scenario, policy, training, seed, run_config))
}

/// The part of every cell key that a sweep on `soc_config` shares: the
/// entry kind and the SoC config's `Debug` rendering, which is most of
/// the key's cost. A sweep builds it once; [`cell_key`] extends a copy
/// per cell.
pub(crate) fn cell_key_prefix(soc_config: &SocConfig) -> cache::Key {
    cache::Key::new("cell").debug(soc_config)
}

/// The cache key of one evaluation cell, extending `sweep_key` (the
/// [`cell_key_prefix`] of the sweep's SoC config).
///
/// Both evaluation paths — [`eval_cell`] (looped) and
/// [`eval_cells_batched`] — address the metrics cache through this one
/// function, so the key is determined by the *cell* alone: scenario,
/// policy, seed, configs, duration. How many lanes a sweep happened to
/// batch together (or whether it batched at all) never enters the key;
/// a warm entry written by either path satisfies the other. This is
/// sound because `run_batch` is bit-identical to looped `run` calls
/// (pinned by `golden_bits`), and it is pinned directly by the
/// `cache_identity` integration test.
fn cell_key(
    sweep_key: cache::Key,
    scenario: ScenarioKind,
    policy: PolicyKind,
    training: TrainingProtocol,
    seed: u64,
    run_config: RunConfig,
) -> u64 {
    sweep_key
        .str(scenario.name())
        .str(policy.name())
        .debug(&training)
        .u64(seed)
        .u64(run_config.duration.as_nanos())
        .finish()
}

/// One `(scenario, policy, seed)` cell of a batched evaluation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCell {
    /// Workload the cell measures.
    pub scenario: ScenarioKind,
    /// Policy driving the cell.
    pub policy: PolicyKind,
    /// Seed for training and the evaluation streams.
    pub seed: u64,
}

/// Evaluates a sweep of cells on one SoC configuration, stepping every
/// cold cell in a single [`DeviceBatch`] instead of looping the
/// single-cell evaluation path.
///
/// Semantics are exactly `cells.iter().map(|c| eval_cell(..))`: the
/// same cache keys (both paths share one private key helper, so the
/// batch shape can never enter a key), the same bit-exact metrics
/// (`run_batch` equivalence), the same `None` for cells that cannot run.
/// Warm cells are answered from the cache without joining the batch, so
/// a sweep whose cells were already evaluated one at a time — or the
/// other way around — computes nothing.
pub fn eval_cells_batched(
    soc_config: &SocConfig,
    cells: &[EvalCell],
    training: TrainingProtocol,
    run_config: RunConfig,
) -> Vec<Option<RunMetrics>> {
    let use_cache = cache::is_enabled() && !run_config.record_trace;
    let sweep_key = cell_key_prefix(soc_config);
    let mut out: Vec<Option<RunMetrics>> = (0..cells.len()).map(|_| None).collect();
    let mut cold: Vec<(usize, EvalCell)> = Vec::with_capacity(cells.len());
    for ((i, &c), slot) in cells.iter().enumerate().zip(&mut out) {
        if use_cache {
            let key = cell_key(
                sweep_key, c.scenario, c.policy, training, c.seed, run_config,
            );
            if let Some(bytes) = cache::lookup("cell", key) {
                if let Some(m) = cache::decode_metrics(&bytes) {
                    *slot = Some(m);
                    continue;
                }
            }
        }
        cold.push((i, c));
    }
    if cold.is_empty() {
        return out;
    }

    let mut socs = Vec::with_capacity(cold.len());
    for _ in &cold {
        // An invalid config fails every cell identically; keep the warm
        // answers and leave the cold cells `None`, as `eval_cell` would.
        let Ok(soc) = Soc::new(soc_config.clone()) else {
            return out;
        };
        socs.push(soc);
    }
    let Ok(mut batch) = DeviceBatch::new(socs) else {
        return out;
    };
    let mut lanes: Vec<BatchLane> = cold
        .iter()
        .map(|&(_, c)| {
            BatchLane {
                // Evaluation uses a different seed stream than training
                // (the same derivation as `eval_cell_uncached`).
                scenario: c
                    .scenario
                    .build(c.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1)),
                governor: c
                    .policy
                    .build_trained(soc_config, c.scenario, training, c.seed),
                faults: None,
            }
        })
        .collect();
    let metrics = run_batch(&mut batch, &mut lanes, run_config);
    for (&(i, c), m) in cold.iter().zip(metrics) {
        if use_cache {
            if let Some(bytes) = cache::encode_metrics(&m) {
                let key = cell_key(
                    sweep_key, c.scenario, c.policy, training, c.seed, run_config,
                );
                cache::put("cell", key, bytes);
            }
        }
        if let Some(slot) = out.get_mut(i) {
            *slot = Some(m);
        }
    }
    out
}

fn eval_cell_uncached(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    policy: PolicyKind,
    training: TrainingProtocol,
    seed: u64,
    run_config: RunConfig,
) -> Option<RunMetrics> {
    let mut soc = Soc::new(soc_config.clone()).ok()?;
    let mut governor = policy.build_trained(soc_config, scenario, training, seed);
    // Evaluation uses a different seed stream than training.
    let mut scenario_inst = scenario.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    Some(run(
        &mut soc,
        scenario_inst.as_mut(),
        governor.as_mut(),
        run_config,
    ))
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Trains an [`RlGovernor`] online: `protocol.episodes` episodes of the
/// scenario, resetting the SoC and the episode state (but not the
/// Q-table) in between.
pub fn train_rl_governor(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    protocol: TrainingProtocol,
    seed: u64,
) -> RlGovernor {
    let mut policy = RlGovernor::new(RlConfig::for_soc(soc_config), seed);
    // Callers hand in configs that already built a SoC; a config that
    // fails validation here trains nothing and the policy stays fresh.
    let Ok(mut soc) = Soc::new(soc_config.clone()) else {
        return policy;
    };
    let mut scenario = scenario.build(seed.wrapping_add(0x5eed));
    for _ in 0..protocol.episodes {
        run(
            &mut soc,
            scenario.as_mut(),
            &mut policy,
            RunConfig::seconds(protocol.episode_secs),
        );
        soc.reset();
        scenario.reset();
        policy.reset();
    }
    policy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_set_is_six_plus_one() {
        let set = PolicyKind::evaluation_set();
        assert_eq!(set.len(), 7);
        assert_eq!(set[6], PolicyKind::Rl);
        assert_eq!(set[0].name(), "performance");
    }

    #[test]
    fn training_visits_states_and_freezes() {
        let cfg = SocConfig::odroid_xu3_like().unwrap();
        let policy = train_rl_governor(&cfg, ScenarioKind::Video, TrainingProtocol::quick(), 1);
        let visited = policy
            .agent()
            .table()
            .visited_entries(policy.config().q_init);
        assert!(visited > 100, "training touched only {visited} entries");
        assert!(policy.agent().updates() > 1_000);
    }

    #[test]
    fn build_trained_returns_frozen_rl() {
        let cfg = SocConfig::symmetric_quad().unwrap();
        let g =
            PolicyKind::Rl.build_trained(&cfg, ScenarioKind::Audio, TrainingProtocol::quick(), 2);
        assert_eq!(g.name(), "rlpm");
    }

    #[test]
    fn fleet_lanes_match_lanes_built_alone() {
        let cfg = SocConfig::odroid_xu3_like().unwrap();
        let (training, seed, config) = (TrainingProtocol::quick(), 9, RunConfig::seconds(2));
        for policy in [
            PolicyKind::Rl,
            PolicyKind::RlHw,
            PolicyKind::Baseline(GovernorKind::Ondemand),
        ] {
            let (mut batch, mut lanes) =
                build_fleet(&cfg, ScenarioKind::Video, policy, training, 3, seed).unwrap();
            let fleet = run_batch(&mut batch, &mut lanes, config);
            for (i, lane) in fleet.iter().enumerate() {
                let mut soc = Soc::new(cfg.clone()).unwrap();
                let mut governor = policy.build_trained(&cfg, ScenarioKind::Video, training, seed);
                let mut scenario = ScenarioKind::Video.build(fleet_lane_seed(seed, i as u64));
                let alone = run(&mut soc, scenario.as_mut(), governor.as_mut(), config);
                assert_eq!(
                    format!("{lane:?}"),
                    format!("{alone:?}"),
                    "{policy} lane {i}"
                );
            }
        }
    }

    #[test]
    fn build_trained_hw_loads_engine_table() {
        let cfg = SocConfig::symmetric_quad().unwrap();
        let g =
            PolicyKind::RlHw.build_trained(&cfg, ScenarioKind::Audio, TrainingProtocol::quick(), 3);
        assert_eq!(g.name(), "rlpm-hw");
    }
}
