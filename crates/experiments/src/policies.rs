//! The policies under test, including the pre-trained RL policy.

use governors::{Governor, GovernorKind};
use rlpm::{persist, RlConfig, RlGovernor};
use rlpm_hw::{HwConfig, HwPolicyDriver};
use soc::{DeviceBatch, Soc, SocConfig, SocError};
use workload::{Scenario, ScenarioKind};

use crate::runner::{BatchLane, RunMetrics};
use crate::{cache, run, RunConfig};

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
/// [`crate::run_batch`]: lane `i` runs `scenario` on its own arrival stream,
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

/// Evaluates one frozen cell: trains (or restores) `policy` on
/// `scenario`, then measures `run_config` worth of the scenario on a
/// fresh SoC. Every one-cell evaluation goes through here: E1's sweep,
/// `rlpm-sim run` and `compare`, and the service's `simulate`. So a
/// given (SoC, scenario, policy, training, seed, duration) cell reports
/// the same bits on every path, and a warm entry written by one path
/// answers the others.
///
/// The evaluation's arrivals come from the scenario seeded
/// `seed·0x9E3779B9 + 1`, a different stream from training's. The
/// metrics cache is consulted when it is enabled; concurrent callers of
/// one cold cell coalesce on the cache's in-flight entry, so the cell
/// is computed once. Traced runs bypass the cache (traces are bulky,
/// figure-only output). An invalid SoC config yields `None`, cached or
/// not.
pub fn eval_cell(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    policy: PolicyKind,
    training: TrainingProtocol,
    seed: u64,
    run_config: RunConfig,
) -> Option<RunMetrics> {
    let sweep_key = cell_key_prefix(soc_config);
    eval_cell_keyed(
        soc_config, sweep_key, scenario, policy, training, seed, run_config,
    )
}

/// [`eval_cell`] for a sweep on one SoC config: `sweep_key` is
/// [`cell_key_prefix`] of `soc_config`, built once by the calling sweep
/// rather than once per cell.
pub(crate) fn eval_cell_keyed(
    soc_config: &SocConfig,
    sweep_key: cache::Key,
    scenario: ScenarioKind,
    policy: PolicyKind,
    training: TrainingProtocol,
    seed: u64,
    run_config: RunConfig,
) -> Option<RunMetrics> {
    let uncached = || {
        let mut soc = Soc::new(soc_config.clone()).ok()?;
        let mut governor = policy.build_trained(soc_config, scenario, training, seed);
        let mut arrivals = scenario.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        Some(run(
            &mut soc,
            arrivals.as_mut(),
            governor.as_mut(),
            run_config,
        ))
    };
    if !cache::is_enabled() || run_config.record_trace {
        return uncached();
    }
    let key = sweep_key
        .str(scenario.name())
        .str(policy.name())
        .debug(&training)
        .u64(seed)
        .u64(run_config.duration.as_nanos())
        .finish();
    let bytes = cache::get_or_compute("cell", key, || cache::encode_metrics(&uncached()?))?;
    cache::decode_metrics(&bytes).or_else(uncached)
}

/// The part of every cell key that a sweep on `soc_config` shares: the
/// entry kind and the SoC config's `Debug` rendering, which is most of
/// the key's cost. A sweep builds it once; [`eval_cell_keyed`] extends a
/// copy per cell with the cell's scenario, policy, training, seed and
/// duration. Nothing else enters the key.
pub(crate) fn cell_key_prefix(soc_config: &SocConfig) -> cache::Key {
    cache::Key::new("cell").debug(soc_config)
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
    train_episodes(
        &mut soc,
        scenario.as_mut(),
        &mut policy,
        protocol,
        &mut |_, _| {},
    );
    policy
}

/// The training loop every trainer shares: `protocol.episodes` runs of
/// `protocol.episode_secs` each, resetting `soc`, `scenario` and the
/// policy's episode state (but not its Q-table) after each one.
/// `episode` sees each episode's metrics and the policy before those
/// resets.
pub(crate) fn train_episodes(
    soc: &mut Soc,
    scenario: &mut dyn Scenario,
    policy: &mut RlGovernor,
    protocol: TrainingProtocol,
    episode: &mut dyn FnMut(&RunMetrics, &RlGovernor),
) {
    for _ in 0..protocol.episodes {
        let metrics = run(
            soc,
            scenario,
            policy,
            RunConfig::seconds(protocol.episode_secs),
        );
        episode(&metrics, policy);
        soc.reset();
        scenario.reset();
        policy.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_batch;

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
