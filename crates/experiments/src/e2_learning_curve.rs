//! **E2 — online-learning convergence**: energy per QoS unit per training
//! episode, the figure behind "learns power management controls to adapt
//! to the system's variations".

use governors::GovernorKind;
use rlpm::{RlConfig, RlGovernor};
use soc::{Soc, SocConfig};
use workload::ScenarioKind;

use crate::par::parallel_map;
use crate::policies::train_episodes;
use crate::table::{fmt_f64, Table};
use crate::{cache, run, RunConfig, TrainingProtocol};

/// Learning-curve configuration.
#[derive(Debug, Clone)]
pub struct E2Config {
    /// Scenario to learn on.
    pub scenario: ScenarioKind,
    /// Training episodes (curve length).
    pub episodes: u32,
    /// Simulated seconds per episode.
    pub episode_secs: u64,
    /// Seeds; curves are averaged pointwise.
    pub seeds: Vec<u64>,
}

impl Default for E2Config {
    fn default() -> Self {
        E2Config {
            scenario: ScenarioKind::Mixed,
            episodes: 200,
            episode_secs: 30,
            seeds: vec![11, 22, 33],
        }
    }
}

impl E2Config {
    /// A short curve for tests.
    pub fn quick() -> Self {
        E2Config {
            scenario: ScenarioKind::Video,
            episodes: 12,
            episode_secs: 10,
            seeds: vec![11],
        }
    }
}

/// The averaged curve plus reference lines.
#[derive(Debug, Clone, PartialEq)]
pub struct E2Result {
    /// Mean energy-per-QoS per episode (index = episode).
    pub curve: Vec<f64>,
    /// Mean epsilon per episode (exploration schedule readout).
    pub epsilon: Vec<f64>,
    /// `ondemand` reference on the same scenario (mean over seeds).
    pub ondemand_reference: f64,
}

/// Runs the learning-curve experiment.
pub fn run_e2(soc_config: &SocConfig, config: &E2Config) -> E2Result {
    // An invalid SoC config cannot produce measurements; its seeds are
    // dropped (callers always pass configs that already built a SoC).
    let soc_config_owned = soc_config.clone();
    let job_config = config.clone();
    let per_seed = parallel_map("e2", config.seeds.clone(), move |seed| {
        run_curve_seed(&soc_config_owned, &job_config, seed)
    });
    let per_seed: Vec<(Vec<f64>, Vec<f64>, f64)> = per_seed.into_iter().flatten().collect();

    let episodes = config.episodes as usize;
    let n = per_seed.len() as f64;
    let mut curve = vec![0.0; episodes];
    let mut epsilon = vec![0.0; episodes];
    let mut reference = 0.0;
    for (c, e, r) in &per_seed {
        for (acc, v) in curve.iter_mut().zip(c) {
            *acc += v / n;
        }
        for (acc, v) in epsilon.iter_mut().zip(e) {
            *acc += v / n;
        }
        reference += r / n;
    }
    E2Result {
        curve,
        epsilon,
        ondemand_reference: reference,
    }
}

/// One seed's full learning curve (per-episode energy-per-QoS and
/// epsilon, plus the ondemand reference), through the cache when it is
/// enabled: the whole per-seed series is one cache entry.
fn run_curve_seed(
    soc_config: &SocConfig,
    config: &E2Config,
    seed: u64,
) -> Option<(Vec<f64>, Vec<f64>, f64)> {
    if !cache::is_enabled() {
        return run_curve_seed_uncached(soc_config, config, seed);
    }
    let key = cache::Key::new("e2seed")
        .debug(soc_config)
        .str(config.scenario.name())
        .u64(u64::from(config.episodes))
        .u64(config.episode_secs)
        .u64(seed)
        .finish();
    let bytes = cache::get_or_compute("e2seed", key, || {
        let (curve, epsilon, reference) = run_curve_seed_uncached(soc_config, config, seed)?;
        let mut enc = cache::Enc::new();
        enc.f64s(&curve);
        enc.f64s(&epsilon);
        enc.f64(reference);
        Some(enc.finish())
    })?;
    let mut dec = cache::Dec::new(&bytes);
    let decoded = (|| {
        let curve = dec.f64s()?;
        let epsilon = dec.f64s()?;
        let reference = dec.f64()?;
        if !dec.finished() {
            return None;
        }
        Some((curve, epsilon, reference))
    })();
    decoded.or_else(|| run_curve_seed_uncached(soc_config, config, seed))
}

fn run_curve_seed_uncached(
    soc_config: &SocConfig,
    config: &E2Config,
    seed: u64,
) -> Option<(Vec<f64>, Vec<f64>, f64)> {
    let mut policy = RlGovernor::new(RlConfig::for_soc(soc_config), seed);
    let mut soc = Soc::new(soc_config.clone()).ok()?;
    let mut scenario = config.scenario.build(seed.wrapping_add(0xE2));
    let mut curve = Vec::with_capacity(config.episodes as usize);
    let mut epsilon = Vec::with_capacity(config.episodes as usize);
    let protocol = TrainingProtocol {
        episodes: config.episodes,
        episode_secs: config.episode_secs,
    };
    train_episodes(
        &mut soc,
        scenario.as_mut(),
        &mut policy,
        protocol,
        &mut |metrics, policy| {
            curve.push(metrics.energy_per_qos);
            epsilon.push(policy.agent().epsilon());
        },
    );
    // Reference baseline under the same seed stream.
    let mut soc = Soc::new(soc_config.clone()).ok()?;
    let mut scenario = config.scenario.build(seed.wrapping_add(0xE2));
    let mut ondemand = GovernorKind::Ondemand.build(soc_config);
    let reference = run(
        &mut soc,
        scenario.as_mut(),
        ondemand.as_mut(),
        RunConfig::seconds(config.episode_secs),
    )
    .energy_per_qos;
    Some((curve, epsilon, reference))
}

impl E2Result {
    /// Relative improvement from the first `k` episodes' mean to the last
    /// `k` episodes' mean (positive = learning reduced energy-per-QoS).
    pub fn improvement(&self, k: usize) -> f64 {
        let k = k.clamp(1, self.curve.len() / 2);
        let head: f64 = self.curve.iter().take(k).sum::<f64>() / k as f64;
        let tail: f64 = self.curve.iter().rev().take(k).sum::<f64>() / k as f64;
        1.0 - tail / head
    }

    /// The curve as a printable series table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "E2: learning curve (energy per QoS unit by training episode)",
            ["episode", "energy_per_qos", "epsilon"],
        );
        for (i, (&e, &eps)) in self.curve.iter().zip(&self.epsilon).enumerate() {
            table.push([i.to_string(), fmt_f64(e), fmt_f64(eps)]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_improves_and_epsilon_decays() {
        let soc_config = SocConfig::odroid_xu3_like().unwrap();
        let result = run_e2(&soc_config, &E2Config::quick());
        assert_eq!(result.curve.len(), 12);
        assert!(result.curve.iter().all(|v| v.is_finite() && *v > 0.0));
        // Exploration decays monotonically.
        assert!(result.epsilon.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        // Early learning on a periodic scenario should show improvement.
        let improvement = result.improvement(3);
        assert!(
            improvement > -0.2,
            "curve should not get much worse: {improvement} ({:?})",
            result.curve
        );
        assert!(result.ondemand_reference.is_finite());
        assert_eq!(result.table().len(), 12);
    }
}
