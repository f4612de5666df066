//! **A1–A3 — ablations** over the design choices DESIGN.md calls out:
//! state features (A1), reward shaping (A2), and the exploration
//! schedule (A3). Each variant trains and evaluates on the mixed
//! scenario so adaptation pressure is present.

use governors::Governor;
use rlpm::{RlConfig, RlGovernor};
use soc::{Soc, SocConfig};
use workload::ScenarioKind;

use crate::par::parallel_map;
use crate::policies::train_episodes;
use crate::table::{fmt_f64, Table};
use crate::{cache, run, RunConfig, TrainingProtocol};

/// Result of one ablation variant.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Frozen-evaluation energy per QoS unit.
    pub energy_per_qos: f64,
    /// Frozen-evaluation QoS violations.
    pub violations: u64,
    /// Frozen-evaluation delivered QoS ratio.
    pub qos_ratio: f64,
}

/// Shared protocol for all ablations.
#[derive(Debug, Clone, Copy)]
pub struct AblationConfig {
    /// Training protocol per variant.
    pub training: TrainingProtocol,
    /// Frozen evaluation length (simulated seconds).
    pub eval_secs: u64,
    /// Seed.
    pub seed: u64,
    /// Scenario to train/evaluate on.
    pub scenario: ScenarioKind,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            training: TrainingProtocol::default(),
            eval_secs: 120,
            seed: 17,
            scenario: ScenarioKind::Mixed,
        }
    }
}

impl AblationConfig {
    /// Short protocol for tests.
    pub fn quick() -> Self {
        AblationConfig {
            training: TrainingProtocol::quick(),
            eval_secs: 15,
            seed: 17,
            scenario: ScenarioKind::Video,
        }
    }
}

/// Trains and evaluates one labelled configuration variant; `None` for
/// an invalid SoC config (the row is then dropped). When the cache is
/// enabled the finished row is looked up / stored under a key covering
/// the full variant `RlConfig`, so re-running a sweep with one changed
/// variant only recomputes that variant.
fn evaluate_variant(
    soc_config: &SocConfig,
    config: &AblationConfig,
    label: &str,
    rl: RlConfig,
) -> Option<AblationRow> {
    if !cache::is_enabled() {
        return evaluate_variant_uncached(soc_config, config, label, rl);
    }
    let key = cache::Key::new("abrow")
        .debug(soc_config)
        .debug(&rl)
        .str(label)
        .str(config.scenario.name())
        .debug(&config.training)
        .u64(config.eval_secs)
        .u64(config.seed)
        .finish();
    let bytes = cache::get_or_compute("abrow", key, || {
        let row = evaluate_variant_uncached(soc_config, config, label, rl.clone())?;
        let mut enc = cache::Enc::new();
        enc.str(&row.label);
        enc.f64(row.energy_per_qos);
        enc.u64(row.violations);
        enc.f64(row.qos_ratio);
        Some(enc.finish())
    })?;
    let mut dec = cache::Dec::new(&bytes);
    let decoded = (|| {
        let row = AblationRow {
            label: dec.str()?,
            energy_per_qos: dec.f64()?,
            violations: dec.u64()?,
            qos_ratio: dec.f64()?,
        };
        if !dec.finished() {
            return None;
        }
        Some(row)
    })();
    decoded.or_else(|| evaluate_variant_uncached(soc_config, config, label, rl))
}

fn evaluate_variant_uncached(
    soc_config: &SocConfig,
    config: &AblationConfig,
    label: &str,
    rl: RlConfig,
) -> Option<AblationRow> {
    rl.validate();
    let mut policy = RlGovernor::new(rl, config.seed);
    let mut soc = Soc::new(soc_config.clone()).ok()?;
    let mut scenario = config.scenario.build(config.seed.wrapping_add(0xab));
    train_episodes(
        &mut soc,
        scenario.as_mut(),
        &mut policy,
        config.training,
        &mut |_, _| {},
    );
    policy.set_frozen(true);
    policy.reset();
    let metrics = run(
        &mut soc,
        scenario.as_mut(),
        &mut policy,
        RunConfig::seconds(config.eval_secs),
    );
    Some(AblationRow {
        label: label.to_owned(),
        energy_per_qos: metrics.energy_per_qos,
        violations: metrics.qos.violations,
        qos_ratio: metrics.qos.qos_ratio(),
    })
}

fn run_variants(
    soc_config: &SocConfig,
    config: &AblationConfig,
    variants: Vec<(String, RlConfig)>,
) -> Vec<AblationRow> {
    let soc_config_owned = soc_config.clone();
    let job_config = *config;
    let rows = parallel_map("ablations", variants, move |(label, rl)| {
        evaluate_variant(&soc_config_owned, &job_config, &label, rl)
    });
    rows.into_iter().flatten().collect()
}

/// A1 — state-feature ablation: remove the trend feature, the QoS
/// feature, or coarsen utilisation.
pub fn a1_state_features(soc_config: &SocConfig, config: &AblationConfig) -> Vec<AblationRow> {
    let base = RlConfig::for_soc(soc_config);
    let variants = vec![
        ("full state (proposed)".to_owned(), base.clone()),
        (
            "no trend feature".to_owned(),
            RlConfig {
                trend_bins: 1,
                ..base.clone()
            },
        ),
        (
            "no QoS feature".to_owned(),
            RlConfig {
                qos_bins: 1,
                ..base.clone()
            },
        ),
        (
            "coarse utilisation (2 bins)".to_owned(),
            RlConfig {
                util_bins: 2,
                ..base.clone()
            },
        ),
        (
            "coarse level feature (4 bins)".to_owned(),
            RlConfig {
                level_bins: 4,
                ..base
            },
        ),
    ];
    run_variants(soc_config, config, variants)
}

/// A2 — reward-shaping ablation: sweep the violation penalty λ.
pub fn a2_reward_shaping(soc_config: &SocConfig, config: &AblationConfig) -> Vec<AblationRow> {
    let base = RlConfig::for_soc(soc_config);
    let variants = [0.0, 0.5, 1.5, 3.0, 6.0]
        .into_iter()
        .map(|lambda| {
            (
                format!("violation penalty λ = {lambda}"),
                RlConfig {
                    w_violation: lambda,
                    ..base.clone()
                },
            )
        })
        .collect();
    run_variants(soc_config, config, variants)
}

/// A3 — exploration-schedule ablation.
pub fn a3_exploration(soc_config: &SocConfig, config: &AblationConfig) -> Vec<AblationRow> {
    let base = RlConfig::for_soc(soc_config);
    let variants = vec![
        ("decaying ε (proposed)".to_owned(), base.clone()),
        (
            "constant ε = 0.1".to_owned(),
            RlConfig {
                epsilon0: 0.1,
                epsilon_min: 0.1,
                epsilon_decay: 1.0,
                ..base.clone()
            },
        ),
        (
            "near-greedy ε = 0.02".to_owned(),
            RlConfig {
                epsilon0: 0.02,
                epsilon_min: 0.02,
                epsilon_decay: 1.0,
                ..base.clone()
            },
        ),
        (
            "high constant ε = 0.4".to_owned(),
            RlConfig {
                epsilon0: 0.4,
                epsilon_min: 0.4,
                epsilon_decay: 1.0,
                ..base
            },
        ),
    ];
    run_variants(soc_config, config, variants)
}

/// A4 — algorithm ablation: the paper's plain Q-learning versus the
/// double/on-policy variants.
pub fn a4_algorithm(soc_config: &SocConfig, config: &AblationConfig) -> Vec<AblationRow> {
    let base = RlConfig::for_soc(soc_config);
    let variants = rlpm::Algorithm::ALL
        .into_iter()
        .map(|algorithm| {
            (
                algorithm.name().to_owned(),
                RlConfig {
                    algorithm,
                    ..base.clone()
                },
            )
        })
        .collect();
    run_variants(soc_config, config, variants)
}

/// Renders ablation rows.
pub fn ablation_table(title: &str, rows: &[AblationRow]) -> Table {
    let mut table = Table::new(title, ["variant", "energy/QoS", "violations", "QoS ratio"]);
    for r in rows {
        table.push([
            r.label.clone(),
            fmt_f64(r.energy_per_qos),
            r.violations.to_string(),
            fmt_f64(r.qos_ratio),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_variants_run_and_render() {
        let soc_config = SocConfig::odroid_xu3_like().unwrap();
        let rows = a1_state_features(&soc_config, &AblationConfig::quick());
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.energy_per_qos.is_finite()));
        let table = ablation_table("A1", &rows);
        assert_eq!(table.len(), 5);
    }

    #[test]
    fn a2_sweep_runs() {
        let soc_config = SocConfig::odroid_xu3_like().unwrap();
        let rows = a2_reward_shaping(&soc_config, &AblationConfig::quick());
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn a3_schedules_run() {
        let soc_config = SocConfig::odroid_xu3_like().unwrap();
        let rows = a3_exploration(&soc_config, &AblationConfig::quick());
        assert_eq!(rows.len(), 4);
    }
}
