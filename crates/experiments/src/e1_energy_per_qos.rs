//! **E1 — energy per unit QoS vs the six governors** (the LBR's headline
//! result; journal abstract: −31.66% on average).
//!
//! Protocol: for every scenario in the catalog and every policy in the
//! evaluation set, run a frozen evaluation of `eval_secs` simulated
//! seconds per seed (the RL policy is first trained online on the same
//! scenario — the paper's policy also learns on-device before the
//! reported steady state). The table reports mean energy per delivered
//! QoS unit; the summary reports the proposed policy's relative
//! reduction against each baseline and against the six-governor mean.

use soc::SocConfig;
use workload::ScenarioKind;

use crate::par::parallel_map;
use crate::policies::{cell_key_prefix, eval_cell_keyed};
use crate::table::{fmt_f64, fmt_pct, Table};
use crate::{PolicyKind, RunConfig, RunMetrics, TrainingProtocol};

/// Matrix configuration.
#[derive(Debug, Clone)]
pub struct E1Config {
    /// Scenarios to evaluate (rows).
    pub scenarios: Vec<ScenarioKind>,
    /// Policies to evaluate (columns).
    pub policies: Vec<PolicyKind>,
    /// Seeds; results are averaged.
    pub seeds: Vec<u64>,
    /// Evaluation length per run (simulated seconds).
    pub eval_secs: u64,
    /// RL pre-training protocol.
    pub training: TrainingProtocol,
}

impl Default for E1Config {
    fn default() -> Self {
        E1Config {
            scenarios: ScenarioKind::ALL.to_vec(),
            policies: PolicyKind::evaluation_set(),
            seeds: vec![11, 22, 33, 44, 55],
            eval_secs: 120,
            training: TrainingProtocol::default(),
        }
    }
}

impl E1Config {
    /// A reduced matrix for tests and smoke benches.
    pub fn quick() -> Self {
        E1Config {
            scenarios: vec![ScenarioKind::Video, ScenarioKind::Idle],
            policies: PolicyKind::evaluation_set(),
            seeds: vec![11],
            eval_secs: 20,
            training: TrainingProtocol::quick(),
        }
    }
}

/// One `(scenario, policy, seed)` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// The scenario evaluated.
    pub scenario: ScenarioKind,
    /// The policy evaluated.
    pub policy: PolicyKind,
    /// The seed used.
    pub seed: u64,
    /// Full run metrics.
    pub metrics: RunMetrics,
}

/// Seed-averaged figures for one `(scenario, policy)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSummary {
    /// Mean energy per QoS unit (J/unit).
    pub energy_per_qos: f64,
    /// Seed standard deviation of the energy-per-QoS figures.
    pub energy_per_qos_std: f64,
    /// Mean total energy (J).
    pub energy_j: f64,
    /// Mean delivered QoS ratio.
    pub qos_ratio: f64,
    /// Mean violation count.
    pub violations: f64,
}

/// Full matrix result.
#[derive(Debug, Clone)]
pub struct E1Result {
    /// The configuration that produced it.
    pub config: E1Config,
    /// Every raw run.
    pub runs: Vec<CellRun>,
}

/// Executes the full matrix (parallel over cells).
pub fn run_e1(soc_config: &SocConfig, config: &E1Config) -> E1Result {
    let mut jobs = Vec::new();
    for &scenario in &config.scenarios {
        for &policy in &config.policies {
            for &seed in &config.seeds {
                jobs.push((scenario, policy, seed));
            }
        }
    }
    let eval_secs = config.eval_secs;
    let training = config.training;
    let soc_config_owned = soc_config.clone();
    // An invalid SoC config cannot produce measurements; its cells are
    // dropped (callers always pass configs that already built a SoC).
    // Each cell goes through the cell cache (a no-op unless a cache
    // directory is configured), keyed by a copy of one shared prefix.
    let sweep_key = cell_key_prefix(soc_config);
    let runs = parallel_map("e1", jobs, move |(scenario, policy, seed)| {
        let metrics = eval_cell_keyed(
            &soc_config_owned,
            sweep_key,
            scenario,
            policy,
            training,
            seed,
            RunConfig::seconds(eval_secs),
        )?;
        Some(CellRun {
            scenario,
            policy,
            seed,
            metrics,
        })
    });
    E1Result {
        config: config.clone(),
        runs: runs.into_iter().flatten().collect(),
    }
}

impl E1Result {
    /// Seed-averaged summary for one cell.
    pub fn cell(&self, scenario: ScenarioKind, policy: PolicyKind) -> CellSummary {
        let runs: Vec<&CellRun> = self
            .runs
            .iter()
            .filter(|r| r.scenario == scenario && r.policy == policy)
            .collect();
        assert!(!runs.is_empty(), "no runs for {scenario} / {policy}");
        let n = runs.len() as f64;
        let mean = runs.iter().map(|r| r.metrics.energy_per_qos).sum::<f64>() / n;
        let var = runs
            .iter()
            .map(|r| (r.metrics.energy_per_qos - mean).powi(2))
            .sum::<f64>()
            / n;
        CellSummary {
            energy_per_qos: mean,
            energy_per_qos_std: if mean.is_finite() {
                var.sqrt()
            } else {
                f64::INFINITY
            },
            energy_j: runs.iter().map(|r| r.metrics.energy_j).sum::<f64>() / n,
            qos_ratio: runs.iter().map(|r| r.metrics.qos.qos_ratio()).sum::<f64>() / n,
            violations: runs
                .iter()
                .map(|r| r.metrics.qos.violations as f64)
                .sum::<f64>()
                / n,
        }
    }

    /// The headline table: energy per QoS unit, scenarios × policies.
    pub fn energy_per_qos_table(&self) -> Table {
        let mut header: Vec<String> = vec!["scenario".into()];
        header.extend(self.config.policies.iter().map(|p| p.name().to_owned()));
        let mut table = Table::new("E1: energy per unit QoS (J/unit), lower is better", header);
        for &scenario in &self.config.scenarios {
            let mut row = vec![scenario.name().to_owned()];
            for &policy in &self.config.policies {
                row.push(fmt_f64(self.cell(scenario, policy).energy_per_qos));
            }
            table.push(row);
        }
        table
    }

    /// Mean reduction of the proposed policy's energy-per-QoS versus
    /// `baseline`, averaged over scenarios (positive = proposed is
    /// better). Infinite baseline cells (zero QoS delivered) are clamped
    /// to a 100% reduction for that scenario.
    pub fn reduction_vs(&self, baseline: PolicyKind) -> f64 {
        let mut total = 0.0;
        let mut n = 0.0;
        for &scenario in &self.config.scenarios {
            let rl = self.cell(scenario, PolicyKind::Rl).energy_per_qos;
            let base = self.cell(scenario, baseline).energy_per_qos;
            let reduction = if !base.is_finite() {
                1.0
            } else if base <= 0.0 {
                0.0
            } else {
                (1.0 - rl / base).min(1.0)
            };
            total += reduction;
            n += 1.0;
        }
        total / n
    }

    /// Mean reduction versus the average of the six baselines — the
    /// figure the paper reports as 31.66%.
    pub fn reduction_vs_six(&self) -> f64 {
        let baselines: Vec<PolicyKind> = self
            .config
            .policies
            .iter()
            .copied()
            .filter(|p| matches!(p, PolicyKind::Baseline(_)))
            .collect();
        let mut total = 0.0;
        let mut n: f64 = 0.0;
        for &scenario in &self.config.scenarios {
            let rl = self.cell(scenario, PolicyKind::Rl).energy_per_qos;
            let finite: Vec<f64> = baselines
                .iter()
                .map(|&b| self.cell(scenario, b).energy_per_qos)
                .filter(|v| v.is_finite())
                .collect();
            if finite.is_empty() {
                continue;
            }
            let mean_base = finite.iter().sum::<f64>() / finite.len() as f64;
            total += (1.0 - rl / mean_base).min(1.0);
            n += 1.0;
        }
        total / n.max(1.0)
    }

    /// Seed-variance companion to the headline table (σ of energy/QoS).
    pub fn stddev_table(&self) -> Table {
        let mut header: Vec<String> = vec!["scenario".into()];
        header.extend(self.config.policies.iter().map(|p| p.name().to_owned()));
        let mut table = Table::new("E1: seed standard deviation of energy per QoS unit", header);
        for &scenario in &self.config.scenarios {
            let mut row = vec![scenario.name().to_owned()];
            for &policy in &self.config.policies {
                row.push(fmt_f64(self.cell(scenario, policy).energy_per_qos_std));
            }
            table.push(row);
        }
        table
    }

    /// Summary table: per-baseline reductions plus the six-governor mean.
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            "E1 summary: proposed policy's energy-per-QoS reduction (positive = better)",
            ["baseline", "mean reduction"],
        );
        for &policy in &self.config.policies {
            if matches!(policy, PolicyKind::Baseline(_)) {
                table.push([policy.name().to_owned(), fmt_pct(self.reduction_vs(policy))]);
            }
        }
        table.push([
            "six-governor mean".to_owned(),
            fmt_pct(self.reduction_vs_six()),
        ]);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke of the whole E1 machinery on a reduced matrix.
    /// (The full-matrix run is exercised by the bench harness.)
    #[test]
    fn quick_matrix_runs_and_summarises() {
        let soc_config = SocConfig::odroid_xu3_like().unwrap();
        let config = E1Config {
            scenarios: vec![ScenarioKind::Audio],
            policies: vec![
                PolicyKind::Baseline(governors::GovernorKind::Performance),
                PolicyKind::Baseline(governors::GovernorKind::Powersave),
                PolicyKind::Rl,
            ],
            seeds: vec![1],
            eval_secs: 10,
            training: TrainingProtocol::quick(),
        };
        let result = run_e1(&soc_config, &config);
        assert_eq!(result.runs.len(), 3);

        let perf = result.cell(
            ScenarioKind::Audio,
            PolicyKind::Baseline(governors::GovernorKind::Performance),
        );
        let save = result.cell(
            ScenarioKind::Audio,
            PolicyKind::Baseline(governors::GovernorKind::Powersave),
        );
        // Audio is light: powersave meets QoS cheaply; performance wastes
        // energy for the same QoS.
        assert!(perf.energy_per_qos > save.energy_per_qos);

        let table = result.energy_per_qos_table();
        assert_eq!(table.len(), 1);
        let md = table.to_markdown();
        assert!(md.contains("audio"));
        assert!(md.contains("rlpm"));

        // Reduction vs performance must be meaningful on audio.
        let red = result.reduction_vs(PolicyKind::Baseline(governors::GovernorKind::Performance));
        assert!(
            red > 0.2,
            "RL should easily beat performance on audio: {red}"
        );
    }
}
