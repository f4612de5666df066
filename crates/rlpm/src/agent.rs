//! The tabular Q-learning agent.
//!
//! Watkins Q-learning with decaying schedules:
//!
//! ```text
//! Q(s,a) ← Q(s,a) + α_t · (r + γ · max_a' Q(s',a') − Q(s,a))
//! α_t = α₀ / (1 + k·t),   ε_t = max(ε_min, ε₀ · d^t)
//! ```
//!
//! and, by default, **Double Q-learning** (van Hasselt, 2010): two tables
//! `A`/`B`, each updated with the other's evaluation of its own argmax.
//! Single-table Q-learning systematically over-estimates action values
//! under stochastic rewards — in this domain that manifests as the policy
//! hovering at mid frequencies while idle because random future bursts
//! inflate `Q(idle, up)`. The double estimator removes that bias; acting
//! is greedy over `A + B`.
//!
//! The on-policy variants [`Algorithm::Sarsa`] (bootstraps from the
//! action actually taken next) and [`Algorithm::ExpectedSarsa`]
//! (expectation over the ε-greedy policy) are provided for the
//! algorithm ablation.
//!
//! ε-greedy exploration; the greedy path uses the deterministic
//! lowest-index argmax, matching the hardware comparator tree.

use simkit::SimRng;

use crate::{Action, Algorithm, QTable, RlConfig, StateIndex};

/// Tabular (Double) Q-learning with ε-greedy exploration.
#[derive(Debug, Clone)]
pub struct QLearningAgent {
    algorithm: Algorithm,
    table_a: QTable,
    /// Second estimator; present only in double mode.
    table_b: Option<QTable>,
    alpha0: f64,
    alpha_decay: f64,
    gamma: f64,
    epsilon: f64,
    epsilon_min: f64,
    epsilon_decay: f64,
    updates: u64,
    /// When frozen, the agent acts greedily and performs no updates
    /// (evaluation mode).
    frozen: bool,
    /// Whether the most recent [`Self::select_action`] explored.
    last_explored: bool,
    /// The signed TD correction applied by the most recent update.
    last_delta: f64,
    rng: SimRng,
}

impl QLearningAgent {
    /// Creates an agent for the given configuration and exploration seed.
    pub fn new(config: &RlConfig, seed: u64) -> Self {
        config.validate();
        let dims = (config.num_states(), config.num_actions());
        QLearningAgent {
            algorithm: config.algorithm,
            table_a: QTable::new(dims.0, dims.1, config.q_init),
            table_b: (config.algorithm == Algorithm::DoubleQLearning)
                .then(|| QTable::new(dims.0, dims.1, config.q_init)),
            alpha0: config.alpha0,
            alpha_decay: config.alpha_decay,
            gamma: config.gamma,
            epsilon: config.epsilon0,
            epsilon_min: config.epsilon_min,
            epsilon_decay: config.epsilon_decay,
            updates: 0,
            frozen: false,
            last_explored: false,
            last_delta: 0.0,
            rng: SimRng::seed_from(seed).split("q-agent"),
        }
    }

    /// The current learning rate.
    pub fn alpha(&self) -> f64 {
        self.alpha0 / (1.0 + self.alpha_decay * self.updates as f64)
    }

    /// The current exploration rate (zero when frozen).
    pub fn epsilon(&self) -> f64 {
        if self.frozen {
            0.0
        } else {
            self.epsilon
        }
    }

    /// Number of TD updates performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Whether the most recent [`Self::select_action`] took the uniform
    /// exploration branch instead of acting greedily. Consumed by the
    /// decision-trace sink; purely observational.
    pub fn last_explored(&self) -> bool {
        self.last_explored
    }

    /// The signed TD correction `α·(target − Q(s,a))` applied by the most
    /// recent update (zero before the first update, unchanged while
    /// frozen). Purely observational.
    pub fn last_td_delta(&self) -> f64 {
        self.last_delta
    }

    /// The algorithm in use.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Whether the agent runs the double estimator.
    pub fn is_double(&self) -> bool {
        self.table_b.is_some()
    }

    /// Read access to the primary Q-table.
    pub fn table(&self) -> &QTable {
        &self.table_a
    }

    /// Mutable access to the primary Q-table (restoring trained values;
    /// in double mode load both tables or use [`Self::load_merged`]).
    pub fn table_mut(&mut self) -> &mut QTable {
        &mut self.table_a
    }

    /// The acting-value table: `A + B` in double mode (the quantity the
    /// greedy policy maximises), a copy of `A` otherwise. This is what
    /// gets exported to the hardware engine.
    pub fn merged_table(&self) -> QTable {
        let mut merged = self.table_a.clone();
        if let Some(b) = &self.table_b {
            let sums: Vec<f64> = merged
                .values()
                .iter()
                .zip(b.values())
                .map(|(x, y)| x + y)
                .collect();
            merged.load(&sums);
        }
        merged
    }

    /// Loads one trained table into both estimators (deployment restore).
    /// The estimators share one copy until either learns.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match.
    pub fn load_merged(&mut self, values: &[f64]) {
        self.table_a.load(values);
        if let Some(b) = &mut self.table_b {
            *b = self.table_a.clone();
        }
    }

    /// Switches between learning (`false`) and frozen evaluation
    /// (`true`).
    pub fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    /// Whether the agent is in frozen evaluation mode.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Acting value of `(s, a)`: `A + B` in double mode. The greedy path
    /// reads row slices instead; this scalar form remains the reference
    /// the tests check it against.
    #[cfg(test)]
    fn acting_value(&self, s: StateIndex, a: Action) -> f64 {
        match &self.table_b {
            Some(b) => self.table_a.get(s, a) + b.get(s, a),
            None => self.table_a.get(s, a),
        }
    }

    /// Greedy action over the acting values (lowest-index tie-break).
    /// Walks the row slices directly — all Q values are finite (enforced
    /// by [`QTable::set`]), so the NEG_INFINITY-seeded scan picks the
    /// same action as seeding with the value of action 0.
    pub fn greedy_action(&self, state: StateIndex) -> Action {
        match &self.table_b {
            Some(b) => self.table_a.argmax_sum(b, state),
            None => self.table_a.argmax(state),
        }
    }

    /// Picks an action for `state`: greedy with probability `1 − ε`,
    /// uniform otherwise.
    pub fn select_action(&mut self, state: StateIndex) -> Action {
        if !self.frozen && self.rng.chance(self.epsilon) {
            self.last_explored = true;
            self.rng.uniform_usize(self.table_a.num_actions())
        } else {
            self.last_explored = false;
            self.greedy_action(state)
        }
    }

    /// Applies one TD update for the transition `(s, a) → (r, s')` and
    /// advances the schedules. No-op when frozen.
    ///
    /// For [`Algorithm::Sarsa`] the bootstrap uses the greedy next
    /// action; on-policy callers that know the action actually chosen in
    /// `s'` should use [`Self::update_with_next`].
    pub fn update(&mut self, s: StateIndex, a: Action, reward: f64, s_next: StateIndex) {
        let a_next = self.greedy_action(s_next);
        self.update_with_next(s, a, reward, s_next, a_next);
    }

    /// Applies one TD update where `a_next` is the action the policy
    /// actually takes in `s'` (only SARSA's bootstrap depends on it).
    pub fn update_with_next(
        &mut self,
        s: StateIndex,
        a: Action,
        reward: f64,
        s_next: StateIndex,
        a_next: Action,
    ) {
        if self.frozen {
            return;
        }
        let alpha = self.alpha();
        let delta;
        match self.algorithm {
            Algorithm::QLearning => {
                let target = reward + self.gamma * self.table_a.max_value(s_next);
                let old = self.table_a.get(s, a);
                delta = alpha * (target - old);
                self.table_a.set(s, a, old + delta);
            }
            Algorithm::Sarsa => {
                let target = reward + self.gamma * self.table_a.get(s_next, a_next);
                let old = self.table_a.get(s, a);
                delta = alpha * (target - old);
                self.table_a.set(s, a, old + delta);
            }
            Algorithm::ExpectedSarsa => {
                // Expectation under the current ε-greedy policy:
                // (1 − ε)·max + ε·mean.
                let n = self.table_a.num_actions();
                let row = self.table_a.row(s_next);
                let mean: f64 = row.iter().sum::<f64>() / n as f64;
                let max = self.table_a.max_value(s_next);
                let eps = self.epsilon;
                let expected = (1.0 - eps) * max + eps * mean;
                let target = reward + self.gamma * expected;
                let old = self.table_a.get(s, a);
                delta = alpha * (target - old);
                self.table_a.set(s, a, old + delta);
            }
            Algorithm::DoubleQLearning => {
                let b = self.table_b.as_mut().expect("double mode has table B");
                // A fair coin decides which estimator learns; its own
                // argmax is evaluated by the *other* table.
                if self.rng.chance(0.5) {
                    let a_star = self.table_a.argmax(s_next);
                    let target = reward + self.gamma * b.get(s_next, a_star);
                    let old = self.table_a.get(s, a);
                    delta = alpha * (target - old);
                    self.table_a.set(s, a, old + delta);
                } else {
                    let b_star = b.argmax(s_next);
                    let target = reward + self.gamma * self.table_a.get(s_next, b_star);
                    let old = b.get(s, a);
                    delta = alpha * (target - old);
                    b.set(s, a, old + delta);
                }
            }
        }
        self.last_delta = delta;
        self.updates += 1;
        self.epsilon = (self.epsilon * self.epsilon_decay).max(self.epsilon_min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc::SocConfig;

    fn config() -> RlConfig {
        RlConfig::for_soc(&SocConfig::symmetric_quad().unwrap())
    }

    fn single_config() -> RlConfig {
        RlConfig {
            algorithm: Algorithm::QLearning,
            ..config()
        }
    }

    fn agent() -> QLearningAgent {
        QLearningAgent::new(&single_config(), 7)
    }

    fn double_agent() -> QLearningAgent {
        QLearningAgent::new(&config(), 7)
    }

    #[test]
    fn update_moves_toward_target() {
        let mut a = agent();
        let before = a.table().get(3, 1);
        a.update(3, 1, 10.0, 4);
        let after = a.table().get(3, 1);
        assert!(after > before, "positive surprise raises Q");
        let expected = before + a.alpha0 * (10.0 + a.gamma * a.table().max_value(4) - before);
        assert!((after - expected).abs() < 1e-9);
    }

    #[test]
    fn repeated_updates_converge_to_fixed_point() {
        let mut a = agent();
        // Deterministic bandit: action 2 in state 0 always yields 1.0 and
        // returns to state 0. Q*(0,2) = 1/(1−γ).
        for _ in 0..200_000 {
            a.update(0, 2, 1.0, 0);
        }
        let q_star = 1.0 / (1.0 - a.gamma);
        assert!(
            (a.table().get(0, 2) - q_star).abs() < 0.05,
            "Q = {} vs {}",
            a.table().get(0, 2),
            q_star
        );
    }

    #[test]
    fn double_agent_also_converges_on_deterministic_bandit() {
        let mut a = double_agent();
        for _ in 0..400_000 {
            a.update(0, 2, 1.0, 0);
        }
        let q_star = 1.0 / (1.0 - a.gamma);
        let merged = a.merged_table();
        assert!(
            (merged.get(0, 2) / 2.0 - q_star).abs() < 0.1,
            "mean estimate {} vs {}",
            merged.get(0, 2) / 2.0,
            q_star
        );
        assert_eq!(a.greedy_action(0), 2);
    }

    #[test]
    fn double_q_reduces_maximization_bias() {
        // Sutton & Barto's bias example, adapted: in state 0 every action
        // yields noisy reward with mean −0.5 and ends the episode
        // (s_next = 1 is absorbing with all-zero values). A single
        // estimator drives max_a Q(0, a) far above the true −0.5; the
        // double estimator stays near it.
        let max_estimate = |double: bool| {
            let mut cfg = config();
            cfg.algorithm = if double {
                Algorithm::DoubleQLearning
            } else {
                Algorithm::QLearning
            };
            cfg.q_init = 0.0;
            cfg.alpha_decay = 0.0;
            cfg.alpha0 = 0.1;
            let mut agent = QLearningAgent::new(&cfg, 11);
            let mut noise = SimRng::seed_from(3);
            for _ in 0..30_000 {
                let a = agent.rng.uniform_usize(5);
                let r = -0.5 + noise.normal(0.0, 2.0);
                agent.update(0, a, r, 1);
            }
            // Freeze table B contribution out by reading acting values.
            (0..5)
                .map(|a| agent.acting_value(0, a) / if double { 2.0 } else { 1.0 })
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let single = max_estimate(false);
        let double = max_estimate(true);
        assert!(
            double < single - 0.05,
            "double {double} should be visibly below single {single}"
        );
        assert!(double < 0.1, "double estimate {double} near the true -0.5");
    }

    #[test]
    fn greedy_learns_the_better_arm() {
        for mut a in [agent(), double_agent()] {
            for _ in 0..1_000 {
                a.update(0, 1, 1.0, 0); // good arm
                a.update(0, 3, -1.0, 0); // bad arm
            }
            assert_eq!(a.greedy_action(0), 1);
        }
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let mut a = agent();
        let e0 = a.epsilon();
        for _ in 0..20_000 {
            a.update(0, 0, 0.0, 0);
        }
        assert!(a.epsilon() < e0);
        assert_eq!(a.epsilon(), 0.02, "hits the floor");
    }

    #[test]
    fn alpha_decays_with_updates() {
        let mut a = agent();
        let a0 = a.alpha();
        for _ in 0..100_000 {
            a.update(0, 0, 0.0, 0);
        }
        assert!(a.alpha() < a0);
        assert!(a.alpha() > 0.0);
    }

    #[test]
    fn frozen_agent_neither_updates_nor_explores() {
        let mut a = agent();
        a.update(0, 4, 100.0, 0); // make action 4 clearly best in state 0
        a.set_frozen(true);
        let before = a.table().values().to_vec();
        for _ in 0..100 {
            assert_eq!(a.select_action(0), 4, "always greedy when frozen");
            a.update(0, 0, -100.0, 0);
        }
        assert_eq!(a.table().values(), &before[..], "no updates when frozen");
        assert_eq!(a.epsilon(), 0.0);
    }

    #[test]
    fn exploration_actually_explores() {
        let mut a = double_agent();
        let greedy = a.greedy_action(0);
        let mut non_greedy = 0;
        for _ in 0..1_000 {
            if a.select_action(0) != greedy {
                non_greedy += 1;
            }
        }
        assert!(non_greedy > 100, "only {non_greedy} exploratory picks");
    }

    #[test]
    fn merged_table_is_sum_in_double_mode() {
        let mut a = double_agent();
        for i in 0..500 {
            a.update(i % 7, i % 5, 1.0, (i + 1) % 7);
        }
        let merged = a.merged_table();
        // Spot-check against acting_value.
        for s in 0..7 {
            for act in 0..5 {
                assert!((merged.get(s, act) - a.acting_value(s, act)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn load_merged_restores_both_estimators() {
        let mut a = double_agent();
        let n = a.table().values().len();
        let values: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        a.load_merged(&values);
        a.set_frozen(true);
        // Acting value = 2x the loaded value everywhere.
        assert!((a.acting_value(1, 1) - 2.0 * values[a.table().num_actions() + 1]).abs() < 1e-12);
    }

    #[test]
    fn restored_estimators_share_one_copy_until_one_is_written() {
        let mut a = double_agent();
        let n = a.table().values().len();
        let values: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        a.load_merged(&values);
        let b_ptr = |a: &QLearningAgent| a.table_b.as_ref().map(|b| b.values().as_ptr());
        assert_eq!(b_ptr(&a), Some(a.table().values().as_ptr()), "one copy");
        a.table_mut().set(0, 0, 42.0);
        assert_eq!(a.table().get(0, 0), 42.0);
        assert_eq!(a.table_b.as_ref().map(|b| b.get(0, 0)), Some(values[0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut a = QLearningAgent::new(&config(), 42);
            let mut actions = Vec::new();
            for i in 0..200 {
                let s = i % 10;
                let act = a.select_action(s);
                a.update(s, act, (i % 3) as f64 - 1.0, (s + 1) % 10);
                actions.push(act);
            }
            actions
        };
        assert_eq!(run(), run());
    }
}
