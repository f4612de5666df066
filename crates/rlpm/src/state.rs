//! State discretisation.
//!
//! The paper's policy "considers the behavioral characteristics of
//! systems … under diverse scenarios": the state must capture how loaded
//! each cluster is, where its frequency currently sits, whether the user
//! is getting their QoS, and which way the load is heading.
//!
//! The frequency level enters the state *exactly* (one bin per OPP,
//! capped by [`RlConfig::level_bins`]). Coarse level bins alias several
//! OPPs into one state; combined with delta actions and the
//! lower-power-first tie-break, that produces a structural drift: the
//! policy steps down inside a bin without the Q-table being able to see
//! it, exits the bin, violates, jumps back up, and oscillates. Exact
//! levels remove the aliasing.

use governors::SystemState;

use crate::{Predictor, RlConfig};

/// Index of a discrete state, in `0..StateSpace::len()`.
pub type StateIndex = usize;

/// Encodes observations into Q-table state indices.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpace {
    util_bins: usize,
    /// Effective level bins per cluster: `min(config.level_bins, levels)`.
    level_bins: Vec<usize>,
    /// OPP count per cluster (to rescale when level bins are coarse).
    levels: Vec<usize>,
    qos_bins: usize,
    trend_bins: usize,
}

/// The decoded feature vector, exposed for debugging and the hardware
/// model's register interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateFeatures {
    /// Per-cluster busy-fraction bin.
    pub util: Vec<usize>,
    /// Per-cluster frequency-level bin (exact level when uncapped).
    pub level: Vec<usize>,
    /// QoS slack bin (0 = violating hard, max = comfortable).
    pub qos: usize,
    /// Load-trend bin (0 = falling, 1 = flat, 2 = rising for 3 bins).
    pub trend: usize,
}

impl StateSpace {
    /// Builds the state space described by `config`.
    pub fn new(config: &RlConfig) -> Self {
        let level_bins = config
            .levels_per_cluster
            .iter()
            .map(|&l| l.min(config.level_bins))
            .collect();
        StateSpace {
            util_bins: config.util_bins,
            level_bins,
            levels: config.levels_per_cluster.clone(),
            qos_bins: config.qos_bins,
            trend_bins: config.trend_bins,
        }
    }

    /// Total number of states.
    pub fn len(&self) -> usize {
        self.level_bins
            .iter()
            .map(|&b| self.util_bins * b)
            .product::<usize>()
            * self.qos_bins
            * self.trend_bins
    }

    /// A state space is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Extracts the discrete features from an observation.
    ///
    /// `predictor` supplies the trend bin; pass a freshly reset predictor
    /// for a trendless encoding.
    pub fn features(&self, state: &SystemState, predictor: &Predictor) -> StateFeatures {
        let (util, level) = self.cluster_bins(state).unzip();
        StateFeatures {
            util,
            level,
            qos: self.qos_bin(state),
            trend: predictor.trend_bin(self.trend_bins),
        }
    }

    /// Encodes an observation into a state index: the index of its
    /// [`StateSpace::features`], packed as they are binned, without
    /// building them.
    ///
    /// # Panics
    ///
    /// Panics if the observation's cluster count differs from the
    /// configured one.
    pub fn encode(&self, state: &SystemState, predictor: &Predictor) -> StateIndex {
        assert_eq!(
            state.num_clusters(),
            self.level_bins.len(),
            "observation has wrong cluster count"
        );
        self.pack(
            self.cluster_bins(state),
            self.qos_bin(state),
            predictor.trend_bin(self.trend_bins),
        )
    }

    /// Converts features to an index (mixed-radix packing).
    pub fn index_of(&self, f: &StateFeatures) -> StateIndex {
        let clusters = f.util.iter().copied().zip(f.level.iter().copied());
        self.pack(clusters, f.qos, f.trend)
    }

    /// The mixed-radix packing of per-cluster `(util, level)` bins and the
    /// QoS and trend bins.
    fn pack(
        &self,
        clusters: impl Iterator<Item = (usize, usize)>,
        qos: usize,
        trend: usize,
    ) -> StateIndex {
        let mut idx = 0;
        for ((u, l), &bins) in clusters.zip(&self.level_bins) {
            debug_assert!(u < self.util_bins && l < bins);
            idx = idx * self.util_bins + u;
            idx = idx * bins + l;
        }
        idx = idx * self.qos_bins + qos;
        idx * self.trend_bins + trend
    }

    /// Each cluster's `(util, level)` bins, in cluster order.
    fn cluster_bins<'a>(
        &'a self,
        state: &'a SystemState,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let per_cluster = state
            .soc
            .clusters
            .iter()
            .zip(self.level_bins.iter().zip(&self.levels));
        per_cluster.map(|(c, (&bins, &levels))| {
            // Raw busy fraction at the current OPP. Together with the
            // exact level this fully locates the demand: "90% busy at
            // level 0" (saturating, cheap to fix) and "90% busy at the
            // top level" (genuinely loaded) are different states, while a
            // capacity-normalised encoding would fold the whole busy
            // range at low frequencies into one bin and blind the policy
            // to low-OPP saturation.
            //
            // Telemetry may be fault-injected (noise, dropout garbage):
            // every raw observation field is sanitised into a valid bin —
            // non-finite utilisation reads as idle, an out-of-table level
            // clamps to the top bin — so a corrupted sample can skew a
            // decision but never index out of bounds.
            let util = Self::bin(Self::sanitize_unit(c.util_max), self.util_bins);
            let lvl = c.level.min(levels.saturating_sub(1));
            let level = if bins >= levels {
                lvl
            } else {
                Self::bin(lvl as f64 / (levels.max(2) - 1) as f64, bins)
            };
            (util, level)
        })
    }

    /// The QoS slack bin: perfect QoS with no backlog is the top bin;
    /// violations drive it to 0.
    fn qos_bin(&self, state: &SystemState) -> usize {
        let qos_signal = if state.qos.violations > 0 {
            0.0
        } else {
            Self::sanitize_unit(state.qos.qos_ratio - 0.02 * state.qos.pending_jobs as f64)
        };
        Self::bin(qos_signal, self.qos_bins)
    }

    fn bin(x: f64, bins: usize) -> usize {
        ((x * bins as f64) as usize).min(bins.saturating_sub(1))
    }

    /// Maps a possibly-corrupted observation field to `[0, 1]`:
    /// non-finite values (NaN/inf from injected telemetry noise) read as
    /// 0 rather than propagating through `clamp` (which keeps NaN).
    fn sanitize_unit(x: f64) -> f64 {
        if x.is_finite() {
            x.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use governors::state::synthetic_state;
    use soc::SocConfig;

    fn space() -> (StateSpace, Predictor, RlConfig) {
        let cfg = RlConfig::for_soc(&SocConfig::odroid_xu3_like().unwrap());
        (StateSpace::new(&cfg), Predictor::new(&cfg), cfg)
    }

    fn obs(u_l: f64, u_b: f64, lvl_l: usize, lvl_b: usize) -> SystemState {
        synthetic_state(&[
            (
                u_l,
                lvl_l,
                13,
                200_000_000 + lvl_l as u64 * 100_000_000,
                (200_000_000, 1_400_000_000),
            ),
            (
                u_b,
                lvl_b,
                19,
                200_000_000 + lvl_b as u64 * 100_000_000,
                (200_000_000, 2_000_000_000),
            ),
        ])
    }

    #[test]
    fn index_is_within_bounds_everywhere() {
        let (space, pred, _) = space();
        for u in [0.0, 0.3, 0.7, 1.0] {
            for lvl in [0usize, 6, 12] {
                let idx = space.encode(&obs(u, u, lvl, lvl), &pred);
                assert!(idx < space.len());
            }
        }
    }

    #[test]
    fn uncapped_config_gives_every_opp_level_its_own_state() {
        // With level_bins >= the table size, adjacent levels never alias.
        let mut cfg = RlConfig::for_soc(&SocConfig::odroid_xu3_like().unwrap());
        cfg.level_bins = 32;
        let space = StateSpace::new(&cfg);
        let pred = Predictor::new(&cfg);
        let mut seen = std::collections::BTreeSet::new();
        for lvl_b in 0..19 {
            let idx = space.encode(&obs(0.5, 0.5, 5, lvl_b), &pred);
            assert!(seen.insert(idx), "big level {lvl_b} aliases another level");
        }
        for lvl_l in 0..13 {
            let idx = space.encode(&obs(0.5, 0.5, lvl_l, 5), &pred);
            assert!(idx < space.len());
        }
    }

    #[test]
    fn distinct_features_give_distinct_indices() {
        let (space, pred, _) = space();
        let a = space.encode(&obs(0.1, 0.1, 0, 0), &pred);
        let b = space.encode(&obs(0.9, 0.1, 0, 0), &pred);
        let c = space.encode(&obs(0.1, 0.1, 12, 0), &pred);
        assert_ne!(a, b, "utilisation must be visible in the state");
        assert_ne!(a, c, "frequency level must be visible in the state");
    }

    #[test]
    fn index_of_is_injective_over_feature_grid() {
        let (space, _, cfg) = space();
        let mut seen = std::collections::BTreeSet::new();
        for u0 in 0..cfg.util_bins {
            for l0 in 0..cfg.level_bins.min(13) {
                for u1 in 0..cfg.util_bins {
                    for l1 in 0..cfg.level_bins.min(19) {
                        for q in 0..cfg.qos_bins {
                            for t in 0..cfg.trend_bins {
                                let f = StateFeatures {
                                    util: vec![u0, u1],
                                    level: vec![l0, l1],
                                    qos: q,
                                    trend: t,
                                };
                                let idx = space.index_of(&f);
                                assert!(idx < space.len());
                                assert!(seen.insert(idx), "collision at {f:?}");
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), space.len(), "packing is a bijection");
    }

    #[test]
    fn coarse_cap_still_bins_sanely() {
        let mut cfg = RlConfig::for_soc(&SocConfig::odroid_xu3_like().unwrap());
        cfg.level_bins = 4;
        let space = StateSpace::new(&cfg);
        let pred = Predictor::new(&cfg);
        assert_eq!(space.len(), (6 * 4) * (6 * 4) * 4 * 3);
        let f_low = space.features(&obs(0.5, 0.5, 0, 0), &pred);
        let f_high = space.features(&obs(0.5, 0.5, 12, 18), &pred);
        assert_eq!(f_low.level, vec![0, 0]);
        assert_eq!(f_high.level, vec![3, 3]);
    }

    #[test]
    fn violations_zero_the_qos_bin() {
        let (space, pred, _) = space();
        let mut s = obs(0.5, 0.5, 3, 3);
        s.qos.violations = 2;
        let f = space.features(&s, &pred);
        assert_eq!(f.qos, 0);
    }

    #[test]
    fn saturation_at_min_opp_is_visible() {
        // A saturated cluster at the lowest OPP must land in a different
        // util bin than an idle one.
        let (space, pred, _) = space();
        let idle = space.features(&obs(0.05, 0.0, 0, 0), &pred);
        let saturated = space.features(&obs(0.95, 0.0, 0, 0), &pred);
        assert!(saturated.util[0] > idle.util[0]);
    }

    #[test]
    fn corrupted_telemetry_still_encodes_in_bounds() {
        let (space, pred, _) = space();
        // NaN / infinite utilisation and QoS ratio, level beyond the
        // table: all must map to valid bins, never panic or overflow.
        for bad_util in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 7.5] {
            let mut s = obs(0.5, 0.5, 3, 3);
            s.soc.clusters[0].util_max = bad_util;
            s.qos.qos_ratio = bad_util;
            let idx = space.encode(&s, &pred);
            assert!(idx < space.len(), "util_max = {bad_util}");
        }
        let mut s = obs(0.5, 0.5, 3, 3);
        s.soc.clusters[0].level = 999;
        s.soc.clusters[1].level = usize::MAX;
        let f = space.features(&s, &pred);
        let top = space.features(&obs(0.5, 0.5, 12, 18), &pred);
        assert_eq!(f.level, top.level, "out-of-table levels clamp to top");
        assert!(space.index_of(&f) < space.len());
    }

    #[test]
    fn encode_is_the_index_of_the_features() {
        // Random observations, about a third of their fields corrupted,
        // under a predictor fed the clean ones.
        let mut cfg = RlConfig::for_soc(&SocConfig::odroid_xu3_like().unwrap());
        for level_bins in [32, 4] {
            cfg.level_bins = level_bins;
            let space = StateSpace::new(&cfg);
            let mut pred = Predictor::new(&cfg);
            let mut rng = simkit::SimRng::seed_from(17);
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 7.5];
            for _ in 0..2_000 {
                let mut s = obs(
                    rng.uniform(),
                    rng.uniform(),
                    rng.uniform_usize(13),
                    rng.uniform_usize(19),
                );
                pred.observe(&s);
                for c in &mut s.soc.clusters {
                    if rng.chance(0.3) {
                        c.util_max = bad[rng.uniform_usize(bad.len())];
                    }
                    if rng.chance(0.3) {
                        c.level = [40, 999, usize::MAX][rng.uniform_usize(3)];
                    }
                }
                s.qos.qos_ratio = if rng.chance(0.3) {
                    bad[rng.uniform_usize(bad.len())]
                } else {
                    rng.uniform()
                };
                s.qos.violations = u64::from(rng.chance(0.2));
                s.qos.pending_jobs = rng.uniform_usize(60);
                let idx = space.encode(&s, &pred);
                assert_eq!(idx, space.index_of(&space.features(&s, &pred)), "{s:?}");
                assert!(idx < space.len());
            }
        }
    }

    #[test]
    fn nan_util_reads_as_idle_not_saturated() {
        let (space, pred, _) = space();
        let mut s = obs(0.9, 0.9, 3, 3);
        s.soc.clusters[0].util_max = f64::NAN;
        let f = space.features(&s, &pred);
        assert_eq!(f.util[0], 0, "NaN utilisation maps to the idle bin");
    }

    #[test]
    fn single_level_cluster_encodes_without_division_by_zero() {
        let mut cfg = RlConfig::for_soc(&SocConfig::odroid_xu3_like().unwrap());
        cfg.levels_per_cluster = vec![1, 1];
        cfg.level_bins = 4;
        let space = StateSpace::new(&cfg);
        let pred = Predictor::new(&cfg);
        let s = obs(0.5, 0.5, 0, 0);
        let idx = space.encode(&s, &pred);
        assert!(idx < space.len());
    }

    #[test]
    #[should_panic(expected = "wrong cluster count")]
    fn arity_mismatch_panics() {
        let (space, pred, _) = space();
        let s = synthetic_state(&[(0.5, 0, 13, 200_000_000, (200_000_000, 1_400_000_000))]);
        space.encode(&s, &pred);
    }
}
