//! The Linux `ondemand` governor.
//!
//! Kernel algorithm (drivers/cpufreq/cpufreq_ondemand.c), per policy:
//!
//! * if load > `up_threshold` (default 80%): jump straight to the maximum
//!   frequency, and hold high frequencies for `sampling_down_factor`
//!   sampling periods before re-evaluating downward;
//! * otherwise pick the lowest frequency that would keep the load just
//!   below `up_threshold`: `f_next = load · f_max / up_threshold`
//!   (frequency-invariant load), rounded *up* to an OPP.
//!
//! Load here is the busiest-core busy fraction at the *current*
//! frequency; the frequency-invariant form rescales it by
//! `f_cur / f_max`.

use soc::LevelRequest;

use crate::{Governor, SystemState};

/// `ondemand` tunables (kernel defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OndemandTunables {
    /// Load above which the governor jumps to max, in `[0, 1]`.
    pub up_threshold: f64,
    /// Number of sampling periods to hold after a jump to max before
    /// stepping down.
    pub sampling_down_factor: u32,
}

impl Default for OndemandTunables {
    fn default() -> Self {
        OndemandTunables {
            up_threshold: 0.80,
            sampling_down_factor: 1,
        }
    }
}

/// Linux `ondemand`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ondemand {
    tunables: OndemandTunables,
    /// Remaining hold periods per cluster after a jump to max.
    hold: Vec<u32>,
}

impl Ondemand {
    /// Creates the governor for `num_clusters` clusters.
    pub fn new(tunables: OndemandTunables, num_clusters: usize) -> Self {
        Ondemand {
            tunables,
            hold: vec![0; num_clusters],
        }
    }
}

impl Governor for Ondemand {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn decide(&mut self, state: &SystemState) -> LevelRequest {
        let mut request = LevelRequest::new(Vec::new());
        self.decide_into(state, &mut request);
        request
    }

    fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
        crate::governor::note_decision();
        let clusters = &state.soc.clusters;
        if self.hold.len() < clusters.len() {
            self.hold.resize(clusters.len(), 0);
        }
        let up_threshold = self.tunables.up_threshold;
        let sampling_down_factor = self.tunables.sampling_down_factor;
        request.levels.clear();
        request
            .levels
            .extend(clusters.iter().zip(self.hold.iter_mut()).map(|(c, hold)| {
                let max_level = c.num_levels.saturating_sub(1);
                if c.util_max > up_threshold {
                    *hold = sampling_down_factor;
                    return max_level;
                }
                if *hold > 0 {
                    *hold -= 1;
                    return c.level.max(1).min(max_level);
                }
                // Frequency-invariant load → target frequency.
                let (_, f_max) = c.freq_range_hz;
                let inv_load = c.util_max * c.freq_hz as f64 / f_max as f64;
                let f_target = (inv_load * f_max as f64 / up_threshold) as u64;
                // Recreate the ceiling lookup against the advertised
                // range: the observation does not carry the full table,
                // so interpolate a level linearly and round up, then
                // clamp.
                level_for_freq_ceiling(c, f_target)
            }));
    }

    /// With a hold slot per cluster and none running, zero load stays
    /// at or under a non-negative threshold and targets frequency zero,
    /// the bottom level, so only an all-bottom request is fixed.
    fn decide_parked(&mut self, request: &LevelRequest) -> bool {
        crate::governor::note_if_parked(
            self.tunables.up_threshold >= 0.0
                && self.hold.len() >= request.levels.len()
                && self.hold.iter().all(|&hold| hold == 0)
                && request.levels.iter().all(|&level| level == 0),
        )
    }

    fn reset(&mut self) {
        self.hold.iter_mut().for_each(|h| *h = 0);
    }
}

/// Maps a target frequency to the lowest level whose (linearly estimated)
/// frequency is ≥ the target. Observations carry only the frequency range
/// and level count; OPP tables are close enough to linear for governor
/// purposes (the XU3 tables are exactly linear in frequency).
pub(crate) fn level_for_freq_ceiling(c: &soc::ClusterObservation, f_target: u64) -> usize {
    let (f_min, f_max) = c.freq_range_hz;
    let max_level = c.num_levels - 1;
    if f_target <= f_min {
        return 0;
    }
    if f_target >= f_max {
        return max_level;
    }
    let span = (f_max - f_min) as f64;
    let frac = (f_target - f_min) as f64 / span;
    ((frac * max_level as f64).ceil() as usize).min(max_level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::synthetic_state;

    const LITTLE: (u64, u64) = (200_000_000, 1_400_000_000);

    fn state(util: f64, level: usize, freq: u64) -> SystemState {
        synthetic_state(&[(util, level, 13, freq, LITTLE)])
    }

    #[test]
    fn jumps_to_max_above_threshold() {
        let mut g = Ondemand::new(Default::default(), 1);
        let s = state(0.95, 2, 400_000_000);
        assert_eq!(g.decide(&s).levels, vec![12]);
    }

    #[test]
    fn proportional_below_threshold() {
        let mut g = Ondemand::new(Default::default(), 1);
        // At max frequency with 40% load: target = 0.4/0.8 * f_max =
        // 700 MHz → ceiling level.
        let s = state(0.40, 12, 1_400_000_000);
        let level = g.decide(&s).levels[0];
        // 700 MHz on the 200..1400 table is level ceil((700-200)/1200*12)=5.
        assert_eq!(level, 5);
    }

    #[test]
    fn idle_falls_to_bottom() {
        let mut g = Ondemand::new(Default::default(), 1);
        let s = state(0.0, 8, 1_000_000_000);
        assert_eq!(g.decide(&s).levels, vec![0]);
    }

    #[test]
    fn frequency_invariance_scales_load() {
        let mut g = Ondemand::new(Default::default(), 1);
        // 80% load at 200 MHz is only ~11% of max capacity → low target.
        let s = state(0.80, 0, 200_000_000);
        let level = g.decide(&s).levels[0];
        assert!(level <= 1, "got level {level}");
    }

    #[test]
    fn sampling_down_factor_holds_after_burst() {
        let mut g = Ondemand::new(
            OndemandTunables {
                up_threshold: 0.8,
                sampling_down_factor: 3,
            },
            1,
        );
        // Burst: jump to max.
        assert_eq!(g.decide(&state(0.95, 2, 400_000_000)).levels, vec![12]);
        // Load vanishes, but the hold keeps us off the bottom for 3 epochs.
        for _ in 0..3 {
            let l = g.decide(&state(0.0, 12, 1_400_000_000)).levels[0];
            assert!(l >= 1, "held level {l}");
        }
        // Then we drop.
        assert_eq!(g.decide(&state(0.0, 12, 1_400_000_000)).levels, vec![0]);
    }

    #[test]
    fn reset_clears_hold() {
        let mut g = Ondemand::new(
            OndemandTunables {
                up_threshold: 0.8,
                sampling_down_factor: 5,
            },
            1,
        );
        g.decide(&state(0.95, 2, 400_000_000));
        g.reset();
        assert_eq!(g.decide(&state(0.0, 12, 1_400_000_000)).levels, vec![0]);
    }

    #[test]
    fn per_cluster_independence() {
        let mut g = Ondemand::new(Default::default(), 2);
        let s = synthetic_state(&[
            (0.95, 0, 13, 200_000_000, LITTLE),
            (0.05, 18, 19, 2_000_000_000, (200_000_000, 2_000_000_000)),
        ]);
        let req = g.decide(&s);
        assert_eq!(req.levels[0], 12, "busy LITTLE jumps to its max");
        assert!(req.levels[1] <= 2, "idle big drops");
    }

    #[test]
    fn ceiling_helper_endpoints() {
        let s = state(0.0, 0, 200_000_000);
        let c = &s.soc.clusters[0];
        assert_eq!(level_for_freq_ceiling(c, 0), 0);
        assert_eq!(level_for_freq_ceiling(c, 200_000_000), 0);
        assert_eq!(level_for_freq_ceiling(c, 1_400_000_000), 12);
        assert_eq!(level_for_freq_ceiling(c, 2_000_000_000), 12);
        assert_eq!(level_for_freq_ceiling(c, 200_000_001), 1);
    }
}
