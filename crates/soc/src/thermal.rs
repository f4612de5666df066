//! Lumped-RC thermal model with passive throttling.
//!
//! Each cluster is one thermal node:
//!
//! ```text
//! C_th · dT/dt = P − (T − T_amb) / R_th
//! ```
//!
//! integrated with the exact exponential solution per sub-step (stable for
//! any step size). When the node crosses `throttle_temp_c`, the cluster's
//! maximum OPP level is clamped until it cools below the hysteresis
//! threshold — the same trip-point behaviour as a mobile thermal governor,
//! and a dynamic the `performance` baseline runs into on sustained loads.

use simkit::SimDuration;

/// Thermal parameters and state for one cluster.
#[derive(Debug, Clone, Copy)]
pub struct ThermalModel {
    /// Thermal resistance junction→ambient (°C/W).
    pub r_th_c_per_w: f64,
    /// Thermal capacitance (J/°C).
    pub c_th_j_per_c: f64,
    /// Ambient temperature (°C).
    pub ambient_c: f64,
    /// Trip point above which the cluster is throttled (°C).
    pub throttle_temp_c: f64,
    /// Temperature below which throttling is released (°C).
    pub release_temp_c: f64,
    /// How many OPP levels the clamp removes from the top while throttled.
    pub throttle_levels: usize,
    temp_c: f64,
    throttled: bool,
    /// Memo for the exponential decay factor of [`ThermalModel::step`].
    /// `dt` and `tau` are constant across the simulation's sub-steps, so
    /// the `exp()` result is too; the key carries both so a changed `dt`
    /// or mutated R/C parameters recompute exactly. Pure cache — excluded
    /// from `PartialEq`.
    decay_cache: (SimDuration, u64, f64),
}

/// Equality over the semantic fields only; the decay memo is transparent.
impl PartialEq for ThermalModel {
    fn eq(&self, other: &Self) -> bool {
        self.r_th_c_per_w == other.r_th_c_per_w
            && self.c_th_j_per_c == other.c_th_j_per_c
            && self.ambient_c == other.ambient_c
            && self.throttle_temp_c == other.throttle_temp_c
            && self.release_temp_c == other.release_temp_c
            && self.throttle_levels == other.throttle_levels
            && self.temp_c == other.temp_c
            && self.throttled == other.throttled
    }
}

impl ThermalModel {
    /// Creates a thermal model starting at ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics if resistance/capacitance are non-positive or the release
    /// threshold is not below the trip threshold.
    pub fn new(
        r_th_c_per_w: f64,
        c_th_j_per_c: f64,
        ambient_c: f64,
        throttle_temp_c: f64,
        release_temp_c: f64,
        throttle_levels: usize,
    ) -> Self {
        assert!(r_th_c_per_w > 0.0, "thermal resistance must be positive");
        assert!(c_th_j_per_c > 0.0, "thermal capacitance must be positive");
        assert!(
            release_temp_c < throttle_temp_c,
            "hysteresis release ({release_temp_c}) must be below trip ({throttle_temp_c})"
        );
        ThermalModel {
            r_th_c_per_w,
            c_th_j_per_c,
            ambient_c,
            throttle_temp_c,
            release_temp_c,
            throttle_levels,
            temp_c: ambient_c,
            throttled: false,
            // exp(-0.0 / tau) is exactly 1.0, so the zero-duration seed
            // entry is already correct.
            decay_cache: (
                SimDuration::ZERO,
                (r_th_c_per_w * c_th_j_per_c).to_bits(),
                1.0,
            ),
        }
    }

    /// Parameters representative of a big mobile cluster under a phone
    /// chassis (heats to throttle in a few seconds of full load).
    pub fn big_cluster() -> Self {
        ThermalModel::new(12.0, 0.55, 25.0, 85.0, 75.0, 4)
    }

    /// Parameters for a LITTLE cluster (rarely throttles).
    pub fn little_cluster() -> Self {
        ThermalModel::new(18.0, 0.4, 25.0, 85.0, 75.0, 2)
    }

    /// Current junction temperature (°C).
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Whether the throttling clamp is currently engaged.
    pub fn is_throttled(&self) -> bool {
        self.throttled
    }

    /// Steady-state temperature under constant power `p_w`.
    pub fn steady_state_c(&self, p_w: f64) -> f64 {
        self.ambient_c + p_w * self.r_th_c_per_w
    }

    /// Advances the node by `dt` under constant power `p_w`, returning the
    /// new temperature. Uses the exact solution of the RC ODE so arbitrary
    /// step sizes are stable.
    ///
    /// # Panics
    ///
    /// Panics if `p_w` is negative or non-finite.
    pub fn step(&mut self, p_w: f64, dt: SimDuration) -> f64 {
        assert!(
            p_w.is_finite() && p_w >= 0.0,
            "power must be finite and non-negative"
        );
        let decay = self.decay_for(dt);
        self.temp_c = relax(self.temp_c, p_w, self.ambient_c, self.r_th_c_per_w, decay);
        self.throttled = hysteresis(
            self.temp_c,
            self.throttle_temp_c,
            self.release_temp_c,
            self.throttled,
            [false, true],
        );
        self.temp_c
    }

    /// The decay factor `exp(−dt/τ)` for one sub-step. It depends only on
    /// `(dt, τ)`, both constant in steady state, so the `exp()` is
    /// memoised; keyed on the exact inputs, a hit returns the very bits
    /// the cold path would compute. [`ThermalModel::step`] reads it here,
    /// and the batched steady kernel hoists it out of its sub-step loop.
    pub(crate) fn decay_for(&mut self, dt: SimDuration) -> f64 {
        let tau = self.r_th_c_per_w * self.c_th_j_per_c;
        if self.decay_cache.0 == dt && self.decay_cache.1 == tau.to_bits() {
            return self.decay_cache.2;
        }
        let fresh = (-dt.as_secs_f64() / tau).exp();
        self.decay_cache = (dt, tau.to_bits(), fresh);
        fresh
    }

    /// Writes back the state the batched steady kernel evolved outside the
    /// struct: the temperature and throttle flag after some number of
    /// [`ThermalModel::step`]-equivalent updates.
    pub(crate) fn restore_batched(&mut self, temp_c: f64, throttled: bool) {
        self.temp_c = temp_c;
        self.throttled = throttled;
    }

    /// The maximum usable OPP level given `max_level` of the table,
    /// accounting for the throttle clamp.
    pub fn clamp_max_level(&self, max_level: usize) -> usize {
        if self.throttled {
            max_level.saturating_sub(self.throttle_levels)
        } else {
            max_level
        }
    }

    /// Resets temperature to ambient and releases the throttle.
    pub fn reset(&mut self) {
        self.temp_c = self.ambient_c;
        self.throttled = false;
    }
}

/// The exact relaxation of an RC node at `temp_c` over one sub-step under
/// constant power `p_w`, towards its steady state: `decay` is
/// `exp(−dt/τ)`. The one definition of the update: [`ThermalModel::step`]
/// and the batched steady kernel, lane by lane, both call it.
#[inline(always)]
pub(crate) fn relax(temp_c: f64, p_w: f64, ambient_c: f64, r_th_c_per_w: f64, decay: f64) -> f64 {
    let t_inf = ambient_c + p_w * r_th_c_per_w;
    t_inf + (temp_c - t_inf) * decay
}

/// The trip/release hysteresis of the throttle flag after a step to
/// `temp_c`: set at or above the trip point, cleared at or below the
/// release point, held in between. The flag is in the caller's
/// representation, `[off, on]` its two values — `bool` in
/// [`ThermalModel`], `0.0`/`1.0` in the batched steady kernel's `f64`
/// lanes — so both share this one definition.
#[inline(always)]
pub(crate) fn hysteresis<F: Copy>(
    temp_c: f64,
    trip_c: f64,
    release_c: f64,
    throttled: F,
    [off, on]: [F; 2],
) -> F {
    if temp_c >= trip_c {
        on
    } else if temp_c <= release_c {
        off
    } else {
        throttled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_at_ambient() {
        let t = ThermalModel::big_cluster();
        assert_eq!(t.temp_c(), 25.0);
        assert!(!t.is_throttled());
    }

    #[test]
    fn heats_toward_steady_state() {
        let mut t = ThermalModel::big_cluster();
        let p = 4.0;
        let t_inf = t.steady_state_c(p);
        for _ in 0..10_000 {
            t.step(p, SimDuration::from_millis(10));
        }
        assert!(
            (t.temp_c() - t_inf).abs() < 0.01,
            "temp {} vs steady {}",
            t.temp_c(),
            t_inf
        );
    }

    #[test]
    fn cools_back_to_ambient() {
        let mut t = ThermalModel::big_cluster();
        t.step(6.0, SimDuration::from_secs(60)); // heat up
        for _ in 0..10_000 {
            t.step(0.0, SimDuration::from_millis(100));
        }
        assert!((t.temp_c() - 25.0).abs() < 0.01);
    }

    #[test]
    fn large_step_equals_many_small_steps() {
        // The exponential update is exact, so integration must be
        // step-size independent under constant power.
        let mut coarse = ThermalModel::big_cluster();
        let mut fine = ThermalModel::big_cluster();
        coarse.step(3.0, SimDuration::from_secs(2));
        for _ in 0..2_000 {
            fine.step(3.0, SimDuration::from_millis(1));
        }
        assert!((coarse.temp_c() - fine.temp_c()).abs() < 1e-6);
    }

    #[test]
    fn throttles_above_trip_and_releases_with_hysteresis() {
        let mut t = ThermalModel::new(10.0, 0.5, 25.0, 85.0, 75.0, 3);
        // 7 W steady state = 95 °C > trip.
        while !t.is_throttled() {
            t.step(7.0, SimDuration::from_millis(100));
        }
        assert!(t.temp_c() >= 85.0);
        assert_eq!(t.clamp_max_level(12), 9);

        // Cooling slightly below trip is NOT enough (hysteresis)…
        while t.temp_c() > 80.0 {
            t.step(0.0, SimDuration::from_millis(50));
        }
        assert!(t.is_throttled(), "still throttled between release and trip");

        // …but cooling below the release point is.
        while t.temp_c() > 75.0 {
            t.step(0.0, SimDuration::from_millis(50));
        }
        assert!(!t.is_throttled());
        assert_eq!(t.clamp_max_level(12), 12);
    }

    #[test]
    fn clamp_saturates_at_zero() {
        let mut t = ThermalModel::new(10.0, 0.5, 25.0, 30.0, 26.0, 10);
        t.step(10.0, SimDuration::from_secs(60));
        assert!(t.is_throttled());
        assert_eq!(t.clamp_max_level(4), 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut t = ThermalModel::big_cluster();
        t.step(8.0, SimDuration::from_secs(120));
        t.reset();
        assert_eq!(t.temp_c(), 25.0);
        assert!(!t.is_throttled());
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn rejects_inverted_hysteresis() {
        ThermalModel::new(10.0, 0.5, 25.0, 75.0, 85.0, 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_power() {
        ThermalModel::big_cluster().step(-1.0, SimDuration::from_millis(1));
    }

    proptest! {
        #[test]
        fn prop_temperature_stays_between_ambient_and_steady_state(
            p in 0.0f64..20.0,
            steps in 1usize..500,
            dt_ms in 1u64..1_000,
        ) {
            let mut t = ThermalModel::big_cluster();
            let hi = t.steady_state_c(p).max(t.ambient_c);
            for _ in 0..steps {
                let temp = t.step(p, SimDuration::from_millis(dt_ms));
                prop_assert!(temp >= t.ambient_c - 1e-9);
                prop_assert!(temp <= hi + 1e-9);
            }
        }

        #[test]
        fn prop_heating_is_monotone_under_constant_power(p in 0.5f64..20.0) {
            let mut t = ThermalModel::little_cluster();
            let mut last = t.temp_c();
            for _ in 0..100 {
                let temp = t.step(p, SimDuration::from_millis(100));
                prop_assert!(temp >= last - 1e-9);
                last = temp;
            }
        }
    }
}
