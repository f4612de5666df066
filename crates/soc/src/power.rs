//! Power model for one cluster.
//!
//! Per-core power at an OPP `(f, V)` with busy fraction `u ∈ [0, 1]` and
//! temperature `T`:
//!
//! ```text
//! P_core = C_eff · V² · f · u          (switching)
//!        + idle_frac · C_eff · V² · f · (1 − u)   (clock/idle overhead)
//!        + P_leak(V, T)                (static)
//! P_leak(V, T) = k_leak · V · (1 + α_T · (T − T_ref))
//! ```
//!
//! plus a per-cluster uncore term `P_unc = unc_base + unc_ceff · V² · f`.
//! This is the standard first-order CMOS model used throughout the DVFS
//! literature; its key property — energy per cycle grows ~V² with
//! frequency — is what makes "race-to-idle vs just-enough" a real
//! trade-off, which is the dynamic the paper's policy learns.

use crate::Opp;

/// Cluster power model parameters. All powers are watts, capacitances in
/// farads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Effective switched capacitance per core (F).
    pub ceff_f: f64,
    /// Fraction of dynamic power still burned while clocked but idle
    /// (clock tree + stalls), typically 0.1–0.3.
    pub idle_frac: f64,
    /// Leakage coefficient (W per volt at the reference temperature).
    pub leak_w_per_v: f64,
    /// Relative leakage increase per degree above the reference
    /// temperature (1/°C).
    pub leak_temp_coeff: f64,
    /// Reference temperature for the leakage model (°C).
    pub leak_t_ref_c: f64,
    /// Constant uncore power for the cluster (W).
    pub uncore_base_w: f64,
    /// Frequency-dependent uncore capacitance (F).
    pub uncore_ceff_f: f64,
    /// Energy dissipated by one DVFS transition (J) — regulator ramp plus
    /// PLL relock.
    pub transition_energy_j: f64,
}

impl PowerModel {
    /// A model with parameters in the range published for a big
    /// (Cortex-A15-class) mobile cluster.
    pub fn big_cluster() -> Self {
        PowerModel {
            ceff_f: 4.0e-10,
            idle_frac: 0.15,
            leak_w_per_v: 0.04,
            leak_temp_coeff: 0.012,
            leak_t_ref_c: 40.0,
            uncore_base_w: 0.12,
            uncore_ceff_f: 1.2e-10,
            transition_energy_j: 8e-6,
        }
    }

    /// A model for a LITTLE (Cortex-A7-class) cluster.
    pub fn little_cluster() -> Self {
        PowerModel {
            ceff_f: 1.3e-10,
            idle_frac: 0.12,
            leak_w_per_v: 0.02,
            leak_temp_coeff: 0.010,
            leak_t_ref_c: 40.0,
            uncore_base_w: 0.04,
            uncore_ceff_f: 0.3e-10,
            transition_energy_j: 4e-6,
        }
    }

    /// A model for a mid-class symmetric mobile core.
    pub fn symmetric_cluster() -> Self {
        PowerModel {
            ceff_f: 2.5e-10,
            idle_frac: 0.13,
            leak_w_per_v: 0.05,
            leak_temp_coeff: 0.011,
            leak_t_ref_c: 40.0,
            uncore_base_w: 0.08,
            uncore_ceff_f: 0.7e-10,
            transition_energy_j: 6e-6,
        }
    }

    /// Dynamic (switching) power of one fully busy core at `opp`, in watts.
    pub fn dynamic_w(&self, opp: Opp) -> f64 {
        self.ceff_f * opp.voltage_v * opp.voltage_v * opp.freq_hz as f64
    }

    /// Leakage power of one core at `opp` and temperature `temp_c`, in
    /// watts. Clamped at zero so extreme sub-reference temperatures cannot
    /// produce negative power.
    pub fn leakage_w(&self, opp: Opp, temp_c: f64) -> f64 {
        self.leakage_w_from_base(self.leak_w_per_v * opp.voltage_v, temp_c)
    }

    /// Leakage from a precomputed voltage term `leak_base =
    /// leak_w_per_v · V`. The hot path hoists `leak_base` out of the
    /// sub-step loop; routing [`PowerModel::leakage_w`] through here keeps
    /// the two paths bit-identical by construction.
    pub fn leakage_w_from_base(&self, leak_base: f64, temp_c: f64) -> f64 {
        Self::leakage_w_from_parts(leak_base, temp_c, self.leak_temp_coeff, self.leak_t_ref_c)
    }

    /// Leakage with every model parameter passed explicitly, for batched
    /// kernels that hold the parameters in structure-of-arrays lanes.
    /// [`PowerModel::leakage_w_from_base`] routes through here, so the
    /// scalar and batched paths evaluate one shared expression and stay
    /// bit-identical by construction.
    pub fn leakage_w_from_parts(
        leak_base: f64,
        temp_c: f64,
        leak_temp_coeff: f64,
        leak_t_ref_c: f64,
    ) -> f64 {
        let scale = 1.0 + leak_temp_coeff * (temp_c - leak_t_ref_c);
        (leak_base * scale).max(0.0)
    }

    /// Total power of one core with busy fraction `busy` at `opp` and
    /// `temp_c`, in watts.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `busy` is outside `[0, 1]`.
    pub fn core_w(&self, opp: Opp, busy: f64, temp_c: f64) -> f64 {
        self.core_w_scaled(opp, busy, temp_c, 1.0, 1.0)
    }

    /// Core power with cpuidle scale factors applied: `idle_dyn_scale`
    /// multiplies the idle (clock-tree) dynamic term, `leak_scale` the
    /// leakage term. `(1.0, 1.0)` is the active state; see
    /// [`crate::IdleStates::power_scales`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `busy` is outside `[0, 1]`.
    pub fn core_w_scaled(
        &self,
        opp: Opp,
        busy: f64,
        temp_c: f64,
        idle_dyn_scale: f64,
        leak_scale: f64,
    ) -> f64 {
        debug_assert!(
            (0.0..=1.0).contains(&busy),
            "busy fraction {busy} out of range"
        );
        let dyn_w = self.dynamic_w(opp);
        Self::core_w_from_parts(
            dyn_w,
            dyn_w * self.idle_frac,
            self.leakage_w(opp, temp_c),
            busy,
            idle_dyn_scale,
            leak_scale,
        )
    }

    /// Core power from precomputed per-OPP constants: `dyn_w` is the
    /// fully-busy switching power, `idle_coeff = dyn_w · idle_frac`, and
    /// `leak_w` is the already-evaluated leakage at the current
    /// temperature. This is the single source of truth for the per-core
    /// power expression — both the straightforward
    /// [`PowerModel::core_w_scaled`] path and the cluster's memoised
    /// sub-step loop call it, so they cannot drift apart bitwise. The
    /// association order matches the original inline expression exactly.
    #[inline]
    pub fn core_w_from_parts(
        dyn_w: f64,
        idle_coeff: f64,
        leak_w: f64,
        busy: f64,
        idle_dyn_scale: f64,
        leak_scale: f64,
    ) -> f64 {
        Self::core_w_from_clock(
            Self::core_clock_w(dyn_w, idle_coeff, busy, idle_dyn_scale),
            leak_w,
            leak_scale,
        )
    }

    /// The leakage-free half of the per-core expression: switching plus
    /// the scaled idle clock tree. The steady kernel's thermal pass
    /// evaluates it from each core's recorded busy fraction.
    #[inline]
    pub(crate) fn core_clock_w(dyn_w: f64, idle_coeff: f64, busy: f64, idle_dyn_scale: f64) -> f64 {
        dyn_w * busy + idle_coeff * (1.0 - busy) * idle_dyn_scale
    }

    /// A core's power from its clock half and its leakage, the last add
    /// of both per-core expressions.
    #[inline]
    pub(crate) fn core_w_from_clock(clock_w: f64, leak_w: f64, leak_scale: f64) -> f64 {
        clock_w + leak_w * leak_scale
    }

    /// [`PowerModel::core_w_from_parts`] specialised to a quiescent core
    /// (`busy == 0.0`): `dyn_w · 0.0` is `+0.0` for the finite
    /// non-negative `dyn_w` the model produces, `(1.0 − 0.0)` is `1.0`,
    /// and adding `+0.0` to the non-negative idle term is a bitwise
    /// no-op — so this fold is **bit-identical** to the general
    /// expression (asserted by a unit test) while skipping three
    /// multiplications for every core of an all-idle kernel block.
    #[inline]
    pub fn idle_core_w_from_parts(
        idle_coeff: f64,
        leak_w: f64,
        idle_dyn_scale: f64,
        leak_scale: f64,
    ) -> f64 {
        Self::core_w_from_clock(idle_coeff * idle_dyn_scale, leak_w, leak_scale)
    }

    /// Cluster uncore power at `opp`, in watts.
    pub fn uncore_w(&self, opp: Opp) -> f64 {
        self.uncore_base_w + self.uncore_ceff_f * opp.voltage_v * opp.voltage_v * opp.freq_hz as f64
    }

    /// Total cluster power given per-core busy fractions.
    pub fn cluster_w(&self, opp: Opp, busy: &[f64], temp_c: f64) -> f64 {
        busy.iter()
            .map(|&u| self.core_w(opp, u, temp_c))
            .sum::<f64>()
            + self.uncore_w(opp)
    }

    /// Energy in joules for a cluster over an interval of `dt_s` seconds.
    pub fn cluster_energy_j(&self, opp: Opp, busy: &[f64], temp_c: f64, dt_s: f64) -> f64 {
        self.cluster_w(opp, busy, temp_c) * dt_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn opp_low() -> Opp {
        Opp::new(200_000_000, 0.9)
    }

    fn opp_high() -> Opp {
        Opp::new(2_000_000_000, 1.25)
    }

    #[test]
    fn dynamic_power_scales_superlinearly_with_opp() {
        let m = PowerModel::big_cluster();
        let low = m.dynamic_w(opp_low());
        let high = m.dynamic_w(opp_high());
        // f ratio is 10x, V² ratio ~1.93x → ~19x total.
        assert!(high / low > 15.0, "ratio {}", high / low);
        assert!(high / low < 25.0, "ratio {}", high / low);
    }

    #[test]
    fn busy_core_burns_more_than_idle_core() {
        let m = PowerModel::big_cluster();
        let busy = m.core_w(opp_high(), 1.0, 50.0);
        let idle = m.core_w(opp_high(), 0.0, 50.0);
        assert!(busy > idle);
        assert!(idle > 0.0, "idle core still leaks and clocks");
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let m = PowerModel::big_cluster();
        let cold = m.leakage_w(opp_high(), 40.0);
        let hot = m.leakage_w(opp_high(), 85.0);
        assert!(hot > cold);
        // 45 degrees * 1.2%/degree = 54% more leakage.
        assert!((hot / cold - 1.54).abs() < 0.01, "ratio {}", hot / cold);
    }

    #[test]
    fn leakage_never_negative() {
        let m = PowerModel::big_cluster();
        assert_eq!(m.leakage_w(opp_low(), -200.0), 0.0);
    }

    #[test]
    fn idle_fold_is_bit_identical_to_general_expression() {
        // The idle fast-forward uses the folded busy=0 form; it must
        // match the general expression bit for bit across the model's
        // whole operating envelope, including zero coefficients and the
        // clamped (zero) leakage regime.
        for m in [PowerModel::big_cluster(), PowerModel::little_cluster()] {
            for opp in [opp_low(), opp_high()] {
                for temp in [-200.0, 20.0, 55.5, 84.999, 120.0] {
                    for (ds, ls) in [(1.0, 1.0), (0.3, 1.0), (0.0, 0.05), (0.0, 0.0)] {
                        let dyn_w = m.dynamic_w(opp);
                        let idle_coeff = dyn_w * m.idle_frac;
                        let leak_w = m.leakage_w(opp, temp);
                        let general =
                            PowerModel::core_w_from_parts(dyn_w, idle_coeff, leak_w, 0.0, ds, ls);
                        let folded = PowerModel::idle_core_w_from_parts(idle_coeff, leak_w, ds, ls);
                        assert_eq!(general.to_bits(), folded.to_bits(), "temp {temp}");
                    }
                }
            }
        }
    }

    #[test]
    fn big_cluster_peak_power_is_mobile_scale() {
        // A fully-loaded 4-core big cluster at 2 GHz should land in the
        // published 3–8 W envelope for this class of silicon.
        let m = PowerModel::big_cluster();
        let p = m.cluster_w(opp_high(), &[1.0; 4], 70.0);
        assert!(p > 3.0 && p < 8.0, "peak big-cluster power {p} W");
    }

    #[test]
    fn little_cluster_is_much_cheaper_than_big() {
        let big = PowerModel::big_cluster();
        let little = PowerModel::little_cluster();
        let opp_l = Opp::new(1_400_000_000, 1.1);
        let p_big = big.cluster_w(opp_high(), &[1.0; 4], 60.0);
        let p_little = little.cluster_w(opp_l, &[1.0; 4], 60.0);
        assert!(p_big / p_little > 4.0, "big/little = {}", p_big / p_little);
    }

    #[test]
    fn cluster_power_is_sum_of_cores_plus_uncore() {
        let m = PowerModel::big_cluster();
        let opp = opp_high();
        let busy = [0.5, 1.0, 0.0];
        let direct: f64 =
            busy.iter().map(|&u| m.core_w(opp, u, 55.0)).sum::<f64>() + m.uncore_w(opp);
        assert!((m.cluster_w(opp, &busy, 55.0) - direct).abs() < 1e-12);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = PowerModel::little_cluster();
        let opp = opp_low();
        let p = m.cluster_w(opp, &[1.0], 45.0);
        let e = m.cluster_energy_j(opp, &[1.0], 45.0, 0.02);
        assert!((e - p * 0.02).abs() < 1e-15);
    }

    #[test]
    fn just_enough_beats_race_to_idle_over_a_period() {
        // A governor's core trade-off: executing W cycles within a period
        // T costs less at a just-enough OPP than racing at the top OPP and
        // idling, because V² switching dominates and the idle tail still
        // burns clock and leakage power at the high OPP.
        let m = PowerModel::big_cluster();
        let period_s = 0.1;
        let work_cycles = 1e7; // fits at either OPP within the period
        let energy_at = |opp: Opp| -> f64 {
            let busy_s = work_cycles / opp.freq_hz as f64;
            assert!(busy_s <= period_s);
            let busy_frac = busy_s / period_s;
            m.core_w(opp, busy_frac, 50.0) * period_s
        };
        let e_low = energy_at(opp_low());
        let e_high = energy_at(opp_high());
        assert!(
            e_low < 0.7 * e_high,
            "just-enough energy {e_low} should clearly beat race-to-idle {e_high}"
        );
    }

    #[test]
    fn per_work_busy_energy_is_cheaper_at_low_voltage() {
        // Even ignoring idle overhead, energy *per unit of work* while
        // busy is lower at the low-voltage OPP (V² scaling beats the
        // longer leakage exposure with calibrated constants).
        let m = PowerModel::big_cluster();
        let per_work = |opp: Opp| m.core_w(opp, 1.0, 50.0) / opp.freq_hz as f64;
        assert!(per_work(opp_low()) < per_work(opp_high()));
    }

    proptest! {
        #[test]
        fn prop_power_is_monotone_in_busy(
            u1 in 0.0f64..=1.0,
            u2 in 0.0f64..=1.0,
            t in 0.0f64..100.0,
        ) {
            let m = PowerModel::big_cluster();
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            prop_assert!(m.core_w(opp_high(), lo, t) <= m.core_w(opp_high(), hi, t) + 1e-12);
        }

        #[test]
        fn prop_power_always_positive(u in 0.0f64..=1.0, t in -20.0f64..120.0) {
            for m in [PowerModel::big_cluster(), PowerModel::little_cluster(), PowerModel::symmetric_cluster()] {
                prop_assert!(m.core_w(opp_low(), u, t) > 0.0);
                prop_assert!(m.core_w(opp_high(), u, t) > 0.0);
            }
        }

        #[test]
        fn prop_higher_opp_burns_more_at_same_busy(u in 0.0f64..=1.0, t in 0.0f64..100.0) {
            let m = PowerModel::symmetric_cluster();
            prop_assert!(m.core_w(opp_low(), u, t) < m.core_w(opp_high(), u, t));
        }
    }
}
