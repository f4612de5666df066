//! Fixed-point Q-table and agent: the functional specification the RTL
//! model must match bit-for-bit.

use std::sync::Arc;

use rlpm::fixed::Fx;
use rlpm::{Action, QTable, StateIndex};

/// A dense `states × actions` table of Q16.16 values, mirroring
/// [`rlpm::QTable`] in the representation the hardware BRAMs hold.
///
/// Each entry carries the odd-parity bit a BRAM with parity would store
/// alongside the 32 data bits. Writes through the functional interface
/// ([`FxQTable::set`] / [`FxQTable::set_linear`]) keep it consistent;
/// [`FxQTable::corrupt_bit`] models a single-event upset by flipping a
/// data bit *without* updating the parity, which is exactly what the
/// parity checkers then detect.
///
/// Clones share the value and parity buffers until either side writes,
/// which then copies them ([`Arc::make_mut`]), as [`QTable`] does. So
/// the lanes of a fleet that clone one deployed engine hold one table
/// between them, and only a lane whose table an SEU or a reload writes
/// gets its own copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FxQTable {
    num_states: usize,
    num_actions: usize,
    values: Arc<[Fx]>,
    parity: Arc<[u8]>,
}

impl FxQTable {
    /// Creates a table with every entry set to `init`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_states: usize, num_actions: usize, init: Fx) -> Self {
        assert!(
            num_states > 0 && num_actions > 0,
            "table dimensions must be positive"
        );
        FxQTable {
            num_states,
            num_actions,
            values: vec![init; num_states * num_actions].into(),
            parity: vec![Self::parity_of(init); num_states * num_actions].into(),
        }
    }

    /// Imports a software-trained Q-table (the "table load" the CPU
    /// performs over the register interface after offline training). The
    /// float→fixed quantisation happens on the software side, in
    /// [`QTable::quantized`]; this module stays float-free.
    pub fn from_software(table: &QTable) -> Self {
        // xtask-allow: fx-taint -- table load: quantisation runs in software (QTable::quantized); this module receives fixed-point words only
        let values = table.quantized();
        let parity = values.iter().map(|&v| Self::parity_of(v)).collect();
        FxQTable {
            num_states: table.num_states(),
            num_actions: table.num_actions(),
            values: values.into(),
            parity,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    #[inline]
    fn idx(&self, s: StateIndex, a: Action) -> usize {
        debug_assert!(s < self.num_states && a < self.num_actions);
        s * self.num_actions + a
    }

    /// The value at `(s, a)`.
    pub fn get(&self, s: StateIndex, a: Action) -> Fx {
        self.values[self.idx(s, a)]
    }

    /// Sets the value at `(s, a)`. Out-of-range writes (debug-asserted
    /// in `idx`) are dropped, mirroring a write past the BRAM decoder.
    pub fn set(&mut self, s: StateIndex, a: Action, v: Fx) {
        let i = self.idx(s, a);
        self.set_linear(i, v);
    }

    /// The action row for `s`.
    pub fn row(&self, s: StateIndex) -> &[Fx] {
        let start = self.idx(s, 0);
        &self.values[start..start + self.num_actions]
    }

    /// Lowest-index argmax — the same tie-break the comparator tree
    /// implements (left operand wins on equality).
    pub fn argmax(&self, s: StateIndex) -> Action {
        let row = self.row(s);
        let mut best = 0;
        for (a, &v) in row.iter().enumerate().skip(1) {
            if v > row[best] {
                best = a;
            }
        }
        best
    }

    /// The maximum value in state `s`.
    pub fn max_value(&self, s: StateIndex) -> Fx {
        let row = self.row(s);
        row.iter().copied().fold(Fx::MIN, Fx::max)
    }

    /// Linear (BRAM-address) access for the register-interface table
    /// loader.
    pub fn get_linear(&self, addr: usize) -> Option<Fx> {
        self.values.get(addr).copied()
    }

    /// Linear write; returns false if the address is out of range.
    pub fn set_linear(&mut self, addr: usize, v: Fx) -> bool {
        if addr >= self.values.len() {
            return false;
        }
        let values = Arc::make_mut(&mut self.values);
        let parity = Arc::make_mut(&mut self.parity);
        match (values.get_mut(addr), parity.get_mut(addr)) {
            (Some(slot), Some(p)) => {
                *slot = v;
                *p = Self::parity_of(v);
                true
            }
            _ => false,
        }
    }

    /// Total number of linear entries (`states × actions`).
    pub fn num_entries(&self) -> usize {
        self.values.len()
    }

    /// The odd-parity bit the BRAM stores next to a value's 32 data bits
    /// (pure integer arithmetic — this module stays float-free).
    fn parity_of(v: Fx) -> u8 {
        ((v.to_bits() as u32).count_ones() % 2) as u8
    }

    /// Models a single-event upset: flips data bit `bit % 32` of the entry
    /// at linear address `addr` *without* updating the stored parity.
    /// Returns false (no flip) if `addr` is out of range.
    pub fn corrupt_bit(&mut self, addr: usize, bit: u32) -> bool {
        if addr >= self.values.len() {
            return false;
        }
        if let Some(slot) = Arc::make_mut(&mut self.values).get_mut(addr) {
            let flipped = (slot.to_bits() as u32) ^ (1u32 << (bit % 32));
            *slot = Fx::from_bits(flipped as i32);
            true
        } else {
            false
        }
    }

    /// Whether the entry at linear address `addr` passes its parity check
    /// (out-of-range addresses vacuously pass).
    pub fn entry_parity_ok(&self, addr: usize) -> bool {
        match (self.values.get(addr), self.parity.get(addr)) {
            (Some(&v), Some(&p)) => Self::parity_of(v) == p,
            _ => true,
        }
    }

    /// Whether every entry of state `s`'s action row passes parity — the
    /// check the fetch stage performs while streaming the row.
    pub fn row_parity_ok(&self, s: StateIndex) -> bool {
        let start = s * self.num_actions;
        match (
            self.values.get(start..start + self.num_actions),
            self.parity.get(start..start + self.num_actions),
        ) {
            (Some(vals), Some(pars)) => vals
                .iter()
                .zip(pars)
                .all(|(&v, &p)| Self::parity_of(v) == p),
            _ => true,
        }
    }

    /// Linear address of the first entry failing its parity check, if any
    /// (the full-table scrub a verify-after-load performs).
    pub fn first_parity_error(&self) -> Option<usize> {
        self.values
            .iter()
            .zip(self.parity.iter())
            .position(|(&v, &p)| Self::parity_of(v) != p)
    }

    /// Whether the whole table passes parity.
    pub fn all_parity_ok(&self) -> bool {
        self.first_parity_error().is_none()
    }
}

/// Fixed-point Q-learning agent: the bit-exact software twin of the
/// hardware update pipeline (used for parity checks and for driving the
/// engine's expected outputs in tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FxAgent {
    table: FxQTable,
    /// Learning rate in fixed point.
    pub alpha: Fx,
    /// Discount factor in fixed point.
    pub gamma: Fx,
}

impl FxAgent {
    /// Creates an agent over a fixed-point table.
    pub fn new(table: FxQTable, alpha: Fx, gamma: Fx) -> Self {
        FxAgent {
            table,
            alpha,
            gamma,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &FxQTable {
        &self.table
    }

    /// Mutable table access.
    pub fn table_mut(&mut self) -> &mut FxQTable {
        &mut self.table
    }

    /// Greedy action (comparator-tree semantics).
    pub fn greedy_action(&self, s: StateIndex) -> Action {
        self.table.argmax(s)
    }

    /// One TD update in pure fixed point:
    /// `Q ← Q + α·(r + γ·max − Q)`, every operation saturating Q16.16.
    pub fn update(&mut self, s: StateIndex, a: Action, reward: Fx, s_next: StateIndex) {
        let max_next = self.table.max_value(s_next);
        let target = reward.saturating_add(self.gamma.saturating_mul(max_next));
        let old = self.table.get(s, a);
        let delta = self.alpha.saturating_mul(target.saturating_sub(old));
        self.table.set(s, a, old.saturating_add(delta));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table() -> FxQTable {
        FxQTable::new(8, 5, Fx::from_f64(0.5))
    }

    #[test]
    fn from_f64_round_trips_representable_values() {
        let mut q = QTable::new(3, 2, 0.0);
        q.set(1, 1, 1.25);
        q.set(2, 0, -3.5);
        let fx = FxQTable::from_software(&q);
        assert_eq!(fx.get(1, 1).to_f64(), 1.25);
        assert_eq!(fx.get(2, 0).to_f64(), -3.5);
        assert_eq!(fx.get(0, 0).to_f64(), 0.0);
    }

    #[test]
    fn argmax_matches_float_table_semantics() {
        let mut fx = table();
        fx.set(3, 2, Fx::from_f64(2.0));
        fx.set(3, 4, Fx::from_f64(2.0));
        assert_eq!(fx.argmax(3), 2, "lowest-index tie-break");
    }

    #[test]
    fn linear_access_maps_row_major() {
        let mut fx = table();
        assert!(fx.set_linear(5 * 5 + 3, Fx::from_f64(9.0)));
        assert_eq!(fx.get(5, 3).to_f64(), 9.0);
        assert_eq!(fx.get_linear(5 * 5 + 3).unwrap().to_f64(), 9.0);
        assert!(!fx.set_linear(8 * 5, Fx::ZERO), "out of range rejected");
        assert_eq!(fx.get_linear(8 * 5), None);
    }

    #[test]
    fn parity_holds_through_functional_writes() {
        let mut fx = table();
        assert!(fx.all_parity_ok());
        fx.set(3, 2, Fx::from_f64(-7.25));
        assert!(fx.set_linear(11, Fx::from_f64(0.125)));
        assert!(fx.all_parity_ok());
        assert_eq!(fx.num_entries(), 8 * 5);
    }

    #[test]
    fn corrupt_bit_is_caught_by_every_checker() {
        let mut fx = table();
        let addr = 3 * 5 + 2; // (s=3, a=2)
        assert!(fx.corrupt_bit(addr, 7));
        assert!(!fx.entry_parity_ok(addr));
        assert!(!fx.row_parity_ok(3));
        assert!(fx.row_parity_ok(2), "other rows unaffected");
        assert_eq!(fx.first_parity_error(), Some(addr));
        assert!(!fx.all_parity_ok());
        // A functional rewrite of the entry restores consistency.
        fx.set(3, 2, Fx::from_f64(0.5));
        assert!(fx.all_parity_ok());
    }

    #[test]
    fn clones_share_the_table_until_one_writes() {
        let shares = |a: &FxQTable, b: &FxQTable| {
            Arc::ptr_eq(&a.values, &b.values) && Arc::ptr_eq(&a.parity, &b.parity)
        };
        let original = table();
        let mut upset = original.clone();
        let mut reloaded = original.clone();
        assert!(shares(&original, &upset) && shares(&original, &reloaded));
        // Reads and rejected writes copy nothing.
        assert_eq!(upset.argmax(3), original.argmax(3));
        assert!(!upset.set_linear(8 * 5, Fx::ZERO));
        assert!(!upset.corrupt_bit(8 * 5, 0));
        assert!(shares(&original, &upset));
        // An SEU and a reload write each give their lane its own copy.
        assert!(upset.corrupt_bit(7, 3));
        assert!(reloaded.set_linear(7, Fx::from_f64(1.5)));
        assert!(!shares(&original, &upset) && !shares(&original, &reloaded));
        assert!(original.all_parity_ok(), "the shared table is untouched");
        assert_eq!(original, table());
        assert!(!upset.entry_parity_ok(7));
        assert_eq!(reloaded.get_linear(7), Some(Fx::from_f64(1.5)));
    }

    #[test]
    fn corrupt_bit_rejects_out_of_range_and_wraps_bit_index() {
        let mut fx = table();
        assert!(!fx.corrupt_bit(8 * 5, 0), "out of range");
        assert!(fx.all_parity_ok());
        // bit 39 wraps to bit 7: double corruption at the same bit is a
        // round trip.
        let before = fx.get(0, 0);
        assert!(fx.corrupt_bit(0, 39));
        assert!(fx.corrupt_bit(0, 7));
        assert_eq!(fx.get(0, 0), before);
        assert!(fx.all_parity_ok(), "even number of flips is invisible");
    }

    #[test]
    fn fx_update_converges_like_float() {
        let mut agent = FxAgent::new(
            FxQTable::new(2, 2, Fx::ZERO),
            Fx::from_f64(0.25),
            Fx::from_f64(0.85),
        );
        for _ in 0..2_000 {
            agent.update(0, 1, Fx::from_f64(1.0), 0);
        }
        let q_star = 1.0 / (1.0 - 0.85);
        assert!(
            (agent.table().get(0, 1).to_f64() - q_star).abs() < 0.01,
            "fx fixed point {} vs {}",
            agent.table().get(0, 1),
            q_star
        );
    }

    #[test]
    fn fx_update_is_deterministic_and_pure_integer() {
        let run = || {
            let mut agent = FxAgent::new(
                FxQTable::new(4, 3, Fx::from_f64(0.5)),
                Fx::from_f64(0.25),
                Fx::from_f64(0.85),
            );
            for i in 0..500u32 {
                let s = (i % 4) as usize;
                let a = (i % 3) as usize;
                let r = Fx::from_f64((i % 7) as f64 / 3.0 - 1.0);
                agent.update(s, a, r, (s + 1) % 4);
            }
            agent
                .table()
                .row(2)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    proptest! {
        /// The fixed-point update tracks the float update within the
        /// quantisation error budget for in-range values.
        #[test]
        fn prop_fx_update_tracks_float(
            q0 in -10.0f64..10.0,
            r in -5.0f64..5.0,
            max_next in -10.0f64..10.0,
        ) {
            let alpha = 0.25;
            let gamma = 0.85;
            let mut fx = FxQTable::new(2, 2, Fx::ZERO);
            fx.set(0, 0, Fx::from_f64(q0));
            fx.set(1, 0, Fx::from_f64(max_next));
            fx.set(1, 1, Fx::from_f64(max_next));
            let mut agent = FxAgent::new(fx, Fx::from_f64(alpha), Fx::from_f64(gamma));
            agent.update(0, 0, Fx::from_f64(r), 1);

            let float_result = q0 + alpha * (r + gamma * max_next - q0);
            let got = agent.table().get(0, 0).to_f64();
            prop_assert!((got - float_result).abs() < 1e-3, "{got} vs {float_result}");
        }
    }
}
