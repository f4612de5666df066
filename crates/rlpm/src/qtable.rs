//! The dense Q-table.
//!
//! A flat `states × actions` array of `f64` action values. The hardware
//! model mirrors this layout into banked BRAMs; the deterministic
//! lowest-index argmax tie-break matches the hardware comparator tree,
//! which is what makes software/hardware parity checks exact.

use std::sync::Arc;

use crate::{Action, StateIndex};

/// A dense `states × actions` table of action values.
///
/// Clones share one value buffer until either side writes, which then
/// copies it ([`Arc::make_mut`]). So the lanes of a fleet that clone one
/// frozen policy hold one table between them, and a learning table pays
/// one uncontended ownership check per write.
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    num_states: usize,
    num_actions: usize,
    values: Arc<[f64]>,
}

impl QTable {
    /// Creates a table with every entry initialised to `init`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `init` is not finite.
    pub fn new(num_states: usize, num_actions: usize, init: f64) -> Self {
        assert!(
            num_states > 0 && num_actions > 0,
            "table dimensions must be positive"
        );
        assert!(init.is_finite(), "initial Q value must be finite");
        QTable {
            num_states,
            num_actions,
            values: std::iter::repeat_n(init, num_states * num_actions).collect(),
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
        debug_assert!(s < self.num_states, "state {s} out of range");
        debug_assert!(a < self.num_actions, "action {a} out of range");
        s * self.num_actions + a
    }

    /// The value of `(s, a)`.
    pub fn get(&self, s: StateIndex, a: Action) -> f64 {
        self.values[self.idx(s, a)]
    }

    /// Sets the value of `(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn set(&mut self, s: StateIndex, a: Action, value: f64) {
        assert!(value.is_finite(), "Q value must be finite");
        let i = self.idx(s, a);
        Arc::make_mut(&mut self.values)[i] = value;
    }

    /// The row of action values for `s`.
    pub fn row(&self, s: StateIndex) -> &[f64] {
        let start = self.idx(s, 0);
        &self.values[start..start + self.num_actions]
    }

    /// The greedy action for `s`: the *lowest-indexed* maximiser (ties
    /// break toward the hold action, then lower-power moves, by the
    /// action ordering).
    pub fn argmax(&self, s: StateIndex) -> Action {
        let mut best = 0;
        let mut best_v = f64::NEG_INFINITY;
        for (a, &v) in self.row(s).iter().enumerate() {
            if v > best_v {
                best = a;
                best_v = v;
            }
        }
        best
    }

    /// The greedy action for `s` over the *element-wise sum* of this
    /// table and `other` (the double-estimator acting value `A + B`),
    /// computed over the two row slices directly — no merged table is
    /// materialised. Lowest-index tie-break, as [`QTable::argmax`].
    ///
    /// The tables must have identical dimensions; rows are zipped, so a
    /// shorter `other` row would silently truncate — the agent constructs
    /// both tables from one configuration, which guarantees the match.
    pub fn argmax_sum(&self, other: &QTable, s: StateIndex) -> Action {
        debug_assert_eq!(self.num_actions, other.num_actions, "table arity mismatch");
        let mut best = 0;
        let mut best_v = f64::NEG_INFINITY;
        for (a, (&x, &y)) in self.row(s).iter().zip(other.row(s)).enumerate() {
            let v = x + y;
            if v > best_v {
                best = a;
                best_v = v;
            }
        }
        best
    }

    /// The maximum action value for `s`.
    pub fn max_value(&self, s: StateIndex) -> f64 {
        let row = self.row(s);
        row.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The full value vector (row-major), for hardware export and
    /// serialisation.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Overwrites the full table (row-major), for restoring a trained
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length or non-finite entries.
    pub fn load(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.values.len(), "table size mismatch");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "Q values must be finite"
        );
        match Arc::get_mut(&mut self.values) {
            Some(own) => own.copy_from_slice(values),
            None => self.values = values.into(),
        }
    }

    /// Number of entries that have moved away from `init` (coverage
    /// diagnostic for training).
    pub fn visited_entries(&self, init: f64) -> usize {
        self.values.iter().filter(|&&v| v != init).count()
    }

    /// The full table quantised to Q16.16 (row-major). The float→fixed
    /// rounding happens here, on the software side, so the hardware model
    /// (`rlpm-hw`) can load tables without touching `f64` — its datapath
    /// is kept float-free by `cargo xtask check`.
    pub fn quantized(&self) -> Vec<crate::fixed::Fx> {
        self.values
            .iter()
            .map(|&v| crate::fixed::Fx::from_f64(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn initialises_uniformly() {
        let t = QTable::new(4, 3, 0.5);
        for s in 0..4 {
            for a in 0..3 {
                assert_eq!(t.get(s, a), 0.5);
            }
        }
        assert_eq!(t.visited_entries(0.5), 0);
    }

    #[test]
    fn set_get_round_trip() {
        let mut t = QTable::new(4, 3, 0.0);
        t.set(2, 1, -3.25);
        assert_eq!(t.get(2, 1), -3.25);
        assert_eq!(t.get(2, 0), 0.0);
        assert_eq!(t.visited_entries(0.0), 1);
    }

    #[test]
    fn argmax_picks_highest() {
        let mut t = QTable::new(2, 4, 0.0);
        t.set(0, 2, 5.0);
        t.set(0, 3, 4.0);
        assert_eq!(t.argmax(0), 2);
        assert_eq!(t.max_value(0), 5.0);
    }

    #[test]
    fn argmax_tie_breaks_to_lowest_index() {
        let mut t = QTable::new(1, 5, 0.0);
        t.set(0, 1, 7.0);
        t.set(0, 3, 7.0);
        assert_eq!(t.argmax(0), 1);
    }

    #[test]
    fn all_equal_row_argmax_is_zero() {
        let t = QTable::new(1, 25, 0.5);
        assert_eq!(t.argmax(0), 0, "uniform init prefers the hold action");
    }

    #[test]
    fn load_restores_values() {
        let mut t = QTable::new(2, 2, 0.0);
        t.load(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.get(1, 0), 3.0);
    }

    #[test]
    fn clones_share_values_until_one_writes() {
        let mut t = QTable::new(2, 2, 0.0);
        t.load(&[1.0, 2.0, 3.0, 4.0]);
        let mut c = t.clone();
        assert_eq!(c.values().as_ptr(), t.values().as_ptr(), "one buffer");
        c.set(0, 1, 9.0);
        assert_ne!(c.values().as_ptr(), t.values().as_ptr(), "copied on write");
        assert_eq!(t.values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.values(), &[1.0, 9.0, 3.0, 4.0]);
        let mut d = t.clone();
        d.load(&[5.0; 4]);
        assert_eq!(
            t.values(),
            &[1.0, 2.0, 3.0, 4.0],
            "a load leaves clones alone"
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn load_rejects_wrong_length() {
        QTable::new(2, 2, 0.0).load(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn set_rejects_nan() {
        QTable::new(1, 1, 0.0).set(0, 0, f64::NAN);
    }

    proptest! {
        #[test]
        fn prop_argmax_is_a_maximiser(values in proptest::collection::vec(-100.0f64..100.0, 5)) {
            let mut t = QTable::new(1, 5, 0.0);
            for (a, &v) in values.iter().enumerate() {
                t.set(0, a, v);
            }
            let best = t.argmax(0);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(t.get(0, best), max);
            // Lowest-index property.
            for a in 0..best {
                prop_assert!(t.get(0, a) < max);
            }
        }
    }
}
