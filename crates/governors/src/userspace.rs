//! The `userspace` governor: fixed operator-chosen levels. Not one of the
//! paper's six baselines — the experiment harness uses it for static-OPP
//! sweeps (oracle-static baselines and calibration).

use soc::{LevelRequest, OppLevel};

use crate::{Governor, SystemState};

/// Pin each cluster at a fixed level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Userspace {
    levels: Vec<OppLevel>,
}

impl Userspace {
    /// Creates the governor with one fixed level per cluster.
    pub fn new(levels: Vec<OppLevel>) -> Self {
        Userspace { levels }
    }

    /// The configured levels.
    pub fn levels(&self) -> &[OppLevel] {
        &self.levels
    }
}

impl Governor for Userspace {
    fn name(&self) -> &str {
        "userspace"
    }

    fn decide(&mut self, state: &SystemState) -> LevelRequest {
        let mut request = LevelRequest::new(Vec::new());
        self.decide_into(state, &mut request);
        request
    }

    fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
        crate::governor::note_decision();
        debug_assert_eq!(
            state.num_clusters(),
            self.levels.len(),
            "userspace governor configured for a different SoC"
        );
        // Clamp defensively so a sweep over-shooting a table is harmless.
        request.levels.clear();
        request.levels.extend(
            self.levels
                .iter()
                .zip(&state.soc.clusters)
                .map(|(&l, c)| l.min(c.num_levels - 1)),
        );
    }

    /// A lane parked on the configured levels runs them, so they are in
    /// its tables and the clamp above keeps them.
    fn decide_parked(&mut self, request: &LevelRequest) -> bool {
        crate::governor::note_if_parked(request.levels == self.levels)
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::synthetic_state;

    #[test]
    fn returns_configured_levels() {
        let mut g = Userspace::new(vec![3, 7]);
        let s = synthetic_state(&[
            (0.2, 0, 13, 200_000_000, (200_000_000, 1_400_000_000)),
            (0.9, 0, 19, 200_000_000, (200_000_000, 2_000_000_000)),
        ]);
        assert_eq!(g.decide(&s).levels, vec![3, 7]);
    }

    #[test]
    fn clamps_to_table() {
        let mut g = Userspace::new(vec![99]);
        let s = synthetic_state(&[(0.2, 0, 13, 200_000_000, (200_000_000, 1_400_000_000))]);
        assert_eq!(g.decide(&s).levels, vec![12]);
    }
}
