//! The `powersave` governor: every cluster pinned at its bottom OPP.
//! Minimum power draw, collapsing QoS under load — the other end of the
//! envelope.

use soc::LevelRequest;

use crate::{Governor, SystemState};

/// Pin at minimum frequency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Powersave;

impl Powersave {
    /// Creates the governor.
    pub fn new() -> Self {
        Powersave
    }
}

impl Governor for Powersave {
    fn name(&self) -> &str {
        "powersave"
    }

    fn decide(&mut self, state: &SystemState) -> LevelRequest {
        let mut request = LevelRequest::new(Vec::new());
        self.decide_into(state, &mut request);
        request
    }

    fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
        crate::governor::note_decision();
        request.levels.clear();
        request.levels.resize(state.num_clusters(), 0);
    }

    fn decide_parked(&mut self, request: &LevelRequest) -> bool {
        crate::governor::note_if_parked(request.levels.iter().all(|&level| level == 0))
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::synthetic_state;

    #[test]
    fn always_bottom_level_regardless_of_load() {
        let mut g = Powersave::new();
        for util in [0.0, 1.0] {
            let s = synthetic_state(&[(util, 5, 13, 700_000_000, (200_000_000, 1_400_000_000))]);
            assert_eq!(g.decide(&s).levels, vec![0]);
        }
    }
}
