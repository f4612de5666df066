//! The [`Governor`] trait and catalog.

use simkit::obs;
use soc::{LevelRequest, SocConfig};

use crate::{
    Conservative, Interactive, Ondemand, Performance, Powersave, Schedutil, SystemState, Userspace,
};

/// Decisions taken by any baseline governor in this process. The RL
/// policy counts separately under `rlpm.decisions`.
static DECISIONS: obs::Counter = obs::Counter::new("governors.decisions");

/// Notes one baseline-governor decision in the process-wide metrics
/// registry; every `decide_into` in this crate calls it.
pub(crate) fn note_decision() {
    DECISIONS.inc();
}

/// Passes a [`Governor::decide_parked`] answer through, noting the
/// decision it stands for when it certifies one.
pub(crate) fn note_if_parked(fixed: bool) -> bool {
    if fixed {
        note_decision();
    }
    fixed
}

/// A DVFS policy: observes the system at each epoch boundary and picks the
/// per-cluster frequency levels for the next epoch.
pub trait Governor: Send {
    /// Stable display name used in result tables.
    fn name(&self) -> &str;

    /// Picks levels for the next epoch.
    fn decide(&mut self, state: &SystemState) -> LevelRequest;

    /// Picks levels for the next epoch into a caller-owned request,
    /// reusing its level buffer. The default delegates to
    /// [`Governor::decide`]; governors on the closed-loop hot path
    /// override it to avoid the per-epoch allocation.
    fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
        *request = self.decide(state);
    }

    /// Certifies that the next decision of a lane parked on `request`
    /// would change nothing: [`Governor::decide_into`] would write
    /// `request` back unchanged and leave the governor unchanged, on
    /// every observation such a lane can produce (every cluster at zero
    /// utilisation with an empty queue, at any temperature and either
    /// throttle flag). A control loop may then skip the observation and
    /// the decision. A `true` answer counts as a decision, as
    /// `decide_into` would. The default, `false`, certifies nothing.
    fn decide_parked(&mut self, _request: &LevelRequest) -> bool {
        false
    }

    /// Clears internal state between runs/episodes (hold timers, history);
    /// learned parameters, if any, are *kept* — resetting them is a
    /// policy-specific operation.
    fn reset(&mut self);

    /// Injects a single-event upset into the governor's policy-table
    /// storage, if it models any. `entropy` is 64 raw bits the governor
    /// maps to a (word, bit) location. Returns `true` when a bit was
    /// actually flipped; the default (no corruptible hardware storage —
    /// e.g. a table in ECC-protected DRAM) is a no-op.
    fn inject_table_seu(&mut self, _entropy: u64) -> bool {
        false
    }

    /// `(detected SEUs, table reloads)` the governor's recovery machinery
    /// has performed so far. Zero for governors without hardware storage.
    fn seu_recovery_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Catalog of the baseline governors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GovernorKind {
    /// Pin at maximum frequency.
    Performance,
    /// Pin at minimum frequency.
    Powersave,
    /// Linux `ondemand`.
    Ondemand,
    /// Linux `conservative`.
    Conservative,
    /// Android/Linux `interactive`.
    Interactive,
    /// Linux `schedutil`.
    Schedutil,
    /// Fixed operator-chosen levels.
    Userspace,
}

impl GovernorKind {
    /// The six governors the paper compares against, in table order.
    pub const SIX_BASELINES: [GovernorKind; 6] = [
        GovernorKind::Performance,
        GovernorKind::Powersave,
        GovernorKind::Ondemand,
        GovernorKind::Conservative,
        GovernorKind::Interactive,
        GovernorKind::Schedutil,
    ];

    /// The governor's display name.
    pub fn name(self) -> &'static str {
        match self {
            GovernorKind::Performance => "performance",
            GovernorKind::Powersave => "powersave",
            GovernorKind::Ondemand => "ondemand",
            GovernorKind::Conservative => "conservative",
            GovernorKind::Interactive => "interactive",
            GovernorKind::Schedutil => "schedutil",
            GovernorKind::Userspace => "userspace",
        }
    }

    /// Instantiates the governor with kernel-default tunables for the
    /// given SoC.
    pub fn build(self, config: &SocConfig) -> Box<dyn Governor> {
        let n = config.clusters.len();
        match self {
            GovernorKind::Performance => Box::new(Performance::new()),
            GovernorKind::Powersave => Box::new(Powersave::new()),
            GovernorKind::Ondemand => Box::new(Ondemand::new(Default::default(), n)),
            GovernorKind::Conservative => Box::new(Conservative::new(Default::default())),
            GovernorKind::Interactive => Box::new(Interactive::new(Default::default(), n)),
            GovernorKind::Schedutil => Box::new(Schedutil::new(Default::default(), n)),
            GovernorKind::Userspace => {
                // Default userspace pin: middle of each table.
                let levels = config
                    .clusters
                    .iter()
                    .map(|c| c.opps.max_level() / 2)
                    .collect();
                Box::new(Userspace::new(levels))
            }
        }
    }
}

impl std::fmt::Display for GovernorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::synthetic_state;

    #[test]
    fn catalog_builds_and_names_match() {
        let cfg = soc::SocConfig::odroid_xu3_like().unwrap();
        for kind in GovernorKind::SIX_BASELINES {
            let g = kind.build(&cfg);
            assert_eq!(g.name(), kind.name());
        }
        let u = GovernorKind::Userspace.build(&cfg);
        assert_eq!(u.name(), "userspace");
    }

    #[test]
    fn every_governor_returns_correct_arity_and_valid_levels() {
        let cfg = soc::SocConfig::odroid_xu3_like().unwrap();
        let state = synthetic_state(&[
            (0.7, 3, 13, 500_000_000, (200_000_000, 1_400_000_000)),
            (0.9, 5, 19, 700_000_000, (200_000_000, 2_000_000_000)),
        ]);
        let mut kinds: Vec<GovernorKind> = GovernorKind::SIX_BASELINES.to_vec();
        kinds.push(GovernorKind::Userspace);
        for kind in kinds {
            let mut g = kind.build(&cfg);
            for _ in 0..5 {
                let req = g.decide(&state);
                assert_eq!(req.levels.len(), 2, "{kind}");
                assert!(req.levels[0] < 13, "{kind} little level {}", req.levels[0]);
                assert!(req.levels[1] < 19, "{kind} big level {}", req.levels[1]);
            }
            g.reset();
        }
    }
}
