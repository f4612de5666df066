//! The [`Scenario`] trait and the catalog of built-in scenarios.

use simkit::SimTime;

use soc::Job;

use crate::scenarios::{
    AppLaunch, AudioPlayback, CameraPreview, Gaming, Idle, MarkovMix, Navigation, Standby,
    VideoCall, VideoPlayback, WebBrowsing,
};
use crate::QosSpec;

/// A source of job arrivals driven by the simulation clock.
///
/// The simulation loop calls [`Scenario::arrivals`] once per epoch with
/// contiguous, non-overlapping windows `[from, to)`; implementations keep
/// whatever internal phase state they need between calls and must return
/// arrivals sorted by time within the window.
pub trait Scenario: Send {
    /// Human-readable scenario name (stable, used in tables).
    fn name(&self) -> &str;

    /// QoS accounting parameters for this scenario.
    fn qos_spec(&self) -> QosSpec;

    /// Job arrivals in `[from, to)`, sorted by arrival time.
    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, Job)>;

    /// The quiet horizon: a time `T` such that [`Scenario::arrivals`] on
    /// any window `[from, to)` with `to <= T` returns nothing and changes
    /// no state. `T` holds until the next `arrivals` or `reset` call, so
    /// a control loop may skip every window that ends by it and refresh
    /// `T` after the next call it does make. The default,
    /// [`SimTime::ZERO`], lets no window qualify.
    fn quiet_until(&self) -> SimTime {
        SimTime::ZERO
    }

    /// Restores the scenario phase to time zero for a fresh episode.
    ///
    /// The internal random stream *continues* (it is not rewound), so
    /// successive episodes see different stochastic realisations of the
    /// same scenario, which is what online RL training needs.
    fn reset(&mut self);
}

/// Catalog of built-in scenarios, used by the experiment harness to sweep
/// the full evaluation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ScenarioKind {
    /// 30 fps video playback.
    Video,
    /// Bursty web browsing.
    Web,
    /// 60 fps gaming.
    Gaming,
    /// Background audio playback.
    Audio,
    /// Camera preview with encode.
    Camera,
    /// Two-way video call with network jitter.
    VideoCall,
    /// Turn-by-turn navigation with reroute bursts.
    Navigation,
    /// Repeated application launches.
    AppLaunch,
    /// Near-idle with sparse background work.
    Idle,
    /// Deep standby: no arrivals at all. Excluded from
    /// [`ScenarioKind::ALL`] (and so from the evaluation matrix): it
    /// delivers zero QoS units, making energy-per-QoS undefined. Used by
    /// fleet sweeps and the batched-simulation benchmarks.
    Standby,
    /// Markov phase-switching mixture ("a day of use").
    Mixed,
}

impl ScenarioKind {
    /// All catalog entries in table order.
    pub const ALL: [ScenarioKind; 10] = [
        ScenarioKind::Video,
        ScenarioKind::Web,
        ScenarioKind::Gaming,
        ScenarioKind::Audio,
        ScenarioKind::Camera,
        ScenarioKind::VideoCall,
        ScenarioKind::Navigation,
        ScenarioKind::AppLaunch,
        ScenarioKind::Idle,
        ScenarioKind::Mixed,
    ];

    /// The scenario's display name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Video => "video",
            ScenarioKind::Web => "web",
            ScenarioKind::Gaming => "gaming",
            ScenarioKind::Audio => "audio",
            ScenarioKind::Camera => "camera",
            ScenarioKind::VideoCall => "video-call",
            ScenarioKind::Navigation => "navigation",
            ScenarioKind::AppLaunch => "app-launch",
            ScenarioKind::Idle => "idle",
            ScenarioKind::Standby => "standby",
            ScenarioKind::Mixed => "mixed",
        }
    }

    /// Instantiates the scenario with a seed.
    pub fn build(self, seed: u64) -> Box<dyn Scenario> {
        match self {
            ScenarioKind::Video => Box::new(VideoPlayback::new(seed)),
            ScenarioKind::Web => Box::new(WebBrowsing::new(seed)),
            ScenarioKind::Gaming => Box::new(Gaming::new(seed)),
            ScenarioKind::Audio => Box::new(AudioPlayback::new(seed)),
            ScenarioKind::Camera => Box::new(CameraPreview::new(seed)),
            ScenarioKind::VideoCall => Box::new(VideoCall::new(seed)),
            ScenarioKind::Navigation => Box::new(Navigation::new(seed)),
            ScenarioKind::AppLaunch => Box::new(AppLaunch::new(seed)),
            ScenarioKind::Idle => Box::new(Idle::new(seed)),
            ScenarioKind::Standby => Box::new(Standby::new(seed)),
            ScenarioKind::Mixed => Box::new(MarkovMix::new(seed)),
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    #[test]
    fn every_kind_builds_and_names_match() {
        for kind in ScenarioKind::ALL {
            let s = kind.build(1);
            assert_eq!(s.name(), kind.name());
        }
    }

    #[test]
    fn arrivals_are_sorted_and_in_window_for_all_kinds() {
        for kind in ScenarioKind::ALL {
            let mut s = kind.build(7);
            let mut t = SimTime::ZERO;
            let epoch = SimDuration::from_millis(20);
            for _ in 0..500 {
                let to = t + epoch;
                let arrivals = s.arrivals(t, to);
                let mut last = t;
                for (at, job) in &arrivals {
                    assert!(
                        *at >= t && *at < to,
                        "{kind}: arrival {at} outside [{t}, {to})"
                    );
                    assert!(*at >= last, "{kind}: arrivals must be sorted");
                    assert!(job.deadline >= *at, "{kind}: deadline before arrival");
                    last = *at;
                }
                t = to;
            }
        }
    }

    #[test]
    fn job_ids_are_unique_per_scenario() {
        for kind in ScenarioKind::ALL {
            let mut s = kind.build(3);
            let mut seen = std::collections::BTreeSet::new();
            let mut t = SimTime::ZERO;
            let epoch = SimDuration::from_millis(20);
            for _ in 0..1_000 {
                for (_, job) in s.arrivals(t, t + epoch) {
                    assert!(seen.insert(job.id), "{kind}: duplicate id {}", job.id);
                }
                t += epoch;
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        for kind in ScenarioKind::ALL {
            let run = || {
                let mut s = kind.build(99);
                let mut out = Vec::new();
                let mut t = SimTime::ZERO;
                for _ in 0..200 {
                    let to = t + SimDuration::from_millis(20);
                    out.extend(
                        s.arrivals(t, to)
                            .into_iter()
                            .map(|(at, j)| (at.as_nanos(), j.work)),
                    );
                    t = to;
                }
                out
            };
            assert_eq!(run(), run(), "{kind} must be deterministic");
        }
    }

    #[test]
    fn reset_restarts_phase_but_not_randomness() {
        let mut s = ScenarioKind::Video.build(5);
        let first: Vec<_> = s.arrivals(SimTime::ZERO, SimTime::from_millis(200));
        s.reset();
        let second: Vec<_> = s.arrivals(SimTime::ZERO, SimTime::from_millis(200));
        // Same frame cadence…
        assert_eq!(first.len(), second.len());
        // …but a different stochastic realisation of frame sizes.
        let works_a: Vec<u64> = first.iter().map(|(_, j)| j.work).collect();
        let works_b: Vec<u64> = second.iter().map(|(_, j)| j.work).collect();
        assert_ne!(works_a, works_b);
    }

    #[test]
    fn qos_specs_are_sane() {
        for kind in ScenarioKind::ALL {
            let s = kind.build(1);
            let spec = s.qos_spec();
            assert!(!spec.tolerance.is_zero(), "{kind}: zero tolerance");
        }
    }

    #[test]
    fn load_ordering_matches_intuition() {
        // Gaming demands more work per second than video, which demands
        // more than audio, which demands more than idle.
        let demand = |kind: ScenarioKind| {
            let mut s = kind.build(11);
            let mut total = 0u64;
            let mut t = SimTime::ZERO;
            for _ in 0..1_500 {
                let to = t + SimDuration::from_millis(20);
                total += s.arrivals(t, to).iter().map(|(_, j)| j.work).sum::<u64>();
                t = to;
            }
            total
        };
        let gaming = demand(ScenarioKind::Gaming);
        let video = demand(ScenarioKind::Video);
        let audio = demand(ScenarioKind::Audio);
        let idle = demand(ScenarioKind::Idle);
        assert!(gaming > video, "gaming {gaming} vs video {video}");
        assert!(video > audio, "video {video} vs audio {audio}");
        assert!(audio > idle, "audio {audio} vs idle {idle}");
    }
}
