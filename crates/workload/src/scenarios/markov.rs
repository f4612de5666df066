//! Markov phase-switching mixture: "a day of use" compressed into one
//! trace. This is the scenario the paper's adaptivity claim is about —
//! the policy must manage power *regardless of the application scenario*,
//! switching between regimes with no retraining.

use simkit::{SimDuration, SimRng, SimTime};
use soc::Job;

use super::{AppLaunch, AudioPlayback, CameraPreview, Gaming, Idle, VideoPlayback, WebBrowsing};
use crate::{QosSpec, Scenario};

/// Mean phase dwell time (s).
const DWELL_MEAN_S: f64 = 10.0;
/// Dwell clamp.
const DWELL_MIN_S: f64 = 4.0;
const DWELL_MAX_S: f64 = 25.0;

/// Row-stochastic transition weights between the component scenarios
/// (video, web, gaming, audio, camera, app-launch, idle). Diagonals are
/// zero: a phase change always changes scenario.
const TRANSITIONS: [[f64; 7]; 7] = [
    // from video
    [0.0, 2.0, 1.0, 1.0, 0.5, 1.5, 2.0],
    // from web
    [2.0, 0.0, 1.0, 1.0, 0.5, 2.0, 1.5],
    // from gaming
    [1.0, 1.5, 0.0, 1.0, 0.2, 1.0, 2.0],
    // from audio
    [1.0, 2.0, 0.5, 0.0, 0.5, 1.5, 2.5],
    // from camera
    [1.5, 1.5, 0.5, 0.5, 0.0, 1.0, 2.0],
    // from app-launch
    [2.0, 2.5, 1.5, 1.0, 1.0, 0.0, 1.0],
    // from idle
    [1.5, 2.5, 1.0, 2.0, 0.5, 2.5, 0.0],
];

/// Phase-switching mixture of all base scenarios.
pub struct MarkovMix {
    rng: SimRng,
    components: Vec<Box<dyn Scenario>>,
    current: usize,
    phase_ends: SimTime,
    next_id: u64,
    /// History of `(phase start, component index)` for analysis.
    history: Vec<(SimTime, usize)>,
}

impl std::fmt::Debug for MarkovMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarkovMix")
            .field("current", &self.current_phase())
            .field("phase_ends", &self.phase_ends)
            .field("phases", &self.history.len())
            .finish()
    }
}

impl MarkovMix {
    /// Creates the mixture with derived seeds for every component.
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed).split("markov-mix");
        let components: Vec<Box<dyn Scenario>> = vec![
            Box::new(VideoPlayback::new(seed.wrapping_add(1))),
            Box::new(WebBrowsing::new(seed.wrapping_add(2))),
            Box::new(Gaming::new(seed.wrapping_add(3))),
            Box::new(AudioPlayback::new(seed.wrapping_add(4))),
            Box::new(CameraPreview::new(seed.wrapping_add(5))),
            Box::new(AppLaunch::new(seed.wrapping_add(6))),
            Box::new(Idle::new(seed.wrapping_add(7))),
        ];
        let current = rng.uniform_usize(components.len());
        let dwell = Self::sample_dwell(&mut rng);
        MarkovMix {
            rng,
            components,
            current,
            phase_ends: SimTime::ZERO + dwell,
            next_id: 0,
            history: vec![(SimTime::ZERO, current)],
        }
    }

    fn sample_dwell(rng: &mut SimRng) -> SimDuration {
        let s = rng
            .exponential(1.0 / DWELL_MEAN_S)
            .clamp(DWELL_MIN_S, DWELL_MAX_S);
        SimDuration::from_secs_f64(s)
    }

    /// The name of the component active at the end of the last generated
    /// window.
    pub fn current_phase(&self) -> &str {
        self.components.get(self.current).map_or("?", |c| c.name())
    }

    /// `(phase start, component name)` pairs generated so far.
    pub fn phase_history(&self) -> Vec<(SimTime, &str)> {
        self.history
            .iter()
            .map(|&(at, idx)| (at, self.components.get(idx).map_or("?", |c| c.name())))
            .collect()
    }

    fn switch_phase(&mut self, at: SimTime) {
        // `current` is always a `weighted_index`/`uniform_usize` draw over
        // the 7 components, so the row lookup cannot actually miss.
        let weights = TRANSITIONS.get(self.current).copied().unwrap_or_default();
        self.current = self.rng.weighted_index(&weights);
        let dwell = Self::sample_dwell(&mut self.rng);
        self.phase_ends = at + dwell;
        self.history.push((at, self.current));
    }
}

impl Scenario for MarkovMix {
    fn name(&self) -> &str {
        "mixed"
    }

    fn qos_spec(&self) -> QosSpec {
        // The mixture spans tolerances from gaming (6 ms) to idle
        // (250 ms); use a middle-of-the-road budget.
        QosSpec::with_tolerance(SimDuration::from_millis(20))
    }

    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, Job)> {
        // Phases dwell at least `DWELL_MIN_S`, so one phase nearly always
        // covers the window: its component's `Vec` is the output, and a
        // window that crosses a phase end appends the next phase's jobs.
        let mut out = Vec::new();
        let mut cursor = from;
        while cursor < to {
            if cursor >= self.phase_ends {
                self.switch_phase(cursor);
            }
            let slice_end = to.min(self.phase_ends);
            if let Some(component) = self.components.get_mut(self.current) {
                let slice = component.arrivals(cursor, slice_end);
                if out.is_empty() {
                    out = slice;
                } else {
                    out.extend(slice);
                }
            }
            cursor = slice_end;
        }
        // Components have independent id counters; remap to a single
        // namespace so ids stay unique across phases.
        for (_, job) in &mut out {
            job.id = soc::JobId(self.next_id);
            self.next_id += 1;
        }
        out
    }

    /// The current component's horizon, up to the phase end: a window
    /// that ends by the phase end never switches phase, so it is one
    /// call to the current component.
    fn quiet_until(&self) -> SimTime {
        self.components
            .get(self.current)
            .map_or(SimTime::ZERO, |c| c.quiet_until())
            .min(self.phase_ends)
    }

    fn reset(&mut self) {
        for c in &mut self.components {
            c.reset();
        }
        let dwell = Self::sample_dwell(&mut self.rng);
        self.current = self.rng.uniform_usize(self.components.len());
        self.phase_ends = SimTime::ZERO + dwell;
        self.history.clear();
        self.history.push((SimTime::ZERO, self.current));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, secs: u64) -> (MarkovMix, Vec<(SimTime, Job)>) {
        let mut m = MarkovMix::new(seed);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(secs) {
            let to = t + SimDuration::from_millis(20);
            out.extend(m.arrivals(t, to));
            t = to;
        }
        (m, out)
    }

    #[test]
    fn phases_actually_switch() {
        let (m, _) = run(1, 120);
        let history = m.phase_history();
        assert!(
            history.len() >= 5,
            "2 minutes should span several phases: {}",
            history.len()
        );
        for w in history.windows(2) {
            assert_ne!(w[0].1, w[1].1, "consecutive phases differ");
        }
    }

    #[test]
    fn dwell_times_are_clamped() {
        let (m, _) = run(2, 180);
        let history = m.phase_history();
        for w in history.windows(2) {
            let dwell = w[1].0 - w[0].0;
            assert!(dwell >= SimDuration::from_secs(4) - SimDuration::from_millis(25));
            assert!(dwell <= SimDuration::from_secs(25) + SimDuration::from_millis(25));
        }
    }

    #[test]
    fn load_varies_across_phases() {
        let (m, jobs) = run(3, 180);
        // Per-second demand should have a wide spread (idle vs gaming).
        let mut per_sec = vec![0u64; 180];
        for (at, j) in &jobs {
            per_sec[(at.as_micros() / 1_000_000) as usize] += j.work;
        }
        let max = *per_sec.iter().max().unwrap() as f64;
        let min = *per_sec.iter().min().unwrap() as f64;
        assert!(
            max > 10.0 * (min + 1.0),
            "demand spread max={max} min={min}"
        );
        drop(m);
    }

    #[test]
    fn debug_shows_current_phase() {
        let m = MarkovMix::new(4);
        let dbg = format!("{m:?}");
        assert!(dbg.contains("current"));
    }
}
