//! Recorded traces: capture any scenario's arrivals once and replay them
//! bit-identically, or persist them as CSV.
//!
//! The paper's group evaluates on scenarios recorded from real devices;
//! [`RecordedTrace`] is the corresponding facility here — it turns a
//! stochastic generator into a fixed trace so different policies can be
//! compared on *literally* the same job sequence, and traces can be
//! checked into a repository or exchanged.

use std::error::Error;
use std::fmt;

use simkit::{SimDuration, SimTime};
use soc::{Job, JobClass};

use crate::{QosSpec, Scenario};

/// A fixed, replayable sequence of job arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    name: String,
    spec: QosSpec,
    /// Arrivals sorted by time.
    entries: Vec<(SimTime, Job)>,
    /// Replay cursor (index of the next entry to emit).
    cursor: usize,
}

/// Error parsing a trace CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line of the offending record.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl Error for ParseTraceError {}

fn class_name(class: JobClass) -> &'static str {
    match class {
        JobClass::Heavy => "heavy",
        JobClass::Normal => "normal",
        JobClass::Light => "light",
        JobClass::Background => "background",
    }
}

fn class_from(name: &str) -> Option<JobClass> {
    match name {
        "heavy" => Some(JobClass::Heavy),
        "normal" => Some(JobClass::Normal),
        "light" => Some(JobClass::Light),
        "background" => Some(JobClass::Background),
        _ => None,
    }
}

impl RecordedTrace {
    /// Records `duration` of `scenario` (starting from its current
    /// phase), pulling arrivals in 20 ms windows like the simulation loop
    /// does.
    pub fn record(scenario: &mut dyn Scenario, duration: SimDuration) -> Self {
        let window = SimDuration::from_millis(20);
        let mut entries = Vec::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + duration;
        while t < end {
            let to = (t + window).min_time(end);
            entries.extend(scenario.arrivals(t, to));
            t = to;
        }
        RecordedTrace {
            name: format!("{}-recorded", scenario.name()),
            spec: scenario.qos_spec(),
            entries,
            cursor: 0,
        }
    }

    /// Builds a trace from explicit entries (must be sorted by time).
    ///
    /// # Panics
    ///
    /// Panics if the entries are not sorted by arrival time.
    pub fn from_entries(name: &str, spec: QosSpec, entries: Vec<(SimTime, Job)>) -> Self {
        let sorted = entries
            .windows(2)
            .all(|w| matches!(w, [(a, _), (b, _)] if a <= b));
        assert!(sorted, "trace entries must be sorted by arrival time");
        RecordedTrace {
            name: name.to_owned(),
            spec,
            entries,
            cursor: 0,
        }
    }

    /// Number of recorded arrivals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The arrival time of the last entry (zero for an empty trace).
    pub fn duration(&self) -> SimDuration {
        self.entries
            .last()
            .map(|(at, _)| at.saturating_duration_since(SimTime::ZERO))
            .unwrap_or(SimDuration::ZERO)
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[(SimTime, Job)] {
        &self.entries
    }

    /// Serialises as CSV (`at_ns,id,work,deadline_ns,class`).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("at_ns,id,work,deadline_ns,class\n");
        for (at, job) in &self.entries {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                at.as_nanos(),
                job.id.0,
                job.work,
                job.deadline.as_nanos(),
                class_name(job.class)
            );
        }
        out
    }

    /// Parses a CSV produced by [`RecordedTrace::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] naming the first malformed line;
    /// entries must be sorted by arrival time.
    pub fn from_csv(name: &str, spec: QosSpec, csv: &str) -> Result<Self, ParseTraceError> {
        let mut entries = Vec::new();
        for (i, line) in csv.lines().enumerate() {
            if i == 0 || line.trim().is_empty() {
                continue; // header / trailing blank
            }
            let err = |reason: &str| ParseTraceError {
                line: i + 1,
                reason: reason.to_owned(),
            };
            let fields: Vec<&str> = line.split(',').collect();
            let [at, id, work, deadline, class] = fields.as_slice() else {
                return Err(err("expected 5 fields"));
            };
            let at: u64 = at.parse().map_err(|_| err("bad arrival time"))?;
            let id: u64 = id.parse().map_err(|_| err("bad id"))?;
            let work: u64 = work.parse().map_err(|_| err("bad work"))?;
            let deadline: u64 = deadline.parse().map_err(|_| err("bad deadline"))?;
            let class = class_from(class).ok_or_else(|| err("unknown class"))?;
            if work == 0 {
                return Err(err("work must be positive"));
            }
            let at = SimTime::from_nanos(at);
            let deadline = SimTime::from_nanos(deadline);
            if deadline < at {
                return Err(err("deadline before arrival"));
            }
            if let Some((prev, _)) = entries.last() {
                if at < *prev {
                    return Err(err("entries out of order"));
                }
            }
            entries.push((at, Job::new(id, work, deadline, class)));
        }
        Ok(RecordedTrace {
            name: name.to_owned(),
            spec,
            entries,
            cursor: 0,
        })
    }
}

/// Helper: min over SimTime (std `Ord::min` works, but keep the call
/// sites readable).
trait MinTime {
    fn min_time(self, other: SimTime) -> SimTime;
}

impl MinTime for SimTime {
    fn min_time(self, other: SimTime) -> SimTime {
        self.min(other)
    }
}

impl Scenario for RecordedTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn qos_spec(&self) -> QosSpec {
        self.spec
    }

    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, Job)> {
        // Skip entries that fell before the window (paused phases).
        while let Some((at, _)) = self.entries.get(self.cursor) {
            if *at >= from {
                break;
            }
            self.cursor += 1;
        }
        let start = self.cursor;
        while let Some((at, _)) = self.entries.get(self.cursor) {
            if *at >= to {
                break;
            }
            self.cursor += 1;
        }
        self.entries
            .get(start..self.cursor)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    }

    /// The next entry's time: a window that ends by it neither skips nor
    /// emits an entry.
    fn quiet_until(&self) -> SimTime {
        self.entries
            .get(self.cursor)
            .map_or(SimTime::MAX, |(at, _)| *at)
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioKind;

    fn recorded_video() -> RecordedTrace {
        let mut video = ScenarioKind::Video.build(5);
        RecordedTrace::record(video.as_mut(), SimDuration::from_secs(2))
    }

    #[test]
    fn recording_captures_the_scenario() {
        let trace = recorded_video();
        // 2 s of video: 61 frames + 100 audio buffers.
        assert_eq!(trace.len(), 161);
        assert_eq!(trace.name(), "video-recorded");
        assert!(trace.duration() <= SimDuration::from_secs(2));
    }

    #[test]
    fn replay_matches_the_original_generation() {
        let mut video = ScenarioKind::Video.build(5);
        let window = SimDuration::from_millis(20);
        let mut original = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            original.extend(video.arrivals(t, t + window));
            t += window;
        }

        let mut trace = recorded_video();
        let mut replayed = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            replayed.extend(trace.arrivals(t, t + window));
            t += window;
        }
        assert_eq!(original, replayed);
    }

    #[test]
    fn replay_is_identical_across_resets_unlike_stochastic_scenarios() {
        let mut trace = recorded_video();
        let a = trace.arrivals(SimTime::ZERO, SimTime::from_secs(2));
        trace.reset();
        let b = trace.arrivals(SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(a, b, "recorded traces replay bit-identically");
    }

    #[test]
    fn csv_round_trip_is_identity() {
        let trace = recorded_video();
        let csv = trace.to_csv();
        let parsed = RecordedTrace::from_csv("video-recorded", trace.qos_spec(), &csv)
            .expect("own CSV parses");
        assert_eq!(parsed.entries(), trace.entries());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        let spec = QosSpec::default();
        let cases = [
            (
                "at_ns,id,work,deadline_ns,class\n1,2,3\n",
                "expected 5 fields",
            ),
            ("h\nx,1,1,1,heavy\n", "bad arrival time"),
            ("h\n1,1,0,2,heavy\n", "work must be positive"),
            ("h\n5,1,1,2,heavy\n", "deadline before arrival"),
            ("h\n1,1,1,2,weird\n", "unknown class"),
            (
                "h\n9,1,1,10,heavy\n1,2,1,10,heavy\n",
                "entries out of order",
            ),
        ];
        for (csv, expected) in cases {
            let err = RecordedTrace::from_csv("t", spec, csv).expect_err(expected);
            assert!(err.reason.contains(expected), "{err} !~ {expected}");
            assert!(err.to_string().contains("trace line"));
        }
    }

    #[test]
    fn windows_partition_the_trace() {
        let mut trace = recorded_video();
        let total = trace.len();
        let mut seen = 0;
        let mut t = SimTime::ZERO;
        let window = SimDuration::from_millis(7); // deliberately unaligned
        while t < SimTime::from_secs(2) {
            let to = t + window;
            seen += trace.arrivals(t, to).len();
            t = to;
        }
        assert_eq!(seen, total);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn from_entries_rejects_unsorted() {
        let j = |at_ms: u64| {
            (
                SimTime::from_millis(at_ms),
                Job::new(0, 1, SimTime::from_millis(at_ms + 10), JobClass::Light),
            )
        };
        RecordedTrace::from_entries("x", QosSpec::default(), vec![j(5), j(1)]);
    }

    #[test]
    fn recorded_trace_drives_a_simulation() {
        // End-to-end: a recorded trace is a Scenario like any other.
        let mut trace = recorded_video();
        let soc_config = soc::SocConfig::odroid_xu3_like().unwrap();
        let mut soc = soc::Soc::new(soc_config.clone()).unwrap();
        let request = soc::LevelRequest::max(&soc_config);
        let mut completed = 0;
        // 100 epochs of arrivals plus drain time for jobs landing at the
        // very end of the trace.
        for _ in 0..105 {
            let from = soc.now();
            let to = from + SimDuration::from_millis(20);
            for (at, job) in trace.arrivals(from, to) {
                soc.schedule_job(at, job);
            }
            completed += soc.run_epoch(&request).unwrap().completed().count();
        }
        assert_eq!(completed, trace.len(), "every recorded job executes");
    }
}
