//! The quiet horizon's contract, against calling every window.
//!
//! [`Scenario::quiet_until`] promises that `arrivals(from, to)` with `to`
//! at or before the horizon returns nothing and changes no state, until
//! the next `arrivals` or `reset` call. The closed loop relies on it to
//! skip such windows. Here one copy of each scenario is called on every
//! window and a twin skips every window the horizon covers, refreshing
//! the horizon after each call it makes, as the loop does; both must
//! produce the same `(time, job)` stream. Windows vary in length, and a
//! reset falls mid-run. Every catalog scenario, `Standby` and recorded
//! traces are covered; the sparse ones must really skip.

use proptest::prelude::*;
use simkit::{SimDuration, SimRng, SimTime};
use soc::Job;
use workload::{RecordedTrace, Scenario, ScenarioKind};

/// Scenario `i` of the cases: every catalog entry, then `Standby`, then
/// recorded idle, web and video traces.
const CASES: usize = ScenarioKind::ALL.len() + 4;

fn build(case: usize, seed: u64) -> Box<dyn Scenario> {
    let record = |kind: ScenarioKind| {
        let mut source = kind.build(seed);
        Box::new(RecordedTrace::record(
            source.as_mut(),
            SimDuration::from_secs(30),
        ))
    };
    match case.checked_sub(ScenarioKind::ALL.len()) {
        None => ScenarioKind::ALL[case].build(seed),
        Some(0) => ScenarioKind::Standby.build(seed),
        Some(1) => record(ScenarioKind::Idle),
        Some(2) => record(ScenarioKind::Web),
        _ => record(ScenarioKind::Video),
    }
}

/// Runs `scenario` over `windows` (window lengths in µs), resetting it
/// before window `reset_at`. With `skip`, windows that end by the
/// horizon are not called. Returns the stream and the windows skipped.
fn stream(
    scenario: &mut dyn Scenario,
    windows: &[u64],
    reset_at: usize,
    skip: bool,
) -> (Vec<(SimTime, Job)>, usize) {
    let (mut out, mut skipped) = (Vec::new(), 0);
    let mut horizon = SimTime::ZERO;
    let mut from = SimTime::ZERO;
    for (w, &len_us) in windows.iter().enumerate() {
        if w == reset_at {
            scenario.reset();
            from = SimTime::ZERO;
            horizon = SimTime::ZERO;
        }
        let to = from + SimDuration::from_micros(len_us);
        if skip && to <= horizon {
            skipped += 1;
        } else {
            out.extend(scenario.arrivals(from, to));
            horizon = scenario.quiet_until();
        }
        from = to;
    }
    (out, skipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_skipping_quiet_windows_keeps_every_arrival(seed in 1u64..1_000_000) {
        let mut rng = SimRng::seed_from(seed);
        // 40 s of windows, mostly one 20 ms epoch long, some shorter or
        // longer, so windows cross a horizon at every offset.
        let mut windows = Vec::new();
        let mut total = 0;
        while total < 40_000_000 {
            let len = if rng.chance(0.7) { 20_000 } else { 1 + rng.uniform_usize(60_000) as u64 };
            windows.push(len);
            total += len;
        }
        let reset_at = windows.len() / 2 + rng.uniform_usize(windows.len() / 4);
        for case in 0..CASES {
            let (every, _) = stream(build(case, seed).as_mut(), &windows, reset_at, false);
            let (skipping, skipped) = stream(build(case, seed).as_mut(), &windows, reset_at, true);
            let name = build(case, seed).name().to_owned();
            prop_assert_eq!(&skipping, &every, "{}: skipping a quiet window changed the stream", name);
            let sparse = ["idle", "standby", "idle-recorded"].contains(&name.as_str());
            prop_assert!(!sparse || skipped > windows.len() / 10, "{}: skipped only {} of {} windows", name, skipped, windows.len());
        }
    }
}
