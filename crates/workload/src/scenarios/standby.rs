//! Deep standby: a suspended device that submits no work at all. The
//! degenerate floor below [`super::Idle`] — screen off, radios parked,
//! every wakeup source quiesced — used by fleet-scale simulation
//! benchmarks where most of a device population sleeps through the
//! measured window.

use simkit::{SimDuration, SimTime};
use soc::Job;

use crate::{QosSpec, Scenario};

/// A fully-suspended device: no arrivals, ever.
///
/// Standby delivers zero QoS units by construction, so it is *not* part
/// of [`crate::ScenarioKind::ALL`] — the evaluation matrix's headline
/// metric (energy per QoS unit) is undefined on it. It exists for fleet
/// sweeps and the batched-simulation benchmarks, where the interesting
/// population is devices that stay asleep.
#[derive(Debug, Clone, Default)]
pub struct Standby;

impl Standby {
    /// Creates the scenario. The seed is accepted for catalog uniformity
    /// but unused: standby has no random stream to draw from.
    pub fn new(_seed: u64) -> Self {
        Standby
    }
}

impl Scenario for Standby {
    fn name(&self) -> &str {
        "standby"
    }

    fn qos_spec(&self) -> QosSpec {
        // Same lenient spec as `Idle`: nothing arrives, but if a caller
        // schedules work by hand it is judged like background activity.
        QosSpec::with_tolerance(SimDuration::from_millis(250))
    }

    fn arrivals(&mut self, _from: SimTime, _to: SimTime) -> Vec<(SimTime, Job)> {
        Vec::new()
    }

    fn quiet_until(&self) -> SimTime {
        SimTime::MAX
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standby_never_produces_arrivals() {
        let mut s = Standby::new(7);
        for e in 0..1_000u64 {
            let from = SimTime::ZERO + SimDuration::from_millis(20) * e;
            assert!(s
                .arrivals(from, from + SimDuration::from_millis(20))
                .is_empty());
        }
        s.reset();
        assert!(s
            .arrivals(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(3600))
            .is_empty());
    }
}
