//! Near-idle: sparse background sync plus rare notifications. The floor of
//! the catalog — a governor that cannot save energy here cannot save it
//! anywhere.

use simkit::{SimDuration, SimTime};
use soc::{Job, JobClass};

use super::{fast_forward, JobFactory};
use crate::{QosSpec, Scenario};

/// Background sync tick period.
const SYNC_PERIOD: SimDuration = SimDuration::from_millis(400);
/// Work per sync tick.
const SYNC_WORK: f64 = 1.5e6;
/// Mean interval between notifications.
const NOTIFY_MEAN_S: f64 = 4.0;
/// Notification render work.
const NOTIFY_WORK: f64 = 5.0e6;

/// Near-idle background activity.
#[derive(Debug, Clone)]
pub struct Idle {
    factory: JobFactory,
    next_sync: SimTime,
    next_notify: SimTime,
}

impl Idle {
    /// Creates the scenario.
    pub fn new(seed: u64) -> Self {
        let mut factory = JobFactory::new(seed, "idle");
        let first = SimTime::ZERO
            + SimDuration::from_secs_f64(factory.rng.exponential(1.0 / NOTIFY_MEAN_S));
        Idle {
            factory,
            next_sync: SimTime::ZERO,
            next_notify: first,
        }
    }
}

impl Scenario for Idle {
    fn name(&self) -> &str {
        "idle"
    }

    fn qos_spec(&self) -> QosSpec {
        QosSpec::with_tolerance(SimDuration::from_millis(250))
    }

    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, Job)> {
        let mut out = Vec::new();
        fast_forward(&mut self.next_sync, from, SYNC_PERIOD);
        if self.next_notify < from {
            self.next_notify = from
                + SimDuration::from_secs_f64(self.factory.rng.exponential(1.0 / NOTIFY_MEAN_S));
        }
        while self.next_sync < to {
            let work = self.factory.work(SYNC_WORK, 0.2, 2.0);
            out.push(self.factory.job(
                self.next_sync,
                work,
                SimDuration::from_secs(2),
                JobClass::Background,
            ));
            self.next_sync += SYNC_PERIOD;
        }
        while self.next_notify < to {
            let work = self.factory.work(NOTIFY_WORK, 0.3, 2.0);
            out.push(self.factory.job(
                self.next_notify,
                work,
                SimDuration::from_millis(500),
                JobClass::Normal,
            ));
            self.next_notify +=
                SimDuration::from_secs_f64(self.factory.rng.exponential(1.0 / NOTIFY_MEAN_S));
        }
        out.sort_by_key(|(at, _)| *at);
        out
    }

    /// Both next times: a window that ends by them is before either, so
    /// neither loop runs, and the fast-forward and the notify redraw
    /// fire only for a time before the window's start.
    fn quiet_until(&self) -> SimTime {
        self.next_sync.min(self.next_notify)
    }

    fn reset(&mut self) {
        self.next_sync = SimTime::ZERO;
        self.next_notify = SimTime::ZERO
            + SimDuration::from_secs_f64(self.factory.rng.exponential(1.0 / NOTIFY_MEAN_S));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mostly_background_work() {
        let mut i = Idle::new(1);
        let jobs = i.arrivals(SimTime::ZERO, SimTime::from_secs(30));
        let bg = jobs
            .iter()
            .filter(|(_, j)| j.class == JobClass::Background)
            .count();
        let fg = jobs.len() - bg;
        assert!(bg > fg, "bg {bg} vs fg {fg}");
    }

    #[test]
    fn demand_is_tiny() {
        let mut i = Idle::new(2);
        let total: u64 = i
            .arrivals(SimTime::ZERO, SimTime::from_secs(10))
            .iter()
            .map(|(_, j)| j.work)
            .sum();
        // Under 0.01% of a big cluster-second of capacity per second.
        assert!(total < 200_000_000, "idle demand too high: {total}");
    }
}
