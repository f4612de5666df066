//! # simkit — simulation substrate for the `rlpm` workspace
//!
//! This crate provides the domain-neutral building blocks every other crate
//! in the workspace is written on top of:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time
//!   with overflow-checked arithmetic;
//! * [`EventQueue`] — a deterministic discrete-event queue with stable
//!   FIFO ordering for simultaneous events;
//! * [`SimRng`] — a seedable, splittable random source plus the handful of
//!   distributions the workload generators need;
//! * [`faults`] — deterministic, seeded fault-injection schedules
//!   (telemetry noise/dropout/staleness, thermal throttle, core hotplug,
//!   decision overruns, Q-table SEUs) consumed by the experiment runner;
//! * [`Fnv1a64`] — the workspace's one FNV-1a-64 hash (checksums, cache
//!   keys, failpoint sites, RNG stream labels);
//! * [`failpoint`] — deterministic failpoints for the *harness itself*
//!   (seeded per-site error/panic/delay/abort injection consumed by the
//!   experiment scheduler and cache to exercise retry, quarantine and
//!   crash-resume paths);
//! * [`stats`] — online statistics (Welford mean/variance, fixed-bin
//!   histograms with percentile queries, exponentially weighted moving
//!   averages);
//! * [`trace`] — time-series recording with CSV export for the experiment
//!   harness;
//! * [`obs`] — feature-gated observability: lock-free metric handles,
//!   profiling spans, and process-wide snapshots (compiled to empty
//!   no-ops unless the `obs` feature is on).
//!
//! Everything is deterministic given a seed: there is no wall-clock access
//! anywhere in the workspace's simulation path.
//!
//! ```
//! use simkit::{SimTime, SimDuration, EventQueue};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(5), "dvfs-epoch");
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(1), "job-arrival");
//! let (t, ev) = queue.pop().expect("queue is non-empty");
//! assert_eq!(ev, "job-arrival");
//! assert_eq!(t.as_micros(), 1_000);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod event;
mod hash;
mod rng;
mod time;

pub mod failpoint;
pub mod faults;
pub mod obs;
pub mod stats;
pub mod trace;

pub use event::{EventQueue, ScheduledEvent};
pub use failpoint::{FailpointAction, FailpointPlan};
pub use faults::{ClusterFaults, FaultCounts, FaultPlan, FaultRates};
pub use hash::Fnv1a64;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
