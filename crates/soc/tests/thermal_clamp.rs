//! Golden-bits pin of the thermal clamp on every path.
//!
//! The throttle clamp lowers a cluster's OPP level the sub-step its
//! thermal node crosses the trip point, charging one DVFS transition
//! (stall, energy, count). The calibrated presets never get hot enough to
//! trip within the experiments, so this test builds a big cluster that
//! does: a fast thermal node on a hot ambient, where the top level trips
//! even while idle and the lowest level cools back below the release
//! point. Two lanes run one schedule, shifted by a few epochs, that makes
//! the clamp fire
//!
//! - while the big cluster is busy (the busy kernel),
//! - while it is idle on a live SoC (the idle fast path),
//! - on the last sub-step of an idle span, arming the transition stall
//!   for the job that arrives next, and
//! - while a [`DeviceBatch`] lane is parked at a level above the throttled
//!   target (the batched idle kernel),
//!
//! and makes the throttle release after each trip. Each lane runs three
//! ways: through the stepped reference, through the fast paths of a lone
//! [`Soc`], and in one batch. Every report, observation and end state is
//! rendered bit for bit and must equal `tests/thermal_clamp_bits.txt`.
//! The paths share no clamp code with the golden file, so a change to the
//! clamp that all of them make alike still fails here.
//!
//! Regenerate (only when simulator *semantics* intentionally change):
//!
//! ```text
//! RLPM_UPDATE_GOLDEN=1 cargo test -p soc --test thermal_clamp
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use simkit::{SimDuration, SimTime};
use soc::{
    DeviceBatch, EpochObservation, EpochReport, Job, JobClass, LevelRequest, Soc, SocConfig,
    ThermalModel,
};

/// Epochs each lane runs.
const EPOCHS: u64 = 110;
/// The big cluster's top level on the xu3 preset.
const TOP: usize = 18;
/// Levels the hot node's clamp removes.
const THROTTLE_LEVELS: usize = 4;
const BIG: usize = 1;
/// Ids from here up are pulse jobs (see [`jobs`]).
const PULSE_ID: u64 = 1_000_000;

/// One lane of the schedule: its phase shift, whether LITTLE runs on two
/// of its four cores (a block of mixed online counts in the batch), and
/// whether its idle-hot phase carries pulse jobs.
#[derive(Debug, Clone, Copy)]
struct Lane {
    shift: u64,
    little_online: usize,
    pulses: bool,
}

const LANES: [Lane; 2] = [
    Lane {
        shift: 0,
        little_online: 4,
        pulses: false,
    },
    Lane {
        shift: 7,
        little_online: 2,
        pulses: true,
    },
];

/// The schedule's phases, in lane-local epochs (`epoch - shift`, cool
/// before the lane starts): busy at the top level, cool at the lowest,
/// idle at the top level (the lane parks in a batch), cool again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Busy,
    Cool,
    IdleHot,
}

fn phase(lane: Lane, epoch: u64) -> Phase {
    match epoch.checked_sub(lane.shift) {
        Some(0..=5) => Phase::Busy,
        Some(40..=69) => Phase::IdleHot,
        _ => Phase::Cool,
    }
}

fn request(lane: Lane, epoch: u64) -> LevelRequest {
    let big = match phase(lane, epoch) {
        Phase::Busy | Phase::IdleHot => TOP,
        Phase::Cool => 0,
    };
    LevelRequest::new(vec![6, big])
}

/// Four heavy jobs at the start of every busy epoch: more work than the
/// big cluster retires in an epoch, so it stays busy to the end of each.
/// With pulses, a tiny heavy job at every even millisecond of an
/// idle-hot epoch: it retires within its sub-step, so every idle span is
/// the one sub-step before the next pulse, and a clamp while idle fires on
/// a span's last sub-step. The phase's first epoch has no pulse at its
/// start, where the level request arms a stall of its own.
fn jobs(lane: Lane, epoch: u64, now: SimTime) -> Vec<(SimTime, Job)> {
    let heavy = |id, work, at: SimTime| {
        let job = Job::new(id, work, at + SimDuration::from_millis(20), JobClass::Heavy);
        (at, job)
    };
    match phase(lane, epoch) {
        Phase::Busy => (0..4)
            .map(|k| heavy(epoch * 4 + k, 90_000_000, now))
            .collect(),
        Phase::IdleHot if lane.pulses => (0..10)
            .filter(|&k| k > 0 || phase(lane, epoch - 1) == Phase::IdleHot)
            .map(|k| heavy(PULSE_ID + epoch * 10 + k, 200_000, pulse_arrival(epoch, k)))
            .collect(),
        _ => Vec::new(),
    }
}

/// When pulse `k` of `epoch` arrives.
fn pulse_arrival(epoch: u64, k: u64) -> SimTime {
    SimTime::from_millis(epoch * 20 + 2 * k)
}

/// The xu3 preset with a big cluster that trips idle at the top level
/// (steady state ≈ 91 °C against an 85 °C trip) and releases idle at the
/// lowest (≈ 75 °C against a 78 °C release), with τ = 0.24 s.
fn build(lane: Lane) -> Soc {
    let mut config = SocConfig::odroid_xu3_like().expect("preset is valid");
    config.clusters[BIG].thermal = ThermalModel::new(12.0, 0.02, 70.0, 85.0, 78.0, THROTTLE_LEVELS);
    let mut soc = Soc::new(config).expect("preset builds");
    soc.set_cores_online(0, lane.little_online)
        .expect("online count in range");
    soc
}

fn empty_report() -> EpochReport {
    EpochReport {
        started_at: SimTime::ZERO,
        ended_at: SimTime::ZERO,
        clusters: Vec::new(),
        energy_j: 0.0,
    }
}

fn empty_obs() -> EpochObservation {
    EpochObservation {
        at: SimTime::ZERO,
        clusters: Vec::new(),
        energy_j: 0.0,
    }
}

/// What one lane's epoch left behind, on any path.
#[derive(Debug, Clone)]
struct Epoch {
    report: EpochReport,
    obs: EpochObservation,
    /// Whether the epoch ran parked in the batch (always `false` off it).
    parked: bool,
}

/// Runs every lane alone on a [`Soc`], through the fast paths or the
/// stepped reference.
fn run_looped(fast: bool) -> (Vec<Vec<Epoch>>, Vec<Soc>) {
    let mut epochs = Vec::new();
    let mut socs = Vec::new();
    for lane in LANES {
        let mut soc = build(lane);
        soc.set_idle_fast_forward(fast);
        let mut out = Vec::new();
        for e in 0..EPOCHS {
            for (at, job) in jobs(lane, e, soc.now()) {
                soc.schedule_job(at, job);
            }
            let report = soc.run_epoch(&request(lane, e)).expect("levels in range");
            let obs = soc.observe(&report);
            out.push(Epoch {
                report,
                obs,
                parked: false,
            });
        }
        epochs.push(out);
        socs.push(soc);
    }
    (epochs, socs)
}

/// Runs every lane in one [`DeviceBatch`].
fn run_batched() -> (Vec<Vec<Epoch>>, Vec<Soc>) {
    let n = LANES.len();
    let mut batch = DeviceBatch::new(LANES.iter().map(|&l| build(l)).collect()).expect("one grid");
    let mut reports: Vec<EpochReport> = (0..n).map(|_| empty_report()).collect();
    let mut epochs: Vec<Vec<Epoch>> = vec![Vec::new(); n];
    for e in 0..EPOCHS {
        let requests: Vec<LevelRequest> = LANES
            .iter()
            .enumerate()
            .map(|(i, &lane)| {
                for (at, job) in jobs(lane, e, batch.lane(i).now()) {
                    batch.schedule_job(i, at, job);
                }
                request(lane, e)
            })
            .collect();
        batch
            .run_epoch_into(&vec![true; n], &requests, &mut reports)
            .expect("slice lengths match");
        assert!(batch.lane_errors().iter().all(Option::is_none));
        for (i, out) in epochs.iter_mut().enumerate() {
            let mut obs = empty_obs();
            batch.observe_lane_into(i, &reports[i], &mut obs);
            out.push(Epoch {
                report: reports[i].clone(),
                obs,
                parked: batch.lane_parked(i),
            });
        }
    }
    (epochs, batch.into_lanes())
}

/// Every float as `to_bits()` hex, integers raw. The observation fields
/// that repeat a report field are checked equal rather than rendered.
fn render(epochs: &[Vec<Epoch>], socs: &[Soc]) -> String {
    let epoch = SimDuration::from_millis(20);
    let mut out = String::from(
        "# golden bit patterns: thermal clamp on every path\n\
         # lane epoch energy | per cluster: util_avg util_max energy temp level \
         transitions queued freq [hot] [completed id@ns]\n",
    );
    for (i, (lane, soc)) in epochs.iter().zip(socs).enumerate() {
        for (e, ep) in lane.iter().enumerate() {
            let (r, o) = (&ep.report, &ep.obs);
            assert_eq!(r.ended_at, SimTime::ZERO + epoch * (e as u64 + 1));
            assert_eq!(r.started_at + epoch, r.ended_at);
            assert_eq!(
                (o.at, o.energy_j.to_bits()),
                (r.ended_at, r.energy_j.to_bits())
            );
            write!(out, "lane{i} e{e} {:016x}", r.energy_j.to_bits()).expect("write to String");
            for (cr, co) in r.clusters.iter().zip(&o.clusters) {
                let seen = (co.level, co.temp_c.to_bits(), co.queued);
                assert_eq!(seen, (cr.level, cr.temp_c.to_bits(), cr.queued));
                let util = (co.util_avg.to_bits(), co.util_max.to_bits());
                assert_eq!(util, (cr.util_avg.to_bits(), cr.util_max.to_bits()));
                // No cpuidle table on this preset.
                assert_eq!((cr.idle_gated_s, cr.idle_collapsed_s), (0.0, 0.0));
                write!(
                    out,
                    " | {:016x} {:016x} {:016x} {:016x} l{} t{} q{} {}MHz{} [",
                    cr.util_avg.to_bits(),
                    cr.util_max.to_bits(),
                    cr.energy_j.to_bits(),
                    cr.temp_c.to_bits(),
                    cr.level,
                    cr.transitions,
                    cr.queued,
                    co.freq_hz / 1_000_000,
                    if co.throttled { " hot" } else { "" },
                )
                .expect("write to String");
                for job in &cr.completed {
                    write!(out, " {}@{}", job.id.0, job.completed_at.as_nanos())
                        .expect("write to String");
                }
                out.push_str(" ]");
            }
            out.push('\n');
        }
        write!(
            out,
            "lane{i} end now={} epochs={} energy={:016x}",
            soc.now().as_nanos(),
            soc.epochs_run(),
            soc.total_energy_j().to_bits()
        )
        .expect("write to String");
        for cluster in soc.clusters() {
            write!(
                out,
                " | l{} temp={:016x} hot={} online={} queued={} backlog={:016x}",
                cluster.level(),
                cluster.temp_c().to_bits(),
                cluster.is_throttled(),
                cluster.num_online(),
                cluster.queued_jobs(),
                cluster.backlog().to_bits(),
            )
            .expect("write to String");
        }
        out.push('\n');
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("thermal_clamp_bits.txt")
}

fn assert_matches_golden(path_name: &str, rendered: &str) {
    if std::env::var_os("RLPM_UPDATE_GOLDEN").is_some() {
        // The stepped reference is writing the file.
        return;
    }
    let golden = std::fs::read_to_string(golden_path())
        .expect("missing tests/thermal_clamp_bits.txt; generate with RLPM_UPDATE_GOLDEN=1");
    if rendered != golden {
        let mut diff = String::new();
        for (ours, theirs) in rendered.lines().zip(golden.lines()) {
            if ours != theirs {
                let _ = writeln!(diff, "-{theirs}\n+{ours}");
                break;
            }
        }
        panic!("{path_name}: thermal clamp drifted from the golden bit patterns:\n{diff}");
    }
}

/// The schedule reaches every case it exists for, and the clamp only
/// ever lowers a level.
fn assert_cases_reached(epochs: &[Vec<Epoch>], batched: bool) {
    let clamp_target = TOP - THROTTLE_LEVELS;
    let mut busy_trip = false;
    let mut idle_trip = false;
    let mut parked_trip = false;
    let mut stalled_pulse = false;
    let stall = SimDuration::from_micros(100);
    for (i, lane) in epochs.iter().enumerate() {
        let mut releases = 0;
        let spec = LANES[i];
        for (e, w) in lane.windows(2).enumerate() {
            let e = e as u64 + 1;
            let (before, now) = (&w[0], &w[1]);
            let (b, c) = (&before.report.clusters[BIG], &now.report.clusters[BIG]);
            let requested = request(spec, e).levels[BIG];
            // A clamp never raises a level: the level is at most the
            // request, and at most the clamp target while throttled.
            assert!(c.level <= requested, "lane {i} epoch {e}: level raised");
            if now.obs.clusters[BIG].throttled {
                assert!(c.level <= clamp_target, "lane {i} epoch {e}: unclamped");
            }
            // Same request as last epoch at the level it set, so any
            // transition this epoch is the clamp's.
            let steady = request(spec, e - 1).levels[BIG] == requested && b.level == requested;
            let clamped = steady && c.transitions > 0 && c.level < b.level;
            let idle = b.queued == 0 && c.queued == 0 && c.completed.is_empty();
            busy_trip |= clamped && b.queued > 0 && c.queued > 0;
            idle_trip |= clamped && idle && !now.parked;
            parked_trip |= clamped && idle && before.parked && now.parked;
            if before.obs.clusters[BIG].throttled && !now.obs.clusters[BIG].throttled {
                releases += 1;
            }
            // A pulse retires in well under the big cluster's 100 µs
            // transition stall and never queues, so one that took the
            // stall's length waited out a stall armed by a clamp on the
            // idle sub-step before it.
            stalled_pulse |= c.completed.iter().any(|job| {
                let n = job.id.0.saturating_sub(PULSE_ID);
                job.id.0 >= PULSE_ID
                    && job
                        .completed_at
                        .saturating_duration_since(pulse_arrival(n / 10, n % 10))
                        >= stall
            });
        }
        assert_eq!(releases, 2, "lane {i} releases after each of its trips");
    }
    assert!(busy_trip, "no trip while busy");
    assert!(
        stalled_pulse,
        "no stall armed on the last sub-step of an idle span"
    );
    if batched {
        assert!(
            parked_trip,
            "no trip while a lane was parked above the target"
        );
    } else {
        assert!(idle_trip, "no trip while idle");
    }
}

#[test]
fn stepped_reference_matches_golden() {
    let (epochs, socs) = run_looped(false);
    assert_cases_reached(&epochs, false);
    let rendered = render(&epochs, &socs);
    if std::env::var_os("RLPM_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &rendered).expect("write golden file");
        eprintln!("golden file updated: {}", golden_path().display());
        return;
    }
    assert_matches_golden("stepped reference", &rendered);
}

#[test]
fn fast_soc_matches_golden() {
    let (epochs, socs) = run_looped(true);
    assert_cases_reached(&epochs, false);
    assert_matches_golden("fast paths", &render(&epochs, &socs));
}

#[test]
fn device_batch_matches_golden() {
    let (epochs, socs) = run_batched();
    assert_cases_reached(&epochs, true);
    assert_matches_golden("device batch", &render(&epochs, &socs));
}
