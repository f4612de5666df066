//! The parked-lane certificate against the decision it stands for.
//!
//! [`Governor::decide_parked`] lets a control loop skip a parked lane's
//! observation and decision. It may say yes only when `decide_into`, on
//! any observation a lane parked on the request can produce (every
//! cluster at zero utilisation with an empty queue, at any temperature
//! and either throttle flag), writes the request back unchanged and
//! leaves the governor unchanged.
//!
//! Each case drives a governor through a random sequence of observations
//! on random cluster layouts (a one-level cluster among them, where
//! ondemand's hold runs beside a bottom-level request). Before every
//! decision a clone is asked for the certificate on the current request
//! and on a random one; wherever it says yes, random parked observations
//! must leave a further clone and the request exactly as they were.

use governors::state::synthetic_state;
use governors::{Governor, Ondemand, OndemandTunables, Powersave, SystemState, Userspace};
use proptest::prelude::*;
use simkit::SimRng;
use soc::LevelRequest;

/// One cluster's table: level count and frequency range.
#[derive(Debug, Clone, Copy)]
struct Table {
    levels: usize,
    range: (u64, u64),
}

impl Table {
    fn random(rng: &mut SimRng) -> Table {
        let levels = [1, 2, 5, 13, 19][rng.uniform_usize(5)];
        let f_min = 100_000_000 + 100_000_000 * rng.uniform_usize(3) as u64;
        let f_max = if levels == 1 {
            f_min
        } else {
            f_min + 200_000_000 * (1 + rng.uniform_usize(9) as u64)
        };
        Table {
            levels,
            range: (f_min, f_max),
        }
    }

    fn freq(&self, level: usize) -> u64 {
        let (f_min, f_max) = self.range;
        match self.levels {
            1 => f_min,
            n => f_min + (f_max - f_min) * level as u64 / (n as u64 - 1),
        }
    }
}

/// An observation of `tables` at `levels` with per-cluster utilisation
/// `utils`, random temperatures and throttle flags.
fn observe(tables: &[Table], levels: &[usize], utils: &[f64], rng: &mut SimRng) -> SystemState {
    let clusters: Vec<_> = tables
        .iter()
        .zip(levels)
        .zip(utils)
        .map(|((t, &level), &util)| (util, level, t.levels, t.freq(level), t.range))
        .collect();
    let mut state = synthetic_state(&clusters);
    for c in &mut state.soc.clusters {
        c.temp_c = 25.0 + 70.0 * rng.uniform();
        c.throttled = rng.chance(0.3);
    }
    state
}

/// A random observation of a lane parked on `request`: zero load, and
/// each cluster at the request or, thermally clamped, below it.
fn parked(tables: &[Table], request: &LevelRequest, rng: &mut SimRng) -> SystemState {
    let levels: Vec<usize> = request
        .levels
        .iter()
        .map(|&l| {
            if rng.chance(0.2) {
                rng.uniform_usize(l + 1)
            } else {
                l
            }
        })
        .collect();
    observe(tables, &levels, &vec![0.0; tables.len()], rng)
}

fn random_levels(tables: &[Table], rng: &mut SimRng) -> Vec<usize> {
    tables
        .iter()
        .map(|t| {
            if rng.chance(0.5) {
                0
            } else {
                rng.uniform_usize(t.levels)
            }
        })
        .collect()
}

/// Drives `governor` through `steps` random epochs on `tables` and
/// checks the certificate before each; returns how often it held.
fn check<G: Governor + Clone + PartialEq + std::fmt::Debug>(
    mut governor: G,
    tables: &[Table],
    steps: usize,
    rng: &mut SimRng,
) -> usize {
    let mut request = LevelRequest::new(vec![0; tables.len()]);
    let (mut certified, mut idle) = (0, false);
    for step in 0..steps {
        let candidates = [
            request.clone(),
            LevelRequest::new(random_levels(tables, rng)),
        ];
        for candidate in candidates {
            let mut probe = governor.clone();
            if !probe.decide_parked(&candidate) {
                continue;
            }
            certified += 1;
            prop_assert_eq!(&probe, &governor, "the certificate changed the governor");
            for _ in 0..4 {
                let state = parked(tables, &candidate, rng);
                let (mut after, mut written) = (probe.clone(), candidate.clone());
                after.decide_into(&state, &mut written);
                prop_assert_eq!(
                    &written.levels,
                    &candidate.levels,
                    "step {}: certified request rewritten on {:?}",
                    step,
                    state
                );
                prop_assert_eq!(
                    &after,
                    &probe,
                    "step {}: certified governor changed on {:?}",
                    step,
                    state
                );
            }
        }
        // The epoch's own observation: idle stretches, as a parked lane
        // sees, between busy ones with bursts over the up-threshold.
        if rng.chance(0.2) {
            idle = !idle;
        }
        let utils: Vec<f64> = tables
            .iter()
            .map(|_| match rng.uniform_usize(3) {
                _ if idle => 0.0,
                0 => 0.0,
                1 => 0.85 + 0.15 * rng.uniform(),
                _ => rng.uniform(),
            })
            .collect();
        let levels: Vec<usize> = request.levels.clone();
        let state = observe(tables, &levels, &utils, rng);
        governor.decide_into(&state, &mut request);
    }
    certified
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_certified_parked_decisions_change_nothing(seed in proptest::arbitrary::any::<u64>()) {
        let mut rng = SimRng::seed_from(seed);
        let mut tables: Vec<Table> = (0..1 + rng.uniform_usize(3)).map(|_| Table::random(&mut rng)).collect();
        // Always one one-level cluster, where a running hold leaves the
        // bottom-level request as it is.
        let one = rng.uniform_usize(tables.len());
        tables[one] = Table { levels: 1, range: (200_000_000, 200_000_000) };
        let n = tables.len();

        // Sometimes a threshold below zero load, which jumps every idle
        // cluster to its top level.
        let up_threshold = if rng.chance(0.2) { -0.1 } else { rng.uniform_in(0.5, 0.95) };
        let ondemand = Ondemand::new(
            OndemandTunables {
                up_threshold,
                sampling_down_factor: 1 + rng.uniform_usize(4) as u32,
            },
            // Sometimes too few hold slots, which the first decision grows.
            if rng.chance(0.3) { rng.uniform_usize(n) } else { n },
        );
        let certified = check(ondemand, &tables, 60, &mut rng);
        prop_assert!(certified > 0 || up_threshold < 0.0, "ondemand never certified");

        let certified = check(Powersave::new(), &tables, 20, &mut rng);
        prop_assert!(certified > 0, "powersave never certified");

        let levels = random_levels(&tables, &mut rng);
        let certified = check(Userspace::new(levels), &tables, 20, &mut rng);
        prop_assert!(certified > 0, "userspace never certified");
    }
}
