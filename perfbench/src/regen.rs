//! `regen-e1-cold`: the full E1 matrix (10 scenarios × 7 policies × 5
//! seeds, 120 s evaluation, default training) through `run_e1`, against
//! an empty cache directory.
//!
//! This is what a reproducer waits for. Most of its CPU time is the 50
//! RL trainings, it keeps both scheduler workers busy, and it is the
//! cache's write path. Its operation, the one `latency_p50_ms` times, is
//! one whole cold pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use experiments::cache;
use experiments::e1_energy_per_qos::{run_e1, CellRun, E1Config, E1Result};
use experiments::{PolicyKind, RunConfig, RunMetrics};
use soc::{Soc, SocConfig};
use workload::ScenarioKind;

use crate::measure::{cpu_s, dir_bytes, median, secs};
use crate::report::Report;
use crate::trace::{restore_frozen, run_traced, train_traced, Decider, Layers};
use crate::{Args, DEFAULT_SEED, WORKERS};

/// Set-ups are timed in batches of this many: one takes about a
/// microsecond, too little to time alone.
const SETUP_BATCH: usize = 100;
/// Timed batches before each cold pass and after the warm pass;
/// `setup_s` is the median batch's mean. Spreading the batches over the
/// run keeps one slow or fast stretch of the host from setting it.
const SETUP_BATCHES: usize = 20;
/// Idle time before each batch. A thread that keeps running stays in one
/// speed of the shared host for seconds: back-to-back batches read about
/// 0.6 µs in some stretches and 1.2 µs in others, so run medians jumped
/// between the two. Starting each batch from idle, as a real set-up
/// starts, mixes them within every run.
const SETUP_IDLE: Duration = Duration::from_millis(10);

/// The committed tables the default seed must reproduce byte for byte.
const COMMITTED: [&str; 3] = [
    "results/e1_energy_per_qos.csv",
    "results/e1_energy_per_qos_std.csv",
    "results/e1_summary.csv",
];

/// The E1 seeds for a benchmark seed: `seed × 1..=5` (seed 0 counts as
/// 1), so the default seed 11 gives the committed seeds 11, 22, 33, 44, 55.
pub fn e1_seeds(seed: u64) -> Vec<u64> {
    (1..=5).map(|i| seed.max(1).wrapping_mul(i)).collect()
}

/// The inputs of one cold pass and its cache directory, which the
/// program creates on its first store.
struct Setup {
    soc: SocConfig,
    config: E1Config,
    dir: PathBuf,
}

fn setup(args: &Args, index: usize) -> Result<Setup, String> {
    let soc = SocConfig::odroid_xu3_like().map_err(|e| format!("SoC preset: {e}"))?;
    let config = E1Config {
        seeds: e1_seeds(args.seed),
        ..E1Config::default()
    };
    let dir = args.work.join(format!("e1-cache-{index}"));
    cache::clear_memo();
    cache::configure(Some(dir.clone()));
    Ok(Setup { soc, config, dir })
}

/// The three E1 tables as regen-tables writes them.
fn csvs(result: &E1Result) -> [String; 3] {
    [
        result.energy_per_qos_table().to_csv(),
        result.stddev_table().to_csv(),
        result.summary_table().to_csv(),
    ]
}

fn compare_csvs(report: &mut Report, what: &str, expected: &[String; 3], got: &[String; 3]) {
    for ((e, g), file) in expected.iter().zip(got).zip(COMMITTED) {
        report.check(e == g, || format!("{what}: {file} differs"));
    }
}

/// Compares two results cell by cell, bitwise.
fn compare_cells(report: &mut Report, what: &str, expected: &E1Result, got: &E1Result) {
    report.check(expected.runs.len() == got.runs.len(), || {
        format!(
            "{what}: {} cells, expected {}",
            got.runs.len(),
            expected.runs.len()
        )
    });
    for (e, g) in expected.runs.iter().zip(&got.runs) {
        report.check(format!("{e:?}") == format!("{g:?}"), || {
            format!(
                "{what}: cell {}/{}/{} differs",
                e.scenario, e.policy, e.seed
            )
        });
    }
}

/// What one pass took.
struct PassTime {
    /// Wall time (s).
    wall: f64,
    /// Process CPU time (s).
    cpu: f64,
}

/// One `run_e1` call; a quarantined cell fails the pass.
fn pass(report: &mut Report, what: &str, s: &Setup) -> Option<(E1Result, PassTime)> {
    let (start, cpu) = (Instant::now(), cpu_s());
    let result = catch_unwind(AssertUnwindSafe(|| run_e1(&s.soc, &s.config)));
    let time = PassTime {
        wall: secs(start.elapsed()),
        cpu: cpu_s() - cpu,
    };
    match result {
        Ok(result) => Some((result, time)),
        Err(_) => {
            report.check(false, || {
                format!(
                    "{what}: cells quarantined: {:?}",
                    experiments::quarantine_report()
                )
            });
            None
        }
    }
}

/// One E1 cell the way `run_e1` evaluates it with the cache on — train,
/// restore the frozen policy from its persisted table, evaluate on a
/// fresh SoC — through the traced loop.
fn traced_cell(
    s: &Setup,
    &(scenario, policy, seed): &(ScenarioKind, PolicyKind, u64),
    layers: &mut Layers,
) -> Result<RunMetrics, String> {
    let mut soc = Soc::new(s.soc.clone()).map_err(|e| format!("SoC: {e}"))?;
    let (mut governor, decider): (Box<dyn governors::Governor>, Decider) = match policy {
        PolicyKind::Baseline(kind) => (kind.build(&s.soc), Decider::Baseline),
        PolicyKind::Rl => {
            let trained = train_traced(&s.soc, scenario, s.config.training, seed, layers);
            (
                Box::new(restore_frozen(&trained, &s.soc, seed)?),
                Decider::Rl,
            )
        }
        PolicyKind::RlHw => return Err("rlpm-hw is not in the E1 matrix".into()),
    };
    let mut scenario = scenario.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    Ok(run_traced(
        &mut soc,
        scenario.as_mut(),
        governor.as_mut(),
        RunConfig::seconds(s.config.eval_secs),
        decider,
        layers,
    ))
}

/// What the traced pass measured.
struct Traced {
    result: E1Result,
    layers: Layers,
    wall: f64,
}

/// The matrix in `run_e1`'s cell order, on [`WORKERS`] threads pulling
/// cells off a shared cursor as the scheduler does.
fn traced_pass(s: &Setup) -> Result<Traced, String> {
    let mut cells = Vec::new();
    for &scenario in &s.config.scenarios {
        for &policy in &s.config.policies {
            for &seed in &s.config.seeds {
                cells.push((scenario, policy, seed));
            }
        }
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let workers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let (mut layers, mut out) = (Layers::default(), Vec::new());
                    // Relaxed: the cursor only hands out indices; results travel through the join.
                    while let Some(cell) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                        out.push((*cell, traced_cell(s, cell, &mut layers)));
                    }
                    (layers, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a traced worker panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall = secs(start.elapsed());
    let (mut layers, mut runs) = (Layers::default(), Vec::new());
    for (l, out) in workers {
        layers.add(&l);
        for ((scenario, policy, seed), metrics) in out {
            runs.push(CellRun {
                scenario,
                policy,
                seed,
                metrics: metrics?,
            });
        }
    }
    let position = |r: &CellRun| {
        cells
            .iter()
            .position(|c| *c == (r.scenario, r.policy, r.seed))
    };
    runs.sort_by_key(position);
    let result = E1Result {
        config: s.config.clone(),
        runs,
    };
    Ok(Traced {
        result,
        layers,
        wall,
    })
}

/// Runs `regen-e1-cold`.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let retries_before = experiments::retry_count();
    let mut batches = Vec::new();
    let time_setups = |batches: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_BATCHES {
            std::thread::sleep(SETUP_IDLE);
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                setup(args, 0)?;
            }
            batches.push(secs(t.elapsed()) / SETUP_BATCH as f64);
        }
        Ok(())
    };
    time_setups(&mut batches)?;
    let mut s = setup(args, 0)?;

    // Cold passes until --seconds is spent; each later pass must repeat
    // the first, and the warm re-read after the last must too.
    let start = Instant::now();
    let (mut times, mut first) = (Vec::new(), None);
    let (before, cold, bytes_stored) = loop {
        let before = cache::stats();
        let (result, time) = pass(report, "cold pass", &s).ok_or("cold pass failed")?;
        let cold = cache::stats();
        times.push(time);
        let epochs = (RunConfig::seconds(s.config.eval_secs).duration / s.soc.epoch).max(1);
        for r in &result.runs {
            report.check(r.metrics.epochs == epochs, || {
                format!("cell {}/{}/{} stopped early", r.scenario, r.policy, r.seed)
            });
        }
        match &first {
            None => first = Some(result),
            Some(f) => compare_cells(report, "repeated cold pass", f, &result),
        }
        if start.elapsed() >= Duration::from_secs(args.seconds) || args.trace {
            break (before, cold, dir_bytes(&s.dir));
        }
        time_setups(&mut batches)?;
        let next = setup(args, times.len())?;
        let _ = std::fs::remove_dir_all(&s.dir);
        s = next;
    };
    let first = first.ok_or("no cold pass ran")?;
    let expected = csvs(&first);

    cache::clear_memo();
    let (warm, warm_time) = pass(report, "warm pass", &s).ok_or("warm pass failed")?;
    let after_warm = cache::stats();
    compare_cells(report, "warm re-read", &first, &warm);
    compare_csvs(report, "warm re-read", &expected, &csvs(&warm));
    if args.seed == DEFAULT_SEED {
        let committed = COMMITTED.map(|f| std::fs::read_to_string(f).unwrap_or_default());
        compare_csvs(report, "default seed vs committed", &committed, &expected);
    }

    // The cache is not used after the warm pass, so set-ups may repoint it.
    time_setups(&mut batches)?;
    report.metric("setup_s", median(&batches), batches.len() * SETUP_BATCH);
    let walls: Vec<f64> = times.iter().map(|t| t.wall).collect();
    report.metric("latency_p50_ms", median(&walls) * 1e3, walls.len());
    report.note(format!("cold passes (s): {walls:.3?}"));

    if args.trace {
        let traced = traced_pass(&s)?;
        compare_cells(report, "traced pass", &first, &traced.result);
        compare_csvs(report, "traced pass", &expected, &csvs(&traced.result));
        let l = &traced.layers;
        let capacity = traced.wall * WORKERS as f64;
        let untraced = &times[0];
        report.metric("workload.arrivals_s", secs(l.arrivals), 1);
        report.metric("workload.qos_s", secs(l.qos), 1);
        report.metric("workload.jobs", l.jobs as f64, 1);
        report.metric("soc.step_s", secs(l.step), 1);
        report.metric("soc.active_step_s", secs(l.step_active), 1);
        report.metric("soc.idle_step_s", secs(l.step_idle), 1);
        report.metric("soc.observe_s", secs(l.observe), 1);
        report.metric("governors.decide_s", secs(l.gov_decide), 1);
        report.metric("governors.decides", l.gov_decides as f64, 1);
        report.metric("rlpm.train_s", secs(l.rl_train), 1);
        report.metric("rlpm.decide_s", secs(l.rl_decide), 1);
        report.metric("rlpm.td_updates", l.td_updates as f64, 1);
        report.metric("experiments.runner.rest_s", secs(l.rest), 1);
        report.metric(
            "experiments.sched.busy_ratio",
            untraced.cpu / (untraced.wall * WORKERS as f64),
            1,
        );
        report.metric(
            "experiments.cache.hits",
            (after_warm.hits - before.hits) as f64,
            1,
        );
        report.metric(
            "experiments.cache.misses",
            (cold.misses - before.misses) as f64,
            1,
        );
        report.metric(
            "experiments.cache.stores",
            (cold.stores - before.stores) as f64,
            1,
        );
        report.metric("experiments.cache.bytes_stored", bytes_stored as f64, 1);
        report.metric("experiments.cache.warm_pass_s", warm_time.wall, 1);
        report.metric("trace.overhead_ratio", traced.wall / untraced.wall - 1.0, 1);
        report.metric(
            "trace.unattributed_ratio",
            1.0 - secs(l.covered()) / capacity,
            1,
        );
    }
    report.metric(
        "experiments.sched.retries",
        (experiments::retry_count() - retries_before) as f64,
        1,
    );
    // Single devices and no server.
    report.not_measured(&[
        "soc.batch.parked_ratio",
        "rlpm-serve.service.handle_ms",
        "rlpm-serve.json.codec_us",
        "rlpm-serve.server.transport_ms",
        "rlpm-serve.events_per_request",
    ]);
    cache::configure(None);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::TrainingProtocol;

    #[test]
    fn default_seed_gives_the_committed_matrix_seeds() {
        assert_eq!(e1_seeds(DEFAULT_SEED), E1Config::default().seeds);
        assert_eq!(e1_seeds(0), e1_seeds(1));
        let seeds = e1_seeds(7919);
        assert!(seeds.iter().all(|s| !E1Config::default().seeds.contains(s)));
    }

    #[test]
    fn checks_fail_on_corrupted_expectations() {
        let soc = SocConfig::odroid_xu3_like().expect("preset");
        let config = E1Config {
            scenarios: vec![ScenarioKind::Audio],
            policies: vec![
                PolicyKind::Baseline(governors::GovernorKind::Powersave),
                PolicyKind::Rl,
            ],
            seeds: vec![3],
            eval_secs: 2,
            training: TrainingProtocol {
                episodes: 2,
                episode_secs: 2,
            },
        };
        let result = run_e1(&soc, &config);
        let mut report = Report::new(false);
        compare_cells(&mut report, "same", &result, &result.clone());
        compare_csvs(&mut report, "same", &csvs(&result), &csvs(&result));
        assert!(report.correct());

        let mut corrupted = result.clone();
        corrupted.runs[1].metrics.transitions += 1;
        let mut report = Report::new(false);
        compare_cells(&mut report, "corrupted cell", &corrupted, &result);
        assert!(!report.correct());

        let mut expected = csvs(&result);
        expected[2].push(' ');
        let mut report = Report::new(false);
        compare_csvs(&mut report, "corrupted csv", &expected, &csvs(&result));
        assert!(!report.correct());
    }

    #[test]
    fn traced_cells_equal_run_e1_cells() {
        let soc = SocConfig::odroid_xu3_like().expect("preset");
        let config = E1Config {
            scenarios: vec![ScenarioKind::Video],
            policies: vec![
                PolicyKind::Baseline(governors::GovernorKind::Ondemand),
                PolicyKind::Rl,
            ],
            seeds: vec![5, 6],
            eval_secs: 3,
            training: TrainingProtocol {
                episodes: 2,
                episode_secs: 3,
            },
        };
        let s = Setup {
            soc: soc.clone(),
            config: config.clone(),
            dir: PathBuf::new(),
        };
        let traced = traced_pass(&s).expect("traced pass");
        let program = run_e1(&soc, &config);
        let mut report = Report::new(false);
        compare_cells(&mut report, "traced", &program, &traced.result);
        assert!(report.correct(), "{report:?}");
        assert!(traced.layers.td_updates > 0 && traced.layers.gov_decides > 0);
    }
}
