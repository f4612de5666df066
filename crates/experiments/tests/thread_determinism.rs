//! The experiment matrix must produce byte-identical results regardless
//! of how many worker threads `parallel_map` fans out over: parallelism
//! distributes *whole* runs, and the in-order merge of the per-worker
//! batches reassembles them exactly. Batched fleets must too, however
//! many shards `run_batch` splits their lanes into.

use std::sync::Mutex;

use experiments::e1_energy_per_qos::{run_e1, E1Config};
use experiments::e9_fault_resilience::default_base_rates;
use experiments::{
    cache, run_batch, run_with_faults, train_rl_governor, BatchLane, FaultHarness, RunConfig,
    RunMetrics, TrainingProtocol,
};
use governors::{Governor, GovernorKind};
use rlpm::RlGovernor;
use soc::{DeviceBatch, Soc, SocConfig};
use workload::ScenarioKind;

/// `RLPM_THREADS` and the cache are process-global; the tests in this
/// binary serialize on this lock.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs the quick E1 matrix under a fixed `RLPM_THREADS` setting and
/// renders everything comparable about it to a string.
fn matrix_fingerprint(threads: &str) -> String {
    // Callers hold ENV_LOCK: no other thread reads the variable
    // concurrently.
    std::env::set_var("RLPM_THREADS", threads);
    let soc = SocConfig::odroid_xu3_like().expect("preset is valid");
    let result = run_e1(&soc, &E1Config::quick());
    let mut out = String::new();
    out.push_str(&result.energy_per_qos_table().to_csv());
    out.push_str(&result.summary_table().to_csv());
    for run in &result.runs {
        out.push_str(&format!(
            "{}/{}/{} energy={:016x} qos_units={:016x} epochs={} transitions={}\n",
            run.scenario,
            run.policy,
            run.seed,
            run.metrics.energy_j.to_bits(),
            run.metrics.qos.units.to_bits(),
            run.metrics.epochs,
            run.metrics.transitions,
        ));
    }
    out
}

#[test]
fn e1_matrix_is_byte_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let single = matrix_fingerprint("1");
    let quad = matrix_fingerprint("4");
    std::env::remove_var("RLPM_THREADS");
    assert!(
        single == quad,
        "E1 results differ between RLPM_THREADS=1 and =4:\n{single}\nvs\n{quad}"
    );
    assert!(single.contains("video"), "sanity: matrix actually ran");
}

/// The same invariant with the cache on: a sequential cold run and a
/// parallel warm run (served from disk through the shared scheduler)
/// must render byte-identically.
#[test]
fn cached_e1_matrix_is_byte_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("rlpm-thread-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache::configure(Some(dir.clone()));
    let single_cold = matrix_fingerprint("1");
    cache::clear_memo();
    cache::reset_stats();
    let quad_warm = matrix_fingerprint("4");
    let warm_hits = cache::stats().hits;
    std::env::remove_var("RLPM_THREADS");
    cache::configure(None);
    cache::clear_memo();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(warm_hits > 0, "warm pass must be served from the cache");
    assert!(
        single_cold == quad_warm,
        "cached E1 differs between cold 1-thread and warm 4-thread runs:\n\
         {single_cold}\nvs\n{quad_warm}"
    );
}

/// The SoC of lane `i`: every third lane has cpuidle states, so a lane
/// stepped on another lane's SoC changes its bits.
fn lane_soc(i: usize) -> Soc {
    let cfg = if i % 3 == 1 {
        SocConfig::odroid_xu3_like_cstates()
    } else {
        SocConfig::odroid_xu3_like()
    };
    Soc::new(cfg.expect("preset is valid")).expect("valid config")
}

/// Lane `i` of an `n`-lane test fleet: scenarios and baselines cycle,
/// lane 3 runs a clone of the trained `rl` policy, and lane `n - 2`
/// carries a fault harness at nonzero rates.
fn fleet_lane(i: usize, n: usize, cfg: &SocConfig, rl: &RlGovernor) -> BatchLane {
    const SCENARIOS: [ScenarioKind; 6] = [
        ScenarioKind::Standby,
        ScenarioKind::Idle,
        ScenarioKind::Video,
        ScenarioKind::Mixed,
        ScenarioKind::Audio,
        ScenarioKind::Web,
    ];
    const BASELINES: [GovernorKind; 5] = [
        GovernorKind::Ondemand,
        GovernorKind::Schedutil,
        GovernorKind::Powersave,
        GovernorKind::Interactive,
        GovernorKind::Conservative,
    ];
    BatchLane {
        scenario: SCENARIOS[i % SCENARIOS.len()].build(900 + i as u64),
        governor: if i == 3 {
            Box::new(rl.clone())
        } else {
            BASELINES[i % BASELINES.len()].build(cfg)
        },
        faults: (i == n - 2).then(|| {
            FaultHarness::new(cfg, 0xFA17 + i as u64, default_base_rates()).expect("valid rates")
        }),
    }
}

/// Bitwise rendering of a lane's metrics (f64 `Debug` round-trips).
fn bits(m: &RunMetrics) -> String {
    format!("{m:?}")
}

#[test]
fn fleets_are_bit_identical_at_every_shard_count() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SocConfig::odroid_xu3_like().expect("preset is valid");
    let mut rl = train_rl_governor(&cfg, ScenarioKind::Mixed, TrainingProtocol::quick(), 5);
    rl.set_frozen(true);
    rl.reset();
    for (n, secs) in [(7usize, 2u64), (64, 1)] {
        let config = RunConfig::seconds(secs);
        let looped: Vec<RunMetrics> = (0..n)
            .map(|i| {
                let mut lane = fleet_lane(i, n, &cfg, &rl);
                let mut soc = lane_soc(i);
                run_with_faults(
                    &mut soc,
                    lane.scenario.as_mut(),
                    lane.governor.as_mut(),
                    config,
                    lane.faults.as_mut(),
                )
            })
            .collect();
        assert!(
            looped[n - 2].fault_counts.total() > 0,
            "faults were injected"
        );
        // 1 to 4 shards, which includes uneven splits (7 lanes in 2, 3
        // and 4 shards; 64 in 3).
        for threads in ["1", "2", "3", "4"] {
            // Callers hold ENV_LOCK: no other thread reads the variable
            // concurrently.
            std::env::set_var("RLPM_THREADS", threads);
            let mut batch = DeviceBatch::new((0..n).map(lane_soc).collect()).expect("one grid");
            let mut lanes: Vec<BatchLane> = (0..n).map(|i| fleet_lane(i, n, &cfg, &rl)).collect();
            let batched = run_batch(&mut batch, &mut lanes, config);
            assert_eq!(batch.len(), n, "the batch holds every lane again");
            assert_eq!(batched.len(), n);
            for (i, (b, l)) in batched.iter().zip(&looped).enumerate() {
                assert!(
                    bits(b) == bits(l),
                    "fleet of {n} at RLPM_THREADS={threads}: lane {i} differs from \
                     its looped run:\n{b:?}\nvs\n{l:?}"
                );
            }
        }
    }
    std::env::remove_var("RLPM_THREADS");
}
