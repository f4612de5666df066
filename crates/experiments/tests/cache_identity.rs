//! The content-addressed cache must be invisible except for speed:
//! a warm run (every cell served from disk) must be byte-identical to a
//! cold run, and both must be byte-identical to a run with the cache
//! disabled. Same discipline as `golden_bits` — floats are compared by
//! bit pattern, not approximately.

use std::path::PathBuf;
use std::sync::Mutex;

use experiments::ablations::{a1_state_features, AblationConfig};
use experiments::e1_energy_per_qos::{run_e1, E1Config};
use experiments::e2_learning_curve::{run_e2, E2Config};
use experiments::e3_adaptivity::{run_e3, E3Config};
use experiments::e8_idle_states::{run_e8, E8Config};
use experiments::e9_fault_resilience::{run_e9, E9Config};
use experiments::{cache, PolicyKind, TrainingProtocol};
use soc::SocConfig;

/// The cache is process-global state; tests in this binary serialize on
/// this lock so one test's directory never leaks into another's run.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rlpm-cache-identity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders the quick E1 matrix to a bit-exact string.
fn e1_fingerprint(soc: &SocConfig) -> String {
    let result = run_e1(soc, &E1Config::quick());
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
fn e1_cold_warm_and_uncached_runs_are_byte_identical() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soc = SocConfig::odroid_xu3_like().expect("preset is valid");

    cache::configure(None);
    let uncached = e1_fingerprint(&soc);

    let dir = scratch_dir("e1");
    cache::configure(Some(dir.clone()));
    cache::reset_stats();
    let cold = e1_fingerprint(&soc);
    let cold_stats = cache::stats();
    assert!(cold_stats.misses > 0, "cold run must compute cells");
    assert!(cold_stats.stores > 0, "cold run must persist entries");
    assert_eq!(cold_stats.store_failures, 0);

    // Warm: clear the in-memory memo so every cell goes through the
    // on-disk envelope decode path.
    cache::clear_memo();
    cache::reset_stats();
    let warm = e1_fingerprint(&soc);
    let warm_stats = cache::stats();
    cache::configure(None);
    cache::clear_memo();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(warm_stats.hits > 0, "warm run must be served from disk");
    assert_eq!(warm_stats.misses, 0, "warm run must not recompute");
    assert!(cold == warm, "cold vs warm differ:\n{cold}\nvs\n{warm}");
    assert!(
        cold == uncached,
        "cached vs uncached differ:\n{cold}\nvs\n{uncached}"
    );
    assert!(cold.contains("video"), "sanity: matrix actually ran");
}

/// Quick E1 on the `xu3` preset writes exactly these entries into an
/// empty cache directory (`regen-tables --quick --cache-dir <dir> e1`
/// writes the same). Keys hash a length-prefixed encoding that includes
/// `Debug`-rendered configs, so a drift in the encoding or in a keyed
/// config's `Debug` output would silently leave every existing cache
/// cold; this pins both.
#[test]
fn quick_e1_writes_the_golden_entry_names() {
    const GOLDEN: [&str; 16] = [
        "cell-063c0406149ef3ed.bin",
        "cell-0de8e2cc4747c5c9.bin",
        "cell-34b3833064fbc1a6.bin",
        "cell-3f533ef965b233f9.bin",
        "cell-57aedfe0d2a4203e.bin",
        "cell-7346c67f32aeacd7.bin",
        "cell-799cf5c8a08296c9.bin",
        "cell-85a3cf4aa938f87d.bin",
        "cell-90801fbb09fae3a3.bin",
        "cell-a555ca69ecea5351.bin",
        "cell-a7e58071022660e2.bin",
        "cell-c79002d06c5bffe5.bin",
        "cell-f030de35385dfdcd.bin",
        "cell-fc7a01ab0a0dbae2.bin",
        "qtbl-4710a097ea64fe85.bin",
        "qtbl-5975a224d3e37965.bin",
    ];
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soc = SocConfig::odroid_xu3_like().expect("preset is valid");
    let dir = scratch_dir("golden-keys");
    cache::configure(Some(dir.clone()));
    // An entry another test left in the memo would be answered from it
    // and never written.
    cache::clear_memo();
    let _ = run_e1(&soc, &E1Config::quick());
    cache::configure(None);
    cache::clear_memo();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("the run wrote its entries")
        .filter_map(Result::ok)
        .filter(|entry| entry.path().is_file())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(names, GOLDEN);
}

#[test]
fn full_experiment_suite_is_identical_cold_and_warm() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soc = SocConfig::odroid_xu3_like().expect("preset is valid");
    // Debug formatting prints floats in shortest round-trip form, which
    // is injective per bit pattern, so string equality is bit equality.
    let run_all = |soc: &SocConfig| {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
            run_e2(soc, &E2Config::quick()),
            run_e3(soc, &E3Config::quick()),
            run_e8(&E8Config::quick()),
            run_e9(soc, &E9Config::quick()),
            a1_state_features(soc, &AblationConfig::quick()),
        )
    };

    let dir = scratch_dir("suite");
    cache::configure(Some(dir.clone()));
    cache::reset_stats();
    let cold = run_all(&soc);
    cache::clear_memo();
    cache::reset_stats();
    let warm = run_all(&soc);
    let warm_stats = cache::stats();
    cache::configure(None);
    cache::clear_memo();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(warm_stats.hits > 0);
    assert_eq!(warm_stats.misses, 0);
    assert!(cold == warm, "suite cold vs warm differ");
}

#[test]
fn restored_policy_reproduces_direct_training_bitwise() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soc = SocConfig::odroid_xu3_like().expect("preset is valid");
    let scenario = workload::ScenarioKind::Video;
    let training = TrainingProtocol::quick();
    let seed: u64 = 11;

    let evaluate = |governor: &mut dyn governors::Governor| {
        let mut soc_inst = soc::Soc::new(soc.clone()).expect("preset is valid");
        let mut scenario_inst = scenario.build(seed.wrapping_mul(3).wrapping_add(7));
        let metrics = experiments::run(
            &mut soc_inst,
            scenario_inst.as_mut(),
            governor,
            experiments::RunConfig::seconds(10),
        );
        (
            metrics.energy_j.to_bits(),
            metrics.qos.units.to_bits(),
            metrics.transitions,
        )
    };

    let dir = scratch_dir("qtbl");
    cache::configure(Some(dir.clone()));
    // First build trains and stores the Q-table.
    let mut direct = PolicyKind::Rl.build_trained(&soc, scenario, training, seed);
    // Second build (memo cleared) restores the table from disk.
    cache::clear_memo();
    cache::reset_stats();
    let mut restored = PolicyKind::Rl.build_trained(&soc, scenario, training, seed);
    let stats = cache::stats();
    cache::configure(None);
    cache::clear_memo();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(stats.hits > 0, "second build must load the stored table");
    assert_eq!(
        evaluate(direct.as_mut()),
        evaluate(restored.as_mut()),
        "restored frozen policy must decide identically to the directly trained one"
    );
}
