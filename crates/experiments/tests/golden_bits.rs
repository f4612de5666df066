//! Golden-output pin: raw IEEE-754 bit patterns of a mini evaluation
//! matrix, locked against `tests/golden_bits.txt`.
//!
//! The hot-path optimisations (allocation-free substep loop, idle
//! fast-forward, memoised power evaluation) claim **bit-identical**
//! simulator output. The published tables round to a few decimals, so
//! they could hide a tiny float drift; this test cannot. It runs a small
//! deterministic matrix — both SoC presets, busy and idle-heavy
//! scenarios, every evaluation policy — and compares every metric's exact
//! bit pattern against the checked-in golden file, which was generated
//! with the straightforward pre-optimisation simulator.
//!
//! Regenerate (only when simulator *semantics* intentionally change):
//!
//! ```text
//! RLPM_UPDATE_GOLDEN=1 cargo test -p experiments --test golden_bits
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

use experiments::e9_fault_resilience::default_base_rates;
use experiments::{
    run, run_batch, run_with_faults, train_rl_governor, BatchLane, FaultHarness, PolicyKind,
    RunConfig, RunMetrics, TrainingProtocol,
};
use governors::{Governor, GovernorKind};
use proptest::prelude::*;
use soc::{DeviceBatch, Soc, SocConfig};
use workload::ScenarioKind;

/// One golden line per run: every float as `to_bits()` hex, integers raw.
fn render_line(
    soc_name: &str,
    scenario: ScenarioKind,
    policy: PolicyKind,
    m: &RunMetrics,
) -> String {
    let mut line = format!("{soc_name}/{}/{}", scenario.name(), policy.name());
    let floats: &[(&str, f64)] = &[
        ("energy_j", m.energy_j),
        ("energy_per_qos", m.energy_per_qos),
        ("avg_power_w", m.avg_power_w),
        ("qos_units", m.qos.units),
        ("qos_strict", m.qos.strict_units),
        ("qos_max", m.qos.max_units),
        ("idle_gated", m.idle_gated_core_s),
        ("idle_collapsed", m.idle_collapsed_core_s),
    ];
    for (name, v) in floats {
        write!(line, " {name}={:016x}", v.to_bits()).expect("write to String");
    }
    for (c, frac) in m.mean_level_frac.iter().enumerate() {
        write!(line, " lvl{c}={:016x}", frac.to_bits()).expect("write to String");
    }
    write!(
        line,
        " completed={} on_time={} late={} violations={} transitions={} epochs={} jobs={}",
        m.qos.completed,
        m.qos.on_time,
        m.qos.late,
        m.qos.violations,
        m.transitions,
        m.epochs,
        m.jobs_submitted,
    )
    .expect("write to String");
    line
}

fn render_matrix() -> String {
    let plain = SocConfig::odroid_xu3_like().expect("preset is valid");
    let cstates = SocConfig::odroid_xu3_like_cstates().expect("preset is valid");
    let training = TrainingProtocol::quick();
    let seed = 11u64;

    // Plain SoC: full policy set over a busy, a periodic-gap and an
    // idle-heavy scenario (the latter two are exactly where the idle
    // fast-forward engages). C-state SoC: a reduced set that still covers
    // baseline + RL with the cpuidle depth machinery active.
    let cells: Vec<(&str, &SocConfig, Vec<ScenarioKind>, Vec<PolicyKind>)> = vec![
        (
            "plain",
            &plain,
            vec![ScenarioKind::Video, ScenarioKind::Audio, ScenarioKind::Idle],
            PolicyKind::evaluation_set(),
        ),
        (
            "cstates",
            &cstates,
            vec![ScenarioKind::Audio, ScenarioKind::Idle],
            vec![
                PolicyKind::Baseline(GovernorKind::Performance),
                PolicyKind::Baseline(GovernorKind::Powersave),
                PolicyKind::Baseline(GovernorKind::Schedutil),
                PolicyKind::Rl,
            ],
        ),
    ];

    let mut out =
        String::from("# golden bit patterns: mini matrix, seed 11, eval 10 s, quick training\n");
    for (soc_name, soc_config, scenarios, policies) in cells {
        for &scenario in &scenarios {
            for &policy in &policies {
                let mut soc = Soc::new(soc_config.clone()).expect("validated config");
                let mut governor = policy.build_trained(soc_config, scenario, training, seed);
                let mut scenario_inst =
                    scenario.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
                let metrics = run(
                    &mut soc,
                    scenario_inst.as_mut(),
                    governor.as_mut(),
                    RunConfig::seconds(10),
                );
                out.push_str(&render_line(soc_name, scenario, policy, &metrics));
                out.push('\n');
            }
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_bits.txt")
}

// --- Batched fleet: batch-vs-looped bit-identity --------------------------
//
// The batched engine (`DeviceBatch` + `run_batch`) claims the same
// bit-identity property the single-device optimisations do: lane `i` of a
// batched fleet must produce *exactly* the metrics of running that lane
// alone. The tests below check the claim at several lane counts (including
// the 256 lanes the sim-rate bench measures), over a mixed fleet that
// exercises every interesting lane shape: deep standby (parks for the whole
// run), idle with sync/notification wake-ups (parks and unparks), busy
// scenarios (never parks), and trained RL policies.

/// The scenario lane `i` of a fleet runs, cycling a mixed table.
fn fleet_scenario(i: usize) -> ScenarioKind {
    const CYCLE: [ScenarioKind; 8] = [
        ScenarioKind::Standby,
        ScenarioKind::Idle,
        ScenarioKind::Video,
        ScenarioKind::Audio,
        ScenarioKind::Mixed,
        ScenarioKind::Standby,
        ScenarioKind::Web,
        ScenarioKind::Idle,
    ];
    CYCLE[i % CYCLE.len()]
}

/// The policy lane `i` runs. Every 64th lane (offset 4, which
/// [`fleet_scenario`] maps to `Mixed`) carries a trained RL policy; the
/// rest cycle the baseline governors.
fn fleet_policy(i: usize) -> PolicyKind {
    if i % 64 == 4 {
        return PolicyKind::Rl;
    }
    const CYCLE: [GovernorKind; 5] = [
        GovernorKind::Ondemand,
        GovernorKind::Powersave,
        GovernorKind::Schedutil,
        GovernorKind::Interactive,
        GovernorKind::Performance,
    ];
    PolicyKind::Baseline(CYCLE[i % CYCLE.len()])
}

fn fleet_seed(i: usize) -> u64 {
    600 + i as u64
}

/// Fresh scenario + governor instances for lane `i`, identical whether the
/// lane runs alone or inside a batch.
fn build_fleet_lane(i: usize, cfg: &SocConfig, training: TrainingProtocol) -> BatchLane {
    let scenario = fleet_scenario(i);
    let seed = fleet_seed(i);
    BatchLane {
        scenario: scenario.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1)),
        governor: fleet_policy(i).build_trained(cfg, scenario, training, seed),
        faults: None,
    }
}

fn run_fleet_batched(n: usize, cfg: &SocConfig, config: RunConfig) -> Vec<RunMetrics> {
    let socs: Vec<Soc> = (0..n)
        .map(|_| Soc::new(cfg.clone()).expect("validated config"))
        .collect();
    let mut batch = DeviceBatch::new(socs).expect("uniform fleet");
    let mut lanes: Vec<BatchLane> = (0..n)
        .map(|i| build_fleet_lane(i, cfg, TrainingProtocol::quick()))
        .collect();
    run_batch(&mut batch, &mut lanes, config)
}

#[test]
fn batched_fleets_match_looped_runs_at_every_lane_count() {
    let cfg = SocConfig::odroid_xu3_like().expect("preset is valid");
    for n in [1usize, 7, 64, 256] {
        // Shorter window at 256 lanes to keep debug-mode test time sane;
        // one second still spans the idle scenario's sync wake-ups, so
        // lanes park *and* unpark inside the measured window.
        let config = RunConfig::seconds(if n >= 256 { 1 } else { 2 });
        let batched = run_fleet_batched(n, &cfg, config);
        assert_eq!(batched.len(), n);
        for (i, b) in batched.iter().enumerate() {
            let mut lane = build_fleet_lane(i, &cfg, TrainingProtocol::quick());
            let mut soc = Soc::new(cfg.clone()).expect("validated config");
            let looped = run(
                &mut soc,
                lane.scenario.as_mut(),
                lane.governor.as_mut(),
                config,
            );
            assert_eq!(
                b.energy_j.to_bits(),
                looped.energy_j.to_bits(),
                "fleet of {n}: lane {i} ({}/{}) energy diverged",
                fleet_scenario(i).name(),
                fleet_policy(i).name(),
            );
            assert_eq!(b, &looped, "fleet of {n}: lane {i} metrics diverged");
        }
    }
}

/// Pins the batched fleet's raw bit patterns against
/// `tests/golden_fleet_bits.txt` — the equivalence test above cannot catch
/// the looped and batched paths drifting *together*, this can. 64 lanes
/// covers one full RL lane plus every scenario/baseline combination in the
/// cycle tables.
#[test]
fn fleet_matrix_is_bit_identical_to_golden() {
    let cfg = SocConfig::odroid_xu3_like().expect("preset is valid");
    let metrics = run_fleet_batched(64, &cfg, RunConfig::seconds(2));
    let mut rendered =
        String::from("# golden fleet bit patterns: 64 batched lanes, 2 s, quick training\n");
    for (i, m) in metrics.iter().enumerate() {
        let label = format!("lane{i:03}");
        rendered.push_str(&render_line(&label, fleet_scenario(i), fleet_policy(i), m));
        rendered.push('\n');
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_fleet_bits.txt");
    if std::env::var_os("RLPM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("golden file updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("missing tests/golden_fleet_bits.txt; generate with RLPM_UPDATE_GOLDEN=1");
    if rendered != golden {
        let mut diff = String::new();
        for (ours, theirs) in rendered.lines().zip(golden.lines()) {
            if ours != theirs {
                let _ = writeln!(diff, "-{theirs}\n+{ours}");
            }
        }
        panic!(
            "batched fleet output drifted from golden bit patterns (the batch \
             engine must stay bit-exact):\n{diff}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Lane order is immaterial: permuting which slot of the batch a
    /// device occupies permutes the metrics and changes nothing else.
    /// This is the structural property the whole batch engine rests on
    /// (lanes are independent, so parked-lane compaction is free to
    /// reorder work), checked directly.
    #[test]
    fn prop_lane_permutation_only_permutes_metrics(perm_seed in 0u64..10_000) {
        let cfg = SocConfig::odroid_xu3_like().expect("preset is valid");
        let n = 10usize;
        let config = RunConfig::seconds(1);

        // Fisher-Yates from a seeded stream: deterministic per case.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = simkit::SimRng::seed_from(perm_seed);
        for i in (1..n).rev() {
            perm.swap(i, rng.uniform_usize(i + 1));
        }

        let base = run_fleet_batched(n, &cfg, config);

        let socs: Vec<Soc> = (0..n).map(|_| Soc::new(cfg.clone()).expect("valid")).collect();
        let mut batch = DeviceBatch::new(socs).expect("uniform fleet");
        let mut lanes: Vec<BatchLane> = perm
            .iter()
            .map(|&src| build_fleet_lane(src, &cfg, TrainingProtocol::quick()))
            .collect();
        let permuted = run_batch(&mut batch, &mut lanes, config);

        for (slot, &src) in perm.iter().enumerate() {
            prop_assert_eq!(
                &permuted[slot],
                &base[src],
                "slot {} (fleet lane {}) diverged under permutation",
                slot,
                src
            );
        }
    }
}

// Random lane mixes. The fleets above pin chosen lane shapes; the
// property below draws them: any scenario (standby included), a random
// baseline or a clone of one shared frozen RL policy, either SoC preset,
// about a quarter of lanes under a fault harness, and some traced runs.

/// One frozen RL policy per SoC preset (`cstates` picks which), trained
/// once per test process; lanes that draw RL get clones of it.
fn shared_rl(cfg: &SocConfig, cstates: bool) -> rlpm::RlGovernor {
    static POLICIES: [OnceLock<rlpm::RlGovernor>; 2] = [OnceLock::new(), OnceLock::new()];
    POLICIES[usize::from(cstates)]
        .get_or_init(|| {
            let mut policy =
                train_rl_governor(cfg, ScenarioKind::Mixed, TrainingProtocol::quick(), 5);
            policy.set_frozen(true);
            policy.reset();
            policy
        })
        .clone()
}

/// One drawn lane, kept so the same lane can be built twice: once for
/// the batch and once to run alone.
#[derive(Debug, Clone, Copy)]
struct MixLane {
    scenario: ScenarioKind,
    /// The lane's baseline; `None` is the shared RL policy.
    baseline: Option<GovernorKind>,
    seed: u64,
    fault_seed: Option<u64>,
}

impl MixLane {
    fn draw(rng: &mut simkit::SimRng) -> MixLane {
        let scenarios = ScenarioKind::ALL.len();
        let baselines = GovernorKind::SIX_BASELINES.len();
        let scenario = rng.uniform_usize(scenarios + 1);
        let policy = rng.uniform_usize(baselines + 1);
        MixLane {
            scenario: ScenarioKind::ALL
                .get(scenario)
                .copied()
                .unwrap_or(ScenarioKind::Standby),
            baseline: GovernorKind::SIX_BASELINES.get(policy).copied(),
            seed: rng.next_u64(),
            fault_seed: rng.chance(0.25).then(|| rng.next_u64()),
        }
    }

    fn build(&self, cfg: &SocConfig, rl: &rlpm::RlGovernor) -> BatchLane {
        BatchLane {
            scenario: self.scenario.build(self.seed),
            governor: match self.baseline {
                Some(kind) => kind.build(cfg),
                None => Box::new(rl.clone()),
            },
            faults: self.fault_seed.map(|seed| {
                FaultHarness::new(cfg, seed, default_base_rates()).expect("default rates are valid")
            }),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A batch of randomly mixed lanes reports, lane for lane, exactly
    /// what each lane run alone through `run_with_faults` reports, trace
    /// included (compared as `Debug` renderings, which print every float
    /// by its exact bits).
    #[test]
    fn prop_random_lane_mixes_match_looped_runs(case_seed in any::<u64>()) {
        let mut rng = simkit::SimRng::seed_from(case_seed);
        let cstates = rng.chance(0.5);
        let cfg = if cstates {
            SocConfig::odroid_xu3_like_cstates()
        } else {
            SocConfig::odroid_xu3_like()
        }
        .expect("preset is valid");
        let rl = shared_rl(&cfg, cstates);
        let mut config = RunConfig::seconds(1 + rng.uniform_usize(2) as u64);
        if rng.chance(0.3) {
            config = config.with_trace();
        }
        let mix: Vec<MixLane> = (0..1 + rng.uniform_usize(12))
            .map(|_| MixLane::draw(&mut rng))
            .collect();

        let socs: Vec<Soc> = mix.iter().map(|_| Soc::new(cfg.clone()).expect("valid")).collect();
        let mut batch = DeviceBatch::new(socs).expect("uniform fleet");
        let mut lanes: Vec<BatchLane> = mix.iter().map(|lane| lane.build(&cfg, &rl)).collect();
        let batched = run_batch(&mut batch, &mut lanes, config);

        prop_assert_eq!(batched.len(), mix.len());
        for (i, (lane, b)) in mix.iter().zip(&batched).enumerate() {
            let mut alone = lane.build(&cfg, &rl);
            let mut soc = Soc::new(cfg.clone()).expect("valid");
            let looped = run_with_faults(
                &mut soc,
                alone.scenario.as_mut(),
                alone.governor.as_mut(),
                config,
                alone.faults.as_mut(),
            );
            prop_assert_eq!(
                format!("{b:?}"),
                format!("{looped:?}"),
                "lane {} ({:?}) of a {}-lane mix, cstates {}, {:?}",
                i,
                lane,
                mix.len(),
                cstates,
                config
            );
        }
    }
}

#[test]
fn mini_matrix_is_bit_identical_to_golden() {
    let rendered = render_matrix();
    let path = golden_path();
    if std::env::var_os("RLPM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("golden file updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("missing tests/golden_bits.txt; generate with RLPM_UPDATE_GOLDEN=1");
    if rendered != golden {
        let mut diff = String::new();
        for (ours, theirs) in rendered.lines().zip(golden.lines()) {
            if ours != theirs {
                let _ = writeln!(diff, "-{theirs}\n+{ours}");
            }
        }
        panic!(
            "simulator output drifted from golden bit patterns (this means an \
             optimisation changed results — it must be bit-exact):\n{diff}"
        );
    }
}
