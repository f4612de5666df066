//! Closed-loop differential fuzzing of the simulator's fast paths.
//!
//! Each case draws a random valid run — any catalog scenario (standby
//! included) with a drawn seed, one of the six baseline governors, the
//! xu3, xu3-cstates or symmetric-quad preset, 1 to 5 simulated seconds —
//! and runs it twice through [`experiments::run`]: on the fast paths
//! (dispatch-horizon spans, the busy kernel, the steady kernel's idle runs
//! and epoch tails) and on the stepped reference
//! (`set_idle_fast_forward(false)`), which advances every cluster one
//! sub-step at a time. The two runs' metrics, and the SoCs they leave,
//! must render identically in `Debug` — bit for bit, since `f64`'s
//! `Debug` round-trips. A failure names the drawn run, which replays on
//! its own.

use experiments::{run, RunConfig};
use governors::GovernorKind;
use proptest::prelude::*;
use soc::{Soc, SocConfig};
use workload::ScenarioKind;

/// The catalog: the evaluation matrix's scenarios and standby.
fn scenario(i: usize) -> ScenarioKind {
    ScenarioKind::ALL
        .get(i)
        .copied()
        .unwrap_or(ScenarioKind::Standby)
}

fn preset(i: usize) -> SocConfig {
    match i {
        0 => SocConfig::odroid_xu3_like(),
        1 => SocConfig::odroid_xu3_like_cstates(),
        _ => SocConfig::symmetric_quad(),
    }
    .expect("presets are valid")
}

/// One run of the drawn case on the fast paths or the stepped reference:
/// its metrics and the clusters it leaves, rendered.
fn render(
    kind: ScenarioKind,
    gov: GovernorKind,
    config: &SocConfig,
    secs: u64,
    seed: u64,
    fast: bool,
) -> String {
    let mut soc = Soc::new(config.clone()).expect("presets are valid");
    soc.set_idle_fast_forward(fast);
    let metrics = run(
        &mut soc,
        kind.build(seed).as_mut(),
        gov.build(config).as_mut(),
        RunConfig::seconds(secs),
    );
    format!(
        "{metrics:?}\nnow={} energy={:016x} {:?}",
        soc.now().as_nanos(),
        soc.total_energy_j().to_bits(),
        soc.clusters()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_fast_paths_match_the_stepped_reference(
        scenario_i in 0usize..ScenarioKind::ALL.len() + 1,
        governor_i in 0usize..GovernorKind::SIX_BASELINES.len(),
        preset_i in 0usize..3,
        secs in 1u64..6,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let kind = scenario(scenario_i);
        let gov = GovernorKind::SIX_BASELINES[governor_i];
        let config = preset(preset_i);
        let fast = render(kind, gov, &config, secs, seed, true);
        let stepped = render(kind, gov, &config, secs, seed, false);
        prop_assert!(
            fast == stepped,
            "{kind} under {gov:?} on preset {preset_i}, {secs} s, seed {seed}:\n\
             fast:    {fast}\nstepped: {stepped}"
        );
    }
}
