//! The fast paths must be invisible: a SoC advanced with them enabled —
//! each cluster running from one dispatch to the next on its own, busy
//! sub-steps through the hoisted kernel, quiescent ones through the idle
//! fast-forward — must be **bit-identical**, in every report field and
//! every cluster's internal state, to one stepped sub-step by sub-step
//! through the reference (`set_idle_fast_forward(false)`).
//!
//! The property tests drive both SoCs through the same randomized
//! schedule: sparse arrivals (gaps from sub-epoch to many epochs, which is
//! what makes the idle fast-forward fire), a burst of small jobs at
//! different sub-steps of one epoch (several dispatches per epoch and
//! several completions per sub-step), random per-epoch levels (the
//! transition stall on busy cores), both cpuidle configurations (the wake
//! stall), a big cluster whose thermal clamp can trip within a few busy
//! sub-steps, and a hotplug before a random epoch. The deterministic
//! test pins each of those cases in one schedule and checks that it was
//! reached.

use proptest::prelude::*;
use simkit::SimTime;
use soc::{EpochReport, Job, JobClass, LevelRequest, Soc, SocConfig, ThermalModel};

/// One randomized closed-loop schedule.
#[derive(Debug, Clone)]
struct Plan {
    cstates: bool,
    /// Gives the big cluster a thermal node that trips after a few dozen
    /// busy sub-steps at the top levels.
    hot: bool,
    /// (arrival µs, work in ref-instructions, class selector).
    jobs: Vec<(u64, u64, u8)>,
    /// Per-epoch (little, big) levels.
    levels: Vec<(usize, usize)>,
    /// (epoch, cluster, online cores): hotplug applied before that epoch.
    hotplug: Option<(usize, usize, usize)>,
}

impl Plan {
    /// Adds small jobs arriving `offsets_us` into epoch `epoch`.
    fn with_burst(mut self, epoch: u64, offsets_us: Vec<u64>, works: Vec<u64>) -> Self {
        let start_us = epoch * 20_000;
        self.jobs.extend(
            offsets_us
                .into_iter()
                .zip(works)
                .enumerate()
                .map(|(i, (offset, work))| (start_us + offset, work, (i % 3) as u8)),
        );
        self
    }
}

fn make_plan(
    cstates: bool,
    arrivals_ms: Vec<u64>,
    works: Vec<u64>,
    classes: Vec<u8>,
    little: Vec<usize>,
    big: Vec<usize>,
) -> Plan {
    Plan {
        cstates,
        hot: false,
        jobs: arrivals_ms
            .into_iter()
            .zip(works)
            .zip(classes)
            .map(|((at, work), class)| (at * 1_000, work, class))
            .collect(),
        levels: little.into_iter().zip(big).collect(),
        hotplug: None,
    }
}

fn build_soc(plan: &Plan) -> Soc {
    let mut config = if plan.cstates {
        SocConfig::odroid_xu3_like_cstates()
    } else {
        SocConfig::odroid_xu3_like()
    }
    .expect("preset is valid");
    if plan.hot {
        // τ = 0.12 s: from ambient, a busy top level reaches the trip
        // point in about two epochs; idle at a low level it cools back
        // below the release point.
        config.clusters[1].thermal = ThermalModel::new(12.0, 0.01, 25.0, 35.0, 30.0, 4);
    }
    Soc::new(config).expect("preset builds")
}

/// Runs the plan with the fast paths on or off and returns the SoC and
/// every epoch's report.
fn run_plan(plan: &Plan, fast_forward: bool) -> (Soc, Vec<EpochReport>) {
    let mut soc = build_soc(plan);
    soc.set_idle_fast_forward(fast_forward);
    for (i, &(at_us, work, class)) in plan.jobs.iter().enumerate() {
        let class = match class {
            0 => JobClass::Light,
            1 => JobClass::Normal,
            _ => JobClass::Heavy,
        };
        let at = SimTime::from_micros(at_us);
        soc.schedule_job(at, Job::new(i as u64, work, at + soc.config().epoch, class));
    }
    let mut reports = Vec::with_capacity(plan.levels.len());
    for (epoch, &(little, big)) in plan.levels.iter().enumerate() {
        if let Some((at, cluster, online)) = plan.hotplug {
            if at == epoch {
                soc.set_cores_online(cluster, online)
                    .expect("hotplug drawn in range");
            }
        }
        let report = soc
            .run_epoch(&LevelRequest::new(vec![little, big]))
            .expect("levels drawn in range");
        reports.push(report);
    }
    (soc, reports)
}

/// Asserts the fast and stepped runs of `plan` agree on every observable
/// *and* every internal field (`Cluster`'s `PartialEq` spans cores,
/// queues, thermal state and accumulators; its memo caches are excluded
/// by design — they are the only allowed divergence), and returns the
/// stepped run's reports.
fn assert_paths_agree(plan: &Plan) -> Vec<EpochReport> {
    let (fast, fast_reports) = run_plan(plan, true);
    let (slow, slow_reports) = run_plan(plan, false);
    assert_eq!(fast.now(), slow.now(), "{plan:?}");
    assert_eq!(
        fast.total_energy_j().to_bits(),
        slow.total_energy_j().to_bits(),
        "{plan:?}"
    );
    assert_eq!(fast.clusters(), slow.clusters(), "{plan:?}");
    assert_eq!(fast.pending_arrivals(), slow.pending_arrivals(), "{plan:?}");
    assert_eq!(fast_reports, slow_reports, "{plan:?}");
    slow_reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast and stepped runs end in the same state, bit for bit.
    #[test]
    fn prop_fast_forward_is_bit_identical(
        cstates in proptest::arbitrary::any::<bool>(),
        arrivals_ms in proptest::collection::vec(0u64..1200, 0..10),
        works in proptest::collection::vec(10_000u64..30_000_000, 10),
        classes in proptest::collection::vec(0u8..3, 10),
        little in proptest::collection::vec(0usize..13, 1..40),
        big in proptest::collection::vec(0usize..19, 40),
        hot in proptest::arbitrary::any::<bool>(),
        burst_epoch in 0u64..40,
        burst_us in proptest::collection::vec(0u64..20_000, 0..8),
        burst_works in proptest::collection::vec(20_000u64..600_000, 8),
        hotplug_epoch in 0usize..40,
        hotplug_cluster in 0usize..2,
        hotplug_online in 1usize..5,
    ) {
        let mut plan = make_plan(cstates, arrivals_ms, works, classes, little, big)
            .with_burst(burst_epoch, burst_us, burst_works);
        plan.hot = hot;
        plan.hotplug = Some((hotplug_epoch, hotplug_cluster, hotplug_online));
        let (fast, _) = run_plan(&plan, true);
        let (slow, _) = run_plan(&plan, false);
        prop_assert_eq!(fast.now(), slow.now());
        prop_assert_eq!(fast.total_energy_j().to_bits(), slow.total_energy_j().to_bits());
        prop_assert_eq!(fast.clusters(), slow.clusters());
        prop_assert_eq!(fast.pending_arrivals(), slow.pending_arrivals());
    }

    /// Same property through the report surface: per-epoch reports (and
    /// therefore everything governors and metrics are built from) match
    /// exactly, epoch by epoch.
    #[test]
    fn prop_per_epoch_reports_match(
        cstates in proptest::arbitrary::any::<bool>(),
        arrivals_ms in proptest::collection::vec(0u64..1200, 0..10),
        works in proptest::collection::vec(10_000u64..30_000_000, 10),
        classes in proptest::collection::vec(0u8..3, 10),
        little in proptest::collection::vec(0usize..13, 1..40),
        big in proptest::collection::vec(0usize..19, 40),
        hot in proptest::arbitrary::any::<bool>(),
        burst_epoch in 0u64..40,
        burst_us in proptest::collection::vec(0u64..20_000, 0..8),
        burst_works in proptest::collection::vec(20_000u64..600_000, 8),
        hotplug_epoch in 0usize..40,
        hotplug_cluster in 0usize..2,
        hotplug_online in 1usize..5,
    ) {
        let mut plan = make_plan(cstates, arrivals_ms, works, classes, little, big)
            .with_burst(burst_epoch, burst_us, burst_works);
        plan.hot = hot;
        plan.hotplug = Some((hotplug_epoch, hotplug_cluster, hotplug_online));
        let (_, fast) = run_plan(&plan, true);
        let (_, slow) = run_plan(&plan, false);
        for (rf, rs) in fast.iter().zip(&slow) {
            prop_assert_eq!(rf, rs);
        }
        prop_assert_eq!(fast.len(), slow.len());
    }
}

/// The pure-idle scenario must actually take the fast path and still
/// agree — a deterministic smoke check that runs even if the random
/// schedules happen to avoid long gaps.
#[test]
fn long_idle_stretch_agrees_exactly() {
    for cstates in [false, true] {
        let plan = Plan {
            cstates,
            hot: false,
            jobs: vec![(0, 5_000_000, 2), (700_000, 1_000_000, 0)],
            levels: (0..50).map(|i| (i % 13, (2 * i) % 19)).collect(),
            hotplug: None,
        };
        assert_paths_agree(&plan);
    }
}

/// Every case the busy kernel special-cases, in one schedule, under both
/// cpuidle configurations — each checked to have happened:
///
/// - LITTLE: two long jobs on cores 0 and 1, levels alternating every
///   epoch (the transition stall on busy cores), core 1 hotplugged out in
///   epoch 2 with its job migrating; then arrivals at four different
///   sub-steps of epoch 3, three jobs that all finish in one sub-step of
///   epoch 5 (after a 20 ms idle stretch: a wake stall with C-states),
///   and a job whose last sub-step spends exactly its whole budget.
/// - big: a long heavy job at the top level on a hot thermal node, so the
///   clamp fires mid-span while it runs; a second job at 300 ms wakes a
///   collapsed core.
#[test]
fn every_span_kernel_case_agrees_exactly() {
    let light = 0;
    let heavy = 2;
    for cstates in [false, true] {
        let mut jobs = vec![
            (0, 60_000_000, light),
            (0, 60_000_000, light),
            (0, 400_000_000, heavy),
            (300_000, 50_000_000, heavy),
        ];
        jobs.extend([60_250, 63_500, 67_000, 71_750].map(|at| (at, 150_000, light)));
        jobs.extend([100_250; 3].map(|at| (at, 100_000, light)));
        // Three full 1.4 GHz sub-steps of work from 177 ms: the last one
        // spends exactly the whole budget and must complete the job at the
        // epoch boundary, not leave it queued with nothing to do.
        jobs.push((176_500, 4_200_000, light));
        let levels: Vec<(usize, usize)> = (0..25)
            .map(|e| (if e % 2 == 0 { 12 } else { 8 }, if e < 8 { 18 } else { 10 }))
            .collect();
        let plan = Plan {
            cstates,
            hot: true,
            jobs,
            levels: levels.clone(),
            hotplug: Some((2, 0, 1)),
        };
        let reports = assert_paths_agree(&plan);

        // Two or more completions in one (1 ms) sub-step.
        let shared_substep = reports.iter().any(|r| {
            r.completed().any(|a| {
                r.completed()
                    .filter(|b| b.completed_at.as_millis() == a.completed_at.as_millis())
                    .count()
                    >= 2
            })
        });
        assert!(shared_substep, "cstates={cstates}: no shared sub-step");

        // A level change while the cluster had queued work.
        let busy_transition = reports
            .windows(2)
            .any(|w| w[0].clusters[0].queued > 0 && w[1].clusters[0].transitions > 0);
        assert!(busy_transition, "cstates={cstates}: no busy transition");

        // A clamp inside an epoch that started at the requested level,
        // with the cluster busy to the end of it.
        let mid_span_clamp = reports.windows(2).zip(&levels[1..]).any(|(w, &(_, big))| {
            let (before, during) = (&w[0].clusters[1], &w[1].clusters[1]);
            before.level == big && during.level < big && during.queued > 0
        });
        assert!(mid_span_clamp, "cstates={cstates}: no mid-span clamp");

        // The hotplug migrated LITTLE core 1's job: every job completed.
        let completed: usize = reports.iter().map(|r| r.completed().count()).sum();
        assert_eq!(completed, plan.jobs.len(), "cstates={cstates}");

        if cstates {
            // The burst woke a collapsed LITTLE core.
            assert!(reports[5].clusters[0].idle_collapsed_s > 0.0);
        } else {
            // Without a wake stall the exact-budget job ends on the epoch
            // boundary.
            let r = &reports[8];
            assert!(r.completed().any(|c| c.completed_at == r.ended_at));
        }
    }
}
