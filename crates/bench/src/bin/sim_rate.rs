//! `sim-rate` — measures simulated-seconds per wall-second over the E1
//! matrix shape and maintains `BENCH_simrate.json`.
//!
//! ```text
//! cargo run --release -p bench --bin sim-rate -- --baseline   # pin the pre-optimisation numbers
//! cargo run --release -p bench --bin sim-rate                 # update "current", "speedup" + fleet rates
//! cargo run --release -p bench --bin sim-rate -- --quick --lanes 64 --out /tmp/simrate.json
//! ```
//!
//! The `single_device.baseline` section of an existing report is
//! preserved verbatim unless `--baseline` is given; `speedup` is
//! recomputed whenever both sections exist. Every run also refreshes the
//! `device_seconds_per_wall_second` section: batched fleet simulation
//! (`--lanes` devices, default 256) against the looped single-device
//! equivalent, both on one thread (the batched side at one shard), so
//! the ratio measures the batched engine rather than the core count.
//! The sharded rate at the process's `RLPM_THREADS` budget is printed
//! beside it, not written or gated. `--min-batch-speedup X` exits
//! non-zero when the standby fleet's batched-over-looped speedup lands
//! below `X`, and `--min-idle-speedup X` and `--min-mixed-speedup X`
//! when the idle and mixed fleets' do — the CI smoke gates. See
//! DESIGN.md § Performance for how to read the file.

use std::path::PathBuf;

use bench::simrate::{measure, measure_fleet, Report, SimRateConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut record_baseline = false;
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_simrate.json");
    let mut label: Option<String> = None;
    let mut repeat = 1u32;
    let mut lanes = 256u32;
    let mut fleet_secs: Option<u64> = None;
    let mut min_batch_speedup: Option<f64> = None;
    let mut min_idle_speedup: Option<f64> = None;
    let mut min_mixed_speedup: Option<f64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => record_baseline = true,
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(iter.next().expect("--out needs a path")),
            "--label" => label = Some(iter.next().expect("--label needs text").clone()),
            "--repeat" => {
                repeat = iter
                    .next()
                    .expect("--repeat needs a count")
                    .parse()
                    .expect("--repeat needs a positive integer");
            }
            "--lanes" => {
                lanes = iter
                    .next()
                    .expect("--lanes needs a count")
                    .parse()
                    .expect("--lanes needs a positive integer");
            }
            "--fleet-secs" => {
                fleet_secs = Some(
                    iter.next()
                        .expect("--fleet-secs needs a count")
                        .parse()
                        .expect("--fleet-secs needs a positive integer"),
                );
            }
            "--min-batch-speedup" => {
                min_batch_speedup = Some(
                    iter.next()
                        .expect("--min-batch-speedup needs a ratio")
                        .parse()
                        .expect("--min-batch-speedup needs a number"),
                );
            }
            "--min-idle-speedup" => {
                min_idle_speedup = Some(
                    iter.next()
                        .expect("--min-idle-speedup needs a ratio")
                        .parse()
                        .expect("--min-idle-speedup needs a number"),
                );
            }
            "--min-mixed-speedup" => {
                min_mixed_speedup = Some(
                    iter.next()
                        .expect("--min-mixed-speedup needs a ratio")
                        .parse()
                        .expect("--min-mixed-speedup needs a number"),
                );
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: sim-rate [--baseline] [--quick] [--repeat N] [--lanes N] \
                            [--fleet-secs N] [--min-batch-speedup X] [--min-idle-speedup X] \
                            [--min-mixed-speedup X] [--out PATH] [--label TEXT]"
                );
                std::process::exit(2);
            }
        }
    }

    let config = if quick {
        SimRateConfig::quick()
    } else {
        SimRateConfig::default()
    };
    let mut report = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| Report::from_json(&text))
        .filter(|r| r.config == config)
        .unwrap_or_else(|| Report::new(config));

    let label = label.unwrap_or_else(|| {
        if record_baseline {
            "allocating hot path, no idle fast-forward".to_owned()
        } else {
            "allocation-free hot path + idle fast-forward + memoized power".to_owned()
        }
    });
    eprintln!(
        "measuring sim-rate: 10 scenarios x 7 policies, {} s eval per cell, best of {repeat} ...",
        config.eval_secs
    );
    let measurement = measure(&bench::soc_under_test(), &config, &label, repeat);
    if record_baseline {
        report.baseline = Some(measurement.clone());
    }
    report.current = Some(measurement);

    let fleet_secs = fleet_secs.unwrap_or(if quick { 20 } else { 60 });
    eprintln!(
        "measuring fleet rates: {lanes} lanes x {fleet_secs} s, looped vs batched, \
         median of {repeat} interleaved pairs ..."
    );
    let batch = measure_fleet(
        &bench::soc_under_test(),
        lanes,
        fleet_secs,
        config.seed,
        "SoA steady kernel: resident parked lanes, live tails and sleeping parked lanes, ondemand per lane",
        repeat,
    );
    for fleet in &batch.fleets {
        eprintln!(
            "  {}: looped {:.0} dev-s/s, batched {:.0} dev-s/s ({:.2}x, one thread each); \
             sharded {:.0} dev-s/s (ungated)",
            fleet.name,
            fleet.looped,
            fleet.batched,
            fleet.speedup(),
            fleet.sharded.unwrap_or(f64::NAN),
        );
    }
    report.batch = Some(batch);

    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: could not write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("(written to {})", out.display());

    let mut below = false;
    for (fleet, min) in [
        ("standby", min_batch_speedup),
        ("idle", min_idle_speedup),
        ("mixed", min_mixed_speedup),
    ] {
        let Some(min) = min else { continue };
        let rate = report
            .batch
            .as_ref()
            .and_then(|b| b.fleets.iter().find(|f| f.name == fleet))
            .unwrap_or_else(|| panic!("fleet measurement includes {fleet}"));
        if rate.speedup() < min {
            eprintln!(
                "error: {fleet} fleet speedup {:.2}x is below the required {min}x",
                rate.speedup()
            );
            below = true;
        }
    }
    if below {
        std::process::exit(1);
    }
}
