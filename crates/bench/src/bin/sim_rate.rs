//! `sim-rate` — measures batched-over-looped fleet speedups and writes
//! `BENCH_simrate.json`.
//!
//! ```text
//! cargo run --release -p bench --bin sim-rate -- --repeat 5       # 256 lanes x 60 s
//! cargo run --release -p bench --bin sim-rate -- --lanes 64 --fleet-secs 400 --out /tmp/simrate.json
//! ```
//!
//! Each fleet workload runs `--lanes` devices (default 256) for
//! `--fleet-secs` simulated seconds (default 60), batched against the
//! looped single-device equivalent, both on one thread (the batched side
//! at one shard), so the ratio measures the batched engine rather than
//! the core count. Each rate is the median of `--repeat` interleaved
//! pairs (default 1). The sharded rate at the process's `RLPM_THREADS`
//! budget is printed beside it, not written or gated.
//! `--min-batch-speedup X` exits non-zero when the standby fleet's
//! batched-over-looped speedup lands below `X`, and `--min-idle-speedup
//! X` and `--min-mixed-speedup X` when the idle and mixed fleets' do —
//! the CI gates. See DESIGN.md § Performance for how to read the file.

use std::path::PathBuf;

use bench::simrate::measure;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = PathBuf::from("BENCH_simrate.json");
    let mut repeat = 1u32;
    let mut lanes = 256u32;
    let mut fleet_secs = 60u64;
    let mut min_batch_speedup: Option<f64> = None;
    let mut min_idle_speedup: Option<f64> = None;
    let mut min_mixed_speedup: Option<f64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(iter.next().expect("--out needs a path")),
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
                fleet_secs = iter
                    .next()
                    .expect("--fleet-secs needs a count")
                    .parse()
                    .expect("--fleet-secs needs a positive integer");
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
                    "usage: sim-rate [--repeat N] [--lanes N] [--fleet-secs N] \
                            [--min-batch-speedup X] [--min-idle-speedup X] \
                            [--min-mixed-speedup X] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "measuring fleet rates: {lanes} lanes x {fleet_secs} s, looped vs batched, \
         median of {repeat} interleaved pairs ..."
    );
    let report = measure(&bench::soc_under_test(), lanes, fleet_secs, repeat);
    for fleet in &report.fleets {
        eprintln!(
            "  {}: looped {:.0} dev-s/s, batched {:.0} dev-s/s ({:.2}x, one thread each); \
             sharded {:.0} dev-s/s (ungated)",
            fleet.name,
            fleet.looped,
            fleet.batched,
            fleet.speedup(),
            fleet.sharded,
        );
    }

    let json = report.to_value().render_pretty() + "\n";
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: could not write {}: {e}", out.display());
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("(written to {})", out.display());

    let mut below = false;
    for (fleet, min) in [
        ("standby", min_batch_speedup),
        ("idle", min_idle_speedup),
        ("mixed", min_mixed_speedup),
    ] {
        let Some(min) = min else { continue };
        let rate = report
            .fleets
            .iter()
            .find(|f| f.name == fleet)
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
