//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload makes its inputs from
//! `--seed`, drives the program through its real entry points, checks
//! every output, and prints one line per metric followed by a JSON
//! result line. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! adds a traced pass over the same inputs and prints the per-layer
//! metrics instead. Every workload prints every metric of the run's kind.
//! See `perfbench/README.md`.

mod fleet;
mod measure;
mod regen;
mod report;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["regen-e1-cold", "fleet-mixed", "fleet-idle", "serve-warm"];

/// Scheduler workers every workload runs with, whatever the host offers,
/// so one workload is the same work on any machine.
pub const WORKERS: usize = 2;

/// The default seed. At this seed `regen-e1-cold` reproduces the
/// committed E1 tables and the fleets use `sim-rate`'s lane seeds.
pub const DEFAULT_SEED: u64 = 11;

/// What one invocation asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the measured phase runs, at least.
    pub seconds: u64,
    /// Traced (per-layer) rather than untraced (end-to-end) run.
    pub trace: bool,
    /// Scratch directory for caches and sockets, removed on exit.
    pub work: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <regen-e1-cold|fleet-mixed|fleet-idle|serve-warm> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a non-negative integer, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work,
    })
}

fn main() -> ExitCode {
    // The host-speed probe's child process: `perfbench --probe`.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--probe"] {
        println!("{}", measure::probe_here());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Read by the experiment scheduler when it starts its pool.
    std::env::set_var("RLPM_THREADS", WORKERS.to_string());
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let mut report = Report::new(args.trace);
    let outcome = match args.workload.as_str() {
        "regen-e1-cold" => regen::run(&args, &mut report),
        "fleet-mixed" => fleet::run(&args, &mut report, fleet::MIXED),
        "fleet-idle" => fleet::run(&args, &mut report, fleet::IDLE),
        _ => serve::run(&args, &mut report),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(".bench_work");
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(2);
    }
    report.metric("peak_rss_mb", measure::peak_rss_mb(), 1);
    report.check_complete();
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse("--workload fleet-mixed --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("fleet-mixed", 7, 3, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload fleet-mixed --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload fleet-idle --seed 1").is_ok());
        assert!(parse("--workload fleet-mixed --seed").is_err());
    }
}
