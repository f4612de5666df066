//! `serve-bench` — load-generates an in-process `rlpm-serve` server with
//! the cached E1 sweep and maintains `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p bench --bin serve-bench                    # full pass
//! cargo run --release -p bench --bin serve-bench -- --quick         # CI smoke sizes
//! cargo run --release -p bench --bin serve-bench -- --min-warm-speedup 2 --out /tmp/serve.json
//! ```
//!
//! The pass points the result cache at a fresh scratch directory, prices
//! one cold `eval` request (the whole sweep computes), then hammers the
//! identical request over concurrent connections — every warm response is
//! asserted byte-identical to the cold CSV. `--min-warm-speedup X` exits
//! non-zero when warm throughput lands below `X` times cold — the CI
//! gate. See DESIGN.md § Serving for how to read the file.

use std::path::PathBuf;

use bench::serve_load::{measure, scratch_socket, ServeLoadConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut min_warm_speedup: Option<f64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(iter.next().expect("--out needs a path")),
            "--min-warm-speedup" => {
                min_warm_speedup = Some(
                    iter.next()
                        .expect("--min-warm-speedup needs a ratio")
                        .parse()
                        .expect("--min-warm-speedup needs a number"),
                );
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: serve-bench [--quick] [--min-warm-speedup X] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let config = if quick {
        ServeLoadConfig::quick()
    } else {
        ServeLoadConfig::default()
    };

    // A fresh scratch cache: the cold number is only honest when the
    // first request computes every sweep cell from scratch.
    let cache_dir = std::env::temp_dir().join(format!("rlpm-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    experiments::cache::configure(Some(cache_dir.clone()));

    let socket = scratch_socket("bench");
    eprintln!(
        "measuring serve throughput: cold E1 eval, then {} warm requests over {} connections ...",
        config.warm_requests, config.connections
    );
    let report = measure(&config, &socket);
    let _ = std::fs::remove_dir_all(&cache_dir);

    eprintln!(
        "  cold: {:.2} s/request; warm: {:.1} req/s, p99 {:.1} ms ({:.1}x cold throughput)",
        report.cold.wall_s,
        report.warm.rps,
        report.warm.p99_ms,
        report.warm_over_cold()
    );

    let json = report.to_value().render_pretty() + "\n";
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: could not write {}: {e}", out.display());
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("(written to {})", out.display());

    if let Some(min) = min_warm_speedup {
        if report.warm_over_cold() < min {
            eprintln!(
                "error: warm-over-cold throughput {:.2}x is below the required {min}x",
                report.warm_over_cold()
            );
            std::process::exit(1);
        }
    }
}
