//! # bench — table regeneration and the self-relative speed gates
//!
//! The `regen-tables` binary drives the [`experiments`] crate to
//! reproduce every table and series of the paper's evaluation:
//!
//! ```text
//! cargo run --release -p bench --bin regen-tables            # everything
//! cargo run --release -p bench --bin regen-tables -- e1 e4   # a subset
//! cargo run --release -p bench --bin regen-tables -- --quick # smoke sizes
//! ```
//!
//! Outputs are printed as markdown and written as CSV under `results/`.
//!
//! Two more binaries measure the ratios CI gates, which hold across
//! hosts because each compares two runs on the same one: `sim-rate`
//! ([`simrate`], batched over looped fleets, `BENCH_simrate.json`) and
//! `serve-bench` ([`serve_load`], warm over cold serving,
//! `BENCH_serve.json`). Both write through [`rlpm_serve::json`].
//! Absolute end-to-end and per-layer timings are the repository
//! benchmark's, perfbench (`perfbench/README.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod serve_load;
pub mod simrate;

/// The standard SoC under test, shared by every binary.
pub fn soc_under_test() -> soc::SocConfig {
    soc::SocConfig::odroid_xu3_like().expect("preset is valid")
}
