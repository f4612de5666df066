//! `rlpm-sim` command implementations.

use std::error::Error;

use experiments::table::{fmt_f64, Table};
use experiments::{eval_cell, run, PolicyKind, RunConfig, RunMetrics, TrainingProtocol};
use rlpm::{persist, RlConfig, RlGovernor};
use rlpm_serve::service::{resolve_policy, resolve_scenario, resolve_soc};
use simkit::SimDuration;
use soc::{Soc, SocConfig};
use workload::{RecordedTrace, ScenarioKind};

use crate::args::{Invocation, ParseArgsError};

type CmdResult = Result<(), Box<dyn Error>>;

// Names resolve through the service's catalogues, so a command line and
// a request accept the same names for the same cell.

/// Resolves a SoC preset name.
fn soc_config(name: &str) -> Result<SocConfig, Box<dyn Error>> {
    resolve_soc(name).map_err(|e| ParseArgsError(e.message).into())
}

/// Resolves a scenario name: the catalog plus `standby`.
fn scenario_kind(name: &str) -> Result<ScenarioKind, Box<dyn Error>> {
    resolve_scenario(name).map_err(|e| ParseArgsError(e.message).into())
}

/// Resolves a policy name.
fn policy_kind(name: &str) -> Result<PolicyKind, Box<dyn Error>> {
    resolve_policy(name).map_err(|e| ParseArgsError(e.message).into())
}

/// Applies the `--cache-dir DIR` / `--no-cache` flags. Commands that
/// train RL policies or run experiment cells reuse cached results from
/// `target/rlpm-cache` by default; cached results are byte-identical to
/// recomputed ones, so `--no-cache` only changes speed.
fn configure_cache(inv: &Invocation) {
    if inv.has("no-cache") {
        experiments::cache::configure(None);
        return;
    }
    let dir = inv
        .flags
        .get("cache-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(experiments::cache::default_dir);
    experiments::cache::configure(Some(dir));
}

/// Applies the `--max-retries N` supervision knob: how many times a
/// panicking experiment cell is retried (with bounded backoff) before it
/// is quarantined. See `experiments::set_max_retries`.
fn configure_supervision(inv: &Invocation) -> CmdResult {
    experiments::set_max_retries(inv.flag_or("max-retries", experiments::max_retries())?);
    Ok(())
}

/// Writes the process-wide metrics snapshot to `--metrics-out FILE` when
/// the flag is present. Commands that simulate call this last, so the
/// snapshot covers everything the invocation did.
fn write_metrics_out(inv: &Invocation) -> CmdResult {
    let Some(path) = inv.flags.get("metrics-out") else {
        return Ok(());
    };
    if !simkit::obs::enabled() {
        eprintln!(
            "warning: this rlpm-sim was built without the `obs` feature; \
             {path} will contain no metrics"
        );
    }
    let snap = simkit::obs::snapshot();
    std::fs::write(path, snap.to_csv())
        .map_err(|e| simkit::trace::WriteError::new(path.as_str(), e))?;
    eprintln!("wrote metrics snapshot to {path}");
    Ok(())
}

fn print_metrics(label: &str, m: &RunMetrics) {
    println!("=== {label} ===");
    println!(
        "energy            : {:.3} J ({:.3} W average)",
        m.energy_j, m.avg_power_w
    );
    println!("energy per QoS    : {}", fmt_f64(m.energy_per_qos));
    println!(
        "QoS               : {:.2}% delivered, {} violations, {}/{} on time",
        m.qos.qos_ratio() * 100.0,
        m.qos.violations,
        m.qos.on_time,
        m.qos.completed
    );
    println!("DVFS transitions  : {}", m.transitions);
    if m.idle_collapsed_core_s > 0.0 || m.idle_gated_core_s > 0.0 {
        println!(
            "cpuidle residency : {:.2} core-s gated, {:.2} core-s collapsed",
            m.idle_gated_core_s, m.idle_collapsed_core_s
        );
    }
}

/// `run <scenario> <policy> [--secs N] [--seed N] [--soc P] [--trace] [--cache-dir DIR] [--no-cache] [--metrics-out FILE]`
///
/// Evaluates one cell through [`experiments::eval_cell`], the path E1
/// and the service's `simulate` take, prints it and returns the metrics
/// it printed.
pub fn cmd_run(inv: &Invocation) -> Result<RunMetrics, Box<dyn Error>> {
    inv.allow_flags(&[
        "secs",
        "seed",
        "soc",
        "trace",
        "cache-dir",
        "no-cache",
        "metrics-out",
    ])?;
    configure_cache(inv);
    let scenario_name = inv.positional.first().map_or("video", String::as_str);
    let policy_name = inv.positional.get(1).map_or("rlpm", String::as_str);
    let secs: u64 = inv.flag_or("secs", 30)?;
    let seed: u64 = inv.flag_or("seed", 42)?;
    let soc_name: String = inv.flag_or("soc", "xu3".to_owned())?;

    let soc_cfg = soc_config(&soc_name)?;
    let kind = scenario_kind(scenario_name)?;
    let policy = policy_kind(policy_name)?;
    let mut config = RunConfig::seconds(secs);
    if inv.has("trace") {
        config = config.with_trace();
    }
    eprintln!("building {policy_name} (RL variants train first) ...");
    let metrics = eval_cell(
        &soc_cfg,
        kind,
        policy,
        TrainingProtocol::default(),
        seed,
        config,
    )
    .ok_or("the simulation failed to run")?;
    if let Some(trace) = &metrics.trace {
        print!("{}", trace.to_csv());
    }
    print_metrics(
        &format!("{scenario_name} / {policy_name} for {secs}s"),
        &metrics,
    );
    write_metrics_out(inv)?;
    Ok(metrics)
}

/// `fleet <scenario> <policy> [--lanes N] [--secs N] [--seed N] [--soc P] [--cache-dir DIR] [--no-cache] [--metrics-out FILE]`
///
/// Simulates a whole population of identical devices in one batched
/// engine ([`soc::DeviceBatch`]) built by [`experiments::build_fleet`]:
/// every lane runs the same scenario kind and policy but its own arrival
/// stream (per-lane seeds), and fully-idle lanes are parked and
/// fast-forwarded together. RL variants train once and every lane gets
/// a clone (the fleet ships one policy). [`experiments::run_batch`]
/// splits the lanes into one shard per `RLPM_THREADS` worker; per-lane
/// results are bit-identical to running each device alone, at any
/// thread count.
pub fn cmd_fleet(inv: &Invocation) -> CmdResult {
    use experiments::run_batch;

    inv.allow_flags(&[
        "lanes",
        "secs",
        "seed",
        "soc",
        "cache-dir",
        "no-cache",
        "metrics-out",
    ])?;
    configure_cache(inv);
    let scenario_name = inv.positional.first().map(String::as_str).unwrap_or("idle");
    let policy_name = inv
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or("ondemand");
    let lanes_n: usize = inv.flag_or("lanes", 256)?;
    let secs: u64 = inv.flag_or("secs", 60)?;
    let seed: u64 = inv.flag_or("seed", 42)?;
    let soc_name: String = inv.flag_or("soc", "xu3".to_owned())?;
    if lanes_n == 0 {
        return Err(ParseArgsError("--lanes must be at least 1".into()).into());
    }

    let soc_cfg = soc_config(&soc_name)?;
    let kind = scenario_kind(scenario_name)?;
    let policy = policy_kind(policy_name)?;
    eprintln!("building {lanes_n} x {policy_name} (RL variants train first) ...");
    let (mut batch, mut lanes) = experiments::build_fleet(
        &soc_cfg,
        kind,
        policy,
        TrainingProtocol::default(),
        lanes_n,
        seed,
    )?;

    let start = std::time::Instant::now();
    let metrics = run_batch(&mut batch, &mut lanes, RunConfig::seconds(secs));
    let wall = start.elapsed().as_secs_f64();

    let total_energy: f64 = metrics.iter().map(|m| m.energy_j).sum();
    let total_violations: u64 = metrics.iter().map(|m| m.qos.violations).sum();
    let total_transitions: u64 = metrics.iter().map(|m| m.transitions).sum();
    let mean_qos =
        metrics.iter().map(|m| m.qos.qos_ratio()).sum::<f64>() / metrics.len().max(1) as f64;
    let device_secs = (secs * lanes_n as u64) as f64;

    println!("=== fleet: {lanes_n} x {scenario_name} / {policy_name} for {secs}s ===");
    println!(
        "simulated         : {device_secs:.0} device-seconds in {wall:.2} s wall ({:.0} dev-s/s)",
        if wall > 0.0 { device_secs / wall } else { 0.0 }
    );
    println!(
        "energy            : {:.3} J total, {:.3} J mean per device",
        total_energy,
        total_energy / metrics.len().max(1) as f64
    );
    println!(
        "QoS               : {:.2}% mean delivered, {total_violations} violations fleet-wide",
        mean_qos * 100.0
    );
    println!("DVFS transitions  : {total_transitions} fleet-wide");
    write_metrics_out(inv)
}

/// `train <scenario> [--episodes N] [--episode-secs N] [--seed N] [--soc P] --out FILE`
pub fn cmd_train(inv: &Invocation) -> CmdResult {
    inv.allow_flags(&["episodes", "episode-secs", "seed", "soc", "out"])?;
    let scenario_name = inv
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("mixed");
    let episodes: u32 = inv.flag_or("episodes", 100)?;
    let episode_secs: u64 = inv.flag_or("episode-secs", 30)?;
    let seed: u64 = inv.flag_or("seed", 42)?;
    let soc_name: String = inv.flag_or("soc", "xu3".to_owned())?;
    let out = inv.required_flag("out")?;

    let soc_cfg = soc_config(&soc_name)?;
    let kind = scenario_kind(scenario_name)?;
    eprintln!("training on {scenario_name}: {episodes} episodes x {episode_secs}s ...");
    let policy = experiments::train_rl_governor(
        &soc_cfg,
        kind,
        TrainingProtocol {
            episodes,
            episode_secs,
        },
        seed,
    );
    let bytes = persist::save_policy(&policy);
    std::fs::write(out, &bytes)?;
    println!(
        "trained {} updates over {} states; saved {} bytes to {out}",
        policy.agent().updates(),
        policy.config().num_states(),
        bytes.len()
    );
    Ok(())
}

/// `eval <scenario> --policy-file FILE [--secs N] [--seed N] [--soc P] [--metrics-out FILE]`
pub fn cmd_eval(inv: &Invocation) -> CmdResult {
    inv.allow_flags(&["policy-file", "secs", "seed", "soc", "metrics-out"])?;
    let scenario_name = inv
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("mixed");
    let file = inv.required_flag("policy-file")?;
    let secs: u64 = inv.flag_or("secs", 60)?;
    let seed: u64 = inv.flag_or("seed", 43)?;
    let soc_name: String = inv.flag_or("soc", "xu3".to_owned())?;

    let soc_cfg = soc_config(&soc_name)?;
    let kind = scenario_kind(scenario_name)?;
    let bytes = std::fs::read(file)?;
    let mut policy = RlGovernor::new(RlConfig::for_soc(&soc_cfg), seed);
    persist::load_policy(&mut policy, &bytes)?;
    policy.set_frozen(true);

    let mut soc = Soc::new(soc_cfg)?;
    let mut scenario = kind.build(seed);
    let metrics = run(
        &mut soc,
        scenario.as_mut(),
        &mut policy,
        RunConfig::seconds(secs),
    );
    print_metrics(
        &format!("{scenario_name} / saved policy for {secs}s"),
        &metrics,
    );
    write_metrics_out(inv)
}

/// `compare <scenario> [--secs N] [--seed N] [--soc P] [--cache-dir DIR] [--no-cache] [--metrics-out FILE]`
pub fn cmd_compare(inv: &Invocation) -> CmdResult {
    inv.allow_flags(&[
        "secs",
        "seed",
        "soc",
        "cache-dir",
        "no-cache",
        "metrics-out",
    ])?;
    configure_cache(inv);
    let scenario_name = inv
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("video");
    let secs: u64 = inv.flag_or("secs", 60)?;
    let seed: u64 = inv.flag_or("seed", 42)?;
    let soc_name: String = inv.flag_or("soc", "xu3".to_owned())?;

    let soc_cfg = soc_config(&soc_name)?;
    let kind = scenario_kind(scenario_name)?;
    let mut table = Table::new(
        &format!("{scenario_name} for {secs}s"),
        ["policy", "energy (J)", "energy/QoS", "QoS %", "violations"],
    );
    for policy in PolicyKind::evaluation_set() {
        eprint!("{policy} ... ");
        let m = eval_cell(
            &soc_cfg,
            kind,
            policy,
            TrainingProtocol::default(),
            seed,
            RunConfig::seconds(secs),
        )
        .ok_or_else(|| format!("{policy} failed to run"))?;
        eprintln!("done");
        table.push([
            policy.name().to_owned(),
            fmt_f64(m.energy_j),
            fmt_f64(m.energy_per_qos),
            format!("{:.2}", m.qos.qos_ratio() * 100.0),
            m.qos.violations.to_string(),
        ]);
    }
    println!("\n{}", table.to_markdown());
    write_metrics_out(inv)
}

/// `record <scenario> [--secs N] [--seed N] --out FILE`
pub fn cmd_record(inv: &Invocation) -> CmdResult {
    inv.allow_flags(&["secs", "seed", "out"])?;
    let scenario_name = inv
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("mixed");
    let secs: u64 = inv.flag_or("secs", 60)?;
    let seed: u64 = inv.flag_or("seed", 42)?;
    let out = inv.required_flag("out")?;

    let kind = scenario_kind(scenario_name)?;
    let mut scenario = kind.build(seed);
    let trace = RecordedTrace::record(scenario.as_mut(), SimDuration::from_secs(secs));
    std::fs::write(out, trace.to_csv())?;
    println!("recorded {} arrivals over {secs}s to {out}", trace.len());
    Ok(())
}

/// `replay <policy> --trace-file FILE [--scenario NAME] [--secs N] [--soc P] [--metrics-out FILE]`
pub fn cmd_replay(inv: &Invocation) -> CmdResult {
    inv.allow_flags(&[
        "trace-file",
        "scenario",
        "secs",
        "seed",
        "soc",
        "metrics-out",
    ])?;
    let policy_name = inv
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("schedutil");
    let file = inv.required_flag("trace-file")?;
    let seed: u64 = inv.flag_or("seed", 42)?;
    let soc_name: String = inv.flag_or("soc", "xu3".to_owned())?;
    // QoS spec comes from the named source scenario (default: mixed).
    let spec_scenario: String = inv.flag_or("scenario", "mixed".to_owned())?;

    let soc_cfg = soc_config(&soc_name)?;
    let spec = scenario_kind(&spec_scenario)?.build(0).qos_spec();
    let csv = std::fs::read_to_string(file)?;
    let mut trace = RecordedTrace::from_csv("replay", spec, &csv)?;
    let trace_secs = trace.duration().as_secs_f64().ceil() as u64 + 1;
    let secs: u64 = inv.flag_or("secs", trace_secs)?;

    let policy = policy_kind(policy_name)?;
    // RL variants train on the spec scenario, then replay frozen.
    let mut governor = policy.build_trained(
        &soc_cfg,
        scenario_kind(&spec_scenario)?,
        TrainingProtocol::default(),
        seed,
    );
    let mut soc = Soc::new(soc_cfg)?;
    let metrics = run(
        &mut soc,
        &mut trace,
        governor.as_mut(),
        RunConfig::seconds(secs),
    );
    print_metrics(
        &format!("replay({file}) / {policy_name} for {secs}s"),
        &metrics,
    );
    write_metrics_out(inv)
}

/// `latency [--soc P] [--metrics-out FILE]` — the E4 ladder.
pub fn cmd_latency(inv: &Invocation) -> CmdResult {
    inv.allow_flags(&["soc", "metrics-out"])?;
    let soc_name: String = inv.flag_or("soc", "xu3".to_owned())?;
    let soc_cfg = soc_config(&soc_name)?;
    let ladder = experiments::e4_decision_latency::ladder(&soc_cfg);
    println!(
        "{}",
        experiments::e4_decision_latency::ladder_table(&ladder).to_markdown()
    );
    println!(
        "up to {:.1}x compute-only, {:.2}x average end-to-end",
        ladder.max_speedup, ladder.avg_speedup
    );
    write_metrics_out(inv)
}

/// `e9 [--scenario NAME] [--fault-seed N] [--soc P] [--out-dir DIR] [--quick] [--metrics-out FILE]`
/// — the resilience sweep under injected faults.
pub fn cmd_e9(inv: &Invocation) -> CmdResult {
    use experiments::e9_fault_resilience::{run_e9, E9Config};

    inv.allow_flags(&[
        "scenario",
        "fault-seed",
        "soc",
        "out-dir",
        "quick",
        "max-retries",
        "fail-on-quarantine",
        "cache-dir",
        "no-cache",
        "metrics-out",
    ])?;
    configure_cache(inv);
    configure_supervision(inv)?;
    let soc_name: String = inv.flag_or("soc", "xu3".to_owned())?;
    let soc_cfg = soc_config(&soc_name)?;
    let mut config = if inv.has("quick") {
        E9Config::quick()
    } else {
        E9Config::default()
    };
    let scenario_name: String = inv.flag_or("scenario", config.scenario.name().to_owned())?;
    config.scenario = scenario_kind(&scenario_name)?;
    config.fault_seed = inv.flag_or("fault-seed", config.fault_seed)?;

    eprintln!(
        "E9 resilience sweep on {scenario_name}: {} arms x {} fault multipliers x {} seeds \
         (fault seed {}) ...",
        config.arms.len(),
        config.multipliers.len(),
        config.seeds.len(),
        config.fault_seed
    );
    let result = run_e9(&soc_cfg, &config);
    println!("{}", result.violations_table().to_markdown());
    println!("{}", result.energy_per_qos_table().to_markdown());
    println!("{}", result.summary_table().to_markdown());

    if let Some(dir) = inv.flags.get("out-dir") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)?;
        result
            .violations_table()
            .write_csv(&dir.join("e9_fault_violations.csv"))?;
        result
            .energy_per_qos_table()
            .write_csv(&dir.join("e9_fault_energy_per_qos.csv"))?;
        result
            .summary_table()
            .write_csv(&dir.join("e9_fault_summary.csv"))?;
        println!("wrote e9_fault_*.csv to {}", dir.display());
    }
    write_metrics_out(inv)
}

/// `trace <scenario> [--secs N] [--seed N] [--soc P] [--format csv|jsonl] [--out FILE] [--metrics-out FILE]`
/// — per-epoch decision trace of the RL policy: state index, explore vs
/// greedy, chosen action, reward and TD correction, one row per epoch.
pub fn cmd_trace(inv: &Invocation) -> CmdResult {
    inv.allow_flags(&["secs", "seed", "soc", "format", "out", "metrics-out"])?;
    if !simkit::obs::enabled() {
        return Err(ParseArgsError(
            "this rlpm-sim was built without the `obs` feature; \
             rebuild with default features to use `trace`"
                .into(),
        )
        .into());
    }
    {
        use rlpm::{DecisionSink, TraceFormat};

        let scenario_name = inv
            .positional
            .first()
            .map(String::as_str)
            .unwrap_or("video");
        let secs: u64 = inv.flag_or("secs", 30)?;
        let seed: u64 = inv.flag_or("seed", 42)?;
        let soc_name: String = inv.flag_or("soc", "xu3".to_owned())?;
        let format = match inv.flag_or("format", "csv".to_owned())?.as_str() {
            "csv" => TraceFormat::Csv,
            "jsonl" => TraceFormat::Jsonl,
            other => {
                return Err(
                    ParseArgsError(format!("unknown --format {other:?} (csv | jsonl)")).into(),
                )
            }
        };
        let soc_cfg = soc_config(&soc_name)?;
        let kind = scenario_kind(scenario_name)?;
        eprintln!("training rlpm before the traced run ...");
        let mut policy =
            experiments::train_rl_governor(&soc_cfg, kind, TrainingProtocol::default(), seed);
        let to_file = inv.flags.get("out");
        let sink = match to_file {
            Some(path) => DecisionSink::new(std::fs::File::create(path)?, format),
            None => DecisionSink::new(std::io::stdout(), format),
        };
        policy.set_decision_sink(Some(sink.clone()));
        let mut soc = Soc::new(soc_cfg)?;
        let mut scenario = kind.build(seed.wrapping_add(1));
        let metrics = run(
            &mut soc,
            scenario.as_mut(),
            &mut policy,
            RunConfig::seconds(secs),
        );
        policy.set_decision_sink(None);
        let records = sink.finish()?;
        eprintln!(
            "traced {records} decisions over {} epochs of {scenario_name}",
            metrics.epochs
        );
        // With the trace on stdout, the run summary would corrupt it, so
        // the summary only prints when the trace went to a file.
        if to_file.is_some() {
            print_metrics(
                &format!("{scenario_name} / rlpm traced for {secs}s"),
                &metrics,
            );
        }
        write_metrics_out(inv)
    }
}

/// The socket `serve` binds and `client` connects to when `--socket` is
/// not given.
fn default_socket_path() -> std::path::PathBuf {
    std::env::temp_dir().join("rlpm-serve.sock")
}

/// `serve [--socket PATH | --stdio] [--cache-dir DIR] [--no-cache] [--max-retries N]`
///
/// Starts the persistent JSON-lines simulation service (`rlpm-serve`
/// crate; wire format in `PROTOCOL.md`). The server runs until a client
/// sends a `shutdown` request. Requests are deduped through the same
/// content-addressed cache the CLI uses, so a warm server answers
/// repeated evaluation requests without simulating.
pub fn cmd_serve(inv: &Invocation) -> CmdResult {
    inv.allow_flags(&["socket", "stdio", "cache-dir", "no-cache", "max-retries"])?;
    configure_cache(inv);
    configure_supervision(inv)?;
    experiments::register_harness_metrics();
    if inv.has("stdio") {
        if inv.flags.contains_key("socket") {
            return Err(
                ParseArgsError("--stdio and --socket are mutually exclusive".into()).into(),
            );
        }
        let service = rlpm_serve::Service::new();
        rlpm_serve::serve_stdio(&service)?;
        return Ok(());
    }
    let path = inv
        .flags
        .get("socket")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_socket_path);
    let server = rlpm_serve::Server::bind(&path)?;
    eprintln!(
        "rlpm-serve listening on {} (protocol v{}; send {{\"type\":\"shutdown\"}} to stop)",
        path.display(),
        rlpm_serve::proto::PROTOCOL_VERSION
    );
    server.run()?;
    eprintln!("rlpm-serve stopped");
    Ok(())
}

/// `client [REQUEST] [--socket PATH] [--request JSON] [--out FILE] [--quiet] [--fail-on-quarantine]`
///
/// Round-trips one request to a running server: events go to stderr
/// (suppressed by `--quiet`), the terminal response to stdout. With
/// `--out FILE` the payload's `csv` field is written to the file
/// instead — the serve-vs-CLI byte-identity smoke relies on this. A
/// `quarantined` server error maps to the same exit codes as a local
/// quarantined run (4, or 2 with `--fail-on-quarantine`); any other
/// server error exits 2.
pub fn cmd_client(inv: &Invocation) -> CmdResult {
    use rlpm_serve::json::Value as Json;

    inv.allow_flags(&["socket", "request", "out", "quiet", "fail-on-quarantine"])?;
    let path = inv
        .flags
        .get("socket")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_socket_path);
    let request = inv
        .flags
        .get("request")
        .or_else(|| inv.positional.first())
        .cloned()
        .unwrap_or_else(|| "{\"type\":\"status\"}".to_string());
    let quiet = inv.has("quiet");
    let response = rlpm_serve::client::request_over_socket(&path, &request, |event| {
        if !quiet {
            eprintln!("{}", event.render());
        }
    })?;
    if response.get("type").and_then(Json::as_str) == Some("error") {
        let code = response.get("code").and_then(Json::as_str).unwrap_or("?");
        let message = response
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("(no message)");
        if code == "quarantined" {
            let cells = response
                .get("payload")
                .and_then(|p| p.get("cells"))
                .and_then(Json::as_u64)
                .unwrap_or(0) as usize;
            return Err(experiments::QuarantineError { cells }.into());
        }
        return Err(ParseArgsError(format!("server error ({code}): {message}")).into());
    }
    if let Some(out) = inv.flags.get("out") {
        let csv = response
            .get("payload")
            .and_then(|p| p.get("csv"))
            .and_then(Json::as_str)
            .ok_or_else(|| {
                ParseArgsError("--out needs a response payload with a \"csv\" field".into())
            })?;
        std::fs::write(out, csv)?;
        eprintln!("wrote {} bytes to {out}", csv.len());
    } else {
        println!("{}", response.render());
    }
    Ok(())
}

/// `help`
pub fn cmd_help() -> CmdResult {
    println!(
        "rlpm-sim — MPSoC power-management simulator (RL DVFS policy reproduction)

USAGE:
  rlpm-sim run      <scenario> <policy> [--secs N] [--seed N] [--soc P] [--trace]
  rlpm-sim fleet    <scenario> <policy> [--lanes N] [--secs N] [--seed N] [--soc P]
  rlpm-sim compare  <scenario> [--secs N] [--seed N] [--soc P]
                    (run/fleet/compare/e9 also take [--cache-dir DIR] [--no-cache];
                     e9 also takes [--max-retries N] [--fail-on-quarantine])
  rlpm-sim train    <scenario> --out FILE [--episodes N] [--episode-secs N] [--seed N] [--soc P]
  rlpm-sim eval     <scenario> --policy-file FILE [--secs N] [--seed N] [--soc P]
  rlpm-sim record   <scenario> --out FILE [--secs N] [--seed N]
  rlpm-sim replay   <policy> --trace-file FILE [--scenario NAME] [--secs N] [--soc P]
  rlpm-sim latency  [--soc P]
  rlpm-sim e9       [--scenario NAME] [--fault-seed N] [--soc P] [--out-dir DIR] [--quick]
  rlpm-sim trace    <scenario> [--secs N] [--seed N] [--soc P] [--format csv|jsonl] [--out FILE]
  rlpm-sim serve    [--socket PATH | --stdio] [--cache-dir DIR] [--no-cache] [--max-retries N]
  rlpm-sim client   [REQUEST] [--socket PATH] [--request JSON] [--out FILE] [--quiet]
  rlpm-sim help

SCENARIOS: video web gaming audio camera video-call navigation app-launch idle mixed
           (plus standby — no arrivals at all — for fleet sweeps)
POLICIES:  performance powersave ondemand conservative interactive schedutil rlpm rlpm-hw
SOC PRESETS (--soc): xu3 (default) | xu3-cstates | symmetric

fleet steps every lane in one batched engine (sleeping devices are
fast-forwarded together); per-lane results stay bit-identical to
running each device alone.

Simulating commands also accept --metrics-out FILE to dump the process-wide
observability snapshot (counters, gauges, spans, histograms) as CSV.

run/compare/e9 reuse trained policies and evaluated cells from a
content-addressed cache (default target/rlpm-cache); cached results are
byte-identical to recomputed ones. --no-cache disables it, --cache-dir
moves it. run and compare evaluate each cell as E1 and serve's simulate
do, so the same scenario, policy, SoC, seconds and seed give the same
numbers on every path.

Experiment sweeps are supervised: a panicking cell is retried
(--max-retries N, default 2) and then quarantined; a quarantined run
prints a report and exits 4 (2 with --fail-on-quarantine). fleet runs
fault-free; use e9 for fault studies.

serve starts the persistent JSON-lines service (wire format in
PROTOCOL.md; default socket <tmp>/rlpm-serve.sock) and client
round-trips one request to it — events on stderr, the response on
stdout, or the payload's csv field to --out FILE."
    );
    Ok(())
}

fn run_command(inv: &Invocation) -> CmdResult {
    match inv.command.as_str() {
        "run" => cmd_run(inv).map(drop),
        "fleet" => cmd_fleet(inv),
        "train" => cmd_train(inv),
        "eval" => cmd_eval(inv),
        "compare" => cmd_compare(inv),
        "record" => cmd_record(inv),
        "replay" => cmd_replay(inv),
        "latency" => cmd_latency(inv),
        "e9" => cmd_e9(inv),
        "trace" => cmd_trace(inv),
        "serve" => cmd_serve(inv),
        "client" => cmd_client(inv),
        "help" => cmd_help(),
        other => Err(ParseArgsError(format!(
            "unknown command {other:?} (one of: {}); try `rlpm-sim help`",
            crate::args::COMMANDS.join(", ")
        ))
        .into()),
    }
}

/// Dispatches a parsed invocation under quarantine supervision: an
/// experiment sweep whose cells gave up after retries raises one summary
/// panic, which is converted here into a typed
/// [`experiments::QuarantineError`] after printing the quarantine
/// report — the command "completes with quarantine" instead of crashing.
/// `main` maps that error to exit code 4 (or 2 with
/// `--fail-on-quarantine`). Panics with no quarantined cells are real
/// bugs and propagate unchanged.
pub fn dispatch(inv: &Invocation) -> CmdResult {
    experiments::clear_quarantine();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_command(inv)));
    let quarantined = experiments::quarantine_report();
    if quarantined.is_empty() {
        return match outcome {
            Ok(result) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        };
    }
    eprintln!(
        "quarantine report: {} cell(s) gave up after retries:",
        quarantined.len()
    );
    for record in &quarantined {
        eprintln!("  {record}");
    }
    let quarantine_error = experiments::QuarantineError {
        cells: quarantined.len(),
    };
    match outcome {
        // The command survived (partial results); still fail typed so
        // scripts never mistake a quarantined run for a clean one.
        Ok(Ok(())) | Err(_) => Err(quarantine_error.into()),
        // A prior error outranks the quarantine summary.
        Ok(Err(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    #[test]
    fn name_resolution() {
        assert!(scenario_kind("video").is_ok());
        assert!(scenario_kind("navigation").is_ok());
        assert!(scenario_kind("nope").is_err());
        assert!(policy_kind("schedutil").is_ok());
        assert!(policy_kind("rlpm").is_ok());
        assert!(policy_kind("rlpm-hw").is_ok());
        assert!(policy_kind("turbo").is_err());
        assert!(soc_config("xu3").is_ok());
        assert!(soc_config("xu3-cstates").is_ok());
        assert!(soc_config("zen5").is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        let inv = parse(["frobnicate"]).unwrap();
        let err = dispatch(&inv).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        // The error lists the real catalog, which must include the
        // observability subcommand.
        assert!(err.to_string().contains("trace"));
        assert!(crate::args::COMMANDS.contains(&"trace"));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn trace_command_writes_decision_trace_and_metrics() {
        let dir = std::env::temp_dir().join("rlpm-sim-test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("decisions.csv");
        let metrics_path = dir.join("metrics.csv");
        let inv = parse([
            "trace".to_owned(),
            "audio".to_owned(),
            "--secs".to_owned(),
            "5".to_owned(),
            "--out".to_owned(),
            trace_path.to_str().unwrap().to_owned(),
            "--metrics-out".to_owned(),
            metrics_path.to_str().unwrap().to_owned(),
        ])
        .unwrap();
        dispatch(&inv).expect("trace");
        let csv = std::fs::read_to_string(&trace_path).unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("epoch,state,explored,action,reward,q_delta")
        );
        assert!(lines.count() >= 100, "5s of 20ms epochs is 250 decisions");
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.starts_with("metric,kind,value"), "{metrics}");
        assert!(metrics.contains("rlpm.decisions"), "{metrics}");
        assert!(metrics.contains("soc.epochs"), "{metrics}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_command_runs_a_small_batch() {
        let inv = parse([
            "fleet",
            "standby",
            "powersave",
            "--lanes",
            "4",
            "--secs",
            "2",
            "--no-cache",
        ])
        .unwrap();
        dispatch(&inv).expect("fleet");
        // Lane count must be validated before any simulation starts.
        let inv = parse(["fleet", "idle", "ondemand", "--lanes", "0"]).unwrap();
        assert!(dispatch(&inv).unwrap_err().to_string().contains("--lanes"));
    }

    #[test]
    fn fleet_and_compare_refuse_flags_they_would_ignore() {
        // fleet has no fault flag, and neither command runs under the
        // supervised scheduler: a fault or supervision request is an
        // unknown-flag error, never a silently ignored knob.
        for (args, flag) in [
            (
                &["fleet", "idle", "ondemand", "--fault-scale", "1"][..],
                "--fault-scale",
            ),
            (
                &["fleet", "idle", "ondemand", "--max-retries", "3"],
                "--max-retries",
            ),
            (
                &["fleet", "idle", "ondemand", "--fail-on-quarantine"],
                "--fail-on-quarantine",
            ),
            (&["compare", "video", "--max-retries", "3"], "--max-retries"),
            (
                &["compare", "video", "--fail-on-quarantine"],
                "--fail-on-quarantine",
            ),
        ] {
            let inv = parse(args.iter().copied()).unwrap();
            let err = dispatch(&inv).unwrap_err();
            let unknown = format!("unknown flag {flag} for `{}`", args[0]);
            assert!(err.to_string().contains(&unknown), "{args:?}: {err}");
        }
    }

    /// `run` and the service's `simulate` evaluate a cell through one
    /// path, so they report the same bits for the same arguments.
    #[test]
    fn run_reports_the_metrics_serve_simulate_returns() {
        use rlpm_serve::json::Value;
        use rlpm_serve::proto::{Request, Response, SimulateSpec};

        let inv = parse([
            "run",
            "video",
            "ondemand",
            "--secs",
            "10",
            "--seed",
            "42",
            "--no-cache",
        ])
        .unwrap();
        let m = cmd_run(&inv).expect("run");
        let handled = rlpm_serve::Service::new().handle(&Request::Simulate(SimulateSpec {
            scenario: "video".into(),
            policy: "ondemand".into(),
            soc: "xu3".into(),
            secs: 10,
            seed: 42,
        }));
        let Response::Result { payload } = handled.response else {
            panic!("simulate failed: {:?}", handled.response);
        };
        let served = payload.get("metrics").expect("metrics object");
        for (field, value) in [
            ("energy-j", m.energy_j),
            ("avg-power-w", m.avg_power_w),
            ("energy-per-qos", m.energy_per_qos),
            ("qos-ratio", m.qos.qos_ratio()),
        ] {
            assert_eq!(
                served.get(field).and_then(Value::as_f64).map(f64::to_bits),
                Some(value.to_bits()),
                "{field}"
            );
        }
        for (field, value) in [
            ("violations", m.qos.violations),
            ("on-time", m.qos.on_time),
            ("completed", m.qos.completed),
            ("transitions", m.transitions),
            ("epochs", m.epochs),
        ] {
            assert_eq!(
                served.get(field).and_then(Value::as_u64),
                Some(value),
                "{field}"
            );
        }
    }

    #[test]
    fn unknown_flag_is_reported_before_running() {
        let inv = parse(["run", "video", "rlpm", "--sexs", "1"]).unwrap();
        let err = dispatch(&inv).unwrap_err();
        assert!(err.to_string().contains("--sexs"));
    }

    #[test]
    fn latency_command_runs() {
        let inv = parse(["latency"]).unwrap();
        dispatch(&inv).expect("latency prints the ladder");
    }

    #[test]
    fn e9_quick_sweep_writes_fault_csvs() {
        let dir = std::env::temp_dir().join("rlpm-sim-test-e9");
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap().to_owned();
        let inv = parse([
            "e9".to_owned(),
            "--quick".to_owned(),
            "--out-dir".to_owned(),
            dir_str,
        ])
        .unwrap();
        dispatch(&inv).expect("e9 quick sweep");
        for name in [
            "e9_fault_violations.csv",
            "e9_fault_energy_per_qos.csv",
            "e9_fault_summary.csv",
        ] {
            let csv = std::fs::read_to_string(dir.join(name)).expect(name);
            assert!(csv.contains("rlpm + watchdog"), "{name}: {csv}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_then_replay_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("rlpm-sim-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audio.trace.csv");
        let path_str = path.to_str().unwrap().to_owned();

        let inv = parse([
            "record".to_owned(),
            "audio".to_owned(),
            "--secs".to_owned(),
            "3".to_owned(),
            "--out".to_owned(),
            path_str.clone(),
        ])
        .unwrap();
        dispatch(&inv).expect("record");

        let inv = parse([
            "replay".to_owned(),
            "powersave".to_owned(),
            "--trace-file".to_owned(),
            path_str,
            "--scenario".to_owned(),
            "audio".to_owned(),
        ])
        .unwrap();
        dispatch(&inv).expect("replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_then_eval_round_trips_a_policy_file() {
        let dir = std::env::temp_dir().join("rlpm-sim-test-policy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.bin");
        let path_str = path.to_str().unwrap().to_owned();

        let inv = parse([
            "train".to_owned(),
            "audio".to_owned(),
            "--episodes".to_owned(),
            "2".to_owned(),
            "--episode-secs".to_owned(),
            "5".to_owned(),
            "--out".to_owned(),
            path_str.clone(),
        ])
        .unwrap();
        dispatch(&inv).expect("train");

        let inv = parse([
            "eval".to_owned(),
            "audio".to_owned(),
            "--policy-file".to_owned(),
            path_str,
            "--secs".to_owned(),
            "5".to_owned(),
        ])
        .unwrap();
        dispatch(&inv).expect("eval");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
