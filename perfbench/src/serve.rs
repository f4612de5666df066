//! `serve-warm`: an in-process `rlpm_serve::Server` on a Unix socket, its
//! cache warmed during set-up, under a closed loop of one client on one
//! persistent connection.
//!
//! The simulator does no work here, so latency comes from `rlpm-serve`,
//! scheduler dispatch and the cache's read path. The loop is closed
//! because every current caller waits for its reply. Its operation, the
//! one `latency_p50_ms` times, is one round trip.
//!
//! Every request is a warm quick-E1 `eval`: that is the repository's
//! own serve traffic (`bench`'s `serve_load` and the CI smoke test), and
//! no caller sends other types in known proportions.
//!
//! One client, because with two the p99 and the throughput depend on the
//! clients' phase. Each request waits for 25 ms without progress events
//! before it is answered, and progress events reach every connection, so
//! a request whose wait overlaps the other client's next request waits a
//! second 25 ms. Whether about 1% of requests did so set the p99 at 28 or
//! 52 ms from run to run, whatever the mix of request types.

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use experiments::cache;
use experiments::e1_energy_per_qos::{run_e1, E1Config};
use rlpm_serve::json::{self, Value};
use rlpm_serve::{client, proto, Server, Service};
use soc::SocConfig;

use crate::measure::{median, secs, tail, MIN_TAIL};
use crate::report::Report;
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// The request line with id `id`.
fn eval_line(id: u64) -> String {
    Value::Obj(vec![
        ("type".into(), Value::str("eval")),
        ("quick".into(), Value::Bool(true)),
        ("id".into(), Value::num_u64(id)),
    ])
    .render()
}

/// Whether `response` answers request `id` with the E1 table `csv`.
fn answers(csv: &str, id: u64, response: &Value) -> bool {
    response.get("type").and_then(Value::as_str) == Some("result")
        && response.get("id").and_then(Value::as_u64) == Some(id)
        && response
            .get("payload")
            .and_then(|p| p.get("csv"))
            .and_then(Value::as_str)
            == Some(csv)
}

/// The expected answer, computed directly from the library with the
/// cache off.
fn expected_csv() -> Result<String, String> {
    let xu3 = SocConfig::odroid_xu3_like().map_err(|e| format!("SoC preset: {e}"))?;
    cache::configure(None);
    Ok(run_e1(&xu3, &E1Config::quick())
        .energy_per_qos_table()
        .to_csv())
}

/// A bound server running on its own thread.
struct Running {
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

/// Binds a server over the cache directory `dir` and warms the cache with
/// one `eval`, computing what `dir` lacks. The cache is process-wide, so
/// warming it through the library on this thread serves the server too,
/// and keeps the warm-up's allocations off short-lived connection
/// threads, whose allocator arenas would make the peak RSS vary from run
/// to run.
fn start(args: &Args, dir: &Path, csv: &str, report: &mut Report) -> Result<Running, String> {
    cache::clear_memo();
    cache::configure(Some(dir.to_path_buf()));
    let socket = args.work.join("serve.sock");
    let server = Server::bind(&socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
    let thread = std::thread::spawn(move || server.run());
    let (response, _) = in_process(&Service::new(), &eval_line(0))?;
    report.check(answers(csv, 0, &response), || {
        format!("warm-up answer {} is wrong", response.render())
    });
    Ok(Running { socket, thread })
}

/// Serves `line` through `service` without the server: parse and
/// validate, handle, render and parse the response back. Returns the
/// response and the `(codec, handle)` times.
fn in_process(service: &Service, line: &str) -> Result<(Value, (Duration, Duration)), String> {
    let t = Instant::now();
    let envelope = json::parse(line)
        .map_err(|e| e.to_string())
        .and_then(|v| proto::parse_request(&v).map_err(|e| e.message))?;
    let parsed = t.elapsed();
    let t = Instant::now();
    let handled = service.handle(&envelope.request);
    let handle = t.elapsed();
    let t = Instant::now();
    let response =
        json::parse(&handled.response.render(&envelope.id)).map_err(|e| e.to_string())?;
    Ok((response, (parsed + t.elapsed(), handle)))
}

fn stop(running: Running, report: &mut Report) -> Result<(), String> {
    let response = client::request_over_socket(&running.socket, r#"{"type":"shutdown"}"#, |_| {})
        .map_err(|e| format!("shutdown: {e}"))?;
    report.check(
        response.get("type").and_then(Value::as_str) == Some("result"),
        || format!("shutdown answered {}", response.render()),
    );
    match running.thread.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server: {e}")),
        Err(_) => Err("server thread panicked".into()),
    }
}

/// One persistent client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let writer = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        // A hung server fails the run instead of stalling it.
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { reader, writer })
    }

    /// One request; returns the terminal response and the events seen.
    fn roundtrip(&mut self, line: &str) -> Result<(Value, u64), String> {
        let mut events = 0;
        let response = client::roundtrip(&mut self.reader, &mut self.writer, line, |_| events += 1)
            .map_err(|e| format!("round trip: {e}"))?;
        Ok((response, events))
    }
}

/// One round trip as the closed loop saw it.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    /// Socket round trip (s).
    rt: f64,
    /// In-process `Service::handle` on the same request (s); traced only.
    handle: f64,
    /// Request parse + validation, response render + parse (s); traced only.
    codec: f64,
    /// Events received before the response.
    events: u64,
}

/// A closed-loop window: every sample and the window's wall time.
struct Window {
    samples: Vec<Sample>,
    wall: f64,
}

/// Runs the closed loop for `--seconds` on one connection. Traced, each
/// round trip is preceded by the same request parsed, handled in-process
/// by `service` and rendered, each timed.
fn closed_loop(
    args: &Args,
    socket: &Path,
    csv: &str,
    service: Option<&Service>,
    report: &mut Report,
) -> Result<Window, String> {
    let mut conn = Conn::open(socket)?;
    let mut samples = Vec::new();
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let id = samples.len() as u64 + 1;
        let line = eval_line(id);
        let mut sample = Sample::default();
        if let Some(service) = service {
            let (local, (codec, handle)) = in_process(service, &line)?;
            sample.codec = secs(codec);
            sample.handle = secs(handle);
            report.check(answers(csv, id, &local), || {
                format!("in-process answer {}", local.render())
            });
        }
        let t = Instant::now();
        let (response, events) = conn.roundtrip(&line)?;
        sample.rt = secs(t.elapsed());
        sample.events = events;
        report.check(answers(csv, id, &response), || {
            format!("answer to {line}: {}", response.render())
        });
        samples.push(sample);
    }
    Ok(Window {
        samples,
        wall: secs(start.elapsed()),
    })
}

/// Runs `serve-warm`.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let retries_before = experiments::retry_count();
    let csv = expected_csv()?;
    // The first start computes the cells into an empty cache directory.
    // The timed ones start over that directory, as a restarted server
    // does, and warm the cache from disk: a cold warm-up's two-worker
    // compute took about 40 or about 80 ms depending on the process, so
    // ten-run medians jumped between the two.
    let dir = args.work.join("serve-cache");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut running = start(args, &dir, &csv, report)?;
    let mut setup_times = Vec::new();
    for _ in 0..SETUPS {
        stop(running, report)?;
        let t = Instant::now();
        running = start(args, &dir, &csv, report)?;
        setup_times.push(secs(t.elapsed()));
    }

    let before = cache::stats();
    let untraced = closed_loop(args, &running.socket, &csv, None, report);
    let traced = match (&untraced, args.trace) {
        (Ok(_), true) => Some(closed_loop(
            args,
            &running.socket,
            &csv,
            Some(&Service::new()),
            report,
        )),
        _ => None,
    };
    let after = cache::stats();
    let bytes_stored = crate::measure::dir_bytes(&dir);
    stop(running, report)?;
    cache::configure(None);
    let untraced = untraced?;

    let ms = |v: f64| v * 1e3;
    let rts: Vec<f64> = untraced.samples.iter().map(|s| ms(s.rt)).collect();
    let n = rts.len();
    report.metric("setup_s", median(&setup_times), setup_times.len());
    report.metric("latency_p50_ms", median(&rts), n);
    let tail = match tail(&rts) {
        Some((p, v)) => format!("p{p:.1} {v:.3} ms ({MIN_TAIL} samples beyond it)"),
        None => format!("no percentile has {MIN_TAIL} samples beyond it"),
    };
    report.note(format!(
        "round trips: n={n}, {:.3} per second, {tail}",
        n as f64 / untraced.wall
    ));

    if let Some(traced) = traced {
        let traced = traced?;
        let t = &traced.samples;
        let n = t.len();
        let column = |f: fn(&Sample) -> f64| t.iter().map(f).collect::<Vec<f64>>();
        report.metric(
            "rlpm-serve.service.handle_ms",
            ms(median(&column(|s| s.handle))),
            n,
        );
        report.metric(
            "rlpm-serve.json.codec_us",
            median(&column(|s| s.codec)) * 1e6,
            n,
        );
        report.metric(
            "rlpm-serve.server.transport_ms",
            ms(median(&column(|s| s.rt - s.handle - s.codec))),
            n,
        );
        report.metric(
            "rlpm-serve.events_per_request",
            t.iter().map(|s| s.events as f64).sum::<f64>() / n.max(1) as f64,
            n,
        );
        report.metric(
            "experiments.cache.hits",
            (after.hits - before.hits) as f64,
            1,
        );
        report.metric(
            "experiments.cache.misses",
            (after.misses - before.misses) as f64,
            1,
        );
        report.metric(
            "experiments.cache.stores",
            (after.stores - before.stores) as f64,
            1,
        );
        report.metric("experiments.cache.bytes_stored", bytes_stored as f64, 1);
        let per_request = |w: &Window| w.wall / w.samples.len().max(1) as f64;
        report.metric(
            "trace.overhead_ratio",
            per_request(&traced) / per_request(&untraced) - 1.0,
            n,
        );
        let covered: f64 = t.iter().map(|s| s.rt + s.handle + s.codec).sum();
        report.metric("trace.unattributed_ratio", 1.0 - covered / traced.wall, n);
    }
    report.metric(
        "experiments.sched.retries",
        (experiments::retry_count() - retries_before) as f64,
        1,
    );
    // Warm answers: no simulation, so no simulator layer runs.
    report.not_measured(&[
        "workload.arrivals_s",
        "workload.qos_s",
        "workload.jobs",
        "soc.step_s",
        "soc.active_step_s",
        "soc.idle_step_s",
        "soc.observe_s",
        "soc.batch.parked_ratio",
        "governors.decide_s",
        "governors.decides",
        "rlpm.train_s",
        "rlpm.decide_s",
        "rlpm.td_updates",
        "experiments.runner.rest_s",
        "experiments.sched.busy_ratio",
        "experiments.cache.warm_pass_s",
    ]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: u64, payload: Value) -> Value {
        Value::Obj(vec![
            ("type".into(), Value::str("result")),
            ("id".into(), Value::num_u64(id)),
            ("payload".into(), payload),
        ])
    }

    #[test]
    fn answers_fail_on_corrupted_expectations() {
        let csv = result(
            4,
            Value::Obj(vec![("csv".into(), Value::str("a,b\n1,2\n"))]),
        );
        assert!(answers("a,b\n1,2\n", 4, &csv));
        assert!(!answers("a,b\n1,3\n", 4, &csv));
        assert!(!answers("a,b\n1,2\n", 5, &csv), "id must echo");
        let error = Value::Obj(vec![
            ("type".into(), Value::str("error")),
            ("id".into(), Value::num_u64(4)),
        ]);
        assert!(!answers("a,b\n1,2\n", 4, &error));
    }

    #[test]
    fn eval_line_is_a_valid_quick_eval_request() {
        let envelope = proto::parse_request(&json::parse(&eval_line(7)).expect("json"))
            .expect("valid request");
        assert_eq!(envelope.request.wire_name(), "eval");
        assert_eq!(envelope.id, Value::num_u64(7));
    }
}
