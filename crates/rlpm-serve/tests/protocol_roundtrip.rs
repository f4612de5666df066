//! End-to-end protocol round-trips against a live in-process server.
//!
//! One big serialized test: the result cache and quarantine report are
//! process-wide, so the scenarios share a single server and run in a
//! fixed order — cold `eval` first, byte-identity against the library
//! path second, error paths and shutdown last.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rlpm_serve::client::{request_over_socket, roundtrip};
use rlpm_serve::json::Value;
use rlpm_serve::proto::{MAX_LINE_BYTES, PROTOCOL_VERSION};
use rlpm_serve::Server;

use experiments::e1_energy_per_qos::{run_e1, E1Config};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rlpm-serve-test-{tag}-{}", std::process::id()))
}

fn response_type(v: &Value) -> &str {
    v.get("type").and_then(Value::as_str).unwrap_or("")
}

fn error_code(v: &Value) -> &str {
    v.get("code").and_then(Value::as_str).unwrap_or("")
}

#[test]
fn protocol_round_trips_against_a_live_server() {
    // Fresh cache so the cold eval genuinely computes (and emits
    // progress); quick E1 keeps the computation CI-sized.
    let cache_dir = scratch("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    experiments::cache::configure(Some(cache_dir.clone()));

    let socket = scratch("sock").with_extension("sock");
    let server = Server::bind(&socket).expect("bind test socket");
    let server_thread = std::thread::spawn(move || server.run());

    // --- Version negotiation. ---
    let resp = request_over_socket(
        &socket,
        &format!("{{\"type\":\"hello\",\"version\":{PROTOCOL_VERSION}}}"),
        |_| {},
    )
    .unwrap();
    assert_eq!(response_type(&resp), "hello-ok");
    assert_eq!(
        resp.get("version").and_then(Value::as_u64),
        Some(PROTOCOL_VERSION)
    );
    let resp =
        request_over_socket(&socket, "{\"type\":\"hello\",\"version\":999}", |_| {}).unwrap();
    assert_eq!(response_type(&resp), "error");
    assert_eq!(error_code(&resp), "unsupported-version");

    // --- Cold eval: progress streams while the sweep computes, and the
    // CSV matches the library path byte for byte. The connection stays
    // open for the status polls below. ---
    let stream = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut events: Vec<(String, String)> = Vec::new();
    let mut progress_done: Vec<(u64, u64)> = Vec::new();
    let resp = roundtrip(
        &mut reader,
        &mut writer,
        "{\"type\":\"eval\",\"experiment\":\"e1\",\"quick\":true,\"id\":\"cold\"}",
        |e| {
            events.push((
                response_type(e).to_string(),
                e.get("source")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            ));
            if response_type(e) == "progress" {
                progress_done.push((
                    e.get("done").and_then(Value::as_u64).unwrap(),
                    e.get("total").and_then(Value::as_u64).unwrap(),
                ));
            }
        },
    )
    .unwrap();
    assert_eq!(response_type(&resp), "result", "eval failed: {resp:?}");
    assert_eq!(
        resp.get("id").and_then(Value::as_str),
        Some("cold"),
        "id echoed on the terminal response"
    );
    let served_csv = resp
        .get("payload")
        .and_then(|p| p.get("csv"))
        .and_then(Value::as_str)
        .expect("eval payload carries csv")
        .to_string();
    assert_eq!(
        events.first().map(|(t, _)| t.as_str()),
        Some("accepted"),
        "accepted precedes everything: {events:?}"
    );
    assert!(
        events.iter().any(|(t, s)| t == "progress" && s == "e1"),
        "cold eval must stream e1 progress, got {events:?}"
    );
    // Exactly the request's own batch: one event per cell.
    assert!(
        events.iter().all(|(t, s)| t != "progress" || s == "e1"),
        "only the request's own batch reports: {events:?}"
    );
    let total = progress_done.first().map_or(0, |&(_, total)| total);
    let mut done: Vec<u64> = progress_done.iter().map(|&(done, _)| done).collect();
    done.sort_unstable();
    assert_eq!(done, (1..=total).collect::<Vec<_>>(), "{progress_done:?}");

    // --- Warm eval on the same connection: the same request thread runs
    // it, and it sees exactly its own accepted, one progress event per
    // cell of the quick matrix, and its result; nothing of the cold
    // request arrives. ---
    let mut warm_events: Vec<Value> = Vec::new();
    let resp = roundtrip(
        &mut reader,
        &mut writer,
        "{\"type\":\"eval\",\"experiment\":\"e1\",\"quick\":true,\"id\":\"warm\"}",
        |e| warm_events.push(e.clone()),
    )
    .unwrap();
    assert_eq!(response_type(&resp), "result", "warm eval failed: {resp:?}");
    assert_eq!(resp.get("id").and_then(Value::as_str), Some("warm"));
    assert_eq!(
        resp.get("payload")
            .and_then(|p| p.get("csv"))
            .and_then(Value::as_str),
        Some(served_csv.as_str()),
        "warm answer equals the cold one"
    );
    let ids: Vec<Option<&str>> = warm_events
        .iter()
        .map(|e| e.get("id").and_then(Value::as_str))
        .collect();
    assert!(
        ids.iter().all(|&id| id == Some("warm")),
        "only the warm request's events: {warm_events:?}"
    );
    assert_eq!(
        warm_events.first().map(response_type),
        Some("accepted"),
        "{warm_events:?}"
    );
    let quick = E1Config::quick();
    let cells = quick.scenarios.len() * quick.policies.len() * quick.seeds.len();
    let mut warm_done = Vec::new();
    for e in warm_events.iter().skip(1) {
        assert_eq!(response_type(e), "progress", "{warm_events:?}");
        assert_eq!(e.get("source").and_then(Value::as_str), Some("e1"));
        assert_eq!(
            e.get("total").and_then(Value::as_u64),
            Some(cells as u64),
            "{e:?}"
        );
        warm_done.push(e.get("done").and_then(Value::as_u64).unwrap_or(0));
    }
    warm_done.sort_unstable();
    assert_eq!(warm_done, (1..=cells as u64).collect::<Vec<_>>());

    // --- Status polls on the same connection: no progress of the eval
    // trails its result, and no request waits on a timer. ---
    let started = Instant::now();
    for i in 0..40u64 {
        let mut trailing: Vec<Value> = Vec::new();
        let resp = roundtrip(
            &mut reader,
            &mut writer,
            &format!("{{\"type\":\"status\",\"id\":{i}}}"),
            |e| trailing.push(e.clone()),
        )
        .unwrap();
        assert_eq!(response_type(&resp), "result", "status failed: {resp:?}");
        assert_eq!(resp.get("id").and_then(Value::as_u64), Some(i));
        assert!(
            matches!(trailing.as_slice(), [e] if response_type(e) == "accepted"
                && e.get("id").and_then(Value::as_u64) == Some(i)),
            "status {i} saw events besides its own accepted: {trailing:?}"
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "40 status round trips took {elapsed:?}"
    );
    // Close the connection: shutdown joins every connection thread.
    drop((reader, writer));

    let soc = soc::SocConfig::odroid_xu3_like().expect("preset is valid");
    let expected_csv = run_e1(&soc, &E1Config::quick())
        .energy_per_qos_table()
        .to_csv();
    assert_eq!(served_csv, expected_csv, "served CSV diverged from run_e1");

    // --- Warm eval: identical answer, now cache-served. ---
    let resp = request_over_socket(
        &socket,
        "{\"type\":\"eval\",\"experiment\":\"e1\",\"quick\":true}",
        |_| {},
    )
    .unwrap();
    assert_eq!(
        resp.get("payload")
            .and_then(|p| p.get("csv"))
            .and_then(Value::as_str),
        Some(expected_csv.as_str())
    );
    let resp = request_over_socket(&socket, "{\"type\":\"status\"}", |_| {}).unwrap();
    let cache = resp.get("payload").and_then(|p| p.get("cache")).unwrap();
    assert_eq!(cache.get("enabled").and_then(Value::as_bool), Some(true));
    assert!(
        cache.get("hits").and_then(Value::as_u64).unwrap_or(0) > 0,
        "warm eval must hit the cache: {resp:?}"
    );

    // --- Simulate: a cheap baseline cell returns typed metrics. ---
    let resp = request_over_socket(
        &socket,
        "{\"type\":\"simulate\",\"scenario\":\"idle\",\"policy\":\"ondemand\",\"secs\":2}",
        |_| {},
    )
    .unwrap();
    assert_eq!(response_type(&resp), "result", "simulate failed: {resp:?}");
    let metrics = resp.get("payload").and_then(|p| p.get("metrics")).unwrap();
    assert!(metrics.get("energy-j").and_then(Value::as_f64).unwrap() > 0.0);
    assert!(metrics.get("epochs").and_then(Value::as_u64).unwrap() > 0);

    // --- Typed rejection of bad requests. ---
    let resp = request_over_socket(
        &socket,
        "{\"type\":\"simulate\",\"scenario\":\"quake\",\"id\":3}",
        |_| {},
    )
    .unwrap();
    assert_eq!(error_code(&resp), "bad-request");
    assert_eq!(resp.get("id").and_then(Value::as_u64), Some(3));
    let resp = request_over_socket(&socket, "{\"type\":\"frobnicate\"}", |_| {}).unwrap();
    assert_eq!(error_code(&resp), "unknown-type");

    // --- Malformed JSON: typed error, connection survives for the next
    // request on the same stream. ---
    {
        let stream = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let resp = roundtrip(&mut reader, &mut writer, "not json at all", |_| {}).unwrap();
        assert_eq!(error_code(&resp), "bad-json");
        let resp = roundtrip(&mut reader, &mut writer, "{\"type\":\"status\"}", |_| {}).unwrap();
        assert_eq!(
            response_type(&resp),
            "result",
            "connection must survive bad JSON"
        );
    }

    // --- Oversized line: rejected and discarded, connection survives. ---
    {
        let stream = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let huge = vec![b'a'; MAX_LINE_BYTES + 16];
        writer.write_all(&huge).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = rlpm_serve::json::parse(line.trim_end()).unwrap();
        assert_eq!(error_code(&resp), "oversized-line");
        let resp = roundtrip(&mut reader, &mut writer, "{\"type\":\"status\"}", |_| {}).unwrap();
        assert_eq!(
            response_type(&resp),
            "result",
            "connection must survive an oversized line"
        );
    }

    // --- Abrupt disconnect mid-line: the server thread must not die. ---
    {
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream.write_all(b"{\"type\":\"stat").unwrap();
        // Dropping the stream closes the connection with an unterminated
        // partial line in flight.
    }
    let resp = request_over_socket(&socket, "{\"type\":\"status\"}", |_| {}).unwrap();
    assert_eq!(
        response_type(&resp),
        "result",
        "server must survive an abrupt disconnect"
    );

    // --- A quarantined request on a persistent connection: a typed
    // error, and the connection's request thread serves on. ---
    {
        simkit::failpoint::configure(Some(
            simkit::FailpointPlan::parse("sched/job=@0:panic").expect("valid plan"),
        ));
        let stream = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let resp = roundtrip(
            &mut reader,
            &mut writer,
            "{\"type\":\"eval\",\"experiment\":\"e1\",\"quick\":true}",
            |_| {},
        );
        let status = roundtrip(&mut reader, &mut writer, "{\"type\":\"status\"}", |_| {});
        simkit::failpoint::configure(None);
        let resp = resp.unwrap();
        assert_eq!(error_code(&resp), "quarantined", "{resp:?}");
        assert_eq!(
            resp.get("payload")
                .and_then(|p| p.get("cells"))
                .and_then(Value::as_u64),
            Some(1),
            "{resp:?}"
        );
        assert_eq!(
            response_type(&status.unwrap()),
            "result",
            "the connection serves on after a quarantined request"
        );
    }

    // --- Graceful shutdown: acknowledged, then the listener stops and
    // the socket file is removed. ---
    let resp = request_over_socket(&socket, "{\"type\":\"shutdown\"}", |_| {}).unwrap();
    assert_eq!(response_type(&resp), "result");
    assert_eq!(
        resp.get("payload")
            .and_then(|p| p.get("stopping"))
            .and_then(Value::as_bool),
        Some(true)
    );
    server_thread
        .join()
        .expect("server thread joins")
        .expect("server run loop exits cleanly");
    assert!(!socket.exists(), "socket file removed on shutdown");

    let _ = std::fs::remove_dir_all(&cache_dir);
}
