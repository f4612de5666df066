//! Identical concurrent `simulate` requests coalesce: one computes the
//! cell and the others wait for its cache entry (PROTOCOL.md §
//! Coalescing). A test binary of its own, because the cache and its
//! counters are process-global.

use std::sync::{Arc, Barrier};

use rlpm_serve::json::Value;
use rlpm_serve::proto::{Request, Response, SimulateSpec};
use rlpm_serve::Service;

#[test]
fn identical_cold_simulates_compute_once() {
    let dir = std::env::temp_dir().join(format!("rlpm-serve-coalesce-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    experiments::cache::configure(Some(dir.clone()));
    experiments::cache::clear_memo();
    experiments::cache::reset_stats();

    // A baseline policy, so the cell is the only cache entry.
    let request = Request::Simulate(SimulateSpec {
        scenario: "video".into(),
        policy: "ondemand".into(),
        soc: "xu3".into(),
        secs: 10,
        seed: 42,
    });
    let service = Arc::new(Service::new());
    let start = Arc::new(Barrier::new(2));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let (service, start, request) =
                (Arc::clone(&service), Arc::clone(&start), request.clone());
            std::thread::spawn(move || {
                start.wait();
                service.handle(&request).response
            })
        })
        .collect();
    let responses: Vec<Response> = clients
        .into_iter()
        .map(|c| c.join().expect("request thread"))
        .collect();

    let Response::Result { payload } = service.handle(&Request::Status).response else {
        panic!("status must succeed");
    };
    let cache = payload.get("cache").expect("cache counters");
    let count = |name: &str| cache.get(name).and_then(Value::as_u64);
    assert_eq!(
        (count("misses"), count("stores")),
        (Some(1), Some(1)),
        "one request computes and stores the cell: {cache:?}"
    );
    assert!(
        matches!(responses[0], Response::Result { .. }),
        "{:?}",
        responses[0]
    );
    assert_eq!(
        responses[0], responses[1],
        "both requests get the same payload"
    );

    experiments::cache::configure(None);
    let _ = std::fs::remove_dir_all(&dir);
}
