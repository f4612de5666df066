//! The committed `BENCH_*.json` files are in the one format their
//! writers produce: each is `Value::render_pretty` of its own parsed
//! value plus a newline, byte for byte. A hand edit, or a writer that
//! drifts from the codec, fails here.

use std::path::{Path, PathBuf};

use bench::simrate::FLEET_WORKLOADS;
use rlpm_serve::json::{self, Value};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(name: &str) -> (String, Value) {
    let path = repo_root().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let value = json::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
    (text, value)
}

#[test]
fn committed_bench_files_are_render_pretty_output() {
    let mut names: Vec<String> = std::fs::read_dir(repo_root())
        .expect("repository root is readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(names, ["BENCH_serve.json", "BENCH_simrate.json"]);
    for name in &names {
        let (text, value) = read(name);
        assert_eq!(
            value.render_pretty() + "\n",
            text,
            "{name} is not what render_pretty writes"
        );
    }
}

#[test]
fn committed_simrate_file_is_an_obs_free_schema_3_fleet_report() {
    let (_, value) = read("BENCH_simrate.json");
    assert_eq!(value.get("schema").and_then(Value::as_u64), Some(3));
    assert_eq!(value.get("obs").and_then(Value::as_bool), Some(false));
    for kind in FLEET_WORKLOADS {
        let fleet = value.get("fleets").and_then(|f| f.get(kind.name()));
        let rate = |key: &str| fleet.and_then(|f| f.get(key)).and_then(Value::as_f64);
        let (looped, batched, speedup) = (rate("looped"), rate("batched"), rate("speedup"));
        assert!(
            matches!((looped, batched, speedup), (Some(l), Some(b), Some(s)) if (b / l - s).abs() < 1e-3),
            "{kind}: looped {looped:?}, batched {batched:?}, speedup {speedup:?}"
        );
    }
}
