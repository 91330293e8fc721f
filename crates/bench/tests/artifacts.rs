//! The committed `BENCH_*.json` artifacts at the repository root stay
//! readable by the repository's own JSON parser: each one parses with
//! `clockwork::json::parse` to a non-empty object.

use clockwork::json::{self, Value};

/// The artifact every harness binary writes by default.
const ARTIFACTS: [&str; 7] = [
    "BENCH_batch.json",
    "BENCH_blame.json",
    "BENCH_chaos.json",
    "BENCH_chaos_compare.json",
    "BENCH_fleet.json",
    "BENCH_scenarios.json",
    "BENCH_shard.json",
];

#[test]
fn every_root_artifact_parses_to_a_non_empty_object() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let found: Vec<String> = std::fs::read_dir(&root)
        .expect("the repository root is readable")
        .map(|entry| entry.expect("a directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    for name in ARTIFACTS {
        assert!(found.iter().any(|f| f == name), "{name} is missing");
    }
    for name in &found {
        let text = std::fs::read_to_string(root.join(name)).expect("artifact is readable");
        match json::parse(&text) {
            Ok(Value::Obj(members)) => assert!(!members.is_empty(), "{name} is an empty object"),
            Ok(other) => panic!("{name}: top level is not an object: {other:?}"),
            Err(e) => panic!("{name} does not parse: {e}"),
        }
    }
}
