//! The committed `BENCH_*.json` artifacts at the repository root stay
//! readable by the repository's own JSON parser: each one parses with
//! `clockwork::json::parse` to a non-empty object. The root holds exactly
//! the artifacts the harness binaries write, so a deleted harness's artifact
//! cannot linger. Every `BENCH_batch.json` cell accounts for each of its
//! rejections under one reason.

use clockwork::json::{self, Value};

/// The artifact every harness binary writes by default.
const ARTIFACTS: [&str; 5] = [
    "BENCH_batch.json",
    "BENCH_blame.json",
    "BENCH_chaos_compare.json",
    "BENCH_scenarios.json",
    "BENCH_shard.json",
];

fn root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_root_artifact_parses_to_a_non_empty_object() {
    let root = root();
    let mut found: Vec<String> = std::fs::read_dir(&root)
        .expect("the repository root is readable")
        .map(|entry| entry.expect("a directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    found.sort();
    assert_eq!(
        found, ARTIFACTS,
        "root artifacts differ from what the binaries write"
    );
    for name in &found {
        let text = std::fs::read_to_string(root.join(name)).expect("artifact is readable");
        match json::parse(&text) {
            Ok(Value::Obj(members)) => assert!(!members.is_empty(), "{name} is an empty object"),
            Ok(other) => panic!("{name}: top level is not an object: {other:?}"),
            Err(e) => panic!("{name} does not parse: {e}"),
        }
    }
}

#[test]
fn every_batch_cell_accounts_for_its_rejections_by_reason() {
    let text = std::fs::read_to_string(root().join("BENCH_batch.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    let mut cells = 0;
    for load in doc.get("loads").unwrap().as_arr("loads").unwrap() {
        let multiplier = load
            .get("multiplier")
            .unwrap()
            .as_f64("multiplier")
            .unwrap();
        let Value::Obj(disciplines) = load.get("disciplines").unwrap() else {
            panic!("`disciplines` is not an object");
        };
        for (name, cell) in disciplines {
            let Value::Obj(reasons) = cell.get("rejected_by_reason").unwrap() else {
                panic!("{name}: `rejected_by_reason` is not an object");
            };
            let by_reason: u64 = reasons.iter().map(|(k, n)| n.as_u64(k).unwrap()).sum();
            let rejected = cell.get("rejected").unwrap().as_u64("rejected").unwrap();
            assert_eq!(by_reason, rejected, "{name} @{multiplier}x");
            cells += 1;
        }
    }
    assert_eq!(cells, 20, "4 loads x 5 disciplines");
}
