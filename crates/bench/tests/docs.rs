//! This crate's `README.md` documents every binary it builds: each file in
//! `src/bin/` heads a section of its own, `` ## `name` ``, so a new binary
//! cannot land undocumented.

#[test]
fn every_binary_heads_a_readme_section() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(manifest.join("README.md")).expect("README is readable");
    let mut binaries: Vec<String> = std::fs::read_dir(manifest.join("src/bin"))
        .expect("src/bin is readable")
        .map(|entry| entry.expect("a directory entry").file_name())
        .filter_map(|name| {
            name.into_string()
                .ok()?
                .strip_suffix(".rs")
                .map(String::from)
        })
        .collect();
    binaries.sort();
    assert!(binaries.contains(&"paper".to_string()), "{binaries:?}");
    let missing: Vec<&String> = binaries
        .iter()
        .filter(|bin| {
            let heading = format!("## `{bin}`");
            !readme.lines().any(|line| line.starts_with(&heading))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "README.md has no section for {missing:?}"
    );
}
