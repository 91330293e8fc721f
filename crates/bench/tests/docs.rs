//! This crate's `README.md` documents every binary it builds: each file in
//! `src/bin/` heads a section of its own, `` ## `name` ``, and each named
//! grid of `grid` a subsection of that one, `` ### `grid NAME` ``, so a new
//! binary or grid cannot land undocumented. Every `--flag` a binary's
//! section names is in the usage line that binary prints, so a removed flag
//! cannot linger in the documents.

use std::path::Path;
use std::process::Command;

/// Every binary with the path Cargo built it at.
const BINARIES: [(&str, &str); 3] = [
    ("grid", env!("CARGO_BIN_EXE_grid")),
    ("paper", env!("CARGO_BIN_EXE_paper")),
    ("trace_blame", env!("CARGO_BIN_EXE_trace_blame")),
];

fn readme() -> String {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(manifest.join("README.md")).expect("README is readable")
}

/// The lines of the section headed `` ## `name` ``, up to the next `## `
/// heading; empty when there is no such section.
fn section<'a>(readme: &'a str, name: &str) -> Vec<&'a str> {
    let heading = format!("## `{name}`");
    readme
        .lines()
        .skip_while(|line| !line.starts_with(&heading))
        .enumerate()
        .take_while(|&(i, line)| i == 0 || !line.starts_with("## "))
        .map(|(_, line)| line)
        .collect()
}

/// The usage line `binary` prints to stderr when given a flag it lacks.
fn usage(binary: &str) -> String {
    let output = Command::new(binary)
        .arg("--no-such-flag")
        .output()
        .expect("the binary starts");
    assert_eq!(output.status.code(), Some(2), "{binary} rejects the flag");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    let usage = stderr.lines().find_map(|l| l.strip_prefix("usage: "));
    usage.expect("stderr holds a usage line").to_string()
}

/// Every `--flag` on `line` that the binary takes: on a `cargo` command
/// line, only those after its ` -- `.
fn flags(line: &str) -> Vec<String> {
    let line = match line.split_once(" -- ") {
        Some((cargo, args)) if cargo.contains("cargo ") => args,
        _ if line.contains("cargo ") => "",
        _ => line,
    };
    line.match_indices("--")
        .filter(|&(at, _)| at == 0 || !line.as_bytes()[at - 1].is_ascii_alphanumeric())
        .map(|(at, _)| {
            let name = line[at + 2..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-');
            format!("--{}", name.collect::<String>())
        })
        .filter(|flag| flag.len() > 2 && !flag.starts_with("---"))
        .collect()
}

#[test]
fn every_binary_heads_a_readme_section() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
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
    assert_eq!(binaries, BINARIES.map(|(name, _)| name));
    let readme = readme();
    let missing: Vec<&String> = binaries
        .iter()
        .filter(|bin| section(&readme, bin).is_empty())
        .collect();
    assert!(
        missing.is_empty(),
        "README.md has no section for {missing:?}"
    );
}

#[test]
fn every_grid_heads_a_subsection_of_the_grid_section() {
    let usage = usage(BINARIES[0].1);
    let (_, names) = usage.split_once('{').expect("the usage lists the grids");
    let (names, _) = names.split_once('}').expect("the list is closed");
    let readme = readme();
    let grid = section(&readme, "grid");
    for name in names.split('|') {
        let heading = format!("### `grid {name}`");
        assert!(
            grid.iter().any(|line| line.starts_with(&heading)),
            "the `grid` section has no subsection for {name}"
        );
    }
}

#[test]
fn every_flag_the_readme_names_for_a_binary_is_in_its_usage() {
    let readme = readme();
    for (name, path) in BINARIES {
        let usage = usage(path);
        let taken = flags(&usage);
        for line in section(&readme, name) {
            for flag in flags(line) {
                assert!(
                    taken.contains(&flag),
                    "the README's `{name}` section names {flag}, which `{usage}` lacks"
                );
            }
        }
    }
}

#[test]
fn flags_are_read_off_the_binary_s_part_of_a_line() {
    assert_eq!(
        flags("cargo run --release --bin grid -- batch --seed 3"),
        ["--seed"]
    );
    assert_eq!(
        flags("cargo run --release -p bench --bin paper"),
        [] as [&str; 0]
    );
    assert_eq!(flags("`--out PATH` (a `--x`-style flag)"), ["--out", "--x"]);
    assert_eq!(flags("| --- | -- a|b--c"), [] as [&str; 0]);
}
