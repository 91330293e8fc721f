//! Every workload-zoo preset under every registered discipline.
//!
//! The cheap, always-on counterpart of the bench's `grid scenarios`:
//! each zoo scenario (shortened to a few virtual seconds, churn rescaled to
//! fit) runs under all five disciplines and must uphold the universal
//! invariants from `bench::invariants` — conservation, no over-delivery,
//! exactly-once accounting when drained — and produce a byte-identical
//! response digest when replayed with the same seed. This pins the presets
//! themselves: a preset whose generator loses determinism or whose fault
//! plan breaks accounting fails here, in `cargo test`, not first in CI's
//! bench smoke.

use clockwork::prelude::*;

#[test]
fn every_zoo_preset_runs_clean_under_every_discipline() {
    let mut failures: Vec<String> = Vec::new();
    for preset in ScenarioSpec::zoo() {
        // Shorten for test speed; duration-scaled fault plans are
        // regenerated so the churn still lands inside the run, exactly as
        // `grid scenarios --duration-secs` does.
        let mut spec = preset.with_duration_secs(4);
        spec.faults = spec.zoo_faults();

        let experiment = Experiment::new(spec.clone());
        for factory in bench::disciplines().iter() {
            let label = format!("{}/{}", spec.name, factory.name());
            let (report, ok) = bench::run_cell(&label, &experiment, factory, true);
            if !ok {
                failures.push(format!("{label}: invariant violation or unstable digest"));
            }
            if report.metrics().total_requests == 0 {
                failures.push(format!("{label}: preset generated no traffic"));
            }
        }
    }
    assert!(failures.is_empty(), "zoo matrix failures: {failures:#?}");
}

#[test]
fn zoo_presets_are_distinct_and_self_describing() {
    let zoo = ScenarioSpec::zoo();
    assert_eq!(zoo.len(), 6, "the zoo advertises six scenarios");
    let names: Vec<&str> = zoo.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "diurnal",
            "flash_crowd",
            "zipf_drift",
            "multi_tenant",
            "autoscale_churn",
            "rack_outage"
        ]
    );
    // Every preset must survive the serialize/parse cycle the matrix and
    // fuzz harnesses rely on for repro exchange.
    for spec in &zoo {
        let parsed = ScenarioSpec::from_json(&spec.to_json())
            .unwrap_or_else(|e| panic!("{} does not round-trip: {e}", spec.name));
        assert_eq!(parsed.to_json(), spec.to_json(), "{} drifts", spec.name);
    }
    // The README's `ScenarioSpec` example is the first fenced JSON block of
    // the bench README: it must parse, and be `to_json` output (re-flowed).
    let readme = include_str!("../README.md");
    let example = readme
        .split("```json")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("README has a fenced json block");
    let parsed = ScenarioSpec::from_json(example)
        .unwrap_or_else(|e| panic!("README ScenarioSpec example does not parse: {e}"));
    let compact: String = example.chars().filter(|c| !c.is_whitespace()).collect();
    assert_eq!(parsed.to_json(), compact, "README example drifted");
    assert_eq!(compact, ScenarioSpec::chaos_fleet().to_json());
}
