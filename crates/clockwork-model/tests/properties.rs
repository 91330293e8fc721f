//! Property-based tests for the model catalogue, the spec helpers and the
//! id-indexed model table.
//!
//! The Appendix A zoo is the ground truth every experiment is seeded from, so
//! these tests pin down its internal consistency (batch latencies behave like
//! real kernels, page math never under-counts).

use std::collections::BTreeMap;

use proptest::prelude::*;

use clockwork_model::spec::ModelSpec;
use clockwork_model::zoo::ModelZoo;
use clockwork_model::{ModelId, ModelTable};
use clockwork_sim::pcie::PcieLink;
use clockwork_sim::time::Nanos;

/// A strategy producing an arbitrary-but-plausible model spec: batch
/// latencies grow with batch size (as every row of Appendix A does) but are
/// otherwise unconstrained.
fn arb_spec() -> impl Strategy<Value = ModelSpec> {
    (
        0.01f64..2000.0,                            // input_kb
        0.01f64..2000.0,                            // output_kb
        1.0f64..400.0,                              // weights_mb
        0.2f64..20.0,                               // batch-1 latency in ms
        proptest::collection::vec(1.05f64..2.0, 4), // growth factor per doubling
    )
        .prop_map(|(input_kb, output_kb, weights_mb, b1_ms, growth)| {
            let mut lat = b1_ms;
            let mut profiles = vec![(1u32, b1_ms)];
            for (i, g) in growth.iter().enumerate() {
                lat *= g;
                profiles.push((2u32 << i, lat));
            }
            ModelSpec::from_millis(
                "synthetic",
                "Synthetic",
                input_kb,
                output_kb,
                weights_mb,
                &profiles,
            )
        })
}

fn zoo_model_index() -> impl Strategy<Value = prop::sample::Index> {
    any::<prop::sample::Index>()
}

proptest! {
    // ------------------------------------------------------------------
    // The Appendix A zoo
    // ------------------------------------------------------------------

    #[test]
    fn zoo_models_are_internally_consistent(idx in zoo_model_index()) {
        let zoo = ModelZoo::new();
        let spec = &zoo.all()[idx.index(zoo.len())];

        // Sizes are positive and unit conversions round-trip sensibly.
        prop_assert!(spec.input_bytes() > 0);
        prop_assert!(spec.output_bytes() > 0);
        prop_assert!(spec.weights_bytes() > 1024 * 1024, "{} has implausibly small weights", spec.name);

        // Batch profiles are sorted, unique, and start at batch 1.
        let batches = spec.supported_batches();
        prop_assert!(!batches.is_empty());
        prop_assert_eq!(batches[0], 1);
        for w in batches.windows(2) {
            prop_assert!(w[0] < w[1], "{} has unsorted batch profiles", spec.name);
        }
        prop_assert_eq!(spec.max_batch(), *batches.last().unwrap());

        // Kernel latency grows with batch size, but sub-linearly: running a
        // batch of 2k is essentially never slower than running two batches
        // of k (that is what makes batching worthwhile). The paper's own
        // measurements have a handful of rows within a few percent of the
        // break-even point (e.g. resnest50 at B4→B8), so allow 10 % slack.
        for w in spec.batch_profiles.windows(2) {
            prop_assert!(w[0].latency <= w[1].latency,
                "{}: latency not monotone in batch size", spec.name);
            let ratio = w[1].batch / w[0].batch;
            let break_even = (w[0].latency * u64::from(ratio)).mul_f64(1.10);
            prop_assert!(w[1].latency <= break_even,
                "{}: batching would be useless between B{} and B{}", spec.name, w[0].batch, w[1].batch);
        }
        let b1_cost = spec.per_request_cost(1).unwrap();
        let bmax_cost = spec.per_request_cost(spec.max_batch()).unwrap();
        prop_assert!(bmax_cost <= b1_cost, "{}: batching never pays off", spec.name);
    }

    #[test]
    fn zoo_lookup_is_a_bijection(idx in zoo_model_index()) {
        let zoo = ModelZoo::new();
        let spec = &zoo.all()[idx.index(zoo.len())];
        let found = zoo.by_name(&spec.name).expect("every listed model is findable by name");
        prop_assert_eq!(found, spec);
        // Family search returns the model under its own family.
        let family = zoo.family(&spec.family);
        prop_assert!(family.iter().any(|m| m.name == spec.name));
    }

    #[test]
    fn zoo_transfer_time_matches_the_paper_within_tolerance(idx in zoo_model_index()) {
        let zoo = ModelZoo::new();
        let link = PcieLink::v100_pcie3();
        let spec = &zoo.all()[idx.index(zoo.len())];
        if let Some(reported_ms) = zoo.reported_transfer_ms(&spec.name) {
            let simulated_ms = spec.weights_transfer_duration(&link).as_millis_f64();
            let rel = (simulated_ms - reported_ms).abs() / reported_ms;
            prop_assert!(rel < 0.08,
                "{}: simulated transfer {:.2} ms vs paper {:.2} ms ({:.1} % off)",
                spec.name, simulated_ms, reported_ms, rel * 100.0);
        }
    }

    // ------------------------------------------------------------------
    // ModelSpec batch selection helpers
    // ------------------------------------------------------------------

    #[test]
    fn batch_for_count_returns_smallest_covering_kernel(spec in arb_spec(), count in 0u32..40) {
        match spec.batch_for_count(count) {
            Some(p) => {
                prop_assert!(count >= 1);
                prop_assert!(p.batch >= count);
                // No smaller supported batch also covers `count`.
                for smaller in spec.supported_batches() {
                    if smaller < p.batch {
                        prop_assert!(smaller < count);
                    }
                }
                prop_assert_eq!(spec.exec_latency(p.batch), Some(p.latency));
            }
            None => {
                prop_assert!(count == 0 || count > spec.max_batch());
            }
        }
    }

    #[test]
    fn largest_batch_within_budget_is_maximal_and_feasible(spec in arb_spec(), budget_us in 0u64..120_000) {
        let budget = Nanos::from_micros(budget_us);
        match spec.largest_batch_within(budget) {
            Some(p) => {
                prop_assert!(p.latency <= budget);
                // Every larger supported batch busts the budget.
                for q in &spec.batch_profiles {
                    if q.batch > p.batch {
                        prop_assert!(q.latency > budget);
                    }
                }
            }
            None => {
                // Not even batch 1 fits.
                prop_assert!(spec.exec_latency(1).unwrap() > budget);
            }
        }
    }

    #[test]
    fn weights_pages_cover_weights_without_waste(spec in arb_spec(), page_mb in 1u64..64) {
        let page = page_mb * 1024 * 1024;
        let pages = spec.weights_pages(page);
        prop_assert!(pages * page >= spec.weights_bytes());
        prop_assert!((pages.saturating_sub(1)) * page < spec.weights_bytes());
    }

    // ------------------------------------------------------------------
    // The model table
    // ------------------------------------------------------------------

    #[test]
    fn model_table_matches_an_ordered_map(ops in proptest::collection::vec((0u8..4, 0u32..48, any::<u32>()), 0..200)) {
        let mut table: ModelTable<u32> = ModelTable::default();
        let mut oracle: BTreeMap<ModelId, u32> = BTreeMap::new();
        for (op, id, value) in ops {
            let id = ModelId(id);
            match op {
                0 => {
                    table.insert(id, value);
                    oracle.insert(id, value);
                }
                1 => {
                    let (t, o) = (table.get_or_default(id), oracle.entry(id).or_default());
                    prop_assert_eq!(*t, *o);
                    *t = t.wrapping_add(value);
                    *o = o.wrapping_add(value);
                }
                2 => {
                    let (t, o) = (table.get_mut(id), oracle.get_mut(&id));
                    prop_assert_eq!(t.as_deref(), o.as_deref());
                    if let (Some(t), Some(o)) = (t, o) {
                        *t ^= value;
                        *o ^= value;
                    }
                }
                _ => prop_assert_eq!(table.get(id), oracle.get(&id)),
            }
            prop_assert_eq!(table.len(), oracle.len());
            prop_assert_eq!(table.is_empty(), oracle.is_empty());
        }
        prop_assert!(table.iter().eq(oracle.iter().map(|(&id, v)| (id, v))));
        prop_assert!(table.values().eq(oracle.values()));
        prop_assert!(table.values_mut().map(|v| *v).eq(oracle.values().copied()));
    }
}
