//! Facade-level guarantees of batch-aware scheduling.
//!
//! Batch formation and batch-amortized admission must be *inert* until load
//! actually creates a backlog: at low rates every strategy queue resolves
//! to batch 1 and every admission backlog is empty, so the batching and
//! non-batching schedulers must make byte-identical decisions — pinned here
//! by comparing their full response digests on the same low-rate scenario.
//! Under a genuine overload the relationship inverts: batching must serve
//! strictly more goodput than the size-1 path on identical offered load,
//! the in-simulator version of the saturation knee bending rightward.

use clockwork::prelude::*;

/// A light scenario: 4 workers × 2 GPUs at a rate the cluster absorbs
/// without queueing, so batch formation always resolves to batch 1.
fn low_load_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::smoke(seed).named("batching_low_load");
    // ~10 r/s across 8 GPUs of zoo models leaves queues empty at dispatch
    // even through the trace's bursts, so no batch ever has 2 candidates.
    spec.workload = WorkloadSpec::Azure {
        functions: 10,
        target_rate: 10.0,
    };
    spec
}

#[test]
fn batching_is_digest_identical_to_unbatched_at_low_load() {
    let experiment = Experiment::new(low_load_spec(11));
    let with_batching = experiment.run(&ClockworkFactory::default());
    let without = experiment.run(&ClockworkNoBatchFactory);
    assert!(with_batching.drained() && without.drained());
    assert_eq!(
        with_batching.digest(),
        without.digest(),
        "batch size 1 everywhere must reproduce the unbatched decision \
         stream byte-for-byte: {:016x} vs {:016x}",
        with_batching.digest(),
        without.digest()
    );
    // Digest equality subsumes these, but state the serving facts plainly.
    let (a, b) = (with_batching.metrics(), without.metrics());
    assert_eq!(a.total_requests, b.total_requests);
    assert_eq!(a.goodput, b.goodput);
    assert_eq!(with_batching.rejected(), without.rejected());
}

#[test]
fn batching_outserves_unbatched_under_overload() {
    // The smoke fleet at 5× its nominal rate: far past what batch-1
    // dispatch sustains. Identical workload, identical seed — the only
    // difference is batch formation + amortized admission.
    let spec = ScenarioSpec::smoke(5)
        .named("batching_overload")
        .with_rate_multiplier(5.0);
    let experiment = Experiment::new(spec);
    let with_batching = experiment.run(&ClockworkFactory::default());
    let without = experiment.run(&ClockworkNoBatchFactory);
    for report in [&with_batching, &without] {
        assert!(report.mix_conserved(), "event conservation must hold");
        assert!(!report.overdelivered(), "no duplicate responses");
        if report.drained() {
            assert!(report.identity_ok(), "successes + rejected == total");
        }
    }
    let (a, b) = (with_batching.metrics(), without.metrics());
    assert!(
        a.goodput > b.goodput,
        "batching must out-serve batch-1 under overload: {} vs {}",
        a.goodput,
        b.goodput
    );
    assert!(
        a.mean_batch > 1.05,
        "overload must actually form batches (mean batch {:.3})",
        a.mean_batch
    );
}

#[test]
fn rate_multiplier_scales_offered_load() {
    let base = ScenarioSpec::smoke(3);
    let doubled = ScenarioSpec::smoke(3).with_rate_multiplier(2.0);
    let (r1, r2) = match (base.workload, doubled.workload) {
        (
            WorkloadSpec::Azure { target_rate: a, .. },
            WorkloadSpec::Azure { target_rate: b, .. },
        ) => (a, b),
        other => panic!("smoke is an Azure workload, got {other:?}"),
    };
    assert_eq!(r2, r1 * 2.0);
    // The generated trace really carries ~2× the requests.
    let n1 = base.generated_trace().expect("azure").len();
    let n2 = doubled.generated_trace().expect("azure").len();
    assert!(
        (n2 as f64) > 1.7 * n1 as f64 && (n2 as f64) < 2.3 * n1 as f64,
        "expected ~2x requests, got {n1} -> {n2}"
    );
}
