//! The per-layer metrics of a traced run, one group per crate.
//!
//! Three sources: (S) benchmark-side spans around public calls on the real,
//! sliced run; (C) counters the crates already expose; (R) the isolated
//! replays of `replay`. Host-time rows come from outside the program;
//! in-program host-time tracing is a later change that these numbers will
//! validate.

use clockwork::prelude::*;

use crate::replay;
use crate::report::Metric;
use crate::run::{Rep, TraceStats};
use crate::spans::SpanLog;
use crate::stats::{median, percentile_sorted, spread_frac, Clock, Samples};
use crate::workloads::Workload;

/// Runs the replays and assembles every per-layer metric. `plain` are the
/// untraced repetitions (the reference loop time is their median total),
/// `traced` the repetition with the program's tracer on, `eventq_growth_kb` the
/// figure of [`replay::eventq_growth_kb_per_1m_ops`] taken before either.
pub fn measure(
    clock: &Clock,
    w: &Workload,
    plain: &[Rep],
    traced: &Rep,
    eventq_growth_kb: f64,
    log: &mut SpanLog,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let spec = &w.spec;
    // The whole-loop totals, not the slice-wise `run_wall_s`: the traced
    // repetition and the replays they are set against are single passes too.
    let mut walls: Vec<f64> = plain.iter().map(|r| r.timing.loop_s).collect();
    let wall_spread = spread_frac(&walls);
    let run_wall_s = median(&mut walls);
    let seen = &traced.observed;
    let timing = &traced.timing;
    let requests = seen.total_requests.max(1) as f64;
    let m = Metric::new;
    let mut out = Vec::new();

    // workload, model, faults: what set-up is made of.
    let (zoo_build_us, _) = log.span("model.zoo_build", "model", |_| {
        replay::median_us(clock, ModelZoo::new)
    });
    let (plan_build_us, _) = log.span("faults.plan_build", "faults", |_| {
        replay::median_us(clock, || spec.scripted_churn())
    });
    out.extend([
        m("workload.generate_s", timing.generate_s, "s"),
        m(
            "workload.generate_ns_per_req",
            timing.generate_s * 1e9 / traced.trace.len().max(1) as f64,
            "ns",
        ),
        m("workload.requests", traced.trace.len() as f64, "count"),
        m("model.zoo_build_us", zoo_build_us, "us"),
        m("faults.plan_build_us", plan_build_us, "us"),
        m("faults.events", seen.fault_events as f64, "count"),
    ]);

    // The replays, each under its own span.
    let depth_mean =
        timing.queue_depth.iter().sum::<u64>() as f64 / timing.queue_depth.len().max(1) as f64;
    let depth_max = timing.queue_depth.iter().copied().max().unwrap_or(0);
    let (mut eventq, _) = log.span("replay.sim", "sim", |_| {
        replay::eventq(clock, &traced.trace, seen, spec.seed)
    });
    let (mut controller, _) = log.span("replay.controller", "controller", |_| {
        replay::controller(clock, w, &traced.trace)
    });
    let (mut worker, _) = log.span("replay.worker", "worker", |_| {
        replay::worker(clock, w, seen)
    });
    let ((mut histogram, mut tracer), _) = log.span("replay.metrics", "metrics", |_| {
        replay::metrics(clock, spec.seed)
    });
    let ((mut telemetry, roundtrip_us), _) = log.span("replay.facade", "facade", |_| {
        let roundtrip_us = replay::median_us(clock, || {
            ScenarioSpec::from_json(&spec.to_json()).expect("a spec round-trips through JSON")
        });
        (replay::telemetry(clock, spec.models), roundtrip_us)
    });
    let (shard, _) = log.span("replay.shard", "shard", |_| {
        replay::shard(clock, w, &traced.trace)
    });
    if controller.responses != controller.requests {
        failures.push(format!(
            "controller replay answered {} of {} requests",
            controller.responses, controller.requests
        ));
    }
    if worker.successes != worker.actions {
        failures.push(format!(
            "worker replay completed {} of {} actions",
            worker.successes, worker.actions
        ));
    }

    let eventq_busy_s = (eventq.push.ns() * seen.events_pushed as f64
        + eventq.pop.ns() * seen.events_delivered as f64
        + eventq.cancel.ns() * seen.events_cancelled as f64)
        / 1e9;
    // The facade asks `next_wakeup` after every submit and every poll.
    let worker_busy_s = (worker.submit.ns() * seen.worker_actions as f64
        + worker.next_wakeup.ns() * (seen.worker_actions + seen.worker_wakes) as f64
        + worker.poll_into.ns() * seen.worker_wakes as f64)
        / 1e9;
    let controller_busy_s = controller.busy_s();

    // facade: the loop itself, and what the replays leave unexplained.
    let mut slices = timing.slice_ms.clone();
    slices.sort_by(f64::total_cmp);
    out.extend([
        m("facade.build_s", timing.build_s, "s"),
        m("facade.submit_trace_s", timing.submit_s, "s"),
        m("facade.loop_s", timing.loop_s, "s"),
        m("facade.report_s", timing.report_s, "s"),
        m(
            "facade.slice_ms_p50",
            percentile_sorted(&slices, 50.0),
            "ms",
        )
        .samples(slices.len() as u64),
        m(
            "facade.slice_ms_max",
            percentile_sorted(&slices, 100.0),
            "ms",
        )
        .samples(slices.len() as u64),
        m(
            "facade.events_per_s",
            seen.events_delivered as f64 / run_wall_s,
            "1/s",
        ),
        m(
            "facade.us_per_event",
            run_wall_s * 1e6 / seen.events_delivered.max(1) as f64,
            "us",
        ),
        m("facade.us_per_request", run_wall_s * 1e6 / requests, "us"),
        m("facade.telemetry_record_ns", telemetry.ns(), "ns").samples(telemetry.calls() as u64),
        m("facade.spec_json_roundtrip_us", roundtrip_us, "us").samples(21),
        m(
            "facade.residual_frac",
            1.0 - (eventq_busy_s + controller_busy_s + worker_busy_s) / run_wall_s,
            "frac",
        ),
    ]);

    out.extend([
        m("sim.events_pushed", seen.events_pushed as f64, "count"),
        m(
            "sim.events_delivered",
            seen.events_delivered as f64,
            "count",
        ),
        m(
            "sim.events_cancelled",
            seen.events_cancelled as f64,
            "count",
        ),
        m("sim.queue_depth_mean", depth_mean, "count").samples(timing.queue_depth.len() as u64),
        m("sim.queue_depth_max", depth_max as f64, "count")
            .samples(timing.queue_depth.len() as u64),
        m("sim.eventq_push_ns", eventq.push.ns(), "ns").samples(eventq.push.calls() as u64),
        m("sim.eventq_pop_ns", eventq.pop.ns(), "ns").samples(eventq.pop.calls() as u64),
        m("sim.eventq_cancel_ns", eventq.cancel.ns(), "ns").samples(eventq.cancel.calls() as u64),
        m("sim.eventq_busy_s", eventq_busy_s, "s"),
        m("sim.eventq_rss_kb_per_1m_ops", eventq_growth_kb, "kB").samples(16_000_000),
    ]);

    let untraced = TraceStats::default();
    let trace = seen.trace.as_ref().unwrap_or(&untraced);
    let pct = |s: &mut Samples, name, p| {
        let n = s.count() as u64;
        m(name, s.percentile(p), "ns").samples(n)
    };
    out.extend([
        m(
            "controller.ticks_full",
            seen.sched.ticks_full as f64,
            "count",
        ),
        m(
            "controller.ticks_skipped",
            seen.sched.ticks_skipped as f64,
            "count",
        ),
        m(
            "controller.candidates_scanned",
            seen.sched.candidates_scanned as f64,
            "count",
        ),
        m(
            "controller.strategies_recomputed",
            seen.sched.strategies_recomputed as f64,
            "count",
        ),
        m(
            "controller.load_prio_recomputes",
            seen.sched.load_prio_recomputes as f64,
            "count",
        ),
        m(
            "controller.rejected_frac",
            seen.rejected as f64 / requests,
            "frac",
        ),
        m("controller.mean_batch", seen.mean_batch, "count"),
        m("controller.setup_s", controller.setup_s, "s"),
        pct(
            &mut controller.on_request,
            "controller.on_request_ns_p50",
            50.0,
        ),
        pct(
            &mut controller.on_request,
            "controller.on_request_ns_p99",
            99.0,
        ),
        pct(
            &mut controller.on_result,
            "controller.on_result_ns_p50",
            50.0,
        ),
        pct(
            &mut controller.on_result,
            "controller.on_result_ns_p99",
            99.0,
        ),
        pct(
            &mut controller.on_tick_full,
            "controller.on_tick_full_ns_p50",
            50.0,
        ),
        pct(
            &mut controller.on_tick_full,
            "controller.on_tick_full_ns_p99",
            99.0,
        ),
        pct(
            &mut controller.on_tick_skipped,
            "controller.on_tick_skipped_ns_p50",
            50.0,
        ),
        pct(
            &mut controller.next_tick,
            "controller.next_tick_ns_p50",
            50.0,
        ),
        // 0 with 0 samples on workloads without a fault plan.
        pct(&mut controller.on_fault, "controller.on_fault_ns_p50", 50.0),
        m("controller.calls", controller.calls() as f64, "count"),
        m("controller.busy_s", controller_busy_s, "s"),
        m(
            "controller.queue_wait_ms_p50",
            trace.queue_wait_ms_p50,
            "sim_ms",
        )
        .samples(trace.queue_wait_samples as u64),
        m(
            "controller.queue_wait_ms_p99",
            trace.queue_wait_ms_p99,
            "sim_ms",
        )
        .samples(trace.queue_wait_samples as u64),
        m(
            "controller.pred_err_us_p50",
            trace.pred_err_us_p50,
            "sim_us",
        )
        .samples(trace.pred_err_samples as u64),
        m(
            "controller.pred_err_us_p99",
            trace.pred_err_us_p99,
            "sim_us",
        )
        .samples(trace.pred_err_samples as u64),
    ]);

    let c = &seen.workers;
    out.extend([
        m(
            "worker.infers_completed",
            c.infers_completed as f64,
            "count",
        ),
        m("worker.loads_completed", c.loads_completed as f64, "count"),
        m(
            "worker.unloads_completed",
            c.unloads_completed as f64,
            "count",
        ),
        m(
            "worker.window_rejections",
            c.window_rejections as f64,
            "count",
        ),
        m("worker.dropped_actions", c.dropped_actions as f64, "count"),
        m("worker.gpu_util_mean", seen.gpu_util_mean, "frac"),
        m("worker.pcie_util_mean", seen.pcie_util_mean, "frac"),
        m("worker.submit_ns", worker.submit.ns(), "ns").samples(worker.submit.calls() as u64),
        m("worker.next_wakeup_ns", worker.next_wakeup.ns(), "ns")
            .samples(worker.next_wakeup.calls() as u64),
        m("worker.poll_into_ns", worker.poll_into.ns(), "ns")
            .samples(worker.poll_into.calls() as u64),
        m("worker.busy_s", worker_busy_s, "s"),
        m(
            "worker.page_cache_cycle_ns",
            worker.page_cache_cycle.ns(),
            "ns",
        )
        .samples(worker.page_cache_cycle.calls() as u64),
        m("worker.exec_ms_p50", seen.exec_ms_p50, "sim_ms").samples(c.infers_completed),
        m("worker.load_ms_p50", seen.load_ms_p50, "sim_ms").samples(c.loads_completed),
    ]);

    out.extend([
        m("metrics.histogram_record_ns", histogram.ns(), "ns").samples(histogram.calls() as u64),
        m("metrics.tracer_record_ns", tracer.ns(), "ns").samples(tracer.calls() as u64),
        m("metrics.trace_spans", trace.spans as f64, "count"),
        m("metrics.trace_dropped", trace.dropped as f64, "count"),
        m(
            "metrics.trace_overhead_frac",
            timing.loop_s / run_wall_s - 1.0,
            "frac",
        ),
    ]);

    // 0 on workloads `ShardedSpec` cannot partition (open-loop specs).
    out.extend([
        m(
            "shard.router_build_us",
            shard.as_ref().map_or(0.0, |s| s.router_build_us),
            "us",
        ),
        m(
            "shard.route_ns_per_req",
            shard.as_ref().map_or(0.0, |s| s.route_ns_per_req),
            "ns",
        ),
        m(
            "shard.plan_s",
            shard.as_ref().map_or(0.0, |s| s.plan_s),
            "s",
        ),
    ]);

    out.extend([
        m("bench.clock_overhead_ns", clock.overhead_ns, "ns").samples(2_001),
        m("bench.reps", plain.len() as f64, "count"),
        m("bench.run_wall_spread_frac", wall_spread, "frac"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::BENCHMARK_JSON;
    use crate::json;
    use crate::run::{run_rep, Mode};
    use crate::workloads::NAMES;

    /// A 2-worker, 2-second miniature of every workload through the whole
    /// pipeline — plain rep, sliced + traced rep, every replay — so a break
    /// in a crate's public API fails here rather than in the pipeline.
    #[test]
    fn miniatures_run_traced_replayed_and_named_as_benchmark_json_says() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let declared: Vec<(String, String)> = doc
            .get("per_layer")
            .expect("per_layer")
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, NAMES);

        let clock = Clock::calibrate();
        for name in NAMES {
            let w = Workload::by_name(name, 7, 7).unwrap().miniature();
            let mut log = SpanLog::new();
            let mut failures = Vec::new();
            let plain = vec![run_rep(&w, Mode::Plain, &mut log)];
            let traced = run_rep(&w, Mode::Traced { export: true }, &mut log);
            assert!(plain[0].observed.total_requests > 0, "{name}: no requests");
            assert!(plain[0].observed.invariants_ok && traced.observed.invariants_ok);
            assert_eq!(
                plain[0].observed.digest, traced.observed.digest,
                "{name}: slicing and tracing must not change the run"
            );
            assert_eq!(plain[0].observed.unanswered(), 0);
            let stats = traced
                .observed
                .trace
                .as_ref()
                .expect("traced rep has a tracer");
            assert_eq!(stats.dropped, 0);
            assert!(stats.jsonl.as_ref().is_some_and(|j| !j.is_empty()));

            let metrics = measure(&clock, &w, &plain, &traced, 0.0, &mut log, &mut failures);
            assert_eq!(failures, Vec::<String>::new(), "{name}");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, declared, "{name}: per-layer names and units");
            assert!(metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}
