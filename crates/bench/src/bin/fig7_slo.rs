//! Fig. 7 — how low can the SLO go, and does Clockwork isolate tenants?
//!
//! (left) Workload satisfaction of latency-sensitive (LS) open-loop clients
//! as the SLO multiplier grows from 1× to ~86× the batch-1 ResNet50 latency,
//! for N ∈ {12, 48} models and aggregate rates R ∈ {600, 1200, 2400} r/s on a
//! 6-worker cluster.
//!
//! (right) The same LS satisfaction when batch clients (BC, closed-loop, no
//! SLO) share the cluster: M=0, M=12/C=16, and M=48/C=4, plus the BC
//! throughput achieved in each scenario.

use clockwork::prelude::*;

const BASE_LATENCY_MS: f64 = 2.61; // batch-1 ResNet50, Appendix A

fn slo_multipliers() -> Vec<f64> {
    // 1.0, 1.5, 2.2, 3.4, ... the paper's 1.5x geometric ladder.
    let mut v = vec![1.0];
    while *v.last().unwrap() < 90.0 {
        v.push(v.last().unwrap() * 1.5);
    }
    v
}

fn ls_satisfaction(
    n_models: usize,
    rate_total: f64,
    slo: Nanos,
    batch_clients: usize,
    batch_concurrency: u32,
    seed: u64,
) -> (f64, f64) {
    let zoo = ModelZoo::new();
    let mut system = SystemBuilder::new()
        .workers(6)
        .seed(seed)
        .drop_raw_responses()
        .build();
    let ls_models = system.register_copies(zoo.resnet50(), n_models);
    let bc_models = system.register_copies(zoo.resnet50(), batch_clients);
    let duration = Nanos::from_secs(10);
    let mut rng = SimRng::seeded(seed);
    let trace = OpenLoopClient::generate_many(
        &ls_models,
        rate_total / n_models as f64,
        slo,
        duration,
        &mut rng,
    );
    system.submit_trace(&trace);
    for (i, &m) in bc_models.iter().enumerate() {
        system.add_closed_loop_client(
            ClosedLoopClient::new(m, batch_concurrency, Nanos::MAX),
            Timestamp::from_millis(i as u64),
        );
    }
    system.run_until(Timestamp::ZERO + duration + Nanos::from_secs(1));
    let m = system.telemetry().metrics();
    // Split LS and BC outcomes by model: BC requests have no deadline, so
    // every BC success trivially "meets its SLO"; subtract them out to get
    // the satisfaction of the latency-sensitive clients alone.
    let bc_successes: u64 = bc_models
        .iter()
        .filter_map(|&id| system.telemetry().per_model_successes().get(id))
        .sum();
    let ls_total = trace.len() as u64;
    let ls_goodput = m.goodput.saturating_sub(bc_successes);
    let ls_satisfaction = ls_goodput as f64 / ls_total.max(1) as f64;
    let bc_throughput = bc_successes as f64 / duration.as_secs_f64();
    (ls_satisfaction, bc_throughput)
}

fn main() {
    bench::section("Fig 7 (left): LS workload satisfaction vs SLO multiplier (6 workers)");
    println!("slo_multiplier,slo_ms,n12_r600,n12_r1200,n12_r2400,n48_r600,n48_r1200,n48_r2400");
    for &mult in &slo_multipliers() {
        let slo = Nanos::from_millis_f64(BASE_LATENCY_MS * mult);
        let mut row = format!("{mult:.1},{:.2}", slo.as_millis_f64());
        for (n, r) in [
            (12usize, 600.0),
            (12, 1200.0),
            (12, 2400.0),
            (48, 600.0),
            (48, 1200.0),
            (48, 2400.0),
        ] {
            let (sat, _) = ls_satisfaction(n, r, slo, 0, 0, 7_000 + n as u64 + r as u64);
            row.push_str(&format!(",{sat:.3}"));
        }
        println!("{row}");
    }

    bench::section(
        "Fig 7 (right): isolation of LS clients from batch clients (N=6 LS @ 200 r/s each)",
    );
    println!(
        "slo_multiplier,slo_ms,ls_sat_m0,ls_sat_m12_c16,bc_rps_m12_c16,ls_sat_m48_c4,bc_rps_m48_c4"
    );
    for &mult in &slo_multipliers() {
        let slo = Nanos::from_millis_f64(BASE_LATENCY_MS * mult);
        let (a, _) = ls_satisfaction(6, 1200.0, slo, 0, 0, 9_100 + mult as u64);
        let (b, b_tp) = ls_satisfaction(6, 1200.0, slo, 12, 16, 9_200 + mult as u64);
        let (c, c_tp) = ls_satisfaction(6, 1200.0, slo, 48, 4, 9_300 + mult as u64);
        println!(
            "{mult:.1},{:.2},{a:.3},{b:.3},{b_tp:.0},{c:.3},{c_tp:.0}",
            slo.as_millis_f64()
        );
    }
    println!("# LS satisfaction should be essentially unaffected by batch clients,");
    println!("# while BC throughput fills whatever capacity the LS clients leave idle.");
}
