//! Appendix A, Table 1 — the model catalogue.
//!
//! Reproduces the per-model table: IO sizes, weight sizes, PCIe transfer time
//! and GPU execution latency at batch sizes 1–16. The execution latencies are
//! the zoo's transcribed Appendix A values, exactly what the simulator is fed
//! (`fig2_predictability` shows the execution noise around them), and the
//! transfer column is produced by the PCIe model — the rightmost column
//! reports its deviation from the paper's measured value.

use clockwork_model::zoo::ModelZoo;
use clockwork_sim::pcie::PcieLink;

fn main() {
    let zoo = ModelZoo::new();
    let link = PcieLink::v100_pcie3();

    println!("family,model,input_kb,output_kb,weights_mb,transfer_ms,transfer_err_pct,b1_ms,b2_ms,b4_ms,b8_ms,b16_ms");
    for spec in zoo.all() {
        let transfer = spec.weights_transfer_duration(&link).as_millis_f64();
        let reported = zoo.reported_transfer_ms(&spec.name).unwrap_or(transfer);
        let err_pct = (transfer - reported) / reported * 100.0;
        let lat = |batch: u32| {
            spec.exec_latency(batch)
                .map(|l| l.as_millis_f64())
                .unwrap_or(f64::NAN)
        };
        println!(
            "{},{},{:.0},{:.2},{:.1},{:.2},{:+.1},{:.2},{:.2},{:.2},{:.2},{:.2}",
            spec.family,
            spec.name,
            spec.input_kb,
            spec.output_kb,
            spec.weights_mb,
            transfer,
            err_pct,
            lat(1),
            lat(2),
            lat(4),
            lat(8),
            lat(16)
        );
    }
    println!("# {} model varieties (paper: 61)", zoo.len());
}
