//! Ablation — which parts of "consolidating choice" matter?
//!
//! The paper's design rests on four choices (§4–5); this binary removes them
//! one at a time and measures the effect on goodput and tail latency under
//! the same moderately overloaded open-loop workload:
//!
//! * full Clockwork (batching + admission control + exclusive execution)
//! * no admission control (doomed requests are executed anyway)
//! * no batching (every INFER is batch-1)
//! * concurrent EXEC (the GPU is allowed to run kernels concurrently)
//! * the FIFO strawman scheduler

use bench::run_closed_loop;
use clockwork::prelude::*;
use clockwork_controller::ClockworkSchedulerConfig;

fn run(label: &str, factory: Box<dyn SchedulerFactory>, exec_override: Option<ExecMode>) -> String {
    let zoo = ModelZoo::new();
    let mut builder = SystemBuilder::new().discipline(factory).seed(424);
    if let Some(mode) = exec_override {
        builder = builder.exec_mode(mode);
    }
    let mut system = builder.build();
    let models = system.register_copies(zoo.resnet50(), 8);
    // Open-loop pressure slightly above single-GPU batch-1 capacity plus
    // closed-loop background to keep the executor busy.
    let trace = OpenLoopClient::generate_many(
        &models,
        60.0,
        Nanos::from_millis(50),
        Nanos::from_secs(10),
        &mut SimRng::seeded(17),
    );
    system.submit_trace(&trace);
    run_closed_loop(
        &mut system,
        &models[..2],
        4,
        Nanos::from_millis(50),
        Nanos::from_secs(11),
    );
    bench::summary_csv_row(label, &system.telemetry().metrics())
}

fn main() {
    bench::section("Ablation: contribution of each consolidation-of-choice mechanism");
    println!("{}", bench::SUMMARY_CSV_HEADER);

    let full = ClockworkSchedulerConfig::default();
    println!(
        "{}",
        run(
            "clockwork_full",
            Box::new(ClockworkFactory::new(full)),
            None
        )
    );

    let no_admission = ClockworkSchedulerConfig {
        admission_control: false,
        ..Default::default()
    };
    println!(
        "{}",
        run(
            "no_admission_control",
            Box::new(ClockworkFactory::new(no_admission)),
            None
        )
    );

    let no_batching = ClockworkSchedulerConfig {
        batching: false,
        ..Default::default()
    };
    println!(
        "{}",
        run(
            "no_batching",
            Box::new(ClockworkFactory::new(no_batching)),
            None
        )
    );

    println!(
        "{}",
        run(
            "concurrent_exec",
            Box::new(ClockworkFactory::default()),
            Some(ExecMode::Concurrent { max_concurrent: 8 })
        )
    );

    println!("{}", run("fifo_strawman", Box::new(FifoFactory), None));

    println!("# expected shape: removing admission control and batching hurts goodput under");
    println!("# overload; concurrent EXEC inflates tail latency; FIFO does both.");
}
