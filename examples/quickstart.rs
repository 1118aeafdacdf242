//! Quickstart: the three headline objects of the paper in ~30 lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use speed_of_data::prelude::*;
use speed_of_data::service::{RunRequest, Scheduler};

fn main() {
    // 1. The pipelined encoded-zero ancilla factory (§4.4.1): sized by
    //    bandwidth matching, it lands on the paper's exact numbers.
    let zero = ZeroFactory::paper().bandwidth_matched();
    println!(
        "zero factory: {} macroblocks ({} functional + {} crossbar), {:.1} ancillae/ms",
        zero.total_area(),
        zero.functional_area(),
        zero.crossbar_area(),
        zero.throughput_per_ms
    );

    // 2. A benchmark kernel characterized at the speed of data (§3).
    let adder = qrca_lowered(32);
    let report = characterize(&adder);
    println!(
        "32-bit ripple-carry adder: {} encoded qubits, {} gates, needs {:.1} zeros/ms and {:.1} pi/8 ancillae/ms",
        report.n_qubits, report.gate_count, report.bandwidth.zero_per_ms, report.bandwidth.pi8_per_ms
    );
    println!(
        "latency split: {:.1}% data ops, {:.1}% QEC interaction, {:.1}% ancilla prep",
        100.0 * report.breakdown.data_op_share(),
        100.0 * report.breakdown.qec_interact_share(),
        100.0 * report.breakdown.ancilla_prep_share()
    );

    // 3. The architecture comparison (§5): fully-multiplexed ancilla
    //    distribution vs the dedicated-generator QLA at equal area.
    let area = 20_000.0;
    let fm = simulate(&adder, Arch::FullyMultiplexed, area);
    let qla = simulate(&adder, Arch::Qla, area);
    println!(
        "at {area:.0} macroblocks of factories: fully-multiplexed {:.1} ms vs QLA {:.1} ms ({:.1}x)",
        fm.makespan_us / 1000.0,
        qla.makespan_us / 1000.0,
        qla.makespan_us / fm.makespan_us
    );

    // 4. Any paper artifact, addressed by id and run as a job (see
    //    examples/experiment_registry.rs for the tour).
    let job = Scheduler::with_options(StudyConfig::smoke(), 2, false)
        .run(&RunRequest::of(["table9"]))
        .expect("registered id");
    print!("{}", job.records[0].output.render());
}
