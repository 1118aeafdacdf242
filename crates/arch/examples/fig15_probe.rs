//! Fig 15 shape probe on all three kernels.
use qods_arch::machine::Arch;
use qods_arch::simulator::SimContext;
use qods_arch::sweep::{area_sweep_in, log_areas, speedup_summary_from_curves};
use qods_kernels::{qcla_lowered, qft_lowered, qrca_lowered, SynthAdapter};
use std::time::Instant;

fn main() {
    let synth = SynthAdapter::with_budget(12, 1e-2);
    let circuits = vec![qrca_lowered(32), qcla_lowered(32), qft_lowered(32, &synth)];
    let threads = qods_pool::host_threads();
    for c in &circuits {
        let areas = log_areas(200.0, 3e6, 13);
        let t0 = Instant::now();
        let ctx = SimContext::new(c);
        let curves = area_sweep_in(&ctx, &Arch::fig15_panel(c.n_qubits()), &areas, threads);
        println!("== {} ==", c.name);
        for curve in &curves {
            print!("{:<18}", curve.arch);
            for p in &curve.points {
                print!(" {:.2e}", p.exec_us);
            }
            println!();
        }
        let s = speedup_summary_from_curves(&curves);
        println!(
            "max_speedup={:.1} at {:.1e}; plateaus fm={:.2e} qla={:.2e} cqla={:.2e}; qla area penalty={:.0}x; {:?}",
            s.max_speedup, s.area_at_max, s.fm_plateau_us, s.qla_plateau_us, s.cqla_plateau_us, s.qla_area_penalty, t0.elapsed()
        );
    }
}
