//! The Fig 15 sweep as a criterion bench: context construction, one
//! full four-architecture sweep (sequential and worker-pool), and the
//! per-point simulation cost the sweep amortizes.
use criterion::{criterion_group, criterion_main, Criterion};
use qods_core::arch::machine::Arch;
use qods_core::arch::simulator::SimContext;
use qods_core::arch::sweep::{area_sweep_in, log_areas, speedup_summary_from_curves};
use qods_core::kernels::qrca_lowered;
use std::hint::black_box;

fn archs(n: usize) -> [Arch; 4] {
    Arch::fig15_panel(n)
}

fn bench(c: &mut Criterion) {
    let circ = qrca_lowered(32);
    let areas = log_areas(200.0, 3e6, 13);
    let ctx = SimContext::new(&circ);
    let n = circ.n_qubits();

    c.bench_function("sweep_context_build_qrca32", |b| {
        b.iter(|| SimContext::new(black_box(&circ)))
    });
    c.bench_function("sweep_point_cqla_qrca32", |b| {
        b.iter(|| {
            ctx.simulate(Arch::default_cqla(n), black_box(1e5))
                .makespan_us
        })
    });
    c.bench_function("sweep_full_serial_qrca32", |b| {
        b.iter(|| {
            let curves = area_sweep_in(&ctx, &archs(n), &areas, 1);
            speedup_summary_from_curves(black_box(&curves)).max_speedup
        })
    });
    let threads = qods_pool::host_threads();
    c.bench_function("sweep_full_pooled_qrca32", |b| {
        b.iter(|| {
            let curves = area_sweep_in(&ctx, &archs(n), &areas, threads);
            speedup_summary_from_curves(black_box(&curves)).max_speedup
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
