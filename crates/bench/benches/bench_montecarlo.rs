//! Monte-Carlo engine benchmarks: packed-frame ops, the geometric
//! skip-sampler against exact per-op sampling, and the full Fig 4
//! `evaluate_prep` panel.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qods_phys::error_model::{ErrorModel, FaultSampler, FaultSampling};
use qods_phys::frame::PauliFrame;
use qods_phys::montecarlo::{run_trials, TrialArena, TrialOutcome};
use qods_phys::ops::{PhysOp, PhysOpKind};
use qods_phys::pauli::Pauli;
use qods_steane::eval::evaluate_prep;
use qods_steane::prep::PrepStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Packed-frame primitive ops: conjugation on clean and dirty frames,
/// block mask reads, and batched transversal rounds.
fn bench_frame_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    let ops: Vec<PhysOp> = (0..64)
        .map(|i| match i % 4 {
            0 => PhysOp::h(i % 28),
            1 => PhysOp::cx(i % 28, (i + 1) % 28),
            2 => PhysOp::cz(i % 28, (i + 3) % 28),
            _ => PhysOp::Gate1(qods_phys::ops::Gate1::S, i % 28),
        })
        .collect();
    group.bench_function("apply_64ops_clean", |b| {
        let mut f = PauliFrame::new(28, ErrorModel::noiseless());
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            for op in &ops {
                black_box(f.apply(op, &mut rng));
            }
        })
    });
    group.bench_function("apply_64ops_dirty", |b| {
        let mut f = PauliFrame::new(28, ErrorModel::noiseless());
        f.inject(0, Pauli::Y);
        f.inject(13, Pauli::X);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            for op in &ops {
                black_box(f.apply(op, &mut rng));
            }
        })
    });
    group.bench_function("cx_transversal_batch", |b| {
        let mut f = PauliFrame::new(28, ErrorModel::paper());
        let mut rng = StdRng::seed_from_u64(1);
        let pairs: Vec<(usize, usize)> = (0..7).map(|i| (i, i + 7)).collect();
        b.iter(|| f.gate2_batch(qods_phys::ops::Gate2::Cx, black_box(&pairs), &mut rng))
    });
    group.bench_function("x_mask7", |b| {
        let mut f = PauliFrame::new(28, ErrorModel::noiseless());
        f.inject(3, Pauli::X);
        b.iter(|| black_box(f.x_mask7(&[0, 1, 2, 3, 4, 5, 6])))
    });
    group.finish();
}

/// The fault sampler: exact per-op Bernoulli vs geometric skip, over
/// 1000 two-qubit ops at the paper's gate error rate.
fn bench_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampler_1000ops");
    for (label, sampling) in [
        ("exact", FaultSampling::Exact),
        ("skip", FaultSampling::Skip),
    ] {
        group.bench_function(label, |b| {
            let mut s = FaultSampler::new(ErrorModel::paper().with_sampling(sampling));
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| {
                let mut faults = 0u32;
                for _ in 0..1000 {
                    faults += s.fault_at(PhysOpKind::TwoQubitGate, &mut rng) as u32;
                }
                black_box(faults)
            })
        });
    }
    group.finish();
}

/// Allocation-free trial turnaround through the arena runner.
fn bench_runner(c: &mut Criterion) {
    c.bench_function("run_trials_arena_10k", |b| {
        b.iter(|| {
            run_trials(10_000, 3, |rng, arena: &mut TrialArena| {
                let (frame, flips) = arena.frame_and_flips(7, ErrorModel::paper());
                frame.run(
                    &[PhysOp::Prep(0), PhysOp::cx(0, 1), PhysOp::measure_z(1)],
                    rng,
                    flips,
                );
                TrialOutcome::Accepted {
                    logical_error: flips[0],
                }
            })
        })
    });
}

/// The Fig 4 panel at paper-default rates — the headline workload the
/// ISSUE's >=5x criterion is measured on.
fn bench_evaluate_prep(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate_prep_10k");
    for s in PrepStrategy::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(s.name()), &s, |b, &s| {
            b.iter(|| evaluate_prep(s, black_box(ErrorModel::paper()), 10_000, 7, 1).error_rate())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_frame_ops,
    bench_sampler,
    bench_runner,
    bench_evaluate_prep
);
criterion_main!(benches);
