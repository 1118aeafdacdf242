//! The Fig 15 experiment: execution time vs. total ancilla-factory
//! area for each microarchitecture, plus the paper's headline speedup
//! summary.
//!
//! A sweep characterizes the circuit once ([`SimContext`]) and then
//! runs every `(arch, area)` point through the workspace's shared
//! worker pool ([`qods_pool`] — the same pool the Monte-Carlo runner
//! and the service scheduler use). Each point is a pure function of
//! `(context, arch, area)`, so the sweep is bit-identical at any
//! thread count, including fully sequential.

use crate::machine::Arch;
use crate::simulator::SimContext;
use qods_circuit::circuit::Circuit;

/// One point of an architecture's area/latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Total ancilla-factory area (macroblocks).
    pub area: f64,
    /// Execution time (us).
    pub exec_us: f64,
}

/// One architecture's curve.
#[derive(Debug, Clone)]
pub struct ArchCurve {
    /// Architecture display name.
    pub arch: &'static str,
    /// Sweep points in increasing area order.
    pub points: Vec<SweepPoint>,
}

impl ArchCurve {
    /// The plateau (best achievable) execution time.
    pub fn plateau_us(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.exec_us)
            .fold(f64::INFINITY, f64::min)
    }

    /// The smallest swept area whose execution time is within
    /// `slack` (e.g. 1.1 = 10%) of the plateau.
    pub fn knee_area(&self, slack: f64) -> f64 {
        let plateau = self.plateau_us();
        self.points
            .iter()
            .find(|p| p.exec_us <= plateau * slack)
            .map_or(f64::INFINITY, |p| p.area)
    }
}

/// Log-spaced areas from `lo` to `hi` (inclusive).
pub fn log_areas(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2, "bad area range");
    let step = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * step.powi(i as i32)).collect()
}

/// Worker count for a sweep of `points` independent simulations: one
/// per core (or the process-wide `qods_pool` pin), never more than
/// the points available.
fn default_threads(points: usize) -> usize {
    qods_pool::pool_threads(points)
}

/// Runs the Fig 15 sweep for the given architectures, parallel across
/// `(arch, area)` points with one worker per core.
pub fn area_sweep(circuit: &Circuit, archs: &[Arch], areas: &[f64]) -> Vec<ArchCurve> {
    let ctx = SimContext::new(circuit);
    area_sweep_in(
        &ctx,
        archs,
        areas,
        default_threads(archs.len() * areas.len()),
    )
}

/// [`area_sweep`] over an existing context with an explicit worker
/// count (1 = sequential). Results are bit-identical for any
/// `threads`: every point is an independent pure function, workers
/// write disjoint result slots, and the assembly order is fixed.
pub fn area_sweep_in(
    ctx: &SimContext<'_>,
    archs: &[Arch],
    areas: &[f64],
    threads: usize,
) -> Vec<ArchCurve> {
    let n_points = archs.len() * areas.len();
    let flat = qods_pool::run_indexed(n_points, threads, |i| {
        // Point boundaries are the sweep's cancellation points: a
        // deadline hit unwinds between points, never inside one, so a
        // cancelled sweep exposes no partial curve.
        qods_pool::check_deadline();
        let (ai, pi) = (i / areas.len(), i % areas.len());
        SweepPoint {
            area: areas[pi],
            exec_us: ctx.simulate(archs[ai], areas[pi]).makespan_us,
        }
    });

    archs
        .iter()
        .enumerate()
        .map(|(ai, &arch)| ArchCurve {
            arch: arch.name(),
            points: flat[ai * areas.len()..(ai + 1) * areas.len()].to_vec(),
        })
        .collect()
}

/// The quantitative claims of §5.2 / §6 for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupSummary {
    /// Maximum equal-area speedup of Fully-Multiplexed over the best
    /// of QLA and CQLA (the ">5x over previous proposals" headline).
    pub max_speedup: f64,
    /// The area at which that maximum occurs.
    pub area_at_max: f64,
    /// Fully-Multiplexed plateau execution time.
    pub fm_plateau_us: f64,
    /// QLA plateau execution time.
    pub qla_plateau_us: f64,
    /// CQLA plateau execution time.
    pub cqla_plateau_us: f64,
    /// Ratio of QLA's knee area to Fully-Multiplexed's (the paper
    /// reports about two orders of magnitude).
    pub qla_area_penalty: f64,
}

/// Computes the headline summary by sweeping the three §5.2
/// architectures on `circuit`.
pub fn speedup_summary(circuit: &Circuit, areas: &[f64]) -> SpeedupSummary {
    let ctx = SimContext::new(circuit);
    let archs = [
        Arch::FullyMultiplexed,
        Arch::Qla,
        Arch::default_cqla(circuit.n_qubits()),
    ];
    let curves = area_sweep_in(
        &ctx,
        &archs,
        areas,
        default_threads(archs.len() * areas.len()),
    );
    speedup_summary_from_curves(&curves)
}

/// Derives the headline summary from curves already swept — callers
/// that ran [`area_sweep`] (on at least FM, QLA, and CQLA) reuse those
/// simulations instead of re-sweeping.
///
/// # Panics
///
/// Panics if the FM, QLA, or CQLA curve is missing or the curves have
/// mismatched point counts.
pub fn speedup_summary_from_curves(curves: &[ArchCurve]) -> SpeedupSummary {
    let find = |name: &str| -> &ArchCurve {
        curves
            .iter()
            .find(|c| c.arch == name)
            .unwrap_or_else(|| panic!("summary needs a {name} curve"))
    };
    let fm = find("Fully-Multiplexed");
    let qla = find("QLA");
    let cqla = find("CQLA");
    assert!(
        fm.points.len() == qla.points.len() && fm.points.len() == cqla.points.len(),
        "curves must share the area grid"
    );

    let mut max_speedup = 0.0f64;
    let mut area_at_max = 0.0;
    for ((f, q), c) in fm.points.iter().zip(&qla.points).zip(&cqla.points) {
        let best_baseline = q.exec_us.min(c.exec_us);
        let s = best_baseline / f.exec_us;
        if s > max_speedup {
            max_speedup = s;
            area_at_max = f.area;
        }
    }
    SpeedupSummary {
        max_speedup,
        area_at_max,
        fm_plateau_us: fm.plateau_us(),
        qla_plateau_us: qla.plateau_us(),
        cqla_plateau_us: cqla.plateau_us(),
        qla_area_penalty: qla.knee_area(1.15) / fm.knee_area(1.15),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Circuit {
        let mut c = Circuit::named(8, "toy");
        for _ in 0..6 {
            for q in 0..8 {
                c.h(q);
            }
            for q in 0..7 {
                c.cx(q, q + 1);
            }
            c.t(3);
        }
        c
    }

    fn all_archs() -> [Arch; 4] {
        [
            Arch::FullyMultiplexed,
            Arch::Qla,
            Arch::default_cqla(8),
            Arch::Qalypso { tile_qubits: 4 },
        ]
    }

    #[test]
    fn curves_are_monotone_decreasing() {
        // All four architectures, Qalypso included: more factory area
        // never slows execution.
        let c = toy();
        let areas = log_areas(100.0, 1e6, 9);
        for curve in area_sweep(&c, &all_archs(), &areas) {
            for w in curve.points.windows(2) {
                assert!(
                    w[1].exec_us <= w[0].exec_us * 1.0001,
                    "{}: not monotone at area {}",
                    curve.arch,
                    w[1].area
                );
            }
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_at_any_thread_count() {
        let c = toy();
        let ctx = SimContext::new(&c);
        let areas = log_areas(100.0, 1e6, 7);
        let archs = all_archs();
        let sequential = area_sweep_in(&ctx, &archs, &areas, 1);
        for threads in [2, 3, 5, 16] {
            let parallel = area_sweep_in(&ctx, &archs, &areas, threads);
            for (a, b) in sequential.iter().zip(&parallel) {
                assert_eq!(a.arch, b.arch);
                assert_eq!(a.points, b.points, "threads = {threads}");
            }
        }
    }

    #[test]
    fn summary_from_curves_matches_direct_summary() {
        let c = toy();
        let areas = log_areas(100.0, 1e6, 7);
        let curves = area_sweep(&c, &all_archs(), &areas);
        let from_curves = speedup_summary_from_curves(&curves);
        let direct = speedup_summary(&c, &areas);
        assert_eq!(from_curves.max_speedup, direct.max_speedup);
        assert_eq!(from_curves.area_at_max, direct.area_at_max);
        assert_eq!(from_curves.fm_plateau_us, direct.fm_plateau_us);
        assert_eq!(from_curves.qla_plateau_us, direct.qla_plateau_us);
        assert_eq!(from_curves.cqla_plateau_us, direct.cqla_plateau_us);
        assert_eq!(from_curves.qla_area_penalty, direct.qla_area_penalty);
    }

    #[test]
    fn fm_dominates_and_summary_is_consistent() {
        let c = toy();
        let areas = log_areas(100.0, 1e6, 9);
        let s = speedup_summary(&c, &areas);
        assert!(s.max_speedup >= 1.0);
        assert!(s.fm_plateau_us <= s.qla_plateau_us * 1.001);
        assert!(s.fm_plateau_us <= s.cqla_plateau_us * 1.001);
        assert!(s.qla_area_penalty >= 1.0);
    }

    #[test]
    fn log_areas_are_geometric() {
        let a = log_areas(10.0, 1000.0, 3);
        assert_eq!(a.len(), 3);
        assert!((a[0] - 10.0).abs() < 1e-9);
        assert!((a[1] - 100.0).abs() < 1e-6);
        assert!((a[2] - 1000.0).abs() < 1e-6);
    }
}
