//! The Fig 15 experiment: execution time vs. total ancilla-factory
//! area for each microarchitecture, plus the paper's headline speedup
//! summary.
//!
//! A sweep characterizes the circuit once ([`SimContext`]) and runs
//! each architecture's areas as *lanes*: several areas of one
//! `(circuit, arch)` simulated in one pass over a shared gate order
//! (see the `simulator` module docs for why each lane is exact).
//!
//! ## Task shape
//!
//! Work fans out over the workspace's shared worker pool ([`qods_pool`]
//! — the same pool the Monte-Carlo runner and the service scheduler
//! use) as tasks of `(arch, lane group)`, in two rounds:
//!
//! 1. QLA's areas, in groups of up to `LANES` (8), each one pass in
//!    program order. Beside them, one *seed* task per event-ordered
//!    architecture (FM, CQLA, Qalypso): its largest area on the heap,
//!    recording the pop order, then two probes replayed along that
//!    order as the lanes of one pass: the next-largest area and the
//!    smallest. The areas that share the seed's order are the largest
//!    ones (the least supply-bound; so it is on every paper-config
//!    curve), so when both ends of the remaining range keep to the
//!    order, the areas between tend to.
//! 2. If both probes kept to the order, the remaining areas replay
//!    along it in lane groups, and a lane that leaves the order re-runs
//!    on the heap inside its task. If either probe left it, speculation
//!    is off for that architecture and every remaining area runs on the
//!    heap as a task of its own, so a failed speculation costs at most
//!    two partial replays. The choice follows what the replay observed,
//!    never the architecture's name.
//!
//! Every task is a pure function of `(context, arch, areas)`, results
//! are assembled by area index, and the order a lane follows never
//! changes its result, so the sweep is bit-identical at any thread
//! count, including fully sequential.
//!
//! ## Cancellation
//!
//! `qods_pool::check_deadline` runs before every heap simulation and
//! every lane pass, and nowhere inside one; the sweep holds no lock. A
//! deadline hit unwinds the whole sweep, so a cancelled sweep exposes
//! no partial curve.
//!
//! ## Telemetry
//!
//! Each task opens one `arch.sweep` span, its role `seed`, `lanes` or
//! `heap` and its detail the architecture. Every sweep adds its checked
//! lanes to two process-wide counters, `arch.lanes_replayed` (kept to
//! the order) and `arch.lanes_fallback` (left it and re-ran on the
//! heap): the share of speculation that paid.

use crate::machine::Arch;
use crate::simulator::{Seed, SimContext, SimOutcome, LANES};
use qods_circuit::circuit::Circuit;
use qods_obs::{sites, Registry};

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

/// Runs the Fig 15 sweep for the given architectures, parallel across
/// sweep tasks with one worker per core.
pub fn area_sweep(circuit: &Circuit, archs: &[Arch], areas: &[f64]) -> Vec<ArchCurve> {
    let ctx = SimContext::new(circuit);
    area_sweep_in(&ctx, archs, areas, qods_pool::host_threads())
}

/// [`area_sweep`] over an existing context with an explicit worker
/// count (1 = sequential). Results are bit-identical for any
/// `threads`: every task is an independent pure function and the
/// assembly is by index.
pub fn area_sweep_in(
    ctx: &SimContext<'_>,
    archs: &[Arch],
    areas: &[f64],
    threads: usize,
) -> Vec<ArchCurve> {
    archs
        .iter()
        .zip(sweep_outcomes(ctx, archs, areas, threads))
        .map(|(&arch, outcomes)| ArchCurve {
            arch: arch.name(),
            points: areas
                .iter()
                .zip(outcomes)
                .map(|(&area, out)| SweepPoint {
                    area,
                    exec_us: out.makespan_us,
                })
                .collect(),
        })
        .collect()
}

/// One unit of sweep work on architecture `arch`, an index into the
/// sweep's architectures.
struct Task<'s> {
    arch: usize,
    work: Work<'s>,
}

/// A task's work; areas are indices into the sweep's areas.
enum Work<'s> {
    /// Areas as lanes of one pass: in program order (QLA), or along a
    /// seed's order, re-running any lane that leaves it on the heap.
    Lanes {
        areas: &'s [usize],
        along: Option<&'s Seed>,
    },
    /// The seed area on the heap, recording its order, then the probe
    /// areas replayed along it as lanes of one pass.
    Seed { seed: usize, probes: &'s [usize] },
    /// One area on the heap.
    Heap(usize),
}

/// What a task produced.
#[derive(Default)]
struct Done {
    arch: usize,
    /// `(area index, outcome)` for each area the task finished.
    points: Vec<(usize, SimOutcome)>,
    /// A seed task's recorded order, and whether its probes kept to it.
    seed: Option<(Seed, bool)>,
    /// Checked lanes that kept to their order.
    replayed: u64,
    /// Checked lanes that left it and re-ran on the heap.
    fell_back: u64,
}

impl Done {
    /// Replays `areas` of `arch` along `along` (program order if
    /// `None`), re-running on the heap any lane that leaves the order.
    fn lanes(
        &mut self,
        ctx: &SimContext<'_>,
        arch: Arch,
        areas: &[f64],
        ix: &[usize],
        along: Option<&Seed>,
    ) {
        qods_pool::check_deadline();
        let picked: Vec<f64> = ix.iter().map(|&a| areas[a]).collect();
        let checked = arch != Arch::Qla;
        for (&a, lane) in ix.iter().zip(ctx.replay(arch, &picked, along)) {
            let out = match lane {
                Some(out) => {
                    self.replayed += u64::from(checked);
                    out
                }
                None => {
                    self.fell_back += 1;
                    qods_pool::check_deadline();
                    ctx.simulate(arch, areas[a])
                }
            };
            self.points.push((a, out));
        }
    }
}

/// Splits `ix` into the fewest lane groups of at most `LANES`, their
/// sizes differing by at most one.
fn lane_groups(ix: &[usize]) -> Vec<&[usize]> {
    let mut rest = ix;
    (1..=ix.len().div_ceil(LANES))
        .rev()
        .map(|left| {
            let (group, tail) = rest.split_at(rest.len().div_ceil(left));
            rest = tail;
            group
        })
        .collect()
}

/// Runs one task.
fn run_task(ctx: &SimContext<'_>, archs: &[Arch], areas: &[f64], task: &Task<'_>) -> Done {
    let arch = archs[task.arch];
    let role = match task.work {
        Work::Lanes { .. } => "lanes",
        Work::Seed { .. } => "seed",
        Work::Heap(_) => "heap",
    };
    let _span = qods_obs::span!(sites::ARCH_SWEEP, { role: role, detail: arch.name() });
    let mut done = Done {
        arch: task.arch,
        ..Done::default()
    };
    match task.work {
        Work::Lanes { areas: ix, along } => done.lanes(ctx, arch, areas, ix, along),
        Work::Seed { seed, probes } => {
            qods_pool::check_deadline();
            let recorded = ctx.seed(arch, areas[seed]);
            done.points.push((seed, recorded.outcome));
            done.lanes(ctx, arch, areas, probes, Some(&recorded));
            let kept = done.fell_back == 0;
            done.seed = Some((recorded, kept));
        }
        Work::Heap(area) => {
            qods_pool::check_deadline();
            done.points.push((area, ctx.simulate(arch, areas[area])));
        }
    }
    done
}

/// The sweep's outcomes, per architecture in area order (see the
/// module docs for the task shape).
pub(crate) fn sweep_outcomes(
    ctx: &SimContext<'_>,
    archs: &[Arch],
    areas: &[f64],
    threads: usize,
) -> Vec<Vec<SimOutcome>> {
    // Areas from largest to smallest: the largest seeds; the next and
    // the smallest probe, since the areas between two that keep to the
    // seed's order tend to keep to it too; the rest replay.
    let mut by_area: Vec<usize> = (0..areas.len()).collect();
    by_area.sort_by(|&a, &b| areas[b].total_cmp(&areas[a]));
    let (seed, probes, rest): (_, Vec<usize>, &[usize]) = match by_area[..] {
        [] => (None, Vec::new(), &[]),
        [seed, ref others @ ..] => match *others {
            [next, ref rest @ .., smallest] => (Some(seed), vec![next, smallest], rest),
            _ => (Some(seed), others.to_vec(), &[]),
        },
    };

    let mut first = Vec::new();
    for (ai, &arch) in archs.iter().enumerate() {
        if arch == Arch::Qla {
            first.extend(lane_groups(&by_area).into_iter().map(|ix| Task {
                arch: ai,
                work: Work::Lanes {
                    areas: ix,
                    along: None,
                },
            }));
        } else if let Some(seed) = seed {
            first.push(Task {
                arch: ai,
                work: Work::Seed {
                    seed,
                    probes: &probes,
                },
            });
        }
    }
    let mut done = qods_pool::run_indexed(first.len(), threads, |t| {
        run_task(ctx, archs, areas, &first[t])
    });

    // A seed whose probes left its order is dropped here: its
    // architecture's remaining areas run on the heap.
    let mut seeds = Vec::new();
    let mut second = Vec::new();
    for d in &mut done {
        match d.seed.take() {
            Some((recorded, true)) => seeds.push((d.arch, recorded)),
            Some((_, false)) => second.extend(rest.iter().map(|&area| Task {
                arch: d.arch,
                work: Work::Heap(area),
            })),
            None => {}
        }
    }
    for (arch, recorded) in &seeds {
        second.extend(lane_groups(rest).into_iter().map(|ix| Task {
            arch: *arch,
            work: Work::Lanes {
                areas: ix,
                along: Some(recorded),
            },
        }));
    }
    done.extend(qods_pool::run_indexed(second.len(), threads, |t| {
        run_task(ctx, archs, areas, &second[t])
    }));

    let (replayed, fell_back) = done
        .iter()
        .fold((0, 0), |(r, f), d| (r + d.replayed, f + d.fell_back));
    let global = Registry::global();
    global.counter(sites::ARCH_LANES_REPLAYED).add(replayed);
    global.counter(sites::ARCH_LANES_FALLBACK).add(fell_back);

    let mut outcomes: Vec<Vec<Option<SimOutcome>>> = vec![vec![None; areas.len()]; archs.len()];
    for d in done {
        for (area, out) in d.points {
            outcomes[d.arch][area] = Some(out);
        }
    }
    outcomes
        .into_iter()
        .map(|curve| curve.into_iter().flatten().collect())
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
    let curves = area_sweep_in(&ctx, &archs, areas, qods_pool::host_threads());
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
