//! One [`Experiment`] implementation per paper artifact.
//!
//! Each type is a stateless marker struct; all shared work (benchmark
//! lowering, characterization) lives in the [`StudyContext`], so these
//! run independently, in any subset, and in parallel.

use crate::experiment::{Experiment, ExperimentOutput, StudyContext, Substrate};
use crate::output::{
    AreaShare, CascadeOut, CascadeRow, Fig15Out, Fig15Panel, Fig4Out, Fig4Row, LatencyOut,
    LatencyShares, NonTransversalOut, NonTransversalRow, PipelinedFactoryOut, Series, SeriesOut,
    SimpleFactoryOut, Table2Out, Table2Row, Table3Out, Table3Row, Table9Entry, Table9Out,
    UnitCount, WidthCurve, WidthPoint, WidthSweepOut,
};
use crate::study::ArchChoice;
use qods_arch::machine::Arch;
use qods_arch::simulator::SimContext;
use qods_arch::sweep::{area_sweep_in, log_areas, speedup_summary_from_curves};
use qods_arch::table9::table9_row;
use qods_circuit::characterize::demand_profile;
use qods_circuit::latency_model::CharacterizationModel;
use qods_circuit::throughput::throughput_sweep;
use qods_factory::pi8::Pi8Factory;
use qods_factory::pipeline::SizedFactory;
use qods_factory::simple::SimpleFactory;
use qods_factory::zero::ZeroFactory;
use qods_phys::error_model::ErrorModel;
use qods_phys::latency::LatencyTable;
use qods_steane::eval::evaluate_all;
use qods_synth::cascade::analyze_cascade;

/// Tables 1 and 4: the physical operation latencies.
pub struct LatencyExperiment;

impl Experiment for LatencyExperiment {
    fn id(&self) -> &'static str {
        "table1"
    }
    fn title(&self) -> &'static str {
        "Table 1/4: physical operation latencies (us)"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["table4"]
    }
    fn run(&self, _ctx: &StudyContext) -> ExperimentOutput {
        let t = LatencyTable::ion_trap();
        ExperimentOutput::Latency(LatencyOut {
            t_1q: t.t_1q,
            t_2q: t.t_2q,
            t_meas: t.t_meas,
            t_prep: t.t_prep,
            t_move: t.t_move,
            t_turn: t.t_turn,
        })
    }
}

/// Fig 4: Monte-Carlo quality of the four preparation circuits.
pub struct Fig4Experiment;

impl Experiment for Fig4Experiment {
    fn id(&self) -> &'static str {
        "fig4"
    }
    fn title(&self) -> &'static str {
        "Fig 4: encoded-zero preparation quality (Monte Carlo)"
    }
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput {
        let c = ctx.config();
        let model = ErrorModel::paper().scaled(c.noise_scale);
        let rows = evaluate_all(model, c.mc_trials, c.seed, c.threads)
            .into_iter()
            .map(|e| Fig4Row {
                strategy: e.strategy.name().to_string(),
                uncorrectable_rate: e.error_rate(),
                dirty_rate: e.dirty_rate(),
                discard_rate: e.discard_rate(),
                paper_rate: e.strategy.paper_error_rate(),
            })
            .collect();
        ExperimentOutput::Fig4(Fig4Out { rows })
    }
}

/// Table 2: latency breakdown of the benchmarks.
pub struct Table2Experiment;

impl Experiment for Table2Experiment {
    fn id(&self) -> &'static str {
        "table2"
    }
    fn title(&self) -> &'static str {
        "Table 2: latency breakdown (us, share of total)"
    }
    fn substrate(&self) -> Substrate {
        Substrate::Characterizations
    }
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput {
        let rows = ctx
            .characterizations()
            .iter()
            .map(|c| &c.report)
            .map(|r| Table2Row {
                name: r.name.clone(),
                data_op_us: r.breakdown.data_op_us,
                qec_interact_us: r.breakdown.qec_interact_us,
                ancilla_prep_us: r.breakdown.ancilla_prep_us,
                shares: LatencyShares {
                    data_op: r.breakdown.data_op_share(),
                    qec_interact: r.breakdown.qec_interact_share(),
                    ancilla_prep: r.breakdown.ancilla_prep_share(),
                },
            })
            .collect();
        ExperimentOutput::Table2(Table2Out { rows })
    }
}

/// Table 3: ancilla bandwidths the benchmarks demand.
pub struct Table3Experiment;

impl Experiment for Table3Experiment {
    fn id(&self) -> &'static str {
        "table3"
    }
    fn title(&self) -> &'static str {
        "Table 3: required ancilla bandwidths (per ms)"
    }
    fn substrate(&self) -> Substrate {
        Substrate::Characterizations
    }
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput {
        let rows = ctx
            .characterizations()
            .iter()
            .map(|c| &c.report)
            .map(|r| Table3Row {
                name: r.name.clone(),
                zero_per_ms: r.bandwidth.zero_per_ms,
                pi8_per_ms: r.bandwidth.pi8_per_ms,
            })
            .collect();
        ExperimentOutput::Table3(Table3Out { rows })
    }
}

/// §3.3: fraction of gates needing prepared ancillae.
pub struct NonTransversalExperiment;

impl Experiment for NonTransversalExperiment {
    fn id(&self) -> &'static str {
        "sec33"
    }
    fn title(&self) -> &'static str {
        "Section 3.3: non-transversal gate fractions"
    }
    fn substrate(&self) -> Substrate {
        Substrate::Characterizations
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["nontransversal"]
    }
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput {
        let rows = ctx
            .characterizations()
            .iter()
            .map(|c| &c.report)
            .map(|r| NonTransversalRow {
                name: r.name.clone(),
                fraction: r.non_transversal_fraction,
            })
            .collect();
        ExperimentOutput::NonTransversal(NonTransversalOut { rows })
    }
}

/// Fig 11 / §4.3: the simple ancilla factory.
pub struct SimpleFactoryExperiment;

impl Experiment for SimpleFactoryExperiment {
    fn id(&self) -> &'static str {
        "fig11"
    }
    fn title(&self) -> &'static str {
        "Fig 11 / Section 4.3: simple ancilla factory"
    }
    fn run(&self, _ctx: &StudyContext) -> ExperimentOutput {
        let f = SimpleFactory::paper();
        ExperimentOutput::SimpleFactory(SimpleFactoryOut {
            latency_us: f.prep_latency_us(),
            area: f.area(),
            throughput_per_ms: f.throughput_per_ms(),
        })
    }
}

fn pipelined_out(f: &SizedFactory) -> PipelinedFactoryOut {
    PipelinedFactoryOut {
        functional_area: f.functional_area(),
        crossbar_area: f.crossbar_area(),
        total_area: f.total_area(),
        throughput_per_ms: f.throughput_per_ms,
        unit_counts: f
            .stages
            .iter()
            .map(|s| UnitCount {
                unit: s.unit.name.to_string(),
                count: s.count,
            })
            .collect(),
    }
}

/// Tables 5–6: the pipelined encoded-zero factory.
pub struct ZeroFactoryExperiment;

impl Experiment for ZeroFactoryExperiment {
    fn id(&self) -> &'static str {
        "table5"
    }
    fn title(&self) -> &'static str {
        "Tables 5-6: pipelined encoded-zero factory"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["table6"]
    }
    fn run(&self, _ctx: &StudyContext) -> ExperimentOutput {
        ExperimentOutput::ZeroFactory(pipelined_out(&ZeroFactory::paper().bandwidth_matched()))
    }
}

/// Tables 7–8: the pi/8 ancilla factory.
pub struct Pi8FactoryExperiment;

impl Experiment for Pi8FactoryExperiment {
    fn id(&self) -> &'static str {
        "table7"
    }
    fn title(&self) -> &'static str {
        "Tables 7-8: pi/8 ancilla factory"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["table8"]
    }
    fn run(&self, _ctx: &StudyContext) -> ExperimentOutput {
        ExperimentOutput::Pi8Factory(pipelined_out(&Pi8Factory::paper().bandwidth_matched()))
    }
}

/// Table 9: chip area budget at the speed of data.
pub struct Table9Experiment;

impl Experiment for Table9Experiment {
    fn id(&self) -> &'static str {
        "table9"
    }
    fn title(&self) -> &'static str {
        "Table 9: area breakdown at the speed of data"
    }
    fn substrate(&self) -> Substrate {
        Substrate::Characterizations
    }
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput {
        let rows = ctx
            .characterizations()
            .iter()
            .map(|c| {
                let row = table9_row(&c.report);
                Table9Entry {
                    name: row.name.clone(),
                    zero_bandwidth: row.zero_bandwidth,
                    data: AreaShare {
                        area: row.data_area,
                        share: row.data_share(),
                    },
                    qec: AreaShare {
                        area: row.qec_factory_area,
                        share: row.qec_share(),
                    },
                    pi8: AreaShare {
                        area: row.pi8_factory_area,
                        share: row.pi8_share(),
                    },
                }
            })
            .collect();
        ExperimentOutput::Table9(Table9Out { rows })
    }
}

/// Fig 7: encoded-zero demand profiles over time.
pub struct Fig7Experiment;

impl Experiment for Fig7Experiment {
    fn id(&self) -> &'static str {
        "fig7"
    }
    fn title(&self) -> &'static str {
        "Fig 7: ancilla demand profiles"
    }
    fn substrate(&self) -> Substrate {
        Substrate::Benchmarks
    }
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput {
        let model = CharacterizationModel::ion_trap();
        let series = ctx
            .benchmarks()
            .iter()
            .map(|s| {
                Series::from_pairs(
                    s.circuit.name.clone(),
                    demand_profile(
                        &s.circuit,
                        &model,
                        s.makespan_us,
                        ctx.config().profile_samples,
                    )
                    .into_iter()
                    .map(|p| (p.t_us, p.zeros_in_flight)),
                )
            })
            .collect();
        ExperimentOutput::Fig7(SeriesOut { series })
    }
}

/// Fig 8: execution time vs delivered ancilla bandwidth.
pub struct Fig8Experiment;

impl Experiment for Fig8Experiment {
    fn id(&self) -> &'static str {
        "fig8"
    }
    fn title(&self) -> &'static str {
        "Fig 8: execution time vs ancilla throughput"
    }
    fn substrate(&self) -> Substrate {
        Substrate::Characterizations
    }
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput {
        let model = CharacterizationModel::ion_trap();
        let series = ctx
            .benchmarks()
            .iter()
            .zip(ctx.characterizations())
            .map(|(s, r)| {
                let c = &s.circuit;
                let avg = r.report.bandwidth.zero_per_ms.max(1.0);
                Series::from_pairs(
                    c.name.clone(),
                    throughput_sweep(c, &model, avg / 30.0, avg * 30.0, 25)
                        .into_iter()
                        .map(|p| (p.zeros_per_ms, p.execution_us)),
                )
            })
            .collect();
        ExperimentOutput::Fig8(SeriesOut { series })
    }
}

/// Fig 15: the architecture comparison sweeps.
pub struct Fig15Experiment;

impl Experiment for Fig15Experiment {
    fn id(&self) -> &'static str {
        "fig15"
    }
    fn title(&self) -> &'static str {
        "Fig 15: execution time vs factory area across architectures"
    }
    fn substrate(&self) -> Substrate {
        Substrate::Benchmarks
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["headline"]
    }
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput {
        let range = &ctx.config().sweep_area_range;
        let areas = log_areas(range.min_area, range.max_area, ctx.config().sweep_points);
        let benchmarks = ctx.benchmarks();
        let threads = qods_pool::host_threads();
        let panels = qods_pool::run_indexed(benchmarks.len(), threads, |k| {
            let s = &benchmarks[k];
            let c = &s.circuit;
            let panel = &ctx.config().arch_panel;
            let archs: Vec<Arch> = panel.iter().map(|a| a.to_arch(c.n_qubits())).collect();
            // The `sched` stage already ran the speed-of-data pass
            // the simulator's demand rate needs.
            let sim = SimContext::with_sod_makespan(c, s.makespan_us);
            let curves = area_sweep_in(&sim, &archs, &areas, threads);
            // The §5.2 headline summary needs the FM, QLA, and
            // CQLA curves; a panel override that drops one of
            // them reports zeros instead (JSON has no NaN). The
            // check is on the panel selection itself, not curve
            // display names, so it cannot drift from the sweep.
            let has = |choice: ArchChoice| panel.contains(&choice);
            let (max_speedup, qla_area_penalty, cqla_plateau_ratio) =
                if has(ArchChoice::FullyMultiplexed)
                    && has(ArchChoice::Qla)
                    && has(ArchChoice::Cqla)
                {
                    let s = speedup_summary_from_curves(&curves);
                    (
                        s.max_speedup,
                        s.qla_area_penalty,
                        s.cqla_plateau_us / s.fm_plateau_us,
                    )
                } else {
                    (0.0, 0.0, 0.0)
                };
            Fig15Panel {
                name: c.name.clone(),
                curves: curves
                    .into_iter()
                    .map(|cv| {
                        Series::from_pairs(
                            cv.arch.to_string(),
                            cv.points.iter().map(|p| (p.area, p.exec_us)),
                        )
                    })
                    .collect(),
                max_speedup,
                qla_area_penalty,
                cqla_plateau_ratio,
            }
        });
        ExperimentOutput::Fig15(Fig15Out { panels })
    }
}

/// The kernel width sweep: every family characterized at arbitrary
/// operand widths through the `qods-compile` pipeline — the paper's
/// fixed 32-bit benchmark points generalized to scaling curves (and
/// extended past them).
pub struct WidthSweepExperiment;

impl Experiment for WidthSweepExperiment {
    fn id(&self) -> &'static str {
        "widthsweep"
    }
    fn title(&self) -> &'static str {
        "Width sweep: kernel scaling across operand widths"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["widths"]
    }
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput {
        use qods_kernels::{KernelFamily, KernelSpec};
        // Invalid configured widths (0, beyond MAX_WIDTH) are dropped
        // rather than panicking: the width list can arrive from an
        // untrusted service request.
        let widths: Vec<usize> = ctx
            .config()
            .width_sweep
            .iter()
            .copied()
            .filter(|&w| KernelSpec::new(KernelFamily::Qrca, w).is_ok())
            .collect();
        let specs: Vec<KernelSpec> = KernelFamily::ALL
            .iter()
            .flat_map(|&family| {
                widths
                    .iter()
                    .map(move |&width| KernelSpec { family, width })
            })
            .collect();
        let compiled = ctx
            .compiler()
            .characterize_many(&specs, qods_pool::pool_threads(specs.len()))
            // Proven invariant: the widths list is validated a few lines up.
            .expect("widths validated above");
        let curves = KernelFamily::ALL
            .iter()
            .enumerate()
            .map(|(fi, family)| WidthCurve {
                family: family.name().to_string(),
                points: (0..widths.len())
                    .map(|wi| {
                        let c = &compiled[fi * widths.len() + wi];
                        WidthPoint {
                            width: c.spec.width,
                            n_qubits: c.report.n_qubits,
                            gates: c.report.gate_count,
                            non_transversal_fraction: c.report.non_transversal_fraction,
                            speed_of_data_us: c.makespan_us,
                            zero_per_ms: c.report.bandwidth.zero_per_ms,
                            pi8_per_ms: c.report.bandwidth.pi8_per_ms,
                        }
                    })
                    .collect(),
            })
            .collect();
        ExperimentOutput::WidthSweep(WidthSweepOut { widths, curves })
    }
}

/// Fig 6 / §4.4.2: rotation-cascade cost by precision.
pub struct CascadeExperiment;

impl Experiment for CascadeExperiment {
    fn id(&self) -> &'static str {
        "fig6"
    }
    fn title(&self) -> &'static str {
        "Fig 6 / Section 4.4.2: cascade expected CX counts"
    }
    fn run(&self, _ctx: &StudyContext) -> ExperimentOutput {
        let rows = (3..=12u8)
            .map(|k| {
                let a = analyze_cascade(k);
                CascadeRow {
                    k,
                    expected_cx: a.expected_cx,
                    factories: a.factories,
                }
            })
            .collect();
        ExperimentOutput::Cascade(CascadeOut { rows })
    }
}
