//! The study configuration, and [`PaperReproduction`]: the schema of
//! the `results/repro.json` file a full `repro` run writes.
//!
//! Experiments themselves run through the
//! [`Registry`](crate::registry::Registry);
//! [`PaperReproduction::from_records`] assembles a full run's records
//! into that one-struct-per-paper file shape.

use crate::experiment::{ExperimentOutput, ExperimentRecord};
use crate::output::{
    CascadeRow, FactorySummary, Fig15Panel, Fig4Row, NonTransversalRow, Series, Table2Row,
    Table3Row, Table9Entry,
};
use qods_arch::machine::Arch;
use serde::{Deserialize, Serialize};

/// The Fig 15 factory-area sweep range (macroblocks).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepRange {
    /// Smallest area swept.
    pub min_area: f64,
    /// Largest area swept.
    pub max_area: f64,
}

/// A serializable architecture selection for the Fig 15 panel: each
/// choice names one microarchitecture at its default configuration
/// (the data-carrying parameters — CQLA cache slots, Qalypso tile
/// size — are derived from the benchmark width, as the paper does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArchChoice {
    /// Fully-multiplexed ancilla delivery (the paper's proposal).
    FullyMultiplexed,
    /// QLA: dedicated per-qubit generation.
    Qla,
    /// CQLA at the default cache sizing for the benchmark width.
    Cqla,
    /// Tiled Qalypso at the default tile size.
    Qalypso,
}

impl ArchChoice {
    /// The concrete [`Arch`] for an `n_qubits`-wide benchmark.
    pub fn to_arch(self, n_qubits: usize) -> Arch {
        match self {
            ArchChoice::FullyMultiplexed => Arch::FullyMultiplexed,
            ArchChoice::Qla => Arch::Qla,
            ArchChoice::Cqla => Arch::default_cqla(n_qubits),
            ArchChoice::Qalypso => Arch::default_qalypso(),
        }
    }

    /// The Fig 15 default panel: all four architectures in the
    /// paper's presentation order.
    pub fn paper_panel() -> Vec<ArchChoice> {
        vec![
            ArchChoice::FullyMultiplexed,
            ArchChoice::Qla,
            ArchChoice::Cqla,
            ArchChoice::Qalypso,
        ]
    }
}

/// Knobs for the study. Defaults run the paper's full configuration at
/// a Monte-Carlo size suitable for minutes-scale runs; tests shrink
/// `n_bits` and `mc_trials`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Benchmark operand width (paper: 32).
    pub n_bits: usize,
    /// Monte-Carlo trials per preparation circuit (Fig 4).
    pub mc_trials: u64,
    /// Monte-Carlo noise scale (1.0 = the paper's error rates).
    pub noise_scale: f64,
    /// Threads for Monte-Carlo runs.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Synthesis budget: maximum T-count for pi/2^k sequences.
    pub synth_max_t: u32,
    /// Synthesis early-stop distance.
    pub synth_target: f64,
    /// Fig 15 sweep: number of area points.
    pub sweep_points: usize,
    /// Fig 15 sweep range (macroblocks).
    pub sweep_area_range: SweepRange,
    /// Fig 7/8 sample counts.
    pub profile_samples: usize,
    /// Fig 15 architecture panel (paper: all four, FM first).
    pub arch_panel: Vec<ArchChoice>,
    /// Operand widths the `widthsweep` experiment characterizes every
    /// kernel family at (the paper's point is 32; the default ladder
    /// extends past it).
    pub width_sweep: Vec<usize>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            n_bits: 32,
            mc_trials: 200_000,
            noise_scale: 1.0,
            threads: 8,
            seed: 20080621, // ISCA '08
            synth_max_t: 12,
            synth_target: 1e-2,
            sweep_points: 13,
            sweep_area_range: SweepRange {
                min_area: 200.0,
                max_area: 3e6,
            },
            profile_samples: 256,
            arch_panel: ArchChoice::paper_panel(),
            width_sweep: vec![4, 8, 16, 32, 48],
        }
    }
}

impl StudyConfig {
    /// A configuration small enough for CI tests (seconds).
    pub fn smoke() -> Self {
        StudyConfig {
            n_bits: 8,
            mc_trials: 4_000,
            noise_scale: 10.0,
            threads: 2,
            synth_max_t: 8,
            sweep_points: 7,
            profile_samples: 64,
            width_sweep: vec![4, 8, 12],
            ..StudyConfig::default()
        }
    }
}

/// Everything the paper reports, in one struct: the schema of
/// `results/repro.json` (and of `repro --json` on a full run),
/// assembled from the individual experiment outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperReproduction {
    /// The configuration that produced this run.
    pub config: StudyConfig,
    /// Fig 4 rows.
    pub fig4: Vec<Fig4Row>,
    /// Table 2 rows.
    pub table2: Vec<Table2Row>,
    /// Table 3 rows.
    pub table3: Vec<Table3Row>,
    /// Non-transversal gate fractions (§3.3).
    pub non_transversal: Vec<NonTransversalRow>,
    /// Tables 5-8 and Fig 11 summary.
    pub factories: FactorySummary,
    /// Table 9 rows.
    pub table9: Vec<Table9Entry>,
    /// Fig 7 series (one per benchmark).
    pub fig7: Vec<Series>,
    /// Fig 8 series (one per benchmark).
    pub fig8: Vec<Series>,
    /// Fig 15 panels (one per benchmark).
    pub fig15: Vec<Fig15Panel>,
    /// Fig 6 / §4.4.2 cascade rows.
    pub cascade: Vec<CascadeRow>,
}

impl PaperReproduction {
    /// Assembles the `results/repro.json` struct from registry records.
    ///
    /// # Panics
    ///
    /// Panics when a paper artifact is missing from `records` — the
    /// full [`Registry::paper`](crate::registry::Registry::paper) run
    /// always produces all of them.
    pub fn from_records(config: StudyConfig, records: &[ExperimentRecord]) -> Self {
        let mut fig4 = None;
        let mut table2 = None;
        let mut table3 = None;
        let mut non_transversal = None;
        let mut simple = None;
        let mut zero = None;
        let mut pi8 = None;
        let mut table9 = None;
        let mut fig7 = None;
        let mut fig8 = None;
        let mut fig15 = None;
        let mut cascade = None;
        for r in records {
            match &r.output {
                // Not part of the paper-shaped file: Tables
                // 1/4 render from constants, the width sweep is an
                // extension artifact.
                ExperimentOutput::Latency(_) | ExperimentOutput::WidthSweep(_) => {}
                ExperimentOutput::Fig4(o) => fig4 = Some(o.rows.clone()),
                ExperimentOutput::Table2(o) => table2 = Some(o.rows.clone()),
                ExperimentOutput::Table3(o) => table3 = Some(o.rows.clone()),
                ExperimentOutput::NonTransversal(o) => non_transversal = Some(o.rows.clone()),
                ExperimentOutput::SimpleFactory(o) => simple = Some(*o),
                ExperimentOutput::ZeroFactory(o) => zero = Some(o.clone()),
                ExperimentOutput::Pi8Factory(o) => pi8 = Some(o.clone()),
                ExperimentOutput::Table9(o) => table9 = Some(o.rows.clone()),
                ExperimentOutput::Fig7(o) => fig7 = Some(o.series.clone()),
                ExperimentOutput::Fig8(o) => fig8 = Some(o.series.clone()),
                ExperimentOutput::Fig15(o) => fig15 = Some(o.panels.clone()),
                ExperimentOutput::Cascade(o) => cascade = Some(o.rows.clone()),
            }
        }
        PaperReproduction {
            config,
            fig4: fig4.expect("fig4 record"),
            table2: table2.expect("table2 record"),
            table3: table3.expect("table3 record"),
            non_transversal: non_transversal.expect("sec33 record"),
            factories: FactorySummary {
                simple: simple.expect("fig11 record"),
                zero: zero.expect("table5 record"),
                pi8: pi8.expect("table7 record"),
            },
            table9: table9.expect("table9 record"),
            fig7: fig7.expect("fig7 record"),
            fig8: fig8.expect("fig8 record"),
            fig15: fig15.expect("fig15 record"),
            cascade: cascade.expect("fig6 record"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::StudyContext;
    use crate::registry::tests::paper_records;

    #[test]
    fn smoke_study_runs_end_to_end() {
        let config = StudyConfig::smoke();
        let records = paper_records(&StudyContext::new(config.clone()));
        let out = PaperReproduction::from_records(config, &records);
        assert_eq!(out.fig4.len(), 4);
        assert_eq!(out.table2.len(), 3);
        assert_eq!(out.table3.len(), 3);
        assert_eq!(out.table9.len(), 3);
        assert_eq!(out.fig15.len(), 3);
        assert_eq!(out.factories.zero.total_area, 298);
        assert_eq!(out.factories.pi8.total_area, 403);
        // Serializes cleanly.
        let json = serde_json::to_string(&out).expect("serialize");
        assert!(json.contains("QRCA"));
    }

    #[test]
    fn benchmarks_have_expected_qubit_counts() {
        let ctx = StudyContext::new(StudyConfig {
            n_bits: 32,
            ..StudyConfig::smoke()
        });
        let b = ctx.benchmarks();
        assert_eq!(b[0].circuit.n_qubits(), 97);
        assert_eq!(b[1].circuit.n_qubits(), 123);
        assert_eq!(b[2].circuit.n_qubits(), 32);
    }
}
