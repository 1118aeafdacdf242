//! Named, serializable output types for every experiment.
//!
//! These replace the anonymous tuples the first draft of the study
//! used (`(f64, u32, f64)` factory summaries, `(f64, f64)` area/share
//! pairs, `Vec<(u8, f64)>` cascades, …): every field the paper reports
//! now has a name in the JSON output, and every type round-trips
//! through serde so downstream tooling can reload archived results.

use qods_compile::HeapBytes;
use serde::{Deserialize, Serialize};

/// Maps a label to a filesystem-safe file stem (non-alphanumeric
/// characters become `_`). The single sanitization rule for every
/// CSV/figure file the workspace writes.
pub fn csv_safe_stem(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

/// One point of a figure series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Abscissa (units depend on the figure: µs, macroblocks, …).
    pub x: f64,
    /// Ordinate.
    pub y: f64,
}

/// A labelled curve of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Curve label (benchmark or architecture name).
    pub label: String,
    /// The curve's points, in sweep order.
    pub points: Vec<Point>,
}

impl Series {
    /// Builds a series from raw `(x, y)` pairs.
    pub fn from_pairs(
        label: impl Into<String>,
        pairs: impl IntoIterator<Item = (f64, f64)>,
    ) -> Self {
        Series {
            label: label.into(),
            points: pairs.into_iter().map(|(x, y)| Point { x, y }).collect(),
        }
    }
}

/// Tables 1 and 4: the physical operation latencies (µs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyOut {
    /// One-qubit gate.
    pub t_1q: f64,
    /// Two-qubit gate.
    pub t_2q: f64,
    /// Measurement.
    pub t_meas: f64,
    /// Physical zero preparation.
    pub t_prep: f64,
    /// One-cell ballistic move.
    pub t_move: f64,
    /// A turn at an intersection.
    pub t_turn: f64,
}

/// One Fig 4 row: Monte-Carlo quality of a preparation circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Strategy label.
    pub strategy: String,
    /// Measured uncorrectable-residual rate.
    pub uncorrectable_rate: f64,
    /// Measured any-residual rate.
    pub dirty_rate: f64,
    /// Measured verification discard rate.
    pub discard_rate: f64,
    /// The paper's reported number.
    pub paper_rate: f64,
}

/// Fig 4: the full Monte-Carlo panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Out {
    /// One row per preparation strategy.
    pub rows: Vec<Fig4Row>,
}

/// Shares of a benchmark's total latency (fractions summing to ~1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyShares {
    /// Useful data operations.
    pub data_op: f64,
    /// QEC interaction.
    pub qec_interact: f64,
    /// Ancilla preparation.
    pub ancilla_prep: f64,
}

/// One Table 2 row: where a benchmark's time goes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Useful data-op latency (µs).
    pub data_op_us: f64,
    /// QEC interaction latency (µs).
    pub qec_interact_us: f64,
    /// Ancilla preparation latency (µs).
    pub ancilla_prep_us: f64,
    /// Shares of the total.
    pub shares: LatencyShares,
}

/// Table 2: the latency breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Out {
    /// One row per benchmark.
    pub rows: Vec<Table2Row>,
}

/// One Table 3 row: ancilla bandwidth a benchmark demands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Encoded zeros per ms for QEC.
    pub zero_per_ms: f64,
    /// Encoded pi/8 ancillae per ms.
    pub pi8_per_ms: f64,
}

/// Table 3: required ancilla bandwidths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Out {
    /// One row per benchmark.
    pub rows: Vec<Table3Row>,
}

/// One §3.3 row: how much of a benchmark is non-transversal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NonTransversalRow {
    /// Benchmark name.
    pub name: String,
    /// Fraction of gates needing prepared ancillae.
    pub fraction: f64,
}

/// §3.3: non-transversal gate fractions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NonTransversalOut {
    /// One row per benchmark.
    pub rows: Vec<NonTransversalRow>,
}

/// Fig 11 / §4.3: the simple (non-pipelined) ancilla factory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimpleFactoryOut {
    /// End-to-end preparation latency (µs).
    pub latency_us: f64,
    /// Factory area (macroblocks).
    pub area: u32,
    /// Delivered ancillae per ms.
    pub throughput_per_ms: f64,
}

/// One functional-unit allocation row (Tables 6 and 8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitCount {
    /// Unit name.
    pub unit: String,
    /// How many instances the bandwidth-matched design allocates.
    pub count: u32,
}

/// A bandwidth-matched pipelined factory (Tables 5–8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinedFactoryOut {
    /// Area of the functional units (macroblocks).
    pub functional_area: u32,
    /// Area of the interconnect crossbars (macroblocks).
    pub crossbar_area: u32,
    /// Total factory area (macroblocks).
    pub total_area: u32,
    /// Delivered ancillae per ms.
    pub throughput_per_ms: f64,
    /// Per-stage unit allocation (Table 6 / Table 8).
    pub unit_counts: Vec<UnitCount>,
}

/// Tables 5–8 and Fig 11 in one place (the `factories` field of the
/// full reproduction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorySummary {
    /// The simple factory (Fig 11).
    pub simple: SimpleFactoryOut,
    /// The pipelined encoded-zero factory (Tables 5–6).
    pub zero: PipelinedFactoryOut,
    /// The pi/8 factory (Tables 7–8).
    pub pi8: PipelinedFactoryOut,
}

/// An area with its share of the chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaShare {
    /// Area in macroblocks.
    pub area: f64,
    /// Fraction of the total chip area.
    pub share: f64,
}

/// One Table 9 row: the chip's area budget at the speed of data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table9Entry {
    /// Benchmark name.
    pub name: String,
    /// Encoded-zero bandwidth the chip must sustain (per ms).
    pub zero_bandwidth: f64,
    /// Data region.
    pub data: AreaShare,
    /// Encoded-zero (QEC) factories.
    pub qec: AreaShare,
    /// pi/8 ancilla chain.
    pub pi8: AreaShare,
}

/// Table 9: area breakdown at the speed of data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table9Out {
    /// One row per benchmark.
    pub rows: Vec<Table9Entry>,
}

/// A figure made of one series per benchmark (Figs 7 and 8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesOut {
    /// One series per benchmark.
    pub series: Vec<Series>,
}

/// Fig 15, one panel: execution time vs factory area for one benchmark
/// across the four architectures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig15Panel {
    /// Benchmark name.
    pub name: String,
    /// One curve per architecture.
    pub curves: Vec<Series>,
    /// Maximum equal-area speedup over the best dedicated-generator
    /// proposal.
    pub max_speedup: f64,
    /// QLA knee-area penalty relative to Fully-Multiplexed.
    pub qla_area_penalty: f64,
    /// CQLA plateau / FM plateau.
    pub cqla_plateau_ratio: f64,
}

/// Fig 15: the architecture comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig15Out {
    /// One panel per benchmark.
    pub panels: Vec<Fig15Panel>,
}

/// One Fig 6 / §4.4.2 row: cascade cost at precision `k`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CascadeRow {
    /// Rotation precision (π/2^k).
    pub k: u8,
    /// Expected CX count on the critical path.
    pub expected_cx: f64,
    /// Factories needed to keep the cascade fed.
    pub factories: u32,
}

/// Fig 6: cascade expected CX counts by precision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CascadeOut {
    /// One row per precision.
    pub rows: Vec<CascadeRow>,
}

/// One point of the kernel width sweep: a family characterized at one
/// operand width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WidthPoint {
    /// Operand width (bits).
    pub width: usize,
    /// Encoded qubits (data + data ancillae).
    pub n_qubits: usize,
    /// Lowered physical gate count.
    pub gates: usize,
    /// Fraction of non-transversal gates.
    pub non_transversal_fraction: f64,
    /// Speed-of-data execution time (µs): the makespan of the
    /// data-dependency-limited schedule.
    pub speed_of_data_us: f64,
    /// Required encoded-zero bandwidth (per ms).
    pub zero_per_ms: f64,
    /// Required pi/8-ancilla bandwidth (per ms).
    pub pi8_per_ms: f64,
}

/// One kernel family's scaling curve across widths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WidthCurve {
    /// Family id (`qrca`, `qcla`, `qft`, `draper`, `ctrladd`).
    pub family: String,
    /// One point per swept width, ascending.
    pub points: Vec<WidthPoint>,
}

/// The kernel width sweep (`widthsweep`): every kernel family
/// characterized across the configured operand widths — the paper's
/// fixed 32-bit points generalized to scaling curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WidthSweepOut {
    /// The widths actually swept (invalid configured widths are
    /// dropped).
    pub widths: Vec<usize>,
    /// One curve per kernel family.
    pub curves: Vec<WidthCurve>,
}

impl WidthSweepOut {
    fn series_of(&self, f: impl Fn(&WidthPoint) -> f64) -> Vec<Series> {
        self.curves
            .iter()
            .map(|c| {
                Series::from_pairs(
                    c.family.clone(),
                    c.points.iter().map(|p| (p.width as f64, f(p))),
                )
            })
            .collect()
    }

    /// Speed-of-data runtime vs width, one series per family.
    pub fn speed_of_data_series(&self) -> Vec<Series> {
        self.series_of(|p| p.speed_of_data_us)
    }

    /// Required encoded-zero bandwidth vs width, one series per family.
    pub fn zero_bandwidth_series(&self) -> Vec<Series> {
        self.series_of(|p| p.zero_per_ms)
    }
}

/// Implements [`HeapBytes`] as the sum over the listed fields, which
/// name every field of the type that owns heap (an allocation-counting
/// test checks each paper output against what its `clone()` allocates).
macro_rules! heap_bytes_of {
    ($($ty:ident { $($field:ident),* })*) => {
        $(impl HeapBytes for $ty {
            fn heap_bytes(&self) -> usize {
                0 $(+ self.$field.heap_bytes())*
            }
        })*
    };
}

heap_bytes_of! {
    Point {}
    Series { label, points }
    Fig4Row { strategy }
    Fig4Out { rows }
    Table2Row { name }
    Table2Out { rows }
    Table3Row { name }
    Table3Out { rows }
    NonTransversalRow { name }
    NonTransversalOut { rows }
    UnitCount { unit }
    PipelinedFactoryOut { unit_counts }
    Table9Entry { name }
    Table9Out { rows }
    SeriesOut { series }
    Fig15Panel { name, curves }
    Fig15Out { panels }
    CascadeRow {}
    CascadeOut { rows }
    WidthPoint {}
    WidthCurve { family, points }
    WidthSweepOut { widths, curves }
}
