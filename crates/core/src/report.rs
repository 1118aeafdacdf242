//! Paper-style text rendering: one [`Render`] impl per experiment
//! output, and [`paper_report`], the full report `repro` prints.

use crate::experiment::{ExperimentOutput, ExperimentRecord};
use crate::output::{
    CascadeOut, Fig15Out, Fig4Out, LatencyOut, NonTransversalOut, PipelinedFactoryOut, Series,
    SeriesOut, SimpleFactoryOut, Table2Out, Table3Out, Table9Entry, Table9Out, WidthSweepOut,
};
use std::fmt::Write as _;

/// Types that can print themselves in the paper's layout.
pub trait Render {
    /// Appends the paper-style rendering to `out`.
    fn render_into(&self, out: &mut String);

    /// The paper-style rendering as a fresh string.
    fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }
}

impl Render for LatencyOut {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(
            w,
            "== Table 1 / Table 4: physical operation latencies (us) =="
        );
        let _ = writeln!(
            w,
            "  one-qubit {:.0}, two-qubit {:.0}, measurement {:.0}, zero-prepare {:.0}, move {:.0}, turn {:.0}",
            self.t_1q, self.t_2q, self.t_meas, self.t_prep, self.t_move, self.t_turn
        );
    }
}

impl Render for Fig4Out {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(w, "== Fig 4: encoded-zero preparation (Monte Carlo) ==");
        let _ = writeln!(
            w,
            "  {:<20} {:>14} {:>12} {:>10} {:>12}",
            "circuit", "uncorrectable", "any-residual", "discard", "paper"
        );
        for r in &self.rows {
            let _ = writeln!(
                w,
                "  {:<20} {:>14.3e} {:>12.3e} {:>10.4} {:>12.1e}",
                r.strategy, r.uncorrectable_rate, r.dirty_rate, r.discard_rate, r.paper_rate
            );
        }
    }
}

impl Render for Table2Out {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(w, "== Table 2: latency breakdown (us, % of total) ==");
        for r in &self.rows {
            let _ = writeln!(
                w,
                "  {:<10} data {:>10.0} ({:>4.1}%)  QEC interact {:>10.0} ({:>4.1}%)  prep {:>10.0} ({:>4.1}%)",
                r.name,
                r.data_op_us,
                100.0 * r.shares.data_op,
                r.qec_interact_us,
                100.0 * r.shares.qec_interact,
                r.ancilla_prep_us,
                100.0 * r.shares.ancilla_prep
            );
        }
    }
}

impl Render for Table3Out {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(w, "== Table 3: required ancilla bandwidths (per ms) ==");
        for r in &self.rows {
            let _ = writeln!(
                w,
                "  {:<10} zero {:>8.1}   pi/8 {:>8.1}",
                r.name, r.zero_per_ms, r.pi8_per_ms
            );
        }
    }
}

impl Render for NonTransversalOut {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(w, "== Section 3.3: non-transversal gate fractions ==");
        for r in &self.rows {
            let _ = writeln!(w, "  {:<10} {:.1}%", r.name, 100.0 * r.fraction);
        }
    }
}

impl Render for SimpleFactoryOut {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(w, "== Fig 11 / Section 4.3: simple ancilla factory ==");
        let _ = writeln!(
            w,
            "  latency {:.0} us, area {} macroblocks, {:.1} ancillae/ms",
            self.latency_us, self.area, self.throughput_per_ms
        );
    }
}

impl PipelinedFactoryOut {
    fn render_with_heading(&self, w: &mut String, heading: &str) {
        let _ = writeln!(w, "== {heading} ==");
        let counts: Vec<String> = self
            .unit_counts
            .iter()
            .map(|u| format!("{} x{}", u.unit, u.count))
            .collect();
        let _ = writeln!(w, "  units: {}", counts.join(", "));
        let _ = writeln!(
            w,
            "  functional {} + crossbar {} = {} macroblocks; {:.1} ancillae/ms",
            self.functional_area, self.crossbar_area, self.total_area, self.throughput_per_ms
        );
    }
}

impl Render for Table9Out {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(w, "== Table 9: area breakdown at the speed of data ==");
        for r in &self.rows {
            let _ = writeln!(
                w,
                "  {:<10} bw {:>7.1}  data {:>8.0} ({:>4.1}%)  QEC factories {:>9.1} ({:>4.1}%)  pi/8 {:>9.1} ({:>4.1}%)",
                r.name,
                r.zero_bandwidth,
                r.data.area,
                100.0 * r.data.share,
                r.qec.area,
                100.0 * r.qec.share,
                r.pi8.area,
                100.0 * r.pi8.share
            );
        }
        if let Some(row) = self.rows.first() {
            let _ = writeln!(w, "\n== Fig 14c: microarchitecture to scale ==");
            let _ = writeln!(w, "{}", render_floorplan(row));
        }
    }
}

fn render_series_peaks(series: &[Series], w: &mut String) {
    for s in series {
        let peak = s.points.iter().map(|p| p.y).fold(0.0, f64::max);
        let _ = writeln!(w, "  {:<10} peak in-flight {:.0}", s.label, peak);
    }
}

fn render_series_spans(series: &[Series], w: &mut String) {
    for s in series {
        let (Some(lo), Some(hi)) = (s.points.first(), s.points.last()) else {
            continue;
        };
        let _ = writeln!(
            w,
            "  {:<10} {:>10.3e} us @ {:>8.1}/ms  ->  {:>10.3e} us @ {:>8.1}/ms",
            s.label, lo.y, lo.x, hi.y, hi.x
        );
    }
}

impl Render for Fig15Out {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(w, "== Fig 15: execution time vs factory area ==");
        for p in &self.panels {
            let _ = writeln!(
                w,
                "  {}: max equal-area speedup {:.1}x; QLA needs {:.0}x the area; CQLA plateau {:.1}x FM",
                p.name, p.max_speedup, p.qla_area_penalty, p.cqla_plateau_ratio
            );
            for c in &p.curves {
                let first = c.points.first().map(|p| p.y).unwrap_or(0.0);
                let last = c.points.last().map(|p| p.y).unwrap_or(0.0);
                let _ = writeln!(
                    w,
                    "    {:<18} {:>10.3e} us (starved) -> {:>10.3e} us (plateau)",
                    c.label, first, last
                );
            }
        }
    }
}

impl Render for CascadeOut {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(
            w,
            "== Fig 6 / Section 4.4.2: cascade expected CX on critical path =="
        );
        let row: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("k={}: {:.3}", r.k, r.expected_cx))
            .collect();
        let _ = writeln!(w, "  {}", row.join("  "));
    }
}

impl Render for WidthSweepOut {
    fn render_into(&self, w: &mut String) {
        let _ = writeln!(w, "== Width sweep: kernel scaling across operand widths ==");
        for c in &self.curves {
            let _ = writeln!(w, "  {}:", c.family);
            for p in &c.points {
                let _ = writeln!(
                    w,
                    "    n={:<3} {:>4} qubits {:>7} gates  T-frac {:>5.3}  \
                     {:>10.3e} us @ speed of data  zeros {:>8.1}/ms  pi/8 {:>7.1}/ms",
                    p.width,
                    p.n_qubits,
                    p.gates,
                    p.non_transversal_fraction,
                    p.speed_of_data_us,
                    p.zero_per_ms,
                    p.pi8_per_ms
                );
            }
        }
    }
}

impl Render for ExperimentOutput {
    fn render_into(&self, w: &mut String) {
        match self {
            ExperimentOutput::Latency(o) => o.render_into(w),
            ExperimentOutput::Fig4(o) => o.render_into(w),
            ExperimentOutput::Table2(o) => o.render_into(w),
            ExperimentOutput::Table3(o) => o.render_into(w),
            ExperimentOutput::NonTransversal(o) => o.render_into(w),
            ExperimentOutput::SimpleFactory(o) => o.render_into(w),
            ExperimentOutput::ZeroFactory(o) => {
                o.render_with_heading(w, "Tables 5-6: pipelined encoded-zero factory")
            }
            ExperimentOutput::Pi8Factory(o) => {
                o.render_with_heading(w, "Tables 7-8: pi/8 ancilla factory")
            }
            ExperimentOutput::Table9(o) => o.render_into(w),
            ExperimentOutput::Fig7(SeriesOut { series }) => {
                let _ = writeln!(w, "== Fig 7: ancilla demand profiles ==");
                render_series_peaks(series, w);
            }
            ExperimentOutput::Fig8(SeriesOut { series }) => {
                let _ = writeln!(w, "== Fig 8: execution time vs ancilla throughput ==");
                render_series_spans(series, w);
            }
            ExperimentOutput::Fig15(o) => o.render_into(w),
            ExperimentOutput::Cascade(o) => o.render_into(w),
            ExperimentOutput::WidthSweep(o) => o.render_into(w),
        }
    }
}

/// The full paper-layout report over a run's records: each record's
/// [`Render`] in the order given (registry order for a full run), one
/// blank line between sections. Fig 7, Fig 8 and the width sweep are
/// series-only outputs: they go to CSVs, not into the report.
pub fn paper_report(records: &[ExperimentRecord]) -> String {
    let sections: Vec<String> = records
        .iter()
        .filter(|r| {
            !matches!(
                r.output,
                ExperimentOutput::Fig7(_)
                    | ExperimentOutput::Fig8(_)
                    | ExperimentOutput::WidthSweep(_)
            )
        })
        .map(|r| r.output.render())
        .collect();
    sections.join("\n")
}

/// Renders the Fig 14c "microarchitecture to scale" picture for one
/// Table 9 row as ASCII art: each cell is ~1% of the chip.
///
/// The paper's point is visual: the data region is a sliver and the
/// chip is essentially a wall of ancilla factories.
pub fn render_floorplan(row: &Table9Entry) -> String {
    let width = 50usize;
    let rows = 6usize;
    let cells = width * rows;
    let data = ((row.data.share * cells as f64).round() as usize).max(1);
    let qec = ((row.qec.share * cells as f64).round() as usize).max(1);
    let mut s = format!(
        "{} — to scale ({}: D = data, Q = QEC factories, P = pi/8 chain)\n",
        row.name, "Fig 14c"
    );
    for r in 0..rows {
        s.push_str("  ");
        for c in 0..width {
            let i = r * width + c;
            s.push(if i < data {
                'D'
            } else if i < data + qec {
                'Q'
            } else {
                'P'
            });
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::Render;
    use crate::experiment::{ExperimentOutput, StudyContext};
    use crate::registry::tests::paper_records;
    use crate::registry::Registry;
    use crate::study::StudyConfig;

    fn headings(text: &str) -> Vec<&str> {
        text.lines().filter(|l| l.starts_with("== ")).collect()
    }

    #[test]
    fn floorplan_is_generation_dominated() {
        let ctx = StudyContext::new(StudyConfig::smoke());
        let registry = Registry::paper();
        let table9 = registry.get("table9").expect("table9");
        let ExperimentOutput::Table9(out) = table9.run(&ctx) else {
            panic!("table9 must produce Table 9 rows");
        };
        let plan = super::render_floorplan(&out.rows[0]);
        let d = plan.matches('D').count();
        let q = plan.matches('Q').count();
        let p = plan.matches('P').count();
        assert!(q + p > d, "factories must dominate the floor plan");
        assert!(d > 0 && q > 0 && p > 0);
    }

    #[test]
    fn render_mentions_every_artifact() {
        let registry = Registry::paper();
        let records = paper_records(&StudyContext::new(StudyConfig::smoke()));
        let text = super::paper_report(&records);
        for needle in [
            "Table 2",
            "Table 3",
            "Table 9",
            "Fig 4",
            "Fig 11",
            "Fig 15",
            "Fig 6",
            "Tables 5-6",
            "Tables 7-8",
            "298",
            "403",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        // Sections follow registry order; the series-only outputs
        // (Fig 7, Fig 8, width sweep) are left to the CSVs.
        let ids: Vec<&str> = registry.iter().map(|e| e.id()).collect();
        let expected: Vec<String> = ids
            .iter()
            .filter(|id| !["fig7", "fig8", "widthsweep"].contains(id))
            .map(|id| {
                let r = records.iter().find(|r| r.id == *id).expect("record");
                r.output.render()
            })
            .collect();
        let expected: Vec<&str> = expected.iter().flat_map(|s| headings(s)).collect();
        assert_eq!(headings(&text), expected);
    }

    #[test]
    fn every_experiment_output_renders_non_trivially() {
        let ctx = StudyContext::new(StudyConfig::smoke());
        for record in paper_records(&ctx) {
            let text = record.output.render();
            assert!(
                text.starts_with("== "),
                "{}: rendering must open with a heading",
                record.id
            );
            assert!(text.lines().count() >= 2, "{}: too short", record.id);
        }
    }
}
