//! Bandwidth matching and factory sizing (§4.4).
//!
//! "To achieve high resource utilization, we determine unit count by
//! matching bandwidth between successive stages" — each stage gets
//! enough units that its aggregate input bandwidth covers the upstream
//! stage's aggregate output, and crossbars between stages are sized by
//! the adjacent stage heights.

use crate::unit::FunctionalUnit;
use qods_phys::latency::LatencyTable;

/// A stage in a sized factory.
#[derive(Debug, Clone)]
pub struct SizedStage {
    /// The functional unit replicated in this stage.
    pub unit: FunctionalUnit,
    /// Number of units.
    pub count: u32,
}

impl SizedStage {
    /// Total stage height (units stack vertically).
    pub fn total_height(&self) -> u32 {
        self.count * self.unit.height
    }

    /// Total stage area.
    pub fn total_area(&self) -> u32 {
        self.count * self.unit.area
    }

    /// Aggregate input bandwidth (qubits/ms).
    pub fn bw_in(&self, t: &LatencyTable) -> f64 {
        f64::from(self.count) * self.unit.bw_in_per_ms(t)
    }

    /// Aggregate output bandwidth (qubits/ms).
    pub fn bw_out(&self, t: &LatencyTable) -> f64 {
        f64::from(self.count) * self.unit.bw_out_per_ms(t)
    }
}

/// Crossbar widths between stages: the first crossbar of the zero
/// factory funnels inward and needs one column; the rest are
/// bidirectional two-column designs (§4.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossbarColumns {
    /// One-column (funnel-in) crossbar.
    Single,
    /// Two-column bidirectional crossbar.
    Double,
}

impl CrossbarColumns {
    fn width(self) -> u32 {
        match self {
            CrossbarColumns::Single => 1,
            CrossbarColumns::Double => 2,
        }
    }
}

/// A fully sized factory.
#[derive(Debug, Clone)]
pub struct SizedFactory {
    /// Factory display name.
    pub name: &'static str,
    /// Stages in pipeline order. A stage may hold multiple unit types
    /// (e.g. CX + Cat Prep in the zero factory); see `stage_groups`.
    pub stages: Vec<SizedStage>,
    /// Which consecutive `stages` entries share one pipeline stage
    /// (and hence one crossbar boundary): indices into `stages`.
    pub stage_groups: Vec<Vec<usize>>,
    /// Crossbar column widths, one per boundary between stage groups.
    pub crossbars: Vec<CrossbarColumns>,
    /// Encoded ancillae per millisecond at the bottleneck.
    pub throughput_per_ms: f64,
}

impl SizedFactory {
    /// Total functional-unit area.
    pub fn functional_area(&self) -> u32 {
        self.stages.iter().map(SizedStage::total_area).sum()
    }

    /// Height of one stage group (sum of its stages' heights).
    fn group_height(&self, g: &[usize]) -> u32 {
        g.iter().map(|&i| self.stages[i].total_height()).sum()
    }

    /// Total crossbar area: each boundary crossbar spans the taller of
    /// the two adjacent stage groups.
    pub fn crossbar_area(&self) -> u32 {
        let mut area = 0;
        for (b, xb) in self.crossbars.iter().enumerate() {
            let h_prev = self.group_height(&self.stage_groups[b]);
            let h_next = self.group_height(&self.stage_groups[b + 1]);
            area += xb.width() * h_prev.max(h_next);
        }
        area
    }

    /// Total area in macroblocks.
    pub fn total_area(&self) -> u32 {
        self.functional_area() + self.crossbar_area()
    }

    /// Encoded-ancilla bandwidth per macroblock of factory area.
    pub fn throughput_per_area(&self) -> f64 {
        self.throughput_per_ms / f64::from(self.total_area())
    }
}

/// Units needed so that aggregate input bandwidth covers `demand`
/// qubits/ms.
pub fn units_to_cover(demand: f64, unit: &FunctionalUnit, t: &LatencyTable) -> u32 {
    let per = unit.bw_in_per_ms(t);
    assert!(per > 0.0, "unit {} has zero bandwidth", unit.name);
    (demand / per).ceil().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use qods_phys::latency::SymbolicLatency;

    fn toy_unit(qin: u32, qout: u32, stages: u32) -> FunctionalUnit {
        FunctionalUnit {
            name: "toy",
            latency: SymbolicLatency::new().two_q(10), // 100 us
            stages,
            qubits_in: qin,
            qubits_out: qout,
            success: 1.0,
            area: 3,
            height: 2,
        }
    }

    #[test]
    fn unit_counting_rounds_up() {
        let t = LatencyTable::ion_trap();
        let u = toy_unit(1, 1, 1); // 10 qubits/ms
        assert_eq!(units_to_cover(25.0, &u, &t), 3);
        assert_eq!(units_to_cover(30.0, &u, &t), 3);
        assert_eq!(units_to_cover(30.1, &u, &t), 4);
        assert_eq!(units_to_cover(0.0, &u, &t), 1); // at least one
    }

    #[test]
    fn crossbar_spans_taller_neighbor() {
        let f = SizedFactory {
            name: "toy",
            stages: vec![
                SizedStage {
                    unit: toy_unit(1, 1, 1),
                    count: 5,
                }, // h = 10
                SizedStage {
                    unit: toy_unit(1, 1, 1),
                    count: 2,
                }, // h = 4
            ],
            stage_groups: vec![vec![0], vec![1]],
            crossbars: vec![CrossbarColumns::Double],
            throughput_per_ms: 1.0,
        };
        assert_eq!(f.crossbar_area(), 2 * 10);
        assert_eq!(f.functional_area(), 7 * 3);
        assert_eq!(f.total_area(), 41);
    }
}
