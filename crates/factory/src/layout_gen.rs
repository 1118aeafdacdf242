//! Concrete macroblock layouts for the factories, cross-checked
//! against the published areas.
//!
//! The paper's layouts were produced by the authors' CAD tool (\[8\]);
//! we rebuild them from the figures' descriptions. The simple factory
//! (Fig 11) is three rows of ten gate locations with communication
//! rows between and around them: a 9 x 10 grid, 90 macroblocks.

use qods_layout::grid::Grid;
use qods_layout::macroblock::{Macroblock, MacroblockKind};

/// Builds the Fig 11 simple-factory layout (9 rows x 10 columns).
///
/// Row pattern (top to bottom): access channel, gate row, channel,
/// channel, gate row, channel, channel, gate row, access channel.
/// Horizontal channel rows are connected to the vertical gate columns
/// through four-way intersections at the row ends.
pub fn simple_factory_layout() -> Grid {
    let rows = 9;
    let cols = 10;
    let mut g = Grid::new(rows, cols);
    for r in 0..rows {
        let is_gate_row = r == 1 || r == 4 || r == 7;
        for c in 0..cols {
            let block = if is_gate_row {
                // Gate locations in a vertical channel (qubits enter
                // from the communication rows above/below).
                Macroblock::new(MacroblockKind::StraightChannelGate)
            } else {
                // Communication rows: intersections so qubits can both
                // travel along the row and drop into the gate columns.
                Macroblock::new(MacroblockKind::FourWayIntersection)
            };
            let _ = c;
            g.place(r, c, block);
        }
    }
    g
}

/// A straight vertical channel column of the given height, used as the
/// crossbar column primitive in pipelined factory layouts.
pub fn crossbar_column(height: usize) -> Grid {
    let mut g = Grid::new(height, 1);
    for r in 0..height {
        g.place(r, 0, Macroblock::new(MacroblockKind::StraightChannel));
    }
    g
}

/// Checks that a gate row's ports line up with its neighbors: every
/// gate block must be reachable from the factory edge.
pub fn all_gates_reachable(g: &Grid) -> bool {
    let t = qods_phys::latency::LatencyTable::ion_trap();
    let start = (0usize, 0usize);
    if g.at(start.0, start.1).is_none() {
        return false;
    }
    g.gate_locations()
        .iter()
        .all(|&(r, c)| qods_layout::route::route(g, start, (r, c), &t).is_some())
}

/// Counts external ports (open channel ends on the grid boundary) —
/// the factory's input/output ports. Qalypso (§5.3) relies on factories
/// having concentrated ports near the data region.
pub fn external_ports(g: &Grid) -> usize {
    let mut n = 0;
    for r in 0..g.rows() {
        for c in 0..g.cols() {
            let Some(b) = g.at(r, c) else { continue };
            for d in b.ports() {
                if g.neighbor(r, c, d).is_none() {
                    n += 1;
                }
            }
        }
    }
    n
}

/// Builds a concrete macroblock layout for a sized pipelined factory
/// (Fig 12's floor plan): stage groups as columns of functional-unit
/// blocks, separated by crossbar columns whose heights span the taller
/// neighbor. The generated layout's macroblock count reproduces the
/// factory's area formula exactly, giving the area model a geometric
/// cross-check.
pub fn pipelined_factory_layout(factory: &crate::pipeline::SizedFactory) -> Grid {
    // Column widths: each stage group gets the max unit *width* needed
    // to hold its area (area = width x height per unit; our units are
    // modeled as width = area / height columns of blocks).
    let group_heights: Vec<usize> = factory
        .stage_groups
        .iter()
        .map(|g| {
            g.iter()
                .map(|&i| factory.stages[i].total_height() as usize)
                .sum()
        })
        .collect();
    let total_height = *group_heights.iter().max().expect("non-empty factory");

    // Total width: per group, ceil(area / height) columns; plus
    // crossbar widths between groups.
    let mut group_widths = Vec::new();
    for (gi, g) in factory.stage_groups.iter().enumerate() {
        let area: usize = g
            .iter()
            .map(|&i| factory.stages[i].total_area() as usize)
            .sum();
        let h = group_heights[gi].max(1);
        group_widths.push(area.div_ceil(h));
    }
    let xbar_widths: Vec<usize> = factory
        .crossbars
        .iter()
        .map(|x| match x {
            crate::pipeline::CrossbarColumns::Single => 1,
            crate::pipeline::CrossbarColumns::Double => 2,
        })
        .collect();

    let total_width: usize = group_widths.iter().sum::<usize>() + xbar_widths.iter().sum::<usize>();
    let mut grid = Grid::new(total_height, total_width);

    let mut col = 0usize;
    for (gi, _) in factory.stage_groups.iter().enumerate() {
        // Functional blocks: place exactly `area` blocks in this
        // group's columns, top-aligned (gate channels).
        let mut remaining: usize = factory.stage_groups[gi]
            .iter()
            .map(|&i| factory.stages[i].total_area() as usize)
            .sum();
        for c in col..col + group_widths[gi] {
            for r in 0..group_heights[gi].min(total_height) {
                if remaining == 0 {
                    break;
                }
                grid.place(r, c, Macroblock::new(MacroblockKind::StraightChannelGate));
                remaining -= 1;
            }
        }
        col += group_widths[gi];
        // Crossbar column(s) after this group (if any).
        if gi < xbar_widths.len() {
            let xh = group_heights[gi]
                .max(*group_heights.get(gi + 1).unwrap_or(&0))
                .min(total_height);
            for c in col..col + xbar_widths[gi] {
                for r in 0..xh {
                    grid.place(r, c, Macroblock::new(MacroblockKind::StraightChannel));
                }
            }
            col += xbar_widths[gi];
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_factory_is_90_macroblocks() {
        let g = simple_factory_layout();
        assert_eq!(g.area(), 90);
        assert_eq!(g.rows() * g.cols(), 90);
    }

    #[test]
    fn simple_factory_has_30_gate_locations() {
        // Three rows of ten qubit positions (7 encode + 3 verify).
        let g = simple_factory_layout();
        assert_eq!(g.gate_locations().len(), 30);
    }

    #[test]
    fn simple_factory_is_connected() {
        let g = simple_factory_layout();
        assert!(g.validate().is_ok());
        assert!(all_gates_reachable(&g));
    }

    #[test]
    fn crossbar_column_area_matches_height() {
        assert_eq!(crossbar_column(24).area(), 24);
    }

    #[test]
    fn simple_factory_has_external_ports() {
        let g = simple_factory_layout();
        assert!(external_ports(&g) > 0);
    }

    #[test]
    fn pipelined_zero_layout_area_matches_model() {
        let f = crate::zero::ZeroFactory::paper().bandwidth_matched();
        let g = pipelined_factory_layout(&f);
        assert_eq!(g.area(), f.total_area() as usize, "geometric area mismatch");
    }

    #[test]
    fn pipelined_pi8_layout_area_matches_model() {
        let f = crate::pi8::Pi8Factory::paper().bandwidth_matched();
        let g = pipelined_factory_layout(&f);
        assert_eq!(g.area(), f.total_area() as usize);
    }

    #[test]
    fn pipelined_layout_has_concentrated_output_side() {
        // §5.3: the factory's output port sits on one side, near the
        // data region.
        let f = crate::zero::ZeroFactory::paper().bandwidth_matched();
        let g = pipelined_factory_layout(&f);
        assert!(external_ports(&g) > 0);
    }
}
