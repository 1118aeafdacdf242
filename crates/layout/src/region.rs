//! The data-qubit compute region of Fig 10 (§4.2).
//!
//! Each encoded data qubit occupies a single column of seven
//! straight-channel-gate macroblocks (one per physical qubit of the
//! \[\[7,1,3\]\] code), with interconnect access on both ends. Data area is
//! therefore `m x n_q` macroblocks with `m = 7`.

use crate::grid::Grid;
use crate::macroblock::{Macroblock, MacroblockKind};

/// Physical qubits per encoded qubit in the \[\[7,1,3\]\] code.
pub const BLOCK_SIZE: usize = 7;

/// Total data area (macroblocks) for `n_qubits` encoded qubits,
/// including data ancillae — the paper's `m x n_q` rule.
pub fn data_region_area(n_qubits: usize) -> usize {
    BLOCK_SIZE * n_qubits
}

/// Builds the Fig 10 layout for one encoded data qubit: a column of
/// seven gate macroblocks, open to the interconnect at both ends.
pub fn single_qubit_region() -> Grid {
    let mut g = Grid::new(BLOCK_SIZE, 1);
    for r in 0..BLOCK_SIZE {
        g.place(r, 0, Macroblock::new(MacroblockKind::StraightChannelGate));
    }
    g
}

/// Builds a dense data region for `n` encoded qubits: `n` adjacent
/// columns of seven gate macroblocks (ballistic channels run along the
/// column axis; the surrounding interconnect is provided by the
/// enclosing tile, see `qods-arch`).
pub fn dense_data_region(n: usize) -> Grid {
    let mut g = Grid::new(BLOCK_SIZE, n);
    for c in 0..n {
        for r in 0..BLOCK_SIZE {
            g.place(r, c, Macroblock::new(MacroblockKind::StraightChannelGate));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::route;
    use qods_phys::latency::LatencyTable;

    #[test]
    fn table9_data_areas() {
        // 32-bit QRCA: 97 encoded qubits; QCLA: 123; QFT: 32.
        assert_eq!(data_region_area(97), 679);
        assert_eq!(data_region_area(123), 861);
        assert_eq!(data_region_area(32), 224);
    }

    #[test]
    fn single_region_is_a_valid_column_of_gates() {
        let g = single_qubit_region();
        assert_eq!(g.area(), 7);
        assert!(g.validate().is_ok());
        assert_eq!(g.gate_locations().len(), 7);
    }

    #[test]
    fn dense_region_area_matches_rule() {
        let g = dense_data_region(5);
        assert_eq!(g.area(), data_region_area(5));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn physical_qubits_can_traverse_their_column() {
        let g = single_qubit_region();
        let t = LatencyTable::ion_trap();
        let p = route(&g, (0, 0), (6, 0), &t).expect("column traversal");
        assert_eq!(p.moves, 6);
        assert_eq!(p.turns, 0);
    }
}
