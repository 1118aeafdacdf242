//! Movement cost models: ballistic channels and the teleport-based
//! interconnect (the paper's \[16\]).
//!
//! Teleportation's EPR-pair generation and distribution run off the
//! critical path (they are ancilla-like and pipelined); the on-path
//! cost is the Bell measurement side: a transversal CX, a measurement,
//! and the conditional Pauli correction, plus the classical-latency
//! window which we fold into the channel traversal term.

use qods_phys::latency::LatencyTable;

/// Interconnect cost model.
#[derive(Debug, Clone, Copy)]
pub struct Interconnect {
    table: LatencyTable,
}

impl Interconnect {
    /// The ion-trap model.
    pub fn ion_trap() -> Self {
        Interconnect {
            table: LatencyTable::ion_trap(),
        }
    }

    /// With custom latencies.
    pub fn with_latencies(table: LatencyTable) -> Self {
        Interconnect { table }
    }

    /// One teleport of an encoded qubit between regions: transversal
    /// CX + measure + conditional correction, plus ~10 macroblocks of
    /// channel traversal with two corners.
    pub fn teleport_us(&self) -> f64 {
        let t = &self.table;
        (t.t_2q + t.t_meas + t.t_1q) + 10.0 * t.t_move + 2.0 * t.t_turn
    }

    /// Ballistic movement across `blocks` macroblocks with `turns`
    /// corners (encoded qubits move as a column; the channel pitch is
    /// one macroblock per physical qubit, so crossing an encoded
    /// neighbor is ~1 block).
    pub fn ballistic_us(&self, blocks: f64, turns: f64) -> f64 {
        blocks * self.table.t_move + turns * self.table.t_turn
    }

    /// Average ballistic cost between two random qubits in a dense
    /// data region of `n` encoded qubits (mean separation n/3 columns,
    /// two corners to change rows).
    pub fn avg_ballistic_us(&self, n: usize) -> f64 {
        self.ballistic_us(n as f64 / 3.0, 2.0)
    }
}

impl Default for Interconnect {
    fn default() -> Self {
        Interconnect::ion_trap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teleport_cost_under_ion_trap() {
        let i = Interconnect::ion_trap();
        // 61 us gadget + 30 us channel.
        assert_eq!(i.teleport_us(), 91.0);
    }

    #[test]
    fn ballistic_is_cheap_for_small_regions() {
        let i = Interconnect::ion_trap();
        assert!(i.avg_ballistic_us(16) < i.teleport_us());
        // ...but large flat regions eventually lose to teleporting,
        // which motivates Qalypso's tiling.
        assert!(i.avg_ballistic_us(400) > i.teleport_us());
    }
}
