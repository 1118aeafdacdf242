//! Microarchitecture configurations.

/// Which microarchitecture executes the circuit (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// Dedicated per-qubit ancilla generation; home-base QEC; teleport
    /// for every two-qubit gate. Sweeping area = GQLA replication.
    Qla,
    /// Compute cache with `cache_slots` resident qubits; misses pay
    /// teleportation; generation pooled across the cache.
    Cqla {
        /// Number of data qubits resident in the compute cache.
        cache_slots: usize,
    },
    /// All factories pooled; ancillae delivered anywhere (Fig 14b).
    FullyMultiplexed,
    /// Tiled Qalypso (Fig 16): dense data-only regions of
    /// `tile_qubits` with surrounding shared factories; ballistic
    /// movement within a tile, teleportation between tiles.
    Qalypso {
        /// Encoded data qubits per tile.
        tile_qubits: usize,
    },
}

impl Arch {
    /// Display name used in reports and figure series.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::Qla => "QLA",
            Arch::Cqla { .. } => "CQLA",
            Arch::FullyMultiplexed => "Fully-Multiplexed",
            Arch::Qalypso { .. } => "Qalypso",
        }
    }

    /// The default CQLA configuration for an `n`-qubit benchmark: a
    /// cache of an eighth of the data (at least four slots) — the
    /// memory-dominated regime the CQLA design targets.
    pub fn default_cqla(n_qubits: usize) -> Arch {
        Arch::Cqla {
            cache_slots: (n_qubits / 8).max(4),
        }
    }

    /// The default Qalypso tiling: 16-qubit tiles (small enough that
    /// ballistic movement stays cheap; see
    /// `Interconnect::avg_ballistic_us`).
    pub fn default_qalypso() -> Arch {
        Arch::Qalypso { tile_qubits: 16 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Arch::Qla.name(), "QLA");
        assert_eq!(Arch::default_cqla(32).name(), "CQLA");
        assert_eq!(Arch::FullyMultiplexed.name(), "Fully-Multiplexed");
        assert_eq!(Arch::default_qalypso().name(), "Qalypso");
    }

    #[test]
    fn default_cqla_scales_with_width() {
        assert_eq!(Arch::default_cqla(8), Arch::Cqla { cache_slots: 4 });
        assert_eq!(Arch::default_cqla(128), Arch::Cqla { cache_slots: 16 });
    }
}
