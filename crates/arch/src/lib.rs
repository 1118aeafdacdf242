//! # qods-arch — quantum microarchitectures and their comparison (§5)
//!
//! Event-driven dataflow simulation of a lowered benchmark circuit on
//! four microarchitectures:
//!
//! * **QLA** (Metodi et al., the paper's [22]) — every encoded data
//!   qubit owns a dedicated ancilla generator; data always returns to
//!   its home cell for QEC; two-qubit gates teleport the operands
//!   together and back. Sweeping total generator area generalizes QLA
//!   to the paper's GQLA (replicated generators).
//! * **CQLA** (Thaker et al., [15]) — a compute cache of data qubits
//!   backed by memory; gates only execute in the cache; misses pay
//!   teleport-in and writeback penalties (SimpleScalar-style cache
//!   simulation).
//! * **Fully-Multiplexed** (Fig 14b) — all factories pooled; encoded
//!   ancillae routed to whichever data qubit needs them.
//! * **Qalypso** (Fig 16) — the paper's proposal: dense data-only
//!   regions tiled with shared surrounding factories; ballistic
//!   movement within a tile, teleportation between tiles.
//!
//! The headline experiment (Fig 15) sweeps total ancilla-factory area
//! against execution time for each architecture, reproducing the
//! paper's findings: CQLA plateaus well above Fully-Multiplexed, QLA
//! needs orders of magnitude more area to match it, and the proposed
//! organization yields >5x speedup at matched area.
//!
//! # Example
//!
//! ```
//! use qods_arch::machine::Arch;
//! use qods_arch::simulator::simulate;
//! use qods_circuit::circuit::Circuit;
//!
//! let mut c = Circuit::new(2);
//! c.h(0);
//! c.cx(0, 1);
//! let fm = simulate(&c, Arch::FullyMultiplexed, 10_000.0);
//! let qla = simulate(&c, Arch::Qla, 10_000.0);
//! assert!(fm.makespan_us <= qla.makespan_us);
//! ```

pub mod engine;
pub mod interconnect;
pub mod machine;
pub mod simulator;
pub mod sweep;
pub mod table9;
pub mod tiling;

pub use machine::Arch;
pub use simulator::{simulate, SimContext, SimOutcome};
pub use sweep::{area_sweep, speedup_summary, speedup_summary_from_curves, ArchCurve, SweepPoint};
pub use table9::{table9_row, Table9Row};
pub use tiling::{best_tile, tile_sweep, TilePoint};
