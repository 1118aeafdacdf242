//! # qods-layout — the ion-trap macroblock layout abstraction (§4.1)
//!
//! The paper measures every area in *macroblocks* (Fig 9): fixed
//! electrode structures with channels for ion movement, optional gate
//! locations, and ports to adjacent macroblocks. This crate provides:
//!
//! * [`macroblock`] — the six macroblock kinds of Fig 9 with their
//!   port structure and gate locations;
//! * [`grid`] — rectangular layouts of macroblocks with connectivity
//!   validation and area accounting;
//! * [`route`](mod@route) — a Dijkstra router that counts straight moves and
//!   turns (the two movement primitives of Table 4) between layout
//!   positions;
//! * [`region`] — the data-qubit compute region of Fig 10 (a single
//!   column of gate macroblocks per encoded qubit: data area is
//!   `7 x n_qubits` for the \[\[7,1,3\]\] code, §4.2).
//!
//! # Example
//!
//! ```
//! use qods_layout::region::data_region_area;
//!
//! // Table 9's data areas: 32-bit QRCA uses 97 encoded qubits.
//! assert_eq!(data_region_area(97), 679);
//! ```

pub mod grid;
pub mod macroblock;
pub mod region;
pub mod route;

pub use grid::Grid;
pub use macroblock::{Macroblock, MacroblockKind, Orientation};
pub use route::{route, MovementPlan};
