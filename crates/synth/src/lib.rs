//! # qods-synth — fault-tolerant rotation synthesis (§2.5, §4.4.2)
//!
//! The QFT needs controlled phase rotations by pi/2^k; below pi/2 no
//! transversal implementation exists in the \[\[7,1,3\]\] code, so the
//! paper adopts Fowler's technique: exhaustively search H/T gate
//! sequences for a minimum-length approximation of each small-angle
//! rotation.
//!
//! This crate implements that search over the **Matsumoto-Amano normal
//! form** — every single-qubit Clifford+T unitary has a unique
//! representation `(T|eps) (HT|SHT)* C` with `C` one of the 24 Clifford
//! gates — which enumerates exactly the distinct unitaries of each
//! T-count instead of the raw (exponentially redundant) H/T strings
//! Fowler describes. The search result is the same: the best
//! approximation at each sequence length.
//!
//! It also provides the analysis of the paper's Fig 6 *cascade*
//! construction (exact pi/2^k gates built recursively from pi/2^i
//! ancilla factories), including the expected critical-path CX/X
//! counts quoted in §4.4.2.
//!
//! # Example
//!
//! ```
//! use qods_synth::search::Synthesizer;
//!
//! let synth = Synthesizer::with_max_t_count(10);
//! let seq = synth.rz_pi_over_2k(4, false); // approximate Rz(pi/16)
//! assert!(seq.t_count <= 10);
//! assert!(seq.distance < 0.3); // coarse at this tiny budget
//! ```

pub mod c64;
pub mod cascade;
pub mod clifford;
pub mod ma;
pub mod search;
pub mod simplify;
pub mod su2;

pub use cascade::CascadeAnalysis;
pub use search::{HtGate, Sequence, Synthesizer};
pub use su2::U2;
