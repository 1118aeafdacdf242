//! # qods-circuit — logical circuit IR and speed-of-data analysis
//!
//! This crate implements §3 of "Running a Quantum Circuit at the Speed
//! of Data": a logical-gate IR over Steane-encoded qubits, dataflow
//! scheduling, and the characterization machinery producing
//!
//! * **Table 2** — the latency split between useful data operations,
//!   data/ancilla QEC interaction, and (data-independent) encoded
//!   ancilla preparation;
//! * **Table 3** — the average encoded-zero and pi/8 ancilla bandwidths
//!   a circuit needs to run at the speed of data;
//! * **Figure 7** — the in-flight encoded-ancilla demand profile over
//!   the course of execution; and
//! * **Figure 8** — execution time as a function of a steady ancilla
//!   throughput.
//!
//! Each gate depends only on the previous gate on each of its qubits,
//! so every analysis is one forward pass over per-qubit state
//! ([`schedule`]); no dependency graph is built. The DAG walks that
//! pass replaced are its test oracle, in `tests/frontier_oracle.rs`.
//!
//! It also provides two functional simulators used to *verify* the
//! benchmark kernels: a permutation simulator for classical reversible
//! networks (adders) and a dense statevector simulator for small
//! unitary circuits (QFT).
//!
//! # Example
//!
//! ```
//! use qods_circuit::circuit::Circuit;
//! use qods_circuit::characterize::characterize;
//!
//! let mut c = Circuit::new(2);
//! c.h(0);
//! c.cx(0, 1);
//! c.t(1);
//! let report = characterize(&c);
//! // Ancilla preparation dominates even a 3-gate circuit.
//! assert!(report.breakdown.ancilla_prep_us > report.breakdown.data_op_us);
//! ```

pub mod characterize;
pub mod circuit;
pub mod gate;
pub mod latency_model;
pub mod schedule;
pub mod sim;
pub mod throughput;

pub use characterize::{characterize, CircuitReport, LatencyBreakdown};
pub use circuit::Circuit;
pub use gate::{Gate, Qubit, MAX_QUBITS};
pub use latency_model::CharacterizationModel;
