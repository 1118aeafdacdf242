//! Parameterized kernel families: every benchmark circuit of the
//! repository as a `(family, width)` pair, buildable at *arbitrary*
//! operand widths — not just the paper's fixed points.
//!
//! [`KernelFamily`] enumerates the five families; [`KernelSpec`] is
//! the typed, serializable "which circuit" value the compilation
//! pipeline (`qods-compile`) content-addresses its artifacts by.
//! Construction is fallible with typed [`KernelError`]s so bad CLI or
//! service input (`repro --kernel qrcaa:32`, width 0, width beyond
//! [`MAX_WIDTH`]) reports a clean message instead of panicking.

use crate::synth_adapter::SynthAdapter;
use crate::{controlled_adder, draper_adder, qcla, qft, qrca};
use qods_circuit::circuit::{Circuit, GateSink, NoSynth};
use serde::{Deserialize, Serialize};

/// Largest accepted operand width. Every family builds correctly at
/// any positive width; the cap bounds the cost a single (possibly
/// hostile) service request can demand — a 128-bit QFT already lowers
/// to hundreds of thousands of physical gates.
pub const MAX_WIDTH: usize = 128;

/// A benchmark kernel family (§3.1 plus the repository's extension
/// kernels), parameterized by operand width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelFamily {
    /// VBE ripple-carry adder (3n+1 qubits).
    Qrca,
    /// Draper-Kutin-Rains-Svore carry-lookahead adder (log depth).
    Qcla,
    /// Quantum Fourier transform (synthesized rotations).
    Qft,
    /// Draper's ancilla-free QFT adder (2n qubits).
    Draper,
    /// Controlled ripple-carry adder (modular-exponentiation block).
    CtrlAdd,
}

impl KernelFamily {
    /// Every family, in presentation order (the paper's three first).
    pub const ALL: [KernelFamily; 5] = [
        KernelFamily::Qrca,
        KernelFamily::Qcla,
        KernelFamily::Qft,
        KernelFamily::Draper,
        KernelFamily::CtrlAdd,
    ];

    /// The stable lowercase id used on the command line and in
    /// artifact keys (`qrca`, `qcla`, `qft`, `draper`, `ctrladd`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelFamily::Qrca => "qrca",
            KernelFamily::Qcla => "qcla",
            KernelFamily::Qft => "qft",
            KernelFamily::Draper => "draper",
            KernelFamily::CtrlAdd => "ctrladd",
        }
    }

    /// Human-readable one-line description.
    pub fn title(&self) -> &'static str {
        match self {
            KernelFamily::Qrca => "quantum ripple-carry adder (VBE)",
            KernelFamily::Qcla => "quantum carry-lookahead adder (DKRS, out-of-place)",
            KernelFamily::Qft => "quantum Fourier transform",
            KernelFamily::Draper => "Draper QFT adder (ancilla-free)",
            KernelFamily::CtrlAdd => "controlled ripple-carry adder",
        }
    }

    /// Whether lowering this family needs rotation synthesis (and so
    /// whether compiled artifacts depend on the synthesis budget).
    pub fn uses_synthesis(&self) -> bool {
        matches!(self, KernelFamily::Qft | KernelFamily::Draper)
    }

    /// Encoded qubits a width-`n` member uses (data + data ancillae).
    pub fn n_qubits(&self, width: usize) -> usize {
        match self {
            KernelFamily::Qrca => 3 * width + 1,
            KernelFamily::Qcla => 3 * width + 1 + crate::qcla::p_tree_ancillae(width),
            KernelFamily::Qft => width,
            KernelFamily::Draper => 2 * width,
            KernelFamily::CtrlAdd => 3 * width + 2,
        }
    }

    /// Resolves a family id (as printed by [`KernelFamily::name`]).
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownFamily`] when `name` matches no family.
    pub fn parse(name: &str) -> Result<Self, KernelError> {
        KernelFamily::ALL
            .into_iter()
            .find(|f| f.name() == name)
            .ok_or_else(|| KernelError::UnknownFamily {
                name: name.to_string(),
            })
    }
}

impl std::fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully specified kernel: one family at one operand width. The
/// unit of compilation — artifact keys, the width sweep, and the
/// `repro --kernel` flag all speak in specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Which family.
    pub family: KernelFamily,
    /// Operand width in bits (the paper's benchmarks use 32).
    pub width: usize,
}

impl KernelSpec {
    /// A validated spec.
    ///
    /// # Errors
    ///
    /// [`KernelError::InvalidWidth`] outside `1..=MAX_WIDTH`.
    pub fn new(family: KernelFamily, width: usize) -> Result<Self, KernelError> {
        let spec = KernelSpec { family, width };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the width bound.
    ///
    /// # Errors
    ///
    /// [`KernelError::InvalidWidth`] outside `1..=MAX_WIDTH`.
    pub fn validate(&self) -> Result<(), KernelError> {
        if self.width == 0 || self.width > MAX_WIDTH {
            return Err(KernelError::InvalidWidth {
                family: self.family,
                width: self.width,
            });
        }
        Ok(())
    }

    /// Parses the CLI form `family:width` (e.g. `qcla:48`).
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSpec`] when the shape is not `family:width`,
    /// plus the [`KernelFamily::parse`] / [`KernelSpec::new`] errors.
    pub fn parse(input: &str) -> Result<Self, KernelError> {
        let (family, width) = input.split_once(':').ok_or_else(|| KernelError::BadSpec {
            input: input.to_string(),
        })?;
        let width: usize = width.parse().map_err(|_| KernelError::BadSpec {
            input: input.to_string(),
        })?;
        KernelSpec::new(KernelFamily::parse(family)?, width)
    }

    /// Encoded qubits this spec's circuit uses.
    pub fn n_qubits(&self) -> usize {
        self.family.n_qubits(self.width)
    }

    /// Builds the kernel-level IR circuit (Toffolis, controlled
    /// rotations), stored at its exact length like a lowered circuit.
    ///
    /// # Panics
    ///
    /// Panics when the spec is invalid — callers construct specs
    /// through the validating [`KernelSpec::new`] / [`KernelSpec::parse`].
    pub fn build_ir(&self) -> Circuit {
        // Documented caller contract: specs come from the validating constructors.
        self.validate().expect("spec validated at construction");
        let mut ir = match self.family {
            KernelFamily::Qrca => qrca(self.width),
            KernelFamily::Qcla => qcla(self.width),
            KernelFamily::Qft => qft(self.width),
            KernelFamily::Draper => draper_adder(self.width),
            KernelFamily::CtrlAdd => controlled_adder(self.width),
        };
        ir.shrink_to_fit();
        ir
    }

    /// Lowers this spec's IR (as built by [`KernelSpec::build_ir`]):
    /// rotation families through [`SynthAdapter::lower`], one batched
    /// search for the rotations not cached yet; the others never
    /// synthesize.
    pub fn lower(&self, ir: &Circuit, synth: &SynthAdapter) -> Circuit {
        if self.family.uses_synthesis() {
            synth.lower(ir)
        } else {
            ir.lower(&NoSynth)
        }
    }

    /// Lowers this spec's IR as [`KernelSpec::lower`] does, emitting
    /// each physical gate into `sink` (see [`Circuit::lower_into`]).
    pub fn lower_into(&self, ir: &Circuit, synth: &SynthAdapter, sink: &mut impl GateSink) {
        if self.family.uses_synthesis() {
            synth.lower_into(ir, sink);
        } else {
            ir.lower_into(&NoSynth, sink);
        }
    }
}

impl std::fmt::Display for KernelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.family.name(), self.width)
    }
}

/// Why a kernel spec was rejected (nothing builds on error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A family name no [`KernelFamily`] matches.
    UnknownFamily {
        /// The name as the caller wrote it.
        name: String,
    },
    /// A width outside `1..=MAX_WIDTH`.
    InvalidWidth {
        /// The family the width was requested for.
        family: KernelFamily,
        /// The rejected width.
        width: usize,
    },
    /// Input that does not parse as `family:width`.
    BadSpec {
        /// The input as the caller wrote it.
        input: String,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::UnknownFamily { name } => {
                let known: Vec<&str> = KernelFamily::ALL.iter().map(|f| f.name()).collect();
                write!(
                    f,
                    "unknown kernel family `{name}` (families: {})",
                    known.join(", ")
                )
            }
            KernelError::InvalidWidth { family, width } => write!(
                f,
                "invalid width {width} for kernel family `{family}` (accepted: 1..={MAX_WIDTH})"
            ),
            KernelError::BadSpec { input } => {
                write!(
                    f,
                    "malformed kernel spec `{input}` (expected `family:width`)"
                )
            }
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_round_trips_through_name() {
        for family in KernelFamily::ALL {
            assert_eq!(KernelFamily::parse(family.name()), Ok(family));
        }
        assert_eq!(
            KernelFamily::parse("qrcaa"),
            Err(KernelError::UnknownFamily {
                name: "qrcaa".to_string()
            })
        );
    }

    #[test]
    fn specs_parse_and_display() {
        let spec = KernelSpec::parse("qcla:48").expect("valid spec");
        assert_eq!(spec.family, KernelFamily::Qcla);
        assert_eq!(spec.width, 48);
        assert_eq!(spec.to_string(), "qcla:48");
        assert!(matches!(
            KernelSpec::parse("qft"),
            Err(KernelError::BadSpec { .. })
        ));
        assert!(matches!(
            KernelSpec::parse("qft:abc"),
            Err(KernelError::BadSpec { .. })
        ));
        assert!(matches!(
            KernelSpec::parse("qft:0"),
            Err(KernelError::InvalidWidth { .. })
        ));
        assert!(matches!(
            KernelSpec::parse("qft:4096"),
            Err(KernelError::InvalidWidth { .. })
        ));
        assert!(matches!(
            KernelSpec::parse("nope:8"),
            Err(KernelError::UnknownFamily { .. })
        ));
    }

    #[test]
    fn qubit_formulas_match_builders() {
        for family in KernelFamily::ALL {
            for width in [1usize, 2, 5, 8, 13, 32] {
                let spec = KernelSpec::new(family, width).expect("valid");
                assert_eq!(
                    spec.build_ir().n_qubits(),
                    spec.n_qubits(),
                    "{family}:{width}"
                );
            }
        }
    }

    #[test]
    fn errors_render_actionable_messages() {
        let e = KernelSpec::parse("zft:8").unwrap_err();
        assert!(e.to_string().contains("unknown kernel family `zft`"));
        assert!(e.to_string().contains("qrca"));
        let e = KernelSpec::parse("qft:200").unwrap_err();
        assert!(e.to_string().contains("invalid width 200"));
    }

    #[test]
    fn lowering_is_physical_for_all_families() {
        let synth = SynthAdapter::with_budget(6, 5e-2);
        for family in KernelFamily::ALL {
            let spec = KernelSpec::new(family, 4).expect("valid");
            let lowered = spec.lower(&spec.build_ir(), &synth);
            assert!(
                lowered.gates().iter().all(|g| g.is_physical()),
                "{family}:4 lowered to non-physical gates"
            );
        }
    }

    #[test]
    fn family_serde_round_trips() {
        for family in KernelFamily::ALL {
            let spec = KernelSpec::new(family, 9).expect("valid");
            let json = serde_json::to_string(&spec).expect("serialize");
            let back: KernelSpec = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, spec);
        }
    }
}
