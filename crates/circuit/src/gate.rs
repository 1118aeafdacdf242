//! The logical gate set over Steane-encoded qubits.
//!
//! Gates are classified the way the paper's analysis needs them:
//!
//! * **transversal** gates (X, Y, Z, H, S, CX — §2.1) execute directly
//!   on the encoded block;
//! * the **pi/8 gate** (T) is non-transversal and consumes an encoded
//!   pi/8 ancilla (§2.4);
//! * finer **pi/2^k phase rotations** have no transversal or
//!   ancilla-gadget implementation and must be *synthesized* into H/T
//!   sequences (§2.5, Fowler's technique) before a circuit is
//!   "physical";
//! * **Toffoli** is a convenience IR node that kernels decompose into
//!   the standard 15-gate Clifford+T network.
//!
//! Phase-rotation convention: `PhaseRot { k, .. }` applies
//! `diag(1, exp(i*pi/2^k))`, so `k = 0` is Z, `k = 1` is S, `k = 2` is
//! the pi/8 gate T (named for its `exp(±i*pi/8)` eigenphases), and
//! `k >= 3` requires synthesis.

use serde::Error;

/// An encoded-qubit index as stored in a [`Gate`]. Sixteen bits keep
/// every variant, `Toffoli`'s three operands included, inside an
/// 8-byte gate; [`crate::circuit::Circuit::new`] refuses circuits
/// wider than this index can address ([`MAX_QUBITS`]).
pub type Qubit = u16;

/// The most encoded qubits a circuit may have: one per [`Qubit`] value.
pub const MAX_QUBITS: usize = 1 << Qubit::BITS;

/// A logical gate instance (qubit indices refer to encoded qubits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Pauli X.
    X(Qubit),
    /// Pauli Y.
    Y(Qubit),
    /// Pauli Z.
    Z(Qubit),
    /// Hadamard.
    H(Qubit),
    /// Phase gate S = `PhaseRot{k:1}`.
    S(Qubit),
    /// Inverse phase gate.
    Sdg(Qubit),
    /// pi/8 gate T = `PhaseRot{k:2}` (non-transversal).
    T(Qubit),
    /// Inverse pi/8 gate.
    Tdg(Qubit),
    /// Controlled-X on (control, target).
    Cx(Qubit, Qubit),
    /// Toffoli (control, control, target); decomposed before analysis.
    Toffoli(Qubit, Qubit, Qubit),
    /// `diag(1, exp(±i*pi/2^k))` on a qubit; `dagger` negates the angle.
    PhaseRot {
        /// Target qubit.
        q: Qubit,
        /// Angle exponent: rotation by pi/2^k.
        k: u8,
        /// Use the negative angle.
        dagger: bool,
    },
    /// Controlled `PhaseRot` on (control, target); decomposed to
    /// two CX plus three `PhaseRot{k+1}` before analysis (§2.5).
    CPhaseRot {
        /// Control qubit.
        c: Qubit,
        /// Target qubit.
        t: Qubit,
        /// Angle exponent of the *controlled* rotation.
        k: u8,
        /// Use the negative angle.
        dagger: bool,
    },
}

// The compact layout is load-bearing: lowered circuits run to tens of
// thousands of gates, and every cache tier holds them.
const _: () = assert!(std::mem::size_of::<Gate>() == 8);

/// The qubits one gate touches (at most three), held inline so
/// asking for them never allocates; derefs to `&[usize]`.
#[derive(Debug, Clone, Copy)]
pub struct Qubits {
    qs: [usize; 3],
    len: usize,
}

impl std::ops::Deref for Qubits {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.qs[..self.len]
    }
}

impl Gate {
    /// The encoded qubits this gate touches.
    pub fn qubits(&self) -> Qubits {
        let (qs, len) = match *self {
            Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::PhaseRot { q, .. } => ([q, 0, 0], 1),
            Gate::Cx(c, t) | Gate::CPhaseRot { c, t, .. } => ([c, t, 0], 2),
            Gate::Toffoli(a, b, t) => ([a, b, t], 3),
        };
        Qubits {
            qs: qs.map(usize::from),
            len,
        }
    }

    /// True when the gate is directly executable on the encoded data:
    /// transversal Cliffords plus the ancilla-assisted T. Everything
    /// else must be lowered first ([`crate::circuit::Circuit::lower`]).
    pub fn is_physical(&self) -> bool {
        match *self {
            Gate::Toffoli(..) | Gate::CPhaseRot { .. } => false,
            Gate::PhaseRot { k, .. } => k <= 2,
            _ => true,
        }
    }

    /// True for transversal encoded gates (no extra encoded ancilla).
    pub fn is_transversal(&self) -> bool {
        match *self {
            Gate::X(_)
            | Gate::Y(_)
            | Gate::Z(_)
            | Gate::H(_)
            | Gate::S(_)
            | Gate::Sdg(_)
            | Gate::Cx(..) => true,
            Gate::PhaseRot { k, .. } => k <= 1,
            Gate::T(_) | Gate::Tdg(_) | Gate::Toffoli(..) | Gate::CPhaseRot { .. } => false,
        }
    }

    /// True for gates that consume one encoded pi/8 ancilla (§2.4).
    pub fn needs_pi8_ancilla(&self) -> bool {
        matches!(
            *self,
            Gate::T(_) | Gate::Tdg(_) | Gate::PhaseRot { k: 2, .. }
        )
    }
}

impl Gate {
    /// Appends the compact text form of this gate — `cx 0 1`,
    /// `pr 3 4 -` (`-`/`+` for dagger) — the per-gate unit of the
    /// persisted circuit encoding ([`crate::circuit::Circuit`]'s
    /// serde impl joins these with `;` into one program string, which
    /// parses orders of magnitude faster than a JSON tree with one
    /// node per gate).
    pub fn encode_compact(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = match *self {
            Gate::X(q) => write!(out, "x {q}"),
            Gate::Y(q) => write!(out, "y {q}"),
            Gate::Z(q) => write!(out, "z {q}"),
            Gate::H(q) => write!(out, "h {q}"),
            Gate::S(q) => write!(out, "s {q}"),
            Gate::Sdg(q) => write!(out, "sdg {q}"),
            Gate::T(q) => write!(out, "t {q}"),
            Gate::Tdg(q) => write!(out, "tdg {q}"),
            Gate::Cx(c, t) => write!(out, "cx {c} {t}"),
            Gate::Toffoli(a, b, t) => write!(out, "ccx {a} {b} {t}"),
            Gate::PhaseRot { q, k, dagger } => {
                write!(out, "pr {q} {k} {}", if dagger { '-' } else { '+' })
            }
            Gate::CPhaseRot { c, t, k, dagger } => {
                write!(out, "cpr {c} {t} {k} {}", if dagger { '-' } else { '+' })
            }
        };
    }

    /// Parses one compact gate token (the inverse of
    /// [`Gate::encode_compact`]).
    ///
    /// # Errors
    ///
    /// A message naming the defect — persisted artifacts are
    /// untrusted input, so every malformed shape is a clean error.
    pub fn decode_compact(token: &str) -> Result<Self, Error> {
        let mut parts = token.split_ascii_whitespace();
        let op = parts
            .next()
            .ok_or_else(|| Error::custom("empty gate token"))?;
        // Parses the next field as a `usize`, then narrows it to the
        // field's type: an out-of-range index is an error, never a
        // truncation.
        let mut num = |what: &str| -> Result<usize, Error> {
            parts
                .next()
                .and_then(|t| t.parse::<usize>().ok())
                .ok_or_else(|| Error::custom(format!("gate `{op}`: bad or missing {what}")))
        };
        let mut qubit = |what: &str| -> Result<Qubit, Error> {
            let n = num(what)?;
            Qubit::try_from(n).map_err(|_| {
                Error::custom(format!(
                    "gate `{op}`: {what} {n} exceeds the {}-bit qubit index",
                    Qubit::BITS
                ))
            })
        };
        let gate = match op {
            "x" => Gate::X(qubit("qubit")?),
            "y" => Gate::Y(qubit("qubit")?),
            "z" => Gate::Z(qubit("qubit")?),
            "h" => Gate::H(qubit("qubit")?),
            "s" => Gate::S(qubit("qubit")?),
            "sdg" => Gate::Sdg(qubit("qubit")?),
            "t" => Gate::T(qubit("qubit")?),
            "tdg" => Gate::Tdg(qubit("qubit")?),
            "cx" => Gate::Cx(qubit("control")?, qubit("target")?),
            "ccx" => Gate::Toffoli(qubit("control")?, qubit("control")?, qubit("target")?),
            "pr" | "cpr" => {
                let (c, t) = if op == "cpr" {
                    let c = qubit("control")?;
                    (Some(c), qubit("target")?)
                } else {
                    (None, qubit("qubit")?)
                };
                let k = u8::try_from(num("angle exponent")?)
                    .map_err(|_| Error::custom(format!("gate `{op}`: angle exponent > 255")))?;
                let dagger = match parts.next() {
                    Some("+") => false,
                    Some("-") => true,
                    _ => return Err(Error::custom(format!("gate `{op}`: bad dagger sign"))),
                };
                match c {
                    Some(c) => Gate::CPhaseRot { c, t, k, dagger },
                    None => Gate::PhaseRot { q: t, k, dagger },
                }
            }
            other => return Err(Error::custom(format!("unknown gate opcode `{other}`"))),
        };
        if parts.next().is_some() {
            return Err(Error::custom(format!("gate `{op}`: trailing arguments")));
        }
        Ok(gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Gate::H(0).is_transversal());
        assert!(Gate::Cx(0, 1).is_transversal());
        assert!(!Gate::T(0).is_transversal());
        assert!(Gate::T(0).needs_pi8_ancilla());
        assert!(Gate::T(0).is_physical());
        assert!(!Gate::Toffoli(0, 1, 2).is_physical());
        assert!(!Gate::PhaseRot {
            q: 0,
            k: 5,
            dagger: false
        }
        .is_physical());
        assert!(Gate::PhaseRot {
            q: 0,
            k: 1,
            dagger: false
        }
        .is_transversal());
        assert!(Gate::PhaseRot {
            q: 0,
            k: 2,
            dagger: true
        }
        .needs_pi8_ancilla());
    }

    #[test]
    fn compact_encoding_round_trips_every_shape() {
        let gates = [
            Gate::X(0),
            Gate::Y(7),
            Gate::Z(2),
            Gate::H(1),
            Gate::S(3),
            Gate::Sdg(4),
            Gate::T(5),
            Gate::Tdg(6),
            Gate::Cx(1, 2),
            Gate::Toffoli(0, 1, 2),
            Gate::PhaseRot {
                q: 3,
                k: 5,
                dagger: true,
            },
            Gate::CPhaseRot {
                c: 0,
                t: 9,
                k: 4,
                dagger: false,
            },
        ];
        for g in gates {
            let mut token = String::new();
            g.encode_compact(&mut token);
            let back = Gate::decode_compact(&token).expect("round trip");
            assert_eq!(back, g, "token `{token}`");
        }
    }

    #[test]
    fn compact_decoding_rejects_malformed_tokens() {
        for bad in ["", "cx", "cx 0", "cx 0 x", "nope 0", "pr 1 5 ?", "h 1 2"] {
            assert!(Gate::decode_compact(bad).is_err(), "`{bad}` must fail");
        }
    }

    #[test]
    fn compact_decoding_rejects_indices_past_u16() {
        // 65,536 would truncate to qubit 0; it must be refused instead.
        assert_eq!(Gate::decode_compact("h 65535").unwrap(), Gate::H(65_535));
        for bad in ["h 65536", "cx 0 65536", "ccx 70000 0 1", "cpr 65536 1 3 +"] {
            let err = Gate::decode_compact(bad).expect_err(bad);
            assert!(
                err.to_string().contains("16-bit qubit index"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn qubit_lists() {
        assert_eq!(Gate::H(7).qubits()[..], [7]);
        assert_eq!(Gate::Cx(3, 5).qubits()[..], [3, 5]);
        assert_eq!(Gate::Toffoli(1, 2, 3).qubits()[..], [1, 2, 3]);
        assert_eq!(
            Gate::CPhaseRot {
                c: 0,
                t: 9,
                k: 4,
                dagger: false
            }
            .qubits()[..],
            [0, 9]
        );
    }
}
