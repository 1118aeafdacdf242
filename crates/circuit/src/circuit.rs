//! Logical circuits: a builder over [`Gate`] plus the lowering passes
//! that turn kernel-level IR (Toffoli, controlled rotations) into the
//! physical gate set {transversal Cliffords, T}.
//!
//! Lowering has one rule set ([`Circuit::lower_into`]) and emits each
//! physical gate into a [`GateSink`] as it is produced. A [`Circuit`]
//! is the sink that stores them; the speed-of-data fold
//! ([`crate::schedule::Frontier`]) is the sink that consumes them.

use crate::gate::{Gate, Qubit, MAX_QUBITS};
use serde::{Deserialize, Error, Serialize, Value};

/// A logical circuit over `n_qubits` encoded qubits.
///
/// # Example
///
/// ```
/// use qods_circuit::circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.h(0);
/// c.toffoli(0, 1, 2);
/// let lowered = c.lower(&qods_circuit::circuit::NoSynth);
/// // Toffoli became the standard 15-gate Clifford+T network.
/// assert_eq!(lowered.len(), 16);
/// assert!(lowered.gates().iter().all(|g| g.is_physical()));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
    /// Human-readable name used in reports ("32-Bit QRCA" etc.).
    pub name: String,
}

/// Where lowering puts the physical gates it produces, in program
/// order.
pub trait GateSink {
    /// Takes the next gate.
    fn push(&mut self, g: Gate);

    /// Takes a run of one-qubit gates, all on qubit `q`, in order: a
    /// synthesized rotation arrives as one run, so a sink can keep
    /// that qubit's state at hand for the whole sequence.
    fn run(&mut self, q: Qubit, gates: impl IntoIterator<Item = Gate>) {
        let _ = q;
        for g in gates {
            self.push(g);
        }
    }
}

impl GateSink for Circuit {
    fn push(&mut self, g: Gate) {
        Circuit::push(self, g);
    }
}

/// How `lower` turns a `PhaseRot{k>=3}` into physical gates.
///
/// The real implementation lives in `qods-synth` (Fowler-style search
/// over H/T sequences); the trait keeps this crate independent of it.
pub trait RotationSynthesizer {
    /// Emits into `out` a physical gate sequence approximating
    /// `diag(1, e^{±i pi/2^k})` on qubit `q`, preferably as one
    /// [`GateSink::run`]. Implementations must only emit physical
    /// gates.
    fn synthesize(&self, q: Qubit, k: u8, dagger: bool, out: &mut impl GateSink);
}

/// A synthesizer for circuits that contain no deep rotations; it
/// panics if ever invoked. Useful for adders (Clifford+T only).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSynth;

impl RotationSynthesizer for NoSynth {
    fn synthesize(&self, _q: Qubit, k: u8, _dagger: bool, _out: &mut impl GateSink) {
        // The panic IS this type's documented contract: NoSynth asserts a rotation-free circuit.
        panic!("circuit contains a pi/2^{k} rotation but no synthesizer was provided")
    }
}

impl Circuit {
    /// An empty circuit.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds [`MAX_QUBITS`], the most a gate's
    /// 16-bit [`Qubit`] index can address.
    pub fn new(n_qubits: usize) -> Self {
        Circuit::named(n_qubits, String::new())
    }

    /// An empty named circuit.
    ///
    /// # Panics
    ///
    /// As [`Circuit::new`].
    pub fn named(n_qubits: usize, name: impl Into<String>) -> Self {
        assert!(
            n_qubits <= MAX_QUBITS,
            "{n_qubits} qubits exceed the {MAX_QUBITS} a gate can address"
        );
        Circuit {
            n_qubits,
            gates: Vec::new(),
            name: name.into(),
        }
    }

    /// Number of encoded qubits (including data ancillae).
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate list in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Heap bytes this circuit holds: its gate storage (8 bytes per
    /// gate slot) plus its name.
    pub fn heap_bytes(&self) -> usize {
        self.gates.capacity() * std::mem::size_of::<Gate>() + self.name.capacity()
    }

    /// Drops growth slack: the circuit is then stored at its exact
    /// length, and [`Circuit::heap_bytes`] is what a clone allocates.
    pub fn shrink_to_fit(&mut self) {
        self.gates.shrink_to_fit();
        self.name.shrink_to_fit();
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit outside the circuit, or
    /// names one qubit twice (`cx 0 0`: no such gate exists, and the
    /// dependency chains would link it to itself).
    pub fn push(&mut self, g: Gate) {
        let qs = g.qubits();
        for (i, &q) in qs.iter().enumerate() {
            assert!(
                q < self.n_qubits,
                "gate {g:?} references qubit {q} >= {}",
                self.n_qubits
            );
            assert!(!qs[..i].contains(&q), "gate {g:?} repeats qubit {q}");
        }
        self.gates.push(g);
    }

    /// Appends X.
    pub fn x(&mut self, q: usize) {
        self.push(Gate::X(self.qubit(q)));
    }

    /// Appends H.
    pub fn h(&mut self, q: usize) {
        self.push(Gate::H(self.qubit(q)));
    }

    /// Appends S.
    pub fn s(&mut self, q: usize) {
        self.push(Gate::S(self.qubit(q)));
    }

    /// Appends T.
    pub fn t(&mut self, q: usize) {
        self.push(Gate::T(self.qubit(q)));
    }

    /// Appends T-dagger.
    pub fn tdg(&mut self, q: usize) {
        self.push(Gate::Tdg(self.qubit(q)));
    }

    /// Appends CX.
    pub fn cx(&mut self, c: usize, t: usize) {
        self.push(Gate::Cx(self.qubit(c), self.qubit(t)));
    }

    /// Appends a Toffoli (to be lowered later).
    pub fn toffoli(&mut self, a: usize, b: usize, t: usize) {
        self.push(Gate::Toffoli(self.qubit(a), self.qubit(b), self.qubit(t)));
    }

    /// Appends a pi/2^k phase rotation.
    pub fn phase_rot(&mut self, q: usize, k: u8, dagger: bool) {
        self.push(Gate::PhaseRot {
            q: self.qubit(q),
            k,
            dagger,
        });
    }

    /// Appends a controlled pi/2^k phase rotation.
    pub fn cphase_rot(&mut self, c: usize, t: usize, k: u8, dagger: bool) {
        self.push(Gate::CPhaseRot {
            c: self.qubit(c),
            t: self.qubit(t),
            k,
            dagger,
        });
    }

    /// Narrows a builder's qubit argument to a gate's [`Qubit`] index.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the circuit (the same check as
    /// [`Circuit::push`]; `n_qubits <= MAX_QUBITS` makes the narrowing
    /// lossless).
    fn qubit(&self, q: usize) -> Qubit {
        assert!(
            q < self.n_qubits,
            "builder references qubit {q} >= {}",
            self.n_qubits
        );
        q as Qubit
    }

    /// Appends a SWAP as three CX gates.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cx(a, b);
        self.cx(b, a);
        self.cx(a, b);
    }

    /// Counts gates satisfying a predicate.
    pub fn count_where(&self, pred: impl Fn(&Gate) -> bool) -> usize {
        self.gates.iter().filter(|g| pred(g)).count()
    }

    /// Fraction of gates that are non-transversal (the paper reports
    /// 40.5% / 41.0% / 46.9% for its three benchmarks).
    pub fn non_transversal_fraction(&self) -> f64 {
        if self.gates.is_empty() {
            return 0.0;
        }
        self.count_where(|g| !g.is_transversal()) as f64 / self.gates.len() as f64
    }

    /// Lowers the circuit to the physical gate set:
    ///
    /// * `Toffoli` becomes the standard 7T + 6CX + 2H network;
    /// * `CPhaseRot{k}` becomes 2 CX + 3 `PhaseRot{k+1}` (§2.5);
    /// * `PhaseRot{k<=2}` becomes Z / S(dg) / T(dg);
    /// * `PhaseRot{k>=3}` is delegated to the [`RotationSynthesizer`].
    ///
    /// Lowering is iterated until fixpoint, so a `CPhaseRot{1}` (whose
    /// expansion contains `PhaseRot{2}` = T) fully lowers in one call.
    ///
    /// The result is stored at its exact length (no growth slack), as
    /// every cache that keeps a lowered circuit wants it.
    pub fn lower(&self, synth: &impl RotationSynthesizer) -> Circuit {
        let mut out = Circuit::named(self.n_qubits, self.name.clone());
        self.lower_into(synth, &mut out);
        out.shrink_to_fit();
        out
    }

    /// Lowers the circuit as [`Circuit::lower`] does, emitting each
    /// physical gate into `sink` as it is produced.
    ///
    /// # Panics
    ///
    /// Panics if the synthesizer emits a non-physical gate.
    pub fn lower_into(&self, synth: &impl RotationSynthesizer, sink: &mut impl GateSink) {
        for g in &self.gates {
            lower_gate(*g, synth, sink);
        }
    }
}

// Hand-written serde. Two deliberate choices: (1) the gate list is
// ONE compact program string (`"h 0;cx 0 1;..."` —
// [`Gate::encode_compact`] tokens joined with `;`) rather than a JSON
// node per gate, because persisted circuits run to tens of thousands
// of gates and a per-gate `Value` tree costs ~10x the parse time of
// one linear string scan; (2) deserialization re-validates qubit
// bounds, so a corrupt or hand-edited artifact reports a clean
// `Error` instead of tripping `push`'s panic on the next consumer.
impl Serialize for Circuit {
    fn to_value(&self) -> Value {
        // ~8 bytes per gate; exact size is not worth a second pass.
        let mut program = String::with_capacity(self.gates.len() * 8);
        for (i, g) in self.gates.iter().enumerate() {
            if i > 0 {
                program.push(';');
            }
            g.encode_compact(&mut program);
        }
        Value::Object(vec![
            ("n_qubits".to_string(), self.n_qubits.to_value()),
            ("name".to_string(), self.name.to_value()),
            ("gates".to_string(), Value::Str(program)),
        ])
    }
}

impl Deserialize for Circuit {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| Error::custom("circuit must be an object"))?;
        let n_qubits = usize::from_value(serde::field(fields, "n_qubits")?)?;
        if n_qubits > MAX_QUBITS {
            return Err(Error::custom(format!(
                "{n_qubits} qubits exceed the {MAX_QUBITS} a gate can address"
            )));
        }
        let name = String::from_value(serde::field(fields, "name")?)?;
        let program = match serde::field(fields, "gates")? {
            Value::Str(s) => s,
            _ => return Err(Error::custom("circuit gates must be a program string")),
        };
        let mut gates = Vec::new();
        if !program.is_empty() {
            gates.reserve_exact(program.bytes().filter(|&b| b == b';').count() + 1);
            for token in program.split(';') {
                let g = Gate::decode_compact(token)?;
                let qs = g.qubits();
                for (i, &q) in qs.iter().enumerate() {
                    if q >= n_qubits {
                        return Err(Error::custom(format!(
                            "gate {g:?} references qubit {q} >= {n_qubits}"
                        )));
                    }
                    if qs[..i].contains(&q) {
                        return Err(Error::custom(format!("gate {g:?} repeats qubit {q}")));
                    }
                }
                gates.push(g);
            }
        }
        Ok(Circuit {
            n_qubits,
            gates,
            name,
        })
    }
}

fn lower_gate(g: Gate, synth: &impl RotationSynthesizer, out: &mut impl GateSink) {
    match g {
        Gate::Toffoli(a, b, t) => {
            // Standard Clifford+T Toffoli (Nielsen & Chuang Fig 4.9).
            out.push(Gate::H(t));
            out.push(Gate::Cx(b, t));
            out.push(Gate::Tdg(t));
            out.push(Gate::Cx(a, t));
            out.push(Gate::T(t));
            out.push(Gate::Cx(b, t));
            out.push(Gate::Tdg(t));
            out.push(Gate::Cx(a, t));
            out.push(Gate::T(b));
            out.push(Gate::T(t));
            out.push(Gate::H(t));
            out.push(Gate::Cx(a, b));
            out.push(Gate::T(a));
            out.push(Gate::Tdg(b));
            out.push(Gate::Cx(a, b));
        }
        Gate::CPhaseRot { c, t, k, dagger } => {
            // CP(theta) = Rz(theta/2) (x) Rz(theta/2) . CX . Rz(-theta/2)_t . CX
            // i.e. two CX plus three half-angle rotations. (The paper's
            // §2.5 counts "a CX gate and 3 single qubit pi/2^{k+1}
            // gates"; the standard identity needs two CX — the extra CX
            // is transversal and cheap, and we use the exact network.)
            lower_gate(
                Gate::PhaseRot {
                    q: c,
                    k: k + 1,
                    dagger,
                },
                synth,
                out,
            );
            lower_gate(
                Gate::PhaseRot {
                    q: t,
                    k: k + 1,
                    dagger,
                },
                synth,
                out,
            );
            out.push(Gate::Cx(c, t));
            lower_gate(
                Gate::PhaseRot {
                    q: t,
                    k: k + 1,
                    dagger: !dagger,
                },
                synth,
                out,
            );
            out.push(Gate::Cx(c, t));
        }
        Gate::PhaseRot { q, k: 0, .. } => out.push(Gate::Z(q)),
        Gate::PhaseRot { q, k: 1, dagger } => {
            out.push(if dagger { Gate::Sdg(q) } else { Gate::S(q) })
        }
        Gate::PhaseRot { q, k: 2, dagger } => {
            out.push(if dagger { Gate::Tdg(q) } else { Gate::T(q) })
        }
        Gate::PhaseRot { q, k, dagger } => synth.synthesize(q, k, dagger, &mut Synthesized(out)),
        other => out.push(other),
    }
}

/// The sink a synthesizer emits into: it checks the gate set before
/// passing each gate on. (A [`Circuit`] sink checks qubit bounds in
/// `push`, and the fold that a run stays on its qubit.)
struct Synthesized<'a, S>(&'a mut S);

fn physical(g: Gate) -> Gate {
    assert!(g.is_physical(), "synthesizer emitted non-physical {g:?}");
    g
}

impl<S: GateSink> GateSink for Synthesized<'_, S> {
    fn push(&mut self, g: Gate) {
        self.0.push(physical(g));
    }

    fn run(&mut self, q: Qubit, gates: impl IntoIterator<Item = Gate>) {
        self.0.run(q, gates.into_iter().map(physical));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn toffoli_lowering_counts() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let l = c.lower(&NoSynth);
        assert_eq!(l.len(), 15);
        assert_eq!(l.count_where(|g| matches!(g, Gate::Cx(..))), 6);
        assert_eq!(l.count_where(|g| matches!(g, Gate::T(_) | Gate::Tdg(_))), 7);
        assert_eq!(l.count_where(|g| matches!(g, Gate::H(_))), 2);
        // 7 of 15 gates are non-transversal: 46.7%.
        assert!((l.non_transversal_fraction() - 7.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn cphase_lowering_produces_half_angle() {
        let mut c = Circuit::new(2);
        c.cphase_rot(0, 1, 1, false); // controlled-S
        let l = c.lower(&NoSynth);
        // 3 T-type rotations + 2 CX.
        assert_eq!(l.len(), 5);
        assert_eq!(l.count_where(|g| matches!(g, Gate::T(_) | Gate::Tdg(_))), 3);
        assert!(l.gates().iter().all(|g| g.is_physical()));
    }

    #[test]
    #[should_panic(expected = "no synthesizer")]
    fn deep_rotation_without_synth_panics() {
        let mut c = Circuit::new(1);
        c.phase_rot(0, 5, false);
        let _ = c.lower(&NoSynth);
    }

    /// Emits `gate` for every rotation, whatever it was asked for.
    struct Emits(Gate);

    impl RotationSynthesizer for Emits {
        fn synthesize(&self, _q: Qubit, _k: u8, _dagger: bool, out: &mut impl GateSink) {
            out.push(self.0);
        }
    }

    /// Emits `gate` for every rotation as a one-gate run.
    pub(crate) struct EmitsRun(pub(crate) Gate);

    impl RotationSynthesizer for EmitsRun {
        fn synthesize(&self, q: Qubit, _k: u8, _dagger: bool, out: &mut impl GateSink) {
            out.run(q, [self.0]);
        }
    }

    #[test]
    #[should_panic(expected = "synthesizer emitted non-physical")]
    fn a_non_physical_synthesized_run_panics() {
        let mut c = Circuit::new(1);
        c.phase_rot(0, 5, false);
        let _ = c.lower(&EmitsRun(Gate::PhaseRot {
            q: 0,
            k: 4,
            dagger: false,
        }));
    }

    #[test]
    #[should_panic(expected = "synthesizer emitted non-physical")]
    fn non_physical_synthesis_panics() {
        let mut c = Circuit::new(3);
        c.phase_rot(0, 5, false);
        let _ = c.lower(&Emits(Gate::Toffoli(0, 1, 2)));
    }

    #[test]
    #[should_panic(expected = "references qubit")]
    fn out_of_range_synthesis_panics() {
        let mut c = Circuit::new(1);
        c.phase_rot(0, 5, false);
        let _ = c.lower(&Emits(Gate::H(1)));
    }

    #[test]
    #[should_panic(expected = "references qubit")]
    fn out_of_range_gate_panics() {
        let mut c = Circuit::new(1);
        c.cx(0, 1);
    }

    #[test]
    fn serde_round_trips_and_revalidates() {
        let mut c = Circuit::named(3, "toy");
        c.h(0);
        c.toffoli(0, 1, 2);
        c.phase_rot(1, 4, true);
        let back = Circuit::from_value(&c.to_value()).expect("round trip");
        assert_eq!(back, c);
        // Corrupt the qubit count: the gate list no longer fits.
        let Value::Object(mut fields) = c.to_value() else {
            panic!("circuit serializes as an object");
        };
        fields[0].1 = Value::Int(2);
        let err = Circuit::from_value(&Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("references qubit"));
    }

    #[test]
    fn the_widest_circuit_addresses_its_last_qubit() {
        let mut c = Circuit::new(MAX_QUBITS);
        c.cx(0, MAX_QUBITS - 1);
        assert_eq!(c.gates(), [Gate::Cx(0, Qubit::MAX)]);
    }

    #[test]
    #[should_panic(expected = "a gate can address")]
    fn more_qubits_than_a_u16_index_addresses_are_refused() {
        let _ = Circuit::new(MAX_QUBITS + 1);
    }

    #[test]
    fn decoding_refuses_indices_and_widths_past_u16() {
        let decode = |n_qubits: usize, program: &str| {
            Circuit::from_value(&Value::Object(vec![
                ("n_qubits".to_string(), n_qubits.to_value()),
                ("name".to_string(), Value::Str("x".to_string())),
                ("gates".to_string(), Value::Str(program.to_string())),
            ]))
        };
        assert_eq!(decode(MAX_QUBITS, "h 65535").unwrap().len(), 1);
        // Qubit 65,536 would truncate to qubit 0, which is in range.
        let err = decode(MAX_QUBITS, "h 0;cx 65536 1").unwrap_err();
        assert!(err.to_string().contains("16-bit qubit index"), "{err}");
        let err = decode(MAX_QUBITS + 1, "h 0").unwrap_err();
        assert!(err.to_string().contains("a gate can address"), "{err}");
        let err = decode(usize::MAX, "").unwrap_err();
        assert!(err.to_string().contains("a gate can address"), "{err}");
    }

    #[test]
    #[should_panic(expected = "repeats qubit 0")]
    fn a_cx_on_one_qubit_is_refused() {
        Circuit::new(2).cx(0, 0);
    }

    #[test]
    #[should_panic(expected = "repeats qubit 1")]
    fn a_toffoli_repeating_a_control_is_refused() {
        Circuit::new(3).toffoli(1, 1, 2);
    }

    #[test]
    fn decoding_refuses_a_gate_that_repeats_a_qubit() {
        let decode = |program: &str| {
            Circuit::from_value(&Value::Object(vec![
                ("n_qubits".to_string(), 4usize.to_value()),
                ("name".to_string(), Value::Str("x".to_string())),
                ("gates".to_string(), Value::Str(program.to_string())),
            ]))
        };
        assert_eq!(decode("cx 3 2;ccx 0 1 3").unwrap().len(), 2);
        for program in ["h 0;cx 3 3", "ccx 0 2 0", "ccx 1 2 2", "cpr 1 1 3 +"] {
            let err = decode(program).unwrap_err();
            assert!(
                err.to_string().contains("repeats qubit"),
                "{program}: {err}"
            );
        }
    }

    #[test]
    fn lowered_and_decoded_circuits_hold_no_growth_slack() {
        let mut c = Circuit::named(3, "toffolis");
        for _ in 0..5 {
            c.toffoli(0, 1, 2);
        }
        let lowered = c.lower(&NoSynth);
        let exact = 75 * std::mem::size_of::<Gate>() + "toffolis".len();
        assert_eq!(lowered.heap_bytes(), exact);
        let decoded = Circuit::from_value(&lowered.to_value()).expect("round trip");
        assert_eq!(decoded.heap_bytes(), exact);
    }

    #[test]
    fn swap_is_three_cx() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        assert_eq!(c.len(), 3);
    }
}
