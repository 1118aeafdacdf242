//! Functional simulators for verifying kernel circuits.
//!
//! * [`permutation`] — classical reversible simulation for X/CX/Toffoli
//!   networks (adders are permutations of basis states);
//! * [`statevector`] — dense complex simulation for small circuits
//!   (used to check the QFT against the DFT matrix for n <= 6).
//!
//! These simulate the *logical* circuit exactly; they are test oracles,
//! not part of the performance model.

pub mod permutation {
    //! Basis-state simulation of classical reversible networks.

    use crate::circuit::Circuit;
    use crate::gate::Gate;

    /// Applies the circuit to the computational basis state whose bits
    /// are given by `input` (bit `q` of the integer = qubit `q`).
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains a non-classical gate (anything
    /// other than X, CX, Toffoli).
    pub fn apply(circuit: &Circuit, input: u128) -> u128 {
        assert!(
            circuit.n_qubits() <= 128,
            "permutation sim supports <= 128 qubits"
        );
        let mut s = input;
        for g in circuit.gates() {
            match *g {
                Gate::X(q) => s ^= 1 << q,
                Gate::Cx(c, t) => {
                    if s >> c & 1 == 1 {
                        s ^= 1 << t;
                    }
                }
                Gate::Toffoli(a, b, t) => {
                    if (s >> a & 1 == 1) && (s >> b & 1 == 1) {
                        s ^= 1 << t;
                    }
                }
                // Documented caller contract: the permutation sim is only fed classical (X/CX/Toffoli) circuits.
                ref other => panic!("non-classical gate in permutation sim: {other:?}"),
            }
        }
        s
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::circuit::Circuit;

        #[test]
        fn cx_and_toffoli_semantics() {
            let mut c = Circuit::new(3);
            c.x(0);
            c.cx(0, 1);
            c.toffoli(0, 1, 2);
            assert_eq!(apply(&c, 0b000), 0b111);
            // X turns q0 off, so neither CX nor Toffoli fires.
            assert_eq!(apply(&c, 0b001), 0b000);
        }

        #[test]
        #[should_panic(expected = "non-classical")]
        fn rejects_hadamard() {
            let mut c = Circuit::new(1);
            c.h(0);
            let _ = apply(&c, 0);
        }
    }
}

pub mod statevector {
    //! Dense statevector simulation (small n only).

    use crate::circuit::Circuit;
    use crate::gate::{Gate, Qubit};
    use std::f64::consts::PI;

    /// A complex amplitude.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct Amp {
        /// Real part.
        pub re: f64,
        /// Imaginary part.
        pub im: f64,
    }

    impl Amp {
        /// The complex number `re + i*im`.
        pub fn new(re: f64, im: f64) -> Self {
            Amp { re, im }
        }

        /// Squared magnitude.
        pub fn norm_sq(&self) -> f64 {
            self.re * self.re + self.im * self.im
        }

        fn mul(self, o: Amp) -> Amp {
            Amp::new(
                self.re * o.re - self.im * o.im,
                self.re * o.im + self.im * o.re,
            )
        }

        fn add(self, o: Amp) -> Amp {
            Amp::new(self.re + o.re, self.im + o.im)
        }

        fn scale(self, s: f64) -> Amp {
            Amp::new(self.re * s, self.im * s)
        }

        fn phase(theta: f64) -> Amp {
            Amp::new(theta.cos(), theta.sin())
        }
    }

    /// A dense state over `n` qubits.
    #[derive(Debug, Clone)]
    pub struct State {
        n: usize,
        amps: Vec<Amp>,
    }

    impl State {
        /// |basis> over `n` qubits (bit q of `basis` = qubit q).
        ///
        /// # Panics
        ///
        /// Panics if `n > 20` (dense memory guard).
        pub fn basis(n: usize, basis: usize) -> Self {
            assert!(n <= 20, "statevector sim limited to 20 qubits");
            let mut amps = vec![Amp::default(); 1 << n];
            amps[basis] = Amp::new(1.0, 0.0);
            State { n, amps }
        }

        /// The amplitudes (index bit q = qubit q).
        pub fn amps(&self) -> &[Amp] {
            &self.amps
        }

        /// Fidelity |<self|other>|^2.
        pub fn fidelity(&self, other: &State) -> f64 {
            assert_eq!(self.n, other.n);
            let mut re = 0.0;
            let mut im = 0.0;
            for (a, b) in self.amps.iter().zip(&other.amps) {
                // conj(a) * b
                re += a.re * b.re + a.im * b.im;
                im += a.re * b.im - a.im * b.re;
            }
            re * re + im * im
        }

        /// Applies a whole circuit.
        pub fn run(&mut self, circuit: &Circuit) {
            assert_eq!(circuit.n_qubits(), self.n, "qubit count mismatch");
            for g in circuit.gates() {
                self.apply(g);
            }
        }

        /// Applies one gate.
        pub fn apply(&mut self, g: &Gate) {
            match *g {
                Gate::X(q) => self.map1(q, |a0, a1| (a1, a0)),
                Gate::Y(q) => self.map1(q, |a0, a1| {
                    (
                        Amp::new(a1.im, -a1.re), // -i * a1
                        Amp::new(-a0.im, a0.re), // i * a0
                    )
                }),
                Gate::Z(q) => self.phase1(q, PI),
                Gate::S(q) => self.phase1(q, PI / 2.0),
                Gate::Sdg(q) => self.phase1(q, -PI / 2.0),
                Gate::T(q) => self.phase1(q, PI / 4.0),
                Gate::Tdg(q) => self.phase1(q, -PI / 4.0),
                Gate::H(q) => {
                    let s = 1.0 / 2.0_f64.sqrt();
                    self.map1(q, move |a0, a1| {
                        (a0.add(a1).scale(s), a0.add(a1.scale(-1.0)).scale(s))
                    });
                }
                Gate::PhaseRot { q, k, dagger } => {
                    let theta = PI / 2f64.powi(i32::from(k)) * if dagger { -1.0 } else { 1.0 };
                    self.phase1(q, theta);
                }
                Gate::Cx(c, t) => {
                    for i in 0..self.amps.len() {
                        if i >> c & 1 == 1 && i >> t & 1 == 0 {
                            self.amps.swap(i, i | (1 << t));
                        }
                    }
                }
                Gate::Toffoli(a, b, t) => {
                    for i in 0..self.amps.len() {
                        if i >> a & 1 == 1 && i >> b & 1 == 1 && i >> t & 1 == 0 {
                            self.amps.swap(i, i | (1 << t));
                        }
                    }
                }
                Gate::CPhaseRot { c, t, k, dagger } => {
                    let theta = PI / 2f64.powi(i32::from(k)) * if dagger { -1.0 } else { 1.0 };
                    let ph = Amp::phase(theta);
                    for (i, amp) in self.amps.iter_mut().enumerate() {
                        if i >> c & 1 == 1 && i >> t & 1 == 1 {
                            *amp = amp.mul(ph);
                        }
                    }
                }
            }
        }

        fn map1(&mut self, q: Qubit, f: impl Fn(Amp, Amp) -> (Amp, Amp)) {
            for i in 0..self.amps.len() {
                if i >> q & 1 == 0 {
                    let j = i | (1 << q);
                    let (a0, a1) = f(self.amps[i], self.amps[j]);
                    self.amps[i] = a0;
                    self.amps[j] = a1;
                }
            }
        }

        fn phase1(&mut self, q: Qubit, theta: f64) {
            let ph = Amp::phase(theta);
            for (i, amp) in self.amps.iter_mut().enumerate() {
                if i >> q & 1 == 1 {
                    *amp = amp.mul(ph);
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bell_state() {
            let mut c = Circuit::new(2);
            c.h(0);
            c.cx(0, 1);
            let mut s = State::basis(2, 0);
            s.run(&c);
            let a = s.amps();
            assert!((a[0b00].norm_sq() - 0.5).abs() < 1e-12);
            assert!((a[0b11].norm_sq() - 0.5).abs() < 1e-12);
            assert!(a[0b01].norm_sq() < 1e-12);
        }

        #[test]
        fn t_gate_is_pi_over_4_phase() {
            let mut c = Circuit::new(1);
            c.h(0);
            c.t(0);
            let mut s = State::basis(1, 0);
            s.run(&c);
            let a1 = s.amps()[1];
            let expect = (PI / 4.0).cos() / 2.0_f64.sqrt();
            assert!((a1.re - expect).abs() < 1e-12);
        }

        #[test]
        fn s_equals_two_ts() {
            let mut c1 = Circuit::new(1);
            c1.h(0);
            c1.s(0);
            let mut c2 = Circuit::new(1);
            c2.h(0);
            c2.t(0);
            c2.t(0);
            let mut s1 = State::basis(1, 0);
            s1.run(&c1);
            let mut s2 = State::basis(1, 0);
            s2.run(&c2);
            assert!((s1.fidelity(&s2) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn cphase_matches_lowered_network() {
            // CPhaseRot{k} must equal its 2-CX + 3-rotation lowering.
            use crate::circuit::NoSynth;
            for k in 0..2u8 {
                let mut hi = Circuit::new(2);
                hi.h(0);
                hi.h(1);
                hi.cphase_rot(0, 1, k, false);
                let lo = hi.lower(&NoSynth);
                let mut s1 = State::basis(2, 0);
                s1.run(&hi);
                let mut s2 = State::basis(2, 0);
                s2.run(&lo);
                assert!(
                    (s1.fidelity(&s2) - 1.0).abs() < 1e-10,
                    "k={k} fidelity {}",
                    s1.fidelity(&s2)
                );
            }
        }

        #[test]
        fn toffoli_matches_its_decomposition() {
            use crate::circuit::NoSynth;
            for basis in 0..8 {
                let mut hi = Circuit::new(3);
                hi.h(0); // superpose to exercise phases
                hi.toffoli(0, 1, 2);
                let lo = hi.lower(&NoSynth);
                let mut s1 = State::basis(3, basis);
                s1.run(&hi);
                let mut s2 = State::basis(3, basis);
                s2.run(&lo);
                assert!(
                    (s1.fidelity(&s2) - 1.0).abs() < 1e-10,
                    "basis {basis}: fidelity {}",
                    s1.fidelity(&s2)
                );
            }
        }
    }
}
