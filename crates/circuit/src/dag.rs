//! Dataflow DAG over a logical circuit: per-qubit dependency chains,
//! levels, and weighted longest (critical) paths.

use crate::circuit::Circuit;

/// The dependency structure of a circuit.
///
/// Gate `j` depends on gate `i` when they share a qubit and `i` is the
/// most recent earlier gate on that qubit (last-writer chains — quantum
/// gates both read and write every qubit they touch).
///
/// Stored flat (compressed sparse rows): gate `i`'s predecessors are
/// `preds[offsets[i]..offsets[i + 1]]`, in the order of the gate's
/// qubits, each listed once.
#[derive(Debug, Clone)]
pub struct Dag {
    offsets: Vec<usize>,
    preds: Vec<usize>,
}

impl Dag {
    /// Builds the DAG for a circuit.
    pub fn build(circuit: &Circuit) -> Self {
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
        let mut offsets = Vec::with_capacity(circuit.len() + 1);
        let mut preds = Vec::with_capacity(2 * circuit.len());
        offsets.push(0);
        for (i, g) in circuit.gates().iter().enumerate() {
            let first = preds.len();
            for &q in g.qubits().iter() {
                if let Some(prev) = last_on_qubit[q] {
                    if !preds[first..].contains(&prev) {
                        preds.push(prev);
                    }
                }
                last_on_qubit[q] = Some(i);
            }
            offsets.push(preds.len());
        }
        Dag { offsets, preds }
    }

    /// Predecessors of gate `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the DAG has no gates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// ASAP start times given a per-gate duration function; returns
    /// `(start_times, makespan)`. Gates are already in topological
    /// order (program order), so one forward pass suffices.
    pub fn asap(&self, duration: impl Fn(usize) -> f64) -> (Vec<f64>, f64) {
        let mut start = vec![0.0f64; self.len()];
        let mut makespan = 0.0f64;
        for i in 0..self.len() {
            let mut s = 0.0f64;
            for &p in self.preds(i) {
                let end = start[p] + duration(p);
                if end > s {
                    s = end;
                }
            }
            start[i] = s;
            let end = s + duration(i);
            if end > makespan {
                makespan = end;
            }
        }
        (start, makespan)
    }

    /// The gates on one weighted critical path (ties broken towards
    /// earlier gates), as indices in program order.
    pub fn critical_path(&self, duration: impl Fn(usize) -> f64) -> Vec<usize> {
        if self.is_empty() {
            return Vec::new();
        }
        // Longest path ending at each node.
        let mut dist = vec![0.0f64; self.len()];
        let mut back: Vec<Option<usize>> = vec![None; self.len()];
        for i in 0..self.len() {
            let mut best = 0.0f64;
            let mut who = None;
            for &p in self.preds(i) {
                let d = dist[p];
                if d > best {
                    best = d;
                    who = Some(p);
                }
            }
            dist[i] = best + duration(i);
            back[i] = who;
        }
        let mut end = 0;
        for i in 1..self.len() {
            if dist[i] > dist[end] {
                end = i;
            }
        }
        let mut path = vec![end];
        let mut cur = end;
        while let Some(p) = back[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Depth of the circuit in gate levels (unit durations).
    pub fn depth(&self) -> usize {
        self.critical_path(|_| 1.0).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn chain3() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        c.h(2);
        c.h(0); // parallel with the tail
        c
    }

    #[test]
    fn preds_follow_qubit_chains() {
        let d = Dag::build(&chain3());
        assert!(d.preds(0).is_empty());
        assert_eq!(d.preds(1), &[0]);
        assert_eq!(d.preds(2), &[1]);
        assert_eq!(d.preds(3), &[2]);
        assert_eq!(d.preds(4), &[1]); // H(0) waits on CX(0,1)
    }

    #[test]
    fn asap_respects_dependencies() {
        let d = Dag::build(&chain3());
        let (start, makespan) = d.asap(|_| 1.0);
        assert_eq!(start, vec![0.0, 1.0, 2.0, 3.0, 2.0]);
        assert_eq!(makespan, 4.0);
    }

    #[test]
    fn critical_path_picks_longest_chain() {
        let d = Dag::build(&chain3());
        let path = d.critical_path(|_| 1.0);
        assert_eq!(path, vec![0, 1, 2, 3]);
        assert_eq!(d.depth(), 4);
    }

    #[test]
    fn weighted_critical_path_can_differ() {
        let mut c = Circuit::new(2);
        c.h(0); // 0
        c.h(0); // 1: chain of two cheap gates on q0
        c.t(1); // 2: one expensive gate on q1
        let d = Dag::build(&c);
        assert_eq!(d.critical_path(|_| 1.0), vec![0, 1]);
        let weights = [1.0, 1.0, 5.0];
        assert_eq!(d.critical_path(|i| weights[i]), vec![2]);
    }

    #[test]
    fn empty_circuit() {
        let d = Dag::build(&Circuit::new(1));
        assert!(d.is_empty());
        assert_eq!(d.depth(), 0);
        let (s, m) = d.asap(|_| 1.0);
        assert!(s.is_empty());
        assert_eq!(m, 0.0);
    }

    #[test]
    fn shared_pred_deduplicated() {
        let mut c = Circuit::new(2);
        c.cx(0, 1); // 0
        c.cx(0, 1); // 1 depends on 0 via both qubits -> one pred
        let d = Dag::build(&c);
        assert_eq!(d.preds(1), &[0]);
    }
}
