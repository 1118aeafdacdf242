//! Enumeration of Clifford+T unitaries in Matsumoto-Amano order.
//!
//! Every single-qubit Clifford+T operator has a unique normal form
//! `(T | eps) (HT | SHT)* C` (matrix product, rightmost factor applied
//! first), with `C` a Clifford. Enumerating these forms visits each
//! distinct unitary of T-count `t` exactly once — about `3 * 2^(t-1)`
//! non-Clifford cores per T-count — which is what makes Fowler-style
//! exhaustive search tractable at useful depths.

use crate::su2::U2;

/// A visited core: its matrix and the path that built it.
#[derive(Debug, Clone, Copy)]
pub struct Core {
    /// Product of the T/HT/SHT factors (no trailing Clifford).
    pub matrix: U2,
    /// True when the form starts with a lone `T` factor.
    pub leading_t: bool,
    /// Syllable choices left-to-right as a bit mask: bit `i` is
    /// syllable `i`, clear = HT, set = SHT. There are
    /// [`Core::syllable_count`] of them.
    pub syllables: u64,
    /// Number of T gates in the core.
    pub t_count: u32,
}

impl Core {
    /// Number of HT/SHT syllables: every T but the leading one.
    pub fn syllable_count(&self) -> u32 {
        self.t_count - u32::from(self.leading_t)
    }

    /// The circuit-order gate names realizing this core, *excluding*
    /// the trailing Clifford. Matrix factors apply right-to-left, so
    /// the circuit order is the reverse of the factor order.
    pub fn circuit_gates(&self) -> Vec<crate::search::HtGate> {
        use crate::search::HtGate;
        // Matrix = [T?] * syl_1 * syl_2 * ... * syl_m, where each
        // syllable is H*T or S*H*T. Circuit order: syl_m first
        // (its T first), then ..., then the leading T last.
        let mut gates = Vec::new();
        for i in (0..self.syllable_count()).rev() {
            gates.push(HtGate::T);
            gates.push(HtGate::H);
            if self.syllables >> i & 1 == 1 {
                gates.push(HtGate::S);
            }
        }
        if self.leading_t {
            gates.push(HtGate::T);
        }
        gates
    }
}

/// Depth-first enumeration of all cores with `t_count <= max_t`
/// (including the identity core), shared by a set of searches.
///
/// The searches are the set bits of a `u64` mask: `visit` is called
/// on each core with the searches that reach it, and returns the ones
/// that descend into its children (T-count `core.t_count + 1`); a
/// subtree no search descends into is skipped. Because the return
/// value is taken right after the visit — exactly when a lone search
/// would decide whether to prune — each search sees the same cores in
/// the same order as if it ran alone.
///
/// # Panics
///
/// Panics if `max_t > 64`: a core's syllables live in one `u64`.
pub fn enumerate_cores(max_t: u32, searches: u64, mut visit: impl FnMut(&Core, u64) -> u64) {
    assert!(
        max_t <= 64,
        "max_t {max_t} exceeds the 64-syllable core mask"
    );
    // Identity core (pure Clifford).
    let id = Core {
        matrix: U2::identity(),
        leading_t: false,
        syllables: 0,
        t_count: 0,
    };
    let roots = visit(&id, searches);
    if max_t == 0 || roots == 0 {
        return;
    }

    let t = U2::t();
    let ht = U2::h().mul(&t);
    let sht = U2::s().mul(&ht);

    // Two DFS roots: leading T, and a first syllable (HT or SHT).
    let mut stack: Vec<(Core, u64)> = [(t, true, 0), (ht, false, 0), (sht, false, 1)]
        .into_iter()
        .map(|(matrix, leading_t, syllables)| {
            let core = Core {
                matrix,
                leading_t,
                syllables,
                t_count: 1,
            };
            (core, roots)
        })
        .collect();
    while let Some((core, reach)) = stack.pop() {
        let descend = visit(&core, reach);
        let next_t = core.t_count + 1;
        if next_t <= max_t && descend != 0 {
            let bit = 1u64 << core.syllable_count();
            for (m, s) in [(&ht, 0), (&sht, bit)] {
                stack.push((
                    Core {
                        matrix: core.matrix.mul(m),
                        leading_t: core.leading_t,
                        syllables: core.syllables | s,
                        t_count: next_t,
                    },
                    descend,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::HtGate;
    use std::collections::HashSet;

    #[test]
    fn core_counts_match_normal_form_theory() {
        // Cores with t_count = t: 3 * 2^(t-1) for t >= 1, plus the
        // identity at t = 0.
        let mut by_t = std::collections::HashMap::new();
        enumerate_cores(6, 1, |c, all| {
            *by_t.entry(c.t_count).or_insert(0u64) += 1;
            all
        });
        assert_eq!(by_t[&0], 1);
        for t in 1..=6u32 {
            assert_eq!(by_t[&t], 3 * (1 << (t - 1)), "t = {t}");
        }
    }

    #[test]
    fn cores_are_distinct_unitaries() {
        // The normal form is unique, so all core matrices (even before
        // the trailing Clifford) must be pairwise distinct up to phase.
        let mut keys = HashSet::new();
        let mut dup = 0;
        enumerate_cores(7, 1, |c, all| {
            if !keys.insert(c.matrix.phase_key()) {
                dup += 1;
            }
            all
        });
        assert_eq!(dup, 0, "duplicate cores found");
    }

    #[test]
    fn circuit_gates_realize_core_matrices() {
        // Up to the widest budget the service accepts (`MAX_SYNTH_T`).
        enumerate_cores(16, 1, |c, all| {
            let mut m = U2::identity();
            for g in c.circuit_gates() {
                let u = match g {
                    HtGate::H => U2::h(),
                    HtGate::S => U2::s(),
                    HtGate::T => U2::t(),
                };
                m = u.mul(&m);
            }
            assert!(
                m.distance(&c.matrix) < 1e-9,
                "core gates do not rebuild matrix (t={})",
                c.t_count
            );
            all
        });
    }

    #[test]
    fn each_search_sees_its_own_pruned_tree() {
        // Search 0 stops below T-count 2, search 1 below 4, search 2
        // never: each must see exactly the cores, in the order, that
        // it sees when enumerated alone.
        let stop = [2u32, 4, u32::MAX];
        let path = |c: &Core| (c.t_count, c.leading_t, c.syllables);
        let mut shared = vec![Vec::new(); 3];
        enumerate_cores(6, 0b111, |c, reach| {
            let mut descend = 0;
            for (j, seen) in shared.iter_mut().enumerate() {
                if reach & 1 << j != 0 {
                    seen.push(path(c));
                    if c.t_count + 1 < stop[j] {
                        descend |= 1 << j;
                    }
                }
            }
            descend
        });
        for (j, seen) in shared.iter().enumerate() {
            let mut alone = Vec::new();
            enumerate_cores(6, 1, |c, all| {
                alone.push(path(c));
                if c.t_count + 1 < stop[j] {
                    all
                } else {
                    0
                }
            });
            assert_eq!(seen, &alone, "search {j}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-syllable core mask")]
    fn syllable_mask_bounds_max_t() {
        enumerate_cores(65, 1, |_, _| 0);
    }

    #[test]
    fn pruning_cuts_subtrees() {
        let mut visited = 0u64;
        enumerate_cores(8, 1, |c, all| {
            visited += 1;
            if c.t_count < 3 {
                all
            } else {
                0
            }
        });
        // 1 + 3 + 6 + 12 = 22 cores with t <= 3.
        assert_eq!(visited, 22);
    }
}
