//! The fully pipelined encoded-zero ancilla factory (§4.4.1,
//! Figs 12-13, Tables 5-6).
//!
//! Four pipeline stages: physical zero preparation (with optional
//! Hadamard), the encoder CX rounds alongside 3-qubit cat preparation,
//! verification, and bit/phase correction. Each seven physical qubits
//! leaving the CX stage form one encoded zero; ~99.8% survive
//! verification; and two out of every three verified blocks are
//! consumed correcting the third, giving
//!
//! ```text
//! throughput = (CX out / 7) x success x 1/3 = 10.5 ancillae / ms
//! ```

use crate::pipeline::{units_to_cover, CrossbarColumns, SizedFactory, SizedStage};
use crate::unit::FunctionalUnit;
use qods_phys::latency::{LatencyTable, SymbolicLatency};

/// Verification success probability. The paper measures 99.8% by Monte
/// Carlo (§2.3); our own Monte Carlo reproduces 0.25% failure at the
/// paper's error rates (see `qods-steane`), and the factory model uses
/// the paper's published constant.
pub const VERIFICATION_SUCCESS: f64 = 0.998;

/// The encoded-zero factory specification.
#[derive(Debug, Clone)]
pub struct ZeroFactory {
    latency: LatencyTable,
}

impl ZeroFactory {
    /// The paper's configuration (ion-trap latencies).
    pub fn paper() -> Self {
        ZeroFactory {
            latency: LatencyTable::ion_trap(),
        }
    }

    /// A configuration with custom physical latencies.
    pub fn with_latencies(latency: LatencyTable) -> Self {
        ZeroFactory { latency }
    }

    /// Table 5 row: the physical zero-prepare unit.
    pub fn zero_prep_unit() -> FunctionalUnit {
        FunctionalUnit {
            name: "Zero Prep",
            latency: SymbolicLatency::new().prep(1).one_q(1).turn(2).mov(1),
            stages: 1,
            qubits_in: 1,
            qubits_out: 1,
            success: 1.0,
            area: 1,
            height: 1,
        }
    }

    /// Table 5 row: the encoder CX unit (three rounds of three
    /// parallel CXs; three qubit groups in flight).
    pub fn cx_stage_unit() -> FunctionalUnit {
        FunctionalUnit {
            name: "CX Stage",
            latency: SymbolicLatency::new().two_q(3).turn(6).mov(5),
            stages: 3,
            qubits_in: 7,
            qubits_out: 7,
            success: 1.0,
            area: 28,
            height: 4,
        }
    }

    /// Table 5 row: the 3-qubit cat-state unit.
    pub fn cat_prep_unit() -> FunctionalUnit {
        FunctionalUnit {
            name: "Cat State Prep",
            latency: SymbolicLatency::new().two_q(2).turn(4).mov(2),
            stages: 2,
            qubits_in: 3,
            qubits_out: 3,
            success: 1.0,
            area: 6,
            height: 2,
        }
    }

    /// Table 5 row: the verification unit (10 macroblocks: 7 block
    /// qubits + 3 cat qubits held during measurement).
    pub fn verification_unit() -> FunctionalUnit {
        FunctionalUnit {
            name: "Verification",
            latency: SymbolicLatency::new().meas(1).two_q(1).turn(2).mov(2),
            stages: 1,
            qubits_in: 10,
            qubits_out: 7,
            success: VERIFICATION_SUCCESS,
            area: 10,
            height: 10,
        }
    }

    /// Table 5 row: the bit/phase correction unit (three encoded
    /// ancillae: the product plus two correction blocks measured in
    /// parallel).
    pub fn correction_unit() -> FunctionalUnit {
        FunctionalUnit {
            name: "B/P Correction",
            latency: SymbolicLatency::new().meas(1).two_q(2).turn(6).mov(8),
            stages: 1,
            qubits_in: 21,
            qubits_out: 7,
            success: 1.0,
            area: 21,
            height: 21,
        }
    }

    /// All five Table 5 units, in pipeline order.
    pub fn units() -> Vec<FunctionalUnit> {
        vec![
            Self::zero_prep_unit(),
            Self::cx_stage_unit(),
            Self::cat_prep_unit(),
            Self::verification_unit(),
            Self::correction_unit(),
        ]
    }

    /// Sizes the factory by bandwidth matching (Table 6).
    ///
    /// Stage 2 holds one CX unit and one cat-prep unit (their 7:3
    /// output ratio matches verification's input mix); upstream and
    /// downstream stages are matched to that flow.
    pub fn bandwidth_matched(&self) -> SizedFactory {
        let t = &self.latency;
        let cx = Self::cx_stage_unit();
        let cat = Self::cat_prep_unit();
        let zp = Self::zero_prep_unit();
        let verify = Self::verification_unit();
        let bp = Self::correction_unit();

        let cx_count = 1u32;
        let cat_count = 1u32;
        let stage2_out =
            f64::from(cx_count) * cx.bw_out_per_ms(t) + f64::from(cat_count) * cat.bw_out_per_ms(t);
        // Stage 1 must feed both CX and cat prep with raw qubits.
        let zp_count = units_to_cover(stage2_out, &zp, t);
        // Stage 3 consumes the full stage-2 flow (block + cat qubits).
        let verify_count = units_to_cover(stage2_out, &verify, t);
        // Stage 4 consumes verified blocks (21 qubits per initiation).
        let verified_out = f64::from(verify_count) * verify.bw_out_per_ms(t);
        let bp_count = units_to_cover(verified_out, &bp, t);

        // Throughput: the CX stage is the bottleneck; each 7 qubits
        // out is an encoded ancilla, derated by verification success
        // and the 3-into-1 correction.
        let cx_blocks_per_ms = f64::from(cx_count) * cx.bw_out_per_ms(t) / 7.0;
        let throughput = cx_blocks_per_ms * VERIFICATION_SUCCESS / 3.0;

        SizedFactory {
            name: "pipelined encoded-zero factory",
            stages: vec![
                SizedStage {
                    unit: zp,
                    count: zp_count,
                },
                SizedStage {
                    unit: cx,
                    count: cx_count,
                },
                SizedStage {
                    unit: cat,
                    count: cat_count,
                },
                SizedStage {
                    unit: verify,
                    count: verify_count,
                },
                SizedStage {
                    unit: bp,
                    count: bp_count,
                },
            ],
            stage_groups: vec![vec![0], vec![1, 2], vec![3], vec![4]],
            crossbars: vec![
                CrossbarColumns::Single, // funnel-in to stage 2
                CrossbarColumns::Double,
                CrossbarColumns::Double,
            ],
            throughput_per_ms: throughput,
        }
    }
}

impl Default for ZeroFactory {
    fn default() -> Self {
        ZeroFactory::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_latencies_and_bandwidths() {
        let t = LatencyTable::ion_trap();
        let rows: Vec<(FunctionalUnit, f64, f64, f64)> = vec![
            // unit, latency, bw_in, bw_out (Table 5 numeric columns)
            (ZeroFactory::zero_prep_unit(), 73.0, 13.7, 13.7),
            (ZeroFactory::cx_stage_unit(), 95.0, 221.1, 221.1),
            (ZeroFactory::cat_prep_unit(), 62.0, 96.8, 96.8),
            (ZeroFactory::verification_unit(), 82.0, 122.0, 85.2),
            (ZeroFactory::correction_unit(), 138.0, 152.2, 50.7),
        ];
        for (u, lat, bin, bout) in rows {
            assert_eq!(u.latency_us(&t), lat, "{} latency", u.name);
            assert!(
                (u.bw_in_per_ms(&t) - bin).abs() < 0.15,
                "{} bw_in {} vs {}",
                u.name,
                u.bw_in_per_ms(&t),
                bin
            );
            assert!(
                (u.bw_out_per_ms(&t) - bout).abs() < 0.15,
                "{} bw_out {} vs {}",
                u.name,
                u.bw_out_per_ms(&t),
                bout
            );
        }
    }

    #[test]
    fn table6_unit_counts() {
        let f = ZeroFactory::paper().bandwidth_matched();
        let counts: Vec<(&str, u32)> = f.stages.iter().map(|s| (s.unit.name, s.count)).collect();
        assert_eq!(
            counts,
            vec![
                ("Zero Prep", 24),
                ("CX Stage", 1),
                ("Cat State Prep", 1),
                ("Verification", 3),
                ("B/P Correction", 2),
            ]
        );
    }

    #[test]
    fn table6_heights_and_areas() {
        let f = ZeroFactory::paper().bandwidth_matched();
        let heights: Vec<u32> = f.stages.iter().map(|s| s.total_height()).collect();
        assert_eq!(heights, vec![24, 4, 2, 30, 42]);
        let areas: Vec<u32> = f.stages.iter().map(|s| s.total_area()).collect();
        assert_eq!(areas, vec![24, 28, 6, 30, 42]);
        // §4.4.1: crossbars 24 + 2x30 + 2x42 = 168; functional 130.
        assert_eq!(f.crossbar_area(), 168);
        assert_eq!(f.functional_area(), 130);
        assert_eq!(f.total_area(), 298);
    }

    #[test]
    fn throughput_is_ten_and_a_half_per_ms() {
        let f = ZeroFactory::paper().bandwidth_matched();
        assert!(
            (f.throughput_per_ms - 10.5).abs() < 0.05,
            "throughput {}",
            f.throughput_per_ms
        );
    }

    #[test]
    fn pipelining_matches_simple_factory_bandwidth_density() {
        // §5.3: the pipelined factory produces "virtually the same
        // encoded zero ancilla bandwidth per unit area" as the simple
        // factory (3.1/90 vs 10.5/298).
        let pipelined = ZeroFactory::paper().bandwidth_matched();
        let simple_density = 3.096 / 90.0;
        let ratio = pipelined.throughput_per_area() / simple_density;
        assert!((0.9..1.15).contains(&ratio), "density ratio {ratio}");
    }

    #[test]
    fn faster_measurement_shifts_the_bottleneck() {
        // A technology sanity check: with 10x faster measurement the
        // verification and correction stages speed up, but the CX
        // bottleneck (throughput driver) is unchanged.
        let mut t = LatencyTable::ion_trap();
        t.t_meas = 5.0;
        let f = ZeroFactory::with_latencies(t).bandwidth_matched();
        assert!((f.throughput_per_ms - 10.5).abs() < 0.05);
        // But fewer correction units are needed per verified block...
        // (the counts may shrink; the factory must stay consistent).
        assert!(f.total_area() <= 298);
    }
}
