//! Exactness of the Fig 15 simulator: the smoke-config curves are
//! pinned bit for bit, so a change to the event loop that moves any
//! `exec_us` fails here, not only in a `results/` diff.

use speed_of_data::arch::sweep::{area_sweep, log_areas};
use speed_of_data::{StudyConfig, StudyContext};

/// FNV-1a over the `exec_us` bits of one curve.
fn curve_digest(exec_us: impl Iterator<Item = f64>) -> u64 {
    exec_us.fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// The smoke configuration's Fig 15 (8-bit QRCA, QCLA and QFT at
/// synthesis budget `(8, 1e-2)`; 7 log-spaced areas from 200 to 3e6
/// macroblocks; the four-architecture panel): one digest per
/// `(kernel, architecture)` curve, captured before the simulator's
/// dispatch and frontier were specialized.
#[test]
fn smoke_fig15_curves_are_pinned() {
    // Columns follow the panel: Fully-Multiplexed, QLA, CQLA, Qalypso.
    // QFT-8's qubits fit one 16-qubit Qalypso tile, so its Qalypso
    // curve is its FM curve.
    const PINS: [(&str, [u64; 4]); 3] = [
        (
            "QRCA-8",
            [
                0x2a1a_d0e7_e229_0ae9,
                0xc380_4372_b9d5_023b,
                0x87ae_f070_23ef_6669,
                0xe831_9cb3_3545_daac,
            ],
        ),
        (
            "QCLA-8",
            [
                0x9f10_2200_61d1_51ab,
                0x7339_3b25_7a13_07be,
                0xcdca_01d3_4117_df22,
                0x85a1_85cf_f082_c643,
            ],
        ),
        (
            "QFT-8",
            [
                0xb4ad_ab34_f294_f202,
                0x02d8_2af2_4dd4_577f,
                0xa134_1ffd_cf75_cc4a,
                0xb4ad_ab34_f294_f202,
            ],
        ),
    ];
    let ctx = StudyContext::new(StudyConfig::smoke());
    let config = ctx.config();
    let range = &config.sweep_area_range;
    let areas = log_areas(range.min_area, range.max_area, config.sweep_points);
    assert_eq!(areas.len(), 7);
    let benchmarks = ctx.benchmarks();
    assert_eq!(benchmarks.len(), PINS.len());
    for (circuit, (name, pins)) in benchmarks.iter().map(|s| &s.circuit).zip(PINS) {
        assert_eq!(circuit.name, name);
        let archs: Vec<_> = config
            .arch_panel
            .iter()
            .map(|a| a.to_arch(circuit.n_qubits()))
            .collect();
        let curves = area_sweep(circuit, &archs, &areas);
        assert_eq!(curves.len(), pins.len());
        for (curve, pin) in curves.iter().zip(pins) {
            let digest = curve_digest(curve.points.iter().map(|p| p.exec_us));
            assert_eq!(
                digest, pin,
                "{name} {}: digest {digest:#018x} of {:?}",
                curve.arch, curve.points
            );
        }
    }
}
