//! Exactness of the Fig 15 simulator: the smoke- and paper-config
//! curves are pinned bit for bit, so a change to the event loop that
//! moves any `exec_us` fails here, not only in a `results/` diff.

use speed_of_data::arch::simulator::SimContext;
use speed_of_data::arch::sweep::{area_sweep, area_sweep_in, log_areas};
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

/// The paper configuration's Fig 15 (32-bit QRCA, QCLA and QFT; 13
/// log-spaced areas; the four-architecture panel), swept the way the
/// `fig15` experiment sweeps it: over the `sched` stage's makespan, at
/// two threads. One digest per `(kernel, architecture)` curve, captured
/// from the simulator that ran every area on its own.
#[test]
fn paper_fig15_curves_are_pinned() {
    // Columns follow the panel: Fully-Multiplexed, QLA, CQLA, Qalypso.
    const PINS: [(&str, [u64; 4]); 3] = [
        (
            "QRCA-32",
            [
                0x82d5_d8ca_ace6_6937,
                0x0902_a511_b750_14a7,
                0xa15a_6668_8949_2238,
                0x4efb_cb29_4c2b_cf79,
            ],
        ),
        (
            "QCLA-32",
            [
                0x8ef1_f4a3_d066_8345,
                0xc561_a804_f4fe_ec1a,
                0x918e_7191_e412_5410,
                0x4632_0f20_f73b_303a,
            ],
        ),
        (
            "QFT-32",
            [
                0x50d2_ca84_03db_0d0d,
                0x5ca8_16ce_96b6_6629,
                0x44f8_0e49_e22b_2647,
                0xb157_b538_b70f_1b90,
            ],
        ),
    ];
    let ctx = StudyContext::new(StudyConfig::default());
    let config = ctx.config();
    let range = &config.sweep_area_range;
    let areas = log_areas(range.min_area, range.max_area, config.sweep_points);
    assert_eq!(areas.len(), 13);
    let benchmarks = ctx.benchmarks();
    assert_eq!(benchmarks.len(), PINS.len());
    for (scheduled, (name, pins)) in benchmarks.iter().zip(PINS) {
        let circuit = &scheduled.circuit;
        assert_eq!(circuit.name, name);
        let archs: Vec<_> = config
            .arch_panel
            .iter()
            .map(|a| a.to_arch(circuit.n_qubits()))
            .collect();
        let sim = SimContext::with_sod_makespan(circuit, scheduled.makespan_us);
        let curves = area_sweep_in(&sim, &archs, &areas, 2);
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
