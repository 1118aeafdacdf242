//! Exactness of the compile stages and the speed-of-data analyses:
//! every kernel family's lowered circuit, schedule summary and Tables
//! 2/3 report at the paper budget, the smoke config's Fig 7 and Fig 8
//! series, and the paper config's Fig 7 and width-sweep outputs, are
//! pinned bit for bit. A change to lowering, scheduling or
//! characterization that moves any value fails here, not only in a
//! `results/` diff.

use speed_of_data::circuit::circuit::Circuit;
use speed_of_data::compile::{
    ArtifactStore, Characterization, CompiledKernel, Compiler, SynthBudget,
};
use speed_of_data::kernels::{KernelFamily, KernelSpec};
use speed_of_data::{ExperimentOutput, Registry, StudyConfig, StudyContext};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte stream.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a over the little-endian bytes of a sequence of words.
fn word_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fnv(h, &w.to_le_bytes()))
}

/// FNV-1a over the circuit's compact program encoding (the same
/// `;`-joined tokens its artifact serializes to).
fn circuit_digest(c: &Circuit) -> u64 {
    let mut program = String::new();
    for (i, g) in c.gates().iter().enumerate() {
        if i > 0 {
            program.push(';');
        }
        g.encode_compact(&mut program);
    }
    fnv(FNV_OFFSET, program.as_bytes())
}

/// The widths every family is pinned at.
const WIDTHS: [usize; 5] = [4, 8, 16, 32, 48];

/// Per family, per width: (lowered-circuit digest, analysis digest).
/// The analysis digest folds the `makespan_us` bits, the depth, and
/// every `CircuitReport` count and float bit pattern, in the order of
/// [`analysis_words`]. Captured before the compile stages' DAG walks
/// were replaced by frontier passes.
const PINS: [(KernelFamily, [(u64, u64); 5]); 5] = [
    (
        KernelFamily::Qrca,
        [
            (0xa1e5_be33_13c8_a3af, 0xf91d_ffac_017f_346d),
            (0x6227_c203_fb62_d39e, 0xbdda_a877_de6b_57fb),
            (0xe6c7_9835_8b33_aea3, 0x08ad_eb3a_df3f_c2b1),
            (0xb6e3_765c_add1_9a22, 0x55fc_f140_e178_9482),
            (0xb974_fa08_749e_fa35, 0x4b46_78fa_ff03_2289),
        ],
    ),
    (
        KernelFamily::Qcla,
        [
            (0x4a2c_a734_f041_5ac9, 0x5db5_f07c_49cf_b80f),
            (0x9da5_eb08_2c33_7d3c, 0x9419_ff2a_fb7d_a104),
            (0x98fc_5375_b4bd_2a35, 0x4f4a_2288_bae9_223c),
            (0x3d58_a461_667e_a7d0, 0x69af_be82_f5f6_afe7),
            (0xe332_addb_93bc_a6e7, 0x7ad4_d88c_081e_c476),
        ],
    ),
    (
        KernelFamily::Qft,
        [
            (0x6b36_b545_b470_c31f, 0x71ad_e822_63b3_978e),
            (0xa7a3_8cbc_1a00_4340, 0xcc44_3e74_52b4_dc14),
            (0xcfd9_dd05_00bd_f350, 0xb3cc_1d53_6963_7410),
            (0x8aa7_6c00_095a_607b, 0x3002_84f8_b2f2_4ac6),
            (0x56f6_73df_01cf_b5a6, 0x3df7_2608_582c_8a49),
        ],
    ),
    (
        KernelFamily::Draper,
        [
            (0xa48d_6a27_54d4_642f, 0x46b8_04d5_5049_ac35),
            (0x4083_6c4a_7582_839b, 0x0a40_889c_125e_d50b),
            (0x3d6d_f728_b301_557f, 0xdff2_e0e5_5404_c487),
            (0x5b74_51a0_590d_a47c, 0xbef0_22ff_5244_70e4),
            (0x135f_88a3_c550_3ecf, 0x52ef_40f9_d1aa_6c9e),
        ],
    ),
    (
        KernelFamily::CtrlAdd,
        [
            (0x1ec8_7a09_13f6_c45e, 0xcde4_d2a5_9bf5_1665),
            (0xd394_9761_1116_47f0, 0xeb35_ea1c_3c9e_c79c),
            (0x23e8_8028_4d3c_2c12, 0x2651_d7f3_23f0_040e),
            (0xb57c_e9ba_bb72_a010, 0x17a3_4aae_96a0_2ee9),
            (0xd342_9c48_28ab_34fa, 0xb6a7_fb0b_de6f_4863),
        ],
    ),
];
fn analysis_words(compiled: &CompiledKernel) -> Vec<u64> {
    let s = &compiled.scheduled;
    let mut words = vec![s.makespan_us.to_bits(), s.depth as u64];
    words.extend(characterization_words(&compiled.characterization));
    words
}

/// Every float bit pattern and count of a characterization.
fn characterization_words(ch: &Characterization) -> Vec<u64> {
    let r = &ch.report;
    vec![
        ch.makespan_us.to_bits(),
        r.n_qubits as u64,
        r.gate_count as u64,
        r.non_transversal_fraction.to_bits(),
        r.breakdown.data_op_us.to_bits(),
        r.breakdown.qec_interact_us.to_bits(),
        r.breakdown.ancilla_prep_us.to_bits(),
        r.bandwidth.zero_per_ms.to_bits(),
        r.bandwidth.pi8_per_ms.to_bits(),
        r.bandwidth.total_zeros,
        r.bandwidth.total_pi8,
        r.bandwidth.runtime_ms.to_bits(),
    ]
}

#[test]
fn kernel_analyses_are_pinned() {
    let compiler = Compiler::new(Arc::new(ArtifactStore::in_memory()), SynthBudget::default());
    assert_eq!(
        compiler.synth(),
        SynthBudget {
            max_t: 12,
            target_distance: 1e-2
        }
    );
    let got = PINS.map(|(family, _)| {
        let row = WIDTHS.map(|width| {
            let spec = KernelSpec::new(family, width).expect("valid spec");
            let compiled = compiler.compile(spec).expect("compiles");
            (
                circuit_digest(&compiled.scheduled.circuit),
                word_digest(analysis_words(&compiled)),
            )
        });
        (family, row)
    });
    let table: String = got
        .iter()
        .map(|(family, row)| {
            let cells: Vec<String> = row
                .iter()
                .map(|(c, a)| format!("({c:#018x}, {a:#018x})"))
                .collect();
            format!("    (KernelFamily::{family:?}, [{}]),\n", cells.join(", "))
        })
        .collect();
    assert_eq!(got, PINS, "pins differ; this build gives:\n{table}");
}

/// The smoke configuration's Fig 7 and Fig 8 series: one digest per
/// series over its `(x, y)` bits, in benchmark order (QRCA-8, QCLA-8,
/// QFT-8).
#[test]
fn smoke_fig7_and_fig8_series_are_pinned() {
    const FIG7: [u64; 3] = [
        0xfcf1_7849_df59_c863,
        0x1af0_1fc2_4924_06c4,
        0x350a_bcff_afd4_669f,
    ];
    const FIG8: [u64; 3] = [
        0xce8d_bfbb_a6c2_8138,
        0xe13e_cfb1_1200_3454,
        0x3591_427c_81df_8a70,
    ];
    let ctx = StudyContext::new(StudyConfig::smoke());
    let registry = Registry::paper();
    let got = ["fig7", "fig8"].map(|id| {
        let series = match registry.get(id).expect("registered").run(&ctx) {
            ExperimentOutput::Fig7(s) | ExperimentOutput::Fig8(s) => s.series,
            other => panic!("{id} produced {other:?}"),
        };
        let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["QRCA-8", "QCLA-8", "QFT-8"], "{id}");
        let digests: Vec<u64> = series
            .iter()
            .map(|s| word_digest(s.points.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits()])))
            .collect();
        <[u64; 3]>::try_from(digests).expect("three series")
    });
    assert_eq!(got, [FIG7, FIG8], "digests {got:#018x?}");
}

/// The `char` stage's two routes agree at the paper budget for every
/// family and pinned width: a lone characterization (lowered
/// transiently, with no circuit built) equals the report made from
/// the stored `sched` artifact, bit for bit.
#[test]
fn transient_and_stored_characterizations_agree_at_the_paper_budget() {
    let transient = Compiler::new(Arc::new(ArtifactStore::in_memory()), SynthBudget::default());
    let stored = Compiler::new(Arc::new(ArtifactStore::in_memory()), SynthBudget::default());
    for family in KernelFamily::ALL {
        for width in WIDTHS {
            let spec = KernelSpec::new(family, width).expect("valid spec");
            let lone = transient.characterization(spec).expect("compiles");
            stored.scheduled(spec).expect("compiles");
            let from_sched = stored.characterization(spec).expect("compiles");
            assert_eq!(*lone, *from_sched, "{spec}");
            assert_eq!(
                characterization_words(&lone),
                characterization_words(&from_sched),
                "{spec}"
            );
        }
    }
    assert_eq!(transient.store().len(), 25, "only the reports are kept");
}

/// The paper configuration's Fig 7 series (one digest per series over
/// its `(x, y)` bits, in benchmark order) and its width sweep (one
/// digest per family curve over every point's counts and float bits).
#[test]
fn paper_fig7_and_widthsweep_outputs_are_pinned() {
    const FIG7: [u64; 3] = [
        0x70d7_8c30_4edf_be74,
        0xac12_e90d_d39a_83ef,
        0x90b3_3598_96df_91a8,
    ];
    const WIDTHSWEEP: [u64; 5] = [
        0xdf24_e9bb_bc5a_687d,
        0x7250_f410_56b6_518e,
        0xac87_2972_be33_9e9c,
        0xfa1a_db06_4620_e9fa,
        0x8375_41e3_3d02_a9ee,
    ];
    let ctx = StudyContext::new(StudyConfig::default());
    let registry = Registry::paper();
    let fig7 = match registry.get("fig7").expect("registered").run(&ctx) {
        ExperimentOutput::Fig7(s) => s.series,
        other => panic!("fig7 produced {other:?}"),
    };
    let labels: Vec<&str> = fig7.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, ["QRCA-32", "QCLA-32", "QFT-32"]);
    let fig7: Vec<u64> = fig7
        .iter()
        .map(|s| {
            assert_eq!(s.points.len(), 256, "{}", s.label);
            word_digest(s.points.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits()]))
        })
        .collect();
    let sweep = match registry.get("widthsweep").expect("registered").run(&ctx) {
        ExperimentOutput::WidthSweep(o) => o,
        other => panic!("widthsweep produced {other:?}"),
    };
    assert_eq!(sweep.widths, WIDTHS);
    let sweep: Vec<u64> = sweep
        .curves
        .iter()
        .map(|c| {
            word_digest(c.points.iter().flat_map(|p| {
                [
                    p.width as u64,
                    p.n_qubits as u64,
                    p.gates as u64,
                    p.non_transversal_fraction.to_bits(),
                    p.speed_of_data_us.to_bits(),
                    p.zero_per_ms.to_bits(),
                    p.pi8_per_ms.to_bits(),
                ]
            }))
        })
        .collect();
    assert_eq!(
        (fig7.as_slice(), sweep.as_slice()),
        (FIG7.as_slice(), WIDTHSWEEP.as_slice()),
        "digests {fig7:#018x?} {sweep:#018x?}"
    );
}
