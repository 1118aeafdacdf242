//! End-to-end integration: kernels verify functionally, characterize
//! with the paper's shape, and the full study runs and serializes.

use speed_of_data::kernels::verify_adder;
use speed_of_data::prelude::*;
use speed_of_data::service::{RunRequest, Scheduler};

#[test]
fn adders_add_across_widths() {
    for n in [2usize, 4, 8] {
        let rca = qrca(n);
        let cla = qcla(n);
        let mask = (1u64 << n) - 1;
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..25 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = x & mask;
            x = x.rotate_left(11);
            let b = x & mask;
            verify_adder(&rca, n, a, b).expect("QRCA");
            verify_adder(&cla, n, a, b).expect("QCLA");
        }
    }
}

#[test]
fn table2_shape_holds_for_all_benchmarks() {
    // Every row of Table 2: prep dominates (>70%), interact in the
    // teens-to-twenties, data ops a few percent.
    let synth = SynthAdapter::with_budget(8, 3e-2);
    for c in [qrca_lowered(32), qcla_lowered(32), qft_lowered(32, &synth)] {
        let r = characterize(&c);
        let (d, i, p) = (
            r.breakdown.data_op_share(),
            r.breakdown.qec_interact_share(),
            r.breakdown.ancilla_prep_share(),
        );
        assert!(d < 0.10, "{}: data share {d}", r.name);
        assert!((0.10..0.30).contains(&i), "{}: interact share {i}", r.name);
        assert!(p > 0.70, "{}: prep share {p}", r.name);
    }
}

#[test]
fn table3_bandwidth_ratios_hold() {
    // The carry-lookahead adder needs roughly an order of magnitude
    // more ancilla bandwidth than the ripple-carry adder (paper:
    // 306.1 vs 34.8 zeros/ms); the QFT sits near the QRCA.
    let rca = characterize(&qrca_lowered(32)).bandwidth;
    let cla = characterize(&qcla_lowered(32)).bandwidth;
    let ratio = cla.zero_per_ms / rca.zero_per_ms;
    assert!(
        (5.0..15.0).contains(&ratio),
        "QCLA/QRCA bandwidth ratio {ratio}"
    );
    // pi/8 bandwidths scale similarly (paper: 62.7 vs 7.0).
    let pr = cla.pi8_per_ms / rca.pi8_per_ms;
    assert!((5.0..15.0).contains(&pr), "pi/8 ratio {pr}");
}

#[test]
fn fig7_demand_profiles_are_positive_and_bounded() {
    let model = CharacterizationModel::ion_trap();
    let c = qrca_lowered(16);
    let profile = demand_profile(&c, &model, SpeedOfData::of(&c, &model).makespan_us, 200);
    assert_eq!(profile.len(), 200);
    let peak = profile
        .iter()
        .map(|p| p.zeros_in_flight)
        .fold(0.0, f64::max);
    let avg: f64 = profile.iter().map(|p| p.zeros_in_flight).sum::<f64>() / profile.len() as f64;
    assert!(peak > 0.0);
    assert!(avg > 0.0);
    assert!(peak < 10_000.0, "implausible peak {peak}");
    assert!(peak >= avg);
}

#[test]
fn fig8_sweep_plateaus_at_speed_of_data() {
    let model = CharacterizationModel::ion_trap();
    let c = qrca_lowered(16);
    let avg = characterize(&c).bandwidth.zero_per_ms;
    let pts = throughput_sweep(&c, &model, avg / 10.0, avg * 10.0, 9);
    // Monotone non-increasing...
    for w in pts.windows(2) {
        assert!(w[1].execution_us <= w[0].execution_us * 1.0001);
    }
    // ...with a starved-to-plateau span of at least ~4x.
    assert!(pts[0].execution_us > 3.0 * pts.last().unwrap().execution_us);
    // Plateau equals the unconstrained execution time.
    let unconstrained = execution_time_us(&c, &model, f64::INFINITY);
    assert!((pts.last().unwrap().execution_us - unconstrained).abs() < 1e-6);
}

fn smoke_records() -> Vec<ExperimentRecord> {
    Scheduler::with_options(StudyConfig::smoke(), 2, false)
        .run(&RunRequest::default())
        .expect("the full registry runs")
        .records
}

#[test]
fn full_smoke_study_serializes() {
    let out = PaperReproduction::from_records(StudyConfig::smoke(), &smoke_records());
    let json = serde_json::to_string(&out).expect("serialize");
    assert!(json.len() > 1000);
    for key in ["fig4", "table2", "table9", "fig15", "cascade"] {
        assert!(json.contains(key), "missing {key}");
    }
}

#[test]
fn report_renders_non_trivially() {
    let text = speed_of_data::report::paper_report(&smoke_records());
    assert!(text.lines().count() > 30);
}
