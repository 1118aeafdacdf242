//! Property tests for override canonicalization: the content hash
//! must be insensitive to everything that doesn't change the work
//! (request field order, default-vs-explicit values) and sensitive to
//! every knob that does.

use proptest::prelude::*;
use qods_core::compile::hash::hash_hex;
use qods_core::study::{ArchChoice, StudyConfig};
use qods_service::{canonical_config_json, config_hash, Overrides};
use serde::{Serialize, Value};

/// Builds an `Overrides` whose populated fields are selected by
/// `mask` bits, with values derived deterministically from `salt`
/// (deliberately *not* the base defaults unless `salt` makes them
/// so).
fn overrides_from(mask: u32, salt: u64) -> Overrides {
    let panel = match salt % 3 {
        0 => ArchChoice::paper_panel(),
        1 => vec![ArchChoice::FullyMultiplexed, ArchChoice::Qla],
        _ => vec![
            ArchChoice::FullyMultiplexed,
            ArchChoice::Qla,
            ArchChoice::Cqla,
        ],
    };
    Overrides {
        n_bits: (mask & 1 != 0).then_some(4 + (salt % 13) as usize),
        mc_trials: (mask & 2 != 0).then_some(1_000 + salt % 9_000),
        noise_scale: (mask & 4 != 0).then_some(1.0 + (salt % 20) as f64),
        seed: (mask & 8 != 0).then_some(salt),
        synth_max_t: (mask & 16 != 0).then_some(6 + (salt % 8) as u32),
        synth_target: (mask & 32 != 0).then_some(1e-2 * (1.0 + (salt % 5) as f64)),
        sweep_points: (mask & 64 != 0).then_some(3 + (salt % 11) as usize),
        sweep_min_area: (mask & 128 != 0).then_some(100.0 + (salt % 300) as f64),
        sweep_max_area: (mask & 256 != 0).then_some(1e6 + (salt % 77) as f64),
        profile_samples: (mask & 512 != 0).then_some(16 + (salt % 200) as usize),
        arch_panel: (mask & 1024 != 0).then_some(panel),
        width_sweep: (mask & 2048 != 0).then_some(vec![4, 4 + (salt % 28) as usize]),
    }
}

/// Copies the base configuration's value for field `i` into `ov` as
/// an explicit override (the "explicitly write the default" case).
fn set_explicit_default(ov: &mut Overrides, i: usize, base: &StudyConfig) {
    match i {
        0 => ov.n_bits = Some(base.n_bits),
        1 => ov.mc_trials = Some(base.mc_trials),
        2 => ov.noise_scale = Some(base.noise_scale),
        3 => ov.seed = Some(base.seed),
        4 => ov.synth_max_t = Some(base.synth_max_t),
        5 => ov.synth_target = Some(base.synth_target),
        6 => ov.sweep_points = Some(base.sweep_points),
        7 => ov.sweep_min_area = Some(base.sweep_area_range.min_area),
        8 => ov.sweep_max_area = Some(base.sweep_area_range.max_area),
        9 => ov.profile_samples = Some(base.profile_samples),
        10 => ov.arch_panel = Some(base.arch_panel.clone()),
        11 => ov.width_sweep = Some(base.width_sweep.clone()),
        _ => unreachable!("12 override fields"),
    }
}

/// Sets field `i` of `ov` to a value guaranteed to differ from what
/// `ov` resolves to against `base`.
fn perturb(ov: &mut Overrides, i: usize, base: &StudyConfig) {
    let resolved = ov.resolve(base);
    match i {
        0 => ov.n_bits = Some(resolved.n_bits + 1),
        1 => ov.mc_trials = Some(resolved.mc_trials + 1),
        2 => ov.noise_scale = Some(resolved.noise_scale + 0.5),
        3 => ov.seed = Some(resolved.seed.wrapping_add(1)),
        4 => ov.synth_max_t = Some(resolved.synth_max_t + 1),
        5 => ov.synth_target = Some(resolved.synth_target * 2.0),
        6 => ov.sweep_points = Some(resolved.sweep_points + 1),
        7 => ov.sweep_min_area = Some(resolved.sweep_area_range.min_area + 1.0),
        8 => ov.sweep_max_area = Some(resolved.sweep_area_range.max_area + 1.0),
        9 => ov.profile_samples = Some(resolved.profile_samples + 1),
        10 => {
            let mut panel = resolved.arch_panel.clone();
            if panel.len() > 1 {
                panel.pop();
            } else {
                panel.push(ArchChoice::Qalypso);
            }
            ov.arch_panel = Some(panel);
        }
        11 => {
            let mut widths = resolved.width_sweep.clone();
            widths.push(widths.last().copied().unwrap_or(4) + 1);
            ov.width_sweep = Some(widths);
        }
        _ => unreachable!("12 override fields"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Explicitly writing a field at the value it would resolve to
    /// anyway never changes the hash — "default-vs-explicit" requests
    /// are the same content.
    #[test]
    fn explicit_defaults_hash_identically(mask in 0u32..4096, salt in 0u64..1_000_000,
                                          extra in 0u32..4096) {
        let base = StudyConfig::default();
        let ov = overrides_from(mask, salt);
        let hash = ov.content_hash(&base);
        // Fill every field selected by `extra` (and not already set)
        // with the value it resolves to today.
        let resolved = ov.resolve(&base);
        let mut explicit = ov.clone();
        for i in 0..12 {
            if extra & (1 << i) != 0 {
                set_explicit_default(&mut explicit, i, &resolved);
            }
        }
        prop_assert_eq!(explicit.content_hash(&base), hash);
    }

    /// The hash survives a serde round-trip and arbitrary request
    /// field order (the canonical form is order-fixed).
    #[test]
    fn field_order_and_round_trip_preserve_the_hash(mask in 0u32..4096, salt in 0u64..1_000_000) {
        let base = StudyConfig::default();
        let ov = overrides_from(mask, salt);
        let json = serde_json::to_string(&ov).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let back: Overrides =
            serde_json::from_str(&json).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&back, &ov);
        // Reverse the object's field order and parse again.
        let Value::Object(fields) = ov.to_value() else {
            return Err(TestCaseError::fail("overrides serialize as an object"));
        };
        let reversed = Value::Object(fields.into_iter().rev().collect());
        let json = serde_json::to_string(&reversed)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let back: Overrides =
            serde_json::from_str(&json).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back.content_hash(&base), ov.content_hash(&base));
    }

    /// Changing any single knob changes the hash — no two distinct
    /// workloads can share a cache line.
    #[test]
    fn any_changed_knob_changes_the_hash(mask in 0u32..4096, salt in 0u64..1_000_000,
                                         field in 0usize..12) {
        let base = StudyConfig::default();
        let ov = overrides_from(mask, salt);
        let hash = ov.content_hash(&base);
        let mut changed = ov.clone();
        perturb(&mut changed, field, &base);
        prop_assert!(
            changed.content_hash(&base) != hash,
            "perturbing field {} left the hash unchanged", field
        );
    }
}

#[test]
fn hash_is_stable_across_processes_and_time() {
    // Pinned values: the content hash addresses a persistent cache,
    // so it must never drift silently. If this fails, the canonical
    // encoding changed — bump deliberately and note it in CHANGES.md.
    let pins = [
        (
            StudyConfig::default(),
            concat!(
                r#"{"n_bits":32,"mc_trials":200000,"noise_scale":1.0,"seed":20080621,"#,
                r#""synth_max_t":12,"synth_target":0.01,"sweep_points":13,"#,
                r#""sweep_min_area":200.0,"sweep_max_area":3000000.0,"profile_samples":256,"#,
                r#""arch_panel":["FullyMultiplexed","Qla","Cqla","Qalypso"],"#,
                r#""width_sweep":[4,8,16,32,48]}"#
            ),
            "743ecdd9453bd9f5",
        ),
        (
            StudyConfig::smoke(),
            concat!(
                r#"{"n_bits":8,"mc_trials":4000,"noise_scale":10.0,"seed":20080621,"#,
                r#""synth_max_t":8,"synth_target":0.01,"sweep_points":7,"#,
                r#""sweep_min_area":200.0,"sweep_max_area":3000000.0,"profile_samples":64,"#,
                r#""arch_panel":["FullyMultiplexed","Qla","Cqla","Qalypso"],"#,
                r#""width_sweep":[4,8,12]}"#
            ),
            "21e09ac561ad55d0",
        ),
    ];
    for (cfg, json, hex) in pins {
        assert_eq!(canonical_config_json(&cfg), json);
        assert_eq!(hash_hex(config_hash(&cfg)), hex);
        assert_eq!(Overrides::default().content_hash(&cfg), config_hash(&cfg));
    }
    let ov = Overrides {
        n_bits: Some(8),
        noise_scale: Some(10.0),
        ..Overrides::default()
    };
    assert_eq!(
        hash_hex(ov.content_hash(&StudyConfig::default())),
        "80ba9f8099cf8f66"
    );
}
