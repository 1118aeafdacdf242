//! Typed run requests: a sparse [`Overrides`] struct over the study
//! knobs, its canonical form, and the stable content hash the result
//! cache is addressed by.
//!
//! ## Canonicalization and hashing
//!
//! Two requests are "the same work" exactly when they resolve to the
//! same [`StudyConfig`]. [`Overrides::resolve`] applies the sparse
//! overrides to a base configuration, and [`config_hash`] hashes a
//! canonical JSON encoding of the *resolved* configuration — fixed
//! field order, every semantic knob present. That construction makes
//! the hash insensitive to everything that doesn't change the
//! answer:
//!
//! * **field order** in the request JSON (deserialization is
//!   order-free, the canonical encoding is fixed-order);
//! * **default-vs-explicit values** (an override explicitly set to
//!   the base value resolves to the same configuration as omitting
//!   it);
//! * **worker counts** — `threads` is deliberately *excluded* from
//!   the canonical form: every engine in the workspace is
//!   bit-identical at any thread count (the tested determinism
//!   contract), so pool size is service policy, not work identity.
//!
//! Any changed semantic knob changes the canonical encoding and
//! therefore the hash (property-tested in
//! `tests/overrides_canonical.rs`).

use qods_core::compile::hash::canonical_json;
use qods_core::study::{ArchChoice, StudyConfig, SweepRange};
use serde::{Deserialize, Error, Serialize, Value};

/// Sparse, serializable overrides over the study knobs that are
/// otherwise hard-wired in [`StudyConfig`] and the experiment
/// implementations: benchmark kernel width, Monte-Carlo trial count
/// and error-rate scale, the Fig 15 area-sweep grid and architecture
/// panel, synthesis budgets, and profile sampling.
///
/// `None` means "keep the base configuration's value".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Overrides {
    /// Benchmark operand width (kernel width; paper: 32).
    pub n_bits: Option<usize>,
    /// Monte-Carlo trials per preparation circuit (Fig 4).
    pub mc_trials: Option<u64>,
    /// Error-rate scale (1.0 = the paper's rates; 10.0 = one decade
    /// hotter).
    pub noise_scale: Option<f64>,
    /// RNG seed.
    pub seed: Option<u64>,
    /// Synthesis budget: maximum T-count for pi/2^k sequences.
    pub synth_max_t: Option<u32>,
    /// Synthesis early-stop distance.
    pub synth_target: Option<f64>,
    /// Fig 15 sweep: number of area points.
    pub sweep_points: Option<usize>,
    /// Fig 15 sweep: smallest area (macroblocks).
    pub sweep_min_area: Option<f64>,
    /// Fig 15 sweep: largest area (macroblocks).
    pub sweep_max_area: Option<f64>,
    /// Fig 7/8 sample counts.
    pub profile_samples: Option<usize>,
    /// Fig 15 architecture panel selection.
    pub arch_panel: Option<Vec<ArchChoice>>,
    /// Width-sweep operand widths (`widthsweep` experiment).
    pub width_sweep: Option<Vec<usize>>,
}

/// The override field names, in canonical (declaration) order. One
/// table fixes the wire field order of serialization and names the
/// valid knobs in the unknown-override error, so the two can never
/// drift apart.
pub const OVERRIDE_FIELDS: [&str; 12] = [
    "n_bits",
    "mc_trials",
    "noise_scale",
    "seed",
    "synth_max_t",
    "synth_target",
    "sweep_points",
    "sweep_min_area",
    "sweep_max_area",
    "profile_samples",
    "arch_panel",
    "width_sweep",
];

impl Overrides {
    /// True when every field is `None` (the request changes nothing).
    pub fn is_empty(&self) -> bool {
        *self == Overrides::default()
    }

    /// Applies the overrides to a base configuration. `threads` is
    /// never overridden here — pool size is service policy (see the
    /// module docs).
    pub fn resolve(&self, base: &StudyConfig) -> StudyConfig {
        // No `..`: a new override field fails the build here until it
        // is resolved onto the configuration.
        let Overrides {
            n_bits,
            mc_trials,
            noise_scale,
            seed,
            synth_max_t,
            synth_target,
            sweep_points,
            sweep_min_area,
            sweep_max_area,
            profile_samples,
            arch_panel,
            width_sweep,
        } = self;
        let mut cfg = base.clone();
        if let Some(v) = *n_bits {
            cfg.n_bits = v;
        }
        if let Some(v) = *mc_trials {
            cfg.mc_trials = v;
        }
        if let Some(v) = *noise_scale {
            cfg.noise_scale = v;
        }
        if let Some(v) = *seed {
            cfg.seed = v;
        }
        if let Some(v) = *synth_max_t {
            cfg.synth_max_t = v;
        }
        if let Some(v) = *synth_target {
            cfg.synth_target = v;
        }
        if let Some(v) = *sweep_points {
            cfg.sweep_points = v;
        }
        if let Some(v) = *sweep_min_area {
            cfg.sweep_area_range.min_area = v;
        }
        if let Some(v) = *sweep_max_area {
            cfg.sweep_area_range.max_area = v;
        }
        if let Some(v) = *profile_samples {
            cfg.profile_samples = v;
        }
        if let Some(v) = arch_panel {
            cfg.arch_panel = v.clone();
        }
        if let Some(v) = width_sweep {
            cfg.width_sweep = v.clone();
        }
        cfg
    }

    /// The content hash of these overrides against `base`:
    /// [`config_hash`] of the resolved configuration.
    pub fn content_hash(&self, base: &StudyConfig) -> u64 {
        config_hash(&self.resolve(base))
    }

    fn field_value(&self, name: &str) -> Value {
        match name {
            "n_bits" => self.n_bits.to_value(),
            "mc_trials" => self.mc_trials.to_value(),
            "noise_scale" => self.noise_scale.to_value(),
            "seed" => self.seed.to_value(),
            "synth_max_t" => self.synth_max_t.to_value(),
            "synth_target" => self.synth_target.to_value(),
            "sweep_points" => self.sweep_points.to_value(),
            "sweep_min_area" => self.sweep_min_area.to_value(),
            "sweep_max_area" => self.sweep_max_area.to_value(),
            "profile_samples" => self.profile_samples.to_value(),
            "arch_panel" => self.arch_panel.to_value(),
            "width_sweep" => self.width_sweep.to_value(),
            other => unreachable!("unknown override field `{other}`"),
        }
    }

    fn set_field(&mut self, name: &str, v: &Value) -> Result<(), Error> {
        match name {
            "n_bits" => self.n_bits = Deserialize::from_value(v)?,
            "mc_trials" => self.mc_trials = Deserialize::from_value(v)?,
            "noise_scale" => self.noise_scale = Deserialize::from_value(v)?,
            "seed" => self.seed = Deserialize::from_value(v)?,
            "synth_max_t" => self.synth_max_t = Deserialize::from_value(v)?,
            "synth_target" => self.synth_target = Deserialize::from_value(v)?,
            "sweep_points" => self.sweep_points = Deserialize::from_value(v)?,
            "sweep_min_area" => self.sweep_min_area = Deserialize::from_value(v)?,
            "sweep_max_area" => self.sweep_max_area = Deserialize::from_value(v)?,
            "profile_samples" => self.profile_samples = Deserialize::from_value(v)?,
            "arch_panel" => self.arch_panel = Deserialize::from_value(v)?,
            "width_sweep" => self.width_sweep = Deserialize::from_value(v)?,
            other => {
                return Err(Error::custom(format!(
                    "unknown override `{other}` (knobs: {})",
                    OVERRIDE_FIELDS.join(", ")
                )))
            }
        }
        Ok(())
    }
}

// Hand-written (not derived): the shim derive requires every field to
// be present on deserialization, but overrides are sparse by design —
// absent and `null` both mean "keep the base value" — and unknown
// knob names must be a loud error, not silently ignored work.
impl Serialize for Overrides {
    fn to_value(&self) -> Value {
        let fields = OVERRIDE_FIELDS
            .iter()
            .map(|f| (f.to_string(), self.field_value(f)))
            .filter(|(_, v)| !matches!(v, Value::Null))
            .collect();
        Value::Object(fields)
    }
}

impl Deserialize for Overrides {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| Error::custom("overrides must be a JSON object"))?;
        let mut ov = Overrides::default();
        for (key, value) in fields {
            ov.set_field(key, value)?;
        }
        Ok(ov)
    }
}

/// One job for the service: which experiments to run (empty = every
/// registered experiment) under which overrides, with an optional
/// caller-chosen correlation id echoed back in responses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRequest {
    /// Correlation id echoed in every response line for this job.
    pub id: Option<String>,
    /// Experiment ids or aliases, in the order results are wanted;
    /// empty selects the full registry.
    pub experiments: Vec<String>,
    /// Sparse knob overrides.
    pub overrides: Overrides,
    /// Per-request deadline budget in milliseconds. Like `threads`,
    /// this is service policy, not work identity: it is excluded from
    /// the canonical configuration (and so from the config hash and
    /// the coalescing job key — coalesced followers share the
    /// leader's budget). A job past its deadline cancels at the next
    /// chunk boundary with a typed `deadline_exceeded` error; nothing
    /// partial is cached.
    pub deadline_ms: Option<u64>,
}

impl RunRequest {
    /// A request for the given experiments at base configuration.
    pub fn of<S: Into<String>>(experiments: impl IntoIterator<Item = S>) -> Self {
        RunRequest {
            id: None,
            experiments: experiments.into_iter().map(Into::into).collect(),
            overrides: Overrides::default(),
            deadline_ms: None,
        }
    }

    /// The same request with overrides attached.
    pub fn with_overrides(mut self, overrides: Overrides) -> Self {
        self.overrides = overrides;
        self
    }

    /// The same request with a deadline budget attached.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

impl Serialize for RunRequest {
    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(id) = &self.id {
            fields.push(("id".to_string(), id.to_value()));
        }
        fields.push(("experiments".to_string(), self.experiments.to_value()));
        fields.push(("overrides".to_string(), self.overrides.to_value()));
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), ms.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for RunRequest {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| Error::custom("request must be a JSON object"))?;
        let mut req = RunRequest::default();
        for (key, value) in fields {
            match key.as_str() {
                "id" => req.id = Deserialize::from_value(value)?,
                "experiments" => {
                    req.experiments = match value {
                        Value::Null => Vec::new(),
                        other => Deserialize::from_value(other)?,
                    }
                }
                "overrides" => {
                    req.overrides = match value {
                        Value::Null => Overrides::default(),
                        other => Deserialize::from_value(other)?,
                    }
                }
                "deadline_ms" => req.deadline_ms = Deserialize::from_value(value)?,
                other => {
                    return Err(Error::custom(format!(
                        "unknown request field `{other}` (expected id, experiments, \
                         overrides, deadline_ms)"
                    )))
                }
            }
        }
        Ok(req)
    }
}

/// The canonical JSON encoding of a configuration: fixed field order,
/// every semantic knob present, `threads` excluded (see module docs).
/// This string is what [`config_hash`] hashes.
pub fn canonical_config_json(cfg: &StudyConfig) -> String {
    // No `..`: a new `StudyConfig` or `SweepRange` field fails the
    // build here until it is encoded or bound to `_` as policy.
    let StudyConfig {
        n_bits,
        mc_trials,
        noise_scale,
        seed,
        synth_max_t,
        synth_target,
        sweep_points,
        sweep_area_range: SweepRange { min_area, max_area },
        profile_samples,
        arch_panel,
        width_sweep,
        threads: _,
    } = cfg;
    canonical_json(&Value::Object(vec![
        ("n_bits".to_string(), n_bits.to_value()),
        ("mc_trials".to_string(), mc_trials.to_value()),
        ("noise_scale".to_string(), noise_scale.to_value()),
        ("seed".to_string(), seed.to_value()),
        ("synth_max_t".to_string(), synth_max_t.to_value()),
        ("synth_target".to_string(), synth_target.to_value()),
        ("sweep_points".to_string(), sweep_points.to_value()),
        ("sweep_min_area".to_string(), min_area.to_value()),
        ("sweep_max_area".to_string(), max_area.to_value()),
        ("profile_samples".to_string(), profile_samples.to_value()),
        ("arch_panel".to_string(), arch_panel.to_value()),
        ("width_sweep".to_string(), width_sweep.to_value()),
    ]))
}

/// The stable content hash cache entries are addressed by: FNV-1a
/// (64-bit) over [`canonical_config_json`] — the same hashing
/// primitive the `qods-compile` artifact store uses
/// ([`qods_core::compile::hash`]). Stable across runs and platforms —
/// safe to persist and to compare across processes.
pub fn config_hash(cfg: &StudyConfig) -> u64 {
    qods_core::compile::hash::fnv1a(canonical_config_json(cfg).as_bytes())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_names_every_semantic_knob_and_not_threads() {
        let json = canonical_config_json(&StudyConfig::default());
        for field in OVERRIDE_FIELDS {
            assert!(json.contains(field), "canonical form misses `{field}`");
        }
        assert!(
            !json.contains("threads"),
            "threads is pool policy, not work identity"
        );
    }

    #[test]
    fn empty_overrides_resolve_to_the_base() {
        let base = StudyConfig::smoke();
        let ov = Overrides::default();
        assert!(ov.is_empty());
        assert_eq!(ov.resolve(&base), base);
        assert_eq!(ov.content_hash(&base), config_hash(&base));
    }

    #[test]
    fn overrides_serde_round_trips_sparsely() {
        let ov = Overrides {
            n_bits: Some(8),
            noise_scale: Some(10.0),
            arch_panel: Some(vec![ArchChoice::FullyMultiplexed, ArchChoice::Qla]),
            ..Overrides::default()
        };
        let json = serde_json::to_string(&ov).expect("serialize");
        // Sparse: unset knobs don't appear.
        assert!(!json.contains("mc_trials"));
        let back: Overrides = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, ov);
    }

    #[test]
    fn unknown_override_is_rejected() {
        let err = serde_json::from_str::<Overrides>("{\"n_bitz\": 8}").unwrap_err();
        assert!(err.to_string().contains("unknown override `n_bitz`"));
    }

    #[test]
    fn request_fields_are_all_optional_and_order_free() {
        let a: RunRequest =
            serde_json::from_str("{\"experiments\":[\"table9\"],\"id\":\"j1\"}").expect("parse");
        let b: RunRequest =
            serde_json::from_str("{\"id\":\"j1\",\"experiments\":[\"table9\"]}").expect("parse");
        assert_eq!(a, b);
        assert_eq!(a.id.as_deref(), Some("j1"));
        let empty: RunRequest = serde_json::from_str("{}").expect("parse");
        assert!(empty.experiments.is_empty() && empty.overrides.is_empty());
    }

    #[test]
    fn deadline_round_trips_and_never_reaches_the_config_hash() {
        let req = RunRequest::of(["table9"]).with_deadline_ms(250);
        let json = serde_json::to_string(&req).expect("serialize");
        assert!(json.contains("\"deadline_ms\":250"));
        let back: RunRequest = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, req);

        // The canonical configuration has no deadline field, so two
        // requests differing only in budget hash (and coalesce)
        // identically.
        let base = StudyConfig::smoke();
        assert_eq!(
            req.overrides.content_hash(&base),
            RunRequest::of(["table9"]).overrides.content_hash(&base)
        );
        assert!(!canonical_config_json(&base).contains("deadline"));
    }
}
