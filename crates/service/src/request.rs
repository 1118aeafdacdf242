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

/// Generates everything the knob table below names: the
/// [`Overrides`] struct, [`OVERRIDE_FIELDS`], the sparse serde,
/// [`Overrides::resolve`] and [`canonical_config_json`].
///
/// Each row is a knob's wire name (also its `Overrides` field) and
/// type. The `places` block is the one exhaustive `StudyConfig`
/// destructure: it binds every knob's place in the configuration to
/// the knob's name. Both generated functions that touch a config go
/// through it, so a row with no place fails to resolve, and a bound
/// place with no row is an unused variable, which is denied.
macro_rules! knob_table {
    (
        knobs {
            $(
                $(#[$doc:meta])*
                $name:ident: $ty:ty,
            )*
        }
        places { $($places:tt)* }
    ) => {
        /// Sparse, serializable overrides over the study knobs that are
        /// otherwise hard-wired in [`StudyConfig`] and the experiment
        /// implementations: benchmark kernel width, Monte-Carlo trial
        /// count and error-rate scale, the Fig 15 area-sweep grid and
        /// architecture panel, synthesis budgets, and profile sampling.
        ///
        /// `None` means "keep the base configuration's value".
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct Overrides {
            $($(#[$doc])* pub $name: Option<$ty>,)*
        }

        /// The override field names, in table order: the wire field
        /// order of serialization and of the canonical encoding, and
        /// the valid knobs the unknown-override error names.
        pub const OVERRIDE_FIELDS: [&str; [$(stringify!($name)),*].len()] =
            [$(stringify!($name)),*];

        impl Overrides {
            /// Applies the overrides to a base configuration. `threads`
            /// is never overridden here — pool size is service policy
            /// (see the module docs).
            #[deny(unused_variables)]
            pub fn resolve(&self, base: &StudyConfig) -> StudyConfig {
                let mut cfg = base.clone();
                let $($places)* = &mut cfg;
                $(if let Some(v) = &self.$name {
                    *$name = v.clone();
                })*
                cfg
            }
        }

        // Hand-written (not derived): the shim derive requires every
        // field to be present on deserialization, but overrides are
        // sparse by design — absent and `null` both mean "keep the base
        // value" — and unknown knob names must be a loud error, not
        // silently ignored work.
        impl Serialize for Overrides {
            fn to_value(&self) -> Value {
                let mut fields = Vec::new();
                $(if let Some(v) = &self.$name {
                    fields.push((stringify!($name).to_string(), v.to_value()));
                })*
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
                    match key.as_str() {
                        $(stringify!($name) => ov.$name = Deserialize::from_value(value)?,)*
                        other => {
                            return Err(Error::custom(format!(
                                "unknown override `{other}` (knobs: {})",
                                OVERRIDE_FIELDS.join(", ")
                            )))
                        }
                    }
                }
                Ok(ov)
            }
        }

        /// The canonical JSON encoding of a configuration: every knob,
        /// in table order, `threads` excluded (see module docs). This
        /// string is what [`config_hash`] hashes.
        #[deny(unused_variables)]
        pub fn canonical_config_json(cfg: &StudyConfig) -> String {
            let $($places)* = cfg;
            canonical_json(&Value::Object(vec![
                $((stringify!($name).to_string(), $name.to_value()),)*
            ]))
        }
    };
}

knob_table! {
    knobs {
        /// Benchmark operand width (kernel width; paper: 32).
        n_bits: usize,
        /// Monte-Carlo trials per preparation circuit (Fig 4).
        mc_trials: u64,
        /// Error-rate scale (1.0 = the paper's rates; 10.0 = one decade
        /// hotter).
        noise_scale: f64,
        /// RNG seed.
        seed: u64,
        /// Synthesis budget: maximum T-count for pi/2^k sequences.
        synth_max_t: u32,
        /// Synthesis early-stop distance.
        synth_target: f64,
        /// Fig 15 sweep: number of area points.
        sweep_points: usize,
        /// Fig 15 sweep: smallest area (macroblocks).
        sweep_min_area: f64,
        /// Fig 15 sweep: largest area (macroblocks).
        sweep_max_area: f64,
        /// Fig 7/8 sample counts.
        profile_samples: usize,
        /// Fig 15 architecture panel selection.
        arch_panel: Vec<ArchChoice>,
        /// Width-sweep operand widths (`widthsweep` experiment).
        width_sweep: Vec<usize>,
    }

    // No `..`: a new `StudyConfig` or `SweepRange` field fails the
    // build here until it is a row above or bound to `_` as policy.
    places {
        StudyConfig {
            n_bits,
            mc_trials,
            noise_scale,
            seed,
            synth_max_t,
            synth_target,
            sweep_points,
            sweep_area_range: SweepRange {
                min_area: sweep_min_area,
                max_area: sweep_max_area,
            },
            profile_samples,
            arch_panel,
            width_sweep,
            threads: _,
        }
    }
}

impl Overrides {
    /// True when every field is `None` (the request changes nothing).
    pub fn is_empty(&self) -> bool {
        *self == Overrides::default()
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
        assert_eq!(config_hash(&ov.resolve(&base)), config_hash(&base));
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
            config_hash(&req.overrides.resolve(&base)),
            config_hash(&RunRequest::of(["table9"]).overrides.resolve(&base))
        );
        assert!(!canonical_config_json(&base).contains("deadline"));
    }
}
