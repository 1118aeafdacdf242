//! The NDJSON wire protocol both transports (stdio and TCP) speak.
//!
//! One JSON object per input line. A line is either a **job** — a
//! [`RunRequest`] (`{"id":..,"experiments":[..],"overrides":{..}}`)
//! answered by exactly one `result` or `error` line — or a **verb**
//! (`{"verb":"metrics"}`, `ping` or `shutdown`): a control-plane
//! request answered by one typed line. Verbs bypass admission
//! control, so `metrics` still answers while the job queue is
//! refusing work.
//!
//! Result lines carry no timing and are rendered from deterministic
//! fields only, so for a fixed request sequence the response stream
//! is byte-reproducible — the transport byte-identity tests pipe the
//! same batch through stdio and TCP and diff the bytes against direct
//! `Experiment::run` calls. These structs moved verbatim from the old
//! stdio daemon; changing their field set or order changes served
//! bytes and fails those tests.

use qods_core::compile::hash::hash_hex;
use qods_obs::MetricsSnapshot;
use qods_service::{JobEvent, JobResult, RunRequest, ServiceError};
use serde::{Deserialize, Serialize, Value};

/// One experiment's result in a `result` line (no timing: the line
/// must be byte-reproducible for a fixed request sequence).
#[derive(Serialize)]
pub struct RecordLine {
    /// Experiment id.
    pub id: String,
    /// Experiment title.
    pub title: String,
    /// The full experiment output.
    pub output: qods_core::experiment::ExperimentOutput,
}

/// The one `result` line a successful job answers with.
#[derive(Serialize)]
pub struct ResultLine {
    /// Always `"result"`.
    pub event: &'static str,
    /// The request's correlation id (the *caller's*, also for
    /// coalesced responses).
    pub id: Option<String>,
    /// Content hash of the resolved configuration, hex.
    pub config: String,
    /// Whether at least one output came from the cache
    /// (`output_hits > 0`).
    pub context_hit: bool,
    /// Experiments served from the output cache.
    pub output_hits: usize,
    /// Experiments actually computed.
    pub computed: usize,
    /// One record per requested experiment, in request order.
    pub records: Vec<RecordLine>,
}

/// Why a request was refused — the typed half of an [`ErrorLine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a parseable request.
    BadRequest,
    /// The scheduler rejected the job ([`ServiceError`]).
    Rejected,
    /// Admission control refused the job: queue full.
    Overloaded,
    /// The server is draining and accepts no new jobs.
    ShuttingDown,
    /// This connection exceeded its per-connection request limit.
    ConnectionLimit,
    /// The job panicked mid-execution; the scheduler caught the
    /// unwind and the daemon keeps serving.
    Internal,
    /// The job overran its `deadline_ms` budget (or the server-wide
    /// `--default-deadline`) and was cancelled at a chunk boundary.
    DeadlineExceeded,
    /// The connection went too long without completing a line and was
    /// reaped (slow-loris protection; see `--idle-timeout`).
    IdleTimeout,
}

impl ErrorKind {
    /// Every variant, in declaration order.
    pub const VARIANTS: [ErrorKind; 8] = [
        ErrorKind::BadRequest,
        ErrorKind::Rejected,
        ErrorKind::Overloaded,
        ErrorKind::ShuttingDown,
        ErrorKind::ConnectionLimit,
        ErrorKind::Internal,
        ErrorKind::DeadlineExceeded,
        ErrorKind::IdleTimeout,
    ];

    /// The wire tag (`"kind"` field of an error line).
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Rejected => "rejected",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::ConnectionLimit => "connection_limit",
            ErrorKind::Internal => "internal_error",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::IdleTimeout => "idle_timeout",
        }
    }

    /// The `"kind":"..."` JSON fragment an error line of this kind
    /// carries: how code and tests match a served kind without
    /// spelling its tag.
    pub fn fragment(self) -> String {
        format!("\"kind\":\"{}\"", self.tag())
    }

    /// The error kind a failed [`ServiceError`] maps to on the wire.
    pub fn of_service_error(e: &ServiceError) -> Self {
        match e {
            ServiceError::Internal { .. } => ErrorKind::Internal,
            ServiceError::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            ServiceError::Registry(_) | ServiceError::Kernel(_) | ServiceError::Config { .. } => {
                ErrorKind::Rejected
            }
        }
    }
}

/// The one `error` line a refused job (or unparseable line) answers
/// with. `kind` is machine-checkable; `error` is the human-readable
/// diagnostic.
#[derive(Serialize)]
pub struct ErrorLine {
    /// Always `"error"`.
    pub event: &'static str,
    /// The request's correlation id when one was parseable.
    pub id: Option<String>,
    /// Machine-checkable refusal class ([`ErrorKind::tag`]).
    pub kind: &'static str,
    /// Human-readable diagnostic.
    pub error: String,
}

impl ErrorLine {
    /// Builds an error line of the given kind.
    pub fn new(kind: ErrorKind, id: Option<String>, error: String) -> Self {
        ErrorLine {
            event: "error",
            id,
            kind: kind.tag(),
            error,
        }
    }
}

/// A `--progress` stream line.
#[derive(Serialize)]
pub struct ProgressLine {
    /// `"started"` or `"experiment"`.
    pub event: &'static str,
    /// The request's correlation id.
    pub id: Option<String>,
    /// Config hash hex (on `started`).
    pub config: Option<String>,
    /// Experiment id (on `experiment`).
    pub experiment: Option<String>,
    /// Cache hit flag.
    pub cache_hit: Option<bool>,
    /// Wall-clock seconds (on `experiment`).
    pub seconds: Option<f64>,
}

/// The control verbs a line can carry instead of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Answer one `metrics` line (the full registry snapshot: every
    /// counter, gauge, and histogram by site name, plus trace-buffer
    /// accounting).
    Metrics,
    /// Answer one `pong` line (liveness probe).
    Ping,
    /// Acknowledge, stop accepting, drain in-flight jobs, exit 0.
    Shutdown,
}

/// One parsed input line.
#[derive(Debug)]
pub enum Request {
    /// A job to run.
    Job(Box<RunRequest>),
    /// A control verb.
    Verb(Verb),
}

/// Parses one wire line: an object with a `"verb"` key is a control
/// verb; anything else must parse as a [`RunRequest`].
///
/// # Errors
///
/// A human-readable diagnostic (the caller wraps it in an
/// [`ErrorLine`] of kind [`ErrorKind::BadRequest`]).
pub fn parse_line(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))?;
    if let Some(verb) = value.get("verb") {
        let name = match verb {
            Value::Str(s) => s.as_str(),
            _ => return Err("bad request: `verb` must be a string".to_string()),
        };
        return match name {
            "metrics" => Ok(Request::Verb(Verb::Metrics)),
            "ping" => Ok(Request::Verb(Verb::Ping)),
            "shutdown" => Ok(Request::Verb(Verb::Shutdown)),
            other => Err(format!(
                "bad request: unknown verb `{other}` (verbs: metrics, ping, shutdown)"
            )),
        };
    }
    match Deserialize::from_value(&value) {
        Ok(request) => Ok(Request::Job(Box::new(request))),
        Err(e) => Err(format!("bad request: {e}")),
    }
}

/// The one `metrics` line the `metrics` verb answers with: the full
/// unified-registry snapshot (serving stack + artifact store +
/// process-wide counters merged; their site-name prefixes are
/// disjoint), nested under `metrics` so the envelope can grow fields
/// without moving the snapshot schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsLine {
    /// Always `"metrics"`.
    pub event: String,
    /// The merged registry snapshot.
    pub metrics: MetricsSnapshot,
}

/// Renders a response line as its wire bytes (no trailing newline).
pub fn render<T: Serialize>(line: &T) -> String {
    serde_json::to_string(line)
        .unwrap_or_else(|e| unreachable!("response lines always serialize: {e}"))
}

/// Builds the `result` line for a finished job. `id` is the *caller's*
/// correlation id: a coalesced follower echoes its own id, not the
/// leader's.
pub fn result_line(id: Option<String>, result: &JobResult) -> ResultLine {
    ResultLine {
        event: "result",
        id,
        config: hash_hex(result.config_hash),
        context_hit: result.context_hit,
        output_hits: result.output_hits,
        computed: result.computed,
        records: result
            .records
            .iter()
            .map(|r| RecordLine {
                id: r.id.clone(),
                title: r.title.clone(),
                output: r.output.clone(),
            })
            .collect(),
    }
}

/// Builds the progress line for one [`JobEvent`].
pub fn progress_line(event: JobEvent) -> ProgressLine {
    match event {
        JobEvent::Started {
            request_id,
            config_hash,
            context_hit,
            ..
        } => ProgressLine {
            event: "started",
            id: request_id,
            config: Some(hash_hex(config_hash)),
            experiment: None,
            cache_hit: Some(context_hit),
            seconds: None,
        },
        JobEvent::ExperimentDone {
            request_id,
            experiment,
            cache_hit,
            seconds,
        } => ProgressLine {
            event: "experiment",
            id: request_id,
            config: None,
            experiment: Some(experiment),
            cache_hit: Some(cache_hit),
            seconds: Some(seconds),
        },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn verbs_and_jobs_parse_apart() {
        assert!(matches!(
            parse_line("{\"verb\":\"shutdown\"}"),
            Ok(Request::Verb(Verb::Shutdown))
        ));
        assert!(matches!(
            parse_line("{\"verb\":\"ping\"}"),
            Ok(Request::Verb(Verb::Ping))
        ));
        let parsed = parse_line("{\"id\":\"j\",\"experiments\":[\"table9\"]}");
        match parsed {
            Ok(Request::Job(job)) => {
                assert_eq!(job.id.as_deref(), Some("j"));
                assert_eq!(job.experiments, vec!["table9".to_string()]);
            }
            _ => panic!("job line must parse as a job"),
        }
    }

    #[test]
    fn bad_lines_are_diagnostic_errors() {
        assert!(parse_line("not json").unwrap_err().contains("bad request"));
        for retired in ["reboot", "stats"] {
            let err = parse_line(&format!("{{\"verb\":\"{retired}\"}}")).unwrap_err();
            assert!(err.contains(&format!("unknown verb `{retired}`")), "{err}");
        }
        assert!(parse_line("{\"verb\":1}")
            .unwrap_err()
            .contains("must be a string"));
        assert!(parse_line("{\"experimentz\":[]}")
            .unwrap_err()
            .contains("unknown request field"));
    }

    #[test]
    fn kind_tags_are_distinct() {
        let mut tags: Vec<&str> = ErrorKind::VARIANTS.iter().map(|k| k.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(
            tags.len(),
            ErrorKind::VARIANTS.len(),
            "kind tags are distinct"
        );
        assert_eq!(
            ErrorKind::Overloaded.fragment(),
            "\"kind\":\"overloaded\"".to_string()
        );
    }

    #[test]
    fn error_lines_carry_the_typed_kind() {
        let line = render(&ErrorLine::new(
            ErrorKind::Overloaded,
            Some("j9".to_string()),
            "queue full".to_string(),
        ));
        assert!(line.contains("\"event\":\"error\""));
        assert!(line.contains("\"kind\":\"overloaded\""));
        assert!(line.contains("\"id\":\"j9\""));
    }

    #[test]
    fn metrics_verb_parses() {
        assert!(matches!(
            parse_line("{\"verb\":\"metrics\"}"),
            Ok(Request::Verb(Verb::Metrics))
        ));
    }

    #[test]
    fn service_errors_map_to_typed_wire_kinds() {
        let internal = ServiceError::Internal {
            message: "boom".to_string(),
        };
        assert_eq!(
            ErrorKind::of_service_error(&internal).tag(),
            "internal_error"
        );
        assert_eq!(
            ErrorKind::of_service_error(&ServiceError::DeadlineExceeded).tag(),
            "deadline_exceeded"
        );
    }
}
