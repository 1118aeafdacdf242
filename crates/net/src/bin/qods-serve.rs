//! `qods-serve` — the speed-of-data job service daemon.
//!
//! Speaks newline-delimited JSON: each input line is one
//! [`RunRequest`](qods_service::RunRequest) —
//!
//! ```text
//! {"id":"j1","experiments":["table9","fig7"],"overrides":{"n_bits":8}}
//! ```
//!
//! — answered by exactly one `result` (or `error`) line, or a control
//! verb (`{"verb":"metrics"}`, `ping`, `shutdown`). By default the
//! daemon serves stdin/stdout; with `--listen ADDR` it serves many
//! concurrent TCP clients (thread-per-connection) through the same
//! core: in-flight duplicates coalesce onto one execution, admission
//! control sheds load past the queue bound with typed `overloaded`
//! errors, and `metrics` reports every counter, gauge and latency
//! summary by site name — cache hit rates, coalesce counts, latency
//! percentiles. Result lines carry no timing, so for a fixed request
//! sequence the output stream is byte-reproducible on either
//! transport (CI pipes a batch through and diffs against direct
//! experiment runs).
//!
//! ```text
//! qods-serve [--listen ADDR] [--threads N] [--progress] [--no-cache]
//!            [--base quick|paper] [--artifacts DIR] [--trace-out FILE]
//!            [--max-connections N] [--max-inflight N] [--max-queue N]
//!            [--max-requests-per-conn N] [--default-deadline MS]
//!            [--max-line-len BYTES] [--idle-timeout SECS]
//! ```
//!
//! Robustness knobs: `--default-deadline` budgets every request that
//! does not carry its own `deadline_ms`; `--max-line-len` caps how
//! many bytes one NDJSON line may hold before it answers
//! `bad_request`; `--idle-timeout` reaps TCP connections that stall
//! mid-line or go silent. Setting `QODS_FAULT_PLAN` arms the
//! deterministic fault injector (chaos testing; see `qods-fault`).
//!
//! Observability: `--trace-out FILE` (or `QODS_TRACE=FILE` in the
//! environment) arms end-to-end request tracing and writes a Chrome
//! trace-event JSON on shutdown — load it at `ui.perfetto.dev` or
//! `chrome://tracing`. Tracing never blocks serving (bounded buffers,
//! events dropped past capacity and counted) and never changes served
//! bytes: result lines are byte-identical with tracing on or off.

// Same serving-path discipline as the library (`lib.rs`): no new
// `unwrap()`/`expect()`; the CI clippy gate denies them.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use qods_core::study::StudyConfig;
use qods_net::server::{serve_stdio, NetServer, ServeCore, ServeOptions};
use qods_service::Scheduler;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> &'static str {
    "usage: qods-serve [--listen ADDR] [--threads N] [--progress] [--no-cache]\n\
     \t\t  [--base quick|paper] [--artifacts DIR] [--trace-out FILE]\n\
     \t\t  [--max-connections N] [--max-inflight N] [--max-queue N]\n\
     \t\t  [--max-requests-per-conn N] [--default-deadline MS]\n\
     \t\t  [--max-line-len BYTES] [--idle-timeout SECS]\n\
     \n\
     Reads one JSON request per line:\n\
     {\"id\":\"j1\",\"experiments\":[\"table9\"],\"overrides\":{\"n_bits\":8}}\n\
     (empty `experiments` = the full registry; overrides are sparse)\n\
     or a control verb ({\"verb\":\"metrics\"|\"ping\"|\"shutdown\"}), and\n\
     writes one `result`/`error` (or verb-answer) JSON line per request.\n\
     --listen ADDR serve TCP clients on ADDR (e.g. 127.0.0.1:7878; port 0\n\
     \t\t  picks one — see the `listening on` stderr line); default\n\
     \t\t  is the stdio daemon\n\
     --threads N   pin every worker pool in the process to N threads\n\
     --progress    stream `started`/`experiment` lines as work finishes\n\
     --no-cache    disable the content-addressed cache (cold service)\n\
     --base quick  resolve overrides against the smoke config, not the paper's\n\
     --artifacts DIR  persist compiled kernel artifacts under DIR\n\
     \t\t  (default results/.artifacts; QODS_ARTIFACT_DIR overrides;\n\
     \t\t  empty DIR keeps artifacts in memory only)\n\
     --trace-out FILE  arm request tracing; write a Chrome trace-event\n\
     \t\t  JSON (ui.perfetto.dev loads it) to FILE on shutdown\n\
     \t\t  (QODS_TRACE=FILE does the same from the environment)\n\
     --max-connections N      concurrent TCP clients (default 64)\n\
     --max-inflight N         jobs executing concurrently (default 32)\n\
     --max-queue N            jobs waiting for a slot; more shed as\n\
     \t\t  `overloaded` errors (default 64)\n\
     --max-requests-per-conn N  job lines one connection may submit\n\
     \t\t  (default 0 = unlimited)\n\
     --default-deadline MS    budget for requests without their own\n\
     \t\t  deadline_ms; exceeded runs answer `deadline_exceeded`\n\
     \t\t  (default 0 = no default budget)\n\
     --max-line-len BYTES     longest accepted NDJSON request line;\n\
     \t\t  longer lines answer `bad_request` (default 1048576)\n\
     --idle-timeout SECS      close TCP connections idle this long\n\
     \t\t  (default 300; 0 = never reap)"
}

/// Parses one `--flag N` unsigned argument or prints usage and fails.
fn parse_count(flag: &str, value: Option<String>) -> Result<usize, ExitCode> {
    match value.and_then(|n| n.parse::<usize>().ok()) {
        Some(n) => Ok(n),
        None => {
            eprintln!("{flag} needs a non-negative integer\n{}", usage());
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let mut threads: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut caching = true;
    let mut artifacts: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut base = StudyConfig::default();
    let mut options = ServeOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--listen" => match args.next() {
                Some(addr) => listen = Some(addr),
                None => {
                    eprintln!(
                        "--listen needs an address (e.g. 127.0.0.1:7878)\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--progress" => options.progress = true,
            "--no-cache" => caching = false,
            "--artifacts" => match args.next() {
                Some(dir) => artifacts = Some(dir),
                None => {
                    eprintln!("--artifacts needs a directory (or \"\")\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match args.next() {
                Some(path) if !path.is_empty() => trace_out = Some(path),
                _ => {
                    eprintln!("--trace-out needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--base" => match args.next().as_deref() {
                Some("quick") => base = StudyConfig::smoke(),
                Some("paper") => base = StudyConfig::default(),
                other => {
                    eprintln!(
                        "--base must be `quick` or `paper`, got {other:?}\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--max-connections" => match parse_count(&a, args.next()) {
                Ok(n) if n >= 1 => options.max_connections = n,
                Ok(_) => {
                    eprintln!("--max-connections needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
                Err(code) => return code,
            },
            "--max-inflight" => match parse_count(&a, args.next()) {
                Ok(n) if n >= 1 => options.max_inflight = n,
                Ok(_) => {
                    eprintln!("--max-inflight needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
                Err(code) => return code,
            },
            "--max-queue" => match parse_count(&a, args.next()) {
                Ok(n) => options.max_queue = n,
                Err(code) => return code,
            },
            "--max-requests-per-conn" => match parse_count(&a, args.next()) {
                Ok(n) => options.max_requests_per_conn = n as u64,
                Err(code) => return code,
            },
            "--default-deadline" => match parse_count(&a, args.next()) {
                Ok(n) => options.default_deadline_ms = n as u64,
                Err(code) => return code,
            },
            "--max-line-len" => match parse_count(&a, args.next()) {
                Ok(n) if n >= 1 => options.max_line_len = n,
                Ok(_) => {
                    eprintln!("--max-line-len needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
                Err(code) => return code,
            },
            "--idle-timeout" => match parse_count(&a, args.next()) {
                Ok(n) => options.idle_timeout_secs = n as u64,
                Err(code) => return code,
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    // Chaos testing: a QODS_FAULT_PLAN in the environment arms the
    // deterministic fault injector before any serving state exists.
    match qods_fault::arm_from_env() {
        Ok(false) => {}
        Ok(true) => eprintln!("qods-serve: fault injection armed from QODS_FAULT_PLAN"),
        Err(e) => {
            eprintln!("qods-serve: bad QODS_FAULT_PLAN: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Observability: an explicit --trace-out wins; otherwise
    // QODS_TRACE can arm tracing (and optionally name the file).
    match (&trace_out, qods_obs::trace::arm_from_env()) {
        (Some(_), _) => qods_obs::trace::enable(),
        (None, env_path) => trace_out = env_path,
    }
    if qods_obs::trace::enabled() {
        eprintln!(
            "qods-serve: request tracing armed ({})",
            trace_out.as_deref().unwrap_or("buffer only")
        );
    }

    // Pin every pool in the process (sweeps and Monte-Carlo included),
    // then build the scheduler on the same count.
    if let Some(n) = threads {
        qods_pool::set_thread_override(Some(n));
    }
    // Attach the disk artifact tier before any compilation: warm-disk
    // daemon starts skip kernel lowering entirely. An explicit empty
    // `--artifacts` keeps the store in memory.
    let artifacts =
        artifacts.unwrap_or_else(|| qods_core::compile::DEFAULT_ARTIFACT_DIR.to_string());
    let store = if artifacts.is_empty() {
        qods_core::compile::ArtifactStore::process()
    } else {
        qods_core::compile::ArtifactStore::init_process(std::path::Path::new(&artifacts))
    };
    let scheduler = Scheduler::with_options(base, qods_pool::host_threads(), caching);
    eprintln!(
        "qods-serve: ready ({} worker threads, cache {}, artifacts {})",
        scheduler.threads(),
        if caching { "on" } else { "off" },
        store
            .dir()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "in-memory".to_string()),
    );
    let core = Arc::new(ServeCore::new(scheduler, options));

    let outcome = match listen {
        None => match serve_stdio(&core) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        Some(addr) => {
            let server = match NetServer::bind(core, &addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bind {addr} failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Tests and scripts parse this line for the resolved port.
            eprintln!("qods-serve: listening on {}", server.local_addr());
            match server.serve() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    };

    // Flush the trace after the drain: every admitted job has
    // finished, so its spans are in the buffer.
    if let Some(path) = trace_out {
        let events = qods_obs::trace::tracer().drain();
        let dropped = qods_obs::trace::tracer().dropped();
        match std::fs::write(&path, qods_obs::export::to_chrome(&events)) {
            Ok(()) => eprintln!(
                "qods-serve: wrote {} trace events to {path} ({dropped} dropped)",
                events.len()
            ),
            Err(e) => eprintln!("qods-serve: trace write to {path} failed: {e}"),
        }
    }
    outcome
}
