//! The transport-independent serving core and the two transports
//! (stdio and multi-client TCP) that drive it.
//!
//! [`ServeCore`] owns the scheduler, the admission [`Gate`], the
//! serving counters, and the latency histogram; its
//! [`ServeCore::handle_line`] is the *whole* per-line behavior —
//! parse, verb dispatch, admission, coalesced execution, response
//! rendering. The transports only move bytes: [`serve_stdio`] reads
//! stdin, [`NetServer`] accepts TCP connections and runs one reader
//! thread per connection. Because both feed the same `handle_line`,
//! the served bytes for a given request sequence are identical across
//! transports (tested in `tests/serve_ndjson.rs`), and both share one
//! graceful-drain path: stop taking input, let admitted jobs finish
//! ([`Gate::wait_idle`]), then return — even when the input side
//! failed mid-stream.

use crate::admission::{Gate, Refusal};
use crate::protocol::{
    parse_line, progress_line, render, result_line, ErrorKind, ErrorLine, MetricsLine, Request,
    Verb,
};
use qods_obs::{
    sites, Counter, Gauge, LatencyHistogram, LatencySummary, MetricsSnapshot, Registry, Site,
};
use qods_pool::plock;
use qods_service::{JobEvent, RunRequest, Scheduler};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default cap on one NDJSON input line (bytes). Far above any real
/// request, far below what an adversarial or broken client could
/// otherwise make one connection thread buffer.
pub const DEFAULT_MAX_LINE_LEN: usize = 1 << 20;

/// Default idle-connection reap time (seconds since the last
/// *completed* line — a trickling slow-loris peer never completes
/// one, so the same clock covers both silence and drip-feeding).
pub const DEFAULT_IDLE_TIMEOUT_SECS: u64 = 300;

/// The read-timeout tick idle connections are polled at, and the cap
/// on how long a stalled peer can block one response write.
const SOCKET_TICK: Duration = Duration::from_secs(1);
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Serving policy for one server instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Stream `started`/`experiment` progress lines per job.
    pub progress: bool,
    /// Jobs admitted to execute concurrently (admission slots).
    pub max_inflight: usize,
    /// Jobs allowed to wait for a slot; one more is `overloaded`.
    pub max_queue: usize,
    /// Job lines one connection may submit (0 = unlimited); the line
    /// after the budget answers a `connection_limit` error.
    pub max_requests_per_conn: u64,
    /// Concurrent TCP connections; further accepts are refused with
    /// one `overloaded` error line.
    pub max_connections: usize,
    /// Longest accepted input line in bytes, its `\n` or `\r\n`
    /// terminator not counted; a longer line answers one
    /// `bad_request` error and is discarded without buffering.
    pub max_line_len: usize,
    /// Seconds a TCP connection may go without completing a line
    /// before it is reaped with an `idle_timeout` error (0 disables
    /// the reaper; stdio is never reaped).
    pub idle_timeout_secs: u64,
    /// Deadline budget (ms) applied to jobs that carry no
    /// `deadline_ms` of their own (0 = no default).
    pub default_deadline_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            progress: false,
            max_inflight: 32,
            max_queue: 64,
            max_requests_per_conn: 0,
            max_connections: 64,
            max_line_len: DEFAULT_MAX_LINE_LEN,
            idle_timeout_secs: DEFAULT_IDLE_TIMEOUT_SECS,
            default_deadline_ms: 0,
        }
    }
}

/// What one attempt to read the next line produced.
#[derive(Debug)]
enum ReadLine {
    /// A complete line (terminator stripped).
    Line(String),
    /// A line exceeded the cap; it was consumed and discarded.
    TooLong {
        /// Bytes thrown away (diagnostic only).
        discarded: usize,
    },
    /// Clean end of input.
    Eof,
    /// The read timed out (socket tick); partial input is retained
    /// and the next call continues it.
    Idle,
    /// The transport failed.
    Failed,
}

/// A line reader with a hard per-line byte cap. Unlike
/// `BufRead::lines`, an oversized line costs one bounded buffer and a
/// typed error — not an allocation the size of whatever the peer
/// cares to send before its first newline — and a read timeout
/// surfaces as [`ReadLine::Idle`] instead of losing buffered input,
/// which is what lets the TCP loop poll its idle reaper.
struct CappedLineReader<R> {
    inner: R,
    max_len: usize,
    buf: Vec<u8>,
    /// Inside an over-cap line: consume to the newline, count, and
    /// report instead of buffering.
    discarding: bool,
    discarded: usize,
}

impl<R: BufRead> CappedLineReader<R> {
    fn new(inner: R, max_len: usize) -> Self {
        CappedLineReader {
            inner,
            max_len: max_len.max(1),
            buf: Vec::new(),
            discarding: false,
            discarded: 0,
        }
    }

    fn next_line(&mut self) -> ReadLine {
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return ReadLine::Idle
                }
                Err(_) => return ReadLine::Failed,
            };
            if chunk.is_empty() {
                // EOF. An unterminated trailing line still serves
                // (matching `BufRead::lines`); a truncated over-cap
                // line still reports.
                if self.discarding {
                    self.discarding = false;
                    return ReadLine::TooLong {
                        discarded: std::mem::take(&mut self.discarded),
                    };
                }
                if self.buf.is_empty() {
                    return ReadLine::Eof;
                }
                return ReadLine::Line(self.take_line());
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let upto = newline.map_or(chunk.len(), |i| i + 1);
            if self.discarding {
                self.discarded += upto;
                self.inner.consume(upto);
                if newline.is_some() {
                    self.discarding = false;
                    return ReadLine::TooLong {
                        discarded: std::mem::take(&mut self.discarded),
                    };
                }
                continue;
            }
            self.buf.extend_from_slice(&chunk[..upto]);
            self.inner.consume(upto);
            if content_len(&self.buf) > self.max_len {
                // Too long: drop what we buffered and drain the rest
                // of the line (possibly across many reads).
                self.discarded = self.buf.len();
                self.buf.clear();
                if newline.is_some() {
                    return ReadLine::TooLong {
                        discarded: std::mem::take(&mut self.discarded),
                    };
                }
                self.discarding = true;
                continue;
            }
            if newline.is_some() {
                return ReadLine::Line(self.take_line());
            }
        }
    }

    fn take_line(&mut self) -> String {
        let mut bytes = std::mem::take(&mut self.buf);
        while bytes.last() == Some(&b'\n') || bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// The length of the line in `buf` without its terminator: a final
/// `\n` and one `\r` before it, or — while the line is still open —
/// a final `\r` the next read may complete into `\r\n`. The cap
/// counts these content bytes only.
fn content_len(buf: &[u8]) -> usize {
    let body = buf.strip_suffix(b"\n").unwrap_or(buf);
    body.strip_suffix(b"\r").unwrap_or(body).len()
}

/// Per-connection (or per-stdio-session) state `handle_line` threads
/// through: the job-line budget.
#[derive(Debug, Default)]
pub struct ConnState {
    jobs_submitted: u64,
}

/// What the transport should do after one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading.
    Continue,
    /// A `shutdown` verb was served: stop taking input and drain.
    Shutdown,
}

/// A whole-line byte sink. Implementations must write the line plus a
/// newline atomically with respect to other `emit` calls (progress
/// lines arrive from worker threads) and swallow transport errors —
/// a dead peer must never panic the server or abort the in-flight
/// job other callers may be coalesced onto.
pub trait LineSink: Sync {
    /// Writes one response line (no trailing newline in `line`).
    fn emit(&self, line: &str);
}

/// The transport-independent server: scheduler + admission gate +
/// counters + latency accounting behind one `handle_line`.
pub struct ServeCore {
    scheduler: Scheduler,
    gate: Gate,
    options: ServeOptions,
    /// The serving stack's registry — the same instance the context
    /// pool created and the scheduler registered into, so the
    /// `metrics` verb, [`StatsLine`] and the bench report all read
    /// one source of truth.
    metrics: Arc<Registry>,
    latency: Arc<LatencyHistogram>,
    requests: Arc<Counter>,
    results: Arc<Counter>,
    errors: Arc<Counter>,
    overloaded: Arc<Counter>,
    connections: Arc<Gauge>,
    connections_total: Arc<Counter>,
    lines_rejected: Arc<Counter>,
    idle_reaped: Arc<Counter>,
}

impl ServeCore {
    /// A serving core over `scheduler` with the given policy.
    pub fn new(scheduler: Scheduler, options: ServeOptions) -> Self {
        let gate = Gate::new(options.max_inflight, options.max_queue);
        scheduler.set_default_deadline_ms(options.default_deadline_ms);
        let metrics = Arc::clone(scheduler.pool().metrics());
        ServeCore {
            gate,
            options,
            latency: metrics.histogram(sites::NET_LATENCY),
            requests: metrics.counter(sites::NET_REQUESTS),
            results: metrics.counter(sites::NET_RESULTS),
            errors: metrics.counter(sites::NET_ERRORS),
            overloaded: metrics.counter(sites::NET_OVERLOADED),
            connections: metrics.gauge(sites::NET_CONNECTIONS),
            connections_total: metrics.counter(sites::NET_CONNECTIONS_TOTAL),
            lines_rejected: metrics.counter(sites::NET_LINES_REJECTED),
            idle_reaped: metrics.counter(sites::NET_IDLE_REAPED),
            metrics,
            scheduler,
        }
    }

    /// The scheduler this core serves.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The serving policy.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Serves one input line: empty lines are ignored, verbs answer
    /// their typed line, job lines run (behind admission, coalesced)
    /// and answer exactly one `result` or `error` line.
    pub fn handle_line(
        &self,
        line: &str,
        conn: &mut ConnState,
        sink: &dyn LineSink,
    ) -> LineOutcome {
        if line.trim().is_empty() {
            return LineOutcome::Continue;
        }
        let request = match parse_line(line) {
            Ok(r) => r,
            Err(diag) => {
                self.emit_error(sink, ErrorKind::BadRequest, None, diag);
                return LineOutcome::Continue;
            }
        };
        match request {
            Request::Verb(Verb::Ping) => {
                sink.emit("{\"event\":\"pong\"}");
                LineOutcome::Continue
            }
            Request::Verb(Verb::Metrics) => {
                sink.emit(&render(&MetricsLine {
                    event: "metrics".to_string(),
                    metrics: self.metrics_snapshot(),
                }));
                LineOutcome::Continue
            }
            Request::Verb(Verb::Shutdown) => {
                sink.emit("{\"event\":\"shutting_down\"}");
                self.begin_drain();
                LineOutcome::Shutdown
            }
            Request::Job(job) => {
                self.serve_job(&job, conn, sink);
                LineOutcome::Continue
            }
        }
    }

    /// Runs one job line end to end: per-connection budget, admission,
    /// coalesced execution, latency accounting, one response line.
    fn serve_job(&self, job: &RunRequest, conn: &mut ConnState, sink: &dyn LineSink) {
        let mut request_span = qods_obs::span!(sites::NET_REQUEST);
        if let Some(id) = &job.id {
            request_span.note_detail(id);
        }
        let budget = self.options.max_requests_per_conn;
        if budget > 0 && conn.jobs_submitted >= budget {
            self.emit_error(
                sink,
                ErrorKind::ConnectionLimit,
                job.id.clone(),
                format!("connection exceeded its request budget of {budget}"),
            );
            return;
        }
        conn.jobs_submitted += 1;

        #[expect(
            clippy::disallowed_methods,
            reason = "queue-latency telemetry for the metrics verb; excluded from result lines"
        )]
        let t0 = Instant::now();
        let admitted = {
            let _span = qods_obs::span!(sites::NET_ADMISSION);
            self.gate.admit()
        };
        let permit = match admitted {
            Ok(p) => p,
            Err(refusal) => {
                let kind = match refusal {
                    Refusal::QueueFull => {
                        self.overloaded.inc();
                        ErrorKind::Overloaded
                    }
                    Refusal::Draining => ErrorKind::ShuttingDown,
                };
                self.emit_error(sink, kind, job.id.clone(), refusal.to_string());
                return;
            }
        };
        self.requests.inc();

        let progress = self.options.progress;
        let mut emit_event = |event: JobEvent| {
            if progress {
                sink.emit(&render(&progress_line(event)));
            }
        };
        let outcome = self
            .scheduler
            .run_coalesced_with_events(job, &mut emit_event);
        drop(permit);
        self.latency.record(t0.elapsed());

        match outcome {
            Ok((result, _coalesced)) => {
                request_span.note_config_hash(result.config_hash);
                // Echo the *caller's* id: a coalesced response carries
                // the leader's records but this request's identity.
                let line = render(&result_line(job.id.clone(), &result));
                {
                    let _span = qods_obs::span!(sites::NET_WRITE);
                    sink.emit(&line);
                }
                self.results.inc();
            }
            // A panicked or deadline-cancelled job answers with its
            // own typed kind (`internal_error` / `deadline_exceeded`)
            // so clients can tell a crashed experiment from a refused
            // request.
            Err(e) => self.emit_error(
                sink,
                ErrorKind::of_service_error(&e),
                job.id.clone(),
                e.to_string(),
            ),
        }
    }

    /// Answers an over-cap input line with one typed `bad_request`
    /// error and counts it.
    fn reject_line(&self, sink: &dyn LineSink, discarded: usize) {
        self.lines_rejected.inc();
        self.emit_error(
            sink,
            ErrorKind::BadRequest,
            None,
            format!(
                "bad request: line exceeded the {}-byte cap ({discarded} bytes discarded)",
                self.options.max_line_len
            ),
        );
    }

    /// Counts the error, then writes its line: a client that has read
    /// the line sees it in the `metrics` verb from any connection.
    fn emit_error(&self, sink: &dyn LineSink, kind: ErrorKind, id: Option<String>, diag: String) {
        self.errors.inc();
        sink.emit(&render(&ErrorLine::new(kind, id, diag)));
    }

    /// Stops admitting jobs (they answer `shutting_down` errors);
    /// already-admitted jobs keep running.
    pub fn begin_drain(&self) {
        self.gate.drain();
    }

    /// Blocks until every admitted job has finished.
    pub fn wait_idle(&self) {
        self.gate.wait_idle();
    }

    fn connection_opened(&self) {
        self.connections.rise();
        self.connections_total.inc();
    }

    fn connection_closed(&self) {
        self.connections.fall();
    }

    /// Connections open right now. The limit check this feeds is
    /// advisory (relaxed gauge reads settle promptly; a race admits
    /// at most one extra connection for one accept).
    pub fn connection_count(&self) -> u64 {
        self.connections.get().max(0) as u64
    }

    /// The serving counters as typed fields: a [`StatsLine`] view of
    /// [`ServeCore::metrics_snapshot`].
    pub fn stats_line(&self) -> StatsLine {
        StatsLine::from_snapshot(&self.metrics_snapshot())
    }

    /// The `metrics` verb's answer: the serving stack's registry
    /// merged with the artifact store's (a caching pool's only) and the
    /// process-global one
    /// (their site-name prefixes are disjoint, so a map-extend merge
    /// is lossless). The mutex-guarded levels — gate permits, queue
    /// depth, in-flight jobs — are published into gauges here, at
    /// snapshot time: the mutexed state stays the source of truth and
    /// the hot path pays nothing for them.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .gauge(sites::GATE_ACTIVE)
            .set(self.gate.active() as i64);
        self.metrics
            .gauge(sites::GATE_WAITING)
            .set(self.gate.waiting() as i64);
        self.metrics
            .gauge(sites::SVC_IN_FLIGHT)
            .set(self.scheduler.stats().in_flight as i64);
        let mut snap = self.metrics.snapshot();
        // A cold pool's jobs each compile into a throwaway store, so it
        // has no `store.*` counters to report.
        let store = self
            .scheduler
            .pool()
            .store()
            .map(|s| s.metrics().snapshot());
        for other in store.into_iter().chain([Registry::global().snapshot()]) {
            snap.counters.extend(other.counters);
            snap.gauges.extend(other.gauges);
            snap.latency.extend(other.latency);
        }
        snap
    }
}

/// The serving counters of one [`MetricsSnapshot`] as typed fields,
/// for in-process readers (tests, the benchmark). Each field is the
/// value at one named site; the `metrics` verb serves the same
/// snapshot on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsLine {
    /// Connections open right now (0 in stdio mode): `net.connections`.
    pub connections: u64,
    /// Connections accepted since start (0 in stdio mode):
    /// `net.connections_total`.
    pub connections_total: u64,
    /// Request lines admitted for execution: `net.requests`.
    pub requests: u64,
    /// `result` lines served: `net.results`.
    pub results: u64,
    /// `error` lines served, all kinds: `net.errors`.
    pub errors: u64,
    /// Jobs refused by admission control: `net.overloaded`.
    pub overloaded: u64,
    /// Jobs this server executed itself (coalescing leaders):
    /// `svc.executed`.
    pub executed: u64,
    /// Jobs answered by joining an in-flight execution:
    /// `svc.coalesced`.
    pub coalesced: u64,
    /// Jobs holding an admission slot right now: `gate.active`.
    pub in_flight: u64,
    /// Jobs waiting for an admission slot right now: `gate.waiting`.
    pub queue_depth: u64,
    /// Jobs that found at least one output cached:
    /// `cache.context_hits`.
    pub context_hits: u64,
    /// Jobs that found none of their outputs cached:
    /// `cache.context_misses`.
    pub context_misses: u64,
    /// Output-cache hits (experiment served without compute):
    /// `cache.output_hits`.
    pub output_hits: u64,
    /// Output-cache misses (experiment computed): `cache.output_misses`.
    pub output_misses: u64,
    /// Job panics caught and answered as `internal_error` lines:
    /// `svc.panics_caught`.
    pub panics_caught: u64,
    /// Jobs cancelled at a deadline boundary: `svc.deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Lines rejected for exceeding the line cap: `net.lines_rejected`.
    pub lines_rejected: u64,
    /// Idle connections reaped: `net.idle_reaped`.
    pub idle_reaped: u64,
    /// Request latency, admission wait included: `net.latency`.
    pub latency: LatencySummary,
}

impl StatsLine {
    /// Reads every field at its site in `snap`; a site the snapshot
    /// lacks reads 0.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let counter = |site: Site| snap.counters.get(site.name()).copied().unwrap_or(0);
        let gauge = |site: Site| snap.gauges.get(site.name()).map_or(0, |&v| v.max(0) as u64);
        StatsLine {
            connections: gauge(sites::NET_CONNECTIONS),
            connections_total: counter(sites::NET_CONNECTIONS_TOTAL),
            requests: counter(sites::NET_REQUESTS),
            results: counter(sites::NET_RESULTS),
            errors: counter(sites::NET_ERRORS),
            overloaded: counter(sites::NET_OVERLOADED),
            executed: counter(sites::SVC_EXECUTED),
            coalesced: counter(sites::SVC_COALESCED),
            in_flight: gauge(sites::GATE_ACTIVE),
            queue_depth: gauge(sites::GATE_WAITING),
            context_hits: counter(sites::CACHE_CONTEXT_HITS),
            context_misses: counter(sites::CACHE_CONTEXT_MISSES),
            output_hits: counter(sites::CACHE_OUTPUT_HITS),
            output_misses: counter(sites::CACHE_OUTPUT_MISSES),
            panics_caught: counter(sites::SVC_PANICS_CAUGHT),
            deadline_exceeded: counter(sites::SVC_DEADLINE_EXCEEDED),
            lines_rejected: counter(sites::NET_LINES_REJECTED),
            idle_reaped: counter(sites::NET_IDLE_REAPED),
            latency: snap
                .latency
                .get(sites::NET_LATENCY.name())
                .cloned()
                .unwrap_or_default(),
        }
    }
}

/// The stdio sink: one locked write per line keeps lines whole even
/// with progress events arriving from worker threads.
struct StdoutSink;

impl LineSink for StdoutSink {
    fn emit(&self, line: &str) {
        let mut out = std::io::stdout().lock();
        // A closed stdout must not panic the drain path; the read
        // side ends the session.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Serves the NDJSON protocol on stdin/stdout until EOF, a `shutdown`
/// verb, or a read error — all three paths drain admitted jobs before
/// returning (the read-error case used to abandon them).
///
/// # Errors
///
/// The read-error diagnostic, after draining.
pub fn serve_stdio(core: &ServeCore) -> Result<(), String> {
    let sink = StdoutSink;
    let mut conn = ConnState::default();
    let mut read_error = None;
    let stdin = std::io::stdin();
    let mut reader = CappedLineReader::new(stdin.lock(), core.options().max_line_len);
    loop {
        match reader.next_line() {
            ReadLine::Line(line) => {
                if let LineOutcome::Shutdown = core.handle_line(&line, &mut conn, &sink) {
                    break;
                }
            }
            ReadLine::TooLong { discarded } => core.reject_line(&sink, discarded),
            ReadLine::Eof => break,
            // Stdin has no read timeout; treat a spurious tick as a
            // retry.
            ReadLine::Idle => continue,
            ReadLine::Failed => {
                read_error = Some("stdin read failed".to_string());
                break;
            }
        }
    }
    // One drain path for EOF, shutdown verb, and read error alike.
    core.begin_drain();
    core.wait_idle();
    match read_error {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// A TCP connection's sink: the write half behind a mutex, errors
/// swallowed (a dead peer ends the session via the read half).
struct StreamSink {
    writer: Mutex<TcpStream>,
}

impl LineSink for StreamSink {
    fn emit(&self, line: &str) {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        // qods-lint: allow(L1) -- by design: the writer mutex held across the write IS the per-connection frame serializer
        let mut w = plock(&self.writer);
        let _ = w.write_all(&buf);
        let _ = w.flush();
    }
}

/// The multi-client TCP transport: thread-per-connection over one
/// shared [`ServeCore`].
pub struct NetServer {
    core: Arc<ServeCore>,
    listener: TcpListener,
    local: SocketAddr,
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn bind(core: Arc<ServeCore>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(NetServer {
            core,
            listener,
            local,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Accepts and serves connections until a `shutdown` verb arrives
    /// on any of them, then drains: stop accepting, half-close every
    /// live connection's read side (their threads finish the job they
    /// are on, answer it, and exit on EOF), wait for all admitted jobs,
    /// join every connection thread.
    ///
    /// A connection thread releases its socket when it ends, so a
    /// finished connection is closed at once and a long-running server
    /// holds descriptors only for the connections still open.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection failures (including
    /// mid-request disconnects) are contained to their thread.
    ///
    /// # Panics
    ///
    /// Re-raises a connection thread's panic once the drain has joined
    /// every other thread (lint rule P1 keeps panics off that path).
    pub fn serve(self) -> std::io::Result<()> {
        let stop = AtomicBool::new(false);
        // Read-half clones of the live connections, by accept number,
        // for the drain's half-close. Each thread removes its own
        // entry when it ends.
        let live: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
        let core = &*self.core;

        std::thread::scope(|scope| {
            for (n, incoming) in (0u64..).zip(self.listener.incoming()) {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match incoming {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                // The shutdown self-connect lands here: drop it and stop.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if core.connection_count() >= core.options().max_connections as u64 {
                    let sink = StreamSink {
                        writer: Mutex::new(stream),
                    };
                    sink.emit(&render(&ErrorLine::new(
                        ErrorKind::Overloaded,
                        None,
                        format!(
                            "server overloaded: connection limit {} reached",
                            core.options().max_connections
                        ),
                    )));
                    continue; // dropping the stream closes it
                }
                if let Ok(read_half) = stream.try_clone() {
                    plock(&live).insert(n, read_half);
                }
                let (stop, live, local) = (&stop, &live, self.local);
                scope.spawn(move || {
                    serve_connection(core, stream, stop, local);
                    plock(live).remove(&n);
                });
            }

            // Drain: no new jobs, half-close every live reader so
            // connection threads fall out of their read loop after the
            // line they are serving; the scope joins them.
            core.begin_drain();
            #[expect(
                clippy::disallowed_methods,
                clippy::iter_over_hash_type,
                reason = "half-closing every reader is order-insensitive and feeds no sink"
            )]
            for reader in plock(&live).values() {
                let _ = reader.shutdown(Shutdown::Read);
            }
        });
        core.wait_idle();
        Ok(())
    }
}

/// One connection's read loop. A `shutdown` verb flips the stop flag
/// and pokes the accept loop awake with a self-connect.
///
/// Socket robustness: reads tick every [`SOCKET_TICK`] so the idle
/// reaper can run (a connection that goes `idle_timeout_secs` without
/// *completing* a line — silent or drip-feeding — answers one
/// `idle_timeout` error and is closed), writes time out after
/// [`WRITE_TIMEOUT`] so a stalled peer cannot pin the thread, and
/// over-cap lines answer `bad_request` without unbounded buffering.
/// The `net.conn` fault site injects disconnects and delays here, one
/// op per served line.
fn serve_connection(core: &ServeCore, stream: TcpStream, stop: &AtomicBool, local: SocketAddr) {
    // One span covering the whole connection lifetime; every
    // per-line span below nests under it on this thread's lane.
    let _conn_span = qods_obs::span!(sites::NET_ACCEPT);
    core.connection_opened();
    let idle_timeout = match core.options().idle_timeout_secs {
        0 => None,
        secs => Some(Duration::from_secs(secs)),
    };
    if idle_timeout.is_some() {
        let _ = stream.set_read_timeout(Some(SOCKET_TICK));
    }
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => {
            core.connection_closed();
            return;
        }
    };
    let half_close = stream.try_clone();
    let sink = StreamSink {
        writer: Mutex::new(stream),
    };
    let mut reader = CappedLineReader::new(reader, core.options().max_line_len);
    let mut conn = ConnState::default();
    #[expect(
        clippy::disallowed_methods,
        reason = "idle-timeout bookkeeping on the transport; results are produced upstream of this clock"
    )]
    let mut last_line_done = Instant::now();
    loop {
        // Speculative: a read that ends in an idle tick cancels its
        // span (recording every 1s poll would drown the trace).
        let read_span = qods_obs::span!(sites::NET_READ);
        let next = reader.next_line();
        if matches!(next, ReadLine::Idle) {
            read_span.cancel();
        } else {
            drop(read_span);
        }
        match next {
            #[expect(clippy::disallowed_methods, reason = "idle-timeout bookkeeping")]
            ReadLine::Line(line) => {
                if let Some(qods_fault::FaultAction::Disconnect) =
                    qods_fault::check_sleeping(qods_fault::site::NET_CONN)
                {
                    // Injected mid-request connection drop: the peer
                    // sees a reset, the server must shrug.
                    if let Ok(s) = &half_close {
                        let _ = s.shutdown(Shutdown::Both);
                    }
                    break;
                }
                if let LineOutcome::Shutdown = core.handle_line(&line, &mut conn, &sink) {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so it can run the drain.
                    let _ = TcpStream::connect(local);
                    break;
                }
                last_line_done = Instant::now();
            }
            #[expect(clippy::disallowed_methods, reason = "idle-timeout bookkeeping")]
            ReadLine::TooLong { discarded } => {
                last_line_done = Instant::now();
                core.reject_line(&sink, discarded);
            }
            ReadLine::Idle => {
                if let Some(timeout) = idle_timeout {
                    if last_line_done.elapsed() >= timeout {
                        core.idle_reaped.inc();
                        core.emit_error(
                            &sink,
                            ErrorKind::IdleTimeout,
                            None,
                            format!(
                                "connection idle for {}s without completing a line",
                                timeout.as_secs()
                            ),
                        );
                        if let Ok(s) = &half_close {
                            let _ = s.shutdown(Shutdown::Both);
                        }
                        break;
                    }
                }
            }
            ReadLine::Eof | ReadLine::Failed => break,
        }
    }
    core.connection_closed();
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use qods_core::study::StudyConfig;

    /// Runs `input` through a [`CappedLineReader`] with `cap` and
    /// collects every outcome until EOF.
    fn read_all(input: &[u8], cap: usize) -> Vec<ReadLine> {
        let mut reader = CappedLineReader::new(std::io::Cursor::new(input.to_vec()), cap);
        let mut out = Vec::new();
        loop {
            let next = reader.next_line();
            let eof = matches!(next, ReadLine::Eof);
            out.push(next);
            if eof {
                return out;
            }
        }
    }

    #[test]
    fn capped_reader_passes_lines_under_the_cap() {
        let out = read_all(b"alpha\nbeta\r\n", 64);
        assert!(matches!(&out[0], ReadLine::Line(l) if l == "alpha"));
        assert!(
            matches!(&out[1], ReadLine::Line(l) if l == "beta"),
            "CR stripped"
        );
        assert!(matches!(out[2], ReadLine::Eof));
    }

    #[test]
    fn capped_reader_rejects_an_oversize_line_and_recovers() {
        let input = format!("{}\nshort\n", "x".repeat(100));
        let out = read_all(input.as_bytes(), 16);
        assert!(
            matches!(out[0], ReadLine::TooLong { discarded } if discarded >= 100),
            "{:?}",
            out[0]
        );
        assert!(
            matches!(&out[1], ReadLine::Line(l) if l == "short"),
            "the stream recovers after the rejected line"
        );
    }

    #[test]
    fn capped_reader_discards_across_buffer_refills() {
        // An oversize line much larger than BufReader's chunking still
        // counts every discarded byte and consumes through its
        // newline.
        let input = format!("{}\nok\n", "y".repeat(500_000));
        let out = read_all(input.as_bytes(), 1024);
        assert!(matches!(out[0], ReadLine::TooLong { discarded } if discarded >= 500_000));
        assert!(matches!(&out[1], ReadLine::Line(l) if l == "ok"));
    }

    #[test]
    fn capped_reader_caps_content_bytes_not_the_terminator() {
        // At cap N, N content bytes pass under every terminator and
        // N + 1 fail, including when `\r` and `\n` arrive in
        // different reads (a one-byte buffer splits every line).
        for capacity in [64, 1] {
            let read = |input: &[u8]| {
                let inner = std::io::BufReader::with_capacity(capacity, input);
                let mut reader = CappedLineReader::new(inner, 4);
                reader.next_line()
            };
            for ok in [&b"abcd\n"[..], b"abcd\r\n", b"abcd"] {
                assert!(
                    matches!(read(ok), ReadLine::Line(l) if l == "abcd"),
                    "{ok:?} at capacity {capacity}"
                );
            }
            for long in [&b"abcde\n"[..], b"abcde\r\n", b"abcde"] {
                assert!(
                    matches!(read(long), ReadLine::TooLong { discarded } if discarded == long.len()),
                    "{long:?} at capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn capped_reader_serves_an_unterminated_final_line() {
        let out = read_all(b"no newline at end", 64);
        assert!(matches!(&out[0], ReadLine::Line(l) if l == "no newline at end"));
        assert!(matches!(out[1], ReadLine::Eof));
    }

    #[test]
    fn capped_reader_rejects_an_unterminated_oversize_tail() {
        let input = "z".repeat(50);
        let out = read_all(input.as_bytes(), 16);
        assert!(matches!(out[0], ReadLine::TooLong { discarded } if discarded == 50));
        assert!(matches!(out[1], ReadLine::Eof));
    }

    struct VecSink(Mutex<Vec<String>>);

    impl VecSink {
        fn new() -> Self {
            VecSink(Mutex::new(Vec::new()))
        }
        fn lines(&self) -> Vec<String> {
            self.0.lock().expect("sink").clone()
        }
    }

    impl LineSink for VecSink {
        fn emit(&self, line: &str) {
            self.0.lock().expect("sink").push(line.to_string());
        }
    }

    fn quick_core(options: ServeOptions) -> ServeCore {
        let scheduler = Scheduler::with_options(StudyConfig::smoke(), 1, true);
        ServeCore::new(scheduler, options)
    }

    #[test]
    fn verbs_answer_without_touching_admission() {
        // A gate nobody can pass: verbs must still answer.
        let core = quick_core(ServeOptions {
            max_inflight: 1,
            max_queue: 0,
            ..ServeOptions::default()
        });
        let sink = VecSink::new();
        let mut conn = ConnState::default();
        assert_eq!(
            core.handle_line("{\"verb\":\"ping\"}", &mut conn, &sink),
            LineOutcome::Continue
        );
        assert_eq!(
            core.handle_line("{\"verb\":\"metrics\"}", &mut conn, &sink),
            LineOutcome::Continue
        );
        let lines = sink.lines();
        assert_eq!(lines[0], "{\"event\":\"pong\"}");
        assert!(lines[1].contains("\"event\":\"metrics\""));
        assert!(lines[1].contains("\"gate.waiting\":0"));
    }

    #[test]
    fn job_lines_after_drain_answer_shutting_down() {
        let core = quick_core(ServeOptions::default());
        core.begin_drain();
        let sink = VecSink::new();
        let mut conn = ConnState::default();
        core.handle_line(
            "{\"id\":\"late\",\"experiments\":[\"fig6\"]}",
            &mut conn,
            &sink,
        );
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains(&ErrorKind::ShuttingDown.fragment()),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"id\":\"late\""));
    }

    #[test]
    fn per_connection_budget_is_a_typed_error() {
        let core = quick_core(ServeOptions {
            max_requests_per_conn: 1,
            ..ServeOptions::default()
        });
        let sink = VecSink::new();
        let mut conn = ConnState::default();
        let line = "{\"id\":\"a\",\"experiments\":[\"table9\"],\"overrides\":{\"n_bits\":8}}";
        core.handle_line(line, &mut conn, &sink);
        core.handle_line(line, &mut conn, &sink);
        // Verbs are free: the budget only meters job lines.
        core.handle_line("{\"verb\":\"ping\"}", &mut conn, &sink);
        let lines = sink.lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"result\""));
        assert!(
            lines[1].contains(&ErrorKind::ConnectionLimit.fragment()),
            "{}",
            lines[1]
        );
        assert_eq!(lines[2], "{\"event\":\"pong\"}");
        // A fresh connection has a fresh budget.
        let mut conn2 = ConnState::default();
        core.handle_line(line, &mut conn2, &sink);
        assert!(sink.lines()[3].contains("\"event\":\"result\""));
    }

    #[test]
    fn stats_line_is_a_projection_of_the_metrics_snapshot() {
        let core = quick_core(ServeOptions {
            max_inflight: 1,
            max_queue: 2,
            ..ServeOptions::default()
        });
        let sink = VecSink::new();
        let mut conn = ConnState::default();
        let line = "{\"experiments\":[\"table9\"],\"overrides\":{\"n_bits\":8}}";
        core.handle_line(line, &mut conn, &sink);
        core.handle_line(line, &mut conn, &sink);
        core.handle_line("{\"experiments\":[\"bogus\"]}", &mut conn, &sink);
        let stats = core.stats_line();
        assert_eq!(stats.requests, 3, "rejections pass admission too");
        assert_eq!(stats.results, 2);
        assert_eq!(stats.errors, 1);
        // The rejection failed key resolution before leading a run.
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.latency.count, 3);
        assert!(stats.latency.p50_us > 0.0);
        // The repeat was served from cache.
        assert_eq!(stats.output_hits, 1);

        // A bad line, an over-cap line, four connections with one
        // closed, and — with the one slot held — two queued jobs and
        // a shed one.
        core.handle_line("not json", &mut conn, &sink);
        core.reject_line(&sink, 9);
        for _ in 0..4 {
            core.connection_opened();
        }
        core.connection_closed();
        let slot = core.gate.admit().expect("the one slot is free");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| core.handle_line(line, &mut ConnState::default(), &sink));
            }
            while core.gate.waiting() < 2 {
                std::thread::yield_now();
            }
            core.handle_line(line, &mut conn, &sink);
            let shed = sink.lines().pop().expect("the shed job answered");
            assert!(shed.contains(&ErrorKind::Overloaded.fragment()), "{shed}");

            // Give every counter a distinct value, so a field read from
            // the wrong site cannot match by accident.
            let counters = [
                sites::NET_CONNECTIONS_TOTAL,
                sites::NET_REQUESTS,
                sites::NET_RESULTS,
                sites::NET_ERRORS,
                sites::NET_OVERLOADED,
                sites::SVC_EXECUTED,
                sites::SVC_COALESCED,
                sites::CACHE_CONTEXT_HITS,
                sites::CACHE_CONTEXT_MISSES,
                sites::CACHE_OUTPUT_HITS,
                sites::CACHE_OUTPUT_MISSES,
                sites::SVC_PANICS_CAUGHT,
                sites::SVC_DEADLINE_EXCEEDED,
                sites::NET_LINES_REJECTED,
                sites::NET_IDLE_REAPED,
            ];
            for (i, site) in counters.into_iter().enumerate() {
                core.metrics.counter(site).add(100 * (i as u64 + 1));
            }

            let stats = core.stats_line();
            let snap = core.metrics_snapshot();
            let at = |site: Site| {
                let name = site.name();
                let gauge = || snap.gauges.get(name).map(|&v| v as u64);
                snap.counters.get(name).copied().or_else(gauge)
            };
            let fields = [
                (stats.connections, sites::NET_CONNECTIONS),
                (stats.connections_total, sites::NET_CONNECTIONS_TOTAL),
                (stats.requests, sites::NET_REQUESTS),
                (stats.results, sites::NET_RESULTS),
                (stats.errors, sites::NET_ERRORS),
                (stats.overloaded, sites::NET_OVERLOADED),
                (stats.executed, sites::SVC_EXECUTED),
                (stats.coalesced, sites::SVC_COALESCED),
                (stats.in_flight, sites::GATE_ACTIVE),
                (stats.queue_depth, sites::GATE_WAITING),
                (stats.context_hits, sites::CACHE_CONTEXT_HITS),
                (stats.context_misses, sites::CACHE_CONTEXT_MISSES),
                (stats.output_hits, sites::CACHE_OUTPUT_HITS),
                (stats.output_misses, sites::CACHE_OUTPUT_MISSES),
                (stats.panics_caught, sites::SVC_PANICS_CAUGHT),
                (stats.deadline_exceeded, sites::SVC_DEADLINE_EXCEEDED),
                (stats.lines_rejected, sites::NET_LINES_REJECTED),
                (stats.idle_reaped, sites::NET_IDLE_REAPED),
            ];
            for (field, site) in fields {
                assert_eq!(
                    Some(field),
                    at(site),
                    "the field read from `{}`",
                    site.name()
                );
            }
            assert_eq!(stats.latency, snap.latency[sites::NET_LATENCY.name()]);
            let mut values: Vec<u64> = fields.iter().filter_map(|&(_, site)| at(site)).collect();
            values.sort_unstable();
            values.dedup();
            assert_eq!(values.len(), fields.len(), "site values must be distinct");
            assert!(values[0] > 0, "site values must be nonzero");

            // The gauges the batch set: one slot held, two queued,
            // three connections open.
            assert_eq!(
                (stats.in_flight, stats.queue_depth, stats.connections),
                (1, 2, 3)
            );
            drop(slot);
        });
    }
}
