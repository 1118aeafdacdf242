//! The three workloads. Each sets up (oracle, server, warm-up), runs
//! its closed loop for the measured seconds, and checks every answer
//! against the oracle. The traced run repeats the loop with tracing
//! on and adds the per-layer probes.

use crate::layers::{self, NetProbe, Traffic};
use crate::serve::{self, Loop, Server, WORKERS};
use crate::stats::{beyond, median, percentile, supports};
use crate::{gen, Metric, Report};
use qods_core::study::StudyConfig;
use qods_net::Client;
use qods_service::Scheduler;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests of the traced phase replayed in-process by the net probe.
const REPLAY: u64 = 32;
/// Cached paper jobs sent over TCP for the paper workload's net probe.
const PAPER_TCP_HITS: u64 = 32;
/// First-seen configurations the miss probe sends.
const SERVE_FRESH: u64 = 16;
const PAPER_FRESH: u64 = 3;
/// Repetitions of the compile and engine probes.
const SERVE_REPS: usize = 15;
const PAPER_REPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper,
    ServeHit,
    ServeFill,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper" => Some(Workload::Paper),
            "serve-hit" => Some(Workload::ServeHit),
            "serve-fill" => Some(Workload::ServeFill),
            _ => None,
        }
    }
}

/// The tail every workload reports. A paper run has too few jobs to
/// put ten samples beyond p99, and on the serving workloads p99 rests
/// on a dozen samples whose host-noise spread between runs reaches the
/// largest bound the benchmark may set.
const TAIL: f64 = 0.90;

pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    match (workload, trace) {
        (Workload::Paper, false) => paper(seed, seconds),
        (Workload::Paper, true) => paper_traced(seed, seconds),
        (w, false) => serve(w, seed, seconds),
        (w, true) => serve_traced(w, seed, seconds),
    }
}

/// Runs `setup` [`SETUPS`] times, keeping the last state; the others
/// are torn down by `discard`.
fn timed_setups<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut discard: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            discard(old)?;
        }
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    kept.map(|s| (s, times))
        .ok_or_else(|| "no set-up ran".to_string())
}

fn end_to_end(run: &Loop, setups: &[f64], rss_mb: f64) -> Result<Report, String> {
    let n = run.latencies_ms.len();
    if n == 0 {
        return Err("no request completed".to_string());
    }
    eprintln!(
        "perfbench: {n} samples; {} beyond latency_p90_ms",
        beyond(n, TAIL)
    );
    if !supports(n, TAIL) {
        eprintln!("perfbench: warning: too few samples to support p90");
    }
    Ok(Report {
        attempted: run.attempted,
        failed: run.failed,
        metrics: vec![
            Metric::new("throughput_rps", run.throughput(), "1/s"),
            Metric::new("latency_p50_ms", median(&run.latencies_ms), "ms"),
            Metric::new("latency_p90_ms", percentile(&run.latencies_ms, TAIL), "ms"),
            Metric::new("setup_s", median(setups), "s"),
            Metric::new("peak_rss_mb", rss_mb, "MB"),
        ],
    })
}

// ---------------------------------------------------------------- paper

struct Paper {
    line: String,
    expected: String,
    sched: Scheduler,
}

/// The oracle, the scheduler, and one warm-up job through it.
fn paper_setup(seed: u64) -> Result<Paper, String> {
    let line = gen::paper_line(seed);
    let expected = serve::reference(&StudyConfig::default(), &line)?;
    let sched = Scheduler::with_options(StudyConfig::default(), WORKERS, false);
    let warm = sched
        .run(&serve::request(&line)?)
        .map_err(|e| format!("warm-up job failed: {e}"))?;
    if serve::records_json(&warm) != expected {
        return Err("warm-up job differs from the oracle".to_string());
    }
    Ok(Paper {
        line,
        expected,
        sched,
    })
}

/// One caller, closed loop, in-process.
fn paper_loop(p: &Paper, seconds: f64) -> Result<Loop, String> {
    let job = serve::request(&p.line)?;
    let mut seen = Loop::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let outcome = p.sched.run_coalesced(&job);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        seen.attempted += 1;
        match outcome {
            Ok((result, _)) => {
                seen.latencies_ms.push(ms);
                if serve::records_json(&result) != p.expected {
                    seen.failed += 1;
                }
            }
            Err(_) => seen.failed += 1,
        }
    }
    seen.elapsed_s = start.elapsed().as_secs_f64();
    Ok(seen)
}

fn paper(seed: u64, seconds: f64) -> Result<Report, String> {
    let (p, setups) = timed_setups(|| paper_setup(seed), |_| Ok(()))?;
    let run = paper_loop(&p, seconds)?;
    end_to_end(&run, &setups, serve::peak_rss_mb()?)
}

fn paper_traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let p = paper_setup(seed)?;
    let before = Traffic::of(&p.sched);
    let plain = paper_loop(&p, seconds / 2.0)?;
    qods_obs::trace::enable();
    let traced = paper_loop(&p, seconds / 2.0)?;
    let mut metrics = trace_metrics(&plain, &traced);
    metrics.extend(before.since(&p.sched));

    // The paper job over TCP to a caching server that already holds its
    // result: what the transport adds to the paper response, without
    // the engines' noise. The first request fills the cache.
    let base = StudyConfig::default();
    let server = Server::start(base.clone(), true)?;
    let warm = [p.line.clone()];
    let lines: Vec<String> = (0..PAPER_TCP_HITS).map(|_| p.line.clone()).collect();
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut roundtrips = Vec::new();
    for line in warm.iter().chain(&lines) {
        let t = Instant::now();
        let answer = client
            .roundtrip(line)
            .map_err(|e| format!("paper job over TCP: {e}"))?;
        roundtrips.push(t.elapsed().as_secs_f64() * 1e6);
        if serve::records_of(answer.as_deref().unwrap_or("")) != Some(p.expected.as_str()) {
            return Err("paper job over TCP answered other records".to_string());
        }
    }
    drop(client);
    server.stop()?;
    let fresh: Vec<String> = (0..PAPER_FRESH)
        .map(|k| gen::paper_fresh(seed, k))
        .collect();
    metrics.extend(layers::net_and_service(&NetProbe {
        base: &base,
        warm: &warm,
        replay: &lines,
        roundtrip_us: median(&roundtrips[1..]),
        fresh: &fresh,
    })?);
    metrics.extend([
        Metric::new("net.retries", 0.0, "count"),
        Metric::new("net.overloaded", 0.0, "count"),
    ]);
    let compile = layers::compile_stages(&base, PAPER_REPS);
    let compile_ms = compile.iter().map(|m| m.value).sum();
    metrics.extend(compile);
    metrics.extend(layers::engines_and_pool(
        &base,
        &p.line,
        Some(median(&traced.latencies_ms)),
        compile_ms,
        PAPER_REPS,
    )?);
    Ok(traced_report(plain, traced, 0, metrics))
}

// -------------------------------------------------------------- serving

/// Everything a serving workload needs once set up.
struct Serving {
    workload: Workload,
    seed: u64,
    base: StudyConfig,
    server: Server,
    /// Lines the server has served before the measured phase.
    warm: Vec<String>,
    /// `serve-hit`: the oracle's records for each warmed pair.
    expected: Vec<String>,
}

fn serve_setup(workload: Workload, seed: u64) -> Result<Serving, String> {
    let base = StudyConfig::smoke();
    let warm = match workload {
        Workload::ServeHit => gen::hit_pairs(seed),
        _ => gen::fill_warmup(seed),
    };
    let expected = warm
        .iter()
        .map(|line| serve::reference(&base, line))
        .collect::<Result<Vec<_>, _>>()?;
    let server = Server::start(base.clone(), true)?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for (line, want) in warm.iter().zip(&expected) {
        let answer = client
            .roundtrip(line)
            .map_err(|e| format!("warm-up request: {e}"))?;
        if serve::records_of(answer.as_deref().unwrap_or("")) != Some(want.as_str()) {
            return Err(format!("warm-up answer differs from the oracle for {line}"));
        }
    }
    Ok(Serving {
        workload,
        seed,
        base,
        server,
        warm,
        expected,
    })
}

/// What `serve-fill` answers are checked against, after the loop: the
/// records hash each answer carried, by configuration.
type FillSeen = Mutex<Vec<(gen::FillKey, Option<u64>)>>;

/// Connection `conn`'s `i`-th request line.
fn serve_line(s: &Serving, conn: u64, i: u64) -> String {
    match s.workload {
        Workload::ServeHit => s.warm[gen::hit_choice(s.seed, conn, i)].clone(),
        _ => gen::fill_line(s.seed, conn, i),
    }
}

fn serve_loop(s: &Serving, seconds: f64, first: u64, fill: &FillSeen) -> Loop {
    serve::closed_loop(
        s.server.addr(),
        seconds,
        first,
        |conn, i| serve_line(s, conn, i),
        |conn, i, answer| match s.workload {
            Workload::ServeHit => {
                serve::records_of(answer)
                    == Some(s.expected[gen::hit_choice(s.seed, conn, i)].as_str())
            }
            _ => {
                let hash = serve::records_hash(answer);
                if let Ok(mut seen) = fill.lock() {
                    seen.push((gen::fill_key(conn, i), hash));
                }
                hash.is_some()
            }
        },
    )
}

/// Checks every `serve-fill` answer against the oracle, computed now
/// for each configuration the run named. Returns the mismatches.
fn fill_mismatches(seed: u64, base: &StudyConfig, fill: FillSeen) -> Result<u64, String> {
    let seen = fill
        .into_inner()
        .map_err(|_| "answer log poisoned".to_string())?;
    let keys: Vec<gen::FillKey> = seen
        .iter()
        .map(|(k, _)| *k)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let hashes = qods_pool::run_indexed(keys.len(), WORKERS, |i| {
        let (owner, k) = keys[i];
        let line = qods_net::protocol::render(&gen::fill_new(seed, owner, k));
        serve::reference(base, &line).map(|r| qods_core::compile::hash::fnv1a(r.as_bytes()))
    });
    let mut oracle = BTreeMap::new();
    for (key, hash) in keys.into_iter().zip(hashes) {
        oracle.insert(key, hash?);
    }
    Ok(seen
        .iter()
        .filter(|(key, hash)| *hash != oracle.get(key).copied())
        .count() as u64)
}

fn serve(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let (s, setups) = timed_setups(|| serve_setup(workload, seed), |old| old.server.stop())?;
    let fill = FillSeen::default();
    let mut run = serve_loop(&s, seconds, 0, &fill);
    let rss = serve::peak_rss_mb()?;
    s.server.stop()?;
    run.failed += fill_mismatches(seed, &s.base, fill)?;
    end_to_end(&run, &setups, rss)
}

fn serve_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let s = serve_setup(workload, seed)?;
    let fill = FillSeen::default();
    let plain = serve_loop(&s, seconds / 2.0, 0, &fill);
    let sched = s.server.core().scheduler();
    let before = Traffic::of(sched);
    let overloaded = s.server.core().stats_line().overloaded;
    // The traced phase continues the stream where the plain one ended,
    // on an even step so the new/repeat pattern holds.
    let first = plain.issued + plain.issued % 2;
    qods_obs::trace::enable();
    let traced = serve_loop(&s, seconds / 2.0, first, &fill);
    let mut metrics = trace_metrics(&plain, &traced);
    metrics.extend(before.since(sched));
    metrics.extend([
        Metric::new("net.retries", traced.retries as f64, "count"),
        Metric::new(
            "net.overloaded",
            s.server
                .core()
                .stats_line()
                .overloaded
                .saturating_sub(overloaded) as f64,
            "count",
        ),
    ]);
    let replay: Vec<String> = (first..first + REPLAY)
        .flat_map(|i| (0..serve::CLIENTS).map(move |conn| (conn, i)))
        .map(|(conn, i)| serve_line(&s, conn, i))
        .collect();
    let fresh: Vec<String> = (0..SERVE_FRESH)
        .map(|k| qods_net::protocol::render(&gen::fill_new(seed, gen::PROBE_OWNER, k)))
        .collect();
    metrics.extend(layers::net_and_service(&NetProbe {
        base: &s.base,
        warm: &s.warm,
        replay: &replay,
        roundtrip_us: median(&traced.latencies_ms) * 1e3,
        fresh: &fresh,
    })?);
    let compile = layers::compile_stages(&s.base, SERVE_REPS);
    let compile_ms = compile.iter().map(|m| m.value).sum();
    metrics.extend(compile);
    let full_job = qods_net::protocol::render(&qods_service::RunRequest::default());
    metrics.extend(layers::engines_and_pool(
        &s.base, &full_job, None, compile_ms, SERVE_REPS,
    )?);
    s.server.stop()?;
    let mismatches = fill_mismatches(seed, &s.base, fill)?;
    Ok(traced_report(plain, traced, mismatches, metrics))
}

// -------------------------------------------------------------- tracing

/// The traced phase's own end-to-end p50 (what the layers add up to)
/// and the cost of tracing against the untraced phase.
fn trace_metrics(plain: &Loop, traced: &Loop) -> Vec<Metric> {
    let p50 = |l: &Loop| {
        if l.latencies_ms.is_empty() {
            f64::NAN
        } else {
            median(&l.latencies_ms)
        }
    };
    vec![
        Metric::new("trace.latency_p50_ms", p50(traced), "ms"),
        Metric::new("trace.samples", traced.latencies_ms.len() as f64, "count"),
        Metric::new(
            "trace.overhead_pct",
            (p50(traced) / p50(plain) - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Stops tracing and closes the traced run's report; `mismatches` are
/// answers found wrong after the loops.
fn traced_report(plain: Loop, traced: Loop, mismatches: u64, mut metrics: Vec<Metric>) -> Report {
    qods_obs::trace::disable();
    let _ = qods_obs::trace::tracer().drain();
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed + mismatches;
    metrics.push(Metric::new(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    Report {
        attempted,
        failed,
        metrics,
    }
}
