//! The pieces every workload shares: a loopback server, the
//! closed-loop clients, the in-process oracle, and the check that a
//! response carries the oracle's records.

use qods_core::compile::hash::fnv1a;
use qods_core::study::StudyConfig;
use qods_net::protocol::{parse_line, render, result_line};
use qods_net::{Client, NetServer, Request, ServeCore, ServeOptions};
use qods_service::{JobResult, RunRequest, Scheduler};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Scheduler workers and client connections: the benchmark is sized
/// for two cores.
pub const WORKERS: usize = 2;
pub const CLIENTS: u64 = 2;

/// A request line as the program parses it.
pub fn request(line: &str) -> Result<RunRequest, String> {
    match parse_line(line)? {
        Request::Job(job) => Ok(*job),
        Request::Verb(verb) => Err(format!("expected a job line, got verb {verb:?}")),
    }
}

/// The `records` array of a job result, as wire bytes.
pub fn records_json(result: &JobResult) -> String {
    render(&result_line(None, result).records)
}

/// The `records` array of a `result` line, or `None` for any other
/// line. The fields before it carry no records, so the first
/// `,"records":` is the array's own.
pub fn records_of(line: &str) -> Option<&str> {
    const KEY: &str = ",\"records\":";
    if !line.starts_with("{\"event\":\"result\"") {
        return None;
    }
    let start = line.find(KEY)? + KEY.len();
    line.strip_suffix('}').and_then(|l| l.get(start..))
}

/// Hash of a `result` line's records, `None` for any other line.
pub fn records_hash(line: &str) -> Option<u64> {
    records_of(line).map(|r| fnv1a(r.as_bytes()))
}

/// The oracle: runs `line` sequentially, cache off, on one worker,
/// and returns its records bytes.
pub fn reference(base: &StudyConfig, line: &str) -> Result<String, String> {
    let r = request(line)?;
    pinned(1, || {
        Scheduler::with_options(base.clone(), 1, false).run(&r)
    })
    .map(|r| records_json(&r))
    .map_err(|e| format!("reference run failed: {e}"))
}

/// Runs `f` with every pool in the process pinned to `threads`
/// workers, then restores the previous pin.
pub fn pinned<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let previous = qods_pool::thread_override();
    qods_pool::set_thread_override(Some(threads));
    let out = f();
    qods_pool::set_thread_override(previous);
    out
}

/// A `qods-net` TCP server on a loopback port, served from a thread
/// of this process.
pub struct Server {
    core: Arc<ServeCore>,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    pub fn start(base: StudyConfig, caching: bool) -> Result<Server, String> {
        let scheduler = Scheduler::with_options(base, WORKERS, caching);
        let core = Arc::new(ServeCore::new(scheduler, ServeOptions::default()));
        let net = NetServer::bind(Arc::clone(&core), "127.0.0.1:0")
            .map_err(|e| format!("bind failed: {e}"))?;
        let addr = net.local_addr();
        let thread = std::thread::spawn(move || net.serve());
        Ok(Server { core, addr, thread })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn core(&self) -> &ServeCore {
        &self.core
    }

    /// Sends `shutdown`, then waits for the drain and the server
    /// thread.
    pub fn stop(self) -> Result<(), String> {
        let ack = Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown failed: {e}"));
        let joined = self.thread.join();
        ack?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// What a measured loop saw.
#[derive(Debug, Default)]
pub struct Loop {
    /// Latency of every answered request, milliseconds.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Requests that errored, went unanswered, or answered wrong.
    pub failed: u64,
    pub retries: u64,
    /// Requests issued by the busiest connection; a following phase
    /// starts its indices past it.
    pub issued: u64,
    pub elapsed_s: f64,
}

impl Loop {
    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.elapsed_s
    }
}

/// Closed loop: [`CLIENTS`] connections, each sending its next request
/// only after the previous answer arrived, for `seconds`. `next(conn,
/// i)` is connection `conn`'s `i`-th request line, counting from
/// `first`; `accept(conn, i, answer)` judges the answer.
pub fn closed_loop<N, A>(addr: SocketAddr, seconds: f64, first: u64, next: N, accept: A) -> Loop
where
    N: Fn(u64, u64) -> String + Sync,
    A: Fn(u64, u64, &str) -> bool + Sync,
{
    let start = Instant::now();
    let per_conn: Vec<Loop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|conn| {
                let (next, accept) = (&next, &accept);
                scope.spawn(move || {
                    let mut seen = Loop::default();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("perfbench: connection {conn} failed: {e}");
                            seen.attempted = 1;
                            seen.failed = 1;
                            return seen;
                        }
                    };
                    let mut i = first;
                    while start.elapsed().as_secs_f64() < seconds {
                        let line = next(conn, i);
                        let t = Instant::now();
                        let answer = client.roundtrip_retrying(&line);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        seen.attempted += 1;
                        match answer {
                            Ok(Some(answer)) => {
                                seen.latencies_ms.push(ms);
                                if !accept(conn, i, &answer) {
                                    seen.failed += 1;
                                }
                            }
                            _ => seen.failed += 1,
                        }
                        i += 1;
                    }
                    seen.retries = client.retries();
                    seen.issued = i - first;
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut all = Loop {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Loop::default()
    };
    for seen in per_conn {
        all.latencies_ms.extend(seen.latencies_ms);
        all.attempted += seen.attempted;
        all.failed += seen.failed;
        all.retries += seen.retries;
        all.issued = all.issued.max(seen.issued);
    }
    all
}

/// Peak resident memory of this process, MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in process status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_come_from_result_lines_only() {
        let line = "{\"event\":\"result\",\"id\":\"x\",\"config\":\"ab\",\"context_hit\":true,\
                    \"output_hits\":1,\"computed\":0,\"records\":[{\"id\":\"records\"}]}";
        assert_eq!(records_of(line), Some("[{\"id\":\"records\"}]"));
        let error = "{\"event\":\"error\",\"id\":null,\"kind\":\"overloaded\",\"error\":\"x\"}";
        assert_eq!(records_of(error), None);
        assert_eq!(records_hash(error), None);
    }
}
