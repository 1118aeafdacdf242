//! Integration tests of the TCP transport run in-process: a
//! [`NetServer`] on an ephemeral port, real [`Client`] connections,
//! and the serving contracts the ISSUE pins down — typed overload
//! shedding, coalescing across connections, mid-request disconnect
//! survival, and graceful drain on shutdown.
//!
//! Timing discipline: anything that must observe an *in-flight* job
//! first parks a `fig4` Monte-Carlo job — [`park_next_job`] arms a
//! fault plan that stalls its first trial chunk for [`HOLD_MS`] — and
//! then polls the `metrics` verb — which bypasses admission — until
//! `gate.active` reports it, so the assertions race a window of
//! seconds, not microseconds, however fast the engine gets.

use qods_core::study::StudyConfig;
use qods_fault::{site, FaultAction, FaultPlan};
use qods_net::protocol::ErrorKind;
use qods_net::{Client, NetServer, ServeCore, ServeOptions};
use qods_obs::{sites, MetricsSnapshot, Site};
use qods_service::Scheduler;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A fast job at smoke scale.
const QUICK_JOB: &str =
    "{\"id\":\"quick\",\"experiments\":[\"table9\"],\"overrides\":{\"n_bits\":8}}";

/// A Monte-Carlo job: `fig4`, which [`park_next_job`] holds in
/// flight.
const SLOW_JOB: &str =
    "{\"id\":\"slow\",\"experiments\":[\"fig4\"],\"overrides\":{\"mc_trials\":400000}}";

/// How long the parked job's first Monte-Carlo chunk stalls.
const HOLD_MS: u64 = 2_000;

/// Serializes the tests that park a job: the fault plan is
/// process-wide, so one test's plan must not stall another's chunks.
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// Holds [`ARM_LOCK`] with the parking plan armed; disarms on drop.
struct Parked {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Parked {
    fn drop(&mut self) {
        qods_fault::disarm();
    }
}

/// Arms a plan under which the next Monte-Carlo chunk anywhere in the
/// process — the parked job's first — sleeps [`HOLD_MS`], so that job
/// holds its execution slot for at least that long by construction.
fn park_next_job() -> Parked {
    let lock = ARM_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    qods_fault::arm(FaultPlan::new().once(site::MC_CHUNK, 1, FaultAction::Delay(HOLD_MS)));
    Parked { _lock: lock }
}

fn start_server(caching: bool, options: ServeOptions) -> (SocketAddr, JoinHandle<()>) {
    let scheduler = Scheduler::with_options(StudyConfig::smoke(), 2, caching);
    let core = Arc::new(ServeCore::new(scheduler, options));
    let server = NetServer::bind(core, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.serve().expect("serve returns cleanly"));
    (addr, handle)
}

/// The counter at `site` in a `metrics` snapshot.
fn counter(m: &MetricsSnapshot, site: Site) -> u64 {
    m.counters[site.name()]
}

/// The gauge at `site` in a `metrics` snapshot.
fn gauge(m: &MetricsSnapshot, site: Site) -> i64 {
    m.gauges[site.name()]
}

/// Jobs holding an admission slot right now.
fn active(m: &MetricsSnapshot) -> i64 {
    gauge(m, sites::GATE_ACTIVE)
}

/// Polls the `metrics` verb on a dedicated connection until `pred`
/// holds (or panics after `secs` seconds).
#[expect(clippy::disallowed_methods, reason = "a test's polling deadline")]
fn await_metrics(
    addr: SocketAddr,
    secs: u64,
    pred: impl Fn(&MetricsSnapshot) -> bool,
) -> MetricsSnapshot {
    let mut probe = Client::connect(addr).expect("connect probe");
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let metrics = probe.metrics().expect("metrics verb answers").metrics;
        if pred(&metrics) {
            return metrics;
        }
        assert!(
            Instant::now() < deadline,
            "metrics condition not reached in {secs}s: {metrics:?}"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn verbs_answer_and_shutdown_drains_cleanly() {
    let (addr, server) = start_server(true, ServeOptions::default());
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("pong");

    let result = client
        .roundtrip(QUICK_JOB)
        .expect("roundtrip")
        .expect("one result line");
    assert!(result.contains("\"event\":\"result\""), "{result}");

    let m = client.metrics().expect("metrics").metrics;
    assert_eq!(counter(&m, sites::NET_RESULTS), 1);
    assert_eq!(counter(&m, sites::SVC_EXECUTED), 1);
    assert_eq!(gauge(&m, sites::NET_CONNECTIONS), 1);
    assert_eq!(counter(&m, sites::NET_CONNECTIONS_TOTAL), 1);
    let latency = &m.latency[sites::NET_LATENCY.name()];
    assert_eq!(latency.count, 1);
    assert!(latency.p99_us >= latency.p50_us);

    let ack = client.shutdown().expect("ack");
    assert!(ack.contains("\"event\":\"shutting_down\""), "{ack}");
    server.join().expect("server thread exits");
    // The drained server closed the connection.
    assert_eq!(client.recv_line().expect("read"), None);
}

#[test]
fn overload_burst_answers_typed_errors_and_the_server_survives() {
    // One execution slot, no wait queue: any second concurrent job
    // must shed.
    let (addr, server) = start_server(
        true,
        ServeOptions {
            max_inflight: 1,
            max_queue: 0,
            ..ServeOptions::default()
        },
    );

    let _parked = park_next_job();
    let mut slow = Client::connect(addr).expect("connect slow");
    slow.send_line(SLOW_JOB).expect("send slow job");
    await_metrics(addr, 60, |m| active(m) == 1);

    // The slot is held for `HOLD_MS`; these refusals race nothing.
    let mut burst = Client::connect(addr).expect("connect burst");
    for i in 0..3 {
        let line = burst
            .roundtrip("{\"id\":\"shed\",\"experiments\":[\"table9\"]}")
            .expect("roundtrip")
            .expect("typed refusal");
        assert!(
            line.contains(&ErrorKind::Overloaded.fragment()),
            "burst {i} got {line}"
        );
        assert!(line.contains("\"id\":\"shed\""), "{line}");
    }
    let m = await_metrics(addr, 5, |m| counter(m, sites::NET_OVERLOADED) >= 3);
    assert_eq!(
        counter(&m, sites::NET_ERRORS),
        counter(&m, sites::NET_OVERLOADED)
    );

    // The parked job still completes: shedding never kills work.
    let result = slow.recv_line().expect("read").expect("slow job answers");
    assert!(result.contains("\"event\":\"result\""), "{result}");
    assert!(result.contains("\"id\":\"slow\""), "{result}");

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("ack");
    server.join().expect("server thread exits");
}

#[test]
fn concurrent_duplicates_coalesce_onto_one_execution() {
    // Caching OFF: any duplicate that is *not* coalesced would
    // re-execute, so the counters below prove single-flight, not the
    // cache.
    let (addr, server) = start_server(false, ServeOptions::default());

    let _parked = park_next_job();
    let mut leader = Client::connect(addr).expect("connect leader");
    leader.send_line(SLOW_JOB).expect("send leader job");
    await_metrics(addr, 60, |m| active(m) == 1);

    // Joined while the leader is verifiably in flight: these must
    // coalesce, not execute.
    let followers: Vec<JoinHandle<String>> = (0..3)
        .map(|i| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect follower");
                let line = format!(
                    "{{\"id\":\"f{i}\",\"experiments\":[\"fig4\"],\"overrides\":{{\"mc_trials\":400000}}}}"
                );
                c.roundtrip(&line).expect("roundtrip").expect("result line")
            })
        })
        .collect();
    await_metrics(addr, 60, |m| {
        counter(m, sites::SVC_COALESCED) >= 3 || counter(m, sites::SVC_EXECUTED) > 1
    });

    let leader_line = leader.recv_line().expect("read").expect("leader answers");
    let follower_lines: Vec<String> = followers
        .into_iter()
        .map(|h| h.join().expect("follower thread"))
        .collect();

    let m = await_metrics(addr, 5, |m| counter(m, sites::NET_RESULTS) >= 4);
    assert_eq!(
        counter(&m, sites::SVC_EXECUTED),
        1,
        "duplicates must execute exactly once"
    );
    assert_eq!(counter(&m, sites::SVC_COALESCED), 3);

    // Identical payloads, each echoing its own correlation id.
    let payload = |line: &str| {
        line.split("\"config\":")
            .nth(1)
            .expect("config")
            .to_string()
    };
    assert!(leader_line.contains("\"id\":\"slow\""));
    for (i, line) in follower_lines.iter().enumerate() {
        assert!(line.contains(&format!("\"id\":\"f{i}\"")), "{line}");
        assert_eq!(
            payload(line),
            payload(&leader_line),
            "coalesced responses must carry the leader's bytes"
        );
    }

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("ack");
    server.join().expect("server thread exits");
}

#[test]
fn mid_request_disconnects_do_not_kill_the_server_or_the_job() {
    let (addr, server) = start_server(false, ServeOptions::default());

    // Park a job, then slam the connection shut while it runs.
    let _parked = park_next_job();
    {
        let mut doomed = Client::connect(addr).expect("connect");
        doomed.send_line(SLOW_JOB).expect("send");
        await_metrics(addr, 60, |m| active(m) == 1);
    } // drop = disconnect, result line has nowhere to go

    // The orphaned job still runs to completion (a coalesced follower
    // may depend on it), and the server keeps serving. The probe
    // itself is one connection; the dead one must be reaped.
    let m = await_metrics(addr, 60, |m| {
        active(m) == 0 && gauge(m, sites::NET_CONNECTIONS) == 1
    });
    assert_eq!(counter(&m, sites::SVC_EXECUTED), 1);

    let mut client = Client::connect(addr).expect("connect survivor");
    let result = client
        .roundtrip(QUICK_JOB)
        .expect("roundtrip")
        .expect("result line");
    assert!(result.contains("\"event\":\"result\""), "{result}");

    client.shutdown().expect("ack");
    server.join().expect("server thread exits");
}

#[test]
fn shutdown_drains_the_in_flight_job_before_exiting() {
    let (addr, server) = start_server(true, ServeOptions::default());

    let _parked = park_next_job();
    let mut worker = Client::connect(addr).expect("connect worker");
    worker.send_line(SLOW_JOB).expect("send");
    await_metrics(addr, 60, |m| active(m) == 1);

    // Shut down from a second connection while the job is running.
    let mut admin = Client::connect(addr).expect("connect admin");
    let ack = admin.shutdown().expect("ack");
    assert!(ack.contains("\"event\":\"shutting_down\""), "{ack}");

    // Drain contract: the in-flight job answers before the server
    // exits — then the connection closes.
    let result = worker.recv_line().expect("read").expect("drained result");
    assert!(result.contains("\"event\":\"result\""), "{result}");
    assert!(result.contains("\"id\":\"slow\""), "{result}");
    assert_eq!(worker.recv_line().expect("read"), None);

    server.join().expect("server thread exits");

    // Late jobs (raced against the drain) would have answered
    // `shutting_down`; late *connections* are simply refused.
    assert!(Client::connect(addr).is_err(), "listener is gone");
}

#[test]
fn a_finished_connection_is_closed_by_the_server() {
    let (addr, server) = start_server(true, ServeOptions::default());
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    conn.write_all(b"{\"verb\":\"ping\"}\n").expect("send ping");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(conn);
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("read pong");
    assert_eq!(pong, "{\"event\":\"pong\"}\n");
    // Then EOF: the server closed its side once the connection's
    // thread saw the half-close. A socket the server kept open would
    // leave this read waiting out the timeout.
    let read = reader.read(&mut [0u8; 64]);
    assert!(matches!(read, Ok(0)), "no EOF from the server: {read:?}");

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("ack");
    server.join().expect("server thread exits");
}
