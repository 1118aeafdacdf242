//! Chaos suite: the real `qods-serve` binary under deterministic
//! fault injection (`QODS_FAULT_PLAN`, see `qods-fault`). The serving
//! contract under fire: the daemon never crashes, every failed
//! request answers a *typed* error line, surviving coalesced jobs
//! execute exactly once, and shutdown still drains and exits 0.
//!
//! The storm test alone injects >100 faults (a scatter of delays over
//! the Monte-Carlo chunk site plus a worker panic); the other tests
//! add disconnects, deadline expiries, and oversize-line floods.

use qods_fault::{site, FaultAction, FaultPlan};
use qods_net::protocol::ErrorKind;
use qods_net::Client;
use qods_obs::sites;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// Runs the stdio daemon with a fault plan armed, feeding `input` and
/// returning (stdout lines, exit success).
fn run_stdio_chaos(plan: &FaultPlan, extra_args: &[&str], input: &str) -> (Vec<String>, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qods-serve"))
        .args(["--base", "quick", "--threads", "2", "--artifacts", ""])
        .args(extra_args)
        .env(qods_fault::FAULT_PLAN_ENV, plan.render())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qods-serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("daemon exits");
    let lines = String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect();
    (lines, out.status.success())
}

/// Spawns `qods-serve --listen 127.0.0.1:0` with a fault plan armed
/// and parses the resolved address from its stderr.
fn spawn_tcp_chaos(plan: &FaultPlan, extra_args: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qods-serve"))
        .args([
            "--base",
            "quick",
            "--threads",
            "2",
            "--artifacts",
            "",
            "--listen",
            "127.0.0.1:0",
        ])
        .args(extra_args)
        .env(qods_fault::FAULT_PLAN_ENV, plan.render())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qods-serve --listen");
    let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut addr = None;
    for line in stderr.lines() {
        let line = line.expect("stderr line");
        if let Some(rest) = line.strip_prefix("qods-serve: listening on ") {
            addr = Some(rest.trim().parse().expect("socket address"));
            break;
        }
    }
    (child, addr.expect("daemon printed its listening address"))
}

/// One fig4 Monte-Carlo job line: 20480 trials = 20 chunks per
/// strategy, 80 `mc.chunk` operations per job — the fault surface the
/// storm scatters over. The seed varies per job so nothing coalesces
/// or caches across jobs.
fn mc_job_line(id: &str, seed: u64) -> String {
    format!(
        "{{\"id\":\"{id}\",\"experiments\":[\"fig4\"],\
         \"overrides\":{{\"mc_trials\":20480,\"seed\":{seed}}}}}"
    )
}

#[test]
fn a_fault_storm_answers_every_request_typed_and_exits_zero() {
    // >100 injected faults: 120 one-shot delays scattered over the
    // first 500 Monte-Carlo chunk operations (the healthy jobs below
    // perform ~640, so every one fires), plus a worker panic that
    // kills the first job outright.
    let plan = FaultPlan::new()
        .once(site::POOL_WORKER, 1, FaultAction::Panic)
        .scatter(site::MC_CHUNK, FaultAction::Delay(1), 42, 120, 500);
    assert!(plan.len() >= 100, "the storm must schedule >=100 faults");

    let mut input = String::new();
    input.push_str(&mc_job_line("doomed", 1));
    input.push('\n');
    for j in 0..8 {
        input.push_str(&mc_job_line(&format!("h{j}"), 100 + j));
        input.push('\n');
    }
    input.push_str("{\"verb\":\"metrics\"}\n");

    let (lines, ok) = run_stdio_chaos(&plan, &[], &input);
    assert!(ok, "the daemon must drain and exit 0 under the storm");
    assert_eq!(lines.len(), 10, "one answer per line: {lines:#?}");

    // The panicked job is a typed internal_error; every other job
    // line is a clean result (delays perturb timing, never output).
    assert!(
        lines[0].contains("\"event\":\"error\"")
            && lines[0].contains(&ErrorKind::Internal.fragment())
            && lines[0].contains("\"id\":\"doomed\""),
        "{}",
        lines[0]
    );
    for (j, line) in lines[1..9].iter().enumerate() {
        assert!(
            line.contains("\"event\":\"result\"") && line.contains(&format!("\"id\":\"h{j}\"")),
            "job h{j} must survive the delay storm: {line}"
        );
    }
    let metrics = &lines[9];
    assert!(metrics.contains("\"event\":\"metrics\""), "{metrics}");
    assert!(
        metrics.contains("\"svc.panics_caught\":1"),
        "the caught panic must be counted: {metrics}"
    );
    assert!(
        metrics.contains("\"net.results\":8") && metrics.contains("\"net.errors\":1"),
        "{metrics}"
    );
}

#[test]
fn expired_deadlines_answer_typed_errors_without_killing_the_daemon() {
    // No injected faults here — the chaos is a server-wide 1 ms
    // budget against a job that needs far more, plus an explicit
    // generous per-request budget proving the override direction.
    let heavy = "{\"id\":\"heavy\",\"experiments\":[\"fig4\"],\
                 \"overrides\":{\"mc_trials\":5000000}}";
    let light = "{\"id\":\"light\",\"experiments\":[\"table9\"],\
                 \"overrides\":{\"n_bits\":8,\"sweep_points\":5},\
                 \"deadline_ms\":600000}";
    let input = format!("{heavy}\n{light}\n{{\"verb\":\"metrics\"}}\n");
    let (lines, ok) = run_stdio_chaos(&FaultPlan::new(), &["--default-deadline", "1"], &input);
    assert!(ok, "deadline expiry must not kill the daemon");
    assert_eq!(lines.len(), 3, "{lines:#?}");
    assert!(
        lines[0].contains(&ErrorKind::DeadlineExceeded.fragment()) && lines[0].contains("deadline"),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"event\":\"result\"") && lines[1].contains("\"id\":\"light\""),
        "an explicit budget must beat the server default: {}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"svc.deadline_exceeded\":1"),
        "{}",
        lines[2]
    );
    assert!(lines[2].contains("\"svc.panics_caught\":0"), "{}", lines[2]);
}

#[test]
fn oversize_lines_answer_bad_request_and_the_stream_recovers() {
    let flood = "x".repeat(4096);
    let input =
        format!("{{\"big\":\"{flood}\"}}\n{{\"verb\":\"ping\"}}\n{{\"verb\":\"metrics\"}}\n");
    let (lines, ok) = run_stdio_chaos(&FaultPlan::new(), &["--max-line-len", "256"], &input);
    assert!(ok, "an oversize line must not kill the daemon");
    assert_eq!(lines.len(), 3, "{lines:#?}");
    assert!(
        lines[0].contains(&ErrorKind::BadRequest.fragment()) && lines[0].contains("byte cap"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"event\":\"pong\""), "{}", lines[1]);
    assert!(
        lines[2].contains("\"net.lines_rejected\":1"),
        "{}",
        lines[2]
    );
}

#[test]
fn coalesced_survivors_execute_exactly_once_under_injected_delays() {
    // The leader's first chunk stalls 300 ms, holding the job in
    // flight long enough that every concurrent duplicate coalesces
    // onto it instead of executing.
    const CLIENTS: usize = 4;
    let plan = FaultPlan::new().once(site::MC_CHUNK, 1, FaultAction::Delay(300));
    let (mut child, addr) = spawn_tcp_chaos(&plan, &[]);

    let job = mc_job_line("dup", 7);
    let barrier = std::sync::Barrier::new(CLIENTS);
    let answers: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (job, barrier) = (&job, &barrier);
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    client
                        .roundtrip(job)
                        .expect("roundtrip")
                        .expect("one answer")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for a in &answers {
        assert!(a.contains("\"event\":\"result\""), "{a}");
        assert_eq!(a, &answers[0], "coalesced answers must be byte-identical");
    }

    let mut probe = Client::connect(addr).expect("connect probe");
    let counters = probe.metrics().expect("metrics verb").metrics.counters;
    assert_eq!(
        counters[sites::SVC_EXECUTED.name()],
        1,
        "exactly one execution for {CLIENTS} duplicates"
    );
    assert_eq!(counters[sites::SVC_COALESCED.name()], (CLIENTS - 1) as u64);
    let ack = probe.shutdown().expect("shutdown acknowledged");
    assert!(ack.contains("\"event\":\"shutting_down\""), "{ack}");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "shutdown must exit 0, got {status:?}");
}

#[test]
fn injected_disconnects_are_survived_and_transparently_retried() {
    // The second served line drops the connection mid-request; the
    // retrying client reconnects and the third attempt answers.
    let plan = FaultPlan::new().once(site::NET_CONN, 2, FaultAction::Disconnect);
    let (mut child, addr) = spawn_tcp_chaos(&plan, &[]);

    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("line 1 serves normally");
    let answer = client
        .roundtrip_retrying("{\"verb\":\"ping\"}")
        .expect("retry path answers")
        .expect("an answer after reconnect");
    assert!(answer.contains("\"event\":\"pong\""), "{answer}");
    assert!(
        client.retries() >= 1,
        "the injected disconnect must have cost at least one retry"
    );

    let mut probe = Client::connect(addr).expect("connect probe");
    let ack = probe.shutdown().expect("shutdown acknowledged");
    assert!(ack.contains("\"event\":\"shutting_down\""), "{ack}");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "shutdown must exit 0, got {status:?}");
}
