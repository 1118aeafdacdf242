//! End-to-end transport byte-identity for the `qods-serve` daemon:
//! pipes a 3-request batch (one repeat, to exercise the cache)
//! through the real binary on **both transports** and asserts the
//! served outputs are byte-identical to each other and to direct
//! `Experiment::run` calls under the same resolved configuration —
//! the CI service-smoke contract.

use qods_core::compile::ArtifactStore;
use qods_core::experiment::StudyContext;
use qods_core::registry::Registry;
use qods_core::study::StudyConfig;
use qods_net::Client;
use qods_service::Overrides;
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// The overrides all three requests share, as the daemon will parse
/// them.
fn batch_overrides() -> Overrides {
    Overrides {
        n_bits: Some(8),
        synth_max_t: Some(8),
        sweep_points: Some(5),
        profile_samples: Some(32),
        ..Overrides::default()
    }
}

const OVERRIDES_JSON: &str =
    "{\"n_bits\":8,\"synth_max_t\":8,\"sweep_points\":5,\"profile_samples\":32}";

fn run_daemon(input: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qods-serve"))
        .args(["--base", "quick", "--threads", "2", "--artifacts", ""])
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
    assert!(out.status.success(), "qods-serve failed: {out:?}");
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Spawns `qods-serve --listen 127.0.0.1:0` and parses the resolved
/// address from its `listening on` stderr line.
fn spawn_tcp_daemon(extra_args: &[&str]) -> (Child, SocketAddr) {
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

#[test]
fn tcp_transport_serves_the_same_bytes_as_stdio() {
    let r1 = format!(
        "{{\"id\":\"r1\",\"experiments\":[\"table2\",\"table9\"],\"overrides\":{OVERRIDES_JSON}}}"
    );
    let r2 = format!("{{\"id\":\"r2\",\"experiments\":[\"fig7\"],\"overrides\":{OVERRIDES_JSON}}}");
    let batch = [r1.as_str(), r2.as_str(), r1.as_str()];

    let stdio_lines = run_daemon(&format!("{}\n{}\n{}\n", batch[0], batch[1], batch[2]));

    let (mut child, addr) = spawn_tcp_daemon(&[]);
    let mut client = Client::connect(addr).expect("connect");
    let tcp_lines: Vec<String> = batch
        .iter()
        .map(|line| {
            client
                .roundtrip(line)
                .expect("roundtrip")
                .expect("one response line per request")
        })
        .collect();

    assert_eq!(
        stdio_lines, tcp_lines,
        "the two transports must serve byte-identical response lines"
    );

    // Graceful shutdown: acknowledged, then the process exits 0.
    let ack = client.shutdown().expect("shutdown acknowledged");
    assert!(ack.contains("\"event\":\"shutting_down\""), "{ack}");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "shutdown must exit 0, got {status:?}");
}

#[test]
fn served_outputs_are_byte_identical_to_direct_experiment_runs() {
    let r1 = format!(
        "{{\"id\":\"r1\",\"experiments\":[\"table2\",\"table9\"],\"overrides\":{OVERRIDES_JSON}}}"
    );
    let r2 = format!("{{\"id\":\"r2\",\"experiments\":[\"fig7\"],\"overrides\":{OVERRIDES_JSON}}}");
    let lines = run_daemon(&format!("{r1}\n{r2}\n{r1}\n"));
    assert_eq!(lines.len(), 3, "one result line per request: {lines:?}");

    let parsed: Vec<Value> = lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("result line parses"))
        .collect();
    for (i, v) in parsed.iter().enumerate() {
        assert_eq!(
            v.get("event").and_then(|e| match e {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("result"),
            "line {i} is not a result: {}",
            lines[i]
        );
    }

    // The repeat (line 3) is served from cache, byte-identically.
    let records_json = |v: &Value| {
        serde_json::to_string(v.get("records").expect("records field")).expect("render")
    };
    assert_eq!(parsed[2].get("context_hit"), Some(&Value::Bool(true)));
    assert_eq!(parsed[2].get("output_hits"), Some(&Value::Int(2)));
    assert_eq!(parsed[2].get("computed"), Some(&Value::Int(0)));
    assert_eq!(
        records_json(&parsed[0]),
        records_json(&parsed[2]),
        "cache-served repeat must be byte-identical to the first answer"
    );
    // Requests sharing a config share its hash.
    assert_eq!(
        parsed[0].get("config"),
        Some(&parsed[1].get("config").expect("config").clone())
    );

    // Direct runs of each experiment under the same resolved
    // configuration, over a fresh private-store context and no
    // scheduler, must produce the exact bytes the daemon served.
    let config = batch_overrides().resolve(&StudyConfig::smoke());
    let ctx = StudyContext::with_store(config, Arc::new(ArtifactStore::in_memory()));
    let registry = Registry::paper();
    for (line, ids) in [
        (&parsed[0], vec!["table2", "table9"]),
        (&parsed[1], vec!["fig7"]),
    ] {
        let direct = registry.resolve(&ids).expect("known ids");
        let served = line
            .get("records")
            .and_then(Value::as_array)
            .expect("records array");
        assert_eq!(served.len(), direct.len());
        for (s, exp) in served.iter().zip(&direct) {
            let served_output =
                serde_json::to_string(s.get("output").expect("output field")).expect("render");
            let direct_output = serde_json::to_string(&exp.run(&ctx).to_value()).expect("render");
            assert_eq!(
                served_output,
                direct_output,
                "served `{}` differs from the direct run",
                exp.id()
            );
        }
    }
}

#[test]
fn bad_lines_answer_typed_errors_and_do_not_kill_the_daemon() {
    let lines = run_daemon(
        "this is not json\n\
         {\"experiments\":[\"nope\"]}\n\
         {\"id\":\"dup\",\"experiments\":[\"table5\",\"table6\"]}\n\
         {\"id\":\"ok\",\"experiments\":[\"fig6\"]}\n",
    );
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains("\"event\":\"error\"") && lines[0].contains("bad request"));
    assert!(lines[1].contains("unknown experiment id `nope`"));
    assert!(lines[2].contains("duplicate experiment id `table6`"));
    assert!(lines[3].contains("\"event\":\"result\"") && lines[3].contains("\"id\":\"ok\""));
}

#[test]
fn progress_mode_streams_per_experiment_lines() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qods-serve"))
        .args([
            "--base",
            "quick",
            "--threads",
            "2",
            "--progress",
            "--artifacts",
            "",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qods-serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(
            format!("{{\"id\":\"p\",\"experiments\":[\"table2\",\"fig6\"],\"overrides\":{OVERRIDES_JSON}}}\n")
                .as_bytes(),
        )
        .expect("write request");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let started = text
        .lines()
        .filter(|l| l.contains("\"event\":\"started\""))
        .count();
    let experiments = text
        .lines()
        .filter(|l| l.contains("\"event\":\"experiment\""))
        .count();
    let results = text
        .lines()
        .filter(|l| l.contains("\"event\":\"result\""))
        .count();
    assert_eq!((started, experiments, results), (1, 2, 1), "{text}");
}
