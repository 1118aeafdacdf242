//! `perfbench`: the end-to-end and per-layer benchmark of the
//! speed-of-data stack.
//!
//! ```text
//! perfbench --workload <paper|serve-hit|serve-fill> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures its workload for `--seconds` with
//! tracing off and reports the end-to-end metrics; with `--trace 1` it
//! measures half the time untraced and half traced, then times each
//! layer through its public functions and reports the per-layer
//! metrics. Every answer is checked against a sequential, cache-off,
//! in-process oracle. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this package for the workloads and metrics.

mod gen;
mod layers;
mod serve;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <paper|serve-hit|serve-fill> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// A run's outcome.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN: a metric that could not be measured
                // reads null and the run is not correct.
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every pool in the process runs on the benchmark's two workers,
    // whatever the host's core count.
    qods_pool::set_thread_override(Some(serve::WORKERS));
    let report = match workloads::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn every_flag_is_required_and_checked() {
        let ok = args("--workload serve-hit --seed 3 --seconds 2 --trace 1").expect("valid");
        assert_eq!(ok.workload, Workload::ServeHit);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(args("--workload paper --seed 3 --seconds 2").is_err());
        assert!(args("--workload nope --seed 3 --seconds 2 --trace 0").is_err());
        assert!(args("--workload paper --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload paper --seed 3 --seconds 2 --trace 2").is_err());
        assert!(args("--workload paper --seed 3 --seconds 2 --trace").is_err());
    }

    #[test]
    fn the_report_is_one_json_line() {
        let report = Report {
            attempted: 4,
            failed: 0,
            metrics: vec![Metric::new("latency_p50_ms", 1.25, "ms")],
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let broken = Report {
            metrics: vec![Metric::new("x", f64::NAN, "ms")],
            ..report
        };
        assert!(!broken.correct());
        assert!(broken.to_json().contains("\"value\": null"));
    }
}
