//! Regenerates tables and figures of "Running a Quantum Circuit at
//! the Speed of Data" — a thin client of the `qods-service` job
//! layer.
//!
//! ```text
//! cargo run -p qods-bench --bin repro --release                  # everything, in parallel
//! cargo run -p qods-bench --bin repro --release -- --list       # enumerate experiments
//! cargo run -p qods-bench --bin repro --release -- quick        # smoke config
//! cargo run -p qods-bench --bin repro --release -- fig15 table9 # a selection
//! cargo run -p qods-bench --bin repro --release -- --json fig4  # machine-readable output
//! cargo run -p qods-bench --bin repro --release -- --threads 1  # single-threaded baseline
//! cargo run -p qods-bench --bin repro --release -- --trace-out t.json quick fig4
//! ```
//!
//! Full runs print the paper-layout report on stdout and write
//! `results/repro.json` plus per-figure CSVs under `results/`.
//! Dispatch is entirely data-driven: every run is a [`RunRequest`]
//! submitted to a [`Scheduler`], so adding an experiment to the
//! registry makes it addressable here with no changes to this file,
//! and `repro` exercises exactly the code path `qods-serve` serves.
//! Speed is measured by the `perfbench` package at the repository
//! root, not here.

use qods_bench::{write_json, write_record_csvs};
use qods_core::compile::ArtifactStore;
use qods_core::registry::Registry;
use qods_core::report::{paper_report, Render};
use qods_core::study::{PaperReproduction, StudyConfig};
use qods_service::{RunRequest, Scheduler};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: repro [--list] [--list-kernels] [--json] [--threads N]\n\
     \t     [--kernel FAMILY:WIDTH] [--trace-out FILE] [quick] [EXPERIMENT_ID ...]\n\
     \n\
     With no ids: runs every experiment in parallel, prints the\n\
     paper-layout report, and writes results/repro.json + CSVs.\n\
     With ids: runs exactly those experiments and prints each one\n\
     (duplicate ids are rejected).\n\
     `repro --list` shows every addressable id.\n\
     `repro --list-kernels` shows every kernel family and width bound.\n\
     `repro --kernel qcla:48` compiles one kernel through the staged\n\
     pipeline (repeatable; unknown families and invalid widths are\n\
     clean errors) and prints its characterization.\n\
     `--threads N` pins every worker pool (registry fan-out, Fig 15\n\
     sweeps, Monte-Carlo) to N threads end-to-end; `--threads 1` is\n\
     the single-threaded baseline.\n\
     Compiled kernel artifacts persist under results/.artifacts/\n\
     (override with QODS_ARTIFACT_DIR; empty value = in-memory only),\n\
     so a second repro run in the same workspace skips lowering.\n\
     \n\
     Observability:\n\
     `--trace-out FILE` arms end-to-end tracing for the run, prints a\n\
     per-stage time breakdown on stderr afterwards, and writes FILE as\n\
     Chrome trace-event JSON (load it at ui.perfetto.dev).\n\
     `repro --trace-verify FILE` checks that FILE is valid Chrome\n\
     trace JSON with >0 spans in every serving stage (net. / svc. /\n\
     compile. / pool.) and that every event sits on a named lane.\n\
     \n\
     Benchmarks live in the perfbench package (see perfbench/README.md)."
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut list = false;
    let mut list_kernels = false;
    let mut kernels: Vec<String> = Vec::new();
    let mut json = false;
    let mut threads: Option<usize> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_verify: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "quick" | "--quick" => quick = true,
            "--list" => list = true,
            "--list-kernels" => list_kernels = true,
            "--kernel" => match it.next() {
                Some(spec) => kernels.push(spec),
                None => {
                    eprintln!("--kernel needs a FAMILY:WIDTH spec\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--json" => json = true,
            "--threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match it.next() {
                Some(path) if !path.is_empty() => trace_out = Some(path),
                _ => {
                    eprintln!("--trace-out needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace-verify" => match it.next() {
                Some(path) if !path.is_empty() => trace_verify = Some(path),
                _ => {
                    eprintln!("--trace-verify needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
    }

    // Trace verification inspects a file someone else wrote; it must
    // not start pools or touch the artifact store.
    if let Some(path) = trace_verify {
        return run_trace_verify(&path);
    }

    // Pin every worker pool in the process before anything runs:
    // registry fan-out, Fig 15 sweeps, and Monte-Carlo all consult
    // the same `qods_pool` policy.
    if let Some(n) = threads {
        qods_pool::set_thread_override(Some(n));
    }

    // Attach the persistent artifact tier before any compilation: a
    // second repro run in the same workspace serves every kernel
    // stage from results/.artifacts/ instead of re-lowering
    // (QODS_ARTIFACT_DIR overrides the location; empty disables).
    let store = ArtifactStore::init_process(Path::new(qods_core::compile::DEFAULT_ARTIFACT_DIR));

    if list_kernels {
        return run_list_kernels();
    }
    if list {
        let registry = Registry::paper();
        println!("{:<10} {:<22} title", "id", "aliases");
        for info in registry.list() {
            println!(
                "{:<10} {:<22} {}",
                info.id,
                info.aliases.join(", "),
                info.title
            );
        }
        return ExitCode::SUCCESS;
    }

    // Arm tracing before any work so the first span of the run is
    // captured; flush after it so the trace covers the whole run.
    if trace_out.is_some() {
        qods_obs::trace::enable();
    }
    let code = if kernels.is_empty() {
        run_study(quick, json, &ids, &store)
    } else {
        run_compile_kernels(&kernels, quick)
    };
    if let Some(path) = trace_out {
        if let Err(flush_code) = flush_trace(&path) {
            return flush_code;
        }
    }
    code
}

/// A plain or id-selected run: one [`RunRequest`] through the
/// scheduler `qods-serve` uses, on the same shared worker pool. With
/// no ids it prints the paper-layout report and writes `results/`;
/// with ids it prints each selected experiment.
fn run_study(quick: bool, json: bool, ids: &[String], store: &ArtifactStore) -> ExitCode {
    let config = if quick {
        StudyConfig::smoke()
    } else {
        StudyConfig::default()
    };
    let scheduler = Scheduler::with_options(config.clone(), qods_pool::host_threads(), true);
    let request = RunRequest::of(ids.iter().map(String::as_str));

    if ids.is_empty() {
        let result = scheduler.run(&request).expect("the full registry resolves");
        // repro.json records the *requested* configuration, not
        // the resolved one: the scheduler rewrites `threads` to the
        // host's worker count, and embedding that would make
        // results/repro.json vary across machines even though every
        // experiment output is bit-identical at any pool size.
        let out = PaperReproduction::from_records(config, &result.records);
        if json {
            println!("{}", serde_json::to_string_pretty(&out).expect("serialize"));
        } else {
            println!("{}", paper_report(&result.records));
        }
        let results = Path::new("results");
        write_json(&results.join("repro.json"), &out).expect("write results/repro.json");
        write_json(&results.join("experiments.json"), &result.records)
            .expect("write results/experiments.json");
        write_record_csvs(results, &result.records).expect("write figure CSVs");
        let cpu: f64 = result.records.iter().map(|r| r.seconds).sum();
        eprintln!(
            "ran {} experiments ({} workers) in {:.2?} wall / {:.2?} summed; wrote results/",
            result.records.len(),
            scheduler.threads(),
            std::time::Duration::from_secs_f64(result.seconds),
            std::time::Duration::from_secs_f64(cpu),
        );
        let st = store.stats();
        eprintln!(
            "compile stages: {} computed, {} mem hits, {} disk hits, {} corrupt",
            st.computed, st.mem_hits, st.disk_hits, st.corrupt_reads
        );
        return ExitCode::SUCCESS;
    }

    // Single-experiment mode: resolve every id through the service —
    // no per-experiment dispatch lives here.
    match scheduler.run(&request) {
        Ok(result) => {
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&result.records).expect("serialize")
                );
            } else {
                for r in &result.records {
                    print!("{}", r.output.render());
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// `repro --list-kernels`: every kernel family the pipeline compiles.
fn run_list_kernels() -> ExitCode {
    use qods_core::kernels::{KernelFamily, MAX_WIDTH};
    println!(
        "{:<10} {:>12} {:>6} widths   description",
        "family", "qubits(n=32)", "synth"
    );
    for family in KernelFamily::ALL {
        println!(
            "{:<10} {:>12} {:>6} 1..={:<4} {}",
            family.name(),
            family.n_qubits(32),
            if family.uses_synthesis() { "yes" } else { "no" },
            MAX_WIDTH,
            family.title(),
        );
    }
    println!("\ncompile one with `repro --kernel FAMILY:WIDTH` (e.g. --kernel qcla:48)");
    ExitCode::SUCCESS
}

/// `repro --kernel FAMILY:WIDTH ...`: compiles each spec through the
/// staged pipeline (and the persistent artifact store) and prints its
/// characterization. Bad specs are typed errors, never panics.
fn run_compile_kernels(specs: &[String], quick: bool) -> ExitCode {
    use qods_core::compile::{ArtifactStore, Compiler, SynthBudget};
    use qods_core::kernels::KernelSpec;

    let mut parsed = Vec::with_capacity(specs.len());
    for raw in specs {
        match KernelSpec::parse(raw) {
            Ok(spec) => parsed.push(spec),
            Err(e) => {
                eprintln!("{e}\n(see `repro --list-kernels`)");
                return ExitCode::FAILURE;
            }
        }
    }
    let config = if quick {
        StudyConfig::smoke()
    } else {
        StudyConfig::default()
    };
    let compiler = Compiler::new(
        ArtifactStore::process(),
        SynthBudget {
            max_t: config.synth_max_t,
            target_distance: config.synth_target,
        },
    );
    let compiled = compiler
        .compile_many(&parsed, qods_pool::pool_threads(parsed.len()))
        .expect("specs validated above");
    for k in &compiled {
        let r = &k.characterization.report;
        println!(
            "{:<12} {:>4} qubits {:>7} gates  depth {:>6}  T-frac {:.3}  \
             {:.3e} us @ speed of data  zeros {:.1}/ms  pi/8 {:.1}/ms",
            k.spec.to_string(),
            r.n_qubits,
            r.gate_count,
            k.scheduled.depth,
            r.non_transversal_fraction,
            k.characterization.makespan_us,
            r.bandwidth.zero_per_ms,
            r.bandwidth.pi8_per_ms,
        );
    }
    let st = compiler.store().stats();
    eprintln!(
        "compile stages: {} computed, {} mem hits, {} disk hits ({})",
        st.computed,
        st.mem_hits,
        st.disk_hits,
        compiler
            .store()
            .dir()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "in-memory".to_string()),
    );
    ExitCode::SUCCESS
}

/// Drains the process tracer, prints the per-stage time breakdown on
/// stderr (stdout stays the report), and writes the Chrome
/// trace-event file `--trace-out` asked for. Runs after the traced
/// run regardless of its outcome (a failed run's trace is exactly the
/// one worth looking at); only a write failure turns into an error of
/// its own.
fn flush_trace(path: &str) -> Result<(), ExitCode> {
    use qods_obs::export;

    let tracer = qods_obs::trace::tracer();
    let events = tracer.drain();
    let dropped = tracer.dropped();
    eprintln!(
        "per-stage time breakdown ({} spans, {dropped} dropped):",
        events.len()
    );
    for (site, agg) in export::stage_breakdown(&events) {
        eprintln!(
            "  {:<24} {:>6} x  total {:>10.3} ms  self {:>10.3} ms  max {:>9.3} ms",
            site.name(),
            agg.count,
            agg.total_ns as f64 / 1e6,
            agg.self_ns as f64 / 1e6,
            agg.max_ns as f64 / 1e6,
        );
    }
    match std::fs::write(path, export::to_chrome(&events)) {
        Ok(()) => {
            eprintln!("wrote Chrome trace to {path} (load it at ui.perfetto.dev)");
            Ok(())
        }
        Err(e) => {
            eprintln!("failed to write trace to {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `repro --trace-verify FILE`: the CI check over a trace written by
/// `qods-serve --trace-out`. The file must parse as Chrome trace-event JSON,
/// contain at least one complete (`X`) span in every serving stage,
/// and reference only lanes that carry a `thread_name` metadata
/// record — the properties the Perfetto UI needs to render a useful
/// timeline.
fn run_trace_verify(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace verify: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match qods_obs::export::parse_chrome(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("trace verify: {path} is not Chrome trace JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for stage in ["net.", "svc.", "compile.", "pool."] {
        let n = events
            .iter()
            .filter(|e| e.ph == "X" && e.name.starts_with(stage))
            .count();
        println!("  {stage:<9} {n} spans");
        if n == 0 {
            eprintln!("trace verify FAILED: no `{stage}*` spans in {path}");
            failed = true;
        }
    }
    let named_lanes: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.ph == "M")
        .map(|e| e.tid)
        .collect();
    if let Some(orphan) = events
        .iter()
        .find(|e| e.ph != "M" && !named_lanes.contains(&e.tid))
    {
        eprintln!(
            "trace verify FAILED: event `{}` sits on unnamed lane {}",
            orphan.name, orphan.tid
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("trace verify OK: {path} ({} events)", events.len());
        ExitCode::SUCCESS
    }
}
