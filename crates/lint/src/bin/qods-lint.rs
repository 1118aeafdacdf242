//! The `qods-lint` CLI.
//!
//! ```text
//! qods-lint [--root DIR] [--ndjson-out PATH] [--graph-out PATH.dot]
//! ```
//!
//! Lints the workspace at `--root` (default: the current directory),
//! prints the human report, and exits nonzero on any finding not
//! suppressed by an allow annotation. `--ndjson-out` also writes the
//! findings as NDJSON (always written, even when empty, so CI can
//! upload it unconditionally). `--graph-out` dumps the entry-reachable
//! call graph and the lock graph as Graphviz DOT.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    ndjson_out: Option<PathBuf>,
    graph_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        ndjson_out: None,
        graph_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(PathBuf::from)
        };
        match arg.as_str() {
            "--root" => args.root = value("--root")?,
            "--ndjson-out" => args.ndjson_out = Some(value("--ndjson-out")?),
            "--graph-out" => args.graph_out = Some(value("--graph-out")?),
            "--help" | "-h" => {
                println!("qods-lint [--root DIR] [--ndjson-out PATH] [--graph-out PATH.dot]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qods-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match qods_lint::lint_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qods-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.graph_out {
        let dot = match qods_lint::scan_workspace(&args.root) {
            Ok(files) => {
                let index = qods_lint::graph::Index::build(&files);
                let locks = qods_lint::graph_rules::build_lock_graph(&index, &files);
                qods_lint::graph_rules::render_dot(&index, &files, &locks)
            }
            Err(e) => {
                eprintln!("qods-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(path, dot) {
            eprintln!("qods-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("qods-lint: wrote graphs to {}", path.display());
    }

    if let Some(path) = &args.ndjson_out {
        if let Err(e) = std::fs::write(path, qods_lint::to_ndjson(&report.findings)) {
            eprintln!("qods-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", qods_lint::render_human(&report));

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
