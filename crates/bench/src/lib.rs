//! # qods-bench — the `repro` binary and its result writers
//!
//! The **`repro` binary** (`cargo run -p qods-bench --bin repro --release`)
//! drives the experiment registry: `--list` enumerates experiments,
//! bare ids run them individually, and a full run regenerates every
//! table and figure in parallel, prints them in the paper's layout,
//! and writes machine-readable results (JSON and per-figure CSV)
//! under `results/`. This library holds the writers for those files.
//!
//! Performance is measured by the `perfbench` package at the
//! repository root, the one benchmark harness: it reports end-to-end
//! and per-layer numbers (see `perfbench/README.md`).
//!
//! Experiment ids match the table in [`qods_core`]'s crate docs:
//! `table1`..`table9`, `sec33`, `fig4`, `fig6`, `fig7`, `fig8`,
//! `fig11`, `fig15`, `widthsweep`, plus aliases like `headline`.

use qods_core::experiment::ExperimentRecord;
use qods_core::output::Series;

use serde::Serialize;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Writes a figure series to a CSV file (x,y per line, one file per
/// series label).
///
/// # Errors
///
/// Returns I/O errors from file creation or writing.
pub fn write_series_csv(dir: &Path, figure: &str, series: &[Series]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    for s in series {
        let safe = qods_core::output::csv_safe_stem(&s.label);
        let mut f = fs::File::create(dir.join(format!("{figure}_{safe}.csv")))?;
        writeln!(f, "x,y")?;
        for p in &s.points {
            writeln!(f, "{},{}", p.x, p.y)?;
        }
    }
    Ok(())
}

/// Writes any serializable result as pretty JSON: `repro` writes the
/// [`qods_core::study::PaperReproduction`] of a full run as
/// `results/repro.json` and its record list as
/// `results/experiments.json`.
///
/// # Errors
///
/// Returns I/O or serialization errors.
pub fn write_json<T: Serialize>(path: &Path, out: &T) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(out).map_err(std::io::Error::other)?;
    fs::write(path, json)
}

/// Writes every figure CSV a set of records exports.
///
/// # Errors
///
/// Returns I/O errors from file creation or writing.
pub fn write_record_csvs(dir: &Path, records: &[ExperimentRecord]) -> std::io::Result<()> {
    for r in records {
        for (figure, series) in r.output.csv_series(&r.id) {
            write_series_csv(dir, &figure, &series)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qods_core::experiment::ExperimentRecord;
    use qods_core::study::{PaperReproduction, StudyConfig};
    use qods_service::{RunRequest, Scheduler};

    /// The records of a cold smoke run of `ids` (all when empty).
    fn smoke_records(ids: &[&str]) -> Vec<ExperimentRecord> {
        Scheduler::with_options(StudyConfig::smoke(), 2, false)
            .run(&RunRequest::of(ids.iter().copied()))
            .expect("known ids")
            .records
    }

    #[test]
    fn csv_and_json_roundtrip() {
        let config = StudyConfig::smoke();
        let records = smoke_records(&[]);
        let out = PaperReproduction::from_records(config, &records);
        let dir = std::env::temp_dir().join("qods_bench_test");
        write_series_csv(&dir, "fig7", &out.fig7).expect("csv");
        write_json(&dir.join("repro.json"), &out).expect("json");
        let json = std::fs::read_to_string(dir.join("repro.json")).expect("read");
        assert!(json.contains("table9"));
    }

    #[test]
    fn record_csvs_cover_all_figures() {
        let records = smoke_records(&["fig7", "fig8", "fig15"]);
        let dir = std::env::temp_dir().join("qods_bench_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_record_csvs(&dir, &records).expect("csvs");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        for prefix in ["fig7_", "fig8_", "fig15_"] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "no CSV with prefix {prefix} in {names:?}"
            );
        }
    }
}
