//! A minimal workspace with one drift: in shipping code of
//! `speed-of-data`, a result-producing crate, a `Relaxed` atomic load
//! flows into a rendered line, so rule A1 applies. CI runs qods-lint
//! against this root and requires the run to FAIL — proving that a
//! finding breaks the build, not just the report.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn render(trials: &AtomicU64) -> String {
    let n = trials.load(Ordering::Relaxed);
    format!("trials={n}")
}
