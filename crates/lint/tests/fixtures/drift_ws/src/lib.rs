//! A minimal workspace with one drift: a clock read in shipping code
//! of `speed-of-data`, a result-producing crate, so rule D1 applies.
//! CI runs qods-lint against this root and requires the run to FAIL —
//! proving that a finding breaks the build, not just the report.

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
