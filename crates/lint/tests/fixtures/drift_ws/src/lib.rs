//! A minimal workspace with one drifted string: a fault-site literal
//! that is not in `qods_fault::SITES`. CI runs qods-lint against this
//! root and requires the run to FAIL — proving that a finding breaks
//! the build, not just the report.

pub fn arm() {
    qods_fault::check("store.raed");
}
