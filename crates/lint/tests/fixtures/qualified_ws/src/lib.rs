//! A workspace whose serving entry calls `Vec::new()`, its own
//! `Tally::new`, a module-path-qualified `qods_obs::instant`, and
//! `Deserialize::from_value` through a trait the workspace does not
//! declare, while another crate's `Registry::new` panics. `Vec::new()`
//! can reach no workspace inherent `new`, so the panicking
//! `Registry::new` stays off the serving path; the trait call can reach
//! the workspace's `impl Deserialize for Request`, whose `unwrap` is a
//! P1 finding.
