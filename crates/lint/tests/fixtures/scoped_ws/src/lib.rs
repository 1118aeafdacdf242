//! A workspace whose two crates each define a private `fn record`.
//! The serving crate's entry calls its own `record`; the other crate's
//! `record` panics. An unqualified call resolves only within the
//! caller's crate and its `use` imports, so the panicking `record` is
//! unreachable and the run is clean.
