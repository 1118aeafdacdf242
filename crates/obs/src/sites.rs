//! The canonical site-name table: every span a guard can open and
//! every metric a registry handle can register lives here, as a
//! `&'static str` constant plus the [`ALL`] slice lint rule **S1**
//! validates instrumentation literals against — the same can't-drift
//! contract `qods_fault::SITES` gives fault-injection points.
//!
//! Naming is `<layer>.<thing>`: `net.*` for the wire/connection
//! layer, `gate.*` for admission, `svc.*` for the scheduler,
//! `cache.*` for the context pool, `store.*` for the artifact store,
//! `compile.*` for the pipeline stages, `pool.*` for the worker pool,
//! `job.*` for per-request execution, and `fault.*`/`trace.*` for the
//! observability plumbing itself.

// ------------------------------------------------------------ spans

/// One accepted TCP connection, open for its whole lifetime.
pub const NET_ACCEPT: &str = "net.accept";
/// Reading one NDJSON line off a transport.
pub const NET_READ: &str = "net.read";
/// Waiting on (or being refused by) the admission gate.
pub const NET_ADMISSION: &str = "net.admission";
/// Writing one answer line back to the transport.
pub const NET_WRITE: &str = "net.write";
/// One request end to end: parse -> admit -> run -> answer.
pub const NET_REQUEST: &str = "net.request";

/// The coalescing decision for one admitted job (role: leader or
/// follower).
pub const SVC_COALESCE: &str = "svc.coalesce";
/// One scheduled job execution (the leader's run).
pub const SVC_SCHEDULE: &str = "svc.schedule";
/// Context checkout from the content-addressed pool.
pub const SVC_CONTEXT: &str = "svc.context";

/// Compile stage 1: spec -> IR.
pub const COMPILE_IR: &str = "compile.ir";
/// Compile stage 2: IR -> scheduled circuit.
pub const COMPILE_SCHED: &str = "compile.sched";
/// Compile stage 3: scheduled circuit -> characterization.
pub const COMPILE_CHAR: &str = "compile.char";
/// Compile stage 4: the persistence tier (disk read/heal/write).
pub const COMPILE_STORE: &str = "compile.store";

/// One worker's whole chunk-execution loop inside the shared pool.
pub const POOL_WORKER: &str = "pool.worker";

/// One experiment run (the phys/arch engines) inside a job.
pub const JOB_EXPERIMENT: &str = "job.experiment";

/// A fault-injection site fired (instant event; detail = fault site).
pub const FAULT_FIRED: &str = "fault.fired";

// ---------------------------------------------------------- metrics

/// Job lines received (the `stats` verb's `requests`).
pub const NET_REQUESTS: &str = "net.requests";
/// Result lines answered.
pub const NET_RESULTS: &str = "net.results";
/// Typed error lines answered.
pub const NET_ERRORS: &str = "net.errors";
/// Jobs refused by admission (queue full).
pub const NET_OVERLOADED: &str = "net.overloaded";
/// Connections open right now (gauge).
pub const NET_CONNECTIONS: &str = "net.connections";
/// Connections accepted over the server's lifetime.
pub const NET_CONNECTIONS_TOTAL: &str = "net.connections_total";
/// NDJSON lines rejected for exceeding the line cap.
pub const NET_LINES_REJECTED: &str = "net.lines_rejected";
/// Idle connections reaped by the read timeout.
pub const NET_IDLE_REAPED: &str = "net.idle_reaped";
/// Client-observed queue-to-answer latency (histogram).
pub const NET_LATENCY: &str = "net.latency";

/// Admission permits out right now (gauge).
pub const GATE_ACTIVE: &str = "gate.active";
/// Callers blocked in the admission wait queue right now (gauge).
pub const GATE_WAITING: &str = "gate.waiting";

/// Jobs this scheduler executed (coalescing leaders included).
pub const SVC_EXECUTED: &str = "svc.executed";
/// Requests answered by joining an in-flight execution.
pub const SVC_COALESCED: &str = "svc.coalesced";
/// Jobs coalescing-in-flight right now (gauge).
pub const SVC_IN_FLIGHT: &str = "svc.in_flight";
/// Job panics caught and answered as typed errors.
pub const SVC_PANICS_CAUGHT: &str = "svc.panics_caught";
/// Jobs cancelled at a deadline boundary.
pub const SVC_DEADLINE_EXCEEDED: &str = "svc.deadline_exceeded";

/// Context-pool hits (same config hash, context reused).
pub const CACHE_CONTEXT_HITS: &str = "cache.context_hits";
/// Context-pool misses (context built fresh).
pub const CACHE_CONTEXT_MISSES: &str = "cache.context_misses";
/// Finished-output hits (experiment served without recompute).
pub const CACHE_OUTPUT_HITS: &str = "cache.output_hits";
/// Finished-output misses (experiment executed).
pub const CACHE_OUTPUT_MISSES: &str = "cache.output_misses";

/// Artifact-store stage computations (both tiers missed).
pub const STORE_COMPUTED: &str = "store.computed";
/// Artifact-store in-memory hits.
pub const STORE_MEM_HITS: &str = "store.mem_hits";
/// Artifact-store disk deserialization hits.
pub const STORE_DISK_HITS: &str = "store.disk_hits";
/// Corrupt/mismatched disk envelopes healed by recomputing.
pub const STORE_CORRUPT_READS: &str = "store.corrupt_reads";
/// Disk write failures (artifact served from memory anyway).
pub const STORE_WRITE_ERRORS: &str = "store.write_errors";

/// OS threads the process-wide pool has started (its background
/// helpers; a warm process starts none per job).
pub const POOL_WORKERS_SPAWNED: &str = "pool.workers_spawned";

/// Faults fired by the armed plan.
pub const FAULT_FIRED_TOTAL: &str = "fault.fired_total";

/// Every valid site name, sorted — what lint rule S1 and
/// [`crate::metrics::Registry`] debug assertions validate against.
pub const ALL: &[&str] = &[
    CACHE_CONTEXT_HITS,
    CACHE_CONTEXT_MISSES,
    CACHE_OUTPUT_HITS,
    CACHE_OUTPUT_MISSES,
    COMPILE_CHAR,
    COMPILE_IR,
    COMPILE_SCHED,
    COMPILE_STORE,
    FAULT_FIRED,
    FAULT_FIRED_TOTAL,
    GATE_ACTIVE,
    GATE_WAITING,
    JOB_EXPERIMENT,
    NET_ACCEPT,
    NET_ADMISSION,
    NET_CONNECTIONS,
    NET_CONNECTIONS_TOTAL,
    NET_ERRORS,
    NET_IDLE_REAPED,
    NET_LATENCY,
    NET_LINES_REJECTED,
    NET_OVERLOADED,
    NET_READ,
    NET_REQUEST,
    NET_REQUESTS,
    NET_RESULTS,
    NET_WRITE,
    POOL_WORKER,
    POOL_WORKERS_SPAWNED,
    STORE_COMPUTED,
    STORE_CORRUPT_READS,
    STORE_DISK_HITS,
    STORE_MEM_HITS,
    STORE_WRITE_ERRORS,
    SVC_COALESCE,
    SVC_COALESCED,
    SVC_CONTEXT,
    SVC_DEADLINE_EXCEEDED,
    SVC_EXECUTED,
    SVC_IN_FLIGHT,
    SVC_PANICS_CAUGHT,
    SVC_SCHEDULE,
];

/// Whether `name` is a canonical site.
pub fn is_site(name: &str) -> bool {
    ALL.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_unique_and_well_formed() {
        assert!(ALL.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
        for s in ALL {
            assert!(
                s.bytes().all(|b| b.is_ascii_lowercase()
                    || b.is_ascii_digit()
                    || b == b'.'
                    || b == b'_'),
                "site `{s}` must be lowercase dotted"
            );
            assert!(s.contains('.'), "site `{s}` must be layer-qualified");
            assert!(is_site(s));
        }
        assert!(!is_site("net.acept"));
        assert!(!is_site(""));
    }
}
