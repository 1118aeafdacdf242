//! The canonical site table: every span a guard can open and every
//! metric a registry handle can register is a [`Site`] constant here.
//! `Site`'s field is private, so these constants are its only values:
//! a misspelt or invented name is a compile error at the call site,
//! and `qods_fault::Site` is a distinct type, so a fault site cannot
//! stand in for an instrumentation site either.
//!
//! Naming is `<layer>.<thing>`: `net.*` for the wire/connection
//! layer, `gate.*` for admission, `svc.*` for the scheduler,
//! `cache.*` for the context pool, `store.*` for the artifact store,
//! `compile.*` for the pipeline stages, `synth.*` for rotation
//! synthesis, `arch.*` for the Fig 15 sweep, `pool.*` for the worker
//! pool, `job.*` for per-request execution, and `fault.*`/`trace.*`
//! for the observability plumbing itself.

/// One instrumentation site: a span or metric name from this table.
/// [`Site::name`] is the string the trace, the stage table and the
/// metrics snapshot render; ordering is the name's.
///
/// Every call that names a site takes this type:
///
/// ```
/// use qods_obs::{sites, span, Registry};
/// Registry::new().counter(sites::NET_REQUESTS).inc();
/// let _span = span!(sites::SVC_SCHEDULE);
/// ```
///
/// so a typo'd name does not build:
///
/// ```compile_fail,E0308
/// qods_obs::Registry::new().counter("net.requsts");
/// ```
///
/// ```compile_fail,E0308
/// let _span = qods_obs::span!("svc.schedle");
/// ```
///
/// and no site can be minted outside this table:
///
/// ```compile_fail,E0423
/// let _ = qods_obs::Site("x");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site(&'static str);

impl Site {
    /// The site's name, e.g. `"net.request"`.
    pub const fn name(self) -> &'static str {
        self.0
    }
}

// ------------------------------------------------------------ spans

/// One accepted TCP connection, open for its whole lifetime.
pub const NET_ACCEPT: Site = Site("net.accept");
/// Reading one NDJSON line off a transport.
pub const NET_READ: Site = Site("net.read");
/// Waiting on (or being refused by) the admission gate.
pub const NET_ADMISSION: Site = Site("net.admission");
/// Writing one answer line back to the transport.
pub const NET_WRITE: Site = Site("net.write");
/// One request end to end: parse -> admit -> run -> answer.
pub const NET_REQUEST: Site = Site("net.request");

/// The coalescing decision for one admitted job (role: leader or
/// follower).
pub const SVC_COALESCE: Site = Site("svc.coalesce");
/// One scheduled job execution (the leader's run).
pub const SVC_SCHEDULE: Site = Site("svc.schedule");
/// A job's output lookups in the content-addressed pool.
pub const SVC_CONTEXT: Site = Site("svc.context");

/// Compile stage 1: spec -> IR.
pub const COMPILE_IR: Site = Site("compile.ir");
/// Compile stage 2: IR -> scheduled circuit.
pub const COMPILE_SCHED: Site = Site("compile.sched");
/// Compile stage 3: scheduled circuit -> characterization.
pub const COMPILE_CHAR: Site = Site("compile.char");
/// Compile stage 4: the persistence tier (disk read/heal/write).
pub const COMPILE_STORE: Site = Site("compile.store");

/// One batched rotation search inside a lowering (detail: the number
/// of targets).
pub const SYNTH_BATCH: Site = Site("synth.batch");

/// One worker's whole chunk-execution loop inside the shared pool.
pub const POOL_WORKER: Site = Site("pool.worker");

/// One Fig 15 sweep task (role: `seed`, `lanes` or `heap`).
pub const ARCH_SWEEP: Site = Site("arch.sweep");

/// One experiment run (the phys/arch engines) inside a job.
pub const JOB_EXPERIMENT: Site = Site("job.experiment");

/// A fault-injection site fired (instant event; detail = fault site).
pub const FAULT_FIRED: Site = Site("fault.fired");

// ---------------------------------------------------------- metrics

/// Job lines admitted for execution.
pub const NET_REQUESTS: Site = Site("net.requests");
/// Result lines answered.
pub const NET_RESULTS: Site = Site("net.results");
/// Typed error lines answered.
pub const NET_ERRORS: Site = Site("net.errors");
/// Jobs refused by admission (queue full).
pub const NET_OVERLOADED: Site = Site("net.overloaded");
/// Connections open right now (gauge).
pub const NET_CONNECTIONS: Site = Site("net.connections");
/// Connections accepted over the server's lifetime.
pub const NET_CONNECTIONS_TOTAL: Site = Site("net.connections_total");
/// NDJSON lines rejected for exceeding the line cap.
pub const NET_LINES_REJECTED: Site = Site("net.lines_rejected");
/// Idle connections reaped by the read timeout.
pub const NET_IDLE_REAPED: Site = Site("net.idle_reaped");
/// Client-observed queue-to-answer latency (histogram).
pub const NET_LATENCY: Site = Site("net.latency");

/// Admission permits out right now (gauge).
pub const GATE_ACTIVE: Site = Site("gate.active");
/// Callers blocked in the admission wait queue right now (gauge).
pub const GATE_WAITING: Site = Site("gate.waiting");

/// Jobs this scheduler executed (coalescing leaders included).
pub const SVC_EXECUTED: Site = Site("svc.executed");
/// Requests answered by joining an in-flight execution.
pub const SVC_COALESCED: Site = Site("svc.coalesced");
/// Jobs coalescing-in-flight right now (gauge).
pub const SVC_IN_FLIGHT: Site = Site("svc.in_flight");
/// Job panics caught and answered as typed errors.
pub const SVC_PANICS_CAUGHT: Site = Site("svc.panics_caught");
/// Jobs cancelled at a deadline boundary.
pub const SVC_DEADLINE_EXCEEDED: Site = Site("svc.deadline_exceeded");

/// Jobs that found at least one output cached.
pub const CACHE_CONTEXT_HITS: Site = Site("cache.context_hits");
/// Jobs that found none of their outputs cached.
pub const CACHE_CONTEXT_MISSES: Site = Site("cache.context_misses");
/// Finished-output hits (experiment served without recompute).
pub const CACHE_OUTPUT_HITS: Site = Site("cache.output_hits");
/// Finished-output misses (experiment executed).
pub const CACHE_OUTPUT_MISSES: Site = Site("cache.output_misses");
/// Outputs the pool dropped to stay within its byte budget.
pub const CACHE_CONTEXT_EVICTIONS: Site = Site("cache.context_evictions");
/// Bytes the pool's retained outputs are charged (gauge).
pub const CACHE_CONTEXT_BYTES: Site = Site("cache.context_bytes");

/// Artifact-store stage computations (both tiers missed).
pub const STORE_COMPUTED: Site = Site("store.computed");
/// Artifact-store in-memory hits.
pub const STORE_MEM_HITS: Site = Site("store.mem_hits");
/// Artifact-store disk deserialization hits.
pub const STORE_DISK_HITS: Site = Site("store.disk_hits");
/// Corrupt/mismatched disk envelopes healed by recomputing.
pub const STORE_CORRUPT_READS: Site = Site("store.corrupt_reads");
/// Disk write failures (artifact served from memory anyway).
pub const STORE_WRITE_ERRORS: Site = Site("store.write_errors");
/// Artifacts the memory tier dropped to stay within its byte budget.
pub const STORE_EVICTIONS: Site = Site("store.evictions");
/// Bytes the memory tier's artifacts are charged (gauge).
pub const STORE_MEM_BYTES: Site = Site("store.mem_bytes");

/// OS threads the process-wide pool has started (its background
/// helpers; a warm process starts none per job).
pub const POOL_WORKERS_SPAWNED: Site = Site("pool.workers_spawned");

/// Checked sweep lanes that kept to their seed's gate order.
pub const ARCH_LANES_REPLAYED: Site = Site("arch.lanes_replayed");
/// Checked sweep lanes that left it and re-ran on the heap.
pub const ARCH_LANES_FALLBACK: Site = Site("arch.lanes_fallback");

/// Faults fired by the armed plan.
pub const FAULT_FIRED_TOTAL: Site = Site("fault.fired_total");

/// Every site, sorted by name.
pub const ALL: [Site; 50] = [
    ARCH_LANES_FALLBACK,
    ARCH_LANES_REPLAYED,
    ARCH_SWEEP,
    CACHE_CONTEXT_BYTES,
    CACHE_CONTEXT_EVICTIONS,
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
    STORE_EVICTIONS,
    STORE_MEM_BYTES,
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
    SYNTH_BATCH,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_unique_and_well_formed() {
        assert!(ALL.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
        for s in ALL.map(Site::name) {
            assert!(
                s.bytes().all(|b| b.is_ascii_lowercase()
                    || b.is_ascii_digit()
                    || b == b'.'
                    || b == b'_'),
                "site `{s}` must be lowercase dotted"
            );
            assert!(s.contains('.'), "site `{s}` must be layer-qualified");
        }
    }
}
