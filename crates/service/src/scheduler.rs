//! The job scheduler: runs [`RunRequest`]s over the shared worker
//! pool, serving repeated work from the content-addressed cache and
//! streaming per-job progress events.

use crate::cache::{ContextPool, PoolEntry, CONTEXT_POOL_BYTES};
use crate::request::RunRequest;
use qods_core::compile::hash::fnv1a;
use qods_core::compile::{ArtifactStore, Begin, InflightTable};
use qods_core::experiment::{Experiment, ExperimentRecord};
use qods_core::kernels::KernelError;
use qods_core::registry::{run_planned, Registry, RegistryError};
use qods_core::study::StudyConfig;
use qods_obs::{sites, Counter};
use qods_pool::plock;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a job was rejected or failed (nothing partial is ever
/// returned or cached on error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The experiment selection was invalid (unknown or duplicate id).
    Registry(RegistryError),
    /// The resolved configuration asks for an impossible kernel
    /// (e.g. `n_bits` of 0 or beyond the width bound) — rejected
    /// before a context is built so a bad request can never panic
    /// the daemon.
    Kernel(KernelError),
    /// The resolved configuration holds an override no experiment can
    /// run: a Fig 15 area grid with fewer than two points, more than
    /// [`MAX_SWEEP_POINTS`] or an empty range, more than
    /// [`MAX_PROFILE_SAMPLES`] Fig 7 samples, a synthesis budget
    /// above [`MAX_SYNTH_T`], or a float knob that is not finite.
    /// Rejected before a context is built, like
    /// [`ServiceError::Kernel`].
    Config {
        /// The offending override field.
        field: &'static str,
        /// Why it was refused.
        reason: String,
    },
    /// The job panicked mid-execution. The scheduler catches the
    /// unwind at the job boundary, so one poisoned experiment costs
    /// its own job a typed error — never the daemon, never an
    /// unrelated job.
    Internal {
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// The job overran its deadline budget and was cancelled at a
    /// chunk boundary (see [`crate::request::RunRequest::deadline_ms`]).
    DeadlineExceeded,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Registry(e) => e.fmt(f),
            ServiceError::Kernel(e) => e.fmt(f),
            ServiceError::Config { field, reason } => write!(f, "invalid {field}: {reason}"),
            ServiceError::Internal { message } => write!(f, "internal error: {message}"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<RegistryError> for ServiceError {
    fn from(e: RegistryError) -> Self {
        ServiceError::Registry(e)
    }
}

impl From<KernelError> for ServiceError {
    fn from(e: KernelError) -> Self {
        ServiceError::Kernel(e)
    }
}

/// The largest `synth_max_t` a job may ask for.
///
/// The rotation search walks up to `3 * 2^(t-1)` Matsumoto-Amano cores
/// per T-count `t` and has no cancellation point inside a walk, so
/// this bound caps how long one job holds a worker past its deadline.
/// At 16 a worst-case walk (`synth_target: 0`, nothing pruned) visits
/// about 2e5 cores: ~1 s per 64 phase rotations and ~2.5 s per 64
/// general targets on a 2-vCPU x86-64 host, against 0.05 s and 0.17 s
/// at the paper's 12. Each step past 16 doubles it.
pub const MAX_SYNTH_T: u32 = 16;

/// The most Fig 15 area-grid points a job may ask for.
///
/// The grid is allocated up front and every point costs twelve
/// architecture simulations (four architectures, three kernels) of
/// ~1–4 ms each, so this bound caps one job at ~3k simulations —
/// about 20x the paper's 13 points — and keeps a huge override from
/// aborting the server on allocation.
pub const MAX_SWEEP_POINTS: usize = 256;

/// The most Fig 7 demand-profile samples a job may ask for.
///
/// Each sample is one 16-byte point per kernel, allocated up front,
/// plus one reported row; 65,536 (256x the paper's 256) bounds a
/// series at 1 MiB.
pub const MAX_PROFILE_SAMPLES: usize = 1 << 16;

/// Rejects the resolved overrides no experiment can run, before any
/// context is built (see [`ServiceError::Config`]).
fn validate_config(cfg: &StudyConfig) -> Result<(), ServiceError> {
    let reject = |field: &'static str, reason: String| Err(ServiceError::Config { field, reason });
    let range = &cfg.sweep_area_range;
    if !(2..=MAX_SWEEP_POINTS).contains(&cfg.sweep_points) {
        return reject(
            "sweep_points",
            format!(
                "{} (the area grid needs 2..={MAX_SWEEP_POINTS})",
                cfg.sweep_points
            ),
        );
    }
    if cfg.profile_samples > MAX_PROFILE_SAMPLES {
        return reject(
            "profile_samples",
            format!(
                "{} (accepted: 0..={MAX_PROFILE_SAMPLES})",
                cfg.profile_samples
            ),
        );
    }
    // Both bounds are finite here: `reject_non_finite` ran first.
    if range.min_area <= 0.0 {
        return reject(
            "sweep_min_area",
            format!("{} (must be positive)", range.min_area),
        );
    }
    if range.max_area <= range.min_area {
        return reject(
            "sweep_max_area",
            format!(
                "{} (must be above sweep_min_area {})",
                range.max_area, range.min_area
            ),
        );
    }
    if cfg.synth_max_t > MAX_SYNTH_T {
        return reject(
            "synth_max_t",
            format!("{} (accepted: 0..={MAX_SYNTH_T})", cfg.synth_max_t),
        );
    }
    Ok(())
}

/// Rejects a float knob with no JSON form (infinite or NaN) before
/// the canonical encoding is taken: the job key and the config hash
/// exist only for finite configurations, and a request naming
/// `1e400` must be a typed rejection on every path, coalesced or not.
fn reject_non_finite(cfg: &StudyConfig) -> Result<(), ServiceError> {
    let floats = [
        ("noise_scale", cfg.noise_scale),
        ("synth_target", cfg.synth_target),
        ("sweep_min_area", cfg.sweep_area_range.min_area),
        ("sweep_max_area", cfg.sweep_area_range.max_area),
    ];
    match floats.into_iter().find(|(_, v)| !v.is_finite()) {
        Some((field, v)) => Err(ServiceError::Config {
            field,
            reason: format!("{v} (must be finite)"),
        }),
        None => Ok(()),
    }
}

/// A streamed progress event for one job. Delivery order within one
/// job is: one `Started`, then one `ExperimentDone` per requested
/// experiment (cache hits first, then computed ones as they finish —
/// interleaved across workers).
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// The job was admitted and its context checked out.
    Started {
        /// The request's correlation id.
        request_id: Option<String>,
        /// Content hash of the resolved configuration.
        config_hash: u64,
        /// How many experiments the job selects.
        experiments: usize,
        /// Whether the context came from the cache.
        context_hit: bool,
    },
    /// One experiment of the job finished (from cache or computed).
    ExperimentDone {
        /// The request's correlation id.
        request_id: Option<String>,
        /// The experiment's primary id.
        experiment: String,
        /// True when the result came from the output cache.
        cache_hit: bool,
        /// Wall-clock seconds (0 for cache hits).
        seconds: f64,
    },
}

/// The finished job: records in request order plus cache accounting.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The request's correlation id.
    pub request_id: Option<String>,
    /// Content hash of the resolved configuration.
    pub config_hash: u64,
    /// The fully resolved configuration the job ran under.
    pub config: StudyConfig,
    /// Whether the study context came from the cache.
    pub context_hit: bool,
    /// Experiments served from the output cache.
    pub output_hits: usize,
    /// Experiments actually computed.
    pub computed: usize,
    /// One record per requested experiment, in request order.
    pub records: Vec<ExperimentRecord>,
    /// Wall-clock seconds for the whole job.
    pub seconds: f64,
}

/// Runs jobs on one shared worker pool over a [`ContextPool`].
///
/// ## Determinism contract
///
/// For a fixed `(request, seed)` the records' outputs are
/// bit-identical at any pool size and whatever traffic preceded the
/// job: every experiment is a pure function of the resolved
/// configuration, the engines underneath are thread-count-invariant
/// (tested per engine), and the cache only ever returns an output
/// that was computed from the same content hash.
pub struct Scheduler {
    registry: Registry,
    pool: ContextPool,
    threads: usize,
    /// In-flight jobs, keyed by [`Scheduler::job_key`]; concurrent
    /// submissions of the same key share one execution.
    inflight: InflightTable<u64, Result<Arc<JobResult>, ServiceError>>,
    /// Traffic counters, registered in the [`ContextPool`]'s metrics
    /// registry so one snapshot covers the cache and the scheduler.
    jobs_led: Arc<Counter>,
    jobs_coalesced: Arc<Counter>,
    panics_caught: Arc<Counter>,
    deadlines_exceeded: Arc<Counter>,
    /// Deadline applied to requests that carry none (0 = no default).
    /// Stays a bare atomic: it is a mutable setting, not a metric.
    default_deadline_ms: AtomicU64,
}

/// Scheduler traffic counters (monotonic since construction), the
/// serving-layer complement of [`crate::cache::CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// `run_coalesced` calls that led an execution themselves (every
    /// call that did not join another caller's in-flight job; plain
    /// `run` bypasses coalescing and is not counted here).
    pub jobs_led: u64,
    /// Jobs answered by joining another caller's in-flight execution.
    pub jobs_coalesced: u64,
    /// Jobs in flight right now (gauge, not a counter).
    pub in_flight: usize,
    /// Panics caught at the job boundary and converted to
    /// [`ServiceError::Internal`].
    pub panics_caught: u64,
    /// Jobs cancelled with [`ServiceError::DeadlineExceeded`].
    pub deadlines_exceeded: u64,
}

/// A request resolved once ([`Scheduler::resolve`]): everything the
/// job key, validation and the context checkout read.
struct Job<'r> {
    /// The selected experiments, in request order.
    selected: Vec<&'r dyn Experiment>,
    /// The overrides applied to the scheduler's base.
    config: StudyConfig,
    /// [`crate::request::config_hash`] of `config`.
    config_hash: u64,
    /// The coalescing key ([`Scheduler::job_key`]).
    key: u64,
}

impl Scheduler {
    /// A scheduler with an explicit worker count and cache switch.
    /// The worker count is pinned end-to-end: it sizes this
    /// scheduler's experiment fan-out *and* the configuration's inner
    /// Monte-Carlo pools.
    pub fn with_options(base: StudyConfig, threads: usize, caching: bool) -> Self {
        Scheduler::over(base, threads, |base| {
            ContextPool::with_caching(base, caching)
        })
    }

    /// A caching scheduler compiling into an explicit artifact store
    /// (tests use this to count compiles with no other traffic).
    pub fn with_store(base: StudyConfig, threads: usize, store: Arc<ArtifactStore>) -> Self {
        Scheduler::over(base, threads, |base| {
            ContextPool::with_store(base, true, CONTEXT_POOL_BYTES, store)
        })
    }

    /// A scheduler over the pool `make_pool` builds from `base` with
    /// the worker count pinned in.
    fn over(
        mut base: StudyConfig,
        threads: usize,
        make_pool: impl FnOnce(StudyConfig) -> ContextPool,
    ) -> Self {
        let threads = threads.max(1);
        base.threads = threads;
        let pool = make_pool(base);
        let metrics = Arc::clone(pool.metrics());
        Scheduler {
            registry: Registry::paper(),
            pool,
            threads,
            inflight: InflightTable::new(),
            jobs_led: metrics.counter(sites::SVC_EXECUTED),
            jobs_coalesced: metrics.counter(sites::SVC_COALESCED),
            panics_caught: metrics.counter(sites::SVC_PANICS_CAUGHT),
            deadlines_exceeded: metrics.counter(sites::SVC_DEADLINE_EXCEEDED),
            default_deadline_ms: AtomicU64::new(0),
        }
    }

    /// Sets the deadline budget applied to requests that carry no
    /// `deadline_ms` of their own (0 disables the default). A
    /// request's explicit budget always wins.
    pub fn set_default_deadline_ms(&self, ms: u64) {
        self.default_deadline_ms.store(ms, Ordering::Relaxed);
    }

    /// The server-wide default deadline budget, if one is set.
    pub fn default_deadline_ms(&self) -> Option<u64> {
        match self.default_deadline_ms.load(Ordering::Relaxed) {
            0 => None,
            ms => Some(ms),
        }
    }

    /// The experiment registry jobs resolve against.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The content-addressed cache behind this scheduler.
    pub fn pool(&self) -> &ContextPool {
        &self.pool
    }

    /// The pinned worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Serving-layer traffic counters (led vs coalesced jobs, current
    /// in-flight gauge).
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            jobs_led: self.jobs_led.get(),
            jobs_coalesced: self.jobs_coalesced.get(),
            in_flight: self.inflight.len(),
            panics_caught: self.panics_caught.get(),
            deadlines_exceeded: self.deadlines_exceeded.get(),
        }
    }

    /// The identity two submissions must share to coalesce: the
    /// canonical config hash ([`crate::request::config_hash`] of the
    /// overrides resolved against this scheduler's base) extended with
    /// the resolved experiment selection (primary ids, request
    /// order). An empty selection and an explicit full-registry list
    /// therefore key identically, and alias spellings collapse onto
    /// their primary id.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Registry`] when the selection does not resolve,
    /// [`ServiceError::Config`] when a float knob is not finite.
    pub fn job_key(&self, request: &RunRequest) -> Result<u64, ServiceError> {
        self.resolve(request).map(|job| job.key)
    }

    /// Resolves a request once: its selection, its configuration, and
    /// from one canonical encoding both the config hash and the job
    /// key.
    fn resolve(&self, request: &RunRequest) -> Result<Job<'_>, ServiceError> {
        // No `..`: a new request field fails the build here until it
        // is keyed or bound to `_` as policy. The correlation id and
        // the deadline budget are policy, not work identity.
        let RunRequest {
            id: _,
            experiments,
            overrides,
            deadline_ms: _,
        } = request;
        let selected = self.select(experiments)?;
        let config = overrides.resolve(self.pool.base());
        reject_non_finite(&config)?;
        let mut identity = crate::request::canonical_config_json(&config);
        let config_hash = fnv1a(identity.as_bytes());
        for exp in &selected {
            identity.push('|');
            identity.push_str(exp.id());
        }
        Ok(Job {
            selected,
            config,
            config_hash,
            key: fnv1a(identity.as_bytes()),
        })
    }

    /// The experiments a selection names, in request order; an empty
    /// selection means the whole registry.
    fn select(&self, experiments: &[String]) -> Result<Vec<&dyn Experiment>, ServiceError> {
        let ids: Vec<&str> = if experiments.is_empty() {
            self.registry.iter().map(|e| e.id()).collect()
        } else {
            experiments.iter().map(String::as_str).collect()
        };
        Ok(self.registry.resolve(&ids)?)
    }

    /// Runs one job with in-flight coalescing: concurrent submissions
    /// of the same [`Scheduler::job_key`] block on a single execution
    /// and all receive the same shared [`JobResult`] (the leader's,
    /// accounting fields included — a coalesced response is the
    /// leader's response verbatim). The boolean is true when this call
    /// was coalesced onto another caller's execution.
    ///
    /// Correlation ids are *not* part of the key, so a coalesced
    /// caller's `request.id` may differ from the shared result's
    /// `request_id`; transports echo the caller's own id alongside.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the selection or configuration is
    /// invalid. Leaders share their error with every coalesced
    /// follower (errors are as deterministic as results).
    pub fn run_coalesced(
        &self,
        request: &RunRequest,
    ) -> Result<(Arc<JobResult>, bool), ServiceError> {
        self.run_coalesced_with_events(request, &mut |_| {})
    }

    /// [`Scheduler::run_coalesced`], streaming [`JobEvent`]s to `emit`
    /// when this call ends up leading the execution. Followers receive
    /// no events (the work happened on the leader's event stream).
    ///
    /// # Errors
    ///
    /// [`ServiceError`] as for [`Scheduler::run_coalesced`].
    pub fn run_coalesced_with_events(
        &self,
        request: &RunRequest,
        emit: &mut (dyn FnMut(JobEvent) + Send),
    ) -> Result<(Arc<JobResult>, bool), ServiceError> {
        let job = self.resolve(request)?;
        let key = job.key;
        loop {
            match self.inflight.begin(key) {
                Begin::Leader(leader) => {
                    let _span = qods_obs::span!(sites::SVC_COALESCE, {
                        role: "leader",
                        config_hash: key
                    });
                    self.jobs_led.inc();
                    let outcome = self.run_guarded(request, job, emit).map(Arc::new);
                    leader.complete(outcome.clone());
                    return outcome.map(|r| (r, false));
                }
                Begin::Follower(follower) => {
                    let _span = qods_obs::span!(sites::SVC_COALESCE, {
                        role: "follower",
                        config_hash: key
                    });
                    match follower.wait() {
                        Some(outcome) => {
                            self.jobs_coalesced.inc();
                            return outcome.map(|r| (r, true));
                        }
                        // Leader unwound without publishing: retry
                        // (this caller may lead now).
                        None => continue,
                    }
                }
            }
        }
    }

    /// Runs one job to completion (no event streaming).
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the experiment selection is invalid;
    /// nothing runs in that case.
    pub fn run(&self, request: &RunRequest) -> Result<JobResult, ServiceError> {
        self.run_with_events(request, &mut |_| {})
    }

    /// Runs one job, streaming [`JobEvent`]s as experiments finish.
    /// Events may be emitted from worker threads (serialized through
    /// a lock), which is what makes the progress *streaming* rather
    /// than batched at the end.
    ///
    /// This is the scheduler's isolation boundary: the job runs under
    /// its deadline budget (the request's `deadline_ms`, else the
    /// server-wide default) inside a `catch_unwind` guard, so a
    /// panicking experiment or an expired deadline is a typed
    /// [`ServiceError`] — the scheduler, its caches, and every other
    /// job keep working. Every public entry point
    /// (`run`, `run_coalesced*`) funnels through its guarded half,
    /// after resolving the request once.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the experiment selection is invalid,
    /// [`ServiceError::Internal`] when the job panicked, or
    /// [`ServiceError::DeadlineExceeded`] when it overran its budget.
    pub fn run_with_events(
        &self,
        request: &RunRequest,
        emit: &mut (dyn FnMut(JobEvent) + Send),
    ) -> Result<JobResult, ServiceError> {
        let job = self.resolve(request)?;
        self.run_guarded(request, job, emit)
    }

    /// The guarded half of [`Scheduler::run_with_events`], for a
    /// request already resolved into `job`.
    fn run_guarded(
        &self,
        request: &RunRequest,
        job: Job<'_>,
        emit: &mut (dyn FnMut(JobEvent) + Send),
    ) -> Result<JobResult, ServiceError> {
        let budget = request.deadline_ms.or(self.default_deadline_ms());
        // qods-lint: allow(D1) -- deadline arming; cancellation is
        // all-or-nothing, so the clock never shapes a result
        let deadline = budget.map(|ms| Instant::now() + Duration::from_millis(ms));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            qods_pool::with_deadline(deadline, || self.run_job(request, job, emit))
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => {
                if payload.downcast_ref::<qods_pool::DeadlineHit>().is_some() {
                    self.deadlines_exceeded.inc();
                    Err(ServiceError::DeadlineExceeded)
                } else {
                    self.panics_caught.inc();
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic payload".to_string());
                    Err(ServiceError::Internal { message })
                }
            }
        }
    }

    /// The unguarded job body — only ever called from inside
    /// [`Scheduler::run_guarded`]'s catch/deadline guard.
    fn run_job(
        &self,
        request: &RunRequest,
        job: Job<'_>,
        emit: &mut (dyn FnMut(JobEvent) + Send),
    ) -> Result<JobResult, ServiceError> {
        let Job {
            selected,
            config,
            config_hash,
            key: _,
        } = job;

        // Validate the benchmark width and the sweep and synthesis
        // overrides before building anything: a bad value must be a
        // typed rejection, not a panic inside compilation or a sweep.
        for spec in qods_core::compile::paper_specs(config.n_bits) {
            spec.validate()?;
        }
        validate_config(&config)?;

        // qods-lint: allow(D1) -- job wall-time telemetry; reported in
        // events/stats, excluded from hashed result lines
        let t0 = Instant::now();
        let (entry, context_hit) = self.pool.checkout(config, config_hash);
        let _span = qods_obs::span!(sites::SVC_SCHEDULE, {
            config_hash: entry.hash(),
            cache: if context_hit { "hit" } else { "miss" }
        });
        emit(JobEvent::Started {
            request_id: request.id.clone(),
            config_hash: entry.hash(),
            experiments: selected.len(),
            context_hit,
        });

        let mut slots: Vec<Option<ExperimentRecord>> = vec![None; selected.len()];
        let mut misses: Vec<(usize, &dyn Experiment)> = Vec::new();
        for (i, exp) in selected.iter().enumerate() {
            match entry.cached_output(exp.id()) {
                Some(output) => {
                    emit(JobEvent::ExperimentDone {
                        request_id: request.id.clone(),
                        experiment: exp.id().to_string(),
                        cache_hit: true,
                        seconds: 0.0,
                    });
                    slots[i] = Some(ExperimentRecord {
                        id: exp.id().to_string(),
                        title: exp.title().to_string(),
                        seconds: 0.0,
                        output,
                    });
                }
                None => misses.push((i, *exp)),
            }
        }
        let output_hits = selected.len() - misses.len();
        let computed = self.compute_misses(request, &entry, &misses, emit);
        for (i, record) in computed {
            // A cold pool drops the entry when the job ends; don't
            // pay an output clone for a cache nobody will read.
            if self.pool.caching() {
                self.pool
                    .store_output(&entry, &record.id, record.output.clone());
            }
            slots[i] = Some(record);
        }
        self.pool
            .record_output_lookups(output_hits as u64, misses.len() as u64);

        Ok(JobResult {
            request_id: request.id.clone(),
            config_hash: entry.hash(),
            config: entry.context().config().clone(),
            context_hit,
            output_hits,
            computed: misses.len(),
            records: slots
                .into_iter()
                .map(|s| {
                    s.unwrap_or_else(|| unreachable!("every selected experiment produced a record"))
                })
                .collect(),
            seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// Runs the cache-missed experiments of one job as one
    /// [`run_planned`] job on the shared pool, streaming an event per
    /// finished experiment.
    fn compute_misses(
        &self,
        request: &RunRequest,
        entry: &Arc<PoolEntry>,
        misses: &[(usize, &dyn Experiment)],
        emit: &mut (dyn FnMut(JobEvent) + Send),
    ) -> Vec<(usize, ExperimentRecord)> {
        let request_id = request.id.clone();
        let emit = Mutex::new(emit);
        let selection: Vec<&dyn Experiment> = misses.iter().map(|&(_, exp)| exp).collect();
        let threads = self.threads.min(misses.len().max(1));
        run_planned(&selection, entry.context(), threads, |k, exp| {
            // Experiment boundaries are cancellation points even for
            // engines with no inner chunk loop.
            qods_pool::check_deadline();
            // Parents to the pool.worker span the pool opened on this
            // thread (or the caller's span on the inline path).
            let _span = qods_obs::span!(sites::JOB_EXPERIMENT, { detail: exp.id() });
            // qods-lint: allow(D1) -- per-experiment wall-time telemetry
            let t = Instant::now();
            let output = exp.run(entry.context());
            let seconds = t.elapsed().as_secs_f64();
            (plock(&emit))(JobEvent::ExperimentDone {
                request_id: request_id.clone(),
                experiment: exp.id().to_string(),
                cache_hit: false,
                seconds,
            });
            (
                misses[k].0,
                ExperimentRecord {
                    id: exp.id().to_string(),
                    title: exp.title().to_string(),
                    seconds,
                    output,
                },
            )
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::request::Overrides;

    fn smoke_request(ids: &[&str]) -> RunRequest {
        RunRequest::of(ids.iter().copied()).with_overrides(Overrides {
            n_bits: Some(8),
            mc_trials: Some(2_000),
            noise_scale: Some(10.0),
            synth_max_t: Some(8),
            sweep_points: Some(5),
            profile_samples: Some(32),
            ..Overrides::default()
        })
    }

    /// A caching scheduler over its own store, so the store's compile
    /// count is this test's alone.
    fn private_scheduler() -> Scheduler {
        Scheduler::with_store(
            StudyConfig::smoke(),
            2,
            Arc::new(ArtifactStore::in_memory()),
        )
    }

    /// Kernel artifacts `sched`'s store has compiled.
    fn compiled(sched: &Scheduler) -> u64 {
        sched.pool().store().stats().computed
    }

    #[test]
    fn repeated_request_is_served_from_cache_with_zero_relowering() {
        let sched = private_scheduler();
        let req = smoke_request(&["table2", "table3", "fig7"]);
        let first = sched.run(&req).expect("first run");
        assert!(!first.context_hit);
        assert_eq!((first.output_hits, first.computed), (0, 3));
        // ir, sched and char of the three benchmark kernels.
        assert_eq!(compiled(&sched), 9);

        let second = sched.run(&req).expect("second run");
        assert!(second.context_hit);
        assert_eq!((second.output_hits, second.computed), (3, 0));
        // The whole point: the repeat re-lowered nothing.
        assert_eq!(compiled(&sched), 9);
        for (a, b) in first.records.iter().zip(&second.records) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.output, b.output);
        }
    }

    #[test]
    fn requests_differing_only_in_experiments_share_the_context() {
        let sched = private_scheduler();
        sched
            .run(&smoke_request(&["table2", "sec33"]))
            .expect("first");
        let second = sched
            .run(&smoke_request(&["table3", "table9"]))
            .expect("second");
        assert!(second.context_hit, "same overrides must share the context");
        assert_eq!(compiled(&sched), 9);
        assert_eq!(sched.pool().len(), 1);
    }

    #[test]
    fn empty_selection_runs_the_full_registry() {
        let sched = Scheduler::with_options(StudyConfig::smoke(), 4, true);
        let req = RunRequest::default();
        let result = sched.run(&req).expect("full run");
        assert_eq!(result.records.len(), Registry::paper().len());
        assert_eq!(result.computed, result.records.len());
    }

    #[test]
    fn invalid_selections_are_typed_errors_and_run_nothing() {
        let sched = private_scheduler();
        let err = sched
            .run(&RunRequest::of(["table9", "nope"]))
            .expect_err("unknown id");
        assert_eq!(
            err,
            ServiceError::Registry(RegistryError::Unknown {
                id: "nope".to_string()
            })
        );
        for ids in [["table5", "table6"], ["table9", "table9"]] {
            let err = sched.run(&RunRequest::of(ids)).expect_err("duplicate");
            assert!(matches!(
                err,
                ServiceError::Registry(RegistryError::Duplicate { .. })
            ));
        }
        assert_eq!(compiled(&sched), 0);
        assert!(sched.pool().is_empty());
    }

    #[test]
    fn out_of_bounds_widths_are_typed_errors_not_panics() {
        let sched = Scheduler::with_options(StudyConfig::smoke(), 2, true);
        for bad in [0usize, 4096] {
            let req = RunRequest::of(["table2"]).with_overrides(Overrides {
                n_bits: Some(bad),
                ..Overrides::default()
            });
            let err = sched.run(&req).expect_err("bad width must be rejected");
            assert!(matches!(err, ServiceError::Kernel(_)), "{err}");
            assert!(err.to_string().contains("invalid width"), "{err}");
        }
        assert!(sched.pool().is_empty(), "rejected jobs build no context");
    }

    #[test]
    fn unrunnable_overrides_are_typed_errors_not_panics() {
        let sched = Scheduler::with_options(StudyConfig::smoke(), 2, true);
        type Edit = fn(&mut Overrides);
        // Huge sizes are only ever validated, never allocated.
        let cases: [(&str, Edit); 15] = [
            ("sweep_points", |o| o.sweep_points = Some(1)),
            ("sweep_points", |o| o.sweep_points = Some(0)),
            ("sweep_points", |o| {
                o.sweep_points = Some(MAX_SWEEP_POINTS + 1)
            }),
            ("sweep_points", |o| o.sweep_points = Some(usize::MAX)),
            ("profile_samples", |o| {
                o.profile_samples = Some(MAX_PROFILE_SAMPLES + 1)
            }),
            ("profile_samples", |o| o.profile_samples = Some(usize::MAX)),
            ("sweep_min_area", |o| o.sweep_min_area = Some(0.0)),
            ("sweep_min_area", |o| o.sweep_min_area = Some(-5.0)),
            ("sweep_min_area", |o| o.sweep_min_area = Some(f64::INFINITY)),
            ("sweep_max_area", |o| {
                o.sweep_min_area = Some(5e5);
                o.sweep_max_area = Some(1e3);
            }),
            ("sweep_max_area", |o| {
                o.sweep_min_area = Some(1e3);
                o.sweep_max_area = Some(1e3);
            }),
            ("synth_max_t", |o| o.synth_max_t = Some(MAX_SYNTH_T + 1)),
            // No JSON form, so no job key either.
            ("noise_scale", |o| o.noise_scale = Some(f64::INFINITY)),
            ("synth_target", |o| o.synth_target = Some(f64::NAN)),
            ("sweep_max_area", |o| o.sweep_max_area = Some(f64::INFINITY)),
        ];
        for (field, set) in cases {
            let mut overrides = Overrides {
                n_bits: Some(8),
                ..Overrides::default()
            };
            set(&mut overrides);
            let req = RunRequest::of(["fig15"]).with_overrides(overrides);
            let err = sched.run(&req).expect_err("must be rejected");
            assert!(
                matches!(&err, ServiceError::Config { field: f, .. } if *f == field),
                "{field}: {err}"
            );
            assert!(err.to_string().contains(field), "{err}");
            let coalesced = sched.run_coalesced(&req).expect_err("must be rejected");
            assert_eq!(coalesced, err, "{field}: the coalesced path agrees");
        }
        assert!(sched.pool().is_empty(), "rejected jobs build no context");
        assert_eq!(sched.stats().panics_caught, 0);
    }

    #[test]
    fn the_size_and_synthesis_bounds_are_inclusive() {
        let mut cfg = StudyConfig::smoke();
        cfg.synth_max_t = MAX_SYNTH_T;
        cfg.sweep_points = MAX_SWEEP_POINTS;
        cfg.profile_samples = MAX_PROFILE_SAMPLES;
        assert_eq!(validate_config(&cfg), Ok(()));
        assert_eq!(validate_config(&StudyConfig::default()), Ok(()));
    }

    #[test]
    fn events_stream_one_start_and_one_done_per_experiment() {
        let sched = Scheduler::with_options(StudyConfig::smoke(), 2, true);
        let req = smoke_request(&["table2", "table3"]);
        let mut events = Vec::new();
        sched
            .run_with_events(&req, &mut |e| events.push(e))
            .expect("run");
        let starts = events
            .iter()
            .filter(|e| matches!(e, JobEvent::Started { .. }))
            .count();
        let done: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                JobEvent::ExperimentDone { cache_hit, .. } => Some(*cache_hit),
                _ => None,
            })
            .collect();
        assert_eq!(starts, 1);
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|hit| !hit), "cold run computes everything");

        // The repeat streams the same shape, all hits.
        let mut events = Vec::new();
        sched
            .run_with_events(&req, &mut |e| events.push(e))
            .expect("repeat");
        let done: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                JobEvent::ExperimentDone { cache_hit, .. } => Some(*cache_hit),
                _ => None,
            })
            .collect();
        assert_eq!(done, vec![true, true]);
    }
}
