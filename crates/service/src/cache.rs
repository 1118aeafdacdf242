//! The content-addressed output cache.
//!
//! A [`ContextPool`] caches finished [`ExperimentOutput`]s under one
//! key, `(config hash, experiment id)`, where the hash is
//! [`crate::request::config_hash`] of the request's resolved
//! configuration: a repeated `(config, experiment)` pair is served
//! without recomputing anything, whichever other experiments the two
//! requests select. The cache is one least-recently-used map bounded
//! by bytes, not entries: each output is charged its size plus its
//! heap ([`HeapBytes`]) when it is stored, and least-recently-used
//! outputs go once the total passes [`CONTEXT_POOL_BYTES`].
//!
//! Study contexts are not cached: a [`StudyContext`] is cheap to build
//! and holds no artifact itself, so each job builds its own
//! ([`ContextPool::context`]). The lowered kernels live in the
//! [`ArtifactStore`] underneath, which compiles each one once for
//! every job that shares the store (test-asserted through its
//! `computed` counter).

use qods_core::compile::{ArtifactStore, HeapBytes, Lru};
use qods_core::experiment::{ExperimentOutput, StudyContext};
use qods_core::study::StudyConfig;
use qods_obs::{sites, Counter, Gauge, Registry};
use qods_pool::plock;
use std::sync::{Arc, Mutex};

/// Bound on the bytes the pool retains, summed over its outputs'
/// charges (see [`ContextPool::store_output`]). The 14 outputs of one
/// paper-configuration job are charged 21.3 KB in all, over half of it
/// the Fig 7 demand profiles, so the pool holds 49 such full jobs; a
/// few experiments at a narrow width weigh a few KB, and it holds
/// hundreds of those. Finite, so a long-running daemon cannot be grown
/// without bound by a client streaming never-repeating overrides. (The
/// artifact store underneath is bounded the same way, by
/// [`qods_core::compile::MEM_TIER_BYTES`].)
pub const CONTEXT_POOL_BYTES: usize = 1 << 20;

/// Cache traffic counters (monotonic since pool creation). A job
/// counts as a context hit when at least one of its outputs was
/// cached, and as a context miss otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Jobs served at least one output from the cache.
    pub context_hits: u64,
    /// Jobs that found none of their outputs cached.
    pub context_misses: u64,
    /// Experiment results served from a cached output.
    pub output_hits: u64,
    /// Experiment results that had to be computed.
    pub output_misses: u64,
}

/// The content-addressed cache of experiment outputs, and the
/// artifact store jobs compile into.
#[derive(Debug)]
pub struct ContextPool {
    base: StudyConfig,
    /// The artifact store a caching pool's jobs compile into — kernel
    /// artifacts outlive output eviction, so re-running an evicted
    /// configuration re-runs experiments but never re-lowers circuits
    /// another configuration already compiled. A cold pool has none:
    /// each of its jobs compiles into a throwaway store of its own.
    store: Option<Arc<ArtifactStore>>,
    /// The retained outputs by `(config hash, experiment id)`, at most
    /// [`CONTEXT_POOL_BYTES`] of them by charge. A lookup hit counts
    /// as a use, so a hot output survives any amount of one-off
    /// traffic. Lock poisoning is ignored: every write is one insert
    /// of an already-computed value, and `Lru` keeps its own invariant
    /// even if a holder unwound.
    outputs: Mutex<Lru<(u64, &'static str), ExperimentOutput>>,
    /// The serving stack's metrics registry. The pool creates it (it
    /// is the bottom of the serving-side object graph) and the
    /// scheduler and server above register their own counters into
    /// the same instance, so one snapshot covers the whole stack.
    metrics: Arc<Registry>,
    context_hits: Arc<Counter>,
    context_misses: Arc<Counter>,
    output_hits: Arc<Counter>,
    output_misses: Arc<Counter>,
    context_evictions: Arc<Counter>,
    /// The retained outputs' charged bytes, set after every insert: at
    /// most the budget unless one output alone is larger.
    context_bytes: Arc<Gauge>,
}

impl ContextPool {
    /// A pool with caching switched on or off, retaining at most
    /// [`CONTEXT_POOL_BYTES`] of outputs; growing past the bound
    /// evicts least-recently-used outputs (the cache is semantically
    /// transparent: eviction only costs a recompute on the next
    /// request for that output). With caching off nothing is retained
    /// — the "cold service" baseline the load generator measures
    /// against.
    ///
    /// A caching pool compiles into the process-wide shared
    /// [`ArtifactStore`] (warm-process and — when a disk tier is
    /// configured — cold-process kernel reuse); a non-caching pool
    /// hands every job a throwaway in-memory store so the "cold
    /// service" baseline really recompiles everything.
    pub fn with_caching(base: StudyConfig, caching: bool) -> Self {
        let store = caching.then(ArtifactStore::process);
        ContextPool::new(base, CONTEXT_POOL_BYTES, store)
    }

    /// A caching pool retaining at most `budget` bytes of outputs and
    /// compiling into an explicit artifact store (tests use this to
    /// control cache scope and size).
    pub fn with_store(base: StudyConfig, budget: usize, store: Arc<ArtifactStore>) -> Self {
        ContextPool::new(base, budget, Some(store))
    }

    /// A pool over `store`, caching when it has one.
    fn new(base: StudyConfig, budget: usize, store: Option<Arc<ArtifactStore>>) -> Self {
        let metrics = Arc::new(Registry::new());
        let context_hits = metrics.counter(sites::CACHE_CONTEXT_HITS);
        let context_misses = metrics.counter(sites::CACHE_CONTEXT_MISSES);
        let output_hits = metrics.counter(sites::CACHE_OUTPUT_HITS);
        let output_misses = metrics.counter(sites::CACHE_OUTPUT_MISSES);
        let context_evictions = metrics.counter(sites::CACHE_CONTEXT_EVICTIONS);
        let context_bytes = metrics.gauge(sites::CACHE_CONTEXT_BYTES);
        ContextPool {
            base,
            store,
            outputs: Mutex::new(Lru::new(budget)),
            metrics,
            context_hits,
            context_misses,
            output_hits,
            output_misses,
            context_evictions,
            context_bytes,
        }
    }

    /// The metrics registry for this serving stack. Everything above
    /// the pool (scheduler, server) registers into it so one snapshot
    /// covers cache, coalescing, and connection counters together.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// The artifact store a caching pool's jobs compile into; `None`
    /// for a cold pool, whose jobs share none.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// The base configuration overrides resolve against.
    pub fn base(&self) -> &StudyConfig {
        &self.base
    }

    /// Whether this pool retains outputs.
    pub fn caching(&self) -> bool {
        self.store.is_some()
    }

    /// The study context a job runs under: over the pool's store when
    /// caching, and over a fresh in-memory store when not, so the cold
    /// baseline recompiles everything, every time, by construction.
    pub fn context(&self, config: StudyConfig) -> StudyContext {
        let store = match &self.store {
            Some(store) => Arc::clone(store),
            None => Arc::new(ArtifactStore::in_memory()),
        };
        StudyContext::with_store(config, store)
    }

    /// The cached output of experiment `id` under the configuration
    /// hashed `hash`, marked most recently used.
    pub fn cached(&self, hash: u64, id: &'static str) -> Option<ExperimentOutput> {
        plock(&self.outputs).get(&(hash, id)).cloned()
    }

    /// Caches a finished output (last write wins; outputs for a fixed
    /// configuration are deterministic, so overwrites are identical),
    /// charged its size plus its heap. The insert may evict other
    /// outputs, least recently used first.
    pub fn store_output(&self, hash: u64, id: &'static str, output: ExperimentOutput) {
        let charge = std::mem::size_of::<ExperimentOutput>() + output.heap_bytes();
        let mut outputs = plock(&self.outputs);
        let evicted = outputs.insert((hash, id), output, charge);
        self.context_evictions.add(evicted as u64);
        self.context_bytes.set(outputs.bytes() as i64);
    }

    /// Records one job's output lookups (called by the scheduler so
    /// the counters cover every job path): the job is a context hit
    /// when any output was cached.
    pub fn record_output_lookups(&self, hits: u64, misses: u64) {
        self.output_hits.add(hits);
        self.output_misses.add(misses);
        if hits > 0 {
            self.context_hits.inc();
        } else {
            self.context_misses.inc();
        }
    }

    /// Cache traffic so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            context_hits: self.context_hits.get(),
            context_misses: self.context_misses.get(),
            output_hits: self.output_hits.get(),
            output_misses: self.output_misses.get(),
        }
    }

    /// How many outputs the pool holds.
    pub fn len(&self) -> usize {
        plock(&self.outputs).len()
    }

    /// Whether the pool holds no outputs yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::request::{config_hash, Overrides};
    use qods_core::registry::Registry;

    /// A caching smoke pool of `budget` bytes over its own store.
    fn private_pool(budget: usize) -> ContextPool {
        let store = Arc::new(ArtifactStore::in_memory());
        ContextPool::with_store(StudyConfig::smoke(), budget, store)
    }

    /// The hash `overrides` resolve to in `pool`, as the scheduler
    /// derives it.
    fn hash_of(pool: &ContextPool, overrides: &Overrides) -> u64 {
        config_hash(&overrides.resolve(pool.base()))
    }

    /// Runs experiment `id` on a context of `pool`'s base
    /// configuration.
    fn run(pool: &ContextPool, id: &str) -> ExperimentOutput {
        let registry = Registry::paper();
        let ctx = pool.context(pool.base().clone());
        registry.get(id).expect("registered").run(&ctx)
    }

    /// What the pool charges `output`.
    fn charge(output: &ExperimentOutput) -> usize {
        std::mem::size_of::<ExperimentOutput>() + output.heap_bytes()
    }

    #[test]
    fn outputs_are_content_addressed() {
        let pool = private_pool(CONTEXT_POOL_BYTES);
        let base = hash_of(&pool, &Overrides::default());
        assert!(pool.cached(base, "table1").is_none());
        let out = run(&pool, "table1");
        pool.store_output(base, "table1", out.clone());
        assert_eq!(pool.cached(base, "table1"), Some(out.clone()));
        // Explicitly writing the base value is the same content.
        let explicit = Overrides {
            n_bits: Some(pool.base().n_bits),
            ..Overrides::default()
        };
        assert_eq!(hash_of(&pool, &explicit), base);
        // A changed knob is different content.
        let changed = Overrides {
            n_bits: Some(pool.base().n_bits + 1),
            ..Overrides::default()
        };
        let other = hash_of(&pool, &changed);
        assert_ne!(other, base);
        assert!(pool.cached(other, "table1").is_none());
        pool.store_output(other, "table1", out);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let out = run(&private_pool(0), "table1");
        let pool = private_pool(2 * charge(&out));
        pool.store_output(1, "table1", out.clone());
        pool.store_output(2, "table1", out.clone());
        assert_eq!(pool.len(), 2);
        // Re-hitting output 1 makes output 2 the LRU one...
        assert!(pool.cached(1, "table1").is_some());
        // ...so a third output evicts 2, not 1 (under FIFO it would be
        // 1, the oldest-inserted).
        pool.store_output(3, "table1", out.clone());
        assert_eq!(pool.len(), 2);
        assert!(
            pool.cached(1, "table1").is_some(),
            "recently-used output must survive eviction"
        );
        assert!(
            pool.cached(2, "table1").is_none(),
            "LRU output must have been evicted"
        );
        // Storing 2 again evicts 3 (LRU after the 1-hits above).
        pool.store_output(2, "table1", out.clone());
        assert!(pool.cached(3, "table1").is_none());
        let metrics = pool.metrics();
        assert_eq!(metrics.counter(sites::CACHE_CONTEXT_EVICTIONS).get(), 2);
        let bytes = metrics.gauge(sites::CACHE_CONTEXT_BYTES).get() as usize;
        assert_eq!(bytes, 2 * charge(&out));
    }

    #[test]
    fn repeated_hits_pin_a_hot_entry_through_churn() {
        // Under a stream of one-off outputs, an output that keeps
        // getting hit is never evicted.
        let out = run(&private_pool(0), "table1");
        let pool = private_pool(3 * charge(&out));
        pool.store_output(0, "table1", out.clone());
        for n in 1..=20 {
            pool.store_output(n, "table1", out.clone()); // churn
            let again = pool.cached(0, "table1"); // keep 0 hot
            assert!(again.is_some(), "hot output evicted after churn {n}");
        }
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn a_cold_pool_retains_nothing() {
        let sched = crate::Scheduler::with_options(StudyConfig::smoke(), 1, false);
        let req = crate::RunRequest::of(["table1", "table5"]);
        for _ in 0..2 {
            let result = sched.run(&req).expect("cold run");
            assert!(!result.context_hit);
            assert_eq!((result.output_hits, result.computed), (0, 2));
        }
        let pool = sched.pool();
        assert!(pool.is_empty(), "cold pool retains nothing");
        // A cold pool holds no store, and every cold context compiles
        // into its own throwaway one.
        assert!(pool.store().is_none());
        let a = pool.context(pool.base().clone());
        let b = pool.context(pool.base().clone());
        assert!(!Arc::ptr_eq(a.compiler().store(), b.compiler().store()));
        // A caching pool's contexts share its store.
        let warm = private_pool(CONTEXT_POOL_BYTES);
        let c = warm.context(warm.base().clone());
        assert!(Arc::ptr_eq(
            c.compiler().store(),
            warm.store().expect("a caching pool's store")
        ));
    }

    #[test]
    fn artifact_memory_tier_stays_bounded_and_recompiles_evicted_configs() {
        use qods_core::compile::MEM_TIER_BYTES;
        // A narrow kernel and a loose synthesis budget keep each QFT
        // compile cheap; every distinct target is a new QFT artifact.
        let base = StudyConfig {
            n_bits: 8,
            synth_max_t: 4,
            synth_target: 0.3,
            ..StudyConfig::smoke()
        };
        let store = Arc::new(ArtifactStore::in_memory());
        let pool = ContextPool::with_store(base, CONTEXT_POOL_BYTES, Arc::clone(&store));
        let registry = Registry::paper();
        let table2 = |i: u64| {
            let overrides = Overrides {
                synth_target: Some(0.3 * (1.0 + i as f64 * 1e-7)),
                ..Overrides::default()
            };
            let ctx = pool.context(overrides.resolve(pool.base()));
            registry.get("table2").expect("table2").run(&ctx)
        };
        let held = || store.metrics().gauge(sites::STORE_MEM_BYTES).get() as usize;
        let first = table2(0);
        let mut filled = 0;
        while store.stats().evictions == 0 {
            filled += 1;
            assert!(filled < 100_000, "the tier never filled");
            table2(filled);
            assert!(held() <= MEM_TIER_BYTES, "config {filled}");
        }
        // Full: each artifact here is well under 1% of the budget, so
        // a tier that has started to evict holds over 99% of it.
        assert!(held() > MEM_TIER_BYTES / 100 * 99);
        // As many configurations again turn the whole tier over.
        for i in filled + 1..=2 * filled {
            table2(i);
            assert!(held() <= MEM_TIER_BYTES, "config {i}");
        }
        // Config 0's QFT artifacts are long evicted: asking again
        // recompiles them, into identical records.
        let computed = store.stats().computed;
        assert_eq!(table2(0), first);
        assert!(
            store.stats().computed > computed,
            "config 0 was not evicted"
        );
    }

    #[test]
    fn outputs_cache_per_experiment_id() {
        let pool = private_pool(CONTEXT_POOL_BYTES);
        let hash = hash_of(&pool, &Overrides::default());
        let out = run(&pool, "table1");
        pool.store_output(hash, "table1", out.clone());
        assert_eq!(pool.cached(hash, "table1"), Some(out));
        assert!(pool.cached(hash, "table2").is_none());
    }
}
