//! The content-addressed context and result cache.
//!
//! A [`ContextPool`] replaces ad-hoc `StudyContext::new` call sites:
//! contexts are checked out by the content hash of the request's
//! resolved configuration ([`crate::request::config_hash`]), so two
//! requests that differ only in *which* experiments they ask for
//! share one context. Finished [`ExperimentOutput`]s are cached on the
//! same entry keyed by experiment id, so a repeated
//! `(config, experiment)` pair is served without recomputing anything.
//! The pool is bounded by bytes, not entries: each entry is charged
//! its context's heap plus its cached outputs' heap ([`HeapBytes`]),
//! recharged whenever an output lands, and least-recently-used
//! entries go once the total passes [`CONTEXT_POOL_BYTES`].
//! The lowered kernels themselves live in the [`ArtifactStore`]
//! underneath, which compiles each one once for every context that
//! shares the store (test-asserted through its `computed` counter).

use qods_core::compile::{ArtifactStore, HeapBytes, Lru};
use qods_core::experiment::{ExperimentOutput, StudyContext};
use qods_core::study::StudyConfig;
use qods_obs::{sites, Counter, Gauge, Registry};
use qods_pool::plock;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Bound on the bytes the pool retains, summed over its entries'
/// charges (see [`ContextPool::with_caching`]). A context that has
/// answered every experiment at the paper configuration is charged
/// 25.9 KB (20.7 KB of outputs, over half of it the Fig 7 demand
/// profiles, plus 3.9 KB of context and synthesis cache), so the pool
/// holds 40 such full paper-config jobs; one that answered a few
/// experiments at a narrow width weighs a few KB, and it holds
/// hundreds of those. Finite, so a long-running daemon cannot be grown
/// without bound by a client streaming never-repeating overrides. (The
/// artifact store underneath is bounded the same way, by
/// [`qods_core::compile::MEM_TIER_BYTES`].)
pub const CONTEXT_POOL_BYTES: usize = 1 << 20;

/// One cached configuration: the shared context plus every finished
/// experiment output computed under it.
#[derive(Debug)]
pub struct PoolEntry {
    hash: u64,
    ctx: StudyContext,
    outputs: Mutex<HashMap<String, ExperimentOutput>>,
}

impl PoolEntry {
    fn new(hash: u64, config: StudyConfig, store: Arc<ArtifactStore>) -> Self {
        PoolEntry {
            hash,
            ctx: StudyContext::with_store(config, store),
            outputs: Mutex::new(HashMap::new()),
        }
    }

    /// The content hash this entry is addressed by.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The shared memoized context for this configuration.
    pub fn context(&self) -> &StudyContext {
        &self.ctx
    }

    /// The cached output of an experiment, if one finished here.
    ///
    /// Lock poisoning is deliberately ignored here and below: every
    /// write to the map is a single insert of an already-computed
    /// value, so a panicking holder can never leave it half-updated,
    /// and the serving path must survive a caught job panic.
    pub fn cached_output(&self, experiment_id: &str) -> Option<ExperimentOutput> {
        plock(&self.outputs).get(experiment_id).cloned()
    }

    /// The bytes the pool charges this entry: the entry itself, its
    /// context's heap, and its output table with every id and output.
    fn charge(&self) -> usize {
        let outputs = plock(&self.outputs);
        std::mem::size_of::<PoolEntry>()
            + self.ctx.heap_bytes()
            + outputs.capacity() * std::mem::size_of::<(String, ExperimentOutput)>()
            + outputs
                .iter()
                .map(|(id, output)| id.capacity() + output.heap_bytes())
                .sum::<usize>()
    }
}

/// Cache traffic counters (monotonic since pool creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Checkouts served by an existing context.
    pub context_hits: u64,
    /// Checkouts that had to build a context.
    pub context_misses: u64,
    /// Experiment results served from a cached output.
    pub output_hits: u64,
    /// Experiment results that had to be computed.
    pub output_misses: u64,
}

/// The content-addressed pool of study contexts.
#[derive(Debug)]
pub struct ContextPool {
    base: StudyConfig,
    caching: bool,
    /// The artifact store every retained context compiles into —
    /// kernel artifacts outlive context eviction, so re-admitting an
    /// evicted configuration re-runs experiments but never re-lowers
    /// circuits another configuration already compiled.
    store: Arc<ArtifactStore>,
    /// The retained entries by config hash, at most
    /// [`CONTEXT_POOL_BYTES`] of them by charge. A checkout hit or a
    /// stored output counts as a use, so a hot configuration survives
    /// any amount of one-off traffic.
    entries: Mutex<Lru<u64, Arc<PoolEntry>>>,
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
    /// The retained entries' charged bytes, set after every change: at
    /// most the budget unless one entry alone is larger.
    context_bytes: Arc<Gauge>,
}

impl ContextPool {
    /// A pool with caching switched on or off, retaining at most
    /// [`CONTEXT_POOL_BYTES`] of configurations; growing past the
    /// bound evicts least-recently-used entries (jobs still
    /// holding an evicted `Arc` finish normally — the cache is
    /// semantically transparent, eviction only costs a recompute on
    /// the next request for that configuration). With caching off
    /// every checkout builds a fresh context and nothing is retained —
    /// the "cold service" baseline the load generator measures
    /// against.
    ///
    /// A caching pool compiles into the process-wide shared
    /// [`ArtifactStore`] (warm-process and — when a disk tier is
    /// configured — cold-process kernel reuse); a non-caching pool
    /// hands every checkout a throwaway in-memory store so the "cold
    /// service" baseline really recompiles everything.
    pub fn with_caching(base: StudyConfig, caching: bool) -> Self {
        let store = if caching {
            ArtifactStore::process()
        } else {
            Arc::new(ArtifactStore::in_memory())
        };
        ContextPool::with_store(base, caching, CONTEXT_POOL_BYTES, store)
    }

    /// A pool retaining at most `budget` bytes of configurations and
    /// compiling into an explicit artifact store (tests use this to
    /// control cache scope and size).
    pub fn with_store(
        base: StudyConfig,
        caching: bool,
        budget: usize,
        store: Arc<ArtifactStore>,
    ) -> Self {
        let metrics = Arc::new(Registry::new());
        let context_hits = metrics.counter(sites::CACHE_CONTEXT_HITS);
        let context_misses = metrics.counter(sites::CACHE_CONTEXT_MISSES);
        let output_hits = metrics.counter(sites::CACHE_OUTPUT_HITS);
        let output_misses = metrics.counter(sites::CACHE_OUTPUT_MISSES);
        let context_evictions = metrics.counter(sites::CACHE_CONTEXT_EVICTIONS);
        let context_bytes = metrics.gauge(sites::CACHE_CONTEXT_BYTES);
        ContextPool {
            base,
            caching,
            store,
            entries: Mutex::new(Lru::new(budget)),
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

    /// The artifact store retained contexts compile into.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// The base configuration overrides resolve against.
    pub fn base(&self) -> &StudyConfig {
        &self.base
    }

    /// Whether this pool retains contexts and outputs.
    pub fn caching(&self) -> bool {
        self.caching
    }

    /// Checks out the entry for a resolved configuration and its
    /// [`crate::request::config_hash`] (building it on first sight) and
    /// reports whether it was a cache hit. The caller resolves and
    /// hashes once per job; the pool only looks the hash up.
    pub fn checkout(&self, config: StudyConfig, hash: u64) -> (Arc<PoolEntry>, bool) {
        debug_assert_eq!(hash, crate::request::config_hash(&config));
        let mut span = qods_obs::span!(sites::SVC_CONTEXT);
        span.note_config_hash(hash);
        if !self.caching {
            self.context_misses.inc();
            span.note_cache("miss");
            // Fresh throwaway store per checkout: the cold baseline
            // recompiles everything, every time, by construction.
            let store = Arc::new(ArtifactStore::in_memory());
            return (Arc::new(PoolEntry::new(hash, config, store)), false);
        }
        // Poison-tolerant like the entry locks above: `Lru` recovers
        // its own invariant even if a previous holder unwound
        // mid-checkout.
        let mut retained = plock(&self.entries);
        if let Some(entry) = retained.get(&hash) {
            let entry = Arc::clone(entry);
            self.context_hits.inc();
            span.note_cache("hit");
            return (entry, true);
        }
        self.context_misses.inc();
        span.note_cache("miss");
        let entry = Arc::new(PoolEntry::new(hash, config, Arc::clone(&self.store)));
        let evicted = retained.insert(hash, Arc::clone(&entry), entry.charge());
        self.record_retention(&retained, evicted);
        (entry, false)
    }

    /// Caches a finished output on `entry` (last write wins; outputs
    /// for a fixed configuration are deterministic, so overwrites are
    /// identical) and, if the pool still holds that entry, recharges
    /// it — which may evict other entries.
    pub fn store_output(
        &self,
        entry: &Arc<PoolEntry>,
        experiment_id: &str,
        output: ExperimentOutput,
    ) {
        plock(&entry.outputs).insert(experiment_id.to_string(), output);
        let mut retained = plock(&self.entries);
        // An entry evicted while its job ran is charged nowhere; a
        // rebuilt entry under the same hash is not this one.
        if retained
            .get(&entry.hash)
            .is_some_and(|held| Arc::ptr_eq(held, entry))
        {
            let evicted = retained.recharge(&entry.hash, entry.charge());
            self.record_retention(&retained, evicted);
        }
    }

    /// Publishes the retained bytes and any evictions to the registry.
    fn record_retention(&self, retained: &Lru<u64, Arc<PoolEntry>>, evicted: usize) {
        self.context_evictions.add(evicted as u64);
        self.context_bytes.set(retained.bytes() as i64);
    }

    /// Records the outcome of output lookups (called by the
    /// scheduler so the counters cover every job path).
    pub fn record_output_lookups(&self, hits: u64, misses: u64) {
        self.output_hits.add(hits);
        self.output_misses.add(misses);
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

    /// How many distinct configurations the pool holds.
    pub fn len(&self) -> usize {
        plock(&self.entries).len()
    }

    /// Whether the pool holds no contexts yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::request::{config_hash, Overrides};

    /// Checks `overrides` out of `pool`, resolved and hashed once as
    /// the scheduler does.
    fn checkout(pool: &ContextPool, overrides: &Overrides) -> (Arc<PoolEntry>, bool) {
        let config = overrides.resolve(pool.base());
        let hash = config_hash(&config);
        pool.checkout(config, hash)
    }

    /// A caching smoke pool of `budget` bytes over its own store.
    fn private_pool(budget: usize) -> ContextPool {
        let store = Arc::new(ArtifactStore::in_memory());
        ContextPool::with_store(StudyConfig::smoke(), true, budget, store)
    }

    /// The charge of a smoke entry that has cached no output yet (a
    /// seed override changes no charge).
    fn fresh_charge() -> usize {
        let store = Arc::new(ArtifactStore::in_memory());
        PoolEntry::new(0, StudyConfig::smoke(), store).charge()
    }

    #[test]
    fn checkout_is_content_addressed() {
        let pool = private_pool(CONTEXT_POOL_BYTES);
        let (a, hit_a) = checkout(&pool, &Overrides::default());
        let (b, hit_b) = checkout(&pool, &Overrides::default());
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "same config must share one entry");
        // Explicitly writing the base value is the same content.
        let explicit = Overrides {
            n_bits: Some(pool.base().n_bits),
            ..Overrides::default()
        };
        let (c, hit_c) = checkout(&pool, &explicit);
        assert!(hit_c && Arc::ptr_eq(&a, &c));
        // A changed knob is different content.
        let changed = Overrides {
            n_bits: Some(pool.base().n_bits + 1),
            ..Overrides::default()
        };
        let (d, hit_d) = checkout(&pool, &changed);
        assert!(!hit_d && !Arc::ptr_eq(&a, &d));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stats().context_hits, 2);
        assert_eq!(pool.stats().context_misses, 2);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let pool = private_pool(2 * fresh_charge());
        let ov = |n: usize| Overrides {
            seed: Some(n as u64),
            ..Overrides::default()
        };
        let (first, _) = checkout(&pool, &ov(1));
        checkout(&pool, &ov(2));
        assert_eq!(pool.len(), 2);
        // Re-hitting config 1 makes config 2 the LRU entry...
        let (_, hit) = checkout(&pool, &ov(1));
        assert!(hit);
        // ...so a third distinct config evicts 2, not 1 (under FIFO
        // it would be 1, the oldest-inserted).
        checkout(&pool, &ov(3));
        assert_eq!(pool.len(), 2);
        let (still_one, hit1) = checkout(&pool, &ov(1));
        assert!(hit1, "recently-used entry must survive eviction");
        assert!(Arc::ptr_eq(&first, &still_one));
        let (_, hit2) = checkout(&pool, &ov(2));
        assert!(!hit2, "LRU entry must have been evicted");
        // That rebuild of 2 evicted 3 (LRU after the 1-hits above).
        let (_, hit3) = checkout(&pool, &ov(3));
        assert!(!hit3);
        // The still-held Arc from before eviction stays usable.
        assert_eq!(first.context().config().seed, 1);
        assert_eq!(plock(&pool.entries).bytes(), 2 * fresh_charge());
    }

    #[test]
    fn repeated_hits_pin_a_hot_entry_through_churn() {
        // The satellite contract: under a stream of one-off configs,
        // an entry that keeps getting hit is never evicted.
        let pool = private_pool(3 * fresh_charge());
        let ov = |n: u64| Overrides {
            seed: Some(n),
            ..Overrides::default()
        };
        let (hot, _) = checkout(&pool, &ov(0));
        for n in 1..=20 {
            checkout(&pool, &ov(n)); // churn
            let (again, hit) = checkout(&pool, &ov(0)); // keep 0 hot
            assert!(hit, "hot entry evicted after churn config {n}");
            assert!(Arc::ptr_eq(&hot, &again));
        }
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn disabled_caching_always_builds_fresh() {
        let pool = ContextPool::with_caching(StudyConfig::smoke(), false);
        let (a, hit_a) = checkout(&pool, &Overrides::default());
        let (b, hit_b) = checkout(&pool, &Overrides::default());
        assert!(!hit_a && !hit_b);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(pool.is_empty(), "cold pool retains nothing");
    }

    #[test]
    fn artifact_memory_tier_stays_bounded_and_recompiles_evicted_configs() {
        use qods_core::compile::MEM_TIER_BYTES;
        use qods_core::registry::Registry;
        // A narrow kernel and a loose synthesis budget keep each QFT
        // compile cheap; every distinct target is a new QFT artifact.
        let base = StudyConfig {
            n_bits: 8,
            synth_max_t: 4,
            synth_target: 0.3,
            ..StudyConfig::smoke()
        };
        let store = Arc::new(ArtifactStore::in_memory());
        let pool = ContextPool::with_store(base, true, CONTEXT_POOL_BYTES, Arc::clone(&store));
        let registry = Registry::paper();
        let table2 = |i: u64| {
            let overrides = Overrides {
                synth_target: Some(0.3 * (1.0 + i as f64 * 1e-7)),
                ..Overrides::default()
            };
            let (entry, _) = checkout(&pool, &overrides);
            registry.get("table2").expect("table2").run(entry.context())
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
        // Config 0's context and QFT artifacts are long evicted: asking
        // again recompiles them, into identical records.
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
        let (entry, _) = checkout(&pool, &Overrides::default());
        assert!(entry.cached_output("table1").is_none());
        let registry = qods_core::registry::Registry::paper();
        let out = registry.get("table1").expect("table1").run(entry.context());
        pool.store_output(&entry, "table1", out.clone());
        assert_eq!(entry.cached_output("table1"), Some(out));
        assert!(entry.cached_output("table2").is_none());
    }
}
