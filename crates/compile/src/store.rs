//! The two-tier content-addressed artifact store.
//!
//! Tier 1 is an in-process map of `Arc`-shared artifacts (warm-process
//! hits: any number of study contexts in one process share each
//! compiled artifact), bounded to [`MEM_TIER_BYTES`] with
//! least-recently-used eviction. Each artifact is charged its own size
//! plus the heap it owns ([`HeapBytes`]) when it is inserted, so a
//! QFT-48 lowering weighs 147 KB and a two-gate IR under 100 bytes.
//! Tier 2 is an optional on-disk store of versioned JSON files
//! (cold-process hits: a fresh process reuses what an earlier one
//! compiled).
//!
//! ## Disk format and versioning
//!
//! One file per artifact, named `<stage>-<hash16>.json`, holding a
//! versioned envelope:
//!
//! ```text
//! {"schema": 1, "stage": "sched", "key": "1f2e...", "payload": {...}}
//! ```
//!
//! Writes are atomic (temp file + rename) so a crashed or concurrent
//! writer can never leave a half-written artifact under the final
//! name. Reads are corruption-tolerant: *any* defect — unreadable
//! file, malformed JSON, schema/stage/key mismatch, payload that
//! fails typed deserialization — counts as a miss (and bumps
//! [`StoreStats::corrupt_reads`]); the artifact is recomputed and the
//! file rewritten. A bad cache can cost a recompute, never a crash
//! and never a wrong answer.
//!
//! ## Single flight
//!
//! The store is the one compute-once memo for compiled artifacts:
//! lookups of a missing key join the computation already in flight
//! for it ([`InflightTable`]) instead of starting a second one. The
//! first caller leads — it re-checks the memory tier, then reads disk
//! or computes, inserts into the memory tier and only then completes
//! — and every concurrent caller follows, blocking until the leader
//! publishes and counting as a memory hit. A leader that panics or
//! hits its deadline abandons the key, and its followers retry (one
//! of them leads next). So `computed` counts distinct keys, at any
//! thread count.
//!
//! One rule keeps a blocking follower deadlock-free: **a compute
//! closure must never fan out on the `qods-pool` workers.** A leader
//! that waited on a fan-out would help run other tasks on its own
//! thread, and a task that looked up the key it leads would follow
//! itself forever. Compute closures may look up other keys (the
//! `sched` stage pulls `ir`; `char` only peeks at `sched`, without
//! waiting); stage keys chain one way, so those nested waits always
//! end.
//!
//! ## Invalidation
//!
//! There is none, by construction: keys are content hashes of
//! everything the artifact depends on (spec, stage, relevant
//! parameters, [`ARTIFACT_SCHEMA`]), so changing any input addresses
//! a different file and stale entries are simply never read again.
//! Bumping [`ARTIFACT_SCHEMA`] (when an artifact *encoding* changes
//! shape) retires every existing file the same way.
//!
//! ## Store location
//!
//! The `QODS_ARTIFACT_DIR` environment variable overrides the disk
//! location everywhere (CI and sandboxes point it at a workspace-local
//! or throwaway path); an empty value disables the disk tier. Library
//! code that asks for [`ArtifactStore::process`] without an explicit
//! directory gets memory-only unless the variable is set — binaries
//! opt into the default `results/.artifacts/` via
//! [`ArtifactStore::init_process`].

use crate::hash::hash_hex;
use crate::inflight::{Begin, InflightTable};
use crate::lru::Lru;
use qods_circuit::circuit::Circuit;
use qods_obs::{sites, Counter, Gauge, Registry, Site};
use serde::{Deserialize, Serialize, Value};
use std::any::Any;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Version of the on-disk artifact encoding. Part of every content
/// hash *and* checked in the envelope, so a schema change invalidates
/// old files both ways.
pub const ARTIFACT_SCHEMA: u32 = 2;

/// Environment variable that overrides the disk-store location (empty
/// value = disable the disk tier).
pub const ARTIFACT_DIR_ENV: &str = "QODS_ARTIFACT_DIR";

/// The disk directory binaries default to. One constant so `repro`
/// and `qods-serve` can never drift onto different directories (which
/// would silently break their shared cold-process cache).
pub const DEFAULT_ARTIFACT_DIR: &str = "results/.artifacts";

/// Bound on the bytes the memory tier retains, summed over the
/// artifacts' charges ([`HeapBytes`]). One paper-config job computes 31
/// distinct artifacts charged 137 KB in all (9 KB of kernel IR and
/// 125 KB of lowered circuits for the three paper kernels, 4 KB for the
/// 25 characterizations: the width sweep's other kernels keep no
/// circuit), so a `repro` run never evicts. A service
/// streaming new synthesis budgets adds one QFT lowering per budget,
/// and past the bound the least-recently-used artifacts go (a later
/// request recompiles them, or reads them back from the disk tier).
pub const MEM_TIER_BYTES: usize = 2 << 20;

/// The heap bytes a value owns, counted at capacity — what the memory
/// tier charges an artifact on top of its own `size_of`. For a value
/// stored at exact length (a lowered or disk-decoded circuit, a clone)
/// it equals the bytes `clone()` allocates.
pub trait HeapBytes {
    /// Bytes of heap this value owns.
    fn heap_bytes(&self) -> usize;
}

impl HeapBytes for Circuit {
    fn heap_bytes(&self) -> usize {
        Circuit::heap_bytes(self)
    }
}

impl HeapBytes for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapBytes> HeapBytes for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>() + self.iter().map(T::heap_bytes).sum::<usize>()
    }
}

impl HeapBytes for usize {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The address of one artifact: a pipeline stage name plus the
/// content hash of everything the artifact depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Stage name (`"ir"`, `"sched"`, `"char"`), fixed per transform.
    pub stage: &'static str,
    /// Content hash of the stage's canonical input encoding.
    pub hash: u64,
}

impl ArtifactKey {
    /// The disk file name this key is stored under.
    pub fn file_name(&self) -> String {
        format!("{}-{}.json", self.stage, hash_hex(self.hash))
    }
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.stage, hash_hex(self.hash))
    }
}

/// Store traffic counters (monotonic since store creation). The
/// `computed` counter is the "did the cache actually work" number:
/// a fully warm run reports 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts computed from scratch (both tiers missed).
    pub computed: u64,
    /// Lookups served by the in-process tier, including lookups that
    /// joined another caller's in-flight computation of their key.
    pub mem_hits: u64,
    /// Lookups served by the disk tier (deserialized, then retained
    /// in the memory tier).
    pub disk_hits: u64,
    /// Disk files that existed but were unusable (corrupt, stale
    /// schema, wrong key) and were recomputed over.
    pub corrupt_reads: u64,
    /// Disk writes that failed (artifact stays memory-only).
    pub write_errors: u64,
    /// Artifacts the memory tier dropped to stay within
    /// [`MEM_TIER_BYTES`].
    pub evictions: u64,
}

/// A type-erased shared artifact.
type Shared = Arc<dyn Any + Send + Sync>;

/// An artifact's address inside the store: `(stage, hash)`.
type MapKey = (&'static str, u64);

/// The two-tier content-addressed artifact store. Cheap to share
/// (`Arc`); all methods take `&self`.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: Option<PathBuf>,
    /// The memory tier: at most [`MEM_TIER_BYTES`] of artifacts.
    mem: Mutex<Lru<MapKey, Shared>>,
    /// The keys some caller is computing (or reading from disk) now.
    inflight: InflightTable<MapKey, Shared>,
    /// Per-store metrics registry (`store.*` sites); counters below
    /// are handles into it, so [`ArtifactStore::stats`] and a registry
    /// snapshot always agree.
    metrics: Registry,
    computed: Arc<Counter>,
    mem_hits: Arc<Counter>,
    disk_hits: Arc<Counter>,
    corrupt_reads: Arc<Counter>,
    write_errors: Arc<Counter>,
    evictions: Arc<Counter>,
    /// The memory tier's charged bytes, set after every insert: at
    /// most [`MEM_TIER_BYTES`] unless one artifact alone is larger.
    mem_bytes: Arc<Gauge>,
    /// Monotonic temp-file sequence: `fetch_add` guarantees two
    /// threads writing the same key concurrently get distinct temp
    /// names (a stats counter could be observed at the same value by
    /// both).
    tmp_seq: AtomicU64,
}

/// The one store a process shares by default (see
/// [`ArtifactStore::process`] / [`ArtifactStore::init_process`]).
static PROCESS_STORE: OnceLock<Arc<ArtifactStore>> = OnceLock::new();

impl ArtifactStore {
    /// A store with no disk tier.
    pub fn in_memory() -> Self {
        ArtifactStore::with_dir(None)
    }

    /// A store persisting under `dir` (created lazily on first write).
    pub fn persistent(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore::with_dir(Some(dir.into()))
    }

    /// A store honoring [`ARTIFACT_DIR_ENV`]: the variable's path when
    /// set (empty = memory-only), otherwise `default_dir`, otherwise
    /// memory-only.
    pub fn from_env_or(default_dir: Option<&Path>) -> Self {
        ArtifactStore::resolve(std::env::var(ARTIFACT_DIR_ENV).ok().as_deref(), default_dir)
    }

    /// The location policy behind [`ArtifactStore::from_env_or`],
    /// with the environment value passed in — pure, so tests can
    /// cover every branch without racing `set_var` against the
    /// parallel test harness.
    pub fn resolve(env_value: Option<&str>, default_dir: Option<&Path>) -> Self {
        match env_value {
            Some("") => ArtifactStore::in_memory(),
            Some(dir) => ArtifactStore::persistent(dir),
            None => match default_dir {
                Some(dir) => ArtifactStore::persistent(dir),
                None => ArtifactStore::in_memory(),
            },
        }
    }

    fn with_dir(dir: Option<PathBuf>) -> Self {
        let metrics = Registry::new();
        let computed = metrics.counter(sites::STORE_COMPUTED);
        let mem_hits = metrics.counter(sites::STORE_MEM_HITS);
        let disk_hits = metrics.counter(sites::STORE_DISK_HITS);
        let corrupt_reads = metrics.counter(sites::STORE_CORRUPT_READS);
        let write_errors = metrics.counter(sites::STORE_WRITE_ERRORS);
        let evictions = metrics.counter(sites::STORE_EVICTIONS);
        let mem_bytes = metrics.gauge(sites::STORE_MEM_BYTES);
        ArtifactStore {
            dir,
            mem: Mutex::new(Lru::new(MEM_TIER_BYTES)),
            inflight: InflightTable::new(),
            metrics,
            computed,
            mem_hits,
            disk_hits,
            corrupt_reads,
            write_errors,
            evictions,
            mem_bytes,
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// The process-wide shared store, created on first use as
    /// [`ArtifactStore::from_env_or`]`(None)` — i.e. memory-only
    /// unless [`ARTIFACT_DIR_ENV`] says otherwise. This is the store
    /// `StudyContext::new` and the service `ContextPool` share, which
    /// is what makes warm-process artifact reuse span contexts.
    pub fn process() -> Arc<ArtifactStore> {
        Arc::clone(PROCESS_STORE.get_or_init(|| Arc::new(ArtifactStore::from_env_or(None))))
    }

    /// Initializes the process store with a default disk directory
    /// (still overridden by [`ARTIFACT_DIR_ENV`]). Binaries call this
    /// once at startup *before* any compilation; if the process store
    /// already exists the call is a no-op and the existing store is
    /// returned — location choices never change mid-process.
    pub fn init_process(default_dir: &Path) -> Arc<ArtifactStore> {
        Arc::clone(
            PROCESS_STORE.get_or_init(|| Arc::new(ArtifactStore::from_env_or(Some(default_dir)))),
        )
    }

    /// The disk directory, if this store has a disk tier.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Traffic so far.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            computed: self.computed.get(),
            mem_hits: self.mem_hits.get(),
            disk_hits: self.disk_hits.get(),
            corrupt_reads: self.corrupt_reads.get(),
            write_errors: self.write_errors.get(),
            evictions: self.evictions.get(),
        }
    }

    /// This store's metrics registry (`store.*` counters) — merged
    /// into the serving stack's `metrics` verb snapshot.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// How many artifacts the memory tier holds.
    pub fn len(&self) -> usize {
        qods_pool::plock(&self.mem).len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The exact bytes the disk tier writes for an artifact — the
    /// versioned envelope as canonical JSON. Exposed so tests can
    /// assert byte-identity between freshly compiled and disk-cached
    /// artifacts.
    pub fn encode_artifact<T: Serialize>(key: ArtifactKey, artifact: &T) -> String {
        let envelope = Value::Object(vec![
            ("schema".to_string(), ARTIFACT_SCHEMA.to_value()),
            ("stage".to_string(), key.stage.to_value()),
            ("key".to_string(), hash_hex(key.hash).to_value()),
            ("payload".to_string(), artifact.to_value()),
        ]);
        serde_json::to_string(&envelope)
            .unwrap_or_else(|e| unreachable!("artifact encoding is always finite: {e}"))
    }

    /// Fetches the artifact at `key`, trying memory, then disk, then
    /// `compute` — computing at most stores, never alters, a result:
    /// the returned value is bit-identical at any cache state because
    /// `compute` must be a pure function of the key's inputs.
    ///
    /// Concurrent misses of one key single-flight (see the module
    /// docs): `compute` runs on one caller, the rest wait for it. So
    /// `compute` must never fan out on the `qods-pool` workers.
    ///
    /// # Panics
    ///
    /// Panics if the same key was previously stored with a different
    /// artifact type (a programming error in key derivation), and
    /// re-raises a panic of `compute` (its followers then retry).
    pub fn get_or_compute<T, F>(&self, key: ArtifactKey, compute: F) -> Arc<T>
    where
        T: HeapBytes + Serialize + Deserialize + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        // One span per stage lookup, named for the stage itself; the
        // cache arg records how the lookup resolved (`mem`, `joined`
        // when it waited on another caller's computation, `disk`,
        // `computed`, or `healed` when a corrupt file was recomputed
        // over).
        let mut span = qods_obs::span!(stage_site(key.stage), { config_hash: key.hash });
        let map_key = (key.stage, key.hash);
        loop {
            if let Some(hit) = self.mem_get(&map_key) {
                self.mem_hits.inc();
                span.note_cache("mem");
                return downcast(hit);
            }
            let leader = match self.inflight.begin(map_key) {
                Begin::Leader(leader) => leader,
                Begin::Follower(follower) => match follower.wait() {
                    Some(artifact) => {
                        self.mem_hits.inc();
                        span.note_cache("joined");
                        return downcast(artifact);
                    }
                    // The leader unwound: retry (this caller may lead).
                    None => continue,
                },
            };
            // A leader that finished between the check above and
            // `begin` has already inserted the artifact.
            if let Some(hit) = self.mem_get(&map_key) {
                leader.complete(Arc::clone(&hit));
                self.mem_hits.inc();
                span.note_cache("mem");
                return downcast(hit);
            }
            let (artifact, from_disk) = match self.read_disk::<T>(key) {
                DiskRead::Hit(artifact) => {
                    self.disk_hits.inc();
                    span.note_cache("disk");
                    (artifact, true)
                }
                outcome => {
                    span.note_cache(if matches!(outcome, DiskRead::Corrupt) {
                        "healed"
                    } else {
                        "computed"
                    });
                    let artifact = compute();
                    self.computed.inc();
                    (artifact, false)
                }
            };
            let charge = std::mem::size_of::<T>() + artifact.heap_bytes();
            let artifact = Arc::new(artifact);
            let shared: Shared = artifact.clone();
            self.mem_insert(map_key, Arc::clone(&shared), charge);
            leader.complete(shared);
            if !from_disk {
                self.write_disk(key, artifact.as_ref());
            }
            return artifact;
        }
    }

    /// The memory-tier artifact at `key`, if the tier holds it now:
    /// no disk read, no compute, no wait on a caller computing it, and
    /// no hit counted, so whether it finds one never shows in
    /// [`ArtifactStore::stats`].
    ///
    /// # Panics
    ///
    /// Panics if `key` holds an artifact of another type (a programming
    /// error in key derivation).
    pub fn peek<T: Send + Sync + 'static>(&self, key: ArtifactKey) -> Option<Arc<T>> {
        self.mem_get(&(key.stage, key.hash)).map(downcast)
    }

    /// The memory-tier entry at `key`, marked most recently used.
    fn mem_get(&self, key: &MapKey) -> Option<Shared> {
        qods_pool::plock(&self.mem).get(key).cloned()
    }

    /// Retains an artifact charged `charge` bytes, evicting down to
    /// [`MEM_TIER_BYTES`].
    fn mem_insert(&self, key: MapKey, artifact: Shared, charge: usize) {
        let mut mem = qods_pool::plock(&self.mem);
        self.evictions.add(mem.insert(key, artifact, charge) as u64);
        self.mem_bytes.set(mem.bytes() as i64);
    }

    /// Reads and validates the disk file for `key`; any defect is a
    /// tolerated miss. The `store.read` fault site fires once per
    /// successful file read: `io` makes the read report failure,
    /// `corrupt` garbles the bytes before decoding (both then heal
    /// through the ordinary recompute-and-rewrite path).
    fn read_disk<T: Deserialize>(&self, key: ArtifactKey) -> DiskRead<T> {
        let Some(dir) = self.dir.as_ref() else {
            return DiskRead::Miss;
        };
        let _io = qods_obs::span!(sites::COMPILE_STORE, { detail: "read" });
        let path = dir.join(key.file_name());
        let mut text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            // Missing file: a plain cold miss, not corruption.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskRead::Miss,
            Err(_) => {
                self.corrupt_reads.inc();
                return DiskRead::Corrupt;
            }
        };
        match qods_fault::check(qods_fault::site::STORE_READ) {
            Some(qods_fault::FaultAction::IoError) => {
                self.corrupt_reads.inc();
                return DiskRead::Corrupt;
            }
            Some(qods_fault::FaultAction::CorruptRead) => {
                let mut keep = text.len() / 2;
                while keep > 0 && !text.is_char_boundary(keep) {
                    keep -= 1;
                }
                text.truncate(keep);
            }
            _ => {}
        }
        match decode_envelope::<T>(&text, key) {
            Some(artifact) => DiskRead::Hit(artifact),
            None => {
                self.corrupt_reads.inc();
                DiskRead::Corrupt
            }
        }
    }

    /// Writes the artifact atomically; failures are counted, not
    /// propagated (the store then behaves as memory-only for this
    /// artifact). The `store.write` fault site fires once per write:
    /// `io` drops the write entirely (ENOSPC-style), `torn` lands a
    /// truncated file under the *final* name — deliberately bypassing
    /// the temp+rename discipline to simulate external corruption,
    /// which the corruption-tolerant read path must heal.
    fn write_disk<T: Serialize>(&self, key: ArtifactKey, artifact: &T) {
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let _io = qods_obs::span!(sites::COMPILE_STORE, { detail: "write" });
        let encoded = ArtifactStore::encode_artifact(key, artifact);
        match qods_fault::check(qods_fault::site::STORE_WRITE) {
            Some(qods_fault::FaultAction::IoError) => {
                self.write_errors.inc();
                return;
            }
            Some(qods_fault::FaultAction::TornWrite) => {
                self.write_errors.inc();
                let mut keep = encoded.len() / 2;
                while keep > 0 && !encoded.is_char_boundary(keep) {
                    keep -= 1;
                }
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(dir.join(key.file_name()), &encoded[..keep]);
                return;
            }
            _ => {}
        }
        let result = (|| -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            // Unique temp name: concurrent writers of the same key
            // never collide, and rename is atomic within the dir.
            let tmp = dir.join(format!(
                ".tmp-{}-{}-{}",
                std::process::id(),
                self.tmp_seq.fetch_add(1, Ordering::Relaxed),
                key.file_name()
            ));
            std::fs::write(&tmp, encoded)?;
            std::fs::rename(&tmp, dir.join(key.file_name()))
        })();
        if result.is_err() {
            self.write_errors.inc();
        }
    }
}

/// How one disk lookup resolved: a usable artifact, a plain cold
/// miss, or a defective file that will be healed by recompute.
enum DiskRead<T> {
    Hit(T),
    Miss,
    Corrupt,
}

/// The typed artifact behind a type-erased memory-tier entry.
fn downcast<T: Send + Sync + 'static>(artifact: Shared) -> Arc<T> {
    artifact
        .downcast::<T>()
        .unwrap_or_else(|_| unreachable!("one artifact type per stage key"))
}

/// The span site for a pipeline stage's store lookup.
fn stage_site(stage: &str) -> Site {
    match stage {
        "ir" => sites::COMPILE_IR,
        "sched" => sites::COMPILE_SCHED,
        "char" => sites::COMPILE_CHAR,
        _ => sites::COMPILE_STORE,
    }
}

/// Parses and validates a disk envelope against the key it was looked
/// up under. `None` for any mismatch.
fn decode_envelope<T: Deserialize>(text: &str, key: ArtifactKey) -> Option<T> {
    let v: Value = serde_json::from_str(text).ok()?;
    let schema = u32::from_value(v.get("schema")?).ok()?;
    if schema != ARTIFACT_SCHEMA {
        return None;
    }
    let stage = String::from_value(v.get("stage")?).ok()?;
    let hash = String::from_value(v.get("key")?).ok()?;
    if stage != key.stage || hash != hash_hex(key.hash) {
        return None;
    }
    T::from_value(v.get("payload")?).ok()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A heap-free test artifact, encoded as the bare number it holds.
    struct Num(u64);

    impl HeapBytes for Num {
        fn heap_bytes(&self) -> usize {
            0
        }
    }

    impl Serialize for Num {
        fn to_value(&self) -> Value {
            self.0.to_value()
        }
    }

    impl Deserialize for Num {
        fn from_value(v: &Value) -> Result<Self, serde::Error> {
            u64::from_value(v).map(Num)
        }
    }

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qods_store_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const KEY: ArtifactKey = ArtifactKey {
        stage: "ir",
        hash: 0xdead_beef_0123_4567,
    };

    #[test]
    fn memory_tier_shares_one_arc() {
        let store = ArtifactStore::in_memory();
        let a: Arc<String> = store.get_or_compute(KEY, || "artifact".to_string());
        let b: Arc<String> = store.get_or_compute(KEY, || panic!("must be cached"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = store.stats();
        assert_eq!((s.computed, s.mem_hits, s.disk_hits), (1, 1, 0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn concurrent_misses_of_one_key_compute_it_once() {
        const THREADS: usize = 8;
        let store = ArtifactStore::in_memory();
        let computes = AtomicU64::new(0);
        let start = std::sync::Barrier::new(THREADS);
        let got: Vec<Arc<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        store.get_or_compute(KEY, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            "shared".to_string()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        let s = store.stats();
        assert_eq!((s.computed, s.mem_hits), (1, THREADS as u64 - 1));
        assert!(got.iter().all(|a| Arc::ptr_eq(a, &got[0])));
        assert!(store.inflight.is_empty());
    }

    #[test]
    fn followers_of_a_panicked_compute_retry_and_compute_once() {
        const FOLLOWERS: usize = 4;
        let store = ArtifactStore::in_memory();
        let computes = AtomicU64::new(0);
        let leading = std::sync::Barrier::new(FOLLOWERS + 1);
        std::thread::scope(|s| {
            let doomed = s.spawn(|| {
                store.get_or_compute::<Num, _>(KEY, || {
                    leading.wait();
                    // Followers pile up on the key while it is in flight.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("compute dies before publishing");
                })
            });
            let followers: Vec<_> = (0..FOLLOWERS)
                .map(|_| {
                    s.spawn(|| {
                        leading.wait();
                        store.get_or_compute(KEY, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            Num(7)
                        })
                    })
                })
                .collect();
            assert!(doomed.join().is_err(), "the leader's compute panicked");
            for f in followers {
                assert_eq!(f.join().unwrap().0, 7);
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "the retry ran once");
        let s = store.stats();
        assert_eq!((s.computed, s.mem_hits), (1, FOLLOWERS as u64 - 1));
        // The store keeps serving: the key is cached, nothing in flight.
        assert!(store.inflight.is_empty());
        let again: Arc<Num> = store.get_or_compute(KEY, || panic!("must be cached"));
        assert_eq!(again.0, 7);
    }

    #[test]
    fn a_lookup_after_completion_is_a_plain_memory_hit() {
        let store = ArtifactStore::in_memory();
        let a: Arc<Num> = store.get_or_compute(KEY, || Num(3));
        assert!(store.inflight.is_empty(), "completion leaves the table");
        let b: Arc<Num> = store.get_or_compute(KEY, || panic!("must be cached"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = store.stats();
        assert_eq!((s.computed, s.mem_hits, s.disk_hits), (1, 1, 0));
    }

    #[test]
    fn disk_tier_survives_a_fresh_store() {
        let dir = temp_store_dir("persist");
        let cold = ArtifactStore::persistent(&dir);
        let a: Arc<String> = cold.get_or_compute(KEY, || "persisted".to_string());
        assert_eq!(cold.stats().computed, 1);
        assert!(dir.join(KEY.file_name()).is_file());

        // A fresh store (fresh memory tier) over the same directory
        // serves the artifact from disk without recomputing.
        let warm = ArtifactStore::persistent(&dir);
        let b: Arc<String> = warm.get_or_compute(KEY, || panic!("warm disk must hit"));
        assert_eq!(*a, *b);
        let s = warm.stats();
        assert_eq!((s.computed, s.disk_hits), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_stale_files_are_recomputed_not_fatal() {
        let dir = temp_store_dir("corrupt");
        let path = dir.join(KEY.file_name());
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Garbage bytes.
        std::fs::write(&path, b"{not json").expect("write");
        let store = ArtifactStore::persistent(&dir);
        let a: Arc<Num> = store.get_or_compute(KEY, || Num(42));
        assert_eq!(a.0, 42);
        assert_eq!(store.stats().corrupt_reads, 1);
        assert_eq!(store.stats().computed, 1);
        // The recompute rewrote a valid file.
        let fixed = ArtifactStore::persistent(&dir);
        let b: Arc<Num> = fixed.get_or_compute(KEY, || panic!("rewritten file must hit"));
        assert_eq!(b.0, 42);

        // Stale schema: valid JSON, wrong version.
        let stale = ArtifactStore::encode_artifact(KEY, &7u64).replace(
            &format!("\"schema\":{ARTIFACT_SCHEMA}"),
            &format!("\"schema\":{}", ARTIFACT_SCHEMA - 1),
        );
        std::fs::write(&path, stale).expect("write");
        let store = ArtifactStore::persistent(&dir);
        let c: Arc<Num> = store.get_or_compute(KEY, || Num(42));
        assert_eq!(c.0, 42);
        assert_eq!(store.stats().corrupt_reads, 1);

        // Wrong payload type for the key.
        std::fs::write(
            &path,
            ArtifactStore::encode_artifact(KEY, &"a string".to_string()),
        )
        .expect("write");
        let store = ArtifactStore::persistent(&dir);
        let d: Arc<Num> = store.get_or_compute(KEY, || Num(42));
        assert_eq!(d.0, 42);
        assert_eq!(store.stats().corrupt_reads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn circuits_with_indices_past_u16_are_recomputed_not_truncated() {
        use qods_circuit::circuit::Circuit;
        let dir = temp_store_dir("wide");
        let path = dir.join(KEY.file_name());
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut good = Circuit::named(2, "bell");
        good.h(0);
        good.cx(0, 1);
        let encoded = ArtifactStore::encode_artifact(KEY, &good);
        assert!(encoded.contains(r#""n_qubits":2"#) && encoded.contains("cx 0 1"));
        for corrupt in [
            // Qubit 65,536 truncates to qubit 0, which would fit.
            encoded.replace("cx 0 1", "cx 65536 1"),
            // A width no 16-bit gate index can address.
            encoded.replace(r#""n_qubits":2"#, r#""n_qubits":65537"#),
            encoded.replace(r#""n_qubits":2"#, r#""n_qubits":18446744073709551615"#),
        ] {
            std::fs::write(&path, &corrupt).expect("write");
            let store = ArtifactStore::persistent(&dir);
            let healed: Arc<Circuit> = store.get_or_compute(KEY, || good.clone());
            assert_eq!(*healed, good, "{corrupt}");
            assert_eq!(store.stats().corrupt_reads, 1, "{corrupt}");
            assert_eq!(store.stats().computed, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_is_deterministic_bytes() {
        let x = ArtifactStore::encode_artifact(KEY, &"payload".to_string());
        let y = ArtifactStore::encode_artifact(KEY, &"payload".to_string());
        assert_eq!(x, y);
        assert!(x.contains(&format!("\"schema\":{ARTIFACT_SCHEMA}")));
        assert!(x.contains("\"stage\":\"ir\""));
    }

    #[test]
    fn missing_file_is_a_plain_miss() {
        let dir = temp_store_dir("miss");
        let store = ArtifactStore::persistent(&dir);
        let _: Arc<Num> = store.get_or_compute(KEY, || Num(1));
        assert_eq!(store.stats().corrupt_reads, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
