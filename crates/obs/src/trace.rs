//! Structured tracing for the serving path: RAII span guards around a
//! process-wide [`Tracer`], off by default and armed per process via
//! `--trace-out` / the `QODS_TRACE` environment variable.
//!
//! ## Determinism boundary
//!
//! Span and parent ids come from one process-wide atomic counter —
//! **never** from the clock — so the span *tree* (who nested under
//! whom, with which args) is a pure function of the request stream.
//! Timestamps and durations are telemetry only: they decorate the
//! tree for profile viewers and never flow into a result line, which
//! is why this crate is the lint's sanctioned wall-clock home
//! alongside qods-bench (DESIGN.md §13).
//!
//! ## Never block the serving path
//!
//! * Disabled (the default): opening a span is **one relaxed atomic
//!   load** and nothing else — no allocation, no TLS touch.
//! * Enabled: events land in a fixed set of bounded shards through
//!   `try_lock`. A contended or full shard **drops the event and
//!   counts the drop** ([`Tracer::dropped`]) instead of waiting;
//!   tracing may lose telemetry under pressure but can never add a
//!   blocking edge to the code it observes.
//!
//! Guards are `!Send`: a span closes on the thread that opened it, so
//! per-thread guard stacks give every event a well-formed parent.
//! Work handed to another thread (a pool worker) links its spans to
//! the scheduling span explicitly via [`SpanGuard::child_of`] /
//! [`current_span`].

use crate::plock;
use crate::sites::Site;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default event capacity of the process tracer (per process, across
/// all shards).
pub const DEFAULT_CAPACITY: usize = 1 << 16;
/// Buffer shards; writers `try_lock` the shard their span id maps to.
const SHARDS: usize = 64;

/// The lane non-worker threads start from (pool workers claim lanes
/// below it via [`claim_worker_lane`]; the stdio/accept thread is
/// lane 0).
pub const FIRST_DYNAMIC_LANE: u32 = 1_000;

/// How one event renders (`ph` in the Chrome trace format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A duration span (`ph: "X"`).
    Span,
    /// A point-in-time event (`ph: "i"`), e.g. a fault firing.
    Instant,
}

/// Structured arguments attached to a span (the Chrome `args` block).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanArgs {
    /// Cache outcome at this site (`"mem"`, `"joined"`, `"disk"`,
    /// `"computed"`, `"healed"`, `"hit"`, `"miss"`).
    pub cache: Option<&'static str>,
    /// Coalescing role (`"leader"` / `"follower"`).
    pub role: Option<&'static str>,
    /// The job's canonical config hash.
    pub config_hash: Option<u64>,
    /// Free-form detail (experiment id, fault site, error kind).
    pub detail: Option<String>,
}

impl SpanArgs {
    /// Whether no argument is set.
    pub fn is_empty(&self) -> bool {
        self.cache.is_none()
            && self.role.is_none()
            && self.config_hash.is_none()
            && self.detail.is_none()
    }
}

/// One finished span or instant event, as drained from the buffer.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// This span's id (unique per process run, counter-derived).
    pub span_id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent_id: u64,
    /// Where the event was recorded.
    pub site: Site,
    /// Thread lane (pool worker index + 1; 0 = main; ≥ 1000 other).
    pub lane: u32,
    /// Start offset from the tracer epoch, nanoseconds (telemetry
    /// only — never feeds a result).
    pub start_ns: u64,
    /// Duration, nanoseconds (0 for instants; telemetry only).
    pub dur_ns: u64,
    /// Span vs instant.
    pub phase: Phase,
    /// Structured args.
    pub args: SpanArgs,
}

/// Buffer occupancy + drop accounting, serialized into the metrics
/// snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Events currently buffered (drained by the exporter).
    pub buffered: u64,
    /// Events dropped because their shard was full or contended.
    pub dropped: u64,
}

/// The process-wide span collector (see module docs).
#[derive(Debug)]
pub struct Tracer {
    next_id: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
    shards: Vec<Mutex<Vec<SpanEvent>>>,
    shard_cap: usize,
}

/// The disabled fast path: one relaxed load, checked before any other
/// tracer state is touched.
static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();
/// Lane ids handed to threads that never called [`set_lane`].
static NEXT_DYNAMIC_LANE: AtomicU32 = AtomicU32::new(FIRST_DYNAMIC_LANE);
/// Pool-worker lanes held by live workers (`WORKER_LANES[i]` is lane
/// `i + 1`).
static WORKER_LANES: Mutex<Vec<bool>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's lane (u32::MAX = unassigned).
    static LANE: Cell<u32> = const { Cell::new(u32::MAX) };
    /// Open span ids on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A tracer buffering at most `capacity` events.
    fn with_capacity(capacity: usize) -> Self {
        let shard_cap = (capacity / SHARDS).max(1);
        Tracer {
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            // The tracer epoch. Span timestamps are telemetry-only by
            // the §13 contract (so the crate is exempt from clippy's
            // clock ban: no result bytes ever derive from them).
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            shard_cap,
        }
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Buffers one event without blocking: a contended or full shard
    /// drops it and bumps the drop counter.
    fn record(&self, ev: SpanEvent) {
        let shard = &self.shards[(ev.span_id as usize) % SHARDS];
        match shard.try_lock() {
            Ok(mut slot) => {
                if slot.len() < self.shard_cap {
                    if slot.capacity() == 0 {
                        slot.reserve_exact(self.shard_cap);
                    }
                    slot.push(ev);
                } else {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Takes every buffered event, ordered by (start, id). Meant for
    /// exporters after the serving path has quiesced; events recorded
    /// concurrently with a drain land in the next drain.
    pub fn drain(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.append(&mut plock(shard));
        }
        out.sort_by_key(|e| (e.start_ns, e.span_id));
        out
    }

    /// Events dropped so far (full or contended shards).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events buffered right now.
    pub fn buffered(&self) -> u64 {
        self.shards.iter().map(|s| plock(s).len() as u64).sum()
    }

    /// Occupancy + drop snapshot.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            buffered: self.buffered(),
            dropped: self.dropped(),
        }
    }
}

/// The process tracer (created on first use, [`DEFAULT_CAPACITY`]).
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer::with_capacity(DEFAULT_CAPACITY))
}

/// Whether tracing is armed — the serving path's fast-path check.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arms tracing process-wide.
pub fn enable() {
    let _ = tracer(); // materialize before the first span races in
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarms tracing (buffered events stay until drained).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Arms tracing when `QODS_TRACE` is set and nonempty, mirroring
/// `qods_fault::arm_from_env`. Returns the output path when the value
/// names one (any value other than `1`), so binaries know where to
/// flush on shutdown; `QODS_TRACE=1` arms buffering without a file
/// (the `metrics` verb still reports occupancy).
pub fn arm_from_env() -> Option<String> {
    let value = std::env::var("QODS_TRACE").ok()?;
    if value.is_empty() {
        return None;
    }
    enable();
    (value != "1").then_some(value)
}

/// Assigns this thread's lane (Chrome `tid`); lane 0 is the
/// main/stdio thread. Pool workers go through [`claim_worker_lane`].
pub fn set_lane(lane: u32) {
    LANE.with(|l| l.set(lane));
}

/// This thread's lane, assigning a fresh dynamic lane (≥ 1000) on
/// first use by a thread that never called [`set_lane`].
pub fn lane() -> u32 {
    LANE.with(|l| {
        let v = l.get();
        if v != u32::MAX {
            return v;
        }
        let fresh = NEXT_DYNAMIC_LANE.fetch_add(1, Ordering::Relaxed);
        l.set(fresh);
        fresh
    })
}

/// A pool-worker lane held by the current thread; dropping it frees
/// the lane for the next worker.
#[must_use = "the lane is released when the guard drops"]
pub struct WorkerLane(Option<u32>);

/// Gives this pool thread the lowest lane no live pool thread holds
/// (the pool's background threads hold theirs for the life of the
/// process). Past [`FIRST_DYNAMIC_LANE`] live holders the thread
/// takes a dynamic lane instead.
pub fn claim_worker_lane() -> WorkerLane {
    let mut held = plock(&WORKER_LANES);
    let free = held.iter().position(|h| !h).unwrap_or(held.len());
    let claimed = free as u32 + 1;
    if claimed >= FIRST_DYNAMIC_LANE {
        // Left unset, the thread's first span takes a dynamic lane.
        return WorkerLane(None);
    }
    if free == held.len() {
        held.push(true);
    } else {
        held[free] = true;
    }
    set_lane(claimed);
    WorkerLane(Some(claimed))
}

impl Drop for WorkerLane {
    fn drop(&mut self) {
        if let Some(lane) = self.0 {
            plock(&WORKER_LANES)[lane as usize - 1] = false;
        }
    }
}

/// The innermost open span on this thread (0 when none) — pass to
/// [`SpanGuard::child_of`] when handing work to another thread.
pub fn current_span() -> u64 {
    if !enabled() {
        return 0;
    }
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Opens a span at `site`. Prefer the [`crate::span!`] macro, which
/// also sets args.
pub fn span(site: Site) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            live: None,
            _not_send: PhantomData,
        };
    }
    let t = tracer();
    let span_id = t.next_id();
    let parent_id = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(span_id);
        parent
    });
    SpanGuard {
        live: Some(LiveSpan {
            span_id,
            parent_id,
            site,
            start_ns: t.now_ns(),
            args: SpanArgs::default(),
        }),
        _not_send: PhantomData,
    }
}

/// Records a point-in-time event (a fault firing, a shed request).
/// No-op (and no allocation) while disabled.
pub fn instant(site: Site, detail: &str) {
    if !enabled() {
        return;
    }
    let t = tracer();
    let span_id = t.next_id();
    t.record(SpanEvent {
        span_id,
        parent_id: current_span(),
        site,
        lane: lane(),
        start_ns: t.now_ns(),
        dur_ns: 0,
        phase: Phase::Instant,
        args: SpanArgs {
            detail: (!detail.is_empty()).then(|| detail.to_owned()),
            ..SpanArgs::default()
        },
    });
}

#[derive(Debug)]
struct LiveSpan {
    span_id: u64,
    parent_id: u64,
    site: Site,
    start_ns: u64,
    args: SpanArgs,
}

/// An open span: closes (records the event) on drop. `!Send` so the
/// per-thread guard stack always matches the nesting.
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<LiveSpan>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// This span's id (0 while tracing is disabled).
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.span_id)
    }

    /// Re-parents under an explicit span (cross-thread linking).
    #[must_use]
    pub fn child_of(mut self, parent: u64) -> Self {
        if let Some(l) = self.live.as_mut() {
            if parent != 0 {
                l.parent_id = parent;
            }
        }
        self
    }

    /// Sets the cache-outcome arg.
    #[must_use]
    pub fn cache(mut self, outcome: &'static str) -> Self {
        self.note_cache(outcome);
        self
    }

    /// Sets the coalescing-role arg.
    #[must_use]
    pub fn role(mut self, role: &'static str) -> Self {
        if let Some(l) = self.live.as_mut() {
            l.args.role = Some(role);
        }
        self
    }

    /// Sets the config-hash arg.
    #[must_use]
    pub fn config_hash(mut self, hash: u64) -> Self {
        if let Some(l) = self.live.as_mut() {
            l.args.config_hash = Some(hash);
        }
        self
    }

    /// Sets the free-form detail arg (allocates only while enabled).
    #[must_use]
    pub fn detail(mut self, detail: &str) -> Self {
        self.note_detail(detail);
        self
    }

    /// Sets the cache outcome after the fact (the outcome of a
    /// `get_or_compute` is known only once it returns).
    pub fn note_cache(&mut self, outcome: &'static str) {
        if let Some(l) = self.live.as_mut() {
            l.args.cache = Some(outcome);
        }
    }

    /// Sets the config-hash arg after the fact (the hash is often
    /// computed inside the span it describes).
    pub fn note_config_hash(&mut self, hash: u64) {
        if let Some(l) = self.live.as_mut() {
            l.args.config_hash = Some(hash);
        }
    }

    /// Sets the detail arg after the fact.
    pub fn note_detail(&mut self, detail: &str) {
        if let Some(l) = self.live.as_mut() {
            l.args.detail = Some(detail.to_owned());
        }
    }

    /// Abandons the span: pops the guard stack but records nothing.
    /// For speculative spans whose work turned out not to happen (an
    /// idle read tick, say) — recording those would drown the trace.
    pub fn cancel(mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            while let Some(top) = stack.pop() {
                if top == live.span_id {
                    break;
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards close LIFO; pop defensively in case an unwind
            // skipped an inner guard's drop.
            while let Some(top) = stack.pop() {
                if top == live.span_id {
                    break;
                }
            }
        });
        let t = tracer();
        let end = t.now_ns();
        t.record(SpanEvent {
            span_id: live.span_id,
            parent_id: live.parent_id,
            site: live.site,
            lane: lane(),
            start_ns: live.start_ns,
            dur_ns: end.saturating_sub(live.start_ns),
            phase: Phase::Span,
            args: live.args,
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use crate::sites;

    /// Global-tracer tests serialize on this lock: enable/disable and
    /// drain are process-wide.
    pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_cost_nothing_and_record_nothing() {
        let _g = plock(&TEST_GUARD);
        disable();
        let before = tracer().stats();
        {
            let _s = span(sites::NET_REQUEST);
            instant(sites::FAULT_FIRED, "store.read");
        }
        let after = tracer().stats();
        assert_eq!(before.buffered, after.buffered);
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn nested_guards_parent_correctly_and_drain_clears() {
        let _g = plock(&TEST_GUARD);
        disable();
        let _ = tracer().drain();
        enable();
        let (outer_id, inner_id);
        {
            let outer = span(sites::NET_REQUEST);
            outer_id = outer.id();
            assert_eq!(current_span(), outer_id);
            {
                let inner = span(sites::SVC_SCHEDULE).config_hash(0xabcd);
                inner_id = inner.id();
                assert_eq!(current_span(), inner_id);
            }
            assert_eq!(current_span(), outer_id);
        }
        disable();
        let events = tracer().drain();
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| e.span_id == inner_id).unwrap();
        let outer = events.iter().find(|e| e.span_id == outer_id).unwrap();
        assert_eq!(inner.parent_id, outer_id);
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.args.config_hash, Some(0xabcd));
        assert_eq!(outer.phase, Phase::Span);
        assert!(tracer().drain().is_empty(), "drain clears the buffer");
    }

    #[test]
    fn instants_and_cross_thread_parents_link() {
        let _g = plock(&TEST_GUARD);
        disable();
        let _ = tracer().drain();
        enable();
        let root = span(sites::SVC_SCHEDULE);
        let root_id = root.id();
        let worker = std::thread::spawn(move || {
            set_lane(7);
            let _w = span(sites::POOL_WORKER).child_of(root_id);
            instant(sites::FAULT_FIRED, "pool.worker");
        });
        worker.join().unwrap();
        drop(root);
        disable();
        let events = tracer().drain();
        let w = events
            .iter()
            .find(|e| e.site == sites::POOL_WORKER)
            .unwrap();
        assert_eq!(w.parent_id, root_id);
        assert_eq!(w.lane, 7);
        let f = events
            .iter()
            .find(|e| e.site == sites::FAULT_FIRED)
            .unwrap();
        assert_eq!(f.phase, Phase::Instant);
        assert_eq!(f.args.detail.as_deref(), Some("pool.worker"));
        assert_eq!(f.lane, 7);
    }

    #[test]
    fn live_worker_lanes_are_distinct_and_freed_on_drop() {
        let _g = plock(&TEST_GUARD);
        let a = claim_worker_lane();
        let b = claim_worker_lane();
        assert!(a.0.is_some() && b.0.is_some());
        assert_ne!(a.0, b.0, "two live workers never share a lane");
        let freed = a.0;
        drop(a);
        assert_eq!(claim_worker_lane().0, freed, "a freed lane is reused");
    }

    #[test]
    fn full_buffer_drops_and_counts_instead_of_blocking() {
        let _g = plock(&TEST_GUARD);
        disable();
        let t = Tracer::with_capacity(SHARDS); // one event per shard
        for i in 0..(4 * SHARDS as u64) {
            t.record(SpanEvent {
                span_id: i + 1,
                parent_id: 0,
                site: sites::NET_READ,
                lane: 0,
                start_ns: i,
                dur_ns: 1,
                phase: Phase::Span,
                args: SpanArgs::default(),
            });
        }
        let stats = t.stats();
        assert_eq!(stats.buffered, SHARDS as u64);
        assert_eq!(stats.dropped, 3 * SHARDS as u64);
        assert_eq!(t.drain().len(), SHARDS);
    }
}
