//! # qods-fault — deterministic, seeded fault injection
//!
//! The serving stack (`qods-serve` over `qods-service` over the
//! engines) claims to survive I/O failures, worker panics, slow
//! clients, and expired deadlines. This crate is how those claims are
//! *tested* rather than asserted: production code is instrumented
//! with named **sites** (`store.read`, `store.write`, `pool.worker`,
//! `net.conn`, `mc.chunk`), and a test arms a [`FaultPlan`] that
//! fires a typed [`FaultAction`] on the N-th operation a site sees —
//! optionally repeating, optionally scattered pseudo-randomly from a
//! seed. Everything is counter-based, nothing is time-based, so a
//! chaos run is reproducible: the same plan against the same request
//! sequence injects the same faults at the same operations.
//!
//! ## Cost when disarmed
//!
//! [`check`] is a single relaxed atomic load when no plan is armed —
//! cheap enough to leave in release binaries on warm paths (the
//! instrumented sites are per-I/O or per-chunk, never per-trial).
//!
//! ## Driving a child process
//!
//! Plans round-trip through a compact spec string
//! ([`FaultPlan::parse`] / [`FaultPlan::render`]) carried in the
//! [`FAULT_PLAN_ENV`] environment variable, so the chaos integration
//! suite can configure the *real* `qods-serve` binary it spawns:
//!
//! ```text
//! QODS_FAULT_PLAN="store.write:3=io;pool.worker:2+5=panic;mc.chunk:1+1=delay:20"
//! ```
//!
//! reads "fail the 3rd store write with an I/O error; panic pool
//! workers on op 2 and every 5th after; delay every MC chunk by
//! 20 ms".

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Environment variable a process reads its fault plan from (see
/// [`arm_from_env`]). Unset or empty means "no faults".
pub const FAULT_PLAN_ENV: &str = "QODS_FAULT_PLAN";

/// One instrumented fault site. The field is private, so the
/// constants in [`site`] are its only values: production code and
/// tests name sites through them, [`FaultPlan::parse`] maps the
/// untrusted spec string through [`Site::from_name`], and a typo'd
/// site is a compile error or a parse error instead of a fault that
/// silently never fires.
///
/// ```
/// use qods_fault::{check, site};
/// assert_eq!(check(site::STORE_READ), None);
/// ```
///
/// A misspelt name does not build:
///
/// ```compile_fail,E0308
/// qods_fault::check("store.raed");
/// ```
///
/// nor does an instrumentation site, though `pool.worker` names both:
///
/// ```compile_fail,E0308
/// qods_fault::check(qods_obs::sites::NET_READ);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Site(&'static str);

impl Site {
    /// The site's name, e.g. `"store.read"`.
    pub const fn name(self) -> &'static str {
        self.0
    }

    /// The canonical site called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Site> {
        SITES.into_iter().find(|s| s.0 == name)
    }
}

/// The canonical instrumented sites. Adding an instrumented site
/// means adding it here and to [`SITES`].
pub mod site {
    use super::Site;

    /// Disk-tier artifact read in `qods-compile`'s `ArtifactStore`.
    pub const STORE_READ: Site = Site("store.read");
    /// Disk-tier artifact write in `qods-compile`'s `ArtifactStore`.
    pub const STORE_WRITE: Site = Site("store.write");
    /// One unit of work on a `qods-pool` worker thread.
    pub const POOL_WORKER: Site = Site("pool.worker");
    /// One request line handled on a `qods-net` connection.
    pub const NET_CONN: Site = Site("net.conn");
    /// One Monte-Carlo trial chunk in `qods-phys`.
    pub const MC_CHUNK: Site = Site("mc.chunk");
}

/// Every canonical site, as data — what [`Site::from_name`] searches.
pub const SITES: [Site; 5] = [
    site::STORE_READ,
    site::STORE_WRITE,
    site::POOL_WORKER,
    site::NET_CONN,
    site::MC_CHUNK,
];

/// Why a fault-plan spec string failed to parse — typed so callers
/// can distinguish a typo-ed site (spec names a site that does not
/// exist, so the fault would never fire) from a malformed entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An entry has no `=action` suffix.
    MissingAction {
        /// The malformed entry.
        entry: String,
    },
    /// An entry has no `site:nth` head.
    MissingSite {
        /// The malformed entry.
        entry: String,
    },
    /// An entry's site name is empty.
    EmptySite {
        /// The malformed entry.
        entry: String,
    },
    /// An entry's operation index is not a positive number.
    BadIndex {
        /// The malformed entry.
        entry: String,
    },
    /// An entry's repeat period is not a positive number.
    BadPeriod {
        /// The malformed entry.
        entry: String,
    },
    /// An entry's action is unknown or malformed.
    BadAction {
        /// The action parser's diagnostic.
        message: String,
    },
    /// An entry names a site that is not in [`SITES`] — the fault
    /// would arm but never fire, which is exactly the silent drift
    /// this error exists to catch.
    UnknownSite {
        /// The unrecognized site name.
        site: String,
        /// The entry that named it.
        entry: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::MissingAction { entry } => {
                write!(f, "fault spec `{entry}` is missing `=action`")
            }
            PlanError::MissingSite { entry } => {
                write!(f, "fault spec `{entry}` is missing `site:nth`")
            }
            PlanError::EmptySite { entry } => {
                write!(f, "fault spec `{entry}` has an empty site")
            }
            PlanError::BadIndex { entry } => {
                write!(f, "bad operation index in `{entry}`")
            }
            PlanError::BadPeriod { entry } => {
                write!(f, "bad repeat period in `{entry}`")
            }
            PlanError::BadAction { message } => write!(f, "{message}"),
            PlanError::UnknownSite { site, entry } => write!(
                f,
                "unknown fault site `{site}` in `{entry}` (canonical sites: {})",
                SITES.map(Site::name).join(", ")
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// What an armed site does when its spec fires. Sites act on the
/// actions they understand and ignore the rest (a `Disconnect` at a
/// store site is a no-op), so one plan can drive many layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with a synthetic I/O error (ENOSPC-style:
    /// the operation reports failure, nothing is written/read).
    IoError,
    /// Write a torn/partial artifact: truncated bytes land under the
    /// *final* name, bypassing the atomic temp+rename path —
    /// simulating external corruption or a crashed writer.
    TornWrite,
    /// Corrupt the bytes an otherwise-successful read returns.
    CorruptRead,
    /// Drop the connection mid-request (close both halves).
    Disconnect,
    /// Sleep this many milliseconds before the operation proceeds.
    Delay(u64),
    /// Panic on the operation's thread (`catch_unwind` coverage).
    Panic,
}

impl FaultAction {
    fn render(self) -> String {
        match self {
            FaultAction::IoError => "io".to_string(),
            FaultAction::TornWrite => "torn".to_string(),
            FaultAction::CorruptRead => "corrupt".to_string(),
            FaultAction::Disconnect => "disconnect".to_string(),
            FaultAction::Delay(ms) => format!("delay:{ms}"),
            FaultAction::Panic => "panic".to_string(),
        }
    }

    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "io" => Ok(FaultAction::IoError),
            "torn" => Ok(FaultAction::TornWrite),
            "corrupt" => Ok(FaultAction::CorruptRead),
            "disconnect" => Ok(FaultAction::Disconnect),
            "panic" => Ok(FaultAction::Panic),
            other => match other.strip_prefix("delay:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(FaultAction::Delay)
                    .map_err(|_| format!("bad delay milliseconds in `{other}`")),
                None => Err(format!(
                    "unknown fault action `{other}` (io, torn, corrupt, disconnect, delay:MS, panic)"
                )),
            },
        }
    }
}

/// One fire-on-nth-operation fault: at site `site`, on the `nth`
/// operation (1-based) — and, with `every = Some(k)`, on every k-th
/// operation after that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The instrumented site.
    pub site: Site,
    /// 1-based operation index of the first firing.
    pub nth: u64,
    /// Repeat period after the first firing (`None` = fire once).
    pub every: Option<u64>,
    /// What happens when the spec fires.
    pub action: FaultAction,
}

impl FaultSpec {
    /// Whether this spec fires on operation `op` (1-based).
    fn fires(&self, op: u64) -> bool {
        if op < self.nth {
            return false;
        }
        match self.every {
            None => op == self.nth,
            Some(k) => (op - self.nth).is_multiple_of(k.max(1)),
        }
    }

    fn render(&self) -> String {
        let (site, nth, action) = (self.site.name(), self.nth, self.action.render());
        match self.every {
            None => format!("{site}:{nth}={action}"),
            Some(k) => format!("{site}:{nth}+{k}={action}"),
        }
    }
}

/// An ordered set of [`FaultSpec`]s. On each operation the *first*
/// matching spec (plan order) fires; counters are per site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (arming it injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds "on the `nth` operation at `site`, do `action`" (fires
    /// once).
    pub fn once(mut self, site: Site, nth: u64, action: FaultAction) -> Self {
        self.specs.push(FaultSpec {
            site,
            nth: nth.max(1),
            every: None,
            action,
        });
        self
    }

    /// Adds a repeating fault: first on operation `nth`, then every
    /// `every`-th operation after it.
    pub fn repeating(mut self, site: Site, nth: u64, every: u64, action: FaultAction) -> Self {
        self.specs.push(FaultSpec {
            site,
            nth: nth.max(1),
            every: Some(every.max(1)),
            action,
        });
        self
    }

    /// Adds `count` one-shot faults at pseudo-random distinct
    /// operation indices in `1..=range`, deterministically derived
    /// from `seed` — how a chaos test scatters a hundred faults over
    /// a workload without hand-placing each one.
    pub fn scatter(
        mut self,
        site: Site,
        action: FaultAction,
        seed: u64,
        count: u64,
        range: u64,
    ) -> Self {
        let range = range.max(1);
        let count = count.min(range);
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut picked = Vec::with_capacity(count as usize);
        while (picked.len() as u64) < count {
            state = splitmix64(state);
            let nth = state % range + 1;
            if !picked.contains(&nth) {
                picked.push(nth);
            }
        }
        picked.sort_unstable();
        for nth in picked {
            self.specs.push(FaultSpec {
                site,
                nth,
                every: None,
                action,
            });
        }
        self
    }

    /// The specs, in plan order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// How many specs the plan holds.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Renders the compact spec string [`FaultPlan::parse`] accepts —
    /// what a test exports as [`FAULT_PLAN_ENV`] for a child process.
    pub fn render(&self) -> String {
        self.specs
            .iter()
            .map(FaultSpec::render)
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parses a plan from its compact spec string:
    /// `site:nth[+every]=action[:ms]` entries joined by `;`.
    ///
    /// This is the untrusted boundary (the [`FAULT_PLAN_ENV`] env
    /// var), so it is the one place a site name is checked at run
    /// time: a typo'd site, or a zero index or period, must be a loud
    /// startup failure, not a fault that never fires or fires on every
    /// operation. (The in-process builders take a [`Site`], and clamp
    /// a zero `nth` or `every` to 1.)
    ///
    /// # Errors
    ///
    /// A typed [`PlanError`] naming the malformed entry.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        let mut plan = FaultPlan::new();
        for entry in text.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (head, action) = entry
                .split_once('=')
                .ok_or_else(|| PlanError::MissingAction {
                    entry: entry.to_string(),
                })?;
            let (site, position) = head.split_once(':').ok_or_else(|| PlanError::MissingSite {
                entry: entry.to_string(),
            })?;
            if site.is_empty() {
                return Err(PlanError::EmptySite {
                    entry: entry.to_string(),
                });
            }
            let site = Site::from_name(site).ok_or_else(|| PlanError::UnknownSite {
                site: site.to_string(),
                entry: entry.to_string(),
            })?;
            let positive = |text: &str| text.parse::<u64>().ok().filter(|&n| n > 0);
            let (nth_text, every) = match position.split_once('+') {
                Some((n, k)) => {
                    let every = positive(k).ok_or_else(|| PlanError::BadPeriod {
                        entry: entry.to_string(),
                    })?;
                    (n, Some(every))
                }
                None => (position, None),
            };
            let nth = positive(nth_text).ok_or_else(|| PlanError::BadIndex {
                entry: entry.to_string(),
            })?;
            plan.specs.push(FaultSpec {
                site,
                nth,
                every,
                action: FaultAction::parse(action)
                    .map_err(|message| PlanError::BadAction { message })?,
            });
        }
        Ok(plan)
    }
}

/// The armed plan plus its per-site operation/fired counters.
#[derive(Debug, Default)]
struct Armed {
    specs: Vec<FaultSpec>,
    ops: HashMap<Site, u64>,
    fired: HashMap<Site, u64>,
    fired_total: u64,
}

/// Fast-path switch: `false` means [`check`] returns `None` after one
/// relaxed load, without touching the mutex.
static IS_ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Armed>> = Mutex::new(None);

fn state() -> std::sync::MutexGuard<'static, Option<Armed>> {
    // A panic while holding this lock (e.g. an injected Panic action
    // unwinding through a caller that re-enters) must not wedge the
    // injector: the data is counters, always valid.
    STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms `plan` process-wide, resetting all counters. Replaces any
/// previously armed plan.
pub fn arm(plan: FaultPlan) {
    let mut guard = state();
    *guard = Some(Armed {
        specs: plan.specs,
        ..Armed::default()
    });
    IS_ARMED.store(true, Ordering::SeqCst);
}

/// Disarms fault injection (counters are dropped).
pub fn disarm() {
    let mut guard = state();
    *guard = None;
    IS_ARMED.store(false, Ordering::SeqCst);
}

/// Arms the plan in [`FAULT_PLAN_ENV`], if the variable is set and
/// non-empty. `Ok(true)` when a plan was armed.
///
/// # Errors
///
/// The typed parse error when the variable holds a malformed spec or
/// an unknown site (the process stays disarmed — a typo must not
/// silently run faultless).
pub fn arm_from_env() -> Result<bool, PlanError> {
    match std::env::var(FAULT_PLAN_ENV) {
        Ok(text) if !text.trim().is_empty() => {
            let plan = FaultPlan::parse(&text)?;
            arm(plan);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// The instrumented-site hook: counts one operation at `site` and
/// returns the action to inject, if the armed plan says this
/// operation faults. `None` (after one atomic load) when disarmed.
pub fn check(site: Site) -> Option<FaultAction> {
    if !IS_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut guard = state();
    let armed = guard.as_mut()?;
    let op = armed.ops.entry(site).or_insert(0);
    *op += 1;
    let op = *op;
    let action = armed
        .specs
        .iter()
        .find(|s| s.site == site && s.fires(op))
        .map(|s| s.action)?;
    *armed.fired.entry(site).or_insert(0) += 1;
    armed.fired_total += 1;
    // Every firing is observable: an instant event in the trace (with
    // the fault site as detail) and a process-wide counter. Both are
    // telemetry — the injected action itself is unchanged.
    qods_obs::trace::instant(qods_obs::sites::FAULT_FIRED, site.name());
    qods_obs::Registry::global()
        .counter(qods_obs::sites::FAULT_FIRED_TOTAL)
        .inc();
    Some(action)
}

/// [`check`] with the [`FaultAction::Delay`] action applied in place
/// (sleeps, returns `None`): the convenience form for sites where a
/// delay needs no site-specific handling.
pub fn check_sleeping(site: Site) -> Option<FaultAction> {
    match check(site) {
        Some(FaultAction::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        other => other,
    }
}

/// Faults fired since arming (all sites).
pub fn fired_total() -> u64 {
    state().as_ref().map_or(0, |a| a.fired_total)
}

/// Faults fired at one site since arming.
pub fn fired_at(site: Site) -> u64 {
    state()
        .as_ref()
        .and_then(|a| a.fired.get(&site).copied())
        .unwrap_or(0)
}

/// Operations counted at one site since arming.
pub fn ops_at(site: Site) -> u64 {
    state()
        .as_ref()
        .and_then(|a| a.ops.get(&site).copied())
        .unwrap_or(0)
}

/// SplitMix64 — the scatter generator (self-contained; this crate
/// depends only on the equally-leaf `qods-obs` telemetry crate).
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The injector is process-global; tests that arm it serialize
    /// through this lock so the parallel harness cannot interleave
    /// their plans.
    static ARM_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        ARM_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disarmed_checks_are_free_and_empty() {
        let _x = exclusive();
        disarm();
        assert_eq!(fired_total(), 0);
        for _ in 0..100 {
            assert_eq!(check(site::STORE_WRITE), None);
        }
    }

    #[test]
    fn nth_operation_fires_exactly_once() {
        let _x = exclusive();
        arm(FaultPlan::new().once(site::STORE_WRITE, 3, FaultAction::IoError));
        assert_eq!(check(site::STORE_WRITE), None);
        assert_eq!(check(site::STORE_READ), None, "sites count independently");
        assert_eq!(check(site::STORE_WRITE), None);
        assert_eq!(check(site::STORE_WRITE), Some(FaultAction::IoError));
        assert_eq!(check(site::STORE_WRITE), None);
        assert_eq!(fired_at(site::STORE_WRITE), 1);
        assert_eq!(ops_at(site::STORE_WRITE), 4);
        assert_eq!(fired_total(), 1);
        disarm();
    }

    #[test]
    fn repeating_faults_fire_on_the_period() {
        let _x = exclusive();
        arm(FaultPlan::new().repeating(site::POOL_WORKER, 2, 3, FaultAction::Panic));
        let fired: Vec<bool> = (0..9).map(|_| check(site::POOL_WORKER).is_some()).collect();
        assert_eq!(
            fired,
            vec![false, true, false, false, true, false, false, true, false]
        );
        disarm();
    }

    #[test]
    fn scatter_is_deterministic_and_distinct() {
        let a = FaultPlan::new().scatter(site::NET_CONN, FaultAction::Disconnect, 42, 10, 100);
        let b = FaultPlan::new().scatter(site::NET_CONN, FaultAction::Disconnect, 42, 10, 100);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.len(), 10);
        let nths: Vec<u64> = a.specs().iter().map(|s| s.nth).collect();
        let mut dedup = nths.clone();
        dedup.dedup();
        assert_eq!(nths, dedup, "scattered indices are distinct");
        assert!(nths.iter().all(|&n| (1..=100).contains(&n)));
        let c = FaultPlan::new().scatter(site::NET_CONN, FaultAction::Disconnect, 43, 10, 100);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn plan_round_trips_through_the_spec_string() {
        let plan = FaultPlan::new()
            .once(site::STORE_WRITE, 3, FaultAction::IoError)
            .repeating(site::POOL_WORKER, 2, 5, FaultAction::Panic)
            .once(site::MC_CHUNK, 1, FaultAction::Delay(20))
            .once(site::STORE_READ, 7, FaultAction::CorruptRead)
            .once(site::NET_CONN, 4, FaultAction::Disconnect)
            .once(site::STORE_WRITE, 9, FaultAction::TornWrite);
        let text = plan.render();
        assert_eq!(
            text,
            "store.write:3=io;pool.worker:2+5=panic;mc.chunk:1=delay:20;\
             store.read:7=corrupt;net.conn:4=disconnect;store.write:9=torn"
        );
        let back = FaultPlan::parse(&text).expect("render must parse");
        assert_eq!(back, plan);
    }

    #[test]
    fn malformed_specs_are_loud_errors() {
        let diag = |text: &str| FaultPlan::parse(text).unwrap_err().to_string();
        assert!(diag("store.write=io").contains("site:nth"));
        assert!(diag("store.write:3").contains("=action"));
        assert!(diag("store.write:x=io").contains("operation index"));
        assert!(diag("store.write:3=explode").contains("unknown fault action"));
        assert!(diag("store.write:3=delay:soon").contains("delay milliseconds"));
        assert!(diag(":3=io").contains("empty site"));
        // Empty entries (trailing semicolons) are tolerated.
        assert_eq!(
            FaultPlan::parse("store.write:1=io;;")
                .expect("parses")
                .len(),
            1
        );
        assert!(FaultPlan::parse("").expect("empty is fine").is_empty());
    }

    #[test]
    fn unknown_sites_are_typed_parse_errors() {
        // A typo-ed site must fail loudly at the untrusted boundary:
        // armed-but-never-firing is the silent drift this catches.
        let err = FaultPlan::parse("store.wrte:1=io").unwrap_err();
        assert_eq!(
            err,
            PlanError::UnknownSite {
                site: "store.wrte".to_string(),
                entry: "store.wrte:1=io".to_string(),
            }
        );
        assert!(err.to_string().contains("canonical sites"));
        // Every canonical site parses, to itself.
        for site in SITES {
            assert_eq!(Site::from_name(site.name()), Some(site));
            let plan =
                FaultPlan::parse(&format!("{}:1=io", site.name())).expect("canonical site parses");
            assert_eq!(plan.specs()[0].site, site);
        }
        assert_eq!(Site::from_name("store.wrte"), None);
    }

    #[test]
    fn zero_index_or_period_is_a_parse_error() {
        // Clamping either to 1 would turn a typo into a different plan:
        // `+0` would fault every operation.
        let entry = |text: &str| text.to_string();
        assert_eq!(
            FaultPlan::parse("store.write:0=io"),
            Err(PlanError::BadIndex {
                entry: entry("store.write:0=io")
            })
        );
        assert_eq!(
            FaultPlan::parse("store.write:1+0=io"),
            Err(PlanError::BadPeriod {
                entry: entry("store.write:1+0=io")
            })
        );
        assert_eq!(
            FaultPlan::parse("store.write:0+2=io"),
            Err(PlanError::BadIndex {
                entry: entry("store.write:0+2=io")
            })
        );
        // The in-process builders still clamp.
        let plan = FaultPlan::new().repeating(site::STORE_WRITE, 0, 0, FaultAction::IoError);
        assert_eq!(plan.render(), "store.write:1+1=io");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test times an injected delay"
    )]
    fn check_sleeping_absorbs_delays_and_passes_the_rest() {
        let _x = exclusive();
        arm(FaultPlan::new()
            .once(site::MC_CHUNK, 1, FaultAction::Delay(1))
            .once(site::MC_CHUNK, 2, FaultAction::Panic));
        let t0 = std::time::Instant::now();
        assert_eq!(
            check_sleeping(site::MC_CHUNK),
            None,
            "delay is applied inline"
        );
        assert!(t0.elapsed().as_millis() >= 1);
        assert_eq!(check_sleeping(site::MC_CHUNK), Some(FaultAction::Panic));
        disarm();
    }

    #[test]
    fn first_matching_spec_wins() {
        let _x = exclusive();
        arm(FaultPlan::new()
            .once(site::NET_CONN, 1, FaultAction::IoError)
            .once(site::NET_CONN, 1, FaultAction::Panic));
        assert_eq!(check(site::NET_CONN), Some(FaultAction::IoError));
        disarm();
    }
}
