//! Event-driven dataflow simulation of a circuit on a
//! microarchitecture (§5.2's methodology).
//!
//! Gates execute in dataflow order on the discrete-event core of
//! [`crate::engine`]: a gate becomes ready when the previous gate on
//! each of its qubits finishes, waits for its operands to be moved
//! together (the architecture's movement policy), waits for its
//! encoded ancillae (the architecture's supply pools), then executes
//! for its data latency plus the trailing QEC interaction.
//!
//! ## The overlap rule
//!
//! All *waits* of one gate overlap; all *work* is serial. Concretely,
//! a gate with dataflow readiness `ready` starts executing at
//!
//! ```text
//! start = max(moved_at, avail, delivered_at)
//! ```
//!
//! where `moved_at` is when its operand movement completes (teleports
//! and ballistic hops, plus — on CQLA — this gate's own cache-miss
//! transfers serialized through the hierarchy port), `avail` is when
//! its pools have produced the ancillae it consumes (drawn at `ready`;
//! production continues to accrue while operands move), and
//! `delivered_at` is when remotely-generated ancillae have crossed the
//! hierarchy port (CQLA only; queues behind this gate's own miss
//! transfers). Each branch is measured from `ready`, charged once, and
//! combined by `max` — a gate is never charged another gate's port
//! backlog twice, and a supply stall is never added on top of a
//! movement wait it overlapped with.
//!
//! ## Ancilla pools are token buckets, not reservoirs
//!
//! Encoded ancillae cannot be stockpiled indefinitely: an idle ancilla
//! must itself be error-corrected, and factory output ports hold only a
//! few blocks. Pools therefore accumulate at the factory rate up to a
//! small *buffer* and waste production beyond it. This is the paper's
//! central argument against dedicated generation (§5.2: "many ancilla
//! generators are idle much of the time in QLA when they could be used
//! to feed nearby data need"): a per-qubit QLA site can buffer about
//! one QEC step's worth, while a shared factory farm's output is
//! absorbed by whichever qubit needs it next. The zero and pi/8
//! streams of a pool accrue independently (distinct factories; see
//! [`crate::engine::Pool`]).
//!
//! ## Architecture-specific behavior
//!
//! Each microarchitecture is a movement policy and a pool layout over
//! one per-gate step. Nothing the policy decides depends on the factory
//! area, so one policy serves every area of a sweep:
//!
//! * **QLA**: per-qubit pools (simple factories), tiny buffers; every
//!   two-qubit gate teleports the operands together and back home.
//! * **CQLA**: gates run inside the compute cache, which inherits the
//!   QLA movement discipline internally (§5.3: compute regions mix
//!   data with generators, so data qubits "generally require
//!   teleportation for movement"). Misses teleport the operand in,
//!   evictions write back, and all memory<->cache transfers serialize
//!   on the hierarchy port. Factory area beyond what fits alongside
//!   the cache (one pipelined factory per slot) produces *remote*
//!   ancillae that arrive by teleportation: the remote share of each
//!   gate's zeros crosses the port (one teleport per block pair) and
//!   consumes twice the zeros for that share (§5.3:
//!   QEC-during-teleportation "requires twice as many encoded
//!   ancillae").
//! * **Fully-Multiplexed**: one shared pool, ballistic movement.
//! * **Qalypso**: per-tile shared pools with output ports at the data
//!   region (no delivery latency), ballistic movement within tiles,
//!   teleportation between tiles.
//!
//! ## Determinism
//!
//! FM, CQLA and Qalypso share pools, the port or the cache across
//! qubits, so the order gates run in is part of their result: a lone
//! simulation pops them from the event heap in ascending
//! `(ready time, gate index)` order (see [`crate::engine::EventQueue`]).
//! Every resource is a deterministic function of its call sequence, and
//! nothing depends on thread timing, so [`SimOutcome`] is a pure
//! function of `(circuit, arch, factory_area)` — bit-identical across
//! repeated runs and across parallel sweeps at any thread count.
//!
//! A sweep runs several areas of one `(circuit, arch)` as *lanes* of
//! one pass over a shared gate order. Each lane keeps its own pools,
//! port and per-qubit end times, and does exactly the float operations,
//! in the same order, that a lone simulation of its area does: the
//! per-gate step is one function for both. What makes a lane exact is
//! its order:
//!
//! * **Ready times in any topological order.** A gate's ready time is
//!   the `max` of its operand qubits' last end times. In any
//!   topological order the last gate seen on a qubit is the gate's own
//!   predecessor on it, so this is the heap's ready time; `f64::max` is
//!   order-insensitive on these non-NaN times, and every qubit starts
//!   at 0.0, as the heap's ready times do.
//! * **QLA lanes run in program order, unchecked.** QLA shares nothing
//!   across qubits and its movement is stateless. Dependencies chain
//!   each qubit's gates, so each per-qubit pool sees the same draws at
//!   the same ready times in any topological order, and `makespan_us`
//!   (a max) and the integer counters come out bit-identical. Movement,
//!   the zero demand and teleports depend only on the gate, so a pass
//!   computes them once per gate for all its lanes.
//! * **Event-ordered lanes replay a recorded order, checked.** One heap
//!   simulation (the *seed*, the largest area) records its pop order.
//!   Another area replays along that order π, keying each step the way
//!   the heap keys events, `(ready.to_bits() << 64) | index`. *Rule:* if
//!   the key rises strictly at every step, π is exactly the order the
//!   heap would pop for that area. *Proof:* take the first step where
//!   the heap would pop `y` but π has `x`. The prefix before it is
//!   shared, so the lane's state equals the heap's there. `y` was
//!   ready, because all its predecessors sit in the prefix: its key is
//!   final, and it is the smallest in the queue, which also holds `x`
//!   (π is topological), so `key(y) < key(x)`. `y` comes later in π
//!   with that same key, computed from the same prefix. So the keys
//!   fall somewhere after `x`, and the check catches it. Conversely the
//!   heap's own pops rise strictly (a successor is ready no earlier
//!   than its predecessor and has a larger index), so a lane on its own
//!   order always passes. A lane that fails is dropped at that step and
//!   its area re-runs on the heap.
//! * **The cache-outcome script.** CQLA's LRU cache sees only the order
//!   of gates, never their times. The seed records each gate's
//!   per-operand miss and eviction bits (one byte per gate); every lane
//!   that follows the order reads its outcomes from that script and
//!   runs no cache of its own. It keeps its own hierarchy port and
//!   pool, and the teleport and miss counts are shared.

use crate::engine::{EventQueue, Pool, SerialResource};
use crate::interconnect::Interconnect;
use crate::machine::Arch;
use qods_circuit::circuit::Circuit;
use qods_circuit::gate::Qubit;
use qods_circuit::latency_model::CharacterizationModel;
use qods_factory::supply::{FactoryFarm, ZeroFactoryKind};

/// Zero-ancilla buffer of a dedicated QLA site (about one QEC step).
const SITE_ZERO_BUFFER: f64 = 2.0;
/// pi/8 buffer of a dedicated site.
const SITE_PI8_BUFFER: f64 = 1.0;
/// Zero buffer of a shared factory farm's output ports.
const SHARED_ZERO_BUFFER: f64 = 32.0;
/// pi/8 buffer of a shared farm.
const SHARED_PI8_BUFFER: f64 = 8.0;
/// A dependency link to no gate: the qubit has no later gate.
const NO_GATE: u32 = u32::MAX;
/// The most areas one lane pass carries: independent lanes overlap
/// each other's loop-carried ready-time chains, and each lane's state
/// for one qubit stays within a few cache lines.
pub(crate) const LANES: usize = 8;

/// Result of one architectural simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Total execution time (us).
    pub makespan_us: f64,
    /// Teleport operations performed.
    pub teleports: u64,
    /// CQLA cache misses (0 for other architectures).
    pub cache_misses: u64,
}

/// Everything about a circuit that every `simulate` call on it shares:
/// the dependency links, per-gate operands and execution latencies,
/// the ancilla-demand mix, and the speed-of-data makespan. A Fig 15
/// sweep runs ~50 simulations per benchmark; this is built once and
/// borrowed by all of them (and by all sweep worker threads — it is
/// immutable after construction).
#[derive(Debug, Clone)]
pub struct SimContext<'c> {
    circuit: &'c Circuit,
    model: CharacterizationModel,
    link: Interconnect,
    /// Per-gate operand lists, inline (gates touch at most 3 qubits):
    /// 8 bytes a gate, the same [`Qubit`] index the gate itself holds.
    operands: Vec<([Qubit; 3], u8)>,
    /// Per-gate execution time: data latency + trailing QEC interact.
    exec_us: Vec<f64>,
    /// Per-gate pi/8-ancilla demand (0.0 or 1.0).
    pi8_demand: Vec<f64>,
    /// Per-operand dependency links: `next[i][j]` is the next gate on
    /// gate `i`'s `j`-th operand qubit, or [`NO_GATE`]. A gate reached
    /// through two qubits is linked (and counted) twice.
    next: Vec<[u32; 3]>,
    /// Initial indegrees: the operand slots with an earlier gate on
    /// their qubit (one per `next` link pointing at the gate).
    indegree0: Vec<u32>,
    /// Total encoded-zero demand of the circuit (2 per operand touch).
    zeros_total: f64,
    /// Total pi/8 demand.
    pi8_total: f64,
    /// Speed-of-data makespan (us) — the demand-rate denominator.
    sod_makespan_us: f64,
}

impl<'c> SimContext<'c> {
    /// Characterizes `circuit` once for any number of simulations.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not lowered (contains non-physical
    /// gates).
    pub fn new(circuit: &'c Circuit) -> Self {
        let model = CharacterizationModel::ion_trap();
        let sod = qods_circuit::schedule::SpeedOfData::of(circuit, &model);
        SimContext::with_sod_makespan(circuit, sod.makespan_us)
    }

    /// [`Self::new`] for a circuit whose speed-of-data makespan under
    /// the ion-trap model is already known, as the compile pipeline's
    /// `sched` stage stores it: the frontier pass that computes it does
    /// not run again.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not lowered.
    pub fn with_sod_makespan(circuit: &'c Circuit, sod_makespan_us: f64) -> Self {
        let model = CharacterizationModel::ion_trap();
        let link = Interconnect::ion_trap();
        let gates = circuit.gates();

        let mut operands = Vec::with_capacity(gates.len());
        let mut exec_us = Vec::with_capacity(gates.len());
        let mut pi8_demand = Vec::with_capacity(gates.len());
        let mut next = vec![[NO_GATE; 3]; gates.len()];
        let mut indegree0 = vec![0u32; gates.len()];
        // The last gate on each qubit, and the operand slot it used.
        let mut last: Vec<Option<(usize, usize)>> = vec![None; circuit.n_qubits()];
        let mut zeros_total = 0.0f64;
        let mut pi8_total = 0.0f64;
        for (i, g) in gates.iter().enumerate() {
            let qs = g.qubits();
            let mut ops = [0; 3];
            for (j, (slot, &q)) in ops.iter_mut().zip(qs.iter()).enumerate() {
                // Lossless: a circuit's qubits are below `MAX_QUBITS`.
                *slot = q as Qubit;
                if let Some((p, k)) = last[q].replace((i, j)) {
                    next[p][k] = i as u32;
                    indegree0[i] += 1;
                }
            }
            operands.push((ops, qs.len() as u8));
            exec_us.push(model.data_latency(g) + model.qec_interact());
            let pi8 = if g.needs_pi8_ancilla() { 1.0 } else { 0.0 };
            pi8_demand.push(pi8);
            pi8_total += pi8;
            zeros_total += 2.0 * qs.len() as f64;
        }

        SimContext {
            circuit,
            model,
            link,
            operands,
            exec_us,
            pi8_demand,
            next,
            indegree0,
            zeros_total,
            pi8_total,
            sod_makespan_us,
        }
    }

    /// The circuit this context characterizes.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// pi/8-to-zero demand ratio (how factory area splits between the
    /// two chains, as in Table 9).
    fn demand_ratio(&self) -> f64 {
        if self.zeros_total > 0.0 {
            self.pi8_total / self.zeros_total
        } else {
            0.0
        }
    }

    /// Simulates the context's circuit on `arch` with `factory_area`
    /// macroblocks of total ancilla-generation hardware.
    ///
    /// # Panics
    ///
    /// Panics if `factory_area <= 0`.
    pub fn simulate(&self, arch: Arch, factory_area: f64) -> SimOutcome {
        assert!(factory_area > 0.0, "factory area must be positive");
        if arch == Arch::Qla {
            // Program order is exact for QLA: a lane pass of one area,
            // which runs no check and so never falls back.
            if let Some(Some(out)) = self.replay(arch, &[factory_area], None).pop() {
                return out;
            }
        }
        self.heap(arch, factory_area, None)
    }

    /// Simulates `arch` at `factory_area` on the event heap and records
    /// its pop order, for other areas to replay along.
    ///
    /// # Panics
    ///
    /// Panics if `factory_area <= 0`.
    pub(crate) fn seed(&self, arch: Arch, factory_area: f64) -> Seed {
        let mut order = Vec::with_capacity(self.operands.len());
        let mut script = Vec::new();
        let outcome = self.heap(arch, factory_area, Some((&mut order, &mut script)));
        Seed {
            outcome,
            order,
            script,
        }
    }

    /// Simulates `arch` at each of `areas` as lanes of one pass: in
    /// program order when `along` is `None`, else along the seed's
    /// recorded order and cache outcomes. Every architecture but QLA
    /// checks each lane's keys as it goes (see the module docs); a lane
    /// that fails comes back `None`, and its area must run on the heap.
    ///
    /// # Panics
    ///
    /// Panics if an area is `<= 0`.
    pub(crate) fn replay(
        &self,
        arch: Arch,
        areas: &[f64],
        along: Option<&Seed>,
    ) -> Vec<Option<SimOutcome>> {
        let policy = self.policy(arch);
        areas
            .chunks(LANES)
            .flat_map(|group| match &policy {
                Policy::Qla(m) => self.replay_with(m, arch, group, along),
                Policy::Ballistic(m) => self.replay_with(m, arch, group, along),
                Policy::Qalypso(m) => self.replay_with(m, arch, group, along),
                Policy::Cqla(m) => self.replay_with(m, arch, group, along),
            })
            .collect()
    }

    /// [`Self::replay`] of at most [`LANES`] areas, monomorphized per
    /// movement policy.
    fn replay_with<M: MovePolicy>(
        &self,
        policy: &M,
        arch: Arch,
        areas: &[f64],
        along: Option<&Seed>,
    ) -> Vec<Option<SimOutcome>> {
        let mut lanes = Lanes::<LANES>::new(self, arch, areas);
        let (mut teleports, mut cache_misses) = (0u64, 0u64);
        // The lanes still on the order; a lane that leaves it is swapped
        // out, and the pass stops once none is left.
        let mut running: [usize; LANES] = std::array::from_fn(|l| l);
        let mut n_running = lanes.width;
        let n_gates = self.operands.len();
        for step in 0..along.map_or(n_gates, |s| s.order.len()) {
            if n_running == 0 {
                break;
            }
            let (i, outcome) = match along {
                Some(s) if M::CACHED => (s.order[step] as usize, s.script[step]),
                Some(s) => (s.order[step] as usize, 0),
                None => (step, 0),
            };
            let (ops, n_ops) = self.operands[i];
            let ops = &ops[..usize::from(n_ops)];
            let gate = self.gate(policy, i, ops, outcome);
            teleports += gate.teleports;
            cache_misses += gate.cache_misses;
            let mut k = 0;
            while k < n_running {
                let l = running[k];
                let ready = lanes.ready(l, ops);
                if M::ORDERED {
                    let key = EventQueue::key(ready, i);
                    if key < lanes.min_key[l] {
                        n_running -= 1;
                        running[k] = running[n_running];
                        continue;
                    }
                    lanes.min_key[l] = key + 1;
                }
                lanes.step(policy, l, ready, ops, &gate);
                k += 1;
            }
        }
        let running = &running[..n_running];
        (0..lanes.width)
            .map(|l| {
                running.contains(&l).then(|| SimOutcome {
                    makespan_us: lanes.makespan[l],
                    teleports,
                    cache_misses,
                })
            })
            .collect()
    }

    /// One area on the event heap, recording its pop order and cache
    /// outcomes into `record` when given.
    fn heap(
        &self,
        arch: Arch,
        factory_area: f64,
        record: Option<(&mut Vec<u32>, &mut Vec<CacheOutcome>)>,
    ) -> SimOutcome {
        match &self.policy(arch) {
            Policy::Qla(m) => self.heap_with(m, arch, factory_area, record),
            Policy::Ballistic(m) => self.heap_with(m, arch, factory_area, record),
            Policy::Qalypso(m) => self.heap_with(m, arch, factory_area, record),
            Policy::Cqla(m) => self.heap_with(m, arch, factory_area, record),
        }
    }

    /// [`Self::heap`], monomorphized per movement policy.
    fn heap_with<M: MovePolicy>(
        &self,
        policy: &M,
        arch: Arch,
        factory_area: f64,
        mut record: Option<(&mut Vec<u32>, &mut Vec<CacheOutcome>)>,
    ) -> SimOutcome {
        let mut lanes = Lanes::<1>::new(self, arch, &[factory_area]);
        let mut cache = policy.cache(self.circuit.n_qubits());
        let mut indegree = self.indegree0.clone();
        let mut queue = EventQueue::new();
        for (i, &deg) in indegree.iter().enumerate() {
            if deg == 0 {
                queue.push(0.0, i);
            }
        }
        let (mut teleports, mut cache_misses) = (0u64, 0u64);
        while let Some((ready, i)) = queue.pop() {
            let (ops, n_ops) = self.operands[i];
            let ops = &ops[..usize::from(n_ops)];
            let outcome = cache.as_mut().map_or(0, |c| c.access(ops));
            let gate = self.gate(policy, i, ops, outcome);
            teleports += gate.teleports;
            cache_misses += gate.cache_misses;
            lanes.step(policy, 0, ready, ops, &gate);
            if let Some((order, script)) = record.as_mut() {
                order.push(i as u32);
                if M::CACHED {
                    script.push(outcome);
                }
            }
            // A gate linked through two qubits is decremented twice and
            // pushed once, when its last predecessor has ended: its
            // operands' end times are then final, and the key
            // `(time, index)` is unique, so the pop order does not
            // depend on the push order.
            for &s in self.next[i].iter().filter(|&&s| s != NO_GATE) {
                let s = s as usize;
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    let (succ, n_succ) = self.operands[s];
                    queue.push(lanes.ready(0, &succ[..usize::from(n_succ)]), s);
                }
            }
        }
        SimOutcome {
            makespan_us: lanes.makespan[0],
            teleports,
            cache_misses,
        }
    }

    /// Gate `i` on `ops` under `policy`, given its cache outcome.
    #[inline]
    fn gate<M: MovePolicy>(
        &self,
        policy: &M,
        i: usize,
        ops: &[Qubit],
        outcome: CacheOutcome,
    ) -> GateMove {
        GateMove {
            pi8: self.pi8_demand[i],
            exec_us: self.exec_us[i],
            ..policy.gate(ops, outcome)
        }
    }

    /// `arch`'s movement rules on this circuit's interconnect.
    fn policy(&self, arch: Arch) -> Policy {
        let n = self.circuit.n_qubits();
        let teleport_us = self.link.teleport_us();
        match arch {
            Arch::Qla => Policy::Qla(QlaMove { teleport_us }),
            Arch::Cqla { cache_slots } => Policy::Cqla(CqlaMove {
                cache_slots,
                teleport_us,
            }),
            Arch::FullyMultiplexed => Policy::Ballistic(BallisticMove {
                hop_us: self.link.avg_ballistic_us(n),
            }),
            Arch::Qalypso { tile_qubits } => Policy::Qalypso(QalypsoMove {
                tile_qubits,
                intra_tile_us: self.link.avg_ballistic_us(tile_qubits.min(n)),
                teleport_us,
            }),
        }
    }

    /// One area's starting state under `arch`: its pool count, the pool
    /// every one of them starts as, and the remote share of its zeros
    /// (CQLA; 0 elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `factory_area <= 0`.
    fn area_state(&self, arch: Arch, factory_area: f64) -> (usize, Pool, f64) {
        assert!(factory_area > 0.0, "factory area must be positive");
        let n = self.circuit.n_qubits();
        let ratio = self.demand_ratio();
        let shared_pool = |farm: FactoryFarm| {
            Pool::new(
                farm.zero_bandwidth,
                farm.pi8_bandwidth,
                SHARED_ZERO_BUFFER,
                SHARED_PI8_BUFFER,
            )
        };
        match arch {
            Arch::Qla => {
                let per_site = factory_area / n as f64;
                let farm =
                    FactoryFarm::bandwidth_for_area(per_site, ratio, ZeroFactoryKind::Simple);
                let pool = Pool::new(
                    farm.zero_bandwidth,
                    farm.pi8_bandwidth,
                    SITE_ZERO_BUFFER,
                    SITE_PI8_BUFFER,
                );
                (n, pool, 0.0)
            }
            Arch::Cqla { cache_slots } => {
                // Compute cells carry one simple factory's worth of local
                // generation each (Fig 14a cells); everything else lives
                // memory-side and its products must cross the hierarchy
                // port to reach the data.
                let local_area = ((cache_slots as f64) * 90.0).min(factory_area);
                let local =
                    FactoryFarm::bandwidth_for_area(local_area, ratio, ZeroFactoryKind::Simple);
                let remote_area = (factory_area - local_area).max(0.0);
                let remote = FactoryFarm::bandwidth_for_area(
                    remote_area.max(1e-9),
                    ratio,
                    ZeroFactoryKind::Pipelined,
                );
                let pool = Pool::new(
                    local.zero_bandwidth + remote.zero_bandwidth,
                    local.pi8_bandwidth + remote.pi8_bandwidth,
                    SHARED_ZERO_BUFFER,
                    SHARED_PI8_BUFFER,
                );
                // Fraction of consumed ancillae that local (cache-side)
                // generation cannot cover at the speed-of-data demand
                // rate; the rest cross the hierarchy port by teleportation
                // ("cache misses are still incurred to bring ancillae to
                // data", §5.2).
                let demand_per_ms = if self.sod_makespan_us > 0.0 {
                    self.zeros_total / (self.sod_makespan_us / 1000.0)
                } else {
                    0.0
                };
                let remote_fraction = if demand_per_ms > 0.0 {
                    (1.0 - local.zero_bandwidth / demand_per_ms).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                (1, pool, remote_fraction)
            }
            Arch::FullyMultiplexed => {
                let farm = FactoryFarm::bandwidth_for_area(
                    factory_area,
                    ratio,
                    ZeroFactoryKind::Pipelined,
                );
                (1, shared_pool(farm), 0.0)
            }
            Arch::Qalypso { tile_qubits } => {
                let tiles = n.div_ceil(tile_qubits).max(1);
                let farm = FactoryFarm::bandwidth_for_area(
                    factory_area / tiles as f64,
                    ratio,
                    ZeroFactoryKind::Pipelined,
                );
                (tiles, shared_pool(farm), 0.0)
            }
        }
    }
}

/// A heap simulation's gate order, kept so other areas can replay
/// along it: the gates in the order they popped and, on CQLA, the
/// cache outcome of each step.
#[derive(Debug, Clone)]
pub(crate) struct Seed {
    /// The seed area's own result.
    pub(crate) outcome: SimOutcome,
    order: Vec<u32>,
    script: Vec<CacheOutcome>,
}

/// The CQLA compute cache's verdict on one gate: bit `j` is set when
/// operand `j` missed, and bit `3 + j` when inserting it evicted
/// (wrote back) another qubit.
type CacheOutcome = u8;

/// An architecture's movement policy, as the concrete type its
/// simulation loops are monomorphized for.
#[derive(Debug, Clone)]
enum Policy {
    Qla(QlaMove),
    Ballistic(BallisticMove),
    Qalypso(QalypsoMove),
    Cqla(CqlaMove),
}

/// An architecture's movement rules: everything about moving a gate's
/// operands that does not depend on the factory area.
trait MovePolicy {
    /// Whether the order gates run in is part of the result: true for
    /// every architecture whose qubits share a pool, the port or the
    /// cache.
    const ORDERED: bool = true;
    /// Whether gates go through the CQLA compute cache and its
    /// hierarchy port.
    const CACHED: bool = false;

    /// How the gate on `ops` moves, given its cache outcome.
    fn gate(&self, ops: &[Qubit], outcome: CacheOutcome) -> GateMove;

    /// The pool qubit `q` draws from.
    fn pool(&self, _q: Qubit) -> usize {
        0
    }

    /// The compute cache a heap run starts with (CQLA only).
    fn cache(&self, _n_qubits: usize) -> Option<LruCache> {
        None
    }
}

/// How one gate moves, for every area that runs it with the same cache
/// outcome.
#[derive(Debug, Clone, Copy, Default)]
struct GateMove {
    /// Added to when the operands are in place: the teleports or hops
    /// that bring them together (0.0 for a one-qubit gate).
    shift: f64,
    /// Port transfers of the gate's cache misses, in operand order
    /// (CQLA only): a teleport in, plus a writeback on eviction.
    transfers: [f64; 3],
    n_transfers: usize,
    /// Teleports the gate performed (each burns one EPR pair = 2
    /// encoded zeros, charged to the operands' pools).
    teleports: u64,
    /// Cache misses the gate incurred (CQLA only).
    cache_misses: u64,
    /// Those EPR zeros per operand: `2 * teleports / operands`.
    epr_zeros: f64,
    /// The gate's pi/8-ancilla demand (0.0 or 1.0).
    pi8: f64,
    /// Its execution time: data latency + trailing QEC interact.
    exec_us: f64,
}

impl GateMove {
    /// A gate on `ops` operands that meet `shift` after they are in
    /// place, with `teleports` teleports.
    #[inline]
    fn new(ops: usize, shift: f64, teleports: u64) -> GateMove {
        GateMove {
            shift,
            teleports,
            epr_zeros: 2.0 * teleports as f64 / ops.max(1) as f64,
            ..GateMove::default()
        }
    }
}

/// QLA / GQLA: every two-qubit gate teleports the operands together
/// and back home for QEC.
#[derive(Debug, Clone, Copy)]
struct QlaMove {
    teleport_us: f64,
}

impl MovePolicy for QlaMove {
    const ORDERED: bool = false;

    #[inline]
    fn pool(&self, q: Qubit) -> usize {
        usize::from(q)
    }

    #[inline]
    fn gate(&self, ops: &[Qubit], _: CacheOutcome) -> GateMove {
        if ops.len() >= 2 {
            GateMove::new(ops.len(), 2.0 * self.teleport_us, 2)
        } else {
            GateMove::new(ops.len(), 0.0, 0)
        }
    }
}

/// Fully-Multiplexed: ballistic movement across the data region.
#[derive(Debug, Clone, Copy)]
struct BallisticMove {
    hop_us: f64,
}

impl MovePolicy for BallisticMove {
    #[inline]
    fn gate(&self, ops: &[Qubit], _: CacheOutcome) -> GateMove {
        let shift = if ops.len() >= 2 { self.hop_us } else { 0.0 };
        GateMove::new(ops.len(), shift, 0)
    }
}

/// Qalypso: ballistic within a tile, teleport between tiles.
#[derive(Debug, Clone)]
struct QalypsoMove {
    tile_qubits: usize,
    intra_tile_us: f64,
    teleport_us: f64,
}

impl MovePolicy for QalypsoMove {
    #[inline]
    fn pool(&self, q: Qubit) -> usize {
        usize::from(q) / self.tile_qubits
    }

    #[inline]
    fn gate(&self, ops: &[Qubit], _: CacheOutcome) -> GateMove {
        if ops.len() < 2 {
            return GateMove::new(ops.len(), 0.0, 0);
        }
        let tile0 = self.pool(ops[0]);
        if ops.iter().all(|&q| self.pool(q) == tile0) {
            GateMove::new(ops.len(), self.intra_tile_us, 0)
        } else {
            GateMove::new(ops.len(), self.teleport_us, 1)
        }
    }
}

/// CQLA: an LRU compute cache over a serialized hierarchy port, plus
/// remote-ancilla delivery through the same port.
#[derive(Debug, Clone, Copy)]
struct CqlaMove {
    cache_slots: usize,
    teleport_us: f64,
}

impl MovePolicy for CqlaMove {
    const CACHED: bool = true;

    #[inline]
    fn gate(&self, ops: &[Qubit], outcome: CacheOutcome) -> GateMove {
        // Intra-cache movement uses teleportation: data in the compute
        // region sits interleaved with generators (§5.3); operands meet
        // and return, serial after their arrival.
        let two_qubit = ops.len() >= 2;
        let mut teleports = if two_qubit { 2 } else { 0 };
        let (mut transfers, mut n_transfers, mut cache_misses) = ([0.0; 3], 0, 0);
        // Operand misses teleport in (plus a writeback on eviction),
        // serialized on the hierarchy port.
        for j in 0..ops.len() {
            if outcome & (1 << j) != 0 {
                cache_misses += 1;
                teleports += 1;
                let mut transfer = self.teleport_us;
                if outcome & (1 << (3 + j)) != 0 {
                    transfer += self.teleport_us;
                    teleports += 1;
                }
                transfers[n_transfers] = transfer;
                n_transfers += 1;
            }
        }
        let shift = if two_qubit {
            2.0 * self.teleport_us
        } else {
            0.0
        };
        GateMove {
            transfers,
            n_transfers,
            cache_misses,
            ..GateMove::new(ops.len(), shift, teleports)
        }
    }

    fn cache(&self, n_qubits: usize) -> Option<LruCache> {
        Some(LruCache::new(self.cache_slots, 0..n_qubits))
    }
}

/// The state of up to `W` areas of one `(circuit, arch)` run side by
/// side along one gate order: per qubit and per pool, one entry a lane.
/// Nothing is sized by gates.
#[derive(Debug)]
struct Lanes<const W: usize> {
    /// Lanes in use, from lane 0.
    width: usize,
    /// When each lane's last gate on each qubit ended (0.0 before any).
    last_end: Vec<[f64; W]>,
    /// Each lane's ancilla pools.
    pools: Vec<[Pool; W]>,
    /// Each lane's hierarchy port (used by CQLA only).
    port: [SerialResource; W],
    /// Each lane's share of zeros generated memory-side (CQLA only).
    remote_fraction: [f64; W],
    /// Each lane's QEC zeros per operand: `zeros_per_qec` times
    /// `1 + remote_fraction`, since the remote share is consumed during
    /// teleportation, which "requires twice as many encoded ancillae"
    /// (§5.3).
    qec_zeros: [f64; W],
    makespan: [f64; W],
    /// The smallest event key each lane's next step may have.
    min_key: [u128; W],
    teleport_us: f64,
}

impl<const W: usize> Lanes<W> {
    /// Lanes starting `areas` (at most `W`) of `arch` on `ctx`'s circuit.
    ///
    /// # Panics
    ///
    /// Panics if an area is `<= 0`.
    fn new(ctx: &SimContext<'_>, arch: Arch, areas: &[f64]) -> Lanes<W> {
        debug_assert!(areas.len() <= W, "more areas than lanes");
        let zeros_per_qec = ctx.model.zeros_per_qec() as f64;
        // Lanes past `areas` keep a dry pool and never run.
        let mut start = [(0, Pool::new(0.0, 0.0, 0.0, 0.0), 0.0); W];
        for (slot, &area) in start.iter_mut().zip(areas) {
            *slot = ctx.area_state(arch, area);
        }
        Lanes {
            width: areas.len().min(W),
            last_end: vec![[0.0; W]; ctx.circuit.n_qubits()],
            pools: vec![start.map(|(_, pool, _)| pool); start[0].0],
            port: [SerialResource::new(); W],
            remote_fraction: start.map(|(_, _, remote)| remote),
            qec_zeros: start.map(|(_, _, remote)| zeros_per_qec * (1.0 + remote)),
            makespan: [0.0; W],
            min_key: [0; W],
            teleport_us: ctx.link.teleport_us(),
        }
    }

    /// Lane `l`'s ready time for a gate on `ops`: the latest end of its
    /// predecessors, exact in any topological order.
    #[inline]
    fn ready(&self, l: usize, ops: &[Qubit]) -> f64 {
        ops.iter()
            .fold(0.0f64, |r, &q| r.max(self.last_end[usize::from(q)][l]))
    }

    /// Runs one gate on lane `l`, dataflow-ready at `ready`, and
    /// returns when it ends. The one per-gate step of every simulation.
    #[inline]
    fn step<M: MovePolicy>(
        &mut self,
        policy: &M,
        l: usize,
        ready: f64,
        ops: &[Qubit],
        gate: &GateMove,
    ) -> f64 {
        // Movement: the gate's own miss transfers queue on the port
        // behind earlier gates' backlog exactly once, then the operands
        // meet.
        let (moved_at, delivered_at) = if M::CACHED {
            let port = &mut self.port[l];
            let mut operands_at = ready;
            for &transfer in &gate.transfers[..gate.n_transfers] {
                operands_at = port.acquire(ready, transfer);
            }
            // Remote ancilla delivery: the memory-side share of this
            // gate's encoded zeros crosses the hierarchy port (one
            // teleport per block pair), queued behind this gate's own
            // miss transfers; it overlaps the intra-cache movement.
            let remote_zeros = self.remote_fraction[l] * 2.0 * ops.len() as f64;
            let delivered_at = if remote_zeros > 0.0 {
                port.acquire(ready, remote_zeros / 2.0 * self.teleport_us)
            } else {
                ready
            };
            (operands_at + gate.shift, delivered_at)
        } else {
            (ready + gate.shift, ready)
        };

        // Supply: draw this gate's encoded ancillae at `ready`
        // (production keeps accruing while operands move). Teleports
        // burn EPR pairs of encoded blocks on top of the QEC zeros,
        // spread over the operands' pools.
        let zeros_per_qubit = self.qec_zeros[l] + gate.epr_zeros;
        let mut avail = ready;
        for (j, &q) in ops.iter().enumerate() {
            let pi8_here = if j == 0 { gate.pi8 } else { 0.0 };
            let a = self.pools[policy.pool(q)][l].consume(zeros_per_qubit, pi8_here, ready);
            avail = avail.max(a);
        }

        // All waits overlap; execution is serial after the last.
        let start = moved_at.max(delivered_at).max(avail).max(ready);
        let end = start + gate.exec_us;
        self.makespan[l] = self.makespan[l].max(end);
        for &q in ops {
            self.last_end[usize::from(q)][l] = end;
        }
        end
    }
}

/// A simple LRU set for the CQLA compute cache.
#[derive(Debug, Clone)]
struct LruCache {
    slots: usize,
    /// Most recent at the back.
    order: Vec<usize>,
}

impl LruCache {
    fn new(slots: usize, initial: impl Iterator<Item = usize>) -> Self {
        let mut order: Vec<usize> = initial.take(slots).collect();
        order.reverse(); // first qubits become least recent
        LruCache { slots, order }
    }

    /// Runs one gate on `ops` through the cache and returns its outcome:
    /// each operand is touched, and a missing one inserted, in order.
    fn access(&mut self, ops: &[Qubit]) -> CacheOutcome {
        let mut outcome = 0;
        for (j, &q) in ops.iter().enumerate() {
            let q = usize::from(q);
            if !self.touch(q) {
                outcome |= 1 << j;
                if self.insert(q, ops) {
                    outcome |= 1 << (3 + j);
                }
            }
        }
        outcome
    }

    /// Marks `q` most recently used; returns false (changing nothing)
    /// when `q` is not cached.
    fn touch(&mut self, q: usize) -> bool {
        let Some(at) = self.order.iter().position(|&x| x == q) else {
            return false;
        };
        self.order[at..].rotate_left(1);
        true
    }

    /// Inserts `q`; returns true when an eviction (writeback) was
    /// needed. Qubits in `pinned` are not evicted.
    fn insert(&mut self, q: usize, pinned: &[Qubit]) -> bool {
        debug_assert!(!self.order.contains(&q));
        let mut evicted = false;
        if self.order.len() >= self.slots {
            let victim = self
                .order
                .iter()
                .position(|&x| !pinned.iter().any(|&p| usize::from(p) == x))
                .expect("cache larger than one gate's operand set");
            self.order.remove(victim);
            evicted = true;
        }
        self.order.push(q);
        evicted
    }
}

/// Simulates `circuit` on `arch` with `factory_area` macroblocks of
/// total ancilla-generation hardware. One-shot convenience over
/// [`SimContext`]; sweeps should build the context once instead.
///
/// # Panics
///
/// Panics if `factory_area <= 0` or the circuit is not lowered.
pub fn simulate(circuit: &Circuit, arch: Arch, factory_area: f64) -> SimOutcome {
    SimContext::new(circuit).simulate(arch, factory_area)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qods_circuit::circuit::Circuit;
    use qods_circuit::schedule::Schedule;

    fn toy(n: usize, layers: usize) -> Circuit {
        let mut c = Circuit::named(n, "toy");
        for _ in 0..layers {
            for q in 0..n {
                c.h(q);
            }
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
            c.t(0);
        }
        c
    }

    #[test]
    fn generous_fm_approaches_speed_of_data() {
        let c = toy(4, 6);
        let model = CharacterizationModel::ion_trap();
        let sod = Schedule::speed_of_data(&c, &model).makespan_us;
        let out = simulate(&c, Arch::FullyMultiplexed, 1e9);
        // FM adds only ballistic movement on 2q gates.
        assert!(out.makespan_us >= sod);
        assert!(out.makespan_us < sod * 1.5, "{} vs {sod}", out.makespan_us);
        assert_eq!(out.cache_misses, 0);
    }

    #[test]
    fn qla_is_never_faster_than_fm() {
        let c = toy(6, 4);
        for area in [1e3, 1e4, 1e5, 1e6] {
            let fm = simulate(&c, Arch::FullyMultiplexed, area);
            let qla = simulate(&c, Arch::Qla, area);
            assert!(
                qla.makespan_us >= fm.makespan_us * 0.999,
                "area {area}: QLA {} < FM {}",
                qla.makespan_us,
                fm.makespan_us
            );
        }
    }

    #[test]
    fn qla_wastes_idle_generation() {
        // With per-site buckets, a serial chain on one qubit starves
        // even though aggregate production would suffice: the other
        // sites' generators idle at full buffers.
        let mut c = Circuit::new(8);
        for _ in 0..50 {
            c.h(0);
        }
        let area = 8.0 * 200.0; // modest per-site generation
        let fm = simulate(&c, Arch::FullyMultiplexed, area);
        let qla = simulate(&c, Arch::Qla, area);
        assert!(
            qla.makespan_us > fm.makespan_us * 2.0,
            "QLA {} vs FM {}",
            qla.makespan_us,
            fm.makespan_us
        );
    }

    #[test]
    fn cqla_misses_cost_time() {
        let c = toy(8, 4);
        let big = simulate(&c, Arch::Cqla { cache_slots: 8 }, 1e6);
        let small = simulate(&c, Arch::Cqla { cache_slots: 4 }, 1e6);
        assert!(small.cache_misses > 0);
        assert!(big.cache_misses <= small.cache_misses);
        assert!(small.makespan_us > big.makespan_us);
    }

    #[test]
    fn cqla_plateaus_above_fm() {
        let c = toy(8, 6);
        let fm = simulate(&c, Arch::FullyMultiplexed, 1e7);
        let cqla = simulate(&c, Arch::Cqla { cache_slots: 4 }, 1e7);
        assert!(
            cqla.makespan_us > fm.makespan_us * 1.5,
            "CQLA {} vs FM {}",
            cqla.makespan_us,
            fm.makespan_us
        );
    }

    #[test]
    fn starved_architectures_are_supply_limited() {
        let c = toy(4, 8);
        let tiny = simulate(&c, Arch::FullyMultiplexed, 10.0);
        let big = simulate(&c, Arch::FullyMultiplexed, 1e7);
        assert!(tiny.makespan_us > 10.0 * big.makespan_us);
    }

    #[test]
    fn qalypso_matches_fm_within_tile() {
        // Whole circuit in one tile: Qalypso == FM up to the ballistic
        // distance (tile smaller than full region helps slightly).
        let c = toy(8, 4);
        let fm = simulate(&c, Arch::FullyMultiplexed, 1e7);
        let qal = simulate(&c, Arch::Qalypso { tile_qubits: 8 }, 1e7);
        assert!(qal.makespan_us <= fm.makespan_us * 1.01);
        assert_eq!(qal.teleports, 0);
    }

    #[test]
    fn cross_tile_gates_teleport() {
        let mut c = Circuit::new(8);
        c.cx(0, 7); // tiles 0 and 1 with tile_qubits = 4
        let out = simulate(&c, Arch::Qalypso { tile_qubits: 4 }, 1e6);
        assert_eq!(out.teleports, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_area_panics() {
        let c = toy(2, 1);
        let _ = simulate(&c, Arch::FullyMultiplexed, 0.0);
    }

    #[test]
    fn context_reuse_matches_one_shot_simulate() {
        let c = toy(6, 5);
        let ctx = SimContext::new(&c);
        for arch in [
            Arch::FullyMultiplexed,
            Arch::Qla,
            Arch::Cqla { cache_slots: 4 },
            Arch::Qalypso { tile_qubits: 4 },
        ] {
            for area in [500.0, 5e4, 5e6] {
                assert_eq!(ctx.simulate(arch, area), simulate(&c, arch, area));
            }
        }
    }

    #[test]
    fn outcome_is_identical_across_repeated_runs() {
        // The determinism contract: SimOutcome is a pure function of
        // (circuit, arch, area) — including equal-time event ties,
        // which resolve in program order.
        let c = toy(8, 6);
        let ctx = SimContext::new(&c);
        for arch in [
            Arch::FullyMultiplexed,
            Arch::Qla,
            Arch::Cqla { cache_slots: 4 },
            Arch::Qalypso { tile_qubits: 4 },
        ] {
            let first = ctx.simulate(arch, 3e4);
            for _ in 0..3 {
                assert_eq!(ctx.simulate(arch, 3e4), first);
            }
        }
    }

    /// Lowers a random circuit of 1-, 2- and 3-qubit gates (Toffolis
    /// become their 7T + 6CX + 2H network). Kinds 6 and 7 repeat the
    /// previous CX's operand pair as it was and swapped, so one gate
    /// is often the next gate on two of another's qubits.
    fn random_lowered(n: usize, picks: &[(u8, u8, u8, u8)]) -> Circuit {
        let mut c = Circuit::new(n);
        let mut pair = (0, 1);
        for &(kind, a, b, t) in picks {
            let (a, b, t) = (a as usize % n, b as usize % n, t as usize % n);
            match kind {
                0 => c.h(a),
                1 => c.t(a),
                2 => c.s(a),
                3 | 4 if a != b => {
                    pair = (a, b);
                    c.cx(a, b);
                }
                5 if a != b && b != t && a != t => c.toffoli(a, b, t),
                6 => c.cx(pair.0, pair.1),
                7 => c.cx(pair.1, pair.0),
                _ => c.x(a),
            }
        }
        c.lower(&qods_circuit::circuit::NoSynth)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// QLA's program-order lanes are exact: `makespan_us` is a max
        /// and the counters are integer sums, so every lane of one
        /// unchecked pass matches the event-heap run of its area bit
        /// for bit.
        #[test]
        fn qla_program_order_matches_event_order(
            n in 3usize..10,
            picks in proptest::collection::vec((0u8..6, 0u8..255, 0u8..255, 0u8..255), 1..80),
            area_exps_x8 in proptest::collection::vec(8u32..56, 1..12),
        ) {
            let c = random_lowered(n, &picks);
            let ctx = SimContext::new(&c);
            let areas: Vec<f64> =
                area_exps_x8.iter().map(|&e| 10f64.powf(f64::from(e) / 8.0)).collect();
            let lanes = ctx.replay(Arch::Qla, &areas, None);
            proptest::prop_assert_eq!(lanes.len(), areas.len());
            for (lane, &area) in lanes.into_iter().zip(&areas) {
                let events = ctx.heap(Arch::Qla, area, None);
                let lane = lane.expect("unchecked lanes never fall back");
                proptest::prop_assert_eq!(lane.makespan_us.to_bits(), events.makespan_us.to_bits());
                proptest::prop_assert_eq!(lane.teleports, events.teleports);
                proptest::prop_assert_eq!(lane.cache_misses, events.cache_misses);
            }
        }

        /// The sweep's lanes are exact: on random lowered circuits and
        /// random area grids (1 to 20 points, so some grids do not fill
        /// whole lane groups), every architecture's sweep outcome, CQLA
        /// with small caches included, equals a lone simulation of each
        /// area bit for bit, whether its lane kept to the seed's order or
        /// fell back to the heap.
        #[test]
        fn sweep_lanes_match_lone_simulations(
            n in 3usize..10,
            picks in proptest::collection::vec((0u8..8, 0u8..255, 0u8..255, 0u8..255), 1..80),
            area_exps_x8 in proptest::collection::vec(8u32..56, 1..21),
            cache_slots in 2usize..6,
            tile_qubits in 2usize..5,
            threads in 1usize..3,
        ) {
            let c = random_lowered(n, &picks);
            let ctx = SimContext::new(&c);
            let areas: Vec<f64> =
                area_exps_x8.iter().map(|&e| 10f64.powf(f64::from(e) / 8.0)).collect();
            let archs = [
                Arch::FullyMultiplexed,
                Arch::Qla,
                Arch::Cqla { cache_slots },
                Arch::Qalypso { tile_qubits },
            ];
            let swept = crate::sweep::sweep_outcomes(&ctx, &archs, &areas, threads);
            for (&arch, outcomes) in archs.iter().zip(swept) {
                proptest::prop_assert_eq!(outcomes.len(), areas.len());
                for (out, &area) in outcomes.iter().zip(&areas) {
                    let lone = ctx.simulate(arch, area);
                    proptest::prop_assert_eq!(out.makespan_us.to_bits(), lone.makespan_us.to_bits());
                    proptest::prop_assert_eq!(out.teleports, lone.teleports);
                    proptest::prop_assert_eq!(out.cache_misses, lone.cache_misses);
                }
            }
        }

        /// The dependency links against their brute-force definition:
        /// each `next` slot holds the first later gate on that
        /// operand's qubit, and each gate's initial indegree is the
        /// number of slots pointing at it.
        #[test]
        fn links_are_the_next_gate_on_each_operand(
            n in 2usize..8,
            picks in proptest::collection::vec((0u8..8, 0u8..255, 0u8..255, 0u8..255), 1..80),
        ) {
            let c = random_lowered(n, &picks);
            let ctx = SimContext::new(&c);
            let gates = c.gates();
            for (i, g) in gates.iter().enumerate() {
                let qs = g.qubits();
                for (j, &link) in ctx.next[i].iter().enumerate() {
                    let first_later = qs.get(j).and_then(|q| {
                        (i + 1..gates.len()).find(|&k| gates[k].qubits().contains(q))
                    });
                    proptest::prop_assert_eq!(link, first_later.map_or(NO_GATE, |k| k as u32));
                }
                let pointing = ctx.next.iter().flatten().filter(|&&s| s as usize == i).count();
                proptest::prop_assert_eq!(ctx.indegree0[i] as usize, pointing);
            }
        }
    }

    #[test]
    fn the_check_rejects_another_areas_order() {
        // A starved FM area pops in a different order than a generous
        // one: replayed along the generous area's order, its keys fall,
        // the lane is dropped, and the sweep re-runs it on the heap.
        let c = toy(8, 6);
        let ctx = SimContext::new(&c);
        let (starved, generous) = (300.0, 1e7);
        let seed = ctx.seed(Arch::FullyMultiplexed, generous);
        let own = ctx.seed(Arch::FullyMultiplexed, starved);
        assert_ne!(own.order, seed.order, "the two areas must pop differently");
        let lanes = ctx.replay(Arch::FullyMultiplexed, &[starved, generous], Some(&seed));
        assert_eq!(lanes[0], None, "the starved lane must fail the check");
        assert_eq!(
            lanes[1],
            Some(seed.outcome),
            "the seed's own area keeps to it"
        );
        let swept =
            crate::sweep::sweep_outcomes(&ctx, &[Arch::FullyMultiplexed], &[starved, generous], 1);
        assert_eq!(swept[0][0], ctx.simulate(Arch::FullyMultiplexed, starved));
        assert_eq!(swept[0][0], own.outcome);
    }

    #[test]
    fn waits_overlap_instead_of_adding() {
        // One CX on Fully-Multiplexed: idle qubits lengthen only the
        // ballistic hop (the mean separation grows with the region),
        // never the supply wait, which both operands draw from one
        // shared pool at t=0. The gate runs for its 10 + 122 us the
        // moment the slower wait ends, so while the hop is shorter
        // than the stall the makespan does not move, and past it the
        // makespan is hop + exec. Serializing supply behind movement
        // would add every hop on top of the stall.
        let link = Interconnect::ion_trap();
        let cx_makespan = |n: usize| {
            let mut c = Circuit::new(n);
            c.cx(0, 1);
            simulate(&c, Arch::FullyMultiplexed, 200.0).makespan_us
        };
        let stall = cx_makespan(2) - 132.0;
        for n in [2usize, 64, 256, 1024, 4096] {
            let hop = link.avg_ballistic_us(n);
            let makespan = cx_makespan(n);
            assert!(
                (makespan - (hop.max(stall) + 132.0)).abs() < 1e-6,
                "{n} qubits: makespan {makespan} != max(hop {hop}, stall {stall}) + exec"
            );
        }
        // Both sides of the max were taken.
        assert!(link.avg_ballistic_us(1024) < stall && stall < link.avg_ballistic_us(4096));
    }
}
