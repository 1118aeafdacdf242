//! Event-driven dataflow simulation of a circuit on a
//! microarchitecture (§5.2's methodology).
//!
//! Gates execute in dataflow order on the discrete-event core of
//! [`crate::engine`]: a gate becomes ready when its DAG predecessors
//! finish, waits for its operands to be moved together (the
//! architecture's movement policy), waits for its encoded ancillae
//! (the architecture's supply pools), then executes for its data
//! latency plus the trailing QEC interaction.
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
//! Diagnostics follow the same split: `movement_us` accumulates
//! `max(moved_at, delivered_at) - ready` (transport, including port
//! queueing) and `supply_stall_us` accumulates `avail - ready`
//! (production shortfall).
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
//! Each microarchitecture is a [movement policy](MovePolicy), a pool
//! layout and a frontier (the order gates run in) over one generic
//! event loop, chosen once per `simulate` call:
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
//! qubits, so their gates pop from the event heap in ascending
//! `(ready time, gate index)` order (see [`crate::engine::EventQueue`]).
//! QLA shares nothing across qubits and walks gates in program order
//! instead. That is exact: the DAG chains each qubit's gates, so each
//! per-qubit pool sees the same draws at the same ready times in
//! either order, and `makespan_us` (a max) and the integer counters
//! come out bit-identical. Only QLA's `f64` diagnostic sums
//! (`movement_us`, `supply_stall_us`) depend on the order, in the last
//! bits. Every resource is a deterministic function of its call
//! sequence, and nothing depends on thread timing, so [`SimOutcome`]
//! is a pure function of `(circuit, arch, factory_area)` —
//! bit-identical across repeated runs and across parallel sweeps at
//! any thread count.

use crate::engine::{EventQueue, Pool, SerialResource};
use crate::interconnect::Interconnect;
use crate::machine::Arch;
use qods_circuit::circuit::Circuit;
use qods_circuit::dag::Dag;
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

/// Result of one architectural simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Total execution time (us).
    pub makespan_us: f64,
    /// Teleport operations performed.
    pub teleports: u64,
    /// CQLA cache misses (0 for other architectures).
    pub cache_misses: u64,
    /// Total movement latency charged across gates (diagnostics).
    pub movement_us: f64,
    /// Total ancilla-supply stall across gates (diagnostics).
    pub supply_stall_us: f64,
}

/// Everything about a circuit that every `simulate` call on it shares:
/// the dependency DAG (as successor lists), per-gate operands and
/// execution latencies, the ancilla-demand mix, and the speed-of-data
/// makespan. A Fig 15 sweep runs ~50 simulations per benchmark; this
/// is built once and borrowed by all of them (and by all sweep worker
/// threads — it is immutable after construction).
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
    /// Successor adjacency, flattened: gate `i`'s successors are
    /// `succ_dat[succ_off[i]..succ_off[i + 1]]`.
    succ_off: Vec<u32>,
    succ_dat: Vec<u32>,
    /// Predecessor counts (initial indegrees).
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
        let link = Interconnect::ion_trap();
        let gates = circuit.gates();
        let dag = Dag::build(circuit);

        let mut operands = Vec::with_capacity(gates.len());
        let mut exec_us = Vec::with_capacity(gates.len());
        let mut pi8_demand = Vec::with_capacity(gates.len());
        let mut zeros_total = 0.0f64;
        let mut pi8_total = 0.0f64;
        for g in gates {
            let qs = g.qubits();
            let mut ops = [0; 3];
            for (slot, &q) in ops.iter_mut().zip(qs.iter()) {
                // Lossless: a circuit's qubits are below `MAX_QUBITS`.
                *slot = q as Qubit;
            }
            operands.push((ops, qs.len() as u8));
            exec_us.push(model.data_latency(g) + model.qec_interact());
            let pi8 = if g.needs_pi8_ancilla() { 1.0 } else { 0.0 };
            pi8_demand.push(pi8);
            pi8_total += pi8;
            zeros_total += 2.0 * qs.len() as f64;
        }

        let mut indegree0 = vec![0u32; gates.len()];
        let mut succ_count = vec![0u32; gates.len()];
        for (i, slot) in indegree0.iter_mut().enumerate() {
            let preds = dag.preds(i);
            *slot = preds.len() as u32;
            for &p in preds {
                succ_count[p] += 1;
            }
        }
        let mut succ_off = Vec::with_capacity(gates.len() + 1);
        let mut acc = 0u32;
        for &c in &succ_count {
            succ_off.push(acc);
            acc += c;
        }
        succ_off.push(acc);
        let mut succ_dat = vec![0u32; acc as usize];
        let mut cursor: Vec<u32> = succ_off[..gates.len()].to_vec();
        for i in 0..gates.len() {
            for &p in dag.preds(i) {
                succ_dat[cursor[p] as usize] = i as u32;
                cursor[p] += 1;
            }
        }

        let sod_makespan_us = qods_circuit::schedule::SpeedOfData::of(circuit, &model).makespan_us;

        SimContext {
            circuit,
            model,
            link,
            operands,
            exec_us,
            pi8_demand,
            succ_off,
            succ_dat,
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
        let n = self.circuit.n_qubits();
        let ratio = self.demand_ratio();
        let teleport_us = self.link.teleport_us();
        let shared_pool = |farm: FactoryFarm| {
            Pool::new(
                farm.zero_bandwidth,
                farm.pi8_bandwidth,
                SHARED_ZERO_BUFFER,
                SHARED_PI8_BUFFER,
            )
        };
        match arch {
            Arch::Qla => self.qla(factory_area, ProgramOrder::new(self)),
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
                let policy = CqlaMove {
                    cache: LruCache::new(cache_slots, 0..n),
                    port: SerialResource::new(),
                    teleport_us,
                    remote_fraction,
                };
                self.run(policy, vec![pool], |_| 0, EventOrder::new(self))
            }
            Arch::FullyMultiplexed => {
                let farm = FactoryFarm::bandwidth_for_area(
                    factory_area,
                    ratio,
                    ZeroFactoryKind::Pipelined,
                );
                let policy = BallisticMove {
                    hop_us: self.link.avg_ballistic_us(n),
                };
                self.run(
                    policy,
                    vec![shared_pool(farm)],
                    |_| 0,
                    EventOrder::new(self),
                )
            }
            Arch::Qalypso { tile_qubits } => {
                let tiles = n.div_ceil(tile_qubits).max(1);
                let farm = FactoryFarm::bandwidth_for_area(
                    factory_area / tiles as f64,
                    ratio,
                    ZeroFactoryKind::Pipelined,
                );
                let policy = QalypsoMove {
                    tile_qubits,
                    intra_tile_us: self.link.avg_ballistic_us(tile_qubits.min(n)),
                    teleport_us,
                };
                self.run(
                    policy,
                    vec![shared_pool(farm); tiles],
                    |q| q / tile_qubits,
                    EventOrder::new(self),
                )
            }
        }
    }

    /// QLA through `frontier` (program order in [`Self::simulate`]; the
    /// tests also run it in event order).
    fn qla(&self, factory_area: f64, frontier: impl Frontier) -> SimOutcome {
        let n = self.circuit.n_qubits();
        let per_site = factory_area / n as f64;
        let farm =
            FactoryFarm::bandwidth_for_area(per_site, self.demand_ratio(), ZeroFactoryKind::Simple);
        let pool = Pool::new(
            farm.zero_bandwidth,
            farm.pi8_bandwidth,
            SITE_ZERO_BUFFER,
            SITE_PI8_BUFFER,
        );
        let policy = QlaMove {
            teleport_us: self.link.teleport_us(),
        };
        self.run(policy, vec![pool; n], |q| q, frontier)
    }

    /// The event loop, monomorphized per architecture: `policy` moves
    /// each gate's operands, `pool_of` maps a qubit to its pool in
    /// `pools`, and `frontier` hands out gates with their dataflow
    /// ready times.
    fn run<M: MovePolicy>(
        &self,
        mut policy: M,
        mut pools: Vec<Pool>,
        pool_of: impl Fn(usize) -> usize,
        mut frontier: impl Frontier,
    ) -> SimOutcome {
        let mut makespan = 0.0f64;
        let mut teleports = 0u64;
        let mut cache_misses = 0u64;
        let mut movement_us = 0.0f64;
        let mut supply_stall_us = 0.0f64;
        let zeros_per_qec = self.model.zeros_per_qec() as f64;

        while let Some((ready, i)) = frontier.pop() {
            let (ops, n_ops) = self.operands[i];
            let ops = &ops[..n_ops as usize];

            // Movement: bring the operands together (and, on CQLA,
            // deliver the remote ancilla share through the port).
            let mv = policy.movement(ready, ops);
            teleports += mv.teleports;
            cache_misses += mv.cache_misses;

            // Supply: draw this gate's encoded ancillae at `ready`
            // (production keeps accruing while operands move).
            // Teleports burn EPR pairs of encoded blocks on top of the
            // QEC zeros, spread over the operands' pools; the remote
            // share of CQLA zeros doubles (QEC during teleportation).
            let zeros_per_qubit = zeros_per_qec * mv.zero_multiplier
                + 2.0 * mv.teleports as f64 / ops.len().max(1) as f64;
            let pi8 = self.pi8_demand[i];
            let mut avail = ready;
            for (j, &q) in ops.iter().enumerate() {
                let pi8_here = if j == 0 { pi8 } else { 0.0 };
                let a = pools[pool_of(usize::from(q))].consume(zeros_per_qubit, pi8_here, ready);
                avail = avail.max(a);
            }

            let transport_done = mv.moved_at.max(mv.delivered_at);
            movement_us += (transport_done - ready).max(0.0);
            supply_stall_us += (avail - ready).max(0.0);

            // All waits overlap; execution is serial after the last.
            let start = transport_done.max(avail).max(ready);
            let e = start + self.exec_us[i];
            makespan = makespan.max(e);
            frontier.finish(
                &self.succ_dat[self.succ_off[i] as usize..self.succ_off[i + 1] as usize],
                e,
            );
        }

        SimOutcome {
            makespan_us: makespan,
            teleports,
            cache_misses,
            movement_us,
            supply_stall_us,
        }
    }
}

/// The order [`SimContext::run`] executes gates in.
trait Frontier {
    /// The next gate to execute, with its dataflow ready time.
    fn pop(&mut self) -> Option<(f64, usize)>;
    /// The popped gate finished at `end`; `succs` are its DAG
    /// successors.
    fn finish(&mut self, succs: &[u32], end: f64);
}

/// Ready gates in ascending `(ready time, gate index)` order, through
/// the event heap: the order any architecture whose qubits share state
/// (a pool or the hierarchy port) needs.
struct EventOrder {
    indegree: Vec<u32>,
    ready_time: Vec<f64>,
    queue: EventQueue,
}

impl EventOrder {
    fn new(ctx: &SimContext<'_>) -> Self {
        let mut queue = EventQueue::new();
        for (i, &deg) in ctx.indegree0.iter().enumerate() {
            if deg == 0 {
                queue.push(0.0, i);
            }
        }
        EventOrder {
            indegree: ctx.indegree0.clone(),
            ready_time: vec![0.0; ctx.indegree0.len()],
            queue,
        }
    }
}

impl Frontier for EventOrder {
    fn pop(&mut self) -> Option<(f64, usize)> {
        self.queue.pop()
    }

    fn finish(&mut self, succs: &[u32], end: f64) {
        for &s in succs {
            let s = s as usize;
            self.ready_time[s] = self.ready_time[s].max(end);
            self.indegree[s] -= 1;
            if self.indegree[s] == 0 {
                self.queue.push(self.ready_time[s], s);
            }
        }
    }
}

/// Gates in program order. Exact for QLA only: its pools are per qubit
/// and its movement is stateless, and the DAG chains each qubit's
/// gates, so every pool sees the same draws at the same ready times as
/// in event order (see the module docs).
struct ProgramOrder {
    ready_time: Vec<f64>,
    next: usize,
}

impl ProgramOrder {
    fn new(ctx: &SimContext<'_>) -> Self {
        ProgramOrder {
            ready_time: vec![0.0; ctx.indegree0.len()],
            next: 0,
        }
    }
}

impl Frontier for ProgramOrder {
    fn pop(&mut self) -> Option<(f64, usize)> {
        // Predecessors precede their successors in program order, so
        // gate `next`'s ready time is final here.
        let ready = *self.ready_time.get(self.next)?;
        self.next += 1;
        Some((ready, self.next - 1))
    }

    fn finish(&mut self, succs: &[u32], end: f64) {
        for &s in succs {
            let s = s as usize;
            self.ready_time[s] = self.ready_time[s].max(end);
        }
    }
}

/// How one gate's movement resolved (absolute times).
struct Movement {
    /// When the operands are together (>= ready).
    moved_at: f64,
    /// When remotely-generated ancillae have arrived (>= ready;
    /// `ready` itself when the architecture delivers locally).
    delivered_at: f64,
    /// Teleports this gate performed (each burns one EPR pair = 2
    /// encoded zeros, charged to the operands' pools).
    teleports: u64,
    /// Cache misses this gate incurred (CQLA only).
    cache_misses: u64,
    /// Multiplier on the gate's QEC-zero demand (CQLA charges the
    /// remote share twice; everyone else 1.0).
    zero_multiplier: f64,
}

impl Movement {
    fn local(moved_at: f64, teleports: u64) -> Movement {
        Movement {
            moved_at,
            delivered_at: moved_at,
            teleports,
            cache_misses: 0,
            zero_multiplier: 1.0,
        }
    }
}

/// An architecture's movement discipline over the event engine. One
/// instance lives per `simulate` call and is invoked once per gate, in
/// the frontier's order.
trait MovePolicy {
    fn movement(&mut self, ready: f64, ops: &[Qubit]) -> Movement;
}

/// QLA / GQLA: every two-qubit gate teleports the operands together
/// and back home for QEC.
struct QlaMove {
    teleport_us: f64,
}

impl MovePolicy for QlaMove {
    fn movement(&mut self, ready: f64, ops: &[Qubit]) -> Movement {
        if ops.len() >= 2 {
            Movement::local(ready + 2.0 * self.teleport_us, 2)
        } else {
            Movement::local(ready, 0)
        }
    }
}

/// Fully-Multiplexed: ballistic movement across the data region.
struct BallisticMove {
    hop_us: f64,
}

impl MovePolicy for BallisticMove {
    fn movement(&mut self, ready: f64, ops: &[Qubit]) -> Movement {
        if ops.len() >= 2 {
            Movement::local(ready + self.hop_us, 0)
        } else {
            Movement::local(ready, 0)
        }
    }
}

/// Qalypso: ballistic within a tile, teleport between tiles.
struct QalypsoMove {
    tile_qubits: usize,
    intra_tile_us: f64,
    teleport_us: f64,
}

impl MovePolicy for QalypsoMove {
    fn movement(&mut self, ready: f64, ops: &[Qubit]) -> Movement {
        if ops.len() < 2 {
            return Movement::local(ready, 0);
        }
        let tile0 = usize::from(ops[0]) / self.tile_qubits;
        let same_tile = ops
            .iter()
            .all(|&q| usize::from(q) / self.tile_qubits == tile0);
        if same_tile {
            Movement::local(ready + self.intra_tile_us, 0)
        } else {
            Movement::local(ready + self.teleport_us, 1)
        }
    }
}

/// CQLA: an LRU compute cache over a serialized hierarchy port, plus
/// remote-ancilla delivery through the same port.
struct CqlaMove {
    cache: LruCache,
    port: SerialResource,
    teleport_us: f64,
    /// Fraction of consumed zeros generated memory-side (must cross
    /// the port by teleportation).
    remote_fraction: f64,
}

impl MovePolicy for CqlaMove {
    fn movement(&mut self, ready: f64, ops: &[Qubit]) -> Movement {
        let mut teleports = 0u64;
        let mut cache_misses = 0u64;
        // Operand misses: teleport in (plus writeback on eviction),
        // serialized on the hierarchy port in gate-event order. The
        // gate waits for *its own* transfers to land; the port
        // calendar makes them queue behind earlier gates' backlog
        // exactly once.
        let mut operands_at = ready;
        for &q in ops {
            let q = usize::from(q);
            if !self.cache.touch(q) {
                cache_misses += 1;
                teleports += 1;
                let mut transfer = self.teleport_us;
                if self.cache.insert(q, ops) {
                    // Writeback of the evicted qubit.
                    transfer += self.teleport_us;
                    teleports += 1;
                }
                operands_at = self.port.acquire(ready, transfer);
            }
        }
        // Intra-cache movement uses teleportation: data in the compute
        // region sits interleaved with generators (§5.3); operands
        // meet and return. Serial after their arrival.
        let moved_at = if ops.len() >= 2 {
            teleports += 2;
            operands_at + 2.0 * self.teleport_us
        } else {
            operands_at
        };
        // Remote ancilla delivery: the memory-side share of this
        // gate's encoded zeros crosses the hierarchy port (one
        // teleport per block pair), queued behind this gate's own miss
        // transfers; it overlaps the intra-cache movement.
        let remote_zeros = self.remote_fraction * 2.0 * ops.len() as f64;
        let delivered_at = if remote_zeros > 0.0 {
            self.port
                .acquire(ready, remote_zeros / 2.0 * self.teleport_us)
        } else {
            ready
        };
        Movement {
            moved_at,
            delivered_at,
            teleports,
            cache_misses,
            // The remote share is consumed during teleportation, which
            // "requires twice as many encoded ancillae" (§5.3).
            zero_multiplier: 1.0 + self.remote_fraction,
        }
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
    /// become their 7T + 6CX + 2H network).
    fn random_lowered(n: usize, picks: &[(u8, u8, u8, u8)]) -> Circuit {
        let mut c = Circuit::new(n);
        for &(kind, a, b, t) in picks {
            let (a, b, t) = (a as usize % n, b as usize % n, t as usize % n);
            match kind % 6 {
                0 => c.h(a),
                1 => c.t(a),
                2 => c.s(a),
                3 | 4 if a != b => c.cx(a, b),
                5 if a != b && b != t && a != t => c.toffoli(a, b, t),
                _ => c.x(a),
            }
        }
        c.lower(&qods_circuit::circuit::NoSynth)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// QLA's program-order frontier is exact: `makespan_us` is a
        /// max and the counters are integer sums, so they match the
        /// event-order run of the same loop bit for bit.
        #[test]
        fn qla_program_order_matches_event_order(
            n in 3usize..10,
            picks in proptest::collection::vec((0u8..6, 0u8..255, 0u8..255, 0u8..255), 1..80),
            area_exp_x8 in 8u32..56,
        ) {
            let c = random_lowered(n, &picks);
            let ctx = SimContext::new(&c);
            let area = 10f64.powf(f64::from(area_exp_x8) / 8.0);
            let fast = ctx.simulate(Arch::Qla, area);
            let events = ctx.qla(area, EventOrder::new(&ctx));
            proptest::prop_assert_eq!(fast.makespan_us.to_bits(), events.makespan_us.to_bits());
            proptest::prop_assert_eq!(fast.teleports, events.teleports);
            proptest::prop_assert_eq!(fast.cache_misses, events.cache_misses);
        }
    }

    #[test]
    fn waits_overlap_instead_of_adding() {
        // One CX on a warm CQLA cache: movement (2 intra-cache
        // teleports, plus any remote delivery) and the supply stall
        // both start at t=0 and overlap; the gate runs for its
        // 10 + 122 us the moment the slower wait ends. The old
        // accounting serialized supply behind movement.
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let out = simulate(&c, Arch::Cqla { cache_slots: 2 }, 200.0);
        assert!(out.movement_us > 0.0 && out.supply_stall_us > 0.0);
        let expected = out.movement_us.max(out.supply_stall_us) + 132.0;
        assert!(
            (out.makespan_us - expected).abs() < 1e-6,
            "makespan {} != max(movement {}, stall {}) + exec",
            out.makespan_us,
            out.movement_us,
            out.supply_stall_us
        );
    }
}
