//! The cycle-driven simulation engine.
//!
//! One [`Simulator`] instance owns the full router state for a network ×
//! routing-algorithm × traffic-pattern configuration at one offered load.
//! A latency-vs-load curve (Fig 6 / Fig 8) is one simulator per load,
//! with the per-load seed of [`LoadSweep::seed_for_load`] (or one
//! re-armed simulator, [`LoadSweep::run_warm`]); the job scheduler in
//! `slimfly` runs those in parallel.
//!
//! # Engine internals: state layout and the hot path
//!
//! The engine is built for >10K-endpoint cycle-accurate sweeps, so the
//! per-cycle loop is flat, allocation-free and skips idle state:
//!
//! * **CSR link layout** — every directed link `r → to` has a flat
//!   *link id* assigned in CSR order (`LinkIndex`): the links of
//!   router `r` are the contiguous range `link_base[r]..link_base[r+1]`,
//!   ordered like `Graph::neighbors(r)`. All per-link state (credits,
//!   staging, in-flight flits, occupancy, flit counters) lives in flat
//!   arrays indexed by link id. Prebuilt reverse maps — `to_port`
//!   (input-port index at the receiving router) and `rev` (the flat id
//!   of the opposite-direction link) — replace every
//!   `neighbors().binary_search()` the old engine did in occupancy
//!   queries, ejection credit returns and switch allocation. Arbitrary
//!   `(r, to) → link id` queries (routing policies probing queues)
//!   resolve through a per-router perfect-hash slot table in O(1).
//!
//! * **Incremental occupancy** — the queue-occupancy metric exposed to
//!   [`Router`] policies (`staged flits + downstream slots in use`) is
//!   maintained as a counter per link, updated at exactly the three
//!   events that change it: a switch-allocation grant (+2: one staged
//!   flit, one credit consumed), a channel transmission (−1: the flit
//!   left staging) and a credit arrival (−1: a downstream slot freed).
//!   [`QueueView::occupancy`] is then a single array read — this turns
//!   UGAL-G injection from O(path × VCs) credit sums into O(path)
//!   reads. The invariant `occ[l] == staging[l].len() + Σ_vc (vc_cap −
//!   credits[l][vc])` is checked by
//!   [`Simulator::verify_occupancy_counters`] (property-tested).
//!
//! * **Allocation-free stepping** — all per-cycle scratch (switch
//!   allocator grant counters, the candidate-slot list, the per-cycle
//!   ejected-endpoint set) is persistent storage owned by the
//!   `Simulator`, reset in O(work) per cycle; the ejected-endpoint set
//!   is a generation-stamped array (`stamp == now + 1` means "ejected
//!   this cycle"), so membership is O(1) with no clearing pass.
//!
//! * **Active-set tracking** — a per-router buffered-packet counter
//!   lets ejection and switch allocation skip routers with nothing
//!   queued; bitmasks over the (port, VC) input queues and over the
//!   per-link staging queues narrow those scans (and channel
//!   transmission) to non-empty queues in the exact order the full
//!   scan would visit them; a bitmask over endpoint source queues does
//!   the same for the injection pass.
//!
//! * **Time-bucketed wires** — flit and credit delays are run
//!   constants, so in-flight events live in rotating per-cycle buckets
//!   and the arrivals phase drains exactly the due events instead of
//!   polling a timestamped queue on every link every cycle.
//!
//! # Packets, flits and wormhole flow control
//!
//! A **packet** is [`SimConfig::packet_size`] ≥ 1 flits; the engine
//! moves *flits*, and a packet exists as state stretched across the
//! network (wormhole switching). Every flit carries its packet's
//! descriptor plus a sequence number: flit 0 is the **head**, flit
//! `size − 1` the **tail** (a single-flit packet is both at once).
//! The flit lifecycle:
//!
//! * **Generation** — a Bernoulli draw per endpoint per cycle with
//!   probability `load / packet_size` creates one whole packet, so
//!   `load` stays the offered load in *flits*/endpoint/cycle across
//!   packet sizes.
//! * **Injection** — an endpoint injects at most one flit per cycle
//!   (serialization latency starts at the source). The head flit
//!   triggers the routing decision ([`Router::route`]) and the VC-base
//!   draw; the remaining flits of the same packet follow on subsequent
//!   cycles before the next packet may start.
//! * **Switch allocation** — only a **head** flit computes a route
//!   ([`Router::next_hop`] for per-hop schemes) and performs VC
//!   allocation: claiming output `(link, vc)` records the reservation
//!   in two tables — `in_route[input slot] = (link, vc)` and
//!   `out_owner[(link, vc)] = input slot` — and a head is *not*
//!   granted while another packet owns the output VC. Body and tail
//!   flits inherit the reserved `(link, vc)` from `in_route` without
//!   consulting the routing policy. Every flit consumes one credit on
//!   its output VC. The **tail** grant releases both reservations.
//! * **Transmission / arrival / ejection** — per flit, exactly as for
//!   single-flit packets: one flit per link per cycle leaves staging,
//!   one flit per endpoint per cycle ejects, and every flit leaving an
//!   input buffer returns one credit upstream.
//!
//! **Wormhole invariants** (checked by
//! [`Simulator::verify_credit_round_trip`], property-tested):
//!
//! * *Credit conservation* — for every `(link, vc)`:
//!   `vc_cap = credits + staged flits + flits on the wire + flits in
//!   the downstream input buffer + credits in flight upstream`. Every
//!   consumed credit returns exactly once.
//! * *Allocation bijection* — `in_route[s] = (l, v)` iff
//!   `out_owner[(l, v)] = s`; allocations exist only between a head
//!   grant and the matching tail grant, and only for multi-flit
//!   packets (at `packet_size = 1` both tables stay empty, which is
//!   how the wormhole path degenerates to the classic engine).
//! * *No interleaving* — because an output VC is owned from head to
//!   tail and per-link staging is FIFO, a downstream input VC queue
//!   always holds the flits of at most one unfinished packet, in
//!   order; `in_route` therefore always describes the packet at the
//!   queue front.
//!
//! Measurement is packet- and flit-aware: latency statistics are
//! recorded at **tail** ejection (full-packet latency, including
//! serialization), head-flit latency is tracked separately
//! ([`SimResult::avg_head_latency`]), and throughput / link-utilization
//! counters tick per flit.
//!
//! # Sharding and intra-simulation parallelism
//!
//! The engine is **sharded**: routers are split into at most
//! [`ENGINE_SHARDS`] contiguous ranges, and every derived index space
//! (endpoints, ports, input-buffer slots, links — all CSR-contiguous by
//! router) splits along the same boundaries. Each shard owns the
//! mutable state in its ranges; cross-shard effects exist only as
//! *events* (flits put on a wire, credits returning upstream), which
//! are routed to the destination shard's rotating delay buckets through
//! an `EventSink`.
//!
//! Every step runs through one driver. [`SimConfig::threads`] sets the
//! number of workers, not the semantics: the shards are split into
//! contiguous ranges over the workers. Worker 0 is the calling thread
//! and the others are scoped threads, so `threads = 1` (the default)
//! spawns nothing. Each cycle is three phase groups separated by
//! barriers — {mail delivery + arrivals} | {generation, injection,
//! ejection} | {switch allocation, transmission} — and inside a group
//! a worker runs each phase over all of its shards before starting
//! the next phase. An event bound for a shard the worker owns goes
//! straight into that shard's buckets. Any other event waits in the
//! worker's outbox, is published to a per-(worker, shard) mailbox at
//! the end of the cycle, and is delivered by the owner in the next
//! cycle's first group (wire and credit delays are ≥ 1 cycle, so that
//! delivery is never late). With one worker every shard is its own,
//! so no event goes through a mailbox.
//!
//! The barrier placement is what makes the shared reads race-free: the
//! occupancy counters are written only in the first and third groups
//! (credit arrival / grant / transmission) and read globally only in
//! the second (injection-time routing), and allocation-phase occupancy
//! reads are restricted to the deciding router's own links (asserted —
//! see the `QueueView` contract in `sf-routing`). Shared bitmask words
//! that straddle a shard boundary use relaxed atomic bit operations;
//! every bit still has exactly one writer.
//!
//! # Determinism contract
//!
//! Results are **bit-for-bit reproducible** given `SimConfig::seed`,
//! and **independent of `SimConfig::threads`**: the output is a pure
//! function of (plan, seed). Each shard draws from its own
//! splitmix64-derived RNG stream keyed on `(seed, shard_id)`
//! (`shard_seed`), and the shard count is a function of the topology
//! alone (`min(ENGINE_SHARDS, routers)`) — threads only schedule
//! shards onto workers. Within a shard, RNG-bearing phases iterate
//! endpoints/routers in ascending order exactly as the sequential
//! engine always has (`Router::next_hop` is reached for exactly the
//! same packets in the same order); across shards, the only
//! communication is delay-bucket events whose within-cycle delivery
//! order is not observable (each link carries at most one flit per
//! cycle, so flit deliveries land in distinct queues, and credit
//! effects are commutative counter increments). The
//! `thread_count_is_not_observable` test and the sharded-equivalence
//! proptests pin `threads = N` to `threads = 1` exactly; the
//! `engine_parity` suite pins the absolute curves. Any future
//! fast-path must preserve both the per-shard RNG draw sequences and
//! the occupancy values policies observe. The wormhole path is
//! additionally pinned to **degenerate exactly** at `packet_size = 1`:
//! with single-flit packets every head is its own tail, no VC
//! reservation outlives its grant, and the engine's curves match the
//! pre-wormhole engine to the last bit.
//!
//! # Fault injection and degraded operation
//!
//! The engine supports two failure modes (see `sf_topo::Network::degrade`
//! and `sf_graph::fault` for the kill-set machinery):
//!
//! * **Boot-time degradation** — construct the [`Simulator`] over an
//!   already-degraded `Network` (dead routers have zero concentration
//!   and no cables). Nothing engine-side changes: the degraded graph is
//!   just a smaller graph, and `Network::degrade` guarantees the live
//!   routers stay connected.
//! * **Mid-run link kills** — [`Simulator::apply_fault`] marks links
//!   dead *while flits are in flight* and swaps in routing state
//!   re-derived on the degraded graph. Recovery is an **administrative
//!   drain**, not a vaporization: flits already staged or on the wire
//!   finish crossing (transmission never consults the dead set — the
//!   cable fails for *new* allocations, in-flight symbols land), and
//!   only new head-flit allocations are refused. A head that would
//!   cross a dead link, or whose destination became unreachable, is
//!   **dropped** at the input buffer; for a multi-flit packet the drop
//!   plants a sentinel in the wormhole reservation table
//!   (`in_route[slot] = DROP_ROUTE`) so the trailing body/tail flits
//!   are discarded one by one as they arrive, the tail clearing the
//!   sentinel. Every drop returns its upstream credit exactly like a
//!   grant, so the credit-conservation invariant
//!   ([`Simulator::verify_credit_round_trip`]) holds *through* the
//!   kill, and after the sources quiet down the network provably
//!   returns to the reset state ([`Simulator::verify_quiescent`]) — no
//!   flit is ever stranded on a dead cable.
//!
//! Drop accounting surfaces in [`SimResult::dropped_flits`] (flits
//! administratively discarded) and [`SimResult::unreachable_pairs`]
//! (packets whose destination router was unreachable when generated or
//! injected); dropped sample packets count toward the drain condition,
//! so a post-kill run still terminates. A fault-free run never touches
//! any of this: the guards key on the dead-link table being non-empty,
//! and the RNG draw sequence is bit-identical to the pre-fault engine
//! (pinned by the zero-fault parity tests).
//!
//! The contract is also *statically linted*: the `sf-lint` binary
//! (`cargo run --bin sf-lint`) scans this crate — along with
//! `sf-routing`, `sf-flow`, `sf-core` and `sf-verify` — and rejects
//! unordered hash-container use (`HashMap`/`HashSet` iteration order
//! would leak into record streams), wall-clock reads
//! (`Instant::now`/`SystemTime` inside simulation state), and bare
//! `unwrap()` in library code. The VC-allocation semantics themselves
//! are exported ([`vc_base_slack`], [`hop_vc`],
//! [`ADAPTIVE_HOP_BUDGET`]) so the `sf-verify` crate builds its
//! wormhole-aware channel dependency graphs from the *same* arithmetic
//! the engine executes.

use crate::stats::LatencyStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sf_graph::Graph;
use sf_routing::tables::UNREACHABLE;
use sf_routing::{QueueView, RouteCtx, RouteDecision, Router, RoutingTables, MAX_PATH_HOPS};
use sf_topo::Network;
use sf_traffic::TrafficPattern;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Barrier, Mutex};

/// `in_route` sentinel: the slot's in-flight packet was administratively
/// dropped at its head flit (dead output link or unreachable
/// destination after [`Simulator::apply_fault`]). Trailing body/tail
/// flits arriving at the slot are discarded instead of granted; the
/// tail drop clears the sentinel. Distinct from `u32::MAX` ("free") and
/// from every real reservation (which is a `link × num_vcs + vc` index,
/// far below this value for any simulatable network).
const DROP_ROUTE: u32 = u32::MAX - 1;

/// Router micro-architecture and measurement parameters (§V defaults).
///
/// [`SimConfig::fields`] lists every field once with its key, value and
/// integer width; plan files set fields by key ([`SimConfig::set`]), and
/// the canonical plan TOML, the result-cache key and the report's
/// heading discriminator are loops over that table. Every domain bound
/// the engine relies on is checked by [`SimConfig::validate`], which
/// plan expansion, the fluent builder and [`Simulator::new`] all call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Virtual channels per port (≥ 1, ≤ [`MAX_VCS`]). The paper quotes
    /// 3, but its own §IV-D VC-ordering scheme needs one VC per hop of
    /// the longest adaptive path (4 hops), so we default to 4. Paths
    /// longer than `num_vcs` hops clamp to the last VC, weakening the
    /// deadlock guarantee — raise this (e.g. to 6 for Valiant on
    /// diameter-3 topologies) when routing non-minimally on deeper
    /// networks.
    pub num_vcs: usize,
    /// Total flit buffering per port, split evenly across VCs (paper: 64;
    /// swept in Fig 8a).
    pub buf_per_port: usize,
    /// Channel traversal latency in cycles (paper: 1).
    pub channel_latency: u32,
    /// Lumped per-hop router pipeline delay: switch allocation + VC
    /// allocation + crossbar, 1 cycle each (paper: 3 × 1).
    pub router_delay: u32,
    /// Credit processing delay (paper: 2).
    pub credit_delay: u32,
    /// Internal speedup: flits a single output may accept from the
    /// crossbar per cycle (paper: 2).
    pub output_speedup: usize,
    /// Output staging queue depth (absorbs the speedup burst).
    pub output_queue_cap: usize,
    /// Warm-up cycles before measurement. `warmup + measure + drain`
    /// must fit the engine's `u32` cycle counter.
    pub warmup: u32,
    /// Measurement window in cycles (≥ 1: accepted throughput is flits
    /// per measured cycle).
    pub measure: u32,
    /// Extra drain cycles allowed after the window.
    pub drain: u32,
    /// Flits per packet (≥ 1, ≤ [`MAX_PACKET_SIZE`]). Multi-flit
    /// packets use wormhole flow control: the head flit routes and
    /// allocates a VC per hop, body/tail flits inherit the reserved
    /// (link, VC) path, the tail releases it. `1` (the default)
    /// reproduces the classic single-flit engine bit for bit.
    pub packet_size: usize,
    /// RNG seed (simulations are deterministic given the seed).
    pub seed: u64,
    /// Workers driving this simulation's shards (clamped to the shard
    /// count; `0` is treated as 1). **Results are independent of this
    /// knob** — see the determinism contract in the module docs. Worker
    /// 0 is the calling thread, so `1` (the default) runs every shard
    /// there and spawns nothing; `N > 1` adds `N − 1` scoped threads.
    /// Sweep drivers multiply this by their own job-level workers, so keep
    /// `scheduler workers × threads ≤ available_parallelism` (the
    /// `Scheduler` default clamp does this automatically).
    pub threads: usize,
}

/// Upper bound on [`SimConfig::packet_size`] — flit sequence numbers
/// are 16-bit and message sizes beyond this are unrealistic for the
/// router buffers modeled here.
pub const MAX_PACKET_SIZE: usize = 4096;

/// Upper bound on [`SimConfig::num_vcs`] — the engine stores VC ids as
/// `u8` (flit VC bases, credit and staging entries), so a larger
/// budget would wrap the VC ladder instead of extending it.
pub const MAX_VCS: usize = u8::MAX as usize + 1;

/// Hop budget assumed for adaptively-routed packets (no precomputed
/// path): UGAL / ECMP detours are at most `2 × diameter`, and every
/// topology in the suite has diameter ≤ 2, so 4 hops bound the VC
/// ladder. `sf-verify` mirrors this constant when it reconstructs the
/// engine's VC assignment statically.
pub const ADAPTIVE_HOP_BUDGET: u8 = 4;

/// Upper bound on the number of engine shards. The actual shard count
/// of a simulation is `min(ENGINE_SHARDS, routers)` — a function of
/// the **topology only**, never of the thread count or the machine, so
/// per-shard RNG streams (and therefore results) are reproducible
/// everywhere. 8 covers the core counts the cycle tier realistically
/// gets a share of once the job-level scheduler has taken its cut.
pub const ENGINE_SHARDS: usize = 8;

/// The engine's **output epoch**: a monotone counter bumped every time
/// the engine's output for a fixed (plan, seed) changes — i.e. at
/// every pinned-curve re-pin. Within one epoch, a simulation's records
/// are a pure function of plan + seed (independent of thread count,
/// worker count, and machine), so persisted results keyed on
/// (plan, seed, epoch) stay valid exactly as long as they are
/// reproducible. Content-addressed result caches (`slimfly::cache`)
/// salt their keys with this constant: bumping it invalidates every
/// stored entry at once, without touching cache directories.
///
/// History: epoch 1 was the pre-shard sequential RNG regime; epoch 2
/// is the per-shard splitmix64 stream re-pin that landed with the
/// sharded engine (see `rng_streams` in the module docs).
pub const ENGINE_EPOCH: u32 = 2;

/// Slack available when choosing a packet's base VC: with `hops`
/// remaining and `num_vcs` virtual channels, bases `0..=slack` all
/// keep the per-hop ladder `vc_base + hop` within budget. Zero slack
/// means the ladder may clamp at `num_vcs - 1` (see [`hop_vc`]).
///
/// This is the exact arithmetic of the engine's injection path;
/// `sf-verify` builds its wormhole-aware channel dependency graphs
/// from it rather than re-deriving the semantics.
#[inline]
pub fn vc_base_slack(num_vcs: usize, hops: usize) -> usize {
    num_vcs.saturating_sub(hops.max(1))
}

/// The VC a packet with base `vc_base` uses on its `hop`-th hop
/// (0-based): the ladder `vc_base + hop`, clamped to the top VC. The
/// clamp is what makes under-budgeted configs statically dangerous —
/// once two different hops share `num_vcs - 1`, the VC ordering
/// argument for deadlock freedom no longer applies, and `sf-verify`
/// falls back to explicit cycle detection.
#[inline]
pub fn hop_vc(num_vcs: usize, vc_base: u8, hop: usize) -> usize {
    (vc_base as usize + hop).min(num_vcs - 1)
}

/// The RNG stream seed of shard `s` under run seed `seed`: one
/// splitmix64 finalizer round over the pair. Streams for distinct
/// shards (and distinct run seeds) are statistically independent; the
/// mapping is pure arithmetic, so any host reproduces it.
#[inline]
fn shard_seed(seed: u64, s: usize) -> u64 {
    let mut z = seed.wrapping_add((s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_vcs: 4,
            buf_per_port: 64,
            channel_latency: 1,
            router_delay: 3,
            credit_delay: 2,
            output_speedup: 2,
            output_queue_cap: 4,
            warmup: 2_000,
            measure: 4_000,
            drain: 4_000,
            packet_size: 1,
            seed: 0x5EED,
            threads: 1,
        }
    }
}

/// Integer width of a [`SimConfig`] field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldWidth {
    /// A `usize` count (buffers, VCs, flits, threads).
    Usize,
    /// A `u32` cycle count or delay.
    U32,
    /// A `u64` (the seed).
    U64,
}

/// One row of the [`SimConfig`] field table ([`SimConfig::fields`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimField {
    /// The field's name: its `[sweep.sim]` plan key, its cache-key
    /// token and its report label.
    pub key: &'static str,
    /// The field's value, widened to `u64`.
    pub value: u64,
    /// The field's integer width.
    pub width: FieldWidth,
}

/// A typed mutable reference to one [`SimConfig`] field.
enum FieldRef<'a> {
    Usize(&'a mut usize),
    U32(&'a mut u32),
    U64(&'a mut u64),
}

impl SimConfig {
    /// The number of fields, i.e. rows of [`SimConfig::fields`].
    pub const NUM_FIELDS: usize = 13;

    /// The one field list. The exhaustive destructure makes a new
    /// field a compile error until it has a row here.
    fn field_refs(&mut self) -> [(&'static str, FieldRef<'_>); Self::NUM_FIELDS] {
        let SimConfig {
            num_vcs,
            buf_per_port,
            channel_latency,
            router_delay,
            credit_delay,
            output_speedup,
            output_queue_cap,
            warmup,
            measure,
            drain,
            packet_size,
            seed,
            threads,
        } = self;
        use FieldRef::{Usize, U32, U64};
        [
            ("num_vcs", Usize(num_vcs)),
            ("buf_per_port", Usize(buf_per_port)),
            ("channel_latency", U32(channel_latency)),
            ("router_delay", U32(router_delay)),
            ("credit_delay", U32(credit_delay)),
            ("output_speedup", Usize(output_speedup)),
            ("output_queue_cap", Usize(output_queue_cap)),
            ("warmup", U32(warmup)),
            ("measure", U32(measure)),
            ("drain", U32(drain)),
            ("packet_size", Usize(packet_size)),
            ("seed", U64(seed)),
            ("threads", Usize(threads)),
        ]
    }

    /// Every field's key, value and width, in declaration order.
    pub fn fields(&self) -> [SimField; Self::NUM_FIELDS] {
        let mut copy = *self;
        copy.field_refs().map(|(key, field)| {
            let (value, width) = match field {
                FieldRef::Usize(v) => (*v as u64, FieldWidth::Usize),
                FieldRef::U32(v) => (u64::from(*v), FieldWidth::U32),
                FieldRef::U64(v) => (*v, FieldWidth::U64),
            };
            SimField { key, value, width }
        })
    }

    /// Sets the field named `key` to `value`. Errors name the key when
    /// it is unknown or `value` does not fit the field's width; domain
    /// bounds are [`SimConfig::validate`]'s.
    pub fn set(&mut self, key: &str, value: u64) -> Result<(), String> {
        let (_, field) = self
            .field_refs()
            .into_iter()
            .find(|(k, _)| *k == key)
            .ok_or_else(|| format!("unknown sim key {key:?}"))?;
        let fits = match field {
            FieldRef::Usize(v) => usize::try_from(value).map(|x| *v = x).is_ok(),
            FieldRef::U32(v) => u32::try_from(value).map(|x| *v = x).is_ok(),
            FieldRef::U64(v) => {
                *v = value;
                true
            }
        };
        fits.then_some(())
            .ok_or_else(|| format!("sim.{key} = {value} is too large for the field"))
    }

    /// Checks every domain bound the engine relies on: `num_vcs` in
    /// `1..=`[`MAX_VCS`], `packet_size` in `1..=`[`MAX_PACKET_SIZE`],
    /// `measure ≥ 1`, and `warmup + measure + drain` within the
    /// engine's `u32` cycle counter. The error names the field.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_chain(1)
    }

    /// [`SimConfig::validate`] for `phases` warm-up + measure + drain
    /// phases chained on one simulator ([`LoadSweep::run_warm`]).
    pub fn validate_chain(&self, phases: usize) -> Result<(), String> {
        if !(1..=MAX_VCS).contains(&self.num_vcs) {
            return Err(format!(
                "num_vcs must be in 1..={MAX_VCS} (VC ids are 8-bit in the simulator), got {}",
                self.num_vcs
            ));
        }
        if !(1..=MAX_PACKET_SIZE).contains(&self.packet_size) {
            return Err(format!(
                "packet_size must be in 1..={MAX_PACKET_SIZE} flits, got {}",
                self.packet_size
            ));
        }
        if self.measure == 0 {
            return Err("measure must be at least 1 cycle".into());
        }
        let phase = u64::from(self.warmup) + u64::from(self.measure) + u64::from(self.drain);
        if phase.saturating_mul(phases as u64) > u64::from(u32::MAX) {
            let chain = match phases {
                1 => String::new(),
                n => format!(" × {n} warm-started loads"),
            };
            return Err(format!(
                "warmup + measure + drain = {phase} cycles{chain} exceeds the engine's u32 \
                 cycle counter"
            ));
        }
        Ok(())
    }
}

/// Result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Offered load (flits/endpoint/cycle).
    pub offered_load: f64,
    /// Flits per packet this run simulated.
    pub packet_size: usize,
    /// Mean end-to-end **packet** latency (cycles): generation to
    /// *tail*-flit ejection, over sample packets (generated inside the
    /// measurement window) — includes serialization latency. NaN if
    /// none ejected.
    pub avg_latency: f64,
    /// Approximate 99th percentile packet latency.
    pub p99_latency: f64,
    /// Mean **head-flit** latency (cycles): generation to head-flit
    /// ejection. Equals [`SimResult::avg_latency`] at `packet_size = 1`;
    /// the gap between the two is the serialization tail (≈
    /// `packet_size − 1` cycles at zero load). NaN if none ejected.
    pub avg_head_latency: f64,
    /// Accepted throughput: flits ejected per active endpoint per cycle
    /// during the measurement window.
    pub accepted: f64,
    /// Total packets ejected (tail flits delivered) over the whole run.
    pub ejected: u64,
    /// Total flits ejected over the whole run
    /// (`= ejected × packet_size` once fully drained).
    pub ejected_flits: u64,
    /// True when the network could not drain the sample packets —
    /// operating past saturation.
    pub saturated: bool,
    /// Mean hop count of ejected sample packets.
    pub avg_hops: f64,
    /// Maximum channel utilization over the measurement window
    /// (flits sent / cycles; 1.0 = a fully busy channel).
    pub max_link_util: f64,
    /// Mean channel utilization over the measurement window.
    pub mean_link_util: f64,
    /// Flits administratively dropped over the whole phase because of
    /// an applied fault ([`Simulator::apply_fault`]): heads refused a
    /// dead link or an unreachable destination, their trailing flits,
    /// and whole packets discarded at generation/injection. Always 0 on
    /// a fault-free run.
    pub dropped_flits: u64,
    /// Packets whose destination router was unreachable on the degraded
    /// graph at generation or injection time (counted per packet; their
    /// flits are included in [`SimResult::dropped_flits`]). Always 0 on
    /// a fault-free run, and 0 under faults that keep the live network
    /// connected.
    pub unreachable_pairs: u64,
    /// Simulated cycles actually executed (the drain phase exits early
    /// once all sample packets are delivered).
    pub cycles: u32,
}

/// CSR layout of the directed router-to-router links, with the reverse
/// maps the hot loops need (see the module docs).
///
/// Flat link ids follow the graph's sorted adjacency: link
/// `link_base[r] + j` is `r → neighbors(r)[j]`. The `(r, to) → id`
/// lookup uses one perfect-hash slot table per router: the smallest
/// modulus `m ≥ degree(r)` under which all neighbor ids are distinct
/// (for the near-regular graphs simulated here `m` stays within a
/// small factor of the degree).
struct LinkIndex {
    /// CSR row offsets; `link_base[nr]` is the directed-link count.
    link_base: Vec<u32>,
    /// Destination router per link.
    to: Vec<u32>,
    /// Input-port index at the destination router per link.
    to_port: Vec<u32>,
    /// Flat id of the opposite-direction link (`to → r`).
    rev: Vec<u32>,
    /// Per-router offset into `slots`.
    slot_base: Vec<u32>,
    /// Per-router Lemire multiply-shift magic for reducing modulo the
    /// perfect-hash modulus without a hardware divide:
    /// `a % m == (((magic · a) as u128 · m) >> 64)` with
    /// `magic = ⌊2^64 / m⌋ + 1` (wrapping to 0 for m = 1).
    slot_magic: Vec<u64>,
    /// Per-router perfect-hash modulus.
    slot_mod: Vec<u32>,
    /// `slots[slot_base[r] + to % slot_mod[r]]` is the link id of
    /// `r → to`, or `u32::MAX` on an empty slot.
    slots: Vec<u32>,
}

/// `a % m` via the precomputed Lemire magic (see [`LinkIndex::slot_magic`]).
#[inline]
fn fast_mod(a: u32, magic: u64, m: u32) -> u32 {
    ((magic.wrapping_mul(a as u64) as u128 * m as u128) >> 64) as u32
}

/// `a / d` via a precomputed magic `⌊2^64 / d⌋ + 1`; exact for every
/// `a < 2^32` and `d ≥ 2`. For `d = 1` the magic wraps to 0 and this
/// returns 0 — callers must special-case the identity (see
/// `StepCtx::slot_port`).
#[inline]
fn fast_div(a: u32, magic: u64) -> u32 {
    ((magic as u128 * a as u128) >> 64) as u32
}

impl LinkIndex {
    fn new(net: &Network) -> Self {
        let g = &net.graph;
        let nr = g.num_vertices();
        let mut link_base = Vec::with_capacity(nr + 1);
        let mut acc = 0u32;
        for r in 0..nr as u32 {
            link_base.push(acc);
            acc += g.degree(r) as u32;
        }
        link_base.push(acc);

        let mut to = Vec::with_capacity(acc as usize);
        let mut to_port = Vec::with_capacity(acc as usize);
        let mut rev = Vec::with_capacity(acc as usize);
        for r in 0..nr as u32 {
            for &v in g.neighbors(r) {
                let back = g
                    .neighbors(v)
                    .binary_search(&r)
                    .expect("graph edges are symmetric: reverse edge exists")
                    as u32;
                to.push(v);
                to_port.push(back);
                rev.push(link_base[v as usize] + back);
            }
        }

        // Perfect-hash slot tables: per router, the smallest modulus
        // that separates all neighbor ids.
        let mut slot_base = Vec::with_capacity(nr);
        let mut slot_magic = Vec::with_capacity(nr);
        let mut slot_mod = Vec::with_capacity(nr);
        let mut slots = Vec::new();
        let mut stamp: Vec<u32> = Vec::new();
        let mut gen = 0u32;
        for r in 0..nr as u32 {
            let nbrs = g.neighbors(r);
            let mut m = nbrs.len().max(1) as u32;
            loop {
                if stamp.len() < m as usize {
                    stamp.resize(m as usize, 0);
                }
                gen += 1;
                if nbrs.iter().all(|&v| {
                    let s = (v % m) as usize;
                    let fresh = stamp[s] != gen;
                    stamp[s] = gen;
                    fresh
                }) {
                    break;
                }
                m += 1;
            }
            slot_base.push(slots.len() as u32);
            slot_mod.push(m);
            slot_magic.push((u64::MAX / m as u64).wrapping_add(1));
            let base = slots.len();
            slots.resize(base + m as usize, u32::MAX);
            for (j, &v) in nbrs.iter().enumerate() {
                slots[base + (v % m) as usize] = link_base[r as usize] + j as u32;
            }
        }

        LinkIndex {
            link_base,
            to,
            to_port,
            rev,
            slot_base,
            slot_magic,
            slot_mod,
            slots,
        }
    }

    /// Flat link id of `r → to`. Panics if `to` is not a neighbor of
    /// `r` (the [`QueueView`] contract).
    #[inline]
    fn link(&self, r: u32, to: u32) -> u32 {
        let ri = r as usize;
        let slot = self.slot_base[ri] + fast_mod(to, self.slot_magic[ri], self.slot_mod[ri]);
        let l = self.slots[slot as usize];
        assert!(
            l != u32::MAX && self.to[l as usize] == to,
            "link query for a non-neighbor: {r} -> {to}"
        );
        l
    }

    /// Links owned by router `r`, as a flat-id range.
    #[inline]
    fn links_of(&self, r: u32) -> std::ops::Range<usize> {
        self.link_base[r as usize] as usize..self.link_base[r as usize + 1] as usize
    }
}

/// The queue-state window the engine exposes to [`Router`] policies at
/// **injection time**: occupancy of any output link in the network,
/// exactly as the engine's own allocator sees it (staged flits +
/// downstream slots in use). With the incremental counters this is one
/// perfect-hash lookup plus one relaxed atomic read — O(1) per query.
/// Injection runs in a phase group that never writes occupancy, so the
/// global window is race-free under sharded execution.
struct EngineQueues<'b> {
    links: &'b LinkIndex,
    occ: &'b [AtomicU32],
}

impl QueueView for EngineQueues<'_> {
    #[inline]
    fn occupancy(&self, r: u32, to: u32) -> u32 {
        self.occ[self.links.link(r, to) as usize].load(Relaxed)
    }
}

/// The queue-state window handed to [`Router::next_hop`] during
/// **switch allocation**: same data as [`EngineQueues`], but queries
/// are asserted to stay on the deciding router's own output links —
/// the allocation phase runs concurrently with other shards' grants,
/// and only the decider's own counters are stable (single-writer) at
/// that point. This is the allocation-phase clause of the `QueueView`
/// contract in `sf-routing`; every in-tree per-hop policy already
/// satisfies it.
struct AllocQueues<'b> {
    links: &'b LinkIndex,
    occ: &'b [AtomicU32],
    decider: u32,
}

impl QueueView for AllocQueues<'_> {
    #[inline]
    fn occupancy(&self, r: u32, to: u32) -> u32 {
        assert_eq!(
            r, self.decider,
            "allocation-phase occupancy query for a foreign router \
             (QueueView contract: next_hop may only probe the deciding \
             router's own output links)"
        );
        self.occ[self.links.link(r, to) as usize].load(Relaxed)
    }
}

/// The stable flow identifier handed to routing policies: the
/// (source, destination) endpoint pair. Identical at injection and at
/// every per-hop decision of the same packet, so flowlet-based schemes
/// can key on it consistently.
#[inline]
fn flow_id(src_ep: u32, dst_ep: u32) -> u64 {
    ((src_ep as u64) << 32) | dst_ep as u64
}

/// One flit on the move. Every flit carries its packet's descriptor
/// (routing state is only *used* by the head; body/tail flits inherit
/// the engine's per-VC reservations, but carrying the descriptor keeps
/// termination checks and statistics local to the flit).
#[derive(Clone, Copy)]
struct Flit {
    src_ep: u32,
    dst_ep: u32,
    gen_time: u32,
    /// Router path for source-routed algorithms; for per-hop adaptive
    /// routing `path_len == 0` and `path[0]` holds the destination
    /// router.
    path: [u32; MAX_PATH_HOPS + 1],
    path_len: u8,
    /// Index of the router the flit currently occupies (or is flying
    /// toward) within `path`; doubles as the hop counter for adaptive.
    hop: u8,
    /// Base virtual channel: hop `i` travels on VC `vc_base + i`.
    /// Strictly increasing VCs along a path keep the channel dependency
    /// graph acyclic (the generalized Gopal scheme of §IV-D); bases are
    /// spread at injection to avoid VC-level head-of-line blocking.
    vc_base: u8,
    /// Flit index within the packet: 0 is the head, `size − 1` the
    /// tail.
    seq: u16,
    /// Total flits of the packet (`SimConfig::packet_size`).
    size: u16,
}

impl Flit {
    /// Head flits route and allocate; everyone else inherits.
    #[inline]
    fn is_head(&self) -> bool {
        self.seq == 0
    }

    /// Tail flits release the per-VC wormhole reservations.
    #[inline]
    fn is_tail(&self) -> bool {
        self.seq + 1 == self.size
    }

    /// Destination router of the packet.
    #[inline]
    fn dst_router(&self) -> u32 {
        if self.path_len == 0 {
            self.path[0]
        } else {
            self.path[self.path_len as usize - 1]
        }
    }
}

/// Appends the set bits of `mask` within the absolute bit range
/// `[from, to)` to `out`, in ascending order. The loads are relaxed
/// atomic reads: concurrent writers only ever touch bits *outside* the
/// caller's owned range (shard boundaries straddle words), so the bits
/// this gathers are stable.
fn gather_segment(mask: &[AtomicU64], from: usize, to: usize, out: &mut Vec<u32>) {
    if from >= to {
        return;
    }
    let last = (to - 1) / 64;
    let mut w = from / 64;
    let mut word = mask[w].load(Relaxed) & (!0u64 << (from % 64));
    loop {
        let mut m = word;
        if w == last {
            let rem = to - w * 64;
            if rem < 64 {
                m &= (1u64 << rem) - 1;
            }
        }
        while m != 0 {
            out.push((w * 64 + m.trailing_zeros() as usize) as u32);
            m &= m - 1;
        }
        if w == last {
            break;
        }
        w += 1;
        word = mask[w].load(Relaxed);
    }
}

/// Sets bit `i` of an atomic bitmask (relaxed; each bit has one owner).
#[inline]
fn mask_set(mask: &[AtomicU64], i: usize) {
    mask[i / 64].fetch_or(1 << (i % 64), Relaxed);
}

/// Clears bit `i` of an atomic bitmask (relaxed; each bit has one owner).
#[inline]
fn mask_clear(mask: &[AtomicU64], i: usize) {
    mask[i / 64].fetch_and(!(1 << (i % 64)), Relaxed);
}

/// Reads bit `i` of an atomic bitmask.
#[inline]
fn mask_get(mask: &[AtomicU64], i: usize) -> bool {
    mask[i / 64].load(Relaxed) >> (i % 64) & 1 == 1
}

/// Adds `delta` to an occupancy counter. Relaxed load + store (not an
/// RMW): by the ownership structure every counter has exactly one
/// writer shard per phase group, so no increment can be lost.
#[inline]
fn occ_add(c: &AtomicU32, delta: i32) {
    c.store(c.load(Relaxed).wrapping_add(delta as u32), Relaxed);
}

/// The shard layout of one simulation: routers split into
/// `min(ENGINE_SHARDS, routers)` contiguous ranges, with every derived
/// index space (endpoints, ports / input-buffer slots, links — all
/// CSR-contiguous by router) split along the same router boundaries.
/// A function of the topology only, so results never depend on the
/// thread count (see the determinism contract in the module docs).
struct ShardPlan {
    /// Router range of shard `s`: `r_bounds[s]..r_bounds[s + 1]`.
    r_bounds: Vec<u32>,
    /// Endpoint range of shard `s` (endpoints are router-major).
    ep_bounds: Vec<u32>,
    /// Link range of shard `s` (`link_base[r_bounds[s]]`).
    link_bounds: Vec<u32>,
    /// Port range of shard `s` (`port_base[r_bounds[s]]`); the
    /// input-buffer slot range is this × `num_vcs`.
    port_bounds: Vec<u32>,
    /// Owning shard per link (the shard of its *source* router) —
    /// credit events for link `l` are delivered here.
    link_shard: Vec<u8>,
    /// Destination shard per link (the shard of `links.to[l]`) — flit
    /// events crossing link `l` are delivered here.
    flit_dest: Vec<u8>,
}

impl ShardPlan {
    fn new(net: &Network, links: &LinkIndex, port_base: &[u32]) -> Self {
        let nr = net.num_routers();
        let s_count = nr.clamp(1, ENGINE_SHARDS);
        let mut r_bounds = Vec::with_capacity(s_count + 1);
        let mut ep_bounds = Vec::with_capacity(s_count + 1);
        let mut link_bounds = Vec::with_capacity(s_count + 1);
        let mut port_bounds = Vec::with_capacity(s_count + 1);
        for s in 0..=s_count {
            let r = (s * nr / s_count) as u32;
            r_bounds.push(r);
            ep_bounds.push(if (r as usize) < nr {
                net.endpoints_of_router(r).start
            } else {
                net.num_endpoints() as u32
            });
            link_bounds.push(links.link_base[r as usize]);
            port_bounds.push(port_base[r as usize]);
        }
        let nlinks = *link_bounds.last().expect("bounds are non-empty") as usize;
        let mut link_shard = vec![0u8; nlinks];
        let mut flit_dest = vec![0u8; nlinks];
        for s in 0..s_count {
            let (lo, hi) = (link_bounds[s] as usize, link_bounds[s + 1] as usize);
            link_shard[lo..hi].fill(s as u8);
        }
        for (l, d) in flit_dest.iter_mut().enumerate() {
            let to = links.to[l];
            let owner = r_bounds.partition_point(|&b| b <= to) - 1;
            *d = owner as u8;
        }
        ShardPlan {
            r_bounds,
            ep_bounds,
            link_bounds,
            port_bounds,
            link_shard,
            flit_dest,
        }
    }

    /// Number of shards.
    #[inline]
    fn len(&self) -> usize {
        self.r_bounds.len() - 1
    }
}

/// Per-shard measurement accumulators. Counters are integers and the
/// latency histogram merges exactly, so summing shards in ascending
/// shard order reproduces the single-accumulator totals bit for bit.
struct Meters {
    stats: LatencyStats,
    hops_sum: u64,
    /// Sum of head-flit latencies of sample packets (mean head latency
    /// = `head_lat_sum / head_ejected`).
    head_lat_sum: u64,
    /// Head flits of sample packets ejected.
    head_ejected: u64,
    sample_generated: u64,
    sample_ejected: u64,
    /// Sample packets (generated inside the window) administratively
    /// dropped; counts toward the drain condition so a post-kill phase
    /// still terminates.
    sample_dropped: u64,
    window_ejected: u64,
    total_ejected: u64,
    total_ejected_flits: u64,
    dropped_flits: u64,
    unreachable_pairs: u64,
}

impl Meters {
    fn new() -> Self {
        Meters {
            stats: LatencyStats::new(),
            hops_sum: 0,
            head_lat_sum: 0,
            head_ejected: 0,
            sample_generated: 0,
            sample_ejected: 0,
            sample_dropped: 0,
            window_ejected: 0,
            total_ejected: 0,
            total_ejected_flits: 0,
            dropped_flits: 0,
            unreachable_pairs: 0,
        }
    }

    /// Folds another shard's accumulators into this one.
    fn absorb(&mut self, o: &Meters) {
        self.stats.merge(&o.stats);
        self.hops_sum += o.hops_sum;
        self.head_lat_sum += o.head_lat_sum;
        self.head_ejected += o.head_ejected;
        self.sample_generated += o.sample_generated;
        self.sample_ejected += o.sample_ejected;
        self.sample_dropped += o.sample_dropped;
        self.window_ejected += o.window_ejected;
        self.total_ejected += o.total_ejected;
        self.total_ejected_flits += o.total_ejected_flits;
        self.dropped_flits += o.dropped_flits;
        self.unreachable_pairs += o.unreachable_pairs;
    }
}

/// Per-shard per-cycle scratch (hoisted allocations), one set per
/// shard so phases run shard-parallel without sharing.
struct Scratch {
    /// Switch-allocator grants per output link of the current router.
    out_grants: Vec<u32>,
    /// Switch-allocator grants per input port of the current router.
    in_grants: Vec<u32>,
    /// Non-empty input slots of the current router, in scan order.
    slots: Vec<u32>,
    /// Endpoints with queued packets, gathered per injection pass.
    eps: Vec<u32>,
}

/// A shard's rotating delay buckets: flits on the wire and credits
/// returning upstream, indexed by due-cycle modulo the (constant)
/// effective delay + 1. A bucket belongs to the shard that will
/// *process* its events — the destination shard for flits, the link
/// owner for credits — so the arrivals phase is entirely shard-local.
struct ShardBuckets {
    /// Flits on the wire: bucket `(send + flit_eff) % (flit_eff + 1)`
    /// holds (link, packet, VC) triples due that cycle.
    flit: Vec<Vec<(u32, Flit, u8)>>,
    /// Credits returning upstream: (link, VC) pairs per due cycle.
    credit: Vec<Vec<(u32, u8)>>,
}

impl ShardBuckets {
    fn new(flit_eff: u32, credit_eff: u32) -> Self {
        ShardBuckets {
            flit: (0..=flit_eff).map(|_| Vec::new()).collect(),
            credit: (0..=credit_eff).map(|_| Vec::new()).collect(),
        }
    }
}

/// Cross-thread event envelope: events bound for a shard owned by
/// another worker, tagged with their due bucket. Flushed into the
/// destination's mailbox once per cycle and drained by the owner at
/// the next cycle's first phase group (delays are ≥ 1 cycle, so the
/// one-cycle hand-off is never late — see the module docs).
#[derive(Default)]
struct Mail {
    flit: Vec<(usize, u32, Flit, u8)>,
    credit: Vec<(usize, u32, u8)>,
}

/// Where a phase deposits the events it produces, on behalf of one
/// worker. An event bound for a shard the worker owns goes straight
/// into that shard's buckets; any other event waits in the
/// per-destination outbox for the end-of-cycle mailbox flush. With one
/// worker every shard is its own, so no event goes through a mailbox.
struct EventSink<'d> {
    plan: &'d ShardPlan,
    /// First shard the worker owns: `own[i]` is shard `s_lo + i`.
    s_lo: usize,
    own: &'d mut [ShardBuckets],
    out: &'d mut [Mail],
}

impl EventSink<'_> {
    /// A flit leaving on link `l`, due in bucket `due`.
    #[inline]
    fn flit(&mut self, due: usize, l: u32, f: Flit, vc: u8) {
        let d = self.plan.flit_dest[l as usize] as usize;
        // `wrapping_sub` sends shards below `s_lo` out of range too.
        match self.own.get_mut(d.wrapping_sub(self.s_lo)) {
            Some(bk) => bk.flit[due].push((l, f, vc)),
            None => self.out[d].flit.push((due, l, f, vc)),
        }
    }

    /// A credit returning on link `l`, due in bucket `due`.
    #[inline]
    fn credit(&mut self, due: usize, l: u32, vc: u8) {
        let d = self.plan.link_shard[l as usize] as usize;
        match self.own.get_mut(d.wrapping_sub(self.s_lo)) {
            Some(bk) => bk.credit[due].push((l, vc)),
            None => self.out[d].credit.push((due, l, vc)),
        }
    }
}

/// Flat input port of input-buffer slot `slot` (`slot / num_vcs`,
/// strength-reduced; `num_vcs == 1` makes it the identity).
#[inline]
fn slot_port_of(nvc: usize, magic: u64, slot: usize) -> usize {
    if nvc == 1 {
        slot
    } else {
        fast_div(slot as u32, magic) as usize
    }
}

/// Carves the first `$n` elements off a `&mut [T]` binding, leaving
/// the tail in place — the split-at-mut idiom the shard-view builder
/// uses to hand each shard exclusive slices of the flat arrays.
macro_rules! carve {
    ($rest:ident, $n:expr) => {{
        let (head, tail) = std::mem::take(&mut $rest).split_at_mut($n);
        $rest = tail;
        head
    }};
}

/// What the phases read but no shard owns: the borrowed network,
/// routing and traffic state, the run constants, the index spaces and
/// the shared atomic state. [`Simulator`] holds one, and every worker
/// of a step borrows it.
///
/// The atomic members (`occ` and the bitmasks) are globally readable;
/// writes are disjoint by the shard-ownership rules in the module docs.
struct StepCtx<'a> {
    net: &'a Network,
    tables: &'a RoutingTables,
    router: &'a dyn Router,
    pattern: &'a TrafficPattern,
    /// The graph routing decisions see ([`RouteCtx::graph`]): `net.graph`
    /// until [`Simulator::apply_fault`] swaps in the degraded graph.
    /// Micro-architectural state (ports, links, endpoints) always keys
    /// off the boot-time `net`.
    route_graph: &'a Graph,
    cfg: SimConfig,
    load: f64,
    vc_cap: usize,
    /// First cycle of the current measurement window (warm-up ends
    /// here). Instance state, not derived from `cfg`, so a warm-start
    /// chain can re-arm a fresh window mid-run ([`Simulator::rearm`]).
    win_start: u32,
    /// One past the last cycle of the current measurement window.
    win_end: u32,
    links: LinkIndex,
    /// Shard layout: contiguous router/endpoint/port/link ranges (a
    /// function of the topology only — see the determinism contract).
    plan: ShardPlan,
    /// First flat input-port index per router; network ports first,
    /// then injection ports.
    port_base: Vec<u32>,
    ep_router: Vec<u32>,
    /// Flat `in_buf` slot (VC 0) of each endpoint's injection port.
    ep_inj_slot: Vec<u32>,
    /// Per-link dead flag after [`Simulator::apply_fault`]; **empty**
    /// on a fault-free run, so every fault guard in the hot path is one
    /// `is_empty()` test and the fault machinery costs nothing when
    /// unused (pinned by the zero-fault parity tests).
    link_dead: Vec<bool>,
    /// Incremental occupancy counter per link (see the module docs).
    /// Atomic because routing policies read any link's counter at
    /// injection time while only the owner shard ever writes it, in
    /// phase groups where no one reads cross-shard.
    occ: Vec<AtomicU32>,
    /// Bitmask over `in_buf` slots: bit set ⇔ queue non-empty. Lets
    /// ejection/allocation visit only occupied queues, in scan order.
    buf_mask: Vec<AtomicU64>,
    /// Bitmask over endpoints: bit set ⇔ the endpoint has injection
    /// work — a queued packet or a partially injected one — so
    /// injection visits exactly those endpoints in ascending order.
    src_mask: Vec<AtomicU64>,
    /// Bitmask over links: bit set ⇔ staging queue non-empty, so
    /// transmission visits exactly the staged links in link-id order.
    /// Atomic words because shard boundaries straddle them; every bit
    /// still has exactly one writer shard.
    staged_mask: Vec<AtomicU64>,
    /// Lemire magic for dividing flat input-slot ids by `num_vcs`.
    nvc_magic: u64,
    /// Effective flit delay (`router_delay + channel_latency`, min 1 —
    /// a zero-delay flit still arrives the next cycle because
    /// transmission runs after arrivals).
    flit_eff: u32,
    /// Effective credit delay (`credit_delay`, min 1).
    credit_eff: u32,
}

/// A single simulation instance.
///
/// The engine owns router micro-architecture (buffers, credits,
/// allocation, VCs) but **no routing policy**: every path decision is
/// delegated to the [`Router`] trait object, which sees live queue
/// state only through the narrow [`QueueView`] window.
///
/// All mutable state is laid out flat (see the module docs): per-link
/// arrays in CSR order, per-(port, VC) input queues in one flat vector,
/// and persistent per-shard scratch for the per-cycle allocator working
/// set. What the phases only read (configuration, index spaces, the
/// shared atomic counters and masks) sits in one step context. For
/// each step the other arrays split into contiguous per-shard slices,
/// which the workers ([`SimConfig::threads`]) run; between steps they
/// read as plain global arrays, which is what the `verify_*` checkers
/// use.
pub struct Simulator<'a> {
    ctx: StepCtx<'a>,

    // ---- per-link state, indexed by flat link id (× VC where noted) ----
    /// Credits per (link, VC): available downstream buffer slots.
    credits: Vec<u32>,
    /// Output staging queue per link (absorbs crossbar speedup).
    staging: Vec<VecDeque<(Flit, u8)>>,
    /// Flits sent per link during the measurement window.
    link_flits: Vec<u64>,

    // ---- time-bucketed in-flight events ----
    /// Per-shard rotating delay buckets (owned by the shard that will
    /// process the events — see [`ShardBuckets`]).
    buckets: Vec<ShardBuckets>,

    // ---- per-port state ----
    /// Input buffers, indexed `flat_port * num_vcs + vc`.
    in_buf: Vec<VecDeque<Flit>>,

    // ---- wormhole per-VC allocation tables ----
    /// Per input-buffer slot: the output `(link × num_vcs + vc)` the
    /// slot's in-flight packet reserved at its head grant, or
    /// `u32::MAX` when free. Body/tail flits are granted to this
    /// reservation without consulting the routing policy; the tail
    /// grant clears it. Only multi-flit packets ever populate it.
    /// Values are **global** link × VC indices (shard views translate).
    in_route: Vec<u32>,
    /// Per output `(link × num_vcs + vc)`: the input slot owning the
    /// VC from head grant to tail grant, or `u32::MAX` when free. A
    /// head flit is not granted to an owned output VC (prevents flit
    /// interleaving in the downstream input queue).
    out_owner: Vec<u32>,

    // ---- endpoint state ----
    src_q: Vec<VecDeque<(u32, u32)>>, // per endpoint: (gen_time, dst)
    /// Per endpoint: the next body/tail flit of a partially injected
    /// packet (endpoints inject one flit per cycle; the head's routing
    /// decision is reused by the followers).
    inj_progress: Vec<Option<Flit>>,

    // ---- active-set counters ----
    /// Packets buffered in the router's input queues (ejection and
    /// switch allocation skip routers at zero).
    r_buffered: Vec<u32>,

    // ---- persistent per-cycle scratch (hoisted allocations) ----
    /// One scratch set per shard, so phases run shard-parallel.
    scratch: Vec<Scratch>,
    /// Generation-stamped "endpoint ejected this cycle" set: the
    /// endpoint received a flit in cycle `now` iff stamp == now + 1.
    ejected_seen: Vec<u32>,

    /// One RNG stream per shard, seeded `shard_seed(cfg.seed, s)`.
    rngs: Vec<StdRng>,
    /// One measurement accumulator per shard (merged in shard order).
    meters: Vec<Meters>,
    now: u32,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator. `tables` must be built over `net.graph`;
    /// `router` is the pluggable routing policy (build one directly or
    /// through `sf_routing::RoutingSpec::build`). Panics when `cfg`
    /// fails [`SimConfig::validate`].
    pub fn new(
        net: &'a Network,
        tables: &'a RoutingTables,
        router: &'a dyn Router,
        pattern: &'a TrafficPattern,
        load: f64,
        cfg: SimConfig,
    ) -> Self {
        assert_eq!(tables.num_routers(), net.num_routers());
        assert_eq!(pattern.num_endpoints() as usize, net.num_endpoints());
        assert!((0.0..=1.0).contains(&load));
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let nr = net.num_routers();
        let nvc = cfg.num_vcs;
        let vc_cap = (cfg.buf_per_port / nvc).max(1);
        let links = LinkIndex::new(net);
        let nlinks = *links
            .link_base
            .last()
            .expect("link_base has nr + 1 entries") as usize;

        let mut port_base = Vec::with_capacity(nr + 1);
        let mut acc = 0u32;
        for r in 0..nr as u32 {
            port_base.push(acc);
            acc += (net.graph.degree(r) + net.concentration[r as usize] as usize) as u32;
        }
        port_base.push(acc);
        let nslots = acc as usize * nvc;

        let mut ep_router = Vec::with_capacity(net.num_endpoints());
        let mut ep_inj_slot = Vec::with_capacity(net.num_endpoints());
        for e in 0..net.num_endpoints() as u32 {
            let r = net.endpoint_router(e);
            let inj_port = net.graph.degree(r) as u32 + (e - net.endpoints_of_router(r).start);
            ep_router.push(r);
            ep_inj_slot.push((port_base[r as usize] + inj_port) * nvc as u32);
        }

        let max_deg = (0..nr as u32)
            .map(|r| net.graph.degree(r))
            .max()
            .unwrap_or(0);
        let max_ports = (0..nr)
            .map(|r| (port_base[r + 1] - port_base[r]) as usize)
            .max()
            .unwrap_or(0);

        let plan = ShardPlan::new(net, &links, &port_base);
        let s_count = plan.len();
        let flit_eff = (cfg.router_delay + cfg.channel_latency).max(1);
        let credit_eff = cfg.credit_delay.max(1);
        let atomic_mask = |bits: usize| (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Simulator {
            ctx: StepCtx {
                net,
                tables,
                router,
                pattern,
                route_graph: &net.graph,
                cfg,
                load,
                vc_cap,
                win_start: cfg.warmup,
                win_end: cfg.warmup + cfg.measure,
                links,
                plan,
                port_base,
                ep_router,
                ep_inj_slot,
                link_dead: Vec::new(),
                occ: (0..nlinks).map(|_| AtomicU32::new(0)).collect(),
                buf_mask: atomic_mask(nslots),
                src_mask: atomic_mask(net.num_endpoints()),
                staged_mask: atomic_mask(nlinks),
                nvc_magic: (u64::MAX / nvc as u64).wrapping_add(1),
                flit_eff,
                credit_eff,
            },
            credits: vec![vc_cap as u32; nlinks * nvc],
            staging: (0..nlinks).map(|_| VecDeque::new()).collect(),
            link_flits: vec![0; nlinks],
            buckets: (0..s_count)
                .map(|_| ShardBuckets::new(flit_eff, credit_eff))
                .collect(),
            in_buf: (0..nslots).map(|_| VecDeque::new()).collect(),
            in_route: vec![u32::MAX; nslots],
            out_owner: vec![u32::MAX; nlinks * nvc],
            src_q: vec![VecDeque::new(); net.num_endpoints()],
            inj_progress: vec![None; net.num_endpoints()],
            r_buffered: vec![0; nr],
            scratch: (0..s_count)
                .map(|_| Scratch {
                    out_grants: vec![0; max_deg],
                    in_grants: vec![0; max_ports],
                    slots: Vec::with_capacity(max_ports * nvc),
                    eps: Vec::new(),
                })
                .collect(),
            ejected_seen: vec![0; net.num_endpoints()],
            rngs: (0..s_count)
                .map(|s| StdRng::seed_from_u64(shard_seed(cfg.seed, s)))
                .collect(),
            meters: (0..s_count).map(|_| Meters::new()).collect(),
            now: 0,
        }
    }

    /// Number of engine shards this simulation runs with — a function
    /// of the topology only (`min(ENGINE_SHARDS, routers)`), never of
    /// [`SimConfig::threads`] or the machine.
    pub fn num_shards(&self) -> usize {
        self.ctx.plan.len()
    }

    /// Kills links mid-run and swaps in routing state re-derived on the
    /// degraded graph. `dead_links` are router pairs (either
    /// orientation); `graph`/`tables`/`router` must be the degraded
    /// graph (e.g. `net.graph.without_edges(dead_links)` or
    /// `Network::degrade(...)`), its tables, and a policy rebuilt over
    /// them. A policy that cannot be rebuilt on a degraded base (e.g.
    /// FatPaths when the kill partitions the live routers) must be
    /// replaced by one that can — MIN always can.
    ///
    /// Committed wormhole traffic is **not** vaporized: see the module
    /// docs for the administrative-drain semantics. An empty kill set
    /// is a no-op, keeping the fault-free hot path untouched.
    pub fn apply_fault(
        &mut self,
        dead_links: &[(u32, u32)],
        graph: &'a Graph,
        tables: &'a RoutingTables,
        router: &'a dyn Router,
    ) {
        if dead_links.is_empty() {
            return;
        }
        let ctx = &mut self.ctx;
        assert_eq!(tables.num_routers(), ctx.net.num_routers());
        if ctx.link_dead.is_empty() {
            ctx.link_dead = vec![false; ctx.occ.len()];
        }
        for &(u, v) in dead_links {
            let l = ctx.links.link(u, v) as usize;
            ctx.link_dead[l] = true;
            ctx.link_dead[ctx.links.rev[l] as usize] = true;
        }
        ctx.route_graph = graph;
        ctx.tables = tables;
        ctx.router = router;
    }
}

impl StepCtx<'_> {
    #[inline]
    fn slot_port(&self, slot: usize) -> usize {
        slot_port_of(self.cfg.num_vcs, self.nvc_magic, slot)
    }

    /// Whether traffic from router `src_r` to router `dst_r` has no
    /// route on the (degraded) tables. Only meaningful after
    /// [`Simulator::apply_fault`] — the boot graph is connected.
    #[inline]
    fn unroutable(&self, src_r: u32, dst_r: u32) -> bool {
        src_r != dst_r && self.tables.distance(src_r, dst_r) == UNREACHABLE
    }

    /// Asks the routing policy for an injection-time decision, drawing
    /// from the calling shard's RNG stream.
    fn choose_path(
        &self,
        rng: &mut StdRng,
        src_r: u32,
        dst_r: u32,
        flow: u64,
        now: u32,
    ) -> ([u32; MAX_PATH_HOPS + 1], u8) {
        let queues = EngineQueues {
            links: &self.links,
            occ: &self.occ,
        };
        let ctx = RouteCtx {
            graph: self.route_graph,
            tables: self.tables,
            queues: &queues,
            src: src_r,
            dst: dst_r,
            flow,
            now,
        };
        match self.router.route(&ctx, rng) {
            RouteDecision::Path(v) => {
                assert!(
                    v.len() <= MAX_PATH_HOPS + 1,
                    "path longer than MAX_PATH_HOPS: {v:?}"
                );
                let mut a = [0u32; MAX_PATH_HOPS + 1];
                a[..v.len()].copy_from_slice(&v);
                (a, v.len() as u8)
            }
            RouteDecision::PerHop => {
                // Per-hop routing: packet only carries the destination.
                let mut a = [0u32; MAX_PATH_HOPS + 1];
                a[0] = dst_r;
                (a, 0)
            }
        }
    }

    /// Next-hop router for a packet sitting at `r`: the recorded source
    /// route, or the policy's per-hop hook for adaptive packets. The
    /// per-hop hook sees queues through [`AllocQueues`], which enforces
    /// the allocation-phase QueueView contract (own links only).
    fn next_hop(&self, rng: &mut StdRng, p: &Flit, r: u32, now: u32) -> u32 {
        if p.path_len > 0 {
            p.path[p.hop as usize + 1]
        } else {
            let queues = AllocQueues {
                links: &self.links,
                occ: &self.occ,
                decider: r,
            };
            let ctx = RouteCtx {
                graph: self.route_graph,
                tables: self.tables,
                queues: &queues,
                src: r,
                dst: p.path[0],
                flow: flow_id(p.src_ep, p.dst_ep),
                now,
            };
            self.router.next_hop(&ctx, r, rng)
        }
    }
}

/// One shard's exclusive window onto the flat engine arrays, plus its
/// private RNG stream, meters and scratch. Built fresh per
/// `advance()` call by splitting the `Simulator`'s global arrays at the
/// [`ShardPlan`] boundaries; indices arriving from global index spaces
/// (flat slots, link × VC, endpoints, routers) are translated by
/// subtracting the shard's `*_lo` offsets. Values *stored* in the
/// tables (`in_route`, `out_owner`) stay global encodings so the
/// whole-array `verify_*` checkers read them unchanged.
struct ShardView<'v> {
    r_lo: u32,
    r_hi: u32,
    ep_lo: u32,
    ep_hi: u32,
    link_lo: u32,
    link_hi: u32,
    /// First flat input-buffer slot of this shard.
    slot_lo: usize,
    /// First link × VC index of this shard.
    lv_lo: usize,
    credits: &'v mut [u32],
    staging: &'v mut [VecDeque<(Flit, u8)>],
    in_buf: &'v mut [VecDeque<Flit>],
    in_route: &'v mut [u32],
    out_owner: &'v mut [u32],
    src_q: &'v mut [VecDeque<(u32, u32)>],
    inj_progress: &'v mut [Option<Flit>],
    ejected_seen: &'v mut [u32],
    r_buffered: &'v mut [u32],
    link_flits: &'v mut [u64],
    rng: &'v mut StdRng,
    m: &'v mut Meters,
    scr: &'v mut Scratch,
}

impl ShardView<'_> {
    /// Pushes a packet into input-buffer slot `slot` (global index) of
    /// router `r`, maintaining the non-empty bitmask and the active-set
    /// counter.
    #[inline]
    fn buf_push(&mut self, ctx: &StepCtx, r: u32, slot: usize, p: Flit) {
        self.in_buf[slot - self.slot_lo].push_back(p);
        mask_set(&ctx.buf_mask, slot);
        self.r_buffered[(r - self.r_lo) as usize] += 1;
    }

    /// Pops the head of input-buffer slot `slot` (global index) of
    /// router `r`.
    #[inline]
    fn buf_pop(&mut self, ctx: &StepCtx, r: u32, slot: usize) -> Flit {
        let q = &mut self.in_buf[slot - self.slot_lo];
        let p = q
            .pop_front()
            .expect("buf_pop is only called on slots the mask marks occupied");
        if q.is_empty() {
            mask_clear(&ctx.buf_mask, slot);
        }
        self.r_buffered[(r - self.r_lo) as usize] -= 1;
        p
    }

    /// Administratively drops the front flit of input slot `slot` at
    /// router `r` (see the module docs): frees the buffer, returns the
    /// upstream credit exactly like a grant, and maintains the drop
    /// accounting and the [`DROP_ROUTE`] sentinel — a multi-flit head
    /// plants it for the trailing flits, the tail clears it and closes
    /// the packet's sample accounting.
    fn drop_front(
        &mut self,
        ctx: &StepCtx,
        sink: &mut EventSink,
        r: u32,
        slot: usize,
        net_deg: usize,
        credit_due: usize,
    ) {
        let pkt = self.buf_pop(ctx, r, slot);
        let fp = ctx.slot_port(slot);
        let port = fp - ctx.port_base[r as usize] as usize;
        if port < net_deg {
            let down = ctx.links.link_base[r as usize] as usize + port;
            let up_link = ctx.links.rev[down];
            let vc = (slot - fp * ctx.cfg.num_vcs) as u8;
            sink.credit(credit_due, up_link, vc);
        }
        self.m.dropped_flits += 1;
        if pkt.size > 1 {
            self.in_route[slot - self.slot_lo] = if pkt.is_tail() { u32::MAX } else { DROP_ROUTE };
        }
        if pkt.is_tail() && pkt.gen_time >= ctx.win_start && pkt.gen_time < ctx.win_end {
            self.m.sample_dropped += 1;
        }
    }

    /// Phase 1 — arrivals: flying flits reach downstream input buffers;
    /// credits mature. Events live in the shard's per-cycle buckets, so
    /// the drain touches exactly the due events (no RNG; delivery
    /// effects within a cycle are commutative — see the bucket docs).
    fn arrivals(&mut self, ctx: &StepCtx, bk: &mut ShardBuckets, now: u32) {
        let nvc = ctx.cfg.num_vcs;
        let fb = (now % (ctx.flit_eff + 1)) as usize;
        let mut bucket = std::mem::take(&mut bk.flit[fb]);
        for &(l, pkt, vc) in &bucket {
            let to = ctx.links.to[l as usize];
            let fp = ctx.port_base[to as usize] + ctx.links.to_port[l as usize];
            let slot = fp as usize * nvc + vc as usize;
            self.buf_push(ctx, to, slot, pkt);
        }
        bucket.clear();
        bk.flit[fb] = bucket;
        let cb = (now % (ctx.credit_eff + 1)) as usize;
        let mut bucket = std::mem::take(&mut bk.credit[cb]);
        for &(l, vc) in &bucket {
            self.credits[l as usize * nvc + vc as usize - self.lv_lo] += 1;
            occ_add(&ctx.occ[l as usize], -1);
        }
        bucket.clear();
        bk.credit[cb] = bucket;
    }

    /// Phase 2 — traffic generation (Bernoulli per active endpoint).
    /// RNG phase: iterates the shard's endpoints in order,
    /// unconditionally, on the shard's private stream. One draw
    /// generates a whole packet; the probability is scaled by the
    /// packet size so `load` stays the offered load in
    /// flits/endpoint/cycle.
    fn generation(&mut self, ctx: &StepCtx, now: u32) {
        if ctx.load <= 0.0 {
            return;
        }
        let p_gen = ctx.load / ctx.cfg.packet_size as f64;
        for e in self.ep_lo..self.ep_hi {
            if !ctx.pattern.is_active(e) {
                continue;
            }
            if self.rng.gen_bool(p_gen) {
                if let Some(d) = ctx.pattern.dest(e, self.rng) {
                    // Degraded operation: a packet for a router the
                    // fault disconnected is dropped at the source —
                    // never queued, never counted as a sample. The
                    // guard draws no RNG, so a fault-free run is
                    // bit-identical.
                    if !ctx.link_dead.is_empty()
                        && ctx.unroutable(ctx.ep_router[e as usize], ctx.ep_router[d as usize])
                    {
                        self.m.dropped_flits += ctx.cfg.packet_size as u64;
                        self.m.unreachable_pairs += 1;
                        continue;
                    }
                    if now >= ctx.win_start && now < ctx.win_end {
                        self.m.sample_generated += 1;
                    }
                    self.src_q[(e - self.ep_lo) as usize].push_back((now, d));
                    mask_set(&ctx.src_mask, e as usize);
                }
            }
        }
    }

    /// Phase 3 — injection: one flit per endpoint per cycle enters the
    /// router's injection port. A *new* packet's head flit picks its
    /// path now (seeing current queues); body/tail flits of a partially
    /// injected packet follow on later cycles, before the next packet
    /// may start. RNG phase: the shard's endpoints with injection work
    /// are visited in ascending order — exactly the endpoints a full
    /// scan would visit (no RNG is drawn for idle endpoints or for
    /// body/tail flits).
    fn injection(&mut self, ctx: &StepCtx, now: u32) {
        let mut eps = std::mem::take(&mut self.scr.eps);
        eps.clear();
        gather_segment(
            &ctx.src_mask,
            self.ep_lo as usize,
            self.ep_hi as usize,
            &mut eps,
        );
        for &e in &eps {
            let slot = ctx.ep_inj_slot[e as usize] as usize;
            if self.in_buf[slot - self.slot_lo].len() >= ctx.vc_cap {
                continue;
            }
            let r = ctx.ep_router[e as usize];
            let el = (e - self.ep_lo) as usize;
            if let Some(f) = self.inj_progress[el] {
                // Body/tail flit of the packet in progress: no
                // routing, no RNG — serialization only.
                self.inj_progress[el] = if f.is_tail() {
                    None
                } else {
                    Some(Flit {
                        seq: f.seq + 1,
                        ..f
                    })
                };
                self.buf_push(ctx, r, slot, f);
                if self.inj_progress[el].is_none() && self.src_q[el].is_empty() {
                    mask_clear(&ctx.src_mask, e as usize);
                }
                continue;
            }
            let (gen_time, dst_ep) = self.src_q[el]
                .pop_front()
                .expect("src_mask marks this endpoint's queue non-empty");
            let dst_r = ctx.ep_router[dst_ep as usize];
            // Degraded operation: a packet queued *before* a fault
            // whose destination is now unreachable is dropped here
            // instead of injected (its flits never entered the
            // network, but it was already counted as a sample).
            if !ctx.link_dead.is_empty() && ctx.unroutable(r, dst_r) {
                self.m.dropped_flits += ctx.cfg.packet_size as u64;
                self.m.unreachable_pairs += 1;
                if gen_time >= ctx.win_start && gen_time < ctx.win_end {
                    self.m.sample_dropped += 1;
                }
                if self.src_q[el].is_empty() {
                    mask_clear(&ctx.src_mask, e as usize);
                }
                continue;
            }
            if self.src_q[el].is_empty() && ctx.cfg.packet_size == 1 {
                mask_clear(&ctx.src_mask, e as usize);
            }
            let (path, path_len) = ctx.choose_path(self.rng, r, dst_r, flow_id(e, dst_ep), now);
            // Spread packets over VC classes: an h-hop path may start at
            // any base with base + h ≤ num_vcs (adaptive paths reserve
            // the full diameter-bound budget).
            let hops = if path_len == 0 {
                ctx.tables.distance(r, dst_r).min(ADAPTIVE_HOP_BUDGET) as usize
            } else {
                path_len as usize - 1
            };
            let slack = vc_base_slack(ctx.cfg.num_vcs, hops);
            let vc_base = if slack == 0 {
                0
            } else {
                self.rng.gen_range(0..=slack.min(ctx.cfg.num_vcs - 1)) as u8
            };
            let head = Flit {
                src_ep: e,
                dst_ep,
                gen_time,
                path,
                path_len,
                hop: 0,
                vc_base,
                seq: 0,
                size: ctx.cfg.packet_size as u16,
            };
            if !head.is_tail() {
                self.inj_progress[el] = Some(Flit { seq: 1, ..head });
            }
            self.buf_push(ctx, r, slot, head);
        }
        self.scr.eps = eps;
    }

    /// Phase 4 — ejection: one flit per endpoint per cycle. (No RNG.)
    fn ejection(&mut self, ctx: &StepCtx, sink: &mut EventSink, now: u32) {
        let nvc = ctx.cfg.num_vcs;
        let eject_stamp = now + 1;
        let credit_due = ((now + ctx.credit_eff) % (ctx.credit_eff + 1)) as usize;
        for r in self.r_lo..self.r_hi {
            if self.r_buffered[(r - self.r_lo) as usize] == 0 {
                continue;
            }
            let lo = ctx.port_base[r as usize] as usize * nvc;
            let hi = ctx.port_base[r as usize + 1] as usize * nvc;
            let net_deg = ctx.net.graph.degree(r);
            let mut scratch = std::mem::take(&mut self.scr.slots);
            scratch.clear();
            gather_segment(&ctx.buf_mask, lo, hi, &mut scratch);
            for &slot in &scratch {
                let slot = slot as usize;
                let eject = matches!(
                    self.in_buf[slot - self.slot_lo].front(),
                    Some(p) if p.dst_router() == r
                        && self.ejected_seen[(p.dst_ep - self.ep_lo) as usize] != eject_stamp
                );
                if !eject {
                    continue;
                }
                let p = self.buf_pop(ctx, r, slot);
                self.ejected_seen[(p.dst_ep - self.ep_lo) as usize] = eject_stamp;
                // Return a credit upstream for network ports. The
                // upstream link belongs to the *neighbor's* shard, so
                // this goes through the sink.
                let fp = ctx.slot_port(slot);
                let port = fp - ctx.port_base[r as usize] as usize;
                if port < net_deg {
                    let down = ctx.links.link_base[r as usize] as usize + port;
                    let up_link = ctx.links.rev[down];
                    let vc = (slot - fp * nvc) as u8;
                    sink.credit(credit_due, up_link, vc);
                }
                // Throughput ticks per flit; packet completion (and
                // latency, measured to the *tail* — serialization
                // included) ticks at the tail flit.
                self.m.total_ejected_flits += 1;
                if now >= ctx.win_start && now < ctx.win_end {
                    self.m.window_ejected += 1;
                }
                if p.is_tail() {
                    self.m.total_ejected += 1;
                }
                if p.gen_time >= ctx.win_start && p.gen_time < ctx.win_end {
                    if p.is_head() {
                        self.m.head_lat_sum += now.saturating_sub(p.gen_time) as u64;
                        self.m.head_ejected += 1;
                    }
                    if p.is_tail() {
                        self.m.sample_ejected += 1;
                        self.m.stats.record(now.saturating_sub(p.gen_time));
                        self.m.hops_sum += p.hop as u64;
                    }
                }
            }
            self.scr.slots = scratch;
        }
    }

    /// Phase 5 — switch allocation: round-robin over input VCs; each
    /// input grants ≤ 1 flit, each output accepts ≤ `output_speedup`.
    /// Only *head* flits route and allocate: a head consults
    /// `Router::next_hop` (which may draw from the shard's RNG stream),
    /// then claims the output VC (`in_route`/`out_owner`) if no other
    /// packet owns it; body/tail flits are granted straight to the
    /// recorded reservation, and the tail releases it. `Router::next_hop`
    /// is reached for exactly the packets a full scan would reach, in
    /// the same order: only non-empty queues are visited, in
    /// round-robin order from the same per-cycle offset.
    fn allocation(&mut self, ctx: &StepCtx, sink: &mut EventSink, now: u32) {
        let nvc = ctx.cfg.num_vcs;
        let credit_due = ((now + ctx.credit_eff) % (ctx.credit_eff + 1)) as usize;
        for r in self.r_lo..self.r_hi {
            if self.r_buffered[(r - self.r_lo) as usize] == 0 {
                continue;
            }
            let base = ctx.port_base[r as usize] as usize;
            let nports = ctx.port_base[r as usize + 1] as usize - base;
            let total = nports * nvc;
            // The pre-CSR engine kept a per-router round-robin cursor
            // incremented once per cycle; it always equals `now`.
            let start = now as usize % total.max(1);
            let net_deg = ctx.net.graph.degree(r);
            let nlinks_r = ctx.links.links_of(r).len();
            self.scr.out_grants[..nlinks_r].fill(0);
            self.scr.in_grants[..nports].fill(0);

            // Candidate queues, gathered once in round-robin order
            // (allocation only ever empties queues, so the set cannot
            // grow mid-phase; emptied queues are re-checked cheaply).
            let lo = base * nvc;
            let hi = lo + total;
            let mut scratch = std::mem::take(&mut self.scr.slots);
            scratch.clear();
            gather_segment(&ctx.buf_mask, lo + start, hi, &mut scratch);
            gather_segment(&ctx.buf_mask, lo, lo + start, &mut scratch);

            // Internal speedup: the crossbar runs `output_speedup`
            // allocation iterations per cycle; an input may win once per
            // iteration (and sees its new queue head in the next one).
            for iter in 0..ctx.cfg.output_speedup {
                for &slot in &scratch {
                    let slot = slot as usize;
                    let fp = ctx.slot_port(slot);
                    let port = fp - base;
                    if self.scr.in_grants[port] > iter as u32 {
                        continue;
                    }
                    let head = match self.in_buf[slot - self.slot_lo].front() {
                        Some(p) => *p,
                        None => continue,
                    };
                    if head.dst_router() == r {
                        continue; // handled by ejection
                    }
                    let alloc = self.in_route[slot - self.slot_lo];
                    if alloc == DROP_ROUTE {
                        // Trailing flit of an administratively dropped
                        // packet: discard it (the tail clears the
                        // sentinel — see the module docs).
                        debug_assert!(!head.is_head());
                        self.drop_front(ctx, sink, r, slot, net_deg, credit_due);
                        self.scr.in_grants[port] = iter as u32 + 1;
                        continue;
                    }
                    let (l, next_vc) = if alloc != u32::MAX {
                        // Body/tail flit: inherit the head's reserved
                        // (link, VC) — the routing policy is never
                        // consulted past the head flit.
                        debug_assert!(!head.is_head());
                        ((alloc as usize) / nvc, (alloc as usize) % nvc)
                    } else {
                        debug_assert!(head.is_head());
                        if !ctx.link_dead.is_empty() && ctx.unroutable(r, head.dst_router()) {
                            // The fault disconnected this in-flight
                            // packet's destination: drop before asking
                            // the (degraded) routing policy, which has
                            // no answer for it.
                            self.drop_front(ctx, sink, r, slot, net_deg, credit_due);
                            self.scr.in_grants[port] = iter as u32 + 1;
                            continue;
                        }
                        let nxt = ctx.next_hop(self.rng, &head, r, now);
                        let l = ctx.links.link(r, nxt) as usize;
                        if !ctx.link_dead.is_empty() && ctx.link_dead[l] {
                            // A stale source route (chosen before the
                            // kill) crosses a dead cable: refuse the
                            // allocation and drop the packet here.
                            self.drop_front(ctx, sink, r, slot, net_deg, credit_due);
                            self.scr.in_grants[port] = iter as u32 + 1;
                            continue;
                        }
                        let next_vc = hop_vc(nvc, head.vc_base, head.hop as usize);
                        (l, next_vc)
                    };
                    let j = l - ctx.links.link_base[r as usize] as usize;
                    if self.scr.out_grants[j] >= ctx.cfg.output_speedup as u32 {
                        continue;
                    }
                    // The granted output link belongs to this router,
                    // hence this shard: translate to local indices.
                    let ll = l - self.link_lo as usize;
                    let lvl = l * nvc + next_vc - self.lv_lo;
                    if self.staging[ll].len() >= ctx.cfg.output_queue_cap || self.credits[lvl] == 0
                    {
                        continue;
                    }
                    if alloc == u32::MAX && head.size > 1 && self.out_owner[lvl] != u32::MAX {
                        // Wormhole VC allocation: another packet owns
                        // the output VC until its tail passes.
                        continue;
                    }
                    // Grant.
                    let mut pkt = self.buf_pop(ctx, r, slot);
                    pkt.hop = if pkt.path_len == 0 {
                        // Adaptive: record chosen hop implicitly by counter.
                        pkt.hop.saturating_add(1)
                    } else {
                        pkt.hop + 1
                    };
                    if pkt.size > 1 {
                        if pkt.is_head() {
                            self.in_route[slot - self.slot_lo] = (l * nvc + next_vc) as u32;
                            self.out_owner[lvl] = slot as u32;
                        }
                        if pkt.is_tail() {
                            self.in_route[slot - self.slot_lo] = u32::MAX;
                            self.out_owner[lvl] = u32::MAX;
                        }
                    }
                    self.credits[lvl] -= 1;
                    self.staging[ll].push_back((pkt, next_vc as u8));
                    mask_set(&ctx.staged_mask, l);
                    // One staged flit + one downstream slot consumed.
                    occ_add(&ctx.occ[l], 2);
                    self.scr.out_grants[j] += 1;
                    self.scr.in_grants[port] = iter as u32 + 1;
                    // Credit to upstream for the freed input slot (the
                    // upstream link is the neighbor shard's: sink).
                    if port < net_deg {
                        let down = ctx.links.link_base[r as usize] as usize + port;
                        let up_link = ctx.links.rev[down];
                        let vc = (slot - fp * nvc) as u8;
                        sink.credit(credit_due, up_link, vc);
                    }
                }
            }
            self.scr.slots = scratch;
        }
    }

    /// Phase 6 — channel transmission: one flit per link per cycle
    /// leaves staging; arrival after router pipeline + wire delay. The
    /// staged-link bitmask yields exactly the shard's non-empty staging
    /// queues in ascending link order — the order a full scan over
    /// routers × links would visit them. (No RNG.)
    fn transmission(&mut self, ctx: &StepCtx, sink: &mut EventSink, now: u32) {
        let flit_due = ((now + ctx.flit_eff) % (ctx.flit_eff + 1)) as usize;
        let in_window = now >= ctx.win_start && now < ctx.win_end;
        let mut scratch = std::mem::take(&mut self.scr.slots);
        scratch.clear();
        gather_segment(
            &ctx.staged_mask,
            self.link_lo as usize,
            self.link_hi as usize,
            &mut scratch,
        );
        for &l in &scratch {
            let l = l as usize;
            let ll = l - self.link_lo as usize;
            let (pkt, vc) = self.staging[ll]
                .pop_front()
                .expect("staged_mask marks this staging queue non-empty");
            if self.staging[ll].is_empty() {
                mask_clear(&ctx.staged_mask, l);
            }
            sink.flit(flit_due, l as u32, pkt, vc);
            occ_add(&ctx.occ[l], -1);
            if in_window {
                self.link_flits[ll] += 1;
            }
        }
        self.scr.slots = scratch;
    }
}

/// What the workers of one `advance()` call share besides the step
/// context: the run bounds, the barrier between phase groups, the
/// mailboxes and the per-shard drain totals behind the early exit.
struct Rendezvous {
    /// Stop before this cycle.
    horizon: u32,
    /// Take the drain early exit (see [`Simulator::run_phase`]).
    early: bool,
    /// Shard range of worker `w`: `w_bounds[w]..w_bounds[w + 1]`.
    w_bounds: Vec<usize>,
    /// The phase-group barrier; `None` with one worker, which has
    /// nobody to wait for.
    barrier: Option<Barrier>,
    /// `mail[w][d]`: events worker `w` sent to shard `d` (which another
    /// worker owns) last cycle, drained by the owner in writer order —
    /// so delivery order is a function of the shard layout alone.
    mail: Vec<Vec<Mutex<Mail>>>,
    /// Per shard: sample packets generated minus those resolved
    /// (ejected or dropped), published before the cycle's last barrier
    /// and read after it, so every worker takes the same early-exit
    /// decision.
    pending: Vec<AtomicI64>,
}

impl Rendezvous {
    /// Waits until every worker has finished the current phase group.
    fn sync(&self) {
        if let Some(b) = &self.barrier {
            b.wait();
        }
    }

    /// Moves the mail other workers sent to worker `w`'s shards into
    /// their buckets (`buckets[i]` is shard `w_bounds[w] + i`).
    fn collect_mail(&self, w: usize, buckets: &mut [ShardBuckets]) {
        let s_lo = self.w_bounds[w];
        for (i, bk) in buckets.iter_mut().enumerate() {
            for (src, row) in self.mail.iter().enumerate() {
                if src == w {
                    continue;
                }
                let mut mb = row[s_lo + i]
                    .lock()
                    .expect("mailbox mutex is never poisoned");
                for (due, l, f, vc) in mb.flit.drain(..) {
                    bk.flit[due].push((l, f, vc));
                }
                for (due, l, vc) in mb.credit.drain(..) {
                    bk.credit[due].push((l, vc));
                }
            }
        }
    }
}

/// Runs worker `w`'s shards — `views[i]` and `buckets[i]` are shard
/// `rv.w_bounds[w] + i` — from cycle `start` until `rv.horizon` or the
/// drain early exit, and returns the cycle it stopped at (the same on
/// every worker). Each cycle is three barrier-separated phase groups;
/// inside a group the worker runs each phase over all of its shards
/// before starting the next phase (see the module docs).
fn run_worker(
    ctx: &StepCtx,
    rv: &Rendezvous,
    w: usize,
    views: &mut [ShardView],
    buckets: &mut [ShardBuckets],
    start: u32,
) -> u32 {
    let s_lo = rv.w_bounds[w];
    let mut outbox: Vec<Mail> = (0..ctx.plan.len()).map(|_| Mail::default()).collect();
    let mut now = start;
    while now < rv.horizon {
        // Group X: deliver last cycle's mail, then arrivals. Wire and
        // credit delays are ≥ 1 cycle, so next-cycle delivery is never
        // late.
        rv.collect_mail(w, buckets);
        for (v, bk) in views.iter_mut().zip(buckets.iter_mut()) {
            v.arrivals(ctx, bk, now);
        }
        rv.sync();
        // Group Y: generation, injection, ejection. Injection-time
        // routing reads foreign `occ` freely — no shard writes `occ`
        // in this group.
        for v in views.iter_mut() {
            v.generation(ctx, now);
        }
        for v in views.iter_mut() {
            v.injection(ctx, now);
        }
        let mut sink = EventSink {
            plan: &ctx.plan,
            s_lo,
            own: buckets,
            out: &mut outbox,
        };
        for v in views.iter_mut() {
            v.ejection(ctx, &mut sink, now);
        }
        rv.sync();
        // Group Z: switch allocation + transmission (occ writes are
        // own-shard only; per-hop policies probe own links only —
        // enforced by AllocQueues). Then publish the outbox and, near
        // the window end, the drain totals.
        for v in views.iter_mut() {
            v.allocation(ctx, &mut sink, now);
        }
        for v in views.iter_mut() {
            v.transmission(ctx, &mut sink, now);
        }
        for (d, ob) in outbox.iter_mut().enumerate() {
            if ob.flit.is_empty() && ob.credit.is_empty() {
                continue;
            }
            let mut mb = rv.mail[w][d]
                .lock()
                .expect("mailbox mutex is never poisoned");
            mb.flit.append(&mut ob.flit);
            mb.credit.append(&mut ob.credit);
        }
        if rv.early && now + 1 >= ctx.win_end {
            for (i, v) in views.iter().enumerate() {
                let done = v.m.sample_ejected + v.m.sample_dropped;
                rv.pending[s_lo + i].store(v.m.sample_generated as i64 - done as i64, Relaxed);
            }
        }
        rv.sync();
        now += 1;
        // Identical inputs on every worker: the same `now` and the same
        // published totals (their writers passed the same barrier), so
        // all workers break together or none do.
        let pending = || rv.pending.iter().map(|p| p.load(Relaxed)).sum::<i64>();
        if rv.early && now >= ctx.win_end && pending() <= 0 {
            break;
        }
    }
    // The final cycle's mail has not been delivered yet: deliver it, so
    // the post-run state is the same for every worker count.
    rv.collect_mail(w, buckets);
    now
}

impl<'a> Simulator<'a> {
    /// Advances the simulation to `horizon` (at most). With `early`,
    /// stops at the first cycle ≥ the measurement-window end where
    /// every sample packet has been resolved (ejected or
    /// administratively dropped) — the drain early-exit of
    /// [`Simulator::run_phase`].
    ///
    /// The shards are split into contiguous ranges over
    /// [`SimConfig::threads`] workers (clamped to `[1, num_shards]`).
    /// Worker 0 is the calling thread and the others are scoped
    /// spawns, so `threads = 1` spawns nothing. Results never depend
    /// on the worker count.
    fn advance(&mut self, horizon: u32, early: bool) {
        let ctx = &self.ctx;
        let nvc = ctx.cfg.num_vcs;
        let s_count = ctx.plan.len();
        let threads = ctx.cfg.threads.clamp(1, s_count);

        // Carve the flat arrays into per-shard exclusive views.
        let mut views: Vec<ShardView> = Vec::with_capacity(s_count);
        {
            let mut credits_s = self.credits.as_mut_slice();
            let mut staging_s = self.staging.as_mut_slice();
            let mut in_buf_s = self.in_buf.as_mut_slice();
            let mut in_route_s = self.in_route.as_mut_slice();
            let mut out_owner_s = self.out_owner.as_mut_slice();
            let mut src_q_s = self.src_q.as_mut_slice();
            let mut inj_s = self.inj_progress.as_mut_slice();
            let mut seen_s = self.ejected_seen.as_mut_slice();
            let mut rbuf_s = self.r_buffered.as_mut_slice();
            let mut lf_s = self.link_flits.as_mut_slice();
            let mut rng_s = self.rngs.as_mut_slice();
            let mut met_s = self.meters.as_mut_slice();
            let mut scr_s = self.scratch.as_mut_slice();
            let p = &ctx.plan;
            for s in 0..s_count {
                let (r_lo, r_hi) = (p.r_bounds[s], p.r_bounds[s + 1]);
                let (ep_lo, ep_hi) = (p.ep_bounds[s], p.ep_bounds[s + 1]);
                let (link_lo, link_hi) = (p.link_bounds[s], p.link_bounds[s + 1]);
                let slot_lo = p.port_bounds[s] as usize * nvc;
                let nslots = (p.port_bounds[s + 1] as usize - p.port_bounds[s] as usize) * nvc;
                let lv_lo = link_lo as usize * nvc;
                let nlv = (link_hi - link_lo) as usize * nvc;
                views.push(ShardView {
                    r_lo,
                    r_hi,
                    ep_lo,
                    ep_hi,
                    link_lo,
                    link_hi,
                    slot_lo,
                    lv_lo,
                    credits: carve!(credits_s, nlv),
                    staging: carve!(staging_s, (link_hi - link_lo) as usize),
                    in_buf: carve!(in_buf_s, nslots),
                    in_route: carve!(in_route_s, nslots),
                    out_owner: carve!(out_owner_s, nlv),
                    src_q: carve!(src_q_s, (ep_hi - ep_lo) as usize),
                    inj_progress: carve!(inj_s, (ep_hi - ep_lo) as usize),
                    ejected_seen: carve!(seen_s, (ep_hi - ep_lo) as usize),
                    r_buffered: carve!(rbuf_s, (r_hi - r_lo) as usize),
                    link_flits: carve!(lf_s, (link_hi - link_lo) as usize),
                    rng: &mut carve!(rng_s, 1)[0],
                    m: &mut carve!(met_s, 1)[0],
                    scr: &mut carve!(scr_s, 1)[0],
                });
            }
        }

        let rv = Rendezvous {
            horizon,
            early,
            w_bounds: (0..=threads).map(|w| w * s_count / threads).collect(),
            barrier: (threads > 1).then(|| Barrier::new(threads)),
            mail: (0..threads)
                .map(|_| (0..s_count).map(|_| Mutex::new(Mail::default())).collect())
                .collect(),
            pending: (0..s_count).map(|_| AtomicI64::new(0)).collect(),
        };
        let start = self.now;
        let (views0, mut views_rest) = views.split_at_mut(rv.w_bounds[1]);
        let (buckets0, mut buckets_rest) = self.buckets.split_at_mut(rv.w_bounds[1]);
        self.now = std::thread::scope(|sc| {
            for w in 1..threads {
                let n = rv.w_bounds[w + 1] - rv.w_bounds[w];
                let (vs, bs) = (carve!(views_rest, n), carve!(buckets_rest, n));
                let rv = &rv;
                sc.spawn(move || run_worker(ctx, rv, w, vs, bs, start));
            }
            run_worker(ctx, &rv, 0, views0, buckets0, start)
        });
    }

    /// Advances the simulation by one cycle.
    ///
    /// Public for embedding and invariant testing (see
    /// [`Simulator::verify_occupancy_counters`]); [`Simulator::run`]
    /// drives the full warm-up / measure / drain schedule.
    pub fn step(&mut self) {
        let h = self.now + 1;
        self.advance(h, false);
    }

    /// Advances the simulation by `n` cycles in one `advance()` call:
    /// the shard views, mailboxes and (with `threads > 1`) worker
    /// threads are set up once for the whole batch, not per cycle.
    pub fn step_n(&mut self, n: u32) {
        let h = self.now.saturating_add(n);
        self.advance(h, false);
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u32 {
        self.now
    }
}

impl<'a> Simulator<'a> {
    /// Checks every incremental counter against a from-scratch
    /// recomputation: per-link occupancy (staging + credits in use),
    /// the per-router active-set counters, and the input-queue,
    /// staged-link and source-queue bitmasks. Returns the first mismatch as
    /// an error. O(state); intended for tests (property-tested after
    /// random step sequences), not for the hot loop.
    pub fn verify_occupancy_counters(&self) -> Result<(), String> {
        let nvc = self.ctx.cfg.num_vcs;
        let nlinks = self.ctx.occ.len();
        for l in 0..nlinks {
            let used: u32 = (0..nvc)
                .map(|vc| self.ctx.vc_cap as u32 - self.credits[l * nvc + vc])
                .sum();
            let expect = self.staging[l].len() as u32 + used;
            if self.ctx.occ[l].load(Relaxed) != expect {
                return Err(format!(
                    "link {l}: occ counter {} != recomputed {expect} \
                     (staging {}, credits in use {used})",
                    self.ctx.occ[l].load(Relaxed),
                    self.staging[l].len()
                ));
            }
        }
        for r in 0..self.ctx.net.num_routers() {
            let lo = self.ctx.port_base[r] as usize * nvc;
            let hi = self.ctx.port_base[r + 1] as usize * nvc;
            let buffered: u32 = (lo..hi).map(|s| self.in_buf[s].len() as u32).sum();
            if self.r_buffered[r] != buffered {
                return Err(format!(
                    "router {r}: r_buffered {} != recomputed {buffered}",
                    self.r_buffered[r]
                ));
            }
            for slot in lo..hi {
                let bit = mask_get(&self.ctx.buf_mask, slot);
                if bit == self.in_buf[slot].is_empty() {
                    return Err(format!(
                        "slot {slot}: mask bit {bit} but queue len {}",
                        self.in_buf[slot].len()
                    ));
                }
            }
        }
        for l in 0..nlinks {
            let bit = mask_get(&self.ctx.staged_mask, l);
            if bit == self.staging[l].is_empty() {
                return Err(format!(
                    "link {l}: staged-mask bit {bit} but staging len {}",
                    self.staging[l].len()
                ));
            }
        }
        for (e, q) in self.src_q.iter().enumerate() {
            let bit = mask_get(&self.ctx.src_mask, e);
            let has_work = !q.is_empty() || self.inj_progress[e].is_some();
            if bit != has_work {
                return Err(format!(
                    "endpoint {e}: source-mask bit {bit} but queue len {} \
                     and injection in progress {}",
                    q.len(),
                    self.inj_progress[e].is_some()
                ));
            }
        }
        Ok(())
    }

    /// Validates the wormhole credit loop and per-VC allocation state
    /// against a from-scratch recomputation:
    ///
    /// * **credit conservation** per `(link, VC)` — every consumed
    ///   credit is accounted for exactly once, as a staged flit, a flit
    ///   on the wire, a flit in the downstream input buffer, or a
    ///   credit in flight back upstream (`vc_cap = credits + all of
    ///   those`), so every credit returns exactly once;
    /// * **allocation bijection** — `in_route[slot] = (l, v)` iff
    ///   `out_owner[(l, v)] = slot`, every reservation names an output
    ///   link of the slot's own router, and with `packet_size = 1`
    ///   both tables are empty (tails released everything).
    ///
    /// Returns the first violation as an error. O(state); intended for
    /// tests (property-tested after random step batches across routings
    /// × packet sizes), not for the hot loop.
    pub fn verify_credit_round_trip(&self) -> Result<(), String> {
        let nvc = self.ctx.cfg.num_vcs;
        let nlinks = self.ctx.occ.len();
        // Flits on the wire / credits in flight, tallied per (link, VC)
        // across every shard's delay buckets.
        let mut wire = vec![0u32; nlinks * nvc];
        let mut credit_flight = vec![0u32; nlinks * nvc];
        for sb in &self.buckets {
            for bucket in &sb.flit {
                for &(l, _, vc) in bucket {
                    wire[l as usize * nvc + vc as usize] += 1;
                }
            }
            for bucket in &sb.credit {
                for &(l, vc) in bucket {
                    credit_flight[l as usize * nvc + vc as usize] += 1;
                }
            }
        }
        for l in 0..nlinks {
            let to = self.ctx.links.to[l] as usize;
            let fp = (self.ctx.port_base[to] + self.ctx.links.to_port[l]) as usize;
            for vc in 0..nvc {
                let lv = l * nvc + vc;
                let staged = self.staging[l]
                    .iter()
                    .filter(|&&(_, v)| v as usize == vc)
                    .count() as u32;
                let downstream = self.in_buf[fp * nvc + vc].len() as u32;
                let accounted =
                    self.credits[lv] + staged + wire[lv] + downstream + credit_flight[lv];
                if accounted != self.ctx.vc_cap as u32 {
                    return Err(format!(
                        "link {l} vc {vc}: credit loop leaks — credits {} + staged \
                         {staged} + wire {} + downstream {downstream} + in-flight \
                         credits {} = {accounted}, expected vc_cap {}",
                        self.credits[lv], wire[lv], credit_flight[lv], self.ctx.vc_cap
                    ));
                }
            }
        }
        // Allocation bijection.
        for (slot, &alloc) in self.in_route.iter().enumerate() {
            if alloc == u32::MAX {
                continue;
            }
            if self.ctx.cfg.packet_size == 1 {
                return Err(format!(
                    "slot {slot}: allocation {alloc} held at packet_size = 1"
                ));
            }
            if alloc == DROP_ROUTE {
                // A condemned packet's trailing flits are still inbound;
                // no output VC is owned, so there is nothing to mirror.
                continue;
            }
            let owner = self.out_owner.get(alloc as usize).copied();
            if owner != Some(slot as u32) {
                return Err(format!(
                    "slot {slot}: in_route {alloc} but out_owner {owner:?}"
                ));
            }
            // The reservation must point at an output link of the
            // router owning the input slot.
            let fp = slot_port_of(nvc, self.ctx.nvc_magic, slot) as u32;
            let r = self.ctx.port_base.partition_point(|&b| b <= fp) - 1;
            let link = alloc as usize / nvc;
            if !self.ctx.links.links_of(r as u32).contains(&link) {
                return Err(format!(
                    "slot {slot} (router {r}): reservation names foreign link {link}"
                ));
            }
        }
        for (lv, &owner) in self.out_owner.iter().enumerate() {
            if owner != u32::MAX && self.in_route[owner as usize] != lv as u32 {
                return Err(format!(
                    "output vc-slot {lv}: owner {owner} whose in_route is {}",
                    self.in_route[owner as usize]
                ));
            }
        }
        Ok(())
    }

    /// Asserts the network is fully drained: no flits buffered, staged
    /// or on the wire, every credit home, every wormhole reservation
    /// released, and no packet mid-injection. The strongest form of the
    /// credit-round-trip contract — after the sources go quiet, the
    /// state must return to exactly the reset state.
    pub fn verify_quiescent(&self) -> Result<(), String> {
        self.verify_credit_round_trip()?;
        self.verify_occupancy_counters()?;
        if let Some(slot) = (0..self.in_buf.len()).find(|&s| !self.in_buf[s].is_empty()) {
            return Err(format!("input slot {slot} still buffers flits"));
        }
        if let Some(l) = (0..self.staging.len()).find(|&l| !self.staging[l].is_empty()) {
            return Err(format!("link {l} still stages flits"));
        }
        if self
            .buckets
            .iter()
            .any(|sb| sb.flit.iter().any(|b| !b.is_empty()))
        {
            return Err("flits still on the wire".into());
        }
        if self
            .buckets
            .iter()
            .any(|sb| sb.credit.iter().any(|b| !b.is_empty()))
        {
            return Err("credits still in flight".into());
        }
        if let Some(lv) =
            (0..self.credits.len()).find(|&lv| self.credits[lv] != self.ctx.vc_cap as u32)
        {
            return Err(format!(
                "credit {lv} not home: {} of {}",
                self.credits[lv], self.ctx.vc_cap
            ));
        }
        if let Some(s) = (0..self.in_route.len()).find(|&s| self.in_route[s] != u32::MAX) {
            return Err(format!("slot {s} still holds a VC reservation"));
        }
        if let Some(e) = (0..self.inj_progress.len()).find(|&e| self.inj_progress[e].is_some()) {
            return Err(format!("endpoint {e} still mid-injection"));
        }
        Ok(())
    }

    /// Runs the configured warm-up + measurement (+ drain) phases and
    /// returns aggregate results.
    pub fn run(mut self) -> SimResult {
        self.run_phase()
    }

    /// Re-arms the simulator for another offered load **without
    /// clearing the warmed queue state**: buffers, credits, staged and
    /// in-flight flits all carry over from the previous phase, while
    /// every measurement counter resets and a fresh
    /// warm-up + measurement window is scheduled starting at the
    /// current cycle. The per-shard RNG streams reseed from
    /// `shard_seed(seed, shard)`, mirroring construction.
    ///
    /// This is the warm-start fast path for load sweeps
    /// ([`LoadSweep::run_warm`]): consecutive loads on the same
    /// (network, routing, traffic) configuration skip the cold ramp
    /// from empty queues. Results are *not* bit-identical to cold
    /// per-load runs (the queue history differs by construction), which
    /// is why sweep drivers only take this path behind an explicit
    /// opt-in flag.
    pub fn rearm(&mut self, load: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&load));
        self.ctx.load = load;
        for (s, rng) in self.rngs.iter_mut().enumerate() {
            *rng = StdRng::seed_from_u64(shard_seed(seed, s));
        }
        self.ctx.win_start = self.now + self.ctx.cfg.warmup;
        self.ctx.win_end = self.ctx.win_start + self.ctx.cfg.measure;
        for m in &mut self.meters {
            *m = Meters::new();
        }
        for c in &mut self.link_flits {
            *c = 0;
        }
    }

    /// Drives the current warm-up + measurement (+ drain) phase to
    /// completion and returns its aggregate results. Equivalent to
    /// [`Simulator::run`] on a fresh simulator; after
    /// [`Simulator::rearm`] it measures the re-armed window instead.
    pub fn run_phase(&mut self) -> SimResult {
        let phase_start = self.ctx.win_start - self.ctx.cfg.warmup;
        let horizon = self.ctx.win_end + self.ctx.cfg.drain;
        self.advance(horizon, true);
        // Merge the per-shard meters in ascending shard order — integer
        // counters and the latency histogram merge exactly, so the
        // totals match a single global accumulator bit for bit.
        let mut m = Meters::new();
        for sm in &self.meters {
            m.absorb(sm);
        }
        let active = self.ctx.pattern.num_active().max(1) as f64;
        // Administratively dropped sample packets count as resolved:
        // a fault that disconnects traffic must not read as saturation.
        let drained = m.sample_ejected + m.sample_dropped >= m.sample_generated;
        let mcycles = self.ctx.cfg.measure as f64;
        let mut max_util = 0.0f64;
        let mut sum_util = 0.0f64;
        for &c in &self.link_flits {
            let u = c as f64 / mcycles;
            max_util = max_util.max(u);
            sum_util += u;
        }
        let nlinks = self.link_flits.len();
        SimResult {
            offered_load: self.ctx.load,
            packet_size: self.ctx.cfg.packet_size,
            avg_latency: m.stats.mean(),
            p99_latency: m.stats.quantile(0.99).map(|v| v as f64).unwrap_or(f64::NAN),
            avg_head_latency: if m.head_ejected == 0 {
                f64::NAN
            } else {
                m.head_lat_sum as f64 / m.head_ejected as f64
            },
            accepted: m.window_ejected as f64 / (active * self.ctx.cfg.measure as f64),
            ejected: m.total_ejected,
            ejected_flits: m.total_ejected_flits,
            saturated: !drained,
            avg_hops: if m.sample_ejected == 0 {
                f64::NAN
            } else {
                m.hops_sum as f64 / m.sample_ejected as f64
            },
            max_link_util: max_util,
            mean_link_util: if nlinks == 0 {
                0.0
            } else {
                sum_util / nlinks as f64
            },
            dropped_flits: m.dropped_flits,
            unreachable_pairs: m.unreachable_pairs,
            cycles: self.now - phase_start,
        }
    }
}

/// Load-sweep helpers: the per-load seed every sweep driver uses, and
/// the warm-start chain. (Cold per-load runs are one
/// [`Simulator::new`]`(..).run()` each; the job scheduler in `slimfly`
/// is the parallel sweep driver.)
pub struct LoadSweep;

impl LoadSweep {
    /// Per-load seed used by every sweep driver (cold and warm): the
    /// base seed perturbed by the offered load, so each load point
    /// draws an independent, reproducible stream.
    pub fn seed_for_load(cfg: &SimConfig, load: f64) -> u64 {
        cfg.seed.wrapping_add((load * 1e4) as u64)
    }

    /// Runs `loads` **sequentially on one warm simulator**: the first
    /// load starts cold (bit-identical to a fresh [`Simulator`] for
    /// that point), every later load re-arms the same simulator
    /// ([`Simulator::rearm`]), reusing the warmed queue state instead
    /// of re-warming from empty. Results for the later loads are close
    /// to, but not bit-identical with, their cold equivalents — sweep
    /// drivers expose this behind an explicit `warm_start` opt-in.
    pub fn run_warm(
        net: &Network,
        tables: &RoutingTables,
        router: &dyn Router,
        pattern: &TrafficPattern,
        loads: &[f64],
        cfg: SimConfig,
    ) -> Vec<SimResult> {
        if let Err(e) = cfg.validate_chain(loads.len()) {
            panic!("invalid SimConfig: {e}");
        }
        let mut out = Vec::with_capacity(loads.len());
        let mut sim: Option<Simulator> = None;
        for &load in loads {
            let seed = Self::seed_for_load(&cfg, load);
            match sim.as_mut() {
                None => {
                    let mut c = cfg;
                    c.seed = seed;
                    sim = Some(Simulator::new(net, tables, router, pattern, load, c));
                }
                Some(s) => s.rearm(load, seed),
            }
            out.push(
                sim.as_mut()
                    .expect("sim is constructed on the first iteration")
                    .run_phase(),
            );
        }
        out
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use sf_routing::{
        AdaptiveEcmpRouter, FatPathsRouter, MinRouter, RoutingSpec, UgalRouter, ValiantRouter,
    };
    use sf_topo::SlimFly;

    fn small_sf() -> (Network, RoutingTables) {
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network(); // 50 routers, p=4, N=200
        let tables = RoutingTables::new(&net.graph);
        (net, tables)
    }

    fn quick_cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 300,
            measure: 600,
            drain: 2_000,
            seed,
            ..Default::default()
        }
    }

    /// Cold per-load MIN runs on `small_sf()` under uniform traffic,
    /// with the sweep drivers' per-load seeds.
    fn cold_min_sweep(loads: &[f64], cfg: SimConfig) -> Vec<SimResult> {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let run = |load| {
            let seed = LoadSweep::seed_for_load(&cfg, load);
            Simulator::new(
                &net,
                &tables,
                &MinRouter,
                &pat,
                load,
                SimConfig { seed, ..cfg },
            )
            .run()
        };
        loads.iter().map(|&load| run(load)).collect()
    }

    #[test]
    fn zero_load_no_packets() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(&net, &tables, &MinRouter, &pat, 0.0, quick_cfg(1)).run();
        assert_eq!(r.ejected, 0);
        assert!(!r.saturated);
    }

    #[test]
    fn low_load_low_latency_all_drained() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, quick_cfg(2)).run();
        assert!(!r.saturated, "10% load must not saturate a balanced SF");
        assert!(r.ejected > 0);
        // Zero-load-ish latency: ≤ 2 hops × (router 3 + wire 1) + inject
        // + eject ≈ ≤ 20 cycles at 10% load.
        assert!(
            r.avg_latency < 20.0,
            "latency {} too high for 10% load",
            r.avg_latency
        );
        // Average hops ≤ diameter 2 (+ tiny adaptive noise).
        assert!(r.avg_hops <= 2.01, "hops = {}", r.avg_hops);
        assert!(r.avg_hops >= 1.0);
    }

    #[test]
    fn min_beats_valiant_latency_uniform() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let rmin = Simulator::new(&net, &tables, &MinRouter, &pat, 0.2, quick_cfg(3)).run();
        let rval = Simulator::new(
            &net,
            &tables,
            &ValiantRouter { cap3: false },
            &pat,
            0.2,
            quick_cfg(3),
        )
        .run();
        assert!(
            rmin.avg_latency < rval.avg_latency,
            "MIN {} must beat VAL {} at low uniform load",
            rmin.avg_latency,
            rval.avg_latency
        );
        assert!(rval.avg_hops > rmin.avg_hops);
    }

    #[test]
    fn valiant_saturates_below_half() {
        // §V-A: VAL doubles link pressure — saturates < 50% load.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(
            &net,
            &tables,
            &ValiantRouter { cap3: false },
            &pat,
            0.85,
            quick_cfg(4),
        )
        .run();
        assert!(
            r.saturated || r.accepted < 0.7,
            "VAL at 85% offered must saturate (accepted {})",
            r.accepted
        );
    }

    #[test]
    fn min_sustains_high_uniform_load() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(&net, &tables, &MinRouter, &pat, 0.6, quick_cfg(5)).run();
        assert!(
            r.accepted > 0.5,
            "MIN at 60% offered should accept most traffic, got {}",
            r.accepted
        );
    }

    #[test]
    fn ugal_variants_run_and_adapt() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        for global in [false, true] {
            let router = UgalRouter::new(4, global).unwrap();
            let r = Simulator::new(&net, &tables, &router, &pat, 0.3, quick_cfg(6)).run();
            assert!(!r.saturated, "{} must not saturate at 30%", router.label());
            // UGAL should mostly choose minimal paths under uniform load.
            assert!(r.avg_hops < 2.5, "{} hops = {}", router.label(), r.avg_hops);
        }
    }

    #[test]
    fn worst_case_crushes_min_but_not_ugal() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::worst_case_slimfly(&net, &tables);
        let cfg = quick_cfg(7);
        let rmin = Simulator::new(&net, &tables, &MinRouter, &pat, 0.4, cfg).run();
        assert!(
            rmin.saturated || rmin.accepted < 0.35,
            "MIN must collapse under worst-case traffic, accepted {}",
            rmin.accepted
        );
        let ugal = UgalRouter::new(4, false).unwrap();
        let rugal = Simulator::new(&net, &tables, &ugal, &pat, 0.25, cfg).run();
        assert!(
            rugal.accepted > rmin.accepted * 0.9,
            "UGAL-L {} should sustain ≥ MIN {} under adversarial load",
            rugal.accepted,
            rmin.accepted
        );
    }

    #[test]
    fn fattree_adaptive_ecmp_works() {
        let ft = sf_topo::fattree::FatTree3 { p: 4, full: false };
        let net = ft.network();
        let tables = RoutingTables::new(&net.graph);
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(&net, &tables, &AdaptiveEcmpRouter, &pat, 0.3, quick_cfg(8)).run();
        assert!(!r.saturated);
        assert!(r.ejected > 0);
        // FT-3 paths are up to 4 router hops.
        assert!(r.avg_hops <= 4.0);
    }

    #[test]
    fn hypercube_bit_reversal_concentrates_min_but_not_adaptive() {
        // The dimension-reversal adversary: at equal accepted load, MIN
        // funnels the half-swap pairs through the middle subcube (hot
        // links near saturation) while per-hop adaptive ECMP spreads
        // the same demand over the minimal DAG.
        let hc = sf_topo::hypercube::Hypercube::new(8);
        let net = hc.network();
        let tables = RoutingTables::new(&net.graph);
        let worst = TrafficPattern::worst_case_hypercube(&net).unwrap();
        let uniform = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(14);
        cfg.num_vcs = 10; // diameter-8 paths need one VC per hop
        let m_worst = Simulator::new(&net, &tables, &MinRouter, &worst, 0.7, cfg).run();
        let m_unif = Simulator::new(&net, &tables, &MinRouter, &uniform, 0.7, cfg).run();
        assert!(
            m_worst.max_link_util > m_unif.max_link_util * 1.5,
            "bit reversal must concentrate MIN traffic: worst {} vs uniform {}",
            m_worst.max_link_util,
            m_unif.max_link_util
        );
        let a_worst = Simulator::new(&net, &tables, &AdaptiveEcmpRouter, &worst, 0.7, cfg).run();
        assert!(
            a_worst.max_link_util < m_worst.max_link_util * 0.85,
            "per-hop adaptive must spread the adversary: ANCA {} vs MIN {}",
            a_worst.max_link_util,
            m_worst.max_link_util
        );
    }

    #[test]
    fn longhop_farthest_translate_stresses_min() {
        // The farthest-translate adversary pairs every router with its
        // maximal-distance XOR offset — by construction the translate
        // the long-hop masks do *not* shortcut — so at equal offered
        // load MIN carries strictly more flits per channel (more hops
        // per packet, concentrated on the few generator classes the
        // minimal routes use) than under uniform traffic.
        let lh = sf_topo::longhop::LongHop::new(6, 3);
        let net = lh.network();
        let tables = RoutingTables::new(&net.graph);
        let worst = TrafficPattern::worst_case_longhop(&net, &tables).unwrap();
        let uniform = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(15);
        cfg.num_vcs = 6;
        let m_worst = Simulator::new(&net, &tables, &MinRouter, &worst, 0.5, cfg).run();
        let m_unif = Simulator::new(&net, &tables, &MinRouter, &uniform, 0.5, cfg).run();
        assert!(
            m_worst.avg_hops > m_unif.avg_hops,
            "every adversarial pair sits at the eccentricity: worst {} vs uniform {} hops",
            m_worst.avg_hops,
            m_unif.avg_hops
        );
        assert!(
            m_worst.max_link_util > m_unif.max_link_util * 1.3,
            "the translate must concentrate MIN traffic: worst {} vs uniform {}",
            m_worst.max_link_util,
            m_unif.max_link_util
        );
    }

    #[test]
    fn dln_farthest_pairs_crush_min_but_not_ugal() {
        // The farthest-pair matching concentrates MIN's long routes on
        // the few shared shortcut links (near-saturated hot channels at
        // 30% load, collapse by 50%), while UGAL detours keep carrying
        // the offered load.
        let dln = sf_topo::random_dln::RandomDln::new(64, 4, 7);
        let net = dln.network();
        let tables = RoutingTables::new(&net.graph);
        let worst = TrafficPattern::worst_case_dln(&net, &tables).unwrap();
        let uniform = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(31);
        cfg.num_vcs = 6; // Valiant detours on a diameter-4 instance
        let m_worst = Simulator::new(&net, &tables, &MinRouter, &worst, 0.3, cfg).run();
        let m_unif = Simulator::new(&net, &tables, &MinRouter, &uniform, 0.3, cfg).run();
        assert!(
            m_worst.max_link_util > m_unif.max_link_util * 1.5,
            "the matching must concentrate MIN traffic: worst {} vs uniform {}",
            m_worst.max_link_util,
            m_unif.max_link_util
        );
        let m_hi = Simulator::new(&net, &tables, &MinRouter, &worst, 0.5, cfg).run();
        assert!(
            m_hi.saturated || m_hi.accepted < 0.45,
            "MIN must collapse under the DLN adversary, accepted {}",
            m_hi.accepted
        );
        let ugal = UgalRouter::new(4, false).unwrap();
        let a_hi = Simulator::new(&net, &tables, &ugal, &worst, 0.5, cfg).run();
        assert!(
            !a_hi.saturated && a_hi.accepted > m_hi.accepted,
            "UGAL-L must sustain the adversarial load: {} vs MIN {}",
            a_hi.accepted,
            m_hi.accepted
        );
    }

    #[test]
    fn bdf_distance2_pairs_crush_min_but_not_ugal() {
        // The polarity-graph adversary: every pair's minimal paths
        // funnel through a single middle router (two polars meet in one
        // point), so MIN saturates near 1/(p+1) while UGAL detours
        // around the shared middles.
        let plane = sf_topo::bdf::ProjectivePlaneGraph::new(5).unwrap();
        let net = plane.network(3);
        let tables = RoutingTables::new(&net.graph);
        let worst = TrafficPattern::worst_case_bdf(&net, &tables).unwrap();
        let cfg = quick_cfg(32);
        let rmin = Simulator::new(&net, &tables, &MinRouter, &worst, 0.3, cfg).run();
        assert!(
            rmin.saturated || rmin.accepted < 0.28,
            "MIN must collapse under the BDF adversary, accepted {}",
            rmin.accepted
        );
        let ugal = UgalRouter::new(4, false).unwrap();
        let rugal = Simulator::new(&net, &tables, &ugal, &worst, 0.3, cfg).run();
        assert!(
            !rugal.saturated && rugal.accepted > 0.28,
            "UGAL-L must sustain the adversarial load: accepted {}",
            rugal.accepted
        );
    }

    #[test]
    fn multi_flit_serialization_raises_zero_load_latency() {
        // At near-zero load a size-S packet's tail trails the head by
        // exactly S − 1 cycles (1 flit/cycle at the ejection port), so
        // packet latency rises by S − 1 versus the single-flit engine
        // while head latency stays put.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg1 = quick_cfg(21);
        cfg1.packet_size = 1;
        let r1 = Simulator::new(&net, &tables, &MinRouter, &pat, 0.02, cfg1).run();
        let mut cfg4 = cfg1;
        cfg4.packet_size = 4;
        let r4 = Simulator::new(&net, &tables, &MinRouter, &pat, 0.02, cfg4).run();
        assert!(!r1.saturated && !r4.saturated);
        assert!(
            r4.avg_latency > r1.avg_latency + 2.0,
            "serialization must show: size 4 {} vs size 1 {}",
            r4.avg_latency,
            r1.avg_latency
        );
        // Head flits see the same contention-free pipeline.
        assert!(
            (r4.avg_head_latency - r1.avg_head_latency).abs() < 1.5,
            "head latency {} vs {}",
            r4.avg_head_latency,
            r1.avg_head_latency
        );
        // The tail trails the head by at least S − 1 cycles.
        assert!(r4.avg_latency - r4.avg_head_latency >= 3.0 - 1e-9);
        assert_eq!(r4.packet_size, 4);
        // Packets cut off by the horizon may have ejected a head
        // without a tail, never the reverse.
        assert!(r4.ejected_flits >= r4.ejected * 4);
    }

    #[test]
    fn multi_flit_saturates_earlier_under_hol_blocking() {
        // Same offered *flit* load, bigger packets: wormhole VC
        // ownership and head-of-line blocking cost throughput, so the
        // size-8 run accepts less at high load than the size-1 run.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(22);
        cfg.packet_size = 1;
        let r1 = Simulator::new(&net, &tables, &MinRouter, &pat, 0.85, cfg).run();
        cfg.packet_size = 8;
        let r8 = Simulator::new(&net, &tables, &MinRouter, &pat, 0.85, cfg).run();
        assert!(
            r8.accepted < r1.accepted,
            "size 8 accepted {} must trail size 1 {} at 85% offered",
            r8.accepted,
            r1.accepted
        );
    }

    #[test]
    fn wormhole_credit_loop_validates_mid_run() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let router = UgalRouter::new(4, false).unwrap();
        let mut cfg = quick_cfg(23);
        cfg.packet_size = 4;
        let mut sim = Simulator::new(&net, &tables, &router, &pat, 0.4, cfg);
        for _ in 0..300 {
            sim.step();
        }
        sim.verify_credit_round_trip().unwrap();
        sim.verify_occupancy_counters().unwrap();
        // Quiet the sources: the wormhole state must fully unwind.
        sim.rearm(0.0, 99);
        for _ in 0..5_000 {
            sim.step();
            if sim.verify_quiescent().is_ok() {
                break;
            }
        }
        sim.verify_quiescent().unwrap();
    }

    #[test]
    #[should_panic(expected = "packet_size")]
    fn zero_packet_size_is_rejected() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(24);
        cfg.packet_size = 0;
        let _ = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, cfg);
    }

    #[test]
    fn field_table_lists_every_field_and_sets_round_trip() {
        let base = SimConfig::default();
        let fields = base.fields();
        let keys: Vec<_> = fields.iter().map(|f| f.key).collect();
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), SimConfig::NUM_FIELDS, "{keys:?}");
        assert_eq!(fields[0].value, base.num_vcs as u64);
        // Setting each field to a distinct value changes exactly that
        // field, so no two rows alias one struct member.
        for (i, f) in fields.iter().enumerate() {
            let mut cfg = base;
            cfg.set(f.key, f.value + 1).unwrap();
            for (j, g) in cfg.fields().iter().enumerate() {
                let want = fields[j].value + u64::from(i == j);
                assert_eq!(g.value, want, "set({}) moved {}", f.key, g.key);
            }
        }
        let mut cfg = base;
        assert!(cfg.set("wat", 1).unwrap_err().contains("wat"));
        let err = cfg.set("warmup", u64::from(u32::MAX) + 1).unwrap_err();
        assert!(err.contains("warmup"), "{err}");
        assert_eq!(cfg, base, "a rejected set leaves the config alone");
        cfg.set("seed", u64::MAX).unwrap();
        assert_eq!(cfg.seed, u64::MAX);
    }

    #[test]
    fn validate_owns_every_domain_bound() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        let bad = |f: fn(&mut SimConfig), needle: &str| {
            let mut cfg = SimConfig::default();
            f(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "{err} (wanted {needle:?})");
        };
        bad(|c| c.num_vcs = 0, "num_vcs");
        bad(|c| c.num_vcs = MAX_VCS + 1, "num_vcs");
        bad(|c| c.packet_size = 0, "packet_size");
        bad(|c| c.packet_size = MAX_PACKET_SIZE + 1, "packet_size");
        bad(|c| c.measure = 0, "measure");
        bad(
            |c| {
                c.warmup = u32::MAX;
                c.measure = 1;
            },
            "warmup + measure + drain",
        );
        // The window may fill the counter exactly, once.
        let edge = SimConfig {
            warmup: u32::MAX - 2,
            measure: 1,
            drain: 1,
            ..SimConfig::default()
        };
        assert_eq!(edge.validate(), Ok(()));
        let err = edge.validate_chain(2).unwrap_err();
        assert!(err.contains("× 2 warm-started loads"), "{err}");
        let cfg = SimConfig::default();
        assert_eq!(cfg.validate_chain(100), Ok(()));
        assert!(cfg.validate_chain(1_000_000).is_err());
    }

    #[test]
    #[should_panic(expected = "measure")]
    fn zero_measurement_window_is_rejected() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(24);
        cfg.measure = 0;
        let _ = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, cfg);
    }

    #[test]
    fn deterministic_given_seed() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let a = Simulator::new(&net, &tables, &MinRouter, &pat, 0.25, quick_cfg(9)).run();
        let b = Simulator::new(&net, &tables, &MinRouter, &pat, 0.25, quick_cfg(9)).run();
        assert_eq!(a.ejected, b.ejected);
        assert_eq!(a.avg_latency, b.avg_latency);
    }

    #[test]
    fn load_sweep_matches_shape() {
        let res = cold_min_sweep(&[0.1, 0.3, 0.5], quick_cfg(10));
        assert_eq!(res.len(), 3);
        // Latency is non-decreasing in load (allowing small noise).
        assert!(res[0].avg_latency <= res[2].avg_latency + 2.0);
    }

    #[test]
    fn fatpaths_runs_end_to_end_and_spreads_load() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let fp = FatPathsRouter::build(&net.graph, &tables, 3, sf_routing::router::FATPATHS_SEED)
            .unwrap();
        let r = Simulator::new(&net, &tables, &fp, &pat, 0.2, quick_cfg(11)).run();
        assert!(!r.saturated, "FatPaths at 20% uniform must drain");
        assert!(r.ejected > 0);
        // Degraded layers detour: average hops above pure MIN but
        // bounded by the layer budget.
        let rmin = Simulator::new(&net, &tables, &MinRouter, &pat, 0.2, quick_cfg(11)).run();
        assert!(r.avg_hops >= rmin.avg_hops);
        assert!(r.avg_hops <= sf_routing::MAX_PATH_HOPS as f64);
    }

    #[test]
    fn spec_built_router_matches_direct_construction() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let spec: RoutingSpec = "ugal-l:c=4".parse().unwrap();
        let built = spec.build(&net.graph, &tables).unwrap();
        let direct = UgalRouter::new(4, false).unwrap();
        let a = Simulator::new(&net, &tables, built.as_ref(), &pat, 0.3, quick_cfg(12)).run();
        let b = Simulator::new(&net, &tables, &direct, &pat, 0.3, quick_cfg(12)).run();
        assert_eq!(a.ejected, b.ejected);
        assert_eq!(a.avg_latency, b.avg_latency);
    }

    #[test]
    fn link_index_matches_graph_adjacency() {
        let (net, _) = small_sf();
        let links = LinkIndex::new(&net);
        for r in 0..net.num_routers() as u32 {
            for (j, &v) in net.graph.neighbors(r).iter().enumerate() {
                let l = links.link(r, v) as usize;
                assert_eq!(l, links.link_base[r as usize] as usize + j);
                assert_eq!(links.to[l], v);
                // The reverse link points back at r from v's row.
                let rl = links.rev[l] as usize;
                assert_eq!(links.to[rl], r);
                assert_eq!(links.rev[rl] as usize, l);
                // to_port is v's input-port (= neighbor) index for r.
                assert_eq!(net.graph.neighbors(v)[links.to_port[l] as usize], r);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn link_index_panics_on_non_neighbor() {
        let (net, _) = small_sf();
        let links = LinkIndex::new(&net);
        let r = 0u32;
        let non = (0..net.num_routers() as u32)
            .find(|&v| v != r && !net.graph.has_edge(r, v))
            .unwrap();
        links.link(r, non);
    }

    #[test]
    fn occupancy_counters_hold_during_a_run() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let router = UgalRouter::new(4, true).unwrap();
        let mut sim = Simulator::new(&net, &tables, &router, &pat, 0.3, quick_cfg(13));
        for _ in 0..200 {
            sim.step();
        }
        sim.verify_occupancy_counters().unwrap();
    }

    #[test]
    fn warm_chain_first_load_matches_cold_run() {
        // The first load of a warm chain starts cold, so it must be
        // bit-identical to the plain per-load path; later loads reuse
        // warmed queues and must still produce sane, drained results.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let loads = [0.1, 0.2, 0.3];
        let cfg = quick_cfg(7);
        let cold = cold_min_sweep(&loads, cfg);
        let warm = LoadSweep::run_warm(&net, &tables, &MinRouter, &pat, &loads, cfg);
        assert_eq!(warm.len(), 3);
        assert_eq!(cold[0].avg_latency, warm[0].avg_latency);
        assert_eq!(cold[0].ejected, warm[0].ejected);
        assert_eq!(cold[0].cycles, warm[0].cycles);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.offered_load, w.offered_load);
            assert!(!w.saturated, "warm chain must drain at low loads");
            assert!(w.ejected > 0);
            // Warm steady-state latency stays in the same regime as the
            // cold measurement (loose envelope: it skips the cold ramp,
            // not the physics).
            assert!(
                (w.avg_latency - c.avg_latency).abs() < 0.2 * c.avg_latency,
                "load {}: warm {} vs cold {}",
                c.offered_load,
                w.avg_latency,
                c.avg_latency
            );
        }
    }

    #[test]
    fn rearm_resets_measurement_but_keeps_queues() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut sim = Simulator::new(&net, &tables, &MinRouter, &pat, 0.4, quick_cfg(8));
        let first = sim.run_phase();
        assert!(first.ejected > 0);
        let cycles_so_far = sim.now();
        sim.rearm(0.1, 42);
        assert_eq!(sim.now(), cycles_so_far, "rearm must not advance time");
        sim.verify_occupancy_counters().unwrap();
        let second = sim.run_phase();
        assert_eq!(second.offered_load, 0.1);
        assert!(second.ejected > 0);
        assert!(!second.saturated);
    }

    fn ring_net(n: u32, conc: u32) -> Network {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Network::new(
            sf_graph::Graph::from_edges(n as usize, &edges),
            vec![conc; n as usize],
            format!("ring{n}"),
            sf_topo::TopologyKind::Other,
        )
    }

    #[test]
    fn empty_fault_is_a_no_op_and_bit_identical() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let a = Simulator::new(&net, &tables, &MinRouter, &pat, 0.3, quick_cfg(41)).run();
        let mut sim = Simulator::new(&net, &tables, &MinRouter, &pat, 0.3, quick_cfg(41));
        sim.apply_fault(&[], &net.graph, &tables, &MinRouter);
        let b = sim.run_phase();
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.ejected, b.ejected);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(b.dropped_flits, 0);
        assert_eq!(b.unreachable_pairs, 0);
    }

    #[test]
    fn mid_run_link_kill_drops_stale_routes_and_quiesces() {
        // Kill 2% of SF(q=5)'s cables between two measurement phases:
        // packets in flight with stale source routes across the dead
        // links are administratively dropped, new traffic re-routes on
        // the degraded graph, the phase drains, and after quieting the
        // sources the state provably returns to reset.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(42);
        cfg.packet_size = 4;
        let mut sim = Simulator::new(&net, &tables, &MinRouter, &pat, 0.4, cfg);
        let first = sim.run_phase();
        assert!(!first.saturated);
        assert_eq!(first.dropped_flits, 0);
        let kill =
            sf_graph::fault::kill_set(&net.graph, 0.02, 0.0, 7, sf_graph::fault::FaultMode::Random);
        assert!(!kill.links.is_empty());
        let dg = net.graph.without_edges(&kill.links);
        assert!(sf_graph::metrics::is_connected(&dg), "pick another seed");
        let dt = RoutingTables::new(&dg);
        sim.apply_fault(&kill.links, &dg, &dt, &MinRouter);
        sim.rearm(0.4, 43);
        let second = sim.run_phase();
        assert!(!second.saturated, "drops must count toward the drain");
        assert!(second.ejected > 0, "the degraded network still delivers");
        assert!(
            second.dropped_flits > 0,
            "in-flight stale routes must hit the dead links"
        );
        assert_eq!(
            second.unreachable_pairs, 0,
            "this kill keeps the network connected"
        );
        sim.verify_credit_round_trip().unwrap();
        // Quiet the sources: no flit may be stranded on a dead cable.
        sim.rearm(0.0, 44);
        for _ in 0..5_000 {
            sim.step();
            if sim.verify_quiescent().is_ok() {
                break;
            }
        }
        sim.verify_quiescent().unwrap();
    }

    #[test]
    fn mid_run_partition_drops_unreachable_traffic_and_quiesces() {
        // Cutting a ring in two mid-run: cross-cut traffic becomes
        // unreachable and is dropped (at generation, injection, or en
        // route), intra-half traffic keeps flowing, and the run still
        // drains — a partition must read as drops, not saturation.
        let net = ring_net(8, 2);
        let tables = RoutingTables::new(&net.graph);
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(45);
        cfg.num_vcs = 5; // diameter-4 ring paths
        let mut sim = Simulator::new(&net, &tables, &MinRouter, &pat, 0.2, cfg);
        let first = sim.run_phase();
        assert!(!first.saturated);
        let dead = [(0u32, 1u32), (4u32, 5u32)];
        let dg = net.graph.without_edges(&dead);
        let dt = RoutingTables::new(&dg);
        sim.apply_fault(&dead, &dg, &dt, &MinRouter);
        sim.rearm(0.2, 46);
        let second = sim.run_phase();
        assert!(!second.saturated, "a partition must not read as saturation");
        assert!(second.unreachable_pairs > 0, "cross-cut pairs must drop");
        assert!(second.dropped_flits >= second.unreachable_pairs);
        assert!(second.ejected > 0, "intra-half traffic keeps flowing");
        sim.rearm(0.0, 47);
        for _ in 0..5_000 {
            sim.step();
            if sim.verify_quiescent().is_ok() {
                break;
            }
        }
        sim.verify_quiescent().unwrap();
    }

    #[test]
    fn boot_degraded_network_runs_fault_free() {
        // A boot-time degraded Network (dead router: no cables, no
        // endpoints) is just a smaller network to the engine — no
        // drops, no unreachable pairs, normal drain.
        let (net, _) = small_sf();
        let kill = sf_graph::fault::kill_set(
            &net.graph,
            0.01,
            0.03,
            7,
            sf_graph::fault::FaultMode::Random,
        );
        assert!(!kill.routers.is_empty());
        let dnet = net.degrade(&kill, " [test]").unwrap();
        assert!(dnet.degraded);
        assert!(dnet.num_endpoints() < net.num_endpoints());
        let dt = RoutingTables::new(&dnet.graph);
        let pat = TrafficPattern::uniform(dnet.num_endpoints() as u32);
        let r = Simulator::new(&dnet, &dt, &MinRouter, &pat, 0.2, quick_cfg(48)).run();
        assert!(!r.saturated);
        assert!(r.ejected > 0);
        assert_eq!(r.dropped_flits, 0);
        assert_eq!(r.unreachable_pairs, 0);
    }

    /// The determinism-contract acceptance test: results are a pure
    /// function of (plan, seed) — `threads` schedules shards onto
    /// workers and must never be observable in the output. Exact
    /// comparison via the Debug rendering (distinct f64 bit patterns
    /// render distinctly), across packet sizes and an RNG-heavy
    /// adaptive routing.
    #[test]
    fn thread_count_is_not_observable() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let ugal = UgalRouter::new(4, false).unwrap();
        for packet_size in [1, 4] {
            for (label, router) in [
                ("MIN", &MinRouter as &dyn Router),
                ("UGAL-L", &ugal as &dyn Router),
            ] {
                let cfg = SimConfig {
                    packet_size,
                    ..quick_cfg(77)
                };
                let base = format!(
                    "{:?}",
                    Simulator::new(&net, &tables, router, &pat, 0.3, cfg).run()
                );
                for threads in [2, 3, 5, ENGINE_SHARDS] {
                    let cfg = SimConfig {
                        threads,
                        packet_size,
                        ..quick_cfg(77)
                    };
                    let got = format!(
                        "{:?}",
                        Simulator::new(&net, &tables, router, &pat, 0.3, cfg).run()
                    );
                    assert_eq!(
                        got, base,
                        "{label} pkt{packet_size}: threads={threads} diverged from threads=1"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_segment_handles_word_boundaries() {
        let mask: Vec<AtomicU64> = [0b1010u64, !0u64, 1u64]
            .into_iter()
            .map(AtomicU64::new)
            .collect();
        let mut out = Vec::new();
        gather_segment(&mask, 0, 192, &mut out);
        let expect: Vec<u32> = [1u32, 3].into_iter().chain(64..128).chain([128]).collect();
        assert_eq!(out, expect);
        out.clear();
        gather_segment(&mask, 3, 65, &mut out);
        assert_eq!(out, vec![3, 64]);
        out.clear();
        gather_segment(&mask, 4, 4, &mut out);
        assert!(out.is_empty());
        out.clear();
        gather_segment(&mask, 120, 130, &mut out);
        assert_eq!(out, vec![120, 121, 122, 123, 124, 125, 126, 127, 128]);
    }
}
