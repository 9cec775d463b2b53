//! The per-node runtime: an event-driven dispatch core.
//!
//! One `NodeCtx` is the reproduction of the paper's "single (heavy) process
//! running at each node" (§2): it owns the node's slot bitmap, its thread
//! scheduler, its private heap and its network endpoint.  Exactly one OS
//! thread drives it *at a time*: the node is a state machine multiplexed
//! onto the [`crate::executor`] worker pool (a rung doorbell queues the
//! node; a worker locks it, steps it up to a step budget, and parks it
//! again) — a pool with a fairness budget in threaded mode, one worker
//! stepping one node per dispatch in deterministic mode.  Either way
//! Marcel threads and the message pump interleave but never run
//! concurrently, which is exactly the concurrency model of a user-level
//! thread runtime.
//!
//! ## The event-driven core
//!
//! The node is **event-driven, not polled**.  Three pieces cooperate:
//!
//! * **Doorbell** — every [`madeleine::Endpoint::send`] rings the
//!   destination's [`madeleine::Doorbell`]; an idle driver *parks* (the
//!   executor marks the node `Idle` and the worker moves on) instead of
//!   spin- or sleep-polling, so a quiescent machine burns ~zero CPU and a
//!   message wakes its handler at futex-wake-up latency.  The
//!   [`NodeStats::driver_parks`]/[`NodeStats::driver_wakeups`] counters
//!   make the parking observable.
//! * **Class-prioritized pump** — [`NodeCtx::pump`] ingests deliverable
//!   messages into three priority lanes (see [`crate::handlers::Class`]:
//!   control > migration > data) and drains them in class order under a
//!   per-pump budget (`pump_budget` knob), so a flood of data messages can
//!   never delay SHUTDOWN or negotiation traffic.  Within a class, per-pair
//!   FIFO order is preserved.
//! * **Handler dispatch table** — the per-tag protocol logic lives in the
//!   [`crate::handlers`] module tree (`spawn`/`rpc`, `migration`,
//!   `negotiation`, `control`), entered through
//!   [`crate::handlers::dispatch`]; `node.rs` itself is only the dispatch
//!   core: scheduler interleaving, thread lifecycle, and the lanes.
//!
//! ## Gossip-scale protocols
//!
//! Per-node protocol cost must stay (amortized) O(1) in the node count or
//! p = 256 machines drown in their own bookkeeping, so everything that was
//! all-pairs is now epidemic or sampled:
//!
//! * **Liveness** is piggybacked: any arriving message refreshes the
//!   sender's `last_heard` stamp, and a strictly-newer gossiped sequence
//!   number counts as (indirect) evidence too — a peer cannot produce a
//!   fresh round number after dying.  HEARTBEATs are no longer beaconed to
//!   all p peers; they are *suspicion probes* sent only to a peer that has
//!   been silent past half the failure timeout (a ping byte requesting a
//!   pong), and death is still declared purely by silence timeout.
//! * **Wealth/load dissemination** is an epidemic digest
//!   ([`crate::proto::encode_gossip`]): once per `heartbeat_every` each
//!   node pushes its own free-slot and resident-thread counts, plus a few
//!   relayed table entries, to `GOSSIP_FANOUT` random live peers — O(1)
//!   messages per node per round, O(log p) rounds to saturate the machine.
//! * **The silence scan** walks a cursor over the peer table, a chunk per
//!   driver step (sized so one lap completes per `heartbeat_every` even on
//!   a sparsely-ticked idle node) instead of scanning all p every tick.
//! * **Sampling**: `richest_peer` and the balancer probe a random sample
//!   above `FULL_PROBE_MAX` nodes (power-of-two-choices style) instead of
//!   scanning/probing everyone.
//!
//! The remaining O(p) structures are deliberate: the `peer_wealth` /
//! `peer_seq` / `last_heard` tables are one word-ish per peer (a few KB at
//! p = 256, refreshed — never scanned — on the hot path), broadcast
//! fan-out is O(p) but only on rare machine-wide events (NODE_DEAD,
//! SHUTDOWN), and the §4.4 all-peer bitmap gather survives as the
//! documented *fallback* path when trading cannot satisfy a request.
//!
//! The migration *departure* side also lives here (`NodeCtx::depart`): a
//! migration outcome sweeps every other ready thread already flagged for
//! preemptive migration out of the scheduler (`Scheduler::take_migrating`)
//! and ships same-destination threads as one train per destination — one
//! wire message for k threads (capped by the `max_train` knob).
//!
//! While a Marcel thread runs, it reaches its node through an OS-thread-
//! local pointer (see [`with_ctx`]); the same aliasing discipline as in
//! `marcel::sched` applies — short raw-pointer accesses, nothing cached
//! across yields.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isoaddr::{IsoArea, NodeSlotManager, SlotRange};
use madeleine::{BufPool, Endpoint, Message};
use marcel::{DescPtr, RunOutcome, Scheduler, ThreadState};

use crate::config::{MigrationScheme, Pm2Config};
use crate::handlers::{self, N_CLASSES};
use crate::migration;
use crate::nodeheap::NodeHeap;
use crate::output::OutputSink;
use crate::proto::{self, tag};
use crate::registry::{Registry, ServiceTable, SpawnTable, ThreadExit};
use crate::service::{panic_text, TypedServiceTable};
use crate::spill::SpillLog;

thread_local! {
    static CURRENT_NODE: Cell<*mut NodeCtx> = const { Cell::new(std::ptr::null_mut()) };
}

/// Largest machine the exact all-peer paths still run on: up to this many
/// nodes `richest_peer` scans the whole table and the balancer probes
/// every peer (preserving the small-machine ablation numbers); above it
/// both sample, and gossip dissemination turns on even without a detector.
/// This is the "0 = auto" threshold behind [`crate::loadbal::BalancerConfig`]'s
/// `sample` field (re-exported there as `loadbal::FULL_PROBE_MAX`).
pub const FULL_PROBE_MAX: usize = 16;
/// Peers a gossip round pushes the digest to.
const GOSSIP_FANOUT: usize = 2;
/// Minimum relayed table entries riding along with the self-entry in a
/// digest; the actual budget grows with the machine ([`relay_budget`]) so
/// indirect liveness evidence keeps the whole table fresher than the
/// suspicion-probe threshold even at p = 256.
const GOSSIP_RELAY: usize = 6;
/// Cap on the relay budget: a digest never exceeds `1 + 32` entries
/// (~500 B), whatever the machine size.
const GOSSIP_RELAY_MAX: usize = 32;
/// Minimum silence-scan advance per driver step ("a few peers per step").
const SCAN_CHUNK: usize = 4;
/// Candidates drawn by the sampled `richest_peer` on large machines.
const RICH_SAMPLE: usize = 16;

counters::counters! {
    /// Live runtime counters for one node (shared with the host).  Every
    /// counter only grows; a window is two [`NodeStats::snapshot`]s and
    /// [`NodeStatsSnapshot::since`].
    pub struct NodeStats;
    /// Plain snapshot of [`NodeStats`].
    pub struct NodeStatsSnapshot {
        /// Threads shipped away.
        migrations_out,
        /// Threads received.
        migrations_in,
        /// Arriving migration record groups rejected as corrupt (NAKed).
        migrations_failed,
        /// Migration trains (wire messages) sent; `migrations_out /
        /// trains_out` is the mean threads-per-message of outgoing traffic.
        trains_out,
        /// Migration trains received (counted when ≥ 1 thread adopted).
        trains_in,
        /// Total bytes of outgoing migration buffers.
        migration_bytes_out,
        /// Per-stage migration cost, summed over this node's
        /// participations: nanoseconds the source spent packing outgoing
        /// migrations (freeze & gather), including the erase of the
        /// surrendered slots…
        migration_pack_ns,
        /// …modelled wire nanoseconds the destination was charged…
        migration_wire_ns,
        /// …and nanoseconds it spent unpacking (adopt & copy).
        migration_unpack_ns,
        /// Global negotiations initiated by this node (the §4.4 fallback;
        /// on the trade-first hot path this stays 0).
        negotiations,
        /// Total nanoseconds spent in initiated global negotiations.
        negotiation_ns,
        /// Demand slot trades initiated by this node (a green thread
        /// needed slots *now* and asked the richest known peer).
        trades,
        /// Total nanoseconds green threads spent in demand trades.
        trade_ns,
        /// Slots adopted from peers via trades (demand + prefetch).
        trade_slots_in,
        /// Demand trades that could not satisfy the request (refused,
        /// insufficient, or non-contiguous) and fell back to the global
        /// §4.4 protocol.
        trade_fallbacks,
        /// Trade requests this node granted as the lender.
        trade_grants,
        /// Trade requests this node refused (frozen, or at its watermark).
        trade_refusals,
        /// Asynchronous watermark prefetches sent (reserve below low water).
        prefetches,
        /// Prefetches that came back with at least one slot.
        prefetch_fills,
        /// Piggybacked wealth hints absorbed (trade/load/ack traffic).
        wealth_updates,
        /// Threads spawned here.
        spawns,
        /// Checkpoints written to the spill log.
        checkpoints,
        /// Thread images written across all checkpoints (supersessions
        /// included — the log replayer keeps only the newest epoch per tid).
        checkpoint_threads,
        /// Scheduling steps the driver executed for this node.
        steps,
        /// Times the driver parked on the doorbell with nothing to do.
        driver_parks,
        /// Times the driver came back from a park (ring or park-timeout).
        /// `driver_parks − driver_wakeups ∈ {0, 1}` at any instant; a
        /// quiescent machine accumulates (almost) none of either beyond the
        /// initial park.
        driver_wakeups,
        /// Messages dropped by the per-(source, class) dedup window — chaos
        /// duplicates (same fabric seq) caught before they reached a handler.
        dup_dropped,
        /// Control-plane retries issued by this node (trade and probe
        /// re-sends after a lost request or reply).
        ctrl_retries,
        /// RPC-shaped messages (calls, spawn requests, replies) this node's
        /// threads exchanged with co-located peers — self-sends that never
        /// touch the modelled wire.
        rpc_local,
        /// RPC-shaped messages exchanged with remote nodes — each one pays
        /// the full modelled hop.  `rpc_remote / (rpc_local + rpc_remote)`
        /// is the remote-message ratio the affinity balancer minimizes.
        rpc_remote,
        /// Affinity decay sweeps applied (one per LOAD_REQ-carried balancer
        /// epoch observed by this node).
        aff_decays,
    }
}

impl NodeStatsSnapshot {
    /// Mean threads carried per outgoing migration message (1.0 before any
    /// migration): > 1 proves trains actually formed.
    pub fn threads_per_message(&self) -> f64 {
        if self.trains_out == 0 {
            return 1.0;
        }
        self.migrations_out as f64 / self.trains_out as f64
    }

    /// Fraction of RPC-shaped traffic that paid the wire (0.0 when the
    /// node exchanged no RPC messages at all).
    pub fn remote_ratio(&self) -> f64 {
        let total = self.rpc_local + self.rpc_remote;
        if total == 0 {
            return 0.0;
        }
        self.rpc_remote as f64 / total as f64
    }
}

/// Per-thread data recorded between a body finishing and the scheduler
/// reaping it: the panic message and/or the encoded return value.
#[derive(Debug, Default)]
pub(crate) struct ExitNote {
    pub value: Option<Vec<u8>>,
    pub panic_msg: Option<String>,
}

/// The per-node runtime state.
pub(crate) struct NodeCtx {
    pub node: usize,
    pub n_nodes: usize,
    /// Fabric id of the host control endpoint.
    pub host_id: usize,
    pub sched: Scheduler,
    pub mgr: NodeSlotManager,
    pub ep: Endpoint,
    /// This endpoint's payload-buffer pool (cheap-clone handle; protocol
    /// encoders check their buffers out of it).
    pub pool: BufPool,
    pub out: Arc<OutputSink>,
    pub registry: Arc<Registry>,
    pub spawn_table: Arc<SpawnTable>,
    pub services: Arc<ServiceTable>,
    pub typed_services: Arc<TypedServiceTable>,
    pub nodeheap: NodeHeap,
    pub stats: Arc<NodeStats>,
    /// Threads resident on this node, by tid.
    pub threads: HashMap<u64, DescPtr>,
    /// Panic messages / return values of threads mid-exit (see [`ExitNote`]).
    pub exit_notes: HashMap<u64, ExitNote>,
    /// Ingested-but-unhandled messages, one FIFO lane per priority class
    /// ([`handlers::Class`]); the pump drains control before migration
    /// before data.
    pub inbox: [VecDeque<Message>; N_CLASSES],
    /// Replies parked for green threads blocked in a protocol exchange.
    pub replies: VecDeque<Message>,
    /// Spawn-bearing messages (SPAWN_KEY / RPC_SPAWN / RPC_CALL) received
    /// while the bitmap was frozen; replayed after NEG_DONE.  Never
    /// re-sent to self — a self-send is immediately deliverable, so the
    /// pump's drain loop would chase its own re-injection forever.
    pub deferred: VecDeque<Message>,
    /// Bitmap frozen by an in-flight global negotiation (paper §4.4 (a)).
    pub frozen: bool,
    /// The peer whose `NEG_BITMAP_REQ` froze us (None when the freeze is
    /// our own negotiation).  If that initiator dies it can never send
    /// `NEG_DONE`, so its death unfreezes us.
    pub frozen_by: Option<usize>,
    /// A local thread currently runs the remote-acquire protocol (trade
    /// or global negotiation).
    pub negotiating: bool,
    /// Green threads waiting their turn at the remote-acquire protocol,
    /// parked via `marcel::block_current` (no spinning); the finishing
    /// holder unblocks the head.
    pub neg_waiters: VecDeque<DescPtr>,
    /// Last-known free-slot counts per node, refreshed by every
    /// piggybacked wealth hint (shared with the host for observability).
    pub peer_wealth: Arc<Vec<AtomicU64>>,
    /// When each peer's gossiped load/wealth entry was last refreshed
    /// (None = never heard).  A balancer probe younger than one heartbeat
    /// interval reuses this instead of a LOAD_REQ round trip.
    pub hint_at: Vec<Option<Instant>>,
    /// Trade ids whose responses the pump consumes directly instead of
    /// parking for a green thread: the in-flight watermark prefetch plus
    /// any timed-out demand trades (their late grants must still be
    /// adopted or the lender's cleared slots would be stranded).
    pub prefetch_pending: HashSet<u64>,
    /// Trade id of the one in-flight watermark prefetch, if any; only its
    /// own reply re-arms the prefetcher (a late demand-trade reply must
    /// not).
    pub prefetch_inflight: Option<u64>,
    /// Peer the in-flight prefetch was sent to; its death re-arms the
    /// prefetcher immediately instead of waiting out the lost reply.
    pub prefetch_target: Option<usize>,
    /// Trade grants that arrived while the bitmap was frozen; adopted
    /// after NEG_DONE.
    pub pending_adopts: Vec<SlotRange>,
    /// Lock service state (meaningful on the current coordinator — the
    /// lowest-id live node; see [`NodeCtx::coordinator`]).
    pub lock_holder: Option<usize>,
    pub lock_queue: VecDeque<usize>,
    /// Grant embargo after *inheriting* the coordinator role.  The dead
    /// predecessor may have granted a holder whose NEG_BITMAP_REQ has not
    /// frozen us yet; granting a second holder inside that window would
    /// run two critical sections at once.  Until the instant passes (or
    /// the in-flight holder's gather freezes us, which also defers
    /// grants), the queue waits.
    pub coord_settle_until: Option<Instant>,
    /// Per-(source, class) receive dedup windows, indexed
    /// `src * N_CLASSES + class`.  Chaos duplicates reuse the original's
    /// fabric sequence number, so a replay lands on an already-set bit
    /// and is dropped before any handler runs.
    pub dedup: Vec<crate::handlers::DedupWindow>,
    /// Reclaim ids already adopted (id → slots granted), so a retried
    /// NODE_RECLAIM re-acks the recorded count instead of re-adopting.
    pub done_reclaims: HashMap<u64, u32>,
    /// Threads that exited while the bitmap was frozen; released later.
    pub zombies: Vec<DescPtr>,
    pub shutdown: bool,
    shutdown_acked: bool,
    /// This node was killed (power-cord semantics): the driver stops
    /// stepping it, the fabric refuses its traffic, and nothing it owned
    /// is released locally — recovery happens on the survivors.
    pub killed: bool,
    /// Peers known to be dead.  Their late (zombie) messages are dropped
    /// at dispatch, the trader and prefetcher skip them, and waits
    /// targeting them fail with `NodeFailed` instead of timing out.
    pub dead_nodes: HashSet<usize>,
    /// Monotonic source of node-unique typed-LRPC call ids.
    call_counter: u64,
    /// Typed-LRPC calls issued from this node whose green caller is still
    /// waiting, mapped to the callee node.  A response whose call id is
    /// absent (the caller already timed out) is dropped instead of parked,
    /// so late replies cannot accumulate in `replies` forever; the callee
    /// id lets a death synthesize `NODE_FAILED` replies for every call
    /// aimed at the corpse.
    pub pending_calls: HashMap<u64, usize>,
    /// Spill log this node checkpoints into (None disables checkpointing).
    pub spill: Option<SpillLog>,
    /// Epoch stamped on the next checkpoint record; replay keeps the
    /// newest epoch per tid, so a checkpoint is superseded, never mutated.
    ckpt_epoch: u64,
    /// Periodic checkpoint cadence (None = only explicit `CKPT_REQ`s).
    pub checkpoint_every: Option<Duration>,
    last_checkpoint: Instant,
    /// Epidemic round cadence: gossip digests and (for the detector) the
    /// suspicion-probe rate limit.  Historically the beacon cadence.
    pub heartbeat_every: Duration,
    /// Declare a peer dead after this much silence (None disables the
    /// detector; explicit kills still propagate via `NODE_DEAD`).
    pub failure_timeout: Option<Duration>,
    /// Last time this node pushed a gossip digest.
    last_gossip: Instant,
    /// Last time any message arrived from each peer (direct evidence), or
    /// a strictly-newer gossip entry about it was merged (indirect).
    last_heard: Vec<Instant>,
    /// This node's own gossip round counter (monotonic; stamped on the
    /// self-entry of every digest it originates).
    gossip_seq: u32,
    /// Newest gossip sequence number seen per origin; the merge rule is
    /// strictly-newer-wins, so relays of a corpse's stale rounds can never
    /// refresh its entry.
    peer_seq: Vec<u32>,
    /// Last gossiped resident-thread count per peer (load hint for the
    /// balancer's power-of-two-choices sampling).
    pub peer_load: Vec<u32>,
    /// Silence-scan cursor: the next peer the incremental detector looks
    /// at.  Advanced a chunk per driver step instead of all p per tick.
    scan_cursor: usize,
    last_scan: Instant,
    /// Per-peer suspicion-probe rate limit.
    last_probe: Vec<Instant>,
    /// Protocol sampling RNG (node-seeded, deterministic per node).
    pub(crate) rng: crate::rng::SplitMix64,
    // Config knobs.
    pub fit: isomalloc::FitPolicy,
    pub trim: bool,
    pub pack_full_slots: bool,
    pub scheme: MigrationScheme,
    pub reply_deadline: Duration,
    pub max_rpc_payload: usize,
    /// Most messages one `pump()` call handles before yielding back to the
    /// scheduler (the `pump_budget` knob).
    pub pump_budget: usize,
    /// Upper bound on threads per migration train (the `max_train` knob;
    /// 1 disables departure coalescing entirely).
    pub max_train: usize,
    /// Trade-first remote slot acquisition enabled (the `slot_trade`
    /// knob; false forces every shortfall through the §4.4 protocol).
    pub slot_trade: bool,
    /// Reserve low watermark: dropping below it triggers an asynchronous
    /// prefetch trade, and a lender never grants below it.
    pub low_watermark: usize,
    /// Reserve high watermark: the prefetch target level.
    pub high_watermark: usize,
    /// Most slots asked for in one demand trade beyond the request itself
    /// (the batch that amortizes one round trip over many acquisitions).
    pub trade_batch: usize,
    /// Total attempts for at-least-once control exchanges (the
    /// `control_retries` knob, floored at 1).
    pub control_retries: u32,
    /// Compact the spill log once it holds more than this many records
    /// (the `spill_compact_after` knob; 0 disables compaction).
    pub spill_compact_after: usize,
    /// Fault-injection hook: tids whose packed record group is truncated
    /// on departure (tests only; see `Pm2Config::fault_corrupt_pack`).
    pub fault_corrupt_pack: HashSet<u64>,
}

// SAFETY: a NodeCtx is owned and driven by exactly one OS thread at a time.
unsafe impl Send for NodeCtx {}

/// Wrap a thread body so a panic records its message in the hosting node's
/// exit notes before re-raising (marcel's entry shim then marks the
/// descriptor panicked).  The note is written on whatever node the thread
/// dies on — the same node whose `finish_thread` consumes it.
pub(crate) fn instrument_body(
    tid: u64,
    f: Box<dyn FnOnce() + Send + 'static>,
) -> impl FnOnce() + Send + 'static {
    move || {
        if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
            let msg = panic_text(p.as_ref());
            with_ctx(|c| c.exit_notes.entry(tid).or_default().panic_msg = Some(msg));
            resume_unwind(p);
        }
    }
}

/// Access the node hosting the calling Marcel thread.  Never hold the
/// reference across a yield: re-enter `with_ctx` after every scheduling
/// point (the thread may have migrated to another node meanwhile).
#[inline(never)]
pub(crate) fn with_ctx<R>(f: impl FnOnce(&mut NodeCtx) -> R) -> R {
    let p = CURRENT_NODE.with(|c| c.get());
    assert!(!p.is_null(), "pm2 API called outside a PM2 machine");
    // SAFETY: one OS thread drives a node at a time; the pump never runs
    // while a Marcel thread runs, so this exclusive access cannot overlap
    // another.
    unsafe { f(&mut *p) }
}

impl NodeCtx {
    #[allow(clippy::too_many_arguments)] // one shared table per argument; a struct would just rename them
    pub(crate) fn new(
        cfg: &Pm2Config,
        node: usize,
        area: Arc<IsoArea>,
        ep: Endpoint,
        out: Arc<OutputSink>,
        registry: Arc<Registry>,
        spawn_table: Arc<SpawnTable>,
        services: Arc<ServiceTable>,
        typed_services: Arc<TypedServiceTable>,
    ) -> Self {
        let pool = ep.pool().clone();
        // Wealth prior: an even split — refined by the first piggybacked
        // hint from each peer.
        let prior = (area.n_slots() / cfg.nodes.max(1)) as u64;
        let peer_wealth: Arc<Vec<AtomicU64>> =
            Arc::new((0..cfg.nodes).map(|_| AtomicU64::new(prior)).collect());
        let spill = cfg.spill_dir.as_ref().and_then(|dir| {
            let path = dir.join(format!("node{node}.log"));
            match SpillLog::open(&path) {
                Ok(log) => Some(log),
                Err(e) => {
                    out.printf(node, &format!("spill log disabled: {e}"));
                    None
                }
            }
        });
        let now = Instant::now();
        NodeCtx {
            node,
            n_nodes: cfg.nodes,
            host_id: cfg.nodes,
            sched: Scheduler::new(node),
            mgr: NodeSlotManager::new(node, cfg.nodes, area, cfg.distribution, cfg.slot_cache),
            ep,
            pool,
            out,
            registry,
            spawn_table,
            services,
            typed_services,
            nodeheap: NodeHeap::default(),
            stats: Arc::new(NodeStats::default()),
            threads: HashMap::new(),
            exit_notes: HashMap::new(),
            inbox: Default::default(),
            deferred: VecDeque::new(),
            replies: VecDeque::new(),
            frozen: false,
            frozen_by: None,
            negotiating: false,
            neg_waiters: VecDeque::new(),
            peer_wealth,
            hint_at: vec![None; cfg.nodes],
            prefetch_pending: HashSet::new(),
            prefetch_inflight: None,
            prefetch_target: None,
            pending_adopts: Vec::new(),
            lock_holder: None,
            lock_queue: VecDeque::new(),
            coord_settle_until: None,
            dedup: vec![
                crate::handlers::DedupWindow::default();
                (cfg.nodes + 1) * crate::handlers::N_CLASSES
            ],
            done_reclaims: HashMap::new(),
            zombies: Vec::new(),
            shutdown: false,
            shutdown_acked: false,
            killed: false,
            dead_nodes: HashSet::new(),
            call_counter: 0,
            pending_calls: HashMap::new(),
            spill,
            ckpt_epoch: 0,
            checkpoint_every: cfg.checkpoint_every,
            last_checkpoint: now,
            heartbeat_every: cfg.heartbeat_every,
            failure_timeout: cfg.failure_timeout,
            last_gossip: now,
            last_heard: vec![now; cfg.nodes],
            gossip_seq: 0,
            peer_seq: vec![0; cfg.nodes],
            peer_load: vec![0; cfg.nodes],
            scan_cursor: (node + 1) % cfg.nodes.max(1),
            last_scan: now,
            last_probe: vec![now; cfg.nodes],
            rng: crate::rng::SplitMix64::new(0xC0FF_EE00 ^ (node as u64) << 17),
            fit: cfg.fit,
            trim: cfg.trim,
            pack_full_slots: cfg.pack_full_slots,
            scheme: cfg.scheme,
            reply_deadline: cfg.reply_deadline,
            max_rpc_payload: cfg.max_rpc_payload,
            pump_budget: cfg.pump_budget.max(1),
            max_train: cfg.max_train.max(1),
            slot_trade: cfg.slot_trade,
            low_watermark: cfg.slot_low_watermark,
            high_watermark: cfg.slot_high_watermark.max(cfg.slot_low_watermark),
            trade_batch: cfg.trade_batch.max(1),
            control_retries: cfg.control_retries.max(1),
            spill_compact_after: cfg.spill_compact_after,
            fault_corrupt_pack: cfg.fault_corrupt_pack.iter().copied().collect(),
        }
    }

    /// Record a piggybacked free-slot count for `node`.
    pub(crate) fn set_peer_wealth(&mut self, node: usize, wealth: u64) {
        if let Some(w) = self.peer_wealth.get(node) {
            w.store(wealth, Ordering::Relaxed);
            self.stats.wealth_updates.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Account one RPC-shaped message exchanged with `peer` in the
    /// local/remote stats counters.
    pub(crate) fn note_traffic(&mut self, peer: usize) {
        if peer == self.node {
            self.stats.rpc_local.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.rpc_remote.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decay every resident thread's affinity table by `shift` (one
    /// balancer epoch has passed).  `shift == 0` is a no-op.
    pub(crate) fn decay_thread_affinity(&mut self, shift: u32) {
        if shift == 0 {
            return;
        }
        for &d in self.threads.values() {
            // SAFETY: resident descriptors are owned by this node's driver;
            // the pump never runs concurrently with its green threads.
            unsafe { (*d).decay_affinity(shift) };
        }
        self.stats.aff_decays.fetch_add(1, Ordering::Relaxed);
    }

    /// A gossiped load hint for `peer` younger than one heartbeat
    /// interval, if we hold one — fresh enough for a balancer round to
    /// reuse instead of paying a LOAD_REQ round trip.
    pub(crate) fn fresh_load_hint(&self, peer: usize) -> Option<u32> {
        let at = (*self.hint_at.get(peer)?)?;
        if at.elapsed() <= self.heartbeat_every {
            Some(self.peer_load[peer])
        } else {
            None
        }
    }

    /// The peer with the largest known free-slot reserve strictly above
    /// `floor`, if any.  Hints are refreshed by every trade, load reply,
    /// migrate ack and gossip digest, so a drained peer stops being asked
    /// after one refusal.
    ///
    /// Up to [`FULL_PROBE_MAX`] nodes this is the exact O(p) scan the
    /// small-machine ablations were measured with; above it the table is
    /// *sampled* (`RICH_SAMPLE` random candidates, best-of-sample) so the
    /// per-acquisition cost stops growing with the machine.
    pub(crate) fn richest_peer(&self, floor: u64) -> Option<usize> {
        if self.n_nodes <= FULL_PROBE_MAX {
            return (0..self.n_nodes)
                .filter(|&p| p != self.node && !self.dead_nodes.contains(&p))
                .map(|p| (self.peer_wealth[p].load(Ordering::Relaxed), p))
                .filter(|&(w, _)| w > floor)
                .max()
                .map(|(_, p)| p);
        }
        let mut best: Option<(u64, usize)> = None;
        for _ in 0..RICH_SAMPLE {
            let p = self.rng.below(self.n_nodes);
            if p == self.node || self.dead_nodes.contains(&p) {
                continue;
            }
            let w = self.peer_wealth[p].load(Ordering::Relaxed);
            if w > floor && best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, p));
            }
        }
        best.map(|(_, p)| p)
    }

    /// Watermark prefetch: when the reserve drops below the low
    /// watermark, top it back up to the high watermark with one
    /// asynchronous trade to the richest known peer.  Runs on the driver
    /// (never a green thread), costs O(1) per step, and never blocks —
    /// the response is consumed by the pump whenever it arrives.
    fn maybe_prefetch(&mut self) {
        if !self.slot_trade
            || self.n_nodes < 2
            || self.low_watermark == 0
            || self.shutdown
            || self.frozen
            || self.prefetch_inflight.is_some()
        {
            return;
        }
        let free = self.mgr.free_slots();
        if free >= self.low_watermark {
            return;
        }
        // Only ask peers that can plausibly grant (they keep their own
        // low watermark back), so a uniformly poor cluster goes quiet
        // instead of ping-ponging refusals.
        let Some(peer) = self.richest_peer(self.low_watermark as u64) else {
            return;
        };
        let want = (self.high_watermark - free).max(1);
        let id = self.next_call_id();
        self.prefetch_pending.insert(id);
        self.prefetch_inflight = Some(id);
        self.prefetch_target = Some(peer);
        self.stats.prefetches.fetch_add(1, Ordering::Relaxed);
        let req = proto::encode_slot_trade_req(&self.pool, id, want as u32, 1, free as u32);
        let _ = self.ep.send(peer, tag::SLOT_TRADE_REQ, req);
    }

    // -- fault tolerance & epidemic dissemination ---------------------------

    /// Gossip round + incremental silence detector.  Replaces the old
    /// beacon tick that sent HEARTBEATs to all p peers and scanned all p
    /// silence stamps on every tick — O(p) per node per tick, O(p²) per
    /// machine, the cost that made p = 256 infeasible.  Now the per-step
    /// cost is O(fanout + chunk):
    ///
    /// * once per `heartbeat_every`, push an epidemic digest to a few
    ///   random peers ([`NodeCtx::gossip_round`]) — also enabled without a
    ///   detector on machines above [`FULL_PROBE_MAX`] nodes, where the
    ///   balancer and trader live off the gossiped hints;
    /// * when the detector is armed, advance the silence-scan cursor a
    ///   chunk of peers per step ([`NodeCtx::silence_scan`]), probing
    ///   suspects directly and declaring death purely by silence timeout,
    ///   exactly as before.
    fn fault_tick(&mut self) {
        if self.n_nodes < 2 || self.shutdown {
            // Shutdown drains nodes at different speeds; a node that
            // finished early is quiet, not dead.
            return;
        }
        let detector = self.failure_timeout.is_some();
        if !detector && self.n_nodes <= FULL_PROBE_MAX {
            return;
        }
        let now = Instant::now();
        let since = now.duration_since(self.last_gossip);
        if since >= self.heartbeat_every {
            // Keep rounds on the heartbeat grid: a tick landing a little
            // late must not push every later round back with it.
            self.last_gossip = if since < 2 * self.heartbeat_every {
                self.last_gossip + self.heartbeat_every
            } else {
                now
            };
            self.gossip_round();
        }
        if detector {
            self.silence_scan(now);
        }
    }

    /// Relayed entries per digest: [`GOSSIP_RELAY`] on small machines,
    /// growing as p/8 up to [`GOSSIP_RELAY_MAX`].  Scaling the *payload*
    /// (cheap bytes) instead of the *fanout* (messages) keeps per-node
    /// message rate O(1) while the per-entry refresh interval stays well
    /// under the suspicion-probe threshold — otherwise a p = 256 machine
    /// ages most of its table past `timeout / 2` between refreshes and
    /// the detector degenerates into an all-pairs probe storm.
    fn relay_budget(&self) -> usize {
        (self.n_nodes / 8).clamp(GOSSIP_RELAY, GOSSIP_RELAY_MAX)
    }

    /// One epidemic round: bump our sequence number and push a digest —
    /// our own wealth/load claim plus up to [`relay_budget`](Self::relay_budget)
    /// relayed table entries — to [`GOSSIP_FANOUT`] random live peers.
    /// O(1) messages per node per round regardless of p; a digest reaches
    /// the whole machine in O(log p) rounds with high probability.
    fn gossip_round(&mut self) {
        self.gossip_seq += 1;
        let relay = self.relay_budget();
        let mut entries = Vec::with_capacity(1 + relay);
        entries.push(proto::GossipEntry {
            node: self.node as u32,
            seq: self.gossip_seq,
            wealth: self.mgr.free_slots() as u32,
            load: self.sched.resident() as u32,
        });
        for _ in 0..(2 * relay) {
            if entries.len() > relay {
                break;
            }
            let p = self.rng.below(self.n_nodes);
            // Relay only what we actually learned (seq 0 = never heard);
            // duplicates across draws are harmless, the merge is idempotent.
            if p == self.node || self.dead_nodes.contains(&p) || self.peer_seq[p] == 0 {
                continue;
            }
            entries.push(proto::GossipEntry {
                node: p as u32,
                seq: self.peer_seq[p],
                wealth: self.peer_wealth[p].load(Ordering::Relaxed) as u32,
                load: self.peer_load[p],
            });
        }
        let buf = proto::encode_gossip(&self.pool, &entries);
        let mut sent = 0usize;
        // The payload is refcounted, so the fanout shares one buffer.  A
        // bounded number of draws, not a scan: on a machine of corpses the
        // loop gives up instead of hunting for a live peer.
        for _ in 0..(GOSSIP_FANOUT * 4) {
            if sent >= GOSSIP_FANOUT {
                break;
            }
            let p = self.rng.below(self.n_nodes);
            if p == self.node || self.dead_nodes.contains(&p) {
                continue;
            }
            let _ = self.ep.send(p, tag::GOSSIP, buf.clone());
            sent += 1;
        }
    }

    /// Merge one epidemic digest entry.  Strictly-newer sequence numbers
    /// win; entries about nodes already declared dead are ignored (no
    /// resurrection by stale relay).  A newer sequence number is indirect
    /// *liveness evidence* — the origin cannot have produced a fresh round
    /// after dying, and a corpse's counter stops advancing, so relays of
    /// its old rounds never refresh it.  Staleness of the indirect path is
    /// bounded by the O(log p) propagation time, far below any configured
    /// `failure_timeout` (timeouts are ≥ 6× the round cadence).
    pub(crate) fn absorb_gossip(&mut self, e: proto::GossipEntry) {
        let n = e.node as usize;
        if n == self.node || n >= self.n_nodes || self.dead_nodes.contains(&n) {
            return;
        }
        if e.seq > self.peer_seq[n] {
            self.peer_seq[n] = e.seq;
            self.peer_load[n] = e.load;
            self.hint_at[n] = Some(Instant::now());
            self.set_peer_wealth(n, e.wealth as u64);
            if self.failure_timeout.is_some() {
                self.last_heard[n] = Instant::now();
            }
        }
    }

    /// Incremental silence scan: advance a cursor over the peer table,
    /// checking a chunk per driver step instead of all p per tick.  The
    /// chunk is sized proportionally to the time since the last scan so a
    /// busy node pays only [`SCAN_CHUNK`] peers per step while a sparsely
    /// ticked idle node still completes a full lap about once per
    /// `heartbeat_every` — detection latency is unchanged from the
    /// all-pairs scan.  A peer silent past *half* the timeout gets a
    /// direct suspicion probe (HEARTBEAT ping byte, answered with a pong);
    /// death is declared purely on the silence timeout, never on a
    /// transport error.  At most [`SCAN_CHUNK`] probes go out per scan —
    /// with normal gossip coverage suspects are rare and the cap is
    /// invisible, but if the whole table somehow goes stale at once (a
    /// long host stall, a just-launched giant machine) it bounds the
    /// probe rate at O(1) per node per tick instead of O(p); the deferred
    /// suspects are reached on the next laps, well inside the timeout.
    fn silence_scan(&mut self, now: Instant) {
        let timeout = self.failure_timeout.expect("detector armed");
        let dt = now.duration_since(self.last_scan);
        self.last_scan = now;
        let per_lap = self.heartbeat_every.as_nanos().max(1);
        let k = ((self.n_nodes as u128 * dt.as_nanos()) / per_lap)
            .max(SCAN_CHUNK as u128)
            .min(self.n_nodes as u128) as usize;
        let mut probes = 0usize;
        for _ in 0..k {
            let p = self.scan_cursor;
            self.scan_cursor = (self.scan_cursor + 1) % self.n_nodes;
            if p == self.node || self.dead_nodes.contains(&p) {
                continue;
            }
            let age = now.duration_since(self.last_heard[p]);
            if age > timeout {
                self.declare_dead(p);
            } else if age >= timeout / 2
                && probes < SCAN_CHUNK
                && now.duration_since(self.last_probe[p]) >= self.heartbeat_every
            {
                self.last_probe[p] = now;
                probes += 1;
                let _ = self.ep.send(p, tag::HEARTBEAT, vec![1u8]);
            }
        }
    }

    /// Silence verdict (or first-hand observation): mark `dead` on the
    /// fabric, announce it to every survivor and the host, and purge it
    /// locally.  Idempotent — duplicate verdicts from concurrent
    /// detectors collapse in `note_node_dead`.
    pub(crate) fn declare_dead(&mut self, dead: usize) {
        if dead == self.node || dead >= self.n_nodes || self.dead_nodes.contains(&dead) {
            return;
        }
        self.ep.mark_dead(dead);
        let buf = proto::encode_node_dead(&self.pool, dead);
        let _ = self.ep.broadcast(tag::NODE_DEAD, buf);
        self.note_node_dead(dead);
    }

    /// Absorb the fact that `dead` is gone: refuse its future traffic,
    /// stop routing anything toward it, and fail every local wait aimed
    /// at it.  Safe to call any number of times.
    pub(crate) fn note_node_dead(&mut self, dead: usize) {
        if dead == self.node || dead >= self.n_nodes || !self.dead_nodes.insert(dead) {
            return;
        }
        self.ep.mark_dead(dead);
        // A corpse has no wealth: the trader and balancer stop asking.
        self.set_peer_wealth(dead, 0);
        // Re-arm the prefetcher if its in-flight trade died with the peer.
        if self.prefetch_target == Some(dead) {
            if let Some(id) = self.prefetch_inflight.take() {
                self.prefetch_pending.remove(&id);
            }
            self.prefetch_target = None;
        }
        // Synthesize NODE_FAILED replies for typed-LRPC calls aimed at the
        // corpse, so green callers resolve immediately instead of eating
        // their full reply deadline.
        let orphaned: Vec<u64> = self
            .pending_calls
            .iter()
            .filter(|&(_, &callee)| callee == dead)
            .map(|(&id, _)| id)
            .collect();
        for id in orphaned {
            let payload = proto::encode_rpc_resp(
                &self.pool,
                id,
                proto::rpc_status::NODE_FAILED,
                &(dead as u64).to_le_bytes(),
            );
            self.replies.push_back(Message {
                src: dead,
                dst: self.node,
                tag: tag::RPC_RESP,
                seq: 0,
                wire_ns: 0,
                payload,
            });
        }
        // Lock service: a corpse can neither hold nor want the
        // global-negotiation lock.
        self.lock_queue.retain(|&w| w != dead);
        if self.lock_holder == Some(dead) {
            self.lock_holder = None;
        }
        // Did this death hand us the coordinator role?  The predecessor
        // may have granted a holder whose gather has not frozen us yet;
        // embargo grants briefly so that holder's critical section can
        // assert itself before we would start a second one.
        if dead < self.node && self.is_coordinator() {
            let settle = Duration::from_millis(50).min(self.reply_deadline / 4);
            self.coord_settle_until = Some(Instant::now() + settle);
        }
        // If the dead node froze our bitmap as a negotiation initiator it
        // can never send NEG_DONE; unfreeze, or this node wedges forever.
        if self.frozen && self.frozen_by == Some(dead) {
            self.frozen = false;
            self.frozen_by = None;
        }
        self.service_lock_queue();
    }

    /// The §4.4 lock-service coordinator: the lowest-id node not known to
    /// be dead.  Resolved from the fabric's death certificates (monotonic
    /// and machine-wide consistent) merged with this node's own
    /// `dead_nodes` set, so every survivor converges on the same answer
    /// without a ballot — the rank is the node id, and the election *is*
    /// the death announcement.
    pub(crate) fn coordinator(&self) -> usize {
        (0..self.n_nodes)
            .find(|&n| !self.dead_nodes.contains(&n) && !self.ep.is_dead(n))
            .unwrap_or(0)
    }

    /// Whether this node currently serves the §4.4 lock.
    pub(crate) fn is_coordinator(&self) -> bool {
        self.coordinator() == self.node
    }

    /// Grant the lock to the queue head if the service is free to do so:
    /// we are the coordinator, no holder is out, no settle embargo is in
    /// force, and no in-flight critical section has our bitmap frozen.
    /// Called from every event that could unblock a grant (request,
    /// release, NEG_DONE, a death, the step loop for embargo expiry).
    pub(crate) fn service_lock_queue(&mut self) {
        if self.lock_holder.is_some()
            || self.lock_queue.is_empty()
            || self.frozen
            || !self.is_coordinator()
        {
            return;
        }
        if let Some(until) = self.coord_settle_until {
            if Instant::now() < until {
                return;
            }
            self.coord_settle_until = None;
        }
        if let Some(next) = self.lock_queue.pop_front() {
            self.lock_holder = Some(next);
            let _ = self.ep.send(next, tag::NEG_LOCK_GRANT, Vec::new());
        }
    }

    /// Admit `seq` from `src` into the per-(source, class) dedup window;
    /// `false` means an already-seen sequence number (a chaos duplicate)
    /// that must not reach a handler.
    pub(crate) fn dedup_admit(
        &mut self,
        src: usize,
        class: crate::handlers::Class,
        seq: u64,
    ) -> bool {
        let idx = src * crate::handlers::N_CLASSES + class as usize;
        match self.dedup.get_mut(idx) {
            Some(w) => w.admit(seq),
            None => true,
        }
    }

    /// Periodic checkpoint tick (the `checkpoint_every` knob).
    fn maybe_checkpoint(&mut self) {
        let Some(every) = self.checkpoint_every else {
            return;
        };
        if self.spill.is_none() || self.shutdown || self.last_checkpoint.elapsed() < every {
            return;
        }
        self.last_checkpoint = Instant::now();
        if let Err(e) = self.checkpoint_now() {
            self.out
                .printf(self.node, &format!("checkpoint failed: {e}"));
        }
    }

    /// Checkpoint every migratable, currently-ready thread to the spill
    /// log under a fresh epoch.  The pack is a *snapshot* — no slots are
    /// surrendered, the threads keep running — so a checkpoint is
    /// superseded, never mutated: the replayer simply keeps the newest
    /// epoch per tid.  Returns the number of thread images written.
    pub(crate) fn checkpoint_now(&mut self) -> crate::error::Result<u32> {
        if self.spill.is_none() || self.frozen {
            return Ok(0);
        }
        let ds: Vec<DescPtr> = self
            .threads
            .values()
            .copied()
            .filter(|&d| unsafe {
                (*d).thread_state() == ThreadState::Ready
                    && (*d).flags & marcel::thread::flags::MIGRATABLE != 0
            })
            .collect();
        if ds.is_empty() {
            return Ok(0);
        }
        self.ckpt_epoch += 1;
        // SAFETY: every snapshot thread is Ready and therefore frozen from
        // the driver's point of view — the pump never runs while a green
        // thread runs.
        let buf = unsafe {
            migration::pack_threads_snapshot(&ds, &self.mgr, self.pack_full_slots, &self.pool)?
        };
        let epoch = self.ckpt_epoch;
        let log = self.spill.as_mut().expect("spill checked above");
        log.append(epoch, &buf)?;
        // Periodic checkpointing grows the log without bound (every epoch
        // re-writes every live thread); compaction rewrites it down to the
        // newest record per tid once it crosses the knob.
        if self.spill_compact_after > 0 && log.records() > self.spill_compact_after {
            if let Err(e) = log.compact() {
                self.out
                    .printf(self.node, &format!("spill compaction failed: {e}"));
            }
        }
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.stats
            .checkpoint_threads
            .fetch_add(ds.len() as u64, Ordering::Relaxed);
        Ok(ds.len() as u32)
    }

    /// Next node-unique typed-LRPC call id (node in the top bits, so ids
    /// never collide across concurrent callers on different nodes).
    pub(crate) fn next_call_id(&mut self) -> u64 {
        self.call_counter += 1;
        ((self.node as u64) << 48) | self.call_counter
    }

    /// Record `tid`'s encoded return value for pickup in `finish_thread`.
    pub(crate) fn note_exit_value(&mut self, tid: u64, bytes: Vec<u8>) {
        self.exit_notes.entry(tid).or_default().value = Some(bytes);
    }

    /// Bind this node to the calling OS thread (marcel + pm2 TLS).
    pub(crate) fn activate(&mut self) {
        self.sched.activate();
        CURRENT_NODE.with(|c| c.set(self as *mut NodeCtx));
    }

    /// Pull every deliverable message off the endpoint into its priority
    /// lane.  Wire time is charged here (receiver-clocked), exactly as the
    /// old drain did.
    fn ingest(&mut self) {
        while let Some(m) = self.ep.try_recv() {
            if self.failure_timeout.is_some() && m.src < self.n_nodes {
                // Any arrival is a liveness proof; the detector only fires
                // on total silence.
                self.last_heard[m.src] = Instant::now();
            }
            let class = handlers::classify(m.tag);
            // Dedup guard: drop chaos duplicates (same fabric seq as a
            // message this window already admitted) before any handler
            // can double-apply them — a replayed SLOT_TRADE_RESP must not
            // adopt its slots twice.  It runs here, once per fabric
            // arrival, because dispatch sees some messages twice (those
            // deferred during a freeze are replayed after NEG_DONE).
            // Self-sends skip the window: the fabric never faults them.
            if m.src != self.node && !self.dedup_admit(m.src, class, m.seq) {
                self.stats.dup_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.inbox[class as usize].push_back(m);
        }
    }

    /// Highest-priority pending message, if any (control > migration >
    /// data; FIFO within a class).
    fn next_message(&mut self) -> Option<Message> {
        self.inbox.iter_mut().find_map(|lane| lane.pop_front())
    }

    /// Any ingested message not yet handled?
    pub(crate) fn inbox_pending(&self) -> bool {
        self.inbox.iter().any(|lane| !lane.is_empty())
    }

    /// Will the next step find work: a ready thread or an ingested
    /// message?  (Messages still on the wire ring the doorbell instead.)
    pub(crate) fn has_pending_work(&self) -> bool {
        self.sched.has_ready() || self.inbox_pending()
    }

    /// Ingest and handle pending messages — control class first, then
    /// migration, then data, at most `pump_budget` of them — and return
    /// whether any were handled.  Budget leftovers stay queued for the
    /// next pump, so one flooded lane cannot monopolize the driver either.
    pub(crate) fn pump(&mut self) -> bool {
        self.ingest();
        let mut handled = 0usize;
        while handled < self.pump_budget {
            let Some(m) = self.next_message() else { break };
            self.handle(m);
            handled += 1;
            if self.killed {
                // The cord was pulled mid-pump: everything still queued
                // dies with the node.
                break;
            }
            // Handling may have produced immediately-deliverable traffic
            // (self-sends are free): pick it up so priority holds across
            // everything currently deliverable.
            self.ingest();
        }
        handled > 0
    }

    /// Dispatch one message through the handler table.
    pub(crate) fn handle(&mut self, m: Message) {
        handlers::dispatch(self, m);
    }

    /// One scheduling step: pump, then run one thread quantum.  Returns true
    /// if any work was done.
    pub(crate) fn step(&mut self) -> bool {
        if self.killed {
            return false;
        }
        self.stats.steps.fetch_add(1, Ordering::Relaxed);
        let pumped = self.pump();
        if self.killed {
            return false;
        }
        self.fault_tick();
        self.maybe_checkpoint();
        if !self.lock_queue.is_empty() {
            // Inherited-coordinator embargo expiry: no message may arrive
            // to trigger the deferred grant, so the step loop must.
            self.service_lock_queue();
        }
        if !self.frozen && !self.zombies.is_empty() {
            self.reap_zombies();
        }
        if !self.frozen && !self.pending_adopts.is_empty() {
            // Trade grants that landed during a critical section: the
            // lender already cleared its bits, so adoption completes the
            // transfer the moment the freeze lifts.
            let ranges = std::mem::take(&mut self.pending_adopts);
            if !self.mgr.adopt_batch(&ranges) {
                // A grant that no longer validates costs the grant, never
                // the node (mirrors the corrupt-migration discipline).
                self.out
                    .printf(self.node, "dropped invalid deferred slot grant");
            }
        }
        if !self.frozen && !self.deferred.is_empty() {
            // Replay spawns parked during the critical section.  Handling
            // them cannot re-freeze the bitmap, so this drains fully.
            let deferred = std::mem::take(&mut self.deferred);
            for m in deferred {
                self.handle(m);
            }
        }
        self.maybe_prefetch();
        self.activate();
        match self.sched.run_one() {
            Some(outcome) => {
                self.handle_outcome(outcome);
                true
            }
            None => pumped,
        }
    }

    /// Ready to stop?  (Also false while any ingested message awaits its
    /// budget slice — an unhandled SPAWN_KEY is still pending work.)
    pub(crate) fn done(&self) -> bool {
        self.shutdown
            && self.sched.resident() == 0
            && self.zombies.is_empty()
            && self.deferred.is_empty()
            && !self.inbox_pending()
    }

    /// Drained *and* acknowledged: the driver may exit.  A killed node is
    /// trivially finished — nothing it could say would be heard.
    pub(crate) fn finished(&self) -> bool {
        self.killed || (self.done() && self.shutdown_acked)
    }

    /// Send the one-time shutdown acknowledgement once drained.
    pub(crate) fn maybe_ack_shutdown(&mut self) {
        if self.killed {
            return;
        }
        if self.done() && !self.shutdown_acked {
            self.shutdown_acked = true;
            let _ = self.ep.send(self.host_id, tag::SHUTDOWN_ACK, Vec::new());
        }
    }

    // -- outcome handling ---------------------------------------------------

    fn handle_outcome(&mut self, outcome: RunOutcome) {
        match outcome {
            // SAFETY: `d` came from this scheduler's run_one.
            RunOutcome::Yielded(d) => unsafe { self.sched.requeue(d) },
            RunOutcome::Exited(d) => self.finish_thread(d),
            RunOutcome::MigrateSelf(d, dest) | RunOutcome::PreemptMigrate(d, dest) => {
                self.depart(d, dest)
            }
            RunOutcome::Blocked(_) => {
                // Waiting threads re-enter via Scheduler::unblock; the PM2
                // layer itself only uses poll+yield waits.
            }
        }
    }

    fn finish_thread(&mut self, d: DescPtr) {
        // SAFETY: the thread has exited; we are the only owner now.
        unsafe {
            let tid = (*d).tid;
            let panicked = (*d).panicked == 1;
            let home = (*d).home_node as usize;
            let detached = (*d).flags & marcel::thread::flags::DETACHED != 0;
            self.sched.note_gone();
            self.threads.remove(&tid);
            self.nodeheap.release_thread(tid);
            if self.frozen {
                // Slot release would mutate the bitmap inside a system-wide
                // critical section; defer ("no slot management" rule, §4.4).
                self.zombies.push(d);
            } else {
                marcel::release_thread_resources(d, &mut self.mgr)
                    .expect("releasing thread resources");
            }
            let note = self.exit_notes.remove(&tid).unwrap_or_default();
            if detached {
                // No joiner can exist: forget the thread without leaving a
                // completion record or notifying its home node.
                self.registry.clear_location(tid);
            } else {
                let exit = ThreadExit {
                    tid,
                    panicked,
                    died_on: self.node,
                    panic_msg: note.panic_msg,
                    value: note.value,
                    failed_node: None,
                };
                if home != self.node {
                    let _ = self.ep.send(
                        home,
                        tag::THREAD_EXIT,
                        proto::encode_thread_exit(&self.pool, &exit),
                    );
                }
                self.registry.complete(exit);
            }
        }
        self.maybe_ack_shutdown();
    }

    fn reap_zombies(&mut self) {
        for d in std::mem::take(&mut self.zombies) {
            // SAFETY: deferred exited threads; exclusively ours.
            unsafe {
                marcel::release_thread_resources(d, &mut self.mgr)
                    .expect("releasing deferred thread resources");
            }
        }
        self.maybe_ack_shutdown();
    }

    /// Handle a departure outcome: stage the departing thread and — the
    /// group-migration train path — sweep every *other* ready thread
    /// already flagged for preemptive migration out of the scheduler, so
    /// same-destination departures produced by one pump drain (a batched
    /// `MIGRATE_CMD`, say) leave in one wire message each instead of k.
    fn depart(&mut self, d: DescPtr, dest: usize) {
        let mut trains: Vec<(usize, Vec<DescPtr>)> = Vec::new();
        self.stage_departure(d, dest, &mut trains);
        if self.max_train > 1 {
            for (d2, dest2) in self.sched.take_migrating(self.max_train - 1) {
                self.stage_departure(d2, dest2, &mut trains);
            }
        }
        for (dest, ds) in trains {
            self.send_train(dest, &ds);
        }
        self.maybe_ack_shutdown();
    }

    /// Validate one departure and append it to its destination's train.
    fn stage_departure(
        &mut self,
        d: DescPtr,
        dest: usize,
        trains: &mut Vec<(usize, Vec<DescPtr>)>,
    ) {
        if dest == self.node || dest >= self.n_nodes || self.dead_nodes.contains(&dest) {
            // Self-migration is a no-op; bogus or dead destinations are
            // dropped back into the run queue rather than losing the
            // thread (a balancer plan can race a node death).
            unsafe {
                (*d).migrate_dest = -1;
                (*d).state = ThreadState::Ready as u32;
            }
            // SAFETY: `d` is resident here and was just marked Ready.
            unsafe { self.sched.requeue(d) };
            return;
        }
        match trains.iter_mut().find(|(t, _)| *t == dest) {
            Some((_, ds)) => ds.push(d),
            None => trains.push((dest, vec![d])),
        }
    }

    /// Freeze, pack, and ship one train of threads to `dest`.
    fn send_train(&mut self, dest: usize, ds: &[DescPtr]) {
        // SAFETY: every thread is frozen (Migrating or tagged-Ready) and
        // was removed from the scheduler's queues.
        unsafe {
            let mut tids = Vec::with_capacity(ds.len());
            for &d in ds {
                let tid = (*d).tid;
                tids.push(tid);
                (*d).state = ThreadState::Migrating as u32;
                self.sched.note_gone();
                self.threads.remove(&tid);
                // Fig. 4/9: node-local malloc data does NOT follow the thread.
                self.nodeheap.poison_departed(tid);
            }
            let t0 = Instant::now();
            let buf = migration::pack_threads(
                ds,
                &mut self.mgr,
                self.pack_full_slots,
                &self.pool,
                &self.fault_corrupt_pack,
            )
            .expect("packing migration train");
            self.stats
                .migration_pack_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.stats
                .migrations_out
                .fetch_add(ds.len() as u64, Ordering::Relaxed);
            self.stats.trains_out.fetch_add(1, Ordering::Relaxed);
            self.stats
                .migration_bytes_out
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
            if let Err(e) = self.ep.send_batched(dest, tag::MIGRATION, buf, ds.len()) {
                // An endpoint died between staging and shipping.  The
                // pack already surrendered the slots with the image, so
                // the threads are gone with the train; complete them as
                // failed-on-`dest` (first-write-wins — a join never
                // hangs) instead of panicking the survivor.
                self.stats
                    .migrations_failed
                    .fetch_add(tids.len() as u64, Ordering::Relaxed);
                for tid in tids {
                    self.registry
                        .complete_if_absent(ThreadExit::node_failed(tid, dest));
                }
                if matches!(e, madeleine::NetError::NodeDead(n) if n == dest) {
                    self.note_node_dead(dest);
                }
            }
        }
    }

    // -- spawn plumbing (shared by the spawn/rpc handlers and spawn_local) --

    /// Spawn with extra marcel descriptor flags (`flags::CONTROL` puts a
    /// protocol handler into the scheduler's control lane from birth,
    /// `flags::DETACHED` leaves no completion record at exit).
    pub(crate) fn try_spawn_boxed(
        &mut self,
        tid: u64,
        extra_flags: u32,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> Result<(), marcel::SpawnError> {
        let d = self.sched.spawn_with_tid_flags(
            &mut self.mgr,
            tid,
            extra_flags,
            instrument_body(tid, f),
        )?;
        self.finish_spawn(tid, d);
        Ok(())
    }

    /// Spawn from a green thread already running on this node.
    pub(crate) fn spawn_local<F>(&mut self, f: F) -> Result<u64, marcel::SpawnError>
    where
        F: FnOnce() + Send + 'static,
    {
        let tid = self.sched.next_tid();
        let d = self
            .sched
            .spawn_with_tid(&mut self.mgr, tid, instrument_body(tid, Box::new(f)))?;
        self.finish_spawn(tid, d);
        Ok(tid)
    }

    fn finish_spawn(&mut self, tid: u64, d: DescPtr) {
        // Apply the machine's heap policy (the substrate defaults to
        // first-fit + trim; the heap is still empty here).
        // SAFETY: freshly spawned descriptor, not yet run.
        unsafe {
            isomalloc::heap::heap_init(std::ptr::addr_of_mut!((*d).heap), self.fit, self.trim);
        }
        self.threads.insert(tid, d);
        self.registry.set_location(tid, self.node);
        self.stats.spawns.fetch_add(1, Ordering::Relaxed);
    }
}
