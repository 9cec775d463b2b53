//! # pm2 — transparent iso-address thread migration
//!
//! A from-scratch Rust reproduction of the runtime described in
//! *“An Efficient and Transparent Thread Migration Scheme in the PM2
//! Runtime System”* (Antoniu, Bougé, Namyst — IPPS/SPDP ’99), grown into a
//! typed, safe-by-default Rust system.
//!
//! The system guarantees that a migrated thread — its stack, descriptor and
//! every block it allocated in the iso-address area — reappears at
//! **exactly the same virtual addresses** on the destination node, so
//! pointers (user pointers, compiler-generated pointers, allocator
//! metadata) remain valid with *no post-migration processing at all*.
//!
//! ## The v1 typed facade
//!
//! New code starts at [`Machine::builder`] and never needs `unsafe`:
//!
//! ```no_run
//! use pm2::api::{pm2_migrate, pm2_self};
//! use pm2::iso::IsoBox;
//! use pm2::{Machine, Service};
//!
//! // A typed request/reply LRPC service, registered by type.
//! struct Square;
//! impl Service for Square {
//!     const NAME: &'static str = "demo.square";
//!     type Req = u64;
//!     type Resp = u64;
//!     fn handle(&self, req: u64) -> u64 { req * req }
//! }
//!
//! let mut machine = Machine::builder(2).deterministic().launch().unwrap();
//! machine.register::<Square>(Square);
//!
//! // Typed value-returning spawn: the result rides the exit protocol home.
//! let h = machine.spawn_on_ret(0, || {
//!     let cell = IsoBox::new(42u64).unwrap();   // iso-address allocation
//!     pm2_migrate(1).unwrap();                  // hop to node 1…
//!     *cell + pm2_self() as u64                 // …the pointer still works
//! }).unwrap();
//! assert_eq!(h.join().unwrap(), 43);
//!
//! // Typed LRPC round trip from the host.
//! assert_eq!(machine.rpc_call::<Square>(1, 12).unwrap(), 144);
//! machine.shutdown();
//! ```
//!
//! ## Paper C API ↔ v1 typed API
//!
//! The 1999 C-shaped calls remain exported — they are the documented
//! escape hatch and the ablation layer — but each now has a typed,
//! safe-by-default counterpart:
//!
//! | paper C API                          | v1 typed API                                        |
//! |--------------------------------------|-----------------------------------------------------|
//! | `Pm2Config` field poking             | [`Machine::builder`] → [`MachineBuilder`]           |
//! | `pm2_isomalloc` / `pm2_isofree`      | [`iso::IsoBox`], [`iso::IsoVec`], [`iso::IsoList`]  |
//! | `pm2_thread_create` (fire-and-forget)| [`api::pm2_thread_create_ret`] → [`api::pm2_join_value`] |
//! | `Machine::spawn_on` + `join` (bool)  | [`Machine::spawn_on_ret`] → [`machine::JoinHandle`] |
//! | `pm2_rpc_spawn(id, bytes)`           | [`api::pm2_rpc_call`]`::<S>` / [`Machine::rpc_call`]`::<S>` |
//! | `register_service(id, bytes_fn)`     | [`Machine::register`]`::<S: `[`Service`]`>`         |
//! | hand-rolled `PayloadWriter` framing  | [`Wire`] encode/decode                              |
//! | `pm2_join` → "panicked or not"       | [`Pm2Error::Panicked`] carrying the panic message   |
//!
//! ## The event-driven driver core
//!
//! Since ISSUE 3 the runtime is event-driven end to end — idle machines
//! burn ~zero CPU and hop latency is hardware-bound, not poll-bound:
//!
//! * every `madeleine` send rings the destination endpoint's **doorbell**
//!   ([`madeleine::Doorbell`]), whose listener queues the node on the
//!   executor; idle node drivers *park* until then and wake at futex
//!   latency — the polled baseline paid ~1 ms of driver latency per
//!   migration hop where the event-driven core pays a few µs (see
//!   `BENCH_latency.json`);
//! * each node's pump ingests messages into three **priority lanes**
//!   (control > migration > data) and drains them in class order under a
//!   budget, so a flood of application traffic can never delay SHUTDOWN
//!   or negotiation — `pump_budget` and `idle_park` are builder knobs;
//! * the marcel scheduler runs a **control lane** (bounded bursts, never
//!   starving compute): LRPC handlers and daemons flagged via
//!   [`api::pm2_set_control_priority`] overtake compute quanta;
//! * per-tag protocol logic lives in the `handlers/` module tree
//!   (spawn/rpc, migration, negotiation, control) behind one dispatch
//!   table — new subsystems plug in without touching the dispatch core;
//! * host-side waits (registry joins, control replies) block on condvars
//!   and channel parks; nothing in the runtime sleep-polls.
//!
//! ## Group migration trains
//!
//! Since ISSUE 4 bulk migration is **latency-proportional to the number
//! of destinations, not the number of threads**.  Iso-address packing
//! makes a serialized thread fully position-independent, so k threads
//! bound for the same node ride one `MIGRATION` message — a *train*
//! (count + tid/offset table + record groups; see `migration`):
//!
//! * the departure side sweeps every ready thread already flagged for
//!   preemptive migration into the message being packed
//!   (`max_train` builder knob caps the train length; 1 restores the
//!   per-thread-message baseline, which the evacuation benchmark
//!   measures);
//! * arrival adopts the whole train into the scheduler in one batch, and
//!   fault isolation is per record group: a corrupt record rolls back and
//!   NAKs *only its own thread* (by tid, readable from the table even
//!   when the records are garbage) while the rest of the train lands;
//! * [`api::pm2_group_migrate`] orders a whole tid list moved with one
//!   `MIGRATE_CMD`, and [`loadbal`] rounds compute a per-(src, dest) move
//!   *plan*, command all overloaded sources concurrently and collect
//!   batched acks under the round deadline — no serialized per-thread
//!   RTTs anywhere (evacuating 64 threads over BIP: ≥ 3× faster than the
//!   per-thread baseline, see `BENCH_evacuation.json`);
//! * observability: [`node::NodeStatsSnapshot`] gains
//!   `trains_out`/`trains_in` and `threads_per_message()`;
//!   `madeleine`'s endpoint stats count batched sends.
//!
//! ## The decentralized slot economy
//!
//! Since ISSUE 5 a slot shortfall no longer stops the world.  The paper's
//! §4.4 remedy was a system-wide critical section — a FIFO lock on node
//! 0, a gather of all p − 1 bitmaps, and a freeze of every node's
//! allocator, with a measured cost affine in the node count ("another
//! 165 µs per extra node").  That protocol survives verbatim but is
//! demoted to a *fallback*; the hot path is a lease-style trade economy:
//!
//! * every node keeps a free-slot **reserve** with low/high watermarks
//!   (`slot_watermarks` builder knob) and an O(1) reserve counter;
//! * **wealth hints** — each node's free-slot count — piggyback on
//!   existing traffic (`SLOT_TRADE_*`, `LOAD_RESP`, `MIGRATE_CMD_ACK`),
//!   so picking the richest lender needs no extra round trips, and the
//!   load balancer's probes double as the trader's freshness source
//!   ([`Machine::peer_wealth`] / [`api::pm2_peer_wealth`] expose the
//!   table);
//! * a shortfall sends **one** point-to-point `SLOT_TRADE_REQ` to the
//!   richest known peer; the lender clears a *batch* of contiguous
//!   ranges before its reply leaves (sender-clears-before-receiver-sets,
//!   so a slot has exactly one bitmap owner at every instant — in-flight
//!   ranges are owned by the trade message, like thread-owned slots
//!   mid-migration) — no lock, no freeze, no gather, O(1) messages per
//!   acquire, and the batch (`trade_batch` knob) amortizes the round
//!   trip over many later allocations;
//! * dropping below the low watermark triggers an **asynchronous
//!   prefetch** trade from the driver, so steady-state allocators rarely
//!   block at all;
//! * the §4.4 protocol runs only when the trade cannot help — lender
//!   refused (frozen, or at its own watermark), cluster genuinely
//!   fragmented (no contiguous run even after the grant), or trading
//!   disabled (`slot_trade(false)`, the measured baseline).  Its
//!   `NEG_BUY`s ignore watermarks: it is the authority of last resort.
//!
//! `BENCH_negotiation.json` tracks the win: steady-state 2-slot
//! acquisition via trades vs the forced-global path at p = 2/4/8, plus
//! trade/fallback counts and the prefetch hit rate.
//!
//! ## Fault tolerance: node death without thread death
//!
//! Since ISSUE 7 a node can die — power-cord semantics, no cleanup — and
//! the machine degrades instead of hanging:
//!
//! * **checkpoints + spill log** — each node (when launched with a
//!   `spill_dir`) appends non-destructive snapshots of its migratable
//!   threads to an append-only, checksummed, epoch-framed log
//!   ([`spill`]); snapshots are taken periodically (`checkpoint_every`
//!   builder knob) or on demand ([`Machine::checkpoint_node`] /
//!   [`Machine::checkpoint_all`]).  Replay tolerates a torn tail (crash
//!   mid-append) and skips checksum-corrupt frames; newer epochs
//!   supersede older ones per thread;
//! * **kill switch + failure detector** — [`Machine::kill_node`] pulls a
//!   node's cord and announces `NODE_DEAD`;
//!   [`Machine::kill_node_silent`] leaves discovery to the heartbeat
//!   detector (`failure_timeout` / `heartbeat_every` knobs): survivors
//!   declare a silent peer dead, broadcast the death certificate, and
//!   the fabric thereafter refuses sends to *and from* the corpse while
//!   dispatch drops in-flight zombie messages;
//! * **no hang, ever** — joins, RPC calls and `pm2_join_value` on a
//!   thread whose host died resolve with typed
//!   [`Pm2Error::NodeFailed`] after one reply-deadline grace window
//!   (giving recovery a chance to re-adopt first); survivors purge the
//!   corpse from wealth tables, lock queues, prefetch targets and
//!   balancer plans;
//! * **recovery is just migration** — [`Machine::recover_node`] replays
//!   the corpse's spill log and re-sends each checkpointed thread to a
//!   survivor as an ordinary `MIGRATION` train (iso-address packing is
//!   position-independent, so a recovered thread *is* a migration whose
//!   source no longer exists), completes uncheckpointed threads as
//!   failed, then audits the survivors and grants every orphaned slot
//!   range to a survivor's free pool — closing the exclusive-ownership
//!   partition again ([`machine::RecoveryReport`] reports both phases,
//!   timed; `BENCH_recovery.json` tracks them at p = 4/8).
//!
//! ## The workload harness
//!
//! Everything above is measured by fixed-shape microbenches; the
//! `pm2-workload` crate (ISSUE 6) asks the capacity question instead:
//! *what request rate can a p-node machine sustain?*  A
//! `WorkloadSpec` declares a weighted op mix (spawn, typed RPC,
//! migrate, group-migrate trains, isomalloc alloc/free, broadcast)
//! with payload-size distributions, sampled from a seeded PRNG so runs
//! replay exactly.  An open-loop driver ramps the issue rate round by
//! round — op latency is measured from each op's *scheduled* time, so
//! queueing counts and saturation cannot hide behind coordinated
//! omission — and an IC-suite-style controller gates every round on
//! failure-rate and p99 SLOs; the last passing round is the machine's
//! max sustainable RPS.  The host side of that loop is the per-node
//! snapshots ([`Machine::node_stats`] / [`Machine::pool_stats`]), summed
//! over nodes and differenced across each round (see *Observability*
//! below) — the capacity report says *why* a round saturated (steps,
//! parks, spawns, trains, trades, pool churn), not just that it did.
//! `BENCH_throughput.json` tracks the resulting trajectory for two mixes
//! at p = 4 and p = 8.
//!
//! ## Observability
//!
//! Each layer counts its own events in a live struct of atomics that the
//! host reads while nodes run: [`node::NodeStats`] (runtime: migration
//! stages, trades, negotiations, driver steps and parks, RPC locality),
//! `isoaddr::SlotStats` (slot economy), `madeleine::EndpointStats`
//! (wire traffic, chaos events) and the payload pool's counters.  Each
//! is declared once through the `counters::counters!` macro, which
//! generates the live struct, its `Copy` snapshot, `snapshot()`, a
//! field-wise `since(&earlier)` and `Add`/`Sum` for totalling nodes.
//! Counters are monotonic and nothing resets them: a measurement window
//! is two snapshots and a subtraction, so concurrent readers never
//! disturb each other.  The host reads them through
//! [`Machine::node_stats`], [`Machine::slot_stats`],
//! [`Machine::net_stats`] and [`Machine::pool_stats`].
//!
//! ## The multiplexed executor: p = 256 nodes on N cores
//!
//! Threaded mode used to pin one OS thread per simulated node, so the
//! machine size was capped by what the host could context-switch —
//! p = 256 meant 256 competing driver threads.  Since ISSUE 8 the node
//! drivers are *tasks* on a shared work-stealing pool (`executor`,
//! crate-internal): each node carries an atomic run-state
//! (idle/queued/running/notified), a doorbell enqueues it when traffic
//! arrives, and `workers` pool threads (builder knob, default
//! `available_parallelism`) dispatch ready nodes round-robin with a
//! fairness budget of 32 driver steps per dispatch — one flooded node
//! cannot starve the other 255 (`tests/scale.rs` pins this).  A
//! quiescent machine parks the whole pool on a condvar; a periodic tick
//! requeues idle nodes only when gossip, detector or checkpoint work is
//! due, checked after every dispatch so a busy node cannot starve idle
//! nodes' timers.  Deterministic mode is the same executor with one
//! worker and a one-step budget: strict rotation on one OS thread.
//!
//! Multiplexing the drivers is only half of scaling p; the protocols
//! must also shed their O(p)-per-node costs ([`node`]'s module header
//! has the full accounting):
//!
//! * **liveness piggybacks + gossip** — any received message refreshes
//!   the sender's silence stamp, and once per heartbeat interval each
//!   node pushes an epidemic digest (own wealth/load claim + a relayed
//!   sample of its table, budget growing as p/8 up to 32 entries) to 2
//!   random live peers — O(1) messages per node per round, machine-wide
//!   convergence in O(log p) rounds.  The old all-pairs HEARTBEAT
//!   beacon is gone; direct probes go only to *suspects* (silent past
//!   half the timeout), at most a handful per scan, and an incremental
//!   cursor spreads the silence scan over driver steps instead of
//!   walking all p stamps per tick;
//! * **sampled economics** — above 16 nodes the trader's
//!   `richest_peer` draws a bounded random sample of the gossiped
//!   wealth table instead of scanning it, and the load balancer probes
//!   a power-of-two-choices style sample of peers (`loadbal`'s `sample`
//!   knob) instead of all p;
//! * **what stays O(p), deliberately** — death certificates and
//!   recovery broadcasts (rare, correctness-critical), the §4.4 global
//!   negotiation fallback (round-robin slot interleaving makes
//!   multi-slot requests inherently global; the trade path covers the
//!   common case), and per-node tables indexed by peer id (O(p) memory,
//!   O(1) access).
//!
//! `BENCH_scale.json` (`cargo run --release -p pm2-bench --bin scale`)
//! tracks the result: idle per-node traffic, hop/evacuation/negotiation
//! per-op cost and harness max-RPS at p = 16/64/256, with the p = 256
//! machine running all drills on a pool of a few workers and per-node
//! curves flat to within 2× of p = 16.
//!
//! ## Affinity-aware balancing: minimize the wire, not just the skew
//!
//! A load-count balancer treats a thread RPC-ing across the wire forty
//! times a millisecond exactly like an idle one — placement is blind to
//! *communication*, even though a co-located exchange is a wire-free
//! self-send and a remote one pays the full modelled hop.  Since PR 10
//! the balancer minimizes remote-message volume first and load skew
//! second:
//!
//! * **accounting** — every RPC/spawn leg bumps a bounded top-k
//!   `(peer node → msgs)` table embedded in the calling thread's
//!   descriptor (space-saving counters: hot peers are exact, the tail
//!   over-estimates, never under).  The table rides the descriptor
//!   through migration verbatim, and each node tallies
//!   `rpc_local`/`rpc_remote` (`NodeStatsSnapshot::remote_ratio`);
//! * **planning** — `LOAD_RESP` piggybacks each migratable thread's
//!   hottest edges plus its pack-cost hint, and the planner scores a
//!   candidate move by `(remote_msgs_saved − local_msgs_broken)` per
//!   byte of heap to ship, applying the best scores greedily: chatty
//!   groups co-locate, cold-heap trains ship first, and the classic
//!   most-loaded → least-loaded walk spends whatever move budget
//!   remains.  A load guard keeps co-location from creating more skew
//!   than the balancer's own threshold tolerates;
//! * **hysteresis** — three brakes stop ping-ponging: a per-thread
//!   cooldown (`aff_epoch` in the descriptor, reset on arrival, ticked
//!   by the per-epoch decay), a minimum net score (symmetric chatter
//!   nets ≈ 0 and stays put), and an anti-swap rule (one round never
//!   drains a node it is packing into, so mutually-chatty threads
//!   cannot trade homes forever).  Counters decay geometrically each
//!   balancer epoch (`LOAD_REQ` carries the shift), so stale
//!   friendships fade;
//! * **probe saving** — when gossip (armed by the failure detector or
//!   large p) has delivered a peer's load hint younger than one
//!   heartbeat and the hint is unremarkable, the round trusts it and
//!   skips that `LOAD_REQ` entirely (`BalancerHandle::probes_saved`).
//!
//! All knobs live on [`loadbal::BalancerConfig`] (`affinity` toggles
//! the pass; `aff_decay_shift`, `aff_cooldown`, `aff_min_score` tune
//! it), and `--bin affinity` judges the result end to end — scattered
//! producer/consumer rings and an all-to-one hotspot, affinity on vs
//! off (`BENCH_affinity.json`, a CI artifact): the rings run 1.8–2.1×
//! the baseline ops/s at p = 4/8 by turning ~90 % remote traffic into
//! ~70 % local, and the hotspot drill is gated to never regress.
//!
//! ## Crate layout
//!
//! * [`machine`] / [`node`] — the simulated cluster: one scheduler + slot
//!   bitmap + Madeleine endpoint per node, driven by the event-driven
//!   core above (`node.rs` is the dispatch core; per-tag handlers live in
//!   the `handlers/` tree);
//! * [`config`] — [`MachineBuilder`] and the raw [`Pm2Config`] record;
//! * [`api`] — the green-side programming interface (§3.4 plus the typed
//!   v1 calls) for code running inside Marcel threads;
//! * [`service`] — the typed request/reply LRPC layer ([`Service`]);
//! * [`negotiation`] — remote slot acquisition: trade-first economy with
//!   the §4.4 global negotiation as fallback;
//! * `migration` — pack/ship/unpack in trains (§2, with the §6
//!   optimizations) on a
//!   zero-copy data plane: buffers are checked out of per-endpoint pools
//!   (`madeleine::BufPool`), sized from an occupancy hint, and recycled by
//!   the receiver's drop — steady-state migrations allocate nothing
//!   ([`Machine::pool_stats`] exposes the counters, and
//!   [`node::NodeStatsSnapshot`] the pack/wire/unpack stage timings);
//! * [`iso`] — typed containers over `pm2_isomalloc` (Fig. 7's list);
//! * [`loadbal`] — an external load balancer driving preemptive migration
//!   with batched plan/ack rounds;
//! * [`nodeheap`] — the non-migrating `malloc` baseline (Fig. 4/9);
//! * [`legacy`] — the early-PM2 registered-pointer relocation baseline;
//! * [`audit`] — machine-checked exclusive-ownership invariant.
//!
//! Deterministic test randomness lives in the workspace-internal
//! `testkit` crate (the sandbox builds offline, so `rand`/`proptest`
//! are replaced in-tree).

pub mod api;
pub mod audit;
pub mod config;
pub mod error;
pub(crate) mod executor;
pub(crate) mod handlers;
pub mod iso;
pub mod legacy;
pub mod loadbal;
pub mod machine;
mod migration;
pub mod negotiation;
pub mod node;
pub mod nodeheap;
pub mod output;
pub mod proto;
pub mod registry;
pub(crate) mod rng;
pub mod service;
pub mod spill;

pub use config::{MachineBuilder, MachineMode, MigrationScheme, Pm2Config};
pub use error::{Pm2Error, Result};
pub use iso::{IsoBox, IsoList, IsoVec};
pub use machine::{JoinHandle, Machine, Pm2Thread, RecoveryReport};
pub use registry::ThreadExit;
pub use service::{service_id, Service};

#[cfg(test)]
mod tests;

// Re-export the substrate types an embedder is likely to need.
pub use isoaddr::{AreaConfig, Distribution, MapStrategy};
pub use isomalloc::FitPolicy;
pub use madeleine::{
    BufPool, BufPoolStats, EndpointStatsSnapshot, FaultPlan, NetProfile, Payload, Wire,
};
