//! The green-side PM2 API — the reproduction of the paper's programming
//! interface (§3.4), callable from inside Marcel threads:
//!
//! | paper                           | here                          |
//! |---------------------------------|-------------------------------|
//! | `pm2_isomalloc(size)`           | [`pm2_isomalloc`]             |
//! | `pm2_isofree(addr)`             | [`pm2_isofree`]               |
//! | `pm2_migrate(marcel_self(), n)` | [`pm2_migrate`]               |
//! | `pm2_migrate(tid, n)` (other)   | [`pm2_migrate_thread`]        |
//! | `pm2_self()`                    | [`pm2_self`]                  |
//! | `marcel_self()`                 | [`pm2_self_tid`]              |
//! | `pm2_printf(...)`               | [`pm2_printf!`](crate::pm2_printf) |
//! | `pm2_register_pointer`          | [`pm2_register_pointer`] (legacy) |
//! | `malloc` (non-migrating)        | [`node_malloc`] (see `nodeheap`) |

use std::time::{Duration, Instant};

use madeleine::{BufPool, Message, Payload, Wire};

use crate::error::{Pm2Error, Result};
use crate::node::with_ctx;
use crate::proto::{self, rpc_status, tag};
use crate::service::{service_id, Service};

/// Node currently hosting the calling thread (the paper's `pm2_self()`).
pub fn pm2_self() -> usize {
    marcel::current_node()
}

/// Thread id of the caller (the paper's `marcel_self()`).
pub fn pm2_self_tid() -> u64 {
    marcel::current_tid()
}

/// Number of nodes in the machine.
pub fn pm2_nodes() -> usize {
    with_ctx(|c| c.n_nodes)
}

/// Re-export: cooperative yield.
pub use marcel::yield_now as pm2_yield;

/// Wait until the local bitmap is not frozen by a negotiation.  Between the
/// successful check and the next yield the pump cannot run, so the frozen
/// flag cannot flip under the caller.
fn wait_unfrozen() {
    loop {
        if with_ctx(|c| !c.frozen) {
            return;
        }
        marcel::yield_now();
    }
}

/// Allocate `size` bytes in the iso-address area (the paper's
/// `pm2_isomalloc`).  The data migrates with the calling thread and keeps
/// its virtual address, so pointers into it — and inside it — stay valid
/// across migrations with no post-processing.
pub fn pm2_isomalloc(size: usize) -> Result<*mut u8> {
    loop {
        wait_unfrozen();
        let d = marcel::current_desc();
        let r = with_ctx(|c| {
            // SAFETY: the descriptor belongs to the calling thread, hosted
            // on this node; the pump is not running.
            unsafe { isomalloc::isomalloc(std::ptr::addr_of_mut!((*d).heap), &mut c.mgr, size) }
        });
        match r {
            Ok(p) => return Ok(p),
            Err(isomalloc::AllocError::Provider(isoaddr::IsoAddrError::NeedNegotiation {
                requested,
            })) => {
                // The local node lacks contiguous slots: trade with the
                // richest peer, falling back to the §4.4 negotiation.
                crate::negotiation::acquire_remote(requested)?;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Free a block allocated with [`pm2_isomalloc`].  Freed slots go to the
/// node the thread is *currently* visiting (Fig. 6).
// Deliberately a safe fn despite taking a raw pointer: this is the
// paper-shaped C API, and the block layer validates the pointer (garbage
// and double frees return Err, they never dereference blindly).
#[allow(clippy::not_unsafe_ptr_arg_deref)]
pub fn pm2_isofree(ptr: *mut u8) -> Result<()> {
    wait_unfrozen();
    let d = marcel::current_desc();
    with_ctx(|c| {
        // SAFETY: as in pm2_isomalloc.
        unsafe { isomalloc::isofree(std::ptr::addr_of_mut!((*d).heap), &mut c.mgr, ptr) }
    })?;
    Ok(())
}

/// Migrate the calling thread to `dest` (the paper's
/// `pm2_migrate(marcel_self(), dest)`).  On return the thread is executing
/// on `dest`; all its pointers are intact.
pub fn pm2_migrate(dest: usize) -> Result<()> {
    if dest >= with_ctx(|c| c.n_nodes) {
        return Err(Pm2Error::NoSuchNode(dest));
    }
    marcel::migrate_self(dest);
    Ok(())
}

/// Preemptively migrate *another* thread residing on this node.  The target
/// is shipped at its next scheduling point without its cooperation — the
/// transparency property of §2 (application threads contain no migration
/// code; an external module can rebalance them).
pub fn pm2_migrate_thread(tid: u64, dest: usize) -> Result<()> {
    if dest >= with_ctx(|c| c.n_nodes) {
        return Err(Pm2Error::NoSuchNode(dest));
    }
    with_ctx(|c| match c.threads.get(&tid) {
        // SAFETY: descriptor resident on this node.
        Some(&d) => {
            if unsafe { c.sched.request_migration(d, dest) } {
                Ok(())
            } else {
                Err(Pm2Error::NotMigratable(tid))
            }
        }
        None => Err(Pm2Error::NoSuchThread(tid)),
    })
}

/// Group migration: order every thread in `tids` (resident on node `src`)
/// to migrate to `dest`, returning how many were accepted (resident,
/// migratable, and at a shippable scheduling point).
///
/// This is the batched form of [`pm2_migrate_thread`] — PM2's group
/// migration API.  One `MIGRATE_CMD` carries the whole tid list, and the
/// departure side coalesces the accepted threads into migration *trains*
/// (one wire message per destination, not per thread), so evacuating k
/// threads costs one message latency per destination.  When `src` is the
/// calling thread's own node the threads are flagged locally with no wire
/// traffic at all; otherwise the call blocks (poll + yield) until the
/// batched ack arrives or the reply deadline passes.
pub fn pm2_group_migrate(src: usize, dest: usize, tids: &[u64]) -> Result<usize> {
    let n_nodes = with_ctx(|c| c.n_nodes);
    if dest >= n_nodes {
        return Err(Pm2Error::NoSuchNode(dest));
    }
    if src >= n_nodes {
        return Err(Pm2Error::NoSuchNode(src));
    }
    if tids.is_empty() {
        return Ok(0);
    }
    if src == pm2_self() {
        // Dedup so a repeated tid cannot be counted as two acceptances
        // (request_migration succeeds again on an already-flagged thread).
        let mut tids = tids.to_vec();
        tids.sort_unstable();
        tids.dedup();
        return Ok(with_ctx(|c| {
            tids.iter()
                .filter(|tid| match c.threads.get(tid) {
                    // SAFETY: descriptor resident on this node.
                    Some(&d) => unsafe { c.sched.request_migration(d, dest) },
                    None => false,
                })
                .count()
        }));
    }
    let (cmd_id, pool) = with_ctx(|c| (c.next_call_id(), c.pool.clone()));
    // Pin the caller for the exchange: the ack is addressed to this node.
    let was_migratable = pm2_set_migratable(false);
    let result = (|| {
        send_to(
            src,
            tag::MIGRATE_CMD,
            proto::encode_migrate_cmd(&pool, cmd_id, dest, tids),
        )?;
        let m = wait_reply_matching(tag::MIGRATE_CMD_ACK, Some(src), |m| {
            proto::peek_cmd_id(&m.payload) == Some(cmd_id)
        })?;
        let (_, accepted, _, _) =
            proto::decode_migrate_ack(&m.payload).ok_or(Pm2Error::Decode("migrate ack"))?;
        Ok(accepted as usize)
    })();
    if was_migratable {
        pm2_set_migratable(true);
    }
    result
}

/// Spawn a thread on the current node (the paper's `pm2_thread_create`).
pub fn pm2_thread_create<F>(f: F) -> Result<u64>
where
    F: FnOnce() + Send + 'static,
{
    wait_unfrozen();
    with_ctx(|c| c.spawn_local(f)).map_err(|e| Pm2Error::Spawn(e.to_string()))
}

/// Spawn a value-returning thread on the current node.  The returned tid
/// joins through [`pm2_join_value`], which decodes the value the body
/// returned — across any number of migrations, because the encoded value
/// rides the thread-exit protocol back to the registry.
pub fn pm2_thread_create_ret<R, F>(f: F) -> Result<u64>
where
    R: Wire + Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    pm2_thread_create(move || {
        let value = f();
        set_exit_value(value.encode_vec());
    })
}

/// Record one RPC-shaped message the calling green thread exchanged with
/// `peer`: bumps the thread's top-k affinity table (which migrates with
/// it) and the node's `rpc_local`/`rpc_remote` counters.
pub(crate) fn note_rpc_traffic(peer: usize) {
    let d = marcel::current_desc();
    // SAFETY: own descriptor; the pump is not running.
    unsafe { (*d).record_affinity(peer as u32) };
    with_ctx(|c| c.note_traffic(peer));
}

/// Where thread `tid` currently lives, if the machine knows of it.  The
/// registry tracks every spawn/migration/adoption, so this is exact at
/// quiescence and at-most-one-hop stale while a migration is in flight —
/// good enough to aim an RPC at a peer's node (callers must still handle
/// the message reaching a node the peer just left).
pub fn pm2_thread_location(tid: u64) -> Option<usize> {
    with_ctx(|c| c.registry.location(tid))
}

/// Spawn a registered service on a (possibly remote) node — PM2's LRPC.
///
/// The service runs as a detached thread: it leaves no completion record,
/// so joining its tid (what [`pm2_self_tid`] returns inside it) is
/// unsupported.  An unregistered `service` is [`Pm2Error::NoSuchService`].
pub fn pm2_rpc_spawn(node: usize, service: u32, args: &[u8]) -> Result<()> {
    if node >= with_ctx(|c| c.n_nodes) {
        return Err(Pm2Error::NoSuchNode(node));
    }
    if with_ctx(|c| c.services.get(service).is_none()) {
        return Err(Pm2Error::NoSuchService(service));
    }
    note_rpc_traffic(node);
    let pool = local_pool();
    send_to(
        node,
        tag::RPC_SPAWN,
        crate::proto::encode_rpc_spawn(&pool, service, args),
    )
}

/// Typed request/reply LRPC: call service `S` on `node`, blocking the
/// calling green thread (poll + yield, so this node keeps serving) until
/// the response arrives or the configured reply deadline passes.
///
/// The handler runs as a freshly spawned, detached Marcel thread on
/// `node`: it leaves no completion record, so joining its tid is
/// unsupported (the reply is the handler's only result).  Errors
/// distinguish an unregistered service ([`Pm2Error::NoSuchService`]), an
/// oversized request — checked locally — or response
/// ([`Pm2Error::PayloadTooLarge`] / [`Pm2Error::Rpc`]), a handler panic
/// ([`Pm2Error::Rpc`]), and a timeout ([`Pm2Error::Net`]).
pub fn pm2_rpc_call<S: Service>(node: usize, req: S::Req) -> Result<S::Resp> {
    let (n_nodes, max) = with_ctx(|c| (c.n_nodes, c.max_rpc_payload));
    if node >= n_nodes {
        return Err(Pm2Error::NoSuchNode(node));
    }
    let req_bytes = req.encode_vec();
    if req_bytes.len() > max {
        return Err(Pm2Error::PayloadTooLarge {
            len: req_bytes.len(),
            max,
        });
    }
    let (call_id, reply_to) = with_ctx(|c| {
        let id = c.next_call_id();
        // The callee node rides along so a death can synthesize a
        // NODE_FAILED reply for every call aimed at the corpse.
        c.pending_calls.insert(id, node);
        (id, c.node)
    });
    // One call = one request out + one reply back: both legs land on the
    // same peer node, so account the pair up front in the caller's
    // affinity table (the handler side separately accounts its reply).
    note_rpc_traffic(node);
    note_rpc_traffic(node);
    // Pin the caller for the duration of the exchange: the response is
    // addressed to `reply_to`, so a preemptive migration mid-wait would
    // strand it in the old node's reply queue.
    let was_migratable = pm2_set_migratable(false);
    let result = (|| {
        let pool = local_pool();
        send_to(
            node,
            tag::RPC_CALL,
            proto::encode_rpc_call(&pool, call_id, reply_to, service_id::<S>(), &req_bytes),
        )?;
        // Handlers may migrate before replying, so match on the call id
        // alone, not the source node.
        let m = wait_reply_matching(tag::RPC_RESP, None, |m| {
            proto::peek_rpc_call_id(&m.payload) == Some(call_id)
        })?;
        decode_rpc_outcome::<S>(&m.payload)
    })();
    // Withdraw the pending entry (still on `reply_to` — we are pinned), so
    // a reply landing after a timeout is dropped, not parked forever.
    with_ctx(|c| c.pending_calls.remove(&call_id));
    if was_migratable {
        pm2_set_migratable(true);
    }
    result
}

/// Shared RPC_RESP → typed result mapping (green and host callers).
pub(crate) fn decode_rpc_outcome<S: Service>(payload: &[u8]) -> Result<S::Resp> {
    let (_, status, bytes) =
        proto::decode_rpc_resp(payload).ok_or(Pm2Error::Decode("rpc response"))?;
    match status {
        rpc_status::OK => S::Resp::decode_vec(&bytes).ok_or(Pm2Error::Decode("rpc response body")),
        rpc_status::NO_SUCH_SERVICE => Err(Pm2Error::NoSuchService(service_id::<S>())),
        rpc_status::NODE_FAILED => {
            // Synthesized when the callee died mid-call; the dead node's
            // id rides in the body.
            let n = bytes
                .as_slice()
                .try_into()
                .map(u64::from_le_bytes)
                .unwrap_or(0);
            Err(Pm2Error::NodeFailed(n as usize))
        }
        _ => Err(Pm2Error::Rpc(String::from_utf8_lossy(&bytes).into_owned())),
    }
}

/// Wait (poll + yield) until thread `tid` has exited anywhere in the
/// machine.  Returns whether it panicked.
pub fn pm2_join(tid: u64) -> bool {
    wait_exit(tid).panicked
}

/// Wait (poll + yield) until thread `tid` has exited anywhere in the
/// machine, then decode the value it returned.
///
/// Pairs with [`pm2_thread_create_ret`] (green side) and
/// [`crate::machine::Machine::spawn_on_ret`] (host side): the value is
/// shipped through the thread-exit protocol, so it arrives even when the
/// thread died nodes away from where it was spawned.  Errors:
/// [`Pm2Error::Panicked`] with the panic message if the body panicked,
/// [`Pm2Error::Decode`] if the thread returned no value or a value of a
/// different type.
pub fn pm2_join_value<R: Wire>(tid: u64) -> Result<R> {
    wait_exit(tid);
    // Move the value bytes out of the registry (they are not retained
    // after the join, so completed threads cost O(1) registry space).
    with_ctx(|c| c.registry.take_typed_exit(tid))
        .expect("completion just observed")
        .typed_value()
}

/// Poll + yield until `tid` completes; returns the metadata record (no
/// value bytes — they stay in the registry until a typed join takes them).
///
/// Dead-owner resolution: when the node last known to host `tid` is dead,
/// recovery gets one reply-deadline to re-adopt the thread from a
/// checkpoint (the location moves to a survivor and the wait continues
/// normally).  If the owner is still a corpse when the grace expires, the
/// join completes the thread as failed-on-that-node — recovered value or
/// typed error, never a hang.
fn wait_exit(tid: u64) -> crate::registry::ThreadExit {
    let mut grace: Option<(usize, Instant)> = None;
    loop {
        if let Some(e) = with_ctx(|c| c.registry.poll_meta(tid)) {
            return e;
        }
        let (dead_owner, deadline) = with_ctx(|c| {
            let dead = c
                .registry
                .location(tid)
                .filter(|n| c.dead_nodes.contains(n) || c.ep.is_dead(*n));
            (dead, c.reply_deadline)
        });
        match dead_owner {
            Some(n) => {
                let (owner, until) = grace.get_or_insert((n, Instant::now() + deadline));
                if *owner != n {
                    // Re-adopted by a survivor that then also died: re-arm.
                    *owner = n;
                    *until = Instant::now() + deadline;
                } else if Instant::now() > *until {
                    with_ctx(|c| {
                        c.registry
                            .complete_if_absent(crate::registry::ThreadExit::node_failed(tid, n))
                    });
                    // The next poll_meta observes this (or a racing real
                    // completion — first write wins either way).
                }
            }
            None => grace = None,
        }
        marcel::yield_now();
    }
}

/// Record the calling thread's encoded return value; consumed by the node
/// when the thread exits.  Must be the last thing a thread body does (no
/// yield between this and returning).
pub(crate) fn set_exit_value(bytes: Vec<u8>) {
    let tid = marcel::current_tid();
    with_ctx(|c| c.note_exit_value(tid, bytes));
}

/// Mark the calling thread (non-)migratable; returns the previous state
/// (so a temporary pin can restore it).  Daemons (e.g. the load
/// balancer) exclude themselves from preemptive migration this way.
pub fn pm2_set_migratable(migratable: bool) -> bool {
    let d = marcel::current_desc();
    // SAFETY: own descriptor.
    unsafe {
        let was = (*d).flags & marcel::thread::flags::MIGRATABLE != 0;
        if migratable {
            (*d).flags |= marcel::thread::flags::MIGRATABLE;
        } else {
            (*d).flags &= !marcel::thread::flags::MIGRATABLE;
        }
        was
    }
}

/// Put the calling thread into (or out of) the scheduler's **control
/// lane**; returns the previous state.  Control-lane threads are
/// dispatched before ordinary compute quanta on every node they visit
/// (the flag rides the descriptor through migrations), so protocol
/// daemons — the load balancer, monitoring probes, anything doing
/// request/reply over the fabric — stay responsive on nodes crowded with
/// application threads.  Use sparingly: the lane drains strictly first,
/// so long-running compute in it would starve the machine.
pub fn pm2_set_control_priority(control: bool) -> bool {
    let d = marcel::current_desc();
    // SAFETY: own descriptor.
    unsafe {
        let was = (*d).flags & marcel::thread::flags::CONTROL != 0;
        if control {
            (*d).flags |= marcel::thread::flags::CONTROL;
        } else {
            (*d).flags &= !marcel::thread::flags::CONTROL;
        }
        was
    }
}

/// Legacy early-PM2 API (paper Fig. 3): register the address of a pointer
/// variable so the runtime can fix it after a relocating migration.  Under
/// iso-address migration this is a no-op kept for the ablation baseline.
pub fn pm2_register_pointer(ptr_addr: usize) -> Option<u32> {
    let d = marcel::current_desc();
    // SAFETY: own descriptor.
    unsafe { (*d).register_pointer(ptr_addr) }
}

/// Legacy: unregister a pointer registered with [`pm2_register_pointer`].
pub fn pm2_unregister_pointer(key: u32) {
    let d = marcel::current_desc();
    // SAFETY: own descriptor.
    unsafe { (*d).unregister_pointer(key) }
}

/// Allocate from the node-private heap — the paper's plain `malloc`.  The
/// data does **not** migrate: after the owning thread leaves this node the
/// memory is poisoned, reproducing Fig. 9's garbage reads (see `nodeheap`).
pub fn node_malloc(size: usize) -> *mut u8 {
    let tid = marcel::current_tid();
    with_ctx(|c| c.nodeheap.alloc(size, tid))
}

/// Free a [`node_malloc`] block on its owning node.
pub fn node_free(ptr: *mut u8) -> bool {
    with_ctx(|c| c.nodeheap.free(ptr))
}

/// Would dereferencing this [`node_malloc`] pointer be valid on the current
/// node?  `false` after the owner migrated away — a real cluster would read
/// garbage or fault here.
pub fn node_ptr_valid(ptr: *const u8) -> bool {
    with_ctx(|c| c.nodeheap.is_valid(ptr))
}

/// Capture one line of output, prefixed `[nodeN]` like the paper's traces.
pub fn printf_str(text: String) {
    with_ctx(|c| c.out.printf(c.node, &text));
}

/// `pm2_printf!(...)` — the paper's `pm2_printf`, with `format!` syntax.
#[macro_export]
macro_rules! pm2_printf {
    ($($arg:tt)*) => {
        $crate::api::printf_str(format!($($arg)*))
    };
}

/// Diagnostic: one request/reply round trip to `peer` using the same
/// parked-reply mechanics as the negotiation gather (a `LOAD_REQ`).
/// Returns the peer's resident thread count.  (The reply also piggybacks
/// the peer's free-slot wealth, which the dispatch layer absorbs into the
/// trader's hint table before the reply is parked.)
pub fn pm2_probe_load(peer: usize) -> Result<usize> {
    // At-least-once under a fault plan: re-send on a lost request or
    // reply.  A duplicated probe costs one redundant LOAD_RESP, which a
    // later probe of the same peer consumes (the answer is a load *hint*,
    // so a slightly stale one is harmless).
    let (attempts, total) = with_ctx(|c| (c.control_retries, c.reply_deadline));
    for attempt in 0..attempts {
        if attempt > 0 {
            with_ctx(|c| {
                c.stats
                    .ctrl_retries
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            });
        }
        send_to(peer, tag::LOAD_REQ, Vec::new())?;
        let deadline = Instant::now() + retry_slice(total, attempts, attempt);
        match wait_reply_until(tag::LOAD_RESP, Some(peer), deadline, |_| true) {
            Ok(m) => {
                let (resident, _, _) =
                    proto::decode_load_resp(&m.payload).ok_or(Pm2Error::Decode("load response"))?;
                return Ok(resident as usize);
            }
            Err(Pm2Error::NodeFailed(n)) => return Err(Pm2Error::NodeFailed(n)),
            Err(_) => {} // timed out: retry with a longer slice
        }
    }
    Err(Pm2Error::RetriesExhausted {
        op: "load probe",
        attempts,
    })
}

/// Split one reply deadline into exponentially growing per-attempt slices
/// (1, 2, 4, … shares of `2^attempts − 1`), so a full retry budget never
/// waits longer in total than the single-attempt deadline did — retries
/// redistribute the wait, they do not extend it.
pub(crate) fn retry_slice(total: Duration, attempts: u32, i: u32) -> Duration {
    let attempts = attempts.clamp(1, 20);
    let denom = (1u64 << attempts) - 1;
    let num = 1u64 << i.min(attempts - 1);
    total.mul_f64(num as f64 / denom as f64)
}

/// Slot-layer statistics of the calling thread's current node: reserve
/// traffic (lent/adopted/sold/bought), cache hits, commit counts — the
/// green-side counterpart of `Machine::slot_stats`.
pub fn pm2_slot_stats() -> isoaddr::SlotStatsSnapshot {
    with_ctx(|c| c.mgr.stats_snapshot())
}

/// The calling node's last-known free-slot count per node (its own entry
/// is live; peer entries are as fresh as the last piggybacked hint from
/// that peer).  This is the wealth table the slot trader picks lenders
/// from.
pub fn pm2_peer_wealth() -> Vec<u64> {
    with_ctx(|c| {
        let mut w: Vec<u64> = c
            .peer_wealth
            .iter()
            .map(|x| x.load(std::sync::atomic::Ordering::Relaxed))
            .collect();
        w[c.node] = c.mgr.free_slots() as u64;
        w
    })
}

// ---------------------------------------------------------------------------
// Protocol plumbing shared with negotiation / load balancing.
// ---------------------------------------------------------------------------

/// Send a message from the calling thread's node.
pub(crate) fn send_to(dst: usize, tag: u16, payload: impl Into<Payload>) -> Result<()> {
    let payload = payload.into();
    with_ctx(|c| c.ep.send(dst, tag, payload))?;
    Ok(())
}

/// The calling thread's node-local payload pool (cheap `Arc` clone).
/// Encoders running on green threads check their buffers out of it.
pub(crate) fn local_pool() -> BufPool {
    with_ctx(|c| c.pool.clone())
}

/// Wait for a parked reply matching `tag` (and `src`, if given), yielding so
/// the node keeps serving.  Replies are parked by the pump.
pub(crate) fn wait_reply(tag: u16, src: Option<usize>) -> Result<Message> {
    wait_reply_matching(tag, src, |_| true)
}

/// [`wait_reply`] with an additional payload predicate (e.g. matching a
/// typed LRPC reply by call id).  The deadline is the machine's configured
/// `reply_deadline`.
pub(crate) fn wait_reply_matching(
    tag: u16,
    src: Option<usize>,
    pred: impl Fn(&Message) -> bool,
) -> Result<Message> {
    let deadline = Instant::now() + with_ctx(|c| c.reply_deadline);
    wait_reply_until(tag, src, deadline, pred)
}

/// [`wait_reply_matching`] with an explicit deadline, for callers running
/// their own time budget (e.g. a load-balancer round that must degrade —
/// not wedge — when one node stops answering).
pub(crate) fn wait_reply_until(
    tag: u16,
    src: Option<usize>,
    deadline: Instant,
    pred: impl Fn(&Message) -> bool,
) -> Result<Message> {
    loop {
        let hit = with_ctx(|c| {
            let idx = c
                .replies
                .iter()
                .position(|m| m.tag == tag && src.is_none_or(|s| m.src == s) && pred(m))?;
            c.replies.remove(idx)
        });
        if let Some(m) = hit {
            return Ok(m);
        }
        // A reply expected from a named dead peer is never coming: fail
        // now (typed), not at the deadline (opaque).  Checked *after* the
        // scan so a reply that raced the death still wins.
        if let Some(s) = src {
            if with_ctx(|c| c.dead_nodes.contains(&s) || c.ep.is_dead(s)) {
                return Err(Pm2Error::NodeFailed(s));
            }
        }
        if Instant::now() > deadline {
            return Err(Pm2Error::Net(format!(
                "timed out waiting for reply tag {tag}"
            )));
        }
        marcel::yield_now();
    }
}
