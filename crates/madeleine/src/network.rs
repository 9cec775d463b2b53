//! The in-process fabric.
//!
//! [`Fabric::new`] wires `n` endpoints together with unbounded lock-free
//! channels (one inbox per node).  Message order is preserved per
//! sender/receiver pair, as on a real Myrinet source-routed network.
//!
//! The wire model is **receiver-clocked**: a send is asynchronous (BIP DMAs
//! the frame out), and the destination pays `latency + bytes × per-byte
//! cost` for each message as it dequeues it — BIP receives are polled by
//! the host CPU, so the receiving node is genuinely occupied for the
//! transfer.  Receiver-clocking is what serializes a gather of `p − 1`
//! bitmaps at the negotiation initiator, the effect behind the paper's
//! "another 165 µs per extra node".  Self-sends are free (no NIC).
//!
//! The data plane is zero-copy: [`Endpoint::send`] takes anything
//! convertible [`Into<Payload>`] and ships the sealed buffer by reference
//! count — no copy on send, one shared buffer for an entire
//! [`Endpoint::broadcast`], and pooled buffers (see [`crate::buf`]) return
//! to their origin endpoint's free list when the receiver drops them.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Instant;

use crate::buf::{BufPool, Payload};
use crate::chaos::{EndpointChaos, FaultPlan, Verdict};
use crate::doorbell::Doorbell;
use crate::message::Message;
use crate::profile::{spin_for, NetProfile};
use crate::stats::{EndpointStats, EndpointStatsSnapshot};

/// Partition group id meaning "reachable from every group" — used for
/// nodes outside either side of a cut (e.g. an embedder's host endpoint).
pub const WILD_GROUP: u8 = u8::MAX;

/// Errors from the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination node id is outside the fabric.
    NoSuchNode(usize),
    /// The destination endpoint has been dropped.
    Disconnected(usize),
    /// The named node has been declared dead ([`Endpoint::mark_dead`]).
    /// Sends *to* a corpse fail instead of enqueuing to nowhere, and sends
    /// *from* a corpse fail so a zombie driver cannot keep talking.
    NodeDead(usize),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            NetError::Disconnected(n) => write!(f, "node {n} disconnected"),
            NetError::NodeDead(n) => write!(f, "node {n} is dead"),
        }
    }
}

impl std::error::Error for NetError {}

struct Shared {
    senders: Vec<Sender<Message>>,
    profile: NetProfile,
    stats: Vec<Arc<EndpointStats>>,
    /// Doorbell rung when a message is enqueued for node *i*.
    doorbells: Vec<Doorbell>,
    /// Death certificates, one per node.  Set once (never cleared) by
    /// [`Endpoint::mark_dead`]; the send path refuses traffic to *and from*
    /// a flagged node, turning "enqueue to nowhere" into a typed error the
    /// moment a failure is declared.
    dead: Vec<AtomicBool>,
    /// Runtime partition override: one group id per node, messages
    /// crossing groups are cut ([`WILD_GROUP`] reaches everything).  The
    /// atomic gates the lock so the un-partitioned hot path costs one
    /// relaxed load.
    partition_on: AtomicBool,
    partition: Mutex<Vec<u8>>,
    /// The fault plan in force (`None` = perfect wire) and the fabric
    /// birth instant its scheduled partition windows count from.
    plan: Option<FaultPlan>,
    t0: Instant,
}

/// Factory for a set of connected endpoints.
pub struct Fabric;

impl Fabric {
    /// Build an `n`-node fabric; returns one [`Endpoint`] per node, in node
    /// order, each with its own doorbell.  With a seeded [`FaultPlan`] the
    /// send path may drop, duplicate, delay, or hold back eligible
    /// messages, and the plan's scheduled partition windows cut traffic
    /// (see [`crate::chaos`]); `None` keeps every link a perfect wire.
    /// (`Fabric` itself is a pure factory and holds no state.)
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize, profile: NetProfile, plan: Option<FaultPlan>) -> Vec<Endpoint> {
        assert!(n >= 1, "a fabric needs at least one node");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let stats: Vec<_> = (0..n).map(|_| Arc::new(EndpointStats::default())).collect();
        let dead = (0..n).map(|_| AtomicBool::new(false)).collect();
        let shared = Arc::new(Shared {
            senders,
            profile,
            stats,
            doorbells: (0..n).map(|_| Doorbell::new()).collect(),
            dead,
            partition_on: AtomicBool::new(false),
            partition: Mutex::new(vec![WILD_GROUP; n]),
            plan,
            t0: Instant::now(),
        });
        receivers
            .into_iter()
            .enumerate()
            .map(|(node, rx)| Endpoint {
                node,
                rx,
                chaos: shared
                    .plan
                    .as_ref()
                    .map(|p| RefCell::new(EndpointChaos::new(p, node, n))),
                shared: Arc::clone(&shared),
                pool: BufPool::new(),
                seq: Cell::new(0),
            })
            .collect()
    }
}

/// A cheap, cloneable, `Send + Sync` view of the fabric's death
/// certificates.  Lets host-side handles (a typed join handle, say)
/// observe node deaths without holding an [`Endpoint`] — an endpoint owns
/// its receiver and cannot be cloned.
#[derive(Clone)]
pub struct DeathWatch {
    shared: Arc<Shared>,
}

impl DeathWatch {
    /// True when `node` has been declared dead ([`Endpoint::mark_dead`]).
    pub fn is_dead(&self, node: usize) -> bool {
        self.shared
            .dead
            .get(node)
            .is_some_and(|f| f.load(Ordering::Acquire))
    }
}

/// One node's attachment to the fabric.
pub struct Endpoint {
    node: usize,
    rx: Receiver<Message>,
    shared: Arc<Shared>,
    /// This endpoint's payload-buffer free list: outgoing traffic checks
    /// out of it, and receivers' drops recycle into it.
    pool: BufPool,
    /// Per-endpoint sequence counter (uncontended, unlike the old
    /// fabric-global atomic; seq numbers stay monotonic per
    /// sender/receiver pair on a perfect wire — under a fault plan a
    /// chaos *duplicate* reuses its original's seq, which is exactly how
    /// receiver dedup windows recognize it).
    seq: Cell<u64>,
    /// Fault-injection state, present only on chaotic fabrics: per-link
    /// RNG streams and holdback slots, owned by this endpoint's driver.
    chaos: Option<RefCell<EndpointChaos>>,
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Number of nodes on the fabric.
    pub fn n_nodes(&self) -> usize {
        self.shared.senders.len()
    }

    /// The wire model in force.
    pub fn profile(&self) -> NetProfile {
        self.shared.profile
    }

    /// This endpoint's payload-buffer pool.  Check hot-path payloads out of
    /// it (directly or via [`crate::message::PayloadWriter::pooled`]) so
    /// steady-state traffic allocates nothing.
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// A cloneable [`DeathWatch`] over this fabric's death certificates.
    pub fn death_watch(&self) -> DeathWatch {
        DeathWatch {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Send `payload` to `dst` under `tag`.  Asynchronous; the modelled
    /// wire time is recorded on the message and charged at the receiver.
    ///
    /// Accepts anything [`Into<Payload>`]: a pool checkout or a sealed
    /// [`Payload`] ships with no copy, a `Vec<u8>` is adopted by refcount,
    /// a `&[u8]` is copied.
    pub fn send(&self, dst: usize, tag: u16, payload: impl Into<Payload>) -> Result<(), NetError> {
        self.send_payload(dst, tag, payload.into())
    }

    /// [`Endpoint::send`], recording that this one wire message carries a
    /// *batch* of `items` logical items (a migration train of `items`
    /// threads, say).  The fabric itself treats the payload like any other
    /// message; the batch counters exist so embedders can prove their
    /// coalescing works (`items_per_batch` on the stats snapshot).
    pub fn send_batched(
        &self,
        dst: usize,
        tag: u16,
        payload: impl Into<Payload>,
        items: usize,
    ) -> Result<(), NetError> {
        self.send_payload(dst, tag, payload.into())?;
        self.shared.stats[self.node].on_batch(items);
        Ok(())
    }

    fn send_payload(&self, dst: usize, tag: u16, payload: Payload) -> Result<(), NetError> {
        if dst >= self.shared.senders.len() {
            return Err(NetError::NoSuchNode(dst));
        }
        // A dead destination is unreachable; a dead *source* is a zombie
        // whose late traffic must be dropped at the NIC, not delivered.
        if self.shared.dead[dst].load(Ordering::Acquire) {
            return Err(NetError::NodeDead(dst));
        }
        if self.shared.dead[self.node].load(Ordering::Acquire) {
            return Err(NetError::NodeDead(self.node));
        }
        if self.partition_blocks(dst) {
            // A severed cable eats the frame silently: the sender sees
            // success and the protocol layer sees a timeout, exactly like
            // a real cut.  Counted, never errored.
            self.shared.stats[self.node].on_chaos_cut();
            return Ok(());
        }
        let len = payload.len();
        let mut wire_ns = if dst != self.node {
            self.shared.profile.delay_for(len).as_nanos() as u64
        } else {
            0
        };
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        // Self-sends have no NIC to misbehave, and protected tags are the
        // embedder's unacknowledged state-transfer traffic — both bypass
        // the fault dice (but still release any held message afterwards,
        // so a holdback never starves a link).
        let chaotic = self
            .chaos
            .as_ref()
            .filter(|c| dst != self.node && !c.borrow().plan.is_protected(tag));
        let verdict = match chaotic {
            Some(c) => c.borrow_mut().verdict(dst),
            None => Verdict::Deliver,
        };
        let stats = &self.shared.stats[self.node];
        if let Verdict::Delay(extra) = verdict {
            // Chaos delay is modelled wire time: charged at the receiver
            // on dequeue, like the profile's own latency — the wire clock
            // itself is never falsified.
            wire_ns += extra;
            stats.on_chaos_delay();
        }
        let msg = Message {
            src: self.node,
            dst,
            tag,
            seq,
            wire_ns,
            payload,
        };
        match verdict {
            Verdict::Drop => {
                stats.on_chaos_drop();
            }
            Verdict::Duplicate => {
                stats.on_chaos_dup();
                self.enqueue(msg.clone())?;
                self.enqueue(msg)?;
                self.flush_held(dst)?;
            }
            Verdict::Hold => {
                stats.on_chaos_hold();
                // One-slot bounded holdback per link: park the message;
                // it is released strictly *behind* the next send on this
                // link (the reorder).  A second hold releases both.
                let prev = self.chaos.as_ref().unwrap().borrow_mut().links[dst]
                    .held
                    .replace(msg);
                if let Some(h) = prev {
                    let ours = self.chaos.as_ref().unwrap().borrow_mut().links[dst]
                        .held
                        .take()
                        .expect("just parked");
                    self.enqueue(ours)?;
                    self.enqueue(h)?;
                }
            }
            Verdict::Deliver | Verdict::Delay(_) => {
                self.enqueue(msg)?;
                if self.chaos.is_some() {
                    self.flush_held(dst)?;
                }
            }
        }
        Ok(())
    }

    /// Enqueue one message on the destination's channel, ring its bell,
    /// count the send.  The chaos layer funnels every actual delivery —
    /// originals, duplicates, released holdbacks — through here.
    fn enqueue(&self, msg: Message) -> Result<(), NetError> {
        let (dst, len) = (msg.dst, msg.len());
        self.shared.senders[dst]
            .send(msg)
            .map_err(|_| NetError::Disconnected(dst))?;
        // Ring strictly *after* the enqueue: a driver that snapshots the
        // ring counter, finds its inbox empty and parks is then guaranteed
        // to observe either the message or the ring (see `doorbell`).
        self.shared.doorbells[dst].ring();
        self.shared.stats[self.node].on_send(len);
        Ok(())
    }

    /// Release the holdback slot of link `dst`, if occupied — always
    /// called after a delivery on that link, so a held message trails the
    /// one that flushed it by exactly one position.
    fn flush_held(&self, dst: usize) -> Result<(), NetError> {
        let held = self
            .chaos
            .as_ref()
            .and_then(|c| c.borrow_mut().links[dst].held.take());
        match held {
            Some(h) => self.enqueue(h),
            None => Ok(()),
        }
    }

    /// Is `self → dst` currently cut by a runtime partition
    /// ([`Endpoint::set_partition`]) or a scheduled plan window?
    fn partition_blocks(&self, dst: usize) -> bool {
        if dst == self.node {
            return false;
        }
        if self.shared.partition_on.load(Ordering::Acquire) {
            let groups = self.shared.partition.lock().unwrap();
            let (a, b) = (groups[self.node], groups[dst]);
            if a != WILD_GROUP && b != WILD_GROUP && a != b {
                return true;
            }
        }
        match &self.shared.plan {
            Some(p) if p.has_windows() => p.window_blocks(self.node, dst, self.shared.t0.elapsed()),
            _ => false,
        }
    }

    /// Impose a runtime partition: messages between nodes with different
    /// group ids are cut (silently dropped, both directions, all tags);
    /// [`WILD_GROUP`] entries reach everything.  `groups` must have one
    /// entry per node.  Overwrites any previous runtime partition; heal
    /// with [`Endpoint::clear_partition`].  Works on any fabric, fault
    /// plan or not.
    pub fn set_partition(&self, groups: Vec<u8>) {
        assert_eq!(groups.len(), self.n_nodes(), "one group id per node");
        *self.shared.partition.lock().unwrap() = groups;
        self.shared.partition_on.store(true, Ordering::Release);
    }

    /// Heal a [`Endpoint::set_partition`] cut.
    pub fn clear_partition(&self) {
        self.shared.partition_on.store(false, Ordering::Release);
    }

    fn charge_and_count(&self, m: Message) -> Message {
        if m.wire_ns > 0 {
            spin_for(Duration::from_nanos(m.wire_ns));
        }
        self.shared.stats[self.node].on_recv(m.len(), m.wire_ns);
        m
    }

    /// Send the same payload to every other node (negotiation scatter).
    ///
    /// The payload is sealed **once**; each destination receives a
    /// refcount bump of the same buffer, so fan-out cost is independent of
    /// the payload size and no per-destination copies are made.
    pub fn broadcast(&self, tag: u16, payload: impl Into<Payload>) -> Result<(), NetError> {
        let payload = payload.into();
        for dst in 0..self.n_nodes() {
            // Skip corpses: a broadcast reaches every *survivor* (e.g. the
            // NODE_DEAD announcement itself) instead of aborting at the
            // first dead destination.
            if dst != self.node && !self.is_dead(dst) {
                self.send_payload(dst, tag, payload.clone())?;
            }
        }
        Ok(())
    }

    /// Declare `node` dead fabric-wide.  Idempotent and irreversible: every
    /// subsequent send to — or from — `node` fails with
    /// [`NetError::NodeDead`].  Messages already enqueued are unaffected
    /// (they were "on the wire" when the node died); embedders drop those
    /// at dispatch by checking the source against their own dead set.
    pub fn mark_dead(&self, node: usize) {
        if let Some(flag) = self.shared.dead.get(node) {
            flag.store(true, Ordering::Release);
            // Wake the corpse's driver so it
            // can observe the death instead of parking forever.
            self.shared.doorbells[node].ring();
        }
    }

    /// Has `node` been declared dead?
    pub fn is_dead(&self, node: usize) -> bool {
        self.shared
            .dead
            .get(node)
            .is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Non-blocking poll.  If a message is pending, the caller pays its
    /// modelled wire time (the receive is where a BIP node spends the CPU).
    pub fn try_recv(&self) -> Option<Message> {
        match self.rx.try_recv() {
            Ok(m) => Some(self.charge_and_count(m)),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Blocking receive with a timeout; `None` on timeout or teardown.
    /// The wait is a genuine park (no polling): the channel wakes the
    /// caller the moment a message is enqueued.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Some(self.charge_and_count(m)),
            Err(_) => None,
        }
    }

    /// Blocking receive until `deadline`; `None` once the deadline passes
    /// (or on teardown).  Like [`Endpoint::recv_timeout`], this parks — it
    /// never slices the wait into polls.
    pub fn recv_until(&self, deadline: Instant) -> Option<Message> {
        let now = Instant::now();
        if now >= deadline {
            return self.try_recv();
        }
        self.recv_timeout(deadline - now)
    }

    /// The doorbell rung whenever a message is enqueued for this endpoint.
    /// A scheduler installs a listener on it
    /// ([`Doorbell::set_listener`]) to wake this endpoint's driver.
    pub fn doorbell(&self) -> &Doorbell {
        &self.shared.doorbells[self.node]
    }

    /// Statistics for this endpoint.
    pub fn stats(&self) -> EndpointStatsSnapshot {
        self.shared.stats[self.node].snapshot()
    }

    /// Statistics for an arbitrary node (host-side reporting).
    pub fn stats_of(&self, node: usize) -> Option<EndpointStatsSnapshot> {
        self.shared.stats.get(node).map(|s| s.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn point_to_point_delivery() {
        let eps = Fabric::new(2, NetProfile::instant(), None);
        eps[0].send(1, 7, vec![1, 2, 3]).unwrap();
        let m = eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((m.src, m.dst, m.tag), (0, 1, 7));
        assert_eq!(m.payload, vec![1, 2, 3]);
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn per_pair_ordering() {
        let eps = Fabric::new(2, NetProfile::instant(), None);
        for i in 0..100u8 {
            eps[0].send(1, 0, vec![i]).unwrap();
        }
        for i in 0..100u8 {
            let m = eps[1].try_recv().unwrap();
            assert_eq!(m.payload[0], i);
        }
    }

    #[test]
    fn per_endpoint_seq_is_monotonic_per_pair() {
        let eps = Fabric::new(3, NetProfile::instant(), None);
        for _ in 0..10 {
            eps[0].send(2, 0, Vec::new()).unwrap();
            eps[1].send(2, 0, Vec::new()).unwrap();
        }
        let mut last: [Option<u64>; 2] = [None, None];
        for _ in 0..20 {
            let m = eps[2].try_recv().unwrap();
            if let Some(prev) = last[m.src] {
                assert!(m.seq > prev, "seq must increase per sender");
            }
            last[m.src] = Some(m.seq);
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let mut eps = Fabric::new(2, NetProfile::instant(), None);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            let m = e1.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(m.tag, 9);
            e1.send(0, 10, m.payload).unwrap();
        });
        e0.send(1, 9, vec![42]).unwrap();
        let back = e0.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(back.tag, 10);
        assert_eq!(back.payload, vec![42]);
        t.join().unwrap();
    }

    #[test]
    fn wire_model_is_charged_at_the_receiver() {
        // 100 µs latency profile: sends are async and cheap…
        let profile = NetProfile {
            name: "test",
            latency_ns: 100_000,
            ns_per_byte: 0.0,
        };
        let eps = Fabric::new(2, profile, None);
        let t0 = Instant::now();
        for _ in 0..10 {
            eps[0].send(1, 0, Vec::new()).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_micros(500),
            "sends must be async"
        );
        // …while dequeuing the 10 messages serializes ≥ 1 ms of wire time.
        let t0 = Instant::now();
        for _ in 0..10 {
            eps[1].try_recv().unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_micros(1000));
        assert!(eps[1].stats().wire_ns >= 1_000_000);
        // Self-sends are free on both sides.
        let t0 = Instant::now();
        for _ in 0..10 {
            eps[0].send(0, 0, Vec::new()).unwrap();
            eps[0].try_recv().unwrap();
        }
        assert!(t0.elapsed() < Duration::from_micros(500));
    }

    #[test]
    fn broadcast_reaches_everyone_but_self() {
        let eps = Fabric::new(4, NetProfile::instant(), None);
        eps[2].broadcast(5, &[9]).unwrap();
        for (i, ep) in eps.iter().enumerate() {
            if i == 2 {
                assert!(ep.try_recv().is_none());
            } else {
                assert_eq!(ep.try_recv().unwrap().tag, 5);
            }
        }
    }

    #[test]
    fn broadcast_aliases_one_buffer() {
        let eps = Fabric::new(17, NetProfile::instant(), None);
        let mut b = eps[0].pool().checkout(1024);
        b.extend_from_slice(&[0xC3; 1024]);
        eps[0].broadcast(5, b).unwrap();
        let msgs: Vec<Message> = eps[1..]
            .iter()
            .map(|ep| ep.try_recv().expect("delivered"))
            .collect();
        let first = msgs[0].payload.as_ptr();
        for m in &msgs {
            assert_eq!(
                m.payload.as_ptr(),
                first,
                "all receivers must share one buffer"
            );
            assert_eq!(m.payload.len(), 1024);
        }
        // One checkout allocation for the whole 16-way fan-out…
        assert_eq!(eps[0].pool().stats().allocs, 1);
        // …recycled once the last receiver lets go.
        drop(msgs);
        assert_eq!(eps[0].pool().free_len(), 1);
    }

    #[test]
    fn pooled_sends_reuse_one_buffer() {
        let eps = Fabric::new(2, NetProfile::instant(), None);
        let mut ptr = None;
        for round in 0..32u8 {
            let mut b = eps[0].pool().checkout(256);
            b.extend_from_slice(&[round; 200]);
            eps[0].send(1, 3, b).unwrap();
            let m = eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.payload, vec![round; 200]);
            match ptr {
                None => ptr = Some(m.payload.as_ptr()),
                Some(p) => assert_eq!(m.payload.as_ptr(), p, "round {round} re-allocated"),
            }
        }
        let s = eps[0].pool().stats();
        assert_eq!(s.allocs, 1, "steady state must not allocate: {s:?}");
        assert_eq!(s.reuses, 31);
    }

    #[test]
    fn send_rings_destination_doorbell() {
        use std::sync::atomic::AtomicU64;
        let eps = Fabric::new(3, NetProfile::instant(), None);
        let hits: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for (ep, h) in eps.iter().zip(&hits) {
            let h = Arc::clone(h);
            ep.doorbell().set_listener(Arc::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }));
        }
        eps[0].send(1, 0, Vec::new()).unwrap();
        assert_eq!(hits[1].load(Ordering::SeqCst), 1);
        // Node 2's bell is untouched: per-endpoint bells are independent.
        assert_eq!(hits[2].load(Ordering::SeqCst), 0);
    }

    #[test]
    fn recv_until_respects_past_deadlines() {
        let eps = Fabric::new(2, NetProfile::instant(), None);
        // Expired deadline: degenerates to a non-blocking poll.
        assert!(eps[1].recv_until(Instant::now()).is_none());
        eps[0].send(1, 4, Vec::new()).unwrap();
        assert_eq!(eps[1].recv_until(Instant::now()).unwrap().tag, 4);
    }

    #[test]
    fn bad_destination() {
        let eps = Fabric::new(2, NetProfile::instant(), None);
        assert_eq!(eps[0].send(5, 0, Vec::new()), Err(NetError::NoSuchNode(5)));
    }

    #[test]
    fn dead_node_refuses_traffic_both_ways() {
        let eps = Fabric::new(3, NetProfile::instant(), None);
        eps[0].send(1, 0, vec![1]).unwrap();
        eps[0].mark_dead(1);
        assert!(
            eps[1].is_dead(1) && eps[2].is_dead(1),
            "death is fabric-wide"
        );
        // To the corpse: typed error, not enqueue-to-nowhere.
        assert_eq!(eps[0].send(1, 0, Vec::new()), Err(NetError::NodeDead(1)));
        // From the corpse (zombie): also refused.
        assert_eq!(eps[1].send(2, 0, Vec::new()), Err(NetError::NodeDead(1)));
        // In-flight messages from before the death are still deliverable.
        assert_eq!(eps[1].try_recv().unwrap().payload, vec![1]);
        // Broadcast skips the corpse and reaches the survivor.
        eps[0].broadcast(7, Vec::new()).unwrap();
        assert_eq!(eps[2].try_recv().unwrap().tag, 7);
        // mark_dead is idempotent.
        eps[2].mark_dead(1);
        assert!(eps[0].is_dead(1));
    }

    /// Drive the same send schedule through a chaotic fabric and return
    /// what node 1 actually receives, as (tag, seq) pairs.
    fn chaos_run(plan: FaultPlan, sends: usize) -> (Vec<(u16, u64)>, EndpointStatsSnapshot) {
        let eps = Fabric::new(2, NetProfile::instant(), Some(plan));
        for i in 0..sends {
            eps[0].send(1, (i % 7) as u16, vec![i as u8]).unwrap();
        }
        let mut got = Vec::new();
        while let Some(m) = eps[1].try_recv() {
            got.push((m.tag, m.seq));
        }
        (got, eps[0].stats())
    }

    #[test]
    fn identical_fault_plan_seeds_replay_byte_identically() {
        let plan = FaultPlan::lossy(0x5EED, 0.10).with_delay(0.05, Duration::from_nanos(10));
        let (a, sa) = chaos_run(plan.clone(), 2000);
        let (b, sb) = chaos_run(plan, 2000);
        assert_eq!(a, b, "same seed ⇒ identical delivered schedule");
        assert_eq!(sa, sb, "…and identical fault counters");
        assert!(sa.chaos_dropped > 0 && sa.chaos_duplicated > 0 && sa.chaos_held > 0);
        let (c, _) = chaos_run(FaultPlan::lossy(0x0DD5_EED0, 0.10), 2000);
        assert_ne!(a, c, "a different seed must reshuffle the schedule");
    }

    #[test]
    fn duplicates_reuse_the_original_seq() {
        // Duplicate everything: each send arrives exactly twice, the
        // copy carrying the same sequence number as the original.
        let plan = FaultPlan::new(1).with_duplicate(1.0);
        let (got, stats) = chaos_run(plan, 50);
        assert_eq!(got.len(), 100);
        assert_eq!(stats.chaos_duplicated, 50);
        for pair in got.chunks(2) {
            assert_eq!(pair[0], pair[1], "copy must be indistinguishable");
        }
    }

    #[test]
    fn holdback_reorders_behind_the_next_send() {
        // Hold everything: message k is parked and released behind
        // message k+1, so seqs arrive 1,0,3,2,…; the final message stays
        // parked (released only by later traffic on the link).
        let plan = FaultPlan::new(2).with_hold(1.0);
        let (got, stats) = chaos_run(plan, 6);
        let seqs: Vec<u64> = got.iter().map(|&(_, s)| s).collect();
        assert_eq!(seqs, vec![1, 0, 3, 2, 5, 4]);
        assert_eq!(stats.chaos_held, 6);
    }

    #[test]
    fn protected_tags_pass_untouched_and_flush_holdbacks() {
        let plan = FaultPlan::new(3).with_drop(1.0).protect_tags(&[9]);
        let eps = Fabric::new(2, NetProfile::instant(), Some(plan));
        eps[0].send(1, 0, Vec::new()).unwrap(); // dropped
        eps[0].send(1, 9, Vec::new()).unwrap(); // protected: delivered
        assert_eq!(eps[1].try_recv().unwrap().tag, 9);
        assert!(eps[1].try_recv().is_none());
        assert_eq!(eps[0].stats().chaos_dropped, 1);
    }

    #[test]
    fn self_sends_are_never_faulted() {
        let plan = FaultPlan::new(4).with_drop(1.0);
        let eps = Fabric::new(2, NetProfile::instant(), Some(plan));
        for _ in 0..20 {
            eps[0].send(0, 1, Vec::new()).unwrap();
            assert!(eps[0].try_recv().is_some(), "self-sends bypass chaos");
        }
        assert_eq!(eps[0].stats().chaos_dropped, 0);
    }

    #[test]
    fn chaos_delay_is_charged_at_the_receiver() {
        let plan = FaultPlan::new(5).with_delay(1.0, Duration::from_micros(200));
        let eps = Fabric::new(2, NetProfile::instant(), Some(plan));
        for _ in 0..5 {
            eps[0].send(1, 0, Vec::new()).unwrap();
        }
        let t0 = Instant::now();
        for _ in 0..5 {
            eps[1].try_recv().unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_micros(1000));
        assert_eq!(eps[0].stats().chaos_delayed, 5);
        assert!(eps[1].stats().wire_ns >= 1_000_000);
    }

    #[test]
    fn runtime_partition_cuts_then_heals() {
        let eps = Fabric::new(4, NetProfile::instant(), None);
        // {0,1} vs {2}; node 3 is wild (an embedder's host endpoint).
        eps[0].set_partition(vec![0, 0, 1, WILD_GROUP]);
        eps[0].send(2, 7, Vec::new()).unwrap(); // eaten silently
        eps[2].send(1, 7, Vec::new()).unwrap(); // eaten both directions
        eps[0].send(1, 8, Vec::new()).unwrap(); // intra-set: flows
        eps[3].send(2, 9, Vec::new()).unwrap(); // wild: flows
        assert!(eps[2].try_recv().map(|m| m.tag) == Some(9));
        assert!(eps[2].try_recv().is_none());
        assert_eq!(eps[1].try_recv().unwrap().tag, 8);
        assert!(eps[1].try_recv().is_none());
        assert_eq!(eps[0].stats().chaos_cut, 1);
        assert_eq!(eps[2].stats().chaos_cut, 1);
        // Heal: the same link carries traffic again.
        eps[1].clear_partition();
        eps[0].send(2, 11, Vec::new()).unwrap();
        assert_eq!(eps[2].try_recv().unwrap().tag, 11);
    }

    #[test]
    fn scheduled_partition_window_expires() {
        let plan = FaultPlan::partition(0, &[0], &[1], Duration::from_millis(60));
        let eps = Fabric::new(2, NetProfile::instant(), Some(plan));
        eps[0].send(1, 1, Vec::new()).unwrap();
        assert!(eps[1].try_recv().is_none(), "window open: cut");
        std::thread::sleep(Duration::from_millis(80));
        eps[0].send(1, 2, Vec::new()).unwrap();
        assert_eq!(eps[1].try_recv().unwrap().tag, 2, "window healed");
        assert_eq!(eps[0].stats().chaos_cut, 1);
    }

    #[test]
    fn stats_track_traffic() {
        let eps = Fabric::new(2, NetProfile::instant(), None);
        eps[0].send(1, 0, vec![0; 50]).unwrap();
        eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(eps[0].stats().msgs_sent, 1);
        assert_eq!(eps[0].stats().bytes_sent, 50);
        assert_eq!(eps[1].stats().msgs_recv, 1);
        assert_eq!(eps[0].stats_of(1).unwrap().bytes_recv, 50);
    }
}
