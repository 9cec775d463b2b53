//! The node executor: M node drivers on N worker threads.
//!
//! Thread-per-node stops scaling long before the paper-sized p = 256: the
//! OS pays a stack and a scheduler entity per node, and a mostly-idle
//! machine still wakes hundreds of threads to do nothing.  This executor
//! turns each node into a state machine scheduled onto a fixed worker
//! pool:
//!
//! ```text
//!            ring (doorbell listener)          pop + CAS
//!   Idle ───────────────────────────▶ Queued ───────────▶ Running
//!    ▲                                  ▲                   │ │
//!    │ CAS Running→Idle (nothing to do) │ budget exhausted, │ │
//!    └──────────────────────────────────┴─ or Notified ─────┘ └▶ Done
//! ```
//!
//! * Every endpoint doorbell gets a listener
//!   ([`madeleine::Doorbell::set_listener`]) that moves the node
//!   `Idle → Queued` and pushes it on the shared ready queue.  Because a
//!   sender enqueues its message *before* ringing, a node observed `Idle`
//!   by the listener has the message already visible to its next pump.
//! * A ring landing while the node runs flips it `Running → Notified`;
//!   the worker's park attempt (`Running → Idle`) then fails and requeues
//!   instead — the wakeup is deferred, never dropped.
//! * **Wake-ups go to work a sleeping worker would actually get.**  A
//!   push made by a node's driver code in the middle of a dispatch (a
//!   departing thread's train ringing its destination, a message
//!   answered from the pump, a node requeueing itself) wakes no peer at
//!   once: that worker returns to the queue as soon as its node runs
//!   dry, and on a chain of single hops it takes the entry itself long
//!   before a woken peer could.  Waking one anyway costs a futex syscall
//!   — and on a virtual machine an inter-processor interrupt to a halted
//!   vCPU — on every hop, for a peer that almost always finds the queue
//!   empty again.  The wake is owed, not dropped: it is paid between
//!   steps if the dispatch goes on (its node still has ready threads or
//!   messages), and a worker that pops an entry and leaves more behind
//!   wakes a sleeping peer for them.  Pushes from inside a green thread
//!   (whose quantum may run on for any time), from the host or from the
//!   tick sweep wake a sleeper immediately, and no push signals a condvar
//!   nobody waits on.
//! * **Step budget**: a worker steps one node at most `budget` times per
//!   dispatch, then swaps it to the *tail* of the queue.  Threaded
//!   machines use [`FAIRNESS`], so one flooded node costs every quiet node
//!   at most one budget's worth of latency per lap instead of starving
//!   them outright.
//! * **Tick sweep**: protocol timers (failure detector, gossip rounds,
//!   periodic checkpoints, the `idle_park` liveness backstop) must fire on
//!   nodes nobody sends to.  After every dispatch, and whenever a pop
//!   times out, a worker checks an atomic sweep deadline; the one that
//!   claims it requeues every `Idle` node — counted as a `driver_wakeups`
//!   tick.  Checking after dispatches, not just on empty-queue timeouts,
//!   keeps a busy node from starving every idle node's timers.
//!
//! **Deterministic mode** is the same executor with one worker and a
//! one-step budget: the FIFO ready queue then steps the runnable nodes in
//! strict rotation on one OS thread, so identical programs produce
//! identical interleavings.
//!
//! `NodeCtx` stays single-driver: the state machine guarantees a node is
//! `Running` on at most one worker, and the per-node mutex (uncontended in
//! steady state) makes that ownership transfer a proper happens-before
//! edge, so green-thread stacks and the scheduler migrate between workers
//! safely — `NodeCtx::activate` rebinds the TLS pointers on every
//! dispatch, and marcel caches nothing across context switches.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use crate::node::{NodeCtx, NodeStats};

/// Node driver states (see the module diagram).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Threaded-mode step budget: driver steps one dispatch may spend on a
/// single node before it goes to the back of the ready queue.  Each step
/// already bounds its message work by `pump_budget`, so one dispatch is at
/// most `FAIRNESS × pump_budget` messages plus `FAIRNESS` thread quanta.
pub(crate) const FAIRNESS: usize = 32;

thread_local! {
    /// The pool whose node this OS thread is dispatching, if any: pushes
    /// into that pool owe a wake-up instead of making one (module docs).
    static DISPATCHING: Cell<*const Inner> = const { Cell::new(std::ptr::null()) };
    /// A push during the current dispatch left a wake-up unpaid.
    static WAKE_OWED: Cell<bool> = const { Cell::new(false) };
}

/// The ready queue and the workers blocked waiting on it.
struct Ready {
    queue: VecDeque<usize>,
    /// Workers parked in `cv.wait_timeout`: with none, a notify would be
    /// a wasted futex syscall.
    sleeping: usize,
}

struct Inner {
    /// One slot per node.  The mutex is uncontended by construction (the
    /// state machine admits one runner); it exists to make cross-worker
    /// handoff sound rather than to arbitrate.
    nodes: Vec<Mutex<NodeCtx>>,
    states: Vec<AtomicU8>,
    /// Shared handles on each node's stats, so state transitions can count
    /// parks/wakeups without locking the node.
    stats: Vec<Arc<NodeStats>>,
    ready: Mutex<Ready>,
    cv: Condvar,
    /// Nodes not yet `Done`; at zero the pool drains and exits.
    live: AtomicUsize,
    /// Most driver steps per dispatch.
    budget: usize,
    /// Sweep cadence — the `idle_park` backstop, tightened to the fastest
    /// armed protocol timer.
    tick_every: Duration,
    /// Origin of `next_tick`.
    epoch: Instant,
    /// Next due tick sweep, in ns since `epoch`.  Atomic so the check after
    /// every dispatch takes no lock; a CAS elects one sweeper per period.
    next_tick: AtomicU64,
}

impl Inner {
    fn push(&self, id: usize) {
        let mut r = self.ready.lock().unwrap();
        r.queue.push_back(id);
        if std::ptr::eq(DISPATCHING.get(), self) && !marcel::in_thread() {
            WAKE_OWED.set(true);
        } else if r.sleeping > 0 {
            self.cv.notify_one();
        }
    }

    /// Pay a wake-up owed by this dispatch: the dispatch is going on, so
    /// queued work would otherwise wait for it.
    fn pay_owed_wake(&self) {
        if WAKE_OWED.replace(false) {
            let r = self.ready.lock().unwrap();
            if !r.queue.is_empty() && r.sleeping > 0 {
                self.cv.notify_one();
            }
        }
    }

    /// Doorbell listener body: route a ring on `id`'s bell into the ready
    /// queue (or defer it if the node is mid-run).
    fn notify(&self, id: usize) {
        loop {
            match self.states[id].load(Ordering::SeqCst) {
                IDLE => {
                    if self.states[id]
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.stats[id]
                            .driver_wakeups
                            .fetch_add(1, Ordering::Relaxed);
                        self.push(id);
                        return;
                    }
                }
                RUNNING => {
                    if self.states[id]
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued / already deferred / dead: the pending
                // dispatch will observe the message.
                _ => return,
            }
        }
    }

    /// Time left until the next tick sweep is due.
    fn until_tick(&self) -> Duration {
        let now = self.epoch.elapsed().as_nanos() as u64;
        Duration::from_nanos(self.next_tick.load(Ordering::Relaxed).saturating_sub(now))
    }

    /// Timer backstop: once per `tick_every`, requeue every idle node so
    /// its protocol timers (detector scan, gossip round, periodic
    /// checkpoint) get a step.  Cheap when not due (one clock read, one
    /// load); the CAS makes exactly one worker sweep each period.
    fn tick_sweep(&self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let next = self.next_tick.load(Ordering::Relaxed);
        if now < next {
            return;
        }
        let due = now + self.tick_every.as_nanos() as u64;
        if self
            .next_tick
            .compare_exchange(next, due, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        for id in 0..self.states.len() {
            if self.states[id]
                .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.stats[id]
                    .driver_wakeups
                    .fetch_add(1, Ordering::Relaxed);
                self.push(id);
            }
        }
    }

    /// One dispatch: run `id` for up to the step budget, then park,
    /// requeue, or retire it.
    fn run_node(self: &Arc<Inner>, id: usize) {
        if self.states[id]
            .compare_exchange(QUEUED, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // Only Done can be observed here (each queue entry corresponds
            // to exactly one Idle/Running→Queued transition).
            return;
        }
        let mut ctx = self.nodes[id].lock().unwrap();
        ctx.activate();
        let mut worked = false;
        for _ in 0..self.budget {
            worked = ctx.step();
            if !worked {
                break;
            }
            if ctx.has_pending_work() || self.states[id].load(Ordering::SeqCst) == NOTIFIED {
                self.pay_owed_wake();
            }
        }
        ctx.maybe_ack_shutdown();
        if ctx.finished() {
            self.states[id].store(DONE, Ordering::SeqCst);
            drop(ctx);
            if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last node retired: wake every parked worker to exit.
                let _r = self.ready.lock().unwrap();
                self.cv.notify_all();
            }
            return;
        }
        if worked {
            // Budget exhausted with work still pending: back of the line
            // (the fairness edge — a flood waits for everyone else's turn).
            // Overwrites a concurrent Notified, which is then redundant.
            drop(ctx);
            self.states[id].store(QUEUED, Ordering::SeqCst);
            self.push(id);
            return;
        }
        // Nothing to do: try to park.  A ring that landed mid-run left
        // Notified, in which case requeue instead — the deferred wakeup.
        self.stats[id].driver_parks.fetch_add(1, Ordering::Relaxed);
        drop(ctx);
        if self.states[id]
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // Went Notified; the park was momentary.
            self.stats[id]
                .driver_wakeups
                .fetch_add(1, Ordering::Relaxed);
            self.states[id].store(QUEUED, Ordering::SeqCst);
            self.push(id);
        }
    }

    fn worker_loop(self: &Arc<Inner>) {
        loop {
            let popped = {
                let mut r = self.ready.lock().unwrap();
                loop {
                    if self.live.load(Ordering::SeqCst) == 0 {
                        return;
                    }
                    if let Some(id) = r.queue.pop_front() {
                        if !r.queue.is_empty() && r.sleeping > 0 {
                            // More than this worker can take: pass it on.
                            self.cv.notify_one();
                        }
                        break Some(id);
                    }
                    let wait = self.until_tick();
                    if wait.is_zero() {
                        break None;
                    }
                    r.sleeping += 1;
                    r = self.cv.wait_timeout(r, wait).unwrap().0;
                    r.sleeping -= 1;
                }
            };
            if let Some(id) = popped {
                DISPATCHING.set(Arc::as_ptr(self));
                self.run_node(id);
                DISPATCHING.set(std::ptr::null());
                WAKE_OWED.set(false);
            }
            self.tick_sweep();
        }
    }
}

/// Launch the worker pool.  Installs a doorbell listener per node, seeds
/// the ready queue with every node (so initial timers and any pre-launch
/// traffic get a first step), and spawns `workers` OS threads that step a
/// node at most `budget` times per dispatch.  The pool owns the node
/// contexts; joining the returned handles (after the last node retires)
/// drops them.  The returned counter is the number of workers still
/// running: each decrements it as its last act.
pub(crate) fn spawn_pool(
    ctxs: Vec<NodeCtx>,
    workers: usize,
    budget: usize,
    tick_every: Duration,
) -> (Vec<std::thread::JoinHandle<()>>, Arc<AtomicUsize>) {
    let n = ctxs.len();
    let stats = ctxs.iter().map(|c| Arc::clone(&c.stats)).collect();
    let bells: Vec<madeleine::Doorbell> = ctxs.iter().map(|c| c.ep.doorbell().clone()).collect();
    let inner = Arc::new(Inner {
        nodes: ctxs.into_iter().map(Mutex::new).collect(),
        states: (0..n).map(|_| AtomicU8::new(QUEUED)).collect(),
        stats,
        ready: Mutex::new(Ready {
            queue: (0..n).collect(),
            sleeping: 0,
        }),
        cv: Condvar::new(),
        live: AtomicUsize::new(n),
        budget: budget.max(1),
        tick_every,
        epoch: Instant::now(),
        next_tick: AtomicU64::new(tick_every.as_nanos() as u64),
    });
    // Listeners hold a Weak: the bells live inside the fabric the nodes
    // themselves own, so a strong reference would be a cycle that leaks
    // every NodeCtx (and its iso-area mappings) at machine teardown.
    for (id, bell) in bells.iter().enumerate() {
        let w: Weak<Inner> = Arc::downgrade(&inner);
        bell.set_listener(Arc::new(move || {
            if let Some(inner) = w.upgrade() {
                inner.notify(id);
            }
        }));
    }
    let workers = workers.max(1);
    let running = Arc::new(AtomicUsize::new(workers));
    let handles = (0..workers)
        .map(|i| {
            let inner = Arc::clone(&inner);
            let running = Arc::clone(&running);
            std::thread::Builder::new()
                .name(format!("pm2-worker{i}"))
                .spawn(move || {
                    inner.worker_loop();
                    // Drop the pool (and with the last worker, every node)
                    // before reporting this worker gone.
                    drop(inner);
                    running.fetch_sub(1, Ordering::SeqCst);
                })
                .expect("spawning executor worker")
        })
        .collect();
    (handles, running)
}
