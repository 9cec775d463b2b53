//! Machine-wide registries: thread completions, host spawn payloads, and
//! the LRPC service table.
//!
//! The completion registry is the simulation stand-in for PM2's thread-exit
//! notification: on a real cluster, node-local exits are signalled to
//! waiters via Madeleine messages (which we also send, for cross-node
//! joins); the process-global table lets the *host* (the test or bench
//! driver, which is not a node) block on a condition variable.
//!
//! Since the v1 typed facade, a completion carries more than a panicked
//! bit: the panic *message* (so a failing test names its assertion, not
//! just "thread panicked") and, for value-returning threads, the
//! [`Wire`](madeleine::wire::Wire)-encoded return value.  Both travel in
//! the `THREAD_EXIT` protocol message for cross-node joins, so a typed
//! join observes the same bytes whether the thread died at home or three
//! migrations away.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Completion record of a finished thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadExit {
    /// Thread id.
    pub tid: u64,
    /// Did the thread body panic?
    pub panicked: bool,
    /// Node the thread died on (≠ home node after migrations).
    pub died_on: usize,
    /// Panic payload text, when the body panicked with a string message.
    pub panic_msg: Option<String>,
    /// Wire-encoded return value, for threads spawned through a
    /// value-returning entry point (`spawn_on_ret`, `pm2_thread_create_ret`).
    pub value: Option<Vec<u8>>,
    /// Set when the thread did not exit at all: its node died and no
    /// checkpoint covered it.  Typed joins surface this as
    /// [`Pm2Error::NodeFailed`](crate::error::Pm2Error::NodeFailed) before
    /// any other interpretation.
    pub failed_node: Option<usize>,
}

impl ThreadExit {
    /// A plain (valueless, message-less) completion.
    pub fn plain(tid: u64, panicked: bool, died_on: usize) -> Self {
        ThreadExit {
            tid,
            panicked,
            died_on,
            panic_msg: None,
            value: None,
            failed_node: None,
        }
    }

    /// The completion of a thread that never exited: its node died
    /// uncheckpointed.  `panicked` is set too so untyped joins (`pm2_join`)
    /// also report failure rather than success.
    pub fn node_failed(tid: u64, node: usize) -> Self {
        ThreadExit {
            tid,
            panicked: true,
            died_on: node,
            panic_msg: Some(format!("node {node} failed before the thread exited")),
            value: None,
            failed_node: Some(node),
        }
    }

    /// The panic message, or a placeholder when none was captured.
    pub fn panic_message(&self) -> &str {
        self.panic_msg.as_deref().unwrap_or("thread panicked")
    }

    /// Interpret this completion as a typed join result: the panic (with
    /// its message) if the body panicked, otherwise the `Wire`-decoded
    /// return value.  Shared by every typed join surface
    /// (`JoinHandle::join`/`try_join`, `pm2_join_value`).
    pub fn typed_value<R: madeleine::Wire>(self) -> crate::error::Result<R> {
        use crate::error::Pm2Error;
        if let Some(n) = self.failed_node {
            return Err(Pm2Error::NodeFailed(n));
        }
        if self.panicked {
            return Err(Pm2Error::Panicked(self.panic_message().to_string()));
        }
        match self.value {
            Some(bytes) => R::decode_vec(&bytes).ok_or(Pm2Error::Decode("joined value")),
            None => Err(Pm2Error::Decode("thread returned no value")),
        }
    }
}

/// Machine-wide completion registry.
#[derive(Default)]
pub struct Registry {
    done: Mutex<HashMap<u64, ThreadExit>>,
    cv: Condvar,
    /// Host-side value mailbox for [`Machine::run_on`]: arbitrary (non-
    /// `Wire`) values cannot travel through byte messages, so `run_on`
    /// threads park them here under their tid — the documented in-process
    /// shortcut, exactly like [`SpawnTable`] for closures.
    values: Mutex<HashMap<u64, Box<dyn Any + Send>>>,
    /// Thread location table: tid → node currently (believed to be)
    /// hosting it.  Written at spawn-send time (optimistically, so a spawn
    /// in flight toward a dying node is still accounted for), updated on
    /// train adoption, cleared on completion.  Recovery reads it to learn
    /// which tids the dead node owned; on a real cluster this would be the
    /// home-node forwarding table the paper assumes.
    locations: Mutex<HashMap<u64, usize>>,
}

impl Registry {
    /// Fresh shared registry.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Registry::default())
    }

    /// Record a completion and wake waiters.
    pub fn complete(&self, exit: ThreadExit) {
        self.clear_location(exit.tid);
        self.done.lock().unwrap().insert(exit.tid, exit);
        self.cv.notify_all();
    }

    /// Record a completion only if none exists — the cross-node
    /// `THREAD_EXIT` path, which in this in-process simulation always
    /// trails the dying node's direct [`Registry::complete`].  Overwriting
    /// would resurrect a return value a typed join already consumed.
    pub fn complete_if_absent(&self, exit: ThreadExit) {
        self.clear_location(exit.tid);
        self.done.lock().unwrap().entry(exit.tid).or_insert(exit);
        self.cv.notify_all();
    }

    /// Non-blocking completion query.
    pub fn poll(&self, tid: u64) -> Option<ThreadExit> {
        self.done.lock().unwrap().get(&tid).cloned()
    }

    /// Non-blocking completion query without the return-value bytes —
    /// what wait loops should use, so polling never copies an
    /// arbitrarily large encoded value just to look at the flags.
    pub fn poll_meta(&self, tid: u64) -> Option<ThreadExit> {
        self.done.lock().unwrap().get(&tid).map(|e| ThreadExit {
            tid: e.tid,
            panicked: e.panicked,
            died_on: e.died_on,
            panic_msg: e.panic_msg.clone(),
            value: None,
            failed_node: e.failed_node,
        })
    }

    /// Non-blocking completion query that *moves* the stored return-value
    /// bytes out of the record (they can be arbitrarily large; retaining
    /// them after the one typed join that wants them would grow the
    /// registry without bound).  The completion record itself stays, so
    /// repeated `pm2_join`/`poll` keep working; a second *typed* join of
    /// the same tid reports "thread returned no value".
    pub fn take_typed_exit(&self, tid: u64) -> Option<ThreadExit> {
        let mut done = self.done.lock().unwrap();
        let entry = done.get_mut(&tid)?;
        let value = entry.value.take();
        let mut exit = entry.clone();
        exit.value = value;
        Some(exit)
    }

    /// Block the calling *host* thread until `tid` completes (never call
    /// from a Marcel thread — those must poll + yield).
    pub fn wait(&self, tid: u64, timeout: Duration) -> Option<ThreadExit> {
        let deadline = Instant::now() + timeout;
        let mut done = self.done.lock().unwrap();
        loop {
            if let Some(e) = done.get(&tid) {
                return Some(e.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            done = self.cv.wait_timeout(done, deadline - now).unwrap().0;
        }
    }

    /// Number of recorded completions.
    pub fn completed_count(&self) -> usize {
        self.done.lock().unwrap().len()
    }

    /// Park an arbitrary host-bound value under `tid` (see `values`).
    pub fn put_value(&self, tid: u64, v: Box<dyn Any + Send>) {
        self.values.lock().unwrap().insert(tid, v);
    }

    /// Take the host-bound value parked under `tid`, if any.
    pub fn take_value(&self, tid: u64) -> Option<Box<dyn Any + Send>> {
        self.values.lock().unwrap().remove(&tid)
    }

    /// Record (or move) a live thread's location.
    pub fn set_location(&self, tid: u64, node: usize) {
        self.locations.lock().unwrap().insert(tid, node);
    }

    /// Forget a completed thread's location.
    pub fn clear_location(&self, tid: u64) {
        self.locations.lock().unwrap().remove(&tid);
    }

    /// Where a live thread currently is, if known.
    pub fn location(&self, tid: u64) -> Option<usize> {
        self.locations.lock().unwrap().get(&tid).copied()
    }

    /// Every live tid believed to be on `node` — the dead node's victim
    /// list at recovery time.
    pub fn located_on(&self, node: usize) -> Vec<u64> {
        self.locations
            .lock()
            .unwrap()
            .iter()
            .filter(|&(_, &n)| n == node)
            .map(|(&t, _)| t)
            .collect()
    }
}

/// Host → node spawn payloads (closures cannot travel through byte
/// messages; the host parks them here and ships the key).
///
/// This is an explicitly documented in-process shortcut: on a real cluster
/// the equivalent facility is the LRPC [`ServiceTable`] below, whose service
/// code is replicated on every node by the SPMD model.
#[derive(Default)]
pub struct SpawnTable {
    /// Key counter — a plain atomic, not a mutex: `park` is called from
    /// arbitrarily many host threads at once and only needs uniqueness.
    next: AtomicU64,
    table: Mutex<HashMap<u64, Box<dyn FnOnce() + Send + 'static>>>,
}

impl SpawnTable {
    /// Fresh shared table.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(SpawnTable::default())
    }

    /// Park a closure, returning its key.
    pub fn park(&self, f: Box<dyn FnOnce() + Send + 'static>) -> u64 {
        let key = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        self.table.lock().unwrap().insert(key, f);
        key
    }

    /// Take a parked closure.
    pub fn take(&self, key: u64) -> Option<Box<dyn FnOnce() + Send + 'static>> {
        self.table.lock().unwrap().remove(&key)
    }
}

/// LRPC service table: named thread bodies, registered before launch and
/// conceptually replicated on every node (SPMD).  A remote spawn ships only
/// the service id and an argument byte string — exactly how PM2's LRPC
/// starts handler threads on remote nodes.
///
/// This is the fire-and-forget, paper-faithful layer.  The typed
/// request/reply facade lives in [`crate::service`].
#[derive(Default)]
pub struct ServiceTable {
    table: Mutex<HashMap<u32, RawService>>,
}

/// A byte-level fire-and-forget service body.
pub type RawService = Arc<dyn Fn(Vec<u8>) + Send + Sync + 'static>;

impl ServiceTable {
    /// Fresh shared table.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(ServiceTable::default())
    }

    /// Register service `id`.  Panics on duplicate registration.
    pub fn register(&self, id: u32, f: Arc<dyn Fn(Vec<u8>) + Send + Sync + 'static>) {
        let prev = self.table.lock().unwrap().insert(id, f);
        assert!(prev.is_none(), "service {id} registered twice");
    }

    /// Look up service `id`.
    pub fn get(&self, id: u32) -> Option<Arc<dyn Fn(Vec<u8>) + Send + Sync + 'static>> {
        self.table.lock().unwrap().get(&id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_wait_and_poll() {
        let r = Registry::new_shared();
        assert!(r.poll(5).is_none());
        let r2 = Arc::clone(&r);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            r2.complete(ThreadExit::plain(5, false, 1));
        });
        let e = r.wait(5, Duration::from_secs(5)).unwrap();
        assert_eq!(e.died_on, 1);
        assert!(!e.panicked);
        h.join().unwrap();
        assert_eq!(r.completed_count(), 1);
    }

    #[test]
    fn registry_wait_times_out() {
        let r = Registry::default();
        assert!(r.wait(99, Duration::from_millis(10)).is_none());
    }

    #[test]
    fn registry_value_mailbox() {
        let r = Registry::default();
        r.put_value(7, Box::new(123_i32));
        let v = r.take_value(7).unwrap().downcast::<i32>().unwrap();
        assert_eq!(*v, 123);
        assert!(r.take_value(7).is_none());
    }

    #[test]
    fn exit_panic_message_fallback() {
        let mut e = ThreadExit::plain(1, true, 0);
        assert_eq!(e.panic_message(), "thread panicked");
        e.panic_msg = Some("assertion failed: x == y".into());
        assert_eq!(e.panic_message(), "assertion failed: x == y");
    }

    #[test]
    fn spawn_table_take_once() {
        let t = SpawnTable::default();
        let k = t.park(Box::new(|| {}));
        assert!(t.take(k).is_some());
        assert!(t.take(k).is_none());
    }

    #[test]
    fn service_table_lookup() {
        let t = ServiceTable::default();
        t.register(3, Arc::new(|args| assert_eq!(args, b"x")));
        let f = t.get(3).unwrap();
        f(b"x".to_vec());
        assert!(t.get(4).is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn service_double_registration_panics() {
        let t = ServiceTable::default();
        t.register(1, Arc::new(|_| {}));
        t.register(1, Arc::new(|_| {}));
    }
}
