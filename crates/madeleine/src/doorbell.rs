//! The endpoint doorbell: the event that makes drivers event-driven.
//!
//! Every [`Endpoint::send`](crate::Endpoint::send) *rings* the destination
//! endpoint's [`Doorbell`] after the message is enqueued.  A ring invokes
//! the bell's listener, if one is installed: an embedder's scheduler
//! (PM2's node executor) routes it into its ready queue, so an idle
//! driver is woken by traffic instead of spin- or sleep-polling its inbox
//! — the difference between a node burning a whole OS timeslice per poll
//! (≈1 ms of migration latency on a busy host) and a futex wake-up (a few
//! µs).
//!
//! Because a sender enqueues the message *before* ringing, a listener that
//! schedules the receiving driver can never lose a wakeup: the driver's
//! next receive observes the message.  Threads that want to block on an
//! inbox directly use [`Endpoint::recv_until`](crate::Endpoint::recv_until),
//! which parks on the channel itself.

use std::sync::{Arc, OnceLock};

/// Callback invoked on every ring.
pub type RingListener = Arc<dyn Fn() + Send + Sync>;

/// A cloneable wake-up hook between senders and an endpoint's driver.
///
/// Cloning is a refcount bump; all clones share one listener slot.
#[derive(Clone, Default)]
pub struct Doorbell {
    listener: Arc<OnceLock<RingListener>>,
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell")
            .field("listener", &self.listener.get().map(|_| "…"))
            .finish()
    }
}

impl Doorbell {
    /// Fresh doorbell with no listener.
    pub fn new() -> Doorbell {
        Doorbell::default()
    }

    /// Ring: invoke the listener, if any.
    pub fn ring(&self) {
        if let Some(l) = self.listener.get() {
            l();
        }
    }

    /// Install a ring listener.  At most one listener per bell; later calls
    /// are ignored.  The listener runs on the sending thread and may take
    /// locks of its own.
    pub fn set_listener(&self, l: RingListener) {
        let _ = self.listener.set(l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn listener_fires_on_every_ring_from_any_clone() {
        let db = Doorbell::new();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        db.set_listener(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        db.ring();
        db.clone().ring();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        // Second install is a no-op, the first listener keeps firing.
        db.set_listener(Arc::new(|| panic!("must not replace")));
        db.ring();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn listener_may_ring_sibling_bells_without_deadlock() {
        // The executor pattern: a listener takes its own lock and touches
        // other state.  Re-ringing the same bell from the listener would
        // recurse forever, but ringing *another* bell must be safe.
        let a = Doorbell::new();
        let b = Doorbell::new();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_listener(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        let b2 = b.clone();
        a.set_listener(Arc::new(move || b2.ring()));
        a.ring();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
