//! Per-endpoint traffic statistics.

use std::sync::atomic::Ordering;

counters::counters! {
    /// Live atomic counters for one endpoint.
    pub struct EndpointStats;
    /// Plain-data snapshot of [`EndpointStats`].
    pub struct EndpointStatsSnapshot {
        /// Messages sent.
        msgs_sent,
        /// Payload bytes sent.
        bytes_sent,
        /// Messages received.
        msgs_recv,
        /// Payload bytes received.
        bytes_recv,
        /// Modelled wire nanoseconds charged at this receiver (paid
        /// dequeuing: the wire model is receiver-clocked).
        wire_ns,
        /// Messages sent through [`crate::Endpoint::send_batched`] — wire
        /// messages that carry a *train* of logical items (e.g. k migrating
        /// threads) instead of one item per message.
        batch_msgs_sent,
        /// Total logical items carried by those batched messages.  The ratio
        /// `batch_items_sent / batch_msgs_sent` is the mean train length
        /// (threads per message, for the migration path).
        batch_items_sent,
        /// Chaos: messages dropped by the fault plan on this sender.
        chaos_dropped,
        /// Chaos: messages duplicated (the extra copy reuses the original's
        /// seq, so receiver dedup windows see it).
        chaos_duplicated,
        /// Chaos: messages given extra modelled wire delay.
        chaos_delayed,
        /// Chaos: messages parked in a link's holdback slot (reordered).
        chaos_held,
        /// Messages eaten by a partition cut (runtime or scheduled window).
        chaos_cut,
    }
}

impl EndpointStats {
    pub(crate) fn on_send(&self, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn on_batch(&self, items: usize) {
        self.batch_msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.batch_items_sent
            .fetch_add(items as u64, Ordering::Relaxed);
    }

    pub(crate) fn on_recv(&self, bytes: usize, wire_ns: u64) {
        self.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
        self.wire_ns.fetch_add(wire_ns, Ordering::Relaxed);
    }

    pub(crate) fn on_chaos_drop(&self) {
        self.chaos_dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_chaos_dup(&self) {
        self.chaos_duplicated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_chaos_delay(&self) {
        self.chaos_delayed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_chaos_hold(&self) {
        self.chaos_held.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_chaos_cut(&self) {
        self.chaos_cut.fetch_add(1, Ordering::Relaxed);
    }
}

impl EndpointStatsSnapshot {
    /// Mean logical items per batched message (1.0 when none were sent):
    /// for the migration path, the observed threads-per-message train
    /// length.
    pub fn items_per_batch(&self) -> f64 {
        if self.batch_msgs_sent == 0 {
            return 1.0;
        }
        self.batch_items_sent as f64 / self.batch_msgs_sent as f64
    }
}

impl std::fmt::Display for EndpointStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent {} msgs / {} B, received {} msgs / {} B",
            self.msgs_sent, self.bytes_sent, self.msgs_recv, self.bytes_recv
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = EndpointStats::default();
        s.on_send(100);
        s.on_send(24);
        s.on_recv(7, 1500);
        let snap = s.snapshot();
        assert_eq!(snap.msgs_sent, 2);
        assert_eq!(snap.bytes_sent, 124);
        assert_eq!(snap.msgs_recv, 1);
        assert_eq!(snap.bytes_recv, 7);
        assert_eq!(snap.wire_ns, 1500);
        assert_eq!(snap.items_per_batch(), 1.0, "no batches yet");
    }

    #[test]
    fn batch_counters_yield_mean_train_length() {
        let s = EndpointStats::default();
        s.on_batch(7);
        s.on_batch(1);
        let snap = s.snapshot();
        assert_eq!(snap.batch_msgs_sent, 2);
        assert_eq!(snap.batch_items_sent, 8);
        assert_eq!(snap.items_per_batch(), 4.0);
    }
}
