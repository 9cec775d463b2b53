//! Slot-layer statistics.
//!
//! Counters are atomics so that the host (bench harness, audits) can read
//! them while node schedulers are running.  Every counter only grows and
//! nothing resets them: a measurement window is two snapshots and
//! [`SlotStatsSnapshot::since`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

counters::counters! {
    /// Shared, live statistics for one node's slot manager.
    pub struct SlotStats;
    /// Plain-data snapshot of [`SlotStats`].
    pub struct SlotStatsSnapshot {
        /// Single-slot acquisitions satisfied from the local bitmap.
        local_acquires,
        /// Multi-slot (contiguous) acquisitions satisfied locally.
        multi_acquires,
        /// Acquisitions that had to report "negotiation required".
        negotiation_required,
        /// Slot releases (ownership returned to this node).
        releases,
        /// Single-slot acquisitions served by the mmapped-slot cache (no mmap).
        cache_hits,
        /// Single-slot acquisitions that had to mmap.
        cache_misses,
        /// Slots this node sold to other nodes during negotiations.
        slots_sold,
        /// Slots this node bought from other nodes during negotiations.
        slots_bought,
        /// Slots this node lent to peers through point-to-point slot trades.
        slots_lent,
        /// Slots this node adopted from peers through slot trades.
        slots_adopted,
        /// mmap (commit) calls issued.
        commits,
        /// munmap-equivalent (decommit) calls issued.
        decommits,
    }
}

impl SlotStats {
    /// Fresh zeroed stats behind an `Arc`.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl std::fmt::Display for SlotStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "acquires: {} local / {} multi / {} needing negotiation; releases: {}; \
             cache: {} hits / {} misses; negotiated: {} sold / {} bought; \
             traded: {} lent / {} adopted; mmap: {} commits / {} decommits",
            self.local_acquires,
            self.multi_acquires,
            self.negotiation_required,
            self.releases,
            self.cache_hits,
            self.cache_misses,
            self.slots_sold,
            self.slots_bought,
            self.slots_lent,
            self.slots_adopted,
            self.commits,
            self.decommits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = SlotStats::default();
        SlotStats::bump(&s.local_acquires);
        SlotStats::bump(&s.local_acquires);
        SlotStats::add(&s.slots_sold, 5);
        let snap = s.snapshot();
        assert_eq!(snap.local_acquires, 2);
        assert_eq!(snap.slots_sold, 5);
        assert_eq!(snap.cache_hits, 0);
        // Display shouldn't panic and should mention the numbers.
        let text = snap.to_string();
        assert!(text.contains("2 local"));
    }
}
