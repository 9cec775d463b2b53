//! Seeded message-level fault injection — the chaos fabric.
//!
//! A [`FaultPlan`] describes, per directed link, which faults the fabric
//! may inject on the send path: **drop**, **duplicate** (same sequence
//! number, so receiver dedup windows catch it), **delay** (extra modelled
//! wire time, charged at the receiver like any other wire cost), **hold**
//! (a bounded one-slot holdback per link that releases behind the next
//! send, producing a genuine same-class reorder), and **partitions**
//! (transient bidirectional cuts between two node sets, either scheduled
//! on the plan or toggled at runtime through
//! [`crate::Endpoint::set_partition`]).
//!
//! Determinism: every link owns its own SplitMix64 stream seeded from
//! `(plan seed, src, dst)`, and decisions are drawn one per eligible send
//! in send order.  Two fabrics built from the same plan and driven with
//! the same per-endpoint send sequences therefore inject byte-identical
//! fault schedules — chaos runs replay exactly in deterministic mode.
//! (Scheduled partition windows are the one wall-clock element; replay
//! tests use the RNG-driven faults.)
//!
//! Scoping: faults never apply to self-sends (no NIC on that path), and
//! tags listed in [`FaultPlan::protect_tags`] are exempt from every
//! RNG-driven fault — embedders protect their unacknowledged
//! state-transfer messages (a migration train *is* the thread) while
//! leaving retried request/reply traffic chaotic.  The modelled wire
//! clock itself is never corrupted: a delayed message still pays
//! `latency + bytes × cost (+ chaos delay)` at the receiver, exactly
//! once.

use std::time::Duration;

use crate::message::Message;

/// Parts-per-million helper: probability `p` (0.0..=1.0) as ppm.
fn ppm(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * 1_000_000.0) as u32
}

/// The same SplitMix64 the test kit uses, embedded so this crate keeps
/// zero dependencies and the schedule is reproducible from a bare seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Roll an event with probability `ppm` parts-per-million.
    fn roll(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.next_u64() % 1_000_000 < ppm as u64
    }
}

/// A scheduled transient partition: nodes in `a` cannot reach nodes in
/// `b` (bidirectionally) while the window is open, measured from fabric
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PartitionWindow {
    a: Vec<usize>,
    b: Vec<usize>,
    start: Duration,
    dur: Duration,
}

/// A seeded per-link fault schedule.  Build one with [`FaultPlan::new`]
/// (or the [`FaultPlan::lossy`] preset), tune it with the `with_*`
/// knobs, and hand it to `Fabric::new`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_ppm: u32,
    dup_ppm: u32,
    delay_ppm: u32,
    delay: Duration,
    hold_ppm: u32,
    windows: Vec<PartitionWindow>,
    /// Tags exempt from RNG-driven faults (sorted for binary search).
    protected: Vec<u16>,
}

impl FaultPlan {
    /// A plan that injects nothing until knobs are turned.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            delay: Duration::from_micros(200),
            hold_ppm: 0,
            windows: Vec::new(),
            protected: Vec::new(),
        }
    }

    /// Preset: a uniformly lossy network.  Each eligible message is
    /// dropped with probability `loss`, duplicated or held back with a
    /// quarter of that probability each — the mix a retried control
    /// plane has to survive.
    pub fn lossy(seed: u64, loss: f64) -> Self {
        FaultPlan::new(seed)
            .with_drop(loss)
            .with_duplicate(loss / 4.0)
            .with_hold(loss / 4.0)
    }

    /// Preset: one scheduled bidirectional partition between node sets
    /// `a` and `b`, open for `dur` starting at fabric construction.
    /// (For a partition opened mid-run, use
    /// [`crate::Endpoint::set_partition`] instead.)
    pub fn partition(seed: u64, a: &[usize], b: &[usize], dur: Duration) -> Self {
        FaultPlan::new(seed).with_partition_window(a, b, Duration::ZERO, dur)
    }

    /// Drop each eligible message with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_ppm = ppm(p);
        self
    }

    /// Duplicate each eligible message (same seq) with probability `p`.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.dup_ppm = ppm(p);
        self
    }

    /// Add `extra` modelled wire time to each eligible message with
    /// probability `p`.
    pub fn with_delay(mut self, p: f64, extra: Duration) -> Self {
        self.delay_ppm = ppm(p);
        self.delay = extra;
        self
    }

    /// Hold each eligible message back (one-slot bounded holdback per
    /// link, released behind the next send on that link) with
    /// probability `p` — the reorder fault.
    pub fn with_hold(mut self, p: f64) -> Self {
        self.hold_ppm = ppm(p);
        self
    }

    /// Add a scheduled partition window (see [`FaultPlan::partition`]).
    pub fn with_partition_window(
        mut self,
        a: &[usize],
        b: &[usize],
        start: Duration,
        dur: Duration,
    ) -> Self {
        self.windows.push(PartitionWindow {
            a: a.to_vec(),
            b: b.to_vec(),
            start,
            dur,
        });
        self
    }

    /// Exempt `tags` from every RNG-driven fault.  Embedders list their
    /// unacknowledged state-transfer tags here; partitions still cut
    /// everything (a severed cable does not read headers).
    pub fn protect_tags(mut self, tags: &[u16]) -> Self {
        self.protected.extend_from_slice(tags);
        self.protected.sort_unstable();
        self.protected.dedup();
        self
    }

    /// The plan's seed (for reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Does any scheduled window cut `src → dst` at `elapsed` since
    /// fabric construction?
    pub(crate) fn window_blocks(&self, src: usize, dst: usize, elapsed: Duration) -> bool {
        self.windows.iter().any(|w| {
            elapsed >= w.start
                && elapsed < w.start + w.dur
                && ((w.a.contains(&src) && w.b.contains(&dst))
                    || (w.b.contains(&src) && w.a.contains(&dst)))
        })
    }

    pub(crate) fn is_protected(&self, tag: u16) -> bool {
        self.protected.binary_search(&tag).is_ok()
    }

    pub(crate) fn has_windows(&self) -> bool {
        !self.windows.is_empty()
    }

    fn link_rng(&self, src: usize, dst: usize) -> SplitMix64 {
        // Decorrelate links: fold (src, dst) into the seed through one
        // mix round so adjacent links draw unrelated streams.
        let mut s = SplitMix64(
            self.seed ^ ((src as u64) << 32) ^ (dst as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        SplitMix64(s.next_u64())
    }
}

/// What the fault roll decided for one eligible message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Deliver,
    Drop,
    Duplicate,
    /// Deliver with `extra_ns` added to the modelled wire time.
    Delay(u64),
    /// Park in the link's holdback slot; released behind the next send.
    Hold,
}

/// Per-link chaos state owned by one endpoint: the link's RNG stream and
/// its one-slot holdback queue.  Single-threaded (the owning driver),
/// hence plain fields behind the endpoint's `RefCell`.
#[derive(Debug)]
pub(crate) struct LinkState {
    rng: SplitMix64,
    pub(crate) held: Option<Message>,
}

/// One endpoint's view of the fault plan: a [`LinkState`] per
/// destination.
#[derive(Debug)]
pub(crate) struct EndpointChaos {
    pub(crate) plan: FaultPlan,
    pub(crate) links: Vec<LinkState>,
}

impl EndpointChaos {
    pub(crate) fn new(plan: &FaultPlan, src: usize, n: usize) -> Self {
        let links = (0..n)
            .map(|dst| LinkState {
                rng: plan.link_rng(src, dst),
                held: None,
            })
            .collect();
        EndpointChaos {
            plan: plan.clone(),
            links,
        }
    }

    /// Roll the fault dice for one eligible message on link `dst`.
    /// Exactly one draw per call, in send order — the determinism
    /// contract.
    pub(crate) fn verdict(&mut self, dst: usize) -> Verdict {
        let plan = &self.plan;
        let rng = &mut self.links[dst].rng;
        if rng.roll(plan.drop_ppm) {
            return Verdict::Drop;
        }
        if rng.roll(plan.dup_ppm) {
            return Verdict::Duplicate;
        }
        if rng.roll(plan.hold_ppm) {
            return Verdict::Hold;
        }
        if rng.roll(plan.delay_ppm) {
            return Verdict::Delay(plan.delay.as_nanos() as u64);
        }
        Verdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_verdict_streams() {
        let plan = FaultPlan::lossy(0xDEAD_BEEF, 0.05).with_delay(0.02, Duration::from_micros(50));
        let mut a = EndpointChaos::new(&plan, 0, 4);
        let mut b = EndpointChaos::new(&plan, 0, 4);
        for i in 0..10_000 {
            let dst = i % 4;
            assert_eq!(a.verdict(dst), b.verdict(dst), "message {i}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let pa = FaultPlan::lossy(1, 0.10);
        let pb = FaultPlan::lossy(2, 0.10);
        let mut a = EndpointChaos::new(&pa, 0, 2);
        let mut b = EndpointChaos::new(&pb, 0, 2);
        let same = (0..10_000).filter(|_| a.verdict(1) == b.verdict(1)).count();
        assert!(same < 10_000, "independent seeds must not replay");
    }

    #[test]
    fn links_draw_independent_streams() {
        let plan = FaultPlan::lossy(7, 0.5);
        let mut c = EndpointChaos::new(&plan, 0, 3);
        let s1: Vec<_> = (0..100).map(|_| c.verdict(1)).collect();
        let s2: Vec<_> = (0..100).map(|_| c.verdict(2)).collect();
        assert_ne!(s1, s2, "links 0→1 and 0→2 must be decorrelated");
    }

    #[test]
    fn loss_rate_tracks_the_knob() {
        let plan = FaultPlan::new(42).with_drop(0.01);
        let mut c = EndpointChaos::new(&plan, 0, 2);
        let drops = (0..100_000)
            .filter(|_| c.verdict(1) == Verdict::Drop)
            .count();
        assert!((600..1400).contains(&drops), "1% of 100k ≈ {drops}");
    }

    #[test]
    fn scheduled_window_cuts_both_directions_then_heals() {
        let plan = FaultPlan::partition(0, &[0, 1], &[2, 3], Duration::from_millis(100));
        let mid = Duration::from_millis(50);
        let after = Duration::from_millis(150);
        assert!(plan.window_blocks(0, 2, mid));
        assert!(plan.window_blocks(3, 1, mid));
        assert!(!plan.window_blocks(0, 1, mid), "intra-set traffic flows");
        assert!(!plan.window_blocks(0, 2, after), "the window heals");
    }

    #[test]
    fn protected_tags_are_recognized() {
        let plan = FaultPlan::new(0).protect_tags(&[4, 1, 4, 9]);
        assert!(plan.is_protected(1));
        assert!(plan.is_protected(4));
        assert!(plan.is_protected(9));
        assert!(!plan.is_protected(2));
    }
}
