//! The process-wide iso-address area (paper §3.1, §4.1 and Fig. 5).
//!
//! One [`IsoArea`] is reserved per "machine" (cluster simulation).  All
//! nodes of that machine allocate their slots *within the same reservation*,
//! which is exactly the paper's premise — "the iso-address area covers the
//! same virtual address range on all nodes" — taken to its logical extreme:
//! since a slot busy on one node is guaranteed free on every other node, the
//! nodes' live mappings never collide and can legally coexist in a single
//! address space.
//!
//! The area enforces that invariant at runtime: [`IsoArea::commit_slots`]
//! atomically records which slots are mapped process-wide and fails loudly
//! on any overlap.  A passing test suite is therefore a machine-checked
//! proof that the slot-ownership protocol never double-allocates an
//! address.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::error::{IsoAddrError, Result};
use crate::layout::AreaConfig;
use crate::slots::{SlotRange, VAddr};
use crate::sys;

/// How logical commit/decommit of slots maps onto the host kernel.
///
/// The paper's nodes `mmap`/`munmap` slots directly (§4.1), and §6 already
/// introduces a cache of mmapped slots *because those syscalls are the
/// dominant cost*.  Sandboxed or virtualized kernels can make each page-
/// table operation 100×+ slower than the paper's hardware, which would put
/// host-kernel artifacts — not the algorithms — in every measurement, so
/// the area supports two strategies with identical observable semantics
/// (enforced by the same accounting; see `strategy_equivalence` test):
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapStrategy {
    /// Faithful syscalls: commit = `mprotect(RW)`, decommit = fresh
    /// `mmap(PROT_NONE, MAP_FIXED)` dropping the pages.  Reads of
    /// uncommitted slots fault, exactly like the paper's system.
    Syscall,
    /// The whole area is committed read/write once at reservation; logical
    /// commit is accounting only and logical decommit is accounting plus an
    /// erase that leaves every byte zero (preserving "a fresh commit reads
    /// zeroes").  The erase reads each page and writes only the pages that
    /// hold a nonzero byte, so a departing thread's never-written stack
    /// pages cost a read, not a rewrite, and untouched pages stay on the
    /// kernel's zero page instead of becoming resident.  This is the
    /// paper's §6 mmap-avoidance taken to its limit and is the default for
    /// benchmarking.  Relaxation: stray reads of uncommitted slots return
    /// zeroes instead of faulting — the invariant checker still catches any
    /// double *commit*.
    Resident,
}

/// A reserved iso-address area divided into fixed-size slots.
pub struct IsoArea {
    base: VAddr,
    cfg: AreaConfig,
    strategy: MapStrategy,
    /// One bit per slot: 1 ⇔ currently committed (mapped R/W) by some node.
    /// This is *process-global accounting*, not ownership — ownership lives
    /// in the per-node bitmaps and per-thread slot lists.
    mapped: Vec<AtomicU64>,
    /// Running count of committed slots (for stats / leak checks).
    committed: AtomicUsize,
}

// SAFETY: all mutation goes through atomics; the raw memory behind `base`
// is handed out in disjoint slot ranges guarded by `mapped`.
unsafe impl Send for IsoArea {}
unsafe impl Sync for IsoArea {}

impl IsoArea {
    /// Reserve a fresh iso-address area with the default (Resident)
    /// strategy.
    pub fn new(cfg: AreaConfig) -> Result<Self> {
        Self::with_strategy(cfg, MapStrategy::Resident)
    }

    /// Reserve a fresh iso-address area with an explicit map strategy.
    pub fn with_strategy(cfg: AreaConfig, strategy: MapStrategy) -> Result<Self> {
        cfg.validate()?;
        let base = sys::reserve_anywhere(cfg.area_size())?;
        if strategy == MapStrategy::Resident {
            // One mprotect for the whole area; pages materialize on touch.
            // SAFETY: fresh reservation, exclusively ours.
            unsafe { sys::commit(base, cfg.area_size())? };
        }
        let n_words = cfg.n_slots.div_ceil(64);
        let mapped = (0..n_words).map(|_| AtomicU64::new(0)).collect();
        Ok(IsoArea {
            base,
            cfg,
            strategy,
            mapped,
            committed: AtomicUsize::new(0),
        })
    }

    /// The map strategy in force.
    pub fn strategy(&self) -> MapStrategy {
        self.strategy
    }

    /// Base virtual address of the area.
    pub fn base(&self) -> VAddr {
        self.base
    }

    /// Geometry of the area.
    pub fn config(&self) -> AreaConfig {
        self.cfg
    }

    /// Slot size in bytes.
    #[inline]
    pub fn slot_size(&self) -> usize {
        self.cfg.slot_size
    }

    /// Total number of slots.
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.cfg.n_slots
    }

    /// Virtual address of the first byte of slot `idx`.
    #[inline]
    pub fn slot_addr(&self, idx: usize) -> VAddr {
        debug_assert!(idx < self.cfg.n_slots);
        self.base + idx * self.cfg.slot_size
    }

    /// Virtual address range `[start, end)` of a slot range.
    pub fn range_addr(&self, range: SlotRange) -> (VAddr, VAddr) {
        (
            self.slot_addr(range.first),
            self.slot_addr(range.first) + range.count * self.slot_size(),
        )
    }

    /// Slot index containing virtual address `addr`.
    pub fn slot_of(&self, addr: VAddr) -> Result<usize> {
        if addr < self.base || addr >= self.base + self.cfg.area_size() {
            return Err(IsoAddrError::OutOfArea(addr));
        }
        Ok((addr - self.base) / self.cfg.slot_size)
    }

    /// Does `addr` fall inside the area?
    pub fn contains(&self, addr: VAddr) -> bool {
        addr >= self.base && addr < self.base + self.cfg.area_size()
    }

    /// Number of slots currently committed process-wide.
    pub fn committed_slots(&self) -> usize {
        self.committed.load(Ordering::Relaxed)
    }

    /// Atomically mark `range` as mapped; error if any slot already was.
    fn account_commit(&self, range: SlotRange) -> Result<()> {
        // Set bits one slot at a time, checking the previous value.  On
        // conflict, clear the bits this call set — exactly the slots before
        // the conflicting one — and report the violation.
        for idx in range.iter() {
            let prev = self.mapped[idx / 64].fetch_or(slot_bit(idx), Ordering::AcqRel);
            if prev & slot_bit(idx) != 0 {
                for set in range.first..idx {
                    self.mapped[set / 64].fetch_and(!slot_bit(set), Ordering::AcqRel);
                }
                return Err(IsoAddrError::DoubleCommit(range));
            }
        }
        self.committed.fetch_add(range.count, Ordering::Relaxed);
        Ok(())
    }

    /// Atomically mark `range` as unmapped; error if any slot wasn't mapped.
    fn account_decommit(&self, range: SlotRange) -> Result<()> {
        for idx in range.iter() {
            let prev = self.mapped[idx / 64].fetch_and(!slot_bit(idx), Ordering::AcqRel);
            if prev & slot_bit(idx) == 0 {
                return Err(IsoAddrError::NotCommitted(range));
            }
        }
        self.committed.fetch_sub(range.count, Ordering::Relaxed);
        Ok(())
    }

    /// Commit (map read/write) the memory of `range`.
    ///
    /// Fails with [`IsoAddrError::DoubleCommit`] if any slot of the range is
    /// already mapped anywhere in the process — the iso-address invariant.
    pub fn commit_slots(&self, range: SlotRange) -> Result<VAddr> {
        if range.count == 0 || range.end() > self.cfg.n_slots {
            return Err(IsoAddrError::BadConfig(format!("bad slot range {range:?}")));
        }
        self.account_commit(range)?;
        let (start, end) = self.range_addr(range);
        if self.strategy == MapStrategy::Syscall {
            // SAFETY: the accounting above guarantees exclusive use of the
            // range within this area's reservation.
            if let Err(e) = unsafe { sys::commit(start, end - start) } {
                let _ = self.account_decommit(range);
                return Err(e);
            }
        }
        Ok(start)
    }

    /// Decommit the memory of `range`: afterwards every byte of it reads
    /// zero at the next commit.
    ///
    /// * [`MapStrategy::Syscall`] drops the pages (fresh `PROT_NONE`
    ///   mapping, the paper's `munmap`).
    /// * [`MapStrategy::Resident`] keeps the range mapped and erases it in
    ///   place: each page is scanned a cache line at a time and zero-filled
    ///   from its first nonzero line onwards; all-zero pages are only read.
    ///   A thread's stack slot is mostly pages it never wrote, so this is
    ///   what keeps the erase off a migration's critical path.
    pub fn decommit_slots(&self, range: SlotRange) -> Result<()> {
        if range.count == 0 || range.end() > self.cfg.n_slots {
            return Err(IsoAddrError::BadConfig(format!("bad slot range {range:?}")));
        }
        self.account_decommit(range)?;
        let (start, end) = self.range_addr(range);
        match self.strategy {
            // SAFETY: accounting says we own the only mapping of the range.
            MapStrategy::Syscall => unsafe { sys::decommit(start, end - start) },
            MapStrategy::Resident => {
                // SAFETY: as above; the range stays mapped RW.
                unsafe { zero_dirty_pages(start, end) };
                Ok(())
            }
        }
    }

    /// Is slot `idx` currently committed (mapped) process-wide?
    pub fn is_committed(&self, idx: usize) -> bool {
        self.mapped[idx / 64].load(Ordering::Acquire) & slot_bit(idx) != 0
    }
}

/// Bit of slot `idx` within its word of [`IsoArea::mapped`].
#[inline]
fn slot_bit(idx: usize) -> u64 {
    1u64 << (idx % 64)
}

/// Bytes per line of the dirty-page scan: one cache line.
const SCAN_LINE: usize = 64;

/// One cache line, as the words the scan ORs together.
type Line = [u64; SCAN_LINE / 8];

/// Leave every byte of the page-aligned range `[start, end)` zero while
/// writing only pages that hold a nonzero byte.  Each page is read one
/// cache line at a time; a page that reads all zero is left alone, and a
/// dirty one is zero-filled from its first nonzero line to its end (the
/// lines before it read zero).
///
/// Reading is the whole cost on clean pages, so the loop is compiled
/// twice: for the baseline instruction set and for AVX2, picked at run
/// time on x86-64 CPUs that have it (a cached feature flag), whose
/// 32-byte loads read a line in two loads instead of four.  On a 2-vCPU
/// Xeon VM that halves the erase of a mostly clean 64 KiB stack slot,
/// from about 1 µs to 0.5 µs per hop.
///
/// # Safety
/// `[start, end)` must be mapped read/write and exclusively owned by the
/// caller.
unsafe fn zero_dirty_pages(start: VAddr, end: VAddr) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return zero_dirty_pages_avx2(start, end);
    }
    erase_dirty_pages(start, end)
}

/// [`zero_dirty_pages`] compiled for AVX2.
///
/// # Safety
/// As [`zero_dirty_pages`], and the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zero_dirty_pages_avx2(start: VAddr, end: VAddr) {
    erase_dirty_pages(start, end)
}

/// Body of [`zero_dirty_pages`], inlined into each instruction-set
/// variant.
///
/// The page test ORs the page's lines into two line-wide accumulators,
/// alternating, so consecutive loads do not wait on each other's OR; the
/// loop has no branch but its bound and compiles to a few vector loads
/// and ORs per line.  Testing each line as it is read costs about twice
/// as much on pages backed by the kernel's zero page, where most of a
/// stack slot stays.  The helpers are written out word by word so
/// unoptimized (test) builds make no iterator calls.
///
/// # Safety
/// As [`zero_dirty_pages`].
#[inline(always)]
unsafe fn erase_dirty_pages(start: VAddr, end: VAddr) {
    let page = sys::page_size();
    debug_assert!(start.is_multiple_of(page) && end.is_multiple_of(page));
    let line_at = |addr: VAddr| &*(addr as *const Line);
    let mut page_start = start;
    while page_start < end {
        let page_end = page_start + page;
        let mut even: Line = [0; SCAN_LINE / 8];
        let mut odd: Line = [0; SCAN_LINE / 8];
        let mut line = page_start;
        while line < page_end {
            or_into(&mut even, line_at(line));
            or_into(&mut odd, line_at(line + SCAN_LINE));
            line += 2 * SCAN_LINE;
        }
        or_into(&mut even, &odd);
        if !is_zero(&even) {
            let mut line = page_start;
            while is_zero(line_at(line)) {
                line += SCAN_LINE;
            }
            std::ptr::write_bytes(line as *mut u8, 0, page_end - line);
        }
        page_start = page_end;
    }
}

#[inline(always)]
fn or_into(acc: &mut Line, l: &Line) {
    acc[0] |= l[0];
    acc[1] |= l[1];
    acc[2] |= l[2];
    acc[3] |= l[3];
    acc[4] |= l[4];
    acc[5] |= l[5];
    acc[6] |= l[6];
    acc[7] |= l[7];
}

#[inline(always)]
fn is_zero(l: &Line) -> bool {
    l[0] | l[1] | l[2] | l[3] | l[4] | l[5] | l[6] | l[7] == 0
}

impl Drop for IsoArea {
    fn drop(&mut self) {
        // SAFETY: we created the reservation in `new` and nothing may hold
        // references into a dropped area.
        unsafe {
            let _ = sys::release(self.base, self.cfg.area_size());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_area() -> IsoArea {
        IsoArea::new(AreaConfig::small()).unwrap()
    }

    #[test]
    fn geometry() {
        let a = small_area();
        assert_eq!(a.n_slots(), 64);
        assert_eq!(a.slot_addr(0), a.base());
        assert_eq!(a.slot_addr(1), a.base() + a.slot_size());
        assert_eq!(a.slot_of(a.base()).unwrap(), 0);
        assert_eq!(a.slot_of(a.base() + a.slot_size() * 3 + 17).unwrap(), 3);
        assert!(a.slot_of(a.base() - 1).is_err());
        assert!(a.slot_of(a.base() + a.config().area_size()).is_err());
    }

    #[test]
    fn commit_write_read_decommit() {
        let a = small_area();
        let r = SlotRange::new(5, 2);
        let addr = a.commit_slots(r).unwrap();
        assert_eq!(addr, a.slot_addr(5));
        assert_eq!(a.committed_slots(), 2);
        unsafe {
            let p = addr as *mut u8;
            std::ptr::write_bytes(p, 0xAB, a.slot_size() * 2);
            assert_eq!(p.add(a.slot_size() * 2 - 1).read(), 0xAB);
        }
        a.decommit_slots(r).unwrap();
        assert_eq!(a.committed_slots(), 0);
    }

    #[test]
    fn double_commit_is_detected() {
        let a = small_area();
        a.commit_slots(SlotRange::new(10, 4)).unwrap();
        // Exact overlap.
        assert_eq!(
            a.commit_slots(SlotRange::new(10, 4)),
            Err(IsoAddrError::DoubleCommit(SlotRange::new(10, 4)))
        );
        // Partial overlap; roll-back must leave non-overlapping part free,
        // whether the conflict is the first slot or follows slots this
        // commit had already marked.
        assert!(a.commit_slots(SlotRange::new(13, 2)).is_err());
        assert!(a.commit_slots(SlotRange::new(7, 4)).is_err());
        assert!((7..10).all(|idx| !a.is_committed(idx)));
        a.commit_slots(SlotRange::new(14, 2)).unwrap();
        a.commit_slots(SlotRange::new(7, 3)).unwrap();
        assert_eq!(a.committed_slots(), 9);
    }

    #[test]
    fn decommit_unmapped_is_detected() {
        let a = small_area();
        assert!(matches!(
            a.decommit_slots(SlotRange::new(0, 1)),
            Err(IsoAddrError::NotCommitted(_))
        ));
    }

    #[test]
    fn fresh_commit_is_zeroed() {
        let a = small_area();
        let r = SlotRange::single(7);
        let addr = a.commit_slots(r).unwrap();
        unsafe {
            (addr as *mut u64).write(0x1122_3344_5566_7788);
        }
        a.decommit_slots(r).unwrap();
        let addr = a.commit_slots(r).unwrap();
        unsafe {
            assert_eq!((addr as *const u64).read(), 0, "decommit must drop pages");
        }
        a.decommit_slots(r).unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let a = small_area();
        assert!(a.commit_slots(SlotRange::new(63, 2)).is_err());
        assert!(a.commit_slots(SlotRange::new(0, 0)).is_err());
    }

    /// Both strategies expose identical observable semantics.
    #[test]
    fn strategy_equivalence() {
        let page = sys::page_size();
        for strategy in [MapStrategy::Syscall, MapStrategy::Resident] {
            let a = IsoArea::with_strategy(AreaConfig::small(), strategy).unwrap();
            assert_eq!(a.strategy(), strategy);
            let r = SlotRange::new(3, 2);
            let addr = a.commit_slots(r).unwrap();
            let len = 2 * a.slot_size();
            unsafe {
                // Fresh commit reads zero; writes stick.
                assert_eq!((addr as *const u64).read(), 0, "{strategy:?}");
                (addr as *mut u64).write(0xA5A5);
                // Dirty every third page at its first word, its last word
                // or both (the rest of those pages, and every other page,
                // stays untouched): the erase must find either end.
                for (k, p) in (page..len).step_by(3 * page).enumerate() {
                    if k % 3 != 1 {
                        ((addr + p) as *mut u64).write(0x5A5A);
                    }
                    if k % 3 != 0 {
                        ((addr + p + page - 8) as *mut u64).write(0x5A5A);
                    }
                }
            }
            // Double commit detected identically.
            assert!(matches!(
                a.commit_slots(SlotRange::new(4, 1)),
                Err(IsoAddrError::DoubleCommit(_))
            ));
            a.decommit_slots(r).unwrap();
            // Decommit of unmapped detected identically.
            assert!(a.decommit_slots(r).is_err());
            // Recommit reads zero again, every byte (pages dropped /
            // erased).
            let addr = a.commit_slots(r).unwrap();
            let bytes = unsafe { std::slice::from_raw_parts(addr as *const u8, len) };
            let dirty = bytes.iter().position(|&b| b != 0);
            assert_eq!(dirty, None, "{strategy:?}: nonzero byte after decommit");
            a.decommit_slots(r).unwrap();
            assert_eq!(a.committed_slots(), 0);
        }
    }

    #[test]
    fn syscall_strategy_still_maps_and_unmaps() {
        let a = IsoArea::with_strategy(AreaConfig::small(), MapStrategy::Syscall).unwrap();
        let r = SlotRange::single(0);
        let addr = a.commit_slots(r).unwrap();
        unsafe {
            std::ptr::write_bytes(addr as *mut u8, 0xEE, a.slot_size());
        }
        a.decommit_slots(r).unwrap();
        // (Reading now would fault — that is the point of Syscall mode.)
        let addr = a.commit_slots(r).unwrap();
        unsafe { assert_eq!((addr as *const u8).read(), 0) };
        a.decommit_slots(r).unwrap();
    }

    #[test]
    fn concurrent_commit_same_slot_only_one_wins() {
        use std::sync::Arc;
        let a = Arc::new(small_area());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                a.commit_slots(SlotRange::new(20, 3)).is_ok() as usize
            }));
        }
        let wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(wins, 1);
        assert_eq!(a.committed_slots(), 3);
    }
}
