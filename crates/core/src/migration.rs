//! The migration engine (paper §2, three steps):
//!
//! 1. **Freeze & pack** — each thread is stopped at a scheduling point (its
//!    context is saved in its descriptor, which lives in its stack slot);
//!    we serialize its stack slot (metadata + live stack only) and each of
//!    its heap slots (metadata + busy blocks only, the §6 optimization),
//!    then unmap everything on the source node.  No bitmap changes: the
//!    slots still belong to the thread.  Unmapping erases what was not
//!    packed (free-block payloads, the dead part of the stack); in the
//!    default resident map strategy the erase reads every page and
//!    rewrites only the dirty ones, so a thread pays for the pages it
//!    wrote, not for the whole slot.
//! 2. **Send** — the buffer crosses the Madeleine fabric.
//! 3. **Adopt & unpack** — the destination maps the same slot ranges at the
//!    same virtual addresses, copies the extents back, and enqueues the
//!    thread.  Because every pointer in the thread's universe is an
//!    iso-address, *nothing* is fixed up: "an iso-address copy is enough".
//!
//! ## Migration trains
//!
//! The iso-address property makes a packed thread fully
//! position-independent, so *k* threads bound for the same node can ride
//! **one** wire message — a *train* — paying the per-message latency once
//! instead of k times.  Every `MIGRATION` payload is a train (k = 1 for an
//! ordinary solo migration):
//!
//! ```text
//! u32  count                         number of threads in the train
//! count × {                          per-thread table (fixed size, so it
//!     u64 tid                        is readable even when the records
//!     u32 off                        behind it are garbage)
//!     u32 len
//! }
//! bytes                              concatenated per-thread record groups;
//!                                    entry i's group is payload[off..off+len]
//! ```
//!
//! Fault isolation is **per record group**: a corrupt or truncated group is
//! rolled back (its partially adopted slot ranges surrendered again) and
//! its tid reported for a `MIGRATION_NAK`, while every other thread in the
//! train adopts and runs.  Only an unreadable *table* (a buffer too short
//! for its own header) rejects the train as a whole — there are no tids to
//! name in that case.
//!
//! The gather is **single-pass and allocation-free in steady state**: the
//! buffer is checked out of the sending endpoint's [`BufPool`] and sized
//! up front from each thread's occupancy (live stack extents plus the O(1)
//! per-slot `free_blocks`/`used_bytes` hint), so the pack never regrows
//! the buffer, and the receiver's drop recycles it for the next train.

use std::collections::HashSet;

use isoaddr::{NodeSlotManager, SlotProvider, SlotRange};
use isomalloc::layout::SlotKind;
use isomalloc::pack::{
    full_record_size, heap_pack_hint, pack_full, pack_heap_slot, pack_raw_extents, peek_header,
    record_size, unpack_into_mapped,
};
use madeleine::{BufPool, Payload};
use marcel::{desc_addr, DescPtr};

use crate::error::{Pm2Error, Result};

/// Train header: thread count.
const TRAIN_HDR: usize = 4;
/// Train table entry: tid + record-group offset + length.
const TRAIN_ENTRY: usize = 8 + 4 + 4;

/// What a train unpack produced: the threads that landed and the threads
/// whose record groups were rejected (with the reason, for the NAK).
#[derive(Debug, Default)]
pub(crate) struct TrainOutcome {
    pub adopted: Vec<DescPtr>,
    pub rejected: Vec<(u64, String)>,
}

/// Occupancy hint for one thread's record group (stack + heap slots).
///
/// # Safety
/// `d` must be a frozen thread resident on the packing node.
unsafe fn thread_pack_hint(d: DescPtr, slot_size: usize, pack_full_slots: bool) -> Result<usize> {
    let desc = &*d;
    if pack_full_slots {
        let heap_slots = isomalloc::heap::heap_slots(std::ptr::addr_of!(desc.heap));
        Ok(full_record_size(desc.stack_slots, slot_size)
            + heap_slots
                .iter()
                .map(|&(_, n)| full_record_size(n, slot_size))
                .sum::<usize>())
    } else {
        Ok(record_size(&desc.stack_extents()) + heap_pack_hint(std::ptr::addr_of!(desc.heap))?)
    }
}

/// Price the migration train a thread would need right now, in bytes —
/// the balancer's cold-heap-first signal (a thread with a slim stack and
/// an empty heap ships orders of magnitude cheaper than a heap hoarder).
///
/// # Safety
/// `d` must be a resident, non-running thread (Ready/Blocked) on the
/// calling node — the driver's pump never overlaps its green threads, so
/// descriptor and heap hints are stable.
pub(crate) unsafe fn pack_cost_hint(
    d: DescPtr,
    slot_size: usize,
    pack_full_slots: bool,
) -> Result<usize> {
    thread_pack_hint(d, slot_size, pack_full_slots)
}

/// Append one thread's slot records to `buf` and unmap its slots on the
/// source node.  Ownership stays with the thread (no bitmap change).
///
/// # Safety
/// As in [`pack_threads`], for the single thread `d`.
unsafe fn pack_thread_records(
    d: DescPtr,
    mgr: &mut NodeSlotManager,
    pack_full_slots: bool,
    buf: &mut Vec<u8>,
) -> Result<()> {
    let desc = &*d;
    let slot_size = mgr.slot_size();
    let area_base = mgr.area_base();
    let stack_extents = desc.stack_extents();
    let heap_slots = isomalloc::heap::heap_slots(std::ptr::addr_of!(desc.heap));
    // Stack slot first so the receiver can locate the descriptor early.
    if pack_full_slots {
        pack_full(
            desc.stack_base,
            SlotKind::Stack as u32,
            desc.stack_slots,
            slot_size,
            buf,
        );
    } else {
        pack_raw_extents(
            desc.stack_base,
            SlotKind::Stack as u32,
            desc.stack_slots,
            &stack_extents,
            buf,
        );
    }
    for &(base, n) in &heap_slots {
        if pack_full_slots {
            pack_full(base, SlotKind::Heap as u32, n, slot_size, buf);
        } else {
            pack_heap_slot(base, slot_size, buf)?;
        }
    }
    // Unmap everything; ownership stays with the thread (no bitmap change).
    let stack_first = (desc.stack_base - area_base) / slot_size;
    mgr.surrender(SlotRange::new(stack_first, desc.stack_slots))?;
    for &(base, n) in &heap_slots {
        let first = (base - area_base) / slot_size;
        mgr.surrender(SlotRange::new(first, n))?;
    }
    Ok(())
}

/// [`pack_thread_records`] minus the surrenders: serialize the thread's
/// slots *without* unmapping anything.  This is the checkpoint pack — the
/// thread keeps running on this node afterwards, and the bytes are an
/// ordinary train record group (position-independent, replayable through
/// `unpack_threads` on any survivor).
///
/// # Safety
/// `d` must be a frozen (not currently running) thread resident on `mgr`'s
/// node for the duration of the call.
unsafe fn snapshot_thread_records(
    d: DescPtr,
    mgr: &NodeSlotManager,
    pack_full_slots: bool,
    buf: &mut Vec<u8>,
) -> Result<()> {
    let desc = &*d;
    let slot_size = mgr.slot_size();
    let stack_extents = desc.stack_extents();
    let heap_slots = isomalloc::heap::heap_slots(std::ptr::addr_of!(desc.heap));
    if pack_full_slots {
        pack_full(
            desc.stack_base,
            SlotKind::Stack as u32,
            desc.stack_slots,
            slot_size,
            buf,
        );
    } else {
        pack_raw_extents(
            desc.stack_base,
            SlotKind::Stack as u32,
            desc.stack_slots,
            &stack_extents,
            buf,
        );
    }
    for &(base, n) in &heap_slots {
        if pack_full_slots {
            pack_full(base, SlotKind::Heap as u32, n, slot_size, buf);
        } else {
            pack_heap_slot(base, slot_size, buf)?;
        }
    }
    Ok(())
}

/// Pack a train of threads **without unmapping their slots** — the
/// checkpoint gather.  Wire-identical to [`pack_threads`] output, so a
/// spilled checkpoint replays through the normal `MIGRATION` arrival path;
/// the threads keep running here, and the bytes merely go stale as they do.
///
/// # Safety
/// Every descriptor must be resident on `mgr`'s node and not running for
/// the duration of the call (the checkpoint runs on the driver thread, so
/// no green thread is mid-quantum).
pub(crate) unsafe fn pack_threads_snapshot(
    ds: &[DescPtr],
    mgr: &NodeSlotManager,
    pack_full_slots: bool,
    pool: &BufPool,
) -> Result<Payload> {
    debug_assert!(!ds.is_empty(), "empty checkpoint train");
    let slot_size = mgr.slot_size();
    let header_len = TRAIN_HDR + ds.len() * TRAIN_ENTRY;
    let mut hint = header_len;
    for &d in ds {
        hint += thread_pack_hint(d, slot_size, pack_full_slots)?;
    }
    let mut buf = pool.checkout(hint);
    buf.extend_from_slice(&(ds.len() as u32).to_le_bytes());
    buf.resize(header_len, 0);
    for (i, &d) in ds.iter().enumerate() {
        let tid = (*d).tid;
        let off = buf.len();
        snapshot_thread_records(d, mgr, pack_full_slots, &mut buf)?;
        let len = buf.len() - off;
        let e = TRAIN_HDR + i * TRAIN_ENTRY;
        buf[e..e + 8].copy_from_slice(&tid.to_le_bytes());
        buf[e + 8..e + 12].copy_from_slice(&(off as u32).to_le_bytes());
        buf[e + 12..e + 16].copy_from_slice(&(len as u32).to_le_bytes());
    }
    Ok(buf.freeze())
}

/// Read a train's table without touching the records: `(tid, off, len)`
/// per thread, or `None` if the buffer cannot hold its own header.  The
/// spill-log reader uses this to index checkpointed threads by tid.
pub(crate) fn train_table(buf: &[u8]) -> Option<Vec<(u64, usize, usize)>> {
    let count = buf
        .get(..TRAIN_HDR)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")) as usize)?;
    let header_len = TRAIN_HDR + count.checked_mul(TRAIN_ENTRY)?;
    if count == 0 || buf.len() < header_len {
        return None;
    }
    let mut table = Vec::with_capacity(count);
    for i in 0..count {
        let e = TRAIN_HDR + i * TRAIN_ENTRY;
        let tid = u64::from_le_bytes(buf[e..e + 8].try_into().expect("8-byte slice"));
        let off = u32::from_le_bytes(buf[e + 8..e + 12].try_into().expect("4-byte slice")) as usize;
        let len =
            u32::from_le_bytes(buf[e + 12..e + 16].try_into().expect("4-byte slice")) as usize;
        table.push((tid, off, len));
    }
    Some(table)
}

/// Assemble a fresh train from already-packed record groups (recovery:
/// re-ship checkpointed threads to a survivor).  Record groups are
/// position-independent, so concatenating groups lifted from different
/// checkpoints yields a valid `MIGRATION` payload.
pub(crate) fn build_train(groups: &[(u64, &[u8])]) -> Vec<u8> {
    let header_len = TRAIN_HDR + groups.len() * TRAIN_ENTRY;
    let total: usize = groups.iter().map(|(_, g)| g.len()).sum();
    let mut buf = Vec::with_capacity(header_len + total);
    buf.extend_from_slice(&(groups.len() as u32).to_le_bytes());
    buf.resize(header_len, 0);
    for (i, (tid, group)) in groups.iter().enumerate() {
        let off = buf.len();
        buf.extend_from_slice(group);
        let e = TRAIN_HDR + i * TRAIN_ENTRY;
        buf[e..e + 8].copy_from_slice(&tid.to_le_bytes());
        buf[e + 8..e + 12].copy_from_slice(&(off as u32).to_le_bytes());
        buf[e + 12..e + 16].copy_from_slice(&(group.len() as u32).to_le_bytes());
    }
    buf
}

/// Pack a train of frozen threads into one pooled payload and unmap their
/// slots on the source node.  The buffer is a pool checkout sized from the
/// occupancy hints; the per-thread table is backpatched once each group's
/// length is known.
///
/// `fault_truncate` names tids whose record group is deliberately truncated
/// after packing — the test hook behind the train fault-isolation
/// regression (empty in production; see `Pm2Config::fault_corrupt_pack`).
///
/// # Safety
/// Every descriptor must be a frozen (not running) thread resident on
/// `mgr`'s node; after this call, none of their memory may be touched on
/// this node.
pub(crate) unsafe fn pack_threads(
    ds: &[DescPtr],
    mgr: &mut NodeSlotManager,
    pack_full_slots: bool,
    pool: &BufPool,
    fault_truncate: &HashSet<u64>,
) -> Result<Payload> {
    debug_assert!(!ds.is_empty(), "empty migration train");
    let slot_size = mgr.slot_size();
    let header_len = TRAIN_HDR + ds.len() * TRAIN_ENTRY;
    let mut hint = header_len;
    for &d in ds {
        hint += thread_pack_hint(d, slot_size, pack_full_slots)?;
    }
    let mut buf = pool.checkout(hint);
    buf.extend_from_slice(&(ds.len() as u32).to_le_bytes());
    buf.resize(header_len, 0); // table placeholder, backpatched below
    for (i, &d) in ds.iter().enumerate() {
        let tid = (*d).tid;
        let off = buf.len();
        pack_thread_records(d, mgr, pack_full_slots, &mut buf)?;
        if fault_truncate.contains(&tid) {
            // Test hook: chop the tail off this thread's group so its last
            // record claims more bytes than the group holds.  The slots
            // are already surrendered — the thread is genuinely lost, as
            // in a real corruption.
            let cut = buf.len().saturating_sub(16).max(off);
            buf.truncate(cut);
        }
        let len = buf.len() - off;
        let e = TRAIN_HDR + i * TRAIN_ENTRY;
        buf[e..e + 8].copy_from_slice(&tid.to_le_bytes());
        buf[e + 8..e + 12].copy_from_slice(&(off as u32).to_le_bytes());
        buf[e + 12..e + 16].copy_from_slice(&(len as u32).to_le_bytes());
    }
    debug_assert!(
        buf.len() <= hint || pack_full_slots || !fault_truncate.is_empty(),
        "occupancy hint {hint} under-sized the train ({} bytes)",
        buf.len()
    );
    Ok(buf.freeze())
}

/// Map and unpack an arriving train.  Record-group failures are isolated:
/// each failed thread is rolled back (its partially adopted ranges
/// surrendered again) and reported in `rejected`, while the rest of the
/// train lands in `adopted` (descriptors at the same virtual addresses
/// they had on the source node).
///
/// Returns `Err` only when the train table itself is unreadable — no tids
/// can be named, so the caller NAKs the train anonymously.
///
/// # Safety
/// `buf` must be (possibly corrupt) bytes received as a `MIGRATION`
/// payload; the slot ranges its healthy records name must be unmapped on
/// this node (guaranteed by the iso-address discipline).
pub(crate) unsafe fn unpack_threads(buf: &[u8], mgr: &mut NodeSlotManager) -> Result<TrainOutcome> {
    let count = buf
        .get(..TRAIN_HDR)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")) as usize)
        .ok_or_else(|| Pm2Error::Net("migration train shorter than its header".into()))?;
    let header_len = TRAIN_HDR + count * TRAIN_ENTRY;
    if count == 0 || buf.len() < header_len {
        return Err(Pm2Error::Net(format!(
            "migration train claims {count} threads, buffer has {} bytes",
            buf.len()
        )));
    }
    let mut outcome = TrainOutcome::default();
    for i in 0..count {
        let e = TRAIN_HDR + i * TRAIN_ENTRY;
        let tid = u64::from_le_bytes(buf[e..e + 8].try_into().expect("8-byte slice"));
        let off = u32::from_le_bytes(buf[e + 8..e + 12].try_into().expect("4-byte slice")) as usize;
        let len =
            u32::from_le_bytes(buf[e + 12..e + 16].try_into().expect("4-byte slice")) as usize;
        let Some(group) = (off >= header_len)
            .then(|| buf.get(off..off + len))
            .flatten()
        else {
            outcome.rejected.push((
                tid,
                format!("record group [{off}, {off}+{len}) escapes the train"),
            ));
            continue;
        };
        match unpack_thread(group, tid, mgr) {
            Ok(d) => outcome.adopted.push(d),
            Err(e) => outcome.rejected.push((tid, e.to_string())),
        }
    }
    Ok(outcome)
}

/// Map and unpack one thread's record group; returns its descriptor, which
/// sits at the same virtual address it had on the source node.
///
/// A malformed or truncated group returns `Err` without wedging the node:
/// any slot ranges already adopted for the partial unpack are surrendered
/// again (best effort) so the node's mapping state stays consistent and
/// the caller can NAK just this thread.
unsafe fn unpack_thread(buf: &[u8], expect_tid: u64, mgr: &mut NodeSlotManager) -> Result<DescPtr> {
    let mut adopted: Vec<SlotRange> = Vec::new();
    match unpack_records(buf, expect_tid, mgr, &mut adopted) {
        Ok(desc) => Ok(desc),
        Err(e) => {
            // Roll the partial arrival back: unmap whatever was adopted.
            for r in adopted {
                let _ = mgr.surrender(r);
            }
            Err(e)
        }
    }
}

unsafe fn unpack_records(
    buf: &[u8],
    expect_tid: u64,
    mgr: &mut NodeSlotManager,
    adopted: &mut Vec<SlotRange>,
) -> Result<DescPtr> {
    let slot_size = mgr.slot_size();
    let area_base = mgr.area_base();
    let mut off = 0;
    let mut desc: DescPtr = std::ptr::null_mut();
    while off < buf.len() {
        let info = peek_header(&buf[off..])?;
        // A corrupt record can name any address; reject before the slot
        // arithmetic can underflow.
        if info.base < area_base || !(info.base - area_base).is_multiple_of(slot_size) {
            return Err(Pm2Error::Net(format!(
                "migration record names base {:#x} outside the slot grid",
                info.base
            )));
        }
        let first = (info.base - area_base) / slot_size;
        let range = SlotRange::new(first, info.n_slots);
        if range.end() > mgr.area().n_slots() {
            return Err(Pm2Error::Net(format!(
                "migration record claims slots {range:?} beyond the area"
            )));
        }
        if !mgr.bitmap().all_clear(range) {
            return Err(Pm2Error::Net(format!(
                "migration record claims slots {range:?} this node owns"
            )));
        }
        mgr.adopt(range)?;
        adopted.push(range);
        unpack_into_mapped(&buf[off..], slot_size)?;
        if info.kind == SlotKind::Stack as u32 {
            desc = desc_addr(info.base) as DescPtr;
        }
        off += info.record_len;
    }
    if desc.is_null() {
        return Err(Pm2Error::Net(
            "migration record group contained no stack slot".into(),
        ));
    }
    // The table names the thread; the packed descriptor must agree, or the
    // registry/NAK bookkeeping would track the wrong tid.
    if (*desc).tid != expect_tid {
        return Err(Pm2Error::Net(format!(
            "train table names tid {expect_tid:#x} but the packed descriptor says {:#x}",
            (*desc).tid
        )));
    }
    Ok(desc)
}
