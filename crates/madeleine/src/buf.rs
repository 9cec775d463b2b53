//! Pooled, refcounted payload buffers — the zero-copy data plane.
//!
//! The migration hot path lives or dies on buffer management: a 24 µs
//! iso-address copy is instantly swamped if every message allocates a fresh
//! `Vec`, every broadcast re-copies its payload per destination, and every
//! received buffer is dropped on the floor.  This module provides the two
//! types the whole message path is built on:
//!
//! * [`BufPool`] — a per-endpoint free list of byte buffers.  `checkout`
//!   hands out a writable [`PayloadBuf`]; when the last reader of the
//!   sealed payload drops, the buffer (capacity intact) returns to the
//!   free list of the pool it came from.  Steady-state traffic therefore
//!   performs **zero payload heap allocations**: the same backing buffer
//!   cycles checkout → send → receive → drop → checkout.
//! * [`Payload`] — a sealed, refcounted, read-only byte buffer
//!   (`Deref<Target = [u8]>`).  `clone` is a refcount bump, never a copy,
//!   which is what lets `broadcast` fan a single buffer out to `p − 1`
//!   receivers with one allocation total.
//!
//! Lifecycle (the aliasing discipline the `unsafe` below relies on):
//!
//! ```text
//! BufPool::checkout ──► PayloadBuf (unique writer)
//!                          │ freeze / Into<Payload>
//!                          ▼
//!                       Payload ──clone──► Payload …   (shared readers)
//!                          │ last drop
//!                          ▼
//!                 recycled into the origin pool's free list
//! ```
//!
//! A slab is referenced by **exactly one** of: a `PayloadBuf` (mutable
//! access), one or more `Payload`s (read-only access), or the pool's free
//! list (no access).  The transitions are all moves (`checkout` pops a
//! uniquely-owned slab, `freeze` consumes the writer, recycling requires
//! `Arc::get_mut` to prove uniqueness), so readers and the writer can never
//! coexist.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, Weak};

/// One pooled backing buffer.  The `UnsafeCell` is what lets the pool hand
/// the same heap allocation alternately to a unique writer and to shared
/// readers without re-allocating an `Arc` per cycle.
struct Slab {
    data: UnsafeCell<Vec<u8>>,
    /// The pool this slab recycles into (`Weak`: a live payload must not
    /// keep a dead pool alive).
    pool: Weak<PoolShared>,
}

// SAFETY: access to `data` is governed by the ownership protocol documented
// on the module: a slab is reachable through exactly one of PayloadBuf
// (unique `&mut`), Payloads (shared `&`), or the free list (idle), and the
// transitions between those states are moves.  No state allows a writer and
// a reader to alias.
unsafe impl Send for Slab {}
unsafe impl Sync for Slab {}

struct PoolShared {
    free: Mutex<Vec<Arc<Slab>>>,
    /// Free-list capacity: beyond this, returning buffers are simply freed
    /// (bounds worst-case memory after a traffic burst).
    max_free: usize,
    counters: PoolCounters,
}

counters::counters! {
    /// Live counters of one pool.
    struct PoolCounters;
    /// Point-in-time counters of a [`BufPool`].
    pub struct BufPoolStats {
        /// Total `checkout` calls.
        checkouts,
        /// Checkouts served from the free list (no allocation).
        reuses,
        /// Checkouts that had to allocate a fresh buffer.
        allocs,
        /// Buffers returned to the free list by payload drops.
        recycles,
    }
}

/// A free list of reusable payload buffers, cheaply clonable (`Arc` handle).
///
/// Every [`crate::Endpoint`] owns one (uncontended in steady state: a node's
/// sends check out of its own endpoint's pool), and upper layers reach it
/// through [`crate::Endpoint::pool`].
#[derive(Clone)]
pub struct BufPool {
    shared: Arc<PoolShared>,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("free", &self.free_len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufPool {
    /// A pool keeping up to 64 idle buffers.
    pub fn new() -> Self {
        BufPool::with_capacity_limit(64)
    }

    /// A pool keeping at most `max_free` idle buffers.
    pub fn with_capacity_limit(max_free: usize) -> Self {
        BufPool {
            shared: Arc::new(PoolShared {
                free: Mutex::new(Vec::new()),
                max_free,
                counters: PoolCounters::default(),
            }),
        }
    }

    /// Check out a writable buffer with at least `cap` bytes of capacity,
    /// reusing a pooled buffer when one is available.
    pub fn checkout(&self, cap: usize) -> PayloadBuf {
        let c = &self.shared.counters;
        c.checkouts.fetch_add(1, Ordering::Relaxed);
        let recycled = self.shared.free.lock().expect("buf pool poisoned").pop();
        match recycled {
            Some(slab) => {
                c.reuses.fetch_add(1, Ordering::Relaxed);
                let mut buf = PayloadBuf { slab };
                let v = buf.vec_mut();
                v.clear();
                v.reserve(cap);
                buf
            }
            None => {
                c.allocs.fetch_add(1, Ordering::Relaxed);
                PayloadBuf {
                    slab: Arc::new(Slab {
                        data: UnsafeCell::new(Vec::with_capacity(cap)),
                        pool: Arc::downgrade(&self.shared),
                    }),
                }
            }
        }
    }

    /// Number of idle buffers currently on the free list.
    pub fn free_len(&self) -> usize {
        self.shared.free.lock().expect("buf pool poisoned").len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufPoolStats {
        self.shared.counters.snapshot()
    }
}

/// A checked-out, writable payload buffer — the **unique** owner of its
/// backing slab until it is sealed with [`PayloadBuf::freeze`] (or
/// `.into()` a [`Payload`], or sent — `Endpoint::send` seals implicitly).
///
/// Dereferences to `Vec<u8>`, so the packing code writes into it exactly
/// as it would into a plain vector — but the allocation came from, and
/// returns to, the pool.
pub struct PayloadBuf {
    slab: Arc<Slab>,
}

impl PayloadBuf {
    fn vec_mut(&mut self) -> &mut Vec<u8> {
        // SAFETY: a PayloadBuf is constructed only around a uniquely-owned
        // slab (fresh, or popped off the free list which held the only
        // reference) and is neither Clone nor convertible back from a
        // Payload, so `&mut self` proves exclusive slab access.
        unsafe { &mut *self.slab.data.get() }
    }

    fn vec(&self) -> &Vec<u8> {
        // SAFETY: as in `vec_mut`; shared reborrow of the unique owner.
        unsafe { &*self.slab.data.get() }
    }

    /// Seal the buffer into a shareable, read-only [`Payload`] without
    /// copying or allocating.
    pub fn freeze(self) -> Payload {
        Payload {
            repr: Repr::Pooled(self.slab),
        }
    }
}

impl Deref for PayloadBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        self.vec()
    }
}

impl DerefMut for PayloadBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.vec_mut()
    }
}

impl std::fmt::Debug for PayloadBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PayloadBuf")
            .field("len", &self.len())
            .finish()
    }
}

enum Repr {
    /// A sealed pool slab; recycled on last drop.
    Pooled(Arc<Slab>),
    /// An adopted plain vector (`From<Vec<u8>>`); freed on last drop.
    Owned(Arc<Vec<u8>>),
    /// Borrowed static bytes — notably the shared empty payload, so
    /// zero-byte control messages never allocate.
    Static(&'static [u8]),
}

/// A sealed, refcounted, read-only message payload.
///
/// `clone` bumps a refcount (no copy), `Deref<Target = [u8]>` gives byte
/// access, and dropping the last clone of a pooled payload recycles the
/// backing buffer into its origin [`BufPool`].
pub struct Payload {
    repr: Repr,
}

impl Payload {
    /// The shared empty payload (no allocation, ever).
    pub const fn empty() -> Payload {
        Payload {
            repr: Repr::Static(&[]),
        }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            // SAFETY: sealed slab — the unique writer was consumed by
            // `freeze`, so only shared readers remain (see module docs).
            Repr::Pooled(slab) => unsafe { &*slab.data.get() },
            Repr::Owned(v) => v.as_slice(),
            Repr::Static(s) => s,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when there are no payload bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        Payload {
            repr: match &self.repr {
                Repr::Pooled(s) => Repr::Pooled(Arc::clone(s)),
                Repr::Owned(v) => Repr::Owned(Arc::clone(v)),
                Repr::Static(s) => Repr::Static(s),
            },
        }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        if let Repr::Pooled(slab) = std::mem::replace(&mut self.repr, Repr::Static(&[])) {
            recycle(slab);
        }
    }
}

/// Return a slab to its origin pool if this was the last reference and the
/// pool still exists (and has room).  This is the **fast path**: the whole
/// `Arc` goes back on the free list, so the next checkout allocates
/// nothing at all.  If two final clones race `Arc::get_mut` here, both
/// fail and the plain `Arc` teardown runs instead — where [`Slab`]'s
/// `Drop` still salvages the byte buffer (the allocation that matters).
fn recycle(mut slab: Arc<Slab>) {
    // `Arc::get_mut` succeeds only for the sole owner, which is exactly the
    // proof needed to turn the last reader back into an idle pool entry.
    if Arc::get_mut(&mut slab).is_none() {
        return; // not provably last; Slab::drop catches the true last one
    }
    let Some(pool) = slab.pool.upgrade() else {
        return; // pool torn down; just free the buffer
    };
    let mut free = pool.free.lock().expect("buf pool poisoned");
    if free.len() < pool.max_free {
        pool.counters.recycles.fetch_add(1, Ordering::Relaxed);
        free.push(slab);
        return;
    }
    drop(free);
    // List full: neutralize the pool link so the Slab teardown below does
    // not try to salvage the buffer we just decided to discard.
    if let Some(s) = Arc::get_mut(&mut slab) {
        s.pool = Weak::new();
    }
}

impl Drop for Slab {
    /// Slow-path salvage.  Runs when the last reference to a slab dies
    /// without taking the fast path above: a [`PayloadBuf`] dropped before
    /// `freeze` (error paths), or two final [`Payload`] clones racing
    /// `Arc::get_mut` (e.g. broadcast receivers on different threads).
    /// The byte buffer is moved into a fresh slab on the free list, so
    /// the heap allocation that backs payloads is never lost to the pool —
    /// only the small refcount block is re-created, and only on this rare
    /// path.
    fn drop(&mut self) {
        let Some(pool) = self.pool.upgrade() else {
            return; // pool gone (or link neutralized): really free it
        };
        let data = std::mem::take(self.data.get_mut());
        if data.capacity() == 0 {
            return;
        }
        let origin = std::mem::replace(&mut self.pool, Weak::new());
        let mut free = pool.free.lock().expect("buf pool poisoned");
        if free.len() < pool.max_free {
            pool.counters.recycles.fetch_add(1, Ordering::Relaxed);
            free.push(Arc::new(Slab {
                data: UnsafeCell::new(data),
                pool: origin,
            }));
        }
        // `data` (when the list was full) drops here, after the lock guard:
        // a Vec teardown cannot re-enter the pool.
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} B)", self.len())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl From<Vec<u8>> for Payload {
    /// Adopt a vector.  Empty vectors become the shared empty payload;
    /// everything else is wrapped (one refcount allocation, no byte copy).
    fn from(v: Vec<u8>) -> Payload {
        if v.is_empty() {
            Payload::empty()
        } else {
            Payload {
                repr: Repr::Owned(Arc::new(v)),
            }
        }
    }
}

impl From<&[u8]> for Payload {
    /// Copies the bytes (the one conversion that must).
    fn from(s: &[u8]) -> Payload {
        s.to_vec().into()
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(s: &[u8; N]) -> Payload {
        s.as_slice().into()
    }
}

impl From<PayloadBuf> for Payload {
    fn from(b: PayloadBuf) -> Payload {
        b.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_write_freeze_read() {
        let pool = BufPool::new();
        let mut b = pool.checkout(16);
        b.extend_from_slice(b"hello");
        b.push(b'!');
        let p = b.freeze();
        assert_eq!(p, b"hello!");
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn recycle_preserves_allocation() {
        let pool = BufPool::new();
        let mut b = pool.checkout(64);
        b.extend_from_slice(&[7u8; 40]);
        let ptr = b.as_ptr();
        drop(b.freeze());
        assert_eq!(pool.free_len(), 1);
        for i in 0..10 {
            let mut b = pool.checkout(64);
            assert_eq!(b.as_ptr(), ptr, "cycle {i} must reuse the same buffer");
            assert!(b.is_empty(), "recycled buffers come back cleared");
            b.extend_from_slice(&[i as u8; 64]);
            drop(b.freeze());
        }
        let s = pool.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.reuses, 10);
        assert_eq!(s.recycles, 11);
    }

    #[test]
    fn clone_aliases_and_last_drop_recycles() {
        let pool = BufPool::new();
        let mut b = pool.checkout(8);
        b.extend_from_slice(&[1, 2, 3]);
        let p = b.freeze();
        let clones: Vec<Payload> = (0..16).map(|_| p.clone()).collect();
        for c in &clones {
            assert_eq!(c.as_ptr(), p.as_ptr(), "clones must alias, not copy");
        }
        drop(p);
        assert_eq!(pool.free_len(), 0, "live clones keep the slab out");
        drop(clones);
        assert_eq!(pool.free_len(), 1, "last drop recycles");
    }

    #[test]
    fn unfrozen_writer_recycles_on_drop() {
        // Error paths drop checked-out writers without sealing them; the
        // byte buffer must still return to the pool (Slab::drop salvage).
        let pool = BufPool::new();
        let mut b = pool.checkout(64);
        b.extend_from_slice(&[9u8; 64]);
        let ptr = b.as_ptr();
        drop(b);
        assert_eq!(pool.free_len(), 1);
        let b2 = pool.checkout(16);
        assert_eq!(b2.as_ptr(), ptr, "salvaged buffer must be reused");
    }

    #[test]
    fn racing_final_clones_still_recycle() {
        // Many threads dropping the last clones concurrently: whichever
        // path wins (fast get_mut or Slab::drop salvage), the buffer ends
        // up back in the pool every round.
        let pool = BufPool::new();
        for _ in 0..50 {
            let p = pool.checkout(64).freeze();
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = p.clone();
                    std::thread::spawn(move || drop(c))
                })
                .collect();
            drop(p);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(pool.free_len(), 1, "buffer lost to a drop race");
        }
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufPool::with_capacity_limit(2);
        let bufs: Vec<Payload> = (0..5).map(|_| pool.checkout(8).freeze()).collect();
        drop(bufs);
        assert_eq!(pool.free_len(), 2);
    }

    #[test]
    fn vec_and_static_payloads() {
        let p: Payload = vec![9u8, 8, 7].into();
        assert_eq!(p, vec![9u8, 8, 7]);
        let q = p.clone();
        assert_eq!(q.as_ptr(), p.as_ptr());
        let e: Payload = Vec::new().into();
        assert!(e.is_empty());
        assert_eq!(e, Payload::empty());
    }

    #[test]
    fn cross_thread_recycle() {
        let pool = BufPool::new();
        let mut b = pool.checkout(32);
        b.extend_from_slice(&[5u8; 32]);
        let p = b.freeze();
        std::thread::spawn(move || drop(p)).join().unwrap();
        assert_eq!(pool.free_len(), 1);
    }
}
