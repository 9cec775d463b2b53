//! Substrate-level tests, culminating in a complete two-node thread
//! migration driven by hand (the preview of what the `pm2` runtime does).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use isoaddr::{AreaConfig, Distribution, IsoArea, NodeSlotManager, SlotProvider, SlotRange};
use isomalloc::layout::SlotKind;
use isomalloc::pack::{pack_heap_slot, pack_raw_extents, peek_header, unpack_into_mapped};

use crate::sched::{RunOutcome, Scheduler};
use crate::thread::desc_addr;
use crate::{current_node, current_tid, migrate_self, yield_now, DescPtr};

fn rig(nodes: usize) -> (Arc<IsoArea>, Vec<NodeSlotManager>) {
    let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
    let mgrs = (0..nodes)
        .map(|n| NodeSlotManager::new(n, nodes, Arc::clone(&area), Distribution::RoundRobin, 0))
        .collect();
    (area, mgrs)
}

/// Drive a scheduler until its queue drains, requeuing yields and releasing
/// exited threads.
fn drive(s: &Scheduler, m: &mut NodeSlotManager) {
    s.activate();
    while let Some(outcome) = s.run_one() {
        match outcome {
            RunOutcome::Yielded(d) => unsafe { s.requeue(d) },
            RunOutcome::Exited(d) => unsafe {
                s.note_gone();
                crate::release_thread_resources(d, m).unwrap();
            },
            other => panic!("unexpected outcome in drive(): {other:?}"),
        }
    }
}

#[test]
fn spawn_runs_to_completion() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let ran = Arc::new(AtomicUsize::new(0));
    let ran2 = Arc::clone(&ran);
    s.spawn(&mut mgrs[0], move || {
        ran2.store(41 + 1, Ordering::SeqCst);
    })
    .unwrap();
    drive(&s, &mut mgrs[0]);
    assert_eq!(ran.load(Ordering::SeqCst), 42);
    assert_eq!(s.resident(), 0);
}

#[test]
fn in_thread_is_true_only_inside_a_marcel_thread() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    s.spawn(&mut mgrs[0], move || {
        seen2.lock().unwrap().push(crate::in_thread());
        yield_now();
        seen2.lock().unwrap().push(crate::in_thread());
    })
    .unwrap();
    assert!(!crate::in_thread(), "no scheduler on this OS thread yet");
    s.activate();
    let mut between = Vec::new();
    while let Some(outcome) = s.run_one() {
        // The driver, between quanta, is not a Marcel thread.
        between.push(crate::in_thread());
        match outcome {
            RunOutcome::Yielded(d) => unsafe { s.requeue(d) },
            RunOutcome::Exited(d) => unsafe {
                s.note_gone();
                crate::release_thread_resources(d, &mut mgrs[0]).unwrap();
            },
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(*seen.lock().unwrap(), [true, true]);
    assert_eq!(between, [false, false]);
}

#[test]
fn stack_slot_is_released_on_exit() {
    let (area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    s.spawn(&mut mgrs[0], || {}).unwrap();
    assert_eq!(
        area.committed_slots(),
        1,
        "stack slot mapped while thread lives"
    );
    drive(&s, &mut mgrs[0]);
    assert_eq!(area.committed_slots(), 0, "stack slot unmapped after exit");
    assert_eq!(mgrs[0].owned_free_slots(), 64);
}

#[test]
fn closure_captures_move_into_slot() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let out = Arc::new(Mutex::new(String::new()));
    let out2 = Arc::clone(&out);
    let payload = vec![7u8; 3000]; // bigger than the descriptor, still fits
    let text = String::from("moved into the slot");
    s.spawn(&mut mgrs[0], move || {
        assert!(payload.iter().all(|&b| b == 7));
        out2.lock().unwrap().push_str(&text);
    })
    .unwrap();
    drive(&s, &mut mgrs[0]);
    assert_eq!(&*out.lock().unwrap(), "moved into the slot");
}

#[test]
fn yields_interleave_round_robin() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let log = Arc::new(Mutex::new(Vec::new()));
    for id in 0..3u32 {
        let log = Arc::clone(&log);
        s.spawn(&mut mgrs[0], move || {
            for round in 0..3u32 {
                log.lock().unwrap().push((round, id));
                yield_now();
            }
        })
        .unwrap();
    }
    drive(&s, &mut mgrs[0]);
    let log = log.lock().unwrap();
    assert_eq!(
        *log,
        vec![
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 1),
            (2, 2)
        ],
        "cooperative round-robin order"
    );
}

#[test]
fn many_threads() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let sum = Arc::new(AtomicUsize::new(0));
    // 40 threads in a 64-slot area (each consumes one stack slot while live).
    for i in 0..40usize {
        let sum = Arc::clone(&sum);
        s.spawn(&mut mgrs[0], move || {
            yield_now();
            sum.fetch_add(i, Ordering::SeqCst);
        })
        .unwrap();
    }
    drive(&s, &mut mgrs[0]);
    assert_eq!(sum.load(Ordering::SeqCst), (0..40).sum());
}

#[test]
fn thread_ids_are_unique_and_tagged_with_home_node() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let tids = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..5 {
        let tids = Arc::clone(&tids);
        s.spawn(&mut mgrs[0], move || {
            tids.lock().unwrap().push(current_tid());
        })
        .unwrap();
    }
    drive(&s, &mut mgrs[0]);
    let mut v = tids.lock().unwrap().clone();
    v.sort_unstable();
    v.dedup();
    assert_eq!(v.len(), 5);
}

#[test]
fn panic_in_thread_is_contained() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let after = Arc::new(AtomicUsize::new(0));
    let after2 = Arc::clone(&after);
    s.spawn(&mut mgrs[0], || {
        panic!("thread body panics");
    })
    .unwrap();
    s.spawn(&mut mgrs[0], move || {
        after2.store(1, Ordering::SeqCst);
    })
    .unwrap();
    s.activate();
    let mut saw_panicked = false;
    while let Some(outcome) = s.run_one() {
        match outcome {
            RunOutcome::Yielded(d) => unsafe { s.requeue(d) },
            RunOutcome::Exited(d) => unsafe {
                if (*d).panicked == 1 {
                    saw_panicked = true;
                }
                s.note_gone();
                crate::release_thread_resources(d, &mut mgrs[0]).unwrap();
            },
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(saw_panicked, "panicked flag must be set");
    assert_eq!(
        after.load(Ordering::SeqCst),
        1,
        "other threads keep running"
    );
}

#[test]
fn block_and_unblock() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let stage = Arc::new(AtomicUsize::new(0));
    let stage2 = Arc::clone(&stage);
    s.spawn(&mut mgrs[0], move || {
        stage2.store(1, Ordering::SeqCst);
        crate::block_current();
        stage2.store(2, Ordering::SeqCst);
    })
    .unwrap();
    s.activate();
    let RunOutcome::Blocked(d) = s.run_one().unwrap() else {
        panic!("expected block")
    };
    assert_eq!(stage.load(Ordering::SeqCst), 1);
    assert!(s.run_one().is_none(), "blocked thread must not be runnable");
    unsafe { s.unblock(d) };
    let RunOutcome::Exited(d) = s.run_one().unwrap() else {
        panic!("expected exit")
    };
    unsafe {
        s.note_gone();
        crate::release_thread_resources(d, &mut mgrs[0]).unwrap();
    }
    assert_eq!(stage.load(Ordering::SeqCst), 2);
}

#[test]
fn has_ready_tracks_both_lanes() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    assert!(!s.has_ready(), "fresh scheduler is idle");
    s.spawn(&mut mgrs[0], || {}).unwrap();
    assert!(s.has_ready());
    assert_eq!(s.queue_len(), 1);
    drive(&s, &mut mgrs[0]);
    assert!(!s.has_ready(), "drained scheduler is idle again");
    // A control-lane spawn flips it too.
    let tid = s.next_tid();
    s.spawn_with_tid_flags(&mut mgrs[0], tid, crate::thread::flags::CONTROL, || {})
        .unwrap();
    assert!(s.has_ready());
    assert_eq!(s.queue_len(), 1);
    drive(&s, &mut mgrs[0]);
}

#[test]
fn control_lane_overtakes_compute_quanta() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let log = Arc::new(Mutex::new(Vec::new()));
    // Three compute threads first…
    for id in 0..3u32 {
        let log = Arc::clone(&log);
        s.spawn(&mut mgrs[0], move || {
            log.lock().unwrap().push(format!("compute{id}"));
        })
        .unwrap();
    }
    // …then a control-priority handler, spawned last.
    let log2 = Arc::clone(&log);
    let tid = s.next_tid();
    s.spawn_with_tid_flags(
        &mut mgrs[0],
        tid,
        crate::thread::flags::CONTROL,
        move || {
            log2.lock().unwrap().push("control".into());
        },
    )
    .unwrap();
    drive(&s, &mut mgrs[0]);
    assert_eq!(
        log.lock().unwrap()[0],
        "control",
        "control lane dispatches before older compute threads"
    );
}

#[test]
fn control_flag_keeps_lane_across_requeues() {
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let log = Arc::new(Mutex::new(Vec::new()));
    let log_c = Arc::clone(&log);
    let tid = s.next_tid();
    s.spawn_with_tid_flags(
        &mut mgrs[0],
        tid,
        crate::thread::flags::CONTROL,
        move || {
            for round in 0..3u32 {
                log_c.lock().unwrap().push(format!("control{round}"));
                yield_now();
            }
        },
    )
    .unwrap();
    let log_n = Arc::clone(&log);
    s.spawn(&mut mgrs[0], move || {
        for round in 0..3u32 {
            log_n.lock().unwrap().push(format!("compute{round}"));
            yield_now();
        }
    })
    .unwrap();
    drive(&s, &mut mgrs[0]);
    let log = log.lock().unwrap();
    // Every control quantum lands before every compute quantum: the flag
    // re-selects the control lane on each requeue.
    assert_eq!(
        *log,
        vec!["control0", "control1", "control2", "compute0", "compute1", "compute2"]
    );
}

#[test]
fn polling_control_thread_cannot_starve_compute() {
    // A control daemon that yield-polls for a condition only a *compute*
    // thread can satisfy: bounded control bursts must let the compute
    // thread finish (an unbounded control lane would livelock here).
    let (_area, mut mgrs) = rig(1);
    let s = Scheduler::new(0);
    let done = Arc::new(AtomicUsize::new(0));
    let done_d = Arc::clone(&done);
    let tid = s.next_tid();
    s.spawn_with_tid_flags(
        &mut mgrs[0],
        tid,
        crate::thread::flags::CONTROL,
        move || {
            while done_d.load(Ordering::SeqCst) == 0 {
                yield_now();
            }
        },
    )
    .unwrap();
    let done_c = Arc::clone(&done);
    s.spawn(&mut mgrs[0], move || {
        done_c.store(1, Ordering::SeqCst);
    })
    .unwrap();
    // 64 steps are plenty under CTL_BURST fairness; without it this drive
    // would never terminate.
    s.activate();
    for _ in 0..64 {
        match s.run_one() {
            Some(RunOutcome::Yielded(d)) => unsafe { s.requeue(d) },
            Some(RunOutcome::Exited(d)) => unsafe {
                s.note_gone();
                crate::release_thread_resources(d, &mut mgrs[0]).unwrap();
            },
            Some(other) => panic!("unexpected: {other:?}"),
            None => break,
        }
    }
    assert_eq!(done.load(Ordering::SeqCst), 1, "compute thread starved");
    assert_eq!(s.resident(), 0, "daemon observed the flag and exited");
}

// ---------------------------------------------------------------------------
// Hand-driven migration: the substrate-level proof of the paper's mechanism.
// ---------------------------------------------------------------------------

/// Pack a frozen thread (stack slot + heap slots) and unmap its slots on the
/// source node.  This mirrors `pm2`'s migration engine.
unsafe fn pack_and_surrender(d: DescPtr, m: &mut NodeSlotManager) -> Vec<u8> {
    let desc = &*d;
    let slot_size = m.slot_size();
    let area_base = m.area_base();
    let mut buf = Vec::new();
    pack_raw_extents(
        desc.stack_base,
        SlotKind::Stack as u32,
        desc.stack_slots,
        &desc.stack_extents(),
        &mut buf,
    );
    let heap = isomalloc::heap::heap_slots(std::ptr::addr_of!(desc.heap));
    for &(base, _n) in &heap {
        pack_heap_slot(base, slot_size, &mut buf).unwrap();
    }
    let stack_first = (desc.stack_base - area_base) / slot_size;
    let stack_slots = desc.stack_slots;
    m.surrender(SlotRange::new(stack_first, stack_slots))
        .unwrap();
    for &(base, n) in &heap {
        let first = (base - area_base) / slot_size;
        m.surrender(SlotRange::new(first, n)).unwrap();
    }
    buf
}

/// Map and unpack a packed thread on the destination node; returns the
/// descriptor (at the same address it had on the source).
unsafe fn adopt_and_unpack(buf: &[u8], m: &mut NodeSlotManager) -> DescPtr {
    let slot_size = m.slot_size();
    let area_base = m.area_base();
    let mut off = 0;
    let mut desc: DescPtr = std::ptr::null_mut();
    while off < buf.len() {
        let info = peek_header(&buf[off..]).unwrap();
        let first = (info.base - area_base) / slot_size;
        m.adopt(SlotRange::new(first, info.n_slots)).unwrap();
        unpack_into_mapped(&buf[off..], slot_size).unwrap();
        if info.kind == SlotKind::Stack as u32 {
            desc = desc_addr(info.base) as DescPtr;
        }
        off += info.record_len;
    }
    assert!(!desc.is_null(), "migration buffer contained no stack slot");
    desc
}

#[test]
fn migration_preserves_stack_and_pointers() {
    let (_area, mut mgrs) = rig(2);
    let mut m1 = mgrs.pop().unwrap();
    let mut m0 = mgrs.pop().unwrap();
    let s0 = Scheduler::new(0);
    let s1 = Scheduler::new(1);
    let (tx, rx) = std::sync::mpsc::channel();

    s0.spawn(&mut m0, move || {
        // Fig. 1 + Fig. 2 of the paper, but through the real mechanism: a
        // stack variable and a pointer to it survive migration unchanged.
        let x: u64 = 0xFEED_FACE;
        let px = &x as *const u64;
        let before = current_node();
        migrate_self(1);
        let after = current_node();
        let through_pointer = unsafe { *px };
        tx.send((before, after, through_pointer, x)).unwrap();
    })
    .unwrap();

    // Node 0 runs the thread until it freezes for migration.
    s0.activate();
    let RunOutcome::MigrateSelf(d, dest) = s0.run_one().unwrap() else {
        panic!("expected a migration request")
    };
    assert_eq!(dest, 1);
    s0.note_gone();
    let buf = unsafe { pack_and_surrender(d, &mut m0) };
    // A null thread's buffer is small — metadata + a shallow live stack.
    assert!(
        buf.len() < 8 * 1024,
        "packed null thread is {} bytes",
        buf.len()
    );

    // "Network": the buffer is the only thing crossing nodes.
    let d1 = unsafe { adopt_and_unpack(&buf, &mut m1) };
    assert_eq!(d1, d, "descriptor reappears at the same virtual address");
    unsafe { s1.adopt_arrival(d1) };

    // Node 1 resumes the thread; it finishes there.
    drive(&s1, &mut m1);
    let (before, after, through_pointer, x) = rx.recv().unwrap();
    assert_eq!(before, 0);
    assert_eq!(after, 1);
    assert_eq!(x, 0xFEED_FACE);
    assert_eq!(
        through_pointer, 0xFEED_FACE,
        "pointer to stack data valid after migration"
    );
}

#[test]
fn migration_carries_isomalloc_heap() {
    let (_area, mut mgrs) = rig(2);
    let mut m1 = mgrs.pop().unwrap();
    let mut m0 = mgrs.pop().unwrap();
    let s0 = Scheduler::new(0);
    let s1 = Scheduler::new(1);
    let (tx, rx) = std::sync::mpsc::channel();
    // The green thread reaches the providers through raw pointers; the test
    // driver guarantees no concurrent access (single OS thread, and the
    // driver only touches a manager while the thread is frozen).
    let p0 = &mut m0 as *mut NodeSlotManager as usize;
    let p1 = &mut m1 as *mut NodeSlotManager as usize;

    s0.spawn(
        unsafe { &mut *(p0 as *mut NodeSlotManager) },
        move || unsafe {
            let d = crate::current_desc();
            let heap = std::ptr::addr_of_mut!((*d).heap);
            let m0 = p0 as *mut NodeSlotManager;
            let m1 = p1 as *mut NodeSlotManager;
            // Build a little linked list in iso memory (paper Fig. 7).
            #[repr(C)]
            struct Item {
                value: u64,
                next: *mut Item,
            }
            let mut head: *mut Item = std::ptr::null_mut();
            for j in 0..100u64 {
                let it = isomalloc::heap::isomalloc(heap, &mut *m0, std::mem::size_of::<Item>())
                    .unwrap() as *mut Item;
                (*it).value = j * 2 + 1;
                (*it).next = head;
                head = it;
            }
            migrate_self(1);
            // Traverse on node 1: every pointer must still be valid.
            let mut sum = 0u64;
            let mut count = 0u64;
            let mut cur = head;
            while !cur.is_null() {
                sum += (*cur).value;
                count += 1;
                let next = (*cur).next;
                // Free as we go — releases slots to NODE 1 (Fig. 6 step 4).
                isomalloc::heap::isofree(heap, &mut *m1, cur as *mut u8).unwrap();
                cur = next;
            }
            tx.send((count, sum, current_node())).unwrap();
        },
    )
    .unwrap();

    s0.activate();
    let RunOutcome::MigrateSelf(d, _) = s0.run_one().unwrap() else {
        panic!()
    };
    s0.note_gone();
    let buf = unsafe { pack_and_surrender(d, &mut m0) };
    let d1 = unsafe { adopt_and_unpack(&buf, &mut m1) };
    unsafe { s1.adopt_arrival(d1) };
    drive(&s1, &mut m1);

    let (count, sum, node) = rx.recv().unwrap();
    assert_eq!(count, 100);
    assert_eq!(sum, (0..100u64).map(|j| j * 2 + 1).sum());
    assert_eq!(node, 1);
    // The heap slot was freed on node 1, so node 1 gained ownership of a
    // slot it did not initially possess.
    assert!(
        m1.owned_free_slots() > 32,
        "node 1 must end up with extra slots"
    );
}

#[test]
fn take_migrating_sweeps_flagged_ready_threads() {
    let (_area, mut mgrs) = rig(2);
    let s = Scheduler::new(0);
    let counter = Arc::new(AtomicUsize::new(0));
    let mut descs = Vec::new();
    for _ in 0..4 {
        let c = Arc::clone(&counter);
        descs.push(
            s.spawn(&mut mgrs[0], move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap(),
        );
    }
    // Flag threads 1 and 3 for different destinations; 0 and 2 stay.
    unsafe {
        assert!(s.request_migration(descs[1], 1));
        assert!(s.request_migration(descs[3], 1));
    }
    // A capped sweep takes only the first flagged thread…
    let first = s.take_migrating(1);
    assert_eq!(first.len(), 1);
    assert_eq!(first[0], (descs[1], 1));
    // …a follow-up sweep takes the rest; unflagged threads are untouched.
    let rest = s.take_migrating(usize::MAX);
    assert_eq!(rest, vec![(descs[3], 1)]);
    assert!(s.take_migrating(usize::MAX).is_empty());
    assert_eq!(s.queue_len(), 2, "unflagged threads stay queued");
    // The embedder un-counts swept threads when it packs them…
    s.note_gone();
    s.note_gone();
    assert_eq!(s.resident(), 2);
    // …and the destination re-adopts the whole train in one batch, which
    // makes them runnable again and clears the migration flag.
    unsafe { s.adopt_arrivals(&[first[0].0, rest[0].0]) };
    assert_eq!(
        s.resident(),
        4,
        "adopt_arrivals counts arrivals as resident"
    );
    drive(&s, &mut mgrs[0]);
    assert_eq!(counter.load(Ordering::SeqCst), 4, "every thread ran once");
}

#[test]
fn preemptive_migration_of_a_ready_thread() {
    let (_area, mut mgrs) = rig(2);
    let mut m1 = mgrs.pop().unwrap();
    let mut m0 = mgrs.pop().unwrap();
    let s0 = Scheduler::new(0);
    let s1 = Scheduler::new(1);
    let (tx, rx) = std::sync::mpsc::channel();

    // The application thread contains NO migration code — transparency.
    s0.spawn(&mut m0, move || {
        let mut nodes_seen = Vec::new();
        for _ in 0..4 {
            nodes_seen.push(current_node());
            yield_now();
        }
        tx.send(nodes_seen).unwrap();
    })
    .unwrap();

    s0.activate();
    // Run one quantum on node 0.
    let RunOutcome::Yielded(d) = s0.run_one().unwrap() else {
        panic!()
    };
    unsafe { s0.requeue(d) };
    // A third party (here: the test, playing the load balancer) tags it.
    assert!(unsafe { s0.request_migration(d, 1) });
    let RunOutcome::PreemptMigrate(d, dest) = s0.run_one().unwrap() else {
        panic!("tagged ready thread must be shipped, not run")
    };
    assert_eq!(dest, 1);
    s0.note_gone();
    let buf = unsafe { pack_and_surrender(d, &mut m0) };
    let d1 = unsafe { adopt_and_unpack(&buf, &mut m1) };
    unsafe { s1.adopt_arrival(d1) };
    drive(&s1, &mut m1);

    let nodes_seen = rx.recv().unwrap();
    assert_eq!(
        nodes_seen,
        vec![0, 1, 1, 1],
        "thread observed its own relocation"
    );
}
