//! Migration semantics across the full runtime: repeated hops, deep stacks,
//! heavy heaps, preemptive third-party migration, and slot-ownership
//! transfer on remote death.

use pm2::api::*;
use pm2::{Machine, Pm2Config};

fn machine(nodes: usize) -> Machine {
    Machine::launch(Pm2Config::test(nodes)).unwrap()
}

#[test]
fn ping_pong_many_hops() {
    let mut m = machine(2);
    let hops = m
        .run_on(0, || {
            let mut hops = 0usize;
            let marker: u64 = 0x1234_5678_9ABC_DEF0;
            let pm = &marker as *const u64;
            for i in 0..50 {
                pm2_migrate(1 - (i % 2)).unwrap();
                assert_eq!(unsafe { *pm }, 0x1234_5678_9ABC_DEF0);
                hops += 1;
            }
            hops
        })
        .unwrap();
    assert_eq!(hops, 50);
    assert_eq!(
        m.node_stats(0).migrations_out + m.node_stats(1).migrations_out,
        50
    );
    m.shutdown();
}

#[test]
fn round_trip_visits_every_node() {
    let mut m = machine(5);
    let visited = m
        .run_on(0, || {
            let mut visited = Vec::new();
            for dest in [1usize, 2, 3, 4, 0] {
                pm2_migrate(dest).unwrap();
                visited.push(pm2_self());
            }
            visited
        })
        .unwrap();
    assert_eq!(visited, vec![1, 2, 3, 4, 0]);
    m.shutdown();
}

/// Migration from inside a deep recursion: the live stack is large and full
/// of frame pointers — all preserved by the iso-address copy.
#[test]
fn migration_inside_deep_recursion() {
    fn descend(depth: usize, acc: u64) -> u64 {
        // Local data per frame, read after the migration unwinds back up.
        let local = [acc; 4];
        if depth == 0 {
            pm2_migrate(1).unwrap();
            assert_eq!(pm2_self(), 1);
            return local[3];
        }
        let below = descend(depth - 1, acc + 1);
        // These frames were captured on node 0 and resumed on node 1.
        below + local[0]
    }
    let mut m = machine(2);
    let v = m.run_on(0, || descend(40, 1)).unwrap();
    // sum over frames: 41 + sum_{i=1..40} i ... = 41 + 820
    assert_eq!(v, 41 + (1..=40).sum::<u64>());
    m.shutdown();
}

#[test]
fn migration_with_many_heap_blocks() {
    let mut m = machine(3);
    m.run_on(0, || {
        let mut ptrs = Vec::new();
        for i in 0..500usize {
            let sz = 16 + (i * 31) % 900;
            let p = pm2_isomalloc(sz).unwrap();
            unsafe { std::ptr::write_bytes(p, (i % 255) as u8, sz) };
            ptrs.push((p, sz, (i % 255) as u8));
        }
        // Free a third before migrating (holes must also survive).
        for i in (0..500).step_by(3) {
            let (p, _, _) = ptrs[i];
            pm2_isofree(p).unwrap();
        }
        pm2_migrate(1).unwrap();
        pm2_migrate(2).unwrap();
        for (i, &(p, sz, fill)) in ptrs.iter().enumerate() {
            if i % 3 == 0 {
                continue;
            }
            unsafe {
                assert_eq!(*p, fill, "block {i} head");
                assert_eq!(*p.add(sz - 1), fill, "block {i} tail");
            }
            pm2_isofree(p).unwrap();
        }
    })
    .unwrap();
    // The thread died on node 2: its slots were released THERE (Fig. 6
    // step 4), so node 2 now owns slots it did not start with.
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    let gained: usize = audit.nodes[2].bitmap.count_ones();
    let initial = m.area().n_slots() / 3;
    assert!(gained > initial, "node 2 owns {gained} ≤ initial {initial}");
    m.shutdown();
}

#[test]
fn preemptive_migration_by_peer_thread() {
    let mut m = machine(2);
    let done = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let done2 = done.clone();
    // A worker that just counts and yields — no migration code at all.
    let worker = m
        .spawn_on(0, move || {
            let mut final_node = 0;
            for _ in 0..200 {
                final_node = pm2_self();
                pm2_yield();
            }
            done2.store(final_node + 1, std::sync::atomic::Ordering::SeqCst);
        })
        .unwrap();
    // A manager thread on the same node preemptively ships the worker away.
    let wtid = worker.tid;
    let manager = m
        .spawn_on(0, move || {
            for _ in 0..3 {
                pm2_yield();
            }
            pm2_migrate_thread(wtid, 1).unwrap();
        })
        .unwrap();
    m.join(manager);
    m.join(worker);
    assert_eq!(
        done.load(std::sync::atomic::Ordering::SeqCst),
        2,
        "worker must have finished on node 1"
    );
    assert_eq!(m.node_stats(1).migrations_in, 1);
    m.shutdown();
}

#[test]
fn migrating_an_unknown_thread_fails() {
    let mut m = machine(2);
    let r = m.run_on(0, || pm2_migrate_thread(0xDEAD, 1)).unwrap();
    assert_eq!(r, Err(pm2::Pm2Error::NoSuchThread(0xDEAD)));
    m.shutdown();
}

#[test]
fn migrate_to_bad_node_fails_cleanly() {
    let mut m = machine(2);
    let r = m.run_on(0, || pm2_migrate(7)).unwrap();
    assert_eq!(r, Err(pm2::Pm2Error::NoSuchNode(7)));
    m.shutdown();
}

#[test]
fn self_migration_is_a_noop() {
    let mut m = machine(2);
    m.run_on(0, || {
        pm2_migrate(0).unwrap();
        assert_eq!(pm2_self(), 0);
    })
    .unwrap();
    assert_eq!(m.node_stats(0).migrations_out, 0);
    m.shutdown();
}

#[test]
fn many_threads_migrate_concurrently() {
    let mut m = machine(4);
    let mut handles = Vec::new();
    for i in 0..24usize {
        let h = m
            .spawn_on(i % 4, move || {
                let mut x = [i as u64; 8];
                let px = x.as_ptr();
                for hop in 0..6 {
                    pm2_migrate((i + hop) % 4).unwrap();
                    unsafe { assert_eq!(*px, i as u64) };
                    x[i % 8] = i as u64; // keep the array live
                }
            })
            .unwrap();
        handles.push(h);
    }
    for h in handles {
        assert!(!m.join(h).panicked);
    }
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn threaded_mode_migration_works_in_parallel() {
    let mut m = Machine::builder(3)
        .test_profile()
        .threaded()
        .launch()
        .unwrap();
    let mut handles = Vec::new();
    for i in 0..9usize {
        handles.push(
            m.spawn_on(i % 3, move || {
                let p = pm2_isomalloc(256).unwrap() as *mut u64;
                unsafe { p.write(i as u64) };
                for hop in 1..4 {
                    pm2_migrate((i + hop) % 3).unwrap();
                    unsafe { assert_eq!(p.read(), i as u64) };
                }
                pm2_isofree(p as *mut u8).unwrap();
            })
            .unwrap(),
        );
    }
    for h in handles {
        assert!(!m.join(h).panicked);
    }
    m.shutdown();
}

#[test]
fn migration_stats_and_buffer_sizes() {
    let mut m = machine(2);
    m.run_on(0, || {
        pm2_migrate(1).unwrap();
    })
    .unwrap();
    let s = m.node_stats(0);
    assert_eq!(s.migrations_out, 1);
    assert!(s.migration_bytes_out > 0);
    // A null thread is small: metadata + shallow live stack, well under a
    // slot (the basis of the paper's 75 µs figure).
    assert!(
        s.migration_bytes_out < 16 * 1024,
        "null-thread migration buffer unexpectedly large: {} B",
        s.migration_bytes_out
    );
    m.shutdown();
}

#[test]
fn panics_propagate_across_migration() {
    let mut m = machine(2);
    let t = m
        .spawn_on(0, || {
            pm2_migrate(1).unwrap();
            panic!("explode on the destination node");
        })
        .unwrap();
    let exit = m.join(t);
    assert!(exit.panicked);
    assert_eq!(exit.died_on, 1);
    // The machine survives and remains consistent.
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

/// Satellite regression (ISSUE 2): a corrupt or truncated migration buffer
/// must be NAKed and logged, not kill the node driver.
#[test]
fn corrupt_migration_is_naked_not_fatal() {
    use pm2::proto::tag;
    let mut m = machine(2);
    // Several corruption shapes: a buffer too short for the train header,
    // a train whose table escapes the buffer, and a well-formed table
    // whose single record group claims an address outside the slot grid.
    m.inject_raw(0, tag::MIGRATION, vec![0u8; 2]).unwrap();
    let mut table_escapes = Vec::new();
    table_escapes.extend_from_slice(&1_000_000u32.to_le_bytes()); // count
    table_escapes.extend_from_slice(&[0u8; 32]);
    m.inject_raw(0, tag::MIGRATION, table_escapes).unwrap();
    let mut bad_record = Vec::new();
    bad_record.extend_from_slice(&1u32.to_le_bytes()); // count = 1
    bad_record.extend_from_slice(&77u64.to_le_bytes()); // tid
    bad_record.extend_from_slice(&20u32.to_le_bytes()); // off (after table)
    bad_record.extend_from_slice(&24u32.to_le_bytes()); // len
    bad_record.extend_from_slice(&0x10u64.to_le_bytes()); // record base: garbage
    bad_record.extend_from_slice(&1u32.to_le_bytes()); // n_slots
    bad_record.extend_from_slice(&2u32.to_le_bytes()); // kind = stack
    bad_record.extend_from_slice(&0u32.to_le_bytes()); // n_extents
    bad_record.extend_from_slice(&0u32.to_le_bytes()); // total_len
    m.inject_raw(0, tag::MIGRATION, bad_record).unwrap();
    // A malformed migrate *command* is dropped, not fatal, either.
    m.inject_raw(0, tag::MIGRATE_CMD, vec![0u8; 4]).unwrap();
    // The node keeps scheduling, spawning and migrating threads.
    let hops = m
        .run_on(0, || {
            pm2_migrate(1).unwrap();
            pm2_migrate(0).unwrap();
            2usize
        })
        .unwrap();
    assert_eq!(hops, 2);
    let s = m.node_stats(0);
    assert_eq!(s.migrations_failed, 3, "all three bad buffers rejected");
    assert_eq!(s.migrations_in, 1, "real migrations still arrive");
    assert!(
        m.output_lines()
            .iter()
            .any(|l| l.contains("rejected corrupt migration")),
        "rejection must be logged: {:?}",
        m.output_lines()
    );
    // The per-record rejection NAKed tid 77 back to the "sender" (the
    // host injected it, so node 0's own registry records the loss via the
    // NAK path exercised below) — here just check the machine stayed
    // consistent: slot accounting is untouched by the rejected buffers.
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

/// Tentpole acceptance (ISSUE 4): train fault isolation.  One record group
/// in the middle of a 4-thread train is truncated (via the pack fault
/// hook); the other three threads must adopt and run on the destination,
/// and only the corrupt tid is NAKed and completed as a panicked exit at
/// the source.
#[test]
fn corrupt_record_mid_train_costs_only_its_thread() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // Host-assigned tids are deterministic: 1<<63 | spawn-order.  The
    // second worker's packed records will be truncated on departure.
    let corrupt_tid: u64 = (1 << 63) | 2;
    let mut m = Machine::launch(Pm2Config {
        fault_corrupt_pack: vec![corrupt_tid],
        ..Pm2Config::test(2)
    })
    .unwrap();

    let finished = Arc::new(AtomicUsize::new(0));
    let mut workers = Vec::new();
    for _ in 0..4 {
        let fin = Arc::clone(&finished);
        workers.push(
            m.spawn_on(0, move || {
                // No migration code: wait to be shipped, then finish.
                while pm2_self() == 0 {
                    pm2_yield();
                }
                fin.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap(),
        );
    }
    assert_eq!(workers[1].tid, corrupt_tid, "tid scheme changed?");
    let tids: Vec<u64> = workers.iter().map(|w| w.tid).collect();

    // Wait until every worker is resident before ordering the group move,
    // so all four are flagged in one command and leave in one train.
    let t0 = std::time::Instant::now();
    while m.node_stats(0).spawns < 4 {
        assert!(t0.elapsed().as_secs() < 10, "workers never spawned");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // A manager on node 0 flags all four while they are Ready; the first
    // departure sweeps the rest into one 4-thread train.
    let accepted = m
        .run_on(0, move || pm2_group_migrate(0, 1, &tids).unwrap())
        .unwrap();
    assert_eq!(accepted, 4, "all four flagged in one group command");

    // The three healthy threads land and run to completion…
    for (i, w) in workers.into_iter().enumerate() {
        let exit = m.join(w);
        if i == 1 {
            // …while the corrupt one is lost: the NAK completed it as a
            // panicked exit at the source, so this join does not hang.
            assert!(exit.panicked, "corrupt thread must read as failed");
            assert!(
                exit.panic_message().contains("lost in migration"),
                "NAK text must travel: {:?}",
                exit.panic_message()
            );
        } else {
            assert!(!exit.panicked, "healthy train member {i} must survive");
        }
    }
    assert_eq!(finished.load(Ordering::SeqCst), 3);

    let (s0, s1) = (m.node_stats(0), m.node_stats(1));
    assert_eq!(s0.migrations_out, 4, "all four were packed and shipped");
    assert_eq!(s0.trains_out, 1, "one wire message carried the train");
    assert_eq!(s0.threads_per_message(), 4.0);
    assert_eq!(s1.trains_in, 1);
    assert_eq!(s1.migrations_in, 3, "three healthy threads adopted");
    assert_eq!(s1.migrations_failed, 1, "one record group rejected");
    assert!(
        m.output_lines()
            .iter()
            .any(|l| l.contains("rejected corrupt migration")),
        "rejection must be logged: {:?}",
        m.output_lines()
    );
    // No audit here: the corrupt thread's slots are genuinely lost (they
    // were unmapped at pack time and never adopted), exactly like a real
    // mid-flight corruption.
    m.shutdown();
}

/// Tentpole acceptance: a migration ping-pong carrying live heap data runs
/// on pooled buffers — after warm-up, **zero payload heap allocations per
/// round** (the pool's alloc counter stays flat) — and the heap verifies
/// structurally on every hop.
#[test]
fn pooled_migration_roundtrip_with_heap_verify() {
    let mut m = machine(2);
    let slot_size = m.area().slot_size();
    m.run_on(0, move || {
        // A sparse heap: pattern-filled blocks with holes between them.
        let mut blocks = Vec::new();
        for i in 0..32usize {
            let p = pm2_isomalloc(512 + i * 16).unwrap();
            unsafe { std::ptr::write_bytes(p, (i as u8) ^ 0x5A, 512 + i * 16) };
            blocks.push(p);
        }
        for i in (0..32).step_by(2) {
            pm2_isofree(blocks[i]).unwrap();
        }
        let verify = |hop: usize| {
            let d = marcel::current_desc();
            unsafe {
                isomalloc::verify::verify_heap(&(*d).heap, slot_size)
                    .unwrap_or_else(|e| panic!("heap corrupt after hop {hop}: {e}"));
            }
            for i in (1..32).step_by(2) {
                let p = blocks[i];
                for off in [0usize, 511 + i * 16] {
                    assert_eq!(
                        unsafe { *p.add(off) },
                        (i as u8) ^ 0x5A,
                        "payload {i} clobbered after hop {hop}"
                    );
                }
            }
        };
        for hop in 0..24 {
            pm2_migrate(1 - (hop % 2)).unwrap();
            verify(hop);
        }
        for i in (1..32).step_by(2) {
            pm2_isofree(blocks[i]).unwrap();
        }
    })
    .unwrap();
    // Warmed-up pools stopped allocating: every one of the 24 hops after
    // the first few rode a recycled buffer.
    let total_migrations = m.node_stats(0).migrations_out + m.node_stats(1).migrations_out;
    assert_eq!(total_migrations, 24);
    let pool = m.pool_stats(0) + m.pool_stats(1);
    let (allocs, reuses) = (pool.allocs, pool.reuses);
    assert!(
        allocs <= 6,
        "steady-state migration must reuse pooled buffers (allocs {allocs}, reuses {reuses})"
    );
    assert!(reuses >= 18, "expected pool reuse, got {reuses}");
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

/// A migration NAK must complete every lost thread in the registry so
/// joiners surface an error instead of hanging.
#[test]
fn migration_nak_completes_the_lost_threads() {
    use pm2::proto::tag;
    let mut m = machine(1);
    let mut nak = Vec::new();
    nak.extend_from_slice(&2u32.to_le_bytes()); // two lost tids
    nak.extend_from_slice(&42u64.to_le_bytes());
    nak.extend_from_slice(&43u64.to_le_bytes());
    nak.extend_from_slice(b"simulated unpack failure");
    m.inject_raw(0, tag::MIGRATION_NAK, nak).unwrap();
    for tid in [42u64, 43] {
        let exit = m.join(pm2::Pm2Thread { tid });
        assert!(exit.panicked, "lost thread must read as a failed exit");
        assert!(
            exit.panic_message().contains("simulated unpack failure"),
            "rejection text must travel: {:?}",
            exit.panic_message()
        );
    }
    m.shutdown();
}
