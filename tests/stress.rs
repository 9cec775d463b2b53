//! Randomized whole-machine stress: many threads performing random
//! alloc/write/verify/free/migrate sequences, with the global exclusive-
//! ownership audit as the final oracle.  Seeded, so failures reproduce.

use testkit::StdRng;

use pm2::api::*;
use pm2::{Distribution, Machine, MachineMode, Pm2Config};

/// One thread's random walk: keep a set of live iso blocks (each filled
/// with a seed-derived pattern), randomly allocate, free, verify, migrate
/// and yield; verify everything at the end.
fn random_walk(seed: u64, nodes: usize, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(*mut u8, usize, u8)> = Vec::new();
    for step in 0..steps {
        match rng.random_range(0..10u32) {
            // 0-3: allocate and fill
            0..=3 => {
                let sz = rng.random_range(1..3000usize);
                let fill = rng.random_range(1..=255u32) as u8;
                let p = pm2_isomalloc(sz).unwrap();
                unsafe { std::ptr::write_bytes(p, fill, sz) };
                live.push((p, sz, fill));
            }
            // 4-5: free a random block
            4..=5 => {
                if !live.is_empty() {
                    let i = rng.random_range(0..live.len());
                    let (p, sz, fill) = live.swap_remove(i);
                    unsafe {
                        assert_eq!(*p, fill, "step {step}: head");
                        assert_eq!(*p.add(sz - 1), fill, "step {step}: tail");
                    }
                    pm2_isofree(p).unwrap();
                }
            }
            // 6: verify a random block end to end
            6 => {
                if !live.is_empty() {
                    let i = rng.random_range(0..live.len());
                    let (p, sz, fill) = live[i];
                    unsafe {
                        for off in [0, sz / 3, sz / 2, sz - 1] {
                            assert_eq!(*p.add(off), fill, "step {step}: offset {off}");
                        }
                    }
                }
            }
            // 7-8: migrate somewhere
            7..=8 => {
                let dest = rng.random_range(0..nodes);
                pm2_migrate(dest).unwrap();
            }
            // 9: yield
            _ => pm2_yield(),
        }
    }
    for (p, sz, fill) in live {
        unsafe {
            assert_eq!(*p, fill);
            assert_eq!(*p.add(sz - 1), fill);
        }
        pm2_isofree(p).unwrap();
    }
}

fn stress(nodes: usize, threads: usize, steps: usize, seed: u64, mode: MachineMode) {
    let mut m = Machine::launch(Pm2Config {
        mode,
        ..Machine::builder(nodes)
            .test_profile()
            .slot_cache(8)
            .area(pm2::AreaConfig {
                slot_size: 64 * 1024,
                n_slots: 512,
            })
            .into_config()
    })
    .unwrap();
    let mut handles = Vec::new();
    for t in 0..threads {
        let s = seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15);
        handles.push(
            m.spawn_on(t % nodes, move || random_walk(s, nodes, steps))
                .unwrap(),
        );
    }
    for h in handles {
        let exit = m.join(h);
        assert!(!exit.panicked, "a stress thread failed — seed {seed}");
    }
    // Final oracle: exclusive slot ownership, nothing leaked.
    let audit = m.audit().unwrap();
    let summary = audit.check_partition().unwrap();
    assert_eq!(
        summary.thread_owned, 0,
        "all threads exited; no slot may remain thread-owned"
    );
    assert_eq!(summary.node_owned, m.area().n_slots());
    m.shutdown();
}

#[test]
fn stress_deterministic_2_nodes() {
    stress(2, 8, 300, 0xA11CE, MachineMode::Deterministic);
}

#[test]
fn stress_deterministic_4_nodes() {
    stress(4, 12, 250, 0xB0B5EED, MachineMode::Deterministic);
}

#[test]
fn stress_threaded_3_nodes() {
    stress(3, 9, 300, 0xC0FFEE, MachineMode::Threaded);
}

#[test]
fn stress_threaded_large_allocations() {
    // Mix in occasionally huge (multi-slot, negotiated) blocks.
    let mut m = Machine::builder(3)
        .test_profile()
        .threaded()
        .area(pm2::AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 512,
        })
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    let mut handles = Vec::new();
    for t in 0..6usize {
        handles.push(
            m.spawn_on(t % 3, move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                for _ in 0..20 {
                    let slots = rng.random_range(1..6usize);
                    let sz = slots * slot + rng.random_range(0..1000usize);
                    let p = pm2_isomalloc(sz).unwrap();
                    unsafe {
                        p.write(7);
                        p.add(sz - 1).write(9);
                    }
                    if rng.random_bool(0.5) {
                        pm2_migrate(rng.random_range(0..3)).unwrap();
                    }
                    unsafe {
                        assert_eq!(p.read(), 7);
                        assert_eq!(p.add(sz - 1).read(), 9);
                    }
                    pm2_isofree(p).unwrap();
                }
            })
            .unwrap(),
        );
    }
    for h in handles {
        assert!(!m.join(h).panicked);
    }
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn stress_block_cyclic_distribution() {
    let mut m = Machine::builder(4)
        .test_profile()
        .distribution(Distribution::BlockCyclic(8))
        .area(pm2::AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 512,
        })
        .launch()
        .unwrap();
    let mut handles = Vec::new();
    for t in 0..8usize {
        handles.push(
            m.spawn_on(t % 4, move || random_walk(t as u64, 4, 200))
                .unwrap(),
        );
    }
    for h in handles {
        assert!(!m.join(h).panicked);
    }
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn spawn_tree_with_joins() {
    // Threads spawning threads spawning threads, across migrations.
    let mut m = Machine::launch(Pm2Config::test(3)).unwrap();
    let root = m
        .spawn_on(0, || {
            let mut kids = Vec::new();
            for i in 0..4usize {
                kids.push(
                    pm2_thread_create(move || {
                        pm2_migrate(i % 3).unwrap();
                        let grandkid = pm2_thread_create(|| {
                            let p = pm2_isomalloc(128).unwrap();
                            pm2_isofree(p).unwrap();
                        })
                        .unwrap();
                        assert!(!pm2_join(grandkid));
                    })
                    .unwrap(),
                );
            }
            for k in kids {
                assert!(!pm2_join(k));
            }
        })
        .unwrap();
    assert!(!m.join(root).panicked);
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}
