//! The multiplexed executor at paper scale (ISSUE 8): machines of 64 and
//! 256 nodes run on a worker pool ≪ p, complete the full
//! spawn/RPC/migrate/join round trips, park when quiescent, shut down by
//! joining the pool without leaking OS threads — and one flooded node
//! cannot starve the other 255.

use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::proto::tag;
use pm2::{AreaConfig, Machine, MachineBuilder};

/// A p-node threaded machine with per-node slot ownership held constant
/// (8 slots each) so spawns at p = 256 don't all funnel through trades.
fn scale_builder(p: usize) -> MachineBuilder {
    Machine::builder(p)
        .test_profile()
        .threaded()
        .area(AreaConfig {
            slot_size: 64 * 1024,
            n_slots: (8 * p).max(256),
        })
}

/// Full round trips on a sample of nodes: value-returning spawns that
/// migrate one hop, plus a host RPC, on a machine whose pool is ≪ p.
fn smoke(p: usize) {
    let mut m = scale_builder(p).launch().unwrap();
    assert!(
        m.worker_threads() < p,
        "pool of {} workers for {p} nodes is not multiplexing",
        m.worker_threads()
    );
    // Spawn/migrate/join on a spread of nodes (every p/8th).
    let mut handles = Vec::new();
    for i in 0..8usize {
        let node = i * p / 8;
        handles.push(
            m.spawn_on_ret(node, move || {
                pm2_migrate((pm2_self() + 1) % pm2_nodes()).unwrap();
                pm2_self() as u64
            })
            .unwrap(),
        );
    }
    for (i, h) in handles.into_iter().enumerate() {
        let node = i * p / 8;
        assert_eq!(h.join().unwrap(), ((node + 1) % p) as u64);
    }
    // A host RPC to the last node (the far end of the fabric).
    assert_eq!(m.run_on(p - 1, || 6 * 7).unwrap(), 42);
    assert_eq!(m.running_workers(), m.worker_threads());
    // Shutdown joins the pool: no worker of this machine outlives it.
    // (Counted per machine, not per process: sibling tests launch
    // machines of their own concurrently.)
    m.shutdown();
    assert_eq!(m.running_workers(), 0, "executor workers leaked");
}

#[test]
fn executor_p64_smoke() {
    smoke(64);
}

#[test]
fn executor_p256_smoke() {
    smoke(256);
}

#[test]
fn quiescent_p256_machine_parks_its_workers() {
    // Gossip is on (p > 16), so idle nodes still tick at the heartbeat
    // cadence — the machine must idle at that bounded rate, not spin.
    let mut m = scale_builder(256)
        .heartbeat_every(Duration::from_millis(100))
        .launch()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300)); // settle
    let before: Vec<_> = (0..256).map(|n| m.node_stats(n)).collect();
    std::thread::sleep(Duration::from_millis(400));
    for (node, s0) in before.iter().enumerate() {
        let s1 = m.node_stats(node);
        assert!(s1.driver_parks >= 1, "node {node} never parked: {s1:?}");
        // ~4 gossip ticks in the window; each is a handful of steps
        // (pump + fault tick + a couple of digest merges).  64 bounds
        // "ticking" far below "spinning" even under CI jitter.
        assert!(
            s1.steps - s0.steps <= 64,
            "node {node} stepped {} times in a quiet 400 ms window — spinning?",
            s1.steps - s0.steps
        );
    }
    // A parked machine still answers promptly.
    let t0 = Instant::now();
    assert_eq!(m.run_on(200, || 1 + 1).unwrap(), 2);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "wake-from-park took {:?}",
        t0.elapsed()
    );
    m.shutdown();
}

#[test]
fn flooded_node_does_not_starve_the_quiet_ones() {
    // One node buried under data-class junk; RPCs to a sample of the
    // other 255 must still complete promptly — the fairness budget swaps
    // the flooded node to the back of the queue every 32 steps.
    let mut m = scale_builder(256).pump_budget(8).launch().unwrap();
    for _ in 0..10_000 {
        m.inject_raw(7, tag::RPC_RESP, vec![0u8; 8]).unwrap();
    }
    let mut worst = Duration::ZERO;
    for i in 0..16usize {
        let node = 16 * i + 9; // spread over the quiet nodes, skip 7
        let t0 = Instant::now();
        assert_eq!(m.run_on(node, move || node as u64).unwrap(), node as u64);
        worst = worst.max(t0.elapsed());
    }
    assert!(
        worst < Duration::from_secs(5),
        "idle-node RPC took {worst:?} behind the flood"
    );
    m.shutdown();
}
