//! The event-driven driver core, observed from outside: quiescent
//! machines park their drivers (near-zero wake-ups, no spinning), parked
//! drivers wake promptly on traffic, and a flood of data-class messages
//! cannot starve shutdown or negotiation (ISSUE 3).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::proto::tag;
use pm2::{Machine, MachineMode, Pm2Config};

/// Junk RPC_RESP bytes: data-class on the wire, dropped on handling (no
/// pending caller), so floods exercise the queueing layer only.
fn flood(m: &Machine, node: usize, count: usize) {
    for _ in 0..count {
        m.inject_raw(node, tag::RPC_RESP, vec![0u8; 8]).unwrap();
    }
}

#[test]
fn quiescent_threaded_machine_parks_its_drivers() {
    let mut m = Machine::builder(2)
        .test_profile()
        .threaded()
        // Park longer than the observation window: a parked driver
        // then shows ~zero wake-ups while we watch.
        .idle_park(Duration::from_secs(5))
        .launch()
        .unwrap();
    // Let the drivers reach their parks, then watch a quiet window.
    std::thread::sleep(Duration::from_millis(100));
    let before: Vec<_> = (0..2).map(|n| m.node_stats(n)).collect();
    std::thread::sleep(Duration::from_millis(300));
    for (node, s0) in before.iter().enumerate() {
        let s1 = m.node_stats(node);
        assert!(
            s1.driver_parks >= 1,
            "node {node} driver never parked: {s1:?}"
        );
        assert!(
            s1.driver_wakeups - s0.driver_wakeups <= 2,
            "node {node} woke {} times in a quiet 300 ms window",
            s1.driver_wakeups - s0.driver_wakeups
        );
        assert!(
            s1.steps - s0.steps <= 8,
            "node {node} kept stepping ({} steps) while idle — spinning?",
            s1.steps - s0.steps
        );
    }
    // A parked driver still wakes promptly for real work.
    let t0 = Instant::now();
    let v = m.run_on(1, || 6 * 7).unwrap();
    assert_eq!(v, 42);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "wake-from-park took {:?}",
        t0.elapsed()
    );
    m.shutdown();
}

#[test]
fn quiescent_deterministic_machine_parks_its_driver() {
    let mut m = Machine::builder(2)
        .test_profile()
        .idle_park(Duration::from_secs(5))
        .launch()
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let before = m.node_stats(0);
    std::thread::sleep(Duration::from_millis(300));
    let after = m.node_stats(0);
    assert!(after.driver_parks >= 1, "deterministic driver never parked");
    assert!(
        after.driver_wakeups - before.driver_wakeups <= 2,
        "driver woke {} times in a quiet 300 ms window",
        after.driver_wakeups - before.driver_wakeups
    );
    // Shutdown needs no park-timeout to complete: the SHUTDOWN sends ring
    // the node doorbells and the dispatch that handles it retires the node.
    let t0 = Instant::now();
    m.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "shutdown of a parked machine waited on a timeout: {:?}",
        t0.elapsed()
    );
}

#[test]
fn data_flood_does_not_starve_shutdown_deterministic() {
    let mut m = Machine::builder(2)
        .test_profile()
        .pump_budget(8)
        .launch()
        .unwrap();
    flood(&m, 0, 4000);
    flood(&m, 1, 4000);
    let t0 = Instant::now();
    m.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "shutdown starved behind the flood: {:?}",
        t0.elapsed()
    );
}

#[test]
fn data_flood_does_not_starve_shutdown_threaded() {
    let mut m = Machine::builder(2)
        .test_profile()
        .threaded()
        .pump_budget(8)
        .launch()
        .unwrap();
    flood(&m, 0, 4000);
    flood(&m, 1, 4000);
    let t0 = Instant::now();
    m.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "shutdown starved behind the flood: {:?}",
        t0.elapsed()
    );
}

#[test]
fn data_flood_does_not_starve_negotiation() {
    // Node 0's allocation needs slots node 1 owns (round-robin ⇒ every
    // multi-slot negotiates; trading is pinned off so the §4.4 exchange
    // really runs); node 1 is simultaneously buried under data-class
    // junk.  The control-class NEG exchange must overtake the flood and
    // complete within the (test-profile, 10 s) reply deadline.
    for mode in [MachineMode::Deterministic, MachineMode::Threaded] {
        let mut m = Machine::launch(Pm2Config {
            mode,
            ..Machine::builder(2)
                .test_profile()
                .pump_budget(8)
                .slot_trade(false)
                .into_config()
        })
        .unwrap();
        let slot = m.area().slot_size();
        flood(&m, 1, 5000);
        m.run_on(0, move || {
            let p = pm2_isomalloc(slot + 1).unwrap();
            pm2_isofree(p).unwrap();
        })
        .unwrap();
        assert_eq!(m.node_stats(0).negotiations, 1);
        m.shutdown();
    }
}

#[test]
fn tiny_pump_budget_still_runs_everything() {
    // Budget 1 (one message per pump) must be merely slow, never wrong:
    // spawns, migration and typed joins all keep working.
    for mode in [MachineMode::Deterministic, MachineMode::Threaded] {
        let mut m = Machine::launch(Pm2Config {
            mode,
            ..Machine::builder(2)
                .test_profile()
                .pump_budget(1)
                .into_config()
        })
        .unwrap();
        let h = m
            .spawn_on_ret(0, || {
                pm2_migrate(1).unwrap();
                pm2_self() as u64
            })
            .unwrap();
        assert_eq!(h.join().unwrap(), 1);
        m.shutdown();
    }
}

#[test]
fn migration_hops_are_not_poll_bound() {
    // The acceptance gate of ISSUE 3 in miniature: a threaded-mode hop on
    // the instant profile must cost µs, not the ~1 ms a sleep-polling
    // driver pays per hop on a busy host.  200 round trips finishing in
    // < 2 s bounds the mean one-way hop at < 5 ms even under heavy CI
    // noise; the polled baseline needed ~2.2 s of driver latency alone
    // for the same work at its measured 1,079 µs/hop — and the wakeup
    // counters prove the event-driven path was the one taken.
    let mut m = Machine::builder(2)
        .test_profile()
        .threaded()
        .launch()
        .unwrap();
    let t0 = Instant::now();
    m.run_on(0, || {
        for _ in 0..200 {
            pm2_migrate(1).unwrap();
            pm2_migrate(0).unwrap();
        }
    })
    .unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "400 hops took {elapsed:?} — driver is poll-bound again"
    );
    let parks = (m.node_stats(0) + m.node_stats(1)).driver_parks;
    assert!(
        parks > 100,
        "hops should be park/wake cycles, saw {parks} parks"
    );
    m.shutdown();
}

#[test]
fn ring_from_a_green_thread_wakes_an_idle_worker_at_once() {
    // Pushes made by a node's driver code owe their wake-up until the
    // dispatch ends; pushes made inside a green thread must not, because
    // its quantum can run on for any time.  Node 0's thread hands node 1
    // work and then spins without yielding until that work has run, which
    // only the second worker can do meanwhile.  Held back, the wake would
    // wait for the idle-park tick (5 s here).
    static RAN: AtomicBool = AtomicBool::new(false);
    let mut m = Machine::builder(2)
        .test_profile()
        .threaded()
        .workers(2)
        .idle_park(Duration::from_secs(5))
        .launch()
        .unwrap();
    m.register_service(7, |_| RAN.store(true, Ordering::SeqCst));
    // Let both workers reach their parks first.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    m.run_on(0, || {
        pm2_rpc_spawn(1, 7, b"").unwrap();
        let t = Instant::now();
        while !RAN.load(Ordering::SeqCst) && t.elapsed() < Duration::from_secs(10) {
            std::hint::spin_loop();
        }
    })
    .unwrap();
    assert!(
        RAN.load(Ordering::SeqCst),
        "node 1 never ran the spawned work"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "node 1 waited {:?} for a worker",
        t0.elapsed()
    );
    m.shutdown();
}

#[test]
fn busy_node_does_not_starve_idle_node_timers() {
    // Node 0 yield-spins, so the ready queue is never empty; the idle
    // nodes' gossip timers must still fire every heartbeat.  p = 4 with a
    // 25 ms heartbeat: each gossip round is 2 messages, so a 500 ms window
    // ideally sees 40 sends from an idle node.
    for mode in [MachineMode::Threaded, MachineMode::Deterministic] {
        let mut m = Machine::launch(Pm2Config {
            mode,
            ..Machine::builder(4)
                .test_profile()
                .heartbeat_every(Duration::from_millis(25))
                .failure_timeout(Duration::from_secs(30))
                .into_config()
        })
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&stop);
        let busy = m
            .spawn_on(0, move || {
                while !s.load(Ordering::SeqCst) {
                    pm2_yield();
                }
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let before = m.net_stats(3).unwrap().msgs_sent;
        std::thread::sleep(Duration::from_millis(500));
        let sent = m.net_stats(3).unwrap().msgs_sent - before;
        stop.store(true, Ordering::SeqCst);
        m.join(busy);
        m.shutdown();
        assert!(
            sent >= 27,
            "{mode:?}: idle node sent {sent} messages in 500 ms, ideal 40"
        );
    }
}
