//! Node death without thread death: the kill switch, the heartbeat
//! failure detector, typed `NodeFailed` resolution of every blocked
//! waiter, and checkpoint-based recovery onto survivors.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::{Distribution, Machine, Pm2Config, Pm2Error, Service};

/// Fresh scratch directory for a spill log.
fn scratch_dir(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pm2-ft-{}-{name}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Park the calling green thread until `stop` flips, then return `value`.
fn loop_until(stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        marcel::yield_now();
    }
}

#[test]
fn killed_node_fails_host_join_within_grace() {
    let mut m = Machine::builder(2)
        .test_profile()
        .reply_deadline(Duration::from_millis(300))
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let t = m.spawn_on(1, move || loop_until(&stop2)).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let it start looping
    m.kill_node(1).unwrap();
    let t0 = Instant::now();
    let exit = m.join(t);
    assert!(exit.panicked, "a failed thread must not read as success");
    assert_eq!(exit.failed_node, Some(1));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "join must resolve promptly after the grace window, not hang"
    );
    stop.store(true, Ordering::SeqCst);
    m.shutdown();
}

#[test]
fn killed_node_fails_typed_join_with_node_failed() {
    let mut m = Machine::builder(2)
        .test_profile()
        .reply_deadline(Duration::from_millis(300))
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let h = m
        .spawn_on_ret(1, move || {
            loop_until(&stop2);
            42u64
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    m.kill_node(1).unwrap();
    match h.join() {
        Err(Pm2Error::NodeFailed(1)) => {}
        other => panic!("expected NodeFailed(1), got {other:?}"),
    }
    stop.store(true, Ordering::SeqCst);
    m.shutdown();
}

struct Stuck;
impl Service for Stuck {
    const NAME: &'static str = "ft.stuck";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, _req: u64) -> u64 {
        // Never replies: the handler spins until its node is killed.
        loop {
            marcel::yield_now();
        }
    }
}

#[test]
fn killed_callee_fails_host_rpc_with_node_failed() {
    let mut m = Machine::builder(2)
        .test_profile()
        .reply_deadline(Duration::from_secs(10))
        .launch()
        .unwrap();
    m.register(Stuck);
    // Kill before the call: the send itself is refused with the death
    // certificate, well before any deadline.
    m.kill_node(1).unwrap();
    let t0 = Instant::now();
    match m.rpc_call::<Stuck>(1, 5) {
        Err(Pm2Error::NodeFailed(1)) => {}
        other => panic!("expected NodeFailed(1), got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5));
    m.shutdown();
}

#[test]
fn killed_callee_fails_green_rpc_mid_call() {
    let mut m = Machine::builder(3)
        .test_profile()
        .reply_deadline(Duration::from_secs(30))
        .launch()
        .unwrap();
    m.register(Stuck);
    // A green thread on node 0 calls the never-replying service on node 2;
    // the kill lands mid-call.  Node 0 hears the NODE_DEAD broadcast and
    // synthesizes a typed failure reply for the pending call — the caller
    // resolves long before the 30 s reply deadline.
    let h = m
        .spawn_on_ret(0, || match pm2_rpc_call::<Stuck>(2, 5) {
            Err(Pm2Error::NodeFailed(2)) => 1u64,
            _ => 0u64,
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // call in flight
    m.kill_node(2).unwrap();
    let t0 = Instant::now();
    assert_eq!(h.join().unwrap(), 1, "caller must see NodeFailed(2)");
    assert!(t0.elapsed() < Duration::from_secs(10));
    m.shutdown();
}

#[test]
fn killed_owner_fails_green_join_mid_wait() {
    let mut m = Machine::builder(3)
        .test_profile()
        .reply_deadline(Duration::from_millis(300))
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let a = m
        .spawn_on_ret(2, move || {
            loop_until(&stop2);
            7u64
        })
        .unwrap();
    let a_tid = a.tid();
    // A green joiner on node 0 blocks on the thread living on node 2.
    let b = m
        .spawn_on_ret(0, move || match pm2_join_value::<u64>(a_tid) {
            Err(Pm2Error::NodeFailed(2)) => 1u64,
            _ => 0u64,
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // joiner parked
    m.kill_node(2).unwrap();
    assert_eq!(b.join().unwrap(), 1, "green joiner must see NodeFailed(2)");
    stop.store(true, Ordering::SeqCst);
    m.shutdown();
}

#[test]
fn heartbeat_detector_declares_a_silent_node_dead() {
    let mut m = Machine::builder(3)
        .test_profile()
        .failure_timeout(Duration::from_millis(300))
        .heartbeat_every(Duration::from_millis(50))
        .idle_park(Duration::from_millis(50))
        .launch()
        .unwrap();
    // No NODE_DEAD announcement: the survivors must notice the silence.
    m.kill_node_silent(2).unwrap();
    assert!(
        m.wait_node_dead(2, Duration::from_secs(20)),
        "survivors must declare the silent corpse dead via heartbeats"
    );
    assert!(m.is_node_dead(2));
    m.shutdown();
}

#[test]
fn balancer_survives_a_node_death() {
    let mut m = Machine::builder(3)
        .test_profile()
        .reply_deadline(Duration::from_millis(500))
        .launch()
        .unwrap();
    let bal = pm2::loadbal::start_balancer(
        &m,
        pm2::loadbal::BalancerConfig {
            period: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    m.kill_node(2).unwrap();
    let before = bal.rounds();
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        bal.rounds() > before,
        "rounds must keep completing against the survivors"
    );
    bal.stop(&m);
    m.shutdown();
}

#[test]
fn checkpointed_threads_survive_their_node() {
    let dir = scratch_dir("recover");
    let mut m = Machine::builder(4)
        .test_profile()
        .reply_deadline(Duration::from_secs(2))
        .spill_dir(&dir)
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    // Four iso-allocating threads on node 1, each holding a value in the
    // iso-address area that must survive the node.
    let mut survivors_handles = Vec::new();
    for i in 0..4u64 {
        let stop = Arc::clone(&stop);
        survivors_handles.push(
            m.spawn_on_ret(1, move || {
                let cell = pm2::IsoBox::new(0xC0FFEE + i).unwrap();
                loop_until(&stop);
                *cell // the iso pointer must still be valid wherever we are
            })
            .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(100)); // all four mid-loop
    let covered = m.checkpoint_node(1).unwrap();
    assert_eq!(covered, 4, "all four ready threads must be checkpointed");

    // Two more threads spawned *after* the checkpoint: unrecoverable.
    let mut lost_handles = Vec::new();
    for _ in 0..2 {
        let stop = Arc::clone(&stop);
        lost_handles.push(
            m.spawn_on_ret(1, move || {
                loop_until(&stop);
                0u64
            })
            .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(100));

    m.kill_node(1).unwrap();
    let rep = m.recover_node(1).unwrap();
    assert_eq!(rep.dead_node, 1);
    assert_eq!(
        rep.threads_recovered, 4,
        "every checkpointed thread must be re-adopted: {rep:?}"
    );
    assert_eq!(
        rep.threads_lost, 2,
        "the post-checkpoint threads are lost: {rep:?}"
    );
    assert!(
        rep.slots_reclaimed > 0,
        "the corpse's free slots must be reclaimed: {rep:?}"
    );
    assert_eq!(rep.corrupt_records_skipped, 0);
    assert!(!rep.torn_tail_truncated);

    // The lost threads fail typed, promptly.
    for h in lost_handles {
        match h.join() {
            Err(Pm2Error::NodeFailed(1)) => {}
            other => panic!("expected NodeFailed(1), got {other:?}"),
        }
    }

    // The recovered threads resume from their checkpoint on survivors and
    // finish normally — iso pointers intact.
    stop.store(true, Ordering::SeqCst);
    for (i, h) in survivors_handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), 0xC0FFEE + i as u64);
    }

    // The ownership partition is whole again: every slot has exactly one
    // owner among the survivors.
    let report = m.audit().unwrap();
    report.check_partition().unwrap();
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_without_spill_loses_everything_but_hangs_nothing() {
    let mut m = Machine::builder(2)
        .test_profile()
        .reply_deadline(Duration::from_millis(500))
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let h = m
        .spawn_on_ret(1, move || {
            loop_until(&stop2);
            9u64
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    m.kill_node(1).unwrap();
    let rep = m.recover_node(1).unwrap();
    assert_eq!(rep.threads_recovered, 0);
    assert_eq!(rep.threads_lost, 1);
    assert!(rep.slots_reclaimed > 0);
    match h.join() {
        Err(Pm2Error::NodeFailed(1)) => {}
        other => panic!("expected NodeFailed(1), got {other:?}"),
    }
    let report = m.audit().unwrap();
    report.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn recover_rejects_a_living_node() {
    let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
    assert!(m.recover_node(1).is_err(), "recovery is for dead nodes");
    assert!(matches!(m.recover_node(7), Err(Pm2Error::NoSuchNode(7))));
    m.shutdown();
}

#[test]
fn coordinator_death_elects_successor_and_negotiations_complete() {
    // The §4.4 lock service is a leased role on the lowest-id live node —
    // initially node 0.  Kill it mid-storm: the waiters re-resolve the
    // coordinator (node 1), re-issue NEG_LOCK_REQ, and every blocked
    // negotiation completes under the successor.  Round-robin with
    // trading off forces every multi-slot allocation through the global
    // protocol.
    let mut m = Machine::builder(4)
        .test_profile()
        .distribution(Distribution::RoundRobin)
        .slot_trade(false)
        .reply_deadline(Duration::from_secs(2))
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    let storm = |iters: usize, slots: usize| {
        move || {
            for _ in 0..iters {
                let p = pm2_isomalloc(slots * slot).unwrap();
                pm2_yield();
                pm2_isofree(p).unwrap();
            }
        }
    };
    let t2 = m.spawn_on(2, storm(20, 2)).unwrap();
    let t3 = m.spawn_on(3, storm(20, 3)).unwrap();
    std::thread::sleep(Duration::from_millis(30)); // storms in flight
    let t0 = Instant::now();
    m.kill_node(0).unwrap(); // the incumbent coordinator dies
    assert!(
        !m.join(t2).panicked,
        "negotiations must complete under the successor"
    );
    assert!(!m.join(t3).panicked);
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "no waiter may hang past its deadline"
    );
    // A fresh negotiation after the dust settles goes straight through
    // the successor.
    m.run_on(1, move || {
        let p = pm2_isomalloc(2 * slot).unwrap();
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    // Reclaim the corpse's slots so the ownership partition is whole
    // again, then audit it.
    let rep = m.recover_node(0).unwrap();
    assert!(rep.slots_reclaimed > 0);
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn checkpoint_of_a_node_killed_mid_request_resolves_typed() {
    let dir = scratch_dir("ckpt-race");
    let mut m = Machine::builder(2)
        .test_profile()
        .reply_deadline(Duration::from_millis(500))
        .spill_dir(&dir)
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let _t = m.spawn_on(1, move || loop_until(&stop2)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // Stop the node without telling the host (raw KILL, no death
    // certificate): the CKPT_REQ lands on a corpse and no ack can ever
    // arrive.  The retry budget must expire within the reply deadline
    // and surface typed — not hang on the missing ack.
    m.inject_raw(1, pm2::proto::tag::KILL, Vec::new()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    match m.checkpoint_node(1) {
        Err(Pm2Error::RetriesExhausted { op, .. }) => assert_eq!(op, "checkpoint"),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "typed resolution must arrive within one reply deadline, took {:?}",
        t0.elapsed()
    );
    // Once the death is announced, the answer is immediate and names the
    // corpse.
    m.kill_node(1).unwrap();
    let t0 = Instant::now();
    match m.checkpoint_node(1) {
        Err(Pm2Error::NodeFailed(1)) => {}
        other => panic!("expected NodeFailed(1), got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn periodic_checkpoints_cover_recovery_without_explicit_requests() {
    let dir = scratch_dir("periodic");
    let mut m = Machine::builder(2)
        .test_profile()
        .reply_deadline(Duration::from_secs(2))
        .spill_dir(&dir)
        .checkpoint_every(Duration::from_millis(50))
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let h = m
        .spawn_on_ret(1, move || {
            let cell = pm2::IsoBox::new(0xFEEDu64).unwrap();
            loop_until(&stop2);
            *cell
        })
        .unwrap();
    // Let at least one periodic checkpoint fire with the thread ready.
    std::thread::sleep(Duration::from_millis(400));
    m.kill_node(1).unwrap();
    let rep = m.recover_node(1).unwrap();
    assert_eq!(
        rep.threads_recovered, 1,
        "the periodic checkpoint must cover the thread: {rep:?}"
    );
    stop.store(true, Ordering::SeqCst);
    assert_eq!(h.join().unwrap(), 0xFEED);
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
