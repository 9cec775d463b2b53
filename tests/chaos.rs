//! The seeded chaos fabric exercised end-to-end: duplicate storms must
//! not double-apply control messages (the per-(source, class) dedup
//! window), reordered traffic must still converge, identical seeds must
//! inject identical fault schedules, and any lossy plan at p = 4 with
//! loss ≤ 5% must complete the core thread operations with no hangs.
//!
//! The fabric-level fault mechanics (drop/duplicate/hold verdicts, the
//! byte-identical replay of one link) are unit-tested in `madeleine`;
//! this suite is about what the *protocols* guarantee on top.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pm2::api::*;
use pm2::{Distribution, FaultPlan, Machine, Service};
use testkit::cases;

/// Sum a per-node stat across the whole machine.
fn total(m: &Machine, f: impl Fn(usize) -> u64) -> u64 {
    (0..m.nodes()).map(f).sum()
}

struct Echo;
impl Service for Echo {
    const NAME: &'static str = "chaos.echo";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        req.wrapping_mul(3)
    }
}

/// A trade-heavy allocation storm: every iteration falls short of local
/// slots, so the machine trades (or negotiates) constantly — maximum
/// control-plane traffic for the fault plan to chew on.
fn alloc_storm(m: &Machine, node: usize, iters: usize) -> pm2::Pm2Thread {
    let slot = m.area().slot_size();
    m.spawn_on(node, move || {
        for _ in 0..iters {
            let p = pm2_isomalloc(2 * slot).unwrap();
            pm2_yield();
            pm2_isofree(p).unwrap();
        }
    })
    .unwrap()
}

#[test]
fn identical_seeds_inject_identical_fault_schedules() {
    // Two machines, same seed, same deterministic workload: the injected
    // faults — and therefore every chaos counter on every node — must be
    // identical.  This is what makes chaos failures replayable.
    let run = || {
        let mut m = Machine::builder(3)
            .test_profile()
            .distribution(Distribution::RoundRobin)
            .fault_plan(
                FaultPlan::new(0xC0FFEE)
                    .with_drop(0.02)
                    .with_duplicate(0.3)
                    .with_hold(0.3),
            )
            .launch()
            .unwrap();
        let t = alloc_storm(&m, 1, 10);
        assert!(!m.join(t).panicked);
        let chaos: Vec<_> = (0..3)
            .map(|n| {
                let s = m.net_stats(n).unwrap();
                (
                    s.chaos_dropped,
                    s.chaos_duplicated,
                    s.chaos_held,
                    s.msgs_sent,
                )
            })
            .collect();
        let dups = total(&m, |n| m.node_stats(n).dup_dropped);
        m.shutdown();
        (chaos, dups)
    };
    assert_eq!(run(), run(), "same seed must replay the same schedule");
}

#[test]
fn duplicate_storm_cannot_double_adopt_trade_grants() {
    // Heavy duplication on every unprotected link: a replayed
    // SLOT_TRADE_RESP carries a grant whose slots were already adopted
    // once — the dedup window must drop the replay before the handler
    // can adopt them twice.  Double adoption corrupts the ownership
    // partition, which the audit would catch.
    let mut m = Machine::builder(4)
        .test_profile()
        .distribution(Distribution::RoundRobin)
        .fault_plan(FaultPlan::new(7).with_duplicate(0.6))
        .launch()
        .unwrap();
    let threads: Vec<_> = (0..4).map(|n| alloc_storm(&m, n, 15)).collect();
    for t in threads {
        assert!(!m.join(t).panicked);
    }
    assert!(
        total(&m, |n| m.node_stats(n).dup_dropped) > 0,
        "the storm must actually have produced duplicates"
    );
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn duplicated_migrate_commands_and_acks_apply_once() {
    // MIGRATE_CMD / MIGRATE_CMD_ACK are at-least-once: a duplicated
    // command must not re-flag (or double-count) a migration, and a
    // duplicated ack must not confuse the waiting manager.  The train
    // itself (MIGRATION) rides the protected class.
    let mut m = Machine::builder(2)
        .test_profile()
        .fault_plan(FaultPlan::new(21).with_duplicate(0.7))
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        workers.push(
            m.spawn_on_ret(0, move || {
                while !stop.load(Ordering::SeqCst) {
                    marcel::yield_now();
                }
                pm2_self() as u64
            })
            .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(50)); // all four mid-loop
    for w in &workers {
        let tid = w.tid();
        // A manager on node 1 pulls each worker over — the remote
        // MIGRATE_CMD / MIGRATE_CMD_ACK exchange, duplicated ~70% of
        // the time.
        let accepted = m
            .run_on(1, move || pm2_group_migrate(0, 1, &[tid]).unwrap())
            .unwrap();
        assert_eq!(accepted, 1, "the command must flag exactly one thread");
    }
    std::thread::sleep(Duration::from_millis(100)); // departures done
    stop.store(true, Ordering::SeqCst);
    for w in workers {
        assert_eq!(w.join().unwrap(), 1, "worker must finish on node 1");
    }
    assert_eq!(
        m.node_stats(1).migrations_in,
        4,
        "each worker must arrive exactly once"
    );
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn reordered_control_traffic_still_converges() {
    // A hold-heavy plan swaps adjacent control messages on every
    // unprotected link; the dedup window tolerates distance-1 reorder
    // and the request/reply ops match by id, so everything completes.
    let mut m = Machine::builder(4)
        .test_profile()
        .distribution(Distribution::RoundRobin)
        .fault_plan(FaultPlan::new(99).with_hold(0.5))
        .launch()
        .unwrap();
    m.register(Echo);
    let threads: Vec<_> = (1..4).map(|n| alloc_storm(&m, n, 10)).collect();
    for i in 0..10u64 {
        assert_eq!(m.rpc_call::<Echo>((i % 4) as usize, i), Ok(i * 3));
    }
    for t in threads {
        assert!(!m.join(t).panicked);
    }
    assert!(
        total(&m, |n| m.net_stats(n).map_or(0, |s| s.chaos_held)) > 0,
        "the plan must actually have reordered something"
    );
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn any_lossy_plan_up_to_5_percent_completes_the_core_ops() {
    // Property (testkit `cases`): whatever the seed and loss rate ≤ 5%,
    // a p = 4 machine still completes spawn, RPC, migrate and join —
    // the at-least-once ops retry through the loss, the exactly-once
    // class is protected, and nothing hangs.
    cases(6, |rng| {
        let seed = rng.next_u64();
        let loss = (rng.next_u64() % 51) as f64 / 1000.0; // 0 .. 5%
        let mut m = Machine::builder(4)
            .test_profile()
            .distribution(Distribution::RoundRobin)
            .reply_deadline(Duration::from_secs(2))
            .fault_plan(FaultPlan::lossy(seed, loss))
            .launch()
            .unwrap();
        m.register(Echo);
        // Spawn + join with a value.
        let h = m.spawn_on_ret(1, || 11u64).unwrap();
        assert_eq!(h.join().unwrap(), 11);
        // RPC against every node.
        for n in 0..4 {
            assert_eq!(m.rpc_call::<Echo>(n, 5), Ok(15));
        }
        // Self-migration with live iso state, plus trade-heavy
        // allocations to push control traffic through the loss.
        let slot = m.area().slot_size();
        let t = m
            .spawn_on(2, move || {
                let p = pm2_isomalloc(2 * slot).unwrap();
                unsafe { p.write_bytes(0xAB, 2 * slot) };
                pm2_migrate(3).unwrap();
                assert_eq!(pm2_self(), 3);
                unsafe { assert_eq!(p.read(), 0xAB) };
                pm2_isofree(p).unwrap();
            })
            .unwrap();
        assert!(!m.join(t).panicked, "seed {seed} loss {loss}");
        let audit = m.audit().unwrap();
        audit.check_partition().unwrap();
        m.shutdown();
    });
}
