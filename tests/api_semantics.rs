//! API semantics and edge cases: error paths, ownership rules, statistics,
//! output capture, RPC services, and the legacy registered-pointer scheme.

use std::sync::mpsc;
use std::time::Duration;

use pm2::api::*;
use pm2::proto::{encode_rpc_spawn, tag};
use pm2::{BufPool, Machine, MachineBuilder, MigrationScheme, NetProfile, Pm2Config, Pm2Error};

fn machine(nodes: usize) -> Machine {
    Machine::launch(Pm2Config::test(nodes)).unwrap()
}

#[test]
fn isofree_rejects_garbage_pointers() {
    let mut m = machine(1);
    m.run_on(0, || {
        let mut local = [0u8; 64];
        assert!(pm2_isofree(local.as_mut_ptr()).is_err());
        assert!(pm2_isofree(std::ptr::null_mut()).is_err());
        // Double free detected.
        let p = pm2_isomalloc(64).unwrap();
        pm2_isofree(p).unwrap();
        assert!(pm2_isofree(p).is_err());
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn zero_sized_isomalloc() {
    let mut m = machine(1);
    m.run_on(0, || {
        let p = pm2_isomalloc(0).unwrap();
        assert!(!p.is_null());
        assert_eq!(p as usize % 16, 0);
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn payload_alignment_is_16() {
    let mut m = machine(1);
    m.run_on(0, || {
        for sz in [1usize, 7, 16, 17, 100, 4097] {
            let p = pm2_isomalloc(sz).unwrap();
            assert_eq!(p as usize % 16, 0, "size {sz}");
            pm2_isofree(p).unwrap();
        }
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn rpc_spawn_from_green_thread() {
    let mut m = machine(3);
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    m.register_service(1, move |args| {
        assert_eq!(args, b"gargle");
        tx.send(pm2_self()).unwrap();
    });
    m.run_on(0, || {
        pm2_rpc_spawn(2, 1, b"gargle").unwrap();
        assert!(pm2_rpc_spawn(9, 1, b"").is_err(), "bad node rejected");
    })
    .unwrap();
    assert_eq!(
        rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
        2
    );
    m.shutdown();
}

/// An `RPC_SPAWN` naming an unregistered service must not take the
/// serving node down: both senders refuse it with `NoSuchService`, and a
/// request that reaches a node anyway (injected raw, here also a
/// malformed one) is dropped with one output line while the node keeps
/// serving.  The machine lives on a helper thread that reports each step;
/// every wait is bounded, so a wedged node fails the test instead of
/// hanging it.
fn unknown_rpc_spawn_service_leaves_node_serving(builder: MachineBuilder) {
    const UNKNOWN: u32 = 4242;
    let (tx, rx) = mpsc::channel::<&'static str>();
    let helper = std::thread::spawn(move || {
        let mut m = builder.launch().unwrap();
        let refused = |r: pm2::Result<()>| matches!(r, Err(Pm2Error::NoSuchService(UNKNOWN)));
        assert!(refused(m.rpc_spawn(1, UNKNOWN, b"")));
        assert!(refused(
            m.run_on(0, || pm2_rpc_spawn(1, UNKNOWN, b"")).unwrap()
        ));
        tx.send("refused").unwrap();

        let unknown = encode_rpc_spawn(&BufPool::new(), UNKNOWN, b"").to_vec();
        m.inject_raw(1, tag::RPC_SPAWN, unknown).unwrap();
        m.inject_raw(1, tag::RPC_SPAWN, vec![1]).unwrap();
        assert_eq!(m.run_on(1, pm2_self).unwrap(), 1);
        let dropped = m.output_lines();
        assert_eq!(dropped.len(), 2, "{dropped:?}");
        assert!(dropped
            .iter()
            .all(|l| l.starts_with("[node1] rpc_spawn: dropped")));
        tx.send("run_on").unwrap();

        m.shutdown();
        tx.send("shutdown").unwrap();
    });
    for step in ["refused", "run_on", "shutdown"] {
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(done) => assert_eq!(done, step),
            Err(e) => panic!("step `{step}` did not finish: {e:?}"),
        }
    }
    helper.join().expect("helper thread");
}

#[test]
fn unknown_rpc_spawn_service_deterministic() {
    unknown_rpc_spawn_service_leaves_node_serving(Machine::builder(2).test_profile());
}

#[test]
fn unknown_rpc_spawn_service_threaded() {
    unknown_rpc_spawn_service_leaves_node_serving(Machine::builder(2).test_profile().threaded());
}

#[test]
fn join_from_green_thread_returns_panic_flag() {
    let mut m = machine(2);
    m.run_on(0, || {
        let good = pm2_thread_create(|| {}).unwrap();
        let bad = pm2_thread_create(|| panic!("boom")).unwrap();
        assert!(!pm2_join(good));
        assert!(pm2_join(bad), "panic must be reported to the joiner");
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn probe_load_counts_residents() {
    let mut m = machine(2);
    let t = m
        .spawn_on(1, || {
            for _ in 0..2000 {
                pm2_yield();
            }
        })
        .unwrap();
    let seen = m
        .run_on(0, || {
            // Node 1 hosts one (yielding) thread.
            pm2_probe_load(1).unwrap()
        })
        .unwrap();
    assert!(
        seen >= 1,
        "expected at least the resident worker, saw {seen}"
    );
    m.join(t);
    m.shutdown();
}

#[test]
fn legacy_scheme_machine_still_migrates_correctly() {
    // Under the RegisteredPointers ablation scheme migrations still use
    // iso-addresses for safety; the fix-up walk is charged on arrival.
    let mut m = Machine::builder(2)
        .test_profile()
        .scheme(MigrationScheme::RegisteredPointers)
        .launch()
        .unwrap();
    m.run_on(0, || {
        let x = 99u64;
        let px = &x as *const u64;
        let key = pm2_register_pointer(&px as *const _ as usize).unwrap();
        pm2_migrate(1).unwrap();
        assert_eq!(unsafe { *px }, 99);
        pm2_unregister_pointer(key);
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn registered_pointer_table_capacity() {
    let mut m = machine(1);
    m.run_on(0, || {
        let mut keys = Vec::new();
        let dummy = 0usize;
        for _ in 0..marcel::thread::MAX_REGISTERED {
            keys.push(pm2_register_pointer(&dummy as *const _ as usize).unwrap());
        }
        assert!(
            pm2_register_pointer(&dummy as *const _ as usize).is_none(),
            "table full must be reported"
        );
        for k in keys {
            pm2_unregister_pointer(k);
        }
        assert!(pm2_register_pointer(&dummy as *const _ as usize).is_some());
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn output_lines_capture_across_nodes_in_order() {
    let mut m = machine(3);
    m.run_on(0, || {
        for hop in [1usize, 2, 0] {
            pm2::pm2_printf!("hop to {hop}");
            pm2_migrate(hop).unwrap();
        }
        pm2::pm2_printf!("done");
    })
    .unwrap();
    let lines = m.output_lines();
    assert_eq!(
        lines,
        vec![
            "[node0] hop to 1",
            "[node1] hop to 2",
            "[node2] hop to 0",
            "[node0] done"
        ]
    );
    m.shutdown();
}

#[test]
fn node_stats_and_slot_stats_are_exposed() {
    let mut m = machine(2);
    m.run_on(0, || {
        let p = pm2_isomalloc(128).unwrap();
        pm2_migrate(1).unwrap();
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let n0 = m.node_stats(0);
    assert_eq!(n0.migrations_out, 1);
    assert_eq!(n0.spawns, 1);
    let s0 = m.slot_stats(0);
    assert!(
        s0.local_acquires >= 1,
        "stack slot + heap slot acquired locally"
    );
    let s1 = m.slot_stats(1);
    assert!(
        s1.releases >= 1,
        "slots released on node 1 after death there"
    );
    m.shutdown();
}

#[test]
fn myrinet_profile_machine_works_end_to_end() {
    // Same semantics under the calibrated wire model (timing differs only).
    let mut m = Machine::builder(2)
        .test_profile()
        .net(NetProfile::myrinet_bip())
        .launch()
        .unwrap();
    m.run_on(0, || {
        let p = pm2_isomalloc(1000).unwrap() as *mut u64;
        unsafe { p.write(7) };
        pm2_migrate(1).unwrap();
        assert_eq!(unsafe { p.read() }, 7);
        pm2_isofree(p as *mut u8).unwrap();
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn syscall_map_strategy_machine_works_end_to_end() {
    use pm2::MapStrategy;
    let mut m = Machine::builder(2)
        .test_profile()
        .map_strategy(MapStrategy::Syscall)
        .launch()
        .unwrap();
    m.run_on(0, || {
        let p = pm2_isomalloc(5000).unwrap();
        unsafe { std::ptr::write_bytes(p, 0x3A, 5000) };
        pm2_migrate(1).unwrap();
        unsafe { assert_eq!(*p.add(4999), 0x3A) };
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn set_migratable_round_trip() {
    let mut m = machine(2);
    let worker = m
        .spawn_on(0, || {
            pm2_set_migratable(false);
            for _ in 0..50 {
                pm2_yield();
            }
            pm2_set_migratable(true);
            for _ in 0..50 {
                pm2_yield();
            }
        })
        .unwrap();
    let wtid = worker.tid;
    let manager = m
        .spawn_on(0, move || {
            pm2_yield();
            // While pinned, migration requests are refused.
            let r = pm2_migrate_thread(wtid, 1);
            assert_eq!(r, Err(pm2::Pm2Error::NotMigratable(wtid)));
        })
        .unwrap();
    m.join(manager);
    m.join(worker);
    m.shutdown();
}
