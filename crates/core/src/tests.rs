//! Runtime smoke tests (the full paper-scenario tests live in the
//! workspace-level `tests/` directory).

use crate::api::*;
use crate::{Machine, Pm2Config};

fn test_machine(nodes: usize) -> Machine {
    Machine::launch(Pm2Config::test(nodes)).unwrap()
}

#[test]
fn launch_and_shutdown_empty() {
    for nodes in [1, 2, 5] {
        let mut m = test_machine(nodes);
        m.shutdown();
    }
}

#[test]
fn threaded_mode_launch_and_shutdown() {
    let mut m = Machine::builder(3)
        .test_profile()
        .threaded()
        .launch()
        .unwrap();
    let v = m.run_on(2, pm2_self).unwrap();
    assert_eq!(v, 2);
    m.shutdown();
}

#[test]
fn run_on_returns_value() {
    let mut m = test_machine(2);
    let v = m.run_on(1, || 6 * 7).unwrap();
    assert_eq!(v, 42);
    m.shutdown();
}

#[test]
fn spawned_thread_knows_its_node() {
    let mut m = test_machine(3);
    for node in 0..3 {
        let n = m.run_on(node, pm2_self).unwrap();
        assert_eq!(n, node);
    }
    m.shutdown();
}

#[test]
fn isomalloc_roundtrip_single_node() {
    let mut m = test_machine(1);
    m.run_on(0, || {
        let p = pm2_isomalloc(4096).unwrap();
        unsafe {
            std::ptr::write_bytes(p, 0x5C, 4096);
            assert_eq!(*p.add(4095), 0x5C);
        }
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn basic_migration_preserves_pointer() {
    let mut m = test_machine(2);
    m.run_on(0, || {
        let p = pm2_isomalloc(64).unwrap() as *mut u64;
        unsafe { p.write(0xABCD) };
        let addr_before = p as usize;
        assert_eq!(pm2_self(), 0);
        pm2_migrate(1).unwrap();
        assert_eq!(pm2_self(), 1);
        assert_eq!(p as usize, addr_before);
        assert_eq!(unsafe { p.read() }, 0xABCD);
        pm2_isofree(p as *mut u8).unwrap();
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn printf_is_captured_with_node_prefix() {
    let mut m = test_machine(2);
    m.run_on(0, || {
        crate::pm2_printf!("value = {}", 1);
        pm2_migrate(1).unwrap();
        crate::pm2_printf!("value = {}", 1);
    })
    .unwrap();
    assert_eq!(
        m.output_lines(),
        vec!["[node0] value = 1", "[node1] value = 1"]
    );
    m.shutdown();
}

#[test]
fn negotiation_supplies_multislot_allocation() {
    // Round-robin, 2 nodes, trading disabled: any multi-slot allocation
    // must run the paper's §4.4 global negotiation.
    let mut m = Machine::builder(2)
        .test_profile()
        .slot_trade(false)
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(3 * slot).unwrap();
        unsafe {
            std::ptr::write_bytes(p, 0x77, 3 * slot);
            assert_eq!(*p.add(3 * slot - 1), 0x77);
        }
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    assert_eq!(m.node_stats(0).negotiations, 1);
    assert!(
        m.slot_stats(1).slots_sold > 0,
        "node 1 must have sold slots"
    );
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn trade_supplies_multislot_allocation_without_global_protocol() {
    // Same workload with the (default) trade-first economy: the shortfall
    // is covered by one point-to-point trade — no lock, no freeze, no
    // bitmap gather — and the §4.4 protocol never runs.
    let mut m = test_machine(2);
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(3 * slot).unwrap();
        unsafe {
            std::ptr::write_bytes(p, 0x77, 3 * slot);
            assert_eq!(*p.add(3 * slot - 1), 0x77);
        }
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let s = m.node_stats(0);
    assert_eq!(
        s.negotiations, 0,
        "hot path must not run the global protocol"
    );
    assert_eq!(s.trades, 1);
    assert!(s.trade_slots_in > 0);
    assert_eq!(m.node_stats(1).trade_grants, 1);
    assert!(m.slot_stats(1).slots_lent > 0);
    assert!(m.slot_stats(0).slots_adopted > 0);
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn join_across_nodes() {
    let mut m = test_machine(2);
    let t = m
        .spawn_on(0, || {
            pm2_migrate(1).unwrap(); // dies on node 1, home is node 0
        })
        .unwrap();
    let exit = m.join(t);
    assert!(!exit.panicked);
    assert_eq!(exit.died_on, 1);
    m.shutdown();
}

#[test]
fn rpc_spawn_runs_service_remotely() {
    let mut m = test_machine(2);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<u8>)>();
    m.register_service(9, move |args| {
        tx.send((pm2_self(), args)).unwrap();
    });
    m.rpc_spawn(1, 9, b"hello").unwrap();
    let (node, args) = rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
    assert_eq!(node, 1);
    assert_eq!(args, b"hello");
    m.shutdown();
}

#[test]
fn audit_passes_on_idle_machine() {
    let mut m = test_machine(4);
    let report = m.audit().unwrap();
    let summary = report.check_partition().unwrap();
    assert_eq!(summary.node_owned, m.area().n_slots());
    assert_eq!(summary.thread_owned, 0);
    m.shutdown();
}

/// Build a bare NodeCtx (node 0 of 2) plus a "host" endpoint feeding it —
/// the harness for white-box pump tests below.
fn bare_node(pump_budget: usize) -> (crate::node::NodeCtx, madeleine::Endpoint) {
    use std::sync::Arc;
    let cfg = Machine::builder(2)
        .test_profile()
        .pump_budget(pump_budget)
        .into_config();
    let area = Arc::new(isoaddr::IsoArea::with_strategy(cfg.area, cfg.map_strategy).unwrap());
    let mut eps = madeleine::Fabric::new(3, madeleine::NetProfile::instant(), None);
    let host = eps.pop().unwrap();
    let _ep1 = eps.pop().unwrap();
    let ep0 = eps.pop().unwrap();
    let ctx = crate::node::NodeCtx::new(
        &cfg,
        0,
        area,
        ep0,
        crate::output::OutputSink::new(false),
        crate::registry::Registry::new_shared(),
        crate::registry::SpawnTable::new_shared(),
        crate::registry::ServiceTable::new_shared(),
        crate::service::TypedServiceTable::new_shared(),
    );
    (ctx, host)
}

#[test]
fn pump_handles_control_before_a_data_flood() {
    use crate::proto::tag;
    let (mut ctx, host) = bare_node(1);
    // A data-class flood (junk RPC_RESP: no pending caller, dropped on
    // handling)… then one control-class SHUTDOWN, enqueued LAST.
    for _ in 0..16 {
        host.send(0, tag::RPC_RESP, vec![0u8; 4]).unwrap();
    }
    host.send(0, tag::SHUTDOWN, Vec::new()).unwrap();
    // Budget 1: the single message this pump handles must be the SHUTDOWN.
    assert!(ctx.pump());
    assert!(ctx.shutdown, "control class must overtake the queued flood");
    assert!(
        ctx.inbox_pending(),
        "the data flood is still queued behind the control message"
    );
    // Draining continues across pumps until the lanes are empty.
    let mut pumps = 0;
    while ctx.pump() {
        pumps += 1;
        assert!(pumps <= 16, "budget-1 pumps must drain one message each");
    }
    assert!(!ctx.inbox_pending());
}

#[test]
fn pump_budget_bounds_one_drain() {
    use crate::proto::tag;
    let (mut ctx, host) = bare_node(4);
    for _ in 0..10 {
        host.send(0, tag::RPC_RESP, vec![0u8; 4]).unwrap();
    }
    assert!(ctx.pump());
    // 10 ingested, 4 handled: the rest wait their turn.
    let queued: usize = ctx.inbox.iter().map(|lane| lane.len()).sum();
    assert_eq!(queued, 6, "budget must stop the drain mid-flood");
    assert!(ctx.pump());
    assert!(ctx.pump());
    assert!(!ctx.pump(), "nothing left after three budgeted pumps");
}

#[test]
fn migration_class_sits_between_control_and_data() {
    use crate::proto::tag;
    let (mut ctx, host) = bare_node(1);
    // Enqueue in worst-case order: data, then migration, then control.
    host.send(0, tag::RPC_RESP, vec![0u8; 4]).unwrap();
    let cmd = crate::proto::encode_migrate_cmd(host.pool(), 7, 1, &[0xDEAD]);
    host.send(0, tag::MIGRATE_CMD, cmd).unwrap();
    host.send(0, tag::SHUTDOWN, Vec::new()).unwrap();
    assert!(ctx.pump());
    assert!(ctx.shutdown, "pump 1 takes the control message");
    assert!(ctx.pump());
    // Pump 2 took the MIGRATE_CMD: its zero-accepted ack (unknown tid) is
    // on the wire to the host already, while the junk data is still queued.
    let ack = host
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("migrate-cmd ack");
    assert_eq!(ack.tag, tag::MIGRATE_CMD_ACK);
    let (cmd_id, accepted, total, _wealth) =
        crate::proto::decode_migrate_ack(&ack.payload).expect("ack decodes");
    assert_eq!(
        (cmd_id, accepted, total),
        (7, 0, 1),
        "unknown tid must be acked as not-accepted"
    );
    assert!(ctx.inbox_pending(), "data class drains last");
    assert!(ctx.pump());
    assert!(!ctx.inbox_pending());
}
