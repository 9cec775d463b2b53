//! The v1 typed facade: builder construction, typed value-returning join
//! handles (host and green side, across migrations), typed request/reply
//! LRPC including its error paths, panic-message propagation, and `Wire`
//! encode/decode property tests.

use std::time::Duration;

use pm2::api::*;
use pm2::{Machine, MachineMode, NetProfile, Pm2Error, Service, Wire};
use testkit::{cases, StdRng};

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

#[test]
fn builder_launches_a_working_machine() {
    let m = Machine::builder(3)
        .deterministic()
        .net(NetProfile::instant())
        .slot_cache(0)
        .reply_deadline(Duration::from_secs(5))
        .launch()
        .unwrap();
    assert_eq!(m.nodes(), 3);
    assert_eq!(m.config().mode, MachineMode::Deterministic);
    assert_eq!(m.config().reply_deadline, Duration::from_secs(5));
    let where_am_i = m.run_on(2, pm2_self).unwrap();
    assert_eq!(where_am_i, 2);
}

#[test]
fn builder_config_roundtrip_drives_launch() {
    // into_config → launch must behave exactly like launch-from-builder.
    let cfg = Machine::builder(2).test_profile().echo(false).into_config();
    assert_eq!(cfg.mode, MachineMode::Deterministic);
    let m = Machine::launch(cfg).unwrap();
    assert_eq!(m.run_on(1, pm2_self).unwrap(), 1);
}

fn test_machine(nodes: usize) -> Machine {
    Machine::builder(nodes).test_profile().launch().unwrap()
}

// ---------------------------------------------------------------------------
// Typed join handles
// ---------------------------------------------------------------------------

#[test]
fn spawn_on_ret_returns_a_value() {
    let m = test_machine(2);
    let h = m.spawn_on_ret(0, || 6u64 * 7).unwrap();
    assert_eq!(h.join().unwrap(), 42);
}

#[test]
fn spawn_on_ret_value_survives_migration() {
    // Spawn on node 0, migrate to node 1, die there: the value must still
    // reach the join through the exit protocol.
    let m = test_machine(2);
    let h = m
        .spawn_on_ret(0, || {
            let home = pm2_self();
            pm2_migrate(1).unwrap();
            (home, pm2_self(), String::from("made it"))
        })
        .unwrap();
    let (home, died_on, note) = h.join().unwrap();
    assert_eq!((home, died_on), (0, 1));
    assert_eq!(note, "made it");
}

#[test]
fn spawn_on_ret_composite_types_roundtrip() {
    let m = test_machine(2);
    let h = m
        .spawn_on_ret(1, || (vec![1u32, 2, 3], Some(String::from("x")), -9i64))
        .unwrap();
    assert_eq!(
        h.join().unwrap(),
        (vec![1u32, 2, 3], Some(String::from("x")), -9i64)
    );
}

#[test]
fn try_join_is_none_until_done() {
    let m = test_machine(1);
    let h = m.spawn_on_ret(0, || 5u8).unwrap();
    // Poll until completion; try_join must never panic while pending.
    loop {
        match h.try_join() {
            None => std::thread::yield_now(),
            Some(v) => {
                assert_eq!(v.unwrap(), 5);
                break;
            }
        }
    }
}

#[test]
fn green_side_value_join_across_migration() {
    let m = test_machine(3);
    let sum = m
        .run_on(0, || {
            let tid = pm2_thread_create_ret(|| {
                pm2_migrate(2).unwrap();
                pm2_self() * 100
            })
            .unwrap();
            let v: usize = pm2_join_value(tid).unwrap();
            v + pm2_self()
        })
        .unwrap();
    assert_eq!(sum, 200);
}

#[test]
fn join_value_reports_panics_with_message() {
    let m = test_machine(2);
    let r = m.run_on(0, || {
        let tid = pm2_thread_create_ret(|| -> u32 { panic!("deliberate green failure") }).unwrap();
        pm2_join_value::<u32>(tid)
    });
    match r.unwrap() {
        Err(Pm2Error::Panicked(msg)) => assert!(msg.contains("deliberate green failure")),
        other => panic!("expected Panicked, got {other:?}"),
    }
}

#[test]
fn host_join_handle_reports_panics_with_message() {
    let m = test_machine(2);
    let h = m
        .spawn_on_ret(0, || -> u64 {
            pm2_migrate(1).unwrap();
            panic!("died on node {}", pm2_self());
        })
        .unwrap();
    match h.join() {
        Err(Pm2Error::Panicked(msg)) => assert!(msg.contains("died on node 1"), "{msg}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
}

#[test]
fn run_on_carries_panic_payload() {
    // The satellite bugfix: run_on used to collapse every panic into a
    // generic Spawn("thread panicked").
    let m = test_machine(1);
    match m.run_on(0, || panic!("assertion text survives")) {
        Err(Pm2Error::Panicked(msg)) => assert!(msg.contains("assertion text survives")),
        other => panic!("expected Panicked, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Typed request/reply LRPC
// ---------------------------------------------------------------------------

struct Square;
impl Service for Square {
    const NAME: &'static str = "test.square";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        req * req
    }
}

struct WhereAmI;
impl Service for WhereAmI {
    const NAME: &'static str = "test.where";
    type Req = ();
    type Resp = (usize, String);
    fn handle(&self, _: ()) -> (usize, String) {
        (pm2_self(), format!("served on node {}", pm2_self()))
    }
}

struct Echo;
impl Service for Echo {
    const NAME: &'static str = "test.echo";
    type Req = Vec<u8>;
    type Resp = Vec<u8>;
    fn handle(&self, req: Vec<u8>) -> Vec<u8> {
        req
    }
}

struct Unregistered;
impl Service for Unregistered {
    const NAME: &'static str = "test.never-registered";
    type Req = ();
    type Resp = ();
    fn handle(&self, _: ()) {}
}

struct Explode;
impl Service for Explode {
    const NAME: &'static str = "test.explode";
    type Req = ();
    type Resp = ();
    fn handle(&self, _: ()) {
        panic!("handler exploded");
    }
}

#[test]
fn host_rpc_call_roundtrip() {
    let mut m = test_machine(2);
    m.register(Square);
    assert_eq!(m.rpc_call::<Square>(1, 12).unwrap(), 144);
    assert_eq!(m.rpc_call::<Square>(0, 3).unwrap(), 9);
}

#[test]
fn green_rpc_call_roundtrip_and_handler_runs_remotely() {
    let mut m = test_machine(3);
    m.register(WhereAmI);
    let (node, text) = m
        .run_on(0, || pm2_rpc_call::<WhereAmI>(2, ()).unwrap())
        .unwrap();
    assert_eq!(node, 2);
    assert_eq!(text, "served on node 2");
    // And the host can reach the same registration.
    assert_eq!(m.rpc_call::<WhereAmI>(1, ()).unwrap().0, 1);
}

#[test]
fn rpc_unregistered_service_is_a_typed_error() {
    let mut m = test_machine(2);
    match m.rpc_call::<Unregistered>(1, ()) {
        Err(Pm2Error::NoSuchService(id)) => assert_eq!(id, pm2::service_id::<Unregistered>()),
        other => panic!("expected NoSuchService, got {other:?}"),
    }
    // Green-side callers see the same error.
    let r = m.run_on(0, || pm2_rpc_call::<Unregistered>(1, ())).unwrap();
    assert!(matches!(r, Err(Pm2Error::NoSuchService(_))), "{r:?}");
}

#[test]
fn rpc_oversized_request_fails_locally() {
    let mut m = Machine::builder(2)
        .test_profile()
        .max_rpc_payload(256)
        .launch()
        .unwrap();
    m.register(Echo);
    match m.rpc_call::<Echo>(1, vec![0u8; 10_000]) {
        Err(Pm2Error::PayloadTooLarge { len, max }) => {
            assert!(len >= 10_000);
            assert_eq!(max, 256);
        }
        other => panic!("expected PayloadTooLarge, got {other:?}"),
    }
    // Green side enforces the same ceiling.
    let r = m
        .run_on(0, || pm2_rpc_call::<Echo>(1, vec![0u8; 10_000]))
        .unwrap();
    assert!(matches!(r, Err(Pm2Error::PayloadTooLarge { .. })), "{r:?}");
    // A small payload still goes through.
    assert_eq!(m.rpc_call::<Echo>(1, vec![7u8; 16]).unwrap(), vec![7u8; 16]);
}

#[test]
fn rpc_handler_panic_becomes_remote_error() {
    let mut m = test_machine(2);
    m.register(Explode);
    match m.rpc_call::<Explode>(1, ()) {
        Err(Pm2Error::Rpc(msg)) => assert!(msg.contains("handler exploded"), "{msg}"),
        other => panic!("expected Rpc, got {other:?}"),
    }
}

#[test]
fn rpc_from_every_node_to_every_node() {
    let m = test_machine(3);
    m.register(Square);
    for src in 0..3 {
        for dst in 0..3 {
            let got = m
                .run_on(src, move || pm2_rpc_call::<Square>(dst, 7).unwrap())
                .unwrap();
            assert_eq!(got, 49, "src {src} dst {dst}");
        }
    }
}

#[test]
fn lrpc_handlers_leave_no_completion_records() {
    // Handler threads are detached: their tids are node-assigned and held
    // by no caller, so serving must not grow the completion registry.
    const CALLS: usize = 10_000;
    const SPAWNS: usize = 200;
    let m = test_machine(3);
    m.register(Echo);
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    m.register_service(9, move |_| tx.send(()).unwrap());
    let before = m.registry().completed_count();
    let served = m
        .run_on(0, || {
            (0..CALLS)
                .filter(|&i| {
                    let req = vec![i as u8; 1 + i % 64];
                    pm2_rpc_call::<Echo>(1 + i % 2, req.clone()).unwrap() == req
                })
                .count()
        })
        .unwrap();
    assert_eq!(served, CALLS);
    for i in 0..SPAWNS {
        m.rpc_spawn(i % 3, 9, b"").unwrap();
    }
    for _ in 0..SPAWNS {
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
    }
    let grown = m.registry().completed_count() - before;
    // The run_on thread itself leaves one record; handlers leave none.
    assert!(
        grown <= 4,
        "{grown} records after {CALLS} calls and {SPAWNS} spawns"
    );
}

#[test]
fn typed_join_consumes_the_value_once() {
    // The value bytes leave the registry on the first typed join; neither
    // a second join nor the trailing cross-node THREAD_EXIT message may
    // resurrect them.
    let m = test_machine(2);
    let (first_ok, second_is_no_value) = m
        .run_on(0, || {
            let tid = pm2_thread_create_ret(|| {
                pm2_migrate(1).unwrap();
                7u64
            })
            .unwrap();
            let first = pm2_join_value::<u64>(tid);
            // Let the cross-node THREAD_EXIT message get pumped at home.
            for _ in 0..200 {
                pm2_yield();
            }
            let second = pm2_join_value::<u64>(tid);
            (first == Ok(7), matches!(second, Err(Pm2Error::Decode(_))))
        })
        .unwrap();
    assert!(first_ok);
    assert!(
        second_is_no_value,
        "THREAD_EXIT must not resurrect a consumed value"
    );
}

#[test]
fn rpc_survives_negotiation_freezes() {
    // Multi-slot allocations under round-robin constantly trigger global
    // negotiations, freezing the serving node's bitmap: RPC_CALLs arriving
    // then are parked in the deferral queue and replayed after NEG_DONE.
    // (Regression: the deferral used to re-send to self, which the pump's
    // drain loop chased forever — a machine-wide deadlock.)
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let m = Machine::builder(3)
        .deterministic()
        .net(NetProfile::instant())
        .area(pm2::AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 96,
        })
        .slot_cache(0)
        // Pin trading off: this test is *about* the §4.4 freeze windows,
        // which the trade-first hot path exists to avoid.
        .slot_trade(false)
        .launch()
        .unwrap();
    m.register(Square);

    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let churn = m
        .spawn_on(1, move || {
            while !stop2.load(Ordering::SeqCst) {
                let p = pm2_isomalloc(2 * 64 * 1024 + 1).unwrap();
                pm2_yield();
                pm2_isofree(p).unwrap();
                pm2_yield();
            }
        })
        .unwrap();
    let ok = m
        .run_on(0, || {
            (0..60u64)
                .filter(|&i| pm2_rpc_call::<Square>(1, i) == Ok(i * i))
                .count()
        })
        .unwrap();
    stop.store(true, Ordering::SeqCst);
    assert!(!m.join(churn).panicked);
    assert_eq!(ok, 60, "every rpc must survive the bitmap freezes");
}

// ---------------------------------------------------------------------------
// Wire property tests
// ---------------------------------------------------------------------------

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
    let bytes = v.encode_vec();
    assert_eq!(T::decode_vec(&bytes), Some(v));
}

#[test]
fn wire_random_scalars_roundtrip() {
    cases(200, |rng: &mut StdRng| {
        roundtrip(rng.next_u64());
        roundtrip(rng.next_u64() as u32);
        roundtrip(rng.next_u64() as u16);
        roundtrip(rng.next_u64() as u8);
        roundtrip(rng.next_u64() as i64);
        roundtrip(rng.next_u64() as usize);
        roundtrip(rng.random_bool(0.5));
        roundtrip(f64::from_bits(rng.next_u64() | 1)); // avoid NaN-payload eq issues
    });
}

#[test]
fn wire_random_compounds_roundtrip() {
    cases(100, |rng: &mut StdRng| {
        let n = rng.random_range(0..50usize);
        let v: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
        roundtrip(v);
        let s: String = (0..rng.random_range(0..40usize))
            .map(|_| rng.random_range(32..127u32) as u8 as char)
            .collect();
        roundtrip(s.clone());
        let opt = if rng.random_bool(0.5) {
            Some(s.clone())
        } else {
            None
        };
        roundtrip(opt);
        roundtrip((
            rng.next_u64(),
            s,
            rng.random_bool(0.3),
            vec![rng.next_u64() as u8; 3],
        ));
    });
}

#[test]
fn wire_decode_rejects_truncations() {
    cases(100, |rng: &mut StdRng| {
        let value = (rng.next_u64(), String::from("payload"), vec![1u8, 2, 3]);
        let bytes = value.encode_vec();
        // Every strict prefix must fail to decode (or decode to something
        // that is not silently accepted as complete).
        for cut in 0..bytes.len() {
            assert_eq!(
                <(u64, String, Vec<u8>)>::decode_vec(&bytes[..cut]),
                None,
                "prefix of {cut} bytes must not decode"
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Reply deadline
// ---------------------------------------------------------------------------

struct Slow;
impl Service for Slow {
    const NAME: &'static str = "test.slow";
    type Req = ();
    type Resp = ();
    fn handle(&self, _: ()) {
        // Stall well past the caller's deadline (blocks this node's
        // driver; threaded mode keeps the others responsive).
        std::thread::sleep(Duration::from_millis(600));
    }
}

#[test]
fn short_reply_deadline_times_out_cleanly() {
    let mut m = Machine::builder(2)
        .test_profile()
        .threaded()
        .reply_deadline(Duration::from_millis(120))
        .launch()
        .unwrap();
    m.register(Slow);
    match m.rpc_call::<Slow>(1, ()) {
        Err(Pm2Error::Net(msg)) => assert!(msg.contains("timed out"), "{msg}"),
        other => panic!("expected a timeout, got {other:?}"),
    }
    // The machine is still usable afterwards (late reply is stashed away).
    m.register(Square);
    assert_eq!(m.rpc_call::<Square>(0, 5).unwrap(), 25);
}
