//! Data-plane throughput benchmarks (ISSUE 2): migration ping-pong rate
//! and broadcast fan-out cost on the pooled zero-copy payload path.
//!
//! * `pingpong/*` — sustained one-way thread migrations per second on a
//!   2-node machine (the reciprocal of E5's latency, reported as a rate so
//!   the perf trajectory has a "bigger is better" series).
//! * `broadcast/*` — one 16-way broadcast of an N-byte payload, receivers
//!   drained.  Fan-out is by refcount, so the cost must stay flat in the
//!   payload size (the old path copied the payload once per destination).

use madeleine::{Fabric, NetProfile};
use pm2_bench::crit::Criterion;
use pm2_bench::migration_pingpong_us;
use pm2_bench::{criterion_group, criterion_main};
use std::time::{Duration, Instant};

fn bench_migration_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("throughput: migration ping-pong");
    g.sample_size(5);
    g.measurement_time(Duration::from_secs(4));
    for (name, net) in [
        ("instant", NetProfile::instant()),
        ("myrinet", NetProfile::myrinet_bip()),
    ] {
        for payload in [0usize, 32 * 1024] {
            g.bench_function(format!("pingpong/{name}/payload_{payload}B"), |b| {
                b.iter_custom(|iters| {
                    let hops = (iters as usize).max(64);
                    let us = migration_pingpong_us(net, payload, hops);
                    Duration::from_nanos((us * 1000.0 * iters as f64) as u64)
                });
            });
        }
    }
    g.finish();
}

fn bench_broadcast_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("throughput: 16-way broadcast fan-out");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    for payload in [64usize, 4 * 1024, 64 * 1024] {
        g.bench_function(format!("broadcast/16way/payload_{payload}B"), |b| {
            let eps = Fabric::new(17, NetProfile::instant(), None);
            b.iter_custom(|iters| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    let mut buf = eps[0].pool().checkout(payload);
                    buf.resize(payload, 0xA5);
                    eps[0].broadcast(7, buf).unwrap();
                    for ep in &eps[1..] {
                        std::hint::black_box(ep.try_recv().expect("delivered"));
                    }
                }
                t0.elapsed()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_migration_rate, bench_broadcast_fanout);
criterion_main!(benches);
