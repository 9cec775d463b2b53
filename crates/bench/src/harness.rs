//! Workload generators and timed experiment drivers.
//!
//! Experiment ids refer to DESIGN.md's per-experiment index:
//! E5 = migration latency (§5 ¶1), E6 = negotiation cost (§5 ¶2),
//! E7/E8 = Figure 11 top/bottom, A1–A6 = ablations.

use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::{
    AreaConfig, Distribution, FitPolicy, Machine, MachineBuilder, MapStrategy, MigrationScheme,
    NetProfile, Pm2Config,
};

/// Paper-scale area: 3.5 GB of iso-address space in 64 KiB slots, giving
/// the paper's 7 kB per-node bitmaps (§4.2).
pub fn paper_area() -> AreaConfig {
    AreaConfig {
        slot_size: 64 * 1024,
        n_slots: 57_344,
    }
}

/// The machine configuration used by the paper's experiments: round-robin
/// distribution, first-fit blocks, threaded nodes.
pub fn paper_builder(nodes: usize, net: NetProfile) -> MachineBuilder {
    Machine::builder(nodes)
        .area(paper_area())
        .net(net)
        .threaded()
        .slot_cache(0)
}

// ---------------------------------------------------------------------------
// E5 — thread migration latency (ping-pong, §5 ¶1)
// ---------------------------------------------------------------------------

/// Migrate a thread back and forth `hops` times carrying `payload` bytes of
/// isomalloc'd data; returns the average one-way migration time in µs.
///
/// "The time needed to migrate a thread with no static data between two
/// nodes is less than 75 µs … measured by means of a thread ping-pong
/// between two nodes" — `payload = 0` reproduces that configuration.
pub fn migration_pingpong_us(net: NetProfile, payload: usize, hops: usize) -> f64 {
    let mut m = paper_builder(2, net).launch().expect("launch");
    let total_us = m
        .run_on(0, move || {
            let block = if payload > 0 {
                let p = pm2_isomalloc(payload).unwrap();
                unsafe { std::ptr::write_bytes(p, 0xAB, payload) };
                Some(p)
            } else {
                None
            };
            // Warm up both directions (first hop maps cold structures).
            for _ in 0..8 {
                pm2_migrate(1).unwrap();
                pm2_migrate(0).unwrap();
            }
            let t0 = Instant::now();
            for i in 0..hops {
                pm2_migrate(1 - (i % 2)).unwrap();
            }
            let us = t0.elapsed().as_micros() as f64;
            if pm2_self() != 0 {
                pm2_migrate(0).unwrap();
            }
            if let Some(p) = block {
                pm2_isofree(p).unwrap();
            }
            us
        })
        .expect("pingpong");
    m.shutdown();
    total_us / hops as f64
}

/// Per-stage cost breakdown of a migration ping-pong run (ISSUE 2: the
/// numbers behind `BENCH_migration.json`).  All per-migration figures are
/// means over every migration the run performed, measured by the runtime's
/// own stage counters (pack at the source, wire + unpack at the
/// destination).
#[derive(Debug, Clone, Copy)]
pub struct MigrationBreakdown {
    /// Timed one-way hops.
    pub hops: usize,
    /// isomalloc'd payload carried by the thread (bytes).
    pub payload: usize,
    /// Mean one-way migration latency, µs (wall clock over the timed hops).
    pub one_way_us: f64,
    /// Mean freeze-and-gather (pack) time per migration, µs.
    pub pack_us: f64,
    /// Mean modelled wire time per migration, µs.
    pub wire_us: f64,
    /// Mean adopt-and-copy (unpack) time per migration, µs.
    pub unpack_us: f64,
    /// Mean migration buffer size, bytes.
    pub bytes_per_migration: u64,
    /// Throughput implied by the one-way latency.
    pub migrations_per_sec: f64,
    /// Payload-pool allocations across both nodes (flat after warm-up).
    pub pool_allocs: u64,
    /// Payload-pool buffer reuses across both nodes.
    pub pool_reuses: u64,
    /// Driver doorbell parks across both nodes (event-driven core: each
    /// hop parks the sender once; a polling driver would show zero parks
    /// and a huge step count instead).
    pub driver_parks: u64,
    /// Driver wake-ups across both nodes (ring or park-timeout).
    pub driver_wakeups: u64,
    /// Scheduler steps across both nodes.
    pub steps: u64,
}

/// Run a 2-node migration ping-pong carrying `payload` isomalloc'd bytes
/// and collect the per-stage breakdown from the runtime's counters.
pub fn migration_breakdown(net: NetProfile, payload: usize, hops: usize) -> MigrationBreakdown {
    let mut m = paper_builder(2, net).launch().expect("launch");
    let total_us = m
        .run_on(0, move || {
            let block = if payload > 0 {
                let p = pm2_isomalloc(payload).unwrap();
                unsafe { std::ptr::write_bytes(p, 0xAB, payload) };
                Some(p)
            } else {
                None
            };
            for _ in 0..8 {
                pm2_migrate(1).unwrap();
                pm2_migrate(0).unwrap();
            }
            let t0 = Instant::now();
            for i in 0..hops {
                pm2_migrate(1 - (i % 2)).unwrap();
            }
            let us = t0.elapsed().as_micros() as f64;
            if pm2_self() != 0 {
                pm2_migrate(0).unwrap();
            }
            if let Some(p) = block {
                pm2_isofree(p).unwrap();
            }
            us
        })
        .expect("pingpong");
    let s = m.node_stats(0) + m.node_stats(1);
    let pool = m.pool_stats(0) + m.pool_stats(1);
    let migrations = s.migrations_out.max(1);
    let per_us = |ns: u64| (ns as f64 / migrations as f64) / 1000.0;
    let one_way_us = total_us / hops as f64;
    m.shutdown();
    MigrationBreakdown {
        hops,
        payload,
        one_way_us,
        pack_us: per_us(s.migration_pack_ns),
        wire_us: per_us(s.migration_wire_ns),
        unpack_us: per_us(s.migration_unpack_ns),
        bytes_per_migration: s.migration_bytes_out / migrations,
        migrations_per_sec: 1.0e6 / one_way_us,
        pool_allocs: pool.allocs,
        pool_reuses: pool.reuses,
        driver_parks: s.driver_parks,
        driver_wakeups: s.driver_wakeups,
        steps: s.steps,
    }
}

/// One-way migration buffer size for a given payload (bytes on the wire).
pub fn migration_buffer_bytes(payload: usize) -> u64 {
    let mut m = paper_builder(2, NetProfile::instant())
        .launch()
        .expect("launch");
    m.run_on(0, move || {
        let block = if payload > 0 {
            let p = pm2_isomalloc(payload).unwrap();
            unsafe { std::ptr::write_bytes(p, 0xAB, payload) };
            Some(p)
        } else {
            None
        };
        pm2_migrate(1).unwrap();
        pm2_migrate(0).unwrap();
        if let Some(p) = block {
            pm2_isofree(p).unwrap();
        }
    })
    .expect("hop");
    let bytes = m.node_stats(0).migration_bytes_out;
    m.shutdown();
    bytes
}

// ---------------------------------------------------------------------------
// E6 — global negotiation cost vs. node count (§5 ¶2)
// ---------------------------------------------------------------------------

/// Average negotiation time in µs on a `p`-node machine (round-robin, so
/// every multi-slot allocation negotiates).  Measured by the runtime's own
/// per-negotiation timer, over `rounds` live 2-slot allocations.
pub fn negotiation_us(p: usize, net: NetProfile, rounds: usize) -> f64 {
    // Trading is pinned off: E6 measures the paper's §4.4 global protocol
    // itself (the trade-vs-global comparison lives in `negotiate.rs`).
    let mut m = paper_builder(p, net)
        .slot_trade(false)
        .launch()
        .expect("launch");
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        // Keep every block live so each allocation needs fresh contiguous
        // slots — under round-robin each one triggers a negotiation.
        let mut live = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            live.push(pm2_isomalloc(slot + 1).unwrap());
        }
        for q in live {
            pm2_isofree(q).unwrap();
        }
    })
    .expect("negotiation workload");
    let stats = m.node_stats(0);
    m.shutdown();
    assert!(
        stats.negotiations >= rounds as u64,
        "every allocation must negotiate"
    );
    (stats.negotiation_ns as f64 / stats.negotiations as f64) / 1000.0
}

// ---------------------------------------------------------------------------
// E7/E8 — Figure 11: malloc vs pm2_isomalloc allocation time
// ---------------------------------------------------------------------------

/// Which allocator a Fig. 11 series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocator {
    /// The `malloc` baseline: the *same block layer* on a private,
    /// single-owner heap — slot acquisition is always local, never
    /// negotiated.  This isolates exactly what the paper's comparison
    /// shows: the premium of the iso-address discipline, with identical
    /// per-byte costs on both sides.  (The host `malloc` is not a usable
    /// baseline inside this sandboxed kernel: its mmap and page-fault costs
    /// are ~100× the paper's hardware and would swamp the signal — see
    /// `Allocator::HostMalloc`.)
    Malloc,
    /// `pm2_isomalloc` on the 2-node round-robin machine.
    Isomalloc,
    /// The real process allocator, for reference only (distorted by the
    /// host kernel's page-fault/mmap costs; reported separately).
    HostMalloc,
}

/// Average allocation time in µs for each size in `sizes`.
///
/// Mirrors the paper's Fig. 11 protocol: on a 2-node machine (round-robin),
/// allocate `batch` live blocks of the size, touching each (the paper's
/// times for large blocks are only explicable if pages are actually used),
/// then free them; only the alloc+touch time is averaged.
pub fn alloc_series_us(
    alloc: Allocator,
    sizes: &[usize],
    net: NetProfile,
    batch: usize,
    touch: bool,
) -> Vec<(usize, f64)> {
    // One fresh machine per size point: freed multi-slot ranges would
    // otherwise leave the node with local contiguity and let later sizes
    // skip the negotiation the paper's experiment is about.
    sizes
        .iter()
        .map(|&size| {
            let us = alloc_point_us(alloc, size, net, batch, touch);
            (size, us)
        })
        .collect()
}

fn alloc_point_us(
    alloc: Allocator,
    size: usize,
    net: NetProfile,
    batch: usize,
    touch: bool,
) -> f64 {
    // Trading pinned off: Fig. 11 reproduces the paper's isomalloc cost
    // curve, whose multi-slot knee *is* the negotiation.
    let mut m = paper_builder(2, net)
        .slot_trade(false)
        .launch()
        .expect("launch");
    let sizes_owned: Vec<usize> = vec![size];
    let out = m
        .run_on(0, move || {
            // Private single-owner heap for the Malloc baseline: same block
            // layer, same Resident-mode area, no iso-address discipline.
            let private_area =
                std::sync::Arc::new(isoaddr::IsoArea::new(paper_area()).expect("private area"));
            let mut private_mgr =
                isoaddr::NodeSlotManager::new(0, 1, private_area, pm2::Distribution::RoundRobin, 0);
            let mut private_heap: Box<isomalloc::IsoHeapState> =
                Box::new(unsafe { std::mem::zeroed() });
            unsafe { isomalloc::heap_init(private_heap.as_mut(), pm2::FitPolicy::FirstFit, true) };

            // Untimed warm-up: fault in runtime paths and the first pages
            // of both heaps.
            {
                let w = match alloc {
                    Allocator::Isomalloc => pm2_isomalloc(1024).unwrap(),
                    Allocator::Malloc => unsafe {
                        isomalloc::isomalloc(private_heap.as_mut(), &mut private_mgr, 1024).unwrap()
                    },
                    Allocator::HostMalloc => unsafe {
                        std::alloc::alloc(std::alloc::Layout::from_size_align(1024, 16).unwrap())
                    },
                };
                unsafe { std::ptr::write_bytes(w, 1, 1024) };
                match alloc {
                    Allocator::Isomalloc => pm2_isofree(w).unwrap(),
                    Allocator::Malloc => unsafe {
                        isomalloc::isofree(private_heap.as_mut(), &mut private_mgr, w).unwrap()
                    },
                    Allocator::HostMalloc => unsafe {
                        std::alloc::dealloc(
                            w,
                            std::alloc::Layout::from_size_align(1024, 16).unwrap(),
                        )
                    },
                }
            }
            let mut out = Vec::with_capacity(sizes_owned.len());
            for &size in &sizes_owned {
                let mut live: Vec<*mut u8> = Vec::with_capacity(batch);
                let t0 = Instant::now();
                for _ in 0..batch {
                    let p = match alloc {
                        Allocator::Isomalloc => pm2_isomalloc(size).unwrap(),
                        Allocator::Malloc => unsafe {
                            isomalloc::isomalloc(private_heap.as_mut(), &mut private_mgr, size)
                                .unwrap()
                        },
                        Allocator::HostMalloc => unsafe {
                            let layout =
                                std::alloc::Layout::from_size_align(size.max(1), 16).unwrap();
                            std::alloc::alloc(layout)
                        },
                    };
                    if touch {
                        unsafe { std::ptr::write_bytes(p, 0x5A, size) };
                    }
                    live.push(p);
                }
                let us = t0.elapsed().as_micros() as f64 / batch as f64;
                for p in live {
                    match alloc {
                        Allocator::Isomalloc => pm2_isofree(p).unwrap(),
                        Allocator::Malloc => unsafe {
                            isomalloc::isofree(private_heap.as_mut(), &mut private_mgr, p).unwrap()
                        },
                        Allocator::HostMalloc => unsafe {
                            let layout =
                                std::alloc::Layout::from_size_align(size.max(1), 16).unwrap();
                            std::alloc::dealloc(p, layout);
                        },
                    }
                }
                out.push((size, us));
            }
            out
        })
        .expect("alloc series");
    m.shutdown();
    out[0].1
}

/// The paper's Fig. 11 (top) x-axis: small requests, 4 B – 500 KB.
pub fn fig11_small_sizes() -> Vec<usize> {
    vec![
        4,
        256,
        4 * 1024,
        16 * 1024,
        48 * 1024,
        64 * 1024,
        96 * 1024,
        128 * 1024,
        192 * 1024,
        256 * 1024,
        384 * 1024,
        500 * 1024,
    ]
}

/// The paper's Fig. 11 (bottom) x-axis: large requests, 1 MB – 8 MB.
pub fn fig11_large_sizes() -> Vec<usize> {
    (1..=8).map(|m| m * 1024 * 1024).collect()
}

// ---------------------------------------------------------------------------
// A1 — initial slot distribution ablation (§4.1)
// ---------------------------------------------------------------------------

/// Result of a distribution run: mean multi-slot allocation time and how
/// many negotiations the workload triggered.
#[derive(Debug, Clone, Copy)]
pub struct DistributionOutcome {
    pub mean_alloc_us: f64,
    pub negotiations: u64,
}

/// Fixed multi-slot workload (32 live allocations of 2–5 slots) under a
/// given initial distribution.
pub fn distribution_outcome(dist: Distribution, p: usize, net: NetProfile) -> DistributionOutcome {
    // Trading pinned off: A1 measures how each *distribution* interacts
    // with the paper's negotiation protocol (with trades on, round-robin's
    // multi-slot weakness is absorbed by one batch trade instead).
    let mut m = paper_builder(p, net)
        .distribution(dist)
        .slot_trade(false)
        .launch()
        .expect("launch");
    let slot = m.area().slot_size();
    let mean_alloc_us = m
        .run_on(0, move || {
            let mut live = Vec::new();
            let t0 = Instant::now();
            for i in 0..32usize {
                let slots = 2 + i % 4;
                live.push(pm2_isomalloc(slots * slot - 256).unwrap());
            }
            let us = t0.elapsed().as_micros() as f64 / 32.0;
            for q in live {
                pm2_isofree(q).unwrap();
            }
            us
        })
        .expect("workload");
    let negotiations = m.node_stats(0).negotiations;
    m.shutdown();
    DistributionOutcome {
        mean_alloc_us,
        negotiations,
    }
}

// ---------------------------------------------------------------------------
// A2 — mmapped-slot cache ablation (§6)
// ---------------------------------------------------------------------------

/// Mean single-slot acquire+release cycle (µs) with a given cache capacity,
/// under the *Syscall* map strategy (where the mmap cost the cache avoids
/// is real).
pub fn slot_cache_cycle_us(cache_capacity: usize, cycles: usize) -> f64 {
    let mut m = Machine::builder(1)
        .area(AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 1024,
        })
        .net(NetProfile::instant())
        .threaded()
        .slot_cache(cache_capacity)
        .map_strategy(MapStrategy::Syscall)
        .launch()
        .expect("launch");
    let slot = m.area().slot_size();
    let us = m
        .run_on(0, move || {
            // Allocate slightly less than a slot so every cycle acquires
            // and (trim) releases exactly one slot.
            let size = slot / 2;
            let t0 = Instant::now();
            for _ in 0..cycles {
                let p = pm2_isomalloc(size).unwrap();
                unsafe { p.write(1) };
                pm2_isofree(p).unwrap();
            }
            t0.elapsed().as_micros() as f64 / cycles as f64
        })
        .expect("cycle");
    m.shutdown();
    us
}

// ---------------------------------------------------------------------------
// A4 — fit policy ablation (§4.3)
// ---------------------------------------------------------------------------

/// Outcome of a fit-policy run over a fragmentation-heavy workload.
#[derive(Debug, Clone, Copy)]
pub struct FitOutcome {
    pub mean_alloc_us: f64,
    pub slots_used: u64,
}

/// Fragmentation-heavy alloc/free pattern under a fit policy; reports mean
/// allocation time and the number of slots the heap had to acquire.
pub fn fit_policy_outcome(fit: FitPolicy, ops: usize) -> FitOutcome {
    let mut m = Machine::builder(1)
        .area(AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 4096,
        })
        .net(NetProfile::instant())
        .threaded()
        .fit(fit)
        .launch()
        .expect("launch");
    let (us, _) = m
        .run_on(0, move || {
            let mut rng = testkit::StdRng::seed_from_u64(42);
            let mut live: Vec<(*mut u8, usize)> = Vec::new();
            let mut alloc_ns = 0u128;
            for i in 0..ops {
                if live.len() > 40 && rng.random_bool(0.55) {
                    let idx = rng.random_range(0..live.len());
                    let (p, _) = live.swap_remove(idx);
                    pm2_isofree(p).unwrap();
                } else {
                    let sz = rng.random_range(32..6000usize);
                    let t0 = Instant::now();
                    let p = pm2_isomalloc(sz).unwrap();
                    alloc_ns += t0.elapsed().as_nanos();
                    live.push((p, sz));
                }
                let _ = i;
            }
            for (p, _) in live {
                pm2_isofree(p).unwrap();
            }
            (alloc_ns as f64 / ops as f64 / 1000.0, 0u64)
        })
        .expect("fit workload");
    let slots_used = m.slot_stats(0).local_acquires + m.slot_stats(0).multi_acquires;
    m.shutdown();
    FitOutcome {
        mean_alloc_us: us,
        slots_used,
    }
}

// ---------------------------------------------------------------------------
// A5 — migration scheme ablation: iso-address vs registered pointers (§2)
// ---------------------------------------------------------------------------

/// Per-migration µs under a migration scheme, with `registered` legacy
/// pointer registrations on the thread.
pub fn scheme_migration_us(scheme: MigrationScheme, registered: usize, hops: usize) -> f64 {
    let mut m = paper_builder(2, NetProfile::instant())
        .scheme(scheme)
        .launch()
        .expect("launch");
    let us = m
        .run_on(0, move || {
            // Register pointer variables like an early-PM2 application had to.
            let cells: Vec<usize> = (0..registered).map(|i| i * 8).collect();
            let mut keys = Vec::new();
            for c in &cells {
                if let Some(k) = pm2_register_pointer(c as *const usize as usize) {
                    keys.push(k);
                }
            }
            for _ in 0..8 {
                pm2_migrate(1).unwrap();
                pm2_migrate(0).unwrap();
            }
            let t0 = Instant::now();
            for i in 0..hops {
                pm2_migrate(1 - (i % 2)).unwrap();
            }
            let us = t0.elapsed().as_micros() as f64 / hops as f64;
            if pm2_self() != 0 {
                pm2_migrate(0).unwrap();
            }
            us
        })
        .expect("scheme pingpong");
    m.shutdown();
    us
}

// ---------------------------------------------------------------------------
// A6 — pack extents vs whole slots (§6)
// ---------------------------------------------------------------------------

/// (bytes on wire, µs per migration) for a thread carrying `heap_bytes` of
/// sparse heap, with and without the "send only allocated blocks"
/// optimization.
pub fn pack_outcome(pack_full: bool, heap_bytes: usize, hops: usize) -> (u64, f64) {
    let mut m = paper_builder(2, NetProfile::myrinet_bip())
        .pack_full_slots(pack_full)
        .launch()
        .expect("launch");
    let us = m
        .run_on(0, move || {
            // A sparse heap: allocate 2×, free every other block.
            let mut blocks = Vec::new();
            for _ in 0..(heap_bytes / 1024).max(1) {
                blocks.push(pm2_isomalloc(1024).unwrap());
            }
            for (i, &p) in blocks.iter().enumerate() {
                if i % 2 == 1 {
                    pm2_isofree(p).unwrap();
                }
            }
            for _ in 0..4 {
                pm2_migrate(1).unwrap();
                pm2_migrate(0).unwrap();
            }
            let t0 = Instant::now();
            for i in 0..hops {
                pm2_migrate(1 - (i % 2)).unwrap();
            }
            let us = t0.elapsed().as_micros() as f64 / hops as f64;
            if pm2_self() != 0 {
                pm2_migrate(0).unwrap();
            }
            us
        })
        .expect("pack pingpong");
    let stats = m.node_stats(0);
    let per_hop = stats.migration_bytes_out / stats.migrations_out.max(1);
    m.shutdown();
    (per_hop, us)
}

// ---------------------------------------------------------------------------
// A3 — slot size ablation (§4.1)
// ---------------------------------------------------------------------------

/// Negotiation count for a mixed workload under a given slot size
/// (trading pinned off — A3 counts the paper-protocol runs each slot
/// size induces).
pub fn slot_size_outcome(slot_size: usize, net: NetProfile) -> (u64, f64) {
    let n_slots = (256 * 1024 * 1024) / slot_size; // constant 256 MB area
    let mut m = Machine::builder(2)
        .area(AreaConfig { slot_size, n_slots })
        .net(net)
        .threaded()
        .slot_trade(false)
        .launch()
        .expect("launch");
    let mean_us = m
        .run_on(0, move || {
            // Mixed block sizes up to 256 KB — crossing most slot sizes.
            let mut live = Vec::new();
            let t0 = Instant::now();
            for i in 0..48usize {
                let sz = 1 << (10 + i % 9); // 1 KB .. 256 KB
                live.push(pm2_isomalloc(sz).unwrap());
            }
            let us = t0.elapsed().as_micros() as f64 / 48.0;
            for q in live {
                pm2_isofree(q).unwrap();
            }
            us
        })
        .expect("slot size workload");
    let negotiations = m.node_stats(0).negotiations;
    m.shutdown();
    (negotiations, mean_us)
}

/// Simple least-squares slope (µs per extra node) for E6 reporting.
pub fn linear_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Spin-measured context-switch cost (yield round-robin between two
/// threads), in nanoseconds — PM2's "very efficient … context switching".
pub fn ctx_switch_ns(iters: usize) -> f64 {
    let mut m = Machine::builder(1)
        .test_profile()
        .threaded()
        .launch()
        .expect("launch");
    let partner = m
        .spawn_on(0, move || {
            // Partner yields forever until its peer finishes; it exits when
            // the machine shuts down the thread via the normal exit path.
            for _ in 0..iters + 64 {
                pm2_yield();
            }
        })
        .expect("partner");
    let ns = m
        .run_on(0, move || {
            for _ in 0..64 {
                pm2_yield();
            }
            let t0 = Instant::now();
            for _ in 0..iters {
                pm2_yield();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .expect("yielder");
    m.join(partner);
    m.shutdown();
    ns
}

/// Thread create + run-to-exit + join cost, µs.
pub fn spawn_us(iters: usize) -> f64 {
    let mut m = Machine::launch(Pm2Config::test(1)).expect("launch");
    let us = m
        .run_on(0, move || {
            let t0 = Instant::now();
            for _ in 0..iters {
                let t = pm2_thread_create(|| {}).unwrap();
                pm2_join(t);
            }
            t0.elapsed().as_micros() as f64 / iters as f64
        })
        .expect("spawn loop");
    m.shutdown();
    us
}

/// A quick sanity run used by `bin/run_all` to prove the harness agrees
/// with the integration tests before measuring.
pub fn smoke() {
    let us = migration_pingpong_us(NetProfile::instant(), 0, 50);
    assert!(us > 0.0 && us < 10_000.0, "nonsense migration time {us}");
}

/// Convenience wrapper for durations in µs.
pub fn as_us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}
