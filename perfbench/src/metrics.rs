//! The metrics of one round, computed in the round's own process.  The
//! run reports the median of each over its rounds.

use crate::layers::Counters;
use crate::load::Span;
use crate::run::{PhaseOut, Rate, Round, Timings};

pub type Metric = (&'static str, f64, &'static str);

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// `a / b`, or 0 when nothing happened (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn coefficient_of_variation(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    ratio(var.sqrt(), mean)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The round's share of the end-to-end metrics (the run adds `ok_frac`
/// and `setup_s`).
pub fn end_to_end(r: &Round) -> Result<Vec<Metric>, String> {
    let lat = |p: &PhaseOut, q: f64| us(p.lat.quantile(q));
    Ok(vec![
        ("ops_per_s", r.loaded.rate.granted(), "ops/s"),
        ("solo_p50_us", lat(&r.solo, 0.50), "us"),
        ("solo_p99_us", lat(&r.solo, 0.99), "us"),
        ("loaded_p50_us", lat(&r.loaded, 0.50), "us"),
        ("loaded_p90_us", lat(&r.loaded, 0.90), "us"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ])
}

/// The round's share of the per-layer metrics (the run adds
/// `bench.fail_frac`).  Spans come from the traced solo phase, counters
/// from the untraced loaded phase.
pub fn per_layer(t: &Timings, r: &Round, traced: &(PhaseOut, PhaseOut)) -> Vec<Metric> {
    let (t_solo, t_loaded) = traced;
    let c: &Counters = &r.loaded.counters;
    let ops = r.loaded.rate.ops as f64;
    let per_op = |x: u64| ratio(x as f64, ops);
    let per_kop = |x: u64| ratio(1e3 * x as f64, ops);
    let hops = c.migrations_out as f64;
    let span = |s: Span, q: f64| us(t_solo.spans[s as usize].quantile(q));
    let series: Vec<f64> = r.loaded.series.iter().map(Rate::granted).collect();
    let child_ns = t_solo.child_ns + t_loaded.child_ns;
    let op_ns = t_solo.op_ns + t_loaded.op_ns;
    vec![
        ("core.migrate_p50_us", span(Span::Migrate, 0.50), "us"),
        ("core.migrate_p99_us", span(Span::Migrate, 0.99), "us"),
        ("core.rpc_call_p50_us", span(Span::RpcCall, 0.50), "us"),
        ("core.rpc_call_p99_us", span(Span::RpcCall, 0.99), "us"),
        ("core.rpc_wait_p50_us", span(Span::RpcWait, 0.50), "us"),
        ("core.rpc_handler_p50_us", span(Span::Handler, 0.50), "us"),
        ("core.steps_per_op", per_op(c.steps), "1/op"),
        ("core.parks_per_op", per_op(c.parks), "1/op"),
        ("core.wakeups_per_op", per_op(c.wakeups), "1/op"),
        (
            "core.loaded_over_solo",
            ratio(r.loaded.rate.granted(), r.solo.rate.granted()),
            "ratio",
        ),
        ("core.launch_ms", median(&t.launch_ms), "ms"),
        ("core.spawn_on_us", median(&t.spawn_us), "us"),
        ("core.shutdown_ms", median(&t.shutdown_ms), "ms"),
        ("migration.pack_us", us(ratio(c.pack_ns as f64, hops)), "us"),
        (
            "migration.unpack_us",
            us(ratio(c.unpack_ns as f64, hops)),
            "us",
        ),
        (
            "migration.bytes_per_hop",
            ratio(c.migration_bytes_out as f64, hops),
            "B/hop",
        ),
        (
            "migration.trains_per_hop",
            ratio(c.trains_out as f64, hops),
            "1/hop",
        ),
        ("migration.failed", c.migrations_failed as f64, "count"),
        ("isomalloc.alloc_p50_us", span(Span::Alloc, 0.50), "us"),
        ("isomalloc.alloc_p99_us", span(Span::Alloc, 0.99), "us"),
        ("isomalloc.free_p50_us", span(Span::Free, 0.50), "us"),
        (
            "isoaddr.cache_hit_frac",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        ),
        (
            "isoaddr.remote_acquire_per_kop",
            per_kop(c.negotiation_required),
            "1/kop",
        ),
        ("negotiation.trades_per_kop", per_kop(c.trades), "1/kop"),
        (
            "negotiation.trade_us",
            us(ratio(c.trade_ns as f64, c.trades as f64)),
            "us",
        ),
        ("negotiation.fallbacks", c.trade_fallbacks as f64, "count"),
        ("negotiation.global_count", c.negotiations as f64, "count"),
        (
            "negotiation.global_us",
            us(ratio(c.negotiation_ns as f64, c.negotiations as f64)),
            "us",
        ),
        (
            "negotiation.prefetch_fill_frac",
            ratio(c.prefetch_fills as f64, c.prefetches as f64),
            "ratio",
        ),
        ("marcel.spawns_per_op", per_op(c.spawns), "1/op"),
        ("madeleine.msgs_per_op", per_op(c.msgs_sent), "1/op"),
        ("madeleine.bytes_per_op", per_op(c.bytes_sent), "B/op"),
        (
            "madeleine.items_per_batch",
            ratio(c.batch_items_sent as f64, c.batch_msgs_sent as f64),
            "1/batch",
        ),
        (
            "madeleine.pool_miss_frac",
            ratio(c.pool_allocs as f64, c.pool_checkouts as f64),
            "ratio",
        ),
        ("madeleine.ctrl_retries", c.ctrl_retries as f64, "count"),
        ("madeleine.dup_dropped", c.dup_dropped as f64, "count"),
        ("bench.loaded_p99_us", us(r.loaded.lat.quantile(0.99)), "us"),
        (
            "bench.loaded_p999_us",
            us(r.loaded.lat.quantile(0.999)),
            "us",
        ),
        ("bench.ops_cv", coefficient_of_variation(&series), "ratio"),
        ("bench.wall_ops_per_s", r.loaded.rate.wall(), "ops/s"),
        ("bench.steal_frac", r.loaded.rate.steal_frac(), "ratio"),
        (
            "trace.coverage_frac",
            ratio(child_ns as f64, op_ns as f64),
            "ratio",
        ),
        (
            "trace.overhead_frac",
            1.0 - ratio(t_loaded.rate.granted(), r.loaded.rate.granted()),
            "ratio",
        ),
    ]
}
