//! The open-loop driver and the capacity report.
//!
//! ## Issuing without sharing the machine
//!
//! `Machine` is deliberately `!Sync` (its host endpoint owns a receiver
//! and a sequence cell), so "host-side injector threads" cannot call
//! `spawn_on` themselves.  The driver splits the work: **injector
//! threads** own the open-loop *schedule* — op `k` of a round is due at
//! `start + k/rps`, injector `j` handles the ops with `k ≡ j (mod n)`,
//! samples them deterministically from the spec, sleeps until each is due
//! and pushes it down an mpsc channel — while the **issuer** (the calling
//! thread, which owns `&Machine`) turns each request into one
//! `Machine::spawn_on` the moment it arrives.  The op body runs as a green
//! thread, performs the sampled operation through the `pm2::api` surface,
//! and records its own latency.
//!
//! ## Open-loop honesty
//!
//! Latency is measured from the op's *scheduled* time, not from when the
//! issuer got around to it — if the machine (or the issuer) backs up, the
//! queueing delay is charged to the op.  This is the open-loop discipline
//! that makes p99 explode past the saturation point instead of the
//! coordinated-omission artifact where a choked system looks fast because
//! it is asked less often.  Ops that have not completed by the round's
//! drain deadline count as timeouts (failures), exactly like the IC
//! suite's uncompleted requests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pm2::api::{
    pm2_group_migrate, pm2_isofree, pm2_isomalloc, pm2_join, pm2_migrate, pm2_nodes, pm2_rpc_call,
    pm2_self, pm2_thread_create, pm2_yield,
};
use pm2::node::NodeStatsSnapshot;
use pm2::{BufPoolStats, Machine, Service};
use testkit::StdRng;

use crate::hist::LogHistogram;
use crate::ramp::{RampConfig, RampController, RoundMeasurement, Verdict};
use crate::spec::{OpKind, SampledOp, WorkloadSpec};

/// The echo service every RPC-shaped op calls: request bytes come back
/// verbatim (the classic ping-pong payload round trip).
pub struct Echo;

impl Service for Echo {
    const NAME: &'static str = "workload.echo";
    type Req = Vec<u8>;
    type Resp = Vec<u8>;
    fn handle(&self, req: Vec<u8>) -> Vec<u8> {
        req
    }
}

/// Register the services the workload ops call.  Once per machine,
/// before the first round.
pub fn register_services(m: &Machine) {
    m.register(Echo);
}

/// Node and payload-pool counters summed over the machine's nodes.
fn totals(m: &Machine) -> (NodeStatsSnapshot, BufPoolStats) {
    let nodes = 0..m.nodes();
    let stats = nodes.clone().map(|n| m.node_stats(n)).sum();
    (stats, nodes.map(|n| m.pool_stats(n)).sum())
}

/// Everything measured in one ramp round.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Target rate.
    pub rps: u64,
    /// Ops handed to `spawn_on` (including spawn failures).
    pub issued: u64,
    /// Ops that completed successfully inside the drain window.
    pub ok: u64,
    /// Ops that completed with an error.
    pub failed: u64,
    /// Ops unaccounted for at the drain deadline.
    pub timed_out: u64,
    /// `(failed + timed_out) / issued`.
    pub failure_rate: f64,
    /// Latency quantiles over successful ops, ms (from the scheduled
    /// issue time — queueing included).
    pub p50_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Mean, ms.
    pub mean_ms: f64,
    /// Did the machine go quiet (every issued op accounted for) within
    /// the quiet timeout after the round?
    pub quiesced: bool,
    /// Node counters over the round, summed over nodes — the "why did
    /// it saturate" half of the report (steps, parks, spawns, trains,
    /// trades, negotiations).
    pub machine: NodeStatsSnapshot,
    /// Payload-pool counters over the round, summed over nodes (steady
    /// state: `allocs` ~0, every message rides a recycled buffer).
    pub pool: BufPoolStats,
    /// The controller's judgement.
    pub verdict: Verdict,
}

/// The full ramp result for one workload on one machine.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// Spec name.
    pub workload: String,
    /// Node count.
    pub nodes: usize,
    /// Net profile name.
    pub net: String,
    /// Per-round measurements, in ramp order.
    pub rounds: Vec<RoundReport>,
    /// Highest rate that passed every SLO.
    pub max_sustainable_rps: Option<u64>,
}

impl CapacityReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        match self.max_sustainable_rps {
            Some(rps) => format!(
                "{} on p={}: max sustainable {} rps over {} rounds",
                self.workload,
                self.nodes,
                rps,
                self.rounds.len()
            ),
            None => format!(
                "{} on p={}: no round passed the SLOs ({} rounds)",
                self.workload,
                self.nodes,
                self.rounds.len()
            ),
        }
    }
}

#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    err: AtomicU64,
}

impl Counters {
    fn finished(&self) -> u64 {
        self.ok.load(Ordering::Relaxed) + self.err.load(Ordering::Relaxed)
    }
}

/// Run one op inside its green thread.
fn perform(op: SampledOp) -> pm2::Result<()> {
    match op.kind {
        OpKind::Spawn => {
            let tid = pm2_thread_create(|| {
                pm2_yield();
            })?;
            pm2_join(tid);
            Ok(())
        }
        OpKind::Rpc => {
            let req = vec![0xA5u8; op.bytes];
            let resp = pm2_rpc_call::<Echo>(op.peer, req)?;
            if resp.len() == op.bytes {
                Ok(())
            } else {
                Err(pm2::Pm2Error::Rpc("echo length mismatch".into()))
            }
        }
        OpKind::Migrate => pm2_migrate(op.peer),
        OpKind::GroupMigrate { group } => {
            let stop = Arc::new(AtomicBool::new(false));
            let mut tids = Vec::with_capacity(group);
            for _ in 0..group {
                let stop = Arc::clone(&stop);
                tids.push(pm2_thread_create(move || {
                    while !stop.load(Ordering::Relaxed) {
                        pm2_yield();
                    }
                })?);
            }
            // Local fast path: the children live here, one command flags
            // them all; they ride one train to the peer at their next
            // scheduling points.
            pm2_group_migrate(pm2_self(), op.peer, &tids)?;
            stop.store(true, Ordering::Relaxed);
            for tid in tids {
                pm2_join(tid);
            }
            Ok(())
        }
        OpKind::Alloc => {
            let size = op.bytes.max(1);
            let p = pm2_isomalloc(size)?;
            // Touch the block so the allocation is real, not just a
            // bitmap mutation.
            unsafe { std::ptr::write_bytes(p, 0x5A, size) };
            pm2_isofree(p)
        }
        OpKind::Broadcast => {
            let me = pm2_self();
            let req = vec![0x42u8; op.bytes];
            for peer in 0..pm2_nodes() {
                if peer != me {
                    pm2_rpc_call::<Echo>(peer, req.clone())?;
                }
            }
            Ok(())
        }
    }
}

struct OpRequest {
    due: Instant,
    op: SampledOp,
}

/// Route an op away from dead nodes, the way a front-end stops routing
/// to a dead replica: the issue node moves to the next survivor, and the
/// peer to the next survivor distinct from the issue node.  No-op on a
/// healthy machine, so plain ramps never pay for it.
fn reroute_dead(m: &Machine, op: &mut SampledOp) {
    let nodes = m.nodes();
    let next_alive = |from: usize, avoid: Option<usize>| {
        (1..=nodes)
            .map(|d| (from + d) % nodes)
            .find(|&n| !m.is_node_dead(n) && Some(n) != avoid)
    };
    if m.is_node_dead(op.issue_on) {
        if let Some(n) = next_alive(op.issue_on, None) {
            op.issue_on = n;
        }
    }
    if (m.is_node_dead(op.peer) || op.peer == op.issue_on) && nodes > 1 {
        if let Some(n) = next_alive(op.peer, Some(op.issue_on)) {
            op.peer = n;
        }
    }
}

/// Raw numbers out of one round, before the controller judges it.
struct RoundStats {
    issued: u64,
    ok: u64,
    failed: u64,
    timed_out: u64,
    quiesced: bool,
    hist: Arc<LogHistogram>,
    machine: NodeStatsSnapshot,
    pool: BufPoolStats,
}

/// Issue `rps` ops/s for the configured round duration, drain, and
/// measure.
fn run_round(
    m: &Machine,
    spec: &WorkloadSpec,
    cfg: &RampConfig,
    rps: u64,
    round_idx: u64,
    injectors: usize,
) -> RoundStats {
    let nodes = m.nodes();
    let injectors = injectors.max(1);
    let (stats_before, pool_before) = totals(m);

    let total_ops = ((rps as f64) * cfg.round_duration.as_secs_f64())
        .round()
        .max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / rps as f64);
    let counters = Arc::new(Counters::default());
    let hist = Arc::new(LogHistogram::new());
    // Small runway so op 0 is not born late.
    let start = Instant::now() + Duration::from_millis(2);

    let (tx, rx) = mpsc::channel::<OpRequest>();
    let mut issued = 0u64;
    std::thread::scope(|s| {
        for j in 0..injectors {
            let tx = tx.clone();
            let spec = spec.clone();
            s.spawn(move || {
                // Fold round and injector indices into the seed so every
                // (spec, round, injector) stream is distinct yet
                // replayable.
                let mut rng = StdRng::seed_from_u64(
                    spec.seed
                        ^ round_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                );
                let mut k = j as u64;
                while k < total_ops {
                    let due = start + interval.mul_f64(k as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let op = spec.sample(&mut rng, nodes);
                    if tx.send(OpRequest { due, op }).is_err() {
                        break;
                    }
                    k += injectors as u64;
                }
            });
        }
        drop(tx); // the issuer loop ends when the last injector finishes
        for req in rx.iter() {
            let body_counters = Arc::clone(&counters);
            let hist = Arc::clone(&hist);
            let OpRequest { due, mut op } = req;
            reroute_dead(m, &mut op);
            let r = m.spawn_on(op.issue_on, move || match perform(op) {
                Ok(()) => {
                    hist.record_us(due.elapsed().as_micros() as u64);
                    body_counters.ok.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    body_counters.err.fetch_add(1, Ordering::Relaxed);
                }
            });
            issued += 1;
            if r.is_err() {
                counters.err.fetch_add(1, Ordering::Relaxed);
            }
        }
    });

    // Drain: in-flight ops get until the grace deadline to land; anything
    // still unaccounted is a timeout.
    let drain_deadline = start + cfg.round_duration + cfg.drain_grace;
    while counters.finished() < issued && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let ok = counters.ok.load(Ordering::Relaxed);
    let failed = counters.err.load(Ordering::Relaxed);
    let timed_out = issued.saturating_sub(ok + failed);
    let (stats_after, pool_after) = totals(m);

    // wait_for_quiet: let stragglers finish before the next round starts,
    // so round n+1's counters are not polluted by round n's tail.
    let quiet_deadline = Instant::now() + cfg.quiet_timeout;
    let mut quiesced = counters.finished() >= issued;
    while !quiesced && Instant::now() < quiet_deadline {
        std::thread::sleep(Duration::from_millis(2));
        quiesced = counters.finished() >= issued;
    }

    RoundStats {
        issued,
        ok,
        failed,
        timed_out,
        quiesced,
        hist,
        machine: stats_after.since(&stats_before),
        pool: pool_after.since(&pool_before),
    }
}

/// Judge one round's raw stats with the controller and fold everything
/// into a [`RoundReport`].
fn judge_round(ctl: &mut RampController, rps: u64, s: RoundStats) -> RoundReport {
    let failure_rate = if s.issued == 0 {
        0.0
    } else {
        (s.failed + s.timed_out) as f64 / s.issued as f64
    };
    let p50_ms = s.hist.quantile_us(0.50) / 1e3;
    let p90_ms = s.hist.quantile_us(0.90) / 1e3;
    let p99_ms = s.hist.quantile_us(0.99) / 1e3;
    let verdict = ctl.record(RoundMeasurement {
        rps,
        failure_rate,
        p50_ms,
        p99_ms,
    });
    RoundReport {
        rps,
        issued: s.issued,
        ok: s.ok,
        failed: s.failed,
        timed_out: s.timed_out,
        failure_rate,
        p50_ms,
        p90_ms,
        p99_ms,
        mean_ms: s.hist.mean_us() / 1e3,
        quiesced: s.quiesced,
        machine: s.machine,
        pool: s.pool,
        verdict,
    }
}

/// Run one fixed-rate round outside a ramp and judge it against the
/// config's SLO gates (a one-shot controller pinned to `rps`).  The chaos
/// scenarios reuse the open-loop driver and the gate without the
/// escalating schedule.  [`register_services`] must have been called on
/// `m` first.
pub fn run_gated_round(
    m: &Machine,
    spec: &WorkloadSpec,
    cfg: &RampConfig,
    rps: u64,
    round_idx: u64,
    injectors: usize,
) -> RoundReport {
    let mut ctl = RampController::new(RampConfig {
        initial_rps: rps,
        increment_rps: 0,
        max_rps: rps,
        ..cfg.clone()
    });
    let s = run_round(m, spec, cfg, rps, round_idx, injectors);
    judge_round(&mut ctl, rps, s)
}

/// Ramp a workload on a running machine until an SLO breaks (or the
/// ceiling is reached) and report every round plus the max sustainable
/// rate.  [`register_services`] must have been called on `m` first.
pub fn run_ramp(
    m: &Machine,
    spec: &WorkloadSpec,
    cfg: RampConfig,
    injectors: usize,
) -> CapacityReport {
    let mut ctl = RampController::new(cfg);
    let mut rounds = Vec::new();
    let mut round_idx = 0u64;
    while let Some(rps) = ctl.next_rps() {
        let s = run_round(m, spec, ctl.config(), rps, round_idx, injectors);
        rounds.push(judge_round(&mut ctl, rps, s));
        round_idx += 1;
    }
    CapacityReport {
        workload: spec.name.clone(),
        nodes: m.nodes(),
        net: m.config().net.name.to_string(),
        rounds,
        max_sustainable_rps: ctl.max_sustainable_rps(),
    }
}
