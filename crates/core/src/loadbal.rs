//! Generic load balancing via transparent preemptive migration — now
//! **communication-affinity aware**: rounds minimize remote-message
//! volume first and thread-count skew second.
//!
//! The paper's motivation for preemptive migration (§2): "a generic module
//! implemented outside the running application could balance the load by
//! migrating the application threads.  The threads are unaware of their
//! being migrated and keep on running irrespective of their location."
//!
//! [`start_balancer`] spawns exactly such a module: a daemon thread (on
//! node 0, excluded from migration itself) that periodically polls every
//! node's load over the fabric and ships ready threads around.
//! Application threads contain no migration code whatsoever.
//!
//! ## The affinity scoring model
//!
//! A thread-count-balanced placement can still be terrible: two threads
//! that RPC each other every quantum pay the full modelled wire for every
//! exchange when separated, and nothing when co-located (a self-send
//! skips the wire entirely).  So every thread carries a bounded top-k
//! `(peer node → msgs)` table in its descriptor (`marcel::AFF_TOP_K`
//! entries, updated on every RPC call/reply, migrating with the thread),
//! and each `LOAD_RESP` piggybacks the reporting node's hottest
//! thread→node edges.  The planner scores moving thread *t* from *src*
//! to *dest* as
//!
//! ```text
//!                 net(t, dest)         net = msgs(t → dest)        (saved)
//!   score(t) = ────────────────             − msgs(t → src)        (broken)
//!              pack_cost(t) bytes
//! ```
//!
//! — remote messages saved minus local messages broken, per byte of
//! stack + heap the migration train would have to carry
//! (`pack_cost` comes from the same occupancy hints that size real
//! trains, so **cold-heap threads move first**).  Candidates are applied
//! greedily best-score-first while a load guard keeps the move from
//! *creating* skew beyond `threshold`; whatever move budget remains goes
//! to the classic most-loaded → least-loaded walk, so pure idle-skew
//! still equalizes and plain load balancing is the tie-breaker.
//!
//! Two hysteresis brakes stop chatty threads from ping-ponging between
//! partners on both sides:
//!
//! * **decay** — each balancer probe of a node ages its threads' tables
//!   (`msgs >>= aff_decay_shift`), so affinity reflects *recent* traffic;
//! * **cooldown + floor** — a thread is not re-planned until
//!   `aff_cooldown` epochs after its last migration, and never for a net
//!   score below `aff_min_score` (a thread equally chatty toward two
//!   nodes nets ≈ 0 and stays put).
//!
//! ## The plan/ack round protocol
//!
//! A round is **pipelined, not serialized** — its latency is proportional
//! to the number of (source → destination) *pairs* that trade, never to
//! the number of threads moved:
//!
//! 1. **Gather** — `LOAD_REQ` (carrying this epoch's decay shift) to
//!    every node; replies collected until all answer or the round
//!    deadline passes (a frozen node sits the round out; < 2 responders
//!    skips the round).  A peer whose *gossiped* load hint is younger
//!    than one heartbeat interval and marks it a non-source is not
//!    probed at all — its hint stands in as a destination-only entry
//!    (counted in [`BalancerHandle::probes_saved`]).
//! 2. **Plan** — affinity pass then load pass, executed against the
//!    snapshot: a move plan keyed by (src, dest) pair, each entry
//!    carrying the full tid list.
//! 3. **Command** — exactly one `MIGRATE_CMD` per planned pair, all
//!    issued back-to-back with a fresh cmd id each, no ack waits between
//!    them.  The source flags every named thread and the departure side
//!    coalesces them into one migration *train* per destination.
//! 4. **Collect** — batched `MIGRATE_CMD_ACK`s (cmd id, accepted, total)
//!    are matched by cmd id until every pending command answers or the
//!    deadline passes.  A straggler ack from an abandoned round has a
//!    stale cmd id and is ignored, never credited to a later round.
//!
//! ## Sampled probing at scale
//!
//! Probing all p nodes per round is the balancer's own O(p) tax, and at
//! p = 256 it dominates the round.  Above [`FULL_PROBE_MAX`] nodes the
//! gather switches to a **gossip-informed sample**: draw a seeded
//! handful of candidate peers, rank them by the epidemic load hints
//! every node already maintains, and probe only the most- and
//! least-loaded halves — the power-of-two-choices insight that comparing
//! a few sampled extremes balances almost as well as comparing everyone.
//! Rounds are O(k) on the wire regardless of p; successive rounds draw
//! fresh samples, so every imbalance is eventually visible.  Machines at
//! or below `FULL_PROBE_MAX` keep the exact full-probe behaviour.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{self, send_to, wait_reply_until};
use crate::error::Result;
use crate::machine::Machine;
use crate::proto::{self, encode_migrate_cmd, tag, AffinityEdge};

/// Re-export of the "0 = auto" full-probe threshold so callers tuning
/// [`BalancerConfig::sample`] can name it instead of hard-coding 16.
pub use crate::node::FULL_PROBE_MAX;

/// Balancer tuning.
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Poll period.
    pub period: Duration,
    /// A node is overloaded when its load exceeds the mean by more than
    /// this many threads; the affinity pass reuses it as the skew a
    /// co-location move is allowed to create.
    pub threshold: usize,
    /// Maximum migrations ordered per round (affinity + load combined).
    pub max_moves_per_round: usize,
    /// Hard time budget for one round (load gather + migrate commands).
    /// A node that stops answering — frozen in a long negotiation,
    /// mid-shutdown, wedged — *degrades* the round to the nodes that did
    /// answer instead of wedging the daemon until the machine-wide reply
    /// deadline.
    pub round_deadline: Duration,
    /// Peers probed per round.  `0` = auto: every node on machines up to
    /// [`FULL_PROBE_MAX`] nodes, a gossip-informed sample of
    /// [`AUTO_SAMPLE`] beyond that.  An explicit value forces that sample
    /// size (clamped to p); see the module notes on sampled probing.
    pub sample: usize,
    /// Run the affinity pass (false = the pre-affinity pure-load
    /// balancer, the ablation baseline of `--bin affinity`).
    pub affinity: bool,
    /// Per-epoch decay shift applied to every thread's affinity counts
    /// (`msgs >>= shift`) by each probed node; 0 disables decay.
    pub aff_decay_shift: u32,
    /// Epochs a freshly migrated thread sits out before the affinity
    /// pass may plan it again (hysteresis; never-migrated threads are
    /// exempt).
    pub aff_cooldown: u32,
    /// Minimum `remote_msgs_saved − local_msgs_broken` for an affinity
    /// move — the other hysteresis brake.  A thread equally chatty toward
    /// both sides nets ≈ 0, but strict alternation still leaves a ±2
    /// transient in any snapshot (two legs per in-flight call), so the
    /// default sits above that jitter band.
    pub aff_min_score: i64,
}

/// Default probe-sample size above [`FULL_PROBE_MAX`] nodes.
pub const AUTO_SAMPLE: usize = 8;

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            period: Duration::from_millis(2),
            threshold: 1,
            max_moves_per_round: 8,
            round_deadline: Duration::from_millis(250),
            sample: 0,
            affinity: true,
            aff_decay_shift: 1,
            aff_cooldown: 2,
            aff_min_score: 4,
        }
    }
}

/// Handle to stop the balancer daemon.
pub struct BalancerHandle {
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    thread: crate::machine::Pm2Thread,
}

/// Daemon observability: proof that rounds batch instead of serializing,
/// that the affinity pass actually plans, and that gossip hints save
/// probe round trips.
#[derive(Debug, Default)]
struct Counters {
    moves: AtomicU64,
    rounds: AtomicU64,
    cmds: AtomicU64,
    aff_moves: AtomicU64,
    probes_saved: AtomicU64,
}

impl BalancerHandle {
    /// Ask the daemon to exit and wait for it.
    pub fn stop(self, machine: &Machine) {
        self.stop.store(true, Ordering::SeqCst);
        machine.join(self.thread);
    }

    /// Total migrations the balancer has ordered (and had accepted) so far.
    pub fn moves(&self) -> u64 {
        self.counters.moves.load(Ordering::SeqCst)
    }

    /// Completed balance rounds.
    pub fn rounds(&self) -> u64 {
        self.counters.rounds.load(Ordering::SeqCst)
    }

    /// `MIGRATE_CMD` messages sent — at most one per (src, dest) pair per
    /// round, so under imbalance `cmds() < moves()` proves batching.
    pub fn cmds(&self) -> u64 {
        self.counters.cmds.load(Ordering::SeqCst)
    }

    /// Migrations planned by the *affinity* pass (subset of the commands
    /// sent; the pure-load walk accounts for the rest).
    pub fn affinity_moves(&self) -> u64 {
        self.counters.aff_moves.load(Ordering::SeqCst)
    }

    /// `LOAD_REQ` round trips skipped because a gossiped load hint
    /// younger than one heartbeat interval stood in for the probe.
    pub fn probes_saved(&self) -> u64 {
        self.counters.probes_saved.load(Ordering::SeqCst)
    }
}

/// Start the balancer daemon on node 0.
pub fn start_balancer(machine: &Machine, cfg: BalancerConfig) -> Result<BalancerHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    let stop2 = Arc::clone(&stop);
    let counters2 = Arc::clone(&counters);
    let thread = machine.spawn_on(0, move || daemon(cfg, stop2, counters2))?;
    Ok(BalancerHandle {
        stop,
        counters,
        thread,
    })
}

fn daemon(cfg: BalancerConfig, stop: Arc<AtomicBool>, counters: Arc<Counters>) {
    // The balancer itself must not be bounced around by… itself.
    api::pm2_set_migratable(false);
    // …and its probe/command exchanges must not queue behind the very
    // compute backlog it exists to spread out: run in the control lane.
    api::pm2_set_control_priority(true);
    let p = api::pm2_nodes();
    while !stop.load(Ordering::SeqCst) {
        let round_started = Instant::now();
        if let Err(e) = balance_round(p, &cfg, &counters) {
            // A node dying mid-round degrades that round, not the daemon:
            // the next round simply plans around the corpse.  Anything
            // else (a shutting-down machine dropping replies, say) exits
            // quietly.
            if !matches!(e, crate::error::Pm2Error::NodeFailed(_)) {
                break;
            }
        }
        counters.rounds.fetch_add(1, Ordering::SeqCst);
        // Sleep cooperatively until the next round.
        while round_started.elapsed() < cfg.period {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            marcel::yield_now();
        }
    }
}

/// One load snapshot of a node.
struct Load {
    node: usize,
    resident: usize,
    migratable: Vec<u64>,
    /// Hottest thread→node affinity edges the node reported.
    edges: Vec<AffinityEdge>,
    /// True when this entry came from a gossip hint instead of a probe:
    /// usable as a destination, never as a source (no tids, no edges).
    hinted: bool,
}

/// Choose this round's probe targets from a seeded candidate draw ranked
/// by the gossiped load hints: the `k/2` least-loaded (destination
/// candidates) plus the `k/2` most-loaded (source candidates), self
/// always included.  Pure so the bias is unit-testable; the draw budget
/// is bounded, never a scan, so a machine of corpses costs O(k) too.
/// With an all-zero hint table (gossip not yet converged) the bias
/// degenerates to a uniform random sample, which still converges —
/// successive rounds draw fresh candidates.
fn pick_sample(
    p: usize,
    k: usize,
    me: usize,
    hints: &[u32],
    dead: &std::collections::HashSet<usize>,
    rng: &crate::rng::SplitMix64,
) -> Vec<usize> {
    let mut cand: Vec<usize> = Vec::with_capacity(2 * k);
    for _ in 0..(4 * k) {
        if cand.len() >= 2 * k {
            break;
        }
        let n = rng.below(p);
        if n == me || dead.contains(&n) || cand.contains(&n) {
            continue;
        }
        cand.push(n);
    }
    cand.sort_by_key(|&n| hints.get(n).copied().unwrap_or(0));
    let lo = k / 2;
    let hi = k - lo;
    let mut targets: Vec<usize> = cand.iter().take(lo).copied().collect();
    targets.extend(cand.iter().rev().take(hi));
    targets.push(me);
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// Fixed-point scale for the msgs-per-byte score (score arithmetic stays
/// integral and deterministic; 2^16 per byte resolves ties well below one
/// message per 64 KiB slot).
const SCORE_SCALE: i64 = 1 << 16;

/// One applicable affinity move, scored.
struct AffCandidate {
    src_i: usize,
    dest_i: usize,
    tid: u64,
    /// `net * SCORE_SCALE / pack_cost` — msgs saved per byte shipped.
    score: i64,
}

/// Plan one round's moves against the gathered snapshot (pure; no wire
/// traffic).  Returns the (src, dest) → tids plan plus how many of those
/// tids the affinity pass planned.
fn plan_moves(
    loads: &mut [Load],
    cfg: &BalancerConfig,
) -> (HashMap<(usize, usize), Vec<u64>>, usize) {
    let mut budget = cfg.max_moves_per_round;
    let mut plan: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    let mut aff_moves = 0usize;

    // -- Affinity pass: co-locate chatty threads, cheapest trains first.
    if cfg.affinity {
        let mut cands: Vec<AffCandidate> = Vec::new();
        for src_i in 0..loads.len() {
            for e in &loads[src_i].edges {
                // Hysteresis: freshly moved threads sit out the cooldown.
                if e.epochs_since_move != u32::MAX && e.epochs_since_move < cfg.aff_cooldown {
                    continue;
                }
                if !loads[src_i].migratable.contains(&e.tid) {
                    continue;
                }
                let local: i64 = e
                    .peers
                    .iter()
                    .filter(|&&(n, _)| n as usize == loads[src_i].node)
                    .map(|&(_, m)| m as i64)
                    .sum();
                // Best destination among the nodes visible this round.
                let best = loads
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != src_i)
                    .filter_map(|(i, l)| {
                        let msgs: i64 = e
                            .peers
                            .iter()
                            .filter(|&&(n, _)| n as usize == l.node)
                            .map(|&(_, m)| m as i64)
                            .sum();
                        (msgs > 0).then_some((i, msgs))
                    })
                    .max_by_key(|&(_, msgs)| msgs);
                let Some((dest_i, remote)) = best else {
                    continue;
                };
                let net = remote - local;
                // Hysteresis floor: an ≈ 0 net (equally chatty toward
                // both sides) never justifies a train.
                if net < cfg.aff_min_score {
                    continue;
                }
                let cost = (e.pack_cost as i64).max(1);
                cands.push(AffCandidate {
                    src_i,
                    dest_i,
                    tid: e.tid,
                    score: net * SCORE_SCALE / cost,
                });
            }
        }
        // Best msgs-saved-per-byte first; tid tie-break keeps the plan
        // deterministic for a given snapshot.
        cands.sort_by_key(|c| (std::cmp::Reverse(c.score), c.tid));
        // Anti-swap rule: within one round, never drain a node others are
        // being packed into, and never pack into a node that is draining.
        // Without it two mutually-chatty threads swap homes in the same
        // round and stay remote forever; with it the higher-scoring move
        // wins and the loser re-plans next round against the new layout.
        let mut packing_into: HashSet<usize> = HashSet::new();
        let mut draining: HashSet<usize> = HashSet::new();
        for c in cands {
            if budget == 0 {
                break;
            }
            // The snapshot moved under earlier candidates: re-check.
            if !loads[c.src_i].migratable.contains(&c.tid) {
                continue;
            }
            let (src, dest) = (loads[c.src_i].node, loads[c.dest_i].node);
            if packing_into.contains(&src) || draining.contains(&dest) {
                continue;
            }
            // Load guard: co-location may *tolerate* skew up to the
            // threshold but must not create more — that is the load
            // pass's undo condition, and planning both directions in one
            // round would thrash.
            if loads[c.dest_i].resident + 1 > loads[c.src_i].resident + cfg.threshold {
                continue;
            }
            loads[c.src_i].migratable.retain(|&t| t != c.tid);
            plan.entry((src, dest)).or_default().push(c.tid);
            loads[c.src_i].resident -= 1;
            loads[c.dest_i].resident += 1;
            packing_into.insert(dest);
            draining.insert(src);
            budget -= 1;
            aff_moves += 1;
        }
    }

    // -- Load pass: the classic greedy most-loaded → least-loaded walk
    // on whatever budget remains, so pure idle-skew still equalizes.
    let total: usize = loads.iter().map(|l| l.resident).sum();
    let mean = total / loads.len();
    let mut order: Vec<usize> = (0..loads.len()).collect();
    loop {
        if budget == 0 {
            break;
        }
        order.sort_by_key(|&i| loads[i].resident);
        let (min_i, max_i) = (order[0], order[order.len() - 1]);
        let gap_over = loads[max_i].resident.saturating_sub(mean);
        let gap = loads[max_i].resident.saturating_sub(loads[min_i].resident);
        if gap_over <= cfg.threshold || gap < 2 {
            break;
        }
        let dest = loads[min_i].node;
        let Some(tid) = loads[max_i].migratable.pop() else {
            break;
        };
        let src_node = loads[max_i].node;
        plan.entry((src_node, dest)).or_default().push(tid);
        loads[max_i].resident -= 1;
        loads[min_i].resident += 1;
        budget -= 1;
    }
    (plan, aff_moves)
}

fn balance_round(p: usize, cfg: &BalancerConfig, counters: &Counters) -> Result<()> {
    let pool = api::local_pool();
    let deadline = Instant::now() + cfg.round_deadline;
    // Gather loads (the daemon itself counts towards node 0's load; the
    // threshold absorbs it).  A probe refused with a death certificate
    // drops that node from the round — corpses have no load to balance.
    // Above FULL_PROBE_MAX nodes (or with an explicit `sample` knob) the
    // gather probes a gossip-informed sample instead of all p.
    let k = match cfg.sample {
        0 if p <= FULL_PROBE_MAX => p,
        0 => AUTO_SAMPLE,
        k => k,
    };
    let targets: Vec<usize> = if k >= p {
        (0..p).collect()
    } else {
        crate::node::with_ctx(|c| pick_sample(p, k, c.node, &c.peer_load, &c.dead_nodes, &c.rng))
    };
    // Probe-saving: a peer whose gossiped load entry is younger than one
    // heartbeat interval and marks it a non-source (at or below the mean
    // of the fresh hints plus the threshold) contributes its hint as a
    // destination-only snapshot entry instead of paying a round trip.
    // Self is always probed — the reply is a local self-send anyway.
    let me = crate::node::with_ctx(|c| c.node);
    let fresh: Vec<(usize, Option<u32>)> = crate::node::with_ctx(|c| {
        targets
            .iter()
            .map(|&peer| {
                let h = (peer != me).then(|| c.fresh_load_hint(peer)).flatten();
                (peer, h)
            })
            .collect()
    });
    let known: Vec<u32> = fresh.iter().filter_map(|&(_, h)| h).collect();
    let hint_mean = if known.is_empty() {
        0
    } else {
        known.iter().map(|&h| h as usize).sum::<usize>() / known.len()
    };
    let mut loads: Vec<Load> = Vec::with_capacity(targets.len());
    let mut probed = 0usize;
    let decay = proto::encode_load_req(&pool, if cfg.affinity { cfg.aff_decay_shift } else { 0 });
    for &(peer, hint) in &fresh {
        if let Some(h) = hint {
            if (h as usize) <= hint_mean + cfg.threshold {
                loads.push(Load {
                    node: peer,
                    resident: h as usize,
                    migratable: Vec::new(),
                    edges: Vec::new(),
                    hinted: true,
                });
                counters.probes_saved.fetch_add(1, Ordering::SeqCst);
                continue;
            }
        }
        if send_to(peer, tag::LOAD_REQ, decay.clone()).is_ok() {
            probed += 1;
        }
    }
    // Collect until every probed node answered or the round deadline
    // passes; a node that answers late (or never) simply sits this round
    // out.  Responses are keyed by node so a straggler reply from a
    // *previous* degraded round only refreshes that node's entry.
    let mut answered = 0usize;
    while answered < probed {
        let Ok(m) = wait_reply_until(tag::LOAD_RESP, None, deadline, |_| true) else {
            break; // Deadline: balance whoever answered.
        };
        // (The reply also piggybacked the node's free-slot wealth, which
        // the dispatch layer absorbed into the trader's hint table before
        // parking it — the balancer's probes double as the slot economy's
        // freshness source.)
        let Some((resident, _, migratable, edges)) = proto::decode_load_resp_aff(&m.payload) else {
            continue;
        };
        answered += 1;
        let resident = resident as usize;
        if let Some(l) = loads.iter_mut().find(|l| l.node == m.src) {
            l.resident = resident;
            l.migratable = migratable;
            l.edges = edges;
            l.hinted = false;
        } else {
            loads.push(Load {
                node: m.src,
                resident,
                migratable,
                edges,
                hinted: false,
            });
        }
    }
    if loads.len() < 2 {
        return Ok(()); // Nobody to trade with this round.
    }

    // Plan against the snapshot only — no wire traffic yet.  The plan is
    // keyed by (src, dest) pair; moving k threads between a pair costs
    // one entry.
    let (plan, aff_moves) = plan_moves(&mut loads, cfg);
    if plan.is_empty() {
        return Ok(());
    }
    counters
        .aff_moves
        .fetch_add(aff_moves as u64, Ordering::SeqCst);

    // Command: every source concurrently, one MIGRATE_CMD per pair with
    // the full tid list — no per-thread (or even per-pair) RTT gaps.
    let mut pending: HashMap<u64, usize> = HashMap::new(); // cmd id → tids sent
    for ((src, dest), tids) in &plan {
        let cmd_id = crate::node::with_ctx(|c| c.next_call_id());
        // A source that died between gather and command fails its *pair*,
        // never the round (a dead *destination* is the source's problem:
        // its departure handler refuses the move and acks zero).
        if send_to(
            *src,
            tag::MIGRATE_CMD,
            encode_migrate_cmd(&pool, cmd_id, *dest, tids),
        )
        .is_err()
        {
            continue;
        }
        counters.cmds.fetch_add(1, Ordering::SeqCst);
        pending.insert(cmd_id, tids.len());
    }

    // Collect: batched acks matched by cmd id until the deadline.  Ids
    // are node-unique and never reused, so an ack parked by an abandoned
    // round can never be credited to this one.
    while !pending.is_empty() {
        let Ok(ack) = wait_reply_until(tag::MIGRATE_CMD_ACK, None, deadline, |m| {
            proto::peek_cmd_id(&m.payload).is_some_and(|id| pending.contains_key(&id))
        }) else {
            break; // Deadline: the unanswered sources degrade the round.
        };
        let Some((cmd_id, accepted, _total, _wealth)) = proto::decode_migrate_ack(&ack.payload)
        else {
            continue;
        };
        pending.remove(&cmd_id);
        counters.moves.fetch_add(accepted as u64, Ordering::SeqCst);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sample_is_bounded_deduped_and_skips_self_and_dead() {
        let rng = crate::rng::SplitMix64::new(7);
        let hints = vec![0u32; 256];
        let dead: HashSet<usize> = [3, 4, 5].into_iter().collect();
        let t = pick_sample(256, 8, 0, &hints, &dead, &rng);
        assert!(t.len() <= 9, "k targets plus self at most, got {t:?}");
        assert!(t.contains(&0), "self is always probed");
        assert!(t.iter().all(|n| !dead.contains(n)), "corpses are skipped");
        let mut u = t.clone();
        u.dedup();
        assert_eq!(u, t, "targets are deduped");
    }

    #[test]
    fn sample_prefers_the_hinted_extremes() {
        let rng = crate::rng::SplitMix64::new(42);
        // One wildly overloaded peer and one empty peer among a uniform
        // middle: whenever the draw sees them, both ends must survive the
        // cut.  Run a few rounds so the draw does see them.
        let mut hints = vec![50u32; 64];
        hints[17] = 500;
        hints[23] = 0;
        let dead = HashSet::new();
        let mut hit_hi = false;
        let mut hit_lo = false;
        for _ in 0..32 {
            let t = pick_sample(64, 4, 0, &hints, &dead, &rng);
            hit_hi |= t.contains(&17);
            hit_lo |= t.contains(&23);
        }
        assert!(hit_hi, "the most-loaded peer is sampled as a source");
        assert!(hit_lo, "the least-loaded peer is sampled as a destination");
    }

    // -- white-box planner tests ----------------------------------------

    fn load(node: usize, resident: usize, migratable: Vec<u64>, edges: Vec<AffinityEdge>) -> Load {
        Load {
            node,
            resident,
            migratable,
            edges,
            hinted: false,
        }
    }

    fn edge(tid: u64, pack_cost: u32, epochs: u32, peers: Vec<(u32, u32)>) -> AffinityEdge {
        AffinityEdge {
            tid,
            pack_cost,
            epochs_since_move: epochs,
            peers,
        }
    }

    #[test]
    fn planner_colocates_a_chatty_thread() {
        // Thread 7 on node 0 talks to node 1 (40 msgs) and barely locally
        // (2): the affinity pass ships it even though loads are equal.
        let mut loads = vec![
            load(
                0,
                3,
                vec![7],
                vec![edge(7, 4096, u32::MAX, vec![(1, 40), (0, 2)])],
            ),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert_eq!(plan.get(&(0, 1)), Some(&vec![7]));
        assert_eq!(aff, 1);
    }

    #[test]
    fn planner_cold_heap_beats_hot_heap_when_equally_chatty() {
        // Two equally chatty threads, one with a 100× cheaper train; a
        // budget of 1 must pick the cold-heap one.
        let cfg = BalancerConfig {
            max_moves_per_round: 1,
            ..BalancerConfig::default()
        };
        let mut loads = vec![
            load(
                0,
                4,
                vec![7, 8],
                vec![
                    edge(7, 200_000, u32::MAX, vec![(1, 40)]), // hot heap
                    edge(8, 2_000, u32::MAX, vec![(1, 40)]),   // cold heap
                ],
            ),
            load(1, 4, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &cfg);
        assert_eq!(plan.get(&(0, 1)), Some(&vec![8]), "cold heap ships first");
        assert_eq!(aff, 1);
    }

    #[test]
    fn planner_cooldown_blocks_fresh_movers() {
        // Thread 7 migrated last epoch: under the default 2-epoch
        // cooldown it must sit this round out, however chatty.
        let mut loads = vec![
            load(0, 3, vec![7], vec![edge(7, 4096, 1, vec![(1, 40)])]),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(aff, 0);
        // Once the cooldown has elapsed the same edge plans.
        let mut loads = vec![
            load(0, 3, vec![7], vec![edge(7, 4096, 2, vec![(1, 40)])]),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert_eq!(plan.get(&(0, 1)), Some(&vec![7]));
        assert_eq!(aff, 1);
    }

    #[test]
    fn planner_min_score_keeps_symmetric_threads_put() {
        // Equally chatty toward home and the remote side: net = 0 < the
        // min score, so no move — the anti-ping-pong floor.
        let mut loads = vec![
            load(
                0,
                3,
                vec![7],
                vec![edge(7, 4096, u32::MAX, vec![(1, 25), (0, 25)])],
            ),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(aff, 0);
        // The floor also absorbs the ±2 snapshot jitter a strictly
        // alternating caller leaves (two legs per in-flight call).
        let mut loads = vec![
            load(
                0,
                3,
                vec![7],
                vec![edge(7, 4096, u32::MAX, vec![(1, 27), (0, 25)])],
            ),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(aff, 0);
    }

    #[test]
    fn planner_anti_swap_defers_the_weaker_of_a_mutual_pair() {
        // Thread 7 on node 0 and thread 9 on node 1, each chatty toward
        // the other's home: applying both would swap them past each other
        // and leave every hop remote.  One round moves only the stronger
        // candidate; the loser re-plans next round against the new layout.
        let mut loads = vec![
            load(0, 3, vec![7], vec![edge(7, 4096, u32::MAX, vec![(1, 40)])]),
            load(1, 3, vec![9], vec![edge(9, 4096, u32::MAX, vec![(0, 30)])]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert_eq!(aff, 1, "only one side of the pair may move: {plan:?}");
        assert_eq!(plan.get(&(0, 1)), Some(&vec![7]), "the stronger edge wins");
        assert_eq!(plan.get(&(1, 0)), None);
    }

    #[test]
    fn planner_load_guard_caps_colocation_skew() {
        // Destination already over the source by the threshold: the
        // affinity move must yield to the load balance.
        let mut loads = vec![
            load(0, 2, vec![7], vec![edge(7, 4096, u32::MAX, vec![(1, 40)])]),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(aff, 0);
    }

    #[test]
    fn planner_pure_load_walk_still_equalizes() {
        // No edges at all (idle-skew workload): the classic walk moves
        // threads from the loaded node to the idle one.
        let mut loads = vec![
            load(0, 8, vec![1, 2, 3, 4, 5, 6], vec![]),
            load(1, 0, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert_eq!(aff, 0);
        let moved = plan.get(&(0, 1)).map(|v| v.len()).unwrap_or(0);
        assert!(moved >= 3, "load walk equalizes: {plan:?}");
    }

    #[test]
    fn planner_affinity_off_is_the_pure_load_baseline() {
        let cfg = BalancerConfig {
            affinity: false,
            ..BalancerConfig::default()
        };
        let mut loads = vec![
            load(0, 3, vec![7], vec![edge(7, 4096, u32::MAX, vec![(1, 40)])]),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &cfg);
        assert!(plan.is_empty(), "no affinity pass, no skew: {plan:?}");
        assert_eq!(aff, 0);
    }
}
