//! Declarative workload descriptions.
//!
//! A [`WorkloadSpec`] is a *value*: a weighted mix of operation kinds, a
//! payload-size distribution, and a node-targeting policy.  The driver
//! samples concrete operations from it with testkit's seeded SplitMix64,
//! so a given `(spec, round, injector)` triple always produces the same
//! op sequence — deterministic-mode machines replay a workload exactly,
//! and a saturation point found once is found again.

use testkit::StdRng;

/// One operation kind in a mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Spawn a child thread on the target node, join it.
    Spawn,
    /// Typed echo RPC (`Service` round trip) from the issuing node to a
    /// peer, payload drawn from the size distribution.
    Rpc,
    /// The issuing thread migrates to a peer node.
    Migrate,
    /// Spawn `group` yield-loop children and move them to a peer with one
    /// `pm2_group_migrate` command (a migration train).
    GroupMigrate {
        /// Threads per group command.
        group: usize,
    },
    /// `pm2_isomalloc` a payload-sized block, touch it, `pm2_isofree` it.
    Alloc,
    /// Echo-RPC fan-out to every other node (there is no green-side
    /// broadcast primitive; this is the fan-out a broadcast would cost).
    Broadcast,
}

impl OpKind {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Spawn => "spawn",
            OpKind::Rpc => "rpc",
            OpKind::Migrate => "migrate",
            OpKind::GroupMigrate { .. } => "group_migrate",
            OpKind::Alloc => "alloc",
            OpKind::Broadcast => "broadcast",
        }
    }
}

/// Payload-size distribution (bytes).
#[derive(Debug, Clone, Copy)]
pub enum SizeDist {
    /// Every payload exactly `0` bytes… or any fixed size.
    Fixed(usize),
    /// Uniform in `[lo, hi]`.
    Uniform { lo: usize, hi: usize },
    /// `small` bytes usually, `large` bytes with probability `p_large` —
    /// the classic mostly-small-sometimes-bulk traffic shape.
    Bimodal {
        small: usize,
        large: usize,
        p_large: f64,
    },
}

impl SizeDist {
    /// Draw one size.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform { lo, hi } => rng.random_range(lo..=hi),
            SizeDist::Bimodal {
                small,
                large,
                p_large,
            } => {
                if rng.random_bool(p_large) {
                    large
                } else {
                    small
                }
            }
        }
    }
}

/// Which nodes ops are issued on and aimed at.
#[derive(Debug, Clone, Copy)]
pub enum Targeting {
    /// Issue node and peer node both uniform over the machine (peer ≠
    /// issue node when the op needs a distinct peer).
    Uniform,
    /// Every op issues on `node` (peers stay uniform) — a hot-spot shape.
    Hotspot {
        /// The hot node.
        node: usize,
    },
    /// Producer/consumer ring: ops issue uniformly but always aim at the
    /// next node around the ring (`peer = issue + 1 mod nodes`) — the
    /// communication-affinity shape where co-locating neighbours turns
    /// every hop into a wire-free self-send.
    Ring,
    /// All ops aim at one popular `node` hosting a service, issued from
    /// everywhere else — the hot-spot *shuffle* shape (the inverse of
    /// [`Targeting::Hotspot`], which pins the issuing side).
    Service {
        /// The popular node.
        node: usize,
    },
}

/// A declarative workload: what to run, not how fast (the ramp decides
/// that round by round).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Report label, e.g. `"pingpong_rpc"`.
    pub name: String,
    /// Weighted op mix; weights are relative, zero-weight entries never
    /// fire.
    pub mix: Vec<(OpKind, u64)>,
    /// Payload sizes for Rpc/Alloc/Broadcast ops.
    pub payload: SizeDist,
    /// Node-targeting policy.
    pub targeting: Targeting,
    /// Base PRNG seed; the driver folds round and injector indices in.
    pub seed: u64,
}

impl WorkloadSpec {
    /// 100% echo-RPC ping-pong with a fixed small payload — the classic
    /// capacity baseline.
    pub fn pingpong_rpc(payload_bytes: usize) -> Self {
        WorkloadSpec {
            name: "pingpong_rpc".into(),
            mix: vec![(OpKind::Rpc, 1)],
            payload: SizeDist::Fixed(payload_bytes),
            targeting: Targeting::Uniform,
            seed: 0x9E37,
        }
    }

    /// The mixed spawn/RPC/migrate shape, with alloc and train/broadcast
    /// seasoning so every subsystem is on the hot path.
    pub fn mixed() -> Self {
        WorkloadSpec {
            name: "mixed".into(),
            mix: vec![
                (OpKind::Spawn, 25),
                (OpKind::Rpc, 35),
                (OpKind::Migrate, 20),
                (OpKind::Alloc, 10),
                (OpKind::GroupMigrate { group: 4 }, 5),
                (OpKind::Broadcast, 5),
            ],
            payload: SizeDist::Bimodal {
                small: 64,
                large: 8 * 1024,
                p_large: 0.05,
            },
            targeting: Targeting::Uniform,
            seed: 0x7C15,
        }
    }

    /// The `kill_node` chaos mix: [`WorkloadSpec::mixed`] without the
    /// broadcast fan-out.  A green-side broadcast has no membership view
    /// and would dial the corpse by construction; every other op kind is
    /// rerouted around dead nodes by the driver.
    pub fn chaos() -> Self {
        WorkloadSpec {
            name: "chaos_kill_node".into(),
            mix: vec![
                (OpKind::Spawn, 30),
                (OpKind::Rpc, 40),
                (OpKind::Migrate, 15),
                (OpKind::Alloc, 10),
                (OpKind::GroupMigrate { group: 4 }, 5),
            ],
            payload: SizeDist::Bimodal {
                small: 64,
                large: 8 * 1024,
                p_large: 0.05,
            },
            targeting: Targeting::Uniform,
            seed: 0xD0A,
        }
    }

    /// Producer/consumer ring: 100% small echo RPCs around the ring.
    /// Every op on node *i* calls node *i+1*, so the steady-state traffic
    /// matrix is the ring adjacency — the scenario the affinity balancer
    /// wins by co-locating neighbours (seeded, replayable like the other
    /// presets).
    pub fn ring() -> Self {
        WorkloadSpec {
            name: "ring".into(),
            mix: vec![(OpKind::Rpc, 1)],
            payload: SizeDist::Fixed(64),
            targeting: Targeting::Ring,
            seed: 0x21B5,
        }
    }

    /// Hot-spot shuffle: RPC-heavy traffic from everywhere aimed at one
    /// popular node (node 0) hosting a service, with a little spawn/alloc
    /// seasoning so the hot node also does ordinary work.
    pub fn hotspot() -> Self {
        WorkloadSpec {
            name: "hotspot".into(),
            mix: vec![(OpKind::Rpc, 8), (OpKind::Spawn, 1), (OpKind::Alloc, 1)],
            payload: SizeDist::Fixed(64),
            targeting: Targeting::Service { node: 0 },
            seed: 0x40D5,
        }
    }

    /// Builder: replace the targeting policy.
    pub fn with_targeting(mut self, t: Targeting) -> Self {
        self.targeting = t;
        self
    }

    /// Sample one concrete op for a machine of `nodes` nodes.
    pub fn sample(&self, rng: &mut StdRng, nodes: usize) -> SampledOp {
        let weights: Vec<u64> = self.mix.iter().map(|(_, w)| *w).collect();
        let kind = self.mix[rng.pick_weighted(&weights)].0;
        let issue_on = match self.targeting {
            Targeting::Uniform | Targeting::Ring => rng.random_range(0..nodes),
            Targeting::Hotspot { node } => node.min(nodes - 1),
            // The popular node serves; everyone *else* issues.
            Targeting::Service { node } => {
                let hot = node.min(nodes - 1);
                if nodes > 1 {
                    let p = rng.random_range(0..nodes - 1);
                    if p >= hot {
                        p + 1
                    } else {
                        p
                    }
                } else {
                    hot
                }
            }
        };
        // A distinct peer for ops that cross the wire (any node on a
        // 1-node machine — the ops degrade to local forms).
        let peer = match self.targeting {
            Targeting::Ring => (issue_on + 1) % nodes,
            Targeting::Service { node } => node.min(nodes - 1),
            _ if nodes > 1 => {
                let p = rng.random_range(0..nodes - 1);
                if p >= issue_on {
                    p + 1
                } else {
                    p
                }
            }
            _ => issue_on,
        };
        let bytes = self.payload.sample(rng);
        SampledOp {
            kind,
            issue_on,
            peer,
            bytes,
        }
    }
}

/// One concrete sampled operation: everything the driver needs to issue
/// it, no RNG required downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledOp {
    /// What to do.
    pub kind: OpKind,
    /// Node the op thread is spawned on.
    pub issue_on: usize,
    /// Peer node (RPC target / migration destination); equals `issue_on`
    /// only on a 1-node machine.
    pub peer: usize,
    /// Payload size drawn from the spec's distribution.
    pub bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let spec = WorkloadSpec::mixed();
        let mut a = StdRng::seed_from_u64(spec.seed);
        let mut b = StdRng::seed_from_u64(spec.seed);
        for _ in 0..500 {
            assert_eq!(spec.sample(&mut a, 8), spec.sample(&mut b, 8));
        }
    }

    #[test]
    fn peer_is_distinct_on_multi_node_machines() {
        let spec = WorkloadSpec::mixed();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let op = spec.sample(&mut rng, 4);
            assert!(op.issue_on < 4 && op.peer < 4);
            assert_ne!(op.issue_on, op.peer);
        }
    }

    #[test]
    fn hotspot_pins_the_issue_node() {
        let spec = WorkloadSpec::pingpong_rpc(64).with_targeting(Targeting::Hotspot { node: 2 });
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            assert_eq!(spec.sample(&mut rng, 4).issue_on, 2);
        }
    }

    #[test]
    fn ring_aims_at_the_next_node() {
        let spec = WorkloadSpec::ring();
        let mut rng = StdRng::seed_from_u64(5);
        let mut issued = [0usize; 4];
        for _ in 0..400 {
            let op = spec.sample(&mut rng, 4);
            assert_eq!(op.peer, (op.issue_on + 1) % 4);
            assert!(matches!(op.kind, OpKind::Rpc));
            issued[op.issue_on] += 1;
        }
        assert!(issued.iter().all(|&n| n > 0), "all ring stations issue");
        // Replayable like every preset: same seed, same sequence.
        let mut a = StdRng::seed_from_u64(spec.seed);
        let mut b = StdRng::seed_from_u64(spec.seed);
        for _ in 0..100 {
            assert_eq!(spec.sample(&mut a, 8), spec.sample(&mut b, 8));
        }
    }

    #[test]
    fn hotspot_preset_aims_everyone_at_the_service_node() {
        let spec = WorkloadSpec::hotspot();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..400 {
            let op = spec.sample(&mut rng, 4);
            assert_eq!(op.peer, 0, "all traffic aims at the popular node");
            assert_ne!(op.issue_on, 0, "the popular node serves, not issues");
        }
    }

    #[test]
    fn mix_respects_weights_roughly() {
        let spec = WorkloadSpec::mixed();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let rpcs = (0..n)
            .filter(|_| matches!(spec.sample(&mut rng, 8).kind, OpKind::Rpc))
            .count();
        // Rpc weight is 35 of 100.
        let frac = rpcs as f64 / n as f64;
        assert!((0.30..0.40).contains(&frac), "rpc fraction {frac}");
    }

    #[test]
    fn size_distributions_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5000 {
            assert_eq!(SizeDist::Fixed(7).sample(&mut rng), 7);
            let u = SizeDist::Uniform { lo: 10, hi: 20 }.sample(&mut rng);
            assert!((10..=20).contains(&u));
            let b = SizeDist::Bimodal {
                small: 1,
                large: 9,
                p_large: 0.5,
            }
            .sample(&mut rng);
            assert!(b == 1 || b == 9);
        }
    }
}
