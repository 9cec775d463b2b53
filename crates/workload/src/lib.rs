//! # pm2-workload — ramping mixed-workload harness with SLO gates
//!
//! Every bench in `pm2-bench` is a fixed-shape microbench; this crate
//! answers the production question: **what request rate can a p-node
//! machine sustain?**  The design follows the Internet Computer
//! scalability suite's workload experiments: declare a workload, ramp its
//! rate round by round, gate each round on failure-rate and p99-latency
//! SLOs, and report the last passing round as the machine's capacity.
//!
//! The pieces:
//!
//! * [`WorkloadSpec`] — a declarative workload *value*: a weighted mix of
//!   ops (spawn, typed RPC, migrate, group-migrate trains, isomalloc
//!   alloc/free, broadcast fan-out) with a payload-size distribution and
//!   a node-targeting policy, sampled via testkit's seeded SplitMix64 so
//!   a run replays exactly.  Future scenarios (chaos, affinity shapes)
//!   are just new spec values.
//! * [`run_ramp`] — the open-loop driver: injector threads own the
//!   schedule and push sampled ops down a channel; the issuer thread
//!   (which owns the `!Sync` machine handle) spawns each op the moment
//!   it is due; op latency is measured from the *scheduled* time so
//!   queueing counts and saturation is visible (no coordinated
//!   omission).  Latencies land in a concurrent log2 histogram
//!   ([`LogHistogram`]); uncompleted ops become timeouts.
//! * [`RampController`] — the IC-style gate as a pure state machine:
//!   `initial_rps` + `increment_rps` per round, stop at the first round
//!   with `failure_rate > allowable` or `p99 > slo`, hard-stop
//!   thresholds marking the cliff, last passing round = max sustainable
//!   RPS.
//! * [`CapacityReport`] — per-round driver measurements joined with
//!   machine-side counters (scheduler steps, doorbell parks, spawns,
//!   migrations/trains, slot trades/negotiations, payload-pool churn) so
//!   each round shows *why* it saturated, not just that it did.  The
//!   counters are monotonic; a round's figures are the difference of the
//!   machine-wide snapshots taken at its start and after its drain
//!   (`NodeStatsSnapshot::since`, `BufPoolStats::since`).
//!
//! ```no_run
//! use pm2::Machine;
//! use pm2_workload::{register_services, run_ramp, RampConfig, WorkloadSpec};
//!
//! let mut m = Machine::builder(4).launch().unwrap();
//! register_services(&m);
//! let report = run_ramp(&m, &WorkloadSpec::mixed(), RampConfig::default(), 2);
//! println!("{}", report.summary());
//! m.shutdown();
//! ```

mod chaos;
mod driver;
mod hist;
mod ramp;
mod spec;

pub use chaos::{run_kill_node, run_partition, ChaosReport, PartitionReport, CHAOS_RESIDENTS};
pub use driver::{register_services, run_gated_round, run_ramp, CapacityReport, Echo, RoundReport};
pub use hist::{LogHistogram, N_BUCKETS};
pub use ramp::{RampConfig, RampController, RoundMeasurement, Verdict};
pub use spec::{OpKind, SampledOp, SizeDist, Targeting, WorkloadSpec};
