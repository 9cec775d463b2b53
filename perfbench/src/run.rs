//! Machine lifecycle and phases: launch, set-up probes, closed-loop
//! phases under watchdogs, audit and shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use pm2::{JoinHandle, Machine, NetProfile};

use crate::hist::Hist;
use crate::layers::Counters;
use crate::load::{self, ClientReport, Phase, Workload, NODES, N_SPANS};

pub const WORKERS: usize = 2;
pub const CLIENTS_PER_NODE: usize = 4;
/// Set-up probes per round; `setup_s` is the median over all rounds'.
const SETUP_REPS: usize = 2;
/// Granted seconds a phase runs before it starts recording, after every
/// client's first op.
const WARMUP: f64 = 0.15;
/// Throughput sampling period within a phase (`bench.ops_cv`).
const SAMPLE_EVERY: Duration = Duration::from_millis(250);
/// Watchdogs: a phase or a shutdown that overruns one is a failed run
/// that names the step, never a benchmark that does not return.
const FIRST_OP_DEADLINE: Duration = Duration::from_secs(20);
const JOIN_DEADLINE: Duration = Duration::from_secs(20);
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(20);

/// Ops attempted and failed over the whole run, with the failures' causes.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(what);
    }
}

/// Host-side spans around `Machine` calls, in the units reported.
#[derive(Default)]
pub struct Timings {
    pub setup_s: Vec<f64>,
    pub launch_ms: Vec<f64>,
    pub spawn_us: Vec<f64>,
    pub shutdown_ms: Vec<f64>,
}

/// A point in time with the CPU time stolen from the machine up to it.
#[derive(Clone, Copy)]
struct Mark {
    t: Instant,
    stolen_s: f64,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            t: Instant::now(),
            stolen_s: stolen_cpu_s(),
        }
    }

    /// Wall seconds since `from`, and the part of them the machine was
    /// given: wall time less the stolen CPU time per CPU (at least a
    /// tenth of the wall time).
    fn since(&self, from: &Mark) -> (f64, f64) {
        let wall = (self.t - from.t).as_secs_f64();
        let stolen = (self.stolen_s - from.stolen_s) / cpu_count() as f64;
        (wall, (wall - stolen).max(0.1 * wall))
    }
}

/// A phase lasts its length in granted time, but at most this many times
/// that length in wall time.
const MAX_WALL_OVER_GRANTED: f64 = 2.0;

/// Seconds still to wait after `from` for `secs` of granted time, or
/// `None` once they (or [`MAX_WALL_OVER_GRANTED`] times as much wall
/// time) have passed.
fn granted_left(from: &Mark, now: &Mark, secs: f64) -> Option<f64> {
    let (wall, granted) = now.since(from);
    let left = (secs - granted).min(MAX_WALL_OVER_GRANTED * secs - wall);
    (left > 0.0).then_some(left)
}

/// Completed ops over an interval, with its wall and granted seconds.
#[derive(Clone, Copy)]
pub struct Rate {
    pub ops: u64,
    wall_s: f64,
    granted_s: f64,
}

impl Rate {
    fn new(ops: u64, from: &Mark, to: &Mark) -> Rate {
        let (wall_s, granted_s) = to.since(from);
        Rate {
            ops,
            wall_s,
            granted_s,
        }
    }

    /// Ops per second of the wall clock.
    pub fn wall(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Ops per second of CPU time the machine was actually given.
    pub fn granted(&self) -> f64 {
        self.ops as f64 / self.granted_s
    }

    /// Share of the interval's CPU time the hypervisor stole.
    pub fn steal_frac(&self) -> f64 {
        1.0 - self.granted_s / self.wall_s
    }
}

/// One measured phase, merged over its clients.
pub struct PhaseOut {
    pub rate: Rate,
    /// The rate over each [`SAMPLE_EVERY`] of the recording window.
    pub series: Vec<Rate>,
    pub lat: Hist,
    pub spans: Vec<Hist>,
    pub op_ns: u64,
    pub child_ns: u64,
    pub counters: Counters,
}

/// The phases of one round: a solo and a loaded phase on a fresh
/// machine, and with tracing on the same pair traced on another.
pub struct Round {
    pub solo: PhaseOut,
    pub loaded: PhaseOut,
    pub traced: Option<(PhaseOut, PhaseOut)>,
}

pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub tally: Tally,
    pub t: Timings,
}

impl Run {
    pub fn new(workload: Workload, seed: u64) -> Run {
        Run {
            workload,
            seed,
            tally: Tally::default(),
            t: Timings::default(),
        }
    }

    /// `SETUP_REPS` set-up probes (see [`Run::setup_probe`]).
    pub fn setup_probes(&mut self) -> Result<(), String> {
        (0..SETUP_REPS).try_for_each(|_| self.setup_probe())
    }

    /// One round: `secs` of recording, 30 % solo and 70 % loaded, split
    /// evenly between the untraced and (with `trace`) the traced pair.
    pub fn round(&mut self, secs: f64, trace: bool) -> Result<Round, String> {
        let secs = if trace { secs / 2.0 } else { secs };
        let (solo, loaded) = self.pair(0.3 * secs, 0.7 * secs, false)?;
        let traced = if trace {
            Some(self.pair(0.3 * secs, 0.7 * secs, true)?)
        } else {
            None
        };
        Ok(Round {
            solo,
            loaded,
            traced,
        })
    }

    /// A solo then a loaded phase on a fresh machine, audited and shut
    /// down after.
    fn pair(
        &mut self,
        solo_s: f64,
        loaded_s: f64,
        trace: bool,
    ) -> Result<(PhaseOut, PhaseOut), String> {
        let (m, tracing) = self.launch()?;
        tracing.store(trace, Ordering::SeqCst);
        let (solo, loaded) = if trace {
            ("traced solo", "traced loaded")
        } else {
            ("solo", "loaded")
        };
        let solo = self.measure(&m, &[0], solo_s, trace, solo)?;
        let loaded = self.measure(&m, &loaded_placement(), loaded_s, trace, loaded)?;
        self.finish(m, if trace { "traced round" } else { "round" })?;
        Ok((solo, loaded))
    }

    fn launch(&mut self) -> Result<(Machine, Arc<AtomicBool>), String> {
        let tracing = Arc::new(AtomicBool::new(false));
        let t = Instant::now();
        let m = Machine::builder(NODES)
            .net(NetProfile::instant())
            .workers(WORKERS)
            .launch()
            .map_err(|e| format!("Machine::launch: {e}"))?;
        self.t.launch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        m.register(load::Echo {
            tracing: Arc::clone(&tracing),
        });
        Ok((m, tracing))
    }

    /// Spawn one client per entry of `placement` (its node) and wait until
    /// each has completed its first op.
    fn start(
        &mut self,
        m: &Machine,
        phase: &Arc<Phase>,
        placement: &[usize],
        what: &str,
    ) -> Result<Vec<JoinHandle<()>>, String> {
        let mut handles = Vec::with_capacity(placement.len());
        for (i, &node) in placement.iter().enumerate() {
            let p = Arc::clone(phase);
            let t = Instant::now();
            let h = m
                .spawn_on_ret(node, move || load::client(p, i))
                .map_err(|e| format!("{what}: Machine::spawn_on({node}): {e}"))?;
            self.t.spawn_us.push(t.elapsed().as_secs_f64() * 1e6);
            handles.push(h);
        }
        phase.wait_first_ops(FIRST_OP_DEADLINE).map_err(|missing| {
            format!(
                "{what}: {missing} of {} clients completed no op within {FIRST_OP_DEADLINE:?}",
                placement.len()
            )
        })?;
        Ok(handles)
    }

    /// Stop the phase, wait for every client under the watchdog, and
    /// tally their ops and failures.
    fn stop(
        &mut self,
        phase: &Phase,
        handles: Vec<JoinHandle<()>>,
        what: &str,
    ) -> Result<Vec<ClientReport>, String> {
        phase.stop.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + JOIN_DEADLINE;
        let mut pending = handles;
        loop {
            pending.retain(|h| match h.try_join() {
                None => true,
                Some(Ok(())) => false,
                Some(Err(e)) => {
                    self.tally
                        .fail(format!("{what}: client thread {:#x}: {e}", h.tid()));
                    false
                }
            });
            if pending.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                for _ in &pending {
                    self.tally.fail(format!("{what}: client unfinished"));
                }
                return Err(format!(
                    "{what}: {} clients unfinished {JOIN_DEADLINE:?} after stop",
                    pending.len()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let reports = std::mem::take(
            &mut *phase
                .reports
                .lock()
                .expect("a client panicked while reporting"),
        );
        for r in &reports {
            self.tally.attempted += r.attempted;
            self.tally.failed += r.failed;
            if let Some(e) = &r.first_error {
                self.tally.errors.push(format!("{what}: {e}"));
            }
        }
        let live = phase.blocks_live.load(Ordering::SeqCst);
        if live != 0 {
            self.tally
                .fail(format!("{what}: {live} iso blocks still allocated"));
        }
        Ok(reports)
    }

    /// Audit the machine at quiescence, then shut it down under the
    /// watchdog.
    fn finish(&mut self, mut m: Machine, what: &str) -> Result<(), String> {
        match m.audit().map(|r| r.check_partition()) {
            Ok(Ok(s)) if s.threads == 0 => {}
            Ok(Ok(s)) => self.tally.fail(format!(
                "{what}: audit finds {} threads resident after every client exited",
                s.threads
            )),
            Ok(Err(v)) => self.tally.fail(format!("{what}: audit: {v}")),
            Err(e) => self.tally.fail(format!("{what}: audit: {e}")),
        }
        let (tx, rx) = mpsc::channel();
        let t = Instant::now();
        let h = std::thread::spawn(move || {
            m.shutdown();
            let _ = tx.send(());
        });
        // On a timeout the shutdown thread is left behind: the caller
        // reports the failure and exits the process, which ends it.
        rx.recv_timeout(SHUTDOWN_DEADLINE).map_err(|_| {
            format!("{what}: Machine::shutdown did not return within {SHUTDOWN_DEADLINE:?}")
        })?;
        h.join()
            .map_err(|_| format!("{what}: Machine::shutdown panicked"))?;
        self.t.shutdown_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }

    /// Launch, start the loaded clients and time until each completed its
    /// first op (for `heap_trade` that includes its initial working set);
    /// then let them exit and shut the machine down.
    fn setup_probe(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let (m, _) = self.launch()?;
        let placement = loaded_placement();
        let phase = Arc::new(Phase::new(self.workload, self.seed, placement.len(), false));
        phase.stop.store(true, Ordering::SeqCst);
        let handles = self.start(&m, &phase, &placement, "setup")?;
        self.t.setup_s.push(t.elapsed().as_secs_f64());
        self.stop(&phase, handles, "setup")?;
        self.finish(m, "setup")
    }

    /// One closed-loop phase: start the clients, warm up, record for
    /// `secs` of granted time, stop.
    fn measure(
        &mut self,
        m: &Machine,
        placement: &[usize],
        secs: f64,
        trace: bool,
        what: &str,
    ) -> Result<PhaseOut, String> {
        let phase = Arc::new(Phase::new(self.workload, self.seed, placement.len(), trace));
        let handles = self.start(m, &phase, placement, what)?;
        let w0 = Mark::now();
        while let Some(left) = granted_left(&w0, &Mark::now(), WARMUP) {
            std::thread::sleep(Duration::from_secs_f64(left));
        }
        let c0 = Counters::read(m);
        let o0 = phase.total_ops();
        phase.recording.store(true, Ordering::SeqCst);
        let m0 = Mark::now();
        let mut series = Vec::new();
        let (mut last_ops, mut last) = (o0, m0);
        loop {
            let now = Mark::now();
            let Some(left) = granted_left(&m0, &now, secs) else {
                break;
            };
            if now.t >= last.t + SAMPLE_EVERY {
                let o = phase.total_ops();
                series.push(Rate::new(o - last_ops, &last, &now));
                (last_ops, last) = (o, now);
            }
            std::thread::sleep(Duration::from_secs_f64(left).min(last.t + SAMPLE_EVERY - now.t));
        }
        phase.recording.store(false, Ordering::SeqCst);
        let rate = Rate::new(phase.total_ops() - o0, &m0, &Mark::now());
        let counters = Counters::read(m).since(&c0);
        let reports = self.stop(&phase, handles, what)?;
        let mut out = PhaseOut {
            rate,
            series,
            lat: Hist::default(),
            spans: vec![Hist::default(); N_SPANS],
            op_ns: 0,
            child_ns: 0,
            counters,
        };
        for r in &reports {
            out.lat.merge(&r.lat);
            for (a, b) in out.spans.iter_mut().zip(&r.spans) {
                a.merge(b);
            }
            out.op_ns += r.op_ns;
            out.child_ns += r.child_ns;
        }
        Ok(out)
    }
}

fn loaded_placement() -> Vec<usize> {
    (0..NODES * CLIENTS_PER_NODE).map(|i| i % NODES).collect()
}

/// CPU time stolen from this machine so far, summed over its CPUs: the
/// `steal` column of `/proc/stat`, in USER_HZ (100 per second) ticks.
/// Reads 0 where the kernel accounts no steal.
fn stolen_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// CPUs the `/proc/stat` totals cover.
fn cpu_count() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let per_cpu =
            |l: &&str| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit);
        std::fs::read_to_string("/proc/stat")
            .map_or(1, |s| s.lines().filter(per_cpu).count())
            .max(1)
    })
}
