//! A run is [`ROUNDS`] rounds, each in a process of its own, and reports
//! the median of every metric over them.  A fresh process per round gives
//! every round the same starting state — allocator arenas, page tables,
//! resident set — so one disturbed round cannot move a metric and
//! `peak_rss_mb` is the footprint of one round, not of everything the
//! run launched before it.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::run::{Rate, Round, Run};
use crate::{metrics, Args};

pub const ROUNDS: usize = 12;

/// What one round process reported.
pub struct RoundOut {
    /// `(name, value, unit)` in the round's order.
    pub metrics: Vec<(String, f64, String)>,
    /// Wall-clock ops/s and stolen CPU share per sample of the loaded phase.
    pub series_wall: Vec<f64>,
    pub series_steal: Vec<f64>,
    /// Seconds each of the round's set-up probes took.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Body of a round process: run the round and the set-up probes, print
/// their metrics and tally on standard output, and exit 0 only if every
/// op and check passed.
pub fn round_main(args: &Args, round: u64) -> ! {
    let seed = crate::rng::Rng::fork(args.seed, round).next();
    let mut run = Run::new(args.workload, seed);
    // The set-up probes come after the round's metrics, so that its
    // `peak_rss_mb` is the measured machines' alone.
    let result = run.round(args.seconds, args.trace).and_then(|r| {
        let m = match &r.traced {
            Some(traced) => metrics::per_layer(&run.t, &r, traced),
            None => metrics::end_to_end(&r)?,
        };
        run.setup_probes()?;
        Ok((r, m))
    });
    match result {
        Ok((r, m)) => print_round(&run, &r, &m),
        Err(e) => run.tally.fail(format!("aborted: {e}")),
    }
    for e in &run.tally.errors {
        eprintln!("perfbench: round {round}: FAILED: {e}");
    }
    println!("tally {} {}", run.tally.attempted, run.tally.failed);
    std::process::exit(if run.tally.failed == 0 { 0 } else { 1 });
}

fn print_round(run: &Run, r: &Round, m: &[metrics::Metric]) {
    for (name, value, unit) in m {
        println!("metric {name} {unit} {value}");
    }
    let list = |f: fn(&Rate) -> f64| {
        r.loaded
            .series
            .iter()
            .map(|s| f(s).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("series_wall {}", list(Rate::wall));
    println!("series_steal {}", list(Rate::steal_frac));
    let setup: Vec<String> = run.t.setup_s.iter().map(f64::to_string).collect();
    println!("series_setup {}", setup.join(" "));
}

/// Run round `round` of `secs` recording time in a child process of this
/// executable; kill it if it has not exited within `deadline`.
pub fn spawn(args: &Args, round: usize, secs: f64, deadline: Duration) -> Result<RoundOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", &args.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &secs.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--round", &round.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("round {round}: starting its process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let end = Instant::now() + deadline;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < end => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "round {round}: no result within {deadline:?}, killed"
                ));
            }
            Err(e) => return Err(format!("round {round}: waiting for its process: {e}")),
        }
    };
    let text = reader
        .join()
        .expect("the stdout reader does not panic")
        .map_err(|e| format!("round {round}: reading its output: {e}"))?;
    let out =
        parse(&text).ok_or_else(|| format!("round {round}: exited with {status}, no tally"))?;
    if !status.success() && out.failed == 0 {
        return Err(format!("round {round}: exited with {status}"));
    }
    Ok(out)
}

fn parse(text: &str) -> Option<RoundOut> {
    let mut out = RoundOut {
        metrics: Vec::new(),
        series_wall: Vec::new(),
        series_steal: Vec::new(),
        setup_s: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut tally = false;
    let floats =
        |it: std::str::SplitWhitespace| it.map(str::parse).collect::<Result<Vec<f64>, _>>().ok();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        match it.next()? {
            "metric" => {
                let (name, unit) = (it.next()?, it.next()?);
                let value = it.next()?.parse().ok()?;
                out.metrics
                    .push((name.to_string(), value, unit.to_string()));
            }
            "series_wall" => out.series_wall = floats(it)?,
            "series_steal" => out.series_steal = floats(it)?,
            "series_setup" => out.setup_s = floats(it)?,
            "tally" => {
                out.attempted = it.next()?.parse().ok()?;
                out.failed = it.next()?.parse().ok()?;
                tally = true;
            }
            _ => return None,
        }
    }
    tally.then_some(out)
}
