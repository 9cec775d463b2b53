//! The repository benchmark: closed-loop migration, heap-and-slot churn
//! and LRPC workloads on a 4-node threaded `pm2::Machine`, measured end
//! to end (untraced) or layer by layer (traced).  See `README.md` for the
//! workloads, the metric glossary and how to run it.

mod hist;
mod layers;
mod load;
mod metrics;
mod rng;
mod rounds;
mod run;

use std::time::{Duration, Instant};

use load::{Workload, NODES};
use metrics::{median, ratio};
use rounds::{RoundOut, ROUNDS};
use run::{Tally, CLIENTS_PER_NODE, WORKERS};

const USAGE: &str = "usage: perfbench --workload <hop_empty|heap_trade|rpc_echo> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The whole run must end within this, whatever its rounds do.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

pub struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a round's own process (see `rounds`).
    round: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut round) = (None, 1, 10.0, false, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => name = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--round" => round = Some(val.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
        round,
    })
}

/// The checkout's git revision, read from `.git` in the working directory
/// only (a checkout without one reports "unknown").
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_list<'a>(v: impl Iterator<Item = &'a f64>) -> String {
    let items: Vec<String> = v.map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// The rounds, each in its own process, until one cannot report.
fn run_rounds(args: &Args, tally: &mut Tally) -> Vec<RoundOut> {
    let start = Instant::now();
    let secs = args.seconds / ROUNDS as f64;
    let mut outs = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let left = RUN_DEADLINE.saturating_sub(start.elapsed());
        match rounds::spawn(args, i, secs, left) {
            Ok(out) => {
                tally.attempted += out.attempted;
                tally.failed += out.failed;
                outs.push(out);
            }
            Err(fatal) => {
                tally.fail(format!("aborted: {fatal}"));
                return Vec::new();
            }
        }
    }
    outs
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(round) = args.round {
        rounds::round_main(&args, round);
    }
    let mut tally = Tally::default();
    let outs = run_rounds(&args, &mut tally);
    let setup_s: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.setup_s.iter().copied())
        .collect();

    // Each round's metrics, by name, in the first round's order.
    let mut by_name: Vec<(String, String, Vec<f64>)> = Vec::new();
    for out in &outs {
        for (name, value, unit) in &out.metrics {
            match by_name.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, values)) => values.push(*value),
                None => by_name.push((name.clone(), unit.clone(), vec![*value])),
            }
        }
    }
    let fail_frac = ratio(tally.failed as f64, tally.attempted as f64);
    let mut metrics: Vec<(String, f64, String)> = by_name
        .iter()
        .map(|(name, unit, values)| (name.clone(), median(values), unit.clone()))
        .collect();
    if !outs.is_empty() {
        let own: &[(&str, f64, &str)] = if args.trace {
            &[("bench.fail_frac", fail_frac, "ratio")]
        } else {
            &[
                ("ok_frac", 1.0 - fail_frac, "ratio"),
                ("setup_s", median(&setup_s), "s"),
            ]
        };
        metrics.extend(
            own.iter()
                .map(|&(n, v, u)| (n.to_string(), v, u.to_string())),
        );
    }

    // The stamp that tells a disturbed run from a regression.
    let per_round: Vec<String> = by_name
        .iter()
        .map(|(name, _, values)| format!("\"{name}\": {}", json_list(values.iter())))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"workers\": {WORKERS}, \"nodes\": {NODES}, \
         \"loaded_clients\": {}, \"rounds\": {ROUNDS}, \"rev\": \"{}\", \
         \"loaded_wall_ops_per_s\": {}, \"loaded_steal_frac\": {}, \
         \"setup_s_samples\": {}, \"hist_rel_error\": {}, \"per_round\": {{{}}}}}}}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        NODES * CLIENTS_PER_NODE,
        git_rev(),
        json_list(outs.iter().flat_map(|o| &o.series_wall)),
        json_list(outs.iter().flat_map(|o| &o.series_steal)),
        json_list(setup_s.iter()),
        hist::REL_ERROR,
        per_round.join(", "),
    );
    for e in &tally.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            println!("{name:<34} {value:>14.3} {unit}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
