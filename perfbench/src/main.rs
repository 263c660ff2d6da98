//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (`md-stream`, `node-scatter`, `multinode-comb`,
//! `session-cache`) serially on one simulation thread, checks every output,
//! and prints its metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. A traced run also writes its spans as Chrome trace_event
//! JSON under `.perfbench/`. Build and run it through `perfbench/run.py`.

mod harness;
mod metrics;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{run, Outcome, RunOpts, Scale};
use metrics::Metric;
use workloads::{MdStream, MultinodeComb, NodeScatter, SessionCache};

/// Every workload, by its command-line name.
pub const WORKLOADS: [&str; 4] = [
    "md-stream",
    "node-scatter",
    "multinode-comb",
    "session-cache",
];

const USAGE: &str =
    "usage: perfbench --workload <md-stream|node-scatter|multinode-comb|session-cache> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("a workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pin the execution knobs to what users run by default, whatever the
/// environment says: fast-forward on, one node-stepping thread. Jobs run
/// serially on this thread; the result cache is the benchmark's own.
fn pin_exec_knobs() {
    sa_sim::set_fast_forward_default(true);
    sa_sim::set_node_threads_default(1);
}

/// Run `workload` by name.
pub fn run_workload(workload: &str, seed: u64, opts: RunOpts) -> Outcome {
    match workload {
        "md-stream" => run::<MdStream>(seed, opts),
        "node-scatter" => run::<NodeScatter>(seed, opts),
        "multinode-comb" => run::<MultinodeComb>(seed, opts),
        "session-cache" => run::<SessionCache>(seed, opts),
        other => unreachable!("unknown workload {other}"),
    }
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
pub fn report_metrics(o: &Outcome, trace: bool) -> Vec<Metric> {
    if trace {
        metrics::per_layer(o)
    } else {
        metrics::end_to_end(o, harness::peak_rss_mb())
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        body.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_exec_knobs();
    let opts = RunOpts {
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        corrupt: false,
    };
    let outcome = run_workload(&args.workload, args.seed, opts);
    let metrics = report_metrics(&outcome, args.trace);

    println!(
        "perfbench {} seed={} trace={} setups={} rounds={}+{} attempted={} failed={} host_cores={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.setups.len(),
        outcome.untraced.len(),
        outcome.traced.len(),
        outcome.attempted,
        outcome.failed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let walls = |rounds: &[harness::Round]| {
        rounds
            .iter()
            .map(|r| format!("{:.4}", r.time.wall_ns as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  round walls (s, unscaled): untraced [{}] traced [{}]",
        walls(&outcome.untraced),
        walls(&outcome.traced)
    );
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        println!(
            "  {:<28} {:>16.6} fraction",
            "error_rate",
            outcome.error_rate()
        );
    }
    println!("sim_digest {} {}", args.workload, outcome.digest());
    if args.trace {
        let path = std::path::Path::new(".perfbench")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(".perfbench").and_then(|()| {
            std::fs::write(
                &path,
                trace::chrome_trace_json(outcome.tracer.spans(), &args.workload),
            )
        });
        match written {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&outcome, &metrics));
    ExitCode::SUCCESS
}
