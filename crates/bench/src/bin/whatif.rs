//! What-if validation: predicted vs measured speedups.
//!
//! The v5 `bottleneck` section carries an analytic what-if table — Amdahl
//! upper bounds on the speedup from doubling (or halving) one resource at a
//! time, derived purely from one run's stage shares and stall attribution.
//! This binary closes the loop: it runs a contended baseline histogram,
//! reads the engine's predictions, then *actually re-runs* the workload
//! with each resource scaled and compares.
//!
//! ```text
//! whatif              # full-size baseline (16K scatters into 512 words)
//! whatif --quick      # smaller input, same protocol
//! ```
//!
//! Two properties are checked, both warn-only (exit 0 always — the bounds
//! are a planning aid, not a perf gate):
//!
//! * soundness — a measured speedup should not exceed its predicted upper
//!   bound by more than a tolerance (the bound derives from *sampled*
//!   stage shares, so a few percent of slack is expected noise);
//! * usefulness — the mean |predicted − measured| gap is reported so the
//!   trajectory of the model's accuracy is visible over time.

use sa_bench::cli::Cli;
use sa_bench::telemetry::machine_config_json;
use sa_bench::{header, quick_mode, row};
use sa_core::{drive_scatter_probed, NodeMemSys, ScatterKernel};
use sa_sim::{MachineConfig, Rng64};
use sa_telemetry::{attach_bottleneck, stats_json_full, Introspect, Json, MetricsRegistry};

/// One scaled configuration: the what-if row it validates and how to build
/// the machine.
struct Variant {
    /// `change` key of the what-if row this measures.
    change: &'static str,
    scale: fn(&mut MachineConfig),
}

const VARIANTS: &[Variant] = &[
    Variant {
        change: "2x dram_channels",
        scale: |cfg| cfg.dram.channels *= 2,
    },
    Variant {
        change: "2x cache_banks",
        scale: |cfg| cfg.cache.banks *= 2,
    },
    Variant {
        change: "0.5x fu_latency",
        scale: |cfg| cfg.sa.fu_latency = (cfg.sa.fu_latency / 2).max(1),
    },
    Variant {
        change: "2x cs_entries",
        scale: |cfg| cfg.sa.cs_entries *= 2,
    },
];

/// Slack allowed before a measured speedup "beats" its upper bound: stage
/// shares come from sampled request traces, so the bound itself carries
/// sampling noise.
const SOUNDNESS_SLACK: f64 = 0.10;

/// Run the workload on `cfg` and return (drain cycles, v5 stats document).
fn run_once(cfg: &MachineConfig, indices: &[u64]) -> (u64, Json) {
    let kernel = ScatterKernel::histogram(0, indices.to_vec());
    let mut node = NodeMemSys::new(*cfg, 0, false);
    node.set_req_sample(16);
    let run = drive_scatter_probed(node, &kernel, false, &mut Introspect::off());
    let mut registry = MetricsRegistry::new();
    {
        let mut scope = registry.scope("canonical");
        run.node.record_metrics(&mut scope);
        scope.counter("cycles", run.cycles);
        scope.counter("drain_cycles", run.drain_cycles);
        scope.counter("skipped_cycles", run.skipped_cycles);
    }
    let mut latency = Json::obj();
    latency.push("canonical", run.node.req_tracer().latency_json());
    let mut attribution = Json::obj();
    attribution.push("canonical", run.stall_breakdown().to_json());
    let mut doc = stats_json_full(
        "whatif",
        machine_config_json(cfg),
        &registry,
        None,
        Some(latency),
        Some(attribution),
        None,
        Json::Arr(Vec::new()),
    );
    attach_bottleneck(&mut doc);
    (run.drain_cycles, doc)
}

/// The baseline's predicted upper bound for one what-if `change` key.
fn predicted_speedup(doc: &Json, change: &str) -> Option<f64> {
    doc.get("bottleneck")?
        .get("canonical")?
        .get("whatif")?
        .as_arr()?
        .iter()
        .find(|r| r.get("change").and_then(Json::as_str) == Some(change))?
        .get("predicted_speedup_max")
        .and_then(Json::as_f64)
}

fn main() {
    let _cli = Cli::from_env();
    let quick = quick_mode();
    let n = if quick { 4096 } else { 16_384 };
    let range = 512;
    let mut rng = Rng64::new(0x3AF_0001);
    let indices: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();

    header(
        "What-if validation",
        "analytic upper bounds from the bottleneck engine vs measured re-runs",
    );
    let base_cfg = MachineConfig::merrimac();
    let (base_cycles, base_doc) = run_once(&base_cfg, &indices);
    let bound = base_doc
        .get("bottleneck")
        .and_then(|b| b.get("canonical"))
        .and_then(|r| r.get("bound"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    println!("baseline: {base_cycles} cycles, bound {bound} ({n} scatters into {range} words)\n");

    let mut abs_gaps = Vec::new();
    let mut violations = 0usize;
    for v in VARIANTS {
        let Some(predicted) = predicted_speedup(&base_doc, v.change) else {
            eprintln!("warning: baseline has no what-if row for '{}'", v.change);
            continue;
        };
        let mut cfg = base_cfg;
        (v.scale)(&mut cfg);
        let (cycles, _) = run_once(&cfg, &indices);
        let measured = base_cycles as f64 / cycles as f64;
        let gap = predicted - measured;
        abs_gaps.push(gap.abs());
        let sound = measured <= predicted + SOUNDNESS_SLACK;
        if !sound {
            violations += 1;
        }
        row(
            v.change,
            &[
                ("predicted <=", format!("{predicted:.3}x")),
                ("measured", format!("{measured:.3}x")),
                ("gap", format!("{gap:+.3}")),
                ("sound", format!("{sound}")),
            ],
        );
    }
    let mean_gap = if abs_gaps.is_empty() {
        0.0
    } else {
        abs_gaps.iter().sum::<f64>() / abs_gaps.len() as f64
    };
    println!(
        "\nmean |predicted - measured| gap: {mean_gap:.3} (upper bounds, so slack is expected)"
    );
    if violations > 0 {
        eprintln!(
            "warning: {violations} measured speedup(s) beat the predicted bound by more than \
             {SOUNDNESS_SLACK} — the occupancy model may be misattributing that resource"
        );
    } else {
        println!(
            "all measured speedups within their predicted upper bounds (+{SOUNDNESS_SLACK} slack)"
        );
    }
}
