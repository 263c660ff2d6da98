//! Turning one run's [`Outcome`] into named metrics with units.
//!
//! Host time is always the simulator's wall time (end-to-end host times
//! scaled to the reference host speed, per-layer span times as measured);
//! simulated time is always the modelled machine's cycles. Every workload
//! reports every metric, so a layer a workload bypasses reads 0 there (the
//! prediction for that layer on that workload).

use std::collections::BTreeMap;

use crate::harness::{median, quantile, tail_quantile, Outcome, Round, Timed};
use crate::trace::self_times_ns;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics, from the untraced rounds. Host times are
/// medians, scaled to the reference host speed (see
/// [`crate::harness::calibrate`]).
pub fn end_to_end(o: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let walls: Vec<f64> = o.untraced.iter().map(|r| r.time.seconds()).collect();
    let rates: Vec<f64> = o
        .untraced
        .iter()
        .map(|r| r.sim_cycles as f64 / r.time.seconds() / 1e6)
        .collect();
    let setups: Vec<f64> = o.setups.iter().map(Timed::seconds).collect();
    vec![
        metric("wall_s", "s", median(&walls)),
        metric("sim_mcycles_per_s", "Mcycles/s", median(&rates)),
        metric("setup_s", "s", median(&setups)),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// Host durations in milliseconds of the traced spans, by span name.
fn span_ms(o: &Outcome) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in o.tracer.spans() {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e6);
    }
    by_name
}

/// Self time per layer, in milliseconds per traced round, over the spans
/// inside timed rounds (set-up excluded).
fn self_ms_per_round(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let spans = o.tracer.spans();
    let self_ns = self_times_ns(spans);
    let mut in_round = vec![false; spans.len()];
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so one forward pass settles membership.
        in_round[i] = s.name == "round" || s.parent.is_some_and(|p| in_round[p]);
        if in_round[i] {
            *by_layer.entry(s.layer).or_insert(0.0) += self_ns[i] as f64 / 1e6;
        }
    }
    let rounds = o.traced.len().max(1) as f64;
    by_layer.values_mut().for_each(|v| *v /= rounds);
    by_layer
}

/// Layers, as span `layer` tags, and the metric suffix each is reported
/// under in `self_ms.*`.
const LAYERS: [(&str, &str); 7] = [
    ("sa-proc", "proc"),
    ("sa-core", "core"),
    ("sa-multinode", "multinode"),
    ("sa-memo", "memo"),
    ("scatter-add-repro", "session"),
    ("sa-telemetry", "telemetry"),
    ("perfbench", "harness"),
];

/// The per-layer metrics, from the traced rounds, and the tracing overhead
/// against the untraced rounds of the same run.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let spans = span_ms(o);
    let c = |key: &str| o.counters.get(key).copied().unwrap_or(0) as f64;
    let ms = |name: &str| spans.get(name).map_or(0.0, |v| median(v));
    let pct = |name: &str, q: f64| spans.get(name).map_or(0.0, |v| quantile(v, q));
    let tail = |name: &str| pct(name, tail_quantile(spans.get(name).map_or(0, Vec::len)));
    let samples = |name: &str| spans.get(name).map_or(0, Vec::len) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m = Vec::new();

    m.push(metric("apps.gen_ms", "ms", ms("apps.gen")));

    for v in ["no_sa", "sw", "hw"] {
        let run_ms = ms(&format!("proc.run.{v}"));
        let cycles = c(&format!("proc.sim_cycles.{v}"));
        m.push(metric(format!("proc.run_ms.{v}"), "ms", run_ms));
        m.push(metric(
            format!("proc.ops.{v}"),
            "count",
            c(&format!("proc.ops.{v}")),
        ));
        m.push(metric(format!("proc.sim_cycles.{v}"), "cycles", cycles));
        m.push(metric(
            format!("proc.skipped_cycles.{v}"),
            "cycles",
            c(&format!("proc.skipped_cycles.{v}")),
        ));
        m.push(metric(
            format!("proc.ns_per_cycle.{v}"),
            "ns/cycle",
            ratio(run_ms * 1e6, cycles),
        ));
    }
    let ticked_sw = c("proc.sim_cycles.sw") - c("proc.skipped_cycles.sw");
    m.push(metric(
        "proc.ns_per_op_cycle.sw",
        "ns",
        ratio(ms("proc.run.sw") * 1e6, c("proc.ops.sw") * ticked_sw),
    ));

    for shape in ["narrow", "wide", "zipf"] {
        let drive_ms = ms(&format!("core.drive.{shape}"));
        let cycles = c(&format!("core.sim_cycles.{shape}"));
        m.push(metric(format!("core.drive_ms.{shape}"), "ms", drive_ms));
        m.push(metric(
            format!("core.ns_per_cycle.{shape}"),
            "ns/cycle",
            ratio(drive_ms * 1e6, cycles),
        ));
        m.push(metric(format!("core.sim_cycles.{shape}"), "cycles", cycles));
    }
    m.push(metric("core.rig_ms", "ms", ms("core.rig")));
    m.push(metric(
        "core.rig.sim_cycles",
        "cycles",
        c("core.rig.sim_cycles"),
    ));
    m.push(metric(
        "core.rig.skip_ratio",
        "fraction",
        ratio(c("core.rig.skipped_cycles"), c("core.rig.sim_cycles")),
    ));
    for key in ["sa.combined", "sa.stalled_full", "sa.occ_saturated"] {
        m.push(metric(key, "count", c(key)));
    }

    m.push(metric(
        "cache.read_hit_rate",
        "fraction",
        ratio(
            c("cache.read_hits"),
            c("cache.read_hits") + c("cache.read_misses"),
        ),
    ));
    for key in [
        "cache.read_misses",
        "cache.write_backs",
        "cache.sum_backs",
        "cache.zero_allocs",
        "dram.row_hits",
        "dram.row_misses",
        "dram.words_transferred",
    ] {
        m.push(metric(key, "count", c(key)));
    }

    let mut mn_ms = 0.0;
    for trace in ["narrow", "wide"] {
        for mode in ["plain", "comb"] {
            for nodes in ["n4", "n8"] {
                let run_ms = ms(&format!("mn.run.{trace}.{mode}.{nodes}"));
                mn_ms += run_ms;
                m.push(metric(
                    format!("mn.run_ms.{trace}.{mode}.{nodes}"),
                    "ms",
                    run_ms,
                ));
            }
        }
    }
    m.push(metric(
        "mn.ns_per_node_cycle",
        "ns/cycle",
        ratio(mn_ms * 1e6, c("mn.node_cycles")),
    ));
    for key in [
        "mn.sum_back_lines",
        "mn.flush_rounds",
        "mn.skipped_cycles",
        "net.delivered",
        "net.eject_stalls",
    ] {
        m.push(metric(key, "count", c(key)));
    }

    m.push(metric("memo.lookup_ms.p50", "ms", pct("memo.lookup", 0.5)));
    m.push(metric("memo.lookup_ms.p90", "ms", tail("memo.lookup")));
    m.push(metric(
        "memo.lookup.samples",
        "count",
        samples("memo.lookup"),
    ));
    m.push(metric("memo.store_ms.p50", "ms", pct("memo.store", 0.5)));
    m.push(metric("memo.store_ms.p90", "ms", tail("memo.store")));
    m.push(metric("memo.store.samples", "count", samples("memo.store")));
    for key in ["memo.hits", "memo.misses", "memo.stores"] {
        m.push(metric(key, "count", c(key)));
    }
    m.push(metric(
        "memo.hit_ratio",
        "fraction",
        ratio(c("memo.hits"), c("memo.hits") + c("memo.misses")),
    ));
    m.push(metric(
        "memo.entry_bytes",
        "bytes",
        ratio(c("memo.entry_bytes_total"), c("memo.entries")),
    ));

    m.push(metric(
        "session.fingerprint_ms.p50",
        "ms",
        ms("session.fingerprint"),
    ));
    m.push(metric("spec.roundtrip_ms.p50", "ms", ms("spec.roundtrip")));
    m.push(metric("session.decode_ms.p50", "ms", ms("session.decode")));
    m.push(metric("session.hit_ms.p50", "ms", pct("session.hit", 0.5)));
    m.push(metric("session.hit_ms.p90", "ms", tail("session.hit")));
    m.push(metric(
        "session.hit.samples",
        "count",
        samples("session.hit"),
    ));
    m.push(metric(
        "session.miss_ms.p50",
        "ms",
        pct("session.miss", 0.5),
    ));
    m.push(metric("session.miss_ms.p90", "ms", tail("session.miss")));
    m.push(metric(
        "session.miss.samples",
        "count",
        samples("session.miss"),
    ));
    m.push(metric(
        "telemetry.report_json_ms",
        "ms",
        ms("telemetry.report_json"),
    ));
    m.push(metric(
        "telemetry.stats_record_ms",
        "ms",
        ms("telemetry.stats_record"),
    ));

    let self_ms = self_ms_per_round(o);
    for (layer, suffix) in LAYERS {
        m.push(metric(
            format!("self_ms.{suffix}"),
            "ms",
            self_ms.get(layer).copied().unwrap_or(0.0),
        ));
    }

    let wall =
        |rounds: &[Round]| median(&rounds.iter().map(|r| r.time.seconds()).collect::<Vec<_>>());
    m.push(metric(
        "host.raw_wall_s",
        "s",
        median(
            &o.untraced
                .iter()
                .map(|r| r.time.wall_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        ),
    ));
    m.push(metric(
        "host.calib_ms",
        "ms",
        median(
            &o.untraced
                .iter()
                .map(|r| r.time.calib_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    ));
    m.push(metric(
        "trace_overhead_pct",
        "%",
        (ratio(wall(&o.traced), wall(&o.untraced)) - 1.0) * 100.0,
    ));
    m.push(metric("error_rate", "fraction", o.error_rate()));
    m
}
