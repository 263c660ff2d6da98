//! Integration tests for the telemetry export: determinism of the stats
//! JSON, the Chrome trace's track layout, and zero simulated-time cost.

use sa_bench::args::Args;
use sa_bench::telemetry::{machine_config_json, BenchRun};
use sa_core::{drive_scatter, drive_scatter_probed, NodeMemSys, ScatterKernel};
use sa_sim::{MachineConfig, Rng64};
use sa_telemetry::{validate_stats_json, ChromeTrace, Introspect, Json};

fn args(s: &str) -> Args {
    Args::parse(s.split_whitespace().map(str::to_owned))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sa-stats-test-{}-{name}", std::process::id()));
    p
}

/// Emit one stats document exactly as a figure binary would.
fn export(cfg: &MachineConfig, path: &std::path::Path) -> String {
    let flag = format!("--stats-json {}", path.display());
    let mut bench = BenchRun::from_args("determinism", cfg, &args(&flag));
    bench.scope("experiment").counter("events", 42);
    bench.row("r=1", &[("time", "1.00us".to_owned())]);
    bench.finish();
    let text = std::fs::read_to_string(path).expect("document written");
    std::fs::remove_file(path).ok();
    text
}

#[test]
fn same_config_and_seed_give_byte_identical_json() {
    let cfg = MachineConfig::merrimac();
    let a = export(&cfg, &tmp("a.json"));
    let b = export(&cfg, &tmp("b.json"));
    assert_eq!(a, b, "export must be byte-for-byte deterministic");
    let doc = Json::parse(&a).expect("valid JSON");
    validate_stats_json(&doc).expect("valid sa-stats document");
}

#[test]
fn different_config_changes_the_document() {
    let base = export(&MachineConfig::merrimac(), &tmp("c.json"));
    let mut cfg = MachineConfig::merrimac();
    cfg.sa.cs_entries = 2;
    let small = export(&cfg, &tmp("d.json"));
    assert_ne!(
        base, small,
        "the config block and canonical run must differ"
    );
}

#[test]
fn exported_document_covers_required_metric_families() {
    let text = export(&MachineConfig::merrimac(), &tmp("e.json"));
    let doc = Json::parse(&text).unwrap();
    for family in ["sa.", "cache.", "dram.", "queue."] {
        assert!(
            sa_telemetry::has_metric_matching(&doc, family),
            "missing {family} metrics"
        );
    }
    // The experiment's own metrics and rows survive the round trip.
    let events = doc
        .get("metrics")
        .and_then(|m| m.get("experiment.events"))
        .and_then(Json::as_u64);
    assert_eq!(events, Some(42));
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn exported_document_carries_v2_latency_and_attribution() {
    let text = export(&MachineConfig::merrimac(), &tmp("v2.json"));
    let doc = Json::parse(&text).unwrap();
    assert_eq!(
        doc.get("version").and_then(Json::as_u64),
        Some(sa_telemetry::STATS_SCHEMA_VERSION)
    );
    let lat = doc
        .get("latency")
        .and_then(|l| l.get("canonical"))
        .expect("canonical latency report");
    assert!(lat.get("retired").and_then(Json::as_u64).unwrap() > 0);
    let stages = lat.get("stages").and_then(Json::as_obj).unwrap();
    for stage in ["issued", "comb_store"] {
        let s = stages
            .iter()
            .find(|(n, _)| n == stage)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("stage {stage} missing"));
        for field in ["p50", "p90", "p99", "max"] {
            assert!(
                s.get(field).and_then(Json::as_u64).is_some(),
                "{stage}.{field}"
            );
        }
    }
    let attr = doc
        .get("attribution")
        .and_then(|a| a.get("canonical"))
        .expect("canonical attribution table");
    assert!(attr.get("cycles").and_then(Json::as_u64).unwrap() > 0);
    assert!(attr
        .get("bank_conflict")
        .and_then(|e| e.get("pct"))
        .is_some());
}

#[test]
fn request_spans_land_on_node_scoped_tracks() {
    let mut cfg = MachineConfig::merrimac();
    cfg.req_sample = 16;
    let mut rng = Rng64::new(7);
    let kernel = ScatterKernel::histogram(0, (0..2048).map(|_| rng.below(1024)).collect());
    let node = NodeMemSys::with_tracer(cfg, 0, false, ChromeTrace::new());
    let run = drive_scatter_probed(node, &kernel, false, &mut Introspect::off());
    let doc = Json::parse(&run.node.tracer().to_json_string()).expect("valid trace JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let req_tracks = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .filter(|t| t.starts_with("node0.req"))
        .count();
    assert!(req_tracks > 0, "sampled requests get per-request tracks");
    let spans = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .filter(|n| *n == "comb_store" || *n == "enqueued")
        .count();
    assert!(spans > 0, "stage spans are emitted");
}

#[test]
fn trace_has_one_track_per_bank_and_channel() {
    let cfg = MachineConfig::merrimac();
    let mut rng = Rng64::new(7);
    let kernel = ScatterKernel::histogram(0, (0..2048).map(|_| rng.below(1024)).collect());
    let node = NodeMemSys::with_tracer(cfg, 0, false, ChromeTrace::new());
    let run = drive_scatter_probed(node, &kernel, false, &mut Introspect::off());
    let doc = Json::parse(&run.node.tracer().to_json_string()).expect("valid trace JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let tracks: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    let banks = tracks.iter().filter(|t| t.contains(".cache.bank")).count();
    let chans = tracks.iter().filter(|t| t.contains(".dram.chan")).count();
    assert_eq!(banks, cfg.cache.banks);
    assert_eq!(chans, cfg.dram.channels);
}

#[test]
fn tracing_never_changes_simulated_time() {
    let cfg = MachineConfig::merrimac();
    let mut rng = Rng64::new(11);
    let kernel = ScatterKernel::histogram(0, (0..4096).map(|_| rng.below(512)).collect());
    let plain = drive_scatter(&cfg, &kernel, false);
    let traced = {
        let mut node = NodeMemSys::with_tracer(cfg, 0, false, ChromeTrace::new());
        node.set_sample_interval(1); // densest possible sampling
        node.set_req_sample(1); // trace every request's lifecycle
        drive_scatter_probed(node, &kernel, false, &mut Introspect::off())
    };
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.drain_cycles, traced.drain_cycles);
    assert_eq!(plain.stats, traced.stats);
}

#[test]
fn disabled_probes_are_byte_free() {
    // The zero-cost contract of the probe layer (docs/OBSERVABILITY.md):
    // running through the probed entry point with introspection fully off
    // must reproduce the plain driver's observable state exactly — same
    // cycles, same stats, same fetched values — and leave no probe lines.
    let cfg = MachineConfig::merrimac();
    let mut rng = Rng64::new(23);
    let kernel = ScatterKernel::histogram(0, (0..4096).map(|_| rng.below(2048)).collect());
    let plain = drive_scatter(&cfg, &kernel, false);
    let mut probe = Introspect::off();
    let probed = drive_scatter_probed(NodeMemSys::new(cfg, 0, false), &kernel, false, &mut probe);
    assert_eq!(plain.cycles, probed.cycles);
    assert_eq!(plain.drain_cycles, probed.drain_cycles);
    assert_eq!(plain.stats, probed.stats);
    assert_eq!(plain.fetched, probed.fetched);
    assert!(probe.recorder.lines().is_empty(), "no snapshots when off");
    assert!(!probe.profiler.is_on(), "profiler stays off");

    // And the whole export path: a BenchRun without probe flags writes the
    // same bytes as one with probes explicitly disabled (interval 0).
    let a = export(&cfg, &tmp("probe-off-a.json"));
    let b = {
        let path = tmp("probe-off-b.json");
        let flag = format!("--stats-json {} --probe-interval 0", path.display());
        let mut bench = BenchRun::from_args("determinism", &cfg, &args(&flag));
        bench.scope("experiment").counter("events", 42);
        bench.row("r=1", &[("time", "1.00us".to_owned())]);
        bench.finish();
        let text = std::fs::read_to_string(&path).expect("document written");
        std::fs::remove_file(&path).ok();
        text
    };
    assert_eq!(a, b, "probes off must not change a single stats byte");
}

#[test]
fn host_profile_sidecar_is_opt_in_and_validates() {
    let cfg = MachineConfig::merrimac();
    let without = export(&cfg, &tmp("hp-off.json"));
    let doc = Json::parse(&without).unwrap();
    assert!(
        doc.get("host_profile").is_none(),
        "host_profile must be absent unless --host-profile is given"
    );

    let path = tmp("hp-on.json");
    let flag = format!("--stats-json {} --host-profile", path.display());
    let mut bench = BenchRun::from_args("determinism", &cfg, &args(&flag));
    bench.scope("experiment").counter("events", 42);
    bench.finish();
    let text = std::fs::read_to_string(&path).expect("document written");
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(&text).unwrap();
    validate_stats_json(&doc).expect("document with host_profile validates");
    let hp = doc.get("host_profile").expect("host_profile present");
    assert!(hp.get("total_ns").and_then(Json::as_u64).is_some());
    let phases = hp.get("phases").and_then(Json::as_obj).expect("phases");
    // The canonical run goes through the probed driver, so the loop phases
    // are attributed.
    for phase in ["tick", "inject", "drain"] {
        assert!(
            phases.iter().any(|(n, _)| n == phase),
            "phase {phase} attributed"
        );
    }
}

#[test]
fn config_json_is_stable_across_identical_configs() {
    let a = machine_config_json(&MachineConfig::merrimac()).to_string_compact();
    let b = machine_config_json(&MachineConfig::merrimac()).to_string_compact();
    assert_eq!(a, b);
}
