//! §3.3: "while the ordering of computation does not reflect program order,
//! it is consistent in the hardware and repeatable for each run of the
//! program." Every simulation in this workspace must be bit-for-bit
//! deterministic: same inputs → same cycle counts, same statistics, same
//! memory image.

use proptest::prelude::*;
use sa_apps::histogram::{run_hw, run_sort_scan_default, HistogramInput};
use sa_apps::md::WaterSystem;
use sa_apps::mesh::Mesh;
use sa_apps::spmv::{run_ebe_hw, Csr, Ebe};
use sa_core::{drive_scatter, drive_scatter_probed, NodeMemSys, ScatterKernel, SensitivityRig};
use sa_multinode::{MultiNode, Topology, TraceReport};
use sa_sim::{MachineConfig, NetworkConfig, Rng64, SensitivityConfig};
use sa_telemetry::{validate_probe_json, HostProfiler, Introspect, Json, ProbeRecorder};

fn machine() -> MachineConfig {
    MachineConfig::merrimac()
}

#[test]
fn driver_runs_repeat_exactly() {
    let mut rng = Rng64::new(1);
    let kernel = ScatterKernel::histogram(0, (0..800).map(|_| rng.below(128)).collect());
    let a = drive_scatter(&machine(), &kernel, false);
    let b = drive_scatter(&machine(), &kernel, false);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.drain_cycles, b.drain_cycles);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.result_i64(128), b.result_i64(128));
}

#[test]
fn rig_runs_repeat_exactly() {
    let mut rng = Rng64::new(2);
    let indices: Vec<u64> = (0..512).map(|_| rng.below(1 << 14)).collect();
    let rig = SensitivityRig::new(SensitivityConfig::default());
    let a = rig.run_histogram(&indices, 1 << 14);
    let b = rig.run_histogram(&indices, 1 << 14);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.sa, b.sa);
    assert_eq!(a.bins, b.bins);
}

#[test]
fn app_runs_repeat_exactly() {
    let cfg = machine();
    let input = HistogramInput::uniform(1200, 512, 3);
    assert_eq!(
        run_hw(&cfg, &input).report.cycles,
        run_hw(&cfg, &input).report.cycles
    );
    assert_eq!(
        run_sort_scan_default(&cfg, &input).report.cycles,
        run_sort_scan_default(&cfg, &input).report.cycles
    );
}

#[test]
fn spmv_and_md_repeat_exactly() {
    let cfg = machine();
    let mesh = Mesh::generate(60, 10, 300, 4);
    let x = mesh.test_vector(5);
    let _ = Csr::from_mesh(&mesh); // assembly itself is deterministic
    assert_eq!(
        run_ebe_hw(&cfg, &mesh, &x).report.cycles,
        run_ebe_hw(&cfg, &mesh, &x).report.cycles
    );
    let sys = WaterSystem::generate(40, 6);
    assert_eq!(
        sa_apps::md::run_hw(&cfg, &sys).report.cycles,
        sa_apps::md::run_hw(&cfg, &sys).report.cycles
    );
}

#[test]
fn multinode_repeats_exactly() {
    let mut rng = Rng64::new(7);
    let trace: Vec<u64> = (0..2000).map(|_| rng.below(256)).collect();
    let values = vec![1.0; trace.len()];
    for combining in [false, true] {
        let a = MultiNode::new(machine(), 4, NetworkConfig::low(), combining)
            .run_trace(&trace, &values);
        let b = MultiNode::new(machine(), 4, NetworkConfig::low(), combining)
            .run_trace(&trace, &values);
        assert_eq!(a.cycles, b.cycles, "combining={combining}");
        assert_eq!(a.sum_back_lines, b.sum_back_lines);
    }
}

/// Render a trace report exactly the way `--stats-json` does: every counter
/// through the metrics registry, plus the request-latency document.
fn stats_json(r: &TraceReport) -> String {
    let mut reg = sa_telemetry::MetricsRegistry::new();
    r.record_metrics(&mut reg.scope("multinode"));
    format!(
        "{}\n{}",
        reg.to_json().to_string_pretty(),
        r.req_trace.latency_json().to_string_pretty()
    )
}

#[test]
fn multinode_fast_forward_stats_json_is_byte_identical() {
    // The multinode coordinator's skip must render the same sa-stats bytes
    // (request-latency document included) as stepping every cycle, modulo
    // the skipped-cycle counter itself.
    let mut rng = Rng64::new(9);
    let trace: Vec<u64> = (0..4000).map(|_| rng.below(192)).collect();
    let values: Vec<f64> = (0..trace.len()).map(|_| rng.range_f64(-2.0, 2.0)).collect();
    let mut cfg = machine();
    cfg.req_sample = 16; // exercise the tracer merge path too
    for (combining, topology) in [(false, Topology::Flat), (true, Topology::Hypercube)] {
        let run = |ff: bool| {
            let mut mn =
                MultiNode::with_topology(cfg, 4, NetworkConfig::low(), combining, topology);
            mn.set_fast_forward(ff);
            stats_json(&mn.run_trace(&trace, &values))
        };
        assert_eq!(
            strip_skipped(&run(true)),
            strip_skipped(&run(false)),
            "combining={combining}: stats bytes diverged"
        );
    }
}

#[test]
fn rig_sweep_is_thread_count_invariant() {
    // Figures 11 and 12 sweep rig configurations on worker threads; a rig
    // run must not depend on which thread runs it or what runs beside it.
    let mut rng = Rng64::new(10);
    let indices: Vec<u64> = (0..512).map(|_| rng.below(4096)).collect();
    let configs: Vec<SensitivityConfig> = [2usize, 8, 64]
        .iter()
        .map(|&cs| SensitivityConfig {
            cs_entries: cs,
            ..SensitivityConfig::default()
        })
        .collect();
    let sweep = |threads: usize| {
        let mut out = vec![None; configs.len()];
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (configs, indices) = (&configs, &indices);
                    s.spawn(move || {
                        (t..configs.len())
                            .step_by(threads)
                            .map(|i| {
                                (
                                    i,
                                    SensitivityRig::new(configs[i]).run_histogram(indices, 4096),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for w in workers {
                for (i, r) in w.join().unwrap() {
                    out[i] = Some(r);
                }
            }
        });
        out
    };
    let serial = sweep(1);
    for threads in [2usize, 8] {
        assert_eq!(serial, sweep(threads), "threads={threads}");
    }
}

#[derive(Clone, Copy, Debug)]
enum FfWorkload {
    Histogram,
    Spmv,
    Md,
}

fn ff_trace(workload: FfWorkload, seed: u64) -> Vec<u64> {
    match workload {
        FfWorkload::Histogram => {
            let mut rng = Rng64::new(seed);
            (0..1024).map(|_| rng.below(256)).collect()
        }
        FfWorkload::Spmv => Ebe::new(&Mesh::generate(40, 8, 160, seed)).scatter_trace(),
        FfWorkload::Md => WaterSystem::generate(24, seed).scatter_trace(),
    }
}

/// Render a single-node run the way `--stats-json` does (counters through
/// the registry plus the request-latency document), so byte comparison
/// covers exactly what ships in the stats file.
fn run_stats_json(run: &sa_core::RunResult) -> String {
    let mut reg = sa_telemetry::MetricsRegistry::new();
    {
        let mut scope = reg.scope("run");
        run.node.record_metrics(&mut scope);
        scope.counter("cycles", run.cycles);
        scope.counter("drain_cycles", run.drain_cycles);
        scope.counter("skipped_cycles", run.skipped_cycles);
    }
    format!(
        "{}\n{}",
        reg.to_json().to_string_pretty(),
        run.node.req_tracer().latency_json().to_string_pretty()
    )
}

/// Drop the `skipped_cycles` counter — the one line that legitimately
/// differs between fast-forward modes (CI strips it the same way).
fn strip_skipped(doc: &str) -> String {
    doc.lines()
        .filter(|l| !l.contains("skipped_cycles"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Schema-check every `sa-probe` line and drop its top-level
/// `skipped_cycles` field — the probe-line analogue of [`strip_skipped`].
fn strip_probe_skipped(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| {
            let mut doc = Json::parse(l).expect("probe line parses");
            validate_probe_json(&doc).expect("valid sa-probe snapshot");
            if let Json::Obj(pairs) = &mut doc {
                pairs.retain(|(k, _)| k != "skipped_cycles");
            }
            doc.to_string_compact()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The event-horizon scheduler contract: for random histogram, SpMV and
    /// MD workloads over varying combining-store sizes and both scatter-add
    /// modes, the rendered sa-stats bytes with fast-forward ON equal the
    /// bytes with it OFF (modulo the skipped-cycle counter itself), as do
    /// the fetched values and the final memory image, and the OFF run never
    /// skips.
    #[test]
    fn fast_forward_stats_json_is_byte_identical(
        workload in prop::sample::select(vec![
            FfWorkload::Histogram,
            FfWorkload::Spmv,
            FfWorkload::Md,
        ]),
        fetch in any::<bool>(),
        cs_entries in prop::sample::select(vec![4usize, 8, 16]),
        seed in 1u64..32,
    ) {
        let mut cfg = machine();
        cfg.sa.cs_entries = cs_entries;
        cfg.req_sample = 32;
        let kernel = ScatterKernel::histogram(0, ff_trace(workload, seed));
        let run_mode = |ff: bool| {
            let mut node = NodeMemSys::new(cfg, 0, false);
            node.set_fast_forward(ff);
            let run = drive_scatter_probed(node, &kernel, fetch, &mut Introspect::off());
            let image = run.result_i64(256);
            (run_stats_json(&run), run.skipped_cycles, run.fetched, image)
        };
        let (on, _skipped_on, fetched_on, image_on) = run_mode(true);
        let (off, skipped_off, fetched_off, image_off) = run_mode(false);
        prop_assert_eq!(skipped_off, 0, "ff off must not skip");
        prop_assert_eq!(strip_skipped(&on), strip_skipped(&off));
        prop_assert_eq!(fetched_on, fetched_off);
        prop_assert_eq!(image_on, image_off);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The probe-cadence determinism contract (docs/OBSERVABILITY.md): at a
    /// fixed snapshot interval, a single-node run renders byte-identical
    /// `sa-probe` lines with fast-forward on and off — the recorder clamps
    /// the event horizon so every due cycle is actually ticked — modulo
    /// each line's own `skipped_cycles` field. The host profiler is enabled
    /// on one side only: its wall-clock tallies must never reach any
    /// determinism-compared byte (stats or probe lines).
    #[test]
    fn probe_snapshots_are_fast_forward_invariant(
        workload in prop::sample::select(vec![
            FfWorkload::Histogram,
            FfWorkload::Spmv,
            FfWorkload::Md,
        ]),
        interval in prop::sample::select(vec![32u64, 128]),
        seed in 1u64..24,
    ) {
        let mut cfg = machine();
        cfg.req_sample = 32;
        let kernel = ScatterKernel::histogram(0, ff_trace(workload, seed));
        let run_mode = |ff: bool, profile: bool| {
            let mut node = NodeMemSys::new(cfg, 0, false);
            node.set_fast_forward(ff);
            let mut probe = Introspect::off();
            probe.recorder = ProbeRecorder::every(interval);
            probe.profiler = HostProfiler::enabled(profile);
            let run = drive_scatter_probed(node, &kernel, false, &mut probe);
            (run_stats_json(&run), probe.recorder.take_lines())
        };
        let (stats_on, lines_on) = run_mode(true, false);
        let (stats_off, lines_off) = run_mode(false, true);
        prop_assert!(!lines_on.is_empty(), "cadence must fire at least once");
        prop_assert_eq!(strip_skipped(&stats_on), strip_skipped(&stats_off));
        prop_assert_eq!(
            strip_probe_skipped(&lines_on),
            strip_probe_skipped(&lines_off)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The multinode flavour of the probe-cadence contract: the `sa-probe`
    /// lines of a trace replay are byte-identical (modulo `skipped_cycles`)
    /// across fast-forward modes — the coordinator snapshots after every
    /// node has stepped and before the sync phase, and clamps its skip to
    /// due cycles.
    #[test]
    fn multinode_probe_snapshots_are_schedule_invariant(
        trace_seed in 1u64..16,
        combining in any::<bool>(),
        // The 2000-reference replay runs ~450 cycles, so both cadences fire.
        interval in prop::sample::select(vec![64u64, 192]),
    ) {
        let mut rng = Rng64::new(trace_seed);
        let trace: Vec<u64> = (0..2000).map(|_| rng.below(256)).collect();
        let values = vec![1.0; trace.len()];
        let run = |ff: bool| {
            let mut mn = MultiNode::new(machine(), 4, NetworkConfig::low(), combining);
            mn.set_fast_forward(ff);
            let mut probe = Introspect::off();
            probe.recorder = ProbeRecorder::every(interval).with_label("mn");
            let r = mn.run_trace_probed(&trace, &values, &mut probe);
            (stats_json(&r), probe.recorder.take_lines())
        };
        let (base_stats, base_lines) = run(false);
        prop_assert!(!base_lines.is_empty(), "cadence must fire at least once");
        let (stats, lines) = run(true);
        prop_assert_eq!(
            strip_skipped(&stats),
            strip_skipped(&base_stats),
            "stats bytes diverged"
        );
        prop_assert_eq!(
            strip_probe_skipped(&lines),
            strip_probe_skipped(&base_lines),
            "probe lines diverged"
        );
    }
}

/// Render the v5 `bottleneck` section for a multinode run, validated.
fn bottleneck_section(r: &TraceReport) -> String {
    let mut reg = sa_telemetry::MetricsRegistry::new();
    r.record_metrics(&mut reg.scope("multinode"));
    let mut doc = Json::obj();
    doc.push("metrics", reg.to_json());
    let section = sa_telemetry::bottleneck_json(&doc).expect("occupancy counters present");
    sa_telemetry::validate_bottleneck_json(&section).expect("valid bottleneck section");
    section.to_string_pretty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The bottleneck attribution contract: the section is derived purely
    /// from deterministic counters — including the occupancy accounting the
    /// skip path folds in bulk — so its bytes are identical across
    /// fast-forward modes, with no stripping at all (`skipped_cycles` never
    /// feeds the report).
    #[test]
    fn bottleneck_section_is_schedule_invariant(
        trace_seed in 1u64..12,
        combining in any::<bool>(),
    ) {
        let mut rng = Rng64::new(trace_seed);
        let trace: Vec<u64> = (0..2200).map(|_| rng.below(192)).collect();
        let values = vec![1.0; trace.len()];
        let run = |ff: bool| {
            let mut mn = MultiNode::new(machine(), 4, NetworkConfig::low(), combining);
            mn.set_fast_forward(ff);
            bottleneck_section(&mn.run_trace(&trace, &values))
        };
        prop_assert_eq!(run(true), run(false), "bottleneck bytes diverged");
    }
}

/// Occupancy counters for each component family of a run scope:
/// `(busy, blocked, idle)` summed over the scope's merged counters.
fn occ_triple(json: &str, family: &str) -> (u64, u64, u64) {
    let field = |suffix: &str| {
        json.lines()
            .find(|l| l.contains(&format!("\"run.{family}.occ_{suffix}\"")))
            .and_then(|l| {
                l.split(':')
                    .nth(1)?
                    .trim()
                    .trim_end_matches(',')
                    .parse::<u64>()
                    .ok()
            })
            .unwrap_or_else(|| panic!("missing run.{family}.occ_{suffix} in stats"))
    };
    (field("busy"), field("blocked"), field("idle"))
}

#[test]
fn occupancy_accounting_covers_every_cycle_under_fast_forward() {
    // The per-component accounting invariant behind the bottleneck engine:
    // busy + blocked + idle must equal the cycles the component actually
    // existed for — identical across fast-forward modes (the skip path
    // folds whole windows with the same classification the tick path would
    // have produced cycle by cycle), and identical across components of
    // one node (they all live the same span).
    let mut rng = Rng64::new(23);
    let cfg = machine();
    // Wide range: misses stall on DRAM, so provably-idle windows exist for
    // the scheduler to skip while every family still turns busy.
    let kernel = ScatterKernel::histogram(0, (0..1500).map(|_| rng.below(1 << 18)).collect());
    let elapsed_for = |ff: bool| {
        let mut node = NodeMemSys::new(cfg, 0, false);
        node.set_fast_forward(ff);
        let run = drive_scatter_probed(node, &kernel, false, &mut Introspect::off());
        let json = run_stats_json(&run);
        let mut elapsed = Vec::new();
        for family in ["sa", "cache", "dram"] {
            let (busy, blocked, idle) = occ_triple(&json, family);
            assert!(busy > 0, "{family}: never busy in a miss-heavy run");
            elapsed.push(busy + blocked + idle);
        }
        (elapsed, run.skipped_cycles)
    };
    let (on, skipped_on) = elapsed_for(true);
    let (off, skipped_off) = elapsed_for(false);
    assert!(skipped_on > 0, "miss-heavy run must find skippable windows");
    assert_eq!(skipped_off, 0);
    assert_eq!(on, off, "elapsed accounting differs across fast-forward");
    // All families are per-instance merges over the same span: each
    // instance's elapsed is span cycles, so family totals are
    // instances x span.
    let span = |total: u64, instances: u64| {
        assert_eq!(total % instances, 0);
        total / instances
    };
    let banks = cfg.cache.banks as u64;
    let chans = cfg.dram.channels as u64;
    assert_eq!(span(on[0], banks), span(on[1], banks));
    assert_eq!(span(on[0], banks), span(on[2], chans));
}

/// A recoverable fault plan covering every site, parameterized by seed.
fn fault_plan(seed: u64) -> sa_faults::FaultPlan {
    sa_faults::FaultPlan::parse(&format!(
        r#"{{"schema":"sa-faultplan","version":1,"seed":{seed},"cs_timeout":48,"faults":[
            {{"kind":"net_nack","period":5,"max":40}},
            {{"kind":"net_drop","period":8,"max":20}},
            {{"kind":"ecc_single","period":7}},
            {{"kind":"cs_stall","cycles":24,"period":11,"max":25}}
        ]}}"#
    ))
    .expect("valid plan")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The resilience zero-cost contract: installing an *empty* fault plan
    /// renders the exact same sa-stats bytes as installing none at all, for
    /// random workloads and machine shapes.
    #[test]
    fn empty_fault_plan_stats_json_is_byte_identical(
        workload in prop::sample::select(vec![
            FfWorkload::Histogram,
            FfWorkload::Spmv,
            FfWorkload::Md,
        ]),
        cs_entries in prop::sample::select(vec![4usize, 16]),
        seed in 1u64..32,
    ) {
        let mut cfg = machine();
        cfg.sa.cs_entries = cs_entries;
        let kernel = ScatterKernel::histogram(0, ff_trace(workload, seed));
        let run_plan = |plan: Option<sa_faults::FaultPlan>| {
            let mut node = NodeMemSys::new(cfg, 0, false);
            if let Some(p) = &plan {
                node.set_fault_plan(p);
            }
            run_stats_json(&drive_scatter_probed(node, &kernel, false, &mut Introspect::off()))
        };
        let none = run_plan(None);
        let empty = run_plan(Some(sa_faults::FaultPlan::empty()));
        prop_assert_eq!(none, empty);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fault-determinism contract: under a fixed plan and seed, the
    /// multinode run — injected faults, recovery, statistics, and memory
    /// image — is identical across fast-forward modes, and the recovered
    /// results match the fault-free bits.
    #[test]
    fn faulty_runs_are_schedule_invariant(
        plan_seed in 1u64..64,
        trace_seed in 1u64..16,
        combining in any::<bool>(),
    ) {
        let mut rng = Rng64::new(trace_seed);
        let trace: Vec<u64> = (0..2500).map(|_| rng.below(256)).collect();
        // Dyadic values (multiples of 1/8, bounded sums) add exactly, so the
        // result bits cannot depend on the order recovery replays additions
        // in — which is precisely what makes "recoverable faults leave the
        // answer bit-identical" a testable claim for floating point.
        let values: Vec<f64> = (0..trace.len())
            .map(|_| (rng.below(64) as f64 - 32.0) * 0.125)
            .collect();
        let plan = fault_plan(plan_seed);
        let run = |faulty: bool, ff: bool| {
            let mut mn = MultiNode::new(machine(), 4, NetworkConfig::low(), combining);
            mn.set_fast_forward(ff);
            if faulty {
                mn.set_fault_plan(&plan);
            }
            let r = mn.run_trace(&trace, &values);
            let image: Vec<u64> = (0..256)
                .map(|w| mn.read_word(sa_sim::Addr::from_word_index(w)))
                .collect();
            (r, image)
        };
        let (clean, clean_image) = run(false, false);
        prop_assert!(clean.resilience.is_zero());
        let (base, base_image) = run(true, false);
        prop_assert_eq!(base.resilience.ecc_uncorrected, 0, "plan is recoverable");
        prop_assert_eq!(
            &base_image, &clean_image,
            "recovered results must match fault-free bits"
        );
        let (r, image) = run(true, true);
        prop_assert_eq!(&image, &base_image);
        prop_assert_eq!(r.cycles, base.cycles);
        prop_assert_eq!(r.resilience, base.resilience);
        prop_assert_eq!(&r.node_stats, &base.node_stats);
    }
}

#[test]
fn float_reduction_order_is_stable_across_runs() {
    // Floating-point sums depend on hardware ordering; determinism means
    // the bits are nevertheless identical run to run.
    let mut rng = Rng64::new(8);
    let n = 600;
    let indices: Vec<u64> = (0..n).map(|_| rng.below(16)).collect();
    let values: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let kernel = ScatterKernel::superposition(0, indices, &values);
    let a = drive_scatter(&machine(), &kernel, false);
    let b = drive_scatter(&machine(), &kernel, false);
    let bits_a: Vec<u64> = a.result_f64(16).iter().map(|v| v.to_bits()).collect();
    let bits_b: Vec<u64> = b.result_f64(16).iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits_a, bits_b, "bitwise identical float results");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The single-node flavour of the fault-determinism contract: under a
    /// fixed recoverable plan, a node renders the same sa-stats bytes and
    /// memory image with fast-forward on and off — fault sites are
    /// addressed by component, not by stepping order, so skipping cannot
    /// perturb injection or recovery.
    #[test]
    fn faulty_single_node_runs_are_fast_forward_invariant(
        workload in prop::sample::select(vec![
            FfWorkload::Histogram,
            FfWorkload::Spmv,
            FfWorkload::Md,
        ]),
        plan_seed in 1u64..48,
        seed in 1u64..12,
    ) {
        let cfg = machine();
        let kernel = ScatterKernel::histogram(0, ff_trace(workload, seed));
        let plan = fault_plan(plan_seed);
        let run = |ff: bool| {
            let mut node = NodeMemSys::new(cfg, 0, false);
            node.set_fast_forward(ff);
            node.set_fault_plan(&plan);
            let r = drive_scatter_probed(node, &kernel, false, &mut Introspect::off());
            (strip_skipped(&run_stats_json(&r)), r.result_i64(256))
        };
        prop_assert_eq!(run(true), run(false));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The single-node flavour of the occupancy-invariance contract: the
    /// per-family `(busy, blocked, idle)` triples that feed the bottleneck
    /// engine are identical across fast-forward modes — the skip folds
    /// occupancy in bulk with exactly the classification per-cycle ticking
    /// produces, at narrow (combining store bound) and wide (DRAM bound)
    /// index ranges alike.
    #[test]
    fn occupancy_triples_are_fast_forward_invariant(
        range_bits in prop::sample::select(vec![8u32, 18]),
        seed in 1u64..12,
    ) {
        let mut rng = Rng64::new(seed);
        let kernel = ScatterKernel::histogram(
            0,
            (0..1200).map(|_| rng.below(1 << range_bits)).collect(),
        );
        let run = |ff: bool| {
            let mut node = NodeMemSys::new(machine(), 0, false);
            node.set_fast_forward(ff);
            let json = run_stats_json(&drive_scatter_probed(node, &kernel, false, &mut Introspect::off()));
            ["sa", "cache", "dram"].map(|f| occ_triple(&json, f))
        };
        prop_assert_eq!(run(true), run(false));
    }
}
