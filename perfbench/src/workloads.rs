//! The four workloads. Each stresses different layers, and each bypasses
//! layers another one stresses, so a change to one layer should move one
//! workload and leave the others flat (see `perfbench/provenance.json`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sa_apps::histogram::HistogramInput;
use sa_apps::md::{self, MdRun, WaterSystem};
use sa_core::{drive_scatter, NodeStats, ScatterKernel, SensitivityRig};
use sa_multinode::{trace_reference, MultiNode};
use sa_sim::{Addr, MachineConfig, NetworkConfig, Rng64, SensitivityConfig};
use sa_telemetry::{Json, MetricsRegistry};
use scatter_add_repro::{ResultCache, SessionReport, SessionSpec, Workload as Job};

use crate::harness::{Ctx, Scale, Workload};

const APPS: &str = "sa-apps";
const PROC: &str = "sa-proc";
const CORE: &str = "sa-core";
const MULTINODE: &str = "sa-multinode";
const MEMO: &str = "sa-memo";
const ROOT: &str = "scatter-add-repro";
const TELEMETRY: &str = "sa-telemetry";
const BENCH: &str = "perfbench";

/// The exact counters of one node run: the digest's input, and the source
/// of the `sa.*`, `cache.*` and `dram.*` per-layer counts.
fn node_words(s: &NodeStats) -> [u64; 24] {
    let (sa, c, d) = (&s.sa, &s.cache, &s.dram);
    [
        sa.accepted,
        sa.combined,
        sa.reads_issued,
        sa.writes_issued,
        sa.chained,
        sa.stalled_full,
        sa.occ.saturated,
        sa.occ.busy,
        c.read_hits,
        c.read_misses,
        c.read_merges,
        c.write_hits,
        c.write_arounds,
        c.zero_allocs,
        c.evictions,
        c.write_backs,
        c.sum_backs,
        c.mshr_full,
        d.reads,
        d.writes,
        d.row_hits,
        d.row_misses,
        d.words_transferred,
        d.total_latency,
    ]
}

fn count_node(ctx: &mut Ctx, s: &NodeStats) {
    for (key, value) in [
        ("sa.combined", s.sa.combined),
        ("sa.stalled_full", s.sa.stalled_full),
        ("sa.occ_saturated", s.sa.occ.saturated),
        ("cache.read_hits", s.cache.read_hits),
        ("cache.read_misses", s.cache.read_misses),
        ("cache.write_backs", s.cache.write_backs),
        ("cache.sum_backs", s.cache.sum_backs),
        ("cache.zero_allocs", s.cache.zero_allocs),
        ("dram.row_hits", s.dram.row_hits),
        ("dram.row_misses", s.dram.row_misses),
        ("dram.words_transferred", s.dram.words_transferred),
    ] {
        ctx.count(key, value);
    }
}

// ---------------------------------------------------------------------------
// md-stream
// ---------------------------------------------------------------------------

/// The Fig 10 water box at reduced size (48 molecules, so a run holds over
/// a hundred rounds): the only workload where the stream-program
/// executor's scoreboard does most of the host work.
pub struct MdStream {
    cfg: MachineConfig,
    sys: WaterSystem,
    reference: Vec<f64>,
}

/// Force tolerance against `WaterSystem::reference_forces` (the SW and HW
/// variants sum in another order).
const MD_TOL: f64 = 1e-6;

type MdVariant = (
    &'static str,
    &'static str,
    fn(&MachineConfig, &WaterSystem) -> MdRun,
);

const MD_VARIANTS: [MdVariant; 3] = [
    ("no_sa", "proc.run.no_sa", md::run_no_sa),
    ("sw", "proc.run.sw", md::run_sw_default),
    ("hw", "proc.run.hw", md::run_hw),
];

impl Workload for MdStream {
    fn setup(ctx: &mut Ctx, seed: u64, scale: Scale) -> Self {
        let molecules = match scale {
            Scale::Full => 48,
            Scale::Small => 40,
        };
        let sys = ctx.call("apps.gen", APPS, || WaterSystem::generate(molecules, seed));
        let reference = ctx.call("reference", BENCH, || {
            sys.reference_forces().into_iter().flatten().collect()
        });
        MdStream {
            cfg: MachineConfig::merrimac(),
            sys,
            reference,
        }
    }

    fn round(&mut self, ctx: &mut Ctx) {
        for (variant, span, run) in MD_VARIANTS {
            ctx.job("md.job", |ctx| {
                let out = ctx.call(span, PROC, || run(&self.cfg, &self.sys));
                let r = &out.report;
                ctx.simulated(r.cycles, &node_words(&r.stats));
                ctx.count(&format!("proc.ops.{variant}"), r.spans.len() as u64);
                ctx.count(&format!("proc.sim_cycles.{variant}"), r.cycles);
                ctx.count(&format!("proc.skipped_cycles.{variant}"), r.skipped_cycles);
                count_node(ctx, &r.stats);
                let forces = out.forces.into_iter().flatten().collect();
                ctx.expect_close("forces", forces, &self.reference, MD_TOL)
            });
        }
    }
}

// ---------------------------------------------------------------------------
// node-scatter
// ---------------------------------------------------------------------------

/// One node's memory system driven directly (no executor): three histogram
/// shapes through `drive_scatter`, and one §4.4 rig run whose long memory
/// latency makes the event-horizon skip do most of the work.
pub struct NodeScatter {
    cfg: MachineConfig,
    shapes: Vec<Shape>,
    rig: SensitivityRig,
    rig_input: HistogramInput,
    rig_reference: Vec<i64>,
}

struct Shape {
    name: &'static str,
    span: &'static str,
    kernel: ScatterKernel,
    range: u64,
    reference: Vec<i64>,
}

impl Workload for NodeScatter {
    fn setup(ctx: &mut Ctx, seed: u64, scale: Scale) -> Self {
        let (n, rig_n) = match scale {
            Scale::Full => (32 * 1024, 48 * 1024),
            Scale::Small => (1024, 512),
        };
        let inputs = ctx.call("apps.gen", APPS, || {
            [
                (
                    "narrow",
                    "core.drive.narrow",
                    HistogramInput::uniform(n, 256, seed),
                ),
                (
                    "wide",
                    "core.drive.wide",
                    HistogramInput::uniform(n, 1 << 20, seed ^ 1),
                ),
                (
                    "zipf",
                    "core.drive.zipf",
                    HistogramInput::zipf(n, 1 << 16, 1.1, seed ^ 2),
                ),
                ("rig", "", HistogramInput::uniform(rig_n, 1 << 16, seed ^ 3)),
            ]
        });
        let mut shapes = ctx.call("reference", BENCH, || {
            inputs
                .into_iter()
                .map(|(name, span, input)| Shape {
                    name,
                    span,
                    kernel: input.kernel(),
                    range: input.range,
                    reference: input.reference(),
                })
                .collect::<Vec<_>>()
        });
        let rig_shape = shapes.pop().expect("rig input");
        NodeScatter {
            cfg: MachineConfig::merrimac(),
            shapes,
            rig: SensitivityRig::new(SensitivityConfig {
                mem_latency: 400,
                mem_interval: 8,
                ..SensitivityConfig::default()
            }),
            rig_input: HistogramInput {
                data: rig_shape.kernel.indices,
                range: rig_shape.range,
            },
            rig_reference: rig_shape.reference,
        }
    }

    fn round(&mut self, ctx: &mut Ctx) {
        for shape in &self.shapes {
            ctx.job("core.job", |ctx| {
                let r = ctx.call(shape.span, CORE, || {
                    drive_scatter(&self.cfg, &shape.kernel, false)
                });
                ctx.simulated(r.drain_cycles, &node_words(&r.stats));
                ctx.count(&format!("core.sim_cycles.{}", shape.name), r.drain_cycles);
                count_node(ctx, &r.stats);
                let bins = ctx.call("check", BENCH, || r.result_i64(shape.range as usize));
                ctx.expect_eq(shape.name, bins, &shape.reference)
            });
        }
        ctx.job("core.job", |ctx| {
            let input = &self.rig_input;
            let r = ctx.call("core.rig", CORE, || {
                self.rig.run_histogram(&input.data, input.range)
            });
            let sa = &r.sa;
            ctx.simulated(
                r.cycles,
                &[
                    sa.accepted,
                    sa.combined,
                    sa.reads_issued,
                    sa.writes_issued,
                    sa.stalled_full,
                ],
            );
            ctx.count("core.rig.sim_cycles", r.cycles);
            ctx.count("core.rig.skipped_cycles", r.skipped_cycles);
            ctx.count("sa.combined", sa.combined);
            ctx.count("sa.stalled_full", sa.stalled_full);
            ctx.count("sa.occ_saturated", sa.occ.saturated);
            ctx.expect_eq("rig", r.bins, &self.rig_reference)
        });
    }
}

// ---------------------------------------------------------------------------
// multinode-comb
// ---------------------------------------------------------------------------

/// The Fig 13 shape: a narrow and a wide trace over the low network, with
/// and without cache combining, at 4 and 8 nodes. The only workload that
/// runs the crossbar and the multinode loop.
pub struct MultinodeComb {
    cfg: MachineConfig,
    traces: Vec<McTrace>,
}

struct McTrace {
    trace: Vec<u64>,
    values: Vec<f64>,
    /// Every touched word, ascending.
    words: Vec<u64>,
    /// Expected bits of each touched word.
    expected: Vec<u64>,
}

/// Span names by trace (narrow, wide), combining (plain, comb) and node
/// count (4, 8), in loop order.
const MN_SPANS: [&str; 8] = [
    "mn.run.narrow.plain.n4",
    "mn.run.narrow.plain.n8",
    "mn.run.narrow.comb.n4",
    "mn.run.narrow.comb.n8",
    "mn.run.wide.plain.n4",
    "mn.run.wide.plain.n8",
    "mn.run.wide.comb.n4",
    "mn.run.wide.comb.n8",
];

impl Workload for MultinodeComb {
    fn setup(ctx: &mut Ctx, seed: u64, scale: Scale) -> Self {
        let n = match scale {
            Scale::Full => 12 * 1024,
            Scale::Small => 512,
        };
        let traces = ctx.call("apps.gen", APPS, || {
            [256u64, 1 << 20].map(|range| {
                let mut rng = Rng64::new(seed ^ range);
                let trace: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
                // Small integer addends: every sum is exact in any order, so
                // the check can compare bits.
                let values: Vec<f64> = (0..n).map(|_| (1 + rng.below(4)) as f64).collect();
                (trace, values)
            })
        });
        let traces = ctx.call("reference", BENCH, || {
            traces
                .into_iter()
                .map(|(trace, values)| {
                    let mut want: Vec<(u64, f64)> =
                        trace_reference(&trace, &values).into_iter().collect();
                    want.sort_unstable_by_key(|&(w, _)| w);
                    McTrace {
                        words: want.iter().map(|&(w, _)| w).collect(),
                        expected: want.iter().map(|&(_, v)| v.to_bits()).collect(),
                        trace,
                        values,
                    }
                })
                .collect()
        });
        MultinodeComb {
            cfg: MachineConfig::merrimac(),
            traces,
        }
    }

    fn round(&mut self, ctx: &mut Ctx) {
        let mut spans = MN_SPANS.iter();
        for t in &self.traces {
            for combining in [false, true] {
                for nodes in [4usize, 8] {
                    let span = spans.next().expect("one span per cell");
                    ctx.job("mn.job", |ctx| {
                        let mut mn = ctx.call("mn.build", MULTINODE, || {
                            MultiNode::new(self.cfg, nodes, NetworkConfig::low(), combining)
                        });
                        let r = ctx.call(span, MULTINODE, || mn.run_trace(&t.trace, &t.values));
                        let mut words = vec![
                            r.sum_back_lines,
                            r.flush_rounds as u64,
                            r.net.delivered,
                            r.net.eject_stalls,
                        ];
                        for s in &r.node_stats {
                            words.extend(node_words(s));
                            count_node(ctx, s);
                        }
                        ctx.simulated(r.cycles, &words);
                        ctx.count("mn.node_cycles", r.cycles * nodes as u64);
                        ctx.count("mn.sum_back_lines", r.sum_back_lines);
                        ctx.count("mn.flush_rounds", r.flush_rounds as u64);
                        ctx.count("mn.skipped_cycles", r.skipped_cycles);
                        ctx.count("net.delivered", r.net.delivered);
                        ctx.count("net.eject_stalls", r.net.eject_stalls);
                        let got = ctx.call("check", BENCH, || {
                            t.words
                                .iter()
                                .map(|&w| mn.read_word(Addr::from_word_index(w)))
                                .collect::<Vec<_>>()
                        });
                        ctx.call("mn.drop", MULTINODE, || drop(mn));
                        ctx.expect_eq("multinode words", got, &t.expected)
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// session-cache
// ---------------------------------------------------------------------------

/// The user-facing job path: histogram jobs written as `SessionSpec` JSON,
/// parsed back, and run through `Session` against a result cache that
/// starts empty every round. Each job repeats, so misses (simulate, encode,
/// store) sit beside hits (look up, decode).
pub struct SessionCache {
    specs: Vec<String>,
    references: Vec<Vec<i64>>,
    order: Vec<usize>,
    dir: PathBuf,
}

/// Uses of each distinct job per round: one miss, then hits.
const SESSION_REPEATS: usize = 4;

impl Workload for SessionCache {
    fn setup(ctx: &mut Ctx, seed: u64, scale: Scale) -> Self {
        let (jobs, n, range) = match scale {
            Scale::Full => (8, 16 * 1024, 16 * 1024),
            Scale::Small => (2, 256, 64),
        };
        let inputs = ctx.call("apps.gen", APPS, || {
            (0..jobs)
                .map(|j| {
                    HistogramInput::uniform(n, range, seed.wrapping_add(j as u64 * 0x9E37_79B9))
                })
                .collect::<Vec<_>>()
        });
        // A session reports the result array up to the highest index used.
        let references = ctx.call("reference", BENCH, || {
            inputs
                .iter()
                .map(|input| {
                    let mut bins = input.reference();
                    let used = input.data.iter().max().map_or(0, |&m| m as usize + 1);
                    bins.truncate(used);
                    bins
                })
                .collect()
        });
        let specs = ctx.call("spec.write", ROOT, || {
            inputs
                .into_iter()
                .map(|input| {
                    let spec = SessionSpec::new(Job::Histogram {
                        base_word: 0,
                        indices: input.data,
                    });
                    spec.to_json().to_string_compact()
                })
                .collect()
        });
        let mut order: Vec<usize> = (0..jobs).flat_map(|j| [j; SESSION_REPEATS]).collect();
        Rng64::new(seed).shuffle(&mut order);
        static DIRS: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(".perfbench").join(format!(
            "memo-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        SessionCache {
            specs,
            references,
            order,
            dir,
        }
    }

    fn round(&mut self, ctx: &mut Ctx) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let cache = match ResultCache::open(&self.dir) {
            Ok(cache) => cache,
            Err(e) => {
                ctx.job("session.open", |_| {
                    Err(format!("result cache at {}: {e}", self.dir.display()))
                });
                return;
            }
        };
        // Report bytes of each miss, by fingerprint digest, for the hits.
        let mut stored: HashMap<String, String> = HashMap::new();
        for &j in &self.order {
            ctx.job("session.job", |ctx| self.job(ctx, &cache, &mut stored, j));
        }
        ctx.count("memo.hits", cache.hits());
        ctx.count("memo.misses", cache.misses());
        ctx.count("memo.stores", cache.stores());
        if let Ok((entries, bytes)) = cache.usage() {
            ctx.count("memo.entries", entries as u64);
            ctx.count("memo.entry_bytes_total", bytes);
        }
    }
}

impl SessionCache {
    fn job(
        &self,
        ctx: &mut Ctx,
        cache: &ResultCache,
        stored: &mut HashMap<String, String>,
        j: usize,
    ) -> Result<(), String> {
        let text = &self.specs[j];
        let session = ctx.call("spec.roundtrip", ROOT, || -> Result<_, String> {
            let spec = SessionSpec::from_json(&Json::parse(text)?)?;
            if spec.to_json().to_string_compact() != *text {
                return Err("spec does not round-trip".into());
            }
            spec.to_builder().build()
        })?;
        let fp = ctx.call("session.fingerprint", ROOT, || session.fingerprint());
        let key = fp.digest();
        let report = match ctx.call("memo.lookup", MEMO, || cache.lookup(&fp)) {
            Some(payload) => {
                ctx.name_job("session.hit");
                let report = ctx.call("session.decode", ROOT, || {
                    SessionReport::from_json(&payload)
                })?;
                let bytes = ctx.call("telemetry.report_json", TELEMETRY, || {
                    report.to_json().to_string_compact()
                });
                let want = stored
                    .get(&key)
                    .ok_or("hit on an entry this round did not store")?;
                ctx.expect_eq("cached report", bytes, want)?;
                report
            }
            None => {
                ctx.name_job("session.miss");
                let report = ctx.call("session.run", ROOT, || session.run());
                let (json, bytes) = ctx.call("telemetry.report_json", TELEMETRY, || {
                    let json = report.to_json();
                    let bytes = json.to_string_compact();
                    (json, bytes)
                });
                ctx.call("memo.store", MEMO, || cache.store(&fp, &json))
                    .map_err(|e| format!("store: {e}"))?;
                stored.insert(key, bytes);
                for s in &report.node_stats {
                    count_node(ctx, s);
                }
                ctx.expect_eq("histogram", report.result_i64(), &self.references[j])?;
                report
            }
        };
        let stats = ctx.call("telemetry.stats_record", TELEMETRY, || {
            let mut registry = MetricsRegistry::new();
            for s in &report.node_stats {
                s.record(&mut registry.scope("session"));
            }
            registry.to_json().to_string_compact()
        });
        std::hint::black_box(stats);
        let mut words = Vec::new();
        for s in &report.node_stats {
            words.extend(node_words(s));
        }
        ctx.simulated(report.cycles, &words);
        Ok(())
    }
}

impl Drop for SessionCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
