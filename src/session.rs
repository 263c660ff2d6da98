//! The [`Session`] builder — one front door to the whole simulator.
//!
//! Historically each entry point was a separate free function with its own
//! argument list (`drive_scatter`, `MultiNode::run_trace`, ...), and
//! cross-cutting concerns — telemetry sampling, fast-forward, fault
//! injection — were configured through per-type setters or process-wide
//! defaults. A `Session` names every knob once and validates the
//! combination before anything runs:
//!
//! ```
//! use scatter_add_repro::{Session, Workload};
//!
//! let report = Session::builder()
//!     .workload(Workload::Histogram {
//!         base_word: 0,
//!         indices: vec![0, 1, 1, 2, 1],
//!     })
//!     .build()
//!     .expect("valid session")
//!     .run();
//! assert_eq!(report.result[..3], [1, 3, 1]);
//! ```
//!
//! Fault plans installed with [`SessionBuilder::faults`] apply to exactly
//! this session's machines (never through the process-wide default), so
//! concurrent sessions with different plans do not interfere.

use std::sync::Arc;

use sa_cache::CacheStats;
use sa_core::{drive_scatter_probed, NodeMemSys, NodeStats, SaStats, ScatterKernel};
use sa_faults::{FaultPlan, ResilienceStats};
use sa_mem::DramStats;
use sa_memo::{Fingerprint, ResultCache};
use sa_multinode::{MultiNode, Topology};
use sa_sim::{Addr, MachineConfig, NetworkConfig, QueueStats};
use sa_telemetry::{
    global_progress, HostProfiler, Introspect, Json, OccupancyStats, ProbeRecorder, Progress,
};

/// What a [`Session`] simulates.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// A histogram: every index contributes `+1` (integer scatter-add) to
    /// `base_word + index`.
    Histogram {
        /// First word of the result array.
        base_word: u64,
        /// The index trace.
        indices: Vec<u64>,
    },
    /// An arbitrary single-node scatter kernel (any scalar kind/op).
    Scatter(ScatterKernel),
    /// A floating-point scatter-add trace distributed over several nodes.
    MultiNode {
        /// Node count (a power of two under [`Topology::Hypercube`]).
        nodes: usize,
        /// Inter-node fabric parameters.
        network: NetworkConfig,
        /// Whether remote requests combine in the local cache (sum-back).
        combining: bool,
        /// Sum-back routing topology.
        topology: Topology,
        /// Target word indices.
        trace: Vec<u64>,
        /// One f64 addend per trace entry.
        values: Vec<f64>,
    },
}

/// Telemetry knobs for a session (see `docs/OBSERVABILITY.md`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Cycle-series sampling interval (0 disables sampling).
    pub sample_interval: u64,
    /// Request-lifecycle sampling: one in `req_sample` requests gets a full
    /// stage-by-stage timeline (0 disables request tracing).
    pub req_sample: u64,
}

/// Everything a finished session reports.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionReport {
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Cycles the scheduler fast-forwarded over (wall-clock accounting
    /// only; every other field is byte-identical with skipping off).
    pub skipped_cycles: u64,
    /// Machine statistics, one entry per node.
    pub node_stats: Vec<NodeStats>,
    /// Merged fault-recovery counters (all zero without a fault plan).
    pub resilience: ResilienceStats,
    /// Raw bits of the result array, `base..base + len` words.
    pub result: Vec<u64>,
    /// Pre-op values returned by fetch-ops, in completion order (empty
    /// unless [`SessionBuilder::fetch`] was set; single-node only).
    pub fetched: Vec<(u64, u64)>,
    /// `sa-probe` snapshot lines (compact JSON, one per cadence point;
    /// empty unless [`SessionBuilder::probe`] set an interval). At a fixed
    /// interval these bytes are identical across fast-forward settings,
    /// except for the `skipped_cycles` field each line carries.
    pub probe_lines: Vec<String>,
    /// Application scatter-add operations performed (the workload length).
    pub adds: u64,
    /// Sum-back lines that crossed the network (multinode combining runs;
    /// 0 otherwise).
    pub sum_back_lines: u64,
}

impl SessionReport {
    /// Simulated execution time in microseconds at 1 GHz.
    pub fn micros(&self) -> f64 {
        self.cycles as f64 / 1e3
    }

    /// The result array reinterpreted as signed integers (for integer
    /// workloads such as [`Workload::Histogram`]).
    pub fn result_i64(&self) -> Vec<i64> {
        self.result.iter().map(|&b| b as i64).collect()
    }

    /// The result array reinterpreted as doubles (for floating-point
    /// workloads).
    pub fn result_f64(&self) -> Vec<f64> {
        self.result.iter().map(|&b| f64::from_bits(b)).collect()
    }

    /// Scatter-add throughput in GB/s at `ghz`, the Figure 13 metric: one
    /// word of application data retired per add.
    pub fn throughput_gbps(&self, ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.adds as f64 * sa_sim::WORD_BYTES as f64 * ghz / self.cycles as f64
    }

    /// The bottleneck attribution report for this run: per-resource
    /// occupancy (busy / blocked / idle / saturated), the dominant-resource
    /// classification with utilization evidence, and the analytic what-if
    /// table — the `session` entry of a v5 `bottleneck` section (see
    /// `docs/OBSERVABILITY.md`). Render with
    /// [`sa_telemetry::render_bottleneck`]. `None` when the report carries
    /// no node statistics.
    pub fn bottleneck(&self) -> Option<sa_telemetry::Json> {
        use sa_telemetry::{Json, MetricsRegistry};
        if self.node_stats.is_empty() {
            return None;
        }
        let mut registry = MetricsRegistry::new();
        {
            let mut scope = registry.scope("session");
            scope.counter("cycles", self.cycles);
            if let [only] = self.node_stats.as_slice() {
                only.record(&mut scope);
            } else {
                for (i, ns) in self.node_stats.iter().enumerate() {
                    ns.record(&mut scope.scope(&format!("node{i}")));
                }
            }
        }
        let mut doc = Json::obj();
        doc.push("metrics", registry.to_json());
        sa_telemetry::bottleneck_json(&doc)
    }

    /// Serialize the complete report for the result cache.
    ///
    /// Exact: every field (including raw result bits and probe lines)
    /// round-trips through [`SessionReport::from_json`] to an equal report,
    /// so a cache hit reproduces the original run byte-for-byte. Note that
    /// `skipped_cycles` is part of the payload: a hit replays the *cached*
    /// run's fast-forward accounting, consistent with the byte-identity
    /// contract that already holds only modulo `skipped_cycles`.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("cycles", Json::UInt(self.cycles));
        doc.push("skipped_cycles", Json::UInt(self.skipped_cycles));
        doc.push(
            "node_stats",
            Json::Arr(self.node_stats.iter().map(node_stats_json).collect()),
        );
        doc.push("resilience", resilience_json(&self.resilience));
        doc.push(
            "result",
            Json::Arr(self.result.iter().map(|&w| Json::UInt(w)).collect()),
        );
        doc.push(
            "fetched",
            Json::Arr(
                self.fetched
                    .iter()
                    .map(|&(a, v)| Json::Arr(vec![Json::UInt(a), Json::UInt(v)]))
                    .collect(),
            ),
        );
        doc.push(
            "probe_lines",
            Json::Arr(
                self.probe_lines
                    .iter()
                    .map(|l| Json::Str(l.clone()))
                    .collect(),
            ),
        );
        doc.push("adds", Json::UInt(self.adds));
        doc.push("sum_back_lines", Json::UInt(self.sum_back_lines));
        doc
    }

    /// Rebuild a report serialized by [`SessionReport::to_json`].
    pub fn from_json(doc: &Json) -> Result<SessionReport, String> {
        let node_stats = doc
            .get("node_stats")
            .and_then(Json::as_arr)
            .ok_or("report: missing 'node_stats'")?
            .iter()
            .map(node_stats_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let result = doc
            .get("result")
            .and_then(Json::as_arr)
            .ok_or("report: missing 'result'")?
            .iter()
            .map(|w| w.as_u64().ok_or("report: non-u64 result word"))
            .collect::<Result<Vec<_>, _>>()?;
        let fetched = doc
            .get("fetched")
            .and_then(Json::as_arr)
            .ok_or("report: missing 'fetched'")?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("report: fetched entry is not a pair")?;
                match (pair[0].as_u64(), pair[1].as_u64()) {
                    (Some(a), Some(v)) => Ok((a, v)),
                    _ => Err("report: non-u64 fetched pair".to_string()),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        let probe_lines = doc
            .get("probe_lines")
            .and_then(Json::as_arr)
            .ok_or("report: missing 'probe_lines'")?
            .iter()
            .map(|l| {
                l.as_str()
                    .map(str::to_string)
                    .ok_or("report: non-string probe line")
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SessionReport {
            cycles: get_u64(doc, "cycles")?,
            skipped_cycles: get_u64(doc, "skipped_cycles")?,
            node_stats,
            resilience: resilience_from_json(
                doc.get("resilience")
                    .ok_or("report: missing 'resilience'")?,
            )?,
            result,
            fetched,
            probe_lines,
            adds: get_u64(doc, "adds")?,
            sum_back_lines: get_u64(doc, "sum_back_lines")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Report (de)serialization helpers. Field lists mirror the stat structs in
// their home crates; adding a field there without extending these fails the
// session round-trip test, not silently.
// ---------------------------------------------------------------------------

fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field '{key}'"))
}

fn occ_json(o: &OccupancyStats) -> Json {
    let mut j = Json::obj();
    j.push("busy", Json::UInt(o.busy));
    j.push("blocked", Json::UInt(o.blocked));
    j.push("idle", Json::UInt(o.idle));
    j.push("saturated", Json::UInt(o.saturated));
    j
}

fn occ_from_json(doc: &Json) -> Result<OccupancyStats, String> {
    Ok(OccupancyStats {
        busy: get_u64(doc, "busy")?,
        blocked: get_u64(doc, "blocked")?,
        idle: get_u64(doc, "idle")?,
        saturated: get_u64(doc, "saturated")?,
    })
}

fn node_stats_json(ns: &NodeStats) -> Json {
    let mut sa = Json::obj();
    sa.push("accepted", Json::UInt(ns.sa.accepted));
    sa.push("combined", Json::UInt(ns.sa.combined));
    sa.push("reads_issued", Json::UInt(ns.sa.reads_issued));
    sa.push("writes_issued", Json::UInt(ns.sa.writes_issued));
    sa.push("chained", Json::UInt(ns.sa.chained));
    sa.push("stalled_full", Json::UInt(ns.sa.stalled_full));
    sa.push("fetch_ops", Json::UInt(ns.sa.fetch_ops));
    sa.push("occupancy_integral", Json::UInt(ns.sa.occupancy_integral));
    sa.push("occ", occ_json(&ns.sa.occ));

    let mut cache = Json::obj();
    cache.push("read_hits", Json::UInt(ns.cache.read_hits));
    cache.push("read_misses", Json::UInt(ns.cache.read_misses));
    cache.push("read_merges", Json::UInt(ns.cache.read_merges));
    cache.push("write_hits", Json::UInt(ns.cache.write_hits));
    cache.push("write_arounds", Json::UInt(ns.cache.write_arounds));
    cache.push("write_merges", Json::UInt(ns.cache.write_merges));
    cache.push("zero_allocs", Json::UInt(ns.cache.zero_allocs));
    cache.push("evictions", Json::UInt(ns.cache.evictions));
    cache.push("write_backs", Json::UInt(ns.cache.write_backs));
    cache.push("sum_backs", Json::UInt(ns.cache.sum_backs));
    cache.push("blocked", Json::UInt(ns.cache.blocked));
    cache.push("mshr_full", Json::UInt(ns.cache.mshr_full));
    cache.push("occ", occ_json(&ns.cache.occ));

    let mut dram = Json::obj();
    dram.push("reads", Json::UInt(ns.dram.reads));
    dram.push("writes", Json::UInt(ns.dram.writes));
    dram.push("row_hits", Json::UInt(ns.dram.row_hits));
    dram.push("row_misses", Json::UInt(ns.dram.row_misses));
    dram.push("words_transferred", Json::UInt(ns.dram.words_transferred));
    dram.push("total_latency", Json::UInt(ns.dram.total_latency));
    dram.push("occ", occ_json(&ns.dram.occ));

    let q = &ns.bank_in;
    let mut bank_in = Json::obj();
    bank_in.push("enqueued", Json::UInt(q.enqueued));
    bank_in.push("rejected", Json::UInt(q.rejected));
    bank_in.push("peak_occupancy", Json::UInt(q.peak_occupancy));
    bank_in.push("occ_sum", Json::UInt(q.occ_sum));
    bank_in.push("capacity", Json::UInt(q.capacity));
    bank_in.push(
        "occ_hist",
        Json::Arr(q.occ_hist.iter().map(|&c| Json::UInt(c)).collect()),
    );
    bank_in.push("created_at", Json::UInt(q.created_at));
    bank_in.push("advanced_to", Json::UInt(q.advanced_to));
    bank_in.push("occ_integral", Json::UInt(q.occ_integral));

    let mut j = Json::obj();
    j.push("sa", sa);
    j.push("cache", cache);
    j.push("dram", dram);
    j.push("bank_in", bank_in);
    j.push("resilience", resilience_json(&ns.resilience));
    j
}

fn node_stats_from_json(doc: &Json) -> Result<NodeStats, String> {
    let sa = doc.get("sa").ok_or("node_stats: missing 'sa'")?;
    let cache = doc.get("cache").ok_or("node_stats: missing 'cache'")?;
    let dram = doc.get("dram").ok_or("node_stats: missing 'dram'")?;
    let bank_in = doc.get("bank_in").ok_or("node_stats: missing 'bank_in'")?;
    let hist = bank_in
        .get("occ_hist")
        .and_then(Json::as_arr)
        .ok_or("node_stats: missing 'occ_hist'")?;
    let mut occ_hist = [0u64; 8];
    if hist.len() != occ_hist.len() {
        return Err("node_stats: occ_hist bucket count mismatch".into());
    }
    for (slot, bucket) in occ_hist.iter_mut().zip(hist) {
        *slot = bucket
            .as_u64()
            .ok_or("node_stats: non-u64 occ_hist bucket")?;
    }
    Ok(NodeStats {
        sa: SaStats {
            accepted: get_u64(sa, "accepted")?,
            combined: get_u64(sa, "combined")?,
            reads_issued: get_u64(sa, "reads_issued")?,
            writes_issued: get_u64(sa, "writes_issued")?,
            chained: get_u64(sa, "chained")?,
            stalled_full: get_u64(sa, "stalled_full")?,
            fetch_ops: get_u64(sa, "fetch_ops")?,
            occupancy_integral: get_u64(sa, "occupancy_integral")?,
            occ: occ_from_json(sa.get("occ").ok_or("sa: missing 'occ'")?)?,
        },
        cache: CacheStats {
            read_hits: get_u64(cache, "read_hits")?,
            read_misses: get_u64(cache, "read_misses")?,
            read_merges: get_u64(cache, "read_merges")?,
            write_hits: get_u64(cache, "write_hits")?,
            write_arounds: get_u64(cache, "write_arounds")?,
            write_merges: get_u64(cache, "write_merges")?,
            zero_allocs: get_u64(cache, "zero_allocs")?,
            evictions: get_u64(cache, "evictions")?,
            write_backs: get_u64(cache, "write_backs")?,
            sum_backs: get_u64(cache, "sum_backs")?,
            blocked: get_u64(cache, "blocked")?,
            mshr_full: get_u64(cache, "mshr_full")?,
            occ: occ_from_json(cache.get("occ").ok_or("cache: missing 'occ'")?)?,
        },
        dram: DramStats {
            reads: get_u64(dram, "reads")?,
            writes: get_u64(dram, "writes")?,
            row_hits: get_u64(dram, "row_hits")?,
            row_misses: get_u64(dram, "row_misses")?,
            words_transferred: get_u64(dram, "words_transferred")?,
            total_latency: get_u64(dram, "total_latency")?,
            occ: occ_from_json(dram.get("occ").ok_or("dram: missing 'occ'")?)?,
        },
        bank_in: QueueStats {
            enqueued: get_u64(bank_in, "enqueued")?,
            rejected: get_u64(bank_in, "rejected")?,
            peak_occupancy: get_u64(bank_in, "peak_occupancy")?,
            occ_sum: get_u64(bank_in, "occ_sum")?,
            capacity: get_u64(bank_in, "capacity")?,
            occ_hist,
            created_at: get_u64(bank_in, "created_at")?,
            advanced_to: get_u64(bank_in, "advanced_to")?,
            occ_integral: get_u64(bank_in, "occ_integral")?,
        },
        resilience: resilience_from_json(
            doc.get("resilience")
                .ok_or("node_stats: missing 'resilience'")?,
        )?,
    })
}

fn resilience_json(r: &ResilienceStats) -> Json {
    let mut j = Json::obj();
    j.push("ecc_corrected", Json::UInt(r.ecc_corrected));
    j.push("ecc_detected", Json::UInt(r.ecc_detected));
    j.push("ecc_uncorrected", Json::UInt(r.ecc_uncorrected));
    j.push("mshr_replays", Json::UInt(r.mshr_replays));
    j.push("net_nacks", Json::UInt(r.net_nacks));
    j.push("net_dropped", Json::UInt(r.net_dropped));
    j.push("net_recovered", Json::UInt(r.net_recovered));
    j.push("net_retries", Json::UInt(r.net_retries));
    j.push("cs_stalls", Json::UInt(r.cs_stalls));
    j.push("cs_timeouts", Json::UInt(r.cs_timeouts));
    j
}

fn resilience_from_json(doc: &Json) -> Result<ResilienceStats, String> {
    Ok(ResilienceStats {
        ecc_corrected: get_u64(doc, "ecc_corrected")?,
        ecc_detected: get_u64(doc, "ecc_detected")?,
        ecc_uncorrected: get_u64(doc, "ecc_uncorrected")?,
        mshr_replays: get_u64(doc, "mshr_replays")?,
        net_nacks: get_u64(doc, "net_nacks")?,
        net_dropped: get_u64(doc, "net_dropped")?,
        net_recovered: get_u64(doc, "net_recovered")?,
        net_retries: get_u64(doc, "net_retries")?,
        cs_stalls: get_u64(doc, "cs_stalls")?,
        cs_timeouts: get_u64(doc, "cs_timeouts")?,
    })
}

/// Staged configuration for a [`Session`]; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct SessionBuilder {
    config: Option<MachineConfig>,
    workload: Option<Workload>,
    faults: Option<FaultPlan>,
    telemetry: Telemetry,
    fast_forward: Option<bool>,
    probe_interval: u64,
    progress: Option<Progress>,
    fetch: bool,
    cache: Option<Arc<ResultCache>>,
}

impl SessionBuilder {
    /// The machine configuration (defaults to
    /// [`MachineConfig::merrimac`], the paper's Table 1 machine).
    pub fn config(mut self, cfg: MachineConfig) -> SessionBuilder {
        self.config = Some(cfg);
        self
    }

    /// What to simulate. Required.
    pub fn workload(mut self, workload: Workload) -> SessionBuilder {
        self.workload = Some(workload);
        self
    }

    /// Inject faults from `plan` (see `docs/RESILIENCE.md`). An empty plan
    /// is equivalent to no plan: the run is byte-identical to fault-free.
    pub fn faults(mut self, plan: FaultPlan) -> SessionBuilder {
        self.faults = Some(plan);
        self
    }

    /// Telemetry sampling knobs (default: all sampling off).
    pub fn telemetry(mut self, telemetry: Telemetry) -> SessionBuilder {
        self.telemetry = telemetry;
        self
    }

    /// Force event-horizon fast-forward on or off (default: the
    /// process-wide setting, see [`sa_sim::set_fast_forward_default`]).
    pub fn fast_forward(mut self, enabled: bool) -> SessionBuilder {
        self.fast_forward = Some(enabled);
        self
    }

    /// Take an `sa-probe` component snapshot every `interval` simulated
    /// cycles (0, the default, disables probing). The snapshot lines land
    /// in [`SessionReport::probe_lines`] and stream to the progress sink
    /// when one is attached.
    pub fn probe(mut self, interval: u64) -> SessionBuilder {
        self.probe_interval = interval;
        self
    }

    /// Attach a live progress sink for heartbeats and probe streaming
    /// (default: the process-wide sink installed by
    /// [`sa_telemetry::set_global_progress`], off unless a `--progress` or
    /// `--probe-listen` flag enabled it).
    pub fn progress(mut self, progress: Progress) -> SessionBuilder {
        self.progress = Some(progress);
        self
    }

    /// Make every scatter request a fetch-op (§3.3): the pre-op value of
    /// each target word is returned in [`SessionReport::fetched`].
    /// Single-node workloads only.
    pub fn fetch(mut self, enabled: bool) -> SessionBuilder {
        self.fetch = enabled;
        self
    }

    /// Memoize this session's run in `cache` (see `docs/PERFORMANCE.md`).
    ///
    /// Deterministic outputs make the cache *exact*: a hit returns a report
    /// equal to what the simulation would produce, for zero simulated work.
    /// The fingerprint covers every execution-relevant input (workload,
    /// config, fault plan, fetch mode, telemetry cadences) and deliberately
    /// excludes knobs the byte-identity contract proves irrelevant
    /// (`fast_forward`, progress sinks).
    /// `skipped_cycles` replays the cached run's value.
    pub fn cache(mut self, cache: Arc<ResultCache>) -> SessionBuilder {
        self.cache = Some(cache);
        self
    }

    /// Validate the combination and produce a runnable [`Session`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: no workload, a machine
    /// that cannot be built ([`MachineConfig::validate`]), an empty
    /// workload, mismatched trace/values lengths, or a node count
    /// [`sa_multinode::check_nodes`] rejects.
    pub fn build(self) -> Result<Session, String> {
        let workload = self.workload.ok_or("no workload: call .workload(..)")?;
        let config = self.config.unwrap_or_else(MachineConfig::merrimac);
        config.validate()?;
        match &workload {
            Workload::Histogram { indices, .. } => {
                if indices.is_empty() {
                    return Err("histogram workload has no indices".into());
                }
            }
            Workload::Scatter(kernel) => {
                if kernel.indices.len() != kernel.values.len() {
                    return Err(format!(
                        "scatter kernel length mismatch: {} indices vs {} values",
                        kernel.indices.len(),
                        kernel.values.len()
                    ));
                }
            }
            Workload::MultiNode {
                nodes,
                topology,
                trace,
                values,
                ..
            } => {
                sa_multinode::check_nodes(*nodes, *topology)?;
                if trace.len() != values.len() {
                    return Err(format!(
                        "trace length mismatch: {} indices vs {} values",
                        trace.len(),
                        values.len()
                    ));
                }
                if self.fetch {
                    return Err("fetch-ops are single-node only (§3.3)".into());
                }
            }
        }
        Ok(Session {
            config,
            workload,
            faults: self.faults,
            telemetry: self.telemetry,
            fast_forward: self.fast_forward,
            probe_interval: self.probe_interval,
            progress: self.progress,
            fetch: self.fetch,
            cache: self.cache,
        })
    }
}

/// A validated, runnable simulation; built by [`Session::builder`].
#[derive(Clone, Debug)]
pub struct Session {
    config: MachineConfig,
    workload: Workload,
    faults: Option<FaultPlan>,
    telemetry: Telemetry,
    fast_forward: Option<bool>,
    probe_interval: u64,
    progress: Option<Progress>,
    fetch: bool,
    cache: Option<Arc<ResultCache>>,
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The serializable job description of this session: every field a
    /// [`crate::SessionSpec`] names, reconstructed from the validated state.
    /// Lossless: `session.spec().to_builder().build()` reproduces an
    /// equivalent session, and the spec's canonical form is this session's
    /// cache fingerprint input.
    pub fn spec(&self) -> crate::SessionSpec {
        crate::SessionSpec {
            workload: self.workload.clone(),
            config: self.config,
            faults: self.faults.clone(),
            telemetry: self.telemetry,
            probe_interval: self.probe_interval,
            fetch: self.fetch,
            exec: crate::spec::ExecSpec {
                fast_forward: self.fast_forward,
            },
        }
    }

    /// The canonical cache key for this session: the canonical JSON form of
    /// [`Session::spec`] — every execution-relevant input in a fixed field
    /// order, with large index/value arrays folded in as SHA-256 digests.
    /// Execution-irrelevant knobs (fast-forward, progress sinks) are
    /// excluded — the byte-identity contract proves they cannot
    /// change the report.
    pub fn fingerprint(&self) -> Fingerprint {
        self.spec().fingerprint()
    }

    /// Run the workload to completion.
    ///
    /// Deterministic: the report is a pure function of the session's
    /// configuration — identical across repeated runs and fast-forward
    /// settings (modulo `skipped_cycles`, which is wall-clock
    /// accounting).
    ///
    /// With a [`SessionBuilder::cache`] attached, a valid cached entry is
    /// returned without simulating anything; a miss (or a corrupt/stale
    /// entry, which is evicted) simulates and stores the result.
    ///
    /// # Panics
    ///
    /// Panics if the simulated machine deadlocks (cycle-limit guard), which
    /// indicates a simulator bug, not bad input.
    pub fn run(self) -> SessionReport {
        let Some(cache) = self.cache.clone() else {
            return self.run_uncached();
        };
        let fp = self.fingerprint();
        if let Some(report) = cache
            .lookup(&fp)
            .and_then(|payload| SessionReport::from_json(&payload).ok())
        {
            return report;
        }
        let report = self.run_uncached();
        // A full disk degrades to "no cache", never to a failed run.
        let _ = cache.store(&fp, &report.to_json());
        report
    }

    fn run_uncached(self) -> SessionReport {
        match self.workload {
            Workload::Histogram {
                base_word,
                ref indices,
            } => {
                let kernel = ScatterKernel::histogram(base_word, indices.clone());
                self.run_kernel(kernel)
            }
            Workload::Scatter(ref kernel) => {
                let kernel = kernel.clone();
                self.run_kernel(kernel)
            }
            Workload::MultiNode {
                nodes,
                network,
                combining,
                topology,
                ref trace,
                ref values,
            } => {
                let mut mn =
                    MultiNode::with_topology(self.config, nodes, network, combining, topology);
                if let Some(ff) = self.fast_forward {
                    mn.set_fast_forward(ff);
                }
                if let Some(plan) = &self.faults {
                    mn.set_fault_plan(plan);
                }
                let mut probe = self.introspect("multinode");
                let r = mn.run_trace_probed(trace, values, &mut probe);
                let len = trace.iter().copied().max().map_or(0, |m| m as usize + 1);
                let result = (0..len as u64)
                    .map(|w| mn.read_word(Addr::from_word_index(w)))
                    .collect();
                SessionReport {
                    cycles: r.cycles,
                    skipped_cycles: r.skipped_cycles,
                    node_stats: r.node_stats,
                    resilience: r.resilience,
                    result,
                    fetched: Vec::new(),
                    probe_lines: probe.recorder.take_lines(),
                    adds: r.adds,
                    sum_back_lines: r.sum_back_lines,
                }
            }
        }
    }

    /// Assemble the introspection bundle for a run: the session's probe
    /// cadence, its progress sink (falling back to the process-wide one),
    /// and no host profiler (profiling is a bench-binary concern).
    fn introspect(&self, label: &str) -> Introspect {
        let progress = match &self.progress {
            Some(p) => p.clone(),
            None => global_progress(),
        };
        let mut recorder = ProbeRecorder::every(self.probe_interval).with_label(label);
        recorder = recorder.with_sink(progress.clone());
        Introspect {
            recorder,
            progress,
            profiler: HostProfiler::off(),
        }
    }

    fn run_kernel(&self, kernel: ScatterKernel) -> SessionReport {
        let mut node = NodeMemSys::new(self.config, 0, false);
        if let Some(ff) = self.fast_forward {
            node.set_fast_forward(ff);
        }
        if let Some(plan) = &self.faults {
            node.set_fault_plan(plan);
        }
        node.set_sample_interval(self.telemetry.sample_interval);
        node.set_req_sample(self.telemetry.req_sample);
        let len = kernel.indices.iter().copied().max().map_or(0, |m| m + 1);
        let base = kernel.base_word;
        let adds = kernel.indices.len() as u64;
        let mut probe = self.introspect("kernel");
        let run = drive_scatter_probed(node, &kernel, self.fetch, &mut probe);
        let resilience = run.stats.resilience;
        let result = (0..len)
            .map(|w| run.node.store().read_word(Addr::from_word_index(base + w)))
            .collect();
        SessionReport {
            cycles: run.cycles,
            skipped_cycles: run.skipped_cycles,
            node_stats: vec![run.stats],
            resilience,
            result,
            fetched: run.fetched,
            probe_lines: probe.recorder.take_lines(),
            adds,
            sum_back_lines: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(json: &str) -> FaultPlan {
        FaultPlan::parse(json).expect("valid plan")
    }

    #[test]
    fn builder_requires_a_workload() {
        assert!(Session::builder().build().unwrap_err().contains("workload"));
    }

    #[test]
    fn report_json_round_trip_is_exact() {
        let report = Session::builder()
            .workload(Workload::Histogram {
                base_word: 3,
                indices: (0..700u64).map(|i| (i * 17) % 96).collect(),
            })
            .probe(256)
            .fetch(true)
            .build()
            .expect("valid")
            .run();
        assert!(!report.probe_lines.is_empty());
        assert!(!report.fetched.is_empty());
        let doc = report.to_json();
        let back = SessionReport::from_json(&doc).expect("round trip");
        assert_eq!(back, report);
        // And through actual bytes.
        let reparsed = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(SessionReport::from_json(&reparsed).unwrap(), report);
    }

    #[test]
    fn cached_session_reproduces_the_run_without_simulating() {
        let dir = std::env::temp_dir().join(format!("sa-session-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).expect("cache dir"));
        let build = || {
            Session::builder()
                .workload(Workload::MultiNode {
                    nodes: 2,
                    network: NetworkConfig::low(),
                    combining: true,
                    topology: Topology::Flat,
                    trace: (0..400u64).map(|i| (i * 29) % 128).collect(),
                    values: (0..400).map(|i| 0.5 + (i % 5) as f64).collect(),
                })
                .cache(Arc::clone(&cache))
                .build()
                .expect("valid")
        };
        let cold = build().run();
        assert_eq!((cache.hits(), cache.misses(), cache.stores()), (0, 1, 1));
        let warm = build().run();
        assert_eq!(warm, cold, "a hit must reproduce the run exactly");
        assert_eq!((cache.hits(), cache.misses(), cache.stores()), (1, 1, 1));
        // Uncached run agrees byte-for-byte, proving the cache is exact.
        let uncached = Session::builder()
            .workload(Workload::MultiNode {
                nodes: 2,
                network: NetworkConfig::low(),
                combining: true,
                topology: Topology::Flat,
                trace: (0..400u64).map(|i| (i * 29) % 128).collect(),
                values: (0..400).map(|i| 0.5 + (i % 5) as f64).collect(),
            })
            .build()
            .expect("valid")
            .run();
        assert_eq!(uncached, cold);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_excludes_execution_irrelevant_knobs() {
        let workload = Workload::Histogram {
            base_word: 0,
            indices: vec![1, 2, 3],
        };
        let base = Session::builder()
            .workload(workload.clone())
            .build()
            .unwrap()
            .fingerprint()
            .digest();
        let stepped = Session::builder()
            .workload(workload.clone())
            .fast_forward(false)
            .build()
            .unwrap()
            .fingerprint()
            .digest();
        assert_eq!(base, stepped, "the ff knob must not change the key");
        let other = Session::builder()
            .workload(Workload::Histogram {
                base_word: 0,
                indices: vec![1, 2, 4],
            })
            .build()
            .unwrap()
            .fingerprint()
            .digest();
        assert_ne!(base, other, "workload bytes must change the key");
        let fetched = Session::builder()
            .workload(workload)
            .fetch(true)
            .build()
            .unwrap()
            .fingerprint()
            .digest();
        assert_ne!(base, fetched, "fetch mode changes the report, so the key");
    }

    #[test]
    fn builder_validates_lengths_and_topology() {
        let err = Session::builder()
            .workload(Workload::MultiNode {
                nodes: 3,
                network: NetworkConfig::low(),
                combining: true,
                topology: Topology::Hypercube,
                trace: vec![0],
                values: vec![1.0],
            })
            .build()
            .unwrap_err();
        assert!(err.contains("power-of-two"), "{err}");
        let err = Session::builder()
            .workload(Workload::MultiNode {
                nodes: 2,
                network: NetworkConfig::low(),
                combining: false,
                topology: Topology::Flat,
                trace: vec![0, 1],
                values: vec![1.0],
            })
            .build()
            .unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn histogram_session_matches_reference() {
        let indices = vec![0, 1, 1, 2, 1, 4, 4];
        let report = Session::builder()
            .workload(Workload::Histogram {
                base_word: 0,
                indices,
            })
            .build()
            .expect("valid")
            .run();
        assert_eq!(report.result, [1, 3, 1, 0, 2]);
        assert!(report.resilience.is_zero());
        assert!(report.cycles > 0);
    }

    #[test]
    fn report_exposes_bottleneck_attribution() {
        // Single node: the report groups under one "session" scope.
        let report = Session::builder()
            .workload(Workload::Histogram {
                base_word: 0,
                indices: (0..2048u64).map(|i| (i * 11) % 64).collect(),
            })
            .build()
            .expect("valid")
            .run();
        let section = report.bottleneck().expect("occupancy counters present");
        let run = section.get("session").expect("one report per session");
        let bound = run
            .get("bound")
            .and_then(sa_telemetry::Json::as_str)
            .expect("classified");
        assert!(sa_telemetry::BOUND_KINDS.contains(&bound), "{bound}");
        assert!(run.get("resources").is_some());

        // Multi node: per-node scopes fold into the same single report.
        let report = Session::builder()
            .workload(Workload::MultiNode {
                nodes: 2,
                network: NetworkConfig::low(),
                combining: false,
                topology: Topology::Flat,
                trace: (0..600u64).map(|i| (i * 13) % 128).collect(),
                values: vec![1.0; 600],
            })
            .build()
            .expect("valid")
            .run();
        let section = report.bottleneck().expect("multinode occupancy");
        assert!(section.get("session").is_some());
        assert_eq!(
            section.as_obj().map(<[_]>::len),
            Some(1),
            "node scopes must group into one session report"
        );
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_none() {
        let workload = Workload::Histogram {
            base_word: 0,
            indices: (0..512u64).map(|i| (i * 7) % 97).collect(),
        };
        let run = |faults: Option<FaultPlan>| {
            let mut b = Session::builder().workload(workload.clone());
            if let Some(p) = faults {
                b = b.faults(p);
            }
            b.build().expect("valid").run()
        };
        let none = run(None);
        let empty = run(Some(FaultPlan::empty()));
        assert_eq!(
            none, empty,
            "empty plan must cost nothing and change nothing"
        );
    }

    #[test]
    fn recoverable_faults_leave_results_bit_identical() {
        let workload = Workload::MultiNode {
            nodes: 4,
            network: NetworkConfig::low(),
            combining: false,
            topology: Topology::Flat,
            trace: (0..1500u64).map(|i| (i * 13) % 256).collect(),
            values: (0..1500).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect(),
        };
        let run = |faults: Option<FaultPlan>, ff: bool| {
            let mut b = Session::builder()
                .workload(workload.clone())
                .fast_forward(ff);
            if let Some(p) = faults {
                b = b.faults(p);
            }
            b.build().expect("valid").run()
        };
        let p = plan(
            r#"{"schema":"sa-faultplan","version":1,"seed":5,"cs_timeout":32,"faults":[
                {"kind":"net_nack","period":4,"max":30},
                {"kind":"net_drop","period":9,"max":15},
                {"kind":"ecc_single","period":6}
            ]}"#,
        );
        let clean = run(None, true);
        let faulty = run(Some(p.clone()), true);
        assert!(faulty.resilience.net_nacks > 0);
        assert!(faulty.resilience.net_dropped > 0);
        assert_eq!(
            clean.result, faulty.result,
            "recoverable faults must not change application results"
        );
        assert!(faulty.cycles > clean.cycles, "recovery costs cycles");
        // And the faulty run itself is invariant under fast-forward
        // (`skipped_cycles` is wall-clock accounting).
        let stepped = run(Some(p), false);
        assert_eq!(stepped.skipped_cycles, 0);
        assert_eq!(
            faulty,
            SessionReport {
                skipped_cycles: faulty.skipped_cycles,
                ..stepped
            }
        );
    }
}
