//! Unified telemetry layer for the scatter-add simulator.
//!
//! Five pieces, all dependency-free:
//!
//! * a hierarchical **metrics registry** ([`MetricsRegistry`]) keyed by
//!   dotted paths (`node0.cache.bank3.mshr_full`) holding counters, gauges,
//!   and fixed-bucket histograms;
//! * **cycle-sampled time series** ([`SeriesSet`]) for occupancies and
//!   utilizations, so stall phases are visible rather than just lifetime
//!   averages;
//! * an **event-trace sink** ([`TraceSink`]) with a zero-cost disabled
//!   implementation ([`NullTrace`]) and a Chrome `trace_event` JSON
//!   implementation ([`ChromeTrace`]) that opens in `chrome://tracing` and
//!   Perfetto;
//! * **request-lifecycle tracing** ([`ReqTracer`]): a 1-in-N sample of
//!   requests carries timestamped [`ReqStage`] records from address-generator
//!   issue to retirement, from which per-stage latency percentiles and an
//!   end-to-end attribution table are derived;
//! * a small **JSON** value type ([`Json`]) with a deterministic writer and a
//!   recursive-descent parser, used for the versioned `--stats-json` export
//!   (see [`stats_json`] / [`validate_stats_json`]).
//!
//! Everything is deterministic: map iteration is ordered (`BTreeMap`),
//! object keys keep insertion order, and float formatting uses Rust's
//! shortest-roundtrip `Display`, so two runs with identical inputs serialize
//! to byte-identical JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;

pub mod bottleneck;
pub mod probe;

pub use bottleneck::{
    attach_bottleneck, bottleneck_json, render_bottleneck, validate_bottleneck_json, OccClass,
    OccupancyStats, StallCause, BOUND_KINDS, STAGE_NAMES, STALL_CAUSES,
};
#[cfg(unix)]
pub use probe::ProbeListener;
pub use probe::{
    global_progress, progress_enabled, set_global_progress, validate_probe_json, HostProfiler,
    Inspectable, Introspect, ProbeRecorder, ProbeRegistry, Progress, PROBE_SCHEMA_NAME,
    PROBE_SCHEMA_VERSION,
};

/// Version stamped into every stats JSON document as `"version"`.
///
/// v2 added the optional `latency` (per-kernel per-stage percentiles from
/// [`ReqTracer`]) and `attribution` (per-kernel stall tables) sections.
/// v3 added `resilience.*` metric scopes (fault-injection recovery
/// counters), emitted only when a fault plan produced nonzero counts, so
/// fault-free documents differ from v2 only in this version field.
/// v4 added the optional `host_profile` sidecar (wall-clock attribution of
/// run-loop phases, opt-in via `--host-profile`), which is declared
/// nondeterministic: byte-determinism gates and `analyze --diff` exclude
/// it, and documents written without the flag differ from v3 only in this
/// version field.
/// v5 added per-resource occupancy counters (`occ_busy` / `occ_blocked` /
/// `occ_idle` / `occ_saturated` under every scatter-add unit, cache bank,
/// DRAM channel, and crossbar scope) and the optional derived `bottleneck`
/// section (see [`bottleneck::bottleneck_json`]): dominant-resource
/// classification, critical-path stage shares, and an analytic what-if
/// table. The section is deterministic and ordered before `host_profile`.
pub const STATS_SCHEMA_VERSION: u64 = 5;

/// Oldest stats schema version [`validate_stats_json`] still accepts.
///
/// Readers are backward compatible: every section added since v1 is
/// optional, so documents written by older tools (checked-in baselines,
/// archived runs) keep validating and diffing.
pub const STATS_SCHEMA_MIN_VERSION: u64 = 1;

/// Identifier stamped into every stats JSON document as `"schema"`.
pub const STATS_SCHEMA_NAME: &str = "sa-stats";

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// A fixed-bucket histogram metric.
///
/// Buckets are caller-defined; the common case in this workspace is eight
/// equal-width occupancy buckets (octiles of a queue's capacity). The
/// `scheme` string documents the bucketing so downstream tooling can label
/// axes without guessing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramMetric {
    /// Per-bucket observation counts.
    pub counts: Vec<u64>,
    /// Human-readable description of the bucketing scheme.
    pub scheme: String,
}

impl HistogramMetric {
    /// Histogram from raw bucket counts.
    pub fn from_counts(counts: &[u64], scheme: &str) -> HistogramMetric {
        HistogramMetric {
            counts: counts.to_vec(),
            scheme: scheme.to_string(),
        }
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise sum with another histogram of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the bucket counts differ in length.
    pub fn merge(&mut self, other: &HistogramMetric) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram bucket count mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A single metric value in the registry.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// Monotonic event count; repeated records sum.
    Counter(u64),
    /// Point-in-time or derived value; repeated records overwrite.
    Gauge(f64),
    /// Fixed-bucket histogram; repeated records merge element-wise.
    Histogram(HistogramMetric),
}

/// Hierarchical metrics registry keyed by dotted paths.
///
/// Paths follow `node<N>.<component>.<instance>.<metric>` by convention, e.g.
/// `node0.cache.bank3.mshr_full` or `node0.dram.chan12.row_hits`. Components
/// record into the registry through [`Scope`], which prefixes a path segment
/// so callers never concatenate strings by hand.
///
/// ```
/// use sa_telemetry::{Metric, MetricsRegistry};
///
/// let mut reg = MetricsRegistry::new();
/// let mut node = reg.scope("node0");
/// let mut bank = node.scope("cache.bank3");
/// bank.counter("read_hits", 41);
/// bank.counter("read_hits", 1); // counters accumulate
/// assert_eq!(
///     reg.get("node0.cache.bank3.read_hits"),
///     Some(&Metric::Counter(42))
/// );
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A recording scope that prefixes `prefix` (plus a dot) to every path.
    pub fn scope<'a>(&'a mut self, prefix: &str) -> Scope<'a> {
        Scope {
            registry: self,
            prefix: prefix.to_string(),
        }
    }

    /// Add `value` to the counter at `path`, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if `path` already holds a non-counter metric.
    pub fn counter(&mut self, path: &str, value: u64) {
        match self
            .metrics
            .entry(path.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += value,
            other => panic!("metric '{path}' is not a counter: {other:?}"),
        }
    }

    /// Set the gauge at `path`, overwriting any previous value.
    ///
    /// # Panics
    ///
    /// Panics if `path` already holds a non-gauge metric.
    pub fn gauge(&mut self, path: &str, value: f64) {
        match self
            .metrics
            .entry(path.to_string())
            .or_insert(Metric::Gauge(0.0))
        {
            Metric::Gauge(g) => *g = value,
            other => panic!("metric '{path}' is not a gauge: {other:?}"),
        }
    }

    /// Merge `hist` into the histogram at `path`.
    ///
    /// # Panics
    ///
    /// Panics if `path` already holds a non-histogram metric or one with a
    /// different bucket count.
    pub fn histogram(&mut self, path: &str, hist: &HistogramMetric) {
        match self.metrics.entry(path.to_string()) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(Metric::Histogram(hist.clone()));
            }
            std::collections::btree_map::Entry::Occupied(mut o) => match o.get_mut() {
                Metric::Histogram(h) => h.merge(hist),
                other => panic!("metric '{path}' is not a histogram: {other:?}"),
            },
        }
    }

    /// Look up a metric by its full path.
    pub fn get(&self, path: &str) -> Option<&Metric> {
        self.metrics.get(path)
    }

    /// The counter value at `path`, or zero if absent or not a counter.
    pub fn counter_value(&self, path: &str) -> u64 {
        match self.metrics.get(path) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Iterate metrics in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Serialize to a flat JSON object, keys in sorted order.
    ///
    /// Counters become JSON integers, gauges numbers, histograms objects of
    /// the form `{"buckets": [...], "scheme": "..."}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (path, metric) in &self.metrics {
            let value = match metric {
                Metric::Counter(c) => Json::UInt(*c),
                Metric::Gauge(g) => Json::Num(*g),
                Metric::Histogram(h) => {
                    let mut o = Json::obj();
                    o.push(
                        "buckets",
                        Json::Arr(h.counts.iter().map(|&c| Json::UInt(c)).collect()),
                    );
                    o.push("scheme", Json::Str(h.scheme.clone()));
                    o
                }
            };
            obj.push(path, value);
        }
        obj
    }

    /// Rebuild a registry from the object layout [`to_json`](Self::to_json)
    /// writes: integers become counters, floats gauges,
    /// `{"buckets", "scheme"}` objects histograms.
    ///
    /// Exact inverse: the writer appends `.0` to integral floats, so the
    /// counter/gauge distinction survives a JSON round-trip and
    /// `from_json(reg.to_json()) == reg` byte-for-byte.
    pub fn from_json(doc: &Json) -> Result<MetricsRegistry, String> {
        let obj = doc.as_obj().ok_or("metrics document is not an object")?;
        let mut reg = MetricsRegistry::new();
        for (path, value) in obj {
            match value {
                Json::UInt(c) => reg.counter(path, *c),
                Json::Int(c) if *c >= 0 => reg.counter(path, *c as u64),
                Json::Num(g) => reg.gauge(path, *g),
                Json::Obj(_) => {
                    let buckets = value
                        .get("buckets")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("metric '{path}': missing 'buckets'"))?;
                    let counts: Vec<u64> = buckets
                        .iter()
                        .map(|b| {
                            b.as_u64()
                                .ok_or_else(|| format!("metric '{path}': non-u64 bucket"))
                        })
                        .collect::<Result<_, _>>()?;
                    let scheme = value
                        .get("scheme")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("metric '{path}': missing 'scheme'"))?;
                    reg.histogram(path, &HistogramMetric::from_counts(&counts, scheme));
                }
                other => {
                    return Err(format!("metric '{path}': unsupported value {other:?}"));
                }
            }
        }
        Ok(reg)
    }

    /// Fold `other` into `self` with each metric kind's record semantics:
    /// counters add, gauges overwrite, histograms merge element-wise.
    ///
    /// Replaying per-point registries in point order therefore reproduces
    /// exactly what recording those points directly would have produced —
    /// the property the result cache's sweep integration relies on.
    ///
    /// # Panics
    ///
    /// Panics if a path holds different metric kinds in the two registries.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (path, metric) in other.iter() {
            match metric {
                Metric::Counter(c) => self.counter(path, *c),
                Metric::Gauge(g) => self.gauge(path, *g),
                Metric::Histogram(h) => self.histogram(path, h),
            }
        }
    }
}

/// A prefix-scoped view of a [`MetricsRegistry`].
pub struct Scope<'a> {
    registry: &'a mut MetricsRegistry,
    prefix: String,
}

impl Scope<'_> {
    /// A child scope nested one level deeper.
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        Scope {
            registry: self.registry,
            prefix: format!("{}.{}", self.prefix, name),
        }
    }

    /// Full registry path for `name` under this scope.
    pub fn path(&self, name: &str) -> String {
        format!("{}.{}", self.prefix, name)
    }

    /// Add to a counter under this scope.
    pub fn counter(&mut self, name: &str, value: u64) {
        let path = self.path(name);
        self.registry.counter(&path, value);
    }

    /// Set a gauge under this scope.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let path = self.path(name);
        self.registry.gauge(&path, value);
    }

    /// Merge a histogram under this scope.
    pub fn histogram(&mut self, name: &str, hist: &HistogramMetric) {
        let path = self.path(name);
        self.registry.histogram(&path, hist);
    }
}

// ---------------------------------------------------------------------------
// Cycle-sampled time series
// ---------------------------------------------------------------------------

/// Named time series sampled at a fixed cycle interval.
///
/// Components push one point per series per sample tick; the set remembers
/// the interval so exported JSON is self-describing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesSet {
    interval: u64,
    series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl SeriesSet {
    /// An empty set sampling every `interval` cycles (0 = sampling disabled).
    pub fn new(interval: u64) -> SeriesSet {
        SeriesSet {
            interval,
            series: BTreeMap::new(),
        }
    }

    /// The configured sampling interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Append a `(cycle, value)` point to the series named `name`.
    pub fn push(&mut self, name: &str, cycle: u64, value: f64) {
        self.series
            .entry(name.to_string())
            .or_default()
            .push((cycle, value));
    }

    /// Iterate series in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[(u64, f64)])> {
        self.series.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no series have been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Serialize as `{"interval": N, "series": {name: [[cycle, value], ...]}}`.
    pub fn to_json(&self) -> Json {
        let mut names = Json::obj();
        for (name, points) in &self.series {
            names.push(
                name,
                Json::Arr(
                    points
                        .iter()
                        .map(|&(c, v)| Json::Arr(vec![Json::UInt(c), Json::Num(v)]))
                        .collect(),
                ),
            );
        }
        let mut obj = Json::obj();
        obj.push("interval", Json::UInt(self.interval));
        obj.push("series", names);
        obj
    }

    /// Rebuild a set from the layout [`to_json`](Self::to_json) writes.
    /// Exact inverse (cycle is a `u64`, value round-trips bit-exactly), so
    /// cached series re-serialize to identical bytes.
    pub fn from_json(doc: &Json) -> Result<SeriesSet, String> {
        let interval = doc
            .get("interval")
            .and_then(Json::as_u64)
            .ok_or("series document: missing 'interval'")?;
        let mut set = SeriesSet::new(interval);
        let names = doc
            .get("series")
            .and_then(Json::as_obj)
            .ok_or("series document: missing 'series' object")?;
        for (name, points) in names {
            let points = points
                .as_arr()
                .ok_or_else(|| format!("series '{name}': not an array"))?;
            for point in points {
                let pair = point
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("series '{name}': point is not a pair"))?;
                let cycle = pair[0]
                    .as_u64()
                    .ok_or_else(|| format!("series '{name}': non-u64 cycle"))?;
                let value = pair[1]
                    .as_f64()
                    .ok_or_else(|| format!("series '{name}': non-f64 value"))?;
                set.push(name, cycle, value);
            }
        }
        Ok(set)
    }
}

// ---------------------------------------------------------------------------
// Trace sinks
// ---------------------------------------------------------------------------

/// Event-trace sink threaded through the hot simulation loop.
///
/// Implementations are selected at compile time (the simulator is generic
/// over `T: TraceSink`), so with [`NullTrace`] every call monomorphizes to an
/// empty inline function and the loop pays nothing. Guard any work needed to
/// *compute* an event's arguments behind [`TraceSink::enabled`] (or the
/// associated const `ENABLED`).
pub trait TraceSink {
    /// Compile-time flag: `false` only for the no-op sink.
    const ENABLED: bool = true;

    /// Runtime mirror of [`Self::ENABLED`].
    #[inline]
    fn enabled(&self) -> bool {
        Self::ENABLED
    }

    /// Record a counter sample on `track` (one Perfetto counter track per
    /// distinct `track.name` pair).
    fn counter(&mut self, track: &str, name: &str, cycle: u64, value: f64);

    /// Record a span `[start, end)` on `track`.
    fn span(&mut self, track: &str, name: &str, start: u64, end: u64);

    /// Record an instantaneous event on `track`.
    fn instant(&mut self, track: &str, name: &str, cycle: u64);
}

/// The always-off sink; all methods compile to nothing.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NullTrace;

impl TraceSink for NullTrace {
    const ENABLED: bool = false;

    #[inline]
    fn counter(&mut self, _track: &str, _name: &str, _cycle: u64, _value: f64) {}

    #[inline]
    fn span(&mut self, _track: &str, _name: &str, _start: u64, _end: u64) {}

    #[inline]
    fn instant(&mut self, _track: &str, _name: &str, _cycle: u64) {}
}

/// Forwarding impl so callers can pass `&mut sink` down a call tree.
impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn counter(&mut self, track: &str, name: &str, cycle: u64, value: f64) {
        (**self).counter(track, name, cycle, value);
    }

    #[inline]
    fn span(&mut self, track: &str, name: &str, start: u64, end: u64) {
        (**self).span(track, name, start, end);
    }

    #[inline]
    fn instant(&mut self, track: &str, name: &str, cycle: u64) {
        (**self).instant(track, name, cycle);
    }
}

/// Chrome `trace_event` JSON sink.
///
/// Tracks map to threads: the first event on a track allocates a `tid` and
/// emits a `thread_name` metadata event, so Perfetto and `chrome://tracing`
/// show one named row per track. Counter samples use `"ph":"C"` with the
/// counter name `track.name`, which renders as one counter track per
/// instance (bank, channel, cluster). Timestamps are simulated cycles
/// reported in the trace's microsecond field.
#[derive(Clone, Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
    tracks: BTreeMap<String, u64>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    fn tid(&mut self, track: &str) -> u64 {
        if let Some(&tid) = self.tracks.get(track) {
            return tid;
        }
        let tid = self.tracks.len() as u64 + 1;
        self.tracks.insert(track.to_string(), tid);
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            Json::Str(track.to_string()).to_string_compact()
        ));
        tid
    }

    /// Number of events recorded (excluding track metadata).
    pub fn event_count(&self) -> usize {
        self.events.len() - self.tracks.len()
    }

    /// The full trace as a JSON string (`{"traceEvents": [...]}`).
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(ev);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write the trace to `path`.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(self.to_json_string().as_bytes())
    }
}

impl TraceSink for ChromeTrace {
    fn counter(&mut self, track: &str, name: &str, cycle: u64, value: f64) {
        let tid = self.tid(track);
        let counter = Json::Str(format!("{track}.{name}")).to_string_compact();
        let value = Json::Num(value).to_string_compact();
        self.events.push(format!(
            "{{\"ph\":\"C\",\"name\":{counter},\"pid\":0,\"tid\":{tid},\
             \"ts\":{cycle},\"args\":{{\"value\":{value}}}}}"
        ));
    }

    fn span(&mut self, track: &str, name: &str, start: u64, end: u64) {
        let tid = self.tid(track);
        let name = Json::Str(name.to_string()).to_string_compact();
        let dur = end.saturating_sub(start).max(1);
        self.events.push(format!(
            "{{\"ph\":\"X\",\"name\":{name},\"pid\":0,\"tid\":{tid},\
             \"ts\":{start},\"dur\":{dur}}}"
        ));
    }

    fn instant(&mut self, track: &str, name: &str, cycle: u64) {
        let tid = self.tid(track);
        let name = Json::Str(name.to_string()).to_string_compact();
        self.events.push(format!(
            "{{\"ph\":\"i\",\"name\":{name},\"pid\":0,\"tid\":{tid},\
             \"ts\":{cycle},\"s\":\"t\"}}"
        ));
    }
}

// ---------------------------------------------------------------------------
// Request-lifecycle tracing
// ---------------------------------------------------------------------------

/// Lifecycle stages of a memory/scatter-add request, in pipeline order.
///
/// Not every request visits every stage: a read hit never touches the MSHR
/// file or DRAM, a combined scatter-add never issues its own fill, and the
/// crossbar only appears on multi-node runs. Stage *durations* are derived
/// from consecutive stamps, so absent stages simply contribute nothing.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReqStage {
    /// Presented by the address generator (first injection attempt).
    Issued,
    /// Accepted into a bank input queue.
    Enqueued,
    /// Injected into the inter-node crossbar (multi-node runs only).
    Crossbar,
    /// Won cache-bank arbitration (the bank port accepted the access).
    BankArb,
    /// Allocated or merged into an MSHR (cache miss path).
    Mshr,
    /// Accepted into the combining store of a scatter-add unit.
    CombStore,
    /// Entered the scatter-add functional-unit pipeline.
    FuPipe,
    /// Submitted to a DRAM channel.
    Dram,
    /// Reply delivered / acknowledgement posted.
    Retired,
}

impl ReqStage {
    /// All stages in pipeline order.
    pub const ALL: [ReqStage; 9] = [
        ReqStage::Issued,
        ReqStage::Enqueued,
        ReqStage::Crossbar,
        ReqStage::BankArb,
        ReqStage::Mshr,
        ReqStage::CombStore,
        ReqStage::FuPipe,
        ReqStage::Dram,
        ReqStage::Retired,
    ];

    /// Stable snake_case name used in stats documents and trace spans.
    /// Indexes the shared [`STAGE_NAMES`] table (one source of truth with
    /// the attribution renderers).
    pub fn name(self) -> &'static str {
        STAGE_NAMES[self as usize]
    }
}

/// The timestamped lifecycle of one sampled request.
///
/// Stamps are appended in simulation order, so their cycles are monotonically
/// non-decreasing; each stage appears at most once (the first occurrence
/// wins, which makes retried operations measure their *initial* attempt).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReqRecord {
    /// The request id (`MemRequest::id` in `sa-sim` terms).
    pub id: u64,
    /// The node whose address generator issued the request.
    pub node: usize,
    /// `(stage, cycle)` stamps in the order they occurred.
    pub stamps: Vec<(ReqStage, u64)>,
}

impl ReqRecord {
    fn add_stamp(&mut self, stage: ReqStage, cycle: u64) {
        if !self.stamps.iter().any(|&(s, _)| s == stage) {
            self.stamps.push((stage, cycle));
        }
    }

    /// The cycle a stage was stamped, if the request visited it.
    pub fn stamp_at(&self, stage: ReqStage) -> Option<u64> {
        self.stamps
            .iter()
            .find(|&&(s, _)| s == stage)
            .map(|&(_, c)| c)
    }

    /// Whether a [`ReqStage::Retired`] stamp is present.
    pub fn is_retired(&self) -> bool {
        self.stamp_at(ReqStage::Retired).is_some()
    }

    /// Cycles from the first stamp to the last.
    pub fn end_to_end(&self) -> u64 {
        match (self.stamps.first(), self.stamps.last()) {
            (Some(&(_, first)), Some(&(_, last))) => last.saturating_sub(first),
            _ => 0,
        }
    }
}

/// Records the lifecycle of a deterministic 1-in-N sample of requests.
///
/// The tracer is runtime-gated rather than monomorphized: with `sample == 0`
/// (the [`ReqTracer::off`] default) every call short-circuits on a single
/// integer compare, so the hot loop pays nothing when request tracing is
/// disabled. Sampling selects ids with `id % sample == 0`, which is
/// deterministic and independent of timing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReqTracer {
    sample: u64,
    live: BTreeMap<u64, ReqRecord>,
    retired: BTreeMap<u64, ReqRecord>,
}

impl ReqTracer {
    /// A disabled tracer; every call is a no-op.
    pub fn off() -> ReqTracer {
        ReqTracer::default()
    }

    /// A tracer sampling one in `sample` requests (0 disables).
    pub fn every(sample: u64) -> ReqTracer {
        ReqTracer {
            sample,
            live: BTreeMap::new(),
            retired: BTreeMap::new(),
        }
    }

    /// The sampling interval (0 = off).
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// Whether any request will be recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.sample != 0
    }

    /// Whether `id` falls in the sample.
    #[inline]
    pub fn wants(&self, id: u64) -> bool {
        self.sample != 0 && id.is_multiple_of(self.sample)
    }

    /// Begin a record for `id` with an [`ReqStage::Issued`] stamp.
    ///
    /// Idempotent: re-issuing a live or already-retired id (a retried
    /// injection) is a no-op, so the stamp reflects the first attempt.
    #[inline]
    pub fn issue(&mut self, id: u64, node: usize, cycle: u64) {
        if !self.wants(id) {
            return;
        }
        self.issue_slow(id, node, cycle);
    }

    fn issue_slow(&mut self, id: u64, node: usize, cycle: u64) {
        if self.retired.contains_key(&id) {
            return;
        }
        self.live.entry(id).or_insert_with(|| ReqRecord {
            id,
            node,
            stamps: vec![(ReqStage::Issued, cycle)],
        });
    }

    /// Stamp `stage` on a live record; first occurrence wins. No-op for ids
    /// outside the sample or not (or no longer) live, so repurposed ids that
    /// outlive their request are harmless.
    #[inline]
    pub fn stamp(&mut self, id: u64, stage: ReqStage, cycle: u64) {
        if self.sample == 0 {
            return;
        }
        if let Some(rec) = self.live.get_mut(&id) {
            rec.add_stamp(stage, cycle);
        }
    }

    /// Move a live record to the retired set with a [`ReqStage::Retired`]
    /// stamp, returning it for streaming span emission.
    #[inline]
    pub fn retire(&mut self, id: u64, cycle: u64) -> Option<&ReqRecord> {
        if self.sample == 0 {
            return None;
        }
        let mut rec = self.live.remove(&id)?;
        rec.add_stamp(ReqStage::Retired, cycle);
        Some(self.retired.entry(id).or_insert(rec))
    }

    /// Number of sampled requests issued (live + retired).
    pub fn issued_len(&self) -> u64 {
        (self.live.len() + self.retired.len()) as u64
    }

    /// Number of sampled requests still in flight.
    pub fn live_len(&self) -> u64 {
        self.live.len() as u64
    }

    /// Number of sampled requests retired.
    pub fn retired_len(&self) -> u64 {
        self.retired.len() as u64
    }

    /// Retired records in ascending id order.
    pub fn retired_records(&self) -> impl Iterator<Item = &ReqRecord> {
        self.retired.values()
    }

    /// Merge another tracer's records into this one (multi-node runs, where
    /// each node stamps the portion of a request's life it observes).
    ///
    /// Records with the same id are combined: stamps are concatenated,
    /// stably sorted by cycle, and deduplicated per stage keeping the
    /// earliest. A record is retired iff either side saw retirement.
    pub fn absorb(&mut self, other: ReqTracer) {
        if other.sample != 0 && self.sample == 0 {
            self.sample = other.sample;
        }
        for rec in other.live.into_values().chain(other.retired.into_values()) {
            let id = rec.id;
            let existing = match self.live.remove(&id) {
                Some(e) => Some(e),
                None => self.retired.remove(&id),
            };
            let merged = match existing {
                None => rec,
                Some(mut e) => {
                    e.stamps.extend(rec.stamps);
                    e.stamps.sort_by_key(|&(_, c)| c);
                    let mut seen = Vec::new();
                    e.stamps.retain(|&(s, _)| {
                        if seen.contains(&s) {
                            false
                        } else {
                            seen.push(s);
                            true
                        }
                    });
                    e
                }
            };
            if merged.is_retired() {
                self.retired.insert(id, merged);
            } else {
                self.live.insert(id, merged);
            }
        }
    }

    /// The per-stage and end-to-end latency report over retired records, as
    /// the `latency.<kernel>` object of a v2 stats document.
    ///
    /// A stage's duration in one record is the gap to the *next* stamp; its
    /// `share_pct` is the stage's summed duration as a percentage of the
    /// summed end-to-end latency — the critical-path attribution table.
    pub fn latency_json(&self) -> Json {
        let mut per_stage: Vec<Vec<u64>> = vec![Vec::new(); ReqStage::ALL.len()];
        let mut end_to_end: Vec<u64> = Vec::new();
        for rec in self.retired.values() {
            for pair in rec.stamps.windows(2) {
                let (stage, start) = pair[0];
                let (_, end) = pair[1];
                per_stage[stage as usize].push(end.saturating_sub(start));
            }
            end_to_end.push(rec.end_to_end());
        }
        let total_e2e: u64 = end_to_end.iter().sum();
        let mut stages = Json::obj();
        for stage in ReqStage::ALL {
            let durations = std::mem::take(&mut per_stage[stage as usize]);
            if let Some(summary) = LatencySummary::from_durations(durations) {
                let mut o = summary.to_json();
                let share = if total_e2e == 0 {
                    0.0
                } else {
                    summary.total as f64 * 100.0 / total_e2e as f64
                };
                o.push("share_pct", Json::Num(share));
                stages.push(stage.name(), o);
            }
        }
        let mut out = Json::obj();
        out.push("sample", Json::UInt(self.sample));
        out.push("issued", Json::UInt(self.issued_len()));
        out.push("retired", Json::UInt(self.retired_len()));
        out.push("stages", stages);
        if let Some(summary) = LatencySummary::from_durations(end_to_end) {
            out.push("end_to_end", summary.to_json());
        }
        out
    }
}

/// Percentile summary of a set of cycle durations.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub total: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
}

impl LatencySummary {
    /// Summarize `durations` (consumed and sorted); `None` if empty.
    ///
    /// Percentiles use the nearest-rank index `(len - 1) * p / 100` on the
    /// sorted data, so `p50` of a single observation is that observation.
    pub fn from_durations(mut durations: Vec<u64>) -> Option<LatencySummary> {
        if durations.is_empty() {
            return None;
        }
        durations.sort_unstable();
        let idx = |p: u64| durations[((durations.len() - 1) as u64 * p / 100) as usize];
        Some(LatencySummary {
            count: durations.len() as u64,
            total: durations.iter().sum(),
            p50: idx(50),
            p90: idx(90),
            p99: idx(99),
            max: *durations.last().expect("nonempty"),
        })
    }

    /// As a `{"count", "total", "p50", "p90", "p99", "max"}` object.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("count", Json::UInt(self.count));
        o.push("total", Json::UInt(self.total));
        o.push("p50", Json::UInt(self.p50));
        o.push("p90", Json::UInt(self.p90));
        o.push("p99", Json::UInt(self.p99));
        o.push("max", Json::UInt(self.max));
        o
    }
}

/// Emit one span per stage of `record` onto `sink`, on the per-request track
/// `node<N>.req<ID>`.
///
/// The node id in the track name keeps multi-node traces from interleaving
/// requests of different nodes into one Perfetto lane.
pub fn emit_req_spans<T: TraceSink>(record: &ReqRecord, sink: &mut T) {
    if !sink.enabled() {
        return;
    }
    let track = format!("node{}.req{}", record.node, record.id);
    for pair in record.stamps.windows(2) {
        let (stage, start) = pair[0];
        let (_, end) = pair[1];
        sink.span(&track, stage.name(), start, end);
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A JSON value with deterministic serialization.
///
/// Integers keep their signedness ([`Json::Int`]/[`Json::UInt`]) so counters
/// round-trip exactly; objects preserve insertion order. Non-finite floats
/// serialize as `null`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counters).
    UInt(u64),
    /// Floating-point number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            other => panic!("Json::push on non-object: {other:?}"),
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's key/value pairs if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest round-trip Display; force a fractional part so
                    // the value parses back as a float, not an integer.
                    let start = out.len();
                    let _ = write!(out, "{n}");
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write_compact(out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        const PAD: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=indent {
                        out.push_str(PAD);
                    }
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                for _ in 0..indent {
                    out.push_str(PAD);
                }
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=indent {
                        out.push_str(PAD);
                    }
                    Json::Str(k.clone()).write_compact(out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                for _ in 0..indent {
                    out.push_str(PAD);
                }
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Serialize without whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parse a JSON document. Arrays and objects may nest at most 128
    /// levels deep; deeper input is an error, never a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. Every document
/// this workspace writes stays far below it.
const MAX_JSON_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let tok = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if tok.is_empty() {
        return Err(format!("expected value at byte {start}"));
    }
    if !tok.contains(['.', 'e', 'E']) {
        if let Ok(i) = tok.parse::<i64>() {
            return Ok(if i >= 0 {
                Json::UInt(i as u64)
            } else {
                Json::Int(i)
            });
        }
        if let Ok(u) = tok.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
    }
    tok.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{tok}' at byte {start}"))
}

// ---------------------------------------------------------------------------
// Versioned stats documents
// ---------------------------------------------------------------------------

/// Assemble a versioned stats document.
///
/// Layout:
///
/// ```json
/// {
///   "schema": "sa-stats",
///   "version": 3,
///   "bench": "fig6",
///   "config": { ... },
///   "metrics": { "node0.cache.bank0.read_hits": 123, ... },
///   "series": { "interval": 256, "series": { ... } },
///   "latency": { "<kernel>": { "sample": 64, "stages": { ... }, ... } },
///   "attribution": { "<kernel>": { "cycles": 1234, "mshr_full": { ... } } },
///   "rows": [ {"label": "...", "cells": {"col": "val"}}, ... ]
/// }
/// ```
///
/// `latency` and `attribution` (new in v2) are optional; [`stats_json`]
/// omits them, [`stats_json_with`] takes them explicitly.
pub fn stats_json(
    bench: &str,
    config: Json,
    metrics: &MetricsRegistry,
    series: Option<&SeriesSet>,
    rows: Json,
) -> Json {
    stats_json_with(bench, config, metrics, series, None, None, rows)
}

/// [`stats_json`] plus the v2 `latency` and `attribution` sections: objects
/// keyed by kernel name holding [`ReqTracer::latency_json`] reports and
/// stall-attribution tables respectively.
pub fn stats_json_with(
    bench: &str,
    config: Json,
    metrics: &MetricsRegistry,
    series: Option<&SeriesSet>,
    latency: Option<Json>,
    attribution: Option<Json>,
    rows: Json,
) -> Json {
    stats_json_full(
        bench,
        config,
        metrics,
        series,
        latency,
        attribution,
        None,
        rows,
    )
}

/// [`stats_json_with`] plus the v4 `host_profile` sidecar: a
/// [`HostProfiler::to_json`] report attributing host wall-clock to run-loop
/// phases. The sidecar is nondeterministic by declaration — timing-metric
/// extraction ([`crate`]-external diff tooling) and byte-determinism gates
/// must exclude it, which is why it is opt-in rather than always present.
#[allow(clippy::too_many_arguments)]
pub fn stats_json_full(
    bench: &str,
    config: Json,
    metrics: &MetricsRegistry,
    series: Option<&SeriesSet>,
    latency: Option<Json>,
    attribution: Option<Json>,
    host_profile: Option<Json>,
    rows: Json,
) -> Json {
    let mut doc = Json::obj();
    doc.push("schema", Json::Str(STATS_SCHEMA_NAME.to_string()));
    doc.push("version", Json::UInt(STATS_SCHEMA_VERSION));
    doc.push("bench", Json::Str(bench.to_string()));
    doc.push("config", config);
    doc.push("metrics", metrics.to_json());
    if let Some(s) = series {
        doc.push("series", s.to_json());
    }
    if let Some(l) = latency {
        doc.push("latency", l);
    }
    if let Some(a) = attribution {
        doc.push("attribution", a);
    }
    if let Some(h) = host_profile {
        doc.push("host_profile", h);
    }
    doc.push("rows", rows);
    doc
}

/// Structural schema check for a stats document produced by [`stats_json`].
///
/// Verifies the schema tag and version, that `bench` is a string, that
/// `metrics` is an object whose values are numbers or `{buckets, scheme}`
/// histogram objects, that `series` (if present) is well-formed, and that
/// `rows` is an array of objects. Returns a description of the first
/// violation found.
pub fn validate_stats_json(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema'")?;
    if schema != STATS_SCHEMA_NAME {
        return Err(format!(
            "schema is '{schema}', expected '{STATS_SCHEMA_NAME}'"
        ));
    }
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("missing 'version'")?;
    if !(STATS_SCHEMA_MIN_VERSION..=STATS_SCHEMA_VERSION).contains(&version) {
        return Err(format!(
            "version is {version}, expected {STATS_SCHEMA_MIN_VERSION}..={STATS_SCHEMA_VERSION}"
        ));
    }
    doc.get("bench")
        .and_then(Json::as_str)
        .ok_or("missing 'bench'")?;
    doc.get("config").ok_or("missing 'config'")?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("'metrics' missing or not an object")?;
    for (path, value) in metrics {
        let ok = value.as_f64().is_some()
            || value
                .get("buckets")
                .and_then(Json::as_arr)
                .is_some_and(|b| b.iter().all(|x| x.as_u64().is_some()));
        if !ok {
            return Err(format!("metric '{path}' is neither numeric nor histogram"));
        }
    }
    if let Some(series) = doc.get("series") {
        series
            .get("interval")
            .and_then(Json::as_u64)
            .ok_or("'series.interval' missing")?;
        let names = series
            .get("series")
            .and_then(Json::as_obj)
            .ok_or("'series.series' missing or not an object")?;
        for (name, points) in names {
            let points = points
                .as_arr()
                .ok_or_else(|| format!("series '{name}' is not an array"))?;
            for p in points {
                let ok = p.as_arr().is_some_and(|pair| {
                    pair.len() == 2 && pair[0].as_u64().is_some() && pair[1].as_f64().is_some()
                });
                if !ok {
                    return Err(format!("series '{name}' has a malformed point"));
                }
            }
        }
    }
    if let Some(latency) = doc.get("latency") {
        let kernels = latency.as_obj().ok_or("'latency' is not an object")?;
        for (kernel, report) in kernels {
            for field in ["sample", "issued", "retired"] {
                report
                    .get(field)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("latency '{kernel}' missing numeric '{field}'"))?;
            }
            let stages = report
                .get("stages")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("latency '{kernel}' missing 'stages' object"))?;
            let summaries = stages
                .iter()
                .map(|(n, s)| (n.as_str(), s))
                .chain(report.get("end_to_end").map(|s| ("end_to_end", s)));
            for (name, summary) in summaries {
                for field in ["count", "total", "p50", "p90", "p99", "max"] {
                    summary.get(field).and_then(Json::as_u64).ok_or_else(|| {
                        format!("latency '{kernel}.{name}' missing numeric '{field}'")
                    })?;
                }
            }
        }
    }
    if let Some(attribution) = doc.get("attribution") {
        let kernels = attribution
            .as_obj()
            .ok_or("'attribution' is not an object")?;
        for (kernel, table) in kernels {
            table
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("attribution '{kernel}' missing numeric 'cycles'"))?;
            for (cause, entry) in table.as_obj().into_iter().flatten() {
                if cause == "cycles" {
                    continue;
                }
                let ok = entry.get("events").and_then(Json::as_u64).is_some()
                    && entry.get("pct").and_then(Json::as_f64).is_some();
                if !ok {
                    return Err(format!(
                        "attribution '{kernel}.{cause}' is not an {{events, pct}} object"
                    ));
                }
            }
        }
    }
    if let Some(bottleneck) = doc.get("bottleneck") {
        validate_bottleneck_json(bottleneck)?;
    }
    if let Some(profile) = doc.get("host_profile") {
        profile
            .get("total_ns")
            .and_then(Json::as_u64)
            .ok_or("'host_profile' missing numeric 'total_ns'")?;
        let phases = profile
            .get("phases")
            .and_then(Json::as_obj)
            .ok_or("'host_profile.phases' missing or not an object")?;
        for (phase, entry) in phases {
            let ok = entry.get("calls").and_then(Json::as_u64).is_some()
                && entry.get("ns").and_then(Json::as_u64).is_some()
                && entry.get("pct").and_then(Json::as_f64).is_some();
            if !ok {
                return Err(format!(
                    "host_profile phase '{phase}' is not a {{calls, ns, pct}} object"
                ));
            }
        }
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("'rows' missing or not an array")?;
    for row in rows {
        if row.as_obj().is_none() {
            return Err("row is not an object".to_string());
        }
    }
    Ok(())
}

/// Whether any metric path in `doc` contains `needle` (substring match).
pub fn has_metric_matching(doc: &Json, needle: &str) -> bool {
    doc.get("metrics")
        .and_then(Json::as_obj)
        .is_some_and(|m| m.iter().any(|(path, _)| path.contains(needle)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nesting deeper"), "{e}");
        // Far beyond any stack: an error, not an abort.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn registry_counters_accumulate_and_sort() {
        let mut reg = MetricsRegistry::new();
        reg.counter("b.second", 2);
        reg.counter("a.first", 1);
        reg.counter("b.second", 3);
        let paths: Vec<&str> = reg.iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["a.first", "b.second"]);
        assert_eq!(reg.counter_value("b.second"), 5);
        assert_eq!(reg.counter_value("absent"), 0);
    }

    #[test]
    fn scope_nesting_builds_paths() {
        let mut reg = MetricsRegistry::new();
        {
            let mut node = reg.scope("node0");
            let mut bank = node.scope("cache.bank3");
            bank.counter("mshr_full", 7);
            bank.gauge("hit_rate", 0.5);
        }
        assert_eq!(
            reg.get("node0.cache.bank3.mshr_full"),
            Some(&Metric::Counter(7))
        );
        assert_eq!(
            reg.get("node0.cache.bank3.hit_rate"),
            Some(&Metric::Gauge(0.5))
        );
    }

    #[test]
    fn histograms_merge_elementwise() {
        let mut reg = MetricsRegistry::new();
        let h1 = HistogramMetric::from_counts(&[1, 0, 2], "octile");
        let h2 = HistogramMetric::from_counts(&[0, 5, 1], "octile");
        reg.histogram("q.occ", &h1);
        reg.histogram("q.occ", &h2);
        match reg.get("q.occ") {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.counts, vec![1, 5, 3]);
                assert_eq!(h.total(), 9);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_confusion_panics() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("x", 1.0);
        reg.counter("x", 1);
    }

    #[test]
    fn series_round_trip() {
        let mut s = SeriesSet::new(64);
        s.push("node0.sa.occupancy", 0, 0.0);
        s.push("node0.sa.occupancy", 64, 3.5);
        let json = s.to_json();
        assert_eq!(json.get("interval").and_then(Json::as_u64), Some(64));
        let pts = json
            .get("series")
            .and_then(|n| n.get("node0.sa.occupancy"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn null_trace_is_disabled() {
        const { assert!(!NullTrace::ENABLED) }
        assert!(!NullTrace.enabled());
        let mut t = NullTrace;
        t.counter("x", "y", 0, 1.0);
        t.span("x", "y", 0, 5);
        t.instant("x", "y", 0);
    }

    #[test]
    fn chrome_trace_names_tracks() {
        let mut t = ChromeTrace::new();
        t.counter("node0.cache.bank0", "occupancy", 0, 1.0);
        t.counter("node0.cache.bank1", "occupancy", 0, 2.0);
        t.counter("node0.cache.bank0", "occupancy", 64, 3.0);
        t.span("node0.dram.chan0", "burst", 10, 20);
        let text = t.to_json_string();
        let doc = Json::parse(&text).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let metas = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        assert_eq!(metas, 3, "one thread_name per track");
        let counters: std::collections::BTreeSet<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(counters.len(), 2, "one counter name per bank");
        assert_eq!(t.event_count(), 4);
    }

    #[test]
    fn json_round_trip() {
        let mut obj = Json::obj();
        obj.push("a", Json::UInt(42));
        obj.push("b", Json::Int(-7));
        obj.push("c", Json::Num(0.25));
        obj.push("d", Json::Str("hi \"there\"\n".to_string()));
        obj.push("e", Json::Arr(vec![Json::Bool(true), Json::Null]));
        let text = obj.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("a").and_then(Json::as_u64), Some(42));
        assert_eq!(back.get("b"), Some(&Json::Int(-7)));
        assert_eq!(back.get("c").and_then(Json::as_f64), Some(0.25));
        assert_eq!(back.get("d").and_then(Json::as_str), Some("hi \"there\"\n"));
        assert_eq!(
            back.get("e").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn json_num_always_has_fraction() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3.0");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::parse("3").unwrap(), Json::UInt(3));
        assert_eq!(Json::parse("-3").unwrap(), Json::Int(-3));
    }

    #[test]
    fn stats_doc_validates() {
        let mut reg = MetricsRegistry::new();
        reg.counter("node0.sa.accepted", 10);
        reg.gauge("node0.cache.hit_rate", 0.9);
        reg.histogram(
            "node0.queue.bank_in.occ",
            &HistogramMetric::from_counts(&[1, 2], "octile"),
        );
        let mut series = SeriesSet::new(16);
        series.push("node0.dram.util", 16, 0.5);
        let doc = stats_json(
            "fig6",
            Json::obj(),
            &reg,
            Some(&series),
            Json::Arr(vec![Json::obj()]),
        );
        validate_stats_json(&doc).expect("valid");
        assert!(has_metric_matching(&doc, ".sa."));
        assert!(has_metric_matching(&doc, ".cache."));
        assert!(!has_metric_matching(&doc, ".net."));
        // Round-trip through text stays valid.
        let back = Json::parse(&doc.to_string_pretty()).unwrap();
        validate_stats_json(&back).expect("valid after round-trip");
    }

    #[test]
    fn stats_doc_rejects_bad_version() {
        let mut doc = Json::obj();
        doc.push("schema", Json::Str("sa-stats".to_string()));
        doc.push("version", Json::UInt(99));
        assert!(validate_stats_json(&doc).unwrap_err().contains("version"));
    }

    #[test]
    fn req_tracer_off_is_inert() {
        let mut t = ReqTracer::off();
        assert!(!t.is_on());
        t.issue(0, 0, 5);
        t.stamp(0, ReqStage::Enqueued, 6);
        assert!(t.retire(0, 7).is_none());
        assert_eq!(t.issued_len(), 0);
    }

    #[test]
    fn req_tracer_samples_and_stamps_in_order() {
        let mut t = ReqTracer::every(2);
        for id in 0..4u64 {
            t.issue(id, 0, 10 + id);
        }
        assert_eq!(t.issued_len(), 2, "only even ids sampled");
        t.issue(0, 0, 99); // retried injection: idempotent
        t.stamp(0, ReqStage::Enqueued, 12);
        t.stamp(0, ReqStage::BankArb, 14);
        t.stamp(0, ReqStage::BankArb, 20); // first occurrence wins
        t.stamp(1, ReqStage::Enqueued, 12); // unsampled: ignored
        let rec = t.retire(0, 30).expect("live").clone();
        assert_eq!(
            rec.stamps,
            vec![
                (ReqStage::Issued, 10),
                (ReqStage::Enqueued, 12),
                (ReqStage::BankArb, 14),
                (ReqStage::Retired, 30),
            ]
        );
        assert_eq!(rec.end_to_end(), 20);
        assert!(rec.is_retired());
        assert_eq!(t.live_len(), 1);
        assert_eq!(t.retired_len(), 1);
        // Post-retirement stamps on a reused id are dropped.
        t.stamp(0, ReqStage::Dram, 40);
        t.issue(0, 0, 41);
        assert_eq!(t.retired_records().next().unwrap().stamps.len(), 4);
    }

    #[test]
    fn req_tracer_absorb_merges_partial_records() {
        // Node-side tracer saw issue + crossbar; home-node tracer saw the
        // rest. The merged record is ordered and retired.
        let mut a = ReqTracer::every(1);
        a.issue(7, 1, 100);
        a.stamp(7, ReqStage::Crossbar, 105);
        let mut b = ReqTracer::every(1);
        b.issue(7, 1, 110); // arrival at home node
        b.stamp(7, ReqStage::Enqueued, 110);
        b.retire(7, 150);
        a.absorb(b);
        assert_eq!(a.retired_len(), 1);
        assert_eq!(a.live_len(), 0);
        let rec = a.retired_records().next().unwrap();
        assert_eq!(
            rec.stamps,
            vec![
                (ReqStage::Issued, 100),
                (ReqStage::Crossbar, 105),
                (ReqStage::Enqueued, 110),
                (ReqStage::Retired, 150),
            ]
        );
        let cycles: Vec<u64> = rec.stamps.iter().map(|&(_, c)| c).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn latency_summary_percentiles() {
        let s = LatencySummary::from_durations((1..=100).collect()).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.total, 5050);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert!(LatencySummary::from_durations(vec![]).is_none());
        let one = LatencySummary::from_durations(vec![42]).unwrap();
        assert_eq!((one.p50, one.p99, one.max), (42, 42, 42));
    }

    #[test]
    fn latency_json_attributes_stages() {
        let mut t = ReqTracer::every(1);
        for id in 0..10u64 {
            t.issue(id, 0, 0);
            t.stamp(id, ReqStage::Enqueued, 2);
            t.stamp(id, ReqStage::CombStore, 5);
            t.retire(id, 25);
        }
        let j = t.latency_json();
        assert_eq!(j.get("issued").and_then(Json::as_u64), Some(10));
        assert_eq!(j.get("retired").and_then(Json::as_u64), Some(10));
        let stages = j.get("stages").unwrap();
        let comb = stages.get("comb_store").unwrap();
        assert_eq!(comb.get("p50").and_then(Json::as_u64), Some(20));
        // 20 of 25 end-to-end cycles sit in the combining store.
        assert_eq!(comb.get("share_pct").and_then(Json::as_f64), Some(80.0));
        let e2e = j.get("end_to_end").unwrap();
        assert_eq!(e2e.get("max").and_then(Json::as_u64), Some(25));
        // The report embeds in a valid v2 document.
        let mut latency = Json::obj();
        latency.push("kern", j);
        let doc = stats_json_with(
            "t",
            Json::obj(),
            &MetricsRegistry::new(),
            None,
            Some(latency),
            None,
            Json::Arr(vec![]),
        );
        validate_stats_json(&doc).expect("valid v2 document");
    }

    #[test]
    fn attribution_section_validates() {
        let mut table = Json::obj();
        table.push("cycles", Json::UInt(100));
        let mut cause = Json::obj();
        cause.push("events", Json::UInt(7));
        cause.push("pct", Json::Num(7.0));
        table.push("mshr_full", cause);
        let mut attribution = Json::obj();
        attribution.push("kern", table);
        let doc = stats_json_with(
            "t",
            Json::obj(),
            &MetricsRegistry::new(),
            None,
            None,
            Some(attribution),
            Json::Arr(vec![]),
        );
        validate_stats_json(&doc).expect("valid");
        // A malformed cause entry is rejected.
        let mut bad = Json::obj();
        bad.push("cycles", Json::UInt(100));
        bad.push("mshr_full", Json::UInt(7));
        let mut attribution = Json::obj();
        attribution.push("kern", bad);
        let doc = stats_json_with(
            "t",
            Json::obj(),
            &MetricsRegistry::new(),
            None,
            None,
            Some(attribution),
            Json::Arr(vec![]),
        );
        assert!(validate_stats_json(&doc).is_err());
    }

    #[test]
    fn req_spans_use_node_scoped_tracks() {
        let mut t = ReqTracer::every(1);
        t.issue(3, 2, 0);
        t.stamp(3, ReqStage::Enqueued, 4);
        let rec = t.retire(3, 9).unwrap().clone();
        let mut sink = ChromeTrace::new();
        emit_req_spans(&rec, &mut sink);
        let text = sink.to_json_string();
        assert!(text.contains("node2.req3"), "track carries the node id");
        let doc = Json::parse(&text).unwrap();
        let spans = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(spans, 2, "one span per stamped stage transition");
    }

    #[test]
    fn serialization_is_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.counter("z.last", 3);
            reg.counter("a.first", 1);
            reg.gauge("m.mid", 0.125);
            let mut series = SeriesSet::new(8);
            series.push("s.one", 8, 1.5);
            stats_json("det", Json::obj(), &reg, Some(&series), Json::Arr(vec![]))
                .to_string_pretty()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn registry_json_round_trip_is_exact() {
        let mut reg = MetricsRegistry::new();
        reg.counter("node0.sa.accepted", 42);
        reg.gauge("node0.util", 3.0); // integral gauge: the ".0" suffix must survive
        reg.gauge("node0.frac", 0.1234567890123);
        reg.histogram(
            "node0.queue.occ",
            &HistogramMetric::from_counts(&[1, 0, 7], "octiles"),
        );
        let doc = reg.to_json();
        let back = MetricsRegistry::from_json(&doc).unwrap();
        assert_eq!(back, reg);
        assert_eq!(back.to_json().to_string_compact(), doc.to_string_compact());
        // And through actual text, where the counter/gauge distinction
        // depends on the writer's integral-float convention.
        let reparsed = Json::parse(&doc.to_string_compact()).unwrap();
        let back2 = MetricsRegistry::from_json(&reparsed).unwrap();
        assert_eq!(back2, reg);
    }

    #[test]
    fn registry_merge_matches_direct_recording() {
        let mut direct = MetricsRegistry::new();
        direct.counter("a.hits", 3);
        direct.counter("a.hits", 4);
        direct.gauge("a.util", 0.5);
        direct.gauge("a.util", 0.75);
        direct.histogram("a.occ", &HistogramMetric::from_counts(&[1, 2], "b"));
        direct.histogram("a.occ", &HistogramMetric::from_counts(&[3, 0], "b"));

        let mut first = MetricsRegistry::new();
        first.counter("a.hits", 3);
        first.gauge("a.util", 0.5);
        first.histogram("a.occ", &HistogramMetric::from_counts(&[1, 2], "b"));
        let mut second = MetricsRegistry::new();
        second.counter("a.hits", 4);
        second.gauge("a.util", 0.75);
        second.histogram("a.occ", &HistogramMetric::from_counts(&[3, 0], "b"));

        let mut merged = MetricsRegistry::new();
        merged.merge(&first);
        merged.merge(&second);
        assert_eq!(merged, direct);
    }

    #[test]
    fn series_json_round_trip_is_exact() {
        let mut series = SeriesSet::new(64);
        series.push("node0.busy", 64, 0.25);
        series.push("node0.busy", 128, 1.0);
        series.push("net.flits", 64, 17.0);
        let doc = series.to_json();
        let back = SeriesSet::from_json(&doc).unwrap();
        assert_eq!(back, series);
        let reparsed = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(
            SeriesSet::from_json(&reparsed)
                .unwrap()
                .to_json()
                .to_string_compact(),
            doc.to_string_compact()
        );
    }
}
