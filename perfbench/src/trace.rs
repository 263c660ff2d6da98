//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions, from
//! the benchmark's own code. They stay in memory until the run ends and are
//! then written as Chrome `trace_event` JSON, the format the simulator's own
//! `--trace` output uses, so one viewer (Perfetto, `chrome://tracing`) opens
//! both.

use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name; per-layer metrics are keyed by it (`proc.run.sw`, ...).
    pub name: &'static str,
    /// The repository module the call goes into (`sa-proc`, `sa-memo`, ...).
    pub layer: &'static str,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to (0 for set-up and round spans).
    pub job: u64,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise only runs the timed closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Turn recording on or off (used to switch from the untraced to the
    /// traced half of a traced run).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The job id stamped on spans opened from now on.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Open a span; returns a token for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, layer: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the span `token` opened, and any span left open inside it (a
    /// job that panicked mid-call).
    pub fn close(&mut self, token: Option<usize>) {
        let Some(idx) = token else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Rename the span `token` opened (a job whose kind is known only once
    /// it has started).
    pub fn rename(&mut self, token: Option<usize>, name: &'static str) {
        if let Some(idx) = token {
            self.spans[idx].name = name;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children of one span never overlap (one thread, and
/// a child closes before its parent), but the union is taken anyway, with
/// each child clipped to its parent, so the result is never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as Chrome `trace_event` JSON: one complete (`"ph":"X"`) event
/// per span on a single host-thread track, timestamps in microseconds, with
/// the span id, parent id, job id, layer and self time in `args`.
pub fn chrome_trace_json(spans: &[Span], workload: &str) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,\"args\":{{\"name\":\"perfbench {workload}\"}}}}"
    ));
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
             \"job\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.job,
            self_ns[i] as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}
