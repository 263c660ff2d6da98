//! Scoreboarded execution of a [`StreamProgram`] on one node.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fxhash::FxHashMap;
use sa_core::sched::{self, Stepped};
use sa_core::NodeMemSys;
use sa_sim::{Cycle, MachineConfig, MemOp, MemRequest, Origin, ReqId};
use sa_telemetry::{HostProfiler, Introspect, TraceSink};

use crate::program::{OpId, StreamOp, StreamProgram};

/// When an operation started and finished (cycles).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpSpan {
    /// Cycle the op acquired its resource.
    pub start: u64,
    /// Cycle the op completed.
    pub end: u64,
}

/// The program's static work counters (the paper's Table 3 metrics),
/// grouped out of [`ExecReport`]'s top level.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramCounters {
    /// The program's "FP Operations" metric.
    pub flops: u64,
    /// The program's "Mem References" metric (words accessed).
    pub mem_refs: u64,
}

/// Stream-register-file footprint accounting, grouped out of
/// [`ExecReport`]'s top level.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SrfUsage {
    /// Peak footprint observed: the largest sum of SRF words held by
    /// concurrently-running operations (each memory op stages its stream,
    /// each kernel holds its in/out streams).
    pub peak_words: u64,
    /// Whether the peak footprint exceeded the machine's SRF capacity —
    /// a modeling red flag meaning the program's stages should be split
    /// (the simulator still completes; real double-buffered code could not).
    pub overflow: bool,
}

/// The outcome of running a program.
#[derive(Debug)]
pub struct ExecReport {
    /// Total execution time in cycles.
    pub cycles: u64,
    /// Per-op start/end times.
    pub spans: Vec<OpSpan>,
    /// Machine statistics accumulated during the run.
    pub stats: sa_core::NodeStats,
    /// Static work counters (flops, memory references).
    pub program: ProgramCounters,
    /// SRF footprint accounting.
    pub srf: SrfUsage,
    /// Request-lifecycle records harvested from the node (empty unless
    /// [`MachineConfig::req_sample`](sa_sim::MachineConfig) enabled tracing).
    pub req_trace: sa_telemetry::ReqTracer,
    /// Cycles the executor fast-forwarded over instead of ticking one by
    /// one. Wall-clock accounting only: simulated time (`cycles`), spans,
    /// and stats are identical with skipping on or off.
    pub skipped_cycles: u64,
}

impl ExecReport {
    /// Execution time in microseconds at 1 GHz.
    pub fn micros(&self) -> f64 {
        self.cycles as f64 / 1e3
    }

    /// The program's "FP Operations" metric (`program.flops`).
    pub fn flops(&self) -> u64 {
        self.program.flops
    }

    /// The program's "Mem References" metric (`program.mem_refs`).
    pub fn mem_refs(&self) -> u64 {
        self.program.mem_refs
    }

    /// Peak SRF footprint in words (`srf.peak_words`).
    pub fn peak_srf_words(&self) -> u64 {
        self.srf.peak_words
    }

    /// Whether the peak SRF footprint exceeded capacity (`srf.overflow`).
    pub fn srf_overflow(&self) -> bool {
        self.srf.overflow
    }
}

/// SRF words a running op holds: a memory op stages its whole stream; a
/// kernel holds its per-element SRF traffic for the elements in flight
/// (conservatively, its declared footprint for one cluster batch).
fn srf_footprint(op: &StreamOp) -> u64 {
    match op {
        StreamOp::Gather { pattern } => pattern.len(),
        StreamOp::Scatter { pattern, .. } => pattern.len(),
        StreamOp::ScatterAdd { pattern, .. } => pattern.len(),
        StreamOp::Kernel {
            elements,
            srf_words_per_element,
            ..
        } => elements * srf_words_per_element,
    }
}

/// Event-driven dependency tracking for one run: each op's count of
/// unfinished dependencies, a CSR list of its dependents, and the ops whose
/// dependencies have all finished, kept in ascending id and split by the
/// resource they wait for.
///
/// Ops start in ascending id among those whose resource is free, exactly
/// the order of a linear scan over the program, so each cycle costs only
/// the ops that actually start or finish.
struct Scoreboard<'p> {
    prog: &'p StreamProgram,
    /// Unfinished dependencies per op (a repeated dependency counts twice).
    pending: Vec<u32>,
    /// `dependents[dep_start[d]..dep_start[d + 1]]` lists the ops naming `d`
    /// as a dependency, once per naming.
    dep_start: Vec<usize>,
    dependents: Vec<OpId>,
    ready_kernels: BinaryHeap<Reverse<OpId>>,
    ready_mem: BinaryHeap<Reverse<OpId>>,
}

impl<'p> Scoreboard<'p> {
    fn new(prog: &'p StreamProgram) -> Scoreboard<'p> {
        let n = prog.len();
        let mut pending = vec![0u32; n];
        let mut dep_start = vec![0usize; n + 1];
        for (id, _, deps) in prog.iter() {
            pending[id] = deps.len() as u32;
            for &d in deps {
                dep_start[d + 1] += 1;
            }
        }
        for i in 0..n {
            dep_start[i + 1] += dep_start[i];
        }
        let mut fill = dep_start.clone();
        let mut dependents = vec![0; dep_start[n]];
        for (id, _, deps) in prog.iter() {
            for &d in deps {
                dependents[fill[d]] = id;
                fill[d] += 1;
            }
        }
        let mut sb = Scoreboard {
            prog,
            pending,
            dep_start,
            dependents,
            ready_kernels: BinaryHeap::new(),
            ready_mem: BinaryHeap::new(),
        };
        for id in 0..n {
            if sb.pending[id] == 0 {
                sb.make_ready(id);
            }
        }
        sb
    }

    fn make_ready(&mut self, id: OpId) {
        match self.prog.op(id).0 {
            StreamOp::Kernel { .. } => self.ready_kernels.push(Reverse(id)),
            _ => self.ready_mem.push(Reverse(id)),
        }
    }

    /// Record that `id` finished, readying every dependent it was the last
    /// unfinished dependency of. Dependents have higher ids than `id`.
    fn finish(&mut self, id: OpId) {
        for i in self.dep_start[id]..self.dep_start[id + 1] {
            let d = self.dependents[i];
            self.pending[d] -= 1;
            if self.pending[d] == 0 {
                self.make_ready(d);
            }
        }
    }

    /// Remove and return the lowest-id ready op whose resource is free: a
    /// kernel when the cluster array is free, a memory op when an AG is.
    fn pop_startable(&mut self, kernel_free: bool, ag_free: bool) -> Option<OpId> {
        let k = self.ready_kernels.peek().filter(|_| kernel_free);
        let m = self.ready_mem.peek().filter(|_| ag_free);
        let heap = match (k, m) {
            (Some(Reverse(k)), Some(Reverse(m))) if m < k => &mut self.ready_mem,
            (Some(_), _) => &mut self.ready_kernels,
            (None, Some(_)) => &mut self.ready_mem,
            (None, None) => return None,
        };
        heap.pop().map(|Reverse(id)| id)
    }

    /// Whether [`pop_startable`](Self::pop_startable) would start an op.
    fn can_start(&self, kernel_free: bool, ag_free: bool) -> bool {
        (kernel_free && !self.ready_kernels.is_empty()) || (ag_free && !self.ready_mem.is_empty())
    }
}

struct MemRun {
    op: OpId,
    issue_from: u64, // cycle after AG startup
    cursor: u64,
    acked: u64,
    total: u64,
}

struct KernelRun {
    op: OpId,
    end_at: u64,
}

/// Executes stream programs against a [`NodeMemSys`].
///
/// Resource model (Table 1): `ag.count` concurrent stream memory operations,
/// each issuing up to `ag.width` word requests per cycle after a fixed
/// startup; one kernel at a time on the cluster array.
#[derive(Copy, Clone, Debug)]
pub struct Executor {
    cfg: MachineConfig,
}

impl Executor {
    /// An executor for machines configured as `cfg`.
    pub fn new(cfg: MachineConfig) -> Executor {
        Executor { cfg }
    }

    /// Cycles a kernel of `elements` elements occupies the cluster array.
    ///
    /// Each cluster retires one element every
    /// `max(ceil(ops / ops_rate), ceil(srf_words / srf_rate), 1)` cycles,
    /// where the per-cluster rates derive from Table 1 (128 ops/cycle and 64
    /// SRF words/cycle over 16 clusters).
    pub fn kernel_cycles(
        &self,
        elements: u64,
        ops_per_element: u64,
        srf_words_per_element: u64,
    ) -> u64 {
        let c = self.cfg.compute;
        let ops_rate = u64::from(c.peak_flops_per_cycle) / c.clusters as u64; // 8
        let srf_rate = (u64::from(c.srf_words_per_cycle) / c.clusters as u64).max(1); // 4
        let per_elem = ops_per_element
            .div_ceil(ops_rate.max(1))
            .max(srf_words_per_element.div_ceil(srf_rate))
            .max(1);
        let groups = elements.div_ceil(c.clusters as u64);
        u64::from(c.kernel_startup_cycles) + groups * per_elem
    }

    /// Run `prog` on `node` to completion and report timing and metrics.
    ///
    /// The node's functional store carries the memory image across runs, so
    /// applications can preload inputs, run, and read results.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (cycle limit exceeded) — which
    /// would indicate a bug in the machine model, not in the program.
    pub fn run<T: TraceSink>(&self, prog: &StreamProgram, node: &mut NodeMemSys<T>) -> ExecReport {
        let mut run = ExecRun {
            exec: *self,
            prog,
            node,
            board: Scoreboard::new(prog),
            spans: vec![OpSpan::default(); prog.len()],
            ags: (0..self.cfg.ag.count).map(|_| None).collect(),
            kernel: None,
            req_slot: FxHashMap::default(),
            next_id: 0,
            remaining: prog.len(),
            live_srf: 0,
            peak_srf: 0,
            was_running: false,
        };
        let fast_forward = run.node.fast_forward();
        let fin = sched::run(&mut run, fast_forward, &mut Introspect::off());
        let ExecRun {
            spans, peak_srf, ..
        } = run;
        node.flush_to_store();

        let srf_capacity = self.cfg.compute.srf_bytes / sa_sim::WORD_BYTES;
        ExecReport {
            cycles: fin.cycles,
            spans,
            stats: node.stats(),
            program: ProgramCounters {
                flops: prog.total_flops(),
                mem_refs: prog.total_mem_refs(),
            },
            srf: SrfUsage {
                peak_words: peak_srf,
                overflow: peak_srf > srf_capacity,
            },
            req_trace: node.take_req_trace(),
            skipped_cycles: fin.skipped_cycles,
        }
    }
}

/// One program run in progress: the scoreboard, the busy address
/// generators and cluster array, and the node they drive. Once every op has
/// finished, cycles only drain the node's in-flight write-backs.
struct ExecRun<'p, 'n, T: TraceSink> {
    exec: Executor,
    prog: &'p StreamProgram,
    node: &'n mut NodeMemSys<T>,
    board: Scoreboard<'p>,
    spans: Vec<OpSpan>,
    ags: Vec<Option<MemRun>>,
    kernel: Option<KernelRun>,
    /// Each in-flight request's AG slot.
    req_slot: FxHashMap<ReqId, usize>,
    next_id: ReqId,
    remaining: usize,
    live_srf: u64,
    peak_srf: u64,
    /// Whether the last stepped cycle began with ops unfinished. The cycle
    /// that finishes the last op never skips; the drain cycles after it do.
    was_running: bool,
}

impl<T: TraceSink> ExecRun<'_, '_, T> {
    /// Record that op `id` finished at cycle `t`.
    fn finish(&mut self, id: OpId, t: u64) {
        self.spans[id].end = t;
        self.remaining -= 1;
        self.live_srf -= srf_footprint(self.prog.op(id).0);
        self.board.finish(id);
    }
}

impl<T: TraceSink> Stepped for ExecRun<'_, '_, T> {
    fn step(&mut self, now: Cycle, _prof: &mut HostProfiler) {
        let t = now.raw();
        let prog = self.prog;
        self.was_running = self.remaining > 0;

        // Start ready ops on free resources, in ascending op id.
        while let Some(id) = self
            .board
            .pop_startable(self.kernel.is_none(), self.ags.iter().any(Option::is_none))
        {
            let op = prog.op(id).0;
            self.spans[id].start = t;
            self.live_srf += srf_footprint(op);
            self.peak_srf = self.peak_srf.max(self.live_srf);
            match op {
                StreamOp::Kernel {
                    elements,
                    ops_per_element,
                    srf_words_per_element,
                    ..
                } => {
                    let dur = self.exec.kernel_cycles(
                        *elements,
                        *ops_per_element,
                        *srf_words_per_element,
                    );
                    self.kernel = Some(KernelRun {
                        op: id,
                        end_at: t + dur,
                    });
                }
                // Degenerate empty stream: completes at once, and its
                // (higher-id) dependents may start this same cycle.
                _ if op.mem_refs() == 0 => self.finish(id, t),
                _ => {
                    let slot = self.ags.iter().position(Option::is_none).expect("free AG");
                    self.ags[slot] = Some(MemRun {
                        op: id,
                        issue_from: t + u64::from(self.exec.cfg.ag.startup_cycles),
                        cursor: 0,
                        acked: 0,
                        total: op.mem_refs(),
                    });
                }
            }
        }

        // Kernel completion.
        if let Some(k) = self.kernel.take_if(|k| k.end_at <= t) {
            self.finish(k.op, t);
        }

        // Issue memory requests from each busy AG.
        for (slot, ag) in self.ags.iter_mut().enumerate() {
            let Some(run) = ag.as_mut() else { continue };
            if run.issue_from > t {
                continue;
            }
            let (op, _) = prog.op(run.op);
            for _ in 0..self.exec.cfg.ag.width {
                if run.cursor >= run.total {
                    break;
                }
                let i = run.cursor;
                let id = self.next_id;
                let origin = Origin::AddrGen { node: 0, ag: slot };
                let req = match op {
                    StreamOp::Gather { pattern } => MemRequest {
                        id,
                        addr: pattern.addr(i),
                        op: MemOp::Read,
                        origin,
                    },
                    StreamOp::Scatter { pattern, values } => MemRequest {
                        id,
                        addr: pattern.addr(i),
                        op: MemOp::Write {
                            bits: values[i as usize],
                        },
                        origin,
                    },
                    StreamOp::ScatterAdd {
                        pattern,
                        values,
                        kind,
                        op,
                    } => MemRequest {
                        id,
                        addr: pattern.addr(i),
                        op: MemOp::Scatter {
                            bits: values[i as usize],
                            kind: *kind,
                            op: *op,
                            fetch: false,
                        },
                        origin,
                    },
                    StreamOp::Kernel { .. } => unreachable!("kernels don't use AGs"),
                };
                match self.node.inject_traced(req, now) {
                    Ok(()) => {
                        self.req_slot.insert(id, slot);
                        self.next_id += 1;
                        run.cursor += 1;
                    }
                    Err(_) => break, // bank queue full: stall this AG
                }
            }
        }

        self.node.tick(now);

        // Completions retire requests and, eventually, their ops.
        while let Some(c) = self.node.pop_completion() {
            let Some(slot) = self.req_slot.remove(&c.id) else {
                continue;
            };
            let run = self.ags[slot].as_mut().expect("request's AG is busy");
            run.acked += 1;
            if run.acked == run.total {
                let op = run.op;
                self.ags[slot] = None;
                self.finish(op, t);
            }
        }
    }

    /// Done once every op has finished and the node has drained its
    /// in-flight write-backs (decided before the first cycle too: an empty
    /// program takes no cycles).
    fn settle(&mut self, _now: Cycle, _prof: &mut HostProfiler) -> bool {
        self.remaining == 0 && self.node.is_idle()
    }

    /// Skippable when no op can start next cycle and no AG is actively
    /// issuing: nothing on the scoreboard changes until the next kernel or
    /// AG wakeup or node event.
    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        let t = now.raw();
        if self.was_running && self.remaining == 0 {
            return None;
        }
        let ag_free = self.ags.iter().any(Option::is_none);
        let issuing = self
            .ags
            .iter()
            .flatten()
            .any(|run| run.issue_from <= t && run.cursor < run.total);
        if self.board.can_start(self.kernel.is_none(), ag_free) || issuing {
            return None;
        }
        // A running kernel ends after `t`: completion was checked this cycle.
        let kernel = self.kernel.as_ref().map(|k| Cycle(k.end_at));
        let wakeups = self
            .ags
            .iter()
            .flatten()
            .filter(|run| run.issue_from > t && run.cursor < run.total)
            .map(|run| Cycle(run.issue_from));
        kernel
            .into_iter()
            .chain(wakeups)
            .chain(self.node.next_event(now))
            .min()
    }

    fn skip(&mut self, now: Cycle, k: u64) {
        self.node.skip_cycles(now, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::AccessPattern;
    use sa_sim::Addr;

    fn cfg() -> MachineConfig {
        MachineConfig::merrimac()
    }

    fn node() -> NodeMemSys {
        NodeMemSys::new(cfg(), 0, false)
    }

    #[test]
    fn kernel_cycles_model() {
        let e = Executor::new(cfg());
        // 16 clusters, 8 ops/cycle/cluster: 1600 elements × 8 ops = 100
        // groups × 1 cycle + startup.
        let startup = u64::from(cfg().compute.kernel_startup_cycles);
        assert_eq!(e.kernel_cycles(1600, 8, 1), startup + 100);
        // Ops-bound: 16 ops/elem → 2 cycles per group.
        assert_eq!(e.kernel_cycles(1600, 16, 1), startup + 200);
        // SRF-bound: 12 words/elem at 4 words/cycle → 3 cycles per group.
        assert_eq!(e.kernel_cycles(1600, 1, 12), startup + 300);
        // Minimum one cycle per group.
        assert_eq!(e.kernel_cycles(16, 0, 0), startup + 1);
    }

    #[test]
    fn gather_reads_preloaded_memory() {
        let mut n = node();
        n.store_mut().load_i64(Addr(0), &[7; 64]);
        let mut p = StreamProgram::new();
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 64,
            }),
            &[],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(r.mem_refs(), 64);
        assert!(r.cycles > u64::from(cfg().ag.startup_cycles));
    }

    #[test]
    fn scatter_writes_memory() {
        let mut n = node();
        let mut p = StreamProgram::new();
        p.add(
            StreamOp::scatter(
                AccessPattern::Sequential {
                    base_word: 100,
                    n: 8,
                },
                (1..=8u64).collect(),
            ),
            &[],
        );
        Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(
            n.store().extract_i64(Addr::from_word_index(100), 8),
            (1..=8i64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scatter_add_accumulates() {
        let mut n = node();
        let mut p = StreamProgram::new();
        let idx = vec![0u64, 1, 0, 1, 0];
        p.add(
            StreamOp::scatter_add_i64(
                AccessPattern::Indexed {
                    base_word: 0,
                    indices: idx,
                },
                &[1, 1, 1, 1, 1],
            ),
            &[],
        );
        Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(n.store().extract_i64(Addr(0), 2), vec![3, 2]);
    }

    #[test]
    fn dependencies_serialize() {
        // load → kernel → store: spans must not overlap.
        let mut n = node();
        let mut p = StreamProgram::new();
        let g = p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 256,
            }),
            &[],
        );
        let k = p.add(StreamOp::kernel("f", 256, 2, 2, 2), &[g]);
        p.add(
            StreamOp::scatter(
                AccessPattern::Sequential {
                    base_word: 1000,
                    n: 256,
                },
                vec![0; 256],
            ),
            &[k],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert!(r.spans[0].end <= r.spans[1].start);
        assert!(r.spans[1].end <= r.spans[2].start);
    }

    #[test]
    fn independent_ops_overlap() {
        // Two independent cache-resident gathers use both AGs concurrently;
        // a dependent chain of the same work takes roughly twice as long.
        // (Cold gathers would both be DRAM-bandwidth-bound and look alike,
        // so warm the cache first.)
        let run = |chained: bool| {
            let mut n = node();
            let mut p = StreamProgram::new();
            let warm_a = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 0,
                    n: 4096,
                }),
                &[],
            );
            let warm_b = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 4096,
                    n: 4096,
                }),
                &[warm_a],
            );
            let a = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 0,
                    n: 4096,
                }),
                &[warm_b],
            );
            let deps: Vec<OpId> = if chained {
                vec![warm_b, a]
            } else {
                vec![warm_b]
            };
            let b = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 4096,
                    n: 4096,
                }),
                &deps,
            );
            let r = Executor::new(cfg()).run(&p, &mut n);
            r.spans[b].end - r.spans[a].start
        };
        let parallel = run(false);
        let serial = run(true);
        assert!(
            serial as f64 > parallel as f64 * 1.5,
            "serial {serial} vs parallel {parallel}"
        );
    }

    #[test]
    fn kernel_overlaps_independent_memory_op() {
        let mut n = node();
        let mut p = StreamProgram::new();
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 2048,
            }),
            &[],
        );
        p.add(StreamOp::kernel("busy", 2048, 8, 8, 1), &[]);
        let r = Executor::new(cfg()).run(&p, &mut n);
        let g = r.spans[0];
        let k = r.spans[1];
        assert!(
            g.start < k.end && k.start < g.end,
            "gather {g:?} and kernel {k:?} should overlap"
        );
    }

    #[test]
    fn report_metrics_match_program() {
        let mut n = node();
        let mut p = StreamProgram::new();
        let g = p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 128,
            }),
            &[],
        );
        p.add(StreamOp::kernel("k", 128, 4, 4, 2), &[g]);
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(r.flops(), 512);
        assert_eq!(r.mem_refs(), 128);
        assert!((r.micros() - r.cycles as f64 / 1e3).abs() < 1e-12);
    }

    #[test]
    fn srf_footprint_is_tracked() {
        let mut n = node();
        let mut p = StreamProgram::new();
        // Two overlapping 4096-word gathers: peak footprint 8192 words.
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 4096,
            }),
            &[],
        );
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 8192,
                n: 4096,
            }),
            &[],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(r.peak_srf_words(), 8192);
        assert!(!r.srf_overflow(), "8192 words fit the 128K-word SRF");
    }

    #[test]
    fn srf_overflow_is_flagged() {
        let mut n = node();
        let mut p = StreamProgram::new();
        // A single 200K-word gather exceeds the 1 MB (128K-word) SRF.
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 200_000,
            }),
            &[],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert!(r.srf_overflow(), "oversized stage must be flagged");
        assert_eq!(r.peak_srf_words(), 200_000);
    }

    #[test]
    fn fast_forward_is_byte_identical() {
        // The same gather → kernel → scatter-add program must produce
        // identical cycles, spans, and machine stats with event-horizon
        // skipping on or off; only wall-clock accounting may differ.
        let run = |ff: bool| {
            let mut n = node();
            n.set_fast_forward(ff);
            n.store_mut().load_i64(Addr(0), &[3; 1024]);
            let mut p = StreamProgram::new();
            let g = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 0,
                    n: 1024,
                }),
                &[],
            );
            let k = p.add(StreamOp::kernel("f", 1024, 8, 2, 2), &[g]);
            let idx: Vec<u64> = (0..1024u64).map(|i| i % 64).collect();
            p.add(
                StreamOp::scatter_add_i64(
                    AccessPattern::Indexed {
                        base_word: 4096,
                        indices: idx,
                    },
                    &[1; 1024],
                ),
                &[k],
            );
            let r = Executor::new(cfg()).run(&p, &mut n);
            let image = n.store().extract_i64(Addr::from_word_index(4096), 64);
            (r, image)
        };
        let (on, img_on) = run(true);
        let (off, img_off) = run(false);
        assert!(on.skipped_cycles > 0, "expected some fast-forwarded cycles");
        assert_eq!(off.skipped_cycles, 0);
        assert_eq!(on.cycles, off.cycles);
        assert_eq!(on.spans, off.spans);
        assert_eq!(on.stats, off.stats);
        assert_eq!(img_on, img_off);
    }

    #[test]
    fn empty_program_finishes_immediately() {
        let mut n = node();
        let p = StreamProgram::new();
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn empty_stream_op_completes() {
        let mut n = node();
        let mut p = StreamProgram::new();
        p.add(
            StreamOp::gather(AccessPattern::Indexed {
                base_word: 0,
                indices: vec![],
            }),
            &[],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert!(r.cycles < 10);
    }

    fn empty_gather() -> StreamOp {
        StreamOp::gather(AccessPattern::Indexed {
            base_word: 0,
            indices: vec![],
        })
    }

    fn seq_gather(base_word: u64, n: u64) -> StreamOp {
        StreamOp::gather(AccessPattern::Sequential { base_word, n })
    }

    #[test]
    fn empty_gather_releases_dependents_in_the_same_cycle() {
        // The empty gather completes inside the start loop; the kernel and
        // gather waiting only on it start in that very cycle.
        let mut p = StreamProgram::new();
        let e = p.add(empty_gather(), &[]);
        let k = p.add(StreamOp::kernel("k", 64, 4, 2, 1), &[e]);
        let g = p.add(seq_gather(0, 64), &[e]);
        let r = Executor::new(cfg()).run(&p, &mut node());
        let at = r.spans[e].start;
        assert_eq!(r.spans[e].end, at);
        assert_eq!(r.spans[k].start, at, "kernel starts with the empty gather");
        assert_eq!(r.spans[g].start, at, "gather starts with the empty gather");
    }

    #[test]
    fn repeated_dependency_is_waited_for_once() {
        let mut p = StreamProgram::new();
        let g = p.add(seq_gather(0, 128), &[]);
        let e = p.add(empty_gather(), &[g, g]);
        let k = p.add(StreamOp::kernel("k", 128, 4, 2, 1), &[g, e, g, e]);
        let r = Executor::new(cfg()).run(&p, &mut node());
        assert!(r.spans[e].start > r.spans[g].end);
        assert_eq!(r.spans[k].start, r.spans[e].end);
        assert!(r.cycles >= r.spans[k].end);
    }

    #[test]
    fn ready_kernel_waits_while_later_memory_op_starts() {
        // k1 is ready from the start but the cluster array is busy with
        // k0; the higher-id gather g3 is released mid-k0 and starts at
        // once on a free AG, well before k1.
        let mut p = StreamProgram::new();
        let k0 = p.add(StreamOp::kernel("long", 16_384, 8, 2, 1), &[]);
        let k1 = p.add(StreamOp::kernel("next", 64, 4, 2, 1), &[]);
        let g2 = p.add(seq_gather(0, 64), &[]);
        let g3 = p.add(seq_gather(4096, 64), &[g2]);
        let r = Executor::new(cfg()).run(&p, &mut node());
        assert_eq!(r.spans[k1].start, r.spans[k0].end + 1);
        assert_eq!(r.spans[g3].start, r.spans[g2].end + 1);
        assert!(r.spans[g3].start < r.spans[k0].end);
    }

    #[test]
    fn mixed_program_timing_is_pinned() {
        // Kernels, gathers, a scatter, a scatter-add, an empty stream and a
        // repeated dependency on a one-AG machine. The expected spans are
        // those of a scan over every op in id order each cycle; the
        // scoreboard must reproduce them exactly, fast-forward on and off.
        let mut c = cfg();
        c.ag.count = 1;
        let build = || {
            let mut p = StreamProgram::new();
            let g0 = p.add(seq_gather(0, 256), &[]);
            let g1 = p.add(seq_gather(1024, 96), &[]);
            let k2 = p.add(StreamOp::kernel("a", 256, 6, 3, 2), &[g0]);
            let e3 = p.add(empty_gather(), &[g1]);
            let k4 = p.add(StreamOp::kernel("b", 96, 2, 2, 1), &[e3, e3]);
            let idx: Vec<u64> = (0..200u64).map(|i| (i * 7) % 40).collect();
            let s5 = p.add(
                StreamOp::scatter_add_i64(
                    AccessPattern::Indexed {
                        base_word: 8192,
                        indices: idx,
                    },
                    &[1; 200],
                ),
                &[k2],
            );
            p.add(
                StreamOp::scatter(
                    AccessPattern::Sequential {
                        base_word: 2048,
                        n: 96,
                    },
                    vec![5; 96],
                ),
                &[k4, g1],
            );
            p.add(StreamOp::kernel("c", 32, 1, 1, 1), &[s5, k4]);
            p
        };
        let mut spans = Vec::new();
        for ff in [true, false] {
            let mut n = NodeMemSys::new(c, 0, false);
            n.set_fast_forward(ff);
            let r = Executor::new(c).run(&build(), &mut n);
            let got: Vec<(u64, u64)> = r.spans.iter().map(|s| (s.start, s.end)).collect();
            spans.push((r.cycles, got));
        }
        assert_eq!(spans[0], spans[1]);
        let expected = vec![
            (1, 162),
            (163, 289),
            (163, 429),
            (290, 290),
            (430, 686),
            (430, 586),
            (687, 773),
            (687, 939),
        ];
        assert_eq!(spans[0], (939, expected));
    }
}
