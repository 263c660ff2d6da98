//! The §4.4 sensitivity rig: one scatter-add unit, no cache, uniform memory.

use fxhash::FxHashSet;
use sa_mem::{BackingStore, SimpleMemory, SimpleMemoryStats};
use sa_sim::{
    Addr, Cycle, MemOp, MemRequest, Origin, SaUnitConfig, ScalarKind, ScatterOp, SensitivityConfig,
};
use sa_telemetry::{HostProfiler, Introspect};

use crate::sched::{self, Stepped};
use crate::unit::{SaStats, ScatterAddUnit, ToMem};

/// Outcome of one sensitivity-rig run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SensitivityResult {
    /// Cycles from first issue until the last sum was written to memory.
    pub cycles: u64,
    /// Cycles the run loop fast-forwarded over instead of ticking (0 with
    /// fast-forward off; wall-clock accounting only — `cycles` and every
    /// other field are byte-identical either way).
    pub skipped_cycles: u64,
    /// Scatter-add unit counters.
    pub sa: SaStats,
    /// Memory counters.
    pub mem: SimpleMemoryStats,
    /// Final contents of the result array.
    pub bins: Vec<i64>,
}

impl SensitivityResult {
    /// Execution time in microseconds at 1 GHz (the figures' y-axis).
    pub fn micros(&self) -> f64 {
        Cycle(self.cycles).as_micros(1.0)
    }

    /// Record this run's counters into a telemetry scope.
    pub fn record_metrics(&self, scope: &mut sa_telemetry::Scope<'_>) {
        scope.counter("cycles", self.cycles);
        scope.counter("skipped_cycles", self.skipped_cycles);
        self.sa.record(&mut scope.scope("sa"));
        self.mem.record(&mut scope.scope("mem"));
    }
}

/// The stripped-down machine of the §4.4 sensitivity experiments
/// (Figures 11 and 12): a single address generator issuing one scatter-add
/// per cycle into a single [`ScatterAddUnit`], backed by a uniform-latency,
/// fixed-interval [`SimpleMemory`] with no cache.
///
/// ```
/// use sa_core::SensitivityRig;
/// use sa_sim::SensitivityConfig;
///
/// let rig = SensitivityRig::new(SensitivityConfig::default());
/// let indices = vec![0, 1, 2, 3, 0, 1, 2, 3];
/// let r = rig.run_histogram(&indices, 4);
/// assert_eq!(r.bins, vec![2, 2, 2, 2]);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct SensitivityRig {
    cfg: SensitivityConfig,
    /// Whether the run loop may fast-forward over provably-idle cycles
    /// (e.g. the whole combining store waiting out a 400-cycle memory
    /// latency). Wall-clock only; results are byte-identical either way.
    fast_forward: bool,
}

impl SensitivityRig {
    /// A rig with the given combining-store size, FU latency, memory latency
    /// and memory interval. Fast-forward follows the process-wide default
    /// ([`sa_sim::fast_forward_default`]).
    pub fn new(cfg: SensitivityConfig) -> SensitivityRig {
        SensitivityRig {
            cfg,
            fast_forward: sa_sim::fast_forward_default(),
        }
    }

    /// Enable or disable event-horizon fast-forward for this rig's runs,
    /// overriding the process-wide default.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Whether runs fast-forward over provably-idle cycles.
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// The rig's configuration.
    pub fn config(&self) -> SensitivityConfig {
        self.cfg
    }

    /// Run a histogram of `indices` over `range` bins (each element adds 1 to
    /// its bin) and measure the cycles until everything has drained to
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of `0..range`.
    pub fn run_histogram(&self, indices: &[u64], range: u64) -> SensitivityResult {
        for &i in indices {
            assert!(i < range, "index {i} out of range {range}");
        }
        let mut run = RigRun {
            indices,
            next: 0,
            sa: ScatterAddUnit::new(SaUnitConfig {
                cs_entries: self.cfg.cs_entries,
                fu_latency: self.cfg.fu_latency,
            }),
            mem: SimpleMemory::new(self.cfg.mem_latency, self.cfg.mem_interval),
            store: BackingStore::new(),
            read_ids: FxHashSet::default(),
        };
        let fin = sched::run(&mut run, self.fast_forward, &mut Introspect::off());
        SensitivityResult {
            cycles: fin.cycles,
            skipped_cycles: fin.skipped_cycles,
            sa: run.sa.stats(),
            mem: run.mem.stats(),
            bins: run.store.extract_i64(Addr(0), range as usize),
        }
    }
}

/// One rig run in progress: the address generator's cursor, the unit, and
/// the uniform memory behind it.
struct RigRun<'a> {
    indices: &'a [u64],
    next: usize,
    sa: ScatterAddUnit,
    mem: SimpleMemory,
    store: BackingStore,
    read_ids: FxHashSet<sa_sim::ReqId>,
}

impl Stepped for RigRun<'_> {
    // Inlined into the run loop: measurably faster on stall-bound rigs,
    // whose few ticked cycles each cost little more than the loop itself.
    #[inline]
    fn step(&mut self, now: Cycle, _prof: &mut HostProfiler) {
        // One scatter-add issued per cycle by the address generator.
        if self.next < self.indices.len() {
            let req = MemRequest {
                id: self.next as u64,
                addr: Addr::from_word_index(self.indices[self.next]),
                op: MemOp::Scatter {
                    bits: 1,
                    kind: ScalarKind::I64,
                    op: ScatterOp::Add,
                    fetch: false,
                },
                origin: Origin::AddrGen { node: 0, ag: 0 },
            };
            if self.sa.try_submit(req).is_ok() {
                self.next += 1;
            }
        }

        self.sa.tick(now);

        // The unit's reads/writes go straight to the uniform memory,
        // throttled by its fixed access interval. A single conditional
        // pop per op: the head stays queued when memory throttles it.
        let (mem, store) = (&mut self.mem, &mut self.store);
        loop {
            let accepted = self.sa.pop_to_mem_if(|op| {
                let req = match *op {
                    ToMem::Read { id, addr } => MemRequest {
                        id,
                        addr,
                        op: MemOp::Read,
                        origin: Origin::SaUnit { node: 0, bank: 0 },
                    },
                    ToMem::Write { id, addr, bits } => MemRequest {
                        id,
                        addr,
                        op: MemOp::Write { bits },
                        origin: Origin::SaUnit { node: 0, bank: 0 },
                    },
                };
                mem.try_access(req, now, store)
            });
            match accepted {
                Some(ToMem::Read { id, .. }) => {
                    self.read_ids.insert(id);
                }
                Some(ToMem::Write { .. }) => {}
                None => break,
            }
        }

        if let Some(resp) = self.mem.tick(now) {
            // Only reads carry a value back into the unit; write
            // acknowledgements are dropped.
            if self.read_ids.remove(&resp.id) {
                self.sa.on_value(resp.addr, resp.bits);
            }
        }

        while self.sa.pop_ack().is_some() {}
    }

    fn settle(&mut self, _now: Cycle, _prof: &mut HostProfiler) -> bool {
        self.next >= self.indices.len() && self.sa.is_idle() && self.mem.is_idle()
    }

    /// Skippable once no submit can succeed next cycle. Every per-cycle
    /// stall counter the skipped retries would have bumped is folded in by
    /// the `skip_cycles` calls, so results are byte-identical with skipping
    /// off.
    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        if self.next < self.indices.len() && self.sa.can_accept() {
            return None;
        }
        let mut h = earliest(self.sa.next_event(now), self.mem.next_event(now));
        if self.sa.peek_to_mem().is_some() {
            // The head op retries when the access interval frees.
            h = earliest(h, Some(self.mem.ready_at(now).max(now + 1)));
        }
        h
    }

    fn skip(&mut self, now: Cycle, k: u64) {
        let pending_mem = self.sa.peek_to_mem().is_some();
        self.sa.skip_cycles(now, k, self.next < self.indices.len());
        self.mem.skip_cycles(now, k, pending_mem);
    }
}

/// The earlier of two optional event cycles.
fn earliest(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cs: usize, fu: u32, lat: u32, int: u32) -> SensitivityConfig {
        SensitivityConfig {
            cs_entries: cs,
            fu_latency: fu,
            mem_latency: lat,
            mem_interval: int,
        }
    }

    fn uniform_indices(n: usize, range: u64, seed: u64) -> Vec<u64> {
        let mut rng = sa_sim::Rng64::new(seed);
        (0..n).map(|_| rng.below(range)).collect()
    }

    #[test]
    fn histogram_is_exact() {
        let rig = SensitivityRig::new(cfg(8, 4, 16, 2));
        let idx = uniform_indices(512, 64, 1);
        let r = rig.run_histogram(&idx, 64);
        let mut expect = vec![0i64; 64];
        for &i in &idx {
            expect[i as usize] += 1;
        }
        assert_eq!(r.bins, expect);
        assert_eq!(r.sa.accepted, 512);
    }

    #[test]
    fn more_entries_tolerate_latency() {
        // Figure 11's main effect: with few combining-store entries, high
        // memory latency dominates; with many entries it is hidden.
        let idx = uniform_indices(512, 65_536, 2);
        let slow_small = SensitivityRig::new(cfg(2, 4, 256, 2)).run_histogram(&idx, 65_536);
        let slow_large = SensitivityRig::new(cfg(64, 4, 256, 2)).run_histogram(&idx, 65_536);
        let fast_small = SensitivityRig::new(cfg(2, 4, 8, 2)).run_histogram(&idx, 65_536);
        assert!(
            slow_small.cycles > 4 * slow_large.cycles,
            "64 entries should hide most of the 256-cycle latency: {} vs {}",
            slow_small.cycles,
            slow_large.cycles
        );
        assert!(
            slow_small.cycles > 4 * fast_small.cycles,
            "with 2 entries the run time tracks memory latency"
        );
    }

    #[test]
    fn large_store_hits_throughput_floor() {
        // With 64 entries and latency hidden, the run is bound by memory
        // throughput: ~2 accesses per element at `interval` cycles each.
        let idx = uniform_indices(512, 65_536, 3);
        let r = SensitivityRig::new(cfg(64, 4, 16, 2)).run_histogram(&idx, 65_536);
        let floor = 2 * 2 * 512; // reads+writes × interval × n
        assert!(
            r.cycles >= floor as u64,
            "cannot beat the memory throughput floor: {} < {floor}",
            r.cycles
        );
        assert!(
            r.cycles < floor as u64 + 1500,
            "should be close to the floor"
        );
    }

    #[test]
    fn narrow_range_combines_in_store() {
        // Figure 12's effect: with 16 bins and a large store, most requests
        // are captured by the combining store and memory traffic collapses.
        let idx = uniform_indices(512, 16, 4);
        let r = SensitivityRig::new(cfg(64, 4, 16, 16)).run_histogram(&idx, 16);
        let wide = uniform_indices(512, 65_536, 4);
        let rw = SensitivityRig::new(cfg(64, 4, 16, 16)).run_histogram(&wide, 65_536);
        assert!(
            r.sa.combined > 400,
            "narrow range should combine heavily: {}",
            r.sa.combined
        );
        assert!(
            r.cycles < rw.cycles / 4,
            "narrow ({}) must be far faster than wide ({}) at low throughput",
            r.cycles,
            rw.cycles
        );
    }

    #[test]
    fn fu_latency_invisible_with_enough_entries() {
        // Figure 11: "even with only 16 entries ... performance does not
        // depend on ALU latency".
        let idx = uniform_indices(512, 65_536, 5);
        let fu2 = SensitivityRig::new(cfg(16, 2, 16, 2)).run_histogram(&idx, 65_536);
        let fu16 = SensitivityRig::new(cfg(16, 16, 16, 2)).run_histogram(&idx, 65_536);
        let ratio = fu16.cycles as f64 / fu2.cycles as f64;
        assert!(
            ratio < 1.1,
            "FU latency should be hidden at 16 entries: ratio {ratio}"
        );
    }

    #[test]
    fn fast_forward_is_byte_identical() {
        let idx = uniform_indices(512, 65_536, 7);
        let mut any_skipped = false;
        for c in [cfg(2, 4, 400, 2), cfg(64, 4, 256, 1), cfg(8, 16, 16, 8)] {
            let mut on = SensitivityRig::new(c);
            on.set_fast_forward(true);
            let mut off = SensitivityRig::new(c);
            off.set_fast_forward(false);
            let a = on.run_histogram(&idx, 65_536);
            let b = off.run_histogram(&idx, 65_536);
            assert_eq!(b.skipped_cycles, 0, "ff off must tick every cycle");
            any_skipped |= a.skipped_cycles > 0;
            let mut a_wallclock = a.clone();
            a_wallclock.skipped_cycles = 0;
            assert_eq!(
                a_wallclock, b,
                "fast-forward changed simulated results for {c:?}"
            );
        }
        assert!(any_skipped, "no config exercised the skip path");
    }

    #[test]
    fn empty_histogram_takes_no_cycles() {
        // The rig decides "done" before a cycle: nothing to issue and an
        // idle unit and memory finish at cycle 0.
        for ff in [true, false] {
            let mut rig = SensitivityRig::new(cfg(8, 4, 16, 2));
            rig.set_fast_forward(ff);
            let r = rig.run_histogram(&[], 4);
            assert_eq!((r.cycles, r.skipped_cycles), (0, 0));
            assert_eq!(r.bins, vec![0; 4]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let rig = SensitivityRig::new(SensitivityConfig::default());
        let _ = rig.run_histogram(&[5], 4);
    }
}
