//! The scatter-add unit: combining store, CAM, and pipelined functional unit.

use std::collections::VecDeque;

use fxhash::FxHashMap;
use sa_faults::{FaultInjector, FaultKind, ResilienceStats};
use sa_sim::{
    combine, Addr, Cycle, MemOp, MemRequest, MemResponse, Origin, ReqId, SaUnitConfig, ScalarKind,
    ScatterOp,
};
use sa_telemetry::{OccClass, OccupancyStats, ReqStage, ReqTracer};

/// A read or write the unit sends toward the cache/DRAM behind it
/// (steps b and 7 of Figure 4b).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum ToMem {
    /// Fetch the current value of `addr` (step b: first request to an
    /// address not already being combined).
    Read {
        /// Id of the scatter request heading the address chain. Responses
        /// are matched by address, so this exists purely to attribute the
        /// downstream memory traffic to its originating request.
        id: ReqId,
        /// Word address to fetch.
        addr: Addr,
    },
    /// Write the finished sum out (step 7: no more pending additions).
    Write {
        /// Id of the scatter request whose addition produced the final sum.
        id: ReqId,
        /// Word address to store to.
        addr: Addr,
        /// The computed sum.
        bits: u64,
    },
}

impl ToMem {
    /// The target address of this memory operation.
    pub fn addr(&self) -> Addr {
        match self {
            ToMem::Read { addr, .. } | ToMem::Write { addr, .. } => *addr,
        }
    }
}

/// Counters for one scatter-add unit.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SaStats {
    /// Scatter requests accepted into the combining store.
    pub accepted: u64,
    /// Requests that found their address already in flight (no memory read
    /// issued — the combining benefit).
    pub combined: u64,
    /// Current-value reads issued to memory.
    pub reads_issued: u64,
    /// Final sums written to memory.
    pub writes_issued: u64,
    /// Results fed straight back into the FU for a pending same-address
    /// addition (step d chaining).
    pub chained: u64,
    /// Submissions rejected because the combining store was full.
    pub stalled_full: u64,
    /// Fetch-op requests (the §3.3 parallel fetch-and-op extension).
    pub fetch_ops: u64,
    /// Sum over ticks of occupied entries (divide by cycles for average).
    pub occupancy_integral: u64,
    /// Busy/blocked/idle cycle account (FU pipeline active / entries
    /// waiting on memory / empty), with `saturated` counting cycles the
    /// combining store was full.
    pub occ: OccupancyStats,
}

impl SaStats {
    /// Merge another unit's counters (for aggregating across banks).
    pub fn merge(&mut self, o: SaStats) {
        self.accepted += o.accepted;
        self.combined += o.combined;
        self.reads_issued += o.reads_issued;
        self.writes_issued += o.writes_issued;
        self.chained += o.chained;
        self.stalled_full += o.stalled_full;
        self.fetch_ops += o.fetch_ops;
        self.occupancy_integral += o.occupancy_integral;
        self.occ.merge(o.occ);
    }

    /// Record these counters into a telemetry scope.
    pub fn record(&self, scope: &mut sa_telemetry::Scope<'_>) {
        scope.counter("accepted", self.accepted);
        scope.counter("combined", self.combined);
        scope.counter("reads_issued", self.reads_issued);
        scope.counter("writes_issued", self.writes_issued);
        scope.counter("chained", self.chained);
        scope.counter("stalled_full", self.stalled_full);
        scope.counter("fetch_ops", self.fetch_ops);
        scope.counter("occupancy_integral", self.occupancy_integral);
        self.occ.record(scope);
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum EntryState {
    /// Head of an address chain: a read for the current value is in flight.
    WaitingValue,
    /// Waiting for an earlier addition to the same address to finish.
    Pending,
    /// Its addition is in the FU pipeline.
    InFu,
}

#[derive(Copy, Clone, Debug)]
struct CsEntry {
    addr: Addr,
    bits: u64,
    kind: ScalarKind,
    op: ScatterOp,
    fetch: bool,
    id: ReqId,
    origin: Origin,
    state: EntryState,
    /// Fault-injected stall: `(started, until)`. While `until` is in the
    /// future the entry refuses to issue its addition; the watchdog
    /// ([`ScatterAddUnit::cancel_stalls_older_than`]) may expire it early.
    stall: Option<(Cycle, Cycle)>,
}

#[derive(Copy, Clone, Debug)]
struct FuOp {
    done_at: Cycle,
    slot: usize,
    old_bits: u64,
}

/// The scatter-add unit of §3.2 (Figure 4b).
///
/// One unit sits in front of each stream-cache bank. Scatter requests are
/// buffered in the *combining store*; a CAM search over the store
/// (a) suppresses duplicate current-value reads for addresses already being
/// combined and (b) chains pending additions through the functional unit as
/// each sum completes, guaranteeing atomicity without locks.
///
/// Interaction contract (driven by [`NodeMemSys`](crate::NodeMemSys) or the
/// [`SensitivityRig`](crate::SensitivityRig)):
///
/// 1. [`try_submit`](Self::try_submit) a scatter request (stalls when full);
/// 2. pop [`ToMem`] operations via [`pop_to_mem`](Self::pop_to_mem) and
///    perform them against the cache/memory behind the unit;
/// 3. feed fetched values back with [`on_value`](Self::on_value);
/// 4. call [`tick`](Self::tick) once per cycle;
/// 5. collect per-request completion acknowledgements with
///    [`pop_ack`](Self::pop_ack) (step 6: "an acknowledgment signal is sent
///    to the address generator unit" once the sum is computed).
#[derive(Debug)]
pub struct ScatterAddUnit {
    cfg: SaUnitConfig,
    entries: Vec<Option<CsEntry>>,
    /// Occupied combining-store entries (mirror of the `Some` count in
    /// `entries`, kept so `occupancy`/`can_accept` are O(1)).
    occupied: usize,
    /// The CAM: word address → (entries holding it, entries of those in the
    /// FU). The hardware searches all entries associatively in one cycle;
    /// the model gets the same answer from this index without the scan.
    addr_index: FxHashMap<u64, (u32, u32)>,
    fu: VecDeque<FuOp>,
    values_in: VecDeque<(Addr, u64)>,
    to_mem: VecDeque<ToMem>,
    acks: VecDeque<MemResponse>,
    stats: SaStats,
    /// Combining-store stall schedule (inert without a fault plan);
    /// consulted once per entry at its first FU-issue attempt.
    faults: FaultInjector,
    resilience: ResilienceStats,
}

impl ScatterAddUnit {
    /// Create a unit with `cfg.cs_entries` combining-store slots and a fully
    /// pipelined FU of latency `cfg.fu_latency`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero combining-store entries.
    pub fn new(cfg: SaUnitConfig) -> ScatterAddUnit {
        assert!(
            cfg.cs_entries > 0,
            "combining store needs at least one entry"
        );
        ScatterAddUnit {
            entries: vec![None; cfg.cs_entries],
            occupied: 0,
            addr_index: FxHashMap::default(),
            fu: VecDeque::with_capacity(cfg.cs_entries),
            values_in: VecDeque::with_capacity(cfg.cs_entries),
            to_mem: VecDeque::with_capacity(2 * cfg.cs_entries),
            acks: VecDeque::with_capacity(2 * cfg.cs_entries),
            stats: SaStats::default(),
            faults: FaultInjector::none(),
            resilience: ResilienceStats::default(),
            cfg,
        }
    }

    /// Install this unit's combining-store stall schedule (taken from a
    /// fault plan by the owning node, which knows the unit's identity).
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Resilience counters: injected stalls and watchdog timeouts. All zero
    /// unless a fault injector is installed.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.resilience
    }

    /// Watchdog: expire any fault-injected stall that has lasted at least
    /// `timeout` cycles, so a stuck entry re-issues next tick instead of
    /// holding its address chain (and the store slot) indefinitely. A no-op
    /// without an active fault schedule.
    pub fn cancel_stalls_older_than(&mut self, now: Cycle, timeout: u64) {
        if !self.faults.is_active() {
            return;
        }
        for e in self.entries.iter_mut().flatten() {
            if let Some((started, until)) = e.stall {
                if until > now && now.since(started) >= timeout {
                    e.stall = Some((started, now));
                    self.resilience.cs_timeouts += 1;
                }
            }
        }
    }

    /// Additions currently in flight in the functional-unit pipeline.
    pub fn fu_depth(&self) -> usize {
        self.fu.len()
    }

    /// Combining-store entries currently occupied.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.occupied,
            self.entries.iter().filter(|e| e.is_some()).count()
        );
        self.occupied
    }

    /// Whether a new scatter request would be accepted right now.
    pub fn can_accept(&self) -> bool {
        self.occupied < self.entries.len()
    }

    /// Submit a scatter request (step 1 of Figure 4a).
    ///
    /// # Errors
    ///
    /// Returns the request back when the combining store is full — "if no
    /// such entry exists, the scatter-add operation stalls until an entry is
    /// freed".
    ///
    /// # Panics
    ///
    /// Panics if the request is not a [`MemOp::Scatter`]; plain reads and
    /// writes bypass the unit by design.
    pub fn try_submit(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let MemOp::Scatter {
            bits,
            kind,
            op,
            fetch,
        } = req.op
        else {
            panic!("non-scatter request routed into the scatter-add unit");
        };
        if !self.can_accept() {
            self.stats.stalled_full += 1;
            return Err(req);
        }
        let slot = self
            .entries
            .iter()
            .position(|e| e.is_none())
            .expect("occupied < len");
        // CAM search (step a): is this address already being combined?
        let counts = self.addr_index.entry(req.addr.0).or_insert((0, 0));
        let in_flight = counts.0 > 0;
        counts.0 += 1;
        debug_assert_eq!(
            in_flight,
            self.entries.iter().flatten().any(|e| e.addr == req.addr)
        );
        let state = if in_flight {
            self.stats.combined += 1;
            EntryState::Pending
        } else {
            self.to_mem.push_back(ToMem::Read {
                id: req.id,
                addr: req.addr,
            });
            self.stats.reads_issued += 1;
            EntryState::WaitingValue
        };
        self.entries[slot] = Some(CsEntry {
            addr: req.addr,
            bits,
            kind,
            op,
            fetch,
            id: req.id,
            origin: req.origin,
            state,
            stall: None,
        });
        self.occupied += 1;
        self.stats.accepted += 1;
        if fetch {
            self.stats.fetch_ops += 1;
        }
        Ok(())
    }

    /// [`try_submit`](Self::try_submit), stamping the request's
    /// combining-store entry time into `tracer` on acceptance.
    ///
    /// # Errors
    ///
    /// Returns the request back when the combining store is full.
    ///
    /// # Panics
    ///
    /// Panics if the request is not a [`MemOp::Scatter`].
    pub fn try_submit_traced(
        &mut self,
        req: MemRequest,
        now: Cycle,
        tracer: &mut ReqTracer,
    ) -> Result<(), MemRequest> {
        let id = req.id;
        let r = self.try_submit(req);
        if r.is_ok() {
            tracer.stamp(id, ReqStage::CombStore, now.raw());
        }
        r
    }

    /// Feed a current value fetched from memory back into the unit
    /// (steps 4–5, c of Figure 4b).
    pub fn on_value(&mut self, addr: Addr, bits: u64) {
        self.values_in.push_back((addr, bits));
    }

    /// Advance one cycle: retire at most one FU result and issue at most one
    /// new addition into the FU pipeline.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_traced(now, &mut ReqTracer::off());
    }

    /// [`tick`](Self::tick), stamping each request's entry into the FU
    /// pipeline into `tracer`.
    pub fn tick_traced(&mut self, now: Cycle, tracer: &mut ReqTracer) {
        self.stats.occupancy_integral += self.occupancy() as u64;
        let (class, at_capacity) = self.occ_state();
        self.stats.occ.cycle(class, at_capacity);

        // Retire a completed addition (needs a to_mem slot in the worst
        // case, which the unbounded queue always has; the *node* applies
        // back-pressure by draining it at the cache port rate).
        if self.fu.front().is_some_and(|op| op.done_at <= now) {
            let op = self.fu.pop_front().expect("front checked");
            let entry = self.entries[op.slot].take().expect("FU op for free slot");
            debug_assert_eq!(entry.state, EntryState::InFu);
            self.occupied -= 1;
            let sum = combine(op.old_bits, entry.bits, entry.kind, entry.op);
            // Acknowledge the original request (step 6); fetch-ops carry the
            // pre-op value back (§3.3 extension).
            self.acks.push_back(MemResponse {
                id: entry.id,
                addr: entry.addr,
                bits: if entry.fetch { op.old_bits } else { 0 },
                origin: entry.origin,
                at: now,
            });
            // Step d: check the store once more for the same address. The
            // CAM index answers without scanning: entries on this address
            // that are not in the FU are exactly the pending ones.
            let counts = self
                .addr_index
                .get_mut(&entry.addr.0)
                .expect("retiring entry is indexed");
            counts.0 -= 1;
            counts.1 -= 1;
            let has_pending = counts.0 - counts.1 > 0;
            if counts.0 == 0 {
                self.addr_index.remove(&entry.addr.0);
            }
            debug_assert_eq!(
                has_pending,
                self.entries
                    .iter()
                    .flatten()
                    .any(|e| e.addr == entry.addr && e.state != EntryState::InFu)
            );
            if has_pending {
                // "The newly computed sum acts as a returned memory value."
                self.values_in.push_front((entry.addr, sum));
                self.stats.chained += 1;
            } else {
                self.to_mem.push_back(ToMem::Write {
                    id: entry.id,
                    addr: entry.addr,
                    bits: sum,
                });
                self.stats.writes_issued += 1;
            }
        }

        // Issue one returned value into the FU (the FU accepts one new
        // addition per cycle and is fully pipelined).
        if let Some((addr, bits)) = self.values_in.pop_front() {
            let slot = self
                .entries
                .iter()
                .position(|e| {
                    e.as_ref().is_some_and(|e| {
                        e.addr == addr
                            && (e.state == EntryState::WaitingValue
                                || e.state == EntryState::Pending)
                    })
                })
                .unwrap_or_else(|| panic!("value for {addr} with no waiting entry"));
            let e = self.entries[slot].as_mut().expect("position found");
            // Fault schedule: the entry's first issue attempt may stall it.
            // A stalled entry keeps its value circulating through the issue
            // queue (one rotation per cycle, occupying this cycle's issue
            // slot) until the stall expires or the watchdog cancels it, so
            // the value is never lost and fast-forward stays pinned.
            if self.faults.is_active() && e.stall.is_none() {
                if let Some(FaultKind::CsStall { cycles }) = self.faults.next() {
                    e.stall = Some((now, now + cycles));
                    self.resilience.cs_stalls += 1;
                }
            }
            if e.stall.is_some_and(|(_, until)| until > now) {
                self.values_in.push_back((addr, bits));
                return;
            }
            e.state = EntryState::InFu;
            self.addr_index
                .get_mut(&addr.0)
                .expect("issuing entry is indexed")
                .1 += 1;
            tracer.stamp(e.id, ReqStage::FuPipe, now.raw());
            self.fu.push_back(FuOp {
                done_at: now + u64::from(self.cfg.fu_latency),
                slot,
                old_bits: bits,
            });
        }
    }

    /// Next outgoing memory operation, if the consumer can take it.
    pub fn pop_to_mem(&mut self) -> Option<ToMem> {
        self.to_mem.pop_front()
    }

    /// Peek the next outgoing memory operation without removing it.
    pub fn peek_to_mem(&self) -> Option<&ToMem> {
        self.to_mem.front()
    }

    /// Pop the next outgoing memory operation only if `accept` commits to it
    /// — the single-touch replacement for `peek_to_mem().copied()` + re-pop.
    pub fn pop_to_mem_if<F: FnMut(&ToMem) -> bool>(&mut self, mut accept: F) -> Option<ToMem> {
        if accept(self.to_mem.front()?) {
            self.to_mem.pop_front()
        } else {
            None
        }
    }

    /// Next completion acknowledgement (ack per scatter request, carrying
    /// the pre-op value for fetch-ops).
    pub fn pop_ack(&mut self) -> Option<MemResponse> {
        self.acks.pop_front()
    }

    /// Whether the unit holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.occupied == 0
            && self.fu.is_empty()
            && self.values_in.is_empty()
            && self.to_mem.is_empty()
            && self.acks.is_empty()
    }

    /// Earliest future cycle at which a tick can change this unit's state
    /// *on its own*: a queued returned value issues next cycle; otherwise
    /// the oldest FU operation retires at its `done_at` (the FU pushes in
    /// submission order with a constant latency, so the front is earliest).
    ///
    /// Deliberately **excludes** the outgoing `to_mem`/`acks` queues: those
    /// only move when the surrounding node or rig drains them, so they are
    /// the caller's events, not this unit's. A caller that still has
    /// undrained output must not sleep on this horizon alone.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.values_in.is_empty() {
            return Some(now + 1);
        }
        self.fu.front().map(|op| op.done_at.max(now + 1))
    }

    /// Classify the unit's state at the start of a cycle for occupancy
    /// accounting: FU pipeline or issue queue active → busy; entries (or
    /// undrained output) waiting on another resource → blocked; else idle.
    /// At capacity when the combining store would reject a submission.
    ///
    /// The same predicate serves the per-cycle tick and the bulk
    /// fast-forward fold: a skippable window freezes exactly this state, so
    /// both paths account identically.
    fn occ_state(&self) -> (OccClass, bool) {
        let class = if !self.fu.is_empty() || !self.values_in.is_empty() {
            OccClass::Busy
        } else if self.occupied > 0 || !self.to_mem.is_empty() || !self.acks.is_empty() {
            OccClass::Blocked
        } else {
            OccClass::Idle
        };
        (class, !self.can_accept())
    }

    /// Fold `skipped` provably-idle cycles (fast-forward) into the unit's
    /// per-cycle accounting so the stats stay byte-identical with skipping
    /// off: the occupancy integral and busy/blocked/idle account accrue at
    /// the frozen state, and when the caller held a rejected request it
    /// would have retried (and been refused) every skipped cycle, the
    /// full-stall counter accrues too.
    pub fn skip_cycles(&mut self, now: Cycle, skipped: u64, attempting_submit: bool) {
        debug_assert!(
            self.next_event(now).is_none_or(|t| t > now + skipped),
            "fast-forward skipped past a scatter-add unit event"
        );
        self.stats = self.stats_after_skip(skipped);
        if attempting_submit {
            debug_assert!(!self.can_accept(), "a submit would have succeeded");
            self.stats.stalled_full += skipped;
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SaStats {
        self.stats
    }

    /// The counters as they would read after folding `skipped` slept cycles
    /// with [`skip_cycles`](Self::skip_cycles) (no submit attempts), without
    /// mutating the unit.
    pub fn stats_after_skip(&self, skipped: u64) -> SaStats {
        let mut s = self.stats;
        s.occupancy_integral += self.occupied as u64 * skipped;
        let (class, at_capacity) = self.occ_state();
        s.occ.skip(skipped, class, at_capacity);
        s
    }

    /// The unit's configuration.
    pub fn config(&self) -> SaUnitConfig {
        self.cfg
    }
}

impl sa_telemetry::Inspectable for ScatterAddUnit {
    fn probe_kind(&self) -> &'static str {
        "scatter_add_unit"
    }

    fn probe_json(&self) -> sa_telemetry::Json {
        use sa_telemetry::Json;
        let mut o = Json::obj();
        o.push("cs_occupancy", Json::UInt(self.occupied as u64));
        o.push("cs_entries", Json::UInt(self.entries.len() as u64));
        o.push("cam_addrs", Json::UInt(self.addr_index.len() as u64));
        o.push("fu_depth", Json::UInt(self.fu.len() as u64));
        o.push("values_in", Json::UInt(self.values_in.len() as u64));
        o.push("to_mem", Json::UInt(self.to_mem.len() as u64));
        o.push("acks", Json::UInt(self.acks.len() as u64));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(entries: usize, fu_latency: u32) -> ScatterAddUnit {
        ScatterAddUnit::new(SaUnitConfig {
            cs_entries: entries,
            fu_latency,
        })
    }

    fn sa_req(id: ReqId, word: u64, val: i64) -> MemRequest {
        MemRequest {
            id,
            addr: Addr::from_word_index(word),
            op: MemOp::Scatter {
                bits: val as u64,
                kind: ScalarKind::I64,
                op: ScatterOp::Add,
                fetch: false,
            },
            origin: Origin::AddrGen { node: 0, ag: 0 },
        }
    }

    /// Drive the unit against an ideal 1-cycle memory until idle; returns
    /// the final memory image and the number of cycles taken.
    fn run_to_idle(u: &mut ScatterAddUnit, mem: &mut std::collections::HashMap<u64, u64>) -> u64 {
        let mut now = Cycle(0);
        for _ in 0..100_000 {
            now += 1;
            u.tick(now);
            while let Some(op) = u.pop_to_mem() {
                match op {
                    ToMem::Read { addr, .. } => {
                        let bits = mem.get(&addr.word_index()).copied().unwrap_or(0);
                        u.on_value(addr, bits);
                    }
                    ToMem::Write { addr, bits, .. } => {
                        mem.insert(addr.word_index(), bits);
                    }
                }
            }
            while u.pop_ack().is_some() {}
            if u.is_idle() {
                return now.raw();
            }
        }
        panic!("unit did not drain");
    }

    #[test]
    fn single_add_reads_adds_writes() {
        let mut u = unit(8, 4);
        let mut mem = std::collections::HashMap::new();
        mem.insert(5u64, 10u64);
        u.try_submit(sa_req(1, 5, 7)).unwrap();
        let s = u.stats();
        assert_eq!(
            s.reads_issued, 1,
            "first request issues a current-value read"
        );
        run_to_idle(&mut u, &mut mem);
        assert_eq!(mem[&5] as i64, 17);
        assert_eq!(u.stats().writes_issued, 1);
        assert_eq!(u.stats().chained, 0);
    }

    #[test]
    fn same_address_requests_combine() {
        let mut u = unit(8, 4);
        let mut mem = std::collections::HashMap::new();
        for i in 0..5 {
            u.try_submit(sa_req(i, 9, 1)).unwrap();
        }
        let s = u.stats();
        assert_eq!(s.reads_issued, 1, "only the chain head reads memory");
        assert_eq!(s.combined, 4);
        run_to_idle(&mut u, &mut mem);
        assert_eq!(mem[&9] as i64, 5);
        assert_eq!(
            u.stats().chained,
            4,
            "four sums fed back without memory traffic"
        );
        assert_eq!(u.stats().writes_issued, 1, "one final write");
    }

    #[test]
    fn distinct_addresses_pipeline_through_fu() {
        // With FU latency 4 and 8 distinct addresses, additions overlap: the
        // whole batch must take far less than 8 × (4 + overheads).
        let mut u = unit(8, 4);
        let mut mem = std::collections::HashMap::new();
        for i in 0..8 {
            u.try_submit(sa_req(i, i, 1)).unwrap();
        }
        let cycles = run_to_idle(&mut u, &mut mem);
        for i in 0..8 {
            assert_eq!(mem[&i] as i64, 1);
        }
        // Serial execution would take at least 8 × 4 = 32 cycles of FU time
        // plus read round-trips; pipelined it finishes in well under that.
        assert!(cycles < 24, "pipelined batch took {cycles} cycles");
    }

    #[test]
    fn dependent_adds_serialize_at_fu_latency() {
        // All additions to ONE address chain serially: each needs the
        // previous sum. n adds ≈ n × fu_latency cycles (the Figure 7
        // hot-address effect).
        let n = 32u64;
        let mut u = unit(8, 4);
        let mut mem = std::collections::HashMap::new();
        let mut now = Cycle(0);
        let mut submitted = 0;
        let mut done = false;
        let mut end = 0;
        for _ in 0..100_000 {
            now += 1;
            while submitted < n {
                if u.try_submit(sa_req(submitted, 0, 1)).is_ok() {
                    submitted += 1;
                } else {
                    break;
                }
            }
            u.tick(now);
            while let Some(op) = u.pop_to_mem() {
                match op {
                    ToMem::Read { addr, .. } => {
                        let bits = mem.get(&addr.word_index()).copied().unwrap_or(0);
                        u.on_value(addr, bits)
                    }
                    ToMem::Write { addr, bits, .. } => {
                        mem.insert(addr.word_index(), bits);
                    }
                }
            }
            while u.pop_ack().is_some() {}
            if submitted == n && u.is_idle() {
                done = true;
                end = now.raw();
                break;
            }
        }
        assert!(done);
        assert_eq!(mem[&0] as i64, n as i64);
        assert!(
            end >= n * 4,
            "dependent chain of {n} adds must take ≥ {} cycles, took {end}",
            n * 4
        );
        assert!(end < n * 4 + 40, "chain overhead too large: {end}");
    }

    #[test]
    fn full_store_stalls_and_recovers() {
        let mut u = unit(2, 4);
        u.try_submit(sa_req(1, 0, 1)).unwrap();
        u.try_submit(sa_req(2, 1, 1)).unwrap();
        let rejected = u.try_submit(sa_req(3, 2, 1));
        assert!(rejected.is_err());
        assert_eq!(u.stats().stalled_full, 1);
        // Drain and retry.
        let mut mem = std::collections::HashMap::new();
        run_to_idle(&mut u, &mut mem);
        u.try_submit(rejected.unwrap_err()).unwrap();
        run_to_idle(&mut u, &mut mem);
        assert_eq!(mem[&2] as i64, 1);
    }

    #[test]
    fn acks_are_produced_per_request() {
        let mut u = unit(8, 1);
        let mut mem = std::collections::HashMap::new();
        for i in 0..6 {
            u.try_submit(sa_req(100 + i, i % 2, 1)).unwrap();
        }
        let mut acks = 0;
        let mut now = Cycle(0);
        for _ in 0..10_000 {
            now += 1;
            u.tick(now);
            while let Some(op) = u.pop_to_mem() {
                match op {
                    ToMem::Read { addr, .. } => {
                        let bits = mem.get(&addr.word_index()).copied().unwrap_or(0);
                        u.on_value(addr, bits)
                    }
                    ToMem::Write { addr, bits, .. } => {
                        mem.insert(addr.word_index(), bits);
                    }
                }
            }
            while u.pop_ack().is_some() {
                acks += 1;
            }
            if u.is_idle() {
                break;
            }
        }
        assert_eq!(acks, 6, "every request is acknowledged exactly once");
    }

    #[test]
    fn fetch_op_returns_pre_op_value() {
        let mut u = unit(4, 2);
        let mut mem = std::collections::HashMap::new();
        mem.insert(0u64, 100u64);
        let req = MemRequest {
            id: 1,
            addr: Addr::from_word_index(0),
            op: MemOp::Scatter {
                bits: 5,
                kind: ScalarKind::I64,
                op: ScatterOp::Add,
                fetch: true,
            },
            origin: Origin::AddrGen { node: 0, ag: 0 },
        };
        u.try_submit(req).unwrap();
        let mut got = None;
        let mut now = Cycle(0);
        for _ in 0..1000 {
            now += 1;
            u.tick(now);
            while let Some(op) = u.pop_to_mem() {
                match op {
                    ToMem::Read { addr, .. } => {
                        let bits = mem.get(&addr.word_index()).copied().unwrap_or(0);
                        u.on_value(addr, bits)
                    }
                    ToMem::Write { addr, bits, .. } => {
                        mem.insert(addr.word_index(), bits);
                    }
                }
            }
            if let Some(a) = u.pop_ack() {
                got = Some(a.bits);
            }
            if u.is_idle() {
                break;
            }
        }
        assert_eq!(got, Some(100), "fetch-add returns the old value");
        assert_eq!(mem[&0] as i64, 105);
        assert_eq!(u.stats().fetch_ops, 1);
    }

    #[test]
    fn chained_fetch_ops_see_monotonic_old_values() {
        // Parallel queue allocation (§3.3): every fetch-add must observe a
        // distinct old value even when all requests hit one counter.
        let mut u = unit(8, 3);
        let mut mem = std::collections::HashMap::new();
        for i in 0..8 {
            let req = MemRequest {
                id: i,
                addr: Addr::from_word_index(0),
                op: MemOp::Scatter {
                    bits: 1,
                    kind: ScalarKind::I64,
                    op: ScatterOp::Add,
                    fetch: true,
                },
                origin: Origin::AddrGen { node: 0, ag: 0 },
            };
            u.try_submit(req).unwrap();
        }
        let mut olds = Vec::new();
        let mut now = Cycle(0);
        for _ in 0..10_000 {
            now += 1;
            u.tick(now);
            while let Some(op) = u.pop_to_mem() {
                match op {
                    ToMem::Read { addr, .. } => {
                        let bits = mem.get(&addr.word_index()).copied().unwrap_or(0);
                        u.on_value(addr, bits)
                    }
                    ToMem::Write { addr, bits, .. } => {
                        mem.insert(addr.word_index(), bits);
                    }
                }
            }
            while let Some(a) = u.pop_ack() {
                olds.push(a.bits as i64);
            }
            if u.is_idle() {
                break;
            }
        }
        olds.sort_unstable();
        assert_eq!(
            olds,
            (0..8).collect::<Vec<i64>>(),
            "each slot handed out once"
        );
        assert_eq!(mem[&0] as i64, 8);
    }

    #[test]
    fn min_max_mul_extensions() {
        for (op, vals, expect) in [
            (ScatterOp::Min, vec![5i64, -3, 9], -3i64),
            (ScatterOp::Max, vec![5, -3, 9], 9),
            (ScatterOp::Mul, vec![2, 3, 4], 0), // 0 initial × anything = 0
        ] {
            let mut u = unit(8, 2);
            let mut mem = std::collections::HashMap::new();
            if op == ScatterOp::Min {
                mem.insert(0u64, i64::MAX as u64);
            }
            if op == ScatterOp::Max {
                mem.insert(0u64, i64::MIN as u64);
            }
            for (i, v) in vals.iter().enumerate() {
                let req = MemRequest {
                    id: i as u64,
                    addr: Addr::from_word_index(0),
                    op: MemOp::Scatter {
                        bits: *v as u64,
                        kind: ScalarKind::I64,
                        op,
                        fetch: false,
                    },
                    origin: Origin::AddrGen { node: 0, ag: 0 },
                };
                u.try_submit(req).unwrap();
            }
            run_to_idle(&mut u, &mut mem);
            assert_eq!(mem[&0] as i64, expect, "{op:?}");
        }
    }

    #[test]
    fn f64_adds_are_exact_for_integers() {
        let mut u = unit(8, 4);
        let mut mem = std::collections::HashMap::new();
        for i in 0..20u64 {
            let req = MemRequest {
                id: i,
                addr: Addr::from_word_index(i % 3),
                op: MemOp::Scatter {
                    bits: 1.0f64.to_bits(),
                    kind: ScalarKind::F64,
                    op: ScatterOp::Add,
                    fetch: false,
                },
                origin: Origin::AddrGen { node: 0, ag: 0 },
            };
            // The store only has 8 entries; drain when full.
            if u.try_submit(req).is_err() {
                run_to_idle(&mut u, &mut mem);
                let req = MemRequest {
                    id: i,
                    addr: Addr::from_word_index(i % 3),
                    op: MemOp::Scatter {
                        bits: 1.0f64.to_bits(),
                        kind: ScalarKind::F64,
                        op: ScatterOp::Add,
                        fetch: false,
                    },
                    origin: Origin::AddrGen { node: 0, ag: 0 },
                };
                u.try_submit(req).unwrap();
            }
        }
        run_to_idle(&mut u, &mut mem);
        let total: f64 = (0..3)
            .map(|i| f64::from_bits(mem.get(&i).copied().unwrap_or(0)))
            .sum();
        assert_eq!(total, 20.0);
    }

    #[test]
    #[should_panic(expected = "non-scatter request")]
    fn plain_write_rejected() {
        let mut u = unit(2, 1);
        let req = MemRequest {
            id: 1,
            addr: Addr(0),
            op: MemOp::Write { bits: 1 },
            origin: Origin::AddrGen { node: 0, ag: 0 },
        };
        let _ = u.try_submit(req);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entry_config_rejected() {
        let _ = unit(0, 1);
    }

    #[test]
    fn traced_submit_and_tick_stamp_stages() {
        let mut u = unit(8, 2);
        let mut tracer = ReqTracer::every(1);
        tracer.issue(7, 0, 1);
        u.try_submit_traced(sa_req(7, 3, 1), Cycle(2), &mut tracer)
            .unwrap();
        let mut mem = std::collections::HashMap::new();
        let mut now = Cycle(2);
        for _ in 0..100 {
            now += 1;
            u.tick_traced(now, &mut tracer);
            while let Some(op) = u.pop_to_mem() {
                match op {
                    ToMem::Read { addr, .. } => {
                        let bits = mem.get(&addr.word_index()).copied().unwrap_or(0);
                        u.on_value(addr, bits);
                    }
                    ToMem::Write { id, addr, bits } => {
                        assert_eq!(id, 7, "write carries the originating request id");
                        mem.insert(addr.word_index(), bits);
                    }
                }
            }
            while u.pop_ack().is_some() {}
            if u.is_idle() {
                break;
            }
        }
        let rec = tracer.retire(7, now.raw()).expect("request sampled");
        assert_eq!(rec.stamp_at(ReqStage::CombStore), Some(2));
        let fu = rec.stamp_at(ReqStage::FuPipe).expect("FU entry stamped");
        assert!(fu > 2, "FU entry follows combining-store entry");
    }

    #[test]
    fn next_event_reports_fu_drain_and_queued_values() {
        let mut u = unit(4, 4);
        assert_eq!(u.next_event(Cycle(0)), None, "idle unit has no horizon");
        u.try_submit(sa_req(1, 0, 1)).unwrap();
        // A read is queued to_mem, but that is the caller's event; the unit
        // itself has nothing to do until the value returns.
        assert_eq!(u.next_event(Cycle(0)), None);
        u.on_value(Addr::from_word_index(0), 0);
        assert_eq!(u.next_event(Cycle(0)), Some(Cycle(1)), "value issues next");
        u.tick(Cycle(1)); // issue into the FU: done at 1 + 4
        assert_eq!(u.next_event(Cycle(1)), Some(Cycle(5)));
        // An overdue retirement still reports the next cycle, never `now`.
        assert_eq!(u.next_event(Cycle(9)), Some(Cycle(10)));
    }

    #[test]
    fn skip_cycles_matches_per_cycle_stall_accounting() {
        // A full store being retried every cycle: bulk skip accounting must
        // equal per-cycle tick + failed submit.
        let mk = || {
            let mut u = unit(2, 400);
            u.try_submit(sa_req(1, 0, 1)).unwrap();
            u.try_submit(sa_req(2, 1, 1)).unwrap();
            u.on_value(Addr::from_word_index(0), 0);
            u.on_value(Addr::from_word_index(1), 0);
            u.tick(Cycle(1));
            u.tick(Cycle(2));
            u
        };
        let mut stepped = mk();
        for c in 3..=10 {
            stepped.tick(Cycle(c));
            assert!(stepped.try_submit(sa_req(3, 2, 1)).is_err());
        }
        let mut skipped = mk();
        // next_event at cycle 2 is the FU drain at 401; skip cycles 3..=10.
        skipped.skip_cycles(Cycle(2), 8, true);
        assert_eq!(stepped.stats(), skipped.stats());
    }

    fn stall_injector(cycles: u64, period: u64, max: u64) -> FaultInjector {
        let plan = sa_faults::FaultPlan {
            seed: 5,
            cs_timeout: 64,
            rules: vec![sa_faults::FaultRule {
                kind: FaultKind::CsStall { cycles },
                period,
                max,
                after: 0,
            }],
        };
        plan.injector(sa_faults::FaultSite::CsEntry, 0, 0)
    }

    #[test]
    fn injected_stall_delays_issue_but_result_is_identical() {
        let run = |faults: Option<FaultInjector>| {
            let mut u = unit(8, 2);
            if let Some(f) = faults {
                u.set_fault_injector(f);
            }
            for i in 0..6 {
                u.try_submit(sa_req(i, i % 2, 1 + i as i64)).unwrap();
            }
            let mut mem = std::collections::HashMap::new();
            let cycles = run_to_idle(&mut u, &mut mem);
            (mem, cycles, u.resilience_stats())
        };
        let (mem_clean, t_clean, res_clean) = run(None);
        let (mem_fault, t_fault, res_fault) = run(Some(stall_injector(25, 1, 2)));
        assert!(res_clean.is_zero());
        assert_eq!(res_fault.cs_stalls, 2, "two stalls were injected");
        assert_eq!(mem_clean, mem_fault, "stalls never change results");
        assert!(
            t_fault > t_clean,
            "stalled run ({t_fault}) slower than clean ({t_clean})"
        );
    }

    #[test]
    fn watchdog_cancels_an_overdue_stall() {
        let mut u = unit(4, 2);
        // One very long stall on the first issue attempt.
        u.set_fault_injector(stall_injector(1_000_000, 1, 1));
        u.try_submit(sa_req(1, 0, 7)).unwrap();
        let mut now = Cycle(0);
        let mut mem = std::collections::HashMap::new();
        let mut done_at = None;
        for _ in 0..500 {
            now += 1;
            u.cancel_stalls_older_than(now, 16);
            u.tick(now);
            while let Some(op) = u.pop_to_mem() {
                match op {
                    ToMem::Read { addr, .. } => u.on_value(addr, 0),
                    ToMem::Write { addr, bits, .. } => {
                        mem.insert(addr.word_index(), bits);
                    }
                }
            }
            while u.pop_ack().is_some() {}
            if u.is_idle() {
                done_at = Some(now.raw());
                break;
            }
        }
        let done_at = done_at.expect("watchdog must unstick the entry");
        assert!(done_at < 100, "timed out at {done_at}, not after 1M cycles");
        assert_eq!(mem[&0] as i64, 7);
        let res = u.resilience_stats();
        assert_eq!(res.cs_stalls, 1);
        assert_eq!(res.cs_timeouts, 1);
    }

    #[test]
    fn occupancy_tracking() {
        let mut u = unit(4, 4);
        assert_eq!(u.occupancy(), 0);
        assert!(u.can_accept());
        u.try_submit(sa_req(1, 0, 1)).unwrap();
        u.try_submit(sa_req(2, 1, 1)).unwrap();
        assert_eq!(u.occupancy(), 2);
        u.tick(Cycle(1));
        assert_eq!(u.stats().occupancy_integral, 2);
    }
}
