//! Detailed DRAM channel timing model.
//!
//! Table 1 of the paper gives 16 DRAM interface channels totalling 38.4 GB/s.
//! Each [`DramChannel`] models one of them: a bounded command queue, a set of
//! internal DRAM banks with open-row state, and a data bus with a sustained
//! word rate. Commands are chosen with a *first-ready* policy — a pending
//! command that hits an open row is served before older row-miss commands —
//! which approximates the memory-access scheduling the paper assumes keeps
//! "variance small" (§4.4).
//!
//! The model serves one command at a time per channel; bank-level overlap is
//! approximated by the scheduler's preference for open rows rather than by
//! simulating concurrent activates. This keeps the model simple while
//! preserving the bandwidth/latency behaviour the paper's experiments probe.

use sa_faults::{FaultInjector, FaultKind, ResilienceStats};
use sa_sim::{Addr, BoundedQueue, Cycle, DramConfig, Origin, ReqId, Throughput};
use sa_telemetry::{OccClass, OccupancyStats};

use crate::BackingStore;

/// Whether a DRAM command moves data to or from the chip.
#[derive(Clone, Debug, PartialEq)]
pub enum DramKind {
    /// Fetch `words` consecutive words (a cache-line fill or a single-word
    /// read in uncached mode).
    Read,
    /// Store the carried data (a write-back or uncached write).
    Write(Vec<u64>),
}

/// A burst command sent to one DRAM channel.
#[derive(Clone, Debug)]
pub struct DramCommand {
    /// Request id echoed in the response.
    pub id: ReqId,
    /// Originating memory/scatter request, when this burst is directly on
    /// its critical path (a demand fill or write-around). `None` for traffic
    /// with no single originator, e.g. eviction write-backs. Used only for
    /// request-lifecycle tracing.
    pub req: Option<ReqId>,
    /// First byte address of the burst (word aligned).
    pub base: Addr,
    /// Burst length in words. For writes this must equal the data length.
    pub words: u32,
    /// Read or write.
    pub kind: DramKind,
    /// Issuing component, echoed in the response.
    pub origin: Origin,
}

/// Completion of a [`DramCommand`].
#[derive(Clone, Debug)]
pub struct DramResponse {
    /// Id of the completed command.
    pub id: ReqId,
    /// Base address of the burst.
    pub base: Addr,
    /// Fetched words (empty for writes).
    pub data: Vec<u64>,
    /// Issuing component.
    pub origin: Origin,
    /// Completion time.
    pub at: Cycle,
    /// ECC detected an uncorrectable (double-bit) error in the fetched
    /// data. The consumer must not install it and should replay the read;
    /// always false for writes and fault-free runs.
    pub ecc_error: bool,
}

/// Aggregate counters for one channel.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Commands that hit an open row.
    pub row_hits: u64,
    /// Commands that required a row activation.
    pub row_misses: u64,
    /// Total words moved over the data bus.
    pub words_transferred: u64,
    /// Sum of queue-entry-to-completion latencies (cycles), for averaging.
    pub total_latency: u64,
    /// Busy/idle cycle account (command queued or in flight / empty;
    /// row-access waits count as busy — they are the channel's own latency),
    /// with `saturated` counting cycles the command queue was full.
    pub occ: OccupancyStats,
}

impl DramStats {
    /// Mean command latency in cycles (0 if nothing completed).
    pub fn avg_latency(&self) -> f64 {
        let n = self.reads + self.writes;
        if n == 0 {
            0.0
        } else {
            self.total_latency as f64 / n as f64
        }
    }

    /// Merge another channel's counters (for whole-memory-system reporting).
    pub fn merge(&mut self, o: DramStats) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.words_transferred += o.words_transferred;
        self.total_latency += o.total_latency;
        self.occ.merge(o.occ);
    }

    /// Record these counters into a telemetry scope.
    pub fn record(&self, scope: &mut sa_telemetry::Scope<'_>) {
        scope.counter("reads", self.reads);
        scope.counter("writes", self.writes);
        scope.counter("row_hits", self.row_hits);
        scope.counter("row_misses", self.row_misses);
        scope.counter("words_transferred", self.words_transferred);
        scope.counter("total_latency", self.total_latency);
        self.occ.record(scope);
        scope.gauge("avg_latency", self.avg_latency());
    }
}

#[derive(Clone, Debug)]
struct BankState {
    open_row: Option<u64>,
}

#[derive(Debug)]
struct Service {
    cmd: DramCommand,
    submitted_at: Cycle,
    access_done: Cycle,
    words_left: u32,
}

/// One DRAM interface channel (see module docs).
#[derive(Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    queue: BoundedQueue<(DramCommand, Cycle)>,
    banks: Vec<BankState>,
    rate: Throughput,
    service: Option<Service>,
    /// One-deep pipeline: the next command's row access overlaps the current
    /// command's data transfer, as on a real channel.
    next: Option<Service>,
    stats: DramStats,
    /// ECC fault schedule for this channel's read completions (inert unless
    /// a fault plan is installed).
    faults: FaultInjector,
    resilience: ResilienceStats,
}

impl DramChannel {
    /// Create a channel with the given configuration.
    pub fn new(cfg: DramConfig) -> DramChannel {
        DramChannel {
            queue: BoundedQueue::new(cfg.queue_depth),
            banks: vec![BankState { open_row: None }; cfg.banks_per_channel],
            rate: cfg.channel_rate,
            service: None,
            next: None,
            stats: DramStats::default(),
            faults: FaultInjector::none(),
            resilience: ResilienceStats::default(),
            cfg,
        }
    }

    /// Install the ECC fault schedule for this channel. The injector is
    /// consulted once per read completion; [`FaultInjector::none`] restores
    /// fault-free behaviour.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// ECC recovery counters accumulated so far.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.resilience
    }

    /// Whether the command queue can take one more command.
    pub fn can_accept(&self) -> bool {
        self.queue.can_accept()
    }

    /// Submit a command.
    ///
    /// # Errors
    ///
    /// Returns the command back if the queue is full (the caller stalls).
    ///
    /// # Panics
    ///
    /// Panics if a write command's data length disagrees with `words`, or if
    /// the burst length is zero.
    pub fn try_submit(&mut self, cmd: DramCommand, now: Cycle) -> Result<(), DramCommand> {
        assert!(cmd.words > 0, "zero-length DRAM burst");
        if let DramKind::Write(ref data) = cmd.kind {
            assert_eq!(data.len(), cmd.words as usize, "write data length mismatch");
        }
        self.queue.try_push((cmd, now)).map_err(|(c, _)| c)
    }

    fn bank_and_row(&self, addr: Addr) -> (usize, u64) {
        let stripe = addr.0 / self.cfg.row_bytes;
        let bank = (stripe % self.cfg.banks_per_channel as u64) as usize;
        let row = stripe / self.cfg.banks_per_channel as u64;
        (bank, row)
    }

    /// Classify the channel's state at the start of a cycle for occupancy
    /// accounting: any queued or in-flight command (including a row access
    /// in progress — the channel's own latency) is busy; else idle. At
    /// capacity when the command queue is full. Shared by the per-cycle
    /// tick and the fast-forward fold, whose windows freeze this state.
    fn occ_state(&self) -> (OccClass, bool) {
        let class = if self.service.is_some() || self.next.is_some() || !self.queue.is_empty() {
            OccClass::Busy
        } else {
            OccClass::Idle
        };
        (class, !self.queue.can_accept())
    }

    /// Advance one cycle; returns any command that completed this cycle.
    pub fn tick(&mut self, now: Cycle, store: &mut BackingStore) -> Option<DramResponse> {
        let (class, at_capacity) = self.occ_state();
        self.stats.occ.cycle(class, at_capacity);
        self.rate.tick();
        self.queue.advance(now.raw());

        if self.service.is_none() {
            self.service = self.next.take();
        }
        if self.next.is_none() {
            self.schedule(now);
        }
        if self.service.is_none() {
            self.service = self.next.take();
        }

        let done = if let Some(s) = self.service.as_mut() {
            if now >= s.access_done {
                while s.words_left > 0 && self.rate.try_consume() {
                    s.words_left -= 1;
                    self.stats.words_transferred += 1;
                }
            }
            s.words_left == 0
        } else {
            false
        };

        if !done {
            return None;
        }
        let s = self.service.take().expect("service in progress");
        let mut ecc_error = false;
        let data = match s.cmd.kind {
            DramKind::Read => {
                self.stats.reads += 1;
                // ECC model: each read completion is one fault-site event.
                // A single-bit flip is corrected inline (the data stays
                // functionally intact); a double-bit flip is detected and
                // poisons the response so the consumer replays the read.
                // The backing store is untouched — faults are transient.
                if self.faults.is_active() {
                    match self.faults.next() {
                        Some(FaultKind::EccSingle) => self.resilience.ecc_corrected += 1,
                        Some(FaultKind::EccDouble) => {
                            self.resilience.ecc_detected += 1;
                            ecc_error = true;
                        }
                        _ => {}
                    }
                }
                store.read_line(s.cmd.base, u64::from(s.cmd.words))
            }
            DramKind::Write(ref data) => {
                self.stats.writes += 1;
                store.write_line(s.cmd.base, data);
                Vec::new()
            }
        };
        self.stats.total_latency += now.since(s.submitted_at);
        Some(DramResponse {
            id: s.cmd.id,
            base: s.cmd.base,
            data,
            origin: s.cmd.origin,
            at: now,
            ecc_error,
        })
    }

    /// First-ready scheduling: prefer the oldest command that hits an open
    /// row; otherwise take the oldest command.
    fn schedule(&mut self, now: Cycle) {
        if self.queue.is_empty() {
            return;
        }
        // First-ready: pick the oldest row-hit command, but never hop over an
        // older command whose address range overlaps (that reordering would
        // let a fill read stale data past a pending write, or vice versa).
        let span = |cmd: &DramCommand| (cmd.base.0, cmd.base.0 + u64::from(cmd.words) * 8);
        let mut chosen = 0usize;
        for (i, (cmd, _)) in self.queue.iter().enumerate() {
            let (bank, row) = self.bank_and_row(cmd.base);
            if self.banks[bank].open_row != Some(row) {
                continue;
            }
            let (lo, hi) = span(cmd);
            let conflicts = self.queue.iter().take(i).any(|(older, _)| {
                let (a, b) = span(older);
                lo < b && a < hi
            });
            if !conflicts {
                chosen = i;
                break;
            }
        }
        let (cmd, submitted_at) = self.queue.take_at(chosen).expect("queue non-empty");
        let (bank, row) = self.bank_and_row(cmd.base);
        let hit = self.banks[bank].open_row == Some(row);
        let access = if hit {
            self.stats.row_hits += 1;
            self.cfg.t_cas
        } else {
            self.stats.row_misses += 1;
            self.banks[bank].open_row = Some(row);
            self.cfg.t_rc
        };
        let words_left = cmd.words;
        self.next = Some(Service {
            cmd,
            submitted_at,
            access_done: now + u64::from(access),
            words_left,
        });
    }

    /// Whether the channel has no queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.service.is_none() && self.next.is_none()
    }

    /// Earliest future cycle at which a tick can change this channel's
    /// state. `None` when idle (a state change requires a new command).
    ///
    /// The only span a channel can sleep through is a row access in progress
    /// (`now < access_done`) with the one-deep pipeline already primed and
    /// nothing left to schedule; everything else — data transfer, promotion,
    /// scheduling — makes progress on the very next tick.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match &self.service {
            Some(s) => {
                if now >= s.access_done {
                    // Transferring: bus credit and words_left move every tick.
                    Some(now + 1)
                } else if self.next.is_none() && !self.queue.is_empty() {
                    // The overlapped scheduler would pick a command next tick.
                    Some(now + 1)
                } else {
                    Some(s.access_done.max(now + 1))
                }
            }
            None => {
                if self.next.is_some() || !self.queue.is_empty() {
                    // Promotion or scheduling happens next tick.
                    Some(now + 1)
                } else {
                    None
                }
            }
        }
    }

    /// Fold `skipped` un-ticked cycles (fast-forward) into the bandwidth
    /// token bucket, the busy/idle account and the command queue's
    /// occupancy integral. Exact because the transfer loop never runs
    /// during a skippable span (`now < access_done` throughout), so each
    /// skipped tick would only have refilled credit — and the frozen state
    /// classifies identically to per-cycle ticking.
    pub fn skip_idle(&mut self, now: Cycle, skipped: u64) {
        debug_assert!(
            self.next_event(now).is_none_or(|t| t > now + skipped),
            "fast-forward skipped past a DRAM channel event"
        );
        self.stats = self.stats_after_skip(skipped);
        self.rate.tick_idle(skipped);
        self.queue.advance(now.raw() + skipped);
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The counters as they would read after folding `skipped` idle cycles
    /// with [`skip_idle`](Self::skip_idle), without mutating the channel.
    pub fn stats_after_skip(&self, skipped: u64) -> DramStats {
        let mut s = self.stats;
        let (class, at_capacity) = self.occ_state();
        s.occ.skip(skipped, class, at_capacity);
        s
    }

    /// Occupancy statistics of the command queue as they would read with
    /// the queue advanced to cycle `now` (a sleeping channel's queue lags
    /// its owner's clock), without mutating the channel.
    pub fn queue_stats_at(&self, now: u64) -> sa_sim::QueueStats {
        self.queue.stats_at(now)
    }
}

impl sa_telemetry::Inspectable for DramChannel {
    fn probe_kind(&self) -> &'static str {
        "dram_channel"
    }

    fn probe_json(&self) -> sa_telemetry::Json {
        use sa_telemetry::Json;
        let mut o = Json::obj();
        o.push("queue", Json::UInt(self.queue.len() as u64));
        o.push("queue_capacity", Json::UInt(self.queue.capacity() as u64));
        let in_service = u64::from(self.service.is_some()) + u64::from(self.next.is_some());
        o.push("in_service", Json::UInt(in_service));
        let open_rows = self.banks.iter().filter(|b| b.open_row.is_some()).count();
        o.push("open_rows", Json::UInt(open_rows as u64));
        o
    }
}

/// Convenience: drive a set of channels and a store until all are idle,
/// collecting responses. Mostly used by tests.
pub fn drain_channels(
    channels: &mut [DramChannel],
    store: &mut BackingStore,
    mut now: Cycle,
    limit: u64,
) -> (Vec<DramResponse>, Cycle) {
    let mut out = Vec::new();
    let deadline = now + limit;
    while channels.iter().any(|c| !c.is_idle()) {
        now += 1;
        assert!(now <= deadline, "drain_channels exceeded {limit} cycles");
        for ch in channels.iter_mut() {
            if let Some(r) = ch.tick(now, store) {
                out.push(r);
            }
        }
    }
    (out, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sim::{DramConfig, Origin};

    fn cfg() -> DramConfig {
        DramConfig::default()
    }

    fn origin() -> Origin {
        Origin::CacheBank { node: 0, bank: 0 }
    }

    fn read_cmd(id: ReqId, base: u64, words: u32) -> DramCommand {
        DramCommand {
            id,
            req: Some(id),
            base: Addr(base),
            words,
            kind: DramKind::Read,
            origin: origin(),
        }
    }

    #[test]
    fn read_returns_store_contents() {
        let mut store = BackingStore::new();
        store.write_line(Addr(0), &[10, 20, 30, 40]);
        let mut ch = DramChannel::new(cfg());
        ch.try_submit(read_cmd(1, 0, 4), Cycle(0)).unwrap();
        let (resp, _) = drain_channels(std::slice::from_mut(&mut ch), &mut store, Cycle(0), 10_000);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].id, 1);
        assert_eq!(resp[0].data, vec![10, 20, 30, 40]);
    }

    #[test]
    fn write_applies_to_store() {
        let mut store = BackingStore::new();
        let mut ch = DramChannel::new(cfg());
        let cmd = DramCommand {
            id: 2,
            req: None,
            base: Addr(64),
            words: 4,
            kind: DramKind::Write(vec![1, 2, 3, 4]),
            origin: origin(),
        };
        ch.try_submit(cmd, Cycle(0)).unwrap();
        let (resp, _) = drain_channels(std::slice::from_mut(&mut ch), &mut store, Cycle(0), 10_000);
        assert_eq!(resp.len(), 1);
        assert!(resp[0].data.is_empty());
        assert_eq!(store.read_line(Addr(64), 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut store = BackingStore::new();
        // First access opens the row (t_rc); second access to the same row
        // is a hit (t_cas).
        let mut ch = DramChannel::new(cfg());
        ch.try_submit(read_cmd(1, 0, 1), Cycle(0)).unwrap();
        ch.try_submit(read_cmd(2, 8, 1), Cycle(0)).unwrap();
        let (resp, _) = drain_channels(std::slice::from_mut(&mut ch), &mut store, Cycle(0), 10_000);
        let t1 = resp[0].at;
        let t2 = resp[1].at;
        let first = t1.raw();
        let gap = t2.raw() - t1.raw();
        assert!(
            first > gap,
            "second (row hit) access should be faster: first={first} gap={gap}"
        );
        let s = ch.stats();
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_misses, 1);
    }

    #[test]
    fn first_ready_prefers_open_row() {
        let c = cfg();
        let mut store = BackingStore::new();
        let mut ch = DramChannel::new(c);
        // Open row 0 of bank 0.
        ch.try_submit(read_cmd(1, 0, 1), Cycle(0)).unwrap();
        // A command to a *different* row of bank 0 ...
        let other_row = c.row_bytes * c.banks_per_channel as u64;
        ch.try_submit(read_cmd(2, other_row, 1), Cycle(0)).unwrap();
        // ... then one that hits the open row again.
        ch.try_submit(read_cmd(3, 8, 1), Cycle(0)).unwrap();
        let (resp, _) = drain_channels(std::slice::from_mut(&mut ch), &mut store, Cycle(0), 10_000);
        let order: Vec<ReqId> = resp.iter().map(|r| r.id).collect();
        assert_eq!(
            order,
            vec![1, 3, 2],
            "row hit (id 3) scheduled before row miss (id 2)"
        );
    }

    #[test]
    fn bandwidth_is_bounded_by_channel_rate() {
        let c = cfg();
        let mut store = BackingStore::new();
        let mut ch = DramChannel::new(c);
        let mut now = Cycle(0);
        let mut id = 0;
        let mut completed_words = 0u64;
        // Stream sequential line reads for 10k cycles, keeping the queue fed.
        for _ in 0..10_000 {
            now += 1;
            while ch.can_accept() {
                id += 1;
                ch.try_submit(read_cmd(id, id * 32, 4), now).unwrap();
            }
            if let Some(r) = ch.tick(now, &mut store) {
                completed_words += r.data.len() as u64;
            }
        }
        let achieved = completed_words as f64 / 10_000.0;
        let peak = c.channel_rate.words_per_cycle();
        assert!(
            achieved <= peak + 1e-9,
            "achieved {achieved} exceeds peak {peak}"
        );
        // Sequential reads are mostly row hits, so we should get close to peak.
        assert!(
            achieved > peak * 0.8,
            "achieved {achieved} far below peak {peak}"
        );
    }

    #[test]
    fn queue_full_rejects() {
        let c = cfg();
        let mut ch = DramChannel::new(c);
        for i in 0..c.queue_depth as u64 {
            ch.try_submit(read_cmd(i, i * 8, 1), Cycle(0)).unwrap();
        }
        assert!(!ch.can_accept());
        assert!(ch.try_submit(read_cmd(99, 0, 1), Cycle(0)).is_err());
    }

    #[test]
    #[should_panic(expected = "write data length mismatch")]
    fn write_length_mismatch_panics() {
        let mut ch = DramChannel::new(cfg());
        let cmd = DramCommand {
            id: 1,
            req: None,
            base: Addr(0),
            words: 4,
            kind: DramKind::Write(vec![1, 2]),
            origin: origin(),
        };
        let _ = ch.try_submit(cmd, Cycle(0));
    }

    #[test]
    fn stats_latency_accumulates() {
        let mut store = BackingStore::new();
        let mut ch = DramChannel::new(cfg());
        ch.try_submit(read_cmd(1, 0, 1), Cycle(0)).unwrap();
        let (_, end) = drain_channels(std::slice::from_mut(&mut ch), &mut store, Cycle(0), 10_000);
        let s = ch.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.total_latency, end.raw());
        assert!(s.avg_latency() > 0.0);
    }

    #[test]
    fn no_reorder_across_overlapping_addresses() {
        let c = cfg();
        let mut store = BackingStore::new();
        let mut ch = DramChannel::new(c);
        // Open row 0 with a read.
        ch.try_submit(read_cmd(1, 0, 1), Cycle(0)).unwrap();
        // Write 77 to word 4 in a *different* row (a row miss) ...
        let other_row = c.row_bytes * c.banks_per_channel as u64;
        let w = DramCommand {
            id: 2,
            req: None,
            base: Addr(other_row),
            words: 1,
            kind: DramKind::Write(vec![77]),
            origin: origin(),
        };
        ch.try_submit(w, Cycle(0)).unwrap();
        // ... then read the same word. The read hits no open row either, but
        // even if it did it must not bypass the older overlapping write.
        ch.try_submit(read_cmd(3, other_row, 1), Cycle(0)).unwrap();
        let (resp, _) = drain_channels(std::slice::from_mut(&mut ch), &mut store, Cycle(0), 10_000);
        let r3 = resp.iter().find(|r| r.id == 3).unwrap();
        assert_eq!(r3.data, vec![77], "read must observe the older write");
        // After the write opens the row, id 3 is a row hit scheduled after it.
        let order: Vec<ReqId> = resp.iter().map(|r| r.id).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn horizon_skipping_reproduces_per_cycle_ticking() {
        // Drive the same command stream through a per-cycle channel and a
        // horizon-skipping channel; responses and counters must be identical.
        let c = cfg();
        let submit_all = |ch: &mut DramChannel| {
            let mut addrs = [0u64, 8, 4096, 32, 8192, 40, 12288, 16];
            addrs.rotate_left(3);
            for (i, &a) in addrs.iter().enumerate() {
                ch.try_submit(read_cmd(i as u64 + 1, a, 2), Cycle(0))
                    .unwrap();
            }
        };
        let mut store_a = BackingStore::new();
        let mut stepped = DramChannel::new(c);
        submit_all(&mut stepped);
        let mut got_stepped = Vec::new();
        let mut now = Cycle(0);
        while !stepped.is_idle() {
            now += 1;
            assert!(now.raw() < 100_000, "runaway");
            if let Some(r) = stepped.tick(now, &mut store_a) {
                got_stepped.push((r.id, r.at));
            }
        }

        let mut store_b = BackingStore::new();
        let mut skipping = DramChannel::new(c);
        submit_all(&mut skipping);
        let mut got_skipping = Vec::new();
        let mut now = Cycle(0);
        while !skipping.is_idle() {
            if let Some(h) = skipping.next_event(now) {
                if h > now + 1 {
                    skipping.skip_idle(now, h - now - 1);
                    now = Cycle(h.raw() - 1);
                }
            }
            now += 1;
            assert!(now.raw() < 100_000, "runaway");
            if let Some(r) = skipping.tick(now, &mut store_b) {
                got_skipping.push((r.id, r.at));
            }
        }
        assert_eq!(got_stepped, got_skipping);
        assert_eq!(stepped.stats(), skipping.stats());
        assert!(got_stepped.len() == 8);
    }

    #[test]
    fn ecc_single_bit_is_corrected_inline() {
        use sa_faults::{FaultPlan, FaultRule, FaultSite};
        let plan = FaultPlan {
            seed: 1,
            cs_timeout: 64,
            rules: vec![FaultRule {
                kind: FaultKind::EccSingle,
                period: 1,
                max: 2,
                after: 0,
            }],
        };
        let mut store = BackingStore::new();
        store.write_line(Addr(0), &[5, 6, 7, 8]);
        let mut ch = DramChannel::new(cfg());
        ch.set_fault_injector(plan.injector(FaultSite::DramRead, 0, 0));
        ch.try_submit(read_cmd(1, 0, 4), Cycle(0)).unwrap();
        ch.try_submit(read_cmd(2, 0, 4), Cycle(0)).unwrap();
        ch.try_submit(read_cmd(3, 0, 4), Cycle(0)).unwrap();
        let (resp, _) = drain_channels(std::slice::from_mut(&mut ch), &mut store, Cycle(0), 10_000);
        // Corrected errors never poison a response or alter its data.
        assert_eq!(resp.len(), 3);
        for r in &resp {
            assert!(!r.ecc_error);
            assert_eq!(r.data, vec![5, 6, 7, 8]);
        }
        let rs = ch.resilience_stats();
        assert_eq!(rs.ecc_corrected, 2, "max=2 caps the rule");
        assert_eq!(rs.ecc_detected, 0);
    }

    #[test]
    fn ecc_double_bit_poisons_the_response() {
        use sa_faults::{FaultPlan, FaultRule, FaultSite};
        let plan = FaultPlan {
            seed: 1,
            cs_timeout: 64,
            rules: vec![FaultRule {
                kind: FaultKind::EccDouble,
                period: 1,
                max: 1,
                after: 0,
            }],
        };
        let mut store = BackingStore::new();
        store.write_line(Addr(0), &[9, 9]);
        let mut ch = DramChannel::new(cfg());
        ch.set_fault_injector(plan.injector(FaultSite::DramRead, 0, 0));
        ch.try_submit(read_cmd(1, 0, 2), Cycle(0)).unwrap();
        ch.try_submit(read_cmd(2, 0, 2), Cycle(0)).unwrap();
        let (resp, _) = drain_channels(std::slice::from_mut(&mut ch), &mut store, Cycle(0), 10_000);
        assert!(resp[0].ecc_error, "first read is struck");
        assert!(!resp[1].ecc_error, "max=1: second read is clean");
        // Transient fault: the store (and hence a replay) stays correct.
        assert_eq!(resp[1].data, vec![9, 9]);
        assert_eq!(ch.resilience_stats().ecc_detected, 1);
        // Writes are never fault-site events.
        assert_eq!(ch.resilience_stats().ecc_corrected, 0);
    }

    #[test]
    fn stats_merge() {
        let mut a = DramStats {
            reads: 1,
            writes: 2,
            row_hits: 3,
            row_misses: 4,
            words_transferred: 5,
            total_latency: 6,
            occ: OccupancyStats {
                busy: 7,
                blocked: 0,
                idle: 8,
                saturated: 1,
            },
        };
        a.merge(a);
        assert_eq!(a.reads, 2);
        assert_eq!(a.words_transferred, 10);
        assert_eq!(a.occ.busy, 14);
        assert_eq!(a.occ.elapsed(), 30);
    }
}
