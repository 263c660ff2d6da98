//! One address-interleaved bank of the stream cache.

use std::collections::VecDeque;

use fxhash::FxHashMap;
use sa_faults::{ResilienceStats, ECC_REPLAY_LIMIT};
use sa_mem::{DramCommand, DramKind, DramResponse};
use sa_sim::{Addr, BoundedQueue, CacheConfig, Cycle, MemResponse, Origin, ReqId, WORD_BYTES};
use sa_telemetry::{OccClass, OccupancyStats};

/// What a cache access does. See the crate docs for the policies.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum AccessKind {
    /// Fetch one word. With `zero_alloc` (combining mode) a miss allocates a
    /// zero-filled line instead of fetching from memory.
    Read {
        /// Allocate-with-zero on miss instead of filling from DRAM.
        zero_alloc: bool,
    },
    /// Store one word. With `partial_sum` (combining mode) the line is marked
    /// as holding partial sums, so its eviction becomes a [`SumBack`].
    Write {
        /// Raw bits to store.
        bits: u64,
        /// Mark the target line as a partial-sum line.
        partial_sum: bool,
    },
}

/// A single-word access presented to a cache bank.
#[derive(Copy, Clone, Debug)]
pub struct CacheAccess {
    /// Echoed in the data response (reads only).
    pub id: ReqId,
    /// Word-aligned target address; must map to this bank.
    pub addr: Addr,
    /// Read or write, with combining-mode flags.
    pub kind: AccessKind,
    /// Issuer, echoed in the data response.
    pub origin: Origin,
}

/// An evicted partial-sum line on its way to the home node, where each word
/// is applied as a scatter-add (§3.2 multi-node optimization).
#[derive(Clone, Debug, PartialEq)]
pub struct SumBack {
    /// First byte address of the line.
    pub base: Addr,
    /// The partial sums accumulated in the line (words_per_line values).
    pub data: Vec<u64>,
}

/// Counters for one bank.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads that hit a resident line.
    pub read_hits: u64,
    /// Reads that required a DRAM fill.
    pub read_misses: u64,
    /// Reads absorbed by an already-pending fill (hit-under-miss).
    pub read_merges: u64,
    /// Writes that hit a resident line.
    pub write_hits: u64,
    /// Writes forwarded directly to DRAM (write-around).
    pub write_arounds: u64,
    /// Writes merged into a pending fill.
    pub write_merges: u64,
    /// Zero-allocated lines (combining mode).
    pub zero_allocs: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Dirty lines written back to DRAM.
    pub write_backs: u64,
    /// Partial-sum lines emitted as sum-backs.
    pub sum_backs: u64,
    /// Accesses rejected for lack of a resource (caller retries).
    pub blocked: u64,
    /// Subset of `blocked`: rejections because the MSHR file was exhausted or
    /// a pending-fill MSHR had no free target slot.
    pub mshr_full: u64,
    /// Busy/blocked/idle cycle account (access granted or fill installed /
    /// misses outstanding / empty), with `saturated` counting cycles the
    /// MSHR file was at capacity or rejected for lack of a target slot.
    pub occ: OccupancyStats,
}

impl CacheStats {
    /// Read hit fraction (0 when no reads happened).
    pub fn read_hit_rate(&self) -> f64 {
        let n = self.read_hits + self.read_misses + self.read_merges;
        if n == 0 {
            0.0
        } else {
            self.read_hits as f64 / n as f64
        }
    }

    /// Merge another bank's counters.
    pub fn merge(&mut self, o: CacheStats) {
        self.read_hits += o.read_hits;
        self.read_misses += o.read_misses;
        self.read_merges += o.read_merges;
        self.write_hits += o.write_hits;
        self.write_arounds += o.write_arounds;
        self.write_merges += o.write_merges;
        self.zero_allocs += o.zero_allocs;
        self.evictions += o.evictions;
        self.write_backs += o.write_backs;
        self.sum_backs += o.sum_backs;
        self.blocked += o.blocked;
        self.mshr_full += o.mshr_full;
        self.occ.merge(o.occ);
    }

    /// Record these counters into a telemetry scope.
    pub fn record(&self, scope: &mut sa_telemetry::Scope<'_>) {
        scope.counter("read_hits", self.read_hits);
        scope.counter("read_misses", self.read_misses);
        scope.counter("read_merges", self.read_merges);
        scope.counter("write_hits", self.write_hits);
        scope.counter("write_arounds", self.write_arounds);
        scope.counter("write_merges", self.write_merges);
        scope.counter("zero_allocs", self.zero_allocs);
        scope.counter("evictions", self.evictions);
        scope.counter("write_backs", self.write_backs);
        scope.counter("sum_backs", self.sum_backs);
        scope.counter("blocked", self.blocked);
        scope.counter("mshr_full", self.mshr_full);
        self.occ.record(scope);
        scope.gauge("read_hit_rate", self.read_hit_rate());
    }
}

/// Metadata of one cache line. The line's words live in the bank's arena at
/// `slot` (see [`CacheBank::words`]); 0 means no storage yet.
#[derive(Copy, Clone, Debug, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    partial_sum: bool,
    tag: u64,
    lru: u64,
    slot: u32,
}

/// One deferred access waiting on a line fill. Targets replay strictly in
/// arrival order when the fill returns, so a read issued before a write to
/// the same word observes the pre-write value (hit-under-miss ordering).
#[derive(Copy, Clone, Debug)]
enum MshrTarget {
    Read(ReqId, usize, Origin),
    Write(usize, u64, bool),
}

#[derive(Debug)]
struct Mshr {
    line_base: Addr,
    targets: Vec<MshrTarget>,
    /// Fill replays issued for this line after ECC-detected errors; capped
    /// at [`ECC_REPLAY_LIMIT`], after which the data is accepted as-is.
    replays: u32,
}

impl Mshr {
    fn occupancy(&self) -> usize {
        self.targets.len()
    }
}

/// One bank of the stream cache (see crate docs for policies).
#[derive(Debug)]
pub struct CacheBank {
    cfg: CacheConfig,
    node: usize,
    bank_index: usize,
    /// Words per line, cached from `cfg`.
    words: usize,
    /// Line metadata, set-major: set `s` is `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    /// Word arena. A line gets a `words`-word slot the first time it becomes
    /// valid and keeps it for life (eviction hands it to the next occupant),
    /// so the arena grows with the lines a run touches, never past the
    /// bank's capacity, and installs never allocate per line.
    data: Vec<u64>,
    mshrs: Vec<Mshr>,
    /// Line base → index into `mshrs`. Line bases are unique across MSHRs by
    /// construction, and every access probes this on the miss path, so the
    /// deterministic fast hash replaces the former linear scans.
    mshr_lookup: FxHashMap<u64, usize>,
    mem_out: BoundedQueue<DramCommand>,
    pending_fills: VecDeque<DramResponse>,
    ready: VecDeque<MemResponse>,
    sum_backs: VecDeque<SumBack>,
    lru_tick: u64,
    next_cmd_id: ReqId,
    stats: CacheStats,
    resilience: ResilienceStats,
    /// Occupancy classification of the cycle currently in flight. A bank's
    /// class for one cycle is only known once the cycle's port accesses have
    /// been presented (which happens *after* [`CacheBank::tick`] in the node
    /// order), so the tick sets a provisional class, accesses upgrade it,
    /// and the next tick / skip / stats read commits it.
    pend: Option<(OccClass, bool)>,
}

impl CacheBank {
    /// Create bank `bank_index` of node `node` with geometry from `cfg`.
    pub fn new(cfg: CacheConfig, node: usize, bank_index: usize) -> CacheBank {
        assert!(bank_index < cfg.banks, "bank index out of range");
        let lines = cfg.sets_per_bank() * cfg.ways as u64;
        assert!(u32::try_from(lines).is_ok(), "too many lines per bank");
        CacheBank {
            node,
            bank_index,
            words: cfg.words_per_line() as usize,
            lines: vec![Line::default(); lines as usize],
            data: Vec::new(),
            mshrs: Vec::with_capacity(cfg.mshrs_per_bank),
            mshr_lookup: FxHashMap::default(),
            mem_out: BoundedQueue::new(cfg.mshrs_per_bank * 2),
            pending_fills: VecDeque::new(),
            ready: VecDeque::new(),
            sum_backs: VecDeque::new(),
            lru_tick: 0,
            next_cmd_id: 0,
            stats: CacheStats::default(),
            resilience: ResilienceStats::default(),
            pend: None,
            cfg,
        }
    }

    /// Commit the in-flight cycle's occupancy classification, if any.
    fn commit_pend(&mut self) {
        if let Some((class, at_capacity)) = self.pend.take() {
            self.stats.occ.cycle(class, at_capacity);
        }
    }

    /// Upgrade the in-flight cycle's class (`Idle < Blocked < Busy`) and/or
    /// flag it as at-capacity.
    fn occ_note(&mut self, class: OccClass, at_capacity: bool) {
        if let Some(p) = self.pend.as_mut() {
            p.0 = p.0.max(class);
            p.1 |= at_capacity;
        }
    }

    /// The state-only occupancy classification: misses or undrained output
    /// outstanding → blocked, else idle; at capacity when the MSHR file is
    /// exhausted. Shared by the per-cycle tick (as the provisional class)
    /// and the fast-forward fold (where the state is frozen, so no upgrades
    /// can occur and this is the final class).
    fn occ_baseline(&self) -> (OccClass, bool) {
        let class = if !self.mshrs.is_empty()
            || !self.pending_fills.is_empty()
            || !self.ready.is_empty()
            || !self.mem_out.is_empty()
            || !self.sum_backs.is_empty()
        {
            OccClass::Blocked
        } else {
            OccClass::Idle
        };
        (class, self.mshrs.len() >= self.cfg.mshrs_per_bank)
    }

    /// Map an address to (set, tag, word offset). The tag is the *full*
    /// global line index: the bank-selection hash is not invertible, so
    /// banks store complete line identities.
    fn locate(&self, addr: Addr) -> (usize, u64, usize) {
        let line_index = addr.line_index(self.cfg.line_bytes);
        debug_assert_eq!(
            self.cfg.bank_of_line(line_index),
            self.bank_index,
            "address {addr} does not map to bank {}",
            self.bank_index
        );
        let set = ((line_index / self.cfg.banks as u64) % self.cfg.sets_per_bank()) as usize;
        let tag = line_index;
        let offset = ((addr.0 % self.cfg.line_bytes) / WORD_BYTES) as usize;
        (set, tag, offset)
    }

    fn line_base_of(&self, addr: Addr) -> Addr {
        addr.line_base(self.cfg.line_bytes)
    }

    /// Index into `lines` of the first way of `set`.
    fn set_start(&self, set: usize) -> usize {
        set * self.cfg.ways
    }

    /// The resident line holding `tag` in `set`, as an index into `lines`.
    fn find_line(&self, set: usize, tag: u64) -> Option<usize> {
        let start = self.set_start(set);
        self.lines[start..start + self.cfg.ways]
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .map(|way| start + way)
    }

    fn touch(&mut self, line: usize) {
        self.lru_tick += 1;
        self.lines[line].lru = self.lru_tick;
    }

    fn line_base(&self, tag: u64) -> Addr {
        Addr(tag * self.cfg.line_bytes)
    }

    /// The words of `line`, which must have a slot (every valid line has).
    fn words(&self, line: usize) -> &[u64] {
        let start = (self.lines[line].slot as usize - 1) * self.words;
        &self.data[start..start + self.words]
    }

    /// The words of `line`, giving it a slot at the end of the arena on
    /// first use. A slot is never returned, so its words hold whatever the
    /// previous occupant left: every install overwrites all of them.
    fn words_mut(&mut self, line: usize) -> &mut [u64] {
        if self.lines[line].slot == 0 {
            self.data.resize(self.data.len() + self.words, 0);
            self.lines[line].slot = (self.data.len() / self.words) as u32;
        }
        let start = (self.lines[line].slot as usize - 1) * self.words;
        &mut self.data[start..start + self.words]
    }

    /// Mark `line` valid with `tag`, clean, and not a partial-sum line.
    fn install(&mut self, line: usize, tag: u64) {
        let l = &mut self.lines[line];
        l.valid = true;
        l.dirty = false;
        l.partial_sum = false;
        l.tag = tag;
    }

    /// Pick a victim line in `set` and evict it if needed. Returns its index
    /// into `lines` on success, or `None` when eviction is blocked (the
    /// write-back queue is full).
    fn make_room(&mut self, set: usize) -> Option<usize> {
        let start = self.set_start(set);
        let ways = &self.lines[start..start + self.cfg.ways];
        if let Some(way) = ways.iter().position(|l| !l.valid) {
            return Some(start + way);
        }
        let line = start
            + ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("ways > 0");
        let Line {
            dirty,
            partial_sum,
            tag,
            ..
        } = self.lines[line];
        if dirty {
            let base = self.line_base(tag);
            if partial_sum {
                let data = self.words(line).to_vec();
                self.sum_backs.push_back(SumBack { base, data });
                self.stats.sum_backs += 1;
            } else {
                if !self.mem_out.can_accept() {
                    return None;
                }
                self.next_cmd_id += 1;
                let data = self.words(line).to_vec();
                // Write-backs retire traffic from many past requests; no
                // single originator to attribute.
                let cmd = DramCommand {
                    id: self.next_cmd_id,
                    req: None,
                    base,
                    words: self.cfg.words_per_line() as u32,
                    kind: DramKind::Write(data),
                    origin: Origin::CacheBank {
                        node: self.node,
                        bank: self.bank_index,
                    },
                };
                self.mem_out.try_push(cmd).expect("capacity checked");
                self.stats.write_backs += 1;
            }
        }
        self.stats.evictions += 1;
        let l = &mut self.lines[line];
        l.valid = false;
        l.dirty = false;
        l.partial_sum = false;
        Some(line)
    }

    /// Present one access to the bank (at most one per cycle in the base
    /// machine — the caller enforces the port limit).
    ///
    /// # Errors
    ///
    /// Returns the access back when a resource is exhausted (MSHR file,
    /// MSHR target slots, memory command queue, or an eviction that cannot
    /// proceed); the caller retries next cycle — this is the back-pressure
    /// path of the machine.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the address does not map to this bank.
    pub fn try_access(&mut self, access: CacheAccess, now: Cycle) -> Result<(), CacheAccess> {
        let mshr_full_before = self.stats.mshr_full;
        let r = self.try_access_inner(access, now);
        // Occupancy: a granted access makes this a busy cycle; a rejection
        // means work was pushed back (blocked), and an MSHR-full rejection
        // additionally marks the cycle as at-capacity.
        let note = if r.is_ok() {
            OccClass::Busy
        } else {
            OccClass::Blocked
        };
        self.occ_note(note, self.stats.mshr_full > mshr_full_before);
        r
    }

    fn try_access_inner(&mut self, access: CacheAccess, now: Cycle) -> Result<(), CacheAccess> {
        let (set, tag, offset) = self.locate(access.addr);
        let line_base = self.line_base_of(access.addr);
        let hit = self.find_line(set, tag);
        match access.kind {
            AccessKind::Read { zero_alloc } => {
                if let Some(line) = hit {
                    let bits = self.words(line)[offset];
                    self.touch(line);
                    self.stats.read_hits += 1;
                    self.push_ready(access, bits, now);
                    return Ok(());
                }
                if let Some(&idx) = self.mshr_lookup.get(&line_base.0) {
                    let m = &mut self.mshrs[idx];
                    if zero_alloc {
                        // A zero-alloc read racing a real fill would fork the
                        // line's value; wait for the fill instead.
                        self.stats.blocked += 1;
                        return Err(access);
                    }
                    if m.occupancy() >= self.cfg.targets_per_mshr {
                        self.stats.blocked += 1;
                        self.stats.mshr_full += 1;
                        return Err(access);
                    }
                    m.targets
                        .push(MshrTarget::Read(access.id, offset, access.origin));
                    self.stats.read_merges += 1;
                    return Ok(());
                }
                if zero_alloc {
                    let Some(line) = self.make_room(set) else {
                        self.stats.blocked += 1;
                        return Err(access);
                    };
                    self.install(line, tag);
                    self.words_mut(line).fill(0);
                    self.touch(line);
                    self.stats.zero_allocs += 1;
                    self.push_ready(access, 0, now);
                    return Ok(());
                }
                if self.mshrs.len() >= self.cfg.mshrs_per_bank {
                    self.stats.blocked += 1;
                    self.stats.mshr_full += 1;
                    return Err(access);
                }
                if !self.mem_out.can_accept() {
                    self.stats.blocked += 1;
                    return Err(access);
                }
                self.next_cmd_id += 1;
                let cmd = DramCommand {
                    id: self.next_cmd_id,
                    req: Some(access.id),
                    base: line_base,
                    words: self.cfg.words_per_line() as u32,
                    kind: DramKind::Read,
                    origin: Origin::CacheBank {
                        node: self.node,
                        bank: self.bank_index,
                    },
                };
                self.mem_out.try_push(cmd).expect("capacity checked");
                self.mshr_lookup.insert(line_base.0, self.mshrs.len());
                self.mshrs.push(Mshr {
                    line_base,
                    targets: vec![MshrTarget::Read(access.id, offset, access.origin)],
                    replays: 0,
                });
                self.stats.read_misses += 1;
                Ok(())
            }
            AccessKind::Write { bits, partial_sum } => {
                if let Some(line) = hit {
                    self.words_mut(line)[offset] = bits;
                    let l = &mut self.lines[line];
                    l.dirty = true;
                    l.partial_sum |= partial_sum;
                    self.touch(line);
                    self.stats.write_hits += 1;
                    return Ok(());
                }
                if let Some(&idx) = self.mshr_lookup.get(&line_base.0) {
                    let m = &mut self.mshrs[idx];
                    if m.occupancy() >= self.cfg.targets_per_mshr {
                        self.stats.blocked += 1;
                        self.stats.mshr_full += 1;
                        return Err(access);
                    }
                    m.targets.push(MshrTarget::Write(offset, bits, partial_sum));
                    self.stats.write_merges += 1;
                    return Ok(());
                }
                if partial_sum {
                    // Combining mode always zero-allocates before summing, so
                    // a partial-sum write miss allocates its line locally.
                    let Some(line) = self.make_room(set) else {
                        self.stats.blocked += 1;
                        return Err(access);
                    };
                    self.install(line, tag);
                    let words = self.words_mut(line);
                    words.fill(0);
                    words[offset] = bits;
                    let l = &mut self.lines[line];
                    l.dirty = true;
                    l.partial_sum = true;
                    self.touch(line);
                    self.stats.zero_allocs += 1;
                    return Ok(());
                }
                // Write-around: forward the word write to DRAM.
                if !self.mem_out.can_accept() {
                    self.stats.blocked += 1;
                    return Err(access);
                }
                self.next_cmd_id += 1;
                let cmd = DramCommand {
                    id: self.next_cmd_id,
                    req: Some(access.id),
                    base: access.addr,
                    words: 1,
                    kind: DramKind::Write(vec![bits]),
                    origin: Origin::CacheBank {
                        node: self.node,
                        bank: self.bank_index,
                    },
                };
                self.mem_out.try_push(cmd).expect("capacity checked");
                self.stats.write_arounds += 1;
                Ok(())
            }
        }
    }

    /// [`try_access`](Self::try_access), recording the request's lifecycle
    /// stages into `tracer`: winning bank arbitration (any accepted access)
    /// and MSHR residency (accesses that allocate or merge into an MSHR).
    ///
    /// # Errors
    ///
    /// Returns the access back when a resource is exhausted, exactly as
    /// [`try_access`](Self::try_access) does.
    pub fn try_access_traced(
        &mut self,
        access: CacheAccess,
        now: Cycle,
        tracer: &mut sa_telemetry::ReqTracer,
    ) -> Result<(), CacheAccess> {
        let id = access.id;
        let before = self.stats;
        let r = self.try_access(access, now);
        if r.is_ok() {
            tracer.stamp(id, sa_telemetry::ReqStage::BankArb, now.raw());
            let s = self.stats;
            let mshr_events = |c: &CacheStats| c.read_misses + c.read_merges + c.write_merges;
            if mshr_events(&s) > mshr_events(&before) {
                tracer.stamp(id, sa_telemetry::ReqStage::Mshr, now.raw());
            }
        }
        r
    }

    fn push_ready(&mut self, access: CacheAccess, bits: u64, now: Cycle) {
        self.ready.push_back(MemResponse {
            id: access.id,
            addr: access.addr,
            bits,
            origin: access.origin,
            at: now + u64::from(self.cfg.hit_latency),
        });
    }

    /// Hand a DRAM response (a line fill or a write acknowledgement) to the
    /// bank. Fills are installed by [`CacheBank::tick`].
    pub fn on_mem_response(&mut self, resp: DramResponse) {
        if resp.data.is_empty() {
            return; // write-back / write-around acknowledgement
        }
        self.pending_fills.push_back(resp);
    }

    /// Advance one cycle: install at most one pending fill.
    pub fn tick(&mut self, now: Cycle) {
        self.commit_pend();
        self.mem_out.advance(now.raw());
        let installed = self.tick_install(now);
        let mut state = self.occ_baseline();
        if installed {
            state.0 = OccClass::Busy;
        }
        self.pend = Some(state);
    }

    /// The fill-install body of [`tick`](Self::tick). Returns whether the
    /// bank did useful work this cycle (installed a fill or launched an ECC
    /// replay), for occupancy classification.
    fn tick_install(&mut self, now: Cycle) -> bool {
        let Some(resp) = self.pending_fills.front() else {
            return false;
        };
        if resp.ecc_error {
            self.replay_poisoned_fill();
            return true;
        }
        let base = resp.base;
        let (set, tag, _) = self.locate(base);
        let Some(line) = self.make_room(set) else {
            return false; // eviction blocked on the command queue; retry next cycle
        };
        let resp = self.pending_fills.pop_front().expect("front checked");
        let mshr_idx = self.mshr_lookup.remove(&base.0).expect("fill without MSHR");
        let mshr = self.mshrs.swap_remove(mshr_idx);
        // swap_remove moved the former tail into `mshr_idx`; re-index it.
        if mshr_idx < self.mshrs.len() {
            self.mshr_lookup
                .insert(self.mshrs[mshr_idx].line_base.0, mshr_idx);
        }
        debug_assert_eq!(self.mshr_lookup.len(), self.mshrs.len());
        debug_assert!(self
            .mshr_lookup
            .iter()
            .all(|(&b, &i)| self.mshrs[i].line_base.0 == b));
        self.install(line, tag);
        self.words_mut(line).copy_from_slice(&resp.data);
        self.touch(line);
        // Replay deferred accesses in arrival order so reads observe
        // exactly the writes that preceded them.
        for target in mshr.targets {
            match target {
                MshrTarget::Read(id, offset, origin) => {
                    let bits = self.words(line)[offset];
                    self.ready.push_back(MemResponse {
                        id,
                        addr: Addr(base.0 + (offset as u64) * WORD_BYTES),
                        bits,
                        origin,
                        at: now + u64::from(self.cfg.hit_latency),
                    });
                }
                MshrTarget::Write(offset, bits, partial) => {
                    self.words_mut(line)[offset] = bits;
                    let l = &mut self.lines[line];
                    l.dirty = true;
                    l.partial_sum |= partial;
                }
            }
        }
        true
    }

    /// Fold `skipped` provably-uneventful cycles (fast-forward) into the
    /// busy/blocked/idle account. The caller guarantees no access is
    /// presented and no fill installs during the window, so every skipped
    /// cycle carries the frozen [`occ_baseline`](Self::occ_baseline) class —
    /// exactly what per-cycle ticking would have recorded.
    pub fn skip_cycles(&mut self, now: Cycle, skipped: u64) {
        debug_assert!(
            self.next_event(now).is_none_or(|t| t > now + skipped),
            "fast-forward skipped past a cache-bank event"
        );
        self.stats = self.stats_after_skip(skipped);
        self.pend = None;
    }

    /// The fill at the head of the queue carries an ECC-detected error:
    /// refuse to install it and re-read the line from DRAM instead. The
    /// MSHR (and its deferred targets) stays allocated, so the replayed
    /// fill replays them in the original arrival order — recovery never
    /// reorders same-address traffic. After [`ECC_REPLAY_LIMIT`] strikes on
    /// one line the error is declared uncorrectable and the (functionally
    /// intact) data is accepted so the run completes.
    fn replay_poisoned_fill(&mut self) {
        let base = self.pending_fills.front().expect("front checked").base;
        let idx = *self.mshr_lookup.get(&base.0).expect("fill without MSHR");
        if self.mshrs[idx].replays >= ECC_REPLAY_LIMIT {
            self.resilience.ecc_uncorrected += 1;
            let resp = self.pending_fills.front_mut().expect("front checked");
            resp.ecc_error = false; // installs normally next tick
            return;
        }
        if !self.mem_out.can_accept() {
            return; // command queue full; retry next cycle
        }
        let resp = self.pending_fills.pop_front().expect("front checked");
        self.mshrs[idx].replays += 1;
        self.resilience.mshr_replays += 1;
        self.next_cmd_id += 1;
        // Like write-backs, the replay serves every target of the MSHR; no
        // single originating request to attribute.
        let cmd = DramCommand {
            id: self.next_cmd_id,
            req: None,
            base: resp.base,
            words: resp.data.len() as u32,
            kind: DramKind::Read,
            origin: Origin::CacheBank {
                node: self.node,
                bank: self.bank_index,
            },
        };
        self.mem_out.try_push(cmd).expect("capacity checked");
    }

    /// Next outgoing DRAM command, if any (the node routes it to a channel).
    pub fn pop_mem_cmd(&mut self) -> Option<DramCommand> {
        self.mem_out.pop()
    }

    /// Pop the next outgoing DRAM command only if `accept` commits to it
    /// (single-touch routing; see [`sa_sim::BoundedQueue::pop_if`]).
    pub fn pop_mem_cmd_if<F: FnMut(&DramCommand) -> bool>(
        &mut self,
        accept: F,
    ) -> Option<DramCommand> {
        self.mem_out.pop_if(accept)
    }

    /// Earliest future cycle at which a tick can change this bank's state.
    ///
    /// Pending fills, queued DRAM commands, and queued sum-backs all make
    /// progress (or may be drained by the node) on the very next cycle. A
    /// waiting read response becomes poppable at its hit-latency expiry.
    /// `None` means the bank is dormant: any remaining MSHRs are waiting on
    /// DRAM, and that wakeup belongs to the channels' horizons.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.pending_fills.is_empty() || !self.mem_out.is_empty() || !self.sum_backs.is_empty()
        {
            return Some(now + 1);
        }
        // `ready` is pushed in completion order (constant hit latency), so
        // the front is the earliest.
        self.ready.front().map(|r| r.at.max(now + 1))
    }

    /// Peek whether an outgoing DRAM command is waiting.
    pub fn has_mem_cmd(&self) -> bool {
        !self.mem_out.is_empty()
    }

    /// Peek the next outgoing DRAM command without removing it (so the node
    /// can check the target channel's queue before committing).
    pub fn peek_mem_cmd(&self) -> Option<&DramCommand> {
        self.mem_out.front()
    }

    /// Next read completion whose latency has elapsed.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<MemResponse> {
        if self.ready.front().is_some_and(|r| r.at <= now) {
            self.ready.pop_front()
        } else {
            None
        }
    }

    /// Next evicted partial-sum line (combining mode; the node's network
    /// interface forwards it to the home node).
    pub fn pop_sum_back(&mut self) -> Option<SumBack> {
        self.sum_backs.pop_front()
    }

    /// Evict every remaining partial-sum line — the flush-with-sum-back
    /// synchronization step at the end of a multi-node scatter-add (§3.2).
    pub fn flush_sum_backs(&mut self) -> Vec<SumBack> {
        let mut out = Vec::new();
        for line in 0..self.lines.len() {
            let l = self.lines[line];
            if l.valid && l.partial_sum && l.dirty {
                let data = self.words(line).to_vec();
                out.push(SumBack {
                    base: self.line_base(l.tag),
                    data,
                });
                self.stats.sum_backs += 1;
                let l = &mut self.lines[line];
                l.valid = false;
                l.dirty = false;
                l.partial_sum = false;
            }
        }
        out
    }

    /// Invalidate every line, returning the dirty (non-partial-sum) ones so
    /// the caller can apply them to backing memory — a functional flush used
    /// at the end of a run to materialize the coherent memory image.
    /// Partial-sum lines are left untouched (flush those with
    /// [`CacheBank::flush_sum_backs`], which applies scatter-add semantics).
    pub fn flush_dirty(&mut self) -> Vec<(Addr, Vec<u64>)> {
        let mut out = Vec::new();
        for line in 0..self.lines.len() {
            let l = self.lines[line];
            if !l.valid || l.partial_sum {
                continue;
            }
            if l.dirty {
                out.push((self.line_base(l.tag), self.words(line).to_vec()));
            }
            let l = &mut self.lines[line];
            l.valid = false;
            l.dirty = false;
        }
        out
    }

    /// Whether the bank has no pending fills, queued commands, waiting
    /// responses, or queued sum-backs.
    pub fn is_idle(&self) -> bool {
        self.mshrs.is_empty()
            && self.pending_fills.is_empty()
            && self.ready.is_empty()
            && self.mem_out.is_empty()
            && self.sum_backs.is_empty()
    }

    /// Counters accumulated so far. The in-flight cycle's occupancy
    /// classification (see [`CacheBank::tick`]) is folded into the returned
    /// copy without being committed, so mid-run snapshots (probes) and
    /// end-of-run reads both see every ticked cycle accounted.
    pub fn stats(&self) -> CacheStats {
        let mut s = self.stats;
        if let Some((class, at_capacity)) = self.pend {
            s.occ.cycle(class, at_capacity);
        }
        s
    }

    /// [`stats`](Self::stats) as they would read after folding `skipped`
    /// slept cycles with [`skip_cycles`](Self::skip_cycles), without
    /// mutating the bank.
    pub fn stats_after_skip(&self, skipped: u64) -> CacheStats {
        let mut s = self.stats();
        let (class, at_capacity) = self.occ_baseline();
        s.occ.skip(skipped, class, at_capacity);
        s
    }

    /// ECC recovery counters accumulated so far (all zero unless poisoned
    /// fills arrived).
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.resilience
    }

    /// Read-only probe of a resident word (for tests); `None` on miss.
    pub fn probe(&self, addr: Addr) -> Option<u64> {
        let (set, tag, offset) = self.locate(addr);
        self.find_line(set, tag)
            .map(|line| self.words(line)[offset])
    }

    /// Words the line arena holds (for tests).
    #[cfg(test)]
    fn arena_words(&self) -> usize {
        self.data.len()
    }
}

impl sa_telemetry::Inspectable for CacheBank {
    fn probe_kind(&self) -> &'static str {
        "cache_bank"
    }

    fn probe_json(&self) -> sa_telemetry::Json {
        use sa_telemetry::Json;
        let mut o = Json::obj();
        o.push("mshrs", Json::UInt(self.mshrs.len() as u64));
        o.push("mshr_capacity", Json::UInt(self.cfg.mshrs_per_bank as u64));
        let targets: usize = self.mshrs.iter().map(Mshr::occupancy).sum();
        o.push("mshr_targets", Json::UInt(targets as u64));
        o.push("mem_out", Json::UInt(self.mem_out.len() as u64));
        o.push(
            "mem_out_capacity",
            Json::UInt(self.mem_out.capacity() as u64),
        );
        o.push("pending_fills", Json::UInt(self.pending_fills.len() as u64));
        o.push("ready", Json::UInt(self.ready.len() as u64));
        o.push("sum_backs", Json::UInt(self.sum_backs.len() as u64));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_mem::BackingStore;
    use sa_sim::CacheConfig;

    fn cfg() -> CacheConfig {
        CacheConfig::default()
    }

    /// A tiny config so eviction paths are easy to exercise.
    fn tiny() -> CacheConfig {
        CacheConfig {
            banks: 1,
            total_bytes: 256, // 8 lines of 32 B
            line_bytes: 32,
            ways: 2,
            mshrs_per_bank: 2,
            targets_per_mshr: 2,
            hit_latency: 1,
        }
    }

    fn orig() -> Origin {
        Origin::AddrGen { node: 0, ag: 0 }
    }

    fn read(id: ReqId, addr: u64) -> CacheAccess {
        CacheAccess {
            id,
            addr: Addr(addr),
            kind: AccessKind::Read { zero_alloc: false },
            origin: orig(),
        }
    }

    fn write(id: ReqId, addr: u64, bits: u64) -> CacheAccess {
        CacheAccess {
            id,
            addr: Addr(addr),
            kind: AccessKind::Write {
                bits,
                partial_sum: false,
            },
            origin: orig(),
        }
    }

    /// Run the bank against a directly-attached functional memory until idle.
    fn drain(
        bank: &mut CacheBank,
        store: &mut BackingStore,
        mut now: Cycle,
    ) -> (Vec<MemResponse>, Cycle) {
        let mut dram: VecDeque<(Cycle, DramCommand)> = VecDeque::new();
        let mut out = Vec::new();
        let lat = 20u64;
        for _ in 0..100_000 {
            now += 1;
            bank.tick(now);
            while let Some(cmd) = bank.pop_mem_cmd() {
                dram.push_back((now + lat, cmd));
            }
            while dram.front().is_some_and(|(t, _)| *t <= now) {
                let (_, cmd) = dram.pop_front().unwrap();
                let data = match cmd.kind {
                    DramKind::Read => store.read_line(cmd.base, u64::from(cmd.words)),
                    DramKind::Write(ref d) => {
                        store.write_line(cmd.base, d);
                        Vec::new()
                    }
                };
                bank.on_mem_response(DramResponse {
                    id: cmd.id,
                    base: cmd.base,
                    data,
                    origin: cmd.origin,
                    at: now,
                    ecc_error: false,
                });
            }
            while let Some(r) = bank.pop_ready(now) {
                out.push(r);
            }
            if bank.is_idle() && dram.is_empty() {
                return (out, now);
            }
        }
        panic!("bank did not drain");
    }

    #[test]
    fn read_miss_fills_then_hits() {
        let mut store = BackingStore::new();
        store.write_word(Addr(8), 42);
        let mut bank = CacheBank::new(tiny(), 0, 0);
        bank.try_access(read(1, 8), Cycle(0)).unwrap();
        let (resp, now) = drain(&mut bank, &mut store, Cycle(0));
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].bits, 42);
        assert_eq!(bank.stats().read_misses, 1);
        // Second read is a hit.
        bank.try_access(read(2, 8), now).unwrap();
        let r = bank.pop_ready(now + 10).unwrap();
        assert_eq!(r.bits, 42);
        assert_eq!(bank.stats().read_hits, 1);
    }

    #[test]
    fn concurrent_misses_merge_into_one_mshr() {
        let mut store = BackingStore::new();
        store.write_line(Addr(0), &[1, 2, 3, 4]);
        let mut bank = CacheBank::new(tiny(), 0, 0);
        bank.try_access(read(1, 0), Cycle(0)).unwrap();
        bank.try_access(read(2, 16), Cycle(0)).unwrap(); // same line, word 2
        assert_eq!(bank.stats().read_merges, 1);
        let (resp, _) = drain(&mut bank, &mut store, Cycle(0));
        assert_eq!(resp.len(), 2);
        assert_eq!(resp[0].bits, 1);
        assert_eq!(resp[1].bits, 3);
        // Only one fill went to memory.
        assert_eq!(bank.stats().read_misses, 1);
    }

    #[test]
    fn mshr_target_cap_blocks() {
        let mut bank = CacheBank::new(tiny(), 0, 0);
        bank.try_access(read(1, 0), Cycle(0)).unwrap();
        bank.try_access(read(2, 8), Cycle(0)).unwrap();
        // targets_per_mshr = 2; the third access to the line must block.
        assert!(bank.try_access(read(3, 16), Cycle(0)).is_err());
        assert_eq!(bank.stats().blocked, 1);
        assert_eq!(bank.stats().mshr_full, 1);
    }

    #[test]
    fn mshr_file_exhaustion_blocks() {
        let mut bank = CacheBank::new(tiny(), 0, 0);
        bank.try_access(read(1, 0), Cycle(0)).unwrap();
        bank.try_access(read(2, 32), Cycle(0)).unwrap();
        assert!(bank.try_access(read(3, 64), Cycle(0)).is_err());
        assert_eq!(bank.stats().mshr_full, 1);
    }

    #[test]
    fn write_hit_updates_line_and_write_back_on_evict() {
        let mut store = BackingStore::new();
        let mut bank = CacheBank::new(tiny(), 0, 0);
        // Fill line 0.
        bank.try_access(read(1, 0), Cycle(0)).unwrap();
        let (_, now) = drain(&mut bank, &mut store, Cycle(0));
        // Dirty it.
        bank.try_access(write(2, 0, 99), now).unwrap();
        assert_eq!(bank.stats().write_hits, 1);
        assert_eq!(bank.probe(Addr(0)), Some(99));
        // Evict it by filling both ways of set 0 (tiny: 4 sets, 2 ways;
        // set stride = 32 B × 4 sets = 128 B).
        bank.try_access(read(3, 128), now).unwrap();
        let (_, now) = drain(&mut bank, &mut store, now);
        bank.try_access(read(4, 256), now).unwrap();
        let (_, now) = drain(&mut bank, &mut store, now);
        assert_eq!(bank.stats().write_backs, 1);
        assert_eq!(store.read_word(Addr(0)), 99, "write-back reached memory");
        let _ = now;
    }

    #[test]
    fn write_miss_goes_around() {
        let mut store = BackingStore::new();
        let mut bank = CacheBank::new(tiny(), 0, 0);
        bank.try_access(write(1, 8, 7), Cycle(0)).unwrap();
        assert_eq!(bank.stats().write_arounds, 1);
        let (_, _) = drain(&mut bank, &mut store, Cycle(0));
        assert_eq!(store.read_word(Addr(8)), 7);
        assert_eq!(bank.probe(Addr(8)), None, "write-around does not allocate");
    }

    #[test]
    fn write_under_miss_merges_and_applies_after_fill() {
        let mut store = BackingStore::new();
        store.write_line(Addr(0), &[1, 2, 3, 4]);
        let mut bank = CacheBank::new(tiny(), 0, 0);
        bank.try_access(read(1, 0), Cycle(0)).unwrap();
        bank.try_access(write(2, 8, 77), Cycle(0)).unwrap();
        assert_eq!(bank.stats().write_merges, 1);
        let (_, now) = drain(&mut bank, &mut store, Cycle(0));
        assert_eq!(
            bank.probe(Addr(8)),
            Some(77),
            "pending write applied on fill"
        );
        // The line is dirty; evicting must write 77 back.
        bank.try_access(read(3, 128), now).unwrap();
        let (_, now) = drain(&mut bank, &mut store, now);
        bank.try_access(read(4, 256), now).unwrap();
        let (_, _) = drain(&mut bank, &mut store, now);
        assert_eq!(store.read_word(Addr(8)), 77);
    }

    #[test]
    fn zero_alloc_read_returns_zero_without_memory_traffic() {
        let mut store = BackingStore::new();
        store.write_word(Addr(0), 1234); // memory value must NOT be fetched
        let mut bank = CacheBank::new(tiny(), 0, 0);
        let acc = CacheAccess {
            id: 1,
            addr: Addr(0),
            kind: AccessKind::Read { zero_alloc: true },
            origin: orig(),
        };
        bank.try_access(acc, Cycle(0)).unwrap();
        let r = bank.pop_ready(Cycle(10)).unwrap();
        assert_eq!(r.bits, 0);
        assert_eq!(bank.stats().zero_allocs, 1);
        assert!(!bank.has_mem_cmd(), "no fill issued");
    }

    #[test]
    fn partial_sum_eviction_becomes_sum_back() {
        let mut bank = CacheBank::new(tiny(), 0, 0);
        let w = CacheAccess {
            id: 1,
            addr: Addr(0),
            kind: AccessKind::Write {
                bits: 5,
                partial_sum: true,
            },
            origin: orig(),
        };
        bank.try_access(w, Cycle(0)).unwrap();
        // Force eviction of set 0 by allocating two more partial lines.
        for (i, a) in [(2u64, 128u64), (3, 256)] {
            let w = CacheAccess {
                id: i,
                addr: Addr(a),
                kind: AccessKind::Write {
                    bits: 1,
                    partial_sum: true,
                },
                origin: orig(),
            };
            bank.try_access(w, Cycle(0)).unwrap();
        }
        let sb = bank.pop_sum_back().expect("eviction produced a sum-back");
        assert_eq!(sb.base, Addr(0));
        assert_eq!(sb.data, vec![5, 0, 0, 0]);
        assert_eq!(bank.stats().sum_backs, 1);
        assert!(!bank.has_mem_cmd(), "sum-back is not a DRAM write-back");
    }

    #[test]
    fn flush_sum_backs_drains_all_partial_lines() {
        let mut bank = CacheBank::new(tiny(), 0, 0);
        for (i, a) in [(1u64, 0u64), (2, 32), (3, 64)] {
            let w = CacheAccess {
                id: i,
                addr: Addr(a),
                kind: AccessKind::Write {
                    bits: i,
                    partial_sum: true,
                },
                origin: orig(),
            };
            bank.try_access(w, Cycle(0)).unwrap();
        }
        let mut flushed = bank.flush_sum_backs();
        flushed.sort_by_key(|s| s.base);
        assert_eq!(flushed.len(), 3);
        assert_eq!(flushed[0].base, Addr(0));
        assert_eq!(flushed[0].data[0], 1);
        assert!(bank.flush_sum_backs().is_empty(), "flush is idempotent");
        assert_eq!(bank.probe(Addr(0)), None, "flushed lines are invalid");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut store = BackingStore::new();
        store.write_word(Addr(0), 10);
        store.write_word(Addr(128), 20);
        let mut bank = CacheBank::new(tiny(), 0, 0);
        // Fill both ways of set 0.
        bank.try_access(read(1, 0), Cycle(0)).unwrap();
        let (_, now) = drain(&mut bank, &mut store, Cycle(0));
        bank.try_access(read(2, 128), now).unwrap();
        let (_, now) = drain(&mut bank, &mut store, now);
        // Touch line 0 so line 128 is LRU.
        bank.try_access(read(3, 0), now).unwrap();
        let _ = bank.pop_ready(now + 10);
        // Allocate a third line in set 0; 128 must be the victim.
        bank.try_access(read(4, 256), now).unwrap();
        let (_, _) = drain(&mut bank, &mut store, now);
        assert!(bank.probe(Addr(0)).is_some(), "recently used line kept");
        assert!(bank.probe(Addr(128)).is_none(), "LRU line evicted");
    }

    #[test]
    fn hit_latency_delays_response() {
        let c = cfg(); // hit_latency = 4
        let mut store = BackingStore::new();
        store.write_word(Addr(0), 9);
        let mut bank = CacheBank::new(c, 0, 0);
        bank.try_access(read(1, 0), Cycle(0)).unwrap();
        let (_, now) = drain(&mut bank, &mut store, Cycle(0));
        bank.try_access(read(2, 0), now).unwrap();
        assert!(bank.pop_ready(now).is_none());
        assert!(bank.pop_ready(now + 3).is_none());
        assert!(bank.pop_ready(now + 4).is_some());
    }

    #[test]
    fn default_config_addresses_interleave() {
        // With 8 banks, line i maps to bank i % 8; bank 3 owns lines 3, 11, ...
        let c = cfg();
        let mut bank = CacheBank::new(c, 0, 3);
        let addr = Addr(3 * c.line_bytes); // line 3
        bank.try_access(read(1, addr.0), Cycle(0)).unwrap();
        assert_eq!(bank.stats().read_misses, 1);
    }

    #[test]
    fn next_event_tracks_bank_state() {
        let mut bank = CacheBank::new(tiny(), 0, 0);
        assert_eq!(bank.next_event(Cycle(0)), None, "fresh bank is dormant");
        // A read miss queues a DRAM command: progress next cycle.
        bank.try_access(read(1, 8), Cycle(0)).unwrap();
        assert_eq!(bank.next_event(Cycle(0)), Some(Cycle(1)));
        // Once the command is drained, the MSHR waits on DRAM: dormant.
        let cmd = bank.pop_mem_cmd().unwrap();
        assert_eq!(bank.next_event(Cycle(0)), None);
        // The fill makes the bank busy again...
        bank.on_mem_response(DramResponse {
            id: cmd.id,
            base: cmd.base,
            data: vec![0; 4],
            origin: cmd.origin,
            at: Cycle(20),
            ecc_error: false,
        });
        assert_eq!(bank.next_event(Cycle(20)), Some(Cycle(21)));
        bank.tick(Cycle(21));
        // ...and the replayed read waits out the hit latency (1 in tiny()).
        assert_eq!(bank.next_event(Cycle(21)), Some(Cycle(22)));
        assert!(bank.pop_ready(Cycle(22)).is_some());
        assert_eq!(bank.next_event(Cycle(22)), None);
    }

    #[test]
    fn pop_mem_cmd_if_leaves_rejected_command_queued() {
        let mut bank = CacheBank::new(tiny(), 0, 0);
        bank.try_access(read(1, 8), Cycle(0)).unwrap();
        assert!(bank.pop_mem_cmd_if(|_| false).is_none());
        assert!(bank.has_mem_cmd(), "rejected command stays at the head");
        let got = bank.pop_mem_cmd_if(|c| c.kind == DramKind::Read).unwrap();
        assert_eq!(got.base, Addr(0));
        assert!(!bank.has_mem_cmd());
    }

    #[test]
    fn ecc_poisoned_fill_is_replayed_not_installed() {
        let mut bank = CacheBank::new(tiny(), 0, 0);
        bank.try_access(read(1, 8), Cycle(0)).unwrap();
        let cmd = bank.pop_mem_cmd().unwrap();
        // A poisoned fill must not install; the bank re-reads the line.
        bank.on_mem_response(DramResponse {
            id: cmd.id,
            base: cmd.base,
            data: vec![1, 2, 3, 4],
            origin: cmd.origin,
            at: Cycle(5),
            ecc_error: true,
        });
        bank.tick(Cycle(6));
        assert_eq!(bank.probe(Addr(8)), None, "poisoned data not installed");
        assert!(!bank.is_idle(), "MSHR stays allocated across the replay");
        let replay = bank.pop_mem_cmd().expect("replacement fill issued");
        assert_eq!(replay.base, cmd.base);
        assert_eq!(replay.kind, DramKind::Read);
        assert_eq!(bank.resilience_stats().mshr_replays, 1);
        // The clean retry installs and replays the waiting read target.
        bank.on_mem_response(DramResponse {
            id: replay.id,
            base: replay.base,
            data: vec![10, 20, 30, 40],
            origin: replay.origin,
            at: Cycle(30),
            ecc_error: false,
        });
        bank.tick(Cycle(31));
        let r = bank.pop_ready(Cycle(40)).expect("deferred read replayed");
        assert_eq!(r.bits, 20);
        assert_eq!(bank.resilience_stats().ecc_uncorrected, 0);
    }

    #[test]
    fn ecc_replay_budget_exhaustion_accepts_data() {
        let mut bank = CacheBank::new(tiny(), 0, 0);
        bank.try_access(read(1, 0), Cycle(0)).unwrap();
        let mut cmd = bank.pop_mem_cmd().unwrap();
        let mut now = Cycle(0);
        // Every replay comes back poisoned too; after the budget runs out
        // the bank must accept the data and flag it uncorrectable.
        for _ in 0..=ECC_REPLAY_LIMIT {
            now += 1;
            bank.on_mem_response(DramResponse {
                id: cmd.id,
                base: cmd.base,
                data: vec![7, 8, 9, 10],
                origin: cmd.origin,
                at: now,
                ecc_error: true,
            });
            now += 1;
            bank.tick(now);
            match bank.pop_mem_cmd() {
                Some(next) => cmd = next,
                None => break, // budget exhausted: no further replay
            }
        }
        now += 1;
        bank.tick(now); // installs the accepted (de-poisoned) fill
        let rs = bank.resilience_stats();
        assert_eq!(rs.mshr_replays, u64::from(ECC_REPLAY_LIMIT));
        assert_eq!(rs.ecc_uncorrected, 1);
        let r = bank.pop_ready(now + 10).expect("read completes regardless");
        assert_eq!(r.bits, 7);
    }

    #[test]
    fn line_arena_grows_lazily_and_stays_within_capacity() {
        let c = cfg();
        assert_eq!(CacheBank::new(c, 0, 0).arena_words(), 0, "fresh bank");
        let t = tiny();
        let cap = (t.sets_per_bank() * t.ways as u64 * t.words_per_line()) as usize;
        let mut store = BackingStore::new();
        let mut bank = CacheBank::new(t, 0, 0);
        let mut now = Cycle(0);
        // Zero-alloc reads, partial-sum write misses and fills over 32 lines
        // of an 8-line bank: slots are handed from victim to victim.
        for i in 0..96u64 {
            let addr = Addr((i * 5 % 32) * t.line_bytes + (i % 4) * 8);
            let kind = match i % 3 {
                0 => AccessKind::Read { zero_alloc: true },
                1 => AccessKind::Write {
                    bits: i,
                    partial_sum: true,
                },
                _ => AccessKind::Read { zero_alloc: false },
            };
            let access = CacheAccess {
                id: i,
                addr,
                kind,
                origin: orig(),
            };
            if bank.try_access(access, now).is_err() {
                (_, now) = drain(&mut bank, &mut store, now);
                bank.try_access(access, now).unwrap();
            }
            while bank.pop_sum_back().is_some() {}
            assert!(bank.arena_words() <= cap, "arena past capacity at {i}");
            if i % 3 == 2 {
                (_, now) = drain(&mut bank, &mut store, now);
            }
        }
        assert_eq!(bank.arena_words(), cap, "every line got a slot");
    }

    #[test]
    fn read_hit_rate_reporting() {
        let s = CacheStats {
            read_hits: 3,
            read_misses: 1,
            ..CacheStats::default()
        };
        assert!((s.read_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().read_hit_rate(), 0.0);
    }
}
