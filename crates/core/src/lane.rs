//! One *lane* per cache bank: the bank, the scatter-add unit in front of it,
//! and its input queue, stepped by [`NodeMemSys::tick`](crate::NodeMemSys::tick).
//!
//! Per cycle, a node's state splits into two phases:
//!
//! * a **front** phase (bank tick + DRAM command submission) that arbitrates
//!   for the shared DRAM channels, run in bank order so channel capacity is
//!   consumed in a fixed order; and
//! * a **step** phase (scatter-add ingest, cache port arbitration, unit
//!   tick, response/ack routing) that touches only lane-local state.
//!
//! The step phase of bank `i` never touches the DRAM channels, and the
//! front phase of bank `j > i` never reads state the step phase of bank `i`
//! writes (they are different banks), so running all fronts before all
//! steps is byte-identical to the historical interleaved per-bank loop.
//!
//! Lanes and DRAM channels **sleep** while they have no work due (see
//! docs/PERFORMANCE.md, "Component sleep"). Each carries a [`Sleep`]
//! record: the node tick count its per-cycle accounting covers and the
//! cycle it next must tick. A node tick runs only the components due at
//! that cycle. The cycles a component slept through are folded into its
//! time-weighted counters exactly once, through the same skip functions
//! the node-level fast-forward uses, right before anything changes its
//! state ("fold before mutate"); every such change also lowers its wake
//! cycle ("wake on touch").

use std::collections::VecDeque;

use sa_cache::{AccessKind, CacheAccess, CacheBank, CacheStats};
use sa_mem::{DramChannel, DramCommand, DramStats};
use sa_sim::{Addr, BoundedQueue, Cycle, DramConfig, MemOp, MemRequest, MemResponse, Origin};
use sa_telemetry::{ReqStage, ReqTracer, TraceSink};

use crate::unit::{SaStats, ScatterAddUnit, ToMem};

/// Sleep bookkeeping of one lane or DRAM channel.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Sleep {
    /// The node tick count (ticked plus skipped cycles) through which the
    /// component's per-cycle accounting is folded.
    pub ticks: u64,
    /// The cycle at which the component next must tick; `u64::MAX` when
    /// only a touch from outside can give it work.
    pub wake: u64,
}

impl Sleep {
    /// A freshly built, idle component: nothing accounted, nothing due.
    pub const IDLE: Sleep = Sleep {
        ticks: 0,
        wake: u64::MAX,
    };

    /// Whether the component must tick at cycle `t`. With fast-forward off
    /// every component is due every cycle: the per-cycle oracle.
    #[inline]
    pub fn due(&self, t: u64, fast_forward: bool) -> bool {
        !fast_forward || self.wake <= t
    }

    /// Cycles the component slept through that node tick count `ticks`
    /// covers but its own accounting does not.
    #[inline]
    pub fn behind(&self, ticks: u64) -> u64 {
        ticks - self.ticks
    }

    /// Record the component as accounted through node tick count `ticks`
    /// (it ticked, or was folded and touched), with its own horizon `next`.
    #[inline]
    pub fn settle(&mut self, ticks: u64, next: Option<Cycle>) {
        self.ticks = ticks;
        self.wake = next.map_or(u64::MAX, Cycle::raw);
    }

    /// Make the component due at cycle `t` at the latest.
    #[inline]
    pub fn wake_by(&mut self, t: u64) {
        self.wake = self.wake.min(t);
    }
}

/// One cache bank's slice of the node: the bank, the scatter-add unit in
/// front of it (Figure 4a), and the bank input queue.
#[derive(Debug)]
pub(crate) struct BankLane {
    /// This lane's bank index within the node.
    pub index: usize,
    /// The stream-cache bank.
    pub bank: CacheBank,
    /// The scatter-add unit in front of the bank.
    pub sa: ScatterAddUnit,
    /// Requests from the address generators (and the network interface).
    pub bank_in: BoundedQueue<MemRequest>,
    /// Round-robin state of the cache-port arbiter (unit vs bypass).
    pub rr_sa_first: bool,
    /// When the lane was last accounted and when it next must tick.
    pub sleep: Sleep,
}

impl BankLane {
    /// Fold the cycles this lane slept through into its unit, bank and
    /// input queue, bringing its accounting to node tick count `ticks` at
    /// cycle `now`. Call before anything changes the lane's state.
    pub fn fold_to(&mut self, ticks: u64, now: u64) {
        let k = self.sleep.behind(ticks);
        if k > 0 {
            let from = Cycle(now.saturating_sub(k));
            self.sa.skip_cycles(from, k, false);
            self.bank.skip_cycles(from, k);
            self.bank_in.advance(now);
            self.sleep.ticks = ticks;
        }
    }

    /// Earliest cycle after `now` at which a tick can change this lane:
    /// queued bank inputs and pending scatter-add memory ops are retried
    /// (and mutate stall counters) every cycle, so either pins it to
    /// `now + 1`; otherwise it is the earlier of the unit's and the bank's
    /// horizons. The unit's acknowledgement queue needs no term: every
    /// step drains it.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.bank_in.is_empty() || self.sa.peek_to_mem().is_some() {
            return Some(now + 1);
        }
        match (self.sa.next_event(now), self.bank.next_event(now)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The unit's counters folded to node tick count `ticks`.
    pub fn sa_stats(&self, ticks: u64) -> SaStats {
        self.sa.stats_after_skip(self.sleep.behind(ticks))
    }

    /// The bank's counters folded to node tick count `ticks`.
    pub fn cache_stats(&self, ticks: u64) -> CacheStats {
        self.bank.stats_after_skip(self.sleep.behind(ticks))
    }
}

/// One DRAM channel of the node with its sleep bookkeeping.
#[derive(Debug)]
pub(crate) struct ChannelSlot {
    /// The channel.
    pub dram: DramChannel,
    /// When the channel was last accounted and when it next must tick.
    pub sleep: Sleep,
}

impl ChannelSlot {
    /// Fold the cycles this channel slept through into its bandwidth
    /// bucket, busy/idle account and command queue, bringing its
    /// accounting to node tick count `ticks` at cycle `now`. Call before
    /// anything changes the channel's state.
    pub fn fold_to(&mut self, ticks: u64, now: u64) {
        let k = self.sleep.behind(ticks);
        if k > 0 {
            self.dram.skip_idle(Cycle(now.saturating_sub(k)), k);
            self.sleep.ticks = ticks;
        }
    }

    /// The channel's counters folded to node tick count `ticks`.
    pub fn stats(&self, ticks: u64) -> DramStats {
        self.dram.stats_after_skip(self.sleep.behind(ticks))
    }
}

/// The node-level parameters a lane step needs, copied out so a step can
/// borrow the lane mutably alongside the node's other fields.
#[derive(Copy, Clone, Debug)]
pub(crate) struct LaneParams {
    /// This node's index.
    pub node: usize,
    /// Whether cache-combining mode (§3.2) is on.
    pub combining: bool,
    /// Node count when part of a multi-node machine (`None` = standalone).
    pub n_nodes: Option<usize>,
    /// Cache line size, for line-interleaved address homing.
    pub line_bytes: u64,
    /// Whether a non-empty fault plan is installed (gates the watchdog).
    pub faults_active: bool,
    /// Watchdog threshold for fault-injected combining-store stalls.
    pub cs_timeout: u64,
    /// DRAM geometry, for line-to-channel routing.
    pub dram: DramConfig,
}

impl LaneParams {
    /// Whether combining mode treats `addr` as remote (zero-allocate +
    /// sum-back). A home-owned line is never combined: applying it through
    /// the cache with a real fill is what lets arriving sum-backs terminate.
    pub fn combine_as_remote(&self, addr: Addr) -> bool {
        self.combining
            && match self.n_nodes {
                None => true,
                Some(n) => (addr.line_index(self.line_bytes) % n as u64) as usize != self.node,
            }
    }
}

/// Retire a traced request and stream its per-stage spans into the trace
/// sink (one Perfetto track per request, scoped by node id).
pub(crate) fn retire_req<S: TraceSink>(
    id: u64,
    now: Cycle,
    req_trace: &mut ReqTracer,
    tracer: &mut S,
) {
    if let Some(rec) = req_trace.retire(id, now.raw()) {
        sa_telemetry::emit_req_spans(rec, tracer);
    }
}

/// The front (crossbar) phase of one lane for cycle `now` (node tick count
/// `ticks`): fold queue time, tick the bank, and move one outgoing DRAM
/// command toward its channel (a single conditional pop: the head stays
/// queued when its channel is busy). Run in bank order.
///
/// The target channel is found only *after* the bank tick: installing a
/// fill can evict a dirty line into a write-back, and a poisoned fill
/// launches an ECC replay, both in this same phase. The channel is folded
/// through this cycle (its tick, if due, already ran) before the command
/// lands, then woken.
pub(crate) fn lane_front(
    lane: &mut BankLane,
    now: Cycle,
    ticks: u64,
    channels: &mut [ChannelSlot],
    p: &LaneParams,
    req_trace: &mut ReqTracer,
) {
    let t = now.raw();
    lane.bank_in.advance(t);
    lane.bank.tick(now);
    let channel_of = |cmd: &DramCommand| p.dram.channel_of_line(cmd.base.line_index(p.line_bytes));
    if let Some(cmd) = lane
        .bank
        .pop_mem_cmd_if(|cmd| channels[channel_of(cmd)].dram.can_accept())
    {
        if let Some(rid) = cmd.req {
            req_trace.stamp(rid, ReqStage::Dram, t);
        }
        let ch = &mut channels[channel_of(&cmd)];
        ch.fold_to(ticks, t);
        ch.dram.try_submit(cmd, now).expect("capacity checked");
        let next = ch.dram.next_event(now);
        ch.sleep.settle(ticks, next);
    }
}

/// The lane-local step phase of one cycle (scatter-add ingest, cache port
/// arbitration, unit tick, response/ack routing) — steps 4–8 of the classic
/// per-bank loop. Never touches the DRAM channels. Completions are pushed
/// onto `out`, the node's completion queue.
pub(crate) fn step_lane<S: TraceSink>(
    lane: &mut BankLane,
    now: Cycle,
    p: &LaneParams,
    out: &mut VecDeque<MemResponse>,
    req_trace: &mut ReqTracer,
    tracer: &mut S,
) {
    let BankLane {
        index,
        bank,
        sa,
        bank_in,
        rr_sa_first,
        ..
    } = lane;
    let b = *index;

    // 4. Ingest a scatter request into the scatter-add unit (does not
    //    consume the cache port; Figure 4a places the unit in front of the
    //    bank). Single conditional pop: the head is consumed exactly when
    //    the unit accepts it.
    bank_in.pop_if(|req| req.op.is_scatter() && sa.try_submit_traced(*req, now, req_trace).is_ok());

    // 5. One cache access per bank per cycle, round-robin between the
    //    scatter-add unit's internal traffic and bypass traffic.
    let sa_first = *rr_sa_first;
    let mut served = false;
    for attempt in 0..2 {
        let serve_sa = sa_first ^ (attempt == 1);
        if serve_sa {
            if try_serve_sa(b, bank, sa, now, p, req_trace) {
                served = true;
                break;
            }
        } else if try_serve_bypass(bank, bank_in, out, now, req_trace, tracer) {
            served = true;
            break;
        }
    }
    if served {
        *rr_sa_first = !sa_first;
    }

    // 6. Advance the scatter-add unit; with faults installed, the watchdog
    //    first expires any stall that outlived its budget.
    if p.faults_active {
        sa.cancel_stalls_older_than(now, p.cs_timeout);
    }
    sa.tick_traced(now, req_trace);

    // 7. Route cache data responses.
    while let Some(r) = bank.pop_ready(now) {
        match r.origin {
            Origin::SaUnit { bank: ob, .. } => {
                debug_assert_eq!(ob, b);
                sa.on_value(r.addr, r.bits);
            }
            _ => {
                retire_req(r.id, now, req_trace, tracer);
                out.push_back(r);
            }
        }
    }

    // 8. Scatter acknowledgements complete their requests.
    while let Some(a) = sa.pop_ack() {
        retire_req(a.id, now, req_trace, tracer);
        out.push_back(a);
    }
}

/// Serve one of the scatter-add unit's memory operations at the lane's
/// cache port. Returns whether the port was used (a single conditional pop:
/// the head op stays queued when the cache port rejects it).
fn try_serve_sa(
    b: usize,
    bank: &mut CacheBank,
    sa: &mut ScatterAddUnit,
    now: Cycle,
    p: &LaneParams,
    req_trace: &mut ReqTracer,
) -> bool {
    let node = p.node;
    sa.pop_to_mem_if(|op| {
        let origin = Origin::SaUnit { node, bank: b };
        let access = match *op {
            ToMem::Read { id, addr } => CacheAccess {
                id,
                addr,
                kind: AccessKind::Read {
                    zero_alloc: p.combine_as_remote(addr),
                },
                origin,
            },
            ToMem::Write { id, addr, bits } => CacheAccess {
                id,
                addr,
                kind: AccessKind::Write {
                    bits,
                    partial_sum: p.combine_as_remote(addr),
                },
                origin,
            },
        };
        bank.try_access_traced(access, now, req_trace).is_ok()
    })
    .is_some()
}

/// Serve one bypass (non-scatter) request at the lane's cache port.
/// Returns whether the port was used (a single conditional pop: the head
/// request stays queued when the cache port rejects it).
fn try_serve_bypass<S: TraceSink>(
    bank: &mut CacheBank,
    bank_in: &mut BoundedQueue<MemRequest>,
    out: &mut VecDeque<MemResponse>,
    now: Cycle,
    req_trace: &mut ReqTracer,
    tracer: &mut S,
) -> bool {
    let served = bank_in.pop_if(|req| {
        let access = match req.op {
            MemOp::Read => CacheAccess {
                id: req.id,
                addr: req.addr,
                kind: AccessKind::Read { zero_alloc: false },
                origin: req.origin,
            },
            MemOp::Write { bits } => CacheAccess {
                id: req.id,
                addr: req.addr,
                kind: AccessKind::Write {
                    bits,
                    partial_sum: false,
                },
                origin: req.origin,
            },
            MemOp::Scatter { .. } => return false,
        };
        bank.try_access_traced(access, now, req_trace).is_ok()
    });
    match served {
        Some(req) => {
            if matches!(req.op, MemOp::Write { .. }) {
                // Posted write: acknowledged on acceptance.
                retire_req(req.id, now, req_trace, tracer);
                out.push_back(MemResponse {
                    id: req.id,
                    addr: req.addr,
                    bits: 0,
                    origin: req.origin,
                    at: now,
                });
            }
            true
        }
        None => false,
    }
}
