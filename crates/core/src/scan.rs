//! Hardware parallel-prefix (scan) support — the first §5 future-work item:
//! "we plan enhancements that will allow efficient computation of scans
//! (parallel prefix operations) in hardware".
//!
//! The paper does not give a design, so this module commits to a natural
//! one in the same spirit as the scatter-add unit: a *scan engine* at the
//! memory interface that streams a contiguous range through a running
//! accumulator and writes prefix sums back. Two micro-architectural points
//! make it credible:
//!
//! * the serial dependence of a prefix sum is hidden the standard way —
//!   interleaved partial accumulators (one per cache bank) plus a
//!   correction merge — so the engine consumes one element per bank per
//!   cycle regardless of adder latency;
//! * elements can return from the banked memory system out of order, so the
//!   engine owns a small reorder window ([`SCAN_ROB_ENTRIES`]) and consumes
//!   strictly in order; a full window back-pressures like the combining
//!   store does.
//!
//! The engine is exact: reordering never changes integer results, and f64
//! prefixes are computed in index order (unlike scatter-add, a scan's
//! *definition* fixes the order).

use std::collections::{HashMap, VecDeque};

use sa_sim::{Addr, Cycle, MachineConfig, MemOp, MemRequest, Origin, ScalarKind};
use sa_telemetry::{HostProfiler, Introspect};

use crate::node::{NodeMemSys, NodeStats};
use crate::sched::{self, Stepped};

/// Reorder-window entries of the scan engine (same silicon budget class as
/// a combining store).
pub const SCAN_ROB_ENTRIES: usize = 64;

/// Outcome of a hardware scan.
#[derive(Debug)]
pub struct ScanResult {
    /// Cycles until every prefix value was written back.
    pub cycles: u64,
    /// The prefix sums (inclusive), as raw bits.
    pub prefix: Vec<u64>,
    /// Machine statistics for the run.
    pub stats: NodeStats,
}

impl ScanResult {
    /// The prefix sums as `i64`.
    pub fn prefix_i64(&self) -> Vec<i64> {
        self.prefix.iter().map(|&b| b as i64).collect()
    }

    /// The prefix sums as `f64`.
    pub fn prefix_f64(&self) -> Vec<f64> {
        self.prefix.iter().map(|&b| f64::from_bits(b)).collect()
    }

    /// Execution time in microseconds at 1 GHz.
    pub fn micros(&self) -> f64 {
        self.cycles as f64 / 1e3
    }
}

/// Run an inclusive prefix sum over the `input.len()` words from word 0,
/// writing the results over the inputs — in hardware, on a fresh node
/// preloaded with `input`.
///
/// # Panics
///
/// Panics if `input` is empty or the simulation deadlocks.
pub fn drive_scan(cfg: &MachineConfig, input: &[u64], kind: ScalarKind) -> ScanResult {
    assert!(!input.is_empty(), "empty scan");
    let mut node = NodeMemSys::new(*cfg, 0, false);
    match kind {
        ScalarKind::I64 => {
            let v: Vec<i64> = input.iter().map(|&b| b as i64).collect();
            node.store_mut().load_i64(Addr(0), &v);
        }
        ScalarKind::F64 => {
            let v: Vec<f64> = input.iter().map(|&b| f64::from_bits(b)).collect();
            node.store_mut().load_f64(Addr(0), &v);
        }
    }

    let mut run = ScanRun {
        node,
        kind,
        lanes: cfg.cache.banks,
        issue_width: (cfg.ag.count as u32 * cfg.ag.width) as usize,
        next_read: 0,
        rob: HashMap::new(),
        consume_at: 0,
        acc: sa_sim::identity_bits(kind, sa_sim::ScatterOp::Add),
        prefix: vec![0u64; input.len()],
        writes_pending: VecDeque::new(),
        writes_acked: 0,
        read_ids: HashMap::new(),
        next_id: 0,
    };
    // The engine retries its reads and write-backs every cycle, so it
    // reports no horizon and every cycle is ticked.
    let fin = sched::run(&mut run, false, &mut Introspect::off());
    run.node.flush_to_store();

    ScanResult {
        cycles: fin.cycles,
        prefix: run.prefix,
        stats: run.node.stats(),
    }
}

/// One scan in progress: the engine's read cursor, reorder window,
/// running accumulator and write-back queue.
struct ScanRun {
    node: NodeMemSys,
    kind: ScalarKind,
    lanes: usize,
    issue_width: usize,
    /// Next element whose read may issue.
    next_read: usize,
    /// Element index -> bits, for reads returned out of order.
    rob: HashMap<u64, u64>,
    /// Next element the accumulator takes.
    consume_at: usize,
    acc: u64,
    prefix: Vec<u64>,
    writes_pending: VecDeque<(usize, u64)>,
    writes_acked: usize,
    read_ids: HashMap<u64, usize>,
    next_id: u64,
}

impl Stepped for ScanRun {
    fn step(&mut self, now: Cycle, _prof: &mut HostProfiler) {
        let n = self.prefix.len();

        // Issue reads while the reorder window has room.
        let mut issued = 0;
        while issued < self.issue_width
            && self.next_read < n
            && (self.next_read - self.consume_at) < SCAN_ROB_ENTRIES
        {
            self.next_id += 1;
            let req = MemRequest {
                id: self.next_id,
                addr: Addr::from_word_index(self.next_read as u64),
                op: MemOp::Read,
                origin: Origin::AddrGen { node: 0, ag: 0 },
            };
            match self.node.inject(req) {
                Ok(()) => {
                    self.read_ids.insert(self.next_id, self.next_read);
                    self.next_read += 1;
                    issued += 1;
                }
                Err(_) => break,
            }
        }

        // Consume in-order elements — one per bank-lane accumulator per
        // cycle (the correction merge keeps them coherent).
        for _ in 0..self.lanes {
            let Some(bits) = self.rob.remove(&(self.consume_at as u64)) else {
                break;
            };
            self.acc = sa_sim::combine(self.acc, bits, self.kind, sa_sim::ScatterOp::Add);
            self.prefix[self.consume_at] = self.acc;
            self.writes_pending.push_back((self.consume_at, self.acc));
            self.consume_at += 1;
        }

        // Issue prefix write-backs, one per lane per cycle.
        for _ in 0..self.lanes {
            let Some(&(idx, bits)) = self.writes_pending.front() else {
                break;
            };
            self.next_id += 1;
            let req = MemRequest {
                id: self.next_id,
                addr: Addr::from_word_index(idx as u64),
                op: MemOp::Write { bits },
                origin: Origin::SaUnit { node: 0, bank: 0 },
            };
            match self.node.inject(req) {
                Ok(()) => {
                    self.writes_pending.pop_front();
                }
                Err(_) => break,
            }
        }

        self.node.tick(now);

        while let Some(c) = self.node.pop_completion() {
            match c.origin {
                Origin::AddrGen { .. } => {
                    let idx = self.read_ids.remove(&c.id).expect("read id known");
                    self.rob.insert(idx as u64, c.bits);
                }
                Origin::SaUnit { .. } => self.writes_acked += 1,
                _ => {}
            }
        }
    }

    /// Done once every write-back is acknowledged and the node has drained.
    fn settle(&mut self, _now: Cycle, _prof: &mut HostProfiler) -> bool {
        self.writes_acked == self.prefix.len() && self.node.is_idle()
    }
}

/// Scalar reference: inclusive prefix sum bits.
pub fn scan_reference(input: &[u64], kind: ScalarKind) -> Vec<u64> {
    let mut acc = sa_sim::identity_bits(kind, sa_sim::ScatterOp::Add);
    input
        .iter()
        .map(|&b| {
            acc = sa_sim::combine(acc, b, kind, sa_sim::ScatterOp::Add);
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sim::Rng64;

    fn cfg() -> MachineConfig {
        MachineConfig::merrimac()
    }

    #[test]
    fn i64_scan_is_exact() {
        let mut rng = Rng64::new(1);
        let input: Vec<u64> = (0..500).map(|_| rng.below(100)).collect();
        let r = drive_scan(&cfg(), &input, ScalarKind::I64);
        assert_eq!(r.prefix, scan_reference(&input, ScalarKind::I64));
    }

    #[test]
    fn f64_scan_is_in_order() {
        // A scan's order is defined by the index, so f64 results must be
        // *bitwise* equal to the sequential reference — no reassociation.
        let mut rng = Rng64::new(2);
        let input: Vec<u64> = (0..300)
            .map(|_| rng.range_f64(-1.0, 1.0).to_bits())
            .collect();
        let r = drive_scan(&cfg(), &input, ScalarKind::F64);
        assert_eq!(r.prefix, scan_reference(&input, ScalarKind::F64));
    }

    #[test]
    fn results_land_in_memory() {
        let input: Vec<u64> = (1..=8).collect();
        let r = drive_scan(&cfg(), &input, ScalarKind::I64);
        assert_eq!(r.prefix_i64(), vec![1, 3, 6, 10, 15, 21, 28, 36]);
    }

    #[test]
    fn scan_throughput_approaches_one_element_per_cycle_when_cached() {
        // Small ranges stay cache-resident after the first pass; the engine
        // should then be bound by its 1 element/cycle consumption.
        let input: Vec<u64> = vec![1; 2048];
        let r = drive_scan(&cfg(), &input, ScalarKind::I64);
        let per_elem = r.cycles as f64 / 2048.0;
        assert!(
            per_elem < 2.0,
            "multi-lane scan should beat 2 cyc/elem, got {per_elem:.2}"
        );
    }

    #[test]
    fn scan_scales_linearly() {
        let small = drive_scan(&cfg(), &vec![1u64; 1024], ScalarKind::I64);
        let large = drive_scan(&cfg(), &vec![1u64; 4096], ScalarKind::I64);
        let ratio = large.cycles as f64 / small.cycles as f64;
        assert!(
            (2.0..8.0).contains(&ratio),
            "O(n) scan, got ratio {ratio:.2}"
        );
    }

    #[test]
    fn one_element_scan_cycles_are_pinned() {
        let r = drive_scan(&cfg(), &[5], ScalarKind::I64);
        // The scan decides "done" before each cycle and drains the node
        // after the last write-back is acknowledged.
        assert_eq!(r.prefix_i64(), vec![5]);
        assert_eq!(r.cycles, 48);
    }

    #[test]
    #[should_panic(expected = "empty scan")]
    fn empty_scan_rejected() {
        let _ = drive_scan(&cfg(), &[], ScalarKind::I64);
    }
}
