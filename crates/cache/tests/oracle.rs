//! Model-checking the cache bank: arbitrary interleavings of reads, writes,
//! fills, and evictions must behave exactly like a flat memory.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use sa_cache::{AccessKind, CacheAccess, CacheBank, SumBack};
use sa_mem::{BackingStore, DramKind, DramResponse};
use sa_sim::{Addr, CacheConfig, Cycle, Origin};

/// A tiny bank so evictions, MSHR merges, and write-arounds all trigger.
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

#[derive(Copy, Clone, Debug)]
enum Op {
    Read(u64),
    Write(u64, u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64).prop_map(Op::Read),
            ((0u64..64), any::<u64>()).prop_map(|(w, v)| Op::Write(w, v)),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive random traffic through the bank with a 20-cycle memory behind
    /// it; every read must observe the latest prior write to its word, and
    /// the final flushed state must equal the reference memory.
    #[test]
    fn cache_behaves_like_flat_memory(ops in ops()) {
        let cfg = tiny();
        let mut bank = CacheBank::new(cfg, 0, 0);
        let mut store = BackingStore::new();
        let mut reference = std::collections::HashMap::<u64, u64>::new();
        let mut dram: VecDeque<(Cycle, sa_mem::DramCommand)> = VecDeque::new();
        let mut expected_reads = std::collections::HashMap::<u64, u64>::new();
        let mut now = Cycle(0);
        let mut next_op = 0usize;
        let mut reads_done = 0usize;
        let mut reads_total = 0usize;
        let lat = 20u64;

        for _ in 0..200_000 {
            now += 1;
            bank.tick(now);
            // One access attempt per cycle, strictly in program order.
            if next_op < ops.len() {
                let (access, is_read) = match ops[next_op] {
                    Op::Read(w) => (
                        CacheAccess {
                            id: next_op as u64,
                            addr: Addr::from_word_index(w),
                            kind: AccessKind::Read { zero_alloc: false },
                            origin: Origin::AddrGen { node: 0, ag: 0 },
                        },
                        true,
                    ),
                    Op::Write(w, v) => (
                        CacheAccess {
                            id: next_op as u64,
                            addr: Addr::from_word_index(w),
                            kind: AccessKind::Write { bits: v, partial_sum: false },
                            origin: Origin::AddrGen { node: 0, ag: 0 },
                        },
                        false,
                    ),
                };
                if bank.try_access(access, now).is_ok() {
                    match ops[next_op] {
                        Op::Read(w) => {
                            expected_reads.insert(
                                next_op as u64,
                                reference.get(&w).copied().unwrap_or(0),
                            );
                            reads_total += 1;
                            let _ = is_read;
                        }
                        Op::Write(w, v) => {
                            reference.insert(w, v);
                        }
                    }
                    next_op += 1;
                }
            }
            // Service DRAM with a fixed latency.
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
                let expect = expected_reads.remove(&r.id).expect("read was issued");
                prop_assert_eq!(
                    r.bits, expect,
                    "read id {} at {} observed {} expected {}",
                    r.id, r.addr, r.bits, expect
                );
                reads_done += 1;
            }
            if next_op == ops.len() && bank.is_idle() && dram.is_empty() {
                break;
            }
        }
        prop_assert_eq!(reads_done, reads_total, "every read completed");
        // Flush the cache: memory must now equal the reference exactly.
        for (base, data) in bank.flush_dirty() {
            store.write_line(base, &data);
        }
        for (&w, &v) in &reference {
            prop_assert_eq!(
                store.read_word(Addr::from_word_index(w)), v,
                "word {} diverged", w
            );
        }
    }
}

/// Add a sum-back's words into the per-word totals.
fn add_sum_back(summed: &mut HashMap<u64, u64>, sb: SumBack) {
    let first = sb.base.word_index();
    for (j, bits) in sb.data.into_iter().enumerate() {
        let w = summed.entry(first + j as u64).or_insert(0);
        *w = w.wrapping_add(bits);
    }
}

/// One combining-mode update: add `delta` to word `word`. With `bare` set
/// and the line absent, the update is a lone partial-sum write (the write
/// miss allocates the line); otherwise it is a zero-alloc read of the
/// running partial sum followed by a partial-sum write of sum + delta.
fn combining_ops() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    prop::collection::vec(((0u64..128), (1u64..1000), any::<bool>()), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Combining mode never fetches: every word's sum-backs (evictions plus
    /// the final flush) must add up to exactly the deltas written to it.
    /// Thirty-two lines through an eight-line bank evict and re-install lines
    /// constantly, so a line that inherits stale words from its storage's
    /// previous occupant shows up as a wrong sum.
    #[test]
    fn combining_sum_backs_add_up_to_the_deltas(ops in combining_ops()) {
        let cfg = tiny();
        let mut bank = CacheBank::new(cfg, 0, 0);
        let origin = Origin::AddrGen { node: 0, ag: 0 };
        let mut expected = HashMap::<u64, u64>::new();
        let mut summed = HashMap::<u64, u64>::new();
        let mut now = Cycle(0);
        for (i, &(word, delta, bare)) in ops.iter().enumerate() {
            let addr = Addr::from_word_index(word);
            let id = i as u64;
            now += 1;
            let bits = if bare && bank.probe(addr).is_none() {
                delta
            } else {
                let read = CacheAccess {
                    id,
                    addr,
                    kind: AccessKind::Read { zero_alloc: true },
                    origin,
                };
                prop_assert!(bank.try_access(read, now).is_ok(), "zero-alloc read blocked");
                now += u64::from(cfg.hit_latency);
                let r = bank.pop_ready(now).expect("zero-alloc read completes");
                prop_assert_eq!(r.id, id);
                r.bits.wrapping_add(delta)
            };
            let write = CacheAccess {
                id,
                addr,
                kind: AccessKind::Write { bits, partial_sum: true },
                origin,
            };
            prop_assert!(bank.try_access(write, now).is_ok(), "partial-sum write blocked");
            prop_assert!(!bank.has_mem_cmd(), "combining mode never touches DRAM");
            let e = expected.entry(word).or_insert(0);
            *e = e.wrapping_add(delta);
            while let Some(sb) = bank.pop_sum_back() {
                add_sum_back(&mut summed, sb);
            }
        }
        for sb in bank.flush_sum_backs() {
            add_sum_back(&mut summed, sb);
        }
        for (&w, &got) in &summed {
            prop_assert_eq!(
                got, expected.get(&w).copied().unwrap_or(0),
                "word {} summed back wrong", w
            );
        }
        for (&w, &want) in &expected {
            prop_assert_eq!(summed.get(&w).copied(), Some(want), "word {} lost", w);
        }
    }
}
