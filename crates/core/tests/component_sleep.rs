//! The component-sleep contract: a node whose idle lanes and DRAM channels
//! sleep (fast-forward on) is observably identical, cycle by cycle, to one
//! that ticks every lane and channel every cycle (fast-forward off).

use proptest::prelude::*;
use sa_core::NodeMemSys;
use sa_faults::FaultPlan;
use sa_sim::{
    Addr, CacheConfig, Cycle, MachineConfig, MemOp, MemRequest, Origin, Rng64, ScalarKind,
    ScatterOp,
};
use sa_telemetry::{Inspectable, MetricsRegistry};

/// Words the traffic touches: 128 lines, far more than the tiny cache holds.
const WORDS: u64 = 512;
/// Cycle budget; a lost wake-up shows up as a run that never drains.
const LIMIT: u64 = 300_000;
/// Full metric documents and probe snapshots are compared at multiples of
/// this cycle (the skipping node never jumps past one).
const SNAPSHOT: u64 = 64;

/// A cache of two 2-way sets per bank with two MSHRs of two targets each:
/// almost every fill install evicts, and dirty victims become write-backs.
fn tiny_machine() -> MachineConfig {
    let mut cfg = MachineConfig::merrimac();
    cfg.cache = CacheConfig {
        banks: 8,
        total_bytes: 8 * 2 * 2 * 32,
        line_bytes: 32,
        ways: 2,
        mshrs_per_bank: 2,
        targets_per_mshr: 2,
        hit_latency: 4,
    };
    cfg
}

fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::parse(&format!(
        r#"{{"schema":"sa-faultplan","version":1,"seed":{seed},"cs_timeout":32,"faults":[
            {{"kind":"ecc_single","period":5}},
            {{"kind":"ecc_double","period":3}},
            {{"kind":"cs_stall","cycles":20,"period":4}}
        ]}}"#
    ))
    .expect("valid plan")
}

/// Random mixed traffic in bursts separated by idle gaps: reads, posted
/// writes and scatter-adds (some of them fetch-ops), each with the cycle it
/// may first be injected. Combining nodes get only `Add` scatters (the
/// zero-allocate identity); plain nodes also get `Max`.
fn traffic(seed: u64, n: usize, combining: bool) -> Vec<(u64, MemRequest)> {
    let mut rng = Rng64::new(seed);
    let mut at = 1u64;
    (0..n as u64)
        .map(|id| {
            if rng.below(24) == 0 {
                at += 30 + rng.below(200);
            } else {
                at += rng.below(2);
            }
            let addr = Addr::from_word_index(rng.below(WORDS));
            let op = match rng.below(8) {
                0 => MemOp::Read,
                1 => MemOp::Write {
                    bits: rng.below(1000),
                },
                r => MemOp::Scatter {
                    bits: rng.below(100),
                    kind: ScalarKind::I64,
                    op: if !combining && r == 2 {
                        ScatterOp::Max
                    } else {
                        ScatterOp::Add
                    },
                    fetch: rng.below(4) == 0,
                },
            };
            let origin = Origin::AddrGen { node: 0, ag: 0 };
            (
                at,
                MemRequest {
                    id,
                    addr,
                    op,
                    origin,
                },
            )
        })
        .collect()
}

fn metrics_json(node: &NodeMemSys) -> String {
    let mut reg = MetricsRegistry::new();
    node.record_metrics(&mut reg.scope("node"));
    reg.to_json().to_string_pretty()
}

/// One cycle's worth of what a node emits: completions as (id, cycle,
/// bits) and popped sum-backs as (bank, line base, words).
type Emitted = (Vec<(u64, u64, u64)>, Vec<(usize, u64, Vec<u64>)>);

fn drain(node: &mut NodeMemSys) -> Emitted {
    let mut done = Vec::new();
    while let Some(c) = node.pop_completion() {
        done.push((c.id, c.at.raw(), c.bits));
    }
    let mut sums = Vec::new();
    while let Some((b, sb)) = node.pop_sum_back() {
        sums.push((b, sb.base.0, sb.data));
    }
    (done, sums)
}

/// Drive a sleeping node (`on`) and a per-cycle node (`off`) through the
/// same traffic and compare every observable, failing on the first
/// divergence. The sleeping node also takes node-level skips whenever its
/// event horizon and the traffic allow; the per-cycle node ticks through
/// those cycles one by one.
fn compare(
    cfg: MachineConfig,
    combining: bool,
    plan: Option<&FaultPlan>,
    reqs: &[(u64, MemRequest)],
) -> Result<(), TestCaseError> {
    let build = |ff: bool| {
        let mut node = NodeMemSys::new(cfg, 0, combining);
        node.set_fast_forward(ff);
        if let Some(p) = plan {
            node.set_fault_plan(p);
        }
        node
    };
    let mut on = build(true);
    let mut off = build(false);
    let mut next = 0usize;
    let mut now = Cycle(0);
    let mut skipped = 0u64;
    while next < reqs.len() || !(on.is_idle() && off.is_idle()) {
        now += 1;
        prop_assert!(now.raw() < LIMIT, "no drain by cycle {}", LIMIT);
        while next < reqs.len() && reqs[next].0 <= now.raw() {
            let req = reqs[next].1;
            let (a, b) = (on.inject(req).is_ok(), off.inject(req).is_ok());
            prop_assert_eq!(a, b, "inject of request {} at {:?}", req.id, now);
            if !a {
                break;
            }
            next += 1;
        }
        on.tick(now);
        off.tick(now);
        prop_assert_eq!(drain(&mut on), drain(&mut off), "emitted at {:?}", now);
        prop_assert_eq!(on.stats(), off.stats(), "stats at {:?}", now);
        if now.raw().is_multiple_of(SNAPSHOT) {
            prop_assert_eq!(
                metrics_json(&on),
                metrics_json(&off),
                "metrics at {:?}",
                now
            );
            prop_assert_eq!(
                on.probe_json().to_string_compact(),
                off.probe_json().to_string_compact(),
                "probe at {:?}",
                now
            );
        }
        // Node-level skip: only while nothing waits to be injected.
        let waiting = reqs.get(next).map(|r| r.0);
        if waiting.is_some_and(|at| at <= now.raw()) {
            continue;
        }
        let Some(mut h) = on.next_event(now).map(Cycle::raw) else {
            continue;
        };
        h = h.min(waiting.unwrap_or(u64::MAX));
        h = h.min((now.raw() / SNAPSHOT + 1) * SNAPSHOT);
        if h > now.raw() + 1 {
            let k = h - now.raw() - 1;
            on.skip_cycles(now, k);
            for _ in 0..k {
                now += 1;
                off.tick(now);
                let (done, sums) = drain(&mut off);
                prop_assert!(done.is_empty() && sums.is_empty(), "event at {:?}", now);
            }
            skipped += k;
            prop_assert_eq!(on.stats(), off.stats(), "stats after skip to {:?}", now);
        }
    }
    prop_assert!(
        skipped > 0 || reqs.is_empty(),
        "the idle gaps must be skipped"
    );
    prop_assert_eq!(metrics_json(&on), metrics_json(&off), "final metrics");
    let sums = |n: &mut NodeMemSys| {
        n.flush_sum_backs()
            .into_iter()
            .map(|sb| (sb.base.0, sb.data))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(sums(&mut on), sums(&mut off), "flushed sum-backs");
    on.flush_to_store();
    off.flush_to_store();
    prop_assert_eq!(
        on.store().extract_i64(Addr(0), WORDS as usize),
        off.store().extract_i64(Addr(0), WORDS as usize),
        "memory image"
    );
    prop_assert_eq!(on.stats(), off.stats(), "final stats");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sleeping lanes and channels fold their slept cycles exactly: over
    /// random mixed traffic, with combining on and off, a cache small
    /// enough that fill installs evict dirty lines, and fault plans that
    /// poison fills (ECC replays) and stall the combining store, the
    /// completion stream, every statistic, the metric documents, the probe
    /// snapshots and the final memory image match per-cycle ticking.
    #[test]
    fn component_sleep_matches_per_cycle_ticking(
        seed in 1u64..1_000_000,
        combining in any::<bool>(),
        tiny in any::<bool>(),
        faulty in any::<bool>(),
    ) {
        let cfg = if tiny { tiny_machine() } else { MachineConfig::merrimac() };
        let plan = faulty.then(|| fault_plan(seed));
        compare(cfg, combining, plan.as_ref(), &traffic(seed, 320, combining))?;
    }
}
