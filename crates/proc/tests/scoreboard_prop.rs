//! Property test over the executor scoreboard: random stream programs of
//! kernels, gathers, scatters and scatter-adds (some of them empty streams,
//! some naming a dependency twice) on machines with one to four address
//! generators. Fast-forward must not change any simulated outcome, no op
//! may start before its dependencies end, and no cycle may hold more than
//! one kernel or more than `ag.count` memory operations.

use proptest::prelude::*;
use sa_core::NodeMemSys;
use sa_proc::{AccessPattern, ExecReport, Executor, OpSpan, StreamOp, StreamProgram};
use sa_sim::{Addr, MachineConfig, Rng64};

/// Words of memory the generated programs touch.
const IMAGE_WORDS: u64 = 4096 + 128;

fn random_program(seed: u64) -> StreamProgram {
    let mut rng = Rng64::new(seed);
    let mut p = StreamProgram::new();
    for id in 0..1 + rng.below(16) as usize {
        // Up to three dependencies drawn with replacement, so repeats occur.
        let deps: Vec<usize> = match id {
            0 => Vec::new(),
            _ => (0..rng.below(4))
                .map(|_| rng.below(id as u64) as usize)
                .collect(),
        };
        let len = if rng.below(5) == 0 {
            0
        } else {
            1 + rng.below(96)
        };
        let base_word = rng.below(64) * 64;
        let pattern = if rng.below(2) == 0 {
            AccessPattern::Sequential { base_word, n: len }
        } else {
            AccessPattern::Indexed {
                base_word,
                indices: (0..len).map(|_| rng.below(128)).collect(),
            }
        };
        let op = match rng.below(4) {
            0 => StreamOp::kernel("k", len, 1, 1 + rng.below(8), 1 + rng.below(4)),
            1 => StreamOp::gather(pattern),
            2 => StreamOp::scatter(pattern, (0..len).collect()),
            _ => StreamOp::scatter_add_i64(pattern, &vec![1; len as usize]),
        };
        p.add(op, &deps);
    }
    p
}

fn run(cfg: MachineConfig, prog: &StreamProgram, fast_forward: bool) -> (ExecReport, Vec<i64>) {
    let mut node = NodeMemSys::new(cfg, 0, false);
    node.set_fast_forward(fast_forward);
    let report = Executor::new(cfg).run(prog, &mut node);
    let image = node.store().extract_i64(Addr(0), IMAGE_WORDS as usize);
    (report, image)
}

/// The largest number of `spans` live in any one cycle (inclusive ends).
fn max_live(spans: &[OpSpan]) -> usize {
    spans
        .iter()
        .map(|a| {
            spans
                .iter()
                .filter(|b| b.start <= a.start && a.start <= b.end)
                .count()
        })
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scoreboard_schedules_random_programs_legally(
        seed in any::<u64>(),
        ag_count in 1usize..=4,
    ) {
        let mut cfg = MachineConfig::merrimac();
        cfg.ag.count = ag_count;
        let prog = random_program(seed);
        let (on, image_on) = run(cfg, &prog, true);
        let (off, image_off) = run(cfg, &prog, false);

        prop_assert_eq!(on.cycles, off.cycles);
        prop_assert_eq!(&on.spans, &off.spans);
        prop_assert_eq!(&on.stats, &off.stats);
        prop_assert_eq!(on.srf, off.srf);
        prop_assert_eq!(&image_on, &image_off);
        prop_assert_eq!(off.skipped_cycles, 0);

        let spans = &on.spans;
        let mut kernels = Vec::new();
        let mut streams = Vec::new();
        for (id, op, deps) in prog.iter() {
            for &d in deps {
                prop_assert!(
                    spans[id].start >= spans[d].end,
                    "op {id} started at {} before dep {d} ended at {}",
                    spans[id].start,
                    spans[d].end
                );
            }
            prop_assert!(spans[id].end <= on.cycles);
            match op {
                StreamOp::Kernel { .. } => kernels.push(spans[id]),
                // An empty stream borrows an AG for no cycle at all.
                _ if op.mem_refs() > 0 => streams.push(spans[id]),
                _ => {}
            }
        }
        prop_assert!(max_live(&kernels) <= 1, "overlapping kernels: {kernels:?}");
        prop_assert!(
            max_live(&streams) <= ag_count,
            "more than {ag_count} live memory ops: {streams:?}"
        );
    }
}

/// `skipped_cycles` is reported in results, so the skip schedule is pinned
/// too. These programs end with write-backs in flight after their last op
/// finishes: the cycle that finishes it never skips; the drain after it
/// does.
#[test]
fn skipped_cycles_are_pinned_when_the_last_op_leaves_writes_in_flight() {
    for (seed, ag_count, cycles, skipped) in [
        (4u64, 3usize, 737u64, 398u64),
        (30, 1, 985, 681),
        (45, 2, 752, 282),
        (65, 1, 571, 382),
    ] {
        let mut cfg = MachineConfig::merrimac();
        cfg.ag.count = ag_count;
        let (r, _) = run(cfg, &random_program(seed), true);
        assert_eq!(
            (r.cycles, r.skipped_cycles),
            (cycles, skipped),
            "seed {seed}"
        );
    }
}
