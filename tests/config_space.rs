//! Configuration-space robustness: the machine must stay deadlock-free and
//! *exact* for any sensible combination of bank count, line size,
//! associativity, combining-store size, FU latency, MSHR file size, and
//! address-generator width — not just the Table 1 point. These tests drive
//! randomized machines with randomized workloads and assert the functional
//! invariant plus termination (the driver's cycle limit converts deadlock
//! into a panic).

use proptest::prelude::*;

use sa_core::{drive_scatter, scatter_reference, ScatterKernel};
use sa_sim::{CacheConfig, MachineConfig, Rng64};

/// A strategy over valid machine configurations around the Table 1 point.
fn machines() -> impl Strategy<Value = MachineConfig> {
    (
        prop::sample::select(vec![1usize, 2, 4, 8, 16]), // banks
        prop::sample::select(vec![16u64, 32, 64]),       // line bytes
        prop::sample::select(vec![1usize, 2, 4]),        // ways
        1usize..=16,                                     // cs entries
        1u32..=8,                                        // fu latency
        1usize..=8,                                      // mshrs
        1u32..=8,                                        // ag width
    )
        .prop_map(|(banks, line_bytes, ways, cs, fu, mshrs, ag_width)| {
            let mut cfg = MachineConfig::merrimac();
            // Shrink the cache so the geometry stays valid for every
            // combination and eviction paths actually trigger.
            let total_bytes = (banks as u64) * line_bytes * (ways as u64) * 16;
            cfg.cache = CacheConfig {
                banks,
                total_bytes,
                line_bytes,
                ways,
                mshrs_per_bank: mshrs,
                targets_per_mshr: 4,
                hit_latency: 2,
            };
            cfg.sa.cs_entries = cs;
            cfg.sa.fu_latency = fu;
            cfg.ag.width = ag_width;
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exactness and termination across the configuration space.
    #[test]
    fn any_machine_computes_exact_sums(
        cfg in machines(),
        seed in 0u64..1_000,
        n in 1usize..400,
        range in 1u64..512,
    ) {
        let mut rng = Rng64::new(seed);
        let indices: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
        prop_assert_eq!(cfg.validate(), Ok(()), "the strategy stays buildable");
        let kernel = ScatterKernel::histogram(0, indices);
        let run = drive_scatter(&cfg, &kernel, false);
        let expect: Vec<i64> = scatter_reference(&kernel, range as usize)
            .iter()
            .map(|&b| b as i64)
            .collect();
        prop_assert_eq!(run.result_i64(range as usize), expect);
        // Exactly one ack per request, no lost or duplicated work.
        prop_assert_eq!(run.stats.sa.accepted, n as u64);
        prop_assert_eq!(
            run.stats.sa.reads_issued + run.stats.sa.combined,
            n as u64,
            "every request either read memory or combined"
        );
        prop_assert_eq!(
            run.stats.sa.writes_issued + run.stats.sa.chained,
            n as u64,
            "every addition either wrote its sum or chained it onward"
        );
    }

    /// Fetch-op mode keeps its permutation guarantee everywhere in the
    /// configuration space.
    #[test]
    fn any_machine_fetch_add_is_a_permutation(
        cfg in machines(),
        n in 1usize..100,
    ) {
        let kernel = ScatterKernel::histogram(0, vec![0; n]);
        let run = drive_scatter(&cfg, &kernel, true);
        let mut slots: Vec<i64> = run.fetched.iter().map(|&(_, b)| b as i64).collect();
        slots.sort_unstable();
        prop_assert_eq!(slots, (0..n as i64).collect::<Vec<_>>());
    }

    /// Tiny pathological machines (1 bank, 1-entry store, 1-wide AG) still
    /// finish adversarial all-hot traffic.
    #[test]
    fn minimal_machine_survives_hot_traffic(n in 1usize..200) {
        let mut cfg = MachineConfig::merrimac();
        cfg.cache.banks = 1;
        cfg.cache.total_bytes = 1024;
        cfg.cache.ways = 1;
        cfg.cache.mshrs_per_bank = 1;
        cfg.cache.targets_per_mshr = 1;
        cfg.sa.cs_entries = 1;
        cfg.ag.width = 1;
        prop_assert_eq!(cfg.validate(), Ok(()));
        let kernel = ScatterKernel::histogram(0, vec![0; n]);
        let run = drive_scatter(&cfg, &kernel, false);
        prop_assert_eq!(run.result_i64(1)[0], n as i64);
    }
}

/// Mixed plain/scatter traffic to overlapping addresses must respect the
/// request stream's bank-order semantics for every machine shape.
#[test]
fn scatter_then_read_sees_all_additions_across_configs() {
    for banks in [1usize, 2, 8] {
        for cs in [1usize, 4, 8] {
            let mut cfg = MachineConfig::merrimac();
            cfg.cache.banks = banks;
            cfg.sa.cs_entries = cs;
            let mut rng = Rng64::new(banks as u64 * 31 + cs as u64);
            let indices: Vec<u64> = (0..300).map(|_| rng.below(16)).collect();
            let kernel = ScatterKernel::histogram(0, indices);
            let run = drive_scatter(&cfg, &kernel, false);
            let expect: Vec<i64> = scatter_reference(&kernel, 16)
                .iter()
                .map(|&b| b as i64)
                .collect();
            assert_eq!(run.result_i64(16), expect, "banks={banks} cs={cs}");
        }
    }
}
