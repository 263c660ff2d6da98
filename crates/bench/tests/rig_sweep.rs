//! The sensitivity-rig sweeps of Figures 11 and 12 run through the shared
//! sweep executor: results must come back in configuration order and be
//! identical for any worker count.

use sa_bench::sweep;
use sa_core::SensitivityRig;
use sa_sim::{Rng64, SensitivityConfig};

#[test]
fn rig_sweep_is_thread_count_invariant() {
    let mut rng = Rng64::new(10);
    let indices: Vec<u64> = (0..512).map(|_| rng.below(4096)).collect();
    let configs: Vec<SensitivityConfig> = [2usize, 8, 64]
        .iter()
        .map(|&cs| SensitivityConfig {
            cs_entries: cs,
            ..SensitivityConfig::default()
        })
        .collect();
    let run = |jobs: usize| {
        sweep::map_jobs(jobs, configs.clone(), |c| {
            SensitivityRig::new(c).run_histogram(&indices, 4096)
        })
    };
    let serial = run(1);
    let one_by_one: Vec<_> = configs
        .iter()
        .map(|&c| SensitivityRig::new(c).run_histogram(&indices, 4096))
        .collect();
    assert_eq!(
        serial, one_by_one,
        "the sweep must keep configuration order"
    );
    for jobs in [2usize, 8] {
        assert_eq!(serial, run(jobs), "jobs={jobs}");
    }
}
