//! Wall-clock cost of the simulator hot loop with and without the
//! event-horizon scheduler (`--fast-forward`).
//!
//! Two fig6-scale workloads, each run with skipping on and off:
//!
//! * `histogram` — the 8K-element, 2K-bin histogram of Figure 6 on the
//!   executor path (AG startup, kernel occupancy, DRAM stalls);
//! * `spmv` — the EBE sparse matrix-vector product on a generated mesh.
//!
//! The simulated results are byte-identical between the `ff_on` and
//! `ff_off` variants (the `fast_forward_is_byte_identical` tests assert
//! it); only wall-clock time may differ. Compare medians to see what the
//! event-horizon scheduler buys on each shape. The `hotloop` *binary*
//! measures the same thing plus Figure 10's software scatter-add program
//! and a memory-stall-dominated rig sweep, and records
//! `BENCH_hotloop.json` for CI.

use criterion::{criterion_group, criterion_main, Criterion};
use sa_apps::histogram::{run_hw, HistogramInput};
use sa_apps::mesh::Mesh;
use sa_apps::spmv::run_ebe_hw;
use sa_sim::MachineConfig;

fn hotloop(c: &mut Criterion) {
    let cfg = MachineConfig::merrimac();
    let hist = HistogramInput::uniform(8192, 2048, 0xF16_0006 + 8192);
    let mesh = Mesh::generate(200, 20, 1040, 14);
    let x = mesh.test_vector(15);
    let mut group = c.benchmark_group("hotloop");
    for (tag, ff) in [("ff_on", true), ("ff_off", false)] {
        sa_sim::set_fast_forward_default(ff);
        group.bench_function(format!("histogram_{tag}"), |b| {
            b.iter(|| run_hw(&cfg, &hist).report.cycles)
        });
        group.bench_function(format!("spmv_{tag}"), |b| {
            b.iter(|| run_ebe_hw(&cfg, &mesh, &x).report.cycles)
        });
    }
    sa_sim::set_fast_forward_default(true);
    group.finish();
}

criterion_group!(benches, hotloop);
criterion_main!(benches);
