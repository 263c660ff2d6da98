//! Figure 11: histogram runtime sensitivity to combining-store size and
//! varying memory/FU latencies on the simplified memory system (§4.4).
//!
//! 512 elements over 65,536 bins; memory throughput fixed at one word every
//! two cycles. For each combining-store size (2–64): four bars of memory
//! latency 8–256 at FU latency 4, then three bars of FU latency 2/8/16 at
//! memory latency 16.
//!
//! Expected shape (paper): with ≥16 entries performance no longer depends on
//! FU latency and barely on memory latency; 64 entries hide even 256 cycles.

use sa_bench::telemetry::BenchRun;
use sa_bench::{header, sweep, us};
use sa_core::SensitivityRig;
use sa_sim::{MachineConfig, Rng64, SensitivityConfig};

const CS_SIZES: [usize; 5] = [2, 4, 8, 16, 64];
const MEM_LATENCIES: [u32; 4] = [8, 16, 64, 256];
const FU_LATENCIES: [u32; 3] = [2, 8, 16];

fn main() {
    let mut bench = BenchRun::from_env("fig11", &MachineConfig::merrimac());
    let n = 512;
    let range = 65_536u64;
    let mut rng = Rng64::new(0xF16_0011);
    let indices: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
    header(
        "Figure 11",
        "Sensitivity rig: 512 elements, 65,536 bins, memory interval 2 cycles",
    );
    // Seven bars per combining-store size: four memory latencies at FU
    // latency 4, then three FU latencies at memory latency 16. Flatten the
    // whole grid and sweep it in parallel; results come back in configuration
    // order.
    let configs: Vec<SensitivityConfig> = CS_SIZES
        .iter()
        .flat_map(|&cs| {
            let mem = MEM_LATENCIES
                .iter()
                .map(move |&mem_latency| SensitivityConfig {
                    cs_entries: cs,
                    fu_latency: 4,
                    mem_latency,
                    mem_interval: 2,
                });
            let fu = FU_LATENCIES
                .iter()
                .map(move |&fu_latency| SensitivityConfig {
                    cs_entries: cs,
                    fu_latency,
                    mem_latency: 16,
                    mem_interval: 2,
                });
            mem.chain(fu)
        })
        .collect();
    let results = sweep::map(configs, |c| {
        SensitivityRig::new(c).run_histogram(&indices, range)
    });

    let per_cs = MEM_LATENCIES.len() + FU_LATENCIES.len();
    for (row_idx, &cs) in CS_SIZES.iter().enumerate() {
        let mut cells = Vec::new();
        let row = &results[row_idx * per_cs..(row_idx + 1) * per_cs];
        for (r, &mem_latency) in row.iter().zip(&MEM_LATENCIES) {
            r.record_metrics(&mut bench.scope(&format!("rig.cs{cs}.mem{mem_latency}")));
            cells.push((
                match mem_latency {
                    8 => "DRAM8",
                    16 => "DRAM16",
                    64 => "DRAM64",
                    _ => "DRAM256",
                },
                us(r.micros()),
            ));
        }
        for (r, &fu_latency) in row[MEM_LATENCIES.len()..].iter().zip(&FU_LATENCIES) {
            r.record_metrics(&mut bench.scope(&format!("rig.cs{cs}.fu{fu_latency}")));
            cells.push((
                match fu_latency {
                    2 => "FU2",
                    8 => "FU8",
                    _ => "FU16",
                },
                us(r.micros()),
            ));
        }
        let cells_ref: Vec<(&str, String)> = cells;
        bench.row(format!("CS entries={cs}"), &cells_ref);
    }
    println!(
        "\npaper: 16 entries make performance independent of FU latency and nearly \
         independent of memory latency; 64 entries tolerate 256-cycle memory"
    );
    bench.finish();
}
