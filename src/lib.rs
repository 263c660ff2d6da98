//! Reproduction of "Scatter-Add in Data Parallel Architectures" (HPCA 2005).
//!
//! The front door is the [`Session`] builder: name a workload, optionally a
//! machine configuration, a fault plan, and telemetry knobs, then `run()`:
//!
//! ```
//! use scatter_add_repro::{Session, Workload};
//!
//! let report = Session::builder()
//!     .workload(Workload::Histogram {
//!         base_word: 0,
//!         indices: vec![3, 1, 3],
//!     })
//!     .build()?
//!     .run();
//! assert_eq!(report.result, [0, 1, 0, 2]);
//! # Ok::<(), String>(())
//! ```
//!
//! A session is also nameable as data: [`SessionSpec`] is the versioned
//! JSON wire form of everything a builder chain expresses — the job
//! description the CLI (`--spec FILE`) and the result-cache fingerprint
//! share (see `docs/SPEC.md`).
//!
//! Everything underneath remains public through the `sa-*` crates (and the
//! re-exports below) for callers that need a specific layer: `sa-sim` for
//! configs and clocks, `sa-core` for the single-node machine, `sa-multinode`
//! for the distributed fabric, `sa-faults` for fault plans, `sa-telemetry`
//! for stats export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod session;
pub mod spec;

pub use sa_core::{scatter_reference, NodeStats, RunResult, ScatterKernel};
pub use sa_faults::{FaultPlan, ResilienceStats};
pub use sa_memo::{Fingerprint, ResultCache};
pub use sa_multinode::Topology;
pub use sa_sim::{MachineConfig, NetworkConfig};
pub use session::{Session, SessionBuilder, SessionReport, Telemetry, Workload};
pub use spec::{ExecSpec, SessionSpec, SPEC_SCHEMA_NAME, SPEC_SCHEMA_VERSION};

#[cfg(test)]
mod tests {
    use super::*;

    // The deprecated `drive_scatter`/`run_trace` free functions are gone;
    // the layer they wrapped stays reachable through the `sa-*` crates, and
    // this pins the equivalence the old wrapper test asserted: driving the
    // core crate directly agrees with the `Session` front door.
    #[test]
    fn core_driver_agrees_with_the_session_api() {
        let indices: Vec<u64> = (0..256u64).map(|i| (i * 11) % 64).collect();
        let kernel = ScatterKernel::histogram(0, indices.clone());
        let old = sa_core::drive_scatter(&MachineConfig::merrimac(), &kernel, false);
        let new = Session::builder()
            .workload(Workload::Histogram {
                base_word: 0,
                indices,
            })
            .build()
            .expect("valid")
            .run();
        assert_eq!(old.cycles, new.cycles);
        assert_eq!(vec![old.stats], new.node_stats);
    }
}
