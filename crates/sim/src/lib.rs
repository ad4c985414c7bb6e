//! The assembled PPF simulator.
//!
//! Wires the out-of-order core (`ppf-cpu`), the two-level memory hierarchy
//! (`ppf-mem`), the hardware prefetchers (`ppf-prefetch`) and the pollution
//! filter (`ppf-filter`) into the machine of Figure 3 of the paper, driven
//! by a workload instruction stream (`ppf-workloads`).
//!
//! * [`simulator::Simulator`] — one machine instance; `run(n)` executes `n`
//!   instructions and produces a [`report::SimReport`].
//! * [`experiments`] — named experiment grids for every figure/table of the
//!   paper, and a thread-parallel sweep runner (each grid cell is an
//!   independent pure function of its config and seed).
//! * [`report`] — the run report plus text-table helpers shared by the
//!   `figures` and `bench` binaries.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod schedule;
pub mod simulator;

pub use experiments::{
    fanned_seed, run_grid, run_grid_outcomes, CellFailure, CellOutcome, RunSpec, TelemetrySpec,
};
pub use report::SimReport;
pub use schedule::CostModel;
pub use simulator::{FilterTapEvent, KernelMode, Simulator, WatchdogConfig};
