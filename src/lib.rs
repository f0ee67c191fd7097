//! # batsched
//!
//! A complete Rust implementation of *"An Iterative Algorithm for
//! Battery-Aware Task Scheduling on Portable Computing Platforms"*
//! (Jawad Khan & Ranga Vemuri, DATE 2005), together with every substrate
//! the paper depends on:
//!
//! * [`battery`] — the Rakhmatov–Vrudhula analytical battery model (the
//!   paper's eq. 1) plus coulomb-counting, Peukert and KiBaM references;
//! * [`taskgraph`] — DAG workloads with per-task design points, the paper's
//!   G2/G3 instances and five synthetic-graph generators;
//! * [`core`] — the iterative sequencing + design-point-assignment
//!   heuristic itself (`BatteryAwareSQNDPAllocation`);
//! * [`baselines`] — the Rakhmatov DP comparison of the paper's Table 4,
//!   Chowdhury scaling, exhaustive optimum, simulated annealing;
//! * [`sim`] — discrete-event execution with DVS/FPGA switch overheads and
//!   battery depletion events;
//! * [`service`] — the concurrent batch-scheduling daemon: canonical wire
//!   format, worker pool with reusable solver state, LRU result cache,
//!   JSONL and HTTP frontends (see `docs/SERVICE.md`).
//!
//! ## Quick start
//!
//! ```
//! use batsched::prelude::*;
//!
//! // The paper's robotic-arm case study (9 tasks, 4 design points each).
//! let graph = batsched::taskgraph::paper::g2();
//!
//! // Sequence the tasks and pick a design point for each so the 75-minute
//! // deadline holds and battery charge is minimised.
//! let solution = schedule(&graph, Minutes::new(75.0), &SchedulerConfig::paper())?;
//!
//! assert!(solution.makespan.value() <= 75.0);
//! println!("σ = {:.0}, plan: {}", solution.cost.value(), solution.schedule.display(&graph));
//! # Ok::<(), batsched::SchedulerError>(())
//! ```
//!
//! The reproduction harness (`cargo run -p batsched-bench --bin
//! repro_table4` and friends) regenerates every table and figure of the
//! paper and prints the published numbers next to ours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use batsched_baselines as baselines;
pub use batsched_battery as battery;
pub use batsched_core as core;
pub use batsched_service as service;
pub use batsched_sim as sim;
pub use batsched_taskgraph as taskgraph;

pub use batsched_core::{
    schedule, FactorMask, InitialWeight, Schedule, SchedulerConfig, SchedulerError, Solution,
};

/// One-stop import for applications.
pub mod prelude {
    pub use batsched_baselines::Scheduler;
    pub use batsched_battery::prelude::*;
    pub use batsched_core::prelude::*;
    pub use batsched_taskgraph::prelude::*;
}
