//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation (§4.2) on the simulated machines.
//!
//! Binaries (run with `cargo run -p eel-bench --release --bin <name>`):
//!
//! * `table1` — slow profiling on the UltraSPARC (paper Table 1);
//! * `table2` — same with originals first rescheduled (Table 2);
//! * `table3` — slow profiling on the SuperSPARC (Table 3);
//! * `summary` — the abstract's cross-machine headline averages;
//! * `figure2` — the Figure 2 hyperSPARC timing walkthrough;
//! * `cache_effect` — the §4.1 Lebeck–Wood I-cache growth model;
//! * `blocksizes` — workload calibration vs the paper's `Avg. BB Size`;
//! * `ablations` — design-choice ablations from DESIGN.md §5;
//! * `gap_report` — the branch-and-bound oracle's per-benchmark
//!   optimality gap over the list scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod diskcache;
pub mod engine;
pub mod experiment;
pub mod gap;
pub mod report;
pub mod shard;
