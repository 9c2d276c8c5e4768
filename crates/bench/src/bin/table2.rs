//! Regenerates the paper's **Table 2**: slow profiling on the
//! UltraSPARC with the original instructions *first rescheduled by
//! EEL*, factoring out the effect of EEL's scheduler on already
//! optimized code.
//!
//! This is `eel experiment --reschedule` under the [`TABLE2`] preset;
//! it takes the shared flags of [`eel_bench::experiment::USAGE`]
//! (printed by `eel help`). The `Uninst` and `Sched` cells are shared with
//! `table1` through the artifact cache — after a `table1` run only the
//! rescheduled baselines and their instrumented runs are simulated.

use std::process::ExitCode;

use eel_bench::experiment::{main as experiment_main, TABLE2};

fn main() -> ExitCode {
    experiment_main(&TABLE2)
}
