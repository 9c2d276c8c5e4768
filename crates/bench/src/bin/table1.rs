//! Regenerates the paper's **Table 1**: slow profiling instrumentation
//! on the UltraSPARC, scheduled without first rescheduling the
//! original instructions.
//!
//! This is `eel experiment` under the [`TABLE1`] preset; it takes the
//! shared flags of [`eel_bench::experiment::USAGE`] (printed by `eel help`).

use std::process::ExitCode;

use eel_bench::experiment::{main as experiment_main, TABLE1};

fn main() -> ExitCode {
    experiment_main(&TABLE1)
}
