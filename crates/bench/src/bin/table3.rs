//! Regenerates the paper's **Table 3**: slow profiling instrumentation
//! on the SuperSPARC.
//!
//! This is `eel experiment --machine supersparc` under the [`TABLE3`]
//! preset; it takes the shared flags of
//! [`eel_bench::experiment::USAGE`] (printed by `eel help`).

use std::process::ExitCode;

use eel_bench::experiment::{main as experiment_main, TABLE3};

fn main() -> ExitCode {
    experiment_main(&TABLE3)
}
