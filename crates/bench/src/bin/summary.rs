//! The abstract's headline numbers: averaged across the two
//! superscalar SPARCs, the scheduler hides ~13 % of the profiling
//! overhead on SPECINT and ~33 % on SPECFP.
//!
//! Flags: `--jobs N` for the worker count. These are exactly the
//! Table 1 and Table 3 measurements, so with a warm artifact cache
//! this binary simulates nothing.

use eel_bench::cli::parse_env;
use eel_bench::engine::Engine;
use eel_bench::experiment::{mean_pct_hidden, ExperimentConfig, Row};
use eel_bench::report::publish_engine_report;
use eel_pipeline::MachineModel;
use eel_workloads::{spec95, Suite};

fn main() {
    let jobs = parse_env("summary", |args| args.jobs());
    let cfg = ExperimentConfig::default();
    let benchmarks = spec95();
    let mut int_avgs = Vec::new();
    let mut fp_avgs = Vec::new();
    let mut stats = Vec::new();

    for model in [MachineModel::ultrasparc(), MachineModel::supersparc()] {
        let engine = Engine::new(&model, &cfg).with_default_disk_cache();
        let rows = engine.run_table(&benchmarks, false, jobs);
        let int: Vec<&Row> = rows.iter().filter(|r| r.suite == Suite::Cint).collect();
        let fp: Vec<&Row> = rows.iter().filter(|r| r.suite == Suite::Cfp).collect();
        let (i, f) = (mean_pct_hidden(&int), mean_pct_hidden(&fp));
        println!(
            "{:<12} SPECINT hidden: {i:5.1}%   SPECFP hidden: {f:5.1}%",
            model.name()
        );
        int_avgs.push(i);
        fp_avgs.push(f);
        stats.push(format!("{}: {}", model.name(), engine.stats().report()));
        let label = format!("summary_{}", model.name().to_lowercase());
        publish_engine_report(&engine.run_report(&label, &[("jobs", jobs.to_string())]));
    }
    let int = int_avgs.iter().sum::<f64>() / int_avgs.len() as f64;
    let fp = fp_avgs.iter().sum::<f64>() / fp_avgs.len() as f64;
    println!();
    println!("Across both machines (paper's abstract: 13% / 33%):");
    println!("  SPECINT average hidden: {int:5.1}%");
    println!("  SPECFP  average hidden: {fp:5.1}%");
    for s in stats {
        eprintln!("{s}");
    }
}
