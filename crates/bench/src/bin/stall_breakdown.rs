//! Per-benchmark aggregate stall attribution on the UltraSPARC — the
//! observability companion to Tables 1–3: for the instrumented
//! executable before and after EEL scheduling, where do the stall
//! cycles go (structural vs. RAW vs. WAR/WAW), and which units are
//! contended?
//!
//! Flags: `--jobs N` for the worker count (default `$EEL_JOBS`, then
//! all cores), `--quick` to shrink workload iteration counts for a
//! fast smoke run. Attribution runs are never cached (profiles are
//! not cells), so this binary always simulates.

use eel_bench::cli::parse_env;
use eel_bench::engine::{Attribution, Engine};
use eel_bench::experiment::ExperimentConfig;
use eel_pipeline::MachineModel;
use eel_workloads::spec95;

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    100.0 * part as f64 / whole as f64
}

fn report(model: &MachineModel, attrs: &[Attribution]) {
    println!("Stall attribution: slow profiling on the {}", model.name());
    println!(
        "{:<14} {:>5} {:>10} {:>7} {:>7} {:>9}  top contended units",
        "Benchmark", "run", "stalls", "%struct", "%raw", "%war+waw"
    );
    for a in attrs {
        for (run, profile) in [("inst", &a.inst), ("sched", &a.sched)] {
            let total = profile.total();
            let units: Vec<String> = profile
                .top_units(5)
                .iter()
                .map(|&(u, c)| {
                    let name = model.desc().unit_name(u).unwrap_or("?");
                    format!("{name} {:.1}%", pct(c, total.max(1)))
                })
                .collect();
            println!(
                "{:<14} {:>5} {:>10} {:>6.1}% {:>6.1}% {:>8.1}%  {}",
                if run == "inst" { a.name } else { "" },
                run,
                total,
                pct(profile.structural_total(), total),
                pct(profile.raw_total(), total),
                pct(profile.war_total() + profile.waw_total(), total),
                units.join(", "),
            );
        }
    }
}

fn main() {
    let (jobs, quick) = parse_env("stall_breakdown", |args| {
        Ok((args.jobs()?, args.flag("--quick")))
    });
    let model = MachineModel::ultrasparc();
    let cfg = ExperimentConfig {
        iterations: quick.then_some(40),
        ..ExperimentConfig::default()
    };
    let engine = Engine::new(&model, &cfg);
    let attrs = engine.attribute_table(&spec95(), jobs);
    report(&model, &attrs);
    eprintln!("{}", engine.stats().report());
}
