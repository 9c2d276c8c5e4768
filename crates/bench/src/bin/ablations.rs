//! Ablations of the design choices DESIGN.md §5 calls out, measured on
//! the UltraSPARC with the Table 1 protocol over a representative
//! subset of benchmarks:
//!
//! * `memdep` — disable the instrumentation-memory independence rule
//!   (§4's "option to limit the movement of instrumentation code");
//! * `delayslot` — enable delay-slot filling (an extension the paper's
//!   scheduler lacks);
//! * `priority` — chain-length-first tie-breaking instead of the
//!   paper's stalls-first priority;
//! * `mismatch` — schedule with the hyperSPARC model while measuring
//!   on the UltraSPARC (gross model mismatch).
//!
//! Followed by the policy × machine sweep: every [`Priority`] policy
//! on every shipped machine over the golden benchmark pair, emitted
//! both as a table and as machine-readable `sweep,MACHINE,POLICY,PCT`
//! lines.
//!
//! Flags: `--jobs N` for the per-configuration worker count;
//! `--iterations N` to shrink the workloads (CI smoke); `--sweep-only`
//! to skip the classic configurations and run just the sweep. The
//! baseline configuration's cells are shared with `table1` through the
//! artifact cache.

use eel_bench::cli::parse_env;
use eel_bench::engine::Engine;
use eel_bench::experiment::{mean_pct_hidden, ExperimentConfig, Row};
use eel_core::{Priority, SchedOptions};
use eel_pipeline::MachineModel;
use eel_workloads::{spec95, Benchmark};

fn subset() -> Vec<Benchmark> {
    let names = [
        "099.go",
        "130.li",
        "132.ijpeg",
        "101.tomcatv",
        "104.hydro2d",
        "102.swim",
    ];
    spec95()
        .into_iter()
        .filter(|b| names.contains(&b.name))
        .collect()
}

/// The golden pair (smallest CINT + smallest CFP): big enough to rank
/// policies, small enough that 6 machines × 4 policies stays cheap.
fn sweep_benchmarks() -> Vec<Benchmark> {
    spec95()
        .into_iter()
        .filter(|b| ["130.li", "104.hydro2d"].contains(&b.name))
        .collect()
}

fn run_with(
    cfg: &ExperimentConfig,
    model: &MachineModel,
    benchmarks: &[Benchmark],
    jobs: usize,
) -> (Vec<Row>, Engine) {
    let engine = Engine::new(model, cfg).with_default_disk_cache();
    let rows = engine.run_table(benchmarks, false, jobs);
    (rows, engine)
}

fn main() {
    let (jobs, sweep_only, iterations) = parse_env("ablations", |args| {
        Ok((
            args.jobs()?,
            args.flag("--sweep-only"),
            args.parsed::<u32>("--iterations")?,
        ))
    });
    let model = MachineModel::ultrasparc();
    let base_cfg = ExperimentConfig {
        iterations,
        ..ExperimentConfig::default()
    };
    let mut engines = Vec::new();

    if !sweep_only {
        let (base, e) = run_with(&base_cfg, &model, &subset(), jobs);
        engines.push(e);
        println!("{:<28} {:>8}", "configuration", "%hidden");
        println!(
            "{:<28} {:>7.1}%",
            "baseline (paper's options)",
            mean_pct_hidden(&base)
        );

        let mut memdep = base_cfg.clone();
        memdep.sched = SchedOptions {
            instr_mem_independent: false,
            ..SchedOptions::default()
        };
        let (rows, e) = run_with(&memdep, &model, &subset(), jobs);
        engines.push(e);
        println!(
            "{:<28} {:>7.1}%",
            "memdep: fully conservative",
            mean_pct_hidden(&rows)
        );

        let mut slots = base_cfg.clone();
        slots.sched = SchedOptions {
            fill_delay_slots: true,
            ..SchedOptions::default()
        };
        let (rows, e) = run_with(&slots, &model, &subset(), jobs);
        engines.push(e);
        println!(
            "{:<28} {:>7.1}%",
            "delayslot: filling on",
            mean_pct_hidden(&rows)
        );

        let mut prio = base_cfg.clone();
        prio.sched = SchedOptions {
            priority: Priority::ChainFirst,
            ..SchedOptions::default()
        };
        let (rows, e) = run_with(&prio, &model, &subset(), jobs);
        engines.push(e);
        println!(
            "{:<28} {:>7.1}%",
            "priority: chain-first",
            mean_pct_hidden(&rows)
        );

        let mut mismatch = base_cfg.clone();
        mismatch.scheduler_model = Some(MachineModel::hypersparc());
        let (rows, e) = run_with(&mismatch, &model, &subset(), jobs);
        engines.push(e);
        println!(
            "{:<28} {:>7.1}%",
            "mismatch: hyperSPARC model",
            mean_pct_hidden(&rows)
        );

        println!();
        println!("Per-benchmark baseline detail:");
        for r in &base {
            println!("  {:<14} {:>6.1}%", r.name, r.pct_hidden());
        }
        println!();
    }

    // Policy × machine sweep over the golden pair. Every (machine,
    // policy) pair gets its own engine — and, through the SchedOptions
    // in the cell key, its own cached artifacts.
    let policies = Priority::ALL;
    println!("Policy x machine sweep (mean %hidden, 130.li + 104.hydro2d):");
    print!("{:<12}", "machine");
    for p in policies {
        print!(" {:>12}", p.to_string());
    }
    println!();
    let mut lines = Vec::new();
    for machine in MachineModel::shipped() {
        print!("{:<12}", machine.name());
        for priority in policies {
            let mut cfg = base_cfg.clone();
            cfg.sched = SchedOptions {
                priority,
                ..SchedOptions::default()
            };
            let (rows, e) = run_with(&cfg, &machine, &sweep_benchmarks(), jobs);
            engines.push(e);
            let pct = mean_pct_hidden(&rows);
            print!(" {:>11.1}%", pct);
            lines.push(format!("sweep,{},{priority},{pct:.1}", machine.name()));
        }
        println!();
    }
    println!();
    for l in &lines {
        println!("{l}");
    }

    let sims: u64 = engines.iter().map(|e| e.stats().sims()).sum();
    let hits: u64 = engines
        .iter()
        .map(|e| e.stats().mem_hits() + e.stats().disk_hits())
        .sum();
    eprintln!(
        "ablations: {sims} simulator invocations, {hits} cache hits across {} configurations",
        engines.len()
    );
}
