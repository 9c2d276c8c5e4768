//! Per-benchmark optimality gap: the branch-and-bound oracle
//! (`eel_core::exact`) vs the paper's list scheduler, over every
//! instrumented block.
//!
//! By default this runs the golden pair (130.li, 104.hydro2d) — the
//! same deterministic subset the golden-table tests pin — on the
//! UltraSPARC and the hyperSPARC (the deep pipeline where the greedy
//! gap actually shows), which is what `results/gap_report.txt`
//! publishes. Flags: `--machine M` restricts to one machine, `--full`
//! sweeps the whole SPEC95 suite, `--jobs N` sets the worker count
//! (default `$EEL_JOBS`, then all cores), `--quick` shrinks workload
//! iteration counts, `--budget N` caps search nodes per block
//! (default 65536).

use eel_bench::cli::{machine, parse_env};
use eel_bench::gap::{format_gap_report, gap_table};
use eel_core::DEFAULT_EXACT_BUDGET;
use eel_pipeline::MachineModel;
use eel_workloads::{cfp95, cint95, spec95, Benchmark};

fn golden_pair() -> Vec<Benchmark> {
    vec![cint95()[4].clone(), cfp95()[3].clone()]
}

fn main() {
    let (models, full, quick, budget, jobs) = parse_env("gap_report", |args| {
        let models = match args.value("--machine")? {
            Some(name) => vec![machine(&name)?],
            None => vec![MachineModel::ultrasparc(), MachineModel::hypersparc()],
        };
        Ok((
            models,
            args.flag("--full"),
            args.flag("--quick"),
            args.parsed::<u32>("--budget")?,
            args.jobs()?,
        ))
    });
    let iterations = quick.then_some(40);
    let budget = budget.unwrap_or(DEFAULT_EXACT_BUDGET);
    let benchmarks = if full { spec95() } else { golden_pair() };
    let scope = if full { "SPEC95" } else { "golden subset" };
    let mut nodes = 0u64;
    for (k, model) in models.iter().enumerate() {
        let rows = gap_table(model, &benchmarks, iterations, budget, jobs);
        if k > 0 {
            println!();
        }
        print!(
            "{}",
            format_gap_report(
                &format!(
                    "Optimality gap ({scope}): exact oracle vs the list scheduler on the {}",
                    model.name()
                ),
                &rows,
            )
        );
        nodes += rows.iter().map(|r| r.nodes).sum::<u64>();
    }
    eprintln!("oracle: {nodes} search nodes, budget {budget} per block");
}
