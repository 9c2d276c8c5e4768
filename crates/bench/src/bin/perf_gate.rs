//! The performance-regression gate: runs the golden workload subset
//! hermetically, distills a run report, and compares it against the
//! checked-in baseline at `crates/bench/baselines/perf_gate.json`.
//!
//! Deterministic work counters (simulator invocations, retired
//! instructions, simulated cycles, stall queries, …) must match the
//! baseline **exactly** — any drift means the measurement pipeline
//! changed and the baseline must be refreshed deliberately. Wall-time
//! metrics may regress up to the tolerance (default 15%, `--tolerance`
//! or `$PERF_GATE_TOLERANCE` to override; CI uses a generous value
//! because runner speed varies, so the counters are the hard gate).
//!
//! ```text
//! cargo run --release -p eel-bench --bin perf_gate                  # gate
//! cargo run --release -p eel-bench --bin perf_gate -- --update-baseline
//! ```
//!
//! Flags: `--baseline PATH`, `--report PATH` (also write the fresh
//! report there), `--tolerance PCT`, `--jobs N`. Exits 0 on pass, 1 on
//! regression, 2 on a usage or baseline-file problem (missing, wrong
//! version, corrupt) — always with a diagnostic, never a panic.

use std::path::PathBuf;
use std::process::ExitCode;

use eel_bench::cli::parse_env;
use eel_bench::engine::Engine;
use eel_bench::experiment::ExperimentConfig;
use eel_bench::report::{gate, workspace_root};
use eel_pipeline::MachineModel;
use eel_telemetry::{ReportError, RunReport};
use eel_workloads::{cfp95, cint95, Benchmark};

/// The same two benchmarks the golden-table tests pin: the smallest
/// deterministic CINT and CFP workloads.
fn golden_benchmarks() -> Vec<Benchmark> {
    vec![cint95()[4].clone(), cfp95()[3].clone()]
}

fn default_baseline_path() -> PathBuf {
    workspace_root().join("crates/bench/baselines/perf_gate.json")
}

struct Args {
    update_baseline: bool,
    baseline: PathBuf,
    report: Option<PathBuf>,
    tolerance: f64,
    jobs: usize,
}

fn parse_args() -> Args {
    parse_env("perf_gate", |args| {
        let env_tolerance = std::env::var("PERF_GATE_TOLERANCE")
            .ok()
            .and_then(|v| v.trim().parse().ok());
        Ok(Args {
            update_baseline: args.flag("--update-baseline"),
            baseline: args
                .value("--baseline")?
                .map_or_else(default_baseline_path, PathBuf::from),
            report: args.value("--report")?.map(PathBuf::from),
            tolerance: args
                .parsed("--tolerance")?
                .or(env_tolerance)
                .unwrap_or(15.0),
            jobs: args.jobs()?,
        })
    })
}

fn fresh_report(jobs: usize) -> RunReport {
    // `Engine::new` — no disk cache, exactly like the golden-table
    // tests, so a stale artifact cache can never mask a regression.
    let model = MachineModel::ultrasparc();
    let engine = Engine::new(&model, &ExperimentConfig::default());
    let rows = engine.run_table(&golden_benchmarks(), false, jobs);
    eprintln!("measured {} golden rows ({})", rows.len(), model.name());
    engine.run_report("perf_gate", &[("jobs", jobs.to_string())])
}

fn load_baseline(path: &PathBuf) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read baseline {}: {e}\n(create one with --update-baseline)",
            path.display()
        )
    })?;
    RunReport::from_json(&text).map_err(|e| match e {
        ReportError::Version(v) => format!(
            "baseline {} is report version {v}, which this build cannot read; \
             regenerate it with --update-baseline",
            path.display()
        ),
        other => format!("baseline {} is not usable: {other}", path.display()),
    })
}

fn main() -> ExitCode {
    let args = parse_args();

    // Validate the baseline before spending minutes measuring.
    let baseline = if args.update_baseline {
        None
    } else {
        match load_baseline(&args.baseline) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("perf_gate: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let fresh = fresh_report(args.jobs);
    if let Some(path) = &args.report {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(path, fresh.to_json()) {
            Ok(()) => eprintln!("fresh report: {}", path.display()),
            Err(e) => {
                eprintln!("perf_gate: cannot write report {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    if args.update_baseline {
        if let Some(parent) = args.baseline.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        return match std::fs::write(&args.baseline, fresh.to_json()) {
            Ok(()) => {
                println!("baseline updated: {}", args.baseline.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!(
                    "perf_gate: cannot write baseline {}: {e}",
                    args.baseline.display()
                );
                ExitCode::from(2)
            }
        };
    }

    let baseline = baseline.expect("loaded unless --update-baseline");
    let outcome = gate(&baseline, &fresh, args.tolerance);
    print!("{}", outcome.render());
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
