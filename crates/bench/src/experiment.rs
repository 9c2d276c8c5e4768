//! The end-to-end experiment pipeline behind every table in §4.2.
//!
//! For each benchmark and machine:
//!
//! 1. build the "compiled" executable (block bodies scheduled for the
//!    target machine, like Sun's `-xO4 -xchip=…`);
//! 2. measure it uninstrumented on the timing simulator;
//! 3. add QPT2 slow profiling and measure it *unscheduled*;
//! 4. re-edit with the EEL scheduler transforming every block
//!    (instrumentation + original together) and measure again;
//! 5. report `% hidden = (inst − sched) / (inst − uninst)`.
//!
//! Table 2 repeats the measurement after first letting EEL reschedule
//! the original instructions without instrumentation (factoring out
//! EEL-induced de-scheduling of already-optimized code).
//!
//! [`ExperimentRequest::run`] is the one entry point every front end
//! drives this protocol through: `eel experiment` and the
//! `table1`/`table2`/`table3` binaries parse the same flags ([`USAGE`])
//! into a request and differ only by their [`Preset`].

use std::borrow::Borrow;
use std::process::ExitCode;
use std::sync::Arc;

use eel_core::{Priority, SchedOptions};
use eel_pipeline::MachineModel;
use eel_sim::TimingConfig;
use eel_telemetry::{RunReport, Tracer};
use eel_workloads::{load_corpus, spec95, Benchmark, Suite};

use crate::cli::{self, err, Args, CliError};
use crate::engine::{jobs_from_env, Engine};
use crate::report::{publish_engine_report, results_dir, write_trace_report_in};
use crate::shard::{ShardRows, ShardSpec};

/// Scaling and model options for one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Override benchmark iteration counts (for quick runs/tests).
    pub iterations: Option<u32>,
    /// Timing realism beyond the scheduler's model.
    pub timing: TimingConfig,
    /// Scheduler options (defaults follow the paper).
    pub sched: SchedOptions,
    /// Extra average load latency of the *measured machine* (memory
    /// interface and cache effects the SADL descriptions omit, §3.2).
    /// The workload "compiler" schedules for the biased machine; EEL
    /// schedules with the nominal description — the paper's
    /// model-vs-machine gap.
    pub mem_bias: u32,
    /// The model EEL's scheduler consults; `None` uses the measured
    /// machine's nominal description. Setting a *different* machine is
    /// the gross model-mismatch ablation.
    pub scheduler_model: Option<MachineModel>,
    /// Override the simulator's retired-instruction budget
    /// (`RunConfig::max_instructions`); `None` keeps the default.
    /// Lowering it forces the instruction-limit fault path — the
    /// flight-recorder tests drive engine failures through this.
    pub max_instructions: Option<u64>,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            iterations: None,
            // The measured machine redirects fetch on taken branches —
            // a real-machine effect the scheduler's model omits, like
            // the paper's.
            timing: TimingConfig {
                taken_branch_penalty: 1,
                ..TimingConfig::default()
            },
            sched: SchedOptions::default(),
            mem_bias: 2,
            scheduler_model: None,
            max_instructions: None,
        }
    }
}

/// One row of a results table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// CINT or CFP.
    pub suite: Suite,
    /// Measured dynamic average basic-block size (instructions).
    pub avg_bb: f64,
    /// Uninstrumented cycles (after the Table-2 reschedule pass, when
    /// enabled).
    pub uninst_cycles: u64,
    /// Ratio of the rescheduled-uninstrumented time to the original
    /// uninstrumented time (Table 2's parenthesized Uninst column);
    /// 1.0 when rescheduling is off.
    pub resched_ratio: f64,
    /// Instrumented, unscheduled cycles.
    pub inst_cycles: u64,
    /// Instrumented, scheduled cycles.
    pub sched_cycles: u64,
}

impl Row {
    /// Instrumented-to-uninstrumented slowdown (the paper's
    /// parenthesized ratio).
    pub fn inst_ratio(&self) -> f64 {
        self.inst_cycles as f64 / self.uninst_cycles as f64
    }

    /// Scheduled-to-uninstrumented slowdown.
    pub fn sched_ratio(&self) -> f64 {
        self.sched_cycles as f64 / self.uninst_cycles as f64
    }

    /// The fraction of instrumentation overhead hidden by scheduling,
    /// in percent. Can exceed 100 % or go negative, as in the paper.
    pub fn pct_hidden(&self) -> f64 {
        let overhead = self.inst_cycles as f64 - self.uninst_cycles as f64;
        if overhead <= 0.0 {
            return 0.0;
        }
        100.0 * (self.inst_cycles as f64 - self.sched_cycles as f64) / overhead
    }
}

/// Mean % hidden across a set of rows (the paper's suite averages).
/// Accepts owned or borrowed rows (`&[Row]` or `&[&Row]`).
pub fn mean_pct_hidden<R: Borrow<Row>>(rows: &[R]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.borrow().pct_hidden()).sum::<f64>() / rows.len() as f64
}

/// Geometric-mean slowdown ratio across rows.
pub fn mean_ratio<R: Borrow<Row>>(rows: &[R], f: impl Fn(&Row) -> f64) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = rows.iter().map(|r| f(r.borrow()).ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

/// Runs a whole table: every benchmark in `benchmarks` on `model`,
/// fanned out over `$EEL_JOBS` workers (default: all cores). Row order
/// and contents are independent of the worker count; see
/// [`Engine::run_table`].
pub fn run_table(
    benchmarks: &[Benchmark],
    model: &MachineModel,
    cfg: &ExperimentConfig,
    reschedule_first: bool,
) -> Vec<Row> {
    Engine::new(model, cfg).run_table(benchmarks, reschedule_first, jobs_from_env())
}

/// Formats rows in the paper's table layout.
pub fn format_table(title: &str, model: &MachineModel, rows: &[Row], show_resched: bool) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let clock = model.clock_mhz();
    let secs = |cycles: u64| cycles as f64 / (f64::from(clock) * 1e6);
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>12} {:>18} {:>18} {:>9}",
        "Benchmark", "Avg.BB", "Uninst.", "Inst.", "Sched.", "%Hidden"
    );
    let print_suite = |rows: &[&Row], label: &str, out: &mut String| {
        for &r in rows {
            let uninst = if show_resched {
                format!("{:.3} ({:.2})", secs(r.uninst_cycles), r.resched_ratio)
            } else {
                format!("{:.3}", secs(r.uninst_cycles))
            };
            let _ = writeln!(
                out,
                "{:<14} {:>7.1} {:>12} {:>11.3} ({:>4.2}) {:>11.3} ({:>4.2}) {:>8.1}%",
                r.name,
                r.avg_bb,
                uninst,
                secs(r.inst_cycles),
                r.inst_ratio(),
                secs(r.sched_cycles),
                r.sched_ratio(),
                r.pct_hidden()
            );
        }
        let _ = writeln!(
            out,
            "{label:<14} {:>7} {:>12} {:>18.2} {:>18.2} {:>8.1}%",
            "",
            "",
            mean_ratio(rows, Row::inst_ratio),
            mean_ratio(rows, Row::sched_ratio),
            mean_pct_hidden(rows)
        );
    };
    let cint: Vec<&Row> = rows.iter().filter(|r| r.suite == Suite::Cint).collect();
    let cfp: Vec<&Row> = rows.iter().filter(|r| r.suite == Suite::Cfp).collect();
    if !cint.is_empty() {
        print_suite(&cint, "CINT95 Average", &mut out);
    }
    if !cfp.is_empty() {
        print_suite(&cfp, "CFP95 Average", &mut out);
    }
    out
}

/// Formats rows as CSV (for spreadsheets/plotting), one row per
/// benchmark plus a header.
pub fn format_csv(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::from(concat!(
        "benchmark,suite,avg_bb,uninst_cycles,resched_ratio,",
        "inst_cycles,sched_cycles,inst_ratio,sched_ratio,pct_hidden\n",
    ));
    for r in rows {
        let suite = match r.suite {
            Suite::Cint => "CINT95",
            Suite::Cfp => "CFP95",
        };
        let _ = writeln!(
            out,
            "{},{},{:.2},{},{:.3},{},{},{:.3},{:.3},{:.2}",
            r.name,
            suite,
            r.avg_bb,
            r.uninst_cycles,
            r.resched_ratio,
            r.inst_cycles,
            r.sched_cycles,
            r.inst_ratio(),
            r.sched_ratio(),
            r.pct_hidden()
        );
    }
    out
}

/// The flags every experiment front end reads.
pub const USAGE: &str = "\
experiment flags (`eel experiment` and the table1/table2/table3 binaries):
  --csv                        rows as CSV instead of the paper's table
  --jobs N                     worker threads (default $EEL_JOBS, then all
                               cores)
  --iterations N               override every workload's iteration count
  --benchmark NAME             measure only this benchmark
  --corpus golden|full|FILE    the benchmark set: a built-in name or an
                               eel-corpus-v1 manifest (default golden)
  --no-cache                   skip the on-disk artifact cache (so does
                               EEL_NO_CACHE=1)
  --policy POLICY              the ready-list rule: stalls-first (default),
                               chain-first, load-delay, lookahead[:k], or
                               the exact branch-and-bound oracle
  --exact-budget N             search nodes per block for --policy exact
  --shard I/N                  run only this worker's 1-indexed slice of
                               the corpus over the shared artifact cache
  --rows FILE                  save the slice's rows for `eel merge --rows`
  --report FILE                write the telemetry run report as JSON
  --trace | --trace-out FILE   record a flight-recorder trace to
                               results/TRACE_<hash>.jsonl (or FILE)
`eel experiment` only (each table binary fixes both):
  --machine MACHINE            the measured machine (default ultrasparc)
  --reschedule                 the Table 2 protocol: originals first
                               rescheduled by EEL
A table binary publishes its run report and BENCH_engine.json rows only
for a full run of the default corpus: --benchmark, --corpus, --shard,
--iterations, --policy, or --exact-budget make it a partial run.
";

/// What tells the experiment front ends apart.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// The run label: names the run report and trace, and prefixes the
    /// front end's messages.
    pub label: &'static str,
    /// A table binary's fixed `(machine, Table 2 protocol, title)`;
    /// `None` reads `--machine` and `--reschedule` and derives the
    /// title (`eel experiment`).
    pub table: Option<(&'static str, bool, &'static str)>,
}

/// `eel experiment`: machine and protocol come from the flags.
pub const EXPERIMENT: Preset = Preset {
    label: "experiment",
    table: None,
};

/// The paper's Table 1.
pub const TABLE1: Preset = Preset {
    label: "table1",
    table: Some((
        "ultrasparc",
        false,
        "Table 1: Slow profiling instrumentation on the UltraSPARC",
    )),
};

/// The paper's Table 2.
pub const TABLE2: Preset = Preset {
    label: "table2",
    table: Some((
        "ultrasparc",
        true,
        "Table 2: Slow profiling on the UltraSPARC, originals first rescheduled by EEL",
    )),
};

/// The paper's Table 3.
pub const TABLE3: Preset = Preset {
    label: "table3",
    table: Some((
        "supersparc",
        false,
        "Table 3: Slow profiling instrumentation on the SuperSPARC",
    )),
};

/// One experiment run, as parsed from the [`USAGE`] flags.
#[derive(Debug, Clone)]
pub struct ExperimentRequest {
    preset: Preset,
    /// The machine's name as given (recorded in shard row files).
    machine: String,
    model: MachineModel,
    reschedule: bool,
    /// The table title; a shard run appends its spec when rendering.
    title: String,
    cfg: ExperimentConfig,
    jobs: usize,
    /// Render CSV rows instead of the paper's table.
    pub csv: bool,
    no_cache: bool,
    corpus: Option<String>,
    benchmark: Option<String>,
    shard: ShardSpec,
    rows: Option<String>,
    report: Option<String>,
    /// Record a trace: `Some(None)` into `results/`, `Some(Some(p))`
    /// to `p`.
    trace: Option<Option<String>>,
    /// Whether this is a table binary's full run of the default
    /// corpus, the only kind that publishes to the results trajectory.
    pub publishes: bool,
}

/// What one experiment run produced.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// The rendered table, or CSV rows.
    pub table: String,
    /// The engine's closing stats lines.
    pub stats: String,
    /// One `wrote ...` line per artifact written.
    pub wrote: Vec<String>,
    /// The run's telemetry report.
    pub report: RunReport,
}

impl ExperimentRequest {
    /// Parses the [`USAGE`] flags under `preset`, consuming `args`.
    ///
    /// # Errors
    ///
    /// Malformed or unknown flags, including `--machine` and
    /// `--reschedule` under a table preset.
    pub fn parse(preset: &Preset, mut args: Args) -> Result<ExperimentRequest, CliError> {
        let (machine, reschedule) = match preset.table {
            Some((machine, reschedule, _)) => (machine.to_string(), reschedule),
            None => (
                args.value("--machine")?
                    .unwrap_or_else(|| "ultrasparc".into()),
                args.flag("--reschedule"),
            ),
        };
        let model = cli::machine(&machine)?;
        let csv = args.flag("--csv");
        let no_cache = args.flag("--no-cache");
        let jobs = args.jobs()?;
        let iterations = args.parsed::<u32>("--iterations")?;
        let benchmark = args.value("--benchmark")?;
        let report = args.value("--report")?;
        let priority = args
            .value("--policy")?
            .map(|p| cli::policy(&p))
            .transpose()?;
        let exact_budget = args.parsed::<u32>("--exact-budget")?;
        let corpus = args.value("--corpus")?;
        let shard = args
            .value("--shard")?
            .map(|s| s.parse::<ShardSpec>().map_err(|e| err(e.to_string())))
            .transpose()?
            .unwrap_or_else(ShardSpec::full);
        let rows = args.value("--rows")?;
        let trace_flag = args.flag("--trace");
        let trace_out = args.value("--trace-out")?;
        args.finish()?;
        let policy = priority.unwrap_or_default();
        if exact_budget.is_some() && policy != Priority::Exact {
            return Err(err("--exact-budget needs --policy exact"));
        }
        let title = match preset.table {
            Some((_, _, title)) => title.to_string(),
            None => format!(
                "Slow profiling instrumentation on the {}{}",
                model.name(),
                if reschedule {
                    ", originals first rescheduled"
                } else {
                    ""
                }
            ),
        };
        let policy_note = if policy == Priority::StallsFirst {
            String::new()
        } else {
            format!(", {policy} policy")
        };
        let partial = benchmark.is_some()
            || corpus.is_some()
            || !shard.is_full()
            || iterations.is_some()
            || priority.is_some()
            || exact_budget.is_some();
        Ok(ExperimentRequest {
            preset: *preset,
            machine,
            model,
            reschedule,
            title: title + &policy_note,
            cfg: ExperimentConfig {
                iterations,
                sched: SchedOptions {
                    priority: policy,
                    exact_budget: exact_budget.unwrap_or(eel_core::DEFAULT_EXACT_BUDGET),
                    ..SchedOptions::default()
                },
                ..ExperimentConfig::default()
            },
            jobs,
            csv,
            no_cache,
            corpus,
            benchmark,
            shard,
            rows,
            report,
            trace: (trace_flag || trace_out.is_some()).then_some(trace_out),
            publishes: preset.table.is_some() && !partial,
        })
    }

    /// Runs the experiment: loads and filters the corpus, measures this
    /// shard's slice, renders it, and writes the requested artifacts.
    ///
    /// # Errors
    ///
    /// An unreadable corpus, an unknown benchmark, or a failed write.
    pub fn run(&self) -> Result<ExperimentOutput, CliError> {
        let corpus = match &self.corpus {
            Some(spec) => load_corpus(spec).map_err(|e| err(e.to_string()))?,
            None => spec95(),
        };
        let benchmarks: Vec<Benchmark> = corpus
            .into_iter()
            .filter(|b| self.benchmark.as_deref().is_none_or(|f| b.name == f))
            .collect();
        if benchmarks.is_empty() {
            return Err(err(format!(
                "unknown benchmark `{}`",
                self.benchmark.as_deref().unwrap_or("")
            )));
        }
        // This worker's slice: `(full corpus index, benchmark)`. The
        // indices key the merge back into corpus order.
        let indexed = self.shard.filter(&benchmarks);
        let mine: Vec<Benchmark> = indexed.iter().map(|(_, b)| b.clone()).collect();
        let mut engine = Engine::new(&self.model, &self.cfg);
        if !self.no_cache {
            engine = engine.with_default_disk_cache();
        }
        let tracer = self.trace.is_some().then(|| Arc::new(Tracer::new(1 << 16)));
        if let Some(t) = &tracer {
            engine = engine.with_tracer(Arc::clone(t));
            self.shard.trace_ownership(&benchmarks, t);
        }
        let rows = engine.run_table(&mine, self.reschedule, self.jobs);
        let table = if self.csv {
            format_csv(&rows)
        } else if self.shard.is_full() {
            format_table(&self.title, &self.model, &rows, self.reschedule)
        } else {
            let title = format!("{} [shard {}]", self.title, self.shard);
            format_table(&title, &self.model, &rows, self.reschedule)
        };
        let write = |path: &str, body: String| {
            std::fs::write(path, body).map_err(|e| err(format!("{path}: {e}")))
        };
        let mut wrote = Vec::new();
        if let Some(p) = &self.rows {
            let sr = ShardRows {
                title: self.title.clone(),
                machine: self.machine.clone(),
                show_resched: self.reschedule,
                corpus_len: benchmarks.len(),
                shard: self.shard,
                rows: indexed.iter().map(|(i, _)| *i).zip(rows).collect(),
            };
            write(p, sr.to_text())?;
            wrote.push(format!("wrote shard rows {p}"));
        }
        let label = self.preset.label;
        let shard_meta = (!self.shard.is_full()).then(|| ("shard", self.shard.to_string()));
        let mut meta = vec![("jobs", self.jobs.to_string())];
        meta.extend(shard_meta.clone());
        let report = engine.run_report(label, &meta);
        if let Some(p) = &self.report {
            write(p, report.to_json())?;
            wrote.push(format!("wrote run report {p}"));
        }
        if let (Some(t), Some(out)) = (&tracer, &self.trace) {
            let mut meta = vec![
                ("label", label.to_string()),
                ("machine", self.model.name().to_string()),
            ];
            meta.extend(shard_meta);
            let file = t.trace_file(&meta);
            let written = match out {
                Some(p) => {
                    write(p, file.to_jsonl())?;
                    std::path::PathBuf::from(p)
                }
                None => write_trace_report_in(&file, &results_dir())
                    .map_err(|e| err(format!("trace write failed: {e}")))?,
            };
            wrote.push(format!(
                "wrote trace {} ({} events)",
                written.display(),
                file.events.len()
            ));
        }
        Ok(ExperimentOutput {
            table,
            stats: engine.stats().report(),
            wrote,
            report,
        })
    }
}

impl ExperimentOutput {
    /// `eel experiment`'s stdout: the table, the stats, and the
    /// artifact lines.
    pub fn render(&self) -> String {
        let mut out = format!("{}{}\n", self.table, self.stats);
        for line in &self.wrote {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// A table binary's `main`: the table on stdout, the stats and artifact
/// lines on stderr, then publication for a full default run. Exits 2
/// on bad flags and 1 on a failed run.
pub fn main(preset: &Preset) -> ExitCode {
    let label = preset.label;
    let request = match ExperimentRequest::parse(preset, Args::from_env()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{label}: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match request.run() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{label}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if request.csv {
        print!("{}", out.table);
    } else {
        println!("{}", out.table);
    }
    eprintln!("{}", out.stats);
    for line in &out.wrote {
        eprintln!("{label}: {line}");
    }
    if request.publishes {
        publish_engine_report(&out.report);
    } else {
        eprintln!("{label}: partial run, skipping trajectory publication");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_workloads::{cfp95, cint95};

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            iterations: Some(40),
            ..ExperimentConfig::default()
        }
    }

    fn measure(
        bench: &Benchmark,
        model: &MachineModel,
        cfg: &ExperimentConfig,
        reschedule_first: bool,
    ) -> Row {
        Engine::new(model, cfg).measure(bench, reschedule_first)
    }

    #[test]
    fn int_benchmark_pipeline_end_to_end() {
        let model = MachineModel::ultrasparc();
        let row = measure(&cint95()[4], &model, &quick(), false); // 130.li
        assert!(
            row.inst_cycles > row.uninst_cycles,
            "instrumentation costs time"
        );
        assert!(
            row.sched_cycles <= row.inst_cycles,
            "scheduling should not hurt: {} > {}",
            row.sched_cycles,
            row.inst_cycles
        );
        assert!(
            row.inst_ratio() > 1.5,
            "slow profiling is expensive on small blocks"
        );
        let hidden = row.pct_hidden();
        assert!(hidden > 0.0, "some overhead hidden, got {hidden:.1}%");
    }

    #[test]
    fn fp_benchmark_pipeline_end_to_end() {
        let model = MachineModel::supersparc();
        let row = measure(&cfp95()[1], &model, &quick(), false); // 102.swim
        assert!(
            row.inst_ratio() < 1.6,
            "long blocks amortize instrumentation"
        );
        assert!(
            row.avg_bb > 20.0,
            "swim has very long blocks: {:.1}",
            row.avg_bb
        );
    }

    #[test]
    fn reschedule_protocol_reports_ratio() {
        let model = MachineModel::ultrasparc();
        let row = measure(&cfp95()[3], &model, &quick(), true); // hydro2d
        assert!(row.resched_ratio > 0.5 && row.resched_ratio < 2.0);
    }

    #[test]
    fn measured_avg_bb_tracks_paper_targets() {
        let model = MachineModel::ultrasparc();
        for b in [&cint95()[4], &cint95()[3], &cfp95()[0]] {
            let row = measure(b, &model, &quick(), false);
            let rel = (row.avg_bb - b.target_block_size).abs() / b.target_block_size;
            assert!(
                rel < 0.30,
                "{}: measured {:.1} vs target {:.1}",
                b.name,
                row.avg_bb,
                b.target_block_size
            );
        }
    }

    fn parse(preset: &Preset, args: &[&str]) -> Result<ExperimentRequest, CliError> {
        ExperimentRequest::parse(preset, Args::new(args.iter().copied()))
    }

    #[test]
    fn table_presets_fix_machine_and_protocol_and_reject_bad_flags() {
        for (bad, why) in [
            (
                &["--machine", "supersparc"][..],
                "unexpected argument `--machine`",
            ),
            (&["--reschedule"], "unexpected argument `--reschedule`"),
            (&["--jobs", "x"], "bad --jobs"),
            (&["--cvs"], "unexpected argument `--cvs`"),
            (&["--shard", "0/4"], "1-indexed"),
            (
                &["--exact-budget", "9"],
                "--exact-budget needs --policy exact",
            ),
        ] {
            let e = parse(&TABLE1, bad).unwrap_err().to_string();
            assert!(e.contains(why), "{bad:?}: {e}");
        }
        let t2 = parse(&TABLE2, &["--csv", "--jobs=2"]).unwrap();
        assert!(t2.reschedule && t2.csv && t2.publishes);
        assert_eq!((t2.machine.as_str(), t2.jobs), ("ultrasparc", 2));
        assert_eq!(t2.title, TABLE2.table.unwrap().2);
        let t3 = parse(&TABLE3, &["--policy", "chain-first"]).unwrap();
        assert_eq!(t3.model.name(), "SuperSPARC");
        assert!(
            t3.title.ends_with("SuperSPARC, chain-first policy"),
            "{}",
            t3.title
        );
        let exp = parse(&EXPERIMENT, &["--machine", "vliw", "--reschedule"]).unwrap();
        assert_eq!(
            exp.title,
            "Slow profiling instrumentation on the VLIW, originals first rescheduled"
        );
    }

    #[test]
    fn only_full_default_table_runs_publish() {
        assert!(
            parse(&TABLE1, &["--no-cache", "--trace"])
                .unwrap()
                .publishes
        );
        assert!(!parse(&EXPERIMENT, &[]).unwrap().publishes);
        for partial in [
            &["--benchmark", "130.li"][..],
            &["--corpus", "golden"],
            &["--shard", "1/2"],
            &["--iterations", "40"],
            &["--policy", "stalls-first"],
            &["--policy", "exact", "--exact-budget", "9"],
        ] {
            let request = parse(&TABLE1, partial).unwrap();
            assert!(!request.publishes, "{partial:?} publishes");
        }
    }

    #[test]
    fn formatting_contains_all_rows() {
        let model = MachineModel::ultrasparc();
        let rows = vec![measure(&cint95()[4], &model, &quick(), false)];
        let text = format_table("Table X", &model, &rows, false);
        assert!(text.contains("130.li"));
        assert!(text.contains("CINT95 Average"));
        let csv = format_csv(&rows);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().nth(1).unwrap().starts_with("130.li,CINT95,"));
    }
}
